//! The one codec discipline: every serialized value in the workspace —
//! cross-shard events, shard blobs, checkpoint files — is encoded
//! by its [`WireCodec`] impl, written once in the crate that defines the
//! type. All hand-rolled, so the workspace stays free of registry
//! dependencies.
//!
//! * **Primitives** — `u8` and `bool` are one raw byte (`bool` strictly
//!   0 or 1); every other integer is unsigned LEB128 ([`put_varint`] /
//!   [`get_varint`]: 7 bits per byte, high bit = continue) range-checked
//!   on decode; `f64` is its 8-byte little-endian bit pattern; `Option`
//!   is a 0/1 marker byte; `Vec`, `VecDeque`, `String` and byte sections
//!   are length-prefixed, and [`get_len`] bounds every such prefix by the
//!   bytes that remain; tuples, arrays, `Box` and `Arc` are their
//!   elements in order.
//! * **Logs** — an [`EncodedLog`] holds an append-only record log as its
//!   encoding, so a long log is stored, checkpointed and restored as the
//!   bytes a `Vec` of its records would encode to.
//! * **Field lists** — [`wire_struct!`](crate::wire_struct) declares a
//!   plain-data struct's field order once and derives both directions;
//!   [`wire_enum!`](crate::wire_enum) does the same for a fieldless enum
//!   and its tag bytes.
//! * **Values vs overlays** — a *value* decodes to a fresh `Self`. State
//!   that is only meaningful against a structurally rebuilt owner (a
//!   table whose length is configuration, a section another component
//!   must consume exactly, an optional plane that must be armed on both
//!   sides) is an [`Overlay`]: it saves its dynamic state and loads it in
//!   place, and [`load_each`] / [`load_slice`], [`get_section`] and
//!   [`load_armed`] validate the saved shape against the rebuilt one over
//!   the same primitives. [`wire_overlay!`](crate::wire_overlay) declares
//!   an overlay's field order once and derives both directions; a model
//!   with no dynamic state declares an empty list.
//! * **Framing** — each socket message is `len: u32 LE` (length of
//!   everything after the length field) followed by `tag: u8` and an
//!   opaque body; [`write_frame`] / [`read_frame`].
//!
//! Decoding is total: malformed input yields `None`, never a panic, so a
//! corrupt or truncated peer or file cannot crash the reader.
//! [`testing::check_codec`] checks that contract for any impl, and
//! [`testing::check_overlay`] for a hand-written [`Overlay`].
//!
//! Determinism note: encoding is a pure function of the value (maps are
//! written in key order; no pointers, no padding), so identical values
//! always produce identical bytes — a prerequisite for the byte-identity
//! tests that compare the backends against each other and resumed runs
//! against uninterrupted ones.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::sync::Arc;

/// Upper bound on a single frame body, as a guard against a corrupt
/// length prefix allocating unbounded memory (64 MiB is far above any
/// legitimate round payload).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// Byte primitives
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `buf` past it. Returns
/// `None` on truncation or a value wider than 64 bits.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Reads one byte, advancing `buf`.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = buf.split_first()?;
    *buf = rest;
    Some(byte)
}

/// Reads a length prefix. Every element of a sequence (and every byte of
/// a section) costs at least one byte of input, so a prefix larger than
/// the bytes that remain is malformed — the one guard that keeps a
/// hostile length from sizing an allocation or a loop.
#[inline]
pub fn get_len(buf: &mut &[u8]) -> Option<usize> {
    let len = usize::try_from(get_varint(buf)?).ok()?;
    (len <= buf.len()).then_some(len)
}

/// Appends a length-prefixed byte slice.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte slice, advancing `buf` past it.
#[inline]
pub fn get_bytes<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = get_len(buf)?;
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Some(head)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Option<String> {
    let bytes = get_bytes(buf)?;
    String::from_utf8(bytes.to_vec()).ok()
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time so the checksum stays dependency-free.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `CRC32_SLICES[k][b]` is the CRC state after byte
/// `b` is followed by `k` zero bytes, so eight input bytes fold in with
/// eight independent lookups instead of eight dependent ones.
const CRC32_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-32 of `bytes` (IEEE polynomial, the same checksum gzip uses).
/// Footers every checkpoint file so torn or bit-flipped recovery points
/// are rejected instead of silently resuming corrupt state.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Extends a finished CRC-32 over more bytes:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, so a writer can checksum
/// its output piece by piece as it streams it.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_SLICES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Bytes a frame adds to its body: the `u32` length and the tag.
pub const FRAME_HEADER: usize = 5;

/// Writes one `len(u32 LE) | tag(u8) | body` frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len() + 1)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame, returning its tag and body. Fails with
/// `InvalidData` on a zero or oversized length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut body = Vec::new();
    let tag = read_frame_into(r, &mut body)?;
    Ok((tag, body))
}

/// [`read_frame`] into a reused buffer: replaces `body`'s contents with
/// the frame body and returns the tag.
pub fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<u8> {
    // A well-formed frame is never shorter than length + tag.
    let mut head = [0u8; FRAME_HEADER];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    body.clear();
    body.resize(len as usize - 1, 0);
    r.read_exact(body)?;
    Ok(head[4])
}

// ---------------------------------------------------------------------------
// WireCodec
// ---------------------------------------------------------------------------

/// Value-level wire encoding. Implementations must be pure functions of
/// the value so identical values encode to identical bytes, and `decode`
/// must reject malformed input with `None` rather than panicking.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing `buf` past it. `None` on malformed
    /// or truncated input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

impl WireCodec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_u8(buf)
    }
}

/// Strict: any byte other than 0 or 1 is malformed.
impl WireCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match get_u8(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

macro_rules! varint_codec {
    ($($int:ty),+) => {$(
        impl WireCodec for $int {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                <$int>::try_from(get_varint(buf)?).ok()
            }
        }
    )+};
}
varint_codec!(u16, u32, u64, usize);

/// The raw IEEE-754 bit pattern, so float state round-trips exactly and
/// anything later derived from it stays byte-identical.
impl WireCodec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (head, rest) = buf.split_first_chunk::<8>()?;
        *buf = rest;
        Some(f64::from_bits(u64::from_le_bytes(*head)))
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_str(buf)
    }
}

macro_rules! tuple_codec {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: WireCodec),+> WireCodec for ($($name,)+) {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                Some(($($name::decode(buf)?,)+))
            }
        }
    };
}
tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);
tuple_codec!(A 0, B 1, C 2, D 3);

impl<T: WireCodec + Copy + Default, const N: usize> WireCodec for [T; N] {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(buf)?;
        }
        Some(out)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match get_u8(buf)? {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = get_len(buf)?;
        // Reserve no more memory than the input itself occupies: an
        // element may be far larger decoded than encoded.
        let mut out = Vec::with_capacity(len.min(buf.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Some(out)
    }
}

impl<T: WireCodec> WireCodec for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Vec::decode(buf).map(VecDeque::from)
    }
}

impl<T: WireCodec> WireCodec for Box<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        T::decode(buf).map(Box::new)
    }
}

/// Encodes the pointee: sharing is a memory optimization, not state, so a
/// decoded value gets an `Arc` of its own.
impl<T: WireCodec> WireCodec for Arc<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        T::decode(buf).map(Arc::new)
    }
}

/// Implements [`WireCodec`] for a plain-data struct from its field list:
/// fields encode in the listed order and decode back into a struct
/// literal, so a field missing from the list is a compile error. Tuple
/// structs list their indices (`wire_struct!(PacketId { 0 })`). An
/// optional `if |v| …` clause rejects decoded values that break an
/// invariant the type's users rely on.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:tt),+ $(,)? } $(if $valid:expr)?) => {
        impl $crate::wire::WireCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::WireCodec::encode(&self.$field, out);)+
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                let v = Self { $($field: $crate::wire::WireCodec::decode(buf)?),+ };
                $(
                    let valid: fn(&Self) -> bool = $valid;
                    if !valid(&v) {
                        return None;
                    }
                )?
                Some(v)
            }
        }
    };
}

/// Implements [`WireCodec`] for a fieldless enum as one tag byte per
/// variant; an unlisted tag is malformed.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::wire::WireCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $(Self::$variant => $tag),+
                });
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                match $crate::wire::get_u8(buf)? {
                    $($tag => Some(Self::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Overlays
// ---------------------------------------------------------------------------

/// State saved for a checkpoint and loaded back *in place*, onto an owner
/// rebuilt from the same configuration: structure (wiring, table shapes,
/// configuration) is rebuilt, only what evolves during a run is saved.
/// `save` is a pure function of that state; `load` is total — malformed
/// input, or a shape that disagrees with the rebuilt owner, is `None`,
/// never a panic, and the owner must not be used afterwards. The model
/// traits (terminals, arbiters, routing engines) have it as a supertrait
/// with no default, so every model declares its state with
/// [`wire_overlay!`](crate::wire_overlay) — `wire_overlay!(Model {})`
/// when it has none.
pub trait Overlay {
    /// Appends the dynamic state to `out`.
    fn save(&self, out: &mut Vec<u8>);
    /// Overlays state written by [`Overlay::save`], advancing `buf`.
    fn load(&mut self, buf: &mut &[u8]) -> Option<()>;
}

impl<T: Overlay + ?Sized> Overlay for Box<T> {
    fn save(&self, out: &mut Vec<u8>) {
        (**self).save(out);
    }
    fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        (**self).load(buf)
    }
}

/// Implements [`Overlay`] from one ordered field list, so the order is
/// written once: `wire_overlay!(Type { a, b: kind, … } if |s| …)`. A
/// field without a kind is a [`WireCodec`] value. The kinds: `overlay`, a
/// nested [`Overlay`]; `each` / `sections`, a table of overlays
/// ([`put_each`] / [`put_sections`]); `inline`, a table of overlays
/// without a count, its length fixed by an earlier field; `slice`, a
/// table of values ([`put_slice`]); `armed`, an optional overlay plane
/// ([`put_armed`]); `map`, a `HashMap` ([`put_map`]). Counted and armed
/// kinds check the saved shape against the rebuilt owner, and the
/// optional `if |s| …` clause runs after a load to reject state that
/// breaks an invariant. `wire_overlay!(value Type)` makes a value an
/// overlay that replaces itself.
#[macro_export]
macro_rules! wire_overlay {
    (@save $s:ident $o:ident $f:ident) => { $crate::wire::WireCodec::encode(&$s.$f, $o) };
    (@save $s:ident $o:ident $f:ident overlay) => { $crate::wire::Overlay::save(&$s.$f, $o) };
    (@save $s:ident $o:ident $f:ident each) => {
        $crate::wire::put_each($o, &$s.$f, $crate::wire::Overlay::save)
    };
    (@save $s:ident $o:ident $f:ident sections) => { $crate::wire::put_sections($o, &$s.$f) };
    (@save $s:ident $o:ident $f:ident inline) => {
        $s.$f.iter().for_each(|x| $crate::wire::Overlay::save(x, $o))
    };
    (@save $s:ident $o:ident $f:ident slice) => { $crate::wire::put_slice($o, &$s.$f) };
    (@save $s:ident $o:ident $f:ident armed) => {
        $crate::wire::put_armed($o, $s.$f.as_ref(), $crate::wire::Overlay::save)
    };
    (@save $s:ident $o:ident $f:ident map) => { $crate::wire::put_map($o, &$s.$f) };
    (@load $s:ident $b:ident $f:ident) => { $crate::wire::load_value(&mut $s.$f, $b) };
    (@load $s:ident $b:ident $f:ident overlay) => { $crate::wire::Overlay::load(&mut $s.$f, $b) };
    (@load $s:ident $b:ident $f:ident each) => {
        $crate::wire::load_each(&mut $s.$f, $b, $crate::wire::Overlay::load)
    };
    (@load $s:ident $b:ident $f:ident sections) => { $crate::wire::load_sections(&mut $s.$f, $b) };
    (@load $s:ident $b:ident $f:ident inline) => {
        $s.$f.iter_mut().try_for_each(|x| $crate::wire::Overlay::load(x, $b))
    };
    (@load $s:ident $b:ident $f:ident slice) => { $crate::wire::load_slice(&mut $s.$f, $b) };
    (@load $s:ident $b:ident $f:ident armed) => {
        $crate::wire::load_armed($b, $s.$f.as_mut(), $crate::wire::Overlay::load)
    };
    (@load $s:ident $b:ident $f:ident map) => { $crate::wire::load_map(&mut $s.$f, $b) };
    (value $ty:ty) => {
        impl $crate::wire::Overlay for $ty {
            fn save(&self, out: &mut Vec<u8>) {
                $crate::wire::WireCodec::encode(self, out)
            }
            fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
                $crate::wire::load_value(self, buf)
            }
        }
    };
    ($ty:ty { $($field:ident $(: $kind:ident)?),* $(,)? } $(if $valid:expr)?) => {
        impl $crate::wire::Overlay for $ty {
            fn save(&self, out: &mut Vec<u8>) {
                let _ = &out;
                $($crate::wire_overlay!(@save self out $field $($kind)?);)*
            }
            fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
                let _ = &buf;
                $($crate::wire_overlay!(@load self buf $field $($kind)?)?;)*
                $(
                    let valid: fn(&Self) -> bool = $valid;
                    if !valid(self) {
                        return None;
                    }
                )?
                Some(())
            }
        }
    };
}

/// Writes a table whose length is structural: the count, then each
/// element through `put`.
pub fn put_each<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&T, &mut Vec<u8>)) {
    put_varint(out, items.len() as u64);
    for item in items {
        put(item, out);
    }
}

/// Overlays a table written by [`put_each`] onto the rebuilt one: the
/// saved count must equal the rebuilt length, and `load` restores each
/// element in place.
pub fn load_each<T>(
    items: &mut [T],
    buf: &mut &[u8],
    mut load: impl FnMut(&mut T, &mut &[u8]) -> Option<()>,
) -> Option<()> {
    if get_len(buf)? != items.len() {
        return None;
    }
    items.iter_mut().try_for_each(|item| load(item, buf))
}

/// [`put_each`] for a table of values.
#[inline]
pub fn put_slice<T: WireCodec>(out: &mut Vec<u8>, items: &[T]) {
    put_each(out, items, T::encode);
}

/// Replaces `slot` with a decoded value — the `load` of an overlay whose
/// element is a plain value.
#[inline]
pub fn load_value<T: WireCodec>(slot: &mut T, buf: &mut &[u8]) -> Option<()> {
    *slot = T::decode(buf)?;
    Some(())
}

/// [`load_each`] for a table of values.
pub fn load_slice<T: WireCodec>(items: &mut [T], buf: &mut &[u8]) -> Option<()> {
    load_each(items, buf, load_value)
}

/// Writes what `body` appends as a length-prefixed section, so a reader
/// can check the owner of the section consumed it exactly.
pub fn put_section(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    body(out);
    let end = out.len();
    put_varint(out, (end - start) as u64);
    let prefix = out.len() - end;
    out[start..].rotate_right(prefix);
}

/// Reads a section written by [`put_section`]; `body` must consume it
/// exactly, which catches drift between a save and its load at decode
/// time instead of corrupting what follows.
pub fn get_section<R>(buf: &mut &[u8], body: impl FnOnce(&mut &[u8]) -> Option<R>) -> Option<R> {
    let mut section = get_bytes(buf)?;
    let value = body(&mut section)?;
    section.is_empty().then_some(value)
}

/// [`put_each`] for overlays whose elements vary by type (`dyn` models):
/// each element's state is a section of its own.
pub fn put_sections<T: Overlay>(out: &mut Vec<u8>, items: &[T]) {
    put_each(out, items, |item, o| put_section(o, |o| item.save(o)));
}

/// [`load_each`] for a table written by [`put_sections`]; every element
/// must consume its section exactly.
pub fn load_sections<T: Overlay>(items: &mut [T], buf: &mut &[u8]) -> Option<()> {
    load_each(items, buf, |item, b| get_section(b, |b| item.load(b)))
}

/// Writes a map as its entries in ascending key order — iteration order
/// is not state — so the bytes are those of the sorted `Vec<(K, V)>`.
pub fn put_map<K: WireCodec + Ord, V: WireCodec, S>(out: &mut Vec<u8>, map: &HashMap<K, V, S>) {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_each(out, &entries, |(k, v), o| {
        k.encode(o);
        v.encode(o);
    });
}

/// Replaces a map with entries written by [`put_map`]. Keys must be
/// strictly ascending, so a repeated key is malformed instead of
/// resolving last-one-wins.
pub fn load_map<K: WireCodec + Ord + Hash, V: WireCodec, S: BuildHasher + Default>(
    map: &mut HashMap<K, V, S>,
    buf: &mut &[u8],
) -> Option<()> {
    let entries = Vec::<(K, V)>::decode(buf)?;
    if !entries.is_sorted_by(|a, b| a.0 < b.0) {
        return None;
    }
    *map = entries.into_iter().collect();
    Some(())
}

/// Writes an optional plane: an armed marker, then the plane through
/// `put` when present.
pub fn put_armed<T>(out: &mut Vec<u8>, plane: Option<&T>, put: impl FnOnce(&T, &mut Vec<u8>)) {
    out.push(u8::from(plane.is_some()));
    if let Some(p) = plane {
        put(p, out);
    }
}

/// Overlays a plane written by [`put_armed`]. Whether the plane exists is
/// configuration, so the saved marker must match the rebuilt owner.
pub fn load_armed<T>(
    buf: &mut &[u8],
    plane: Option<&mut T>,
    load: impl FnOnce(&mut T, &mut &[u8]) -> Option<()>,
) -> Option<()> {
    match (get_u8(buf)?, plane) {
        (0, None) => Some(()),
        (1, Some(p)) => load(p, buf),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Encoded logs
// ---------------------------------------------------------------------------

/// An append-only log of records kept as their wire encoding: the
/// concatenated [`WireCodec`] bytes of every record plus the record
/// count. A long per-component log costs its encoded size (a few bytes
/// per varint field) instead of `size_of::<T>()` per record, and its
/// encoding is byte-identical to `Vec<T>`'s — the count, then the bytes —
/// so a checkpoint copies the bytes instead of re-encoding every record.
/// Decoding is total: [`WireCodec::decode`] decodes every record to
/// validate it, so [`EncodedLog::iter`] never meets a malformed one.
pub struct EncodedLog<T> {
    bytes: Vec<u8>,
    len: usize,
    _records: PhantomData<fn() -> T>,
}

impl<T: WireCodec> EncodedLog<T> {
    /// An empty log.
    pub fn new() -> Self {
        EncodedLog {
            bytes: Vec::new(),
            len: 0,
            _records: PhantomData,
        }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, record: T) {
        record.encode(&mut self.bytes);
        self.len += 1;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of record encoding the log holds (excluding the count).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes the records in insertion order.
    pub fn iter(&self) -> LogIter<'_, T> {
        LogIter {
            rest: &self.bytes,
            left: self.len,
            _records: PhantomData,
        }
    }
}

impl<T> Clone for EncodedLog<T> {
    fn clone(&self) -> Self {
        EncodedLog {
            bytes: self.bytes.clone(),
            len: self.len,
            _records: PhantomData,
        }
    }
}

impl<T: WireCodec> Default for EncodedLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: WireCodec> WireCodec for EncodedLog<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len as u64);
        out.extend_from_slice(&self.bytes);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = get_len(buf)?;
        let start = *buf;
        for _ in 0..len {
            T::decode(buf)?;
        }
        Some(EncodedLog {
            bytes: start[..start.len() - buf.len()].to_vec(),
            len,
            _records: PhantomData,
        })
    }
}

/// The decoding iterator of an [`EncodedLog`].
pub struct LogIter<'a, T> {
    rest: &'a [u8],
    left: usize,
    _records: PhantomData<fn() -> T>,
}

impl<T: WireCodec> Iterator for LogIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(T::decode(&mut self.rest).expect("a log holds only records it encoded or validated"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T: WireCodec> ExactSizeIterator for LogIter<'_, T> {}

// ---------------------------------------------------------------------------
// Totality harness
// ---------------------------------------------------------------------------

/// Test support shared by every crate that implements [`WireCodec`] or
/// [`Overlay`].
#[doc(hidden)]
pub mod testing {
    use super::{Overlay, WireCodec};
    use crate::rng::Rng;

    /// Bit positions flipped per sample; a shorter encoding has every
    /// bit flipped, a longer one this many seeded positions.
    const MAX_FLIPS: usize = 2048;

    /// Checks the codec contract on `cases` samples drawn from `sample`:
    /// decode ∘ encode consumes the encoding exactly, re-encoding the
    /// decoded value is byte-equal (so no `PartialEq` is needed), every
    /// truncation is `None`, and neither single-bit flips nor random
    /// garbage make `decode` panic.
    pub fn check_codec<T: WireCodec>(
        seed: u64,
        cases: usize,
        mut sample: impl FnMut(&mut Rng) -> T,
    ) {
        let mut rng = Rng::new(seed);
        let mut bytes = Vec::new();
        let mut again = Vec::new();
        for case in 0..cases {
            bytes.clear();
            sample(&mut rng).encode(&mut bytes);
            let mut rest = bytes.as_slice();
            let back = T::decode(&mut rest)
                .unwrap_or_else(|| panic!("case {case}: rejected its own encoding"));
            assert!(
                rest.is_empty(),
                "case {case}: decode left {} bytes",
                rest.len()
            );
            again.clear();
            back.encode(&mut again);
            assert_eq!(bytes, again, "case {case}: re-encoding diverged");
            check_damage(case, &mut rng, &bytes, |b| T::decode(&mut &b[..]).is_some());
        }
    }

    /// Checks an [`Overlay`] the way [`check_codec`] checks a codec: each
    /// sample's saved bytes load into a `fresh` owner, consuming them
    /// exactly, and the loaded owner saves the same bytes; every
    /// truncation fails to load, and neither single-bit flips nor random
    /// garbage make `load` panic.
    pub fn check_overlay<T: Overlay>(
        seed: u64,
        cases: usize,
        mut sample: impl FnMut(&mut Rng) -> T,
        mut fresh: impl FnMut() -> T,
    ) {
        let mut rng = Rng::new(seed);
        let mut bytes = Vec::new();
        let mut again = Vec::new();
        for case in 0..cases {
            bytes.clear();
            sample(&mut rng).save(&mut bytes);
            let mut back = fresh();
            let mut rest = bytes.as_slice();
            back.load(&mut rest)
                .unwrap_or_else(|| panic!("case {case}: rejected its own bytes"));
            assert!(
                rest.is_empty(),
                "case {case}: load left {} bytes",
                rest.len()
            );
            again.clear();
            back.save(&mut again);
            assert_eq!(bytes, again, "case {case}: re-saving diverged");
            check_damage(case, &mut rng, &bytes, |b| {
                fresh().load(&mut &b[..]).is_some()
            });
        }
    }

    /// The passes both checks share on one sample's `bytes`: `read`
    /// rejects every truncation, and survives every single-bit flip and
    /// a random-length run of garbage.
    fn check_damage(case: usize, rng: &mut Rng, bytes: &[u8], mut read: impl FnMut(&[u8]) -> bool) {
        for cut in 0..bytes.len() {
            assert!(
                !read(&bytes[..cut]),
                "case {case}: {cut} of {} bytes read",
                bytes.len()
            );
        }
        let bits = bytes.len() * 8;
        let mut flipped = bytes.to_vec();
        for i in 0..bits.min(MAX_FLIPS) {
            let bit = if bits <= MAX_FLIPS {
                i
            } else {
                (rng.gen_u64() % bits as u64) as usize
            };
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = read(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let len = (rng.gen_u64() % (bytes.len() as u64 + 32)) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_u64() as u8).collect();
        let _ = read(&garbage);
    }
}

#[cfg(test)]
mod tests {
    use super::testing::check_codec;
    use super::*;
    use crate::engine::{EngineMetrics, EventStamp, RunOutcome, TaggedTrace, BATCH_BUCKETS};
    use crate::host::{HostRoundSlice, HostShardTimes};
    use crate::rng::Rng;
    use crate::snapshot::ShardScalars;
    use crate::time::Time;
    use crate::trace::TraceEvent;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice), Some(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut slice: &[u8] = &[0x80];
        assert_eq!(get_varint(&mut slice), None, "truncated continuation");
        // 11 continuation bytes: wider than 64 bits.
        let wide = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut slice: &[u8] = &wide;
        assert_eq!(get_varint(&mut slice), None, "65-bit value");
    }

    /// The byte-at-a-time CRC-32 the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the standard check value");
        assert_eq!(crc32(b""), 0);
        for (seed, mb) in [(0xC3C3, 3), (0x51CE, 2)] {
            let mut rng = Rng::new(seed);
            let buf: Vec<u8> = (0..mb << 20).map(|_| rng.gen_u64() as u8).collect();
            for len in 0..=64 {
                assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
            }
            // Misaligned sub-slices, and the whole multi-MB buffer.
            for (start, len) in [(1, 1000), (3, 4097), (7, 65_543), (5, 1 << 20)] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "{start}+{len}");
            }
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed:#x}");
            // Extending piece by piece equals one pass, at any split.
            for split in [0, 1, 7, 8, 9, 1000, buf.len()] {
                let (a, b) = buf.split_at(split);
                assert_eq!(crc32_extend(crc32(a), b), crc32(&buf), "split {split}");
            }
        }
    }

    #[test]
    fn frame_round_trips_over_a_pipe_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        write_frame(&mut wire, 9, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (9, Vec::new()));
    }

    #[test]
    fn frame_rejects_bad_length() {
        let mut cursor = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(read_frame(&mut cursor).is_err(), "zero length");
        let mut huge = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        huge.push(0);
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor).is_err(), "oversized length");
    }

    fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).expect("decode");
        assert_eq!(&back, v);
        assert!(slice.is_empty(), "decode must consume the encoding");
    }

    #[test]
    fn des_types_round_trip() {
        round_trip(&Time::new(123_456_789, 250));
        round_trip(&EventStamp {
            src: u32::MAX,
            seq: u64::MAX,
        });
        round_trip(&TraceEvent {
            time: Time::new(42, 3),
            src: 17,
            kind: 7,
            id: u64::MAX,
            sub: u32::MAX,
        });
        round_trip(&RunOutcome::Drained);
        round_trip(&RunOutcome::Failed("component 3 exploded".into()));
        round_trip(&RunOutcome::Watchdog {
            last_progress: 9_999,
        });
        round_trip(&Some(77u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u64, 2, u64::MAX]);
    }

    /// The primitive encodings DESIGN.md tabulates, byte for byte.
    #[test]
    fn primitive_encodings_are_pinned() {
        fn bytes<T: WireCodec>(v: T) -> Vec<u8> {
            let mut out = Vec::new();
            v.encode(&mut out);
            out
        }
        assert_eq!(bytes(0xABu8), [0xAB]);
        assert_eq!(bytes(true), [1]);
        assert_eq!(bytes(300u16), [0xAC, 0x02]);
        assert_eq!(bytes(300u32), bytes(300u64));
        assert_eq!(bytes(300usize), bytes(300u64));
        assert_eq!(bytes(1.0f64), 1.0f64.to_bits().to_le_bytes());
        assert_eq!(bytes(Some(5u32)), [1, 5]);
        assert_eq!(bytes(Option::<u32>::None), [0]);
        assert_eq!(bytes(vec![7u8, 8]), [2, 7, 8]);
        assert_eq!(bytes(VecDeque::from([7u64, 8])), [2, 7, 8]);
        assert_eq!(bytes("hi".to_string()), [2, b'h', b'i']);
        assert_eq!(bytes((1u8, 2u32, false)), [1, 2, 0]);
        assert_eq!(bytes([3u64, 4]), [3, 4]);
        assert_eq!(bytes(Box::new(9u64)), [9]);
        assert_eq!(bytes(Arc::new(9u64)), [9]);
    }

    #[test]
    fn bool_rejects_non_canonical_bytes() {
        for byte in 2..=u8::MAX {
            assert_eq!(bool::decode(&mut [byte].as_slice()), None, "byte {byte}");
        }
    }

    #[test]
    fn narrow_integers_reject_out_of_range_values() {
        let mut wide = Vec::new();
        put_varint(&mut wide, u64::from(u32::MAX) + 1);
        assert_eq!(u32::decode(&mut wide.as_slice()), None);
        assert_eq!(u16::decode(&mut wide.as_slice()), None);
        assert_eq!(u64::decode(&mut wide.as_slice()), Some(1 << 32));
    }

    #[test]
    fn vec_decode_rejects_hostile_length() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut slice = buf.as_slice();
        assert_eq!(Vec::<u64>::decode(&mut slice), None);
        // A count the input could hold, of elements far larger decoded
        // than encoded, must not reserve count × size up front.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 20);
        buf.resize(buf.len() + (1 << 20), 0);
        type Big = [[u64; 32]; 32];
        assert_eq!(Vec::<Big>::decode(&mut buf.as_slice()), None);
    }

    /// An overlay with an invariant: `n` stays below 100.
    struct Part {
        n: u32,
    }
    crate::wire_overlay!(Part { n } if |p| p.n < 100);

    /// One field of every kind `wire_overlay!` accepts.
    struct Owner {
        value: u64,
        nested: Part,
        rows: Vec<Part>,
        dyns: Vec<Box<dyn Overlay>>,
        fixed: Vec<Part>,
        values: Vec<u16>,
        plane: Option<Part>,
        index: HashMap<u32, u8>,
    }
    crate::wire_overlay!(Owner {
        value,
        nested: overlay,
        rows: each,
        dyns: sections,
        fixed: inline,
        values: slice,
        plane: armed,
        index: map,
    });

    /// A freshly built owner: `rows` tables, the plane armed or not.
    fn owner(rows: usize, armed: bool) -> Owner {
        let parts = |k| (0..k).map(|_| Part { n: 0 }).collect::<Vec<_>>();
        Owner {
            value: 0,
            nested: Part { n: 0 },
            rows: parts(rows),
            dyns: (0..rows).map(|_| Box::new(Part { n: 0 }) as _).collect(),
            fixed: parts(rows),
            values: vec![0; rows],
            plane: armed.then_some(Part { n: 0 }),
            index: HashMap::new(),
        }
    }

    fn saved(o: &Owner) -> Vec<u8> {
        let mut out = Vec::new();
        o.save(&mut out);
        out
    }

    #[test]
    fn overlay_fields_round_trip_and_check_their_shape() {
        let mut live = owner(3, true);
        live.value = 1 << 40;
        live.nested.n = 7;
        live.rows[1].n = 11;
        live.dyns[2] = Box::new(Part { n: 12 });
        live.fixed[0].n = 13;
        live.values[2] = 300;
        live.plane.as_mut().unwrap().n = 14;
        live.index.extend([(9, 1), (2, 3), (5, 4)]);
        let bytes = saved(&live);

        let mut back = owner(3, true);
        let mut rest = bytes.as_slice();
        assert_eq!(back.load(&mut rest), Some(()));
        assert!(rest.is_empty(), "load left {} bytes", rest.len());
        assert_eq!(saved(&back), bytes, "re-save diverged");
        assert_eq!(back.index, live.index);

        assert_eq!(
            owner(2, true).load(&mut bytes.as_slice()),
            None,
            "table shape"
        );
        assert_eq!(
            owner(3, false).load(&mut bytes.as_slice()),
            None,
            "plane armed"
        );
        for cut in 0..bytes.len() {
            assert_eq!(owner(3, true).load(&mut &bytes[..cut]), None, "cut {cut}");
        }
        live.fixed[2].n = 100;
        let broken = saved(&live);
        assert_eq!(
            owner(3, true).load(&mut broken.as_slice()),
            None,
            "invariant"
        );
    }

    #[test]
    fn maps_save_sorted_and_reject_unsorted_keys() {
        let map: HashMap<u32, u8> = [(30, 1), (10, 2), (20, 3)].into();
        let mut out = Vec::new();
        put_map(&mut out, &map);
        assert_eq!(out, [3, 10, 2, 20, 3, 30, 1]);
        // The hasher is not state: an id-hashed map writes the same bytes.
        let ids: crate::IdMap<u32, u8> = map.clone().into_iter().collect();
        let mut same = Vec::new();
        put_map(&mut same, &ids);
        assert_eq!(same, out);
        let mut back = HashMap::new();
        assert_eq!(load_map(&mut back, &mut out.as_slice()), Some(()));
        assert_eq!(back, map);
        for bad in [[2, 10, 2, 10, 3], [2, 20, 2, 10, 3]] {
            assert_eq!(load_map(&mut back, &mut bad.as_slice()), None, "{bad:?}");
        }
    }

    #[test]
    fn a_stateless_overlay_saves_nothing() {
        struct Stateless;
        crate::wire_overlay!(Stateless {});
        let mut out = Vec::new();
        Stateless.save(&mut out);
        assert!(out.is_empty());
        assert_eq!(Stateless.load(&mut [].as_slice()), Some(()));
    }

    #[test]
    fn sections_and_tables_check_their_shape() {
        let mut out = vec![0xEE];
        put_section(&mut out, |o| 300u32.encode(o));
        assert_eq!(out, [0xEE, 2, 0xAC, 0x02]);
        let body = &out[1..];
        assert_eq!(get_section(&mut &*body, u32::decode), Some(300));
        assert_eq!(get_section(&mut &*body, u8::decode), None, "not consumed");

        let mut table = [0u32; 3];
        let mut out = Vec::new();
        put_slice(&mut out, &[4u32, 5, 6]);
        assert_eq!(load_slice(&mut table, &mut out.as_slice()), Some(()));
        assert_eq!(table, [4, 5, 6]);
        assert_eq!(load_slice(&mut [0u32; 2], &mut out.as_slice()), None);

        let mut armed = Some(0u64);
        let load = load_value::<u64>;
        assert_eq!(
            load_armed(&mut [1, 9].as_slice(), armed.as_mut(), load),
            Some(())
        );
        assert_eq!(armed, Some(9));
        assert_eq!(load_armed(&mut [0].as_slice(), armed.as_mut(), load), None);
        assert_eq!(load_armed(&mut [1, 9].as_slice(), None, load), None);
    }

    fn rand_time(rng: &mut Rng) -> Time {
        Time::new(rng.gen_u64() >> (rng.gen_u64() % 64), rng.gen_u64() as u8)
    }

    fn rand_stamp(rng: &mut Rng) -> EventStamp {
        EventStamp {
            src: rng.gen_u64() as u32,
            seq: rng.gen_u64() >> (rng.gen_u64() % 64),
        }
    }

    fn rand_trace(rng: &mut Rng) -> TraceEvent {
        TraceEvent {
            time: rand_time(rng),
            src: rng.gen_u64() as u32,
            kind: rng.gen_u64() as u8,
            id: rng.gen_u64(),
            sub: rng.gen_u64() as u32,
        }
    }

    fn rand_batches(rng: &mut Rng) -> [u64; BATCH_BUCKETS] {
        std::array::from_fn(|_| rng.gen_u64() >> (rng.gen_u64() % 64))
    }

    /// One row per `WireCodec` type this crate defines, primitives and
    /// containers included.
    #[test]
    fn every_des_codec_is_total() {
        check_codec(1, 40, |r| r.gen_u64() as u8);
        check_codec(2, 40, |r| r.gen_bool(0.5));
        check_codec(3, 40, |r| r.gen_u64() as u16);
        check_codec(4, 40, |r| r.gen_u64() as u32);
        check_codec(5, 40, |r| r.gen_u64() >> (r.gen_u64() % 64));
        check_codec(6, 40, |r| (r.gen_u64() >> (r.gen_u64() % 64)) as usize);
        check_codec(7, 40, |r| f64::from_bits(r.gen_u64()));
        check_codec(8, 40, |r| format!("class-{}", r.gen_u64() % 1000));
        check_codec(9, 40, |r| (r.gen_u64() as u8, r.gen_u64() as u32));
        check_codec(10, 40, |r| {
            (r.gen_u64(), r.gen_bool(0.5), r.gen_u64() as u16)
        });
        check_codec(11, 40, |r| (r.gen_u64(), 7u8, 1u32, rand_time(r)));
        check_codec(12, 40, rand_batches);
        check_codec(13, 40, |r| r.gen_bool(0.5).then(|| r.gen_u64()));
        check_codec(14, 40, |r| {
            (0..r.gen_u64() % 9)
                .map(|_| rand_stamp(r))
                .collect::<Vec<_>>()
        });
        check_codec(15, 40, |r| {
            (0..r.gen_u64() % 9)
                .map(|_| r.gen_u64())
                .collect::<VecDeque<_>>()
        });
        check_codec(16, 40, |r| Box::new(rand_time(r)));
        check_codec(17, 40, |r| Arc::new(rand_stamp(r)));
        check_codec(18, 40, rand_time);
        check_codec(19, 40, rand_stamp);
        check_codec(20, 40, rand_trace);
        check_codec(21, 40, |r| TaggedTrace {
            stamp: rand_stamp(r),
            recno: r.gen_u64() as u32,
            ev: rand_trace(r),
        });
        check_codec(22, 40, |r| EngineMetrics {
            events_executed: r.gen_u64(),
            batches: r.gen_u64(),
            batch_counts: rand_batches(r),
            queue_len: r.gen_u64() as usize >> 16,
            queue_high_water: r.gen_u64() as usize >> 16,
            total_enqueued: r.gen_u64(),
            horizon: r.gen_u64() as usize >> 40,
            horizon_resizes: r.gen_u64() >> 32,
            overflow_spills: r.gen_u64() >> 32,
            overflow_len: r.gen_u64() as usize >> 40,
        });
        check_codec(23, 40, |r| match r.gen_u64() % 5 {
            0 => RunOutcome::Drained,
            1 => RunOutcome::Stopped,
            2 => RunOutcome::TickLimit,
            3 => RunOutcome::Failed(format!("component {} exploded", r.gen_u64() % 99)),
            _ => RunOutcome::Watchdog {
                last_progress: r.gen_u64() >> 20,
            },
        });
        check_codec(24, 40, |r| Rng::new(r.gen_u64()));
        check_codec(25, 40, |r| ShardScalars {
            now: rand_time(r),
            ext_seq: r.gen_u64() >> 30,
            last_progress: r.gen_u64() >> 30,
            events_executed: r.gen_u64() >> 20,
            batches: r.gen_u64() >> 24,
            batch_counts: rand_batches(r),
        });
        let slice = |r: &mut Rng| HostRoundSlice {
            start_ns: r.gen_u64() >> 20,
            tick: r.gen_u64() >> 30,
            events: r.gen_u64() >> 40,
            execute_ns: r.gen_u64() >> 30,
            exchange_ns: r.gen_u64() >> 30,
        };
        check_codec(26, 40, slice);
        check_codec(27, 40, |r| HostShardTimes {
            sample: r.gen_u64() as u32 % 128,
            total_batches: r.gen_u64() >> 30,
            drain_ns: r.gen_u64() >> 20,
            execute_ns: r.gen_u64() >> 20,
            classes: (0..r.gen_u64() % 4)
                .map(|c| (format!("class{c}"), r.gen_u64() >> 20, r.gen_u64() >> 40))
                .collect(),
            round_slices: (0..r.gen_u64() % 5).map(|_| slice(r)).collect(),
            dropped_slices: r.gen_u64() % 3,
            ..HostShardTimes::default()
        });
        check_codec(28, 40, |r| {
            let mut log = EncodedLog::new();
            for _ in 0..r.gen_u64() % 9 {
                log.push(rand_stamp(r));
            }
            log
        });
    }

    /// A log's encoding is its records' `Vec` encoding, and it decodes
    /// back to the records it was given.
    #[test]
    fn encoded_log_is_the_vec_encoding() {
        let mut rng = Rng::new(0x10C5);
        for n in [0, 1, 2, 200] {
            let stamps: Vec<EventStamp> = (0..n).map(|_| rand_stamp(&mut rng)).collect();
            let mut log = EncodedLog::new();
            for &s in &stamps {
                log.push(s);
            }
            assert_eq!(log.len(), n);
            assert_eq!(log.iter().len(), n);
            assert_eq!(log.iter().collect::<Vec<_>>(), stamps);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            stamps.encode(&mut want);
            log.encode(&mut got);
            assert_eq!(got, want);
            assert_eq!(log.byte_len(), want.len() - 1 - usize::from(n >= 128));
            let back = EncodedLog::<EventStamp>::decode(&mut want.as_slice()).expect("decodes");
            assert_eq!(back.iter().collect::<Vec<_>>(), stamps);
        }
    }
}
