//! The checkpoint file format: a versioned, CRC-protected container for
//! the engine-state blob every backend produces at a barrier round.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic    4 bytes  b"SSCP"
//! version  varint   format version (currently 1)
//! seed     varint   simulation seed (identity check on resume)
//! shards   varint   number of shards in the engine blob
//! tick     varint   barrier tick the state was captured at
//! round    varint   checkpoint ordinal (tick / interval)
//! terms    varint   terminal count (identity check on resume)
//! routers  varint   router count (identity check on resume)
//! blob     bytes    length-prefixed engine-state blob
//!                   (trace section + per-shard blobs, the uniform
//!                   layout every engine backend writes)
//! crc      4 bytes  little-endian CRC-32 of everything above
//! ```
//!
//! Reads are *total*: any truncation, garbage, or bit flip yields a typed
//! [`CheckpointError`], never a panic. The resume path additionally
//! verifies the identity fields against the freshly built simulation so a
//! checkpoint cannot be restored into a different configuration.
//!
//! Writes go through a temporary file in the same directory followed by a
//! rename, so a crash mid-write never leaves a torn file that a later
//! recovery pass could mistake for a completed checkpoint.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use supersim_des::wire::{crc32, crc32_extend, get_bytes, get_len, put_varint, WireCodec};
use supersim_des::{wire_struct, Tick};

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"SSCP";

/// Current format version.
pub const VERSION: u64 = 1;

/// The decoded checkpoint header (everything before the engine blob).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Format version of the file.
    pub version: u64,
    /// Simulation seed the run was started with.
    pub seed: u64,
    /// Number of shards whose state the blob carries.
    pub num_shards: u32,
    /// Barrier tick the state was captured at.
    pub tick: Tick,
    /// Checkpoint ordinal (1 for the first boundary).
    pub round: u64,
    /// Terminal count of the configuration.
    pub terminals: u32,
    /// Router count of the configuration.
    pub routers: u32,
}

wire_struct!(CheckpointHeader {
    version,
    seed,
    num_shards,
    tick,
    round,
    terminals,
    routers,
});

/// Everything `ssreport --checkpoint` prints: the header plus the blob
/// layout and integrity status.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// The decoded header.
    pub header: CheckpointHeader,
    /// Whether the CRC-32 footer matches the file contents.
    pub crc_ok: bool,
    /// Size of the trace section inside the blob, if one is present.
    pub trace_bytes: Option<usize>,
    /// Per-shard blob sizes in shard order.
    pub shard_bytes: Vec<usize>,
    /// Total file size in bytes.
    pub file_bytes: usize,
}

/// Errors from reading or writing a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The file is not a parseable checkpoint (bad magic, truncated
    /// header, malformed framing).
    Malformed(&'static str),
    /// The file parses but its format version is not supported.
    Version(u64),
    /// The CRC-32 footer does not match the contents — the file was
    /// corrupted (or truncated mid-blob).
    Corrupt,
    /// The checkpoint belongs to a different simulation (seed, shard
    /// count, or network size disagree with the built configuration).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CheckpointError::Malformed(what) => {
                write!(f, "not a checkpoint file: {what}")
            }
            CheckpointError::Version(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::Corrupt => {
                write!(f, "checkpoint CRC mismatch — the file is corrupted")
            }
            CheckpointError::Mismatch(why) => {
                write!(f, "checkpoint does not match this simulation: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Writes a checkpoint image — magic, header, blob length, blob, CRC
/// footer — to `w`, checksumming each piece as it is written, so the
/// blob is never copied into a second buffer.
fn write_image<W: Write>(w: &mut W, header: &CheckpointHeader, blob: &[u8]) -> io::Result<()> {
    let mut head = Vec::with_capacity(64);
    head.extend_from_slice(&MAGIC);
    header.encode(&mut head);
    put_varint(&mut head, blob.len() as u64);
    w.write_all(&head)?;
    w.write_all(blob)?;
    let crc = crc32_extend(crc32(&head), blob);
    w.write_all(&crc.to_le_bytes())
}

/// Serializes a checkpoint into its wire form (header + blob + CRC).
pub fn encode(header: &CheckpointHeader, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blob.len() + 64);
    write_image(&mut out, header, blob).expect("writing to a Vec cannot fail");
    out
}

/// Reads the magic and the header. The version is judged before the
/// fields after it, whose layout only this version promises.
fn decode_header(buf: &mut &[u8]) -> Result<CheckpointHeader, CheckpointError> {
    use CheckpointError::Malformed;
    *buf = buf.strip_prefix(&MAGIC).ok_or(Malformed("bad magic"))?;
    match u64::decode(&mut &**buf) {
        Some(VERSION) => CheckpointHeader::decode(buf).ok_or(Malformed("bad header")),
        Some(version) => Err(CheckpointError::Version(version)),
        None => Err(Malformed("truncated header")),
    }
}

/// Decodes a checkpoint image into its header and engine-state blob.
///
/// Total: every malformation maps to a [`CheckpointError`]. The CRC is
/// verified over the whole image; a mismatch is [`CheckpointError::Corrupt`].
pub fn decode(image: &[u8]) -> Result<(CheckpointHeader, Vec<u8>), CheckpointError> {
    use CheckpointError::Malformed;
    if image.len() < 4 {
        return Err(Malformed("shorter than the CRC footer"));
    }
    let (body, footer) = image.split_at(image.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
    let mut buf = body;
    let header = decode_header(&mut buf)?;
    let blob = get_bytes(&mut buf).ok_or(Malformed("truncated blob"))?;
    if !buf.is_empty() {
        return Err(Malformed("trailing bytes after blob"));
    }
    if crc32(body) != stored {
        return Err(CheckpointError::Corrupt);
    }
    Ok((header, blob.to_vec()))
}

/// Writes a checkpoint file atomically: the image is streamed into a
/// temporary file beside `path`, which is then renamed over it.
pub fn write_file(
    path: &Path,
    header: &CheckpointHeader,
    blob: &[u8],
) -> Result<(), CheckpointError> {
    let io = |error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
    }
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    write_image(&mut file, header, blob).map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(())
}

/// Reads and fully validates a checkpoint file.
pub fn read_file(path: &Path) -> Result<(CheckpointHeader, Vec<u8>), CheckpointError> {
    let image = std::fs::read(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    decode(&image)
}

/// Inspects a checkpoint file without requiring it to be intact: the
/// header and blob layout are decoded structurally and the CRC status is
/// *reported* rather than enforced, so `ssreport --checkpoint` can
/// describe a corrupted file instead of refusing it. Structural damage
/// (bad magic, truncated framing) still errors.
pub fn inspect_file(path: &Path) -> Result<CheckpointInfo, CheckpointError> {
    use CheckpointError::Malformed;
    let image = std::fs::read(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    if image.len() < 4 {
        return Err(Malformed("shorter than the CRC footer"));
    }
    let (body, footer) = image.split_at(image.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
    let mut buf = body;
    let header = decode_header(&mut buf)?;
    let blob = get_bytes(&mut buf).ok_or(Malformed("truncated blob"))?;
    if !buf.is_empty() {
        return Err(Malformed("trailing bytes after blob"));
    }
    // Peel the uniform engine-blob framing: trace section, then one
    // length-prefixed blob per shard.
    let mut inner = blob;
    let trace_bytes = match bool::decode(&mut inner) {
        Some(false) => None,
        Some(true) => Some(
            get_bytes(&mut inner)
                .ok_or(Malformed("truncated trace section"))?
                .len(),
        ),
        None => return Err(Malformed("bad trace marker")),
    };
    // The CRC is only reported here, so the count is as untrusted as
    // any length: `get_len` bounds it by the bytes that remain.
    let shards = get_len(&mut inner).ok_or(Malformed("bad blob shard count"))?;
    if shards != header.num_shards as usize {
        return Err(Malformed("blob shard count disagrees with header"));
    }
    let shard_bytes = (0..shards)
        .map(|_| Some(get_bytes(&mut inner)?.len()))
        .collect::<Option<Vec<usize>>>()
        .ok_or(Malformed("truncated shard blob"))?;
    if !inner.is_empty() {
        return Err(Malformed("trailing bytes inside engine blob"));
    }
    Ok(CheckpointInfo {
        header,
        crc_ok: crc32(body) == stored,
        trace_bytes,
        shard_bytes,
        file_bytes: image.len(),
    })
}

/// The canonical file name for checkpoint `round` inside `dir`.
pub fn round_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("ckpt-{round:08}.ssckpt"))
}

/// The highest-round checkpoint file in `dir`, if any. Only files named
/// by [`round_path`] are considered; temporaries and foreign files are
/// ignored.
pub fn latest_in_dir(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_str()?;
        let round = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ssckpt"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(round) = round {
            if best.as_ref().is_none_or(|&(b, _)| round > b) {
                best = Some((round, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_des::wire::put_bytes;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            version: VERSION,
            seed: 12345,
            num_shards: 2,
            tick: 20_000,
            round: 2,
            terminals: 16,
            routers: 8,
        }
    }

    /// A minimal engine blob: no trace, two shard blobs.
    fn blob() -> Vec<u8> {
        let mut b = vec![0u8, 2];
        put_bytes(&mut b, &[1, 2, 3]);
        put_bytes(&mut b, &[4, 5]);
        b
    }

    #[test]
    fn encode_decode_round_trip() {
        let image = encode(&header(), &blob());
        let (h, b) = decode(&image).expect("decodes");
        assert_eq!(h, header());
        assert_eq!(b, blob());
    }

    #[test]
    fn file_round_trip_and_inspect() {
        let dir = std::env::temp_dir().join(format!("ssckpt-test-{}", std::process::id()));
        let path = round_path(&dir, 2);
        write_file(&path, &header(), &blob()).expect("writes");
        let (h, b) = read_file(&path).expect("reads");
        assert_eq!(h, header());
        assert_eq!(b, blob());
        let info = inspect_file(&path).expect("inspects");
        assert!(info.crc_ok);
        assert_eq!(info.trace_bytes, None);
        assert_eq!(info.shard_bytes, vec![3, 2]);
        assert_eq!(latest_in_dir(&dir), Some(path));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The streamed file and the in-memory image are one byte sequence:
    /// magic, header, length-prefixed blob, CRC-32 of all of it.
    #[test]
    fn encode_is_the_bytes_write_file_puts_on_disk() {
        let dir = std::env::temp_dir().join(format!("ssckpt-stream-{}", std::process::id()));
        let mut rng = supersim_des::Rng::new(0xB10B);
        for len in [0usize, 1, 7, 300, 70_000] {
            let blob: Vec<u8> = (0..len).map(|_| rng.gen_u64() as u8).collect();
            let path = round_path(&dir, len as u64);
            write_file(&path, &header(), &blob).expect("writes");
            let image = encode(&header(), &blob);
            assert_eq!(std::fs::read(&path).expect("reads"), image, "blob of {len}");
            let mut want = MAGIC.to_vec();
            header().encode(&mut want);
            put_bytes(&mut want, &blob);
            let crc = crc32(&want);
            want.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(image, want, "blob of {len}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_corrupt_not_panic() {
        let image = encode(&header(), &blob());
        // Flip one bit in every byte position past the magic; each must
        // produce a typed error (Corrupt for payload damage, Malformed /
        // Version if the flip breaks framing first), never a panic or a
        // silent success.
        for i in MAGIC.len()..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn truncation_is_total() {
        let image = encode(&header(), &blob());
        for len in 0..image.len() {
            assert!(decode(&image[..len]).is_err(), "prefix {len} must error");
        }
    }

    #[test]
    fn garbage_is_total() {
        let mut noise = Vec::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.push(x as u8);
        }
        for len in [0, 1, 7, 64, 4096] {
            assert!(decode(&noise[..len]).is_err());
        }
    }

    /// `inspect_file` reports the CRC instead of enforcing it, so a shard
    /// count of `u32::MAX` (in header and blob alike) reaches it. It once
    /// sized a vector by that count.
    #[test]
    fn inspect_rejects_a_hostile_shard_count() {
        let hostile = CheckpointHeader {
            num_shards: u32::MAX,
            ..header()
        };
        let mut blob = vec![0u8];
        u32::MAX.encode(&mut blob);
        let dir = std::env::temp_dir().join(format!("ssckpt-hostile-{}", std::process::id()));
        let path = round_path(&dir, 1);
        write_file(&path, &hostile, &blob).expect("writes");
        assert!(matches!(
            inspect_file(&path),
            Err(CheckpointError::Malformed("bad blob shard count"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_codec_is_total() {
        supersim_des::wire::testing::check_codec(7, 40, |r| CheckpointHeader {
            version: VERSION,
            seed: r.gen_u64(),
            num_shards: r.gen_u64() as u32 % 64,
            tick: r.gen_u64() >> 20,
            round: r.gen_u64() >> 40,
            terminals: r.gen_u64() as u32,
            routers: r.gen_u64() as u32,
        });
    }

    #[test]
    fn bad_magic_rejected() {
        let mut image = encode(&header(), &blob());
        image[0] = b'X';
        assert!(matches!(decode(&image), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn future_version_rejected() {
        let h = CheckpointHeader {
            version: VERSION + 1,
            ..header()
        };
        let image = encode(&h, &blob());
        assert!(matches!(decode(&image), Err(CheckpointError::Version(_))));
    }

    #[test]
    fn boundary_grid() {
        use supersim_des::next_edge_after;
        assert_eq!(next_edge_after(0, 100), 100);
        assert_eq!(next_edge_after(99, 100), 100);
        assert_eq!(next_edge_after(100, 100), 200);
        assert_eq!(next_edge_after(101, 100), 200);
    }
}
