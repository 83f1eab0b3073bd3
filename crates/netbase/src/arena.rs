//! Arena/SoA flit storage for router hot paths.
//!
//! Routers used to move whole [`Flit`] values (an `Arc`, five scalar
//! fields, and an optional boxed span) through every pipeline stage:
//! input buffer → crossbar candidate → output queue → channel event.
//! The arena splits that into two parts:
//!
//! - a **slab** of flit records addressed by a compact [`FlitHandle`];
//!   pipeline stages move the 4-byte handle and the payload stays put,
//! - a **metadata side table** ([`FlitMeta`]): the head/body/tail flags,
//!   packet size, age and whether a span rides on the flit, which
//!   allocation-stage scans read every cycle, stored structure-of-arrays
//!   so candidate collection never chases the packet `Arc` and a
//!   disabled span plane never touches the slab slot.
//!
//! Lifetime rules (documented in DESIGN.md):
//!
//! 1. A flit enters a component's arena exactly once, on arrival
//!    ([`FlitArena::insert`]), and leaves exactly once, on departure
//!    ([`FlitArena::take`]) — when it is serialized into an [`Ev::Flit`]
//!    event for the next component. Events still carry flits by value:
//!    handles are component-local and never cross the wire (a sharded
//!    engine may deliver the event on another thread).
//! 2. Between insert and take, exactly one buffer or queue in the
//!    component holds the handle; aliasing a handle is a logic error.
//! 3. Freed slots are recycled LIFO, so steady-state occupancy stays
//!    compact and allocation-free.
//!
//! The `span` discipline is unchanged: spans stay boxed on the flit
//! payload (only on tail flits, only when the plane is enabled) and ride
//! in the slab slot; [`FlitArena::span_mut`] reaches them through the
//! metadata flag. A span is neither attached nor detached while the
//! flit is parked.
//!
//! [`Ev::Flit`]: crate::Ev::Flit

use supersim_des::wire::WireCodec;

use crate::flit::{Flit, FlitSpan};

/// Compact address of a flit parked in a [`FlitArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitHandle(u32);

impl FlitHandle {
    /// The slab slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const META_HEAD: u8 = 1;
const META_TAIL: u8 = 2;
const META_SPAN: u8 = 4;

/// The per-flit fields allocation-stage scans read every cycle, split
/// from the payload (structure-of-arrays).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlitMeta {
    /// Packet age (injection tick) for age-based arbitration.
    pub age: u64,
    /// Packet length in flits (packet-buffer flow control reservations).
    pub packet_size: u32,
    flags: u8,
}

impl FlitMeta {
    fn of(flit: &Flit) -> Self {
        FlitMeta {
            age: flit.pkt.inject_tick,
            packet_size: flit.pkt.size,
            flags: u8::from(flit.is_head()) * META_HEAD
                + u8::from(flit.is_tail()) * META_TAIL
                + u8::from(flit.span.is_some()) * META_SPAN,
        }
    }

    /// Whether the flit is its packet's head.
    #[inline]
    pub fn is_head(self) -> bool {
        self.flags & META_HEAD != 0
    }

    /// Whether the flit is its packet's tail.
    #[inline]
    pub fn is_tail(self) -> bool {
        self.flags & META_TAIL != 0
    }

    /// Whether a latency-attribution span rides on the flit.
    #[inline]
    pub fn has_span(self) -> bool {
        self.flags & META_SPAN != 0
    }
}

/// A slab of in-flight flits owned by one component.
#[derive(Debug, Default)]
pub struct FlitArena {
    slots: Vec<Option<Flit>>,
    meta: Vec<FlitMeta>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
}

impl FlitArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlitArena::default()
    }

    /// An empty arena with `capacity` slots pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        FlitArena {
            slots: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            ..FlitArena::default()
        }
    }

    /// Parks a flit and returns its handle.
    pub fn insert(&mut self, flit: Flit) -> FlitHandle {
        let meta = FlitMeta::of(&flit);
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(flit);
                self.meta[idx as usize] = meta;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Some(flit));
                self.meta.push(meta);
                idx
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        FlitHandle(idx)
    }

    /// The parked flit.
    ///
    /// # Panics
    ///
    /// Panics if the handle's slot is vacant (already taken).
    #[inline]
    pub fn get(&self, h: FlitHandle) -> &Flit {
        self.slots[h.index()].as_ref().expect("vacant flit slot")
    }

    /// Mutable access to the parked flit (routing annotates heads in
    /// place; span touch points stamp waits).
    ///
    /// # Panics
    ///
    /// Panics if the handle's slot is vacant.
    #[inline]
    pub fn get_mut(&mut self, h: FlitHandle) -> &mut Flit {
        self.slots[h.index()].as_mut().expect("vacant flit slot")
    }

    /// The span of the parked flit, if it carries one; the slab slot is
    /// read only when it does.
    ///
    /// # Panics
    ///
    /// Panics if the handle's slot is vacant and its metadata says it
    /// has a span.
    #[inline]
    pub fn span_mut(&mut self, h: FlitHandle) -> Option<&mut FlitSpan> {
        if !self.meta(h).has_span() {
            return None;
        }
        self.get_mut(h).span.as_deref_mut()
    }

    /// The scan metadata of the parked flit.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the handle's slot is vacant.
    #[inline]
    pub fn meta(&self, h: FlitHandle) -> FlitMeta {
        debug_assert!(self.slots[h.index()].is_some(), "vacant flit slot");
        self.meta[h.index()]
    }

    /// Removes the flit, freeing its slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the handle's slot is vacant.
    pub fn take(&mut self, h: FlitHandle) -> Flit {
        let flit = self.slots[h.index()].take().expect("vacant flit slot");
        self.free.push(h.0);
        self.live -= 1;
        flit
    }

    /// Reconstructs the handle of the flit parked at `index`, or `None`
    /// if the slot is out of range or vacant. Used when decoding
    /// checkpointed buffers that store handles by slot index.
    pub fn handle_at(&self, index: u32) -> Option<FlitHandle> {
        self.slots.get(index as usize)?.as_ref()?;
        Some(FlitHandle(index))
    }

    /// Total slab slots (occupied + vacant).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Flits currently parked.
    #[inline]
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Most flits ever parked at once — the arena occupancy high-water
    /// mark of the profiling plane.
    #[inline]
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Serializes the arena for a checkpoint: slot contents positionally
    /// (so parked handles stay valid) plus the free list in LIFO order
    /// (so post-restore handle assignment replays identically).
    pub fn save(&self, out: &mut Vec<u8>) {
        self.slots.encode(out);
        self.free.encode(out);
        self.high_water.encode(out);
    }

    /// Decodes an arena saved by [`FlitArena::save`]. Total: `None` on
    /// malformed input or inconsistent slot/free-list structure. Scan
    /// metadata is recomputed from the flits themselves.
    pub fn load(buf: &mut &[u8]) -> Option<FlitArena> {
        let slots = Vec::<Option<Flit>>::decode(buf)?;
        let free = Vec::<u32>::decode(buf)?;
        let high_water = u32::decode(buf)?;
        let live = slots.iter().flatten().count();
        // Every vacant slot must appear on the free list exactly once.
        let mut seen = vec![false; slots.len()];
        for &i in &free {
            let vacant = slots.get(i as usize)?.is_none();
            if !vacant || std::mem::replace(&mut seen[i as usize], true) {
                return None;
            }
        }
        if free.len() != slots.len() - live || (high_water as usize) < live {
            return None;
        }
        Some(FlitArena {
            meta: slots
                .iter()
                .map(|s| s.as_ref().map_or_else(FlitMeta::default, FlitMeta::of))
                .collect(),
            slots,
            free,
            live: live as u32,
            high_water,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketBuilder;
    use crate::ids::{AppId, MessageId, PacketId, TerminalId};

    fn flits(size: u32) -> Vec<Flit> {
        PacketBuilder {
            id: PacketId(9),
            message: MessageId(9),
            app: AppId(0),
            src: TerminalId(0),
            dst: TerminalId(1),
            size,
            message_size: size,
            inject_tick: 42,
            message_tick: 42,
            sample: false,
        }
        .build()
    }

    #[test]
    fn round_trips_flits() {
        let mut a = FlitArena::new();
        let fs = flits(3);
        let hs: Vec<FlitHandle> = fs.into_iter().map(|f| a.insert(f)).collect();
        assert_eq!(a.live(), 3);
        assert_eq!(a.get(hs[1]).seq, 1);
        let f = a.take(hs[1]);
        assert_eq!(f.seq, 1);
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(hs[0]).seq, 0);
        assert_eq!(a.take(hs[2]).seq, 2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn meta_mirrors_flit_identity() {
        let mut a = FlitArena::new();
        for f in flits(3) {
            let age = f.pkt.inject_tick;
            let (head, tail, size) = (f.is_head(), f.is_tail(), f.pkt.size);
            let h = a.insert(f);
            let m = a.meta(h);
            assert_eq!(m.age, age);
            assert_eq!(m.is_head(), head);
            assert_eq!(m.is_tail(), tail);
            assert_eq!(m.packet_size, size);
        }
    }

    #[test]
    fn slots_recycle_and_high_water_tracks_peak() {
        let mut a = FlitArena::new();
        let hs: Vec<FlitHandle> = flits(4).into_iter().map(|f| a.insert(f)).collect();
        assert_eq!(a.high_water(), 4);
        for &h in &hs {
            a.take(h);
        }
        // Reinserting reuses the freed slots: no slab growth.
        let before = a.slots.len();
        for f in flits(4) {
            a.insert(f);
        }
        assert_eq!(a.slots.len(), before);
        assert_eq!(a.high_water(), 4);
    }

    #[test]
    fn span_flag_follows_the_flit() {
        let mut a = FlitArena::new();
        let mut fs = flits(2);
        fs[1].span = Some(Box::new(FlitSpan::new(5)));
        let hs: Vec<FlitHandle> = fs.into_iter().map(|f| a.insert(f)).collect();
        assert!(!a.meta(hs[0]).has_span());
        assert!(a.span_mut(hs[0]).is_none());
        assert!(a.meta(hs[1]).has_span());
        a.span_mut(hs[1]).expect("spanned flit").queueing = 3;
        assert_eq!(a.take(hs[1]).span.expect("span rides along").queueing, 3);
        // A restored arena recomputes the flag from the flits.
        let mut saved = Vec::new();
        a.save(&mut saved);
        let back = FlitArena::load(&mut saved.as_slice()).expect("well formed");
        assert!(!back.meta(hs[0]).has_span());
    }

    #[test]
    fn mutation_through_handle_sticks() {
        let mut a = FlitArena::new();
        let h = a.insert(flits(1).remove(0));
        a.get_mut(h).hops = 7;
        assert_eq!(a.take(h).hops, 7);
    }

    #[test]
    #[should_panic(expected = "vacant flit slot")]
    fn double_take_panics() {
        let mut a = FlitArena::new();
        let h = a.insert(flits(1).remove(0));
        a.take(h);
        a.take(h);
    }
}
