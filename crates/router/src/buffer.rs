//! Per-VC flit buffers with overrun detection (paper §IV-D: "buffers never
//! silently overrun").

use std::collections::VecDeque;

use supersim_netbase::{Flit, FlitHandle};

use crate::snapshot::{self as snap, HandleClaims};

/// A FIFO flit buffer for one virtual channel.
///
/// Pushing beyond capacity is a flow-control protocol violation (the
/// upstream device must have spent a credit per slot) and is reported
/// rather than silently dropped or grown.
///
/// Generic over the stored element: the built-in routers park their
/// flits in a per-component [`FlitArena`](supersim_netbase::FlitArena)
/// and buffer only the 4-byte [`FlitHandle`](supersim_netbase::FlitHandle);
/// buffering whole [`Flit`] values (the default) remains available for
/// user-defined architectures.
#[derive(Debug, Clone)]
pub struct VcBuffer<T = Flit> {
    flits: VecDeque<T>,
    capacity: u32,
}

impl<T> VcBuffer<T> {
    /// Creates a buffer holding up to `capacity` flits. The ring starts
    /// empty and grows to the buffer's high-water occupancy: most VCs of a
    /// large network never fill, and a ring sized to what it holds keeps
    /// its slots on fewer cache lines. `capacity` stays the overrun bound.
    pub fn new(capacity: u32) -> Self {
        VcBuffer {
            flits: VecDeque::new(),
            capacity,
        }
    }

    /// Capacity in flits.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Flits currently buffered.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.flits.len() as u32
    }

    /// Whether the buffer holds no flits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    /// Whether the buffer is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    /// Appends a flit.
    ///
    /// # Errors
    ///
    /// Returns `Err(flit)` when the buffer is full — an upstream credit
    /// protocol violation the caller must surface as a simulation failure.
    pub fn push(&mut self, flit: T) -> Result<(), T> {
        if self.is_full() {
            return Err(flit);
        }
        self.flits.push_back(flit);
        Ok(())
    }

    /// The flit at the head, if any.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.flits.front()
    }

    /// Mutable access to the head flit (routing annotates head flits in
    /// place).
    #[inline]
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.flits.front_mut()
    }

    /// Removes and returns the head flit.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.flits.pop_front()
    }

    /// Iterates the buffered flits head-first (checkpoint serialization).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.flits.iter()
    }

    /// Drops all buffered flits (checkpoint restore overlays a saved
    /// occupancy onto a freshly built buffer).
    pub fn clear(&mut self) {
        self.flits.clear();
    }
}

/// A router's input buffers, one per `(port, VC)` key, with a bitset of
/// the non-empty ones: the per-cycle scans (route, switch allocation,
/// OQ transfer) visit only inputs that hold a flit, in ascending key
/// order, and "any input pending" is a word test.
#[derive(Debug)]
pub(crate) struct InputBuffers {
    buffers: Vec<VcBuffer<FlitHandle>>,
    /// Bit `k % 64` of word `k / 64` is set exactly when `buffers[k]`
    /// holds a flit.
    occupied: Vec<u64>,
}

impl InputBuffers {
    /// `n` empty buffers of `capacity` flits each.
    pub(crate) fn new(n: usize, capacity: u32) -> Self {
        InputBuffers {
            buffers: (0..n).map(|_| VcBuffer::new(capacity)).collect(),
            occupied: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of input keys.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.buffers.len()
    }

    /// The buffers, by key.
    #[inline]
    pub(crate) fn buffers(&self) -> &[VcBuffer<FlitHandle>] {
        &self.buffers
    }

    /// The handle at the head of input `k`, if any.
    #[inline]
    pub(crate) fn front(&self, k: usize) -> Option<FlitHandle> {
        self.buffers[k].front().copied()
    }

    /// Appends `h` to input `k`; `Err(h)` on overrun.
    #[inline]
    pub(crate) fn push(&mut self, k: usize, h: FlitHandle) -> Result<(), FlitHandle> {
        self.buffers[k].push(h)?;
        self.occupied[k / 64] |= 1 << (k % 64);
        Ok(())
    }

    /// Removes the head of input `k`.
    #[inline]
    pub(crate) fn pop(&mut self, k: usize) -> Option<FlitHandle> {
        let h = self.buffers[k].pop()?;
        if self.buffers[k].is_empty() {
            self.occupied[k / 64] &= !(1 << (k % 64));
        }
        Some(h)
    }

    /// Whether any input holds a flit.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.occupied.iter().any(|&w| w != 0)
    }

    /// The first non-empty input at or after key `from`. Scans step
    /// `k = next_occupied(k + 1)`, which stays exact while the visited
    /// input is popped.
    #[inline]
    pub(crate) fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.occupied.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.occupied.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Overlays buffers saved by [`snap::put_buffers`], claiming each
    /// handle from the restored arena, and rebuilds the bitset (also
    /// after a malformed input, so it always mirrors the buffers).
    pub(crate) fn load(&mut self, claims: &mut HandleClaims<'_>, buf: &mut &[u8]) -> Option<()> {
        let loaded = snap::load_buffers(&mut self.buffers, claims, buf);
        self.occupied.fill(0);
        for (k, b) in self.buffers.iter().enumerate() {
            self.occupied[k / 64] |= u64::from(!b.is_empty()) << (k % 64);
        }
        loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_netbase::{AppId, MessageId, PacketBuilder, PacketId, TerminalId};

    fn flit(seq_hint: u64) -> Flit {
        PacketBuilder {
            id: PacketId(seq_hint),
            message: MessageId(seq_hint),
            app: AppId(0),
            src: TerminalId(0),
            dst: TerminalId(1),
            size: 1,
            message_size: 1,
            inject_tick: seq_hint,
            message_tick: seq_hint,
            sample: false,
        }
        .build()
        .remove(0)
    }

    #[test]
    fn fifo_order() {
        let mut b = VcBuffer::new(4);
        b.push(flit(1)).unwrap();
        b.push(flit(2)).unwrap();
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.pop().unwrap().pkt.id, PacketId(1));
        assert_eq!(b.pop().unwrap().pkt.id, PacketId(2));
        assert!(b.pop().is_none());
    }

    #[test]
    fn overrun_is_rejected() {
        let mut b = VcBuffer::new(1);
        b.push(flit(1)).unwrap();
        assert!(b.is_full());
        let rejected = b.push(flit(2)).unwrap_err();
        assert_eq!(rejected.pkt.id, PacketId(2));
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn front_and_front_mut() {
        let mut b = VcBuffer::new(2);
        b.push(flit(5)).unwrap();
        assert_eq!(b.front().unwrap().pkt.id, PacketId(5));
        b.front_mut().unwrap().hops = 9;
        assert_eq!(b.pop().unwrap().hops, 9);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut b = VcBuffer::<Flit>::new(0);
        assert!(b.is_full() && b.is_empty());
        assert!(b.push(flit(1)).is_err());
    }

    #[test]
    fn stores_handles_too() {
        let mut arena = supersim_netbase::FlitArena::new();
        let mut b = VcBuffer::new(2);
        b.push(arena.insert(flit(3))).unwrap();
        let h = *b.front().unwrap();
        assert_eq!(arena.get(h).pkt.id, PacketId(3));
        assert_eq!(arena.take(b.pop().unwrap()).pkt.id, PacketId(3));
    }

    #[test]
    fn input_bitset_mirrors_the_buffers_across_words_and_restores() {
        use supersim_des::Rng;
        use supersim_netbase::FlitArena;
        // 9 ports x 8 VCs: 72 keys, so the bitset spans two words.
        let n = 9 * 8;
        let mut arena = FlitArena::new();
        let mut inputs = InputBuffers::new(n, 3);
        let check = |inputs: &InputBuffers| {
            let mut visited = Vec::new();
            let mut at = 0;
            while let Some(k) = inputs.next_occupied(at) {
                visited.push(k);
                at = k + 1;
            }
            let nonempty: Vec<usize> = (0..n)
                .filter(|&k| !inputs.buffers()[k].is_empty())
                .collect();
            assert_eq!(visited, nonempty);
            assert_eq!(inputs.any(), !nonempty.is_empty());
        };
        let mut rng = Rng::new(0xB175E7);
        for step in 0..2000u64 {
            let k = rng.gen_below(n as u64) as usize;
            if rng.gen_bool(0.5) {
                let h = arena.insert(flit(step));
                if let Err(h) = inputs.push(k, h) {
                    arena.take(h);
                }
            } else if let Some(h) = inputs.pop(k) {
                arena.take(h);
            }
            check(&inputs);
        }
        assert!(
            inputs.next_occupied(64).is_some(),
            "the second word is in use"
        );
        let mut saved = Vec::new();
        snap::put_buffers(&mut saved, inputs.buffers());
        let mut back = InputBuffers::new(n, 3);
        let mut claims = HandleClaims::new(&arena);
        assert_eq!(back.load(&mut claims, &mut saved.as_slice()), Some(()));
        assert!(claims.complete());
        check(&back);
        assert_eq!(back.occupied, inputs.occupied);
    }
}
