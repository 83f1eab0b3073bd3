//! Engine-owned event tracing: the collection half of the observability
//! trace plane.
//!
//! Earlier revisions had components share an `Rc<RefCell<..>>` tracer,
//! which pinned the whole simulation to one thread. Collection now lives
//! in the engine: a component records through its
//! [`Context`](crate::Context) (`ctx.trace(..)`), the engine buffers the
//! records, and higher layers render them. The `des` crate knows nothing
//! about flits — a record is five integers ([`TraceEvent`]): time, source
//! component, a small `kind` tag, a 64-bit `id`, and a 32-bit `sub`
//! discriminator. The network layer maps these onto its own vocabulary
//! (kind → flit event name, id → packet, sub → flit index).
//!
//! Every engine produces the **same byte-for-byte record sequence** for a
//! given `(configuration, seed)`: each record is tagged with the
//! triggering event's stamp, one shard's records are already in that
//! order, and several shards' buffers are merged back into it at every
//! synchronization round.

use crate::time::Time;
use crate::wire::{put_varint, WireCodec};

/// One collected trace record. Interpretation of `kind`, `id`, and `sub`
/// belongs to the layer that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the record was made (the time of the triggering event).
    pub time: Time,
    /// Model-level source index (e.g. terminal or router number) — chosen
    /// by the recording component, not necessarily its component id.
    pub src: u32,
    /// Small record-type tag, `< 8` so it fits a [`TraceSpec::kinds`]
    /// bitmask.
    pub kind: u8,
    /// Primary record identity (e.g. a packet id).
    pub id: u64,
    /// Secondary discriminator (e.g. a flit index within the packet).
    pub sub: u32,
}

crate::wire_struct!(TraceEvent {
    time,
    src,
    kind,
    id,
    sub
});

/// What the engine collects. The default spec accepts everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Bitmask of accepted kinds: bit `k` accepts records of kind `k`.
    pub kinds: u8,
    /// Only records from this source index, when set.
    pub src: Option<u32>,
    /// Inclusive id range.
    pub id_lo: u64,
    /// Inclusive id range.
    pub id_hi: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            kinds: u8::MAX,
            src: None,
            id_lo: 0,
            id_hi: u64::MAX,
        }
    }
}

impl TraceSpec {
    /// Whether a record with these fields is collected.
    #[inline]
    pub fn accepts(&self, kind: u8, src: u32, id: u64) -> bool {
        self.kinds & (1u8 << (kind & 7)) != 0
            && self.src.is_none_or(|s| s == src)
            && (self.id_lo..=self.id_hi).contains(&id)
    }
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s keeping the most
/// recent `capacity` accepted records.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    ring: Vec<TraceEvent>,
    /// Next write position once the ring is full (wrap cursor).
    next: usize,
    /// Records accepted over the buffer's lifetime (kept + overwritten).
    recorded: u64,
}

impl TraceBuffer {
    /// A buffer keeping the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        TraceBuffer {
            capacity,
            ring: Vec::new(),
            next: 0,
            recorded: 0,
        }
    }

    /// Appends one record, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Records kept (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records accepted over the buffer's lifetime, including those the
    /// ring has since overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// The kept records in collection order, unwrapping the ring in
    /// place: the buffer's own storage becomes the result.
    pub fn into_records(self) -> Vec<TraceEvent> {
        let mut ring = self.ring;
        ring.rotate_left(self.next);
        ring
    }

    /// Serializes the kept records (in collection order) plus the
    /// lifetime counter, for a checkpoint. The ring's two halves are
    /// encoded where they lie, as the bytes of the unwrapped `Vec`.
    pub fn save(&self, out: &mut Vec<u8>) {
        put_varint(out, self.ring.len() as u64);
        for ev in self.ring[self.next..].iter().chain(&self.ring[..self.next]) {
            ev.encode(out);
        }
        self.recorded.encode(out);
    }

    /// Overlays state captured by [`TraceBuffer::save`] onto this buffer
    /// (which must have been created with the same capacity — rebuilt
    /// from the same configuration). Re-pushing the unwrapped records
    /// reproduces FIFO-eviction behavior exactly. Total: `None` on
    /// malformed input.
    pub fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        let records = Vec::<TraceEvent>::decode(buf)?;
        if records.len() > self.capacity {
            return None;
        }
        self.ring.clear();
        self.next = 0;
        self.recorded = 0;
        for ev in records {
            self.push(ev);
        }
        self.recorded = u64::decode(buf)?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> TraceEvent {
        TraceEvent {
            time: Time::at(id),
            src: 0,
            kind: 0,
            id,
            sub: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut buf = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            buf.push(ev(i));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.total_recorded(), 5);
        let ids: Vec<u64> = buf.into_records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "collection order, oldest overwritten");
    }

    /// A wrapped ring saves the bytes of its unwrapped records as a
    /// `Vec`, and loads back into the same order.
    #[test]
    fn save_encodes_the_unwrapped_ring() {
        for pushed in [0, 2, 3, 4, 7] {
            let mut buf = TraceBuffer::with_capacity(3);
            for i in 0..pushed {
                buf.push(ev(i));
            }
            let mut saved = Vec::new();
            buf.save(&mut saved);
            let mut expected = Vec::new();
            let kept: Vec<TraceEvent> = (pushed.saturating_sub(3)..pushed).map(ev).collect();
            kept.encode(&mut expected);
            pushed.encode(&mut expected);
            assert_eq!(saved, expected, "{pushed} records");
            let mut back = TraceBuffer::with_capacity(3);
            back.load(&mut saved.as_slice()).expect("loads");
            assert_eq!(back.total_recorded(), pushed);
            assert_eq!(back.into_records(), kept);
        }
    }

    #[test]
    fn spec_filters_kind_src_and_id() {
        let spec = TraceSpec {
            kinds: 0b10,
            src: Some(7),
            id_lo: 10,
            id_hi: 20,
        };
        assert!(spec.accepts(1, 7, 15));
        assert!(!spec.accepts(0, 7, 15), "kind bit off");
        assert!(!spec.accepts(1, 6, 15), "wrong src");
        assert!(!spec.accepts(1, 7, 9), "id below range");
        assert!(!spec.accepts(1, 7, 21), "id above range");
        assert!(TraceSpec::default().accepts(3, 0, u64::MAX));
    }
}
