//! Shard-state snapshot encoding shared by every simulation layout.
//!
//! A *shard blob* is the complete dynamic state of one executor shard at
//! a quiescent point (paused between generations): its clock, pending
//! events, per-component RNG streams and send counters, per-component
//! model snapshots, and the lifetime counters that feed the engine
//! metrics plane. A [`Simulator`](crate::Simulator) running every shard
//! writes the *engine blob* — the trace ring, then one shard blob per
//! shard — and a fleet worker writes the blob of the shard it owns, which
//! the hub assembles into the same engine blob. So a checkpoint file
//! always reads as "N shards paused at tick T" regardless of which
//! transport produced it, and restoring it is one function on every
//! layout: each process decodes the sections of the shards it runs.
//!
//! The shard blob is also the only way a worker's state leaves it: the
//! worker ships one at every checkpoint and its final one at the end of
//! the run, which the parent restores into its never-run layout of the
//! same simulation and reads the report from.
//!
//! Encoding uses the LEB128 wire plane ([`crate::wire`]) and is a pure
//! function of the state; decoding is total (`None` on malformed input,
//! never a panic) and *strict* — a blob must list exactly the components
//! the rebuilt shard owns, in ascending order, and every nested section
//! must be consumed exactly, so drift between a component's `snapshot`
//! and `restore` is caught at decode time instead of corrupting the
//! resumed run.

use crate::engine::{Stamped, BATCH_BUCKETS};
use crate::event::EventQueue;
use crate::protocol::{RunCursor, Shard};
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::TraceBuffer;
use crate::wire::{self, WireCodec};

/// The scalar head of a shard blob: the engine-global run cursor
/// (repeated in every shard's blob, so a worker process can restore from
/// its own blob alone — and every copy must agree on restore) and the
/// shard's own lifetime counters.
pub(crate) struct ShardScalars {
    pub now: Time,
    pub ext_seq: u64,
    pub last_progress: Tick,
    pub events_executed: u64,
    pub batches: u64,
    pub batch_counts: [u64; BATCH_BUCKETS],
}

crate::wire_struct!(ShardScalars {
    now,
    ext_seq,
    last_progress,
    events_executed,
    batches,
    batch_counts,
});

impl ShardScalars {
    fn cursor(&self) -> RunCursor {
        RunCursor {
            now: self.now,
            ext_seq: self.ext_seq,
            last_progress: self.last_progress,
        }
    }
}

/// Serializes one shard's dynamic state into `out`.
///
/// The component table is full-length; exactly the `Some` entries (the
/// ones this shard owns) are captured, keyed by component index, together
/// with their RNG stream and send counter.
pub(crate) fn save_shard<E: WireCodec + 'static>(
    out: &mut Vec<u8>,
    cursor: &RunCursor,
    shard: &Shard<E>,
) {
    ShardScalars {
        now: cursor.now,
        ext_seq: cursor.ext_seq,
        last_progress: cursor.last_progress,
        events_executed: shard.events_executed,
        batches: shard.batches,
        batch_counts: shard.batch_counts,
    }
    .encode(out);
    wire::put_section(out, |o| shard.queue.save(o, Stamped::encode));
    let owned = shard.slots.iter().filter(|s| s.component.is_some());
    owned.count().encode(out);
    for (i, slot) in shard.slots.iter().enumerate() {
        let Some(c) = slot.component.as_deref() else {
            continue;
        };
        i.encode(out);
        slot.rng.encode(out);
        slot.seq.encode(out);
        wire::put_section(out, |o| c.snapshot(o));
    }
}

/// Overlays a shard blob onto a freshly built shard: replaces the queue
/// and counters, restores every component the shard owns, and returns
/// the run cursor for the engine to apply. Total and strict — `None` on
/// malformed input, a component list that is not exactly the owned set
/// in ascending order (a repeated or omitted component would otherwise
/// resume silently wrong), or any nested section not consumed exactly.
pub(crate) fn load_shard<E: WireCodec + 'static>(
    buf: &mut &[u8],
    shard: &mut Shard<E>,
) -> Option<RunCursor> {
    let scalars = ShardScalars::decode(buf)?;
    shard.queue = wire::get_section(buf, |b| EventQueue::load(b, Stamped::decode))?;
    let owned = shard.slots.iter().filter(|s| s.component.is_some());
    if wire::get_len(buf)? != owned.count() {
        return None;
    }
    for (i, slot) in shard.slots.iter_mut().enumerate() {
        let Some(c) = slot.component.as_deref_mut() else {
            continue;
        };
        if usize::decode(buf)? != i {
            return None;
        }
        let rng = Rng::decode(buf)?;
        let seq = u64::decode(buf)?;
        wire::get_section(buf, |b| c.restore(b))?;
        slot.rng = rng;
        slot.seq = seq;
    }
    shard.events_executed = scalars.events_executed;
    shard.batches = scalars.batches;
    shard.batch_counts = scalars.batch_counts;
    Some(scalars.cursor())
}

/// Writes the engine blob of a simulation that runs every shard: the
/// optional trace ring, the shard count, then one length-prefixed shard
/// blob per shard. A checkpoint file parses identically whichever
/// transport produced it (the hub assembles the same layout from its
/// workers' blobs).
pub(crate) fn save_engine<E: WireCodec + 'static>(
    out: &mut Vec<u8>,
    trace: Option<&TraceBuffer>,
    cursor: &RunCursor,
    shards: &[Shard<E>],
) {
    put_trace(out, trace);
    wire::put_each(out, shards, |shard, o| {
        wire::put_section(o, |o| save_shard(o, cursor, shard))
    });
}

/// Overlays the shard sections of an engine blob, read past its trace
/// section, onto `shards`: the rebuilt shards `first..` of a
/// `num_shards`-shard layout. Sections of shards run elsewhere are
/// skipped, but the run cursor every section repeats is read from each
/// and must agree — a blob whose shards disagree would otherwise resume
/// silently on one of them. Returns that cursor. Total: `None` on
/// malformed or mismatched state.
pub(crate) fn load_shards<E: WireCodec + 'static>(
    buf: &mut &[u8],
    num_shards: usize,
    first: usize,
    shards: &mut [Shard<E>],
) -> Option<RunCursor> {
    if wire::get_len(buf)? != num_shards {
        return None;
    }
    let mut agreed = None;
    for w in 0..num_shards {
        let cursor = match w.checked_sub(first).and_then(|l| shards.get_mut(l)) {
            Some(shard) => wire::get_section(buf, |b| load_shard(b, shard))?,
            None => ShardScalars::decode(&mut wire::get_bytes(buf)?)?.cursor(),
        };
        if *agreed.get_or_insert(cursor) != cursor {
            return None;
        }
    }
    agreed
}

/// Serializes the optional trace ring that heads the engine blob.
pub(crate) fn put_trace(out: &mut Vec<u8>, buffer: Option<&TraceBuffer>) {
    wire::put_armed(out, buffer, |b, o| wire::put_section(o, |o| b.save(o)));
}

/// Restores the optional trace ring written by [`put_trace`] into a
/// rebuilt engine's buffer. The armed/disarmed state must match the
/// snapshot (both come from the same configuration).
pub(crate) fn get_trace(buf: &mut &[u8], buffer: Option<&mut TraceBuffer>) -> Option<()> {
    wire::load_armed(buf, buffer, |b, s| wire::get_section(s, |s| b.load(s)))
}

/// Reads past the trace section written by [`put_trace`], for a fleet
/// worker, whose ring lives in the hub.
pub(crate) fn skip_trace(buf: &mut &[u8]) -> Option<()> {
    if bool::decode(buf)? {
        wire::get_bytes(buf)?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use crate::component::Component;
    use crate::engine::Context;
    use crate::simulator::Simulator;
    use crate::wire::{self, Overlay, WireCodec};

    struct Idle;

    impl Component<u64> for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn handle(&mut self, _ctx: &mut Context<'_, u64>, _event: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn three_idle() -> Simulator<u64> {
        let mut sim = Simulator::new(5);
        for _ in 0..3 {
            sim.add_component(Box::new(Idle));
        }
        sim
    }

    /// The engine blob of [`three_idle`] with its component entries
    /// replaced by the saved entries at `order`.
    fn with_entries(order: &[usize]) -> Vec<u8> {
        let mut saved = Vec::new();
        three_idle().save(&mut saved);
        let buf = &mut saved.as_slice();
        assert_eq!(u8::decode(buf), Some(0), "no trace ring");
        assert_eq!(wire::get_len(buf), Some(1), "one shard");
        let blob = wire::get_bytes(buf).expect("shard blob");
        let rest = &mut &blob[..];
        super::ShardScalars::decode(rest).expect("scalars");
        wire::get_bytes(rest).expect("queue section");
        let head = &blob[..blob.len() - rest.len()];
        assert_eq!(wire::get_len(rest), Some(3));
        let entries: Vec<&[u8]> = (0..3)
            .map(|_| {
                let start = *rest;
                usize::decode(rest).expect("index");
                crate::rng::Rng::decode(rest).expect("stream");
                u64::decode(rest).expect("send counter");
                wire::get_bytes(rest).expect("snapshot section");
                &start[..start.len() - rest.len()]
            })
            .collect();
        let mut shard = head.to_vec();
        order.len().encode(&mut shard);
        for &e in order {
            shard.extend_from_slice(entries[e]);
        }
        let mut engine = vec![0];
        1usize.encode(&mut engine);
        wire::put_bytes(&mut engine, &shard);
        engine
    }

    /// A blob must list exactly the components the rebuilt shard owns,
    /// in ascending order: one that repeats a component or leaves one
    /// out would resume with that component silently fresh.
    #[test]
    fn shard_blob_must_list_exactly_the_owned_components() {
        let loads = |order: &[usize]| {
            three_idle()
                .load(&mut with_entries(order).as_slice())
                .is_some()
        };
        assert!(loads(&[0, 1, 2]), "the saved blob itself restores");
        assert!(!loads(&[0, 1, 1]), "a duplicate entry");
        assert!(!loads(&[0, 1]), "a missing entry");
    }

    /// Every shard blob repeats the run cursor, and the copies must agree
    /// on restore: a blob whose shards disagree would otherwise resume
    /// silently on the last shard's cursor.
    #[test]
    fn shard_cursors_must_agree_on_restore() {
        let layout = || three_idle().into_sharded(2, vec![0, 1, 1]);
        let mut saved = Vec::new();
        layout().save(&mut saved);
        let buf = &mut saved.as_slice();
        assert_eq!(u8::decode(buf), Some(0), "no trace ring");
        assert_eq!(wire::get_len(buf), Some(2), "two shards");
        let first = wire::get_bytes(buf).expect("shard 0 blob").to_vec();
        let second = wire::get_bytes(buf).expect("shard 1 blob");
        let rest = &mut &second[..];
        let mut scalars = super::ShardScalars::decode(rest).expect("scalars");
        scalars.now = crate::time::Time::at(7);
        let mut skewed = Vec::new();
        scalars.encode(&mut skewed);
        skewed.extend_from_slice(rest);
        let mut engine = vec![0];
        2usize.encode(&mut engine);
        wire::put_bytes(&mut engine, &first);
        wire::put_bytes(&mut engine, &skewed);

        assert!(
            layout().load(&mut saved.as_slice()).is_some(),
            "the saved blob"
        );
        assert!(
            layout().load(&mut engine.as_slice()).is_none(),
            "a skewed shard"
        );
        let fleet =
            |second: Vec<u8>| layout().load_fleet(None, &[Some(first.clone()), Some(second)]);
        assert_eq!(fleet(second.to_vec()), Ok(()), "the saved blobs");
        assert_eq!(fleet(skewed), Err(1), "a skewed shard");
    }
}
