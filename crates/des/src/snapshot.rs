//! Shard-state snapshot encoding shared by every engine backend.
//!
//! A *shard blob* is the complete dynamic state of one executor shard at
//! a quiescent point (paused between generations): its clock, pending
//! events, per-component RNG streams and send counters, per-component
//! model snapshots, and the lifetime counters that feed the engine
//! metrics plane. The sequential engine is one shard; the thread-sharded
//! engine writes one blob per shard; each worker process writes the blob
//! for the shard it owns. Keeping the layout identical across backends
//! means a checkpoint file always reads as "N shards paused at tick T"
//! regardless of which transport produced it.
//!
//! Encoding uses the LEB128 wire plane ([`crate::wire`]) and is a pure
//! function of the state; decoding is total (`None` on malformed input,
//! never a panic) and *strict* — every nested section must be consumed
//! exactly, so drift between a component's `snapshot` and `restore` is
//! caught at decode time instead of corrupting the resumed run.

use crate::component::Component;
use crate::engine::{Stamped, BATCH_BUCKETS};
use crate::event::EventQueue;
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::TraceBuffer;
use crate::wire::{self, WireCodec};

/// The scalar head of a shard blob: the engine-global clock and counters
/// (repeated in every shard's blob) and the shard's own lifetime counters.
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

/// Serializes one shard's dynamic state into `out`.
///
/// `components` is the full-length component table; exactly the `Some`
/// entries (the ones this shard owns) are captured, keyed by component
/// index, together with their RNG stream and send counter.
pub(crate) fn save_shard<E: WireCodec + 'static>(
    out: &mut Vec<u8>,
    scalars: &ShardScalars,
    queue: &EventQueue<Stamped<E>>,
    components: &[Option<Box<dyn Component<E>>>],
    rngs: &[Rng],
    seqs: &[u64],
) {
    scalars.encode(out);
    wire::put_section(out, |o| queue.save(o, Stamped::encode));
    components.iter().flatten().count().encode(out);
    for (i, slot) in components.iter().enumerate() {
        let Some(c) = slot.as_deref() else { continue };
        i.encode(out);
        rngs[i].encode(out);
        seqs[i].encode(out);
        wire::put_section(out, |o| c.snapshot(o));
    }
}

/// Overlays a shard blob onto a freshly built shard: replaces the queue,
/// restores every captured component (which must be owned here too), and
/// returns the scalar state for the caller to apply. Total and strict —
/// `None` on malformed input, unknown component indices, ownership
/// mismatches, or any nested section not consumed exactly.
pub(crate) fn load_shard<E: WireCodec + 'static>(
    buf: &mut &[u8],
    queue: &mut EventQueue<Stamped<E>>,
    components: &mut [Option<Box<dyn Component<E>>>],
    rngs: &mut [Rng],
    seqs: &mut [u64],
) -> Option<ShardScalars> {
    let scalars = ShardScalars::decode(buf)?;
    *queue = wire::get_section(buf, |b| EventQueue::load(b, Stamped::decode))?;
    let owned = wire::get_len(buf)?;
    if owned > components.len() {
        return None;
    }
    for _ in 0..owned {
        let i = usize::decode(buf)?;
        let rng = Rng::decode(buf)?;
        let seq = u64::decode(buf)?;
        let c = components.get_mut(i)?.as_deref_mut()?;
        wire::get_section(buf, |b| c.restore(b))?;
        *rngs.get_mut(i)? = rng;
        *seqs.get_mut(i)? = seq;
    }
    Some(scalars)
}

/// Serializes the optional trace ring that heads the engine-level wrapper
/// around shard blobs (ring, shard count, each shard's blob). Every
/// backend's [`Engine::save_state`](crate::Engine::save_state) writes
/// this layout, so a checkpoint file parses identically whichever
/// transport produced it.
pub(crate) fn put_trace(out: &mut Vec<u8>, buffer: Option<&TraceBuffer>) {
    wire::put_armed(out, buffer, |b, o| wire::put_section(o, |o| b.save(o)));
}

/// Restores the optional trace ring written by [`put_trace`] into a
/// rebuilt engine's buffer. The armed/disarmed state must match the
/// snapshot (both come from the same configuration).
pub(crate) fn get_trace(buf: &mut &[u8], buffer: Option<&mut TraceBuffer>) -> Option<()> {
    wire::load_armed(buf, buffer, |b, s| wire::get_section(s, |s| b.load(s)))
}
