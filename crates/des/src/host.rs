//! Raw host-time (wall-clock) records for the profiling plane.
//!
//! Everything in this module is strictly *out-of-band*: host clocks are
//! read around engine phases but never feed simulation state, event
//! ordering, or any wire payload that influences delivery. The records
//! collected here are surfaced after the run (or over side channels such
//! as the end-of-run DONE frame and the progress heartbeat) so that all
//! byte-identity guarantees hold with profiling enabled.
//!
//! The structs are plain `std` data: the `stats` crate turns them into
//! metric planes and Chrome `trace_event` JSON, and the `core` crate
//! wires them to configuration. The engines in this crate write them,
//! except a worker's checkpoint fields, which the run loop in `core`
//! times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cap on retained per-round slices, so a long run cannot grow the
/// profile without bound. Later rounds past the cap are counted in
/// [`HostShardTimes::dropped_slices`] but not retained.
pub const MAX_ROUND_SLICES: usize = 8192;

/// A monotonic host-time epoch. All reads are nanoseconds since the
/// clock was started (saturating at `u64::MAX`, i.e. after ~584 years);
/// clones share the epoch.
#[derive(Debug, Clone)]
pub struct HostClock {
    epoch: Instant,
}

impl HostClock {
    /// Starts the epoch now.
    pub fn new() -> Self {
        HostClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Milliseconds since the epoch.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Wall-time of one executed round (generation batch) on one shard.
///
/// `start_ns` is read on the simulator's [`HostClock`]
/// ([`Simulator::host_clock`](crate::Simulator::host_clock)), which every
/// shard of a process shares, so in-process shards and the run's
/// checkpoint writes lie on one timeline. Slices from different worker
/// processes are aligned only approximately — good enough for a timeline
/// view, never used for anything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostRoundSlice {
    /// Nanoseconds since the clock's epoch when the round began.
    pub start_ns: u64,
    /// Simulated tick of the round's generation.
    pub tick: u64,
    /// Events executed locally this round.
    pub events: u64,
    /// Wall time spent executing events.
    pub execute_ns: u64,
    /// Wall time inside the exchange (includes barrier / hub wait).
    pub exchange_ns: u64,
}

/// Accumulated host-time attribution for one shard (or the whole
/// sequential engine, which is shard 0 of 1).
///
/// Phase counters are measured on every batch while profiling is
/// enabled; the per-event component-class attribution only on 1-in-N
/// sampled batches (`sample`), bounding the overhead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostShardTimes {
    /// Sampling stride: per-event attribution runs on one batch in
    /// `sample`. Zero means profiling was disabled.
    pub sample: u32,
    /// Batches (generations) observed while profiling.
    pub total_batches: u64,
    /// Batches that ran with per-event attribution.
    pub sampled_batches: u64,
    /// Events executed within sampled batches.
    pub sampled_events: u64,
    /// Wall time draining the queue (building generation batches).
    pub drain_ns: u64,
    /// Wall time executing events.
    pub execute_ns: u64,
    /// Wall time closing sampling windows at window edges.
    pub sample_edge_ns: u64,
    /// Wall time in the exchange: shipping and delivering outboxes, and
    /// the barrier / hub wait for the next fold.
    pub exchange_ns: u64,
    /// Wall time serializing checkpoint state on this shard.
    pub checkpoint_ns: u64,
    /// Checkpoint snapshots taken on this shard.
    pub checkpoint_writes: u64,
    /// Bytes of checkpoint state produced on this shard.
    pub checkpoint_bytes: u64,
    /// Per component-class `(class, ns, events)` from sampled batches.
    pub classes: Vec<(String, u64, u64)>,
    /// Per-round timeline slices, oldest first, capped at
    /// [`MAX_ROUND_SLICES`].
    pub round_slices: Vec<HostRoundSlice>,
    /// Rounds whose slices were dropped once the cap was reached.
    pub dropped_slices: u64,
}

impl HostShardTimes {
    /// True when this record was collected with profiling on.
    pub fn enabled(&self) -> bool {
        self.sample != 0
    }

    /// Adds `ns`/`events` to the accumulator of `class`.
    pub fn add_class(&mut self, class: &str, ns: u64, events: u64) {
        for (name, t, n) in &mut self.classes {
            if name == class {
                *t += ns;
                *n += events;
                return;
            }
        }
        self.classes.push((class.to_string(), ns, events));
    }

    /// Retains a round slice, or counts it as dropped past the cap.
    pub fn push_slice(&mut self, slice: HostRoundSlice) {
        if self.round_slices.len() < MAX_ROUND_SLICES {
            self.round_slices.push(slice);
        } else {
            self.dropped_slices += 1;
        }
    }
}

crate::wire_struct!(HostRoundSlice {
    start_ns,
    tick,
    events,
    execute_ns,
    exchange_ns,
});

crate::wire_struct!(HostShardTimes {
    sample,
    total_batches,
    sampled_batches,
    sampled_events,
    drain_ns,
    execute_ns,
    sample_edge_ns,
    exchange_ns,
    checkpoint_ns,
    checkpoint_writes,
    checkpoint_bytes,
    classes,
    round_slices,
    dropped_slices,
} if |t| t.round_slices.len() <= MAX_ROUND_SLICES);

/// Hub-side host accounting of a worker fleet: rounds and wire traffic
/// per worker, always on (one add per frame).
#[derive(Debug, Clone, Default)]
pub struct HubHostStats {
    /// Rounds (EXCH frames from every worker) the hub relayed.
    pub rounds: u64,
    /// Frame bytes (5-byte header and body) received from each
    /// worker, in worker order.
    pub wire_in_bytes: Vec<u64>,
    /// Frame bytes (5-byte header and body) sent to each worker, in
    /// worker order.
    pub wire_out_bytes: Vec<u64>,
}

/// Engine-side helper pairing a [`HostShardTimes`] with the run's
/// [`HostClock`] and the batch-sampling counter. One recorder serves one
/// shard for the life of its engine, and every recorder of a process
/// reads the same clock, so the slices of every shard and every
/// `run_until` segment (a checkpointed run has many) lie on one timeline,
/// and the 1-in-N stride runs on across segments.
#[derive(Debug)]
pub struct HostRecorder {
    clock: HostClock,
    counter: u64,
    /// The accumulated record.
    pub times: HostShardTimes,
}

impl HostRecorder {
    /// A recorder timing on `clock`, armed with the given stride; 0
    /// leaves it disabled, and every probe a no-op.
    pub fn new(clock: HostClock, sample: u32) -> Self {
        HostRecorder {
            clock,
            counter: 0,
            times: HostShardTimes {
                sample,
                ..HostShardTimes::default()
            },
        }
    }

    /// Whether any probing should happen at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.times.sample != 0
    }

    /// Nanoseconds since the clock's epoch (saturating to `u64`).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Counts one batch; true when this batch gets per-event
    /// attribution (every `sample`-th batch, starting with the first).
    #[inline]
    pub fn batch_sampled(&mut self) -> bool {
        self.times.total_batches += 1;
        let sampled = self.counter == 0;
        self.counter += 1;
        if self.counter >= u64::from(self.times.sample) {
            self.counter = 0;
        }
        if sampled {
            self.times.sampled_batches += 1;
        }
        sampled
    }
}

/// Live run progress, shared between the executing engine (writers) and
/// the heartbeat emitter (reader). All relaxed atomics: readers only
/// need an eventually consistent snapshot, and the stores on the engine
/// side must stay nearly free.
#[derive(Debug, Default)]
pub struct ProgressShared {
    events: Vec<AtomicU64>,
    tick: AtomicU64,
    rounds: AtomicU64,
    restarts: AtomicU64,
}

impl ProgressShared {
    /// A progress board with one cumulative-events slot per shard.
    pub fn new(shards: usize) -> Self {
        ProgressShared {
            events: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            tick: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }

    /// Publishes shard `shard`'s cumulative executed-event count.
    #[inline]
    pub fn record_events(&self, shard: usize, cumulative: u64) {
        if let Some(slot) = self.events.get(shard) {
            slot.store(cumulative, Ordering::Relaxed);
        }
    }

    /// Publishes the current simulated tick.
    #[inline]
    pub fn record_tick(&self, tick: u64) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    /// Counts one completed round.
    #[inline]
    pub fn add_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker-fleet restart.
    pub fn add_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of all shards' published event counts.
    pub fn events(&self) -> u64 {
        self.events.iter().map(|e| e.load(Ordering::Relaxed)).sum()
    }

    /// Last published simulated tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Worker-fleet restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireCodec;

    #[test]
    fn shard_times_round_trip() {
        let mut t = HostShardTimes {
            sample: 64,
            total_batches: 1000,
            sampled_batches: 16,
            sampled_events: 4096,
            drain_ns: 11,
            execute_ns: 22,
            sample_edge_ns: 33,
            exchange_ns: 55,
            checkpoint_ns: 66,
            checkpoint_writes: 2,
            checkpoint_bytes: 777,
            ..HostShardTimes::default()
        };
        t.add_class("router", 100, 10);
        t.add_class("interface", 50, 5);
        t.add_class("router", 1, 1);
        t.push_slice(HostRoundSlice {
            start_ns: 5,
            tick: 9,
            events: 3,
            execute_ns: 2,
            exchange_ns: 1,
        });
        let mut wire = Vec::new();
        t.encode(&mut wire);
        let decoded = HostShardTimes::decode(&mut wire.as_slice()).expect("decodes");
        assert_eq!(decoded, t);
        assert_eq!(decoded.classes[0], ("router".to_string(), 101, 11));
    }

    #[test]
    fn decode_rejects_more_slices_than_the_cap() {
        let t = HostShardTimes {
            round_slices: vec![HostRoundSlice::default(); MAX_ROUND_SLICES + 1],
            ..HostShardTimes::default()
        };
        let mut wire = Vec::new();
        t.encode(&mut wire);
        assert!(HostShardTimes::decode(&mut wire.as_slice()).is_none());
    }

    #[test]
    fn recorder_samples_one_in_n() {
        let mut r = HostRecorder::new(HostClock::new(), 4);
        let pattern: Vec<bool> = (0..8).map(|_| r.batch_sampled()).collect();
        assert_eq!(
            pattern,
            [true, false, false, false, true, false, false, false]
        );
        assert_eq!(r.times.total_batches, 8);
        assert_eq!(r.times.sampled_batches, 2);
    }

    #[test]
    fn slice_cap_counts_drops() {
        let mut t = HostShardTimes::default();
        for _ in 0..(MAX_ROUND_SLICES + 3) {
            t.push_slice(HostRoundSlice::default());
        }
        assert_eq!(t.round_slices.len(), MAX_ROUND_SLICES);
        assert_eq!(t.dropped_slices, 3);
    }

    #[test]
    fn progress_board_sums_shards() {
        let p = ProgressShared::new(3);
        p.record_events(0, 10);
        p.record_events(2, 5);
        p.record_events(7, 99); // out of range: ignored
        p.record_tick(42);
        p.add_round();
        p.add_round();
        p.add_restart();
        assert_eq!(p.events(), 15);
        assert_eq!(p.tick(), 42);
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.restarts(), 1);
    }
}
