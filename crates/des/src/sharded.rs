//! The sharded engine: components partitioned across worker threads,
//! advancing in conservatively synchronized generations.
//!
//! Every engine runs the simulation as a sequence of *generations* — all
//! events at the earliest pending `(tick, epsilon)`, dispatched in
//! canonical stamp order (see the [`engine`](crate::engine) module) — by
//! the one loop in `protocol.rs`. Here each shard runs that loop on its
//! own thread over the barrier transport (`ThreadTransport` in
//! `transport.rs`), one barrier round per generation:
//!
//! 1. **Fold.** Each shard publishes the head time of its local queue,
//!    waits on a barrier, and computes the global minimum `m` of the
//!    published heads (identical inputs → identical result, so no
//!    coordinator is needed). If no shard has events, the run is drained;
//!    if `m` exceeds the tick limit, the run pauses — both decisions are
//!    unanimous.
//! 2. **Execute.** Each shard whose head equals `m` drains that
//!    generation and executes it. Events for local components go straight
//!    into the local queue; events for remote components accumulate in
//!    per-destination outboxes.
//! 3. **Exchange.** After a second barrier each shard drains its inboxes
//!    into its local queue, and the first shard merges the round's trace
//!    records (sorted by stamp) into the shared ring. Stop/failure flags
//!    raised during the round are observed here, consistently by all
//!    shards.
//!
//! The result is bit-identical to the sequential engine — events, random
//! draws, trace bytes, component state, and the halt point of every
//! outcome: a generation always completes, and when several components
//! fail in one generation the failure with the smallest event stamp is
//! reported.

use std::fmt;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::{Engine, EngineMetrics, EngineOptions, RunOutcome, RunStats, Stamped};
use crate::host::{HostRecorder, HostShardTimes};
use crate::protocol::{
    events_executed, host_times, run_shard_rounds, run_stats, ProtocolParams, RunCursor, Shard,
};
use crate::simulator::SequentialEngine;
use crate::snapshot::{load_engine, load_shard, save_engine};
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::{PanicFence, ThreadShared, ThreadTransport};
use crate::wire::WireCodec;

/// The multi-threaded engine: a [`SequentialEngine`]'s components
/// partitioned across shards, one worker thread per shard.
///
/// Built with [`SequentialEngine::into_sharded`]. Runs are bit-identical
/// to the sequential engine for the same `(configuration, seed)` — see
/// `sharded.rs`'s module docs for the protocol.
pub struct ShardedEngine<E> {
    shards: Vec<Shard<E>>,
    /// Component index → owning shard.
    shard_of: Vec<u32>,
    cursor: RunCursor,
    options: EngineOptions,
    /// The trace ring, when [`EngineOptions::trace`] is set.
    trace: Option<TraceBuffer>,
    /// One host-time recorder per shard, for the life of the engine.
    hosts: Vec<HostRecorder>,
}

impl<E: Send + 'static> SequentialEngine<E> {
    /// Converts this engine into a [`ShardedEngine`] with `num_shards`
    /// worker shards, assigning each component `c` to shard
    /// `shard_of[c]`. Pending events move to their target's shard;
    /// simulation time, options, trace state, and per-component random
    /// streams are preserved, so a run may even be split across engines
    /// at a pause.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero, `shard_of` is not exactly one
    /// entry per registered component, or any entry is out of range.
    pub fn into_sharded(self, num_shards: usize, shard_of: Vec<u32>) -> ShardedEngine<E> {
        let shards = self.shard.split(num_shards, &shard_of);
        // Shard 0 keeps the sequential engine's recorder; the others
        // start their own here, once, so every checkpoint segment of a
        // run lands on one timeline.
        let mut hosts = vec![self.host];
        hosts.resize_with(num_shards, || {
            HostRecorder::with_sample(self.options.host_sample)
        });
        ShardedEngine {
            shards,
            shard_of,
            cursor: self.cursor,
            options: self.options,
            trace: self.trace,
            hosts,
        }
    }
}

impl<E: Send + 'static> ShardedEngine<E> {
    /// Enqueues an initial event from outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        let stamp = self.cursor.stamp_external(time);
        let owner = self.owner_of(target).unwrap_or(0);
        self.shards[owner]
            .queue
            .push(target, time, Stamped { stamp, payload });
    }

    /// Runs until every queue drains, a component stops or fails, or the
    /// next generation would execute at a tick strictly greater than
    /// `tick_limit`. The round protocol is described in `sharded.rs`'s
    /// module docs.
    pub fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        let start = Instant::now();
        let start_events = events_executed(&self.shards);
        let n = self.shards.len();
        let shared: ThreadShared<E> = ThreadShared::new(n, self.cursor.last_progress);
        let options = &self.options;
        let shard_of: &[u32] = &self.shard_of;
        let start_cursor = self.cursor;

        let mut buffer = self.trace.as_mut();
        let (outcome, end_now, end_progress) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (s, (shard, host)) in self.shards.iter_mut().zip(&mut self.hosts).enumerate() {
                // Only the first shard holds the trace ring.
                let buffer = buffer.take();
                let shared = &shared;
                handles.push(scope.spawn(move || {
                    let mut fence = PanicFence::arm(&shared.poisoned);
                    let mut transport = ThreadTransport::new(shared, s, buffer);
                    let params = ProtocolParams {
                        my_shard: s as u32,
                        num_shards: n,
                        tick_limit,
                        options,
                        start: start_cursor,
                        shard_of,
                    };
                    let r = run_shard_rounds(shard, &params, &mut transport, host)
                        .expect("the in-process transport is infallible");
                    fence.disarm();
                    r
                }));
            }
            let mut agreed: Option<(RunOutcome, Time, Tick)> = None;
            for h in handles {
                let r = h.join().expect("shard thread panicked");
                debug_assert!(
                    agreed.as_ref().is_none_or(|a| *a == r),
                    "shards disagreed on the run outcome"
                );
                agreed = Some(r);
            }
            agreed.expect("at least one shard")
        });
        // `end_now` is the time of the last *executed* generation (a
        // tick-limit pause stops before advancing), matching the
        // sequential engine.
        self.cursor.now = end_now;
        self.cursor.last_progress = end_progress;
        run_stats(&self.shards, start_events, start, end_now, outcome)
    }

    /// Runs until every queue drains, a component stops or fails.
    pub fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    fn owner_of(&self, id: ComponentId) -> Option<usize> {
        self.shard_of.get(id.index()).map(|&s| s as usize)
    }
}

impl<E: Send + WireCodec + 'static> ShardedEngine<E> {
    /// Overlays the end-of-run state of a worker fleet onto this layout
    /// of the same simulation, which never ran: `trace` is the hub's
    /// merged trace ring and `shards[w]` the final shard blob of worker
    /// `w`, restored by the strict decoder a resume uses. A shard whose
    /// worker delivered no blob, or a blob that does not restore, is
    /// emptied — components and pending events dropped — so nothing a
    /// dead worker owned is read as if it had run; `Err` names the first
    /// such worker.
    pub fn load_fleet(
        &mut self,
        trace: Option<TraceBuffer>,
        shards: &[Option<Vec<u8>>],
    ) -> Result<(), usize> {
        self.trace = trace;
        let mut lost = None;
        for (w, shard) in self.shards.iter_mut().enumerate() {
            let blob = shards.get(w).and_then(Option::as_deref);
            let restored = blob.and_then(|mut b| {
                let cursor = load_shard(&mut b, shard)?;
                b.is_empty().then_some(cursor)
            });
            match restored {
                Some(cursor) => self.cursor = cursor,
                None => {
                    *shard = Shard::new(Vec::new(), Vec::new());
                    lost.get_or_insert(w);
                }
            }
        }
        lost.map_or(Ok(()), Err)
    }
}

impl<E: Send + 'static> Engine<E> for ShardedEngine<E> {
    fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        ShardedEngine::schedule(self, target, time, payload);
    }

    fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        ShardedEngine::run_until(self, tick_limit)
    }

    fn now(&self) -> Time {
        self.cursor.now
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.shards[self.owner_of(id)?].component(id)
    }

    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        let owner = self.owner_of(id)?;
        self.shards[owner].component_mut(id)
    }

    fn shard_metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }

    fn trace_records(&self) -> Option<Vec<TraceEvent>> {
        self.trace.as_ref().map(TraceBuffer::records)
    }

    fn host_times(&self) -> Vec<HostShardTimes> {
        host_times(&self.hosts)
    }

    /// Writes the uniform engine blob: trace section, shard count, then
    /// one canonical shard blob per shard (the run cursor repeated in
    /// each — see `des/src/snapshot.rs`).
    fn save_state(&self, out: &mut Vec<u8>)
    where
        E: crate::wire::WireCodec,
    {
        save_engine(out, self.trace.as_ref(), &self.cursor, &self.shards);
    }

    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        load_engine(buf, self.trace.as_mut(), &mut self.shards, &mut self.cursor)
    }
}

impl<E> fmt::Debug for ShardedEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("components", &self.shard_of.len())
            .field(
                "pending_events",
                &self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            )
            .field("now", &self.cursor.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Simulator, TraceSpec};
    use std::any::Any;

    #[derive(Debug, Clone)]
    enum Ev {
        Ping(u32),
        Stop,
        Fail,
    }

    /// A ring relay: forwards a token to the next component, drawing one
    /// random value and tracing each hop.
    struct Relay {
        next: ComponentId,
        hops_left: u32,
        seen: Vec<u32>,
        draws: Vec<u64>,
        productive: bool,
        /// Halts the run from inside the handler of ping `n`: `(n, true)`
        /// fails, `(n, false)` stops.
        trip: Option<(u32, bool)>,
    }

    impl Component<Ev> for Relay {
        fn name(&self) -> &str {
            "relay"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.seen.push(n);
                    self.draws.push(ctx.rng().gen_u64());
                    if self.productive {
                        ctx.progress();
                    }
                    ctx.trace(0, ctx.self_id().index() as u32, n as u64, 0);
                    if self.hops_left > 0 {
                        self.hops_left -= 1;
                        ctx.schedule(self.next, ctx.now().plus_ticks(1), Ev::Ping(n + 1));
                    }
                    match self.trip {
                        Some((at, true)) if at == n => ctx.fail("tripped"),
                        Some((at, false)) if at == n => ctx.stop(),
                        _ => {}
                    }
                }
                Ev::Stop => ctx.stop(),
                Ev::Fail => ctx.fail("sharded failure"),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Builds a ring of `size` relays with `tokens` tokens injected at
    /// evenly spaced components, each forwarded `hops` times.
    fn build_ring(seed: u64, size: usize, tokens: usize, hops: u32) -> Simulator<Ev> {
        build_ring_with(seed, size, tokens, hops, false, EngineOptions::default())
    }

    fn build_ring_with(
        seed: u64,
        size: usize,
        tokens: usize,
        hops: u32,
        productive: bool,
        options: EngineOptions,
    ) -> Simulator<Ev> {
        let mut sim = Simulator::with_options(seed, options);
        let ids: Vec<ComponentId> = (0..size)
            .map(|i| {
                sim.add_component(Box::new(Relay {
                    next: ComponentId::from_index((i + 1) % size),
                    hops_left: hops,
                    seen: vec![],
                    draws: vec![],
                    productive,
                    trip: None,
                }))
            })
            .collect();
        for t in 0..tokens {
            let at = ids[(t * size) / tokens];
            sim.schedule(at, Time::at(0), Ev::Ping(0));
        }
        sim
    }

    /// Round-robin component → shard map.
    fn striped(n: usize, shards: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32) % shards).collect()
    }

    fn watched(window: Tick) -> EngineOptions {
        EngineOptions {
            watchdog: window,
            ..EngineOptions::default()
        }
    }

    fn state_of(engine: &dyn Engine<Ev>, size: usize) -> Vec<(Vec<u32>, Vec<u64>)> {
        (0..size)
            .map(|i| {
                let r = engine
                    .component_as::<Relay>(ComponentId::from_index(i))
                    .unwrap();
                (r.seen.clone(), r.draws.clone())
            })
            .collect()
    }

    /// Lifetime `(executed, enqueued)` event totals across shards.
    fn totals(engine: &dyn Engine<Ev>) -> (u64, u64) {
        let m = engine.shard_metrics();
        (
            m.iter().map(|m| m.events_executed).sum(),
            m.iter().map(|m| m.total_enqueued).sum(),
        )
    }

    /// Everything the identity contract pins about a run and the resume
    /// after it: how and when it ended, what it executed and enqueued,
    /// every component's history and draws, and the trace.
    fn observe(engine: &mut dyn Engine<Ev>, size: usize) -> impl PartialEq + std::fmt::Debug {
        let first = engine.run();
        let at_halt = (engine.now(), totals(engine), state_of(engine, size));
        let resumed = engine.run();
        (
            (first.outcome, first.events_executed, at_halt),
            (resumed.outcome, resumed.events_executed, engine.now()),
            (totals(engine), state_of(engine, size)),
            engine.trace_records(),
        )
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let traced = || EngineOptions {
            trace: Some((TraceSpec::default(), 4096)),
            ..EngineOptions::default()
        };
        // Tokens start at components 0, 2 and 5, so generation 5 delivers
        // ping 5 to components 2, 5 and 7 in that stamp order; tripping
        // component 5 halts the run from the middle of that generation.
        for (trip, outcome) in [
            (None, RunOutcome::Drained),
            (Some((5, true)), RunOutcome::Failed("tripped".into())),
            (Some((5, false)), RunOutcome::Stopped),
        ] {
            let build = || {
                let mut sim = build_ring_with(9, 8, 3, 40, false, traced());
                let mid = ComponentId::from_index(5);
                sim.component_as_mut::<Relay>(mid).unwrap().trip = trip;
                sim
            };
            let mut seq = build();
            let want = observe(&mut seq, 8);
            {
                let mut again = build();
                let first = again.run();
                assert_eq!(first.outcome, outcome);
                if trip.is_some() {
                    assert_eq!(again.now(), Time::at(5));
                    // 3 tokens × generations 0..=5, the last one whole.
                    assert_eq!(first.events_executed, 18);
                }
            }
            for shards in [1u32, 2, 3, 4] {
                let mut sharded = build().into_sharded(shards as usize, striped(8, shards));
                assert_eq!(
                    observe(&mut sharded, 8),
                    want,
                    "{trip:?} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn cross_shard_ping_pong_drains() {
        // Both components on different shards: every hop crosses.
        let sim = build_ring(1, 2, 1, 10);
        let mut sharded = sim.into_sharded(2, striped(2, 2));
        // Each relay has a budget of 10 forwards: 20 hops + 1 injection.
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(stats.events_executed, 21);
        assert_eq!(Engine::now(&sharded), Time::at(20));
    }

    #[test]
    fn stop_halts_at_round_boundary_and_resumes() {
        let mut sim = build_ring(3, 4, 1, 50);
        sim.schedule(ComponentId::from_index(2), Time::at(5), Ev::Stop);
        let mut sharded = sim.into_sharded(2, striped(4, 2));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        let resumed = sharded.run();
        assert_eq!(resumed.outcome, RunOutcome::Drained);
        // 4 relays × 50 forwards + 1 injection + 1 stop event.
        assert_eq!(stats.events_executed + resumed.events_executed, 202);
    }

    #[test]
    fn failure_is_surfaced_with_message() {
        let mut sim = build_ring(5, 4, 1, 50);
        sim.schedule(ComponentId::from_index(1), Time::at(3), Ev::Fail);
        let mut sharded = sim.into_sharded(4, striped(4, 4));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Failed("sharded failure".into()));
    }

    #[test]
    fn unknown_target_fails() {
        let mut sim = build_ring(7, 2, 0, 0);
        sim.schedule(ComponentId::from_index(99), Time::at(0), Ev::Ping(0));
        let mut sharded = sim.into_sharded(2, striped(2, 2));
        let stats = sharded.run();
        assert!(
            matches!(&stats.outcome, RunOutcome::Failed(m) if m.contains("component#99")),
            "got {:?}",
            stats.outcome
        );
    }

    #[test]
    fn watchdog_trips_identically_across_shard_counts() {
        // Nobody reports progress, so last_progress stays 0 and the
        // watchdog must trip at the identical point on every backend.
        let mut seq = build_ring_with(13, 6, 2, 60, false, watched(10));
        let seq_stats = seq.run();
        assert_eq!(
            seq_stats.outcome,
            RunOutcome::Watchdog { last_progress: 0 },
            "sequential"
        );
        for shards in [1u32, 2, 4] {
            let sim = build_ring_with(13, 6, 2, 60, false, watched(10));
            let mut sharded = sim.into_sharded(shards as usize, striped(6, shards));
            let stats = sharded.run();
            assert_eq!(stats.outcome, seq_stats.outcome, "{shards} shards");
            assert_eq!(
                Engine::now(&sharded),
                Engine::now(&seq),
                "trip time at {shards} shards"
            );
            assert_eq!(
                stats.events_executed, seq_stats.events_executed,
                "events at {shards} shards"
            );
            // Pending events survive for diagnostics, not torn down.
            let (executed, enqueued) = totals(&sharded);
            assert!(enqueued > executed);
        }
    }

    #[test]
    fn watchdog_spares_productive_runs() {
        // Every hop reports progress, so even a tiny window never fires.
        let sim = build_ring_with(13, 6, 2, 60, true, watched(2));
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
    }

    #[test]
    fn tick_limit_pauses_and_resumes() {
        let sim = build_ring(11, 4, 2, 30);
        let mut sharded = sim.into_sharded(2, striped(4, 2));
        let stats = sharded.run_until(10);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
        assert!(Engine::now(&sharded).tick() <= 10);
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let total: u64 = stats.events_executed;
        assert!(total > 0);
        assert_eq!(
            totals(&sharded).0,
            122,
            "4 relays × 30 forwards + 2 injections"
        );
    }

    #[test]
    fn shard_metrics_account_every_event_once() {
        let sim = build_ring(13, 6, 2, 20);
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let per_shard = Engine::shard_metrics(&sharded);
        assert_eq!(per_shard.len(), 3);
        let total: u64 = per_shard.iter().map(|m| m.events_executed).sum();
        assert_eq!(total, stats.events_executed);
        for m in &per_shard {
            assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
            assert_eq!(m.queue_len, 0, "drained shard still has events");
        }
    }
}
