//! The sharded engine: components partitioned across worker threads,
//! advancing in conservatively synchronized generations.
//!
//! # Synchronization protocol
//!
//! The sequential executor already runs the simulation as a sequence of
//! *generations* — all events at the earliest pending `(tick, epsilon)`,
//! dispatched in canonical stamp order (see the [`engine`](crate::engine)
//! module). The sharded engine executes the same sequence of generations,
//! one barrier round per generation:
//!
//! 1. **Publish.** Each shard publishes the head time of its local queue,
//!    then waits on a barrier.
//! 2. **Execute.** Every shard independently computes the global minimum
//!    `m` of the published peeks (identical inputs → identical result,
//!    so no coordinator is needed). If no shard has events, the run is
//!    drained; if `m` exceeds the tick limit, the run pauses — both
//!    decisions are unanimous. Otherwise each shard whose head equals `m`
//!    drains that generation, sorts it by stamp, and executes it.
//!    Events for local components go straight into the local queue;
//!    events for remote components accumulate in per-destination
//!    outboxes. A second barrier ends the round.
//! 3. **Deliver.** Each shard drains its inboxes into its local queue,
//!    and the first shard merges the round's trace records (sorted by
//!    stamp) into the shared ring. Stop/failure flags raised during the
//!    round are observed here, consistently by all shards.
//!
//! Because cross-shard events are delivered at the end of the round, an
//! event scheduled *during* generation `m` at time `m` joins the *next*
//! generation — exactly the sequential batch semantics, so zero-latency
//! messages need no lookahead special case.
//!
//! # Divergence from the sequential engine
//!
//! For runs that end by draining the queue, the sharded engine is
//! bit-identical to the sequential engine (events, random draws, trace
//! bytes, component state). Two halt paths are looser: `stop`/`fail`
//! complete the current generation before halting (the sequential engine
//! aborts mid-generation), and when several components fail in one
//! generation, the failure with the smallest event stamp is reported —
//! which is the same failure the sequential engine would have hit first.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::Stamped;
use crate::engine::{Engine, EngineMetrics, EventStamp, RunOutcome, RunStats, EXTERNAL_SRC};
use crate::event::{EventQueue, Generation};
use crate::host::{HostRecorder, HostShardTimes, ProgressShared};
use crate::protocol::{run_shard_rounds, ProtocolParams, Shard};
use crate::simulator::{SequentialEngine, TraceState};
use crate::time::{Tick, Time};
use crate::trace::{TraceEvent, TraceSpec};
use crate::transport::{PanicFence, ThreadShared, ThreadTransport};
use crate::wire;

/// The multi-threaded engine: a [`SequentialEngine`]'s components
/// partitioned across shards, one worker thread per shard.
///
/// Built with [`SequentialEngine::into_sharded`]. Runs are bit-identical
/// to the sequential engine for the same `(configuration, seed)` — see
/// `sharded.rs`'s module docs for the protocol and the halt-path caveats.
pub struct ShardedEngine<E> {
    shards: Vec<Shard<E>>,
    /// Component index → owning shard.
    shard_of: Vec<u32>,
    now: Time,
    ext_seq: u64,
    trace: Option<TraceState>,
    /// No-progress watchdog window in ticks; 0 = disarmed.
    watchdog: Tick,
    /// Sampling window width in ticks; 0 = disarmed.
    sample_interval: Tick,
    /// Tick of the last globally agreed progress report.
    last_progress: Tick,
    /// Host-profiling sampling stride; 0 = disarmed.
    host_sample: u32,
    /// Accumulated per-shard host-time records across runs.
    host_times: Vec<HostShardTimes>,
    /// Out-of-band live-progress board shared with the heartbeat.
    progress_board: Option<Arc<ProgressShared>>,
}

impl<E: Send + 'static> SequentialEngine<E> {
    /// Converts this engine into a [`ShardedEngine`] with `num_shards`
    /// worker shards, assigning each component `c` to shard
    /// `shard_of[c]`. Pending events move to their target's shard;
    /// simulation time, trace state, and per-component random streams are
    /// preserved, so a run may even be split across engines at a pause.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero, `shard_of` is not exactly one
    /// entry per registered component, or any entry is out of range.
    pub fn into_sharded(mut self, num_shards: usize, shard_of: Vec<u32>) -> ShardedEngine<E> {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            shard_of.len(),
            self.components.len(),
            "shard map must cover every component"
        );
        assert!(
            shard_of.iter().all(|&s| (s as usize) < num_shards),
            "shard map entry out of range"
        );
        let n = self.components.len();
        let mut shards: Vec<Shard<E>> = (0..num_shards)
            .map(|_| Shard {
                components: Vec::with_capacity(n),
                rngs: self.rngs.clone(),
                seqs: self.seqs.clone(),
                queue: EventQueue::new(),
                batch: Generation::new(),
                events_executed: 0,
                batches: 0,
                batch_counts: [0; crate::engine::BATCH_BUCKETS],
            })
            .collect();
        // Executor counters carry over to shard 0 so lifetime totals
        // (events executed so far) survive the conversion.
        shards[0].events_executed = Engine::events_executed(&self);
        for shard in shards.iter_mut() {
            shard.components.resize_with(n, || None);
        }
        for (idx, slot) in self.components.drain(..).enumerate() {
            shards[shard_of[idx] as usize].components[idx] = slot;
        }
        // Per-component send counters and random streams live with the
        // owning shard; the full-length copies in other shards are inert.
        let mut pending = Vec::new();
        while self.queue.take_batch(&mut pending) > 0 {
            for e in pending.drain(..) {
                let owner = shard_of.get(e.target.index()).copied().unwrap_or(0) as usize;
                shards[owner].queue.push(e.target, e.time, e.payload);
            }
        }
        ShardedEngine {
            shards,
            shard_of,
            now: self.now,
            ext_seq: self.ext_seq,
            trace: self.trace.take(),
            watchdog: self.watchdog,
            sample_interval: self.sample_interval,
            last_progress: self.last_progress,
            host_sample: 0,
            host_times: Vec::new(),
            progress_board: None,
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
        assert!(time >= self.now, "cannot schedule into the past");
        let stamp = EventStamp {
            src: EXTERNAL_SRC,
            seq: self.ext_seq,
        };
        self.ext_seq += 1;
        let owner = self.shard_of.get(target.index()).copied().unwrap_or(0) as usize;
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
        let start_events: u64 = self.shards.iter().map(|s| s.events_executed).sum();
        let n = self.shards.len();
        let shared: ThreadShared<E> = ThreadShared::new(n, self.last_progress);
        let watchdog = self.watchdog;
        let sample_interval = self.sample_interval;
        let start_progress = self.last_progress;
        let trace_spec = self.trace.as_ref().map(|t| t.spec);
        let shard_of: &[u32] = &self.shard_of;
        let start_now = self.now;
        let host_sample = self.host_sample;
        let board = self.progress_board.clone();

        let mut trace_state = self.trace.as_mut();
        let (outcome, end_now, end_progress, host_times) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let buffer = if s == 0 {
                    trace_state.take().map(|t| &mut t.buffer)
                } else {
                    None
                };
                let shared = &shared;
                let board = board.clone();
                handles.push(scope.spawn(move || {
                    let mut fence = PanicFence::arm(&shared.poisoned);
                    let mut transport = ThreadTransport::new(shared, s, buffer);
                    let params = ProtocolParams {
                        my_shard: s as u32,
                        num_shards: n,
                        tick_limit,
                        watchdog,
                        sample_interval,
                        start_now,
                        start_progress,
                        trace_spec,
                        shard_of,
                        progress_board: board.as_deref(),
                    };
                    let mut host = HostRecorder::with_sample(host_sample);
                    let r = run_shard_rounds(shard, &params, &mut transport, &mut host)
                        .expect("the in-process transport is infallible");
                    fence.disarm();
                    (r, host.times)
                }));
            }
            let mut agreed: Option<(RunOutcome, Time, Tick)> = None;
            let mut host_times = Vec::with_capacity(n);
            for h in handles {
                let (r, times) = h.join().expect("shard thread panicked");
                debug_assert!(
                    agreed.as_ref().is_none_or(|a| *a == r),
                    "shards disagreed on the run outcome"
                );
                agreed = Some(r);
                host_times.push(times);
            }
            let (outcome, end_now, end_progress) = agreed.expect("at least one shard");
            (outcome, end_now, end_progress, host_times)
        });
        if self.host_sample != 0 {
            self.host_times.resize(n, HostShardTimes::default());
            for (acc, times) in self.host_times.iter_mut().zip(&host_times) {
                acc.merge(times);
            }
        }
        // `end_now` is the time of the last *executed* generation (a
        // tick-limit pause stops before advancing), matching the
        // sequential engine.
        self.now = end_now;
        self.last_progress = end_progress;
        let events_executed: u64 =
            self.shards.iter().map(|s| s.events_executed).sum::<u64>() - start_events;
        RunStats {
            events_executed,
            end_time: self.now,
            queue_high_water: self.shards.iter().map(|s| s.queue.high_water_mark()).sum(),
            total_enqueued: self.shards.iter().map(|s| s.queue.total_enqueued()).sum(),
            wall: start.elapsed(),
            outcome,
        }
    }

    /// Runs until every queue drains, a component stops or fails.
    pub fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    /// Arms the no-progress watchdog: if the gap between the next
    /// generation's tick and the last tick at which any component
    /// reported progress exceeds `window`, the run halts with
    /// [`RunOutcome::Watchdog`]. `0` disarms. The decision is unanimous
    /// across shards, so it fires at the identical point on every shard
    /// count.
    pub fn set_watchdog(&mut self, window: Tick) {
        self.watchdog = window;
    }

    /// Arms the windowed sampler (see [`Engine::set_sampler`]). Each
    /// shard samples its own components when the barrier round covering
    /// a window edge begins, so the union across shards is exactly the
    /// sequential engine's pre-generation sweep.
    pub fn set_sampler(&mut self, interval: Tick) {
        self.sample_interval = interval;
    }

    fn owner_of(&self, id: ComponentId) -> Option<usize> {
        self.shard_of.get(id.index()).map(|&s| s as usize)
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
        self.now
    }

    fn num_components(&self) -> usize {
        self.shard_of.len()
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        let owner = self.owner_of(id)?;
        self.shards[owner]
            .components
            .get(id.index())
            .and_then(|c| c.as_deref())
    }

    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        let owner = self.owner_of(id)?;
        self.shards[owner]
            .components
            .get_mut(id.index())
            .and_then(|c| c.as_deref_mut())
    }

    fn shard_metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }

    fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed).sum()
    }

    fn total_enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.total_enqueued()).sum()
    }

    fn set_watchdog(&mut self, window: Tick) {
        ShardedEngine::set_watchdog(self, window);
    }

    fn set_sampler(&mut self, interval: Tick) {
        ShardedEngine::set_sampler(self, interval);
    }

    fn set_host_profiling(&mut self, sample: u32) {
        self.host_sample = sample;
    }

    fn host_times(&self) -> Vec<HostShardTimes> {
        self.host_times.clone()
    }

    fn set_progress(&mut self, progress: Arc<ProgressShared>) {
        self.progress_board = Some(progress);
    }

    fn set_trace(&mut self, spec: TraceSpec, capacity: usize) {
        self.trace = Some(TraceState {
            spec,
            buffer: crate::trace::TraceBuffer::with_capacity(capacity),
        });
    }

    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn trace_records(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map(|t| t.buffer.records())
            .unwrap_or_default()
    }

    /// Writes the uniform engine blob: trace section, shard count, then
    /// one canonical shard blob per shard (engine-global scalars repeated
    /// in each — see `des/src/snapshot.rs`).
    fn save_state(&self, out: &mut Vec<u8>) -> bool
    where
        E: crate::wire::WireCodec,
    {
        crate::snapshot::put_trace(out, self.trace.as_ref().map(|t| &t.buffer));
        wire::put_each(out, &self.shards, |shard, o| {
            wire::put_section(o, |o| {
                shard.save_state(self.now, self.ext_seq, self.last_progress, o)
            })
        });
        true
    }

    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let mut inner = || -> Option<()> {
            crate::snapshot::get_trace(buf, self.trace.as_mut().map(|t| &mut t.buffer))?;
            let mut scalars = None;
            wire::load_each(&mut self.shards, buf, |shard, b| {
                scalars = Some(wire::get_section(b, |b| shard.load_state(b))?);
                Some(())
            })?;
            let s = scalars?;
            self.now = s.now;
            self.ext_seq = s.ext_seq;
            self.last_progress = s.last_progress;
            Some(())
        };
        inner().is_some()
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
            .field("now", &self.now)
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
        build_ring_with(seed, size, tokens, hops, false)
    }

    fn build_ring_with(
        seed: u64,
        size: usize,
        tokens: usize,
        hops: u32,
        productive: bool,
    ) -> Simulator<Ev> {
        let mut sim = Simulator::new(seed);
        let ids: Vec<ComponentId> = (0..size)
            .map(|i| {
                sim.add_component(Box::new(Relay {
                    next: ComponentId::from_index((i + 1) % size),
                    hops_left: hops,
                    seen: vec![],
                    draws: vec![],
                    productive,
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

    fn state_of(engine: &dyn Engine<Ev>) -> Vec<(Vec<u32>, Vec<u64>)> {
        (0..engine.num_components())
            .map(|i| {
                let r = engine
                    .component_as::<Relay>(ComponentId::from_index(i))
                    .unwrap();
                (r.seen.clone(), r.draws.clone())
            })
            .collect()
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for shards in [1u32, 2, 3, 4] {
            let mut seq = build_ring(9, 8, 3, 40);
            seq.set_trace(TraceSpec::default(), 4096);
            let seq_stats = seq.run();
            assert_eq!(seq_stats.outcome, RunOutcome::Drained);

            let mut sharded = build_ring(9, 8, 3, 40);
            sharded.set_trace(TraceSpec::default(), 4096);
            let mut sharded = sharded.into_sharded(shards as usize, striped(8, shards));
            let stats = sharded.run();
            assert_eq!(stats.outcome, RunOutcome::Drained);

            assert_eq!(stats.events_executed, seq_stats.events_executed);
            assert_eq!(stats.total_enqueued, seq_stats.total_enqueued);
            assert_eq!(Engine::now(&sharded), Engine::now(&seq), "end time");
            assert_eq!(
                state_of(&sharded),
                state_of(&seq),
                "component state diverged at {shards} shards"
            );
            assert_eq!(
                Engine::trace_records(&sharded),
                Engine::trace_records(&seq),
                "trace diverged at {shards} shards"
            );
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
        let mut seq = build_ring(13, 6, 2, 60);
        Engine::set_watchdog(&mut seq, 10);
        let seq_stats = seq.run();
        assert_eq!(
            seq_stats.outcome,
            RunOutcome::Watchdog { last_progress: 0 },
            "sequential"
        );
        for shards in [1u32, 2, 4] {
            let sim = build_ring(13, 6, 2, 60);
            let mut sharded = sim.into_sharded(shards as usize, striped(6, shards));
            Engine::set_watchdog(&mut sharded, 10);
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
            assert!(Engine::total_enqueued(&sharded) > Engine::events_executed(&sharded));
        }
    }

    #[test]
    fn watchdog_spares_productive_runs() {
        // Every hop reports progress, so even a tiny window never fires.
        let sim = build_ring_with(13, 6, 2, 60, true);
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        Engine::set_watchdog(&mut sharded, 2);
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
        let all: u64 = Engine::events_executed(&sharded);
        assert_eq!(all, 122, "4 relays × 30 forwards + 2 injections");
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
        assert_eq!(total, Engine::events_executed(&sharded));
        assert_eq!(total, stats.events_executed);
        for m in &per_shard {
            assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
            assert_eq!(m.queue_len, 0, "drained shard still has events");
        }
    }
}
