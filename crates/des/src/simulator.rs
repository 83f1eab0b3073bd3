//! The sequential engine: component storage, calendar-queue executor, and
//! run statistics (paper §III-A, Figure 1).
//!
//! This is the original `Simulator` (the name survives as a type alias),
//! now one of two [`Engine`](crate::Engine) backends. It executes the
//! whole simulation on the calling thread, draining same-`(tick,
//! epsilon)` *generations* in canonical stamp order — see the
//! [`engine`](crate::engine) module for the determinism contract shared
//! with the sharded backend.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::{
    flush_trace, log2_bucket, next_edge_after, take_generation, Context, Engine, EngineMetrics,
    EventStamp, RunOutcome, RunStats, SinkRef, Stamped, TaggedTrace, TraceSink, BATCH_BUCKETS,
    EXTERNAL_SRC,
};
use crate::event::{EventQueue, Generation};
use crate::host::{HostRecorder, HostRoundSlice, HostShardTimes, ProgressShared};
use crate::rng::Rng;
use crate::snapshot::{load_shard, save_shard, ShardScalars};
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent, TraceSpec};
use crate::wire;

/// Trace collection state: the spec plus the ring it fills.
#[derive(Debug)]
pub(crate) struct TraceState {
    pub(crate) spec: TraceSpec,
    pub(crate) buffer: TraceBuffer,
}

/// The single-threaded discrete event engine: owns the components, the
/// global event queue, and the executor loop.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct SequentialEngine<E> {
    pub(crate) components: Vec<Option<Box<dyn Component<E>>>>,
    /// Per-component random streams, derived from `(seed, index)`.
    pub(crate) rngs: Vec<Rng>,
    /// Per-component send counters (event stamp sources).
    pub(crate) seqs: Vec<u64>,
    pub(crate) queue: EventQueue<Stamped<E>>,
    /// Scratch buffer for generation draining, reused across `run` calls.
    batch: Generation<Stamped<E>>,
    /// Scratch buffer for per-generation trace records.
    trace_scratch: Vec<TaggedTrace>,
    pub(crate) now: Time,
    pub(crate) seed: u64,
    /// Send counter for external ([`SequentialEngine::schedule`]) events.
    pub(crate) ext_seq: u64,
    pub(crate) trace: Option<TraceState>,
    /// No-progress watchdog window in ticks; 0 = disarmed.
    pub(crate) watchdog: Tick,
    /// Sampling window width in ticks; 0 = disarmed.
    pub(crate) sample_interval: Tick,
    /// Tick of the last [`Context::progress`] report.
    pub(crate) last_progress: Tick,
    events_executed: u64,
    batches: u64,
    batch_counts: [u64; BATCH_BUCKETS],
    /// Out-of-band host-time profiler (disabled by default).
    host: HostRecorder,
    /// Out-of-band live-progress board, written after each batch.
    progress_board: Option<Arc<ProgressShared>>,
}

/// The historical name of the sequential engine. Existing models,
/// examples, and tests keep using `Simulator`; code that selects a
/// backend at run time uses the [`Engine`] trait instead.
pub type Simulator<E> = SequentialEngine<E>;

impl<E: 'static> SequentialEngine<E> {
    /// Creates an engine whose random streams are derived from `seed`.
    pub fn new(seed: u64) -> Self {
        SequentialEngine {
            components: Vec::new(),
            rngs: Vec::new(),
            seqs: Vec::new(),
            queue: EventQueue::new(),
            batch: Generation::new(),
            trace_scratch: Vec::new(),
            now: Time::ZERO,
            seed,
            ext_seq: 0,
            trace: None,
            watchdog: 0,
            sample_interval: 0,
            last_progress: 0,
            events_executed: 0,
            batches: 0,
            batch_counts: [0; BATCH_BUCKETS],
            host: HostRecorder::new(),
            progress_board: None,
        }
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the component count would exceed the 32-bit id space.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        let id = ComponentId::try_from_index(self.components.len())
            .expect("component count exceeds the 32-bit id space");
        self.rngs.push(Rng::stream(self.seed, id.0 as u64));
        self.seqs.push(0);
        self.components.push(Some(component));
        id
    }

    /// Number of registered components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Current simulation time (time of the most recent event).
    pub fn now(&self) -> Time {
        self.now
    }

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
        self.queue.push(target, time, Stamped { stamp, payload });
    }

    /// Borrows a component by id.
    ///
    /// Returns `None` for an unknown id.
    pub fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.components.get(id.index()).and_then(|c| c.as_deref())
    }

    /// Downcasts a component to its concrete type for post-run inspection.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`SequentialEngine::component_as`].
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components
            .get_mut(id.index())
            .and_then(|c| c.as_deref_mut())
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Arms the no-progress watchdog (see [`Engine::set_watchdog`]).
    pub fn set_watchdog(&mut self, window: Tick) {
        self.watchdog = window;
    }

    /// Arms the windowed sampler (see [`Engine::set_sampler`]).
    pub fn set_sampler(&mut self, interval: Tick) {
        self.sample_interval = interval;
    }

    /// Enables trace collection (see [`Engine::set_trace`]).
    pub fn set_trace(&mut self, spec: TraceSpec, capacity: usize) {
        self.trace = Some(TraceState {
            spec,
            buffer: TraceBuffer::with_capacity(capacity),
        });
    }

    /// Folds one finished (or aborted) batch into the engine counters.
    #[inline]
    fn record_batch(&mut self, done: u64) {
        if done == 0 {
            return;
        }
        self.events_executed += done;
        self.batches += 1;
        self.batch_counts[log2_bucket(done)] += 1;
    }

    /// Engine self-metrics accumulated since construction.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            events_executed: self.events_executed,
            batches: self.batches,
            batch_counts: self.batch_counts,
            queue_len: self.queue.len(),
            queue_high_water: self.queue.high_water_mark(),
            total_enqueued: self.queue.total_enqueued(),
            horizon: self.queue.horizon(),
            horizon_resizes: self.queue.horizon_resizes(),
            overflow_spills: self.queue.overflow_spills(),
            overflow_len: self.queue.overflow_len(),
        }
    }

    /// Runs until the event queue drains, a component stops or fails.
    pub fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    /// Runs until the queue drains, a component stops or fails, or the next
    /// event would execute at a tick strictly greater than `tick_limit`.
    ///
    /// The executor drains the queue in same-`(tick, epsilon)` generations
    /// ordered by [`EventStamp`]: every event in a generation is known to be
    /// ready, so the hot loop dispatches the whole slice without
    /// re-examining the queue between events. If a component stops or fails
    /// mid-generation, the unexecuted remainder is requeued ahead of
    /// anything scheduled during the generation, so resuming the run
    /// observes the exact canonical order.
    pub fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        let start = Instant::now();
        let start_events = self.events_executed;
        let mut stop_requested = false;
        let mut failure: Option<String> = None;
        let mut progress = false;
        let mut batch = std::mem::take(&mut self.batch);
        let mut scratch = std::mem::take(&mut self.trace_scratch);
        let trace_spec = self.trace.as_ref().map(|t| t.spec);
        // The next window edge is a pure function of (now, interval), so a
        // paused-and-resumed run samples exactly the edges a continuous run
        // would: every edge up to `now` was crossed before `now` advanced.
        let mut next_edge = (self.sample_interval > 0)
            .then(|| next_edge_after(self.now.tick(), self.sample_interval));
        let outcome = 'run: loop {
            // No-progress watchdog: trips when the next runnable event
            // lies more than `watchdog` ticks past the last progress
            // report. Checked before the batch is taken, so the pending
            // queue survives intact for diagnostics.
            if self.watchdog > 0 {
                if let Some(next) = self.queue.peek_time() {
                    if next.tick() <= tick_limit
                        && next.tick().saturating_sub(self.last_progress) > self.watchdog
                    {
                        break RunOutcome::Watchdog {
                            last_progress: self.last_progress,
                        };
                    }
                }
            }
            // Host-time probes are strictly out-of-band: wall clocks are
            // read around phases but never influence which events run or
            // in what order, so profiling cannot perturb determinism.
            let profiling = self.host.enabled();
            let t_drain = profiling.then(Instant::now);
            // Canonical generation order (see the engine module docs):
            // unique stamps make this a deterministic total order.
            let took = take_generation(&mut self.queue, tick_limit, &mut batch);
            if let Some(t0) = t_drain {
                self.host.times.drain_ns += t0.elapsed().as_nanos() as u64;
            }
            let Some(next_time) = took else {
                break if self.queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::TickLimit
                };
            };
            debug_assert!(next_time >= self.now, "event queue went backwards");
            // Window edges crossed by this generation close before any of
            // its events run: everything below the edge has executed,
            // nothing at or past it has (see `Engine::set_sampler`).
            if next_edge.is_some_and(|e| e <= next_time.tick()) {
                let t_edge = profiling.then(Instant::now);
                while let Some(edge) = next_edge.filter(|&e| e <= next_time.tick()) {
                    for slot in self.components.iter_mut() {
                        if let Some(c) = slot.as_deref_mut() {
                            c.sample(edge);
                        }
                    }
                    next_edge = edge.checked_add(self.sample_interval);
                }
                if let Some(t0) = t_edge {
                    self.host.times.sample_edge_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            self.now = next_time;

            // Engine stats update once per generation, not per event:
            // `done` counts executed events in a register and folds into
            // the engine's counters when the generation ends (normally or
            // via an abort path), keeping the per-event loop free of stats
            // writes.
            let mut done = 0u64;
            // One batch in `sample` additionally gets per-event
            // component-class attribution.
            let sampled = profiling && self.host.batch_sampled();
            let exec_start_ns = profiling.then(|| self.host.now_ns());
            let t_exec = profiling.then(Instant::now);
            scratch.clear();
            while let Some(entry) = batch.next() {
                let idx = entry.target.index();
                let slot = match self.components.get_mut(idx) {
                    Some(slot) => slot,
                    None => {
                        let target = entry.target;
                        self.record_batch(done + 1);
                        self.queue.requeue_front(&mut batch);
                        break 'run RunOutcome::Failed(format!(
                            "event targeted unregistered {target}"
                        ));
                    }
                };
                let mut component = slot.take().expect("component re-entered while active");
                let mut ctx = Context {
                    now: self.now,
                    self_id: entry.target,
                    sink: SinkRef::Local(&mut self.queue),
                    seq: &mut self.seqs[idx],
                    rng: &mut self.rngs[idx],
                    stop_requested: &mut stop_requested,
                    failure: &mut failure,
                    progress: &mut progress,
                    trace: trace_spec.map(|spec| TraceSink {
                        spec,
                        stamp: entry.payload.stamp,
                        recno: 0,
                        out: &mut scratch,
                    }),
                };
                if sampled {
                    let t_ev = Instant::now();
                    component.handle(&mut ctx, entry.payload.payload);
                    let ev_ns = t_ev.elapsed().as_nanos() as u64;
                    let class = component.host_class();
                    self.components[idx] = Some(component);
                    self.host.times.add_class(class, ev_ns, 1);
                    self.host.times.sampled_events += 1;
                } else {
                    component.handle(&mut ctx, entry.payload.payload);
                    self.components[idx] = Some(component);
                }
                done += 1;

                if let Some(msg) = failure.take() {
                    self.record_batch(done);
                    self.queue.requeue_front(&mut batch);
                    break 'run RunOutcome::Failed(msg);
                }
                if stop_requested {
                    self.record_batch(done);
                    self.queue.requeue_front(&mut batch);
                    break 'run RunOutcome::Stopped;
                }
            }
            self.record_batch(done);
            if let Some(t0) = t_exec {
                let exec_ns = t0.elapsed().as_nanos() as u64;
                self.host.times.execute_ns += exec_ns;
                if sampled {
                    self.host.times.push_slice(HostRoundSlice {
                        start_ns: exec_start_ns.unwrap_or(0),
                        tick: self.now.tick(),
                        events: done,
                        execute_ns: exec_ns,
                        fold_ns: 0,
                        exchange_ns: 0,
                    });
                }
            }
            if let Some(board) = &self.progress_board {
                board.record_events(0, self.events_executed);
                board.record_tick(self.now.tick());
                board.add_round();
            }
            if progress {
                self.last_progress = self.now.tick();
                progress = false;
            }
            if let Some(t) = &mut self.trace {
                flush_trace(&mut t.buffer, &mut scratch);
            }
        };
        // Records made by events that did execute survive an abort.
        if let Some(t) = &mut self.trace {
            flush_trace(&mut t.buffer, &mut scratch);
        }
        self.batch = batch;
        self.trace_scratch = scratch;
        RunStats {
            events_executed: self.events_executed - start_events,
            end_time: self.now,
            queue_high_water: self.queue.high_water_mark(),
            total_enqueued: self.queue.total_enqueued(),
            wall: start.elapsed(),
            outcome,
        }
    }
}

impl<E: 'static> Engine<E> for SequentialEngine<E> {
    fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        SequentialEngine::schedule(self, target, time, payload);
    }

    fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        SequentialEngine::run_until(self, tick_limit)
    }

    fn now(&self) -> Time {
        self.now
    }

    fn num_components(&self) -> usize {
        self.components.len()
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        SequentialEngine::component(self, id)
    }

    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        self.components
            .get_mut(id.index())
            .and_then(|c| c.as_deref_mut())
    }

    fn shard_metrics(&self) -> Vec<EngineMetrics> {
        vec![self.metrics()]
    }

    fn events_executed(&self) -> u64 {
        self.events_executed
    }

    fn total_enqueued(&self) -> u64 {
        self.queue.total_enqueued()
    }

    fn set_watchdog(&mut self, window: Tick) {
        SequentialEngine::set_watchdog(self, window);
    }

    fn set_sampler(&mut self, interval: Tick) {
        SequentialEngine::set_sampler(self, interval);
    }

    fn set_trace(&mut self, spec: TraceSpec, capacity: usize) {
        SequentialEngine::set_trace(self, spec, capacity);
    }

    fn set_host_profiling(&mut self, sample: u32) {
        self.host.set_sample(sample);
        self.host.reset_epoch();
    }

    fn host_times(&self) -> Vec<HostShardTimes> {
        if self.host.enabled() {
            vec![self.host.times.clone()]
        } else {
            Vec::new()
        }
    }

    fn set_progress(&mut self, progress: Arc<ProgressShared>) {
        self.progress_board = Some(progress);
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

    fn save_state(&self, out: &mut Vec<u8>) -> bool
    where
        E: crate::wire::WireCodec,
    {
        crate::snapshot::put_trace(out, self.trace.as_ref().map(|t| &t.buffer));
        out.push(1); // one shard
        let scalars = ShardScalars {
            now: self.now,
            ext_seq: self.ext_seq,
            last_progress: self.last_progress,
            events_executed: self.events_executed,
            batches: self.batches,
            batch_counts: self.batch_counts,
        };
        wire::put_section(out, |o| {
            save_shard(
                o,
                &scalars,
                &self.queue,
                &self.components,
                &self.rngs,
                &self.seqs,
            )
        });
        true
    }

    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let mut inner = || -> Option<()> {
            crate::snapshot::get_trace(buf, self.trace.as_mut().map(|t| &mut t.buffer))?;
            if wire::get_len(buf)? != 1 {
                return None; // shard-count mismatch: not a sequential state
            }
            let s = wire::get_section(buf, |b| {
                load_shard(
                    b,
                    &mut self.queue,
                    &mut self.components,
                    &mut self.rngs,
                    &mut self.seqs,
                )
            })?;
            self.now = s.now;
            self.ext_seq = s.ext_seq;
            self.last_progress = s.last_progress;
            self.events_executed = s.events_executed;
            self.batches = s.batches;
            self.batch_counts = s.batch_counts;
            Some(())
        };
        inner().is_some()
    }
}

impl<E> fmt::Debug for SequentialEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SequentialEngine")
            .field("components", &self.components.len())
            .field("pending_events", &self.queue.len())
            .field("now", &self.now)
            .field("events_executed", &self.events_executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
        Fail,
    }

    struct Echo {
        peer: Option<ComponentId>,
        received: Vec<u32>,
        limit: u32,
    }

    impl Component<Ev> for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.received.push(n);
                    if n < self.limit {
                        if let Some(peer) = self.peer {
                            ctx.schedule(peer, ctx.now().plus_ticks(2), Ev::Ping(n + 1));
                        }
                    }
                }
                Ev::Stop => ctx.stop(),
                Ev::Fail => ctx.fail("synthetic failure"),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn echo_pair(limit: u32) -> (Simulator<Ev>, ComponentId, ComponentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_component(Box::new(Echo {
            peer: None,
            received: vec![],
            limit,
        }));
        let b = sim.add_component(Box::new(Echo {
            peer: Some(a),
            received: vec![],
            limit,
        }));
        sim.component_as_mut::<Echo>(a).unwrap().peer = Some(b);
        (sim, a, b)
    }

    #[test]
    fn ping_pong_until_drained() {
        let (mut sim, a, b) = echo_pair(5);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(stats.events_executed, 6);
        assert_eq!(sim.component_as::<Echo>(a).unwrap().received, vec![0, 2, 4]);
        assert_eq!(sim.component_as::<Echo>(b).unwrap().received, vec![1, 3, 5]);
        assert_eq!(sim.now(), Time::at(10));
    }

    #[test]
    fn stop_leaves_queue_pending() {
        let (mut sim, a, _) = echo_pair(100);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        sim.schedule(a, Time::at(3), Ev::Stop);
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        // The in-flight ping to the peer is still pending.
        let resumed = sim.run();
        assert_eq!(resumed.outcome, RunOutcome::Drained);
    }

    #[test]
    fn failure_is_surfaced() {
        let (mut sim, a, _) = echo_pair(1);
        sim.schedule(a, Time::at(0), Ev::Fail);
        let stats = sim.run();
        assert_eq!(
            stats.outcome,
            RunOutcome::Failed("synthetic failure".into())
        );
    }

    #[test]
    fn tick_limit_pauses_and_resumes() {
        let (mut sim, a, b) = echo_pair(50);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run_until(10);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
        assert!(sim.now().tick() <= 10);
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let total = sim.component_as::<Echo>(a).unwrap().received.len()
            + sim.component_as::<Echo>(b).unwrap().received.len();
        assert_eq!(total, 51);
    }

    #[test]
    fn unknown_target_fails() {
        let mut sim: Simulator<Ev> = Simulator::new(0);
        sim.schedule(ComponentId::from_index(9), Time::at(0), Ev::Stop);
        let stats = sim.run();
        assert!(matches!(stats.outcome, RunOutcome::Failed(_)));
    }

    /// A component that records one draw from its private stream.
    struct Drawer {
        drawn: Vec<u64>,
    }

    impl Component<Ev> for Drawer {
        fn name(&self) -> &str {
            "drawer"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, _event: Ev) {
            let v = ctx.rng().gen_u64();
            self.drawn.push(v);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn per_component_rng_streams_are_deterministic() {
        let run = |seed: u64| {
            let mut sim = Simulator::<Ev>::new(seed);
            let a = sim.add_component(Box::new(Drawer { drawn: vec![] }));
            let b = sim.add_component(Box::new(Drawer { drawn: vec![] }));
            // b runs before a: execution order must not affect streams.
            sim.schedule(b, Time::at(0), Ev::Ping(0));
            sim.schedule(a, Time::at(1), Ev::Ping(0));
            sim.run();
            (
                sim.component_as::<Drawer>(a).unwrap().drawn.clone(),
                sim.component_as::<Drawer>(b).unwrap().drawn.clone(),
            )
        };
        let (a1, b1) = run(42);
        let (a2, b2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1, "components must own unrelated streams");
        // The stream is a pure function of (seed, index), matching
        // Rng::stream directly.
        assert_eq!(a1[0], Rng::stream(42, 0).gen_u64());
        assert_eq!(b1[0], Rng::stream(42, 1).gen_u64());
        let (a3, _) = run(43);
        assert_ne!(a1, a3, "stream ignored the seed");
    }

    #[test]
    fn batch_metrics_account_every_event_once() {
        let (mut sim, a, _) = echo_pair(9);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let m = sim.metrics();
        assert_eq!(m.events_executed, stats.events_executed);
        assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
        // Ping-pong runs one event per (tick, epsilon): all batches size 1.
        assert_eq!(m.batches, m.events_executed);
        assert_eq!(m.batch_counts[1], m.batches, "size-1 batches fill bucket 1");
        assert_eq!(m.total_enqueued, stats.total_enqueued);
        assert_eq!(m.queue_len, 0);
    }

    #[test]
    fn aborted_batch_still_counts_executed_events() {
        let mut sim = Simulator::new(7);
        let a = sim.add_component(Box::new(Echo {
            peer: None,
            received: vec![],
            limit: 0,
        }));
        // Three same-time events; the second stops the run mid-batch.
        sim.schedule(a, Time::at(1), Ev::Ping(0));
        sim.schedule(a, Time::at(1), Ev::Stop);
        sim.schedule(a, Time::at(1), Ev::Ping(1));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        assert_eq!(stats.events_executed, 2);
        let m = sim.metrics();
        assert_eq!(m.events_executed, 2);
        assert_eq!(m.batches, 1);
        assert_eq!(m.batch_counts[2], 1, "partial batch of 2 lands in bucket 2");
        assert_eq!(m.queue_len, 1, "unexecuted remainder stays pending");
    }

    #[test]
    fn stats_report_throughput() {
        let (mut sim, a, _) = echo_pair(3);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert!(stats.events_per_second() >= 0.0);
        assert_eq!(stats.total_enqueued, 4);
        assert!(stats.queue_high_water >= 1);
    }

    /// A component that traces every event it handles.
    struct TracerComp;

    impl Component<Ev> for TracerComp {
        fn name(&self) -> &str {
            "tracer"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            if let Ev::Ping(n) = event {
                ctx.trace(0, ctx.self_id().index() as u32, n as u64, 0);
                ctx.trace(1, ctx.self_id().index() as u32, n as u64, 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_trace_collects_through_spec() {
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(TracerComp));
        sim.set_trace(
            TraceSpec {
                kinds: 0b01, // kind 0 only
                ..TraceSpec::default()
            },
            16,
        );
        sim.schedule(a, Time::at(1), Ev::Ping(7));
        sim.schedule(a, Time::at(2), Ev::Ping(8));
        sim.run();
        let recs = Engine::trace_records(&sim);
        assert_eq!(recs.len(), 2, "kind-1 records filtered out");
        assert_eq!(recs[0].id, 7);
        assert_eq!(recs[1].id, 8);
        assert_eq!(recs[0].kind, 0);
        assert_eq!(recs[0].time, Time::at(1));
    }

    /// Self-schedules every `step` ticks for `count` rounds, reporting
    /// progress only when `productive`.
    struct Stepper {
        step: Tick,
        count: u32,
        productive: bool,
    }

    impl Component<Ev> for Stepper {
        fn name(&self) -> &str {
            "stepper"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, _event: Ev) {
            if self.productive {
                ctx.progress();
            }
            if self.count > 0 {
                self.count -= 1;
                ctx.schedule_self(ctx.now().plus_ticks(self.step), Ev::Ping(0));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn watchdog_trips_on_unproductive_churn() {
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 1000,
            productive: false,
        }));
        sim.set_watchdog(20);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Watchdog { last_progress: 0 });
        assert!(!stats.outcome.is_ok());
        // The pending queue survives for diagnostics.
        assert!(sim.metrics().queue_len > 0);
        // The trip is prompt: the first event past the window breaks.
        assert!(sim.now().tick() <= 25);
    }

    #[test]
    fn watchdog_resets_on_progress() {
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 50,
            productive: true,
        }));
        sim.set_watchdog(20);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
    }

    #[test]
    fn disarmed_watchdog_never_fires() {
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(Stepper {
            step: 50,
            count: 10,
            productive: false,
        }));
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        assert_eq!(sim.run().outcome, RunOutcome::Drained);
    }

    #[test]
    fn watchdog_defers_to_tick_limit() {
        // Events beyond the tick limit must not trip the watchdog: the
        // run pauses as TickLimit exactly as without one.
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(Stepper {
            step: 100,
            count: 5,
            productive: false,
        }));
        sim.set_watchdog(30);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run_until(50);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
    }

    #[test]
    fn engine_trait_object_runs_and_downcasts() {
        let (sim, a, _) = echo_pair(5);
        let mut engine: Box<dyn Engine<Ev>> = Box::new(sim);
        engine.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = engine.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(engine.num_shards(), 1);
        assert_eq!(engine.events_executed(), 6);
        let echo = engine
            .as_ref()
            .component_as::<Echo>(a)
            .expect("downcast through dyn Engine");
        assert_eq!(echo.received, vec![0, 2, 4]);
    }
}
