//! The sequential engine: component registration and the one-shard run
//! of the generation loop (paper §III-A, Figure 1).
//!
//! This is the original `Simulator` (the name survives as a type alias).
//! It owns a single [`Shard`] holding every component and runs
//! `run_shard_rounds` — the loop every backend runs — over the solo
//! transport, whose fold returns the local queue head and whose exchange
//! only moves the generation's trace records into the ring. See the
//! [`engine`](crate::engine) module for the determinism contract shared
//! with the sharded backends, which are built *from* this engine
//! ([`SequentialEngine::into_sharded`], [`SequentialEngine::into_worker`]).

use std::fmt;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::{Engine, EngineMetrics, EngineOptions, RunStats, Stamped};
use crate::host::{HostRecorder, HostShardTimes};
use crate::protocol::{host_times, run_shard_rounds, run_stats, ProtocolParams, RunCursor, Shard};
use crate::rng::Rng;
use crate::snapshot::{load_engine, save_engine};
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::SoloTransport;

/// The single-threaded discrete event engine: one shard owning every
/// component and the global event queue, executed on the calling thread.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct SequentialEngine<E> {
    pub(crate) shard: Shard<E>,
    pub(crate) cursor: RunCursor,
    seed: u64,
    pub(crate) options: EngineOptions,
    /// The trace ring, when [`EngineOptions::trace`] is set.
    pub(crate) trace: Option<TraceBuffer>,
    /// Out-of-band host-time profiler; its epoch is this engine's
    /// creation and survives the conversion to a sharded backend.
    pub(crate) host: HostRecorder,
}

/// The historical name of the sequential engine. Existing models,
/// examples, and tests keep using `Simulator`; code that selects a
/// backend at run time uses the [`Engine`] trait instead.
pub type Simulator<E> = SequentialEngine<E>;

impl<E: 'static> SequentialEngine<E> {
    /// Creates an engine whose random streams are derived from `seed`,
    /// with every [`EngineOptions`] plane disarmed.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, EngineOptions::default())
    }

    /// Creates an engine whose random streams are derived from `seed`
    /// and which observes what `options` arm, for its whole life and
    /// that of any backend it is converted into.
    pub fn with_options(seed: u64, options: EngineOptions) -> Self {
        SequentialEngine {
            shard: Shard::new(Vec::new(), Vec::new()),
            cursor: RunCursor::default(),
            seed,
            trace: options.trace_ring(),
            host: HostRecorder::with_sample(options.host_sample),
            options,
        }
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the component count would exceed the 32-bit id space.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        let id = ComponentId::try_from_index(self.shard.components.len())
            .expect("component count exceeds the 32-bit id space");
        self.shard.rngs.push(Rng::stream(self.seed, id.0 as u64));
        self.shard.seqs.push(0);
        self.shard.components.push(Some(component));
        id
    }

    /// Number of registered components.
    pub fn num_components(&self) -> usize {
        self.shard.components.len()
    }

    /// Current simulation time (time of the most recent event).
    pub fn now(&self) -> Time {
        self.cursor.now
    }

    /// Enqueues an initial event from outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        let stamp = self.cursor.stamp_external(time);
        self.shard
            .queue
            .push(target, time, Stamped { stamp, payload });
    }

    /// Borrows a component by id.
    ///
    /// Returns `None` for an unknown id.
    pub fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.shard.component(id)
    }

    /// Downcasts a component to its concrete type for post-run inspection.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`SequentialEngine::component_as`].
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.shard
            .component_mut(id)
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Engine self-metrics accumulated since construction.
    pub fn metrics(&self) -> EngineMetrics {
        self.shard.metrics()
    }

    /// Runs until the event queue drains, a component stops or fails.
    pub fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    /// Runs until the queue drains, a component stops or fails, or the next
    /// event would execute at a tick strictly greater than `tick_limit`.
    ///
    /// The queue is drained in same-`(tick, epsilon)` generations ordered
    /// by [`EventStamp`](crate::EventStamp): every event in a generation
    /// is known to be ready, so the hot loop dispatches the whole slice
    /// without re-examining the queue between events. A generation always
    /// runs to its end — a `stop` or `fail` raised inside it takes effect
    /// after its last event, exactly as on the sharded backends.
    pub fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        let start = Instant::now();
        let start_events = self.shard.events_executed;
        let params = ProtocolParams {
            my_shard: 0,
            num_shards: 1,
            tick_limit,
            options: &self.options,
            start: self.cursor,
            shard_of: &[],
        };
        let mut transport = SoloTransport::new(self.trace.as_mut());
        let (outcome, end_now, end_progress) =
            run_shard_rounds(&mut self.shard, &params, &mut transport, &mut self.host)
                .expect("the solo transport is infallible");
        self.cursor.now = end_now;
        self.cursor.last_progress = end_progress;
        run_stats(
            std::slice::from_ref(&self.shard),
            start_events,
            start,
            end_now,
            outcome,
        )
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
        self.cursor.now
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.shard.component(id)
    }

    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        self.shard.component_mut(id)
    }

    fn shard_metrics(&self) -> Vec<EngineMetrics> {
        vec![self.shard.metrics()]
    }

    fn trace_records(&self) -> Option<Vec<TraceEvent>> {
        self.trace.as_ref().map(TraceBuffer::records)
    }

    fn host_times(&self) -> Vec<HostShardTimes> {
        host_times(std::slice::from_ref(&self.host))
    }

    fn save_state(&self, out: &mut Vec<u8>)
    where
        E: crate::wire::WireCodec,
    {
        save_engine(
            out,
            self.trace.as_ref(),
            &self.cursor,
            std::slice::from_ref(&self.shard),
        );
    }

    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let shards = std::slice::from_mut(&mut self.shard);
        load_engine(buf, self.trace.as_mut(), shards, &mut self.cursor)
    }
}

impl<E> fmt::Debug for SequentialEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SequentialEngine")
            .field("components", &self.shard.components.len())
            .field("pending_events", &self.shard.queue.len())
            .field("now", &self.cursor.now)
            .field("events_executed", &self.shard.events_executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Context, RunOutcome};
    use crate::trace::TraceSpec;
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
        // Three same-time events, the second of which stops the run: the
        // generation completes, later work stays pending.
        sim.schedule(a, Time::at(1), Ev::Ping(0));
        sim.schedule(a, Time::at(1), Ev::Stop);
        sim.schedule(a, Time::at(1), Ev::Ping(1));
        sim.schedule(a, Time::at(2), Ev::Ping(2));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        assert_eq!(stats.events_executed, 3);
        let m = sim.metrics();
        assert_eq!(m.events_executed, 3);
        assert_eq!(m.batches, 1);
        assert_eq!(m.batch_counts[2], 1, "the batch of 3 lands in bucket 2");
        assert_eq!(m.queue_len, 1, "the next generation stays pending");
        assert_eq!(sim.run().events_executed, 1, "resume runs it once");
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
        let spec = TraceSpec {
            kinds: 0b01, // kind 0 only
            ..TraceSpec::default()
        };
        let mut sim = Simulator::with_options(
            0,
            EngineOptions {
                trace: Some((spec, 16)),
                ..EngineOptions::default()
            },
        );
        let a = sim.add_component(Box::new(TracerComp));
        sim.schedule(a, Time::at(1), Ev::Ping(7));
        sim.schedule(a, Time::at(2), Ev::Ping(8));
        sim.run();
        let recs = Engine::trace_records(&sim).expect("tracing armed");
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

    /// An engine armed with a no-progress watchdog of `window` ticks.
    fn watched(window: Tick) -> Simulator<Ev> {
        Simulator::with_options(
            0,
            EngineOptions {
                watchdog: window,
                ..EngineOptions::default()
            },
        )
    }

    #[test]
    fn watchdog_trips_on_unproductive_churn() {
        let mut sim = watched(20);
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 1000,
            productive: false,
        }));
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
        let mut sim = watched(20);
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 50,
            productive: true,
        }));
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
        let mut sim = watched(30);
        let a = sim.add_component(Box::new(Stepper {
            step: 100,
            count: 5,
            productive: false,
        }));
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
        assert_eq!(engine.shard_metrics()[0].events_executed, 6);
        let echo = engine
            .as_ref()
            .component_as::<Echo>(a)
            .expect("downcast through dyn Engine");
        assert_eq!(echo.received, vec![0, 2, 4]);
    }
}
