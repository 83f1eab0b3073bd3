//! The one engine type: component registration, the layout of an
//! N-shard simulation, and the generation loop (paper §III-A, Figure 1)
//! run over the transport that layout implies — see [`Simulator`]. The
//! loop (`run_shard_rounds`) synchronizes once per round, at the
//! exchange, and is compiled once per transport, so the one-shard hot
//! path pays nothing for the others. The
//! [`engine`](crate::engine) module states the determinism contract every
//! layout keeps.

use std::fmt;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::{EngineMetrics, EngineOptions, RunOutcome, RunStats, Stamped};
use crate::host::{HostClock, HostRecorder, HostShardTimes};
use crate::protocol::{run_shard_rounds, ProtocolParams, RunCursor, Shard, Slot};
use crate::rng::Rng;
use crate::snapshot::{get_trace, load_shard, load_shards, save_engine, save_shard, skip_trace};
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::{run_threads, SoloTransport};
#[cfg(unix)]
use crate::transport::{ProcessTransport, TransportError, WorkerLink};
use crate::wire::{Overlay, WireCodec};

/// A discrete-event simulation, or this process's part of one: the
/// shards it executes out of an N-shard layout, the run cursor they
/// share, and what the run observes.
///
/// Components are registered on a fresh simulator — a single shard
/// holding everything — which may then be split:
/// [`Simulator::into_sharded`] keeps every shard in this process,
/// [`Simulator::into_worker`] keeps one of them and a link to the fleet's
/// hub. [`Simulator::run_until`] picks the transport from that layout,
/// never from a setting:
///
/// | layout | transport |
/// |---|---|
/// | one local shard | solo: exchange = flush the round's trace records, fold = the local head |
/// | several local shards | threads: one scoped thread per shard, one spin barrier per round |
/// | a worker link | process: the Unix socket to the parent [`Hub`](crate::Hub), one frame each way per round |
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulator<E> {
    /// The shards this process executes, in shard order.
    shards: Vec<Shard<E>>,
    /// Component index → owning shard; empty until the layout is split.
    /// An index it does not cover belongs to shard 0.
    shard_of: Vec<u32>,
    /// The layout index of `shards[0]`: 0 unless this is a fleet worker.
    first_shard: u32,
    /// Shards in the whole layout.
    num_shards: usize,
    cursor: RunCursor,
    seed: u64,
    options: EngineOptions,
    /// The trace ring, when [`EngineOptions::trace`] is set and this
    /// process merges the records (a worker's ring lives in the hub).
    trace: Option<TraceBuffer>,
    /// The epoch of every host-time reading: started with the simulator
    /// and shared by all its recorders.
    clock: HostClock,
    /// One host-time recorder per local shard, for the life of the
    /// simulator, so every `run_until` segment lands on one timeline.
    hosts: Vec<HostRecorder>,
    #[cfg(unix)]
    worker: Option<Worker<E>>,
}

/// A fleet worker's link to its hub.
#[cfg(unix)]
struct Worker<E> {
    link: WorkerLink,
    /// `run_shard_rounds` over the process transport, compiled by
    /// `into_worker`, where the event codec it needs is known to exist.
    rounds: ProcessRounds<E>,
}

#[cfg(unix)]
type ProcessRounds<E> = fn(
    &mut Shard<E>,
    &ProtocolParams<'_>,
    &mut ProcessTransport,
    &mut HostRecorder,
) -> Result<(RunOutcome, Time, Tick), TransportError>;

impl<E: 'static> Simulator<E> {
    /// Creates a simulator whose random streams are derived from `seed`,
    /// with every [`EngineOptions`] plane disarmed.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, EngineOptions::default())
    }

    /// Creates a simulator whose random streams are derived from `seed`
    /// and which observes what `options` arm, for its whole life and
    /// whichever layout it is split into.
    pub fn with_options(seed: u64, options: EngineOptions) -> Self {
        let clock = HostClock::new();
        Simulator {
            shards: vec![Shard::new()],
            shard_of: Vec::new(),
            first_shard: 0,
            num_shards: 1,
            cursor: RunCursor::default(),
            seed,
            trace: options.trace_ring(),
            hosts: vec![HostRecorder::new(clock.clone(), options.host_sample)],
            clock,
            options,
            #[cfg(unix)]
            worker: None,
        }
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the layout is already split into several shards, or if
    /// the component count would exceed the 32-bit id space.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        assert_eq!(self.num_shards, 1, "the layout is already split");
        let shard = &mut self.shards[0];
        let id = ComponentId::try_from_index(shard.slots.len())
            .expect("component count exceeds the 32-bit id space");
        shard.slots.push(Slot {
            component: Some(component),
            rng: Rng::stream(self.seed, id.0 as u64),
            seq: 0,
        });
        id
    }

    /// Splits this fully built simulation into `num_shards` shards run by
    /// this process, assigning each component `c` to shard `shard_of[c]`.
    /// Pending events move to their target's shard; simulation time,
    /// options, trace state, and per-component random streams are
    /// preserved, so a run may even be split at a pause.
    ///
    /// # Panics
    ///
    /// Panics if the layout is already split, `num_shards` is zero,
    /// `shard_of` is not exactly one entry per registered component, or
    /// any entry is out of range.
    pub fn into_sharded(mut self, num_shards: usize, shard_of: Vec<u32>) -> Self {
        assert_eq!(self.num_shards, 1, "the layout is already split");
        let whole = self.shards.pop().expect("an unsplit layout is one shard");
        self.shards = whole.split(num_shards, &shard_of);
        // Shard 0 keeps the recorder made with the simulator; the others
        // start theirs here, once, for the life of the layout, on the
        // simulator's clock.
        let (clock, sample) = (&self.clock, self.options.host_sample);
        self.hosts
            .resize_with(num_shards, || HostRecorder::new(clock.clone(), sample));
        self.shard_of = shard_of;
        self.num_shards = num_shards;
        self
    }

    /// Splits this fully built simulation like [`Simulator::into_sharded`]
    /// and keeps only shard `my_shard`, run as one worker process of a
    /// fleet that synchronizes through `link`.
    ///
    /// Every worker must build the *identical* simulation — same
    /// configuration, same seed, every component registered and every
    /// initial event scheduled — so the events of the other shards, which
    /// are dropped here, exist identically stamped in their owners'
    /// queues. Each owned component keeps its stream and send counter, so
    /// stamps and draws line up bit for bit with the other layouts.
    ///
    /// A worker keeps no trace ring and publishes no progress: its
    /// records and event counts ship to the hub every round. It reports
    /// only its own shard, and its [`Overlay::save`] writes that
    /// shard's blob alone — what the worker ships to the hub at every
    /// checkpoint ([`WorkerLink::checkpoint`]) and at the end of the run
    /// ([`WorkerLink::finish`]).
    ///
    /// # Panics
    ///
    /// As [`Simulator::into_sharded`], and if `my_shard` is out of range.
    #[cfg(unix)]
    pub fn into_worker(
        self,
        my_shard: u32,
        num_shards: usize,
        shard_of: Vec<u32>,
        link: WorkerLink,
    ) -> Self
    where
        E: WireCodec,
    {
        assert!(
            (my_shard as usize) < num_shards,
            "worker index out of range"
        );
        let mut sim = self.into_sharded(num_shards, shard_of);
        let mine = sim.shards.swap_remove(my_shard as usize);
        sim.shards = vec![mine];
        sim.hosts.truncate(1);
        sim.first_shard = my_shard;
        sim.trace = None;
        sim.options.progress = None;
        sim.worker = Some(Worker {
            link,
            rounds: run_shard_rounds::<E, ProcessTransport>,
        });
        sim
    }

    /// Number of registered components.
    pub fn num_components(&self) -> usize {
        self.shards[0].slots.len()
    }

    /// Number of shards in the whole layout (1 until it is split).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// What this simulation observes, as given at creation (a worker's
    /// without the progress board).
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Current simulation time (time of the most recent generation).
    pub fn now(&self) -> Time {
        self.cursor.now
    }

    /// The local shard owning component `id`, by the one owner rule: an
    /// id the shard map does not cover belongs to shard 0.
    fn local_shard(&self, id: ComponentId) -> Option<usize> {
        let owner = self.shard_of.get(id.index()).copied().unwrap_or(0);
        let local = owner.checked_sub(self.first_shard)? as usize;
        (local < self.shards.len()).then_some(local)
    }

    /// Enqueues an initial event from outside any component, on its
    /// target's owning shard. Every worker of a fleet makes the same
    /// calls, so every one advances the external stamp counter, and only
    /// the owner enqueues. An unregistered target belongs to shard 0,
    /// which fails the run when the event comes due.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        let stamp = self.cursor.stamp_external(time);
        if let Some(s) = self.local_shard(target) {
            self.shards[s]
                .queue
                .push(target, time, Stamped { stamp, payload });
        }
    }

    /// Borrows a component by id. `None` for an unknown id, or one
    /// another process runs.
    pub fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.shards[self.local_shard(id)?].component(id)
    }

    /// Mutably borrows a component by id. `None` for an unknown id, or
    /// one another process runs.
    pub fn component_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        let s = self.local_shard(id)?;
        self.shards[s].component_mut(id)
    }

    /// Downcasts a component to its concrete type for post-run inspection.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`Simulator::component_as`].
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.component_mut(id)
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Self-metrics of the shards this process runs, in shard order.
    /// Lifetime totals are their sums.
    pub fn shard_metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(Shard::metrics).collect()
    }

    /// Moves the collected trace records out in canonical order, leaving
    /// tracing disarmed; `None` when it was disarmed, or when this process
    /// is a fleet worker. The ring's storage becomes the result.
    pub fn take_trace_records(&mut self) -> Option<Vec<TraceEvent>> {
        self.trace.take().map(TraceBuffer::into_records)
    }

    /// The clock the host-time records read, started when the simulator
    /// was created. A caller times its own work around the run on it
    /// (checkpoint writes, say) to put that work on the same timeline as
    /// every shard's rounds.
    pub fn host_clock(&self) -> &HostClock {
        &self.clock
    }

    /// The host-time records collected so far, one per local shard in
    /// shard order. Empty when profiling is disarmed.
    pub fn host_times(&self) -> Vec<HostShardTimes> {
        self.hosts
            .iter()
            .filter(|h| h.enabled())
            .map(|h| h.times.clone())
            .collect()
    }

    /// Runs until the event queues drain, a component stops or fails.
    pub fn run(&mut self) -> RunStats
    where
        E: Send,
    {
        self.run_until(Tick::MAX)
    }

    /// Runs until the queues drain, a component stops or fails, or the
    /// next generation would execute at a tick strictly greater than
    /// `tick_limit`, over the transport the layout implies (see
    /// [`Simulator`]).
    ///
    /// Each generation — every event at the earliest pending
    /// `(tick, epsilon)` — is dispatched as one batch in
    /// [`EventStamp`](crate::EventStamp) order. A generation always runs
    /// to its end: a `stop` or `fail` raised inside it takes effect after
    /// its last event. A fleet worker whose transport fails (a dead peer,
    /// or the hub's abort) ends with [`RunOutcome::Failed`] and its
    /// clock where the call began.
    pub fn run_until(&mut self, tick_limit: Tick) -> RunStats
    where
        E: Send,
    {
        let start = Instant::now();
        let start_events = self.events_executed();
        let params = ProtocolParams {
            my_shard: self.first_shard,
            num_shards: self.num_shards,
            tick_limit,
            options: &self.options,
            start: self.cursor,
            shard_of: &self.shard_of,
        };
        let trace = self.trace.as_mut();
        let result = match (self.shards.as_mut_slice(), self.hosts.as_mut_slice()) {
            #[cfg(unix)]
            ([shard], [host]) if self.worker.is_some() => {
                let worker = self.worker.as_ref().expect("matched a worker");
                (worker.rounds)(shard, &params, &mut worker.link.transport(), host)
            }
            ([shard], [host]) => {
                run_shard_rounds(shard, &params, &mut SoloTransport::new(trace), host)
            }
            (shards, hosts) => Ok(run_threads(shards, hosts, trace, &params)),
        };
        let outcome = match result {
            Ok((outcome, now, progress)) => {
                self.cursor.now = now;
                self.cursor.last_progress = progress;
                outcome
            }
            Err(e) => RunOutcome::Failed(format!("transport: {e}")),
        };
        RunStats {
            events_executed: self.events_executed() - start_events,
            end_time: self.cursor.now,
            queue_high_water: self.shards.iter().map(|s| s.queue.high_water_mark()).sum(),
            total_enqueued: self.shards.iter().map(|s| s.queue.total_enqueued()).sum(),
            wall: start.elapsed(),
            outcome,
        }
    }

    fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed).sum()
    }

    /// Whether this process is one worker of a fleet.
    fn is_worker(&self) -> bool {
        #[cfg(unix)]
        {
            self.worker.is_some()
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

/// The complete dynamic state of the shards this process runs — clock,
/// pending events, per-component RNG streams and send counters,
/// component snapshots, trace ring, and lifetime counters — so that a
/// load onto an identically built layout resumes the run with
/// byte-identical results. Running every shard, it is the engine blob
/// (trace section, shard count, one shard blob per shard); a fleet worker
/// saves its lone shard blob, one section of the engine blob the hub
/// assembles.
///
/// Only meaningful at a quiescent point: between
/// [`Simulator::run_until`] calls or before the first run. A load
/// restores the shards this process runs and skips the others — a worker
/// skips the trace section too, which its hub restores — and the run
/// cursor every shard blob repeats must agree across all of them.
impl<E: WireCodec + 'static> Overlay for Simulator<E> {
    fn save(&self, out: &mut Vec<u8>) {
        if self.is_worker() {
            save_shard(out, &self.cursor, &self.shards[0]);
        } else {
            save_engine(out, self.trace.as_ref(), &self.cursor, &self.shards);
        }
    }

    fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        if self.is_worker() {
            skip_trace(buf)?;
        } else {
            get_trace(buf, self.trace.as_mut())?;
        }
        let first = self.first_shard as usize;
        self.cursor = load_shards(buf, self.num_shards, first, &mut self.shards)?;
        Some(())
    }
}

impl<E: WireCodec + 'static> Simulator<E> {
    /// Overlays the end-of-run state of a worker fleet onto this layout
    /// of the same simulation, which never ran: `trace` is the hub's
    /// merged trace ring and `shards[w]` the final shard blob of worker
    /// `w`, restored by the strict decoder a resume uses. A shard whose
    /// worker delivered no blob, whose blob does not restore, or whose
    /// run cursor disagrees with the blobs before it is emptied —
    /// components and pending events dropped — so nothing a dead worker
    /// owned is read as if it had run; `Err` names the first such worker.
    pub fn load_fleet(
        &mut self,
        trace: Option<TraceBuffer>,
        shards: &[Option<Vec<u8>>],
    ) -> Result<(), usize> {
        self.trace = trace;
        let mut agreed = None;
        let mut lost = None;
        for (w, shard) in self.shards.iter_mut().enumerate() {
            let blob = shards.get(w).and_then(Option::as_deref);
            let restored = blob
                .and_then(|mut b| {
                    let cursor = load_shard(&mut b, shard)?;
                    b.is_empty().then_some(cursor)
                })
                .filter(|c| *agreed.get_or_insert(*c) == *c);
            if restored.is_none() {
                *shard = Shard::new();
                lost.get_or_insert(w);
            }
        }
        if let Some(cursor) = agreed {
            self.cursor = cursor;
        }
        lost.map_or(Ok(()), Err)
    }
}

impl<E> fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("num_shards", &self.num_shards)
            .field("local_shards", &self.shards.len())
            .field("components", &self.shards[0].slots.len())
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
        assert_eq!(sim.num_shards(), 1);
        assert_eq!(sim.shard_metrics()[0].events_executed, 6);
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
        let m = sim.shard_metrics().remove(0);
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
        let m = sim.shard_metrics().remove(0);
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
        let recs = sim.take_trace_records().expect("tracing armed");
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
        assert!(sim.shard_metrics()[0].queue_len > 0);
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

    /// A simulator moves between threads whenever its events do, whatever
    /// its layout: a fleet worker's link must not take that away.
    #[test]
    fn simulator_is_send() {
        fn send<T: Send>() {}
        send::<Simulator<u64>>();
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
}

#[cfg(test)]
/// The same simulations on every layout: one shard, `into_sharded` at
/// several shard counts (one included, which runs the solo transport).
mod layout_tests {
    use super::*;
    use crate::{Context, TraceSpec};
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
        /// Busy-loop iterations per hop: host time only, no state.
        work: u32,
    }

    impl Component<Ev> for Relay {
        fn name(&self) -> &str {
            "relay"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    for i in 0..self.work {
                        std::hint::black_box(i);
                    }
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
                    work: 0,
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

    fn state_of(engine: &Simulator<Ev>, size: usize) -> Vec<(Vec<u32>, Vec<u64>)> {
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
    fn totals(engine: &Simulator<Ev>) -> (u64, u64) {
        let m = engine.shard_metrics();
        (
            m.iter().map(|m| m.events_executed).sum(),
            m.iter().map(|m| m.total_enqueued).sum(),
        )
    }

    /// Everything the identity contract pins about a run and the resume
    /// after it: how and when it ended, what it executed and enqueued,
    /// every component's history and draws, and the trace.
    fn observe(engine: &mut Simulator<Ev>, size: usize) -> impl PartialEq + std::fmt::Debug {
        let first = engine.run();
        let at_halt = (engine.now(), totals(engine), state_of(engine, size));
        let resumed = engine.run();
        (
            (first.outcome, first.events_executed, at_halt),
            (resumed.outcome, resumed.events_executed, engine.now()),
            (totals(engine), state_of(engine, size)),
            engine.take_trace_records(),
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
    fn drifting_shards_match_sequential_bit_for_bit() {
        // The relays of one shard burn host time on every hop, so the
        // others leave each barrier early and run into the next round
        // while it still reads the last one — the case the thread
        // transport's parity-buffered slots exist for. Which shard is
        // slow, where the run halts and how, all vary with the seed.
        const SIZE: usize = 12;
        let traced = || EngineOptions {
            trace: Some((TraceSpec::default(), 1 << 14)),
            ..EngineOptions::default()
        };
        for seed in 0..16u64 {
            // Tokens start at components 0, 4 and 8, so component `c`
            // sees ping `n` at tick `n` whenever n ≡ c (mod 4): the trip
            // lands in a generation of three events.
            let at = (seed as usize * 5) % SIZE;
            let ping = 8 + 4 * (seed as u32 % 6) + at as u32 % 4;
            for trip in [None, Some((ping, true)), Some((ping, false))] {
                let build = |slow: Option<(u32, u32)>| {
                    let mut sim = build_ring_with(seed, SIZE, 3, 40, false, traced());
                    let tripped = sim.component_as_mut::<Relay>(ComponentId::from_index(at));
                    tripped.unwrap().trip = trip;
                    if let Some((shards, slow)) = slow {
                        for c in (0..SIZE).filter(|&c| c as u32 % shards == slow) {
                            let relay = sim.component_as_mut::<Relay>(ComponentId::from_index(c));
                            relay.unwrap().work = 20_000;
                        }
                    }
                    sim
                };
                let want = observe(&mut build(None), SIZE);
                for shards in [2u32, 3, 4] {
                    let slow = Some((shards, seed as u32 % shards));
                    let mut sharded =
                        build(slow).into_sharded(shards as usize, striped(SIZE, shards));
                    assert_eq!(
                        observe(&mut sharded, SIZE),
                        want,
                        "seed {seed}, trip {trip:?}, {shards} shards"
                    );
                }
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
        assert_eq!(sharded.now(), Time::at(20));
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
            assert_eq!(sharded.now(), seq.now(), "trip time at {shards} shards");
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
        assert!(sharded.now().tick() <= 10);
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
    fn only_the_owner_carries_a_components_stream() {
        // Split at a pause, after every stream and counter has moved.
        let mut sim = build_ring(5, 4, 2, 6);
        assert_eq!(sim.run_until(3).outcome, RunOutcome::TickLimit);
        let sharded = sim.into_sharded(2, striped(4, 2));
        for (s, shard) in sharded.shards.iter().enumerate() {
            for (i, slot) in shard.slots.iter().enumerate() {
                if i % 2 == s {
                    assert!(slot.component.is_some() && slot.seq > 0, "{s}/{i}");
                } else {
                    assert!(slot.component.is_none(), "{s}/{i}");
                    assert_eq!((slot.seq, &slot.rng), (0, &Rng::new(0)), "{s}/{i}");
                }
            }
        }
    }

    #[test]
    fn every_shard_times_its_rounds_on_the_run_clock() {
        // A shard split off after the build must not start a timeline of
        // its own: its rounds would read earlier than they ran, by the
        // build time, and land inside a checkpoint the caller timed on
        // the run's clock. The pause stands in for a long build.
        let pause = std::time::Duration::from_millis(50);
        let options = EngineOptions {
            host_sample: 1,
            ..EngineOptions::default()
        };
        let sim = build_ring_with(7, 4, 2, 20, false, options);
        std::thread::sleep(pause);
        let mut sharded = sim.into_sharded(2, striped(4, 2));
        assert_eq!(sharded.run().outcome, RunOutcome::Drained);
        let hosts = sharded.host_times();
        assert_eq!(hosts.len(), 2);
        for (s, times) in hosts.iter().enumerate() {
            let first = times.round_slices.iter().map(|r| r.start_ns).min();
            let first = first.expect("every round is sampled");
            assert!(
                u128::from(first) >= pause.as_nanos(),
                "shard {s}'s first round reads {first} ns, before the split"
            );
        }
    }

    #[test]
    fn shard_metrics_account_every_event_once() {
        let sim = build_ring(13, 6, 2, 20);
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let per_shard = sharded.shard_metrics();
        assert_eq!(per_shard.len(), 3);
        let total: u64 = per_shard.iter().map(|m| m.events_executed).sum();
        assert_eq!(total, stats.events_executed);
        for m in &per_shard {
            assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
            assert_eq!(m.queue_len, 0, "drained shard still has events");
        }
    }
}
