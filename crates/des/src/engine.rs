//! What it means to execute a simulation: the vocabulary every layout of
//! a [`Simulator`](crate::Simulator) shares.
//!
//! The executor is split from the component model so that one simulation
//! can run on any layout. There is **one engine type**,
//! [`Simulator`](crate::Simulator) — the shards this process executes
//! out of an N-shard simulation — and **one generation loop**,
//! `run_shard_rounds` in `protocol.rs`, written against the crate-private
//! `ShardTransport` trait. The layout implies the transport: one local
//! shard runs on the calling thread over the solo transport, whose
//! exchange only hands the shard's own head back; several local shards
//! ([`into_sharded`](crate::Simulator::into_sharded)) run on threads over
//! the barrier transport; a fleet worker
//! ([`into_worker`](crate::Simulator::into_worker)) runs its one shard
//! over the socket to a parent [`Hub`](crate::Hub).
//!
//! What a run observes — watchdog, sampling, tracing, host profiling,
//! live progress — is fixed once, by the [`EngineOptions`] given when the
//! simulator is created. Checkpoints are the caller's: it segments
//! [`run_until`](crate::Simulator::run_until) at the boundaries it wants
//! and captures its [`Overlay::save`](crate::wire::Overlay::save) at
//! each pause, on every layout alike.
//!
//! # The determinism contract
//!
//! Every layout produces **bit-identical** simulations for the same
//! `(configuration, seed)`: the same events in the same canonical order,
//! the same per-component random draws, the same trace byte stream, and
//! the same halt point (`stop`/`fail` finish the current generation on
//! every backend).
//! Three mechanisms make that possible:
//!
//! 1. **Event stamps.** Every scheduled event carries an [`EventStamp`]:
//!    the scheduling component's id and that component's monotone send
//!    counter (external schedules use [`EXTERNAL_SRC`] and an engine-level
//!    counter). Stamps are unique and depend only on each component's own
//!    execution history — not on how components interleave.
//! 2. **Canonical batch order.** All events at the earliest pending
//!    `(tick, epsilon)` form one *generation*; every layout dispatches each
//!    generation in ascending stamp order (`take_generation`, the one
//!    place a generation is ordered). By induction, identical
//!    generations produce identical per-component histories, hence
//!    identical stamps, hence identical future generations.
//! 3. **Per-component random streams.** Each component draws from its own
//!    [`Rng::stream`](crate::Rng::stream) generator derived from
//!    `(seed, component index)`, so no draw depends on global ordering.
//!
//! Events scheduled *during* a generation at the same `(tick, epsilon)`
//! join the **next** generation — exactly what a barrier-synchronized
//! engine can guarantee for cross-shard events, so zero-latency messages
//! (e.g. the workload monitor's same-tick command broadcast) need no
//! special case.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::component::ComponentId;
use crate::event::{EventQueue, Generation};
use crate::host::ProgressShared;
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent, TraceSpec};
use crate::wire::WireCodec;

/// Stamp `src` for events scheduled from outside any component
/// ([`Simulator::schedule`](crate::Simulator::schedule)).
pub const EXTERNAL_SRC: u32 = u32::MAX;

/// The canonical identity of a scheduled event: who scheduled it and at
/// which position in the scheduler's own send history.
///
/// Stamps order each generation identically on every engine: unique
/// (per-source counters never repeat), and dependent only on the sending
/// component's execution history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventStamp {
    /// Component id of the scheduler, or [`EXTERNAL_SRC`].
    pub src: u32,
    /// The scheduler's send counter at the time of scheduling.
    pub seq: u64,
}

crate::wire_struct!(EventStamp { src, seq });

/// An event payload wrapped with its canonical stamp — what engines
/// actually store in their queues.
#[derive(Debug, Clone)]
pub(crate) struct Stamped<E> {
    pub stamp: EventStamp,
    pub payload: E,
}

impl<E: WireCodec> WireCodec for Stamped<E> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.stamp.encode(out);
        self.payload.encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Stamped {
            stamp: EventStamp::decode(buf)?,
            payload: E::decode(buf)?,
        })
    }
}

/// Drains the earliest generation of `queue` into `generation`, ready to
/// dispatch in ascending [`EventStamp`] order, if its tick is at most
/// `tick_limit`; see [`EventQueue::take_generation_until`] for `None`.
///
/// Every backend takes its generations here. The queue orders by
/// `(stamp.src, enqueue position)`, which is stamp order because **within
/// one queue, one source's events at one `(tick, epsilon)` are enqueued
/// in ascending `seq`**: a source stamps its sends in order and they
/// reach a given queue by one route (direct pushes, or its shard's
/// sender-ordered outbox); the queue keeps equal times FIFO through the
/// overflow heap; and conversions between backends and checkpoint
/// restores re-push in drain order. A generation, once taken, always runs
/// to its end (a `stop` or `fail` takes effect after it), so nothing is
/// ever put back.
pub(crate) fn take_generation<E>(
    queue: &mut EventQueue<Stamped<E>>,
    tick_limit: Tick,
    generation: &mut Generation<Stamped<E>>,
) -> Option<Time> {
    let time = queue.take_generation_until(tick_limit, generation, |e| e.stamp.src)?;
    debug_assert!(
        generation.pending().is_sorted_by(|a, b| a.stamp < b.stamp),
        "a source's events were enqueued out of seq order at {time}"
    );
    Some(time)
}

/// A trace record tagged for deterministic merging: the stamp of the
/// event whose handler recorded it, plus the record's index within that
/// handler invocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaggedTrace {
    pub stamp: EventStamp,
    pub recno: u32,
    pub ev: TraceEvent,
}

crate::wire_struct!(TaggedTrace { stamp, recno, ev });

/// Why a run call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue ran empty: the simulation is over.
    Drained,
    /// A component requested an orderly stop via [`Context::stop`].
    Stopped,
    /// The tick limit given to
    /// [`Simulator::run_until`](crate::Simulator::run_until) was reached.
    TickLimit,
    /// A component reported a fatal modeling error via [`Context::fail`].
    Failed(String),
    /// The no-progress watchdog fired: events kept executing (or were
    /// pending) but no component reported progress via
    /// [`Context::progress`] for longer than the configured window —
    /// livelock, or a deadlock still burning idle events.
    Watchdog {
        /// The last tick at which progress was reported (0 if never).
        last_progress: Tick,
    },
}

/// A fixed discriminant plus optional detail: the message of `Failed` and
/// the tick of `Watchdog` ride along.
impl WireCodec for RunOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RunOutcome::Drained => out.push(0),
            RunOutcome::Stopped => out.push(1),
            RunOutcome::TickLimit => out.push(2),
            RunOutcome::Failed(msg) => {
                out.push(3);
                msg.encode(out);
            }
            RunOutcome::Watchdog { last_progress } => {
                out.push(4);
                last_progress.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(RunOutcome::Drained),
            1 => Some(RunOutcome::Stopped),
            2 => Some(RunOutcome::TickLimit),
            3 => Some(RunOutcome::Failed(String::decode(buf)?)),
            4 => Some(RunOutcome::Watchdog {
                last_progress: Tick::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl RunOutcome {
    /// Whether the run ended without a component-reported error or a
    /// watchdog trip.
    pub fn is_ok(&self) -> bool {
        !matches!(self, RunOutcome::Failed(_) | RunOutcome::Watchdog { .. })
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Drained => write!(f, "event queue drained"),
            RunOutcome::Stopped => write!(f, "stopped by component request"),
            RunOutcome::TickLimit => write!(f, "tick limit reached"),
            RunOutcome::Failed(msg) => write!(f, "failed: {msg}"),
            RunOutcome::Watchdog { last_progress } => write!(
                f,
                "watchdog: no progress since tick {last_progress} (deadlock or livelock)"
            ),
        }
    }
}

/// Engine statistics for one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Events executed during the run.
    pub events_executed: u64,
    /// Simulation time of the last executed event.
    pub end_time: Time,
    /// Largest number of simultaneously pending events. With several
    /// shards this is the sum of per-shard high-water marks (an upper
    /// bound of the global value) — a capacity diagnostic, not part of
    /// the cross-layout determinism contract.
    pub queue_high_water: usize,
    /// Total events enqueued over the lifetime of the engine.
    pub total_enqueued: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl RunStats {
    /// Events executed per wall-clock second, or 0 for an empty run.
    pub fn events_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_executed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Number of log₂ batch-size buckets: bucket 0 is unused (a batch has at
/// least one event), bucket `i` covers sizes in `[2^(i-1), 2^i)`.
pub const BATCH_BUCKETS: usize = 65;

/// Per-shard engine self-metrics accumulated over the simulator's
/// lifetime. An unsplit simulator reports exactly one shard.
///
/// The `des` crate sits below the stats crate in the dependency order, so
/// the batch-size distribution is exposed as a raw log₂-bucketed count
/// array; higher layers convert it into their histogram type.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Events executed on this shard since construction.
    pub events_executed: u64,
    /// Same-`(tick, epsilon)` batches this shard dispatched.
    pub batches: u64,
    /// Log₂-bucketed distribution of executed batch sizes: bucket `i > 0`
    /// counts batches of `[2^(i-1), 2^i)` events. Sums to `batches`; the
    /// weighted sum of sizes is `events_executed`.
    pub batch_counts: [u64; BATCH_BUCKETS],
    /// Events pending right now in this shard's queue.
    pub queue_len: usize,
    /// Largest number of simultaneously pending events ever observed.
    pub queue_high_water: usize,
    /// Events ever enqueued into this shard's queue.
    pub total_enqueued: u64,
    /// Current ring horizon in ticks.
    pub horizon: usize,
    /// Adaptive horizon doublings performed.
    pub horizon_resizes: u64,
    /// Pushes that landed in the overflow heap instead of the ring.
    pub overflow_spills: u64,
    /// Events currently parked in the overflow heap.
    pub overflow_len: usize,
}

crate::wire_struct!(EngineMetrics {
    events_executed,
    batches,
    batch_counts,
    queue_len,
    queue_high_water,
    total_enqueued,
    horizon,
    horizon_resizes,
    overflow_spills,
    overflow_len,
});

/// The first edge strictly after `now` on the `k * interval` grid
/// (`k = 1, 2, …`; saturating, so an absurdly large interval simply never
/// fires) — where the next sampling window closes and where the next
/// checkpoint pause falls.
#[inline]
pub fn next_edge_after(now: Tick, interval: Tick) -> Tick {
    debug_assert!(interval > 0, "the grid must be armed");
    (now / interval).saturating_add(1).saturating_mul(interval)
}

/// Log₂ bucket index shared with the stats crate's histogram: 0 → 0,
/// otherwise `64 - leading_zeros(v)`.
#[inline]
pub(crate) fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Where a [`Context`] delivers scheduled events.
pub(crate) enum SinkRef<'a, E> {
    /// Single queue: the solo transport's lone shard, where every target
    /// is local.
    Local(&'a mut EventQueue<Stamped<E>>),
    /// Sharded routing: local targets go to this shard's queue, remote
    /// targets to the per-destination outbox flushed at the next barrier.
    Sharded {
        queue: &'a mut EventQueue<Stamped<E>>,
        /// Component index → owning shard. Unknown targets route to
        /// shard 0, which reports the usual unregistered-target failure.
        shard_of: &'a [u32],
        my_shard: u32,
        outboxes: &'a mut [Vec<(ComponentId, Time, Stamped<E>)>],
    },
}

/// Trace collection state for one handler invocation.
pub(crate) struct TraceSink<'a> {
    pub spec: TraceSpec,
    pub stamp: EventStamp,
    pub recno: u32,
    pub out: &'a mut Vec<TaggedTrace>,
}

/// The execution context handed to a component while it processes an
/// event.
///
/// Through the context a component can read the current time, schedule new
/// events (for itself or any other component), draw deterministic random
/// numbers, record trace events, and signal stop or failure.
pub struct Context<'a, E> {
    pub(crate) now: Time,
    pub(crate) self_id: ComponentId,
    pub(crate) sink: SinkRef<'a, E>,
    /// This component's monotone send counter (stamp source).
    pub(crate) seq: &'a mut u64,
    /// This component's private random stream.
    pub(crate) rng: &'a mut Rng,
    pub(crate) stop_requested: &'a mut bool,
    pub(crate) failure: &'a mut Option<String>,
    /// Set by [`Context::progress`]; the engine folds it into its
    /// no-progress watchdog after each generation.
    pub(crate) progress: &'a mut bool,
    /// `None` while tracing is disabled — the off path is one branch.
    pub(crate) trace: Option<TraceSink<'a>>,
}

impl<E> Context<'_, E> {
    /// The time of the event currently being processed.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently processing an event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` for `target` at `time`.
    ///
    /// `time` must not be in the past. Scheduling at exactly the current
    /// `(tick, epsilon)` is allowed and runs in the next generation (after
    /// every event of the current one); use [`Time::next_epsilon`] to make
    /// intra-tick ordering explicit.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Context::now`] — scheduling into
    /// the past is always a bug in a component model.
    #[inline]
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        assert!(
            time >= self.now,
            "component {} scheduled an event into the past ({} < {})",
            self.self_id,
            time,
            self.now
        );
        let stamp = EventStamp {
            src: self.self_id.0,
            seq: *self.seq,
        };
        *self.seq += 1;
        let stamped = Stamped { stamp, payload };
        match &mut self.sink {
            SinkRef::Local(queue) => queue.push(target, time, stamped),
            SinkRef::Sharded {
                queue,
                shard_of,
                my_shard,
                outboxes,
            } => {
                let dest = shard_of.get(target.index()).copied().unwrap_or(0);
                if dest == *my_shard {
                    queue.push(target, time, stamped);
                } else {
                    outboxes[dest as usize].push((target, time, stamped));
                }
            }
        }
    }

    /// Schedules `payload` for this component itself at `time`.
    #[inline]
    pub fn schedule_self(&mut self, time: Time, payload: E) {
        self.schedule(self.self_id, time, payload);
    }

    /// This component's deterministic random number generator.
    ///
    /// Every component owns an independent stream derived from
    /// `(seed, component index)`, so draws are reproducible regardless of
    /// execution interleaving — see [`Rng::stream`].
    #[inline]
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Whether trace collection is active (and worth preparing records
    /// for).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a trace event if tracing is enabled and the record passes
    /// the engine's [`TraceSpec`]. `kind` must be `< 8`.
    #[inline]
    pub fn trace(&mut self, kind: u8, src: u32, id: u64, sub: u32) {
        let Some(sink) = &mut self.trace else {
            return;
        };
        if !sink.spec.accepts(kind, src, id) {
            return;
        }
        sink.out.push(TaggedTrace {
            stamp: sink.stamp,
            recno: sink.recno,
            ev: TraceEvent {
                time: self.now,
                src,
                kind,
                id,
                sub,
            },
        });
        sink.recno += 1;
    }

    /// Requests an orderly stop, leaving later events pending. Stop is a
    /// cooperative signal, not an abort: every backend completes the
    /// current generation first, so the stop point is part of the
    /// determinism contract.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Reports a fatal modeling error (paper §IV-D error detection). The
    /// engine halts after the current generation and surfaces the message
    /// in [`RunOutcome::Failed`]; when several events of one generation
    /// fail, the one with the smallest stamp is reported.
    pub fn fail(&mut self, message: impl Into<String>) {
        if self.failure.is_none() {
            *self.failure = Some(message.into());
        }
    }

    /// Reports forward progress to the no-progress watchdog. Models call
    /// this on externally meaningful work (the network interfaces call it
    /// per delivered flit); mere event churn does not count, so livelock
    /// — events executing forever without delivering anything — trips the
    /// watchdog just like deadlock. Free when no watchdog is armed (the
    /// engine only reads the flag).
    #[inline]
    pub fn progress(&mut self) {
        *self.progress = true;
    }
}

/// What a simulation observes and reports while it runs, fixed once when
/// it is created ([`Simulator::with_options`]) and inherited by
/// [`Simulator::into_sharded`] and [`Simulator::into_worker`]. The
/// default is everything disarmed. Every field is out-of-band or a pure
/// function of the deterministic event stream, so no option changes which
/// events run or in what order.
///
/// [`Simulator::with_options`]: crate::Simulator::with_options
/// [`Simulator::into_sharded`]: crate::Simulator::into_sharded
/// [`Simulator::into_worker`]: crate::Simulator::into_worker
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// No-progress watchdog window in ticks; 0 disarms it. A run breaks
    /// with [`RunOutcome::Watchdog`] when the next pending event lies
    /// more than this many ticks after the last reported progress
    /// ([`Context::progress`]). The check is a pure function of the
    /// deterministic event stream (taken from the fold values, so
    /// unanimous across shards): the trip tick is identical on every
    /// backend and shard count.
    pub watchdog: Tick,
    /// Sampling window width in ticks; 0 disarms the sampler. Before
    /// executing the first generation at or past each window edge
    /// `k * interval` (`k = 1, 2, …`), the engine calls
    /// [`Component::sample`](crate::Component::sample) with that edge on every component. Edges are
    /// crossed in order and each exactly once, even when a single
    /// generation jumps several windows; a run that ends mid-window never
    /// closes the trailing partial window. The edge sequence is a pure
    /// function of the global generation sequence, so sampling is
    /// identical on every backend and shard count (each shard samples its
    /// own components in the round covering the edge). The disarmed path
    /// costs one branch per generation.
    pub sample_interval: Tick,
    /// Trace collection: records matching the spec are kept in a ring of
    /// the given capacity, merged in canonical stamp order. `None`
    /// disables tracing. A worker process collects by the spec but keeps
    /// no ring — its records ship to the hub every round, which holds the
    /// ring (sized from the options given to
    /// [`Hub::accept`](crate::Hub::accept)).
    pub trace: Option<(TraceSpec, usize)>,
    /// Host-time profiling stride; 0 disarms it. Phase wall-times are
    /// measured every batch and per-event component-class attribution
    /// runs on one batch in `host_sample`, on one recorder per shard, each
    /// reading the simulator's [`host_clock`](crate::Simulator::host_clock).
    /// Host clocks are strictly out-of-band: they never influence event
    /// ordering, delivery, or any deterministic output. The disarmed path
    /// costs one branch per batch.
    pub host_sample: u32,
    /// Live-progress board an in-process run publishes to after each
    /// batch (cumulative events per shard; shard 0 adds the current tick
    /// and round count). Relaxed atomic stores only — the board is read
    /// by an out-of-band heartbeat emitter and never feeds back into the
    /// simulation. Workers publish nothing: the hub, given the board in
    /// its options, rebuilds it parent-side from the per-round event
    /// deltas.
    pub progress: Option<Arc<ProgressShared>>,
}

impl EngineOptions {
    /// The trace spec, when tracing is armed.
    pub(crate) fn trace_spec(&self) -> Option<TraceSpec> {
        self.trace.map(|(spec, _)| spec)
    }

    /// A fresh trace ring of the configured capacity, when tracing is
    /// armed.
    pub(crate) fn trace_ring(&self) -> Option<TraceBuffer> {
        self.trace
            .map(|(_, capacity)| TraceBuffer::with_capacity(capacity))
    }
}

/// Moves one finished generation's trace records into the ring.
///
/// `round` must already be in canonical order — naturally true for one
/// shard, established by a stamp sort for the cross-shard merge.
pub(crate) fn flush_trace(buffer: &mut TraceBuffer, round: &mut Vec<TaggedTrace>) {
    for t in round.drain(..) {
        buffer.push(t.ev);
    }
}
