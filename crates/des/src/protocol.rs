//! The generation loop, written once against [`ShardTransport`] and run
//! by [`Simulator::run_until`](crate::Simulator::run_until) on every
//! layout: over the solo transport for one local shard, the thread
//! transport for several, and the socket transport for a fleet worker.
//!
//! Each `run_until` segment opens with one exchange of nothing, which
//! publishes every shard's queue head and last-progress tick and returns
//! the global minimum head `m` and maximum progress: the fold. After
//! that, each loop iteration is one round covering one generation:
//!
//! 1. **Halt checks.** Drained / tick limit / watchdog are decided from
//!    the fold values — identical on every shard, so unanimous.
//! 2. **Sample + execute.** Close any sampling-window edges up to `m`
//!    over the shard's own components, then execute the local slice of
//!    generation `m` in canonical stamp order. Events for local
//!    components go straight into the local queue; remote events
//!    accumulate in per-destination outboxes.
//! 3. **Exchange.** Ship outboxes, trace records, stop/failure flags,
//!    and the fold input — the earliest of the post-execute queue head
//!    and the shipped events, with the progress tick; deliver inbound
//!    events in sender order; halt on the agreed stop/failure state, or
//!    carry the returned fold into the next round.
//!
//! So a round costs one synchronization. Because cross-shard events are
//! delivered at the end of the round, an event scheduled *during*
//! generation `m` at time `m` joins the *next* generation on every
//! backend, and because stop/failure flags are read at the exchange, a
//! generation once started always completes. With one shard the
//! exchange returns the shard's own head and the loop is the classic
//! sequential executor (paper §III-A, Figure 1).
//!
//! The loop knows nothing of checkpoints. A caller pauses it with a tick
//! limit — unanimous across shards, since it is decided from the fold —
//! and captures the simulator's [`Overlay::save`](crate::wire::Overlay::save)
//! at the pause; a worker process is paused by the same caller as an
//! in-process run.

use crate::component::{Component, ComponentId};
use crate::engine::{
    log2_bucket, next_edge_after, take_generation, Context, EngineMetrics, EngineOptions,
    EventStamp, RunOutcome, SinkRef, Stamped, TaggedTrace, TraceSink, BATCH_BUCKETS, EXTERNAL_SRC,
};
use crate::event::{EventQueue, Generation};
use crate::host::{HostRecorder, HostRoundSlice};
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::transport::{earliest, RoundOut, ShardTransport, TransportError};

/// One component's record: the component, beside the random stream and
/// send counter its events use, so dispatch touches one record.
pub(crate) struct Slot<E> {
    /// `None` in a slot another shard owns.
    pub(crate) component: Option<Box<dyn Component<E>>>,
    /// Random stream, derived from `(seed, index)`.
    pub(crate) rng: Rng,
    /// Send counter (the event stamp source).
    pub(crate) seq: u64,
}

impl<E> Slot<E> {
    /// The slot of a component another shard owns. Nothing reads a
    /// vacant slot's stream or counter (dispatch, `save_shard` and
    /// `load_shard` all skip it), so it carries a fixed placeholder.
    fn vacant() -> Self {
        Slot {
            component: None,
            rng: Rng::new(0),
            seq: 0,
        }
    }
}

/// One shard: a slice of the component space plus its own event queue and
/// executor counters. `slots` is full-length (indexed by component id),
/// so dispatch needs no id translation; only the owner's slots hold a
/// component with its stream and counter, the others are vacant.
pub(crate) struct Shard<E> {
    pub(crate) slots: Vec<Slot<E>>,
    pub(crate) queue: EventQueue<Stamped<E>>,
    /// Scratch buffer for generation draining, reused across runs.
    batch: Generation<Stamped<E>>,
    pub(crate) events_executed: u64,
    pub(crate) batches: u64,
    pub(crate) batch_counts: [u64; BATCH_BUCKETS],
}

impl<E> Shard<E> {
    /// A shard owning nothing yet.
    pub(crate) fn new() -> Self {
        Shard {
            slots: Vec::new(),
            queue: EventQueue::new(),
            batch: Generation::new(),
            events_executed: 0,
            batches: 0,
            batch_counts: [0; BATCH_BUCKETS],
        }
    }

    /// Partitions this whole-simulation shard into `num_shards`,
    /// component `c` going to shard `shard_of[c]` and every pending event
    /// to its target's shard (unknown targets to shard 0, which reports
    /// the usual unregistered-target failure). A component's stream and
    /// send counter move with it to its owner, and every other part gets
    /// a vacant slot; lifetime executor totals carry to part 0 so summed
    /// counters survive the conversion.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero, `shard_of` is not exactly one
    /// entry per registered component, or any entry is out of range.
    pub(crate) fn split(mut self, num_shards: usize, shard_of: &[u32]) -> Vec<Shard<E>> {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            shard_of.len(),
            self.slots.len(),
            "shard map must cover every component"
        );
        assert!(
            shard_of.iter().all(|&s| (s as usize) < num_shards),
            "shard map entry out of range"
        );
        let mut parts: Vec<Shard<E>> = (0..num_shards).map(|_| Shard::new()).collect();
        parts[0].events_executed = self.events_executed;
        for part in &mut parts {
            part.slots.reserve_exact(shard_of.len());
        }
        for (slot, &owner) in self.slots.drain(..).zip(shard_of) {
            for (s, part) in parts.iter_mut().enumerate() {
                if s != owner as usize {
                    part.slots.push(Slot::vacant());
                }
            }
            parts[owner as usize].slots.push(slot);
        }
        let mut pending = Vec::new();
        while self.queue.take_batch(&mut pending) > 0 {
            for e in pending.drain(..) {
                let owner = shard_of.get(e.target.index()).copied().unwrap_or(0) as usize;
                parts[owner].queue.push(e.target, e.time, e.payload);
            }
        }
        parts
    }

    /// Borrows a component this shard owns.
    pub(crate) fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        self.slots
            .get(id.index())
            .and_then(|s| s.component.as_deref())
    }

    /// Mutably borrows a component this shard owns.
    pub(crate) fn component_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        self.slots
            .get_mut(id.index())
            .and_then(|s| s.component.as_deref_mut())
    }

    /// Folds one executed batch into the shard counters.
    fn record_batch(&mut self, done: u64) {
        if done == 0 {
            return;
        }
        self.events_executed += done;
        self.batches += 1;
        self.batch_counts[log2_bucket(done)] += 1;
    }

    pub(crate) fn metrics(&self) -> EngineMetrics {
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
}

/// The simulation-global run position a [`Simulator`](crate::Simulator)
/// keeps beside its shards (and every shard blob repeats): the clock, the
/// external send counter, and the last globally agreed progress tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunCursor {
    /// Time of the last executed generation.
    pub now: Time,
    /// Send counter for external
    /// ([`Simulator::schedule`](crate::Simulator::schedule)) events.
    pub ext_seq: u64,
    /// Tick of the last [`Context::progress`] report on any shard.
    pub last_progress: Tick,
}

impl RunCursor {
    /// Stamps an event scheduled from outside any component at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub(crate) fn stamp_external(&mut self, time: Time) -> EventStamp {
        assert!(time >= self.now, "cannot schedule into the past");
        let stamp = EventStamp {
            src: EXTERNAL_SRC,
            seq: self.ext_seq,
        };
        self.ext_seq += 1;
        stamp
    }
}

/// What one shard needs to know to run its side of the loop.
pub(crate) struct ProtocolParams<'a> {
    pub my_shard: u32,
    pub num_shards: usize,
    pub tick_limit: Tick,
    /// Watchdog window, sample interval, trace spec and progress board.
    pub options: &'a EngineOptions,
    /// Where the run stands when the loop starts (identical on every
    /// shard).
    pub start: RunCursor,
    /// Component index → owning shard; unread under the solo transport.
    pub shard_of: &'a [u32],
}

/// Delivers inbound events into `queue`, keeping `head`, its earliest
/// time, current without a peek.
fn inbox<'a, E>(
    queue: &'a mut EventQueue<Stamped<E>>,
    head: &'a mut Option<Time>,
) -> impl FnMut(ComponentId, Time, Stamped<E>) + 'a {
    |target, time, stamped| {
        *head = earliest(*head, Some(time));
        queue.push(target, time, stamped);
    }
}

/// Runs rounds over `transport` until a halt decision. Returns the
/// outcome, the time of the last executed generation, and the final
/// globally agreed progress tick.
///
/// `host` collects out-of-band wall-time attribution (phase totals every
/// round, per-event component classes on sampled rounds); disabled
/// recorders cost one branch per round. Host clocks never influence
/// which events run or in what order.
pub(crate) fn run_shard_rounds<E: 'static, T: ShardTransport<E>>(
    shard: &mut Shard<E>,
    p: &ProtocolParams<'_>,
    transport: &mut T,
    host: &mut HostRecorder,
) -> Result<(RunOutcome, Time, Tick), TransportError> {
    let watchdog = p.options.watchdog;
    let sample_interval = p.options.sample_interval;
    let trace_spec = p.options.trace_spec();
    let board = p.options.progress.as_deref();
    let mut local_now = p.start.now;
    let mut local_out: Vec<Vec<(ComponentId, Time, Stamped<E>)>> =
        (0..p.num_shards).map(|_| Vec::new()).collect();
    let mut round_trace: Vec<TaggedTrace> = Vec::new();
    let mut batch = std::mem::take(&mut shard.batch);
    let mut local_progress = p.start.last_progress;
    // The next window edge is a pure function of (now, interval), so a
    // paused-and-resumed run samples exactly the edges a continuous run
    // would; every shard advances its cursor from the same global `m`
    // sequence, so all cursors stay in lockstep and together the shards
    // sample every component exactly once per edge.
    let mut next_edge =
        (sample_interval > 0).then(|| next_edge_after(p.start.now.tick(), sample_interval));
    // The earliest time in the local queue, kept current through
    // deliveries, so a round peeks the queue once: after its execute.
    let mut head = shard.queue.peek_time();
    // The segment's opening exchange of nothing folds the queues as they
    // stand, external schedules and restored state included. No shard
    // ships anything, so nothing arrives and no halt flag is raised.
    let m0 = if host.enabled() { host.now_ns() } else { 0 };
    let opening = transport.exchange(
        RoundOut {
            outboxes: &mut local_out,
            traces: &mut round_trace,
            stop: false,
            failure: None,
            events: 0,
            next: (head, local_progress),
        },
        &mut inbox(&mut shard.queue, &mut head),
    )?;
    if host.enabled() {
        host.times.exchange_ns += host.now_ns() - m0;
    }
    let mut fold = opening.next;
    // Assigned from the fold before every loop exit.
    let mut global_progress;
    let outcome = loop {
        let profiling = host.enabled();
        // Phase marks bound sample-edge / drain / execute / exchange
        // with at most seven clock reads per round.
        let m1 = if profiling { host.now_ns() } else { 0 };
        global_progress = fold.global_progress;
        // All halt decisions are unanimous: every shard computed them
        // from the identical fold values. They are taken before the
        // generation is drained, so the pending queue survives intact
        // (for a resume, or for diagnostics after a watchdog trip).
        let Some(m) = fold.m else {
            break RunOutcome::Drained;
        };
        if m.tick() > p.tick_limit {
            break RunOutcome::TickLimit;
        }
        if watchdog > 0 && m.tick().saturating_sub(global_progress) > watchdog {
            break RunOutcome::Watchdog {
                last_progress: global_progress,
            };
        }
        debug_assert!(m >= local_now, "event queue went backwards");
        // Window edges crossed by this generation close before any of
        // its events run: everything below the edge has executed,
        // nothing at or past it has. Each shard closes the window over
        // its own components.
        if next_edge.is_some_and(|e| e <= m.tick()) {
            while let Some(edge) = next_edge.filter(|&e| e <= m.tick()) {
                for slot in shard.slots.iter_mut() {
                    if let Some(c) = slot.component.as_deref_mut() {
                        c.sample(edge);
                    }
                }
                next_edge = edge.checked_add(sample_interval);
            }
            if profiling {
                host.times.sample_edge_ns += host.now_ns() - m1;
            }
        }
        local_now = m;

        let mut stop_local = false;
        let sampled = profiling && host.batch_sampled();
        let mut round_events = 0u64;
        let mut round_exec_ns = 0u64;
        // The batch executes in stamp order, so the first failure seen
        // is this shard's smallest-stamp failure; the transport folds
        // the cross-shard minimum.
        let mut failure_local: Option<(EventStamp, String)> = None;
        if head == Some(m) {
            let m2 = if profiling { host.now_ns() } else { 0 };
            let t = take_generation(&mut shard.queue, p.tick_limit, &mut batch);
            debug_assert_eq!(t, Some(m));
            let m3 = if profiling { host.now_ns() } else { 0 };
            if profiling {
                host.times.drain_ns += m3 - m2;
            }
            // Engine stats update once per generation, not per event:
            // `done` counts executed events in a register and folds into
            // the shard's counters when the generation ends.
            let mut done = 0u64;
            let mut progress_local = false;
            // On sampled rounds, consecutive marks attribute each
            // event's wall time to its component's class.
            let mut ev_mark = m3;
            for entry in batch.by_ref() {
                let idx = entry.target.index();
                let mut fail_local: Option<String> = None;
                match shard.slots.get_mut(idx) {
                    Some(Slot {
                        component: Some(component),
                        rng,
                        seq,
                    }) => {
                        let mut ctx = Context {
                            now: m,
                            self_id: entry.target,
                            // Resolved when the loop is compiled for its
                            // transport: with no peer every target is
                            // local, and `Context::schedule` pushes
                            // straight into the queue.
                            sink: if T::SOLO {
                                SinkRef::Local(&mut shard.queue)
                            } else {
                                SinkRef::Sharded {
                                    queue: &mut shard.queue,
                                    shard_of: p.shard_of,
                                    my_shard: p.my_shard,
                                    outboxes: &mut local_out,
                                }
                            },
                            seq,
                            rng,
                            stop_requested: &mut stop_local,
                            progress: &mut progress_local,
                            failure: &mut fail_local,
                            trace: trace_spec.map(|spec| TraceSink {
                                spec,
                                stamp: entry.payload.stamp,
                                recno: 0,
                                out: &mut round_trace,
                            }),
                        };
                        component.handle(&mut ctx, entry.payload.payload);
                        if sampled {
                            let ev_end = host.now_ns();
                            host.times
                                .add_class(component.host_class(), ev_end - ev_mark, 1);
                            host.times.sampled_events += 1;
                            ev_mark = ev_end;
                        }
                        done += 1;
                    }
                    _ => {
                        fail_local = Some(format!("event targeted unregistered {}", entry.target));
                    }
                }
                if let Some(msg) = fail_local {
                    if failure_local.is_none() {
                        failure_local = Some((entry.payload.stamp, msg));
                    }
                }
            }
            shard.record_batch(done);
            if profiling {
                round_exec_ns = host.now_ns() - m3;
                host.times.execute_ns += round_exec_ns;
            }
            round_events = done;
            if progress_local {
                local_progress = m.tick();
            }
            head = shard.queue.peek_time();
        }

        // Every pending event is in some shard's queue or in flight to
        // one, so the earliest of the two, folded over shards, is the
        // next generation.
        let shipped = if T::SOLO {
            None
        } else {
            local_out.iter().flatten().map(|&(_, time, _)| time).min()
        };
        let next = (earliest(head, shipped), local_progress);
        let m4 = if profiling { host.now_ns() } else { 0 };
        let end = transport.exchange(
            RoundOut {
                outboxes: &mut local_out,
                traces: &mut round_trace,
                stop: stop_local,
                failure: failure_local,
                events: round_events,
                next,
            },
            &mut inbox(&mut shard.queue, &mut head),
        )?;
        if profiling {
            let round_exch_ns = host.now_ns() - m4;
            host.times.exchange_ns += round_exch_ns;
            if sampled {
                host.times.push_slice(HostRoundSlice {
                    start_ns: m1,
                    tick: m.tick(),
                    events: round_events,
                    execute_ns: round_exec_ns,
                    exchange_ns: round_exch_ns,
                });
            }
        }
        if let Some(board) = board {
            board.record_events(p.my_shard as usize, shard.events_executed);
            if p.my_shard == 0 {
                board.record_tick(m.tick());
                board.add_round();
            }
        }
        if let Some(msg) = end.failure {
            break RunOutcome::Failed(msg);
        }
        if end.stopped {
            break RunOutcome::Stopped;
        }
        fold = end.next;
    };
    shard.batch = batch;
    Ok((outcome, local_now, global_progress))
}
