//! Shard transports: how generation-lockstep shards synchronize.
//!
//! The generation loop itself (halt checks → execute → exchange) lives in
//! [`protocol`](crate::protocol) and is written once against the
//! crate-internal `ShardTransport` trait defined here. A transport has
//! one operation, called once per round:
//!
//! * **exchange** — ship this round's cross-shard events, trace records,
//!   stop/failure flags, and this shard's part of the next fold (the
//!   earliest time it holds or just shipped, and its last-progress
//!   tick); deliver the inboxes from every other shard **in sender
//!   order**; return the globally agreed stop/failure state and the
//!   next round's fold — the global minimum head `m` and the global
//!   maximum progress. Every shard receives the identical fold, which
//!   makes all halt decisions (drained / tick limit / watchdog)
//!   unanimous without a coordinator vote.
//!
//! The fold rides on the exchange because the next global head is the
//! minimum, over shards, of each shard's post-execute queue head and the
//! earliest event it shipped: every pending event is in some queue or in
//! flight to one. So a round costs one synchronization.
//!
//! [`Simulator::run_until`](crate::Simulator::run_until) picks one of
//! three from the layout it runs:
//!
//! * [`SoloTransport`] — one local shard, nobody to synchronize with: the
//!   fold is the local head, the exchange only moves the round's trace
//!   records into the ring.
//! * `ThreadTransport` — several local shards, one scoped thread each
//!   ([`run_threads`]), meeting at one spin barrier per round over
//!   mutex-guarded slots. Zero copies beyond the event values themselves.
//! * [`ProcessTransport`] — a fleet worker's link: each shard is its own
//!   OS process, connected over a Unix socket to a parent [`Hub`] that
//!   performs the fold and relays outbox bytes, one frame per direction
//!   per round. Payloads cross the wire in the [`wire`](crate::wire)
//!   format; the hub never decodes event payloads, only the framing, the
//!   trace records it must merge, and the end-of-run summary. A worker's
//!   state leaves it one way: as its shard blob, in a CKPT frame at every
//!   checkpoint (the hub assembles the checkpoint file's engine blob from
//!   them) and in its DONE frame at the end of the run (the hub hands the
//!   blobs back unread).
//!
//! Every transport preserves the determinism contract: the fold values
//! and the sender-ordered delivery are identical, so a run is
//! byte-identical across layouts and shard counts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::component::ComponentId;
use crate::engine::{flush_trace, EventStamp, RunOutcome, Stamped, TaggedTrace};
use crate::host::HostRecorder;
use crate::protocol::{run_shard_rounds, ProtocolParams, Shard};
use crate::time::{Tick, Time};
use crate::trace::TraceBuffer;

#[cfg(unix)]
pub use process::{Hub, HubResult, ProcessTransport, WorkerLink, WorkerSetup};

/// Why a transport operation failed. Only the process backend can fail;
/// the in-process backend panics on programming errors instead.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying socket failed (peer died, timed out, or the
    /// connection broke).
    Io(std::io::Error),
    /// The peer sent a frame that violates the round protocol.
    Protocol(String),
    /// The hub aborted the run (another worker failed).
    Aborted,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Protocol(msg) => write!(f, "transport protocol violation: {msg}"),
            TransportError::Aborted => write!(f, "run aborted by the hub"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// The earlier of two optional times; `None` only when both are.
pub(crate) fn earliest(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The identical fold result every shard observes for one round.
pub(crate) struct RoundFold {
    /// Global minimum queue-head time; `None` when every queue is empty.
    pub m: Option<Time>,
    /// Global maximum last-progress tick.
    pub global_progress: Tick,
}

impl RoundFold {
    /// The fold of no shard yet.
    pub(crate) const EMPTY: RoundFold = RoundFold {
        m: None,
        global_progress: 0,
    };

    /// Folds in one shard's `(earliest time, last-progress tick)`: the
    /// earliest time and the latest progress win. The thread transport
    /// and the hub both fold with it, so their answers agree.
    pub(crate) fn with(self, (head, progress): (Option<Time>, Tick)) -> RoundFold {
        RoundFold {
            m: earliest(self.m, head),
            global_progress: self.global_progress.max(progress),
        }
    }
}

/// Keeps the smallest-stamp failure of a round — the one the sequential
/// engine would have hit first.
pub(crate) fn keep_first_failure(
    slot: &mut Option<(EventStamp, String)>,
    failure: Option<(EventStamp, String)>,
) {
    if let Some((stamp, msg)) = failure {
        if slot.as_ref().is_none_or(|(st, _)| stamp < *st) {
            *slot = Some((stamp, msg));
        }
    }
}

/// Moves one round's trace records, gathered from every shard, into the
/// ring in canonical `(stamp, recno)` order; drops them when no ring is
/// armed here.
pub(crate) fn merge_round_traces(buffer: Option<&mut TraceBuffer>, round: &mut Vec<TaggedTrace>) {
    match buffer {
        Some(buffer) => {
            round.sort_unstable_by_key(|t| (t.stamp, t.recno));
            flush_trace(buffer, round);
        }
        None => round.clear(),
    }
}

/// The globally agreed end-of-round state.
pub(crate) struct RoundEnd {
    /// Some shard requested an orderly stop this round.
    pub stopped: bool,
    /// The smallest-stamp failure reported this round, if any.
    pub failure: Option<String>,
    /// The fold the next round starts from.
    pub next: RoundFold,
}

/// What one shard ships at the end of a round.
pub(crate) struct RoundOut<'a, E> {
    /// Per-destination-shard events scheduled this round. Drained by the
    /// transport; capacity is retained for reuse.
    pub outboxes: &'a mut [Vec<(ComponentId, Time, Stamped<E>)>],
    /// Trace records made this round, stamp-tagged for the merge.
    pub traces: &'a mut Vec<TaggedTrace>,
    /// This shard requested an orderly stop.
    pub stop: bool,
    /// This shard's smallest-stamp failure this round.
    pub failure: Option<(EventStamp, String)>,
    /// Events executed locally this round. Strictly informational: the
    /// process transport trails it on the EXCH frame so the hub can feed
    /// the live-progress heartbeat; it never influences what the
    /// transport delivers back. The thread transport ignores it.
    pub events: u64,
    /// This shard's part of the next fold: the earliest of its queue
    /// head and the events in `outboxes`, and its last-progress tick.
    pub next: (Option<Time>, Tick),
}

/// One synchronization backend for the generation-lockstep protocol. See
/// the [module docs](self) for the contract.
pub(crate) trait ShardTransport<E> {
    /// Whether this transport serves a lone shard, which then never
    /// routes an event anywhere but its own queue.
    const SOLO: bool = false;

    /// Ships `out`, then delivers every inbound event (sender order:
    /// shard 0's events first, then shard 1's, …) through `deliver`, and
    /// returns the agreed halt flags and the next round's fold. Blocks
    /// until every shard has contributed.
    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError>;
}

// ---------------------------------------------------------------------------
// One-shard (solo) backend
// ---------------------------------------------------------------------------

/// The transport of a run with a single shard: no peer, so nothing to
/// wait for, ship, or deliver.
pub(crate) struct SoloTransport<'a> {
    buffer: Option<&'a mut TraceBuffer>,
}

impl<'a> SoloTransport<'a> {
    pub(crate) fn new(buffer: Option<&'a mut TraceBuffer>) -> Self {
        SoloTransport { buffer }
    }
}

impl<E> ShardTransport<E> for SoloTransport<'_> {
    const SOLO: bool = true;

    /// One shard's records are already in canonical order, and its fold
    /// is its own head and progress.
    #[inline]
    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        _deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError> {
        if let Some(buffer) = self.buffer.as_deref_mut() {
            flush_trace(buffer, out.traces);
        }
        Ok(RoundEnd {
            stopped: out.stop,
            failure: out.failure.map(|(_, msg)| msg),
            next: RoundFold {
                m: out.next.0,
                global_progress: out.next.1,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// In-process (thread) backend
// ---------------------------------------------------------------------------

/// A sense-reversing spin barrier.
///
/// Rounds are as fine-grained as one generation (often a handful of
/// events), so parking threads on a mutex/condvar barrier would dominate
/// the run time. Threads spin briefly, then yield. The atomics form the
/// usual release/acquire chain, so writes made before a `wait` are
/// visible to every thread after it.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            n,
        }
    }

    /// Blocks until all `n` threads arrive. `local_sense` is each
    /// thread's private phase flag. Panics (poisoning every waiter) if
    /// `poisoned` is raised — see [`PanicFence`].
    fn wait(&self, local_sense: &mut bool, poisoned: &AtomicBool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                if poisoned.load(Ordering::Acquire) {
                    panic!("a sibling shard thread panicked");
                }
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Raises the poison flag if dropped during a panic, so sibling threads
/// spinning at a barrier abort instead of waiting forever.
struct PanicFence<'a> {
    poisoned: &'a AtomicBool,
    armed: bool,
}

impl<'a> PanicFence<'a> {
    /// Arms a fence against the shared poison flag.
    fn arm(poisoned: &'a AtomicBool) -> Self {
        PanicFence {
            poisoned,
            armed: true,
        }
    }

    /// Disarms on the clean exit path.
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for PanicFence<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

/// One pending cross-shard event: target, delivery time, stamped payload.
type OutboxEntry<E> = (ComponentId, Time, Stamped<E>);

/// What the shards write for one round and read after its barrier.
struct RoundSlots<E> {
    /// Per-shard part of the next fold: (earliest time, progress tick).
    heads: Vec<Mutex<(Option<Time>, Tick)>>,
    /// `outboxes[dst][src]`: receivers drain in sender order.
    outboxes: Vec<Vec<Mutex<Vec<OutboxEntry<E>>>>>,
    round_traces: Vec<Mutex<Vec<TaggedTrace>>>,
    stop: AtomicBool,
    failure: Mutex<Option<(EventStamp, String)>>,
}

impl<E> RoundSlots<E> {
    fn new(n: usize) -> Self {
        RoundSlots {
            heads: (0..n).map(|_| Mutex::new((None, 0))).collect(),
            outboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            round_traces: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }
}

/// State shared by every [`ThreadTransport`] endpoint of one run.
///
/// Shards meet at one barrier per round, so a shard that has passed the
/// barrier of round `r` may already be writing round `r + 1` while a
/// slower one still reads round `r`. The slots are therefore kept twice,
/// by round parity: a shard writes a set again only in round `r + 2`,
/// after the barrier of round `r + 1`, which no shard reaches before it
/// has finished reading round `r`. The stop flag and failure are never
/// reset: once raised, every shard halts at that round.
struct ThreadShared<E> {
    barrier: SpinBarrier,
    poisoned: AtomicBool,
    slots: [RoundSlots<E>; 2],
}

impl<E> ThreadShared<E> {
    fn new(n: usize) -> Self {
        ThreadShared {
            barrier: SpinBarrier::new(n),
            poisoned: AtomicBool::new(false),
            slots: [RoundSlots::new(n), RoundSlots::new(n)],
        }
    }
}

/// One shard thread's endpoint of the in-process backend.
struct ThreadTransport<'a, E> {
    shared: &'a ThreadShared<E>,
    s: usize,
    /// The barrier's phase flag. It flips once per round, so it doubles
    /// as the round parity that picks the slot set.
    local_sense: bool,
    /// Only the first shard holds the trace ring and performs the merge.
    buffer: Option<&'a mut TraceBuffer>,
    merge_scratch: Vec<TaggedTrace>,
}

impl<'a, E> ThreadTransport<'a, E> {
    fn new(shared: &'a ThreadShared<E>, s: usize, buffer: Option<&'a mut TraceBuffer>) -> Self {
        ThreadTransport {
            shared,
            s,
            local_sense: false,
            buffer,
            merge_scratch: Vec::new(),
        }
    }
}

impl<E> ShardTransport<E> for ThreadTransport<'_, E> {
    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError> {
        let sh = self.shared;
        let s = self.s;
        let slots = &sh.slots[usize::from(self.local_sense)];
        if out.failure.is_some() {
            keep_first_failure(&mut slots.failure.lock().unwrap(), out.failure);
        }
        if out.stop {
            slots.stop.store(true, Ordering::Release);
        }
        // Ship remote events, this round's traces, and the fold input.
        for (dst, o) in out.outboxes.iter_mut().enumerate() {
            if !o.is_empty() {
                slots.outboxes[dst][s].lock().unwrap().append(o);
            }
        }
        if !out.traces.is_empty() {
            slots.round_traces[s].lock().unwrap().append(out.traces);
        }
        *slots.heads[s].lock().unwrap() = out.next;
        sh.barrier.wait(&mut self.local_sense, &sh.poisoned);

        // Merge traces (shard 0), deliver inboxes, observe halt flags and
        // fold — all consistent because every write preceded the barrier.
        if let Some(buffer) = self.buffer.as_deref_mut() {
            for rt in &slots.round_traces {
                self.merge_scratch.append(&mut rt.lock().unwrap());
            }
            merge_round_traces(Some(buffer), &mut self.merge_scratch);
        }
        for src in slots.outboxes[s].iter() {
            let mut v = std::mem::take(&mut *src.lock().unwrap());
            for (target, time, stamped) in v.drain(..) {
                deliver(target, time, stamped);
            }
            // Return the drained vector so its capacity is reused instead
            // of reallocated by the sender, which writes this slot again
            // two rounds on.
            *src.lock().unwrap() = v;
        }
        let failure = slots
            .failure
            .lock()
            .unwrap()
            .as_ref()
            .map(|(_, msg)| msg.clone());
        let stopped = slots.stop.load(Ordering::Acquire);
        // Identical computation on every shard: same inputs, same result,
        // no coordinator.
        let heads = slots.heads.iter().map(|h| *h.lock().unwrap());
        let next = heads.fold(RoundFold::EMPTY, RoundFold::with);
        Ok(RoundEnd {
            stopped,
            failure,
            next,
        })
    }
}

/// Runs one stretch of rounds of `shards`, one scoped thread per shard
/// over the barrier transport, each with its own host recorder. The
/// first shard holds `trace` and performs the merge. Returns what every
/// shard's loop returned — the same for all of them, since each halt is
/// decided from the shared fold.
pub(crate) fn run_threads<E: Send + 'static>(
    shards: &mut [Shard<E>],
    hosts: &mut [HostRecorder],
    mut trace: Option<&mut TraceBuffer>,
    params: &ProtocolParams<'_>,
) -> (RunOutcome, Time, Tick) {
    let shared: ThreadShared<E> = ThreadShared::new(shards.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(hosts)
            .enumerate()
            .map(|(s, (shard, host))| {
                let buffer = trace.take();
                let shared = &shared;
                scope.spawn(move || {
                    let mut fence = PanicFence::arm(&shared.poisoned);
                    let mut transport = ThreadTransport::new(shared, s, buffer);
                    let params = ProtocolParams {
                        my_shard: s as u32,
                        ..*params
                    };
                    let r = run_shard_rounds(shard, &params, &mut transport, host)
                        .expect("the in-process transport is infallible");
                    fence.disarm();
                    r
                })
            })
            .collect();
        let mut agreed = None;
        for h in handles {
            let r = h.join().expect("shard thread panicked");
            debug_assert!(
                agreed.as_ref().is_none_or(|a| *a == r),
                "shards disagreed on the run outcome"
            );
            agreed = Some(r);
        }
        agreed.expect("at least one shard")
    })
}

// ---------------------------------------------------------------------------
// Multi-process (Unix socket) backend
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod process {
    use std::io::{self, BufReader, BufWriter};
    use std::ops::Range;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    use super::{
        keep_first_failure, merge_round_traces, RoundEnd, RoundFold, RoundOut, ShardTransport,
        TransportError,
    };
    use crate::component::ComponentId;
    use crate::engine::{
        EngineMetrics, EngineOptions, EventStamp, RunOutcome, Stamped, TaggedTrace,
    };
    use crate::host::{HostShardTimes, HubHostStats, ProgressShared};
    use crate::snapshot::put_trace;
    use crate::time::{Tick, Time};
    use crate::trace::TraceBuffer;
    use crate::wire::{
        get_bytes, get_len, put_bytes, put_each, put_section, read_frame, read_frame_into,
        write_frame, WireCodec, FRAME_HEADER,
    };

    /// Frame tags of the worker ↔ hub protocol, in handshake order.
    pub(crate) mod tag {
        pub const HELLO: u8 = 1;
        pub const SETUP: u8 = 2;
        pub const EXCH: u8 = 5;
        pub const EXCH_R: u8 = 6;
        pub const DONE: u8 = 7;
        pub const ABORT: u8 = 9;
        pub const CKPT: u8 = 10;
    }

    fn proto_err<T>(msg: impl Into<String>) -> Result<T, TransportError> {
        Err(TransportError::Protocol(msg.into()))
    }

    /// Deliberate mid-run worker misbehavior for robustness tests,
    /// driven by the `SUPERSIM_TEST_WORKER_FAIL` environment variable:
    /// `"exit:<worker>:<round>"` makes that worker exit abruptly at that
    /// exchange round, `"hang:<worker>:<round>"` makes it sleep forever.
    #[derive(Clone, Copy)]
    enum FailMode {
        Exit,
        Hang,
    }

    fn parse_fail_hook(my_index: u32) -> Option<(FailMode, u64)> {
        let spec = std::env::var("SUPERSIM_TEST_WORKER_FAIL").ok()?;
        let mut parts = spec.split(':');
        let mode = match parts.next()? {
            "exit" => FailMode::Exit,
            "hang" => FailMode::Hang,
            _ => return None,
        };
        let worker: u32 = parts.next()?.parse().ok()?;
        let round: u64 = parts.next()?.parse().ok()?;
        (worker == my_index).then_some((mode, round))
    }

    /// What the hub tells a worker right after the handshake.
    pub struct WorkerSetup {
        /// Total number of workers in the run.
        pub workers: u32,
        /// Socket read timeout both sides use, in milliseconds.
        pub timeout_ms: u64,
        /// Opaque application payload (e.g. the resolved configuration).
        pub payload: Vec<u8>,
    }

    /// A worker's endpoint of the process backend: one Unix socket to the
    /// parent [`Hub`].
    pub struct ProcessTransport {
        reader: BufReader<UnixStream>,
        writer: BufWriter<UnixStream>,
        num_workers: u32,
        scratch: Vec<u8>,
        /// The body of the last frame read, reused across rounds.
        inbox: Vec<u8>,
        fail_hook: Option<(FailMode, u64)>,
        rounds: u64,
    }

    impl ProcessTransport {
        /// Reads the next frame into `inbox`, which must carry `want`.
        fn read_expect(&mut self, want: u8) -> Result<(), TransportError> {
            let tag = read_frame_into(&mut self.reader, &mut self.inbox)?;
            if tag == tag::ABORT {
                return Err(TransportError::Aborted);
            }
            if tag != want {
                return proto_err(format!("expected frame tag {want}, got {tag}"));
            }
            Ok(())
        }
    }

    impl<E: WireCodec> ShardTransport<E> for ProcessTransport {
        fn exchange(
            &mut self,
            out: RoundOut<'_, E>,
            deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
        ) -> Result<RoundEnd, TransportError> {
            if let Some((mode, round)) = self.fail_hook {
                if self.rounds == round {
                    match mode {
                        FailMode::Exit => std::process::exit(17),
                        FailMode::Hang => loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        },
                    }
                }
            }
            self.rounds += 1;
            self.scratch.clear();
            let mut body = std::mem::take(&mut self.scratch);
            out.next.encode(&mut body);
            out.stop.encode(&mut body);
            out.failure.encode(&mut body);
            out.traces.encode(&mut body);
            out.traces.clear();
            // One section per destination shard; its interior (count +
            // events) is opaque to the hub, which only concatenates the
            // sections in sender order.
            for o in out.outboxes.iter_mut() {
                put_section(&mut body, |b| o.encode(b));
                o.clear();
            }
            // Trailing, strictly informational: events executed this
            // round, feeding the hub's live-progress board. The hub
            // never copies it into any EXCH_R reply, so event delivery
            // is provably independent of it.
            out.events.encode(&mut body);
            write_frame(&mut self.writer, tag::EXCH, &body)?;
            self.scratch = body;

            self.read_expect(tag::EXCH_R)?;
            let buf = &mut self.inbox.as_slice();
            let Some((stopped, failure, m, global_progress)) = ReplyHead::decode(buf) else {
                return proto_err("malformed EXCH_R");
            };
            // The inbox: one count-prefixed event list per source shard,
            // in sender order.
            for _src in 0..self.num_workers {
                let Some(count) = get_len(buf) else {
                    return proto_err("malformed EXCH_R inbox");
                };
                for _ in 0..count {
                    let Some((target, time, stamped)) = WireCodec::decode(buf) else {
                        return proto_err("malformed EXCH_R event");
                    };
                    deliver(target, time, stamped);
                }
            }
            Ok(RoundEnd {
                stopped,
                failure,
                next: RoundFold { m, global_progress },
            })
        }
    }

    /// The head of an EXCH_R body, the same for every worker: the agreed
    /// stop flag and failure, then the next round's fold. The worker's
    /// inbox follows.
    type ReplyHead = (bool, Option<String>, Option<Time>, Tick);

    /// The head of a DONE body: the outcome, the final time, the shard's
    /// executor metrics and host-time record. The final shard blob
    /// follows, length-prefixed.
    type DoneHead = (RunOutcome, Time, EngineMetrics, HostShardTimes);

    /// A cheaply clonable handle to a worker's [`ProcessTransport`].
    ///
    /// The simulator locks the transport for each stretch of rounds, but
    /// the process entry point also ships frames between and after them
    /// — checkpoints at every pause, DONE at the end — hence the shared
    /// handle. One worker process drives one socket, so the lock is never
    /// contended; it only keeps a worker's [`Simulator`](crate::Simulator)
    /// `Send`.
    #[derive(Clone)]
    pub struct WorkerLink(Arc<Mutex<ProcessTransport>>);

    impl WorkerLink {
        /// Connects to the hub at `path`, introduces this worker by
        /// `index`, and waits for the hub's setup frame.
        pub fn connect(
            path: &str,
            index: u32,
        ) -> Result<(WorkerLink, WorkerSetup), TransportError> {
            let stream = UnixStream::connect(path)?;
            let writer = BufWriter::new(stream.try_clone()?);
            let mut transport = ProcessTransport {
                reader: BufReader::new(stream),
                writer,
                num_workers: 0,
                scratch: Vec::new(),
                inbox: Vec::new(),
                fail_hook: parse_fail_hook(index),
                rounds: 0,
            };
            let mut hello = Vec::new();
            index.encode(&mut hello);
            write_frame(&mut transport.writer, tag::HELLO, &hello)?;
            transport.read_expect(tag::SETUP)?;
            let buf = &mut transport.inbox.as_slice();
            let setup = (|| {
                Some(WorkerSetup {
                    workers: u32::decode(buf)?,
                    timeout_ms: u64::decode(buf)?,
                    payload: get_bytes(buf)?.to_vec(),
                })
            })();
            let Some(setup) = setup else {
                return proto_err("malformed SETUP");
            };
            transport.num_workers = setup.workers;
            // A dead or wedged parent must not strand the worker: reads
            // time out with the same budget the hub uses.
            if setup.timeout_ms > 0 {
                transport
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(Duration::from_millis(setup.timeout_ms)))?;
            }
            Ok((WorkerLink(Arc::new(Mutex::new(transport))), setup))
        }

        /// The transport, held for one stretch of rounds or one frame.
        pub(crate) fn transport(&self) -> MutexGuard<'_, ProcessTransport> {
            self.0
                .lock()
                .expect("a worker's transport lock is only poisoned by a panic mid-frame")
        }

        /// Ships this shard's blob ([`Overlay::save`]) captured
        /// at the checkpoint boundary `at`. Fire-and-forget: the worker
        /// resumes immediately; the hub collects one CKPT from every
        /// worker (the tick-limit pause is unanimous, so the frames
        /// arrive in lockstep) and assembles the checkpoint file.
        ///
        /// [`Overlay::save`]: crate::wire::Overlay::save
        pub fn checkpoint(&self, at: Time, blob: &[u8]) -> Result<(), TransportError> {
            let mut body = Vec::new();
            at.encode(&mut body);
            put_bytes(&mut body, blob);
            write_frame(&mut self.transport().writer, tag::CKPT, &body)?;
            Ok(())
        }

        /// Ends the run for the hub with the DONE frame: the outcome (the
        /// fold makes it identical on every worker), the final time, this
        /// shard's executor metrics and host-time record (all-zero when
        /// profiling is disarmed), and its final shard blob — everything
        /// the parent reads the report from. Also sent after an abort, so
        /// a survivor's state still reaches the parent; a send failure is
        /// returned but the worker can still exit cleanly.
        pub fn finish(
            &self,
            outcome: &RunOutcome,
            now: Time,
            metrics: &EngineMetrics,
            host: &HostShardTimes,
            state: &[u8],
        ) -> Result<(), TransportError> {
            let mut body = Vec::new();
            outcome.encode(&mut body);
            now.encode(&mut body);
            metrics.encode(&mut body);
            host.encode(&mut body);
            put_bytes(&mut body, state);
            write_frame(&mut self.transport().writer, tag::DONE, &body)?;
            Ok(())
        }
    }

    // -----------------------------------------------------------------
    // Hub (parent side)
    // -----------------------------------------------------------------

    struct HubConn {
        reader: BufReader<UnixStream>,
        writer: BufWriter<UnixStream>,
        alive: bool,
    }

    /// What the hub hands back when the run ends (or degrades).
    pub struct HubResult {
        /// The agreed run outcome (from the workers' DONE frames), or a
        /// synthesized failure when the run degraded.
        pub outcome: RunOutcome,
        /// Time of the last executed generation.
        pub end_time: Time,
        /// Per-worker executor metrics, in worker order. Empty when the
        /// run degraded before completion.
        pub metrics: Vec<EngineMetrics>,
        /// Per-worker host-time records from the DONE frames, in worker
        /// order (all-zero records when profiling was disarmed). Empty
        /// when the run degraded.
        pub host: Vec<HostShardTimes>,
        /// Hub-side round and wire accounting for the run.
        pub hub_stats: HubHostStats,
        /// Per-worker final shard blobs from the DONE frames, in worker
        /// order, unread. `None` for a worker that delivered none.
        pub shards: Vec<Option<Vec<u8>>>,
        /// The merged trace ring, when tracing was armed.
        pub trace: Option<TraceBuffer>,
        /// `Some((worker, reason))` when a worker died or hung and the
        /// run was aborted; the remaining fields hold best-effort data.
        pub error: Option<(u32, String)>,
    }

    /// The parent-side relay of the process backend.
    ///
    /// The hub is payload-agnostic: each round it folds the workers'
    /// heads, progress ticks and stop/failure flags, concatenates outbox
    /// blobs in sender order, and merges trace records. It knows nothing
    /// about tick limits or watchdogs — every halt decision is taken
    /// worker-side from the identical fold values, so the workers halt
    /// unanimously and tell the hub via their DONE frames.
    pub struct Hub {
        conns: Vec<HubConn>,
        trace: Option<TraceBuffer>,
        merge_scratch: Vec<TaggedTrace>,
        rounds: u64,
        /// Frame bytes in/out per worker, headers included (always
        /// counted; a u64 add per frame).
        wire_in: Vec<u64>,
        wire_out: Vec<u64>,
        /// Each worker's last frame, tag and body, reused across rounds.
        tags: Vec<u8>,
        bodies: Vec<Vec<u8>>,
        /// `sections[src * n + dst]`: where in `bodies[src]` the events
        /// from `src` to `dst` lie, for this round's replies.
        sections: Vec<Range<usize>>,
        /// The reply being assembled, reused across workers and rounds.
        reply: Vec<u8>,
        /// Cumulative executed-event counts per worker, rebuilt from
        /// the informational deltas trailing each EXCH frame.
        events_cum: Vec<u64>,
        progress: Option<Arc<ProgressShared>>,
    }

    impl Hub {
        /// Accepts `n` worker connections on `listener`, orders them by
        /// their HELLO index, and sends each the setup frame. `timeout`
        /// bounds the whole accept phase and every later read.
        ///
        /// `options` are the fleet's [`EngineOptions`]; the hub acts on
        /// its share of them for its whole life: `trace` sizes the merged
        /// trace ring, and `progress` is the live board the hub publishes
        /// to as rounds complete (fold tick, round count, per-worker
        /// cumulative executed events). The board is purely host-side
        /// observability — the wire protocol and every reply the hub
        /// sends are byte-identical either way.
        pub fn accept(
            listener: &UnixListener,
            n: u32,
            timeout: Duration,
            setup_payload: &[u8],
            options: &EngineOptions,
        ) -> Result<Hub, TransportError> {
            listener.set_nonblocking(true)?;
            let deadline = Instant::now() + timeout;
            let mut conns: Vec<Option<HubConn>> = (0..n).map(|_| None).collect();
            let mut connected = 0u32;
            while connected < n {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_read_timeout(Some(timeout))?;
                        let mut reader = BufReader::new(stream.try_clone()?);
                        let (tag, body) = read_frame(&mut reader)?;
                        if tag != tag::HELLO {
                            return proto_err(format!("expected HELLO, got tag {tag}"));
                        }
                        let Some(index) = u64::decode(&mut body.as_slice()) else {
                            return proto_err("malformed HELLO");
                        };
                        let idx = usize::try_from(index)
                            .ok()
                            .filter(|&i| i < n as usize)
                            .ok_or_else(|| {
                                TransportError::Protocol(format!(
                                    "worker index {index} out of range"
                                ))
                            })?;
                        if conns[idx].is_some() {
                            return proto_err(format!("duplicate worker index {idx}"));
                        }
                        conns[idx] = Some(HubConn {
                            writer: BufWriter::new(stream),
                            reader,
                            alive: true,
                        });
                        connected += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(TransportError::Io(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("only {connected}/{n} workers connected"),
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(TransportError::Io(e)),
                }
            }
            let mut conns: Vec<HubConn> = conns.into_iter().map(|c| c.unwrap()).collect();
            let mut setup = Vec::new();
            (n, timeout.as_millis() as u64).encode(&mut setup);
            put_bytes(&mut setup, setup_payload);
            for c in &mut conns {
                write_frame(&mut c.writer, tag::SETUP, &setup)?;
            }
            let n = conns.len();
            Ok(Hub {
                conns,
                trace: options.trace_ring(),
                merge_scratch: Vec::new(),
                rounds: 0,
                wire_in: vec![0; n],
                wire_out: vec![0; n],
                tags: vec![0; n],
                bodies: vec![Vec::new(); n],
                sections: vec![0..0; n * n],
                reply: Vec::new(),
                events_cum: vec![0; n],
                progress: options.progress.clone(),
            })
        }

        /// Hub-side round and wire accounting accumulated so far.
        pub fn host_stats(&self) -> HubHostStats {
            HubHostStats {
                rounds: self.rounds,
                wire_in_bytes: self.wire_in.clone(),
                wire_out_bytes: self.wire_out.clone(),
            }
        }

        /// Restores the hub-side trace ring from a checkpoint's engine
        /// blob. Only the leading trace section is consumed — the shard
        /// blobs are each worker's concern. `false` on malformed input
        /// or an armed/disarmed mismatch. Must run before [`Hub::run`]:
        /// the ring otherwise replays post-checkpoint records the
        /// resumed run will produce again.
        pub fn load_trace(&mut self, buf: &mut &[u8]) -> bool {
            crate::snapshot::get_trace(buf, self.trace.as_mut()).is_some()
        }

        /// Drives rounds until every worker reports DONE and hands back
        /// their final shard blobs with the merged trace ring. Each time
        /// every worker has shipped a CKPT frame for one boundary,
        /// `checkpoint` receives the boundary time and the engine blob
        /// assembled from them (trace section + shard blobs, the uniform
        /// layout every backend writes). A *worker* failure never stops
        /// the hub: it degrades into `HubResult::error` with whatever
        /// blobs the survivors deliver.
        pub fn run(&mut self, checkpoint: &mut dyn FnMut(Time, &[u8])) -> HubResult {
            match self.run_rounds(checkpoint) {
                Ok(result) => result,
                Err((worker, reason)) => self.degrade(worker, reason),
            }
        }

        /// Reads worker `w`'s next frame into `tags[w]` and `bodies[w]`,
        /// or fails with `(index, reason)`.
        fn read_from(&mut self, w: usize) -> Result<u8, (u32, String)> {
            let conn = &mut self.conns[w];
            let tag = read_frame_into(&mut conn.reader, &mut self.bodies[w]).map_err(|e| {
                conn.alive = false;
                let reason = match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        "no frame within the timeout budget (worker hung?)".to_string()
                    }
                    io::ErrorKind::UnexpectedEof => "connection closed (worker died?)".to_string(),
                    _ => e.to_string(),
                };
                (w as u32, reason)
            })?;
            self.wire_in[w] += (FRAME_HEADER + self.bodies[w].len()) as u64;
            self.tags[w] = tag;
            Ok(tag)
        }

        fn send_to(&mut self, w: usize, tag: u8, body: &[u8]) -> Result<(), (u32, String)> {
            self.wire_out[w] += (FRAME_HEADER + body.len()) as u64;
            write_frame(&mut self.conns[w].writer, tag, body).map_err(|e| {
                self.conns[w].alive = false;
                (w as u32, e.to_string())
            })
        }

        fn run_rounds(
            &mut self,
            checkpoint: &mut dyn FnMut(Time, &[u8]),
        ) -> Result<HubResult, (u32, String)> {
            let n = self.conns.len();
            loop {
                // Workers act in lockstep: each round every worker sends
                // the same next tag, so frames can be read in worker
                // order without a poll loop.
                for w in 0..n {
                    self.read_from(w)?;
                }
                let round_tag = self.tags[0];
                if let Some(w) = self.tags.iter().position(|&t| t != round_tag) {
                    return Err((
                        w as u32,
                        format!(
                            "protocol desync: expected tag {round_tag}, got {}",
                            self.tags[w]
                        ),
                    ));
                }
                match round_tag {
                    tag::EXCH => self.round_exchange()?,
                    tag::CKPT => self.round_checkpoint(checkpoint)?,
                    tag::DONE => return self.collect_done(),
                    other => {
                        return Err((0, format!("unexpected frame tag {other} mid-run")));
                    }
                }
            }
        }

        fn round_exchange(&mut self) -> Result<(), (u32, String)> {
            let n = self.conns.len();
            let mut fold = RoundFold::EMPTY;
            let mut stopped = false;
            let mut failure: Option<(EventStamp, String)> = None;
            for (w, body) in self.bodies.iter().enumerate() {
                let buf = &mut body.as_slice();
                // The opaque (count + events) byte run to each worker.
                let sections = &mut self.sections[w * n..(w + 1) * n];
                let parsed = (|| {
                    let head = <(Option<Time>, Tick)>::decode(buf)?;
                    let stop = bool::decode(buf)?;
                    let fail = Option::<(EventStamp, String)>::decode(buf)?;
                    let traces = Vec::<TaggedTrace>::decode(buf)?;
                    for section in sections.iter_mut() {
                        let len = get_bytes(buf)?.len();
                        let end = body.len() - buf.len();
                        *section = end - len..end;
                    }
                    // Informational per-round executed-event delta,
                    // trailing so older payload parsers stay valid. It
                    // feeds the progress board only — never any reply.
                    let events = u64::decode(buf).unwrap_or(0);
                    Some((head, stop, fail, traces, events))
                })();
                let Some((head, stop, fail, mut traces, events)) = parsed else {
                    return Err((w as u32, "malformed EXCH".into()));
                };
                self.events_cum[w] += events;
                if let Some(board) = &self.progress {
                    board.record_events(w, self.events_cum[w]);
                }
                fold = fold.with(head);
                stopped |= stop;
                keep_first_failure(&mut failure, fail);
                self.merge_scratch.append(&mut traces);
            }
            merge_round_traces(self.trace.as_mut(), &mut self.merge_scratch);
            let RoundFold { m, global_progress } = fold;
            // Every reply is the shared head, then the sections addressed
            // to its worker in sender order.
            let mut reply = std::mem::take(&mut self.reply);
            reply.clear();
            (stopped, failure.map(|(_, msg)| msg), m, global_progress).encode(&mut reply);
            let head = reply.len();
            for dst in 0..n {
                reply.truncate(head);
                for (src, body) in self.bodies.iter().enumerate() {
                    reply.extend_from_slice(&body[self.sections[src * n + dst].clone()]);
                }
                if let Err(e) = self.send_to(dst, tag::EXCH_R, &reply) {
                    self.reply = reply;
                    return Err(e);
                }
            }
            self.reply = reply;
            self.rounds += 1;
            if let Some(board) = &self.progress {
                if let Some(m) = m {
                    board.record_tick(m.tick());
                }
                board.add_round();
            }
            Ok(())
        }

        /// Every worker paused at the same checkpoint boundary and
        /// shipped its shard blob. Assemble the uniform engine blob
        /// (hub-side trace ring + shard blobs in worker order) and hand
        /// it to `checkpoint`. No reply: workers resumed already.
        fn round_checkpoint(
            &mut self,
            checkpoint: &mut dyn FnMut(Time, &[u8]),
        ) -> Result<(), (u32, String)> {
            let mut at: Option<Time> = None;
            let mut shard_blobs: Vec<&[u8]> = Vec::with_capacity(self.bodies.len());
            for (w, body) in self.bodies.iter().enumerate() {
                let buf = &mut body.as_slice();
                let parsed = Time::decode(buf).and_then(|t| Some((t, get_bytes(buf)?)));
                let Some((t, blob)) = parsed else {
                    return Err((w as u32, "malformed CKPT".into()));
                };
                if *at.get_or_insert(t) != t {
                    return Err((w as u32, "workers disagreed on the checkpoint tick".into()));
                }
                shard_blobs.push(blob);
            }
            let Some(at) = at else { return Ok(()) };
            let mut engine = Vec::new();
            put_trace(&mut engine, self.trace.as_ref());
            put_each(&mut engine, &shard_blobs, |blob, o| put_bytes(o, blob));
            checkpoint(at, &engine);
            Ok(())
        }

        fn collect_done(&mut self) -> Result<HubResult, (u32, String)> {
            let n = self.bodies.len();
            let mut outcome: Option<RunOutcome> = None;
            let mut end_time = Time::ZERO;
            let mut metrics = Vec::with_capacity(n);
            let mut host = Vec::with_capacity(n);
            let mut shards = Vec::with_capacity(n);
            for w in 0..n {
                let Some(((o, now, m, h), state)) = parse_done(std::mem::take(&mut self.bodies[w]))
                else {
                    return Err((w as u32, "malformed DONE".into()));
                };
                debug_assert!(
                    outcome.as_ref().is_none_or(|prev| *prev == o),
                    "workers disagreed on the run outcome"
                );
                outcome.get_or_insert(o);
                end_time = now;
                metrics.push(m);
                host.push(h);
                shards.push(Some(state));
            }
            Ok(HubResult {
                outcome: outcome.unwrap_or(RunOutcome::Drained),
                end_time,
                metrics,
                host,
                hub_stats: self.host_stats(),
                shards,
                trace: self.trace.take(),
                error: None,
            })
        }

        /// A worker died or hung: abort the survivors and collect
        /// whatever final shard blobs they can still deliver.
        fn degrade(&mut self, worker: u32, reason: String) -> HubResult {
            let n = self.conns.len();
            for w in 0..n {
                if self.conns[w].alive {
                    let _ = self.send_to(w, tag::ABORT, &[]);
                }
            }
            let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
            for w in 0..n {
                if !self.conns[w].alive {
                    shards.push(None);
                    continue;
                }
                // The worker may still have pre-abort frames in flight
                // (its last EXCH, or a CKPT); skip to its DONE.
                let mut found = None;
                for _ in 0..64 {
                    match self.read_from(w) {
                        Ok(tag::DONE) => {
                            let body = std::mem::take(&mut self.bodies[w]);
                            found = parse_done(body).map(|(_, state)| state);
                            break;
                        }
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
                shards.push(found);
            }
            HubResult {
                outcome: RunOutcome::Failed(format!("worker {worker}: {reason}")),
                end_time: Time::ZERO,
                metrics: Vec::new(),
                host: Vec::new(),
                hub_stats: self.host_stats(),
                shards,
                trace: self.trace.take(),
                error: Some((worker, reason)),
            }
        }
    }

    /// Splits a DONE body into its head and the final shard blob, which
    /// keeps the body's allocation.
    fn parse_done(mut body: Vec<u8>) -> Option<(DoneHead, Vec<u8>)> {
        let buf = &mut &body[..];
        let head = DoneHead::decode(buf)?;
        let len = get_len(buf)?;
        if buf.len() != len {
            return None;
        }
        body.drain(..body.len() - len);
        Some((head, body))
    }
}
