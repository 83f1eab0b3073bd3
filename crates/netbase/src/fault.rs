//! Deterministic fault injection and link-level retransmission.
//!
//! The fault plane perturbs the network at its channels — the only place
//! where components touch each other — so every model (router
//! architectures, interfaces) gains fault tolerance through one shared
//! mechanism instead of per-model code:
//!
//! - **link outages** (scheduled via [`ScheduledOutage`] or drawn
//!   stochastically) silently drop flits on the wire for an interval,
//! - **bit errors** corrupt a flit's header [`Flit::crc`] in flight,
//! - **credit loss** swallows a returning flow-control credit.
//!
//! Recovery is a stop-and-wait link-level retransmission protocol kept in
//! per-output-port [`LinkFaults`] state: a dropped flit is retransmitted
//! after an exponential-backoff timeout (the sender self-schedules an
//! [`Ev::Internal`] timer tagged with [`RETRY_TAG`]); a corrupted flit is
//! detected by the receiver's checksum ([`Flit::crc_ok`]), discarded, and
//! nacked upstream ([`Ev::Nack`]); the first clean redelivery after a
//! corruption episode is acked ([`Ev::Ack`]) so the sender can release the
//! replayed flit. While an episode is unresolved, later flits for the same
//! output port wait in a FIFO hold queue — channels are in-order, so
//! wormhole and VC ordering invariants survive retransmission. When
//! `fault.retry.max` consecutive attempts fail, the episode escalates as a
//! typed [`FaultError`] through the engine's failure path.
//!
//! Determinism: every stochastic draw comes from the *sending* component's
//! own RNG stream (`Context::rng`), which is a pure function of
//! `(seed, component index)`. Neither the simulator's layout nor the
//! shard count can perturb a draw, so fault schedules — and therefore
//! entire faulty runs — are bit-identical across one shard and any split
//! for one `(configuration, seed)`. Lost credits are *not*
//! recovered; at high `fault.credit_loss_rate` a run starves into the
//! watchdog on purpose.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_des::{Context, Tick, Time};

use crate::event::Ev;
use crate::flit::Flit;
use crate::ids::Port;
use crate::link::LinkTarget;
use crate::trace::{FlitTraceExt, TraceKind};

/// High bits of the [`Ev::Internal`] tag used for retransmission timers.
pub const RETRY_TAG: u64 = 0xFA17_0000_0000_0000;

/// Encodes a retransmission-timer tag for an output port.
#[inline]
pub fn retry_tag(port: Port) -> u64 {
    RETRY_TAG | port as u64
}

/// Decodes a retransmission-timer tag back into its output port, or
/// `None` when the tag belongs to someone else.
#[inline]
pub fn retry_port(tag: u64) -> Option<Port> {
    (tag & !0xFFFF_FFFF == RETRY_TAG).then_some((tag & 0xFFFF_FFFF) as Port)
}

/// Identifies one directed link (by its sending endpoint) for outage
/// scheduling and error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkId {
    /// The channel out of `port` of router `router`.
    Router {
        /// Router index in the topology.
        router: u32,
        /// Output port of that router.
        port: Port,
    },
    /// The injection channel of terminal `terminal`.
    Terminal {
        /// Terminal index.
        terminal: u32,
    },
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkId::Router { router, port } => write!(f, "r{router}:p{port}"),
            LinkId::Terminal { terminal } => write!(f, "t{terminal}"),
        }
    }
}

/// A config-scheduled link outage over the half-open interval
/// `[start, end)` in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOutage {
    /// Which link goes down.
    pub link: LinkId,
    /// First tick of the outage.
    pub start: Tick,
    /// First tick after the outage.
    pub end: Tick,
}

/// Fault-injection parameters (the `fault.*` configuration keys).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one flit transmission is corrupted in flight.
    pub bit_error_rate: f64,
    /// Probability that one returning credit is lost (never recovered).
    pub credit_loss_rate: f64,
    /// Probability that one flit transmission starts a stochastic outage.
    pub outage_rate: f64,
    /// Duration in ticks of a stochastic outage.
    pub outage_duration: Tick,
    /// Consecutive failed transmissions tolerated before escalating.
    pub max_retries: u32,
    /// Base retransmission backoff in ticks; attempt `n` waits
    /// `backoff_base << (n - 1)`.
    pub backoff_base: Tick,
    /// Deterministically scheduled outages.
    pub outages: Vec<ScheduledOutage>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            bit_error_rate: 0.0,
            credit_loss_rate: 0.0,
            outage_rate: 0.0,
            outage_duration: 0,
            max_retries: 8,
            backoff_base: 1,
            outages: Vec::new(),
        }
    }
}

/// The immutable, simulation-wide fault schedule, shared by every
/// component behind an [`Arc`].
#[derive(Debug)]
pub struct FaultPlane {
    /// The injection parameters.
    pub config: FaultConfig,
}

impl FaultPlane {
    /// Wraps a configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlane { config }
    }

    /// Whether `link` is inside a scheduled outage at `tick`.
    #[inline]
    pub fn in_scheduled_outage(&self, link: LinkId, tick: Tick) -> bool {
        self.config
            .outages
            .iter()
            .any(|o| o.link == link && o.start <= tick && tick < o.end)
    }
}

/// A typed unrecoverable fault, escalated through the engine's failure
/// path when retransmission gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// Every allowed retransmission of a flit failed.
    RetriesExhausted {
        /// The link that kept failing.
        link: LinkId,
        /// How many transmissions were attempted.
        attempts: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RetriesExhausted { link, attempts } => write!(
                f,
                "fault: link {link} retries exhausted after {attempts} failed transmissions"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Fault lifecycle counters, aggregated into the `fault` metrics plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected (drops, corruptions, lost credits).
    pub injected: u64,
    /// Corruptions caught by the receiver's checksum.
    pub detected: u64,
    /// Fault episodes resolved by retransmission.
    pub recovered: u64,
    /// Episodes that exhausted their retries.
    pub escalated: u64,
    /// Flit payload copies made by the fault plane. Every copy is on an
    /// episode path (corrupt deliveries, retransmission snapshots); a
    /// fault-enabled run with zero injections makes zero copies, which
    /// the profiling plane asserts.
    pub flit_clones: u64,
}

impl FaultCounters {
    /// Accumulates another component's counters into this one.
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.escalated += other.escalated;
        self.flit_clones += other.flit_clones;
    }
}

/// Sender-side retransmission state for one output port.
#[derive(Debug)]
struct TxState {
    /// Identity of the outgoing channel (for outage lookup and errors).
    link: LinkId,
    /// The flit whose episode is unresolved, with its delivery delay.
    outstanding: Option<(Tick, Flit)>,
    /// Whether the current episode ever corrupted a delivery — if so the
    /// receiver holds an `awaiting_retx` flag and recovery needs its ack.
    corrupt_seen: bool,
    /// Failed transmissions in the current episode.
    attempts: u32,
    /// Flits departed while the episode was unresolved (FIFO order).
    hold: VecDeque<(Tick, Flit)>,
    /// End of the current stochastic outage, if one is active.
    outage_until: Tick,
    /// The episode escalated; the port is dead.
    escalated: bool,
}

/// Receiver-side state for one input port.
#[derive(Debug, Default)]
struct RxState {
    /// A corrupt flit was discarded; the next clean arrival is the
    /// retransmission and must be acked.
    awaiting_retx: bool,
}

/// Per-component fault machinery: wraps every flit send, receive, and
/// credit return of one router or interface.
///
/// Components hold `Option<LinkFaults>` — `None` when the fault plane is
/// disabled, so the healthy fast path costs exactly one branch.
#[derive(Debug)]
pub struct LinkFaults {
    plane: Arc<FaultPlane>,
    tx: Vec<TxState>,
    rx: Vec<RxState>,
    /// Lifecycle counters for the metrics plane.
    pub counters: FaultCounters,
}

impl LinkFaults {
    /// Creates fault state for a component with one entry per port;
    /// `links[p]` names the outgoing channel of output port `p`.
    pub fn new(plane: Arc<FaultPlane>, links: Vec<LinkId>) -> Self {
        let n = links.len();
        LinkFaults {
            plane,
            tx: links
                .into_iter()
                .map(|link| TxState {
                    link,
                    outstanding: None,
                    corrupt_seen: false,
                    attempts: 0,
                    hold: VecDeque::new(),
                    outage_until: 0,
                    escalated: false,
                })
                .collect(),
            rx: (0..n).map(|_| RxState::default()).collect(),
            counters: FaultCounters::default(),
        }
    }

    /// The shared fault schedule.
    pub fn plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// Whether any output port has an unresolved fault episode.
    pub fn busy(&self) -> bool {
        self.tx
            .iter()
            .any(|t| t.outstanding.is_some() || !t.hold.is_empty())
    }

    /// Flits parked in hold queues behind unresolved episodes (for
    /// diagnostics).
    pub fn held_flits(&self) -> u64 {
        self.tx
            .iter()
            .map(|t| t.hold.len() as u64 + u64::from(t.outstanding.is_some()))
            .sum()
    }

    fn backoff(&self, attempts: u32) -> Tick {
        let shift = attempts.saturating_sub(1).min(20);
        self.plane
            .config
            .backoff_base
            .max(1)
            .saturating_mul(1 << shift)
    }

    /// Sends `flit` out of `out_port` over `link`, arriving `delay` ticks
    /// from now — the faultful replacement for a direct
    /// `ctx.schedule(.., Ev::Flit ..)`. While a fault episode is
    /// unresolved on this port the flit waits its turn in FIFO order.
    pub fn send(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        out_port: Port,
        link: &LinkTarget,
        delay: Tick,
        flit: Flit,
        trace_src: u32,
    ) {
        let p = out_port as usize;
        if self.tx[p].outstanding.is_some() || !self.tx[p].hold.is_empty() {
            self.tx[p].hold.push_back((delay, flit));
            return;
        }
        self.attempt(ctx, p, link, delay, flit, trace_src, false);
    }

    /// One transmission attempt: draws the port's fault fate from the
    /// component's RNG stream and either delivers, corrupts, or drops.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        p: usize,
        link: &LinkTarget,
        delay: Tick,
        flit: Flit,
        trace_src: u32,
        is_retx: bool,
    ) {
        if self.tx[p].escalated {
            return;
        }
        let tick = ctx.now().tick();
        let cfg = &self.plane.config;
        // Outage: scheduled, still-active stochastic, or a fresh draw.
        let mut down =
            tick < self.tx[p].outage_until || self.plane.in_scheduled_outage(self.tx[p].link, tick);
        if !down && cfg.outage_rate > 0.0 && ctx.rng().gen_bool(cfg.outage_rate) {
            self.tx[p].outage_until = tick + cfg.outage_duration.max(1);
            down = true;
        }
        if down {
            // Dropped on the wire; the sender times out and retransmits.
            self.counters.injected += 1;
            ctx.trace_flit(TraceKind::FaultInject, trace_src, &flit);
            self.tx[p].outstanding = Some((delay, flit));
            self.transmission_failed(ctx, p, trace_src, true);
            return;
        }
        if cfg.bit_error_rate > 0.0 && ctx.rng().gen_bool(cfg.bit_error_rate) {
            // Corrupted in flight: the receiver's checksum catches it and
            // nacks; no timer needed. The copy is unavoidable — the clean
            // original must survive for the retransmission.
            self.counters.flit_clones += 1;
            let mut corrupted = flit.clone();
            corrupted.crc ^= (ctx.rng().gen_u64() as u16) | 1;
            self.counters.injected += 1;
            ctx.trace_flit(TraceKind::FaultInject, trace_src, &flit);
            ctx.schedule(
                link.component,
                Time::at(tick + delay),
                Ev::Flit {
                    port: link.port,
                    flit: corrupted,
                },
            );
            self.tx[p].outstanding = Some((delay, flit));
            self.tx[p].corrupt_seen = true;
            self.transmission_failed(ctx, p, trace_src, false);
            return;
        }
        // Clean transmission. Only a retransmission closing a corruption
        // episode still needs the payload afterwards (the receiver
        // discarded a corrupt copy earlier and will ack this redelivery,
        // so the episode stays open until then); every other clean send —
        // the entire fault-free hot path — moves the flit into the event
        // without a copy.
        let keep = is_retx && self.tx[p].corrupt_seen;
        if keep {
            self.counters.flit_clones += 1;
            self.tx[p].outstanding = Some((delay, flit.clone()));
        }
        ctx.schedule(
            link.component,
            Time::at(tick + delay),
            Ev::Flit {
                port: link.port,
                flit,
            },
        );
        if is_retx && !keep {
            // Drop-only episode: delivery of the clean copy is
            // guaranteed (the sender drew the fault, so it knows).
            self.recover(ctx, p, link, trace_src);
        }
    }

    /// Books one failed transmission: escalates past the retry budget,
    /// otherwise arms the backoff timer when the failure was silent (a
    /// drop — corruption failures are re-driven by the receiver's nack).
    fn transmission_failed(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        p: usize,
        trace_src: u32,
        arm_timer: bool,
    ) {
        self.tx[p].attempts += 1;
        let attempts = self.tx[p].attempts;
        if attempts > self.plane.config.max_retries {
            self.counters.escalated += 1;
            self.tx[p].escalated = true;
            if let Some((_, flit)) = &self.tx[p].outstanding {
                let flit = flit.clone();
                self.counters.flit_clones += 1;
                ctx.trace_flit(TraceKind::FaultEscalate, trace_src, &flit);
            }
            ctx.fail(
                FaultError::RetriesExhausted {
                    link: self.tx[p].link,
                    attempts,
                }
                .to_string(),
            );
            return;
        }
        if arm_timer {
            let wait = self.backoff(attempts);
            let tick = ctx.now().tick();
            ctx.schedule_self(Time::at(tick + wait), Ev::Internal(retry_tag(p as Port)));
        }
    }

    /// Declares the port's episode recovered and pumps the hold queue.
    fn recover(&mut self, ctx: &mut Context<'_, Ev>, p: usize, link: &LinkTarget, trace_src: u32) {
        if let Some((_, flit)) = self.tx[p].outstanding.take() {
            self.counters.recovered += 1;
            ctx.trace_flit(TraceKind::FaultRecover, trace_src, &flit);
        }
        self.tx[p].attempts = 0;
        self.tx[p].corrupt_seen = false;
        // Drain held flits until one of them faults in turn. Bursting at
        // one tick is safe: the downstream credits were consumed when the
        // flits originally departed, so buffer space is guaranteed.
        while self.tx[p].outstanding.is_none() && !self.tx[p].escalated {
            let Some((delay, flit)) = self.tx[p].hold.pop_front() else {
                break;
            };
            self.attempt(ctx, p, link, delay, flit, trace_src, false);
        }
    }

    /// Handles the port's retransmission timer ([`Ev::Internal`] with
    /// [`retry_tag`]) by re-attempting the outstanding flit.
    pub fn handle_retry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        out_port: Port,
        link: &LinkTarget,
        trace_src: u32,
    ) {
        let p = out_port as usize;
        if self.tx[p].escalated {
            return;
        }
        if let Some((delay, flit)) = self.tx[p].outstanding.clone() {
            // The snapshot stays parked in case this attempt fails too.
            self.counters.flit_clones += 1;
            self.attempt(ctx, p, link, delay, flit, trace_src, true);
        }
    }

    /// Handles a receiver's [`Ev::Nack`]: the delivered copy was corrupt,
    /// so count the failure and retransmit (the nack replaces the timer).
    pub fn handle_nack(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        out_port: Port,
        link: &LinkTarget,
        trace_src: u32,
    ) {
        self.handle_retry(ctx, out_port, link, trace_src);
    }

    /// Handles a receiver's [`Ev::Ack`] confirming clean redelivery after
    /// a corruption episode.
    pub fn handle_ack(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        out_port: Port,
        link: &LinkTarget,
        trace_src: u32,
    ) {
        let p = out_port as usize;
        if self.tx[p].outstanding.is_some() && self.tx[p].corrupt_seen {
            self.recover(ctx, p, link, trace_src);
        }
    }

    /// Receiver-side admission check for a flit arriving on `in_port`.
    ///
    /// Returns the flit when its checksum verifies (acking upstream via
    /// `reply` if it closes a corruption episode); consumes it and nacks
    /// upstream when corrupt. `reply` addresses the sender's *output*
    /// port, exactly like a returning credit.
    pub fn receive(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        in_port: Port,
        reply: Option<LinkTarget>,
        flit: Flit,
        trace_src: u32,
    ) -> Option<Flit> {
        let tick = ctx.now().tick();
        let r = in_port as usize;
        if flit.crc_ok() {
            if self.rx[r].awaiting_retx {
                self.rx[r].awaiting_retx = false;
                if let Some(rep) = reply {
                    ctx.schedule(
                        rep.component,
                        Time::at(tick + rep.latency),
                        Ev::Ack { port: rep.port },
                    );
                }
            }
            return Some(flit);
        }
        self.counters.detected += 1;
        ctx.trace_flit(TraceKind::FaultNack, trace_src, &flit);
        self.rx[r].awaiting_retx = true;
        if let Some(rep) = reply {
            ctx.schedule(
                rep.component,
                Time::at(tick + rep.latency),
                Ev::Nack { port: rep.port },
            );
        }
        None
    }

    /// Draws the fate of one returning credit; `true` means the credit is
    /// lost and the caller must not schedule it.
    pub fn credit_lost(&mut self, ctx: &mut Context<'_, Ev>) -> bool {
        let rate = self.plane.config.credit_loss_rate;
        if rate > 0.0 && ctx.rng().gen_bool(rate) {
            self.counters.injected += 1;
            return true;
        }
        false
    }
}

// The shared plane and the per-port link identities are structural; `rx`
// has one entry per `tx` port, so its length is already checked.
wire_overlay!(LinkFaults {
    tx: each,
    rx: inline,
    counters,
});
wire_overlay!(TxState {
    outstanding,
    corrupt_seen,
    attempts,
    hold,
    outage_until,
    escalated,
});
wire_overlay!(RxState { awaiting_retx });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_tags_round_trip() {
        for port in [0u32, 1, 7, 4095] {
            assert_eq!(retry_port(retry_tag(port)), Some(port));
        }
        assert_eq!(retry_port(0), None);
        assert_eq!(retry_port(7), None);
        assert_eq!(retry_port(u64::MAX), None);
    }

    #[test]
    fn scheduled_outage_window_is_half_open() {
        let link = LinkId::Router { router: 2, port: 1 };
        let plane = FaultPlane::new(FaultConfig {
            outages: vec![ScheduledOutage {
                link,
                start: 10,
                end: 20,
            }],
            ..FaultConfig::default()
        });
        assert!(!plane.in_scheduled_outage(link, 9));
        assert!(plane.in_scheduled_outage(link, 10));
        assert!(plane.in_scheduled_outage(link, 19));
        assert!(!plane.in_scheduled_outage(link, 20));
        assert!(!plane.in_scheduled_outage(LinkId::Router { router: 2, port: 0 }, 15));
        assert!(!plane.in_scheduled_outage(LinkId::Terminal { terminal: 2 }, 15));
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = FaultCounters {
            injected: 1,
            detected: 2,
            recovered: 3,
            escalated: 4,
            flit_clones: 5,
        };
        a.absorb(&FaultCounters {
            injected: 10,
            detected: 20,
            recovered: 30,
            escalated: 40,
            flit_clones: 50,
        });
        assert_eq!(
            a,
            FaultCounters {
                injected: 11,
                detected: 22,
                recovered: 33,
                escalated: 44,
                flit_clones: 55,
            }
        );
    }

    #[test]
    fn fault_error_display_names_the_link() {
        let e = FaultError::RetriesExhausted {
            link: LinkId::Terminal { terminal: 5 },
            attempts: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("t5"), "{msg}");
        assert!(msg.contains("retries exhausted"), "{msg}");
        let e = FaultError::RetriesExhausted {
            link: LinkId::Router { router: 3, port: 2 },
            attempts: 9,
        };
        assert!(e.to_string().contains("r3:p2"));
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let plane = Arc::new(FaultPlane::new(FaultConfig {
            backoff_base: 2,
            ..FaultConfig::default()
        }));
        let lf = LinkFaults::new(plane, vec![LinkId::Terminal { terminal: 0 }]);
        assert_eq!(lf.backoff(1), 2);
        assert_eq!(lf.backoff(2), 4);
        assert_eq!(lf.backoff(5), 32);
        // Deep attempt counts must not overflow the shift.
        assert!(lf.backoff(u32::MAX) >= lf.backoff(21));
    }

    #[test]
    fn zero_backoff_base_still_advances_time() {
        let plane = Arc::new(FaultPlane::new(FaultConfig {
            backoff_base: 0,
            ..FaultConfig::default()
        }));
        let lf = LinkFaults::new(plane, vec![LinkId::Terminal { terminal: 0 }]);
        assert!(lf.backoff(1) >= 1);
    }
}
