//! The report of a run: what it produced ([`RunOutput`]), why it
//! degraded, and where the network stood when it stopped.

use supersim_des::{RunOutcome, RunStats, Tick};
use supersim_netbase::{FaultCounters, Phase};
use supersim_stats::analysis::{LatencySummary, LoadPoint};
use supersim_stats::{
    Filter, FoldedWindow, LatencyDistribution, MetricsSnapshot, RecordKind, SampleLog,
};
use supersim_workload::{InterfaceCounters, SpanMetrics};

use crate::error::SimError;

/// The full report of a run: the (possibly partial) output, the error
/// that degraded it, and — for degraded runs — a diagnostic snapshot.
#[derive(Debug)]
pub struct RunReport {
    /// Everything the run produced. Always assembled, even for degraded
    /// runs, so partial metrics and traces survive a deadlock.
    pub output: RunOutput,
    /// Why the run degraded; `None` for a clean, complete run.
    pub error: Option<SimError>,
    /// Where the network stood when a degraded run stopped.
    pub diagnostic: Option<DiagnosticSnapshot>,
}

impl RunReport {
    /// Whether the run completed cleanly.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Why a run degraded, if it did. A drained queue is only success when
/// the workload got through its phase protocol: draining early means
/// traffic (or credits) evaporated in flight. A worker-process failure
/// outranks the generic outcome: the typed error carries which worker
/// died and why.
pub(crate) fn classify(
    stats: &RunStats,
    phase_times: &[(Phase, Tick)],
    worker_error: Option<(u32, String)>,
) -> Option<SimError> {
    if let Some((worker, reason)) = worker_error {
        return Some(SimError::Worker { worker, reason });
    }
    let tick = stats.end_time.tick();
    match &stats.outcome {
        RunOutcome::Drained if phase_times.iter().any(|&(p, _)| p == Phase::Draining) => None,
        RunOutcome::Drained => Some(SimError::Incomplete { tick }),
        RunOutcome::Failed(msg) => Some(SimError::Model(msg.clone())),
        RunOutcome::TickLimit | RunOutcome::Stopped => Some(SimError::Stalled { tick }),
        RunOutcome::Watchdog { last_progress } => Some(SimError::Watchdog {
            tick,
            last_progress: *last_progress,
        }),
    }
}

/// A point-in-time dump of engine and network state, taken when a run
/// degrades — the raw material for diagnosing a deadlock or livelock.
#[derive(Debug, Clone)]
pub struct DiagnosticSnapshot {
    /// Simulated time when the run stopped.
    pub tick: Tick,
    /// The last tick a flit was delivered (watchdog trips only).
    pub last_progress: Option<Tick>,
    /// Events executed over the whole run.
    pub events_executed: u64,
    /// Events still pending in the queues.
    pub events_pending: u64,
    /// Pending-event queue depth per shard.
    pub shard_queue_depths: Vec<u64>,
    /// Per-router buffer occupancy and credit state.
    pub routers: Vec<RouterDiag>,
    /// Aggregate fault counters, when the fault plane was enabled.
    pub fault: Option<FaultCounters>,
    /// The last complete sample window, when the sampling plane was
    /// armed — what the network looked like just before the run ended.
    pub last_window: Option<FoldedWindow>,
    /// Aggregate span histograms, when latency attribution was enabled.
    pub spans: Option<SpanMetrics>,
}

/// One router's state in a [`DiagnosticSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct RouterDiag {
    /// The router's index in the topology.
    pub router: u32,
    /// Flits parked in its buffers, queues, and retransmission holds.
    pub buffered_flits: u64,
    /// `(available, capacity)` per `(port, vc)` credit counter.
    pub credits: Vec<(u32, u32)>,
}

impl std::fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "diagnostic snapshot at tick {}", self.tick)?;
        if let Some(lp) = self.last_progress {
            writeln!(f, "  last forward progress: tick {lp}")?;
        }
        writeln!(
            f,
            "  events: {} executed, {} pending (per-shard queue depths: {:?})",
            self.events_executed, self.events_pending, self.shard_queue_depths
        )?;
        if let Some(fc) = &self.fault {
            writeln!(
                f,
                "  faults: {} injected, {} detected, {} recovered, {} escalated",
                fc.injected, fc.detected, fc.recovered, fc.escalated
            )?;
        }
        if let Some(w) = &self.last_window {
            let sum = |name: &str| w.get(name).map_or(0, |a| a.sum());
            writeln!(
                f,
                "  last window (edge {}): {} offered, {} accepted, {} buffered, {} credit stalls",
                w.edge,
                sum("iface.offered_flits"),
                sum("iface.accepted_flits"),
                sum("router.buffered_flits"),
                sum("router.credit_stalls")
            )?;
        }
        if let Some(s) = &self.spans {
            let total = &s.total;
            if total.count() > 0 {
                writeln!(
                    f,
                    "  spans: {} packets attributed, mean latency {} ticks",
                    total.count(),
                    total.sum() / total.count()
                )?;
            }
        }
        for r in &self.routers {
            let missing: u32 = r.credits.iter().map(|&(avail, cap)| cap - avail).sum();
            if r.buffered_flits == 0 && missing == 0 {
                continue; // quiet router: nothing stuck here
            }
            writeln!(
                f,
                "  router {}: {} buffered flits, {} credits outstanding",
                r.router, r.buffered_flits, missing
            )?;
        }
        Ok(())
    }
}

/// Results of one completed simulation.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Merged sample log of all interfaces.
    pub log: SampleLog,
    /// DES engine statistics.
    pub engine: RunStats,
    /// `(phase, entry tick)` transitions of the workload.
    pub phase_times: Vec<(Phase, Tick)>,
    /// Number of terminals that participated.
    pub terminals: u32,
    /// Aggregate interface counters.
    pub counters: InterfaceCounters,
    /// Flits ejected network-wide during the sampling window (exact,
    /// phase-boundary snapshots) — the accepted-throughput numerator.
    pub window_flits: u64,
    /// Channel cycle time in ticks; one flit per link period is 100% load.
    pub link_period: Tick,
    /// End-of-run metrics snapshot of every registered component
    /// (engine, workload, and per-router planes).
    pub metrics: MetricsSnapshot,
    /// JSON-lines flit trace, when `observability.trace.enabled` was set.
    pub trace: Option<String>,
    /// JSON-lines windowed time-series, when `sample.interval` was set.
    /// One line per closed window edge; byte-identical across engines.
    pub timeseries: Option<String>,
    /// JSON-lines per-packet latency spans, when `spans.enabled` was
    /// set, sorted by `(recv, packet)`.
    pub spans: Option<String>,
    /// Chrome `trace_event` JSON of host time (rounds, phases,
    /// checkpoints), when `host.trace.enabled` was set. Loadable by
    /// Perfetto and `chrome://tracing`.
    pub host_trace: Option<String>,
}

impl RunOutput {
    /// Number of sampled packets delivered.
    pub fn packets_delivered(&self) -> u64 {
        self.log.of_kind(RecordKind::Packet).count() as u64
    }

    /// The sampling window `(start, end)`: the generating phase interval.
    pub fn window(&self) -> Option<(Tick, Tick)> {
        let start = self.phase_start(Phase::Generating)?;
        let end = self.phase_start(Phase::Finishing)?;
        (end > start).then_some((start, end))
    }

    /// The tick a phase was entered, if it was.
    pub fn phase_start(&self, phase: Phase) -> Option<Tick> {
        self.phase_times
            .iter()
            .find(|&&(p, _)| p == phase)
            .map(|&(_, t)| t)
    }

    /// Builds the load-latency point for this run at the given offered
    /// load (flits/tick/terminal): the latencies of the sampled packets
    /// `filter` keeps, and the delivered load.
    ///
    /// Delivered load uses the exact phase-boundary flit counts (all
    /// traffic, not just sampled packets), so steady-state throughput has
    /// no window edge effects.
    pub fn load_point(&self, offered: f64, filter: &Filter) -> Option<LoadPoint> {
        let (start, end) = self.window()?;
        let mut latencies: LatencyDistribution = self
            .log
            .of_kind(RecordKind::Packet)
            .filter(|r| filter.matches(r))
            .map(|r| r.latency())
            .collect();
        Some(LoadPoint {
            offered,
            // A fraction of the line rate, so offered and delivered are
            // directly comparable at any link period.
            delivered: self.window_flits as f64 / (end - start) as f64 / self.terminals as f64
                * self.link_period as f64,
            latency: LatencySummary::of(&mut latencies),
        })
    }

    /// Mean sampled packet latency in ticks.
    pub fn mean_packet_latency(&self) -> Option<f64> {
        let mut sum = 0u64;
        let mut n = 0u64;
        for r in self.log.of_kind(RecordKind::Packet) {
            sum += r.latency();
            n += 1;
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }
}
