//! The simulator facade: build from configuration, run, collect results.
//!
//! The engine is one concrete `des::Simulator` on every backend, and a
//! run is one path — resume, heartbeat, [`drive`], [`assemble`]. The
//! sequential and thread backends take it in [`SuperSim::run_report`]. A
//! worker process takes it in `process.rs` with the hub as its
//! checkpoint destination and ships its final shard blob; the parent's
//! own simulator is the never-run layout of the same simulation, which
//! restores the fleet's blobs and rejoins at [`assemble`], which reads
//! every report straight from the engine's components. Every checkpoint
//! file is written by the one [`CheckpointWriter`].

use std::path::PathBuf;
use std::sync::Arc;

use supersim_config::Value;
use supersim_des::wire::Overlay;
use supersim_des::{next_edge_after, EngineMetrics, HostShardTimes, RunOutcome, RunStats, Tick};
use supersim_netbase::{trace_json_lines, FaultCounters, Phase};
use supersim_router::Router;
use supersim_stats::analysis::{LoadPoint, WindowAnalysis};
use supersim_stats::{
    fold_windows, timeseries_json_lines, Filter, FoldedWindow, Histogram, HostClock, MetricValue,
    MetricsSnapshot, RecordKind, SampleLog, TraceEventBuilder,
};
use supersim_topology::Topology;
use supersim_workload::{
    spans_json_lines, Interface, InterfaceCounters, SpanMetrics, WorkloadMonitor,
};

use crate::builder::{build, Built};
use crate::checkpoint::CheckpointHeader;
use crate::error::{BuildError, SimError};
use crate::factory::Factories;

/// A fully assembled SuperSim simulation.
///
/// # Example
///
/// ```
/// use supersim_core::SuperSim;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = supersim_config::parse(include_str!("../../../configs/quickstart.json"))?;
/// let output = SuperSim::from_config(&config)?.run()?;
/// assert!(output.packets_delivered() > 0);
/// # Ok(())
/// # }
/// ```
pub struct SuperSim {
    built: Built,
}

impl SuperSim {
    /// Builds a simulation from a configuration using the built-in model
    /// factories.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] on malformed configuration or unknown
    /// model names.
    pub fn from_config(config: &Value) -> Result<Self, BuildError> {
        Self::with_factories(config, &Factories::with_defaults())
    }

    /// Builds a simulation with user-extended factories — the route for
    /// dropping in custom topologies, routers, applications, or traffic
    /// patterns without touching this crate.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] on malformed configuration or unknown
    /// model names.
    pub fn with_factories(config: &Value, factories: &Factories) -> Result<Self, BuildError> {
        Ok(SuperSim {
            built: build(config, factories)?,
        })
    }

    /// The network shape of this simulation.
    pub fn topology(&self) -> &Arc<dyn Topology> {
        &self.built.topology
    }

    /// Runs the simulation to completion (all phases, then drain).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] when a component detects an invariant
    /// violation (paper §IV-D) and [`SimError::Stalled`] when the run hits
    /// its tick limit without draining.
    pub fn run(self) -> Result<RunOutput, SimError> {
        let report = self.run_report();
        match report.error {
            None => Ok(report.output),
            Some(error) => Err(error),
        }
    }

    /// Runs the simulation and reports the outcome without discarding
    /// partial results: even a degraded run (deadlock, watchdog trip,
    /// model error) yields whatever samples, metrics, and traces were
    /// collected — marked `degraded` in the `run` metrics plane — plus a
    /// diagnostic snapshot of where the network stood when it stopped.
    pub fn run_report(mut self) -> RunReport {
        #[cfg(unix)]
        if let Some(plan) = self.built.process.take() {
            return crate::process::run_parent(self.built, plan);
        }
        if let Some(path) = self.built.checkpoint.resume.clone() {
            if let Err(reason) = resume_into(&mut self.built, &path) {
                return resume_failure(&mut self.built, reason);
            }
        }
        let heartbeat = crate::progress::start(&self.built);
        let mut writer = CheckpointWriter::new(&self.built);
        let stats = drive(&mut self.built, &mut |tick, started_ns, blob| {
            writer.write(tick, started_ns, blob);
        });
        let engine = &self.built.engine;
        let host = self.built.host.enabled.then(|| HostData {
            shards: engine.host_times(),
            hub: None,
            ckpt: writer.times,
        });
        let inputs = AssembleInputs {
            stats,
            shard_metrics: engine.shard_metrics(),
            worker_error: None,
            host,
        };
        let report = assemble(&mut self.built, inputs);
        if let Some(hb) = heartbeat {
            hb.finish(&report);
        }
        report
    }
}

/// Restores a checkpoint file into the freshly built engine. The header
/// identity fields must match the built configuration; the state blob
/// must restore cleanly. Any failure keeps the engine untouched enough
/// to report, but the run must not proceed.
pub(crate) fn resume_into(built: &mut Built, path: &std::path::Path) -> Result<(), String> {
    let (header, blob) = crate::checkpoint::read_file(path).map_err(|e| e.to_string())?;
    let identity = [
        ("seed", header.seed, built.seed),
        (
            "shard count",
            u64::from(header.num_shards),
            u64::from(built.num_shards),
        ),
        (
            "terminal count",
            u64::from(header.terminals),
            u64::from(built.topology.num_terminals()),
        ),
        (
            "router count",
            u64::from(header.routers),
            u64::from(built.topology.num_routers()),
        ),
    ];
    for (what, saved, ours) in identity {
        if saved != ours {
            return Err(format!(
                "checkpoint {what} is {saved}, this simulation has {ours}"
            ));
        }
    }
    if built.engine.load(&mut blob.as_slice()).is_none() {
        return Err(format!(
            "state blob of {} did not restore cleanly",
            path.display()
        ));
    }
    Ok(())
}

/// The report of a run that never started because its checkpoint could
/// not be restored: a typed [`SimError::Resume`] and no flit trace.
pub(crate) fn resume_failure(built: &mut Built, reason: String) -> RunReport {
    let stats = RunStats {
        events_executed: 0,
        end_time: built.engine.now(),
        queue_high_water: 0,
        total_enqueued: 0,
        wall: std::time::Duration::ZERO,
        outcome: RunOutcome::Stopped,
    };
    let shard_metrics = built.engine.shard_metrics();
    let mut report = assemble(
        built,
        AssembleInputs {
            stats,
            shard_metrics,
            worker_error: None,
            host: None,
        },
    );
    report.output.trace = None;
    report.error = Some(SimError::Resume { reason });
    report
}

/// Drives the engine to its tick limit on every backend, pausing at each
/// `k * interval` barrier boundary to hand `checkpoint` the boundary
/// tick, when its capture began on the run's host clock, and the
/// engine's state blob. With checkpointing disabled (`interval == 0`)
/// this is a single `run_until` call.
///
/// The boundary cursor advances by `interval` from its previous value —
/// never recomputed from the clock, which sits short of the boundary
/// after a pause. Segment statistics accumulate so the returned
/// [`RunStats`] is indistinguishable from an unsegmented run (modulo
/// wall-clock).
pub(crate) fn drive(built: &mut Built, checkpoint: &mut dyn FnMut(Tick, u64, &[u8])) -> RunStats {
    let tick_limit = built.tick_limit;
    let interval = built.checkpoint.interval;
    if interval == 0 {
        return built.engine.run_until(tick_limit);
    }
    let mut next = next_edge_after(built.engine.now().tick(), interval);
    let mut total: Option<RunStats> = None;
    // One state buffer for every segment: a checkpoint reuses the memory
    // of the one before it.
    let mut blob = Vec::new();
    loop {
        let bound = next.min(tick_limit);
        let stats = built.engine.run_until(bound);
        let paused = matches!(stats.outcome, RunOutcome::TickLimit) && bound < tick_limit;
        match total.as_mut() {
            Some(t) => {
                t.events_executed += stats.events_executed;
                t.queue_high_water = t.queue_high_water.max(stats.queue_high_water);
                t.total_enqueued = stats.total_enqueued;
                t.wall += stats.wall;
                t.end_time = stats.end_time;
                t.outcome = stats.outcome;
            }
            None => total = Some(stats),
        }
        if !paused {
            return total.expect("at least one segment ran");
        }
        let started_ns = built.host.clock.now_ns();
        blob.clear();
        built.engine.save(&mut blob);
        checkpoint(bound, started_ns, &blob);
        next = next.saturating_add(interval);
    }
}

/// The one place a checkpoint file is written: an in-process run's
/// [`drive`] hands it the engine's own state blob, and the multi-process
/// parent's hub hands it the blob assembled from the workers' frames. It
/// stamps the identity header, writes `ckpt-<round>.ssckpt` atomically,
/// and records wall time and bytes of each write (the host plane's
/// checkpoint attribution; strictly out-of-band). A write failure
/// degrades to a warning — losing a checkpoint must never kill a healthy
/// run.
pub(crate) struct CheckpointWriter {
    /// The identity fields of every header; `tick` and `round` are set
    /// per file.
    header: CheckpointHeader,
    interval: Tick,
    dir: PathBuf,
    clock: HostClock,
    /// Test hook (`SUPERSIM_TEST_EXIT_AT_CKPT=<round>`): exit the process
    /// hard — no cleanup, no report — right after completing that round,
    /// a reproducible "crash" for the recovery integration tests.
    exit_at: Option<u64>,
    /// Attribution of the writes so far.
    pub times: CkptTimes,
    /// The newest file completed.
    pub last_written: Option<PathBuf>,
}

impl CheckpointWriter {
    /// A writer for the run of `built`, timing on the run's host clock.
    pub fn new(built: &Built) -> Self {
        CheckpointWriter {
            header: CheckpointHeader {
                version: crate::checkpoint::VERSION,
                seed: built.seed,
                num_shards: built.num_shards,
                tick: 0,
                round: 0,
                terminals: built.topology.num_terminals(),
                routers: built.topology.num_routers(),
            },
            interval: built.checkpoint.interval,
            dir: built.checkpoint.dir.clone(),
            clock: built.host.clock.clone(),
            exit_at: std::env::var("SUPERSIM_TEST_EXIT_AT_CKPT")
                .ok()
                .and_then(|s| s.parse().ok()),
            times: CkptTimes::default(),
            last_written: None,
        }
    }

    /// Now, on the clock the writes are timed against.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Writes the engine state `blob` captured at barrier tick `tick` as
    /// the file of its round, and returns that round. `started_ns` is
    /// when capturing it began ([`CheckpointWriter::now_ns`]), so the
    /// recorded time covers state capture as well as the file write.
    pub fn write(&mut self, tick: Tick, started_ns: u64, blob: &[u8]) -> u64 {
        let round = tick / self.interval;
        self.header.tick = tick;
        self.header.round = round;
        let path = crate::checkpoint::round_path(&self.dir, round);
        match crate::checkpoint::write_file(&path, &self.header, blob) {
            Ok(()) => {
                self.times
                    .record(started_ns, self.clock.now_ns(), blob.len() as u64);
                self.last_written = Some(path);
                if self.exit_at == Some(round) {
                    // Simulated crash: the checkpoint file for this round
                    // is complete on disk, nothing later is.
                    std::process::exit(86);
                }
            }
            Err(e) => eprintln!("supersim: checkpoint round {round} not written: {e}"),
        }
        round
    }
}

/// Wall-clock attribution of checkpoints on the run's host clock: state
/// capture plus file write, or a worker's capture plus its send to the
/// hub. Out-of-band: never touches simulation state.
#[derive(Debug, Clone, Default)]
pub(crate) struct CkptTimes {
    /// Checkpoint files written.
    pub writes: u64,
    /// Total wall time spent capturing + writing them, in nanoseconds.
    pub ns: u64,
    /// Total bytes written (state blobs, excluding headers).
    pub bytes: u64,
    /// `(start_ns, dur_ns)` per write — the trace exporter's slices.
    pub slices: Vec<(u64, u64)>,
}

impl CkptTimes {
    /// Records one completed checkpoint write spanning
    /// `[start_ns, end_ns]` that shipped `bytes` bytes of state.
    pub fn record(&mut self, start_ns: u64, end_ns: u64, bytes: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        self.writes += 1;
        self.ns += dur;
        self.bytes += bytes;
        self.slices.push((start_ns, dur));
    }
}

/// Hub-side host accounting of a multi-process run, mirrored out of the
/// transport layer so this module stays platform-neutral.
#[derive(Debug, Clone, Default)]
pub(crate) struct HubHost {
    /// Rounds the hub relayed.
    pub rounds: u64,
    /// Wall time in the hub's fold compute + broadcast, nanoseconds.
    pub fold_ns: u64,
    /// Frame-body bytes received from each worker, in worker order.
    pub wire_in: Vec<u64>,
    /// Frame-body bytes sent to each worker, in worker order.
    pub wire_out: Vec<u64>,
}

/// Everything the host-time plane collected over a run: per-shard
/// wall-clock records, hub accounting (process runs), and checkpoint
/// write attribution.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostData {
    /// One record per shard (worker order for process runs).
    pub shards: Vec<HostShardTimes>,
    /// Hub accounting; `None` for in-process runs.
    pub hub: Option<HubHost>,
    /// Checkpoint write attribution.
    pub ckpt: CkptTimes,
}

/// What [`assemble`] takes besides the engine's components: how the run
/// went. The in-process path reads it off its own engine; the
/// multi-process parent from the workers' DONE frames and the hub.
pub(crate) struct AssembleInputs {
    pub stats: RunStats,
    /// Per-shard executor diagnostics, in shard order. Their sums are
    /// the lifetime totals of the `engine` metrics plane.
    pub shard_metrics: Vec<EngineMetrics>,
    /// `Some((worker, reason))` when a worker process died or hung; the
    /// report degrades to a typed [`SimError::Worker`].
    pub worker_error: Option<(u32, String)>,
    /// Host-time plane data, when `host.profile.enabled` was set.
    pub host: Option<HostData>,
}

/// Assembles the run report from the engine's components. The walk
/// order is fixed (interfaces by index, then routers by index) and every
/// merge is commutative integer arithmetic, so the result is
/// byte-identical no matter how the components were partitioned across
/// shards or processes. Components the engine does not hold (a dead
/// worker's) are skipped, degrading the report instead of failing it.
///
/// The two large per-interface logs — samples and span records, each
/// held as its wire encoding — are moved out, not copied: assembly is the
/// engine's last use on every path, so the components are left with empty
/// logs. Each interface's sample log is decoded into the merged
/// [`SampleLog`] and freed right after; the span logs are streamed into
/// the span text by a k-way merge, with no merged record vector.
pub(crate) fn assemble(built: &mut Built, inputs: AssembleInputs) -> RunReport {
    let stats = inputs.stats;
    let events_executed: u64 = inputs.shard_metrics.iter().map(|m| m.events_executed).sum();
    let total_enqueued: u64 = inputs.shard_metrics.iter().map(|m| m.total_enqueued).sum();

    let (log, span_logs, log_bytes) = {
        let engine = &mut built.engine;
        let (mut records, mut log_bytes) = (0, 0);
        for &id in &built.interfaces {
            if let Some(iface) = engine.component_as::<Interface>(id) {
                records += iface.log.len();
                log_bytes += iface.log.byte_len() + iface.span_log.byte_len();
            }
        }
        let mut log = SampleLog::with_capacity(records);
        let mut span_logs = Vec::with_capacity(built.interfaces.len());
        for &id in &built.interfaces {
            if let Some(iface) = engine.component_as_mut::<Interface>(id) {
                log.extend(std::mem::take(&mut iface.log).iter());
                span_logs.push(std::mem::take(&mut iface.span_log));
            }
        }
        (log, span_logs, log_bytes as u64)
    };
    let engine = &built.engine;
    let ifaces: Vec<&Interface> = built
        .interfaces
        .iter()
        .filter_map(|&id| engine.component_as::<Interface>(id))
        .collect();
    // `None` for a router the engine does not hold, and for a custom
    // (non-skeleton) router architecture, which reports no router planes.
    let routers: Vec<Option<&Router>> = built
        .routers
        .iter()
        .map(|&id| engine.component_as::<Router>(id))
        .collect();
    let mut counters = InterfaceCounters::default();
    let mut window_flits = 0u64;
    let mut inject_stalls = 0u64;
    let mut queue_depth_now = 0u64;
    let mut queue_depth_high = 0u64;
    let mut phase_latency = [Histogram::new(); 4];
    let mut span_metrics = SpanMetrics::default();
    for iface in &ifaces {
        if let (Some(start), Some(end)) = (
            iface.flits_at_phase(Phase::Generating),
            iface.flits_at_phase(Phase::Finishing),
        ) {
            window_flits += end - start;
        }
        counters.messages_sent += iface.counters.messages_sent;
        counters.packets_sent += iface.counters.packets_sent;
        counters.flits_sent += iface.counters.flits_sent;
        counters.flits_received += iface.counters.flits_received;
        counters.messages_received += iface.counters.messages_received;
        let m = &iface.metrics;
        inject_stalls += m.inject_stalls.get();
        queue_depth_now += m.queue_depth.get();
        queue_depth_high = queue_depth_high.max(m.queue_depth.max());
        for (agg, h) in phase_latency.iter_mut().zip(m.phase_latency.iter()) {
            agg.merge(h);
        }
        span_metrics.merge(&m.spans);
    }
    // --- metrics snapshot (assembled on demand, paper-style) -------
    // The `engine` plane holds only values the determinism contract
    // pins across backends; scheduler diagnostics (batching, queue
    // capacity, horizon) vary with the partition and live in one
    // `engine_shard_<i>` plane per shard (the sequential engine is
    // shard 0). Wall-clock throughput is reported by the CLI from
    // `RunStats`, not recorded in the snapshot.
    let mut metrics = built.registry.snapshot();
    metrics.push_counter("engine", "events_executed", events_executed);
    metrics.push_counter("engine", "total_enqueued", total_enqueued);
    {
        for (s, em) in inputs.shard_metrics.iter().enumerate() {
            let name = format!("engine_shard_{s}");
            metrics.push_counter(&name, "events_executed", em.events_executed);
            metrics.push_counter(&name, "batches", em.batches);
            metrics.push_counter(&name, "total_enqueued", em.total_enqueued);
            metrics.push_counter(&name, "horizon", em.horizon as u64);
            metrics.push_counter(&name, "horizon_resizes", em.horizon_resizes);
            metrics.push_counter(&name, "overflow_spills", em.overflow_spills);
            metrics.push_counter(&name, "overflow_len", em.overflow_len as u64);
            metrics.push(
                &name,
                "queue_len",
                MetricValue::Gauge {
                    value: em.queue_len as u64,
                    max: em.queue_high_water as u64,
                },
            );
            metrics.push_histogram(
                &name,
                "batch_size",
                &Histogram::from_log2_counts(&em.batch_counts, em.batches, em.events_executed),
            );
        }

        metrics.push_counter("workload", "messages_sent", counters.messages_sent);
        metrics.push_counter("workload", "packets_sent", counters.packets_sent);
        metrics.push_counter("workload", "flits_sent", counters.flits_sent);
        metrics.push_counter("workload", "flits_received", counters.flits_received);
        metrics.push_counter("workload", "messages_received", counters.messages_received);
        metrics.push_counter("workload", "inject_stalls", inject_stalls);
        metrics.push(
            "workload",
            "queue_depth",
            MetricValue::Gauge {
                value: queue_depth_now,
                max: queue_depth_high,
            },
        );
        for phase in Phase::ALL {
            metrics.push_histogram(
                "workload",
                &format!("packet_latency_{phase}"),
                &phase_latency[phase.index()],
            );
        }
    }
    if built.spans {
        for (name, h) in span_metrics.named() {
            metrics.push_histogram("workload", &format!("span_{name}"), h);
        }
    }

    for (r, router) in routers.iter().enumerate() {
        if let Some(m) = router.map(|x| &x.core.metrics) {
            let name = format!("router_{r}");
            metrics.push_counter(&name, "grants", m.grants.get());
            metrics.push_counter(&name, "denials", m.denials.get());
            metrics.push_counter(&name, "credit_stalls", m.credit_stalls.get());
            for (p, gauge) in m.occupancy().iter().enumerate() {
                metrics.push(
                    &name,
                    format!("occupancy_port_{p}"),
                    MetricValue::Gauge {
                        value: gauge.get(),
                        max: gauge.max(),
                    },
                );
            }
        }
    }

    // --- hot-path profiling plane ----------------------------------
    // Batching effectiveness and storage pressure of the router hot
    // path: how many flits each batched pipeline event moved and how
    // deep the per-router flit arenas ran. Aggregated with commutative
    // integer sums/maxes, so the plane is byte-identical across
    // engines and shard counts.
    let mut arena_high = 0u64;
    {
        let mut cycles = 0u64;
        let mut advanced = 0u64;
        let mut arena_live = 0u64;
        for core in routers.iter().flatten().map(|x| &x.core) {
            let (live, high) = core.arena_stats();
            cycles += core.counters.cycles;
            advanced += core.counters.flits_advanced;
            arena_live += live as u64;
            arena_high = arena_high.max(high as u64);
        }
        metrics.push_counter("profile", "events_dispatched", events_executed);
        metrics.push_counter("profile", "router_cycles", cycles);
        metrics.push_counter("profile", "flits_advanced", advanced);
        metrics.push(
            "profile",
            "arena_occupancy",
            MetricValue::Gauge {
                value: arena_live,
                max: arena_high,
            },
        );
    }

    // --- host-time plane (out-of-band wall-clock attribution) -------
    // Never present unless `host.profile.enabled` was set; when it is,
    // the plane carries only wall-clock data, so the simulation planes
    // above remain byte-identical with profiling on or off.
    let host_trace = inputs
        .host
        .as_ref()
        .map(|hd| {
            push_host_plane(
                &mut metrics,
                hd,
                &stats,
                built.host.trace_enabled,
                arena_high,
                log_bytes,
            )
        })
        .unwrap_or_default();

    let trace = engine.trace_records().map(|t| trace_json_lines(&t));
    let phase_times = engine
        .component_as::<WorkloadMonitor>(built.monitor)
        .map(|m| m.phase_times.clone())
        .unwrap_or_default();

    // --- outcome classification ------------------------------------
    // A drained queue is only success when the workload actually got
    // through its phase protocol; draining early means traffic (or
    // credits) evaporated in flight.
    let mut error = match &stats.outcome {
        RunOutcome::Drained => {
            if phase_times.iter().any(|&(p, _)| p == Phase::Draining) {
                None
            } else {
                Some(SimError::Incomplete {
                    tick: stats.end_time.tick(),
                })
            }
        }
        RunOutcome::Failed(msg) => Some(SimError::Model(msg.clone())),
        RunOutcome::TickLimit | RunOutcome::Stopped => Some(SimError::Stalled {
            tick: stats.end_time.tick(),
        }),
        RunOutcome::Watchdog { last_progress } => Some(SimError::Watchdog {
            tick: stats.end_time.tick(),
            last_progress: *last_progress,
        }),
    };
    // A worker-process failure outranks the generic outcome: the typed
    // error carries which worker died and why.
    if let Some((worker, reason)) = inputs.worker_error {
        error = Some(SimError::Worker { worker, reason });
    }
    metrics.push_counter("run", "degraded", u64::from(error.is_some()));

    // --- fault plane counters --------------------------------------
    let fault_summary = built.fault.is_some().then(|| {
        let mut agg = FaultCounters::default();
        let mut held = 0u64;
        let faults = ifaces.iter().filter_map(|i| i.fault.as_ref());
        let router_faults = routers
            .iter()
            .flatten()
            .filter_map(|x| x.core.fault.as_ref());
        for f in faults.chain(router_faults) {
            agg.absorb(&f.counters);
            held += f.held_flits();
        }
        (agg, held)
    });
    if let Some((agg, held)) = &fault_summary {
        metrics.push_counter("fault", "injected", agg.injected);
        metrics.push_counter("fault", "detected", agg.detected);
        metrics.push_counter("fault", "recovered", agg.recovered);
        metrics.push_counter("fault", "escalated", agg.escalated);
        metrics.push_counter("fault", "held_flits", *held);
        metrics.push_counter("fault", "flit_clones", agg.flit_clones);
    }

    // --- windowed time-series fold ---------------------------------
    // Component rings are gathered in a fixed order (interfaces, then
    // routers, by index), but the fold itself is order-independent:
    // every per-window merge is commutative integer arithmetic, so the
    // emitted JSON-lines are byte-identical across engines and shard
    // counts.
    let folded = (built.sample_interval > 0).then(|| {
        let samplers = ifaces.iter().filter_map(|i| i.sampler.as_ref());
        let router_samplers = routers
            .iter()
            .flatten()
            .filter_map(|x| x.core.sampler.as_ref());
        fold_windows(samplers.chain(router_samplers))
    });
    let timeseries = folded.as_deref().map(timeseries_json_lines);
    let spans_dump = built.spans.then(|| spans_json_lines(&span_logs));

    // --- diagnostic snapshot of a degraded run ---------------------
    let diagnostic = error.as_ref().map(|_| {
        let last_progress = match &stats.outcome {
            RunOutcome::Watchdog { last_progress } => Some(*last_progress),
            _ => None,
        };
        let routers = routers
            .iter()
            .enumerate()
            .map(|(r, router)| {
                let (buffered_flits, credits) = router
                    .map(|x| (x.buffered_flits(), x.core.credit_state()))
                    .unwrap_or_default();
                RouterDiag {
                    router: r as u32,
                    buffered_flits,
                    credits,
                }
            })
            .collect();
        DiagnosticSnapshot {
            tick: stats.end_time.tick(),
            last_progress,
            events_executed,
            events_pending: total_enqueued.saturating_sub(events_executed),
            shard_queue_depths: inputs
                .shard_metrics
                .iter()
                .map(|m| m.queue_len as u64)
                .collect(),
            routers,
            fault: fault_summary.map(|(agg, _)| agg),
            last_window: folded.as_ref().and_then(|f| f.last().cloned()),
            spans: built.spans.then(|| span_metrics.clone()),
        }
    });

    let output = RunOutput {
        log,
        engine: stats,
        phase_times,
        terminals: built.topology.num_terminals(),
        counters,
        window_flits,
        link_period: built.link_period,
        metrics,
        trace,
        timeseries,
        spans: spans_dump,
        host_trace,
    };
    RunReport {
        output,
        error,
        diagnostic,
    }
}

/// Fills the `host` / `host_shard_<s>` metrics planes from the run's
/// wall-clock records and, when `trace_enabled`, renders the Chrome
/// `trace_event` document. These planes exist only when profiling was
/// armed and carry host time exclusively — stripping them recovers the
/// byte-identical simulation snapshot of an unprofiled run.
fn push_host_plane(
    metrics: &mut MetricsSnapshot,
    hd: &HostData,
    stats: &RunStats,
    trace_enabled: bool,
    arena_high: u64,
    log_bytes: u64,
) -> Option<String> {
    let wall_ns = u64::try_from(stats.wall.as_nanos()).unwrap_or(u64::MAX);
    let mut sums = HostShardTimes::default();
    let mut min_exec = u64::MAX;
    let mut max_exec = 0u64;
    for (s, t) in hd.shards.iter().enumerate() {
        let name = format!("host_shard_{s}");
        metrics.push_counter(&name, "total_batches", t.total_batches);
        metrics.push_counter(&name, "sampled_batches", t.sampled_batches);
        metrics.push_counter(&name, "sampled_events", t.sampled_events);
        metrics.push_counter(&name, "drain_ns", t.drain_ns);
        metrics.push_counter(&name, "execute_ns", t.execute_ns);
        metrics.push_counter(&name, "sample_edge_ns", t.sample_edge_ns);
        metrics.push_counter(&name, "fold_ns", t.fold_ns);
        metrics.push_counter(&name, "exchange_ns", t.exchange_ns);
        metrics.push_counter(&name, "checkpoint_ns", t.checkpoint_ns);
        metrics.push_counter(&name, "checkpoint_writes", t.checkpoint_writes);
        metrics.push_counter(&name, "checkpoint_bytes", t.checkpoint_bytes);
        sums.merge(t);
        min_exec = min_exec.min(t.execute_ns);
        max_exec = max_exec.max(t.execute_ns);
    }
    metrics.push_counter("host", "wall_ns", wall_ns);
    metrics.push_counter("host", "drain_ns", sums.drain_ns);
    metrics.push_counter("host", "execute_ns", sums.execute_ns);
    metrics.push_counter("host", "sample_edge_ns", sums.sample_edge_ns);
    metrics.push_counter("host", "fold_ns", sums.fold_ns);
    metrics.push_counter("host", "exchange_ns", sums.exchange_ns);
    metrics.push_counter("host", "total_batches", sums.total_batches);
    metrics.push_counter("host", "sampled_batches", sums.sampled_batches);
    metrics.push_counter("host", "sampled_events", sums.sampled_events);
    // Encoded bytes of the per-interface sample and span logs when
    // assembly began: what the run held for its two largest outputs.
    metrics.push_counter("host", "log_bytes", log_bytes);
    // Imbalance gauges, scaled by 1000 (integer metrics plane):
    // `execute_imbalance_millis` is the max/min per-shard execute-time
    // ratio (1000 = perfectly balanced); `barrier_wait_millis` the
    // fraction of total loop time spent waiting at the fold barrier.
    if hd.shards.len() > 1 && min_exec > 0 {
        metrics.push_counter(
            "host",
            "execute_imbalance_millis",
            max_exec.saturating_mul(1000) / min_exec,
        );
    }
    let loop_ns =
        sums.drain_ns + sums.execute_ns + sums.sample_edge_ns + sums.fold_ns + sums.exchange_ns;
    if let Some(wait) = sums.fold_ns.saturating_mul(1000).checked_div(loop_ns) {
        metrics.push_counter("host", "barrier_wait_millis", wait);
    }
    // Per-component-class attribution from the sampled batches, in
    // name order so the plane layout is stable.
    let mut classes = sums.classes.clone();
    classes.sort_by(|a, b| a.0.cmp(&b.0));
    for (class, ns, events) in &classes {
        metrics.push_counter("host", &format!("class_{class}_ns"), *ns);
        metrics.push_counter("host", &format!("class_{class}_events"), *events);
    }
    // Checkpoint attribution: worker-side state capture plus the
    // parent-side file writes.
    metrics.push_counter(
        "host",
        "checkpoint_writes",
        sums.checkpoint_writes + hd.ckpt.writes,
    );
    metrics.push_counter("host", "checkpoint_ns", sums.checkpoint_ns + hd.ckpt.ns);
    metrics.push_counter(
        "host",
        "checkpoint_bytes",
        sums.checkpoint_bytes + hd.ckpt.bytes,
    );
    if let Some(hub) = &hd.hub {
        metrics.push_counter("host", "hub_rounds", hub.rounds);
        metrics.push_counter("host", "hub_fold_ns", hub.fold_ns);
        for (w, (inb, outb)) in hub.wire_in.iter().zip(&hub.wire_out).enumerate() {
            metrics.push_counter("host", &format!("worker_{w}_wire_in_bytes"), *inb);
            metrics.push_counter("host", &format!("worker_{w}_wire_out_bytes"), *outb);
        }
    }
    if !trace_enabled {
        return None;
    }

    // --- Chrome trace_event export ---------------------------------
    // In-process runs put every shard on pid 0, one tid per shard;
    // process runs get one pid per worker (the hub is pid 0). Each
    // sampled round renders a parent "round" slice with fold/execute/
    // exchange children laid end to end, so slices nest by
    // construction. Worker processes time against their own epochs;
    // cross-pid skew is cosmetic.
    let process_run = hd.hub.is_some();
    let mut tb = TraceEventBuilder::new();
    tb.process_name(
        0,
        if process_run {
            "supersim-hub"
        } else {
            "supersim"
        },
    );
    for (s, t) in hd.shards.iter().enumerate() {
        let (pid, tid) = if process_run {
            (1 + s as u64, 0u64)
        } else {
            (0u64, s as u64)
        };
        if process_run {
            tb.process_name(pid, &format!("worker-{s}"));
        }
        tb.thread_name(pid, tid, &format!("shard-{s}"));
        for sl in &t.round_slices {
            let start_us = sl.start_ns / 1000;
            let fold_us = sl.fold_ns / 1000;
            let exec_us = sl.execute_ns / 1000;
            let exch_us = sl.exchange_ns / 1000;
            tb.slice(pid, tid, "round", start_us, fold_us + exec_us + exch_us);
            if fold_us > 0 {
                tb.slice(pid, tid, "fold", start_us, fold_us);
            }
            if exec_us > 0 {
                tb.slice(pid, tid, "execute", start_us + fold_us, exec_us);
            }
            if exch_us > 0 {
                tb.slice(pid, tid, "exchange", start_us + fold_us + exec_us, exch_us);
            }
            let dur_ns = sl.fold_ns + sl.execute_ns + sl.exchange_ns;
            if let Some(eps) = sl.events.saturating_mul(1_000_000_000).checked_div(dur_ns) {
                tb.counter(pid, "events_per_sec", start_us, eps);
            }
        }
    }
    if !hd.ckpt.slices.is_empty() {
        let ckpt_tid = if process_run {
            0
        } else {
            hd.shards.len() as u64
        };
        tb.thread_name(0, ckpt_tid, "checkpoint");
        for &(start_ns, dur_ns) in &hd.ckpt.slices {
            tb.slice(0, ckpt_tid, "checkpoint", start_ns / 1000, dur_ns / 1000);
        }
    }
    tb.counter(0, "arena_occupancy_peak", 0, arena_high);
    Some(tb.finish())
}

impl std::fmt::Debug for SuperSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperSim")
            .field("topology", &self.built.topology.name())
            .field("terminals", &self.built.topology.num_terminals())
            .field("routers", &self.built.topology.num_routers())
            .finish()
    }
}

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

    /// A [`WindowAnalysis`] over the sampling window.
    pub fn analysis(&self) -> Option<WindowAnalysis> {
        let (start, end) = self.window()?;
        Some(WindowAnalysis {
            window_start: start,
            window_end: end,
            terminals: self.terminals as u64,
        })
    }

    /// Builds the load-latency point for this run at the given offered
    /// load (flits/tick/terminal), filtered by `filter`.
    ///
    /// Delivered load uses the exact phase-boundary flit counts (all
    /// traffic, not just sampled packets), so steady-state throughput has
    /// no window edge effects.
    pub fn load_point(&self, offered: f64, filter: &Filter) -> Option<LoadPoint> {
        let mut point = self.analysis()?.load_point(&self.log, filter, offered);
        let (start, end) = self.window()?;
        // Normalize to a fraction of the line rate so offered and
        // delivered are directly comparable at any link period.
        point.delivered = self.window_flits as f64 / (end - start) as f64 / self.terminals as f64
            * self.link_period as f64;
        Some(point)
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
