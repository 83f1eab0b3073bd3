//! The simulator facade: build from configuration, run, collect results.
//!
//! The engine is one concrete `des::Simulator` on every backend, and a
//! run is one path — resume, heartbeat, [`drive`], [`assemble`]. The
//! sequential and thread backends take it in [`SuperSim::run_report`]. A
//! worker process takes it in `process.rs` with the hub as its
//! checkpoint destination and ships its final shard blob; the parent's
//! own simulator is the never-run layout of the same simulation, which
//! restores the fleet's blobs and rejoins at [`assemble`], where each
//! crate pushes the report planes it owns from the engine's components
//! and the engine ends, before any dump is rendered. Every checkpoint
//! file is written by the one [`CheckpointWriter`].

use std::path::PathBuf;
use std::sync::Arc;

use supersim_config::Value;
use supersim_des::wire::Overlay;
use supersim_des::{next_edge_after, EngineMetrics, RunOutcome, RunStats, Tick};
use supersim_netbase::{trace_json_lines, FaultCounters, LinkFaults};
use supersim_router::{push_router_planes, Router};
use supersim_stats::{
    fold_windows, timeseries_json_lines, CkptTimes, Histogram, HostClock, HostData, MetricValue,
    MetricsSnapshot,
};
use supersim_topology::Topology;
use supersim_workload::{
    push_workload_plane, spans_json_lines, Interface, InterfaceLogs, WorkloadMonitor,
    WorkloadReport,
};

use crate::builder::{build, Built};
use crate::checkpoint::CheckpointHeader;
use crate::error::{BuildError, SimError};
use crate::factory::Factories;
use crate::report::{classify, DiagnosticSnapshot, RouterDiag, RunOutput, RunReport};

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
                return resume_failure(self.built, reason);
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
        let report = assemble(self.built, inputs);
        if let Some(hb) = heartbeat {
            hb.finish(&report);
        }
        report
    }
}

/// Restores a checkpoint file into the freshly built engine. The header
/// identity fields must match the built configuration; the state blob
/// must restore cleanly, which takes the configuration the checkpoint was
/// written under (its armed planes, `spans.enabled` among them). Any
/// failure keeps the engine untouched enough to report, but the run must
/// not proceed.
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
            "state blob of {} did not restore cleanly: resume under the \
             configuration that wrote it (spans.enabled included)",
            path.display()
        ));
    }
    Ok(())
}

/// The report of a run that never started because its checkpoint could
/// not be restored: a typed [`SimError::Resume`] and no flit trace.
pub(crate) fn resume_failure(mut built: Built, reason: String) -> RunReport {
    let stats = RunStats {
        events_executed: 0,
        end_time: built.engine.now(),
        queue_high_water: 0,
        total_enqueued: 0,
        wall: std::time::Duration::ZERO,
        outcome: RunOutcome::Stopped,
    };
    let shard_metrics = built.engine.shard_metrics();
    // A run that never started writes no flit trace.
    drop(built.engine.take_trace_records());
    let mut report = assemble(
        built,
        AssembleInputs {
            stats,
            shard_metrics,
            worker_error: None,
            host: None,
        },
    );
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
        let started_ns = built.engine.host_clock().now_ns();
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
            clock: built.engine.host_clock().clone(),
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

/// Assembles the run report, and is the engine's end: it consumes
/// `built`. Each metrics plane is pushed by the crate that owns its
/// counters, in the snapshot's fixed order — `engine`, `engine_shard_*`,
/// `workload`, `router_*`, `profile`, `host_shard_*` and `host`, `run`,
/// `fault`. Components are walked by index and every merge is commutative
/// integer arithmetic, so the result is byte-identical however the
/// components were partitioned across shards or processes. Components the
/// engine does not hold (a dead worker's) are skipped, degrading the
/// report instead of failing it.
///
/// Everything read from the components — their planes, the window fold,
/// the fault totals and the diagnostic — is read first, and the sample
/// logs, span logs and trace ring are moved out; then the engine is
/// dropped, and only then are the dumps rendered. A run with a span dump,
/// the one dump sized by its traffic, hands the freed heap back to the OS
/// before rendering it and again once the span logs are dropped
/// ([`release_freed_heap`]), so its peak holds the engine *or* its dumps;
/// any other run keeps the freed heap for the next in-process run. The
/// `host`, `run` and `fault` planes, which need no component, are pushed
/// after the dumps, so the `host` plane's `peak_rss_bytes` covers them.
pub(crate) fn assemble(mut built: Built, inputs: AssembleInputs) -> RunReport {
    let stats = inputs.stats;
    let logs: Vec<InterfaceLogs> = built
        .interfaces
        .iter()
        .filter_map(|&id| built.engine.component_as_mut(id).map(Interface::take_logs))
        .collect();
    let trace = built.engine.take_trace_records();
    let terminals = built.topology.num_terminals();
    let engine = &built.engine;
    let ifaces: Vec<&Interface> = built
        .interfaces
        .iter()
        .filter_map(|&id| engine.component_as(id))
        .collect();
    // `None` for a router the engine does not hold, and for a custom
    // (non-skeleton) router architecture, which reports no router planes.
    let routers: Vec<Option<&Router>> = built
        .routers
        .iter()
        .map(|&id| engine.component_as(id))
        .collect();

    let mut metrics = MetricsSnapshot::new();
    let (events_executed, total_enqueued) = push_engine_planes(&mut metrics, &inputs.shard_metrics);
    let workload = push_workload_plane(&mut metrics, &ifaces, logs, built.spans);
    let router = push_router_planes(&mut metrics, &routers, events_executed);
    let phase_times = engine
        .component_as::<WorkloadMonitor>(built.monitor)
        .map(|m| m.phase_times.clone())
        .unwrap_or_default();
    let error = classify(&stats, &phase_times, inputs.worker_error);
    let faults = workload.faults.iter().chain(&router.faults).copied();
    let fault = built.fault.as_ref().map(|_| fault_totals(faults));
    // The window fold is order-independent (commutative integer merges),
    // so the time series is byte-identical across engines and shard counts.
    let samplers = workload.samplers.iter().chain(&router.samplers).copied();
    let folded = (built.sample_interval > 0).then(|| fold_windows(samplers));
    let router_diags = error.as_ref().map(|_| {
        let diag = |(r, router): (usize, &Option<&Router>)| RouterDiag {
            router: r as u32,
            buffered_flits: router.map_or(0, Router::buffered_flits),
            credits: router.map(Router::credit_state).unwrap_or_default(),
        };
        routers.iter().enumerate().map(diag).collect()
    });
    let WorkloadReport {
        log,
        span_logs,
        counters,
        window_flits,
        span_metrics,
        log_bytes,
        ..
    } = workload;
    let (arena_high, spans, link_period) = (router.arena_high, built.spans, built.link_period);
    let host_trace_enabled = built.host.trace_enabled;
    drop(built);

    let span_text = span_logs.map(|logs| {
        release_freed_heap();
        let text = spans_json_lines(logs);
        release_freed_heap();
        text
    });
    let trace = trace.map(|t| trace_json_lines(&t));
    let timeseries = folded.as_deref().map(timeseries_json_lines);
    let host_trace = inputs.host.as_ref().and_then(|host| {
        let wall_ns = u64::try_from(stats.wall.as_nanos()).unwrap_or(u64::MAX);
        let host_trace = host_trace_enabled.then(|| host.chrome_trace(arena_high));
        host.push_planes(&mut metrics, wall_ns, log_bytes, terminals);
        host_trace
    });
    metrics.push_counter("run", "degraded", u64::from(error.is_some()));
    if let Some((sum, held)) = &fault {
        push_fault_plane(&mut metrics, sum, *held);
    }

    let diagnostic = router_diags.map(|routers| DiagnosticSnapshot {
        tick: stats.end_time.tick(),
        last_progress: match &stats.outcome {
            RunOutcome::Watchdog { last_progress } => Some(*last_progress),
            _ => None,
        },
        events_executed,
        events_pending: total_enqueued.saturating_sub(events_executed),
        shard_queue_depths: inputs
            .shard_metrics
            .iter()
            .map(|m| m.queue_len as u64)
            .collect(),
        routers,
        fault: fault.map(|(sum, _)| sum),
        last_window: folded.as_ref().and_then(|f| f.last().cloned()),
        spans: spans.then_some(span_metrics),
    });
    let output = RunOutput {
        log,
        engine: stats,
        phase_times,
        terminals,
        counters,
        window_flits,
        link_period,
        metrics,
        trace,
        timeseries,
        spans: span_text,
        host_trace,
    };
    RunReport {
        output,
        error,
        diagnostic,
    }
}

/// Gives the heap's freed memory back to the OS. glibc keeps freed small
/// chunks resident for reuse, and a dump larger than its mmap threshold
/// cannot reuse them, so without this a run's peak is its engine *plus*
/// its dumps. A no-op where the allocator is not glibc's.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, is
        // thread-safe, and only returns pages no live allocation uses.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Pushes the `engine` plane, which holds only values the determinism
/// contract pins across backends, then one `engine_shard_<s>` plane per
/// shard: scheduler diagnostics (batching, queue capacity, horizon) that
/// vary with the partition. The sequential engine is shard 0. Returns the
/// run's events executed and enqueued. Wall-clock throughput is reported
/// by the CLI from [`RunStats`], not recorded in the snapshot.
fn push_engine_planes(metrics: &mut MetricsSnapshot, shards: &[EngineMetrics]) -> (u64, u64) {
    let executed = shards.iter().map(|m| m.events_executed).sum();
    let enqueued = shards.iter().map(|m| m.total_enqueued).sum();
    metrics.push_counter("engine", "events_executed", executed);
    metrics.push_counter("engine", "total_enqueued", enqueued);
    for (s, m) in shards.iter().enumerate() {
        let name = format!("engine_shard_{s}");
        for (metric, value) in [
            ("events_executed", m.events_executed),
            ("batches", m.batches),
            ("total_enqueued", m.total_enqueued),
            ("horizon", m.horizon as u64),
            ("horizon_resizes", m.horizon_resizes),
            ("overflow_spills", m.overflow_spills),
            ("overflow_len", m.overflow_len as u64),
        ] {
            metrics.push_counter(name.clone(), metric, value);
        }
        let queue_len = MetricValue::Gauge {
            value: m.queue_len as u64,
            max: m.queue_high_water as u64,
        };
        metrics.push(name.clone(), "queue_len", queue_len);
        let batch_size = Histogram::from_log2_counts(&m.batch_counts, m.batches, m.events_executed);
        metrics.push_histogram(name, "batch_size", &batch_size);
    }
    (executed, enqueued)
}

/// The fault counters of every interface and router, summed, and the
/// flits their retransmission holds still park.
fn fault_totals<'a>(faults: impl Iterator<Item = &'a LinkFaults>) -> (FaultCounters, u64) {
    let (mut sum, mut held) = (FaultCounters::default(), 0);
    for f in faults {
        sum.absorb(&f.counters);
        held += f.held_flits();
    }
    (sum, held)
}

/// Pushes the `fault` plane from the [`fault_totals`].
fn push_fault_plane(metrics: &mut MetricsSnapshot, sum: &FaultCounters, held: u64) {
    for (name, value) in [
        ("injected", sum.injected),
        ("detected", sum.detected),
        ("recovered", sum.recovered),
        ("escalated", sum.escalated),
        ("held_flits", held),
        ("flit_clones", sum.flit_clones),
    ] {
        metrics.push_counter("fault", name, value);
    }
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
