//! The `supersim` command-line simulator (paper Listing 1):
//!
//! ```text
//! supersim myconfig.json \
//!     network.router.architecture=string=my_arch \
//!     network.concentration=uint=16
//! ```
//!
//! Loads a JSON configuration — expanding `$include` files and `$ref`
//! object references (paper §III-C) — applies `path=type=value` overrides
//! in order, runs the simulation, prints an SSParse-style summary, and
//! writes the sample log next to the configuration as `<config>.log`
//! (parse it later with the `ssparse` tool or `--log <path>` to choose
//! the location; `--no-log` skips it).
//!
//! Observability outputs: `--metrics <file>` writes the end-of-run
//! metrics snapshot as JSON (render it with `ssreport`), and
//! `--trace <file>` writes the JSON-lines flit trace (requires
//! `observability.trace.enabled=bool=true` in the configuration).
//!
//! Time-resolved measurement: `--sample-interval <n>` arms the windowed
//! sampling plane (shorthand for `sample.interval`) and writes the
//! JSON-lines time-series next to the configuration as `<config>.timeseries`
//! (or `--timeseries <path>` to choose the location; render it with
//! `ssplot`). `--spans` enables per-packet latency attribution
//! (shorthand for `spans.enabled`); `--span-log <path>` additionally
//! dumps the per-packet span records as JSON-lines. Both outputs are
//! byte-identical across engines and shard counts.
//!
//! Engine selection: `--engine sequential|sharded` picks the execution
//! backend and `--shards <n>` the worker count (sharded only). Both are
//! shorthand for the `engine.kind` / `engine.shards` configuration paths
//! and take precedence over the configuration file and the
//! `SUPERSIM_ENGINE` / `SUPERSIM_SHARDS` environment variables. Results
//! are bit-identical across engines for one `(configuration, seed)`.
//!
//! Multi-process execution: `--workers <n>` runs the sharded engine
//! across `n` OS processes (shorthand for `engine.kind=sharded`,
//! `engine.transport=process`, `engine.shards=n`). The parent re-executes
//! this binary in the hidden `__worker` role, one process per shard, and
//! merges their outputs — byte-identical to the single-process backends
//! for one `(configuration, seed)`.
//!
//! Checkpoint/restore: `--checkpoint-interval <n>` captures the complete
//! simulation state into `--checkpoint-dir` (default `checkpoints/`)
//! every `n` ticks, on every backend. `--resume <file>` restores a
//! checkpoint into a freshly built simulation and continues the run —
//! logs, traces, metrics, and time-series come out byte-identical to an
//! uninterrupted run. In `--workers` mode the parent additionally
//! respawns a crashed or hung fleet from the last completed checkpoint
//! (budget `checkpoint.max_restarts`, default 3). `--worker-timeout-ms`
//! bounds how long the parent waits on a wedged worker socket
//! (shorthand for `process.timeout_ms`).
//!
//! Host-time observability: `--host-profile` arms the out-of-band
//! wall-clock profiler (`host.profile.enabled`) — where the run's host
//! time went, per engine phase and component class, in the `host` /
//! `host_shard_<s>` metrics planes (render with `ssreport
//! --host-profile`). `--host-trace <file>` additionally writes a Chrome
//! `trace_event` JSON timeline loadable in Perfetto. `--progress[=<ms>]`
//! emits a live JSON-lines heartbeat to stderr (tick, events/s, ETA;
//! default every 1000 ms). All three are strictly out-of-band:
//! simulation outputs stay byte-identical with them on or off.
//!
//! Scenarios: `--scenario <name|file>` compiles a compact scenario
//! declaration (a library name like `incast_storm`, or a declaration
//! file) into a full configuration and runs it. A declaration file given
//! as the plain configuration argument is detected by its top-level
//! `"scenario"` name and compiled the same way, so every file under
//! `configs/` — plain or declarative — runs with the same command line.
//! Expand without running via the `ssgen` tool.

use std::path::PathBuf;
use std::process::ExitCode;

use supersim::config;
use supersim::core::{SimError, SuperSim};
use supersim::scenario;
use supersim::stats::Filter;
use supersim::tools;

struct Args {
    config_path: Option<PathBuf>,
    scenario: Option<String>,
    overrides: Vec<String>,
    log_path: Option<PathBuf>,
    no_log: bool,
    metrics_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    engine: Option<String>,
    shards: Option<u64>,
    workers: Option<u64>,
    faults: Option<f64>,
    watchdog_ticks: Option<u64>,
    sample_interval: Option<u64>,
    timeseries_path: Option<PathBuf>,
    spans: bool,
    span_log_path: Option<PathBuf>,
    checkpoint_interval: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    worker_timeout_ms: Option<u64>,
    host_profile: bool,
    host_trace_path: Option<PathBuf>,
    progress_interval_ms: Option<u64>,
}

/// The pinned exit code of a degraded run; documented in the README.
/// 0 = clean, 1 = usage/configuration/build/output-io error, 2 = the
/// simulation degraded (deadlock, lost traffic, model error), 3 = the
/// no-progress watchdog tripped, 4 = a worker process failed, 5 = a
/// checkpoint resume failed.
fn exit_code(error: &SimError) -> u8 {
    match error {
        SimError::Model(_) | SimError::Stalled { .. } | SimError::Incomplete { .. } => 2,
        SimError::Watchdog { .. } => 3,
        SimError::Worker { .. } => 4,
        SimError::Resume { .. } => 5,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut config_path = None;
    let mut scenario = None;
    let mut overrides = Vec::new();
    let mut log_path = None;
    let mut no_log = false;
    let mut metrics_path = None;
    let mut trace_path = None;
    let mut engine = None;
    let mut shards = None;
    let mut workers = None;
    let mut faults = None;
    let mut watchdog_ticks = None;
    let mut sample_interval = None;
    let mut timeseries_path = None;
    let mut spans = false;
    let mut span_log_path = None;
    let mut checkpoint_interval = None;
    let mut checkpoint_dir = None;
    let mut resume = None;
    let mut worker_timeout_ms = None;
    let mut host_profile = false;
    let mut host_trace_path = None;
    let mut progress_interval_ms = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if let Some(v) = arg.strip_prefix("--progress=") {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--progress interval must be in milliseconds, got {v:?}"))?;
            if n == 0 {
                return Err("--progress interval must be non-zero".to_string());
            }
            progress_interval_ms = Some(n);
            continue;
        }
        match arg.as_str() {
            "--host-profile" => host_profile = true,
            "--host-trace" => {
                let p = it.next().ok_or("--host-trace needs a path")?;
                host_trace_path = Some(PathBuf::from(p));
            }
            "--progress" => progress_interval_ms = Some(1000),
            "--log" => {
                let p = it.next().ok_or("--log needs a path")?;
                log_path = Some(PathBuf::from(p));
            }
            "--no-log" => no_log = true,
            "--metrics" => {
                let p = it.next().ok_or("--metrics needs a path")?;
                metrics_path = Some(PathBuf::from(p));
            }
            "--trace" => {
                let p = it.next().ok_or("--trace needs a path")?;
                trace_path = Some(PathBuf::from(p));
            }
            "--engine" => {
                let k = it.next().ok_or("--engine needs a kind")?;
                engine = Some(match k.as_str() {
                    "seq" | "sequential" => "sequential".to_string(),
                    "sharded" => k,
                    _ => {
                        return Err(format!(
                        "--engine must be \"sequential\" (alias \"seq\") or \"sharded\", got {k:?}"
                    ))
                    }
                });
            }
            "--shards" => {
                let n = it.next().ok_or("--shards needs a count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--shards must be an integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--shards must be non-zero".to_string());
                }
                shards = Some(n);
            }
            "--workers" => {
                let n = it.next().ok_or("--workers needs a count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--workers must be an integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--workers must be non-zero".to_string());
                }
                workers = Some(n);
            }
            "--faults" => {
                let r = it.next().ok_or("--faults needs a bit-error rate")?;
                let r: f64 = r
                    .parse()
                    .map_err(|_| format!("--faults must be a probability, got {r:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--faults must be in [0, 1], got {r}"));
                }
                faults = Some(r);
            }
            "--watchdog-ticks" => {
                let n = it.next().ok_or("--watchdog-ticks needs a tick count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--watchdog-ticks must be an integer, got {n:?}"))?;
                watchdog_ticks = Some(n);
            }
            "--sample-interval" => {
                let n = it.next().ok_or("--sample-interval needs a tick count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--sample-interval must be an integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--sample-interval must be non-zero".to_string());
                }
                sample_interval = Some(n);
            }
            "--timeseries" => {
                let p = it.next().ok_or("--timeseries needs a path")?;
                timeseries_path = Some(PathBuf::from(p));
            }
            "--scenario" => {
                let s = it
                    .next()
                    .ok_or("--scenario needs a name or declaration file")?;
                scenario = Some(s);
            }
            "--spans" => spans = true,
            "--span-log" => {
                let p = it.next().ok_or("--span-log needs a path")?;
                span_log_path = Some(PathBuf::from(p));
            }
            "--checkpoint-interval" => {
                let n = it
                    .next()
                    .ok_or("--checkpoint-interval needs a tick count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--checkpoint-interval must be an integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--checkpoint-interval must be non-zero".to_string());
                }
                checkpoint_interval = Some(n);
            }
            "--checkpoint-dir" => {
                let p = it.next().ok_or("--checkpoint-dir needs a path")?;
                checkpoint_dir = Some(PathBuf::from(p));
            }
            "--resume" => {
                let p = it.next().ok_or("--resume needs a checkpoint file")?;
                resume = Some(PathBuf::from(p));
            }
            "--worker-timeout-ms" => {
                let n = it.next().ok_or("--worker-timeout-ms needs a budget")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--worker-timeout-ms must be an integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--worker-timeout-ms must be non-zero".to_string());
                }
                worker_timeout_ms = Some(n);
            }
            "--help" | "-h" => {
                return Err("usage: supersim <config.json | --scenario <name|file>> \
                            [path=type=value ...] \
                            [--log <file> | --no-log] [--metrics <file>] [--trace <file>] \
                            [--engine sequential|sharded] [--shards <n>] [--workers <n>] \
                            [--faults <bit-error-rate>] [--watchdog-ticks <n>] \
                            [--sample-interval <n>] [--timeseries <file>] \
                            [--spans] [--span-log <file>] \
                            [--checkpoint-interval <n>] [--checkpoint-dir <dir>] \
                            [--resume <checkpoint>] [--worker-timeout-ms <n>] \
                            [--host-profile] [--host-trace <file>] [--progress[=<ms>]]"
                    .to_string())
            }
            a if a.contains('=') => overrides.push(a.to_string()),
            a if config_path.is_none() => config_path = Some(PathBuf::from(a)),
            a => return Err(format!("unexpected argument {a:?}")),
        }
    }
    if config_path.is_none() && scenario.is_none() {
        return Err("missing configuration file (or --scenario <name|file>)".to_string());
    }
    if config_path.is_some() && scenario.is_some() {
        return Err("give either a configuration file or --scenario, not both".to_string());
    }
    if workers.is_some() && (engine.is_some() || shards.is_some()) {
        return Err("--workers already implies --engine sharded and --shards; \
                    give one or the other"
            .to_string());
    }
    Ok(Args {
        config_path,
        scenario,
        overrides,
        log_path,
        no_log,
        metrics_path,
        trace_path,
        engine,
        shards,
        workers,
        faults,
        watchdog_ticks,
        sample_interval,
        timeseries_path,
        spans,
        span_log_path,
        checkpoint_interval,
        checkpoint_dir,
        resume,
        worker_timeout_ms,
        host_profile,
        host_trace_path,
        progress_interval_ms,
    })
}

fn main() -> ExitCode {
    // The hidden worker role of `--workers` runs: the parent re-executes
    // this binary as `supersim __worker <socket> <index>`. Dispatched
    // before normal argument parsing — the configuration arrives over
    // the socket, not argv.
    #[cfg(unix)]
    {
        let argv: Vec<String> = std::env::args().collect();
        if argv.get(1).is_some_and(|a| a == "__worker") {
            let (Some(socket), Some(index)) = (argv.get(2), argv.get(3)) else {
                eprintln!("usage: supersim __worker <socket> <index>");
                return ExitCode::FAILURE;
            };
            let Ok(index) = index.parse::<u32>() else {
                eprintln!("supersim __worker: index must be an integer, got {index:?}");
                return ExitCode::FAILURE;
            };
            return ExitCode::from(supersim::core::run_worker(socket, index) as u8);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Three ways in: `--scenario <name|file>`, a declaration file given as
    // the plain argument (detected by its top-level "scenario" name), or a
    // full configuration file. `base` anchors the default output paths.
    let (mut cfg, base) = if let Some(arg) = &args.scenario {
        match scenario::resolve(arg) {
            Ok(c) => {
                eprintln!("supersim: scenario {} expanded", c.name);
                (c.config, PathBuf::from(format!("{}.json", c.name)))
            }
            Err(e) => {
                eprintln!("supersim: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let path = args.config_path.clone().expect("checked in parse_args");
        let loaded = match config::expand_file(&path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("supersim: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if scenario::is_declaration(&loaded) {
            match scenario::compile(&loaded) {
                Ok(c) => {
                    eprintln!("supersim: scenario {} expanded", c.name);
                    (c.config, path)
                }
                Err(e) => {
                    eprintln!("supersim: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            (loaded, path)
        }
    };
    if let Err(e) = config::apply_overrides(&mut cfg, &args.overrides) {
        eprintln!("supersim: {e}");
        return ExitCode::FAILURE;
    }
    // Flags outrank both the configuration file and the environment.
    if let Some(kind) = &args.engine {
        if cfg
            .set_path("engine.kind", config::Value::Str(kind.clone()))
            .is_err()
        {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if let Some(n) = args.shards {
        if cfg
            .set_path("engine.shards", config::Value::Int(n as i64))
            .is_err()
        {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if let Some(n) = args.workers {
        let kind = cfg.set_path("engine.kind", config::Value::Str("sharded".into()));
        let transport = cfg.set_path("engine.transport", config::Value::Str("process".into()));
        let count = cfg.set_path("engine.shards", config::Value::Int(n as i64));
        if kind.is_err() || transport.is_err() || count.is_err() {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if let Some(rate) = args.faults {
        let enabled = cfg.set_path("fault.enabled", config::Value::Bool(true));
        let ber = cfg.set_path("fault.bit_error_rate", config::Value::Float(rate));
        if enabled.is_err() || ber.is_err() {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if let Some(n) = args.watchdog_ticks {
        if cfg
            .set_path("watchdog.ticks", config::Value::Int(n as i64))
            .is_err()
        {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if let Some(n) = args.sample_interval {
        if cfg
            .set_path("sample.interval", config::Value::Int(n as i64))
            .is_err()
        {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    if args.spans
        && cfg
            .set_path("spans.enabled", config::Value::Bool(true))
            .is_err()
    {
        eprintln!("supersim: configuration root must be an object");
        return ExitCode::FAILURE;
    }
    // Host-time observability flags: `--host-profile` arms the
    // out-of-band wall-clock profiler, `--host-trace` additionally
    // renders the Chrome trace (and implies profiling), `--progress`
    // the live heartbeat. All shorthand for `host.*` / `progress.*`
    // configuration paths.
    let host_overrides = [
        (args.host_profile || args.host_trace_path.is_some())
            .then_some(("host.profile.enabled", config::Value::Bool(true))),
        args.host_trace_path
            .is_some()
            .then_some(("host.trace.enabled", config::Value::Bool(true))),
        args.progress_interval_ms
            .map(|n| ("progress.interval_ms", config::Value::Int(n as i64))),
    ];
    for (path, value) in host_overrides.into_iter().flatten() {
        if cfg.set_path(path, value).is_err() {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }
    let checkpoint_overrides = [
        args.checkpoint_interval
            .map(|n| ("checkpoint.interval", config::Value::Int(n as i64))),
        args.checkpoint_dir.as_ref().map(|p| {
            (
                "checkpoint.dir",
                config::Value::Str(p.to_string_lossy().into_owned()),
            )
        }),
        args.resume.as_ref().map(|p| {
            (
                "checkpoint.resume",
                config::Value::Str(p.to_string_lossy().into_owned()),
            )
        }),
        args.worker_timeout_ms
            .map(|n| ("process.timeout_ms", config::Value::Int(n as i64))),
    ];
    for (path, value) in checkpoint_overrides.into_iter().flatten() {
        if cfg.set_path(path, value).is_err() {
            eprintln!("supersim: configuration root must be an object");
            return ExitCode::FAILURE;
        }
    }

    let sim = match SuperSim::from_config(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("supersim: {e}");
            return ExitCode::FAILURE;
        }
    };
    // An output the final configuration never collects is refused before
    // the run, not after it. The build above has type-checked each key.
    let uncollected = [
        (
            args.trace_path.is_some()
                && !cfg
                    .opt_bool("observability.trace.enabled", false)
                    .unwrap_or(false),
            "--trace needs observability.trace.enabled=bool=true in the configuration",
        ),
        (
            args.span_log_path.is_some() && !cfg.opt_bool("spans.enabled", false).unwrap_or(false),
            "--span-log needs --spans or spans.enabled in the configuration",
        ),
        (
            args.timeseries_path.is_some() && cfg.opt_u64("sample.interval", 0).unwrap_or(0) == 0,
            "--timeseries needs --sample-interval <n> or sample.interval in the configuration",
        ),
    ];
    if let Some((_, msg)) = uncollected.iter().find(|(refused, _)| *refused) {
        eprintln!("supersim: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "supersim: {} — {} terminals, {} routers",
        sim.topology().name(),
        sim.topology().num_terminals(),
        sim.topology().num_routers()
    );
    let started = std::time::Instant::now();
    // A degraded run (deadlock, watchdog trip, model error) still flushes
    // every requested output below — marked degraded in the metrics — and
    // exits nonzero after printing the diagnostic snapshot.
    let report = sim.run_report();
    let out = &report.output;
    match &report.error {
        None => eprintln!(
            "supersim: drained at tick {} — {} events in {:.2?} ({:.2} M events/s)",
            out.engine.end_time.tick(),
            out.engine.events_executed,
            started.elapsed(),
            out.engine.events_per_second() / 1e6
        ),
        Some(e) => eprintln!(
            "supersim: DEGRADED after {} events in {:.2?}: {e}",
            out.engine.events_executed,
            started.elapsed(),
        ),
    }
    if let Some(diag) = &report.diagnostic {
        eprint!("supersim: {diag}");
    }
    for (phase, tick) in &out.phase_times {
        eprintln!("supersim: phase {phase} at tick {tick}");
    }

    print!("{}", tools::analyze(&out.log, &Filter::new()).to_table());

    if !args.no_log {
        let path = args.log_path.unwrap_or_else(|| base.with_extension("log"));
        if let Err(e) = std::fs::write(&path, out.log.to_text()) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "supersim: wrote {} ({} records)",
            path.display(),
            out.log.len()
        );
    }
    if let Some(path) = &args.metrics_path {
        if let Err(e) = std::fs::write(path, out.metrics.to_json()) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "supersim: wrote {} ({} metrics)",
            path.display(),
            out.metrics.len()
        );
    }
    if let Some(path) = &args.trace_path {
        let Some(trace) = &out.trace else {
            // Tracing was armed (checked before the run), so the run
            // never assembled its outputs.
            eprintln!("supersim: no flit trace collected");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "supersim: wrote {} ({} trace lines)",
            path.display(),
            trace.lines().count()
        );
    }
    if let Some(ts) = &out.timeseries {
        let path = args
            .timeseries_path
            .unwrap_or_else(|| base.with_extension("timeseries"));
        if let Err(e) = std::fs::write(&path, ts) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "supersim: wrote {} ({} sample windows)",
            path.display(),
            ts.lines().count()
        );
    }
    if let Some(path) = &args.host_trace_path {
        let Some(host_trace) = &out.host_trace else {
            // `--host-trace` implies host.trace.enabled above, so an
            // absent document means the run never assembled (degraded
            // before any host data existed).
            eprintln!("supersim: no host trace collected");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, host_trace) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("supersim: wrote {} (host trace)", path.display());
    }
    // Spans were armed (checked before the run), so the dump is present.
    if let (Some(path), Some(spans)) = (&args.span_log_path, &out.spans) {
        if let Err(e) = std::fs::write(path, spans) {
            eprintln!("supersim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "supersim: wrote {} ({} span records)",
            path.display(),
            spans.lines().count()
        );
    }
    // Pinned exit codes, documented in the README: 0 clean, 1 usage /
    // configuration / output-io error (the early returns above), 2
    // degraded simulation, 3 watchdog trip, 4 worker failure, 5 resume
    // failure.
    match &report.error {
        Some(e) => ExitCode::from(exit_code(e)),
        None => ExitCode::SUCCESS,
    }
}
