//! `ssbench` — the repository's benchmark: three workloads built from the
//! configurations we ship (and a fourth, the torus on two shards, run once
//! beside the first as a cross-check), four end-to-end host-time metrics,
//! a per-layer ledger from a traced pass, and an exact check of the
//! simulated outputs.
//!
//! ```text
//! ssbench                       every workload, --reps timed repetitions each
//! ssbench --traced              the same plus the per-layer pass and probes
//! ssbench --probes              the fixed-input layer probes alone
//! ssbench --self-test           shows the output check can fail, and that a
//!                               non-default seed runs clean on both backends
//! ssbench --check-repeat        the whole set twice; fails if the two differ
//!                               by more than a metric's bound
//! ssbench --workload W --seed N --seconds S --trace 0|1
//!                               one workload for about S seconds; the form
//!                               BENCHMARK.json's command takes
//! ```
//!
//! Every repetition is a fresh child process of this binary (`__run`), so
//! its wall time is what one simulation costs a user and its `VmHWM` is
//! that run's alone. See `README.md` beside this package for the
//! workloads, metrics, bounds and how to read the trace.

mod alloc;
mod maths;
mod metrics;
mod probes;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use supersim::config::{self, Map, Value};

use maths::Summary;
use metrics::{published, Metric};
use workloads::{Repetition, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 3;
const DEFAULT_REPS: usize = 5;

/// Digests pinned at [`DEFAULT_SEED`], keyed by workload name.
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug, PartialEq)]
enum Mode {
    /// `__worker <socket> <index>`: a shard of a process-transport run.
    Worker {
        socket: String,
        index: u32,
    },
    /// `__run <workload>`: one repetition; prints a [`Repetition`] line.
    Run {
        workload: String,
        seed: u64,
        traced: bool,
    },
    /// One workload under a time budget (the driver's form).
    One {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    All {
        seed: u64,
        reps: usize,
        traced: bool,
    },
    Probes,
    SelfTest,
    CheckRepeat {
        seed: u64,
        reps: usize,
    },
}

const USAGE: &str = "usage: ssbench [--seed N] [--reps N] [--traced | --probes | --self-test | \
                     --check-repeat] | --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag} must be a whole number, got {v:?}"))
    };
    let first = args.first().map(String::as_str);
    if first == Some("__worker") {
        let (Some(socket), Some(index)) = (args.get(1), args.get(2)) else {
            return Err("usage: ssbench __worker <socket> <index>".to_string());
        };
        let index = index
            .parse()
            .map_err(|_| format!("__worker index must be an integer, got {index:?}"))?;
        return Ok(Mode::Worker {
            socket: socket.clone(),
            index,
        });
    }
    // `__run <workload>` takes the flags below too.
    let (run_workload, flags) = if first == Some("__run") {
        let name = args.get(1).ok_or("__run needs a workload name")?;
        (Some(name.clone()), &args[2..])
    } else {
        (None, args)
    };
    let mut it = flags.iter();

    let (mut workload, mut seconds, mut trace) = (None, None, None);
    let (mut seed, mut reps) = (DEFAULT_SEED, DEFAULT_REPS);
    let (mut traced, mut probes, mut self_test, mut check_repeat) = (false, false, false, false);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(it.next().ok_or("--workload needs a name")?.clone()),
            "--seed" => seed = number("--seed", it.next())?,
            "--reps" => reps = number("--reps", it.next())?.max(1) as usize,
            "--seconds" => seconds = Some(number("--seconds", it.next())?),
            "--trace" => trace = Some(number("--trace", it.next())? != 0),
            "--traced" => traced = true,
            "--probes" => probes = true,
            "--self-test" => self_test = true,
            "--check-repeat" => check_repeat = true,
            _ => return Err(format!("unexpected argument {arg:?}\n{USAGE}")),
        }
    }
    let known = |name: &String| {
        workloads::find(name).map(|_| ()).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (BENCHMARK.json lists {names:?})")
        })
    };
    if let Some(workload) = run_workload {
        known(&workload)?;
        return Ok(Mode::Run {
            workload,
            seed,
            traced,
        });
    }
    if let Some(workload) = workload {
        known(&workload)?;
        return Ok(Mode::One {
            workload,
            seed,
            seconds: seconds.unwrap_or(42) as f64,
            traced: trace.unwrap_or(traced),
        });
    }
    Ok(if probes {
        Mode::Probes
    } else if self_test {
        Mode::SelfTest
    } else if check_repeat {
        Mode::CheckRepeat { seed, reps }
    } else {
        Mode::All { seed, reps, traced }
    })
}

/// Where outputs, traces and checkpoints go: beside the executable, so
/// inside whatever target directory the build used.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("ssbench-out")
}

/// This executable in the `__run` role, with every variable that changes the
/// simulator's defaults or arms a test hook removed.
fn child(workload: &Workload, seed: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("__run")
        .arg(workload.name)
        .args(["--seed", &seed.to_string()]);
    for (name, _) in std::env::vars_os() {
        let name_text = name.to_string_lossy();
        if name_text == "SUPERSIM_ENGINE"
            || name_text == "SUPERSIM_SHARDS"
            || name_text.starts_with("SUPERSIM_TEST_")
        {
            cmd.env_remove(&name);
        }
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    Ok(cmd)
}

/// Runs `cmd` to its end and returns the last line it printed.
fn last_line(mut cmd: Command) -> Result<String, String> {
    let output = cmd
        .stdout(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("child process ended with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "child process printed nothing".to_string())
}

/// Everything measured on one workload.
struct Measured {
    workload: &'static Workload,
    seed: u64,
    /// Timed, untraced repetitions.
    reps: Vec<Repetition>,
    traced: Option<Repetition>,
    /// One untimed repetition of `workload.cross_check` at the same seed,
    /// traced if the pass is.
    cross_check: Option<Repetition>,
    /// Simulation runs attempted and failed, over every repetition.
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "wall_s" => self.reps.iter().map(|r| r.wall_s).collect(),
            "events_per_s" => self
                .reps
                .iter()
                .map(|r| r.events as f64 / r.wall_s)
                .collect(),
            "setup_s" => self.reps.iter().map(|r| r.setup_s).collect(),
            "peak_rss_mb" => self.reps.iter().map(|r| r.peak_rss_mb).collect(),
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }

    fn end_to_end(&self) -> Vec<(&'static Metric, Option<Summary>)> {
        published()
            .end_to_end
            .iter()
            .map(|m| {
                let samples = self.samples(&m.name);
                (m, (!samples.is_empty()).then(|| Summary::of(&samples)))
            })
            .collect()
    }

    fn digest(&self) -> Option<&str> {
        self.reps
            .iter()
            .chain(&self.traced)
            .map(|r| r.digest.as_str())
            .next()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && !self.reps.is_empty()
    }
}

/// How many timed repetitions to make.
enum Plan {
    /// One discarded warm-up, then this many.
    Reps(usize),
    /// As many as end before the deadline, at least one.
    Until(Instant),
}

fn run_child(w: &'static Workload, seed: u64, traced: bool) -> Result<Repetition, String> {
    let mut cmd = child(w, seed)?;
    if traced {
        cmd.arg("--traced");
    }
    Repetition::from_json(&last_line(cmd)?)
}

fn measure(w: &'static Workload, seed: u64, plan: Plan, traced: bool) -> Measured {
    let mut m = Measured {
        workload: w,
        seed,
        reps: Vec::new(),
        traced: None,
        cross_check: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // One repetition of `of`, its runs counted; the caller keeps what it
    // wants of the result.
    let repetition = |m: &mut Measured, of: &'static Workload, traced: bool| {
        m.attempted += of.runs;
        match run_child(of, seed, traced) {
            Ok(rep) => {
                m.failed += rep.failed;
                m.problems.extend(rep.errors.iter().cloned());
                Some(rep)
            }
            Err(e) => {
                m.failed += of.runs;
                m.problems.push(format!("{}: {e}", of.name));
                None
            }
        }
    };
    if traced {
        m.traced = repetition(&mut m, w, true);
    }
    if let Some(other) = w.cross_check {
        m.cross_check = repetition(&mut m, other, traced);
    }
    let timed = |m: &mut Measured| {
        let rep = repetition(m, w, false);
        m.reps.extend(rep);
    };
    match plan {
        Plan::Reps(n) => {
            // The warm-up's timings are discarded.
            repetition(&mut m, w, false);
            for _ in 0..n {
                timed(&mut m);
            }
        }
        Plan::Until(deadline) => loop {
            let start = Instant::now();
            timed(&mut m);
            if Instant::now() + start.elapsed() > deadline {
                break;
            }
        },
    }
    check_outputs(&mut m);
    m
}

/// The problems with a set of digests that should all be equal.
fn disagreement(workload: &str, digests: &[&str]) -> Option<String> {
    let first = digests.first()?;
    digests
        .iter()
        .any(|d| d != first)
        .then(|| format!("{workload}: repetitions disagree on the simulated outputs: {digests:?}"))
}

/// The digest pinned for `workload` at `seed`, if that seed is the pinned one.
fn pinned(workload: &str, seed: u64) -> Option<String> {
    let doc = config::parse(EXPECTED).expect("expected.json parses");
    (doc.req_u64("seed") == Ok(seed))
        .then(|| {
            let digest = doc.path("digests")?.get(workload)?;
            digest.as_str().map(str::to_string)
        })
        .flatten()
}

/// The output check: repetitions agree, the pinned digest matches at the
/// default seed, and the cross-check on the other backend has the same
/// digest (which is how `torus512_s2` is held to `torus512_seq`).
fn check_outputs(m: &mut Measured) {
    let name = m.workload.name;
    let digests: Vec<&str> = m
        .reps
        .iter()
        .chain(&m.traced)
        .map(|r| r.digest.as_str())
        .collect();
    let mut problems: Vec<String> = disagreement(name, &digests).into_iter().collect();
    if let Some(&digest) = digests.first() {
        if let Some(want) = pinned(name, m.seed).filter(|want| want != digest) {
            problems.push(format!(
                "{name}: digest {digest} differs from {want} pinned in expected.json"
            ));
        }
        match (m.workload.cross_check, &m.cross_check) {
            (Some(other), Some(rep)) if rep.digest != digest => problems.push(format!(
                "{name}: digest {digest} differs from {}, which {} gives at this seed",
                rep.digest, other.name
            )),
            _ => {}
        }
    }
    if !problems.is_empty() {
        // A mismatch is a failed run, not a footnote.
        m.failed = m.failed.max(1);
    }
    m.problems.extend(problems);
}

/// What only a sharded engine has: the round protocol's timings.
const ROUND_PROTOCOL: [&str; 4] = [
    "des.fold_s",
    "des.exchange_s",
    "des.barrier_wait_frac",
    "des.execute_imbalance",
];

/// The per-layer numbers of the workload's own traced repetition, with
/// the round protocol's from its cross-check on the sharded engine, and
/// the tracing overhead against the untraced median.
fn per_layer(m: &Measured) -> BTreeMap<String, f64> {
    let mut layers = m
        .traced
        .as_ref()
        .map(|t| t.layers.clone())
        .unwrap_or_default();
    if let Some(sharded) = &m.cross_check {
        for name in ROUND_PROTOCOL {
            if let Some(v) = sharded.layers.get(name) {
                layers.insert(name.to_string(), *v);
            }
        }
    }
    let untraced: Vec<f64> = m.reps.iter().map(|r| r.wall_s).collect();
    if let (Some(traced), false) = (&m.traced, untraced.is_empty()) {
        layers.insert(
            "ssbench.trace_overhead_frac".to_string(),
            traced.wall_s / maths::median(&untraced) - 1.0,
        );
    }
    layers
}

/// Prints the metrics of `layers` in the published order; with the wall
/// time they were measured in, every time among them also as its share
/// (but not the round protocol's, which are another run's).
fn print_layer_table(layers: &BTreeMap<String, f64>, wall_s: Option<f64>) {
    for metric in &published().per_layer {
        if let Some(v) = layers.get(&metric.name) {
            let share = wall_s
                .filter(|_| metric.unit == "s" && !ROUND_PROTOCOL.contains(&metric.name.as_str()))
                .map(|wall| format!("  {:5.1}% of wall", v / wall * 100.0))
                .unwrap_or_default();
            println!(
                "    {:<36} {:>16.6} {:<12} {} is better{share}",
                metric.name, v, metric.unit, metric.better
            );
        }
    }
}

fn print_workload(m: &Measured) {
    let verdict = if m.correct() { "ok" } else { "FAILED" };
    println!(
        "\n{}  seed {}  digest {}  [{verdict}]",
        m.workload.name,
        m.seed,
        m.digest().unwrap_or("-"),
    );
    println!("  {}", published().why(m.workload.name));
    for (metric, summary) in m.end_to_end() {
        match summary {
            Some(s) => println!(
                "  {:<14} {:>14.6} {:<4} q1 {:.6}  q3 {:.6}  n {}  spread {:.2}%  ({} is better, bound {:.0}%)",
                metric.name,
                s.median,
                metric.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                metric.better,
                metric.bound * 100.0
            ),
            None => println!("  {:<14} no samples", metric.name),
        }
    }
    println!(
        "  {:<14} {:>14.6}      {} of {} runs",
        "failed_frac",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    if let Some(r) = m.reps.first().or(m.traced.as_ref()) {
        println!(
            "  simulated time, exact, unvalidated against hardware: sim_events {}  sim_packets {}  \
             sim_end_tick {}  sim_mean_latency_ticks {:.4}",
            r.events, r.packets, r.end_tick, r.mean_latency_ticks
        );
    }
    if let (Some(other), Some(rep)) = (m.workload.cross_check, &m.cross_check) {
        println!(
            "  cross-check {}: digest {}  wall_s {:.6} (one untimed run: a reading, not a metric)",
            other.name, rep.digest, rep.wall_s
        );
    }
    for p in &m.problems {
        println!("  problem: {p}");
    }
}

fn print_layers(m: &Measured, layers: &BTreeMap<String, f64>, scratch: &Path) {
    let Some(traced) = &m.traced else { return };
    println!(
        "  per-layer (traced repetition, wall {:.6} s):",
        traced.wall_s
    );
    print_layer_table(layers, Some(traced.wall_s));
    println!("  self time by span (span minus its children):");
    for (name, s) in &traced.self_s {
        println!("    {name:<36} {s:>16.6} s");
    }
    let unattributed = layers.get("ssbench.unattributed_s").copied().unwrap_or(0.0);
    if unattributed > 0.05 * traced.wall_s {
        println!(
            "  note: {unattributed:.4} s of {:.4} s is outside every span (over 5%)",
            traced.wall_s
        );
    }
    println!(
        "  trace: {}",
        workloads::trace_path(scratch, m.workload).display()
    );
}

fn metric_value(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    // JSON has no NaN; a ratio over nothing reads as 0.
    m.insert(
        "value".into(),
        Value::Float(if value.is_finite() { value } else { 0.0 }),
    );
    m.insert("unit".into(), Value::Str(unit.to_string()));
    Value::Object(m)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Map) -> String {
    let mut m = Map::new();
    m.insert("correct".into(), Value::Bool(correct));
    m.insert("attempted".into(), Value::Int(attempted.max(1) as i64));
    m.insert("failed".into(), Value::Int(failed as i64));
    m.insert("metrics".into(), Value::Object(metrics));
    Value::Object(m).to_json()
}

fn end_to_end_metrics(m: &Measured, prefix: &str) -> Map {
    m.end_to_end()
        .into_iter()
        .filter_map(|(metric, s)| {
            Some((
                format!("{prefix}{}", metric.name),
                metric_value(s?.median, &metric.unit),
            ))
        })
        .collect()
}

/// Every published per-layer metric under `prefix`, and the names that
/// have no reading.
fn layer_metrics(layers: &BTreeMap<String, f64>, prefix: &str) -> (Map, Vec<&'static str>) {
    let mut missing = Vec::new();
    let metrics = published()
        .per_layer
        .iter()
        .map(|metric| {
            let v = layers.get(&metric.name).copied().unwrap_or_else(|| {
                missing.push(metric.name.as_str());
                0.0
            });
            (
                format!("{prefix}{}", metric.name),
                metric_value(v, &metric.unit),
            )
        })
        .collect();
    (metrics, missing)
}

/// What the numbers were measured on.
fn print_fingerprint(seed: u64, reps: &str) {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "ssbench: nproc {nproc} | cpu {cpu} | {} | git {} | seed {seed} | reps {reps}",
        tool("rustc", &["-V"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// The probes' readings, or why there are none.
type Probes = Result<BTreeMap<String, f64>, String>;

/// Runs the probes and prints their readings.
fn run_probes(scratch: &Path) -> Probes {
    let readings: BTreeMap<String, f64> = probes::run_all(scratch)
        .map_err(|e| format!("probe failed: {e}"))?
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    println!("\nlayer probes (fixed inputs, the same for every workload and seed):");
    print_layer_table(&readings, None);
    Ok(readings)
}

/// Measures one workload and prints it; with `probes`, the per-layer pass
/// too. Returns the end-to-end and the per-layer metrics of the result
/// line, their names behind `prefix`.
fn report(
    w: &'static Workload,
    seed: u64,
    plan: Plan,
    probes: Option<&Probes>,
    scratch: &Path,
    prefix: &str,
) -> (Measured, Map, Map) {
    let mut m = measure(w, seed, plan, probes.is_some());
    let mut layers = Map::new();
    let own = per_layer(&m);
    if let Some(probes) = probes {
        let mut all = own.clone();
        match probes {
            Ok(readings) => all.extend(readings.clone()),
            Err(e) => m.problems.push(e.clone()),
        }
        let (metrics, missing) = layer_metrics(&all, prefix);
        if !missing.is_empty() {
            m.problems.push(format!("no reading for {missing:?}"));
        }
        layers = metrics;
    }
    print_workload(&m);
    if probes.is_some() {
        print_layers(&m, &own, scratch);
    }
    let end_to_end = end_to_end_metrics(&m, prefix);
    (m, end_to_end, layers)
}

/// One workload within `seconds`: the form the driver calls.
fn run_one(w: &'static Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let scratch = scratch_root();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    print_fingerprint(seed, &format!("as fit in {seconds} s"));
    let probes = traced.then(|| run_probes(&scratch));
    let plan = Plan::Until(deadline);
    let (m, end_to_end, layers) = report(w, seed, plan, probes.as_ref(), &scratch, "");
    let metrics = if traced { layers } else { end_to_end };
    println!(
        "{}",
        result_json(m.correct(), m.attempted, m.failed, metrics)
    );
    ExitCode::SUCCESS
}

/// Every workload in turn. Returns what was measured, having printed it.
fn run_all(seed: u64, reps: usize, traced: bool, scratch: &Path) -> (Vec<Measured>, Map) {
    let probes = traced.then(|| run_probes(scratch));
    let mut metrics = Map::new();
    let mut all = Vec::new();
    for w in &WORKLOADS {
        let prefix = format!("{}.", w.name);
        let plan = Plan::Reps(reps);
        let (m, end_to_end, layers) = report(w, seed, plan, probes.as_ref(), scratch, &prefix);
        metrics.extend(end_to_end);
        metrics.extend(layers);
        all.push(m);
    }
    (all, metrics)
}

fn totals(all: &[Measured]) -> (bool, u64, u64) {
    (
        all.iter().all(Measured::correct),
        all.iter().map(|m| m.attempted).sum(),
        all.iter().map(|m| m.failed).sum(),
    )
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shows that the output check can fail and that it does not need the
/// pinned digests: a corrupted capture must be reported, and both torus
/// backends must agree at a seed nothing is pinned for.
fn self_test() -> ExitCode {
    use supersim::core::SuperSim;
    let cfg = config::parse(workloads::SWEEP_PLAIN[0].1).expect("shipped configuration parses");
    let report = match SuperSim::from_config(&cfg) {
        Ok(sim) => sim.run_report(),
        Err(e) => {
            println!("self-test: FAILED: quickstart does not build: {e}");
            return ExitCode::FAILURE;
        }
    };
    let log_text = report.output.log.to_text();
    let mut corrupted = log_text.clone().into_bytes();
    let middle = corrupted.len() / 2;
    corrupted[middle] ^= 0x01;
    let corrupted = String::from_utf8_lossy(&corrupted).into_owned();
    let digest_of = |text: &str| {
        let mut d = maths::Fnv::default();
        workloads::absorb(&mut d, text, &report.output);
        d.hex()
    };
    let (clean, broken) = (digest_of(&log_text), digest_of(&corrupted));
    let caught = disagreement("quickstart", &[&clean, &broken]);
    let stable = disagreement("quickstart", &[&clean, &digest_of(&log_text)]);
    println!(
        "self-test: one flipped byte in {} bytes of log text: {}",
        log_text.len(),
        caught.as_deref().unwrap_or("NOT DETECTED")
    );
    let mut ok = caught.is_some() && stable.is_none();

    let seed = DEFAULT_SEED + 1;
    let seq = workloads::find("torus512_seq").expect("a workload of that name");
    let m = measure(seq, seed, Plan::Reps(1), false);
    print_workload(&m);
    ok &= m.correct() && pinned(seq.name, seed).is_none() && m.cross_check.is_some();
    println!(
        "self-test: seed {seed} (nothing pinned): torus512_seq {} torus512_s2 {}",
        m.digest().unwrap_or("-"),
        m.cross_check
            .as_ref()
            .map_or("-", |rep| rep.digest.as_str())
    );
    println!("self-test: {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

/// Runs the whole set twice and names every metric whose two medians are
/// further apart than its bound, and every digest that changed. A metric
/// whose repetitions spread wider than its bound within a set is reported
/// as unresolved: its medians agreeing shows nothing.
fn check_repeat(seed: u64, reps: usize) -> ExitCode {
    let scratch = scratch_root();
    print_fingerprint(seed, &reps.to_string());
    let sets: Vec<Vec<Measured>> = (1..=2)
        .map(|set| {
            println!("\n=== set {set} of 2 ===");
            run_all(seed, reps, false, &scratch).0
        })
        .collect();
    let mut complaints = Vec::new();
    let mut unresolved = 0;
    println!("\n=== set 2 against set 1 ===");
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let name = a.workload.name;
        if !(a.correct() && b.correct()) {
            complaints.push(format!("{name}: a set failed its output check"));
        }
        if a.digest() != b.digest() {
            complaints.push(format!("{name}: digest changed between the sets"));
        }
        for ((metric, first), (_, second)) in a.end_to_end().into_iter().zip(b.end_to_end()) {
            let (Some(first), Some(second)) = (first, second) else {
                complaints.push(format!("{name}: {} has no samples", metric.name));
                continue;
            };
            let change = (second.median - first.median) / first.median;
            let spread = first.spread().max(second.spread());
            let noisy = spread > metric.bound;
            unresolved += usize::from(noisy);
            println!(
                "  {name:<16} {:<14} {:>14.6} -> {:>14.6} {:<4} {:+.2}%  (bound {:.0}%, spread {:.2}%{})",
                metric.name,
                first.median,
                second.median,
                metric.unit,
                change * 100.0,
                metric.bound * 100.0,
                spread * 100.0,
                if noisy { ": UNRESOLVED" } else { "" }
            );
            if change.abs() > metric.bound {
                complaints.push(format!(
                    "{name}: {} moved {:+.2}% between two sets of the same code, beyond its {:.0}% bound",
                    metric.name,
                    change * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
    }
    for c in &complaints {
        println!("check-repeat: {c}");
    }
    println!(
        "check-repeat: {}, {unresolved} metrics unresolved (spread wider than the bound)",
        if complaints.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    exit_code(complaints.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("ssbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workload = |name: &str| workloads::find(name).expect("checked by parse_args");
    match mode {
        Mode::Worker { socket, index } => {
            ExitCode::from(supersim::core::run_worker(&socket, index) as u8)
        }
        Mode::Run {
            workload: name,
            seed,
            traced,
        } => {
            let rep = workloads::run_repetition(workload(&name), seed, &scratch_root(), traced);
            println!("{}", rep.to_json());
            ExitCode::SUCCESS
        }
        Mode::One {
            workload: name,
            seed,
            seconds,
            traced,
        } => run_one(workload(&name), seed, seconds, traced),
        Mode::All { seed, reps, traced } => {
            let scratch = scratch_root();
            print_fingerprint(seed, &reps.to_string());
            let (all, metrics) = run_all(seed, reps, traced, &scratch);
            let (correct, attempted, failed) = totals(&all);
            println!("\n{}", result_json(correct, attempted, failed, metrics));
            exit_code(correct)
        }
        Mode::Probes => {
            let probes = run_probes(&scratch_root());
            if let Err(e) = &probes {
                println!("{e}");
            }
            exit_code(probes.is_ok())
        }
        Mode::SelfTest => self_test(),
        Mode::CheckRepeat { seed, reps } => check_repeat(seed, reps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn hidden_roles_are_dispatched_from_argv() {
        assert_eq!(
            parse_args(&args("__worker /tmp/s.sock 1")),
            Ok(Mode::Worker {
                socket: "/tmp/s.sock".to_string(),
                index: 1
            })
        );
        assert!(parse_args(&args("__worker /tmp/s.sock")).is_err());
        assert!(parse_args(&args("__worker /tmp/s.sock one")).is_err());
        assert_eq!(
            parse_args(&args("__run torus512_s2 --seed 9 --traced")),
            Ok(Mode::Run {
                workload: "torus512_s2".to_string(),
                seed: 9,
                traced: true
            })
        );
        assert!(parse_args(&args("__run")).is_err());
        assert!(parse_args(&args("__run no_such_workload")).is_err());
    }

    #[test]
    fn the_drivers_command_line_and_the_plain_ones_parse() {
        assert_eq!(
            parse_args(&args(
                "--workload clos256_planes --seed 17 --seconds 20 --trace 1"
            )),
            Ok(Mode::One {
                workload: "clos256_planes".to_string(),
                seed: 17,
                seconds: 20.0,
                traced: true
            })
        );
        assert_eq!(
            parse_args(&[]),
            Ok(Mode::All {
                seed: DEFAULT_SEED,
                reps: DEFAULT_REPS,
                traced: false
            })
        );
        assert_eq!(
            parse_args(&args("--traced --reps 2")),
            Ok(Mode::All {
                seed: DEFAULT_SEED,
                reps: 2,
                traced: true
            })
        );
        assert_eq!(parse_args(&args("--self-test")), Ok(Mode::SelfTest));
        assert_eq!(parse_args(&args("--probes")), Ok(Mode::Probes));
        assert_eq!(
            parse_args(&args("--check-repeat --seed 5")),
            Ok(Mode::CheckRepeat {
                seed: 5,
                reps: DEFAULT_REPS
            })
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed many")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Map::new();
        metrics.insert("wall_s".into(), metric_value(6.9612345, "s"));
        metrics.insert("bad".into(), metric_value(f64::NAN, "ratio"));
        let line = result_json(true, 0, 0, metrics);
        assert!(!line.contains('\n'));
        let doc = config::parse(&line).expect("result line is JSON");
        let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.req_bool("correct"), Ok(true));
        assert_eq!(doc.req_u64("attempted"), Ok(1), "attempted is at least 1");
        let wall = doc
            .path("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.req_f64("value"), Ok(6.9612345));
        assert_eq!(wall.req_str("unit"), Ok("s"));
        let bad = doc.path("metrics").and_then(|m| m.get("bad")).expect("bad");
        assert_eq!(bad.req_f64("value"), Ok(0.0));
    }

    #[test]
    fn the_output_check_reports_a_differing_digest() {
        assert_eq!(disagreement("w", &["aa", "aa", "aa"]), None);
        assert_eq!(disagreement("w", &[]), None);
        let problem = disagreement("w", &["aa", "ab"]).expect("a differing digest is a problem");
        assert!(problem.contains("aa") && problem.contains("ab"));
    }

    #[test]
    fn digests_are_pinned_for_the_default_seed_only() {
        for w in &WORKLOADS {
            let digest = pinned(w.name, DEFAULT_SEED).expect("pinned at the default seed");
            assert_eq!(digest.len(), 16, "{}", w.name);
            assert_eq!(pinned(w.name, DEFAULT_SEED + 1), None);
            if let Some(other) = w.cross_check {
                assert_eq!(pinned(other.name, DEFAULT_SEED), Some(digest), "{}", w.name);
            }
        }
        assert_eq!(pinned("no_such_workload", DEFAULT_SEED), None);
    }
}
