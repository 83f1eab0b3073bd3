//! The workloads, and what one repetition of a workload does.
//!
//! A repetition is one child process (`ssbench __run`): it generates the
//! workload's inputs from the seed, then for each input times the path a
//! user pays for — configuration text in hand, parse, build, run, every
//! requested output serialized and written — and, with the clock stopped,
//! folds the simulated outputs into a digest. The simulator is reached
//! only through its public functions and sees only the generated text.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use supersim::config::{self, Map, Value};
use supersim::core::{RunOutput, SuperSim};
use supersim::des::Rng;
use supersim::scenario;
use supersim::stats::{MetricValue, MetricsSnapshot};
use supersim::tools;

use crate::maths::Fnv;
use crate::spans::{self, Tracer};

pub struct Workload {
    pub name: &'static str,
    /// A workload that simulates the same thing on another backend. Every
    /// measurement of this one runs it once, untimed, and the two digests
    /// must be equal.
    pub cross_check: Option<&'static Workload>,
    /// Simulation runs in one repetition.
    pub runs: u64,
    /// Generates the inputs from a seed; the path is where a run may
    /// leave checkpoint files.
    pub jobs: fn(u64, &Path) -> Vec<Job>,
}

/// The workloads `BENCHMARK.json` lists, in its order.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "torus512_seq",
        cross_check: Some(&TORUS512_S2),
        runs: 1,
        jobs: |seed, _| torus512(seed, &["engine.kind=string=sequential"]),
    },
    Workload {
        name: "clos256_planes",
        cross_check: None,
        runs: 1,
        jobs: clos256_planes,
    },
    Workload {
        name: "shipped_sweep",
        cross_check: None,
        runs: 12 * SWEEP_SEEDS as u64,
        jobs: |seed, _| shipped_sweep(seed),
    },
];

/// `torus512_seq`'s text on two shards (threads). It is not a workload of
/// `BENCHMARK.json`: on a shared 2-vCPU host its two threads take 3.7 s
/// while both cores are free and 6.4 s while the host grants one core's
/// worth, for minutes to hours at a time, so no bound the contract allows
/// holds. It runs once in every measurement of `torus512_seq`, where its
/// digest is checked and its round-protocol timings are read, and
/// `--workload torus512_s2` measures it by hand.
pub static TORUS512_S2: Workload = Workload {
    name: "torus512_s2",
    cross_check: None,
    runs: 1,
    jobs: |seed, _| {
        torus512(
            seed,
            &["engine.kind=string=sharded", "engine.shards=uint=2"],
        )
    },
};

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS
        .iter()
        .chain([&TORUS512_S2])
        .find(|w| w.name == name)
}

pub const TORUS: &str = include_str!("../../configs/torus_3d_dor.json");
pub const CLOS: &str = include_str!("../../configs/clos_adaptive.json");

/// The plain configurations the sweep runs, beside the scenario library.
pub const SWEEP_PLAIN: [(&str, &str); 6] = [
    ("quickstart", include_str!("../../configs/quickstart.json")),
    ("torus_3d_dor", TORUS),
    ("clos_adaptive", CLOS),
    (
        "dragonfly_ugal",
        include_str!("../../configs/dragonfly_ugal.json"),
    ),
    (
        "latent_congestion",
        include_str!("../../configs/latent_congestion.json"),
    ),
    (
        "fault_smoke",
        include_str!("../../configs/fault_smoke.json"),
    ),
];

const SWEEP_SEEDS: usize = 10;

/// The two large workloads sample for a fixed number of ticks, not until
/// every terminal has sent so many messages: the slowest terminal would
/// otherwise set the run's length, and wall time would swing by several
/// percent from seed to seed. The shipped files carry a message count, so
/// it is raised out of reach.
const NO_MESSAGE_LIMIT: &str = "workload.applications.0.sample_messages=uint=1000000000000";

/// One simulation to run: generated text plus what to do with the result.
pub struct Job {
    pub label: String,
    /// A configuration or a scenario declaration with `seed` set.
    pub text: String,
    /// `path=type=value` overrides applied at set-up, as on the
    /// `supersim` command line.
    pub overrides: Vec<String>,
    /// Serialize and write the sample log.
    pub log: bool,
    /// Run `tools::analyze_text` over the log text.
    pub analyze: bool,
}

fn seeded(text: &str, seed: u64) -> String {
    let mut doc = config::parse(text).expect("shipped configuration parses");
    // Seeds are JSON integers; keep them inside i64.
    doc.set_path("seed", Value::Int((seed & i64::MAX as u64) as i64))
        .expect("shipped configuration is an object");
    doc.to_json()
}

fn owned(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

fn torus512(seed: u64, engine: &[&str]) -> Vec<Job> {
    let mut overrides = owned(&[
        "network.topology.widths=json=[8,8,8]",
        "workload.applications.0.sample_ticks=uint=3500",
        NO_MESSAGE_LIMIT,
    ]);
    overrides.extend(owned(engine));
    vec![Job {
        label: "torus512".to_string(),
        text: seeded(TORUS, seed),
        overrides,
        log: false,
        analyze: false,
    }]
}

fn clos256_planes(seed: u64, out: &Path) -> Vec<Job> {
    let mut overrides = owned(&[
        "network.topology.k=uint=16",
        "workload.applications.0.pattern.subtrees=uint=16",
        "workload.applications.0.pattern.per_subtree=uint=16",
        "workload.applications.0.sample_ticks=uint=4000",
        NO_MESSAGE_LIMIT,
        "engine.kind=string=sequential",
        "sample.interval=uint=100",
        "spans.enabled=bool=true",
        "observability.trace.enabled=bool=true",
        "fault.enabled=bool=true",
        "fault.bit_error_rate=float=0.0005",
        "checkpoint.interval=uint=1000",
    ]);
    overrides.push(format!(
        "checkpoint.dir=string={}",
        out.join("checkpoints").display()
    ));
    vec![Job {
        label: "clos256".to_string(),
        text: seeded(CLOS, seed),
        overrides,
        log: true,
        analyze: false,
    }]
}

fn shipped_sweep(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let seeds: Vec<u64> = (0..SWEEP_SEEDS).map(|_| rng.gen_u64() >> 40).collect();
    SWEEP_PLAIN
        .into_iter()
        .chain(scenario::LIBRARY.iter().copied())
        .flat_map(|(name, text)| {
            seeds.iter().map(move |&s| Job {
                label: format!("{name}-{s}"),
                text: seeded(text, s),
                overrides: owned(&["engine.kind=string=sequential"]),
                log: true,
                analyze: true,
            })
        })
        .collect()
}

/// The part of a run before the first simulated event: parse, scenario
/// compile, overrides, build. The order is the `supersim` CLI's.
fn set_up(job: &Job, extra: &[String], run: usize, tr: &mut Tracer) -> Result<SuperSim, String> {
    let span = tr.begin("config.parse", run);
    let parsed = config::parse(&job.text);
    tr.end(span);
    let mut cfg = parsed.map_err(|e| format!("{}: {e}", job.label))?;
    if scenario::is_declaration(&cfg) {
        let span = tr.begin("scenario.compile", run);
        let compiled = scenario::compile(&cfg);
        tr.end(span);
        cfg = compiled.map_err(|e| format!("{}: {e}", job.label))?.config;
    }
    let span = tr.begin("config.parse", run);
    let applied = config::apply_overrides(&mut cfg, job.overrides.iter().chain(extra));
    tr.end(span);
    applied.map_err(|e| format!("{}: {e}", job.label))?;
    let span = tr.begin("core.build", run);
    let built = SuperSim::from_config(&cfg);
    tr.end(span);
    built.map_err(|e| format!("{}: {e}", job.label))
}

/// What one repetition measured. Printed by the child as one JSON line
/// and parsed back by the parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Repetition {
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub events: u64,
    pub packets: u64,
    pub end_tick: u64,
    pub mean_latency_ticks: f64,
    /// Simulation runs attempted and failed in this repetition.
    pub runs: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: String,
    /// Per-layer numbers; empty unless the repetition was traced.
    pub layers: BTreeMap<String, f64>,
    /// Self time per span name in seconds; empty unless traced.
    pub self_s: BTreeMap<String, f64>,
}

fn floats(map: &BTreeMap<String, f64>) -> Value {
    Value::Object(
        map.iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect(),
    )
}

fn parse_floats(doc: &Value, key: &str) -> Result<BTreeMap<String, f64>, String> {
    let map = doc
        .get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing object {key:?}"))?;
    map.iter()
        .map(|(k, v)| {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("{key}.{k} is not a number"))?;
            Ok((k.clone(), v))
        })
        .collect()
}

impl Repetition {
    pub fn to_json(&self) -> String {
        let int = |n: u64| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
        let mut m = Map::new();
        m.insert("wall_s".into(), Value::Float(self.wall_s));
        m.insert("setup_s".into(), Value::Float(self.setup_s));
        m.insert("peak_rss_mb".into(), Value::Float(self.peak_rss_mb));
        m.insert("events".into(), int(self.events));
        m.insert("packets".into(), int(self.packets));
        m.insert("end_tick".into(), int(self.end_tick));
        m.insert(
            "mean_latency_ticks".into(),
            Value::Float(self.mean_latency_ticks),
        );
        m.insert("runs".into(), int(self.runs));
        m.insert("failed".into(), int(self.failed));
        m.insert(
            "errors".into(),
            Value::Array(self.errors.iter().cloned().map(Value::Str).collect()),
        );
        m.insert("digest".into(), Value::Str(self.digest.clone()));
        m.insert("layers".into(), floats(&self.layers));
        m.insert("self_s".into(), floats(&self.self_s));
        Value::Object(m).to_json()
    }

    pub fn from_json(text: &str) -> Result<Repetition, String> {
        let doc = config::parse(text).map_err(|e| e.to_string())?;
        let f = |key: &str| doc.req_f64(key).map_err(|e| e.to_string());
        let u = |key: &str| doc.req_u64(key).map_err(|e| e.to_string());
        Ok(Repetition {
            wall_s: f("wall_s")?,
            setup_s: f("setup_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            events: u("events")?,
            packets: u("packets")?,
            end_tick: u("end_tick")?,
            mean_latency_ticks: f("mean_latency_ticks")?,
            runs: u("runs")?,
            failed: u("failed")?,
            errors: doc
                .req_array("errors")
                .map_err(|e| e.to_string())?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            digest: doc
                .req_str("digest")
                .map_err(|e| e.to_string())?
                .to_string(),
            layers: parse_floats(&doc, "layers")?,
            self_s: parse_floats(&doc, "self_s")?,
        })
    }
}

/// The metrics snapshot without the planes that hold host time or depend
/// on the partition: `host`, `host_shard_<s>` and `engine_shard_<s>`.
/// What is left is pinned across backends by the determinism contract.
pub fn stripped_metrics_json(metrics: &MetricsSnapshot) -> String {
    let mut kept = MetricsSnapshot::new();
    for s in metrics.samples() {
        if !(s.component.starts_with("host") || s.component.starts_with("engine_shard_")) {
            kept.push(s.component.clone(), s.name.clone(), s.value.clone());
        }
    }
    kept.to_json()
}

/// Folds the simulated outputs of one run into the digest.
pub fn absorb(digest: &mut Fnv, log_text: &str, out: &RunOutput) {
    digest.section(log_text.as_bytes());
    for part in [&out.timeseries, &out.spans, &out.trace] {
        digest.section(part.as_deref().unwrap_or("").as_bytes());
    }
    digest.section(stripped_metrics_json(&out.metrics).as_bytes());
}

pub fn counter(metrics: &MetricsSnapshot, component: &str, name: &str) -> u64 {
    match metrics.get(component, name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

fn gauge_max(metrics: &MetricsSnapshot, component: &str, name: &str) -> u64 {
    match metrics.get(component, name) {
        Some(MetricValue::Gauge { max, .. }) => *max,
        _ => 0,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums and maxima gathered over the runs of a traced repetition.
#[derive(Default)]
struct Ledger {
    sum: BTreeMap<&'static str, f64>,
    max: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sum.entry(name).or_insert(0.0) += v;
    }
    fn peak(&mut self, name: &'static str, v: f64) {
        let slot = self.max.entry(name).or_insert(0.0);
        *slot = slot.max(v);
    }
    fn get(&self, name: &str) -> f64 {
        self.sum.get(name).copied().unwrap_or(0.0)
    }

    /// Reads the host planes a profiled run carries in its snapshot.
    fn absorb_host(&mut self, out: &RunOutput, allocations: u64) {
        let m = &out.metrics;
        let host = |name: &str| counter(m, "host", name) as f64;
        self.add("engine_wall_s", out.engine.wall.as_secs_f64());
        self.add("des.drain_s", host("drain_ns") / 1e9);
        self.add("des.execute_s", host("execute_ns") / 1e9);
        self.add("des.fold_s", host("fold_ns") / 1e9);
        self.add("des.exchange_s", host("exchange_ns") / 1e9);
        self.add("des.sample_edge_s", host("sample_edge_ns") / 1e9);
        self.peak("des.barrier_wait_frac", host("barrier_wait_millis") / 1e3);
        // The gauge is max/min execute time over shards, 1.0 when balanced;
        // it is absent (0 here) on one shard.
        self.peak(
            "des.execute_imbalance",
            host("execute_imbalance_millis") / 1e3,
        );
        self.add("des.events", out.engine.events_executed as f64);
        self.add("allocations", allocations as f64);
        let mut shard = 0;
        while m.get(&format!("engine_shard_{shard}"), "batches").is_some() {
            let plane = format!("engine_shard_{shard}");
            self.add("des.batches", counter(m, &plane, "batches") as f64);
            shard += 1;
        }
        self.peak("des.queue_high_water", out.engine.queue_high_water as f64);
        self.add("router_ns", host("class_router_ns"));
        self.add("router.events", host("class_router_events"));
        self.add(
            "workload_ns",
            host("class_interface_ns") + host("class_monitor_ns"),
        );
        self.add(
            "workload.events",
            host("class_interface_events") + host("class_monitor_events"),
        );
        self.peak(
            "netbase.arena_high_water",
            gauge_max(m, "profile", "arena_occupancy") as f64,
        );
        self.add(
            "netbase.flit_clones",
            counter(m, "fault", "flit_clones") as f64,
        );
        self.add("core.checkpoint_s", host("checkpoint_ns") / 1e9);
        self.add("core.checkpoint_bytes", host("checkpoint_bytes"));
    }

    /// The per-layer numbers of the repetition, by their published names.
    fn layers(&self, spans: &[spans::Span]) -> BTreeMap<String, f64> {
        let total = spans::total_ns(spans);
        let own = spans::self_ns(spans);
        let span_s = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e9;
        let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for name in [
            "des.drain_s",
            "des.execute_s",
            "des.fold_s",
            "des.exchange_s",
            "des.sample_edge_s",
            "des.events",
            "des.batches",
            "router.events",
            "workload.events",
            "netbase.flit_clones",
            "core.checkpoint_s",
            "core.checkpoint_bytes",
            "stats.output_bytes",
            "stats.log_records",
        ] {
            out.insert(name.to_string(), self.get(name));
        }
        for (name, v) in &self.max {
            out.insert(name.to_string(), *v);
        }
        for (metric, span) in [
            ("config.parse_s", "config.parse"),
            ("scenario.compile_s", "scenario.compile"),
            ("core.build_s", "core.build"),
            ("core.run_s", "core.run"),
            ("stats.serialize_s", "stats.serialize"),
            ("tools.analyze_s", "tools.analyze"),
        ] {
            out.insert(metric.to_string(), span_s(span));
        }
        out.insert(
            "core.assemble_s".to_string(),
            (span_s("core.run") - self.get("engine_wall_s")).max(0.0),
        );
        out.insert(
            "ssbench.unattributed_s".to_string(),
            own.get("run").copied().unwrap_or(0) as f64 / 1e9,
        );
        out.insert(
            "des.allocs_per_event".to_string(),
            per(self.get("allocations"), self.get("des.events")),
        );
        out.insert(
            "router.ns_per_event".to_string(),
            per(self.get("router_ns"), self.get("router.events")),
        );
        out.insert(
            "workload.ns_per_event".to_string(),
            per(self.get("workload_ns"), self.get("workload.events")),
        );
        out
    }
}

fn write_output(
    path: PathBuf,
    bytes: &[u8],
    run: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let span = tr.begin("fs.write", run);
    let written = std::fs::write(&path, bytes);
    tr.end(span);
    ledger.add("stats.output_bytes", bytes.len() as f64);
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One repetition of `workload`: every job timed from text in hand to
/// outputs on disk, digested with the clock stopped.
pub fn run_repetition(workload: &Workload, seed: u64, scratch: &Path, traced: bool) -> Repetition {
    let out = &scratch.join(workload.name);
    let jobs = (workload.jobs)(seed, out);
    let mut rep = Repetition::default();
    if let Err(e) = std::fs::create_dir_all(out) {
        rep.errors
            .push(format!("cannot create {}: {e}", out.display()));
    }
    let extra: Vec<String> = if traced {
        owned(&["host.profile.enabled=bool=true"])
    } else {
        Vec::new()
    };
    let mut tr = Tracer::new(traced);
    let mut ledger = Ledger::default();
    let mut digest = Fnv::default();
    let mut wall = Duration::ZERO;
    let mut setup = Duration::ZERO;
    let mut latency_ticks = 0.0;

    for (run, job) in jobs.iter().enumerate() {
        rep.runs += 1;
        let root = tr.begin("run", run);
        let start = Instant::now();
        let sim = match set_up(job, &extra, run, &mut tr) {
            Ok(sim) => sim,
            Err(e) => {
                tr.end(root);
                wall += start.elapsed();
                rep.failed += 1;
                rep.errors.push(e);
                continue;
            }
        };
        setup += start.elapsed();

        let allocations = crate::alloc::count();
        let span = tr.begin("core.run", run);
        let report = sim.run_report();
        tr.end(span);
        let allocations = crate::alloc::count() - allocations;
        let output = &report.output;

        let mut problems: Vec<String> = report.error.iter().map(|e| e.to_string()).collect();
        let span = tr.begin("stats.serialize", run);
        let log_text = job.log.then(|| output.log.to_text());
        let metrics_json = output.metrics.to_json();
        let files = [
            ("log", log_text.as_deref()),
            ("metrics.json", Some(metrics_json.as_str())),
            ("timeseries", output.timeseries.as_deref()),
            ("spans", output.spans.as_deref()),
            ("trace", output.trace.as_deref()),
        ];
        for (extension, content) in files {
            let Some(content) = content else { continue };
            let path = out.join(format!("{}.{extension}", job.label));
            if let Err(e) = write_output(path, content.as_bytes(), run, &mut tr, &mut ledger) {
                problems.push(e);
            }
        }
        tr.end(span);
        if job.analyze {
            let span = tr.begin("tools.analyze", run);
            let text = log_text
                .as_deref()
                .expect("analysed jobs serialize the log");
            match tools::analyze_text(text, &[] as &[&str]) {
                Ok(analysis) => {
                    std::hint::black_box(analysis.to_table());
                }
                Err(e) => problems.push(format!("analysis failed: {e}")),
            }
            tr.end(span);
        }
        wall += start.elapsed();
        tr.end(root);
        rep.peak_rss_mb = peak_rss_mb();

        // Clock stopped: digest and simulated-time facts.
        let log_text = log_text.unwrap_or_else(|| output.log.to_text());
        absorb(&mut digest, &log_text, output);
        let packets = output.packets_delivered();
        rep.events += output.engine.events_executed;
        rep.packets += packets;
        rep.end_tick += output.engine.end_time.tick();
        latency_ticks += output.mean_packet_latency().unwrap_or(0.0) * packets as f64;
        if traced {
            ledger.add("stats.log_records", output.log.len() as f64);
            ledger.absorb_host(output, allocations);
        }
        if !problems.is_empty() {
            rep.failed += 1;
            rep.errors
                .extend(problems.into_iter().map(|p| format!("{}: {p}", job.label)));
        }
    }

    // Outputs are deleted while they are still only in the page cache, so
    // that no repetition runs beside the write-back of the one before it.
    let _ = std::fs::remove_dir_all(out);

    rep.wall_s = wall.as_secs_f64();
    rep.setup_s = setup.as_secs_f64();
    rep.mean_latency_ticks = if rep.packets > 0 {
        latency_ticks / rep.packets as f64
    } else {
        0.0
    };
    rep.digest = digest.hex();
    if traced {
        rep.layers = ledger.layers(tr.spans());
        rep.self_s = spans::self_ns(tr.spans())
            .into_iter()
            .map(|(name, ns)| (name.to_string(), ns as f64 / 1e9))
            .collect();
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let doc = spans::trace_event_json(tr.spans(), workload.name, &labels);
        let path = trace_path(scratch, workload);
        if let Err(e) = std::fs::write(&path, doc) {
            rep.errors
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    rep
}

/// Where the traced repetition of `workload` leaves its span timeline.
pub fn trace_path(scratch: &Path, workload: &Workload) -> PathBuf {
    scratch.join(format!("trace-{}.json", workload.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_inputs_that_depend_on_the_seed() {
        let out = Path::new("unused");
        for w in WORKLOADS.iter().chain([&TORUS512_S2]) {
            let a = (w.jobs)(3, out);
            let b = (w.jobs)(4, out);
            assert_eq!(a.len() as u64, w.runs, "{}", w.name);
            assert_ne!(a[0].text, b[0].text, "{}", w.name);
            assert_eq!(a[0].text, (w.jobs)(3, out)[0].text, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }

    #[test]
    fn the_cross_check_differs_from_its_workload_only_in_the_engine() {
        let out = Path::new("unused");
        let seq = find("torus512_seq").expect("a workload of that name");
        let s2 = seq.cross_check.expect("torus512_seq is cross-checked");
        let (seq, s2) = ((seq.jobs)(9, out), (s2.jobs)(9, out));
        assert_eq!(seq[0].text, s2[0].text);
        let differing: Vec<_> = seq[0]
            .overrides
            .iter()
            .filter(|o| !s2[0].overrides.contains(o))
            .collect();
        assert_eq!(differing, ["engine.kind=string=sequential"]);
    }

    #[test]
    fn digest_ignores_host_and_partition_planes_and_nothing_else() {
        let mut base = MetricsSnapshot::new();
        base.push_counter("engine", "events_executed", 10);
        base.push_counter("workload", "flits_sent", 4);
        base.push_counter("run", "degraded", 0);
        let mut noisy = base.clone();
        noisy.push_counter("host", "wall_ns", 123);
        noisy.push_counter("host_shard_1", "drain_ns", 5);
        noisy.push_counter("engine_shard_0", "batches", 7);
        assert_eq!(stripped_metrics_json(&base), stripped_metrics_json(&noisy));
        let mut changed = base.clone();
        changed.push_counter("fault", "injected", 1);
        assert_ne!(
            stripped_metrics_json(&base),
            stripped_metrics_json(&changed)
        );
        assert!(stripped_metrics_json(&noisy).contains("events_executed"));
    }

    #[test]
    fn repetition_round_trips_through_its_json_line() {
        let rep = Repetition {
            wall_s: 1.25,
            setup_s: 0.031,
            peak_rss_mb: 88.5,
            events: 24_000_000,
            packets: 124_504,
            end_tick: 4_321,
            mean_latency_ticks: 138.76,
            runs: 1,
            failed: 0,
            errors: vec!["a \"quoted\" problem".to_string()],
            digest: "00ff00ff00ff00ff".to_string(),
            layers: BTreeMap::from([("core.run_s".to_string(), 6.5)]),
            self_s: BTreeMap::from([("run".to_string(), 0.001)]),
        };
        let line = rep.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Repetition::from_json(&line), Ok(rep));
        assert!(Repetition::from_json("{\"wall_s\": 1.0}").is_err());
    }
}
