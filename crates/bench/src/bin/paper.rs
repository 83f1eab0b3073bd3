//! Regenerates the paper's evaluation artifacts: Table I and Figures 5 and
//! 7–12.
//!
//! ```text
//! cargo run --release -p supersim-bench --bin paper -- <artifact> [--full]
//! ```
//!
//! Every artifact runs the plain configurations under `configs/paper/`,
//! varied by the `path=type=value` overrides of the `supersim` command line
//! (paper Listing 1): fixed ones per scale, then every combination of the
//! figure's axes. It prints the series the paper plots and writes them
//! under `target/experiments/` in the working directory. The default is a
//! laptop-scale version of each experiment, `--full` the paper's Table I
//! scale. The reproduction target is each result's *shape*;
//! `tests/paper_shapes.rs` asserts the shapes that hold at seconds scale.

use std::process::ExitCode;

use supersim_config::Value;
use supersim_core::{run_load_sweep, LoadSweepSpec, RunOutput, SuperSim};
use supersim_stats::analysis::{LoadPoint, LoadSweep};
use supersim_stats::{Filter, LatencyDistribution, RecordKind, TimeSeries};
use supersim_tools as tools;

const TRANSIENT: &str = include_str!("../../../../configs/paper/transient.json");
const CASE_A: &str = include_str!("../../../../configs/paper/case_a_clos.json");
const CASE_B: &str = include_str!("../../../../configs/paper/case_b_fbfly.json");
const CASE_C: &str = include_str!("../../../../configs/paper/case_c_torus.json");

/// The case studies at paper scale (Table I).
const CLOS_FULL: &str = "network.topology.k=uint=16 \
    workload.applications.0.pattern.subtrees=uint=16 \
    workload.applications.0.pattern.per_subtree=uint=256";
const FBFLY_FULL: &str = "network.topology.widths=json=[32] network.topology.concentration=uint=32";
const TORUS_FULL: &str = "network.topology.widths=json=[8,8,8,8]";

const LOAD_0_1: &str = "workload.applications.0.load=float=0.1";
const TECHNIQUES: &[&str] = &[
    "network.router.flow_control=string=flit_buffer",
    "network.router.flow_control=string=packet_buffer",
    "network.router.flow_control=string=winner_take_all",
];
const PERCENTILE_HEADER: &str = "offered,delivered,mean,p50,p90,p99,p999,p9999";

#[derive(Debug, Clone, Copy)]
enum Scale {
    Small,
    Full,
}

impl Scale {
    fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// An artifact: its name, every configuration it runs (in order), and the
/// report that runs them, prints the series and writes the files.
type Artifact = (&'static str, fn(Scale) -> Vec<Value>, fn(Scale, Vec<Value>));

#[rustfmt::skip]
const ARTIFACTS: [Artifact; 8] = [
    ("table1", table1_configs, table1),
    ("fig05", fig05_configs, fig05),
    ("fig07", fig07_configs, fig07),
    ("fig08", fig08_configs, fig08),
    ("fig09", fig09_configs, fig09),
    ("fig10", fig10_configs, fig10),
    ("fig11", fig11_configs, fig11),
    ("fig12", fig12_configs, fig12),
];

fn main() -> ExitCode {
    let mut name = None;
    let mut scale = Scale::Small;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(),
        }
    }
    let Some((_, configs, report)) = ARTIFACTS.iter().find(|a| Some(a.0) == name.as_deref()) else {
        return usage();
    };
    report(scale, configs(scale));
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!("usage: paper <{}> [--full]", names.join("|"));
    ExitCode::from(2)
}

/// A `configs/paper/` file under the `fixed` overrides and then each
/// combination of `axes`, the first axis varying slowest. Every entry holds
/// one or more space-separated `path=type=value` overrides.
fn grid(base: &str, fixed: &[&str], axes: &[&[&str]]) -> Vec<Value> {
    let mut points = vec![fixed.join(" ")];
    for axis in axes {
        points = points
            .iter()
            .flat_map(|p| axis.iter().map(move |a| format!("{p} {a}")))
            .collect();
    }
    let parse = |point: &String| {
        let mut cfg = supersim_config::parse(base).expect("configs/paper/ files are valid JSON");
        supersim_config::apply_overrides(&mut cfg, point.split_whitespace())
            .unwrap_or_else(|e| panic!("configs/paper/: {e}"));
        cfg
    };
    points.iter().map(parse).collect()
}

/// The text of the scalar at `path` (strings unquoted).
fn get(cfg: &Value, path: &str) -> String {
    match cfg.path(path) {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => v.to_json(),
        None => panic!("no {path} in the configuration"),
    }
}

/// Writes an artifact file under `target/experiments/`.
fn write_artifact(name: &str, contents: &str) {
    std::fs::create_dir_all("target/experiments").expect("create target/experiments");
    let path = format!("target/experiments/{name}");
    std::fs::write(&path, contents).expect("write experiment artifact");
    println!("wrote {path}");
}

fn run(config: &Value, what: &str) -> RunOutput {
    let sim = SuperSim::from_config(config);
    let sim = sim.unwrap_or_else(|e| panic!("{what}: configuration rejected: {e}"));
    sim.run()
        .unwrap_or_else(|e| panic!("{what}: simulation failed: {e}"))
}

fn sweep(config: &Value, label: &str, loads: &[f64]) -> LoadSweep {
    let spec = LoadSweepSpec::simple(config.clone(), label, loads.to_vec());
    run_load_sweep(&spec).unwrap_or_else(|e| panic!("{label}: {e}"))
}

fn percentile_row(point: &LoadPoint) -> String {
    match point.latency {
        Some(l) => format!(
            "{:.3},{:.3},{:.2},{},{},{},{},{}",
            point.offered, point.delivered, l.mean, l.p50, l.p90, l.p99, l.p999, l.p9999
        ),
        None => format!("{:.3},{:.3},,,,,,", point.offered, point.delivered),
    }
}

/// Prints a mean-latency chart of one series per label.
fn chart(title: &str, series: &[(String, Vec<(f64, f64)>)], height: usize) {
    let series: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(l, p)| (l.as_str(), p.clone()))
        .collect();
    println!("{}", tools::ascii_chart(title, &series, 72, height));
}

// --- Table I: the parameters of the three case studies -------------------

/// Table I's rows: a parameter and one cell per case study, in which each
/// `{path}` stands for that configuration's value at `path` (JSON text)
/// and `{terminals}` for its terminal count.
#[rustfmt::skip]
const TABLE1: [(&str, [&str; 3]); 11] = [
    ("Network topology", [
        "{network.topology.levels}-level folded Clos, {terminals} terminals",
        "1D flattened butterfly, {network.topology.widths.0} routers, {terminals} terminals",
        "torus {network.topology.widths}",
    ]),
    ("Network channel latency (ticks)", ["{network.channel.local_latency}"; 3]),
    ("Routing algorithm", ["{network.routing.algorithm}"; 3]),
    ("Router architecture", ["{network.router.architecture}"; 3]),
    ("Frequency speedup", ["1x", "{network.router.speedup}x", "1x"]),
    ("Number of VCs", ["{network.vcs}", "{network.vcs}", "{network.vcs} (swept 2,4,8)"]),
    ("Input buffer size (flits)", ["{network.router.input_buffer}"; 3]),
    ("Output buffer size (flits)",
        ["infinite and {network.router.output_queue}", "{network.router.output_queue}", "n/a"]),
    ("Router core latency (ticks)",
        ["{network.router.core_latency}", "{network.router.xbar_latency}", "{network.router.xbar_latency}"]),
    ("Message size (flits)", [
        "{workload.applications.0.message_size}",
        "{workload.applications.0.message_size}",
        "1,2,4,8,16,32 (swept)",
    ]),
    ("Traffic pattern", ["{workload.applications.0.pattern.name}"; 3]),
];

/// The three case studies as Table I lists them (case A with its finite
/// output queues).
fn table1_configs(scale: Scale) -> Vec<Value> {
    let oq = "network.router.output_queue=uint=64";
    [
        grid(CASE_A, &[oq, scale.pick("", CLOS_FULL)], &[]),
        grid(CASE_B, &[scale.pick("", FBFLY_FULL)], &[]),
        grid(CASE_C, &[scale.pick("", TORUS_FULL)], &[]),
    ]
    .concat()
}

/// Fills one Table I cell template from `cfg`.
fn cell(template: &str, cfg: &Value) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}').expect("closed placeholder");
        out.push_str(&rest[..open]);
        out.push_str(&match &rest[open + 1..close] {
            "terminals" => terminals(cfg).to_string(),
            path => cfg.path(path).map_or("n/a".into(), Value::to_json),
        });
        rest = &rest[close + 1..];
    }
    out + rest
}

/// `k^levels` for a folded Clos, routers times concentration for a 1-D
/// flattened butterfly.
fn terminals(cfg: &Value) -> u64 {
    let topology = |key: &str| cfg.req_u64(&format!("network.topology.{key}"));
    match (topology("k"), topology("levels")) {
        (Ok(k), Ok(levels)) => k.pow(levels as u32),
        _ => topology("widths.0").expect("widths") * topology("concentration").expect("conc"),
    }
}

fn table1(scale: Scale, configs: Vec<Value>) {
    println!("=== Table I: parameters for the three simulation case studies ({scale:?} scale) ===");
    let mut md = String::from(
        "| Parameter | Latent Congestion Detection | Congestion Credit Accounting | Flow Control Techniques |\n\
         | --- | --- | --- | --- |\n",
    );
    for (name, templates) in TABLE1 {
        let cells: Vec<String> = (0..3).map(|i| cell(templates[i], &configs[i])).collect();
        let line = format!("| {name} | {} |\n", cells.join(" | "));
        print!("{line}");
        md.push_str(&line);
    }
    write_artifact("table1_parameters.md", &md);
}

// --- Figure 5 (§IV-A): Blast latency over time, disrupted by Pulse -------

fn fig05_configs(scale: Scale) -> Vec<Value> {
    // Full scale stretches the sampling window and the pulse volume.
    let full = "workload.applications.0.sample_ticks=uint=30000 \
        workload.applications.1.count=uint=400 workload.applications.1.delay=uint=8000";
    grid(TRANSIENT, &[scale.pick("", full)], &[])
}

fn fig05(scale: Scale, configs: Vec<Value>) {
    let out = run(&configs[0], "fig05");
    let bin = scale.pick(200, 1000);
    let mut series = TimeSeries::new(bin);
    for r in out.log.of_kind(RecordKind::Packet).filter(|r| r.app == 0) {
        series.push_record(&r);
    }

    println!("=== Figure 5: Blast mean latency disrupted by Pulse ===");
    let points = series.points();
    let sampled = points.iter().filter_map(|&(t, m)| Some((t as f64, m?)));
    let title = "blast mean packet latency (ticks) vs time";
    chart(title, &[("blast".to_string(), sampled.collect())], 18);

    let gen_start = out.phase_start(supersim_netbase::Phase::Generating);
    let gen_start = gen_start.expect("generating phase ran");
    let pulse_at = gen_start
        + configs[0]
            .req_u64("workload.applications.1.delay")
            .expect("delay");
    let steady = points
        .iter()
        .filter(|&&(t, _)| t >= gen_start && t + bin <= pulse_at);
    let pre: Vec<f64> = steady.filter_map(|&(_, m)| m).collect();
    let baseline = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    let peak = series.peak_mean().expect("samples exist");
    println!("steady-state latency : {baseline:.1} ticks");
    let factor = peak / baseline;
    println!("peak during pulse    : {peak:.1} ticks ({factor:.1}x)");
    write_artifact("fig05_timeseries.csv", &tools::timeseries_csv(&series));
}

// --- Figure 7 (§V): a percentile latency distribution ---------------------

fn fig07_configs(scale: Scale) -> Vec<Value> {
    // A flattened butterfly loaded high enough for the congestion tail the
    // paper's plot shows, with samples enough for stable 99.99th
    // percentiles.
    let load = "seed=uint=7 network.router.congestion_sensor.source=string=both \
        workload.applications.0.load=float=0.82";
    let small = "network.topology.widths=json=[8] network.topology.concentration=uint=8 \
        network.channel.local_latency=uint=20 network.router.xbar_latency=uint=10 \
        workload.applications.0.warmup_ticks=uint=1100 \
        workload.applications.0.sample_messages=uint=2000";
    let full = "workload.applications.0.sample_messages=uint=5000";
    grid(
        CASE_B,
        &[load, scale.pick(small, FBFLY_FULL), scale.pick("", full)],
        &[],
    )
}

fn fig07(_: Scale, configs: Vec<Value>) {
    let out = run(&configs[0], "fig07");
    let latencies = out.log.of_kind(RecordKind::Packet).map(|r| r.latency());
    let mut dist: LatencyDistribution = latencies.collect();
    println!("=== Figure 7: percentile latency distribution ===");
    println!("samples: {}", dist.count());
    for (label, value) in dist.standard_percentiles() {
        let value = value.expect("non-empty distribution");
        println!("  {label:>7}: {value} ticks");
    }
    let p999 = dist.percentile(99.9).expect("non-empty");
    println!(
        "only 1 in 1000 packets experiences latency greater than {p999} ticks \
         (the paper reads 592 ns off its instance of this plot)"
    );

    let curve = dist.percentile_curve();
    // Plot latency against the "nines" axis like the paper's figure.
    let nines = curve.iter().filter(|&&(p, _)| p < 0.999999);
    let pts = nines.map(|&(p, l)| (-(1.0 - p).log10(), l as f64));
    let title = "latency (ticks) vs percentile nines (1=90%, 2=99%, 3=99.9%)";
    chart(title, &[("packets".to_string(), pts.collect())], 16);
    write_artifact("fig07_percentiles.csv", &tools::percentile_csv(&curve));
}

// --- Figure 8 (§V): load vs latency distributions, phantom congestion ----

fn fig08_configs(scale: Scale) -> Vec<Value> {
    // UGAL on a flattened butterfly sensing *downstream credits*: a credit
    // consumed at send only returns after the channel round trip, so a
    // recently used minimal port looks congested long after it is idle —
    // the phantom congestion of Won et al. that the paper's Figure 8
    // exposes through latency percentiles.
    let sensor = "network.router.congestion_sensor.source=string=downstream \
        network.router.congestion_sensor.granularity=string=port";
    let small = "network.topology.concentration=uint=4 network.channel.local_latency=uint=50 \
        network.router.xbar_latency=uint=25 workload.applications.0.warmup_ticks=uint=2000 \
        workload.applications.0.sample_messages=uint=800";
    let full = "workload.applications.0.sample_messages=uint=2000";
    let scaled = [scale.pick(small, FBFLY_FULL), scale.pick("", full)];
    let loads = [
        "workload.applications.0.load=float=0.02 seed=uint=100",
        "workload.applications.0.load=float=0.06 seed=uint=101",
        "workload.applications.0.load=float=0.12 seed=uint=102",
        "workload.applications.0.load=float=0.2 seed=uint=103",
        "workload.applications.0.load=float=0.3 seed=uint=104",
        "workload.applications.0.load=float=0.4 seed=uint=105",
        "workload.applications.0.load=float=0.5 seed=uint=106",
        "workload.applications.0.load=float=0.6 seed=uint=107",
    ];
    grid(CASE_B, &[&[sensor][..], &scaled].concat(), &[&loads])
}

fn fig08(_: Scale, configs: Vec<Value>) {
    println!("=== Figure 8: load vs latency distributions (phantom congestion) ===");
    let mut csv = format!("{PERCENTILE_HEADER},nonmin_fraction\n");
    print!("{csv}");
    for cfg in &configs {
        let conc = cfg.req_u32("network.topology.concentration").expect("conc");
        let load = cfg.req_f64("workload.applications.0.load").expect("load");
        let out = run(cfg, "fig08");
        // On a 1-D flattened butterfly the minimal path touches 2 routers
        // (1 when source and destination share a router); more means the
        // packet went around.
        let packets: Vec<_> = out.log.of_kind(RecordKind::Packet).collect();
        let minimal = |src: u32, dst: u32| if src / conc == dst / conc { 1 } else { 2 };
        let nonmin = packets.iter().filter(|r| r.hops > minimal(r.src, r.dst));
        let nonmin = nonmin.count() as f64 / packets.len().max(1) as f64;
        let point = out.load_point(load, &Filter::new()).expect("window");
        let row = format!("{},{nonmin:.4}\n", percentile_row(&point));
        print!("{row}");
        csv.push_str(&row);
    }
    write_artifact("fig08_load_latency.csv", &csv);
}

// --- Figure 9 (§VI-A, case study A): latent congestion detection ---------
//
// 9a: infinite output queues — higher sensing latency inflates *latency*
// while throughput survives. 9b: 64-flit output queues — higher sensing
// latency collapses *throughput*. The default scale is the paper's own
// small-system variant (§VI-A text, 512 terminals), which the paper
// reports at 90/90/75/40 % throughput for 1/2/4/8 ns of sensing delay.

fn fig09_configs(scale: Scale) -> Vec<Value> {
    let small = "workload.applications.0.sample_messages=uint=150";
    let full = "workload.applications.0.sample_messages=uint=300";
    let parts = [
        "seed=uint=1000",
        // A long warmup at an offered load far above the collapsed
        // capacity only builds an enormous drain backlog; congestion sets
        // in within a few channel round trips.
        "network.router.output_queue=uint=64 workload.applications.0.warmup_ticks=uint=600",
    ];
    let delays = [
        "network.router.congestion_sensor.delay=uint=1",
        "network.router.congestion_sensor.delay=uint=2",
        "network.router.congestion_sensor.delay=uint=4",
        "network.router.congestion_sensor.delay=uint=8",
        "network.router.congestion_sensor.delay=uint=16",
        "network.router.congestion_sensor.delay=uint=32",
    ];
    let fixed = [LOAD_0_1, scale.pick(small, full), scale.pick("", CLOS_FULL)];
    grid(CASE_A, &fixed, &[&parts, &delays])
}

fn fig09(_: Scale, configs: Vec<Value>) {
    let (part_a, part_b) = configs.split_at(configs.len() / 2);
    let delay = |cfg: &Value| get(cfg, "network.router.congestion_sensor.delay");

    println!("=== Figure 9a: infinite output queues (latency impact) ===");
    let mut csv_a = format!("delay,{PERCENTILE_HEADER}\n");
    let mut series = Vec::new();
    for cfg in part_a {
        let delay = delay(cfg);
        let sw = sweep(cfg, &format!("9a delay={delay}"), &[0.2, 0.4, 0.6, 0.8]);
        for p in &sw.points {
            csv_a.push_str(&format!("{delay},{}\n", percentile_row(p)));
        }
        series.push((format!("delay {delay}"), means(&sw.points)));
    }
    chart("9a: mean latency (ticks) vs offered load", &series, 16);
    write_artifact("fig09a_infinite.csv", &csv_a);

    println!("=== Figure 9b: 64-flit output queues (throughput impact) ===");
    let offered = 0.9;
    let delivered = |cfg| sweep(cfg, "fig09b", &[offered]).points[0].delivered;
    let delivered: Vec<f64> = part_b.iter().map(delivered).collect();
    let best = delivered.iter().copied().fold(f64::MIN, f64::max);
    let mut csv_b = String::from("delay,offered,delivered,relative_throughput\n");
    for (cfg, d) in part_b.iter().zip(delivered) {
        let (delay, rel) = (delay(cfg), d / best);
        csv_b.push_str(&format!("{delay},{offered:.2},{d:.3},{rel:.2}\n"));
    }
    print!("{csv_b}");
    write_artifact("fig09b_finite.csv", &csv_b);
}

/// `(offered, mean latency)` of the points that sampled anything.
fn means(points: &[LoadPoint]) -> Vec<(f64, f64)> {
    let sampled = points
        .iter()
        .filter_map(|p| Some((p.offered, p.latency?.mean)));
    sampled.collect()
}

// --- Figure 10 (§VI-B, case study B): congestion credit accounting -------
//
// Six accounting styles — {VC, port} granularity x {output, downstream,
// both} credit sources — under uniform random (10a) and bit complement
// (10b) traffic.

fn fig10_configs(scale: Scale) -> Vec<Value> {
    // Keep the paper's ~1 inter-router link per terminal: with fewer links
    // than that, routing quality decides throughput.
    let small = "network.channel.local_latency=uint=40 network.router.xbar_latency=uint=20 \
        workload.applications.0.warmup_ticks=uint=1700 \
        workload.applications.0.sample_messages=uint=150";
    let full = "workload.applications.0.sample_messages=uint=400";
    let patterns = [
        "workload.applications.0.pattern.name=string=uniform_random",
        "workload.applications.0.pattern.name=string=bit_complement",
    ];
    let granularities = [
        "network.router.congestion_sensor.granularity=string=vc",
        "network.router.congestion_sensor.granularity=string=port",
    ];
    let sources = [
        "network.router.congestion_sensor.source=string=output",
        "network.router.congestion_sensor.source=string=downstream",
        "network.router.congestion_sensor.source=string=both",
    ];
    let fixed = [
        LOAD_0_1,
        scale.pick(small, FBFLY_FULL),
        scale.pick("", full),
    ];
    grid(
        CASE_B,
        &[&["seed=uint=1000"][..], &fixed].concat(),
        &[&patterns, &granularities, &sources],
    )
}

fn fig10(_: Scale, configs: Vec<Value>) {
    let loads = [0.25, 0.5, 0.7, 0.85, 0.92, 0.96, 0.99];
    let halves = configs.chunks(configs.len() / 2);
    for (fig, styles) in ["10a", "10b"].into_iter().zip(halves) {
        let pattern = get(&styles[0], "workload.applications.0.pattern.name");
        println!("=== Figure {fig}: credit accounting styles under {pattern} ===");
        let mut csv = String::from("style,offered,delivered,mean,p99\n");
        let mut summary = Vec::new();
        for cfg in styles {
            let sensor = |key| get(cfg, &format!("network.router.congestion_sensor.{key}"));
            let style = format!("{}/{}", sensor("granularity"), sensor("source"));
            let sw = sweep(cfg, &style, &loads);
            for p in &sw.points {
                let (offered, delivered) = (p.offered, p.delivered);
                let mean = p
                    .latency
                    .map_or(String::new(), |l| format!("{:.1}", l.mean));
                let p99 = p.latency.map_or(String::new(), |l| l.p99.to_string());
                let row = format!("{style},{offered:.2},{delivered:.4},{mean},{p99}\n");
                csv.push_str(&row);
            }
            summary.push((style, sw.saturation_throughput().unwrap_or(0.0)));
        }
        println!("style,saturation_throughput");
        for (style, tput) in &summary {
            println!("{style},{tput:.3}");
        }
        let best = |prefix| {
            let styles = summary.iter().filter(|(s, _)| s.starts_with(prefix));
            styles.map(|&(_, t)| t).fold(f64::MIN, f64::max)
        };
        let (vc, port) = (best("vc/"), best("port/"));
        let gain = 100.0 * (port - vc) / vc;
        println!("best port-based {port:.3} vs best VC-based {vc:.3} ({gain:+.1}% port over VC)\n");
        write_artifact(&format!("fig{fig}_credit_accounting.csv"), &csv);
    }
}

// --- Figure 11 (§VI-C, case study C): flow control throughput ------------

fn fig11_configs(scale: Scale) -> Vec<Value> {
    // The paper's 128-flit input buffer split across the VCs,
    // `max(256 / vcs, 32)` flits.
    let vcs = [
        "network.vcs=uint=2 network.router.input_buffer=uint=128",
        "network.vcs=uint=4 network.router.input_buffer=uint=64",
        "network.vcs=uint=8 network.router.input_buffer=uint=32",
    ];
    // One packet per message; `max(3200 / size, 40)` samples keep the
    // sampled flit volume roughly constant across sizes.
    let sizes = [
        "network.interface.max_packet_size=uint=1 workload.applications.0.message_size=uint=1 \
            workload.applications.0.sample_messages=uint=3200",
        "network.interface.max_packet_size=uint=2 workload.applications.0.message_size=uint=2 \
            workload.applications.0.sample_messages=uint=1600",
        "network.interface.max_packet_size=uint=4 workload.applications.0.message_size=uint=4 \
            workload.applications.0.sample_messages=uint=800",
        "network.interface.max_packet_size=uint=8 workload.applications.0.message_size=uint=8 \
            workload.applications.0.sample_messages=uint=400",
        "network.interface.max_packet_size=uint=16 workload.applications.0.message_size=uint=16 \
            workload.applications.0.sample_messages=uint=200",
        "network.interface.max_packet_size=uint=32 workload.applications.0.message_size=uint=32 \
            workload.applications.0.sample_messages=uint=100",
    ];
    let fixed = [LOAD_0_1, scale.pick("", TORUS_FULL)];
    grid(CASE_C, &fixed, &[&vcs, &sizes, TECHNIQUES])
}

fn fig11(_: Scale, configs: Vec<Value>) {
    let offered = 0.9;
    let technique = |cfg: &Value| get(cfg, "network.router.flow_control");
    let mut csv = String::from("vcs,message_flits,technique,offered,delivered\n");
    for by_vcs in configs.chunks(configs.len() / 3) {
        let vcs = get(&by_vcs[0], "network.vcs");
        println!("=== Figure 11 ({vcs} VCs): saturation throughput by message size ===");
        let [a, b, c] = [0, 1, 2].map(|i| technique(&by_vcs[i]));
        println!("{:<8} {a:>14} {b:>14} {c:>14}", "flits");
        for by_size in by_vcs.chunks(3) {
            let size = get(&by_size[0], "workload.applications.0.message_size");
            let mut row = format!("{size:<8}");
            for cfg in by_size {
                let delivered = sweep(cfg, "fig11", &[offered]).points[0].delivered;
                row.push_str(&format!(" {delivered:>14.3}"));
                let technique = technique(cfg);
                let row = format!("{vcs},{size},{technique},{offered:.2},{delivered:.4}\n");
                csv.push_str(&row);
            }
            println!("{row}");
        }
        println!();
    }
    write_artifact("fig11_flow_control_throughput.csv", &csv);
}

// --- Figure 12 (§VI-C): flow control latency, 8 VCs, 32-flit messages ----
//
// Blocking effects are severest here; the paper finds flit-buffer best,
// packet-buffer worst and winner-take-all in between (EXPERIMENTS.md
// explains why that order is not asserted at seconds scale).

fn fig12_configs(scale: Scale) -> Vec<Value> {
    let common = "seed=uint=1000 network.vcs=uint=8 network.router.input_buffer=uint=32 \
        network.interface.max_packet_size=uint=32 workload.applications.0.message_size=uint=32 \
        workload.applications.0.load=float=0.1";
    let small = "workload.applications.0.sample_messages=uint=100";
    let full = "workload.applications.0.sample_messages=uint=150";
    let fixed = [common, scale.pick(small, full), scale.pick("", TORUS_FULL)];
    grid(CASE_C, &fixed, &[TECHNIQUES])
}

fn fig12(_: Scale, configs: Vec<Value>) {
    println!("=== Figure 12: latency with 8 VCs and 32-flit messages ===");
    let mut csv = format!("technique,{PERCENTILE_HEADER}\n");
    let mut series = Vec::new();
    let mut tails = String::from("technique,p99_at_0.80,p999_at_0.80\n");
    for cfg in &configs {
        let technique = get(cfg, "network.router.flow_control");
        let sw = sweep(cfg, &technique, &[0.1, 0.25, 0.4, 0.55, 0.7, 0.8]);
        let unsaturated = sw.unsaturated_prefix(0.1);
        for p in unsaturated {
            csv.push_str(&format!("{technique},{}\n", percentile_row(p)));
        }
        // Blocking shows up in the tail at high load: rank the techniques
        // by their 99th/99.9th percentiles at 0.8 offered.
        let at_0_8 = sw.points.iter().find(|p| (p.offered - 0.8).abs() < 1e-9);
        if let Some(l) = at_0_8.and_then(|p| p.latency) {
            tails.push_str(&format!("{technique},{},{}\n", l.p99, l.p999));
        }
        series.push((technique, means(unsaturated)));
    }
    chart(
        "mean message-packet latency (ticks) vs offered load",
        &series,
        18,
    );
    print!("{tails}");
    write_artifact("fig12_flow_control_latency.csv", &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The configurations every artifact runs, at both scales, are pinned
    /// to the documents the nine per-figure binaries built before
    /// `configs/paper/` replaced their hand-built ones: FNV-1a of each
    /// document's compact JSON plus a newline, concatenated in run order.
    /// A misspelled override path installs a key nothing reads, so the
    /// run would go ahead on the wrong experiment; this pin catches it.
    #[test]
    fn artifact_configurations_are_pinned() {
        let pins: [(&str, u64, u64); 8] = [
            ("table1", 0x7e5d_0b90_72a0_34de, 0xcd70_300e_50a6_fdd1),
            ("fig05", 0xe306_1490_26b5_ceb6, 0x7d1b_ef4e_83ce_66e9),
            ("fig07", 0x22a6_63d8_2bb2_ebc8, 0x805d_1710_cffa_72d9),
            ("fig08", 0xb635_ce5e_e60f_c91a, 0x3fe6_2036_7865_0ed6),
            ("fig09", 0x9bf2_5b0e_0310_d555, 0x9396_218c_d7fe_73ad),
            ("fig10", 0x1980_56fd_7589_3d49, 0x5a2e_74e7_f2f7_c835),
            ("fig11", 0x4e53_c562_49f8_79c8, 0xf174_4c0b_7a51_6040),
            ("fig12", 0xdede_e144_970b_945c, 0x0f8f_6212_303d_7db7),
        ];
        for ((name, configs, _), (pin_name, small, full)) in ARTIFACTS.iter().zip(pins) {
            assert_eq!(*name, pin_name);
            for (scale, pin) in [(Scale::Small, small), (Scale::Full, full)] {
                let text: String = configs(scale).iter().map(|c| c.to_json() + "\n").collect();
                assert_eq!(
                    fnv1a(text.as_bytes()),
                    pin,
                    "{name} at {scale:?} scale:\n{text}"
                );
            }
        }
    }

    #[test]
    fn grid_varies_the_first_axis_slowest() {
        let points = grid(
            CASE_C,
            &["seed=uint=5"],
            &[&["network.vcs=uint=4", "network.vcs=uint=8"], TECHNIQUES],
        );
        let labels: Vec<String> = points
            .iter()
            .map(|c| {
                format!(
                    "{} {} {}",
                    get(c, "seed"),
                    get(c, "network.vcs"),
                    get(c, "network.router.flow_control")
                )
            })
            .collect();
        assert_eq!(labels[0], "5 4 flit_buffer");
        assert_eq!(labels[1], "5 4 packet_buffer");
        assert_eq!(labels[3], "5 8 flit_buffer");
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn table1_cells_fill_paths_and_terminals() {
        let clos = &grid(CASE_A, &[], &[])[0];
        let template = "{network.topology.levels}-level, {terminals} terminals";
        assert_eq!(cell(template, clos), "3-level, 512 terminals");
        assert_eq!(cell("{network.router.output_queue}x", clos), "n/ax");
        assert_eq!(terminals(&grid(CASE_B, &[FBFLY_FULL], &[])[0]), 1024);
    }

    #[test]
    fn percentile_row_formats() {
        let p = LoadPoint {
            offered: 0.5,
            delivered: 0.49,
            latency: None,
        };
        assert_eq!(percentile_row(&p), "0.500,0.490,,,,,,");
        assert_eq!(PERCENTILE_HEADER.split(',').count(), 8);
    }
}
