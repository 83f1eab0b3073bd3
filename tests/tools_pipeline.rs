//! The full tool workflow of paper §V: simulate → write the log → parse
//! with filters (SSParse) → analyze → render series (SSPlot) — plus a
//! load sweep of real simulations (SSSweep's job, `run_load_sweep`).

mod common;

use supersim::core::SuperSim;
use supersim::stats::{Filter, RecordKind, SampleLog};
use supersim::tools;

#[test]
fn log_text_round_trips_through_ssparse() {
    let out = SuperSim::from_config(&common::quickstart())
        .expect("build")
        .run()
        .expect("run");
    // Write and re-read the log as the on-disk text format.
    let text = out.log.to_text();
    let reparsed = SampleLog::parse(&text).expect("well-formed log");
    assert_eq!(reparsed, out.log);

    let analysis = tools::analyze_text::<&str>(&text, &[]).expect("analyzable");
    assert_eq!(
        analysis
            .of(RecordKind::Packet)
            .latency
            .expect("sampled")
            .count,
        out.packets_delivered()
    );

    // Paper-style filters slice the data consistently.
    let (start, end) = out.window().expect("window");
    let mid = (start + end) / 2;
    let early = tools::analyze_text(&text, &[format!("+send={start}-{mid}")]).expect("filterable");
    let late =
        tools::analyze_text(&text, &[format!("+send={}-{end}", mid + 1)]).expect("filterable");
    let total = analysis.of(RecordKind::Packet).latency.unwrap().count;
    let e = early.of(RecordKind::Packet).latency.map_or(0, |l| l.count);
    let l = late.of(RecordKind::Packet).latency.map_or(0, |l| l.count);
    assert_eq!(e + l, total, "time filters must partition the records");
}

#[test]
fn percentile_distribution_like_figure_7() {
    let out = SuperSim::from_config(&common::quickstart())
        .expect("build")
        .run()
        .expect("run");
    let mut analysis = tools::analyze(&out.log, &Filter::new());
    let kind = analysis
        .kinds
        .iter_mut()
        .find(|k| k.kind == RecordKind::Packet)
        .expect("packets exist");
    let curve = kind.distribution.percentile_curve();
    assert!(!curve.is_empty());
    // Monotone in both axes.
    assert!(curve
        .windows(2)
        .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    let csv = tools::percentile_csv(&curve);
    assert!(csv.lines().count() == curve.len() + 1);
    // The tail percentile read off the curve matches the summary.
    let p999 = kind.distribution.percentile(99.9).expect("non-empty");
    assert!(curve.iter().any(|&(p, l)| p >= 0.999 && l >= p999));
}

#[test]
fn load_latency_csv_from_real_sweep() {
    let spec =
        supersim::core::LoadSweepSpec::simple(common::quickstart(), "quickstart", vec![0.1, 0.25]);
    let sweep = supersim::core::run_load_sweep(&spec).expect("sweep");
    let csv = tools::load_latency_csv(&[sweep], 0.05);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].starts_with("offered,quickstart_delivered"));
    // Below saturation the delivered column tracks the offered column.
    let fields: Vec<&str> = lines[1].split(',').collect();
    let offered: f64 = fields[0].parse().expect("number");
    let delivered: f64 = fields[1].parse().expect("number");
    assert!((offered - delivered).abs() / offered < 0.1);
}
