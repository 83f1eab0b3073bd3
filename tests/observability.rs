//! End-to-end contracts of the observability layer: metrics snapshots
//! and flit traces come out of a real run, stay deterministic, and feed
//! the existing tool formats unchanged.

mod common;

use supersim::config::Value;
use supersim::core::{RunOutput, SuperSim};
use supersim::stats::{Filter, MetricValue, MetricsSnapshot};
use supersim::tools;

/// The quickstart preset with tracing switched on.
fn traced_config() -> Value {
    let mut cfg = common::quickstart();
    cfg.set_path("observability.trace.enabled", Value::Bool(true))
        .expect("object");
    cfg.set_path("observability.trace.capacity", Value::Int(1 << 16))
        .expect("object");
    cfg
}

fn run(cfg: &Value) -> RunOutput {
    SuperSim::from_config(cfg)
        .expect("build")
        .run()
        .expect("run")
}

#[test]
fn trace_output_is_byte_identical_across_runs() {
    let cfg = traced_config();
    let a = run(&cfg);
    let b = run(&cfg);
    let trace_a = a.trace.expect("tracing enabled");
    let trace_b = b.trace.expect("tracing enabled");
    assert!(
        !trace_a.is_empty(),
        "an enabled tracer must capture the quickstart run"
    );
    assert_eq!(
        trace_a, trace_b,
        "trace must be byte-identical for identical (config, seed)"
    );
    // Every line is a self-contained JSON record.
    for line in trace_a.lines().take(50) {
        let v = supersim::config::parse(line).expect("valid JSON line");
        assert!(v.get("tick").is_some() && v.get("kind").is_some() && v.get("packet").is_some());
    }
}

#[test]
fn tracing_is_off_by_default() {
    let out = run(&common::quickstart());
    assert!(
        out.trace.is_none(),
        "no trace output without observability.trace.enabled"
    );
    assert!(!out.metrics.is_empty(), "metrics are always collected");
}

#[test]
fn trace_filter_narrows_to_requested_kinds() {
    let mut cfg = traced_config();
    cfg.set_path(
        "observability.trace.kinds",
        Value::Array(vec![
            Value::Str("inject".into()),
            Value::Str("eject".into()),
        ]),
    )
    .expect("object");
    let out = run(&cfg);
    let trace = out.trace.expect("tracing enabled");
    assert!(!trace.is_empty());
    for line in trace.lines() {
        let kind = supersim::config::parse(line)
            .expect("valid JSON line")
            .get("kind")
            .and_then(Value::as_str)
            .expect("kind field")
            .to_string();
        assert!(
            kind == "inject" || kind == "eject",
            "filtered kind leaked: {kind}"
        );
    }
}

#[test]
fn metrics_snapshot_round_trips_and_feeds_ssreport() {
    let out = run(&common::quickstart());
    // Engine, workload, and router planes are all present.
    assert!(matches!(
        out.metrics.get("engine", "events_executed"),
        Some(MetricValue::Counter(n)) if *n > 0
    ));
    assert!(matches!(
        out.metrics.get("workload", "flits_received"),
        Some(MetricValue::Counter(n)) if *n > 0
    ));
    assert!(out.metrics.get("router_0", "grants").is_some());
    // Events are fully accounted by the per-shard batch histograms
    // (scheduler diagnostics live in one `engine_shard_<i>` plane per
    // shard; the sequential engine is shard 0).
    let mut batched = 0u64;
    let mut shard_planes = 0usize;
    for s in out.metrics.samples() {
        if s.component.starts_with("engine_shard_") && s.name == "batch_size" {
            shard_planes += 1;
            match &s.value {
                MetricValue::Histogram(h) => batched += h.sum(),
                other => panic!("batch_size must be a histogram, got {other:?}"),
            }
        }
    }
    assert!(shard_planes >= 1, "at least one engine_shard plane");
    assert_eq!(batched, out.engine.events_executed);
    // JSON round trip (what `supersim --metrics` writes and `ssreport`
    // reads) preserves every sample.
    let back = MetricsSnapshot::from_json(&out.metrics.to_json()).expect("parse snapshot");
    assert_eq!(back.samples(), out.metrics.samples());
    // ssreport renders it without knowing where it came from.
    let text = tools::report_text(&back);
    assert!(text.contains("[engine]") && text.contains("[workload]"));
    let hist = tools::histogram_report(&back, "workload", "packet_latency_generating")
        .expect("per-phase latency histogram");
    assert!(hist.starts_with("bin_start,count\n"));
}

#[test]
fn sample_log_format_is_unchanged_by_observability() {
    // The paper-era pipeline — sample log text into ssparse — must see no
    // format change from the new layer, traced or not.
    let plain = run(&common::quickstart());
    let traced = run(&traced_config());
    assert_eq!(
        plain.log.to_text(),
        traced.log.to_text(),
        "tracing must not perturb the run"
    );
    let analysis =
        tools::analyze_text::<&str>(&plain.log.to_text(), &[]).expect("ssparse parses the log");
    assert!(analysis.to_table().contains("packet"));
    let _ = tools::analyze(&plain.log, &Filter::new());
}

#[test]
fn workload_latency_histograms_match_sampled_records() {
    let out = run(&common::quickstart());
    // Histograms are indexed by the phase a packet *completed* in, so a
    // sampled packet injected late in the window may land in a later
    // phase's histogram. Across all phases they cover every completed
    // packet, samples included — and the generating phase must have seen
    // some completions of its own.
    let mut completed = 0u64;
    for phase in ["warming", "generating", "finishing", "draining"] {
        match out
            .metrics
            .get("workload", &format!("packet_latency_{phase}"))
            .expect("histogram")
        {
            MetricValue::Histogram(h) => completed += h.count(),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
    assert!(completed >= out.packets_delivered());
    match out
        .metrics
        .get("workload", "packet_latency_generating")
        .expect("histogram")
    {
        MetricValue::Histogram(h) => assert!(h.count() > 0),
        other => panic!("expected histogram, got {other:?}"),
    }
}
