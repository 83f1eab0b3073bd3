//! End-to-end contracts of the windowed time-series plane and per-packet
//! latency attribution (paper §V, latent-congestion case study): the
//! time-series is byte-identical across engines and shard counts, matches
//! the checked-in golden file, span components tile end-to-end latency
//! exactly, and both features cost nothing when disabled.

mod common;

use supersim::config::{expand_file, Value};
use supersim::core::{RunOutput, SuperSim};
use supersim::tools;

fn latent_congestion() -> Value {
    let path = format!(
        "{}/configs/latent_congestion.json",
        env!("CARGO_MANIFEST_DIR")
    );
    expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn run_with(mut cfg: Value, engine: &str, shards: u64) -> RunOutput {
    cfg.set_path("engine.kind", Value::Str(engine.into()))
        .expect("object");
    cfg.set_path("engine.shards", Value::Int(shards as i64))
        .expect("object");
    cfg.set_path("spans.enabled", Value::Bool(true))
        .expect("object");
    SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run")
}

#[test]
fn timeseries_is_byte_identical_across_engines_and_shards() {
    let seq = run_with(latent_congestion(), "sequential", 1);
    let ts = seq.timeseries.as_deref().expect("sampling armed");
    let spans = seq.spans.as_deref().expect("spans enabled");
    assert!(!ts.is_empty() && !spans.is_empty());
    for shards in [2u64, 4] {
        let sharded = run_with(latent_congestion(), "sharded", shards);
        assert_eq!(
            Some(ts),
            sharded.timeseries.as_deref(),
            "time-series diverged at {shards} shards"
        );
        assert_eq!(
            Some(spans),
            sharded.spans.as_deref(),
            "span dump diverged at {shards} shards"
        );
    }
    // Two worker processes: each ships its interfaces' span logs to the
    // parent inside its end-of-run partial.
    #[cfg(unix)]
    {
        let mut cfg = latent_congestion();
        cfg.set_path("engine.transport", Value::Str("process".into()))
            .expect("object");
        cfg.set_path(
            "engine.worker_bin",
            Value::Str(env!("CARGO_BIN_EXE_supersim").into()),
        )
        .expect("object");
        let workers = run_with(cfg, "sharded", 2);
        assert_eq!(
            Some(ts),
            workers.timeseries.as_deref(),
            "time-series diverged on 2 workers"
        );
        assert_eq!(
            Some(spans),
            workers.spans.as_deref(),
            "span dump diverged on 2 workers"
        );
    }
    // The checked-in golden file pins the exact output; regenerate with
    //   supersim configs/latent_congestion.json --spans \
    //     --timeseries tests/golden/latent_congestion.timeseries --no-log
    let golden = std::fs::read_to_string(format!(
        "{}/tests/golden/latent_congestion.timeseries",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("golden file present");
    assert_eq!(ts, golden, "time-series drifted from the golden file");
}

#[test]
fn span_components_sum_exactly_to_end_to_end_latency() {
    let out = run_with(latent_congestion(), "sequential", 1);
    let spans = out.spans.as_deref().expect("spans enabled");
    let mut records = 0u64;
    for line in spans.lines() {
        let v = supersim::config::parse(line).expect("valid JSON line");
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("missing {name:?} in {line}"))
        };
        let total = field("total");
        let parts = field("queueing")
            + field("alloc")
            + field("serialization")
            + field("channel")
            + field("credit")
            + field("residual");
        assert_eq!(parts, total, "components must tile the latency: {line}");
        assert_eq!(field("residual"), 0, "fault-free run, no residual: {line}");
        records += 1;
    }
    assert!(records > 100, "only {records} span records");
    // The aggregate histograms land in the metrics plane for ssreport.
    assert!(out.metrics.get("workload", "span_total").is_some());
    assert!(out.metrics.get("workload", "span_credit").is_some());
}

#[test]
fn observability_is_disabled_by_default() {
    let out = SuperSim::from_config(&common::quickstart())
        .expect("build")
        .run()
        .expect("run");
    assert!(out.timeseries.is_none(), "no sampling without sample.*");
    assert!(out.spans.is_none(), "no spans without spans.enabled");
    assert!(out.metrics.get("workload", "span_total").is_none());
}

#[test]
fn degraded_run_ships_the_last_complete_window() {
    // The deliberately wedged 2-router config: with the sampling plane
    // armed, the watchdog diagnostic must carry the last closed window
    // (and its credit-stall counts) instead of nothing.
    let path = format!(
        "{}/configs/deadlock_2router.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut cfg = expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    cfg.set_path("sample.interval", Value::Int(100))
        .expect("object");
    let report = SuperSim::from_config(&cfg).expect("build").run_report();
    assert!(
        matches!(
            report.error,
            Some(supersim::core::SimError::Watchdog { .. })
        ),
        "expected watchdog trip, got {:?}",
        report.error
    );
    let diag = report.diagnostic.expect("diagnostic snapshot");
    let window = diag.last_window.as_ref().expect("last sample window");
    assert!(window.edge >= 100 && window.edge.is_multiple_of(100));
    let text = diag.to_string();
    assert!(
        text.contains("last window"),
        "diagnostic must render the window:\n{text}"
    );
}

#[test]
fn ssplot_renders_the_latent_congestion_figure() {
    let out = run_with(latent_congestion(), "sequential", 1);
    let ts = out.timeseries.as_deref().expect("sampling armed");
    let windows = tools::parse_timeseries(ts).expect("parseable dump");
    assert!(windows.len() >= 8, "too few windows: {}", windows.len());
    // Window edges align to the configured interval on every engine.
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.edge, 100 * (i as u64 + 1), "gapless 100-tick edges");
    }
    // The pulse makes p99 latency and buffering climb mid-run while the
    // steady mean stays low — the latent-congestion signature.
    let p99 = |w: &tools::TsWindow| w.get("iface.latency").map_or(0, |p| p.p99);
    let calm = p99(&windows[2]);
    let peak = windows.iter().map(p99).max().unwrap_or(0);
    assert!(
        peak >= 2 * calm,
        "pulse must be visible in time-resolved p99 (calm {calm}, peak {peak})"
    );
    let fig = tools::latent_congestion_figure(&windows, 72, 12);
    for panel in [
        "offered vs accepted load",
        "packet latency over time",
        "congestion indicators",
    ] {
        assert!(fig.contains(panel), "missing panel {panel:?}:\n{fig}");
    }
}
