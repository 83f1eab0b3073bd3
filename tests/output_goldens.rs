//! Pins the bytes of every text output of one small run: the sample log,
//! the span log, the flit trace, the time series and the metrics snapshot
//! of `configs/fault_smoke.json` with all four planes armed. The goldens
//! under `tests/golden/outputs/` were written by the `supersim` binary
//! before the output writers (and, for the metrics, the per-plane report
//! assembly) were rewritten; the writers must reproduce them exactly.
//! The metrics golden leaves out the `engine_shard_*` and `host*` planes,
//! which vary with the engine layout and the host clock, so it holds on
//! every backend. Regenerate (only for a deliberate format change) with
//!
//! ```text
//! supersim configs/fault_smoke.json observability.trace.enabled=bool=true \
//!     observability.trace.capacity=uint=1024 spans.min_latency=uint=15 \
//!     --spans --sample-interval 100 \
//!     --log tests/golden/outputs/fault_smoke.log \
//!     --trace tests/golden/outputs/fault_smoke.trace \
//!     --timeseries tests/golden/outputs/fault_smoke.timeseries \
//!     --span-log tests/golden/outputs/fault_smoke.spans --metrics m.json
//! jq -cj '[.[] | select(.component | test("^(host|engine_shard_)") | not)]' \
//!     m.json > tests/golden/outputs/fault_smoke.metrics
//! ```

use supersim::config::{expand_file, Value};
use supersim::core::SuperSim;
use supersim::stats::MetricsSnapshot;

/// The snapshot without the planes that depend on the engine layout or
/// the host clock (`engine_shard_*`, `host`, `host_shard_*`).
fn layout_free_metrics(metrics: &MetricsSnapshot) -> String {
    let mut kept = MetricsSnapshot::new();
    for s in metrics.samples() {
        if !(s.component.starts_with("host") || s.component.starts_with("engine_shard_")) {
            kept.push(s.component.clone(), s.name.clone(), s.value.clone());
        }
    }
    kept.to_json()
}

fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/outputs/fault_smoke.{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_text_output_matches_its_golden_byte_for_byte() {
    let path = format!("{}/configs/fault_smoke.json", env!("CARGO_MANIFEST_DIR"));
    let mut cfg = expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (key, value) in [
        ("observability.trace.enabled", Value::Bool(true)),
        ("observability.trace.capacity", Value::Int(1024)),
        ("spans.min_latency", Value::Int(15)),
        ("spans.enabled", Value::Bool(true)),
        ("sample.interval", Value::Int(100)),
    ] {
        cfg.set_path(key, value).expect("object");
    }
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let outputs = [
        ("log", Some(out.log.to_text())),
        ("metrics", Some(layout_free_metrics(&out.metrics))),
        ("spans", out.spans),
        ("trace", out.trace),
        ("timeseries", out.timeseries),
    ];
    for (name, text) in outputs {
        let text = text.unwrap_or_else(|| panic!("{name} not collected"));
        let want = golden(name);
        assert!(
            text == want,
            "{name} differs from its golden ({} vs {} bytes); first differing line: {:?}",
            text.len(),
            want.len(),
            text.lines().zip(want.lines()).find(|(a, b)| a != b)
        );
    }
}

/// The planes that carry wall-clock values or depend on the engine layout
/// (`engine_shard_*`, `host_shard_*`, `host`) cannot be pinned by value;
/// their layout — which metric, of which kind, in which order — can. A
/// two-shard quickstart run with every batch sampled.
#[test]
fn layout_dependent_planes_keep_their_names_and_order() {
    let path = format!("{}/configs/quickstart.json", env!("CARGO_MANIFEST_DIR"));
    let mut cfg = expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (key, value) in [
        ("engine.kind", Value::Str("sharded".into())),
        ("engine.shards", Value::Int(2)),
        ("host.profile.enabled", Value::Bool(true)),
        ("host.profile.sample", Value::Int(1)),
    ] {
        cfg.set_path(key, value).expect("object");
    }
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let got: Vec<String> = out
        .metrics
        .samples()
        .iter()
        .filter(|s| s.component.starts_with("host") || s.component.starts_with("engine_shard_"))
        .map(|s| format!("{} {} {}", s.component, s.name, s.value.kind()))
        .collect();
    let mut want = Vec::new();
    for s in 0..2 {
        for (name, kind) in [
            ("events_executed", "counter"),
            ("batches", "counter"),
            ("total_enqueued", "counter"),
            ("horizon", "counter"),
            ("horizon_resizes", "counter"),
            ("overflow_spills", "counter"),
            ("overflow_len", "counter"),
            ("queue_len", "gauge"),
            ("batch_size", "histogram"),
        ] {
            want.push(format!("engine_shard_{s} {name} {kind}"));
        }
    }
    for s in 0..2 {
        for name in [
            "total_batches",
            "sampled_batches",
            "sampled_events",
            "drain_ns",
            "execute_ns",
            "sample_edge_ns",
            "exchange_ns",
            "checkpoint_ns",
            "checkpoint_writes",
            "checkpoint_bytes",
        ] {
            want.push(format!("host_shard_{s} {name} counter"));
        }
    }
    for name in [
        "wall_ns",
        "drain_ns",
        "execute_ns",
        "sample_edge_ns",
        "exchange_ns",
        "total_batches",
        "sampled_batches",
        "sampled_events",
        "log_bytes",
        "terminals",
        "peak_rss_bytes",
        "execute_imbalance_millis",
        "barrier_wait_millis",
        "class_interface_ns",
        "class_interface_events",
        "class_monitor_ns",
        "class_monitor_events",
        "class_router_ns",
        "class_router_events",
        "checkpoint_writes",
        "checkpoint_ns",
        "checkpoint_bytes",
    ]
    .into_iter()
    // The peak resident set is read where the platform reports one.
    .filter(|&name| name != "peak_rss_bytes" || cfg!(target_os = "linux"))
    {
        want.push(format!("host {name} counter"));
    }
    assert_eq!(got, want);
}
