//! Pins the bytes of every text output of one small run: the sample log,
//! the span log, the flit trace and the time series of
//! `configs/fault_smoke.json` with all four planes armed. The goldens
//! under `tests/golden/outputs/` were written by the `supersim` binary
//! before the output writers were rewritten; the writers must reproduce
//! them exactly. Regenerate (only for a deliberate format change) with
//!
//! ```text
//! supersim configs/fault_smoke.json observability.trace.enabled=bool=true \
//!     observability.trace.capacity=uint=1024 spans.min_latency=uint=15 \
//!     --spans --sample-interval 100 \
//!     --log tests/golden/outputs/fault_smoke.log \
//!     --trace tests/golden/outputs/fault_smoke.trace \
//!     --timeseries tests/golden/outputs/fault_smoke.timeseries \
//!     --span-log tests/golden/outputs/fault_smoke.spans
//! ```

use supersim::config::{expand_file, Value};
use supersim::core::SuperSim;

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
