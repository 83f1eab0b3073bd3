//! Configurations shared by the integration tests: shipped files under
//! `configs/`, varied by the same `path=type=value` overrides the
//! `supersim` command line takes.

#![allow(dead_code)] // each test binary uses its own subset

use supersim::config::Value;

/// `configs/<file>` with `overrides` applied in order.
pub fn config(file: &str, overrides: &[&str]) -> Value {
    let path = format!("{}/configs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut cfg = supersim::config::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    supersim::config::apply_overrides(&mut cfg, overrides)
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    cfg
}

/// `configs/quickstart.json`: a 4-router 1-D HyperX with 16 terminals.
pub fn quickstart() -> Value {
    config("quickstart.json", &[])
}

/// Case study B's flattened butterfly shrunk to 4 routers of 4 terminals,
/// with short channels and `both` credit accounting.
pub fn small_fbfly() -> Value {
    config(
        "paper/case_b_fbfly.json",
        &[
            "network.topology.widths=json=[4]",
            "network.topology.concentration=uint=4",
            "network.channel.local_latency=uint=3",
            "network.router.xbar_latency=uint=1",
            "network.router.congestion_sensor.source=string=both",
            "workload.applications.0.load=float=0.3",
            "workload.applications.0.warmup_ticks=uint=580",
            "workload.applications.0.sample_messages=uint=20",
        ],
    )
}
