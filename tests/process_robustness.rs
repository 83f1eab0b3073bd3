//! The fault plane of the multi-process backend itself: a worker that
//! dies, hangs, or never starts must degrade the run into a typed
//! [`SimError::Worker`] within the transport's timeout budget — never a
//! silent stall — while the parent still assembles whatever partial
//! outputs the surviving workers deliver.
//!
//! Worker misbehavior is injected through the in-tree
//! `SUPERSIM_TEST_WORKER_FAIL` hook (`<exit|hang>:<worker>:<round>`),
//! which the spawned worker processes inherit through the environment.
//! The checkpoint-based recovery path uses two further hooks:
//! `SUPERSIM_TEST_WORKER_WEDGE=<worker>` (worker sleeps before ever
//! connecting, exercising the accept-phase timeout) and
//! `SUPERSIM_TEST_KILL_WORKER=<worker>:<round>` (the parent SIGKILLs the
//! worker right after checkpoint `<round>` completes).
#![cfg(unix)]

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use supersim::config::Value;
use supersim::core::{RunReport, SimError, SuperSim};
use supersim::stats::MetricValue;
use supersim::topology::partition_routers;

/// Serializes the tests in this file: they all mutate the same
/// process-global environment variable that spawned workers inherit.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn process_cfg(timeout_ms: u64) -> Value {
    let mut cfg = common::quickstart();
    for (path, value) in [
        ("engine.kind", Value::Str("sharded".into())),
        ("engine.transport", Value::Str("process".into())),
        ("engine.shards", Value::Int(2)),
        (
            "engine.worker_bin",
            Value::Str(env!("CARGO_BIN_EXE_supersim").into()),
        ),
        ("process.timeout_ms", Value::Int(timeout_ms as i64)),
    ] {
        cfg.set_path(path, value).expect("object");
    }
    cfg
}

fn run_report(cfg: &Value) -> RunReport {
    SuperSim::from_config(cfg).expect("build").run_report()
}

fn assert_degraded_by_worker(report: &RunReport, worker: u32, label: &str) {
    match &report.error {
        Some(SimError::Worker { worker: w, .. }) => {
            assert_eq!(*w, worker, "{label}: wrong worker blamed");
        }
        other => panic!("{label}: expected SimError::Worker, got {other:?}"),
    }
    assert!(
        matches!(
            report.output.metrics.get("run", "degraded"),
            Some(MetricValue::Counter(1))
        ),
        "{label}: degraded run not marked in the metrics"
    );
    assert!(
        report.diagnostic.is_some(),
        "{label}: degraded run carries no diagnostic snapshot"
    );
}

#[test]
fn killed_worker_degrades_to_a_typed_error() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SUPERSIM_TEST_WORKER_FAIL", "exit:1:40");
    let report = run_report(&process_cfg(10_000));
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    assert_degraded_by_worker(&report, 1, "killed worker");
    let reason = match &report.error {
        Some(SimError::Worker { reason, .. }) => reason.clone(),
        _ => unreachable!(),
    };
    assert!(
        reason.contains("died") || reason.contains("closed"),
        "reason should point at the dead connection, got {reason:?}"
    );
}

#[test]
fn killed_worker_report_holds_only_the_survivors_components() {
    // No checkpoints, so no respawn: the report is assembled from what
    // the surviving worker delivered. Worker 0 owns the routers the
    // partition puts on shard 0; exactly their planes are reported, and
    // nothing the dead worker owned appears as if it had run.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SUPERSIM_TEST_WORKER_FAIL", "exit:1:40");
    let sim = SuperSim::from_config(&process_cfg(10_000)).expect("build");
    let topology = std::sync::Arc::clone(sim.topology());
    let report = sim.run_report();
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    assert_degraded_by_worker(&report, 1, "killed worker");
    let owner = partition_routers(topology.as_ref(), 2);
    assert!(owner.contains(&0) && owner.contains(&1), "{owner:?}");
    for (r, &shard) in owner.iter().enumerate() {
        let plane = report.output.metrics.get(&format!("router_{r}"), "grants");
        assert_eq!(
            plane.is_some(),
            shard == 0,
            "router_{r} (worker {shard}) in the degraded report"
        );
    }
}

#[test]
fn hung_worker_trips_the_timeout_budget() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SUPERSIM_TEST_WORKER_FAIL", "hang:0:40");
    let started = Instant::now();
    let report = run_report(&process_cfg(2_000));
    let elapsed = started.elapsed();
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    assert_degraded_by_worker(&report, 0, "hung worker");
    let reason = match &report.error {
        Some(SimError::Worker { reason, .. }) => reason.clone(),
        _ => unreachable!(),
    };
    assert!(
        reason.contains("hung") || reason.contains("timeout"),
        "reason should point at the timeout, got {reason:?}"
    );
    // The whole degrade path — detection, aborting the survivor,
    // collecting its partial, reaping children — must stay within a few
    // timeout budgets, never a silent stall.
    assert!(
        elapsed < Duration::from_secs(30),
        "degrade took {elapsed:?} on a 2s budget"
    );
}

#[test]
fn missing_worker_binary_is_a_startup_error() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut cfg = process_cfg(2_000);
    cfg.set_path(
        "engine.worker_bin",
        Value::Str("/nonexistent/supersim-worker".into()),
    )
    .expect("object");
    let report = run_report(&cfg);
    assert_degraded_by_worker(&report, 0, "missing binary");
    let reason = match &report.error {
        Some(SimError::Worker { reason, .. }) => reason.clone(),
        _ => unreachable!(),
    };
    assert!(
        reason.starts_with("startup:"),
        "expected a startup-phase reason, got {reason:?}"
    );
}

/// A fresh, empty scratch directory under the system temp dir, unique
/// per test so parallel test binaries cannot collide.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn wedged_worker_is_cut_off_by_the_process_timeout() {
    // A worker that wedges before it ever connects must be cut off by
    // the accept-phase budget (`process.timeout_ms`), not waited on
    // forever.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SUPERSIM_TEST_WORKER_WEDGE", "1");
    let started = Instant::now();
    let report = run_report(&process_cfg(500));
    let elapsed = started.elapsed();
    std::env::remove_var("SUPERSIM_TEST_WORKER_WEDGE");
    assert_degraded_by_worker(&report, 0, "wedged worker");
    let reason = match &report.error {
        Some(SimError::Worker { reason, .. }) => reason.clone(),
        _ => unreachable!(),
    };
    assert!(
        reason.contains("startup") || reason.contains("connected") || reason.contains("timeout"),
        "reason should point at the accept timeout, got {reason:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "wedge cut-off took {elapsed:?} on a 500ms budget"
    );
}

#[test]
fn crashed_worker_is_respawned_from_the_last_checkpoint() {
    // With checkpointing armed, a SIGKILLed worker must not degrade the
    // run: the parent respawns the whole fleet from the last completed
    // checkpoint and the run finishes clean.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    let dir = scratch_dir("heal-ckpt");
    std::env::set_var("SUPERSIM_TEST_KILL_WORKER", "1:2");
    let mut cfg = process_cfg(30_000);
    cfg.set_path("checkpoint.interval", Value::Int(200))
        .expect("object");
    cfg.set_path(
        "checkpoint.dir",
        Value::Str(dir.to_string_lossy().into_owned()),
    )
    .expect("object");
    let report = run_report(&cfg);
    std::env::remove_var("SUPERSIM_TEST_KILL_WORKER");
    assert!(
        report.is_ok(),
        "recovered run still degraded: {:?}",
        report.error
    );
    assert!(report.output.packets_delivered() > 0);
    assert!(matches!(
        report.output.metrics.get("run", "degraded"),
        Some(MetricValue::Counter(0))
    ));
    // The checkpoint the fleet restarted from must exist on disk.
    assert!(
        dir.join("ckpt-00000002.ssckpt").is_file(),
        "round-2 checkpoint missing from {dir:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_restart_budget_degrades_to_a_typed_error() {
    // `checkpoint.max_restarts = 0` turns recovery off even when
    // checkpoints exist: the first worker death is terminal.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    let dir = scratch_dir("budget-ckpt");
    std::env::set_var("SUPERSIM_TEST_KILL_WORKER", "1:1");
    let mut cfg = process_cfg(30_000);
    for (path, value) in [
        ("checkpoint.interval", Value::Int(200)),
        (
            "checkpoint.dir",
            Value::Str(dir.to_string_lossy().into_owned()),
        ),
        ("checkpoint.max_restarts", Value::Int(0)),
    ] {
        cfg.set_path(path, value).expect("object");
    }
    let report = run_report(&cfg);
    std::env::remove_var("SUPERSIM_TEST_KILL_WORKER");
    assert_degraded_by_worker(&report, 1, "restart budget exhausted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_process_run_reports_no_error() {
    // The robustness hooks must not leak into a clean run: same
    // configuration, no injected failure, full outputs.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("SUPERSIM_TEST_WORKER_FAIL");
    let report = run_report(&process_cfg(30_000));
    assert!(report.is_ok(), "clean run degraded: {:?}", report.error);
    assert!(report.output.packets_delivered() > 0);
    assert!(matches!(
        report.output.metrics.get("run", "degraded"),
        Some(MetricValue::Counter(0))
    ));
}
