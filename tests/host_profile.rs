//! The host-time observability contract: the profiling plane is
//! pay-for-what-you-use (no `host` plane unless enabled), populated when
//! armed, and its Chrome `trace_event` export is structurally valid —
//! parseable JSON whose slices nest properly with monotonic timestamps
//! on every `(pid, tid)` track.
//!
//! Byte-identity of profiled runs against unprofiled ones is pinned here
//! for the sequential engine and in the engine/fault determinism grids
//! for every backend.

mod common;

use supersim::config::Value;
use supersim::core::{RunOutput, SuperSim};
use supersim::stats::{MetricSample, MetricValue};

fn run(cfg: &Value) -> RunOutput {
    SuperSim::from_config(cfg)
        .expect("build")
        .run()
        .expect("run")
}

/// Arms sampled host profiling (without the trace export).
fn with_profiling(cfg: &Value) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("host.profile.enabled", Value::Bool(true))
        .expect("obj");
    cfg
}

/// Arms the trace export (which implies profiling).
fn with_trace(cfg: &Value) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("host.trace.enabled", Value::Bool(true))
        .expect("obj");
    cfg
}

fn with_shards(cfg: &Value, shards: u64) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("engine.kind", Value::Str("sharded".into()))
        .expect("obj");
    cfg.set_path("engine.shards", Value::Int(shards as i64))
        .expect("obj");
    cfg
}

#[cfg(unix)]
fn with_process(cfg: &Value, workers: u64) -> Value {
    let mut cfg = with_shards(cfg, workers);
    cfg.set_path("engine.transport", Value::Str("process".into()))
        .expect("obj");
    cfg.set_path(
        "engine.worker_bin",
        Value::Str(env!("CARGO_BIN_EXE_supersim").into()),
    )
    .expect("obj");
    cfg
}

fn host_counter(out: &RunOutput, name: &str) -> Option<u64> {
    match out.metrics.get("host", name) {
        Some(MetricValue::Counter(v)) => Some(*v),
        _ => None,
    }
}

#[test]
fn host_plane_is_pay_for_what_you_use() {
    let out = run(&common::quickstart());
    assert!(
        out.metrics.get("host", "wall_ns").is_none(),
        "unprofiled run must not register the host plane"
    );
    assert!(out.host_trace.is_none(), "no trace unless enabled");
}

#[test]
fn host_plane_attributes_wall_time_when_enabled() {
    let out = run(&with_profiling(&common::quickstart()));
    assert!(host_counter(&out, "wall_ns").expect("host plane") > 0);
    assert!(
        host_counter(&out, "execute_ns").expect("execute phase") > 0,
        "a drained run spent time executing"
    );
    assert!(
        host_counter(&out, "total_batches").expect("batches") > 0,
        "batch counting is sample-independent"
    );
    // Per-shard plane present (sequential runs report shard 0).
    assert!(out.metrics.get("host_shard_0", "execute_ns").is_some());
    // Sampled class attribution saw the real component classes.
    assert!(
        host_counter(&out, "class_router_events").unwrap_or(0) > 0,
        "router class sampled"
    );
    // An in-process run records its process's peak where the platform
    // reports one.
    assert_eq!(
        host_counter(&out, "peak_rss_bytes").is_some(),
        cfg!(target_os = "linux")
    );
    // Profiling alone does not emit a trace.
    assert!(out.host_trace.is_none());
}

/// One parsed `ph:"X"` slice.
struct Slice {
    name: String,
    pid: u64,
    tid: u64,
    ts: u64,
    end: u64,
}

/// Parses the trace document with the in-tree JSON parser and checks
/// structural validity: every event has a phase, slices carry pid / tid
/// / ts / dur, per-track timestamps never decrease in emission order,
/// and slices on one track are properly nested (each slice is either
/// disjoint from or contained in the enclosing one). Returns the slices
/// for further assertions.
fn check_trace(doc: &str) -> Vec<Slice> {
    let parsed = Value::parse(doc).expect("trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    let mut slices: Vec<Slice> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let pid = ev.get("pid").and_then(Value::as_u64).expect("pid");
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        match ph {
            "X" => {
                let tid = ev.get("tid").and_then(Value::as_u64).expect("tid");
                let ts = ev.get("ts").and_then(Value::as_u64).expect("ts");
                let dur = ev.get("dur").and_then(Value::as_u64).expect("dur");
                slices.push(Slice {
                    name: name.to_string(),
                    pid,
                    tid,
                    ts,
                    end: ts + dur,
                });
            }
            "C" => {
                assert!(ev.get("ts").and_then(Value::as_u64).is_some());
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_u64)
                    .is_some());
            }
            "M" => {
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Per-(pid, tid) track: monotonic timestamps and proper nesting.
    let mut tracks: Vec<(u64, u64)> = slices.iter().map(|s| (s.pid, s.tid)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for (pid, tid) in tracks {
        let mut stack: Vec<(u64, u64)> = Vec::new();
        let mut last_ts = 0u64;
        for s in slices.iter().filter(|s| s.pid == pid && s.tid == tid) {
            assert!(
                s.ts >= last_ts,
                "track ({pid},{tid}): ts went backwards ({} < {last_ts})",
                s.ts
            );
            last_ts = s.ts;
            while stack.last().is_some_and(|&(_, end)| s.ts >= end) {
                stack.pop();
            }
            if let Some(&(open_ts, open_end)) = stack.last() {
                assert!(
                    s.ts >= open_ts && s.end <= open_end,
                    "track ({pid},{tid}): slice [{}, {}] straddles open slice [{open_ts}, {open_end}]",
                    s.ts,
                    s.end
                );
            }
            stack.push((s.ts, s.end));
        }
    }
    slices
}

#[test]
fn host_trace_is_valid_trace_event_json() {
    let out = run(&with_trace(&common::quickstart()));
    let doc = out.host_trace.as_deref().expect("trace collected");
    let slices = check_trace(doc);
    assert!(!slices.is_empty(), "trace has round slices");
    assert!(doc.contains("\"round\""), "round slices present");
    assert!(
        doc.contains("arena_occupancy_peak"),
        "arena counter track present"
    );
}

#[test]
fn sharded_host_trace_has_one_track_per_shard() {
    let out = run(&with_trace(&with_shards(&common::quickstart(), 2)));
    let slices = check_trace(out.host_trace.as_deref().expect("trace collected"));
    let mut tids: Vec<u64> = slices.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.contains(&0) && tids.contains(&1),
        "both shard tracks present, got tids {tids:?}"
    );
}

#[test]
fn checkpointed_host_trace_is_one_timeline() {
    // A checkpointed run is many `run_until` segments. Every segment's
    // round slices must land on the run's one timeline — not restart at
    // zero — with each checkpoint write after the rounds it captured and
    // before the rounds that follow it, on every shard.
    for (engine, base) in [
        ("sequential", common::quickstart()),
        ("sharded", with_shards(&common::quickstart(), 2)),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "supersim-host-trace-{engine}-{}",
            std::process::id()
        ));
        let mut cfg = with_trace(&base);
        for (path, value) in [
            ("host.profile.sample", Value::Int(1)),
            ("checkpoint.interval", Value::Int(200)),
            (
                "checkpoint.dir",
                Value::Str(dir.to_string_lossy().into_owned()),
            ),
        ] {
            cfg.set_path(path, value).expect("obj");
        }
        let out = run(&cfg);
        let _ = std::fs::remove_dir_all(&dir);
        let slices = check_trace(out.host_trace.as_deref().expect("trace collected"));
        let rounds: Vec<&Slice> = slices.iter().filter(|s| s.name == "round").collect();
        let checkpoints: Vec<&Slice> = slices.iter().filter(|s| s.name == "checkpoint").collect();
        assert!(checkpoints.len() >= 2, "{engine}: a multi-segment run");
        for c in checkpoints {
            let before = rounds.iter().filter(|r| r.ts <= c.ts).map(|r| r.end).max();
            let before = before.expect("a checkpoint follows the rounds it captured");
            assert!(
                c.ts >= before,
                "{engine}: checkpoint at {} starts inside a round ending at {before}",
                c.ts
            );
            if let Some(r) = rounds.iter().find(|r| r.ts > c.ts && r.ts < c.end) {
                panic!(
                    "{engine}: a round of shard {} starts at {} inside the checkpoint at {}..{}",
                    r.tid, r.ts, c.ts, c.end
                );
            }
        }
    }
}

#[cfg(unix)]
#[test]
fn worker_host_trace_has_one_process_per_worker() {
    let out = run(&with_trace(&with_process(&common::quickstart(), 2)));
    let slices = check_trace(out.host_trace.as_deref().expect("trace collected"));
    let mut pids: Vec<u64> = slices.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert!(
        pids.contains(&1) && pids.contains(&2),
        "worker process tracks present, got pids {pids:?}"
    );
    // The hub side recorded per-worker wire accounting.
    assert!(host_counter(&out, "worker_0_wire_in_bytes").unwrap_or(0) > 0);
    assert!(host_counter(&out, "worker_1_wire_in_bytes").unwrap_or(0) > 0);
    assert!(host_counter(&out, "hub_rounds").unwrap_or(0) > 0);
    // The shards live in the workers, so the parent's peak is not the
    // run's: a fleet records none.
    assert!(host_counter(&out, "peak_rss_bytes").is_none());
}

#[cfg(unix)]
#[test]
fn worker_checkpoint_captures_match_the_checkpoint_files() {
    // Each worker captures its shard once per checkpoint file the parent
    // writes, and its host plane counts exactly those captures.
    let dir = std::env::temp_dir().join(format!("supersim-host-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = with_profiling(&with_process(&common::quickstart(), 2));
    cfg.set_path("checkpoint.interval", Value::Int(200))
        .expect("obj");
    cfg.set_path(
        "checkpoint.dir",
        Value::Str(dir.to_string_lossy().into_owned()),
    )
    .expect("obj");
    let out = run(&cfg);
    let files = std::fs::read_dir(&dir).expect("checkpoint dir").count() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(files >= 2, "a multi-segment run wrote {files} files");
    for w in 0..2 {
        let plane = format!("host_shard_{w}");
        assert_eq!(
            out.metrics.get(&plane, "checkpoint_writes"),
            Some(&MetricValue::Counter(files)),
            "{plane}"
        );
    }
}

#[test]
fn profiling_is_invisible_to_simulation_bytes() {
    // The direct sequential pin; the determinism grids pin the same
    // contract for the sharded and multi-process backends.
    let strip = |out: &RunOutput| -> Vec<MetricSample> {
        out.metrics
            .samples()
            .iter()
            .filter(|s| s.component != "host" && !s.component.starts_with("host_shard_"))
            .cloned()
            .collect()
    };
    let plain = run(&common::quickstart());
    let profiled = run(&with_trace(&common::quickstart()));
    assert_eq!(plain.log.to_text(), profiled.log.to_text());
    assert_eq!(strip(&plain), strip(&profiled));
    assert_eq!(
        plain.engine.events_executed,
        profiled.engine.events_executed
    );
}
