//! The tentpole contract of the engine split: for one `(configuration,
//! seed)` the sharded engine produces results byte-identical to the
//! sequential engine — same sample log, same flit trace, same metrics
//! snapshot (minus the per-shard scheduler-diagnostic planes, which
//! legitimately depend on the partition), same engine totals.
//!
//! Property-style: the whole contract is checked across a grid of seeds ×
//! topologies × shard counts, so a synchronization bug that only shows up
//! under a particular partition or event interleaving still trips it.

mod common;

use supersim::config::Value;
use supersim::core::{RunOutput, SuperSim};
use supersim::stats::MetricSample;

/// Pins the engine through configuration (which outranks the
/// `SUPERSIM_ENGINE` / `SUPERSIM_SHARDS` environment, so this test means
/// the same thing under the sharded CI job).
fn with_engine(cfg: &Value, kind: &str, shards: u64) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("engine.kind", Value::Str(kind.into()))
        .expect("object");
    cfg.set_path("engine.shards", Value::Int(shards as i64))
        .expect("object");
    cfg
}

/// Pins the multi-process backend: `workers` shards, one OS process
/// each, spawned from the `supersim` binary cargo built for this test
/// run (the default of re-executing the current binary would hit the
/// test harness, which has no `__worker` role).
#[cfg(unix)]
fn with_process(cfg: &Value, workers: u64) -> Value {
    let mut cfg = with_engine(cfg, "sharded", workers);
    cfg.set_path("engine.transport", Value::Str("process".into()))
        .expect("object");
    cfg.set_path(
        "engine.worker_bin",
        Value::Str(env!("CARGO_BIN_EXE_supersim").into()),
    )
    .expect("object");
    cfg
}

/// Runs `cfg` to completion, first checking that it ran on the backend
/// [`with_engine`] pinned — a grid row that silently fell back to another
/// engine would compare a backend with itself.
fn run(cfg: &Value) -> RunOutput {
    let sim = SuperSim::from_config(cfg).expect("build");
    let routers = sim.topology().num_routers();
    let out = sim.run().expect("run");
    assert_backend(cfg, routers, &out);
    out
}

/// One `engine_shard_<i>` plane per shard that ran: the shard count
/// `cfg` requests (clamped to the router count), or 1 for sequential. A
/// configuration that pins no engine follows the environment and is not
/// checked.
fn assert_backend(cfg: &Value, routers: u32, out: &RunOutput) {
    let want = match cfg.req_str("engine.kind") {
        Ok("sharded") => cfg
            .req_u64("engine.shards")
            .expect("with_engine sets it")
            .min(u64::from(routers)),
        Ok(_) => 1,
        Err(_) => return,
    };
    let mut planes: Vec<&str> = out
        .metrics
        .samples()
        .iter()
        .map(|s| &*s.component)
        .filter(|c| c.starts_with("engine_shard_"))
        .collect();
    planes.dedup();
    assert_eq!(planes.len() as u64, want, "shards that ran: {planes:?}");
}

/// The snapshot with the partition-dependent planes stripped: everything
/// that remains must be bit-identical across engines. The host-time
/// planes (`host`, `host_shard_*`) hold wall-clock measurements and are
/// legitimately different on every run.
fn stripped_samples(out: &RunOutput) -> Vec<MetricSample> {
    out.metrics
        .samples()
        .iter()
        .filter(|s| {
            !s.component.starts_with("engine_shard_")
                && s.component != "host"
                && !s.component.starts_with("host_shard_")
        })
        .cloned()
        .collect()
}

/// Turns on the full host-time observability surface: sampled wall-clock
/// profiling, the Chrome trace_event export, and the progress heartbeat
/// (interval far above the run time, so only the final line fires). The
/// determinism contract requires all of it to be invisible to simulation
/// bytes.
fn with_host_profiling(cfg: &Value) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("host.profile.enabled", Value::Bool(true))
        .expect("object");
    cfg.set_path("host.trace.enabled", Value::Bool(true))
        .expect("object");
    cfg.set_path("progress.interval_ms", Value::Int(60_000))
        .expect("object");
    cfg
}

/// Small topologies spanning the factory families: a 1-D HyperX (the
/// quickstart), a folded Clos, and a flattened butterfly under IOQ
/// routers.
fn topologies() -> Vec<(&'static str, Value)> {
    let mut cfgs = vec![("hyperx", common::quickstart())];
    let mut clos = common::config(
        "paper/case_a_clos.json",
        &[
            "network.topology.levels=uint=2",
            "network.topology.k=uint=4",
            "network.channel.local_latency=uint=3",
            "network.router.core_latency=uint=1",
            "network.router.output_queue=uint=64",
            "workload.applications.0.load=float=0.3",
            "workload.applications.0.warmup_ticks=uint=580",
            "workload.applications.0.sample_messages=uint=20",
            "workload.applications.0.pattern.subtrees=uint=4",
            "workload.applications.0.pattern.per_subtree=uint=4",
        ],
    );
    clos.set_path("observability.trace.capacity", Value::Int(1 << 15))
        .expect("object");
    cfgs.push(("folded_clos", clos));
    cfgs.push(("flatbfly", common::small_fbfly()));
    cfgs
}

#[test]
fn sharded_run_is_byte_identical_to_sequential() {
    for (name, base) in topologies() {
        for seed in [1u64, 0x5eed, 0xDE7E_2A11] {
            let mut cfg = base.clone();
            cfg.set_path("seed", Value::Int(seed as i64))
                .expect("object");
            cfg.set_path("observability.trace.enabled", Value::Bool(true))
                .expect("object");
            let seq = run(&with_engine(&cfg, "sequential", 1));
            let seq_samples = stripped_samples(&seq);
            // The same grid row under every backend: in-process shard
            // counts, then the multi-process transport (unix only).
            let mut rows: Vec<(String, Value)> = [2u64, 3, 4]
                .iter()
                .map(|&shards| {
                    (
                        format!("shards={shards}"),
                        with_engine(&cfg, "sharded", shards),
                    )
                })
                .collect();
            #[cfg(unix)]
            rows.push(("workers=2".into(), with_process(&cfg, 2)));
            // The same contract with the host-time observability plane
            // armed: profiling, trace export, and the progress heartbeat
            // must not perturb a single simulation byte, on any backend.
            rows.push((
                "sequential+hostprof".into(),
                with_host_profiling(&with_engine(&cfg, "sequential", 1)),
            ));
            rows.push((
                "shards=2+hostprof".into(),
                with_host_profiling(&with_engine(&cfg, "sharded", 2)),
            ));
            #[cfg(unix)]
            rows.push((
                "workers=2+hostprof".into(),
                with_host_profiling(&with_process(&cfg, 2)),
            ));
            for (row, sh_cfg) in rows {
                let sh = run(&sh_cfg);
                let label = format!("{name} seed={seed:#x} {row}");
                assert_eq!(
                    seq.log.to_text(),
                    sh.log.to_text(),
                    "sample log diverged: {label}"
                );
                assert_eq!(seq.trace, sh.trace, "flit trace diverged: {label}");
                assert_eq!(
                    seq_samples,
                    stripped_samples(&sh),
                    "metrics snapshot diverged: {label}"
                );
                assert_eq!(
                    seq.engine.events_executed, sh.engine.events_executed,
                    "event count diverged: {label}"
                );
                assert_eq!(
                    seq.engine.total_enqueued, sh.engine.total_enqueued,
                    "enqueue count diverged: {label}"
                );
                assert_eq!(
                    seq.engine.end_time, sh.engine.end_time,
                    "end time diverged: {label}"
                );
                assert_eq!(seq.phase_times, sh.phase_times, "phases diverged: {label}");
            }
        }
    }
}

#[test]
fn shard_planes_report_every_shard() {
    let cfg = with_engine(&common::quickstart(), "sharded", 2);
    let out = run(&cfg);
    // Both worker shards surface a diagnostics plane, and together they
    // account for every executed event.
    let mut per_shard = 0u64;
    for s in 0..2 {
        match out
            .metrics
            .get(&format!("engine_shard_{s}"), "events_executed")
            .expect("shard plane")
        {
            supersim::stats::MetricValue::Counter(n) => per_shard += n,
            other => panic!("expected counter, got {other:?}"),
        }
    }
    assert_eq!(per_shard, out.engine.events_executed);
}

#[test]
fn requesting_more_shards_than_routers_still_runs() {
    // The builder clamps the worker count to the router count; a tiny
    // network under a huge shard request must still drain identically.
    let seq = run(&with_engine(&common::quickstart(), "sequential", 1));
    let sh = run(&with_engine(&common::quickstart(), "sharded", 64));
    assert_eq!(seq.log.to_text(), sh.log.to_text());
}

#[test]
fn unknown_engine_kind_is_rejected() {
    let mut cfg = common::quickstart();
    cfg.set_path("engine.kind", Value::Str("warp".into()))
        .expect("object");
    assert!(SuperSim::from_config(&cfg).is_err());
}
