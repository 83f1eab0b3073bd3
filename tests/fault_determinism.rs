//! The fault-plane contract: fault injection is part of the simulation,
//! not an observer of it — so for one `(configuration, seed)` the fault
//! schedule (which flits corrupt, which credits vanish, which links blip)
//! is bit-identical across the sequential and sharded engines at any
//! shard count. On top of that schedule, link-level retransmission must
//! deliver every packet exactly once, and when recovery is impossible the
//! no-progress watchdog must convert the hang into a typed error plus a
//! diagnostic snapshot.

mod common;

use supersim::config::Value;
use supersim::core::testing::check_component_round_trip;
use supersim::core::{RunOutput, SimError, SuperSim};
use supersim::stats::{MetricSample, MetricValue};

fn with_engine(cfg: &Value, kind: &str, shards: u64) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("engine.kind", Value::Str(kind.into()))
        .expect("object");
    cfg.set_path("engine.shards", Value::Int(shards as i64))
        .expect("object");
    cfg
}

fn with_faults(cfg: &Value, seed: u64, bit_error_rate: f64) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("seed", Value::Int(seed as i64)).expect("obj");
    cfg.set_path("fault.enabled", Value::Bool(true))
        .expect("obj");
    cfg.set_path("fault.bit_error_rate", Value::Float(bit_error_rate))
        .expect("obj");
    cfg
}

/// Pins the multi-process backend, spawning workers from the cargo-built
/// `supersim` binary.
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

/// The snapshot minus the partition-dependent scheduler planes and the
/// wall-clock host-time planes: the part the determinism contract pins,
/// now including the `fault` plane.
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

/// Arms the full host-time observability surface (profiling, trace
/// export, progress heartbeat) on top of a fault-injecting config.
fn with_host_profiling(cfg: &Value) -> Value {
    let mut cfg = cfg.clone();
    cfg.set_path("host.profile.enabled", Value::Bool(true))
        .expect("obj");
    cfg.set_path("host.trace.enabled", Value::Bool(true))
        .expect("obj");
    cfg.set_path("progress.interval_ms", Value::Int(60_000))
        .expect("obj");
    cfg
}

/// Only the fault-event lines of the flit trace.
fn fault_trace(out: &RunOutput) -> String {
    out.trace
        .as_ref()
        .expect("trace enabled")
        .lines()
        .filter(|l| l.contains("\"fault_"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn fault_counter(out: &RunOutput, name: &str) -> u64 {
    match out.metrics.get("fault", name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("fault/{name}: expected counter, got {other:?}"),
    }
}

/// Two topology families from different factory branches; both small
/// enough that the grid below stays fast.
fn topologies() -> Vec<(&'static str, Value)> {
    vec![
        ("hyperx", common::quickstart()),
        ("flatbfly", common::small_fbfly()),
    ]
}

#[test]
fn fault_schedule_is_identical_across_engines() {
    for (name, base) in topologies() {
        for seed in [1u64, 0x5eed, 0xFA17] {
            let mut cfg = with_faults(&base, seed, 4e-3);
            cfg.set_path("observability.trace.enabled", Value::Bool(true))
                .expect("obj");
            cfg.set_path("observability.trace.capacity", Value::Int(1 << 16))
                .expect("obj");
            let seq = run(&with_engine(&cfg, "sequential", 1));
            // A fault-determinism test proves nothing on a quiet run.
            assert!(
                fault_counter(&seq, "injected") > 0,
                "{name} seed={seed:#x}: no faults injected — raise the rate"
            );
            let seq_faults = fault_trace(&seq);
            let seq_samples = stripped_samples(&seq);
            // Every component's checkpoint state, with every optional
            // plane armed, restores into a rebuilt simulation and
            // snapshots back to the same bytes at a mid-run boundary.
            let mut armed = cfg.clone();
            armed
                .set_path("sample.interval", Value::Int(100))
                .expect("obj");
            armed
                .set_path("spans.enabled", Value::Bool(true))
                .expect("obj");
            let mid = seq.engine.end_time.tick() / 200 * 100;
            for (row, layout) in [
                ("seq", with_engine(&armed, "sequential", 1)),
                ("shards=2", with_engine(&armed, "sharded", 2)),
            ] {
                if let Err(e) = check_component_round_trip(&layout, mid) {
                    panic!("{name} seed={seed:#x} {row} at tick {mid}: {e}");
                }
            }
            let mut rows: Vec<(String, Value)> = [2u64, 4]
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
            // Fault schedules must also survive the host-time
            // observability plane being armed: profiling samples and
            // heartbeat reads never touch the fault RNG stream.
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
                    seq_faults,
                    fault_trace(&sh),
                    "fault-event trace diverged: {label}"
                );
                assert_eq!(seq.trace, sh.trace, "full trace diverged: {label}");
                assert_eq!(
                    seq_samples,
                    stripped_samples(&sh),
                    "metrics snapshot diverged: {label}"
                );
                assert_eq!(
                    seq.log.to_text(),
                    sh.log.to_text(),
                    "sample log diverged: {label}"
                );
            }
        }
    }
}

#[test]
fn retransmission_delivers_every_packet_exactly_once() {
    // Property-style sweep: across seeds and bit-error rates spanning the
    // acceptance floor (1e-3) and beyond, every flit sent is received
    // exactly once — duplicates would make received exceed sent, loss
    // would wedge the drain — and nothing escalates.
    let base = common::quickstart();
    let mut detected_total = 0u64;
    for seed in [2u64, 33, 0xBEEF] {
        for ber in [1e-4, 1e-3, 5e-3, 2e-2] {
            let out = run(&with_faults(&base, seed, ber));
            let label = format!("seed={seed} ber={ber}");
            assert_eq!(
                out.counters.flits_sent, out.counters.flits_received,
                "flits duplicated or lost: {label}"
            );
            assert_eq!(
                out.counters.messages_sent, out.counters.messages_received,
                "messages duplicated or lost: {label}"
            );
            assert!(out.packets_delivered() > 0, "no samples: {label}");
            assert_eq!(
                fault_counter(&out, "escalated"),
                0,
                "retries exhausted: {label}"
            );
            assert_eq!(
                fault_counter(&out, "held_flits"),
                0,
                "flits still parked in retransmission holds: {label}"
            );
            detected_total += fault_counter(&out, "detected");
        }
    }
    assert!(detected_total > 0, "sweep never exercised a retransmission");
}

#[test]
fn total_credit_loss_trips_the_watchdog() {
    // Destroying every returning credit wedges the network: buffers fill,
    // injection stalls, and the interfaces burn wake events forever
    // without delivering a flit. The watchdog must cut that off — on both
    // engines, at the same simulated time.
    let mut cfg = common::quickstart();
    cfg.set_path("fault.enabled", Value::Bool(true))
        .expect("obj");
    cfg.set_path("fault.credit_loss_rate", Value::Float(1.0))
        .expect("obj");
    cfg.set_path("watchdog.ticks", Value::Int(1000))
        .expect("obj");
    let mut trips = Vec::new();
    let mut rows = vec![
        ("sequential", with_engine(&cfg, "sequential", 1)),
        ("sharded", with_engine(&cfg, "sharded", 2)),
    ];
    #[cfg(unix)]
    rows.push(("process", with_process(&cfg, 2)));
    for (kind, row_cfg) in rows {
        let sim = SuperSim::from_config(&row_cfg).expect("build");
        let routers = sim.topology().num_routers();
        let report = sim.run_report();
        assert_backend(&row_cfg, routers, &report.output);
        let err = report.error.as_ref().expect("run must degrade");
        let (tick, last_progress) = match err {
            SimError::Watchdog {
                tick,
                last_progress,
            } => (*tick, *last_progress),
            other => panic!("{kind}: expected watchdog trip, got {other}"),
        };
        assert!(
            tick > last_progress,
            "{kind}: trip tick {tick} not past last progress {last_progress}"
        );
        let diag = report.diagnostic.as_ref().expect("diagnostic snapshot");
        assert_eq!(diag.last_progress, Some(last_progress));
        assert!(
            diag.routers.iter().any(|r| {
                r.buffered_flits > 0 || r.credits.iter().any(|&(avail, cap)| avail < cap)
            }),
            "{kind}: snapshot shows no stuck state"
        );
        // Graceful degradation: the partial output is still assembled and
        // marked degraded.
        assert!(matches!(
            report.output.metrics.get("run", "degraded"),
            Some(MetricValue::Counter(1))
        ));
        trips.push((tick, last_progress));
    }
    assert!(
        trips.windows(2).all(|w| w[0] == w[1]),
        "watchdog trip diverged across engines: {trips:?}"
    );
}

#[test]
fn clean_runs_are_unmarked_and_fault_free_runs_have_no_fault_plane() {
    let out = run(&common::quickstart());
    assert!(matches!(
        out.metrics.get("run", "degraded"),
        Some(MetricValue::Counter(0))
    ));
    // The fault plane is pay-for-what-you-use: disabled runs do not even
    // register the metrics plane.
    assert!(out.metrics.get("fault", "injected").is_none());
}

#[test]
fn clean_fault_path_never_clones_flits() {
    // The retransmission plane keeps flits under observation on every
    // link, but a clean transmission must move them by handle, never by
    // deep copy: with the fault plane enabled and a zero injection rate
    // the hot path is clone-free, pinned by the profiling plane's
    // clone counter. (Corruption legitimately clones — the retry hold
    // keeps the original while a corrupted copy goes out — so a lossy
    // run must show a nonzero count, proving the counter is live.)
    let clean = run(&with_faults(&common::quickstart(), 7, 0.0));
    assert!(
        clean.counters.flits_sent > 0,
        "clean run moved no flits — nothing was proven"
    );
    assert_eq!(
        fault_counter(&clean, "flit_clones"),
        0,
        "zero-injection run cloned flit payloads on the hot path"
    );
    let lossy = run(&with_faults(&common::quickstart(), 7, 2e-2));
    assert!(fault_counter(&lossy, "detected") > 0, "lossy run was clean");
    assert!(
        fault_counter(&lossy, "flit_clones") > 0,
        "corruption must clone (counter appears dead)"
    );
}

#[test]
fn scheduled_outage_recovers_and_is_deterministic() {
    // A finite scheduled outage on one router link: flits sent into the
    // outage are dropped and retransmitted after it lifts, so the run
    // still completes with exactly-once delivery.
    let mut cfg = common::quickstart();
    cfg.set_path("fault.enabled", Value::Bool(true))
        .expect("obj");
    cfg.set_path(
        "fault.outages",
        Value::Array(vec![{
            let mut o = Value::object();
            o.set_path("router", Value::Int(0)).expect("obj");
            o.set_path("port", Value::Int(4)).expect("obj");
            o.set_path("start", Value::Int(250)).expect("obj");
            o.set_path("end", Value::Int(400)).expect("obj");
            o
        }]),
    )
    .expect("obj");
    let seq = run(&with_engine(&cfg, "sequential", 1));
    assert_eq!(seq.counters.flits_sent, seq.counters.flits_received);
    let sh = run(&with_engine(&cfg, "sharded", 2));
    assert_eq!(stripped_samples(&seq), stripped_samples(&sh));
    assert_eq!(seq.log.to_text(), sh.log.to_text());
}
