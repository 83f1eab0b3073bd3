//! Pins the `supersim` binary's documented process exit codes, the
//! contract scripts and CI harnesses key off:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | clean run                                            |
//! | 1    | usage, configuration, build, or output-io error      |
//! | 2    | degraded run (model error, stall, incomplete output) |
//! | 3    | watchdog cutoff                                      |
//! | 4    | worker process died, hung, or failed to start        |
//! | 5    | checkpoint resume failure                            |
//!
//! Every test spawns the real binary so the codes observed here are the
//! codes the operating system reports, not an in-process approximation.
#![cfg(unix)]

mod common;

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use supersim::config::Value;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_supersim")
}

/// A fresh scratch directory unique to this test binary invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_cfg(dir: &std::path::Path, cfg: &Value) -> PathBuf {
    let path = dir.join("config.json");
    std::fs::write(&path, cfg.to_json_pretty()).expect("write config");
    path
}

fn run_code(args: &[&str], env: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd.output().expect("spawn supersim").status;
    status.code().expect("no exit code (signal?)")
}

#[test]
fn code_0_clean_run() {
    let dir = scratch_dir("clean");
    let cfg = write_cfg(&dir, &common::quickstart());
    assert_eq!(run_code(&[cfg.to_str().unwrap(), "--no-log"], &[]), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_1_usage_error() {
    assert_eq!(run_code(&[], &[]), 1, "no arguments must be a usage error");
    assert_eq!(
        run_code(&["/nonexistent/config.json", "--no-log"], &[]),
        1,
        "unreadable config must be a configuration error"
    );
}

#[test]
fn code_1_unknown_arbiter_policy() {
    // A bad `network.router.arbiter` is a configuration error naming the
    // allowed policies — not a panic (exit 101) in router construction —
    // on both crossbar-scheduled architectures.
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/quickstart.json");
    let ioq = [
        "network.router.architecture=string=input_output_queued",
        "network.router.output_queue=uint=8",
    ];
    for architecture in [&[][..], &ioq[..]] {
        let out = Command::new(bin())
            .args([cfg, "--no-log", "network.router.arbiter=string=bogus"])
            .args(architecture)
            .output()
            .expect("spawn supersim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{architecture:?}: {stderr}");
        assert!(
            stderr.contains("bogus") && stderr.contains("round_robin"),
            "{architecture:?}: {stderr}"
        );
    }
}

#[test]
fn code_1_shard_count_on_the_sequential_engine() {
    // `--shards` without `--engine sharded` used to run sequentially and
    // exit 0; a shard count the configuration states must be honoured or
    // refused. The environment's default count is not a statement.
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/quickstart.json");
    let run = |args: &[&str], env_shards: Option<&str>| {
        let mut cmd = Command::new(bin());
        cmd.args([cfg, "--no-log"])
            .args(args)
            .env_remove("SUPERSIM_ENGINE")
            .env_remove("SUPERSIM_SHARDS");
        if let Some(n) = env_shards {
            cmd.env("SUPERSIM_SHARDS", n);
        }
        cmd.output().expect("spawn supersim")
    };
    let out = run(&["--shards", "4"], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("engine.shards") && stderr.contains("engine.kind"),
        "{stderr}"
    );
    assert_eq!(run(&["--shards", "1"], None).status.code(), Some(0));
    assert_eq!(run(&[], Some("4")).status.code(), Some(0));
    assert_eq!(
        run(&["--engine", "sharded", "--shards", "4"], None)
            .status
            .code(),
        Some(0)
    );
}

#[test]
fn code_1_output_the_configuration_never_collects_before_simulating() {
    // Each output flag whose plane the final configuration leaves off is
    // refused before the run: exit 1, the reason, and no simulation.
    let dir = scratch_dir("uncollected");
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/quickstart.json");
    let out_file = dir.join("out");
    let out_file = out_file.to_str().unwrap();
    for (flag, reason) in [
        ("--trace", "observability.trace.enabled"),
        ("--span-log", "spans.enabled"),
        ("--timeseries", "sample.interval"),
    ] {
        let out = Command::new(bin())
            .args([cfg, "--no-log", flag, out_file])
            .output()
            .expect("spawn supersim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(reason), "{flag}: {stderr}");
        assert!(
            !stderr.contains("drained at tick"),
            "{flag} simulated: {stderr}"
        );
        assert!(!dir.join("out").exists(), "{flag} wrote its file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_2_degraded_run() {
    // A tick limit below the drain point leaves the run stalled with
    // traffic still in flight: degraded, not clean, not a usage error.
    let dir = scratch_dir("degraded");
    let mut cfg = common::quickstart();
    cfg.set_path("tick_limit", Value::Int(300)).expect("object");
    let cfg = write_cfg(&dir, &cfg);
    assert_eq!(run_code(&[cfg.to_str().unwrap(), "--no-log"], &[]), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_3_watchdog_cutoff() {
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/deadlock_2router.json");
    assert_eq!(run_code(&[cfg, "--no-log"], &[]), 3);
}

#[test]
fn code_4_worker_failure() {
    let dir = scratch_dir("worker");
    let cfg = write_cfg(&dir, &common::quickstart());
    assert_eq!(
        run_code(
            &[cfg.to_str().unwrap(), "--no-log", "--workers", "2"],
            &[("SUPERSIM_TEST_WORKER_FAIL", "exit:1:40")],
        ),
        4
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_5_resume_failure() {
    let dir = scratch_dir("resume");
    let cfg = write_cfg(&dir, &common::quickstart());
    let junk = dir.join("junk.ssckpt");
    std::fs::write(&junk, b"this is not a checkpoint").expect("write junk");
    assert_eq!(
        run_code(
            &[
                cfg.to_str().unwrap(),
                "--no-log",
                "--resume",
                junk.to_str().unwrap(),
            ],
            &[],
        ),
        5
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_1_two_phase_routing_without_an_intermediate() {
    // Valiant on a 2-router HyperX and UGAL on a 2-group dragonfly have no
    // intermediate apart from source and destination; drawing one used to
    // loop forever inside a routing handler, where the watchdog cannot
    // fire. The build must refuse them. The child is killed at a deadline
    // so a regression fails here instead of hanging the suite.
    let cfg = |file: &str| format!("{}/configs/{file}", env!("CARGO_MANIFEST_DIR"));
    for (file, overrides) in [
        (
            "quickstart.json",
            &[
                "network.topology.widths=json=[2]",
                "network.routing.algorithm=string=valiant",
            ],
        ),
        (
            "dragonfly_ugal.json",
            &[
                "network.topology.group_size=uint=1",
                "network.topology.global_ports=uint=1",
            ],
        ),
    ] {
        let mut child = Command::new(bin())
            .arg(cfg(file))
            .args(overrides)
            .arg("--no-log")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn supersim");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{file} {overrides:?}: still running after 30 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(1), "{file}: {stderr}");
        assert!(
            stderr.contains("network.routing.algorithm"),
            "{file}: {stderr}"
        );
    }
}

#[test]
fn code_1_a_present_key_of_the_wrong_type_or_range() {
    // An optional key that is absent keeps its fallback (environment
    // variable, default, or the current executable); a key that is present
    // with the wrong type is the same configuration error any other
    // setting gives, naming the key. These used to be read as "absent"
    // and run to exit 0, and a trace source past the 32-bit component id
    // space used to be truncated (2^32 traced component 0). So were the
    // settings the model holds in 32 bits: 2^32 + 2 virtual channels ran
    // as 2, and an input buffer of 2^32 was reported as zero; their range
    // errors name the key relative to the block its constructor reads,
    // as type errors do.
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/quickstart.json");
    let trace = "observability.trace.enabled=bool=true";
    let wrong_type = |key: &str| format!("setting \"{key}\": expected");
    for (expected, overrides) in [
        (
            wrong_type("engine.shards"),
            &["engine.kind=string=sharded", "engine.shards=string=4"][..],
        ),
        (
            wrong_type("checkpoint.resume"),
            &["checkpoint.resume=uint=5"][..],
        ),
        (wrong_type("engine.kind"), &["engine.kind=uint=1"][..]),
        (
            wrong_type("engine.transport"),
            &["engine.transport=bool=true"][..],
        ),
        (
            wrong_type("observability.trace.src"),
            &[trace, "observability.trace.src=string=zero"][..],
        ),
        (
            wrong_type("observability.trace.kinds"),
            &[trace, "observability.trace.kinds=string=inject"][..],
        ),
        (
            wrong_type("engine.worker_bin"),
            &[
                "engine.kind=string=sharded",
                "engine.transport=string=process",
                "engine.worker_bin=uint=3",
            ][..],
        ),
        (
            "observability.trace.src is out of range".to_string(),
            &[trace, "observability.trace.src=uint=4294967296"][..],
        ),
        (
            "invalid setting \"vcs\": 4294967298 is out of range".to_string(),
            &["network.vcs=uint=4294967298"][..],
        ),
        (
            "invalid setting \"input_buffer\": 4294967296 is out of range".to_string(),
            &["network.router.input_buffer=uint=4294967296"][..],
        ),
    ] {
        let out = Command::new(bin())
            .arg(cfg)
            .args(overrides)
            .arg("--no-log")
            .output()
            .expect("spawn supersim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{overrides:?}: {stderr}");
        assert!(stderr.contains(&expected), "{overrides:?}: {stderr}");
    }
}
