//! The multi-process execution path: parent-side worker launch and
//! report assembly, and the worker-process entry point.
//!
//! The parent binds a Unix socket, spawns one worker process per shard
//! (`<worker_bin> __worker <socket> <index>`), and relays rounds through
//! the payload-agnostic [`Hub`], which takes its share of the layout's
//! engine options. Each worker rebuilds the *identical* simulation from
//! the configuration shipped in the setup frame, keeps only its shard
//! (`into_worker`), and runs the same [`drive`] as an in-process run,
//! with the hub as its checkpoint destination. Its state leaves it one
//! way: as its shard blob, at every checkpoint and in the DONE frame at
//! the end. The parent's own simulator is the never-run layout of the
//! same simulation — the one the thread backend runs: the parent restores
//! the final blobs into it and assembles the report from it, so logs,
//! traces, metrics, and time-series come out byte-identical. A worker
//! that dies or hangs degrades the run into a typed
//! [`SimError::Worker`](crate::SimError::Worker) with the survivors'
//! outputs, never a silent stall.

use std::os::unix::net::UnixListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use supersim_config::Value;
use supersim_des::wire::Overlay;
use supersim_des::{Hub, RunOutcome, RunStats, Time, TraceBuffer, WorkerLink};
use supersim_stats::{CkptTimes, HostData};

use crate::builder::{build_with, Built, EngineMode, ProcessPlan};
use crate::checkpoint;
use crate::factory::Factories;
use crate::report::RunReport;
use crate::sim::{assemble, drive, resume_failure, resume_into, AssembleInputs, CheckpointWriter};

/// Distinguishes concurrent runs (and runs within one process) in the
/// socket path.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// Removes the socket file when the run ends, however it ends.
struct SocketGuard(std::path::PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Kills any worker that has not exited by `deadline`, then reaps all of
/// them. Workers exit on their own right after their DONE frame, so the
/// kill path only fires on degraded runs.
fn reap(children: &mut [Child], deadline: Instant) {
    loop {
        let mut alive = false;
        for child in children.iter_mut() {
            match child.try_wait() {
                Ok(Some(_)) => {}
                Ok(None) => alive = true,
                Err(_) => {}
            }
        }
        if !alive {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Parses the `SUPERSIM_TEST_KILL_WORKER=<worker>:<round>` test hook:
/// the parent SIGKILLs the given worker right after checkpoint `round`
/// completes — a reproducible mid-run crash for the recovery tests.
/// Honored on the first fleet only, so the respawned fleet survives.
fn kill_hook() -> Option<(u32, u64)> {
    let spec = std::env::var("SUPERSIM_TEST_KILL_WORKER").ok()?;
    let (w, r) = spec.split_once(':')?;
    Some((w.parse().ok()?, r.parse().ok()?))
}

/// What one fleet launch produced: the report inputs, what the fleet
/// delivered for the layout (final shard blobs in worker order and the
/// hub's merged trace ring), and the newest checkpoint file the hub
/// completed during the attempt.
struct FleetAttempt {
    inputs: AssembleInputs,
    shards: Vec<Option<Vec<u8>>>,
    trace: Option<TraceBuffer>,
    last_checkpoint: Option<std::path::PathBuf>,
}

/// Why a fleet launch produced no run at all.
enum FleetStop {
    /// Binding, spawning or accepting the workers failed.
    Startup(String),
    /// The checkpoint to resume from could not be restored hub-side.
    Resume(String),
}

/// Runs a multi-process simulation from the parent side: the fleet runs
/// it, and the report is assembled from `built.engine` — the never-run
/// `into_sharded` layout of the same simulation — once the workers'
/// final shard blobs are restored into it.
///
/// Crash recovery: when checkpointing is armed and a worker dies or
/// hangs after at least one checkpoint completed, the whole fleet is
/// killed, respawned, and resumed from that checkpoint — every worker
/// restores its own shard, the hub restores its trace ring, and the
/// protocol continues in lockstep. The restart budget is
/// `checkpoint.max_restarts`; once it is spent the run degrades to a
/// typed [`SimError::Worker`](crate::SimError::Worker) as before.
pub(crate) fn run_parent(mut built: Built, plan: ProcessPlan) -> RunReport {
    let start = Instant::now();
    let max_restarts = built.checkpoint.max_restarts;
    let base_cfg = match Value::parse(&plan.config_json) {
        Ok(v) => v,
        Err(e) => return startup_failure(built, format!("config: {e}"), start),
    };
    let mut resume = built.checkpoint.resume.clone();
    let mut attempts = 0u32;
    // The progress board is the build's, so it outlives fleet attempts:
    // restart counts and cumulative event totals survive a respawn.
    let heartbeat = crate::progress::start(&built);
    let attempt = loop {
        let kill = (attempts == 0).then(kill_hook).flatten();
        let respawn = attempts > 0;
        let mut attempt = match run_fleet(
            &built,
            &plan,
            &base_cfg,
            resume.as_deref(),
            kill,
            respawn,
            start,
        ) {
            Ok(a) => a,
            Err(FleetStop::Startup(reason)) => return startup_failure(built, reason, start),
            Err(FleetStop::Resume(reason)) => return resume_failure(built, reason),
        };
        if let Some(p) = attempt.last_checkpoint.take() {
            resume = Some(p);
        }
        if let Some((w, why)) = &attempt.inputs.worker_error {
            if let Some(p) = &resume {
                if attempts < max_restarts {
                    attempts += 1;
                    if let Some(b) = &built.host.board {
                        b.add_restart();
                    }
                    eprintln!(
                        "supersim: worker {w} failed ({why}); respawning the fleet \
                         from {} (attempt {attempts}/{max_restarts})",
                        p.display()
                    );
                    continue;
                }
            }
        }
        break attempt;
    };
    let FleetAttempt {
        mut inputs,
        shards,
        trace,
        ..
    } = attempt;
    if let Err(w) = built.engine.load_fleet(trace, &shards) {
        let why = if shards.get(w).is_some_and(Option::is_some) {
            "sent a final shard blob that does not restore"
        } else {
            "delivered no final shard blob"
        };
        inputs.worker_error.get_or_insert((w as u32, why.into()));
    }
    let report = assemble(built, inputs);
    if let Some(hb) = heartbeat {
        hb.finish(&report);
    }
    report
}

/// Launches one worker fleet, drives it to completion (or failure), and
/// collects the report inputs. `resume` is patched into the shipped
/// configuration so every worker restores its shard from the same file
/// the hub restores its trace ring from.
fn run_fleet(
    built: &Built,
    plan: &ProcessPlan,
    base_cfg: &Value,
    resume: Option<&std::path::Path>,
    kill: Option<(u32, u64)>,
    respawn: bool,
    start: Instant,
) -> Result<FleetAttempt, FleetStop> {
    let path = std::env::temp_dir().join(format!(
        "supersim-hub-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _guard = SocketGuard(path.clone());
    let timeout = Duration::from_millis(plan.timeout_ms.max(1));
    let config_json = match resume {
        Some(p) => {
            let mut cfg = base_cfg.clone();
            let _ = cfg.set_path(
                "checkpoint.resume",
                Value::Str(p.to_string_lossy().into_owned()),
            );
            cfg.to_json()
        }
        None => plan.config_json.clone(),
    };

    let listener = match UnixListener::bind(&path) {
        Ok(l) => l,
        Err(e) => return Err(FleetStop::Startup(format!("bind {}: {e}", path.display()))),
    };
    let mut children: Vec<Child> = Vec::with_capacity(plan.workers as usize);
    for w in 0..plan.workers {
        let mut cmd = Command::new(&plan.worker_bin);
        cmd.arg("__worker")
            .arg(&path)
            .arg(w.to_string())
            .stdin(Stdio::null());
        if respawn {
            // A respawned fleet must not re-inject the test-hook failure
            // that killed the first one.
            cmd.env_remove("SUPERSIM_TEST_WORKER_FAIL");
        }
        let spawned = cmd.spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                let reason = format!("spawn {}: {e}", plan.worker_bin.display());
                reap(&mut children, Instant::now());
                return Err(FleetStop::Startup(reason));
            }
        }
    }

    // The hub takes its share of the layout's options: the trace ring,
    // and the live-progress board, which is out-of-band — it alters no
    // protocol byte.
    let mut hub = match Hub::accept(
        &listener,
        plan.workers,
        timeout,
        config_json.as_bytes(),
        built.engine.options(),
    ) {
        Ok(hub) => hub,
        Err(e) => {
            reap(&mut children, Instant::now());
            return Err(FleetStop::Startup(format!("accept: {e}")));
        }
    };
    // A resumed run restores the hub's merged trace ring from the same
    // checkpoint the workers restore their shards from; without this
    // the pre-crash trace records would be missing from the output.
    if let Some(p) = resume {
        let restored = match checkpoint::read_file(p) {
            Ok((_, blob)) => hub.load_trace(&mut blob.as_slice()),
            Err(e) => {
                reap(&mut children, Instant::now());
                return Err(FleetStop::Resume(e.to_string()));
            }
        };
        if !restored {
            reap(&mut children, Instant::now());
            return Err(FleetStop::Resume(format!(
                "hub trace section of {} did not restore",
                p.display()
            )));
        }
    }
    // The hub assembles one uniform engine-state blob per completed
    // barrier checkpoint and hands it to the writer every checkpoint
    // file goes through.
    let mut writer = CheckpointWriter::new(built);
    let pids: Vec<u32> = children.iter().map(|c| c.id()).collect();
    let result = hub.run(&mut |time, blob| {
        let started_ns = writer.now_ns();
        let round = writer.write(time.tick(), started_ns, blob);
        if let Some((w, _)) = kill.filter(|&(_, at)| at == round) {
            if let Some(pid) = pids.get(w as usize) {
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
            }
        }
    });
    // On a clean run the workers are already exiting; on a degraded one
    // give survivors a moment to ship their final state, then kill.
    reap(&mut children, Instant::now() + timeout);

    // The engine-plane aggregates the thread backend reads off its
    // shards, reconstructed here from the workers' DONE metrics. Same
    // per-shard counters (each worker counts only what it owns), so the
    // sums are byte-identical.
    let stats = RunStats {
        events_executed: result.metrics.iter().map(|m| m.events_executed).sum(),
        end_time: result.end_time,
        queue_high_water: result.metrics.iter().map(|m| m.queue_high_water).sum(),
        total_enqueued: result.metrics.iter().map(|m| m.total_enqueued).sum(),
        wall: start.elapsed(),
        outcome: result.outcome,
    };
    let host = built.host.enabled.then_some(HostData {
        shards: result.host,
        hub: Some(result.hub_stats),
        ckpt: writer.times,
    });
    Ok(FleetAttempt {
        inputs: AssembleInputs {
            stats,
            shard_metrics: result.metrics,
            worker_error: result.error,
            host,
        },
        shards: result.shards,
        trace: result.trace,
        last_checkpoint: writer.last_written,
    })
}

/// The run never got going: no worker metrics and no component — every
/// shard of the layout is emptied — just a typed startup error in an
/// otherwise empty report.
fn startup_failure(mut built: Built, reason: String, start: Instant) -> RunReport {
    let _ = built.engine.load_fleet(None, &[]);
    let inputs = AssembleInputs {
        stats: RunStats {
            events_executed: 0,
            end_time: Time::ZERO,
            queue_high_water: 0,
            total_enqueued: 0,
            wall: start.elapsed(),
            outcome: RunOutcome::Failed(reason.clone()),
        },
        shard_metrics: Vec::new(),
        worker_error: Some((0, format!("startup: {reason}"))),
        host: None,
    };
    assemble(built, inputs)
}

/// The worker-process entry point behind the `__worker` argv role:
/// connect to the hub at `socket` as shard `index`, rebuild the
/// simulation from the shipped configuration, run it, and deliver the
/// final shard blob. Returns the process exit code.
///
/// Workers rebuild with the *default* factories: a binary embedding
/// custom models must dispatch the `__worker` role itself and register
/// them before building.
pub fn run_worker(socket: &str, index: u32) -> i32 {
    match worker_inner(socket, index) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("supersim worker {index}: {msg}");
            1
        }
    }
}

fn worker_inner(socket: &str, index: u32) -> Result<(), String> {
    // Test hook: `SUPERSIM_TEST_WORKER_WEDGE=<index>` wedges that worker
    // before it ever connects — it neither answers nor exits, so only
    // the parent's socket timeout budget can end the run.
    if std::env::var("SUPERSIM_TEST_WORKER_WEDGE")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        == Some(index)
    {
        std::thread::sleep(Duration::from_secs(600));
        return Err("wedged by test hook".into());
    }
    let (link, setup) =
        WorkerLink::connect(socket, index).map_err(|e| format!("connect {socket}: {e}"))?;
    let text = std::str::from_utf8(&setup.payload).map_err(|e| format!("config payload: {e}"))?;
    let cfg = Value::parse(text).map_err(|e| format!("config parse: {e}"))?;
    let mut built = build_with(
        &cfg,
        &Factories::with_defaults(),
        EngineMode::Worker {
            index,
            link: link.clone(),
        },
    )
    .map_err(|e| format!("build: {e}"))?;
    // A respawned (or user-resumed) fleet: restore this worker's shard
    // from the checkpoint named in the shipped configuration before the
    // protocol starts.
    if let Some(p) = built.checkpoint.resume.clone() {
        resume_into(&mut built, &p).map_err(|e| format!("resume: {e}"))?;
    }
    // The pause loop every backend runs, with the hub as checkpoint
    // destination: a send failure surfaces at the next round as a
    // transport error.
    let (clock, profiling) = (built.engine.host_clock().clone(), built.host.enabled);
    let mut captures = CkptTimes::default();
    let stats = drive(&mut built, &mut |tick, started_ns, blob| {
        if link.checkpoint(Time::at(tick), blob).is_ok() && profiling {
            captures.record(started_ns, clock.now_ns(), blob.len() as u64);
        }
    });
    // Outcome handling is the parent's job: DONE reports it, so even a
    // failed run exits 0 here.
    let engine = &built.engine;
    let mut host = engine.host_times().pop().unwrap_or_default();
    host.checkpoint_ns = captures.ns;
    host.checkpoint_writes = captures.writes;
    host.checkpoint_bytes = captures.bytes;
    let mut state = Vec::new();
    engine.save(&mut state);
    link.finish(
        &stats.outcome,
        engine.now(),
        &engine.shard_metrics()[0],
        &host,
        &state,
    )
    .map_err(|e| format!("send DONE: {e}"))
}
