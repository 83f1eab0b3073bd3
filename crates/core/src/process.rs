//! The multi-process execution path: parent-side worker launch and
//! report assembly, and the worker-process entry point.
//!
//! The parent binds a Unix socket, spawns one worker process per shard
//! (`<worker_bin> __worker <socket> <index>`), and relays rounds through
//! the payload-agnostic [`Hub`]. Each worker rebuilds the *identical*
//! simulation from the configuration shipped in the setup frame, keeps
//! only its shard, and runs the same generation-lockstep protocol as the
//! in-process thread backend — so logs, traces, metrics, and time-series
//! come out byte-identical. A worker that dies or hangs degrades the run
//! into a typed [`SimError::Worker`](crate::SimError::Worker) with
//! best-effort partial outputs from the survivors, never a silent stall.

use std::os::unix::net::UnixListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use supersim_config::Value;
use supersim_des::wire::WireCodec;
use supersim_des::{Hub, RunOutcome, RunStats, Time, WorkerLink};
use supersim_netbase::trace_json_lines;

use crate::builder::{build_with, Built, EngineMode, ProcessPlan};
use crate::checkpoint;
use crate::factory::Factories;
use crate::partial::{extract_partial, ShardPartial};
use crate::sim::{
    assemble, resume_failure, resume_into, AssembleInputs, CheckpointWriter, HostData, HubHost,
    RunReport,
};

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
/// them. Workers exit on their own right after shipping their partial,
/// so the kill path only fires on degraded runs.
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

/// What one fleet launch produced: the assembled report inputs plus the
/// newest checkpoint file the hub completed during the attempt.
struct FleetAttempt {
    inputs: AssembleInputs,
    last_checkpoint: Option<std::path::PathBuf>,
}

/// Runs a multi-process simulation from the parent side and assembles
/// the report from the workers' partials.
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
        Err(e) => return startup_failure(&built, format!("config: {e}"), start),
    };
    let mut resume = built.checkpoint.resume.clone();
    let mut attempts = 0u32;
    // The progress board is the build's, so it outlives fleet attempts:
    // restart counts and cumulative event totals survive a respawn.
    let heartbeat = crate::progress::start(&built);
    let inputs = loop {
        let kill = (attempts == 0).then(kill_hook).flatten();
        let respawn = attempts > 0;
        let attempt = match run_fleet(
            &mut built,
            &plan,
            &base_cfg,
            resume.as_deref(),
            kill,
            respawn,
            start,
        ) {
            Ok(a) => a,
            Err(report) => return *report,
        };
        if let Some(p) = attempt.last_checkpoint {
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
        break attempt.inputs;
    };
    let report = assemble(&built, inputs);
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
    built: &mut Built,
    plan: &ProcessPlan,
    base_cfg: &Value,
    resume: Option<&std::path::Path>,
    kill: Option<(u32, u64)>,
    respawn: bool,
    start: Instant,
) -> Result<FleetAttempt, Box<RunReport>> {
    use std::cell::RefCell;
    use std::rc::Rc;

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
        Err(e) => {
            return Err(Box::new(startup_failure(
                built,
                format!("bind {}: {e}", path.display()),
                start,
            )))
        }
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
                return Err(Box::new(startup_failure(built, reason, start)));
            }
        }
    }

    // Host-plane arming (hub fold timing, the live-progress board) is
    // out-of-band: none of it alters a single protocol byte.
    let mut hub = match Hub::accept(
        &listener,
        plan.workers,
        timeout,
        config_json.as_bytes(),
        plan.trace_capacity,
        built.host.enabled,
        built.host.board.clone(),
    ) {
        Ok(hub) => hub,
        Err(e) => {
            reap(&mut children, Instant::now());
            return Err(Box::new(startup_failure(
                built,
                format!("accept: {e}"),
                start,
            )));
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
                return Err(Box::new(resume_failure(built, e.to_string())));
            }
        };
        if !restored {
            reap(&mut children, Instant::now());
            return Err(Box::new(resume_failure(
                built,
                format!("hub trace section of {} did not restore", p.display()),
            )));
        }
    }
    // The hub assembles one uniform engine-state blob per completed
    // barrier checkpoint; the sink is the same writer the in-process run
    // loop uses.
    let writer = Rc::new(RefCell::new(CheckpointWriter::new(built)));
    if built.checkpoint.interval > 0 {
        let writer = Rc::clone(&writer);
        let pids: Vec<u32> = children.iter().map(|c| c.id()).collect();
        hub.set_checkpoint_sink(Box::new(move |time, blob| {
            let mut writer = writer.borrow_mut();
            let started_ns = writer.now_ns();
            let round = writer.write(time.tick(), started_ns, blob);
            if let Some((w, at)) = kill {
                if round == at {
                    if let Some(pid) = pids.get(w as usize) {
                        let _ = Command::new("kill")
                            .args(["-KILL", &pid.to_string()])
                            .status();
                    }
                }
            }
        }));
    }
    let result = hub.run();
    // On a clean run the workers are already exiting; on a degraded one
    // give survivors a moment to flush their partials, then kill.
    reap(&mut children, Instant::now() + timeout);

    let mut worker_error = result.error.clone();
    let mut partials = Vec::with_capacity(result.partials.len());
    for (w, p) in result.partials.iter().enumerate() {
        match p {
            Some(bytes) => match ShardPartial::decode(&mut bytes.as_slice()) {
                Some(sp) => partials.push(sp),
                None => {
                    worker_error
                        .get_or_insert_with(|| (w as u32, "sent a malformed partial".into()));
                }
            },
            None => {
                worker_error
                    .get_or_insert_with(|| (w as u32, "delivered no end-of-run partial".into()));
            }
        }
    }

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
    let trace = plan
        .trace_capacity
        .map(|_| trace_json_lines(&hub.trace_records()));
    let host = built.host.enabled.then(|| HostData {
        shards: result.host,
        hub: Some(HubHost {
            rounds: result.hub_stats.rounds,
            fold_ns: result.hub_stats.fold_ns,
            wire_in: result.hub_stats.wire_in_bytes,
            wire_out: result.hub_stats.wire_out_bytes,
        }),
        ckpt: writer.borrow().times.clone(),
    });
    let inputs = AssembleInputs {
        shard_metrics: result.metrics,
        trace,
        partials,
        worker_error,
        stats,
        host,
    };
    let last_checkpoint = writer.borrow().last_written.clone();
    Ok(FleetAttempt {
        inputs,
        last_checkpoint,
    })
}

/// The run never got going: no worker metrics, no partials, just a
/// typed startup error in an otherwise empty report.
fn startup_failure(built: &Built, reason: String, start: Instant) -> RunReport {
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
        trace: None,
        partials: Vec::new(),
        worker_error: Some((0, format!("startup: {reason}"))),
        host: None,
    };
    assemble(built, inputs)
}

/// The worker-process entry point behind the `__worker` argv role:
/// connect to the hub at `socket` as shard `index`, rebuild the
/// simulation from the shipped configuration, run it, and deliver the
/// end-of-run partial. Returns the process exit code.
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
    // Outcome handling is the parent's job: every worker reported it in
    // its DONE frame, so even a failed run exits 0 here.
    let _ = built.engine.run_until(built.tick_limit);
    let partial = extract_partial(
        built.engine.as_mut(),
        &built.interfaces,
        &built.routers,
        built.monitor,
    );
    let mut bytes = Vec::new();
    partial.encode(&mut bytes);
    link.send_partial(&bytes)
        .map_err(|e| format!("send partial: {e}"))?;
    Ok(())
}
