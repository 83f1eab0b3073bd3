//! In-tree engine micro-benchmarks and the `BENCH_BASELINE.json` floor
//! gate (no external harness).
//!
//! A plain `--release` binary so the workspace builds and measures fully
//! offline. Three workload families:
//!
//! - **queue**: raw calendar event-queue throughput — push N mixed-time
//!   events, pop them all.
//! - **relay ring**: full engine dispatch — a ring of components bouncing
//!   events one tick apart, the dominant shape of flit/credit traffic.
//! - **work ring**: the relay ring with a fixed per-event compute load,
//!   run on the sequential engine and on the sharded engine at 2 and 4
//!   shards — the engine-scaling measurement. (The plain relay ring is
//!   also measured sharded: with near-zero per-event work it is
//!   barrier-dominated and shows the overhead honestly.)
//!
//! Profiles of real network runs come from `supersim --host-profile
//! --metrics m.json` and `ssreport m.json --host-profile`.
//!
//! Usage:
//!   bench_engine                      # full measurement, prints a table
//!   bench_engine --smoke              # quick run with floor assertions (CI tier-1)
//!   bench_engine --workers N[,M...]  # add multi-process rows: same ring, one
//!                                    # OS process per shard over the Unix-socket
//!                                    # transport (unix only; measures the full
//!                                    # spawn + wire protocol end to end)
//!
//! Both modes additionally compare every measured rate against the floors
//! in `BENCH_BASELINE.json` at the repository root (override the path with
//! the `BENCH_BASELINE` environment variable) and exit non-zero when any
//! measured rate falls below its floor. The floors are hand-maintained and
//! never auto-bumped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use supersim_config::Value;
use supersim_des::{Component, ComponentId, Context, EventQueue, Simulator, Time};
use supersim_stats::HostClock;

/// Heap-allocation counter wrapped around the system allocator, so every
/// workload can report allocations per event alongside its rate — the
/// hot-path overhaul's "no per-event allocation" claim is measured, not
/// asserted. Counting is a single relaxed increment; the disturbance is
/// far below run-to-run noise.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations during `f`, attributed per event.
fn allocs_per_event(events: u64, f: impl FnOnce()) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) as f64 / events.max(1) as f64
}

/// Best-of-`reps` wall time for `f`, as events/second over `events`.
/// Timed with the host-profiling plane's [`HostClock`] so the bench
/// columns and the `--host-profile` attribution share one clock source.
fn measure(events: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best_ns = u64::MAX;
    for _ in 0..reps {
        let clock = HostClock::new();
        f();
        best_ns = best_ns.min(clock.now_ns());
    }
    events as f64 / (best_ns.max(1) as f64 / 1e9)
}

/// Nanoseconds of host time per event at `rate` events/second.
fn ns_per_event(rate: f64) -> f64 {
    if rate > 0.0 {
        1e9 / rate
    } else {
        f64::INFINITY
    }
}

/// Mixed-time push order exercising both near- and far-future paths the
/// way the seed criterion bench did (Knuth multiplicative scatter).
fn scatter(i: usize, n: usize) -> u64 {
    ((i * 2_654_435_761) % n) as u64
}

fn bench_queue_calendar(n: usize, reps: usize) -> f64 {
    let target = ComponentId::try_from_index(0).expect("bench index fits the id space");
    measure((2 * n) as u64, reps, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..n {
            q.push(target, Time::at(scatter(i, n)), i as u64);
        }
        let mut popped = 0usize;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, n);
    })
}

/// A relay that forwards each event to the next component one tick later.
struct Relay {
    next: ComponentId,
    remaining: u64,
}

impl Component<u64> for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn host_class(&self) -> &'static str {
        "relay"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule(self.next, ctx.now().plus_ticks(1), event + 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Engine dispatch rate: `ring` components, `tokens` concurrent events
/// circulating, each relay firing `hops` times total.
fn bench_relay_ring(ring: usize, tokens: usize, hops: u64, reps: usize) -> f64 {
    let events_per_run = ring as u64 * hops + tokens as u64;
    measure(events_per_run, reps, || {
        let mut sim = Simulator::new(1);
        let ids: Vec<ComponentId> = (0..ring)
            .map(|_| {
                sim.add_component(Box::new(Relay {
                    next: ComponentId::try_from_index(0).expect("bench index fits the id space"),
                    remaining: 0,
                }))
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let relay = sim.component_as_mut::<Relay>(id).expect("relay");
            relay.next = ids[(i + 1) % ring];
            relay.remaining = hops;
        }
        for t in 0..tokens {
            sim.schedule(ids[t * ring / tokens.max(1)], Time::at(0), 0);
        }
        let stats = sim.run();
        assert_eq!(stats.events_executed, events_per_run);
        assert!(stats.queue_high_water >= tokens);
    })
}

/// A relay with a fixed per-event compute load: `work` rounds of an
/// xorshift mix whose result is kept live in an accumulator so the
/// optimizer cannot discard it. This models a router pipeline doing real
/// allocation work per event, the regime where sharding pays.
struct WorkRelay {
    next: ComponentId,
    remaining: u64,
    work: u32,
    acc: u64,
}

#[inline]
fn spin_work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    x
}

impl Component<u64> for WorkRelay {
    fn name(&self) -> &str {
        "work_relay"
    }
    fn host_class(&self) -> &'static str {
        "relay"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.acc = self.acc.wrapping_add(spin_work(event | 1, self.work));
            ctx.schedule(self.next, ctx.now().plus_ticks(1), event + 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds the work-ring simulation: `ring` relays, `tokens` events in
/// flight (evenly spread, so every generation carries `tokens` events),
/// each relay firing `hops` times.
fn build_work_ring(ring: usize, tokens: usize, hops: u64, work: u32) -> Simulator<u64> {
    let mut sim = Simulator::new(1);
    let ids: Vec<ComponentId> = (0..ring)
        .map(|i| {
            sim.add_component(Box::new(WorkRelay {
                next: ComponentId::try_from_index((i + 1) % ring)
                    .expect("bench index fits the id space"),
                remaining: hops,
                work,
                acc: 0,
            }))
        })
        .collect();
    for t in 0..tokens {
        sim.schedule(ids[t * ring / tokens.max(1)], Time::at(0), 0);
    }
    sim
}

/// Work-ring throughput on the chosen engine. `shards <= 1` runs the
/// sequential engine; otherwise the ring is cut into `shards` contiguous
/// arcs (two cut links per boundary) and run sharded.
fn bench_work_ring(
    ring: usize,
    tokens: usize,
    hops: u64,
    work: u32,
    shards: usize,
    reps: usize,
) -> (f64, f64) {
    let events_per_run = ring as u64 * hops + tokens as u64;
    let mut run_once = || {
        let sim = build_work_ring(ring, tokens, hops, work);
        let executed = if shards <= 1 {
            let mut sim = sim;
            sim.run().events_executed
        } else {
            let shard_of: Vec<u32> = (0..ring).map(|i| (i * shards / ring) as u32).collect();
            let mut sharded = sim.into_sharded(shards, shard_of);
            sharded.run().events_executed
        };
        assert_eq!(executed, events_per_run);
    };
    let rate = measure(events_per_run, reps, &mut run_once);
    let allocs = allocs_per_event(events_per_run, run_once);
    (rate, allocs)
}

/// The work/relay ring driven through the multi-process transport: the
/// parent plays hub, the ring is cut into one contiguous arc per worker
/// process, and each worker is this same binary re-executed in the
/// `__bench_worker` role. The measured rate is end-to-end — process
/// spawn, socket accept, every per-round EXCH/EXCH_R over the wire, and
/// teardown — because that is what a real `--workers` run pays.
#[cfg(unix)]
mod process_rows {
    use std::os::unix::net::UnixListener;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use supersim_des::wire::{get_varint, put_varint};
    use supersim_des::{EngineOptions, Hub, WorkerLink};

    use super::{build_work_ring, measure};

    static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Worker-side entry for `bench_engine __bench_worker <socket> <index>`.
    pub fn run_worker(socket: &str, index: u32) -> i32 {
        match worker_inner(socket, index) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("bench_engine worker {index}: {msg}");
                1
            }
        }
    }

    fn worker_inner(socket: &str, index: u32) -> Result<(), String> {
        let (link, setup) =
            WorkerLink::connect(socket, index).map_err(|e| format!("connect {socket}: {e}"))?;
        let buf = &mut setup.payload.as_slice();
        let (Some(ring), Some(tokens), Some(hops), Some(work)) = (
            get_varint(buf),
            get_varint(buf),
            get_varint(buf),
            get_varint(buf),
        ) else {
            return Err("malformed ring parameters in setup payload".into());
        };
        let (ring, tokens, work) = (ring as usize, tokens as usize, work as u32);
        let shards = setup.workers as usize;
        let sim = build_work_ring(ring, tokens, hops, work);
        let shard_of: Vec<u32> = (0..ring).map(|i| (i * shards / ring) as u32).collect();
        let mut worker = sim.into_worker(index, shards, shard_of, link.clone());
        let outcome = worker.run().outcome;
        // The bench has no report to assemble, so DONE ships no state.
        let (now, metrics) = (worker.now(), &worker.shard_metrics()[0]);
        link.finish(&outcome, now, metrics, &Default::default(), &[])
            .map_err(|e| format!("done: {e}"))
    }

    pub fn bench_work_ring_process(
        ring: usize,
        tokens: usize,
        hops: u64,
        work: u32,
        workers: usize,
        reps: usize,
    ) -> f64 {
        let events_per_run = ring as u64 * hops + tokens as u64;
        let exe = std::env::current_exe().expect("own path");
        measure(events_per_run, reps, || {
            let path = std::env::temp_dir().join(format!(
                "supersim-bench-{}-{}.sock",
                std::process::id(),
                SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let listener = UnixListener::bind(&path).expect("bind bench socket");
            let mut payload = Vec::new();
            for v in [ring as u64, tokens as u64, hops, u64::from(work)] {
                put_varint(&mut payload, v);
            }
            let mut children: Vec<_> = (0..workers)
                .map(|w| {
                    Command::new(&exe)
                        .arg("__bench_worker")
                        .arg(&path)
                        .arg(w.to_string())
                        .stdin(Stdio::null())
                        .spawn()
                        .expect("spawn bench worker")
                })
                .collect();
            let mut hub = Hub::accept(
                &listener,
                workers as u32,
                Duration::from_secs(60),
                &payload,
                &EngineOptions::default(),
            )
            .expect("accept bench workers");
            let result = hub.run(&mut |_, _| {});
            assert!(
                result.error.is_none(),
                "bench worker failed: {:?}",
                result.error
            );
            let executed: u64 = result.metrics.iter().map(|m| m.events_executed).sum();
            assert_eq!(executed, events_per_run);
            for c in &mut children {
                let _ = c.wait();
            }
            let _ = std::fs::remove_file(&path);
        })
    }
}

/// Loads the floor table: `$BENCH_BASELINE` if set, else
/// `BENCH_BASELINE.json` at the repository root. A missing or malformed
/// file disables floor checking with a warning (the binary stays usable
/// outside the repository); CI always has the file.
fn load_baseline() -> Option<Value> {
    let path = std::env::var("BENCH_BASELINE").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json").into()
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_engine: no baseline at {path}: {e} (floors disabled)");
            return None;
        }
    };
    match supersim_config::parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("bench_engine: malformed baseline {path}: {e} (floors disabled)");
            None
        }
    }
}

/// Records a violation when `rate` is below the named workload's floor.
fn check_floor(baseline: Option<&Value>, name: &str, rate: f64, below: &mut Vec<String>) {
    let Some(floor) = baseline
        .and_then(|b| b.get("floors_events_per_sec"))
        .and_then(|f| f.get(name))
        .and_then(Value::as_f64)
    else {
        return;
    };
    if rate < floor {
        below.push(format!("{name}: {rate:.0} events/s < floor {floor:.0}"));
    }
}

fn human(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:7.2} M/s", rate / 1e6)
    } else {
        format!("{:7.0} /s ", rate)
    }
}

fn main() {
    #[cfg(unix)]
    {
        let argv: Vec<String> = std::env::args().collect();
        if argv.get(1).is_some_and(|a| a == "__bench_worker") {
            let (Some(socket), Some(index)) =
                (argv.get(2), argv.get(3).and_then(|s| s.parse::<u32>().ok()))
            else {
                eprintln!("bench_engine: __bench_worker needs <socket> <index>");
                std::process::exit(2);
            };
            std::process::exit(process_rows::run_worker(socket, index));
        }
    }
    let mut smoke = false;
    let mut worker_counts: Vec<usize> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workers" => {
                let parsed: Option<Vec<usize>> = it.next().map(|s| {
                    s.split(',')
                        .map(|p| p.parse::<usize>().ok().filter(|&n| n > 0))
                        .collect::<Option<Vec<_>>>()
                        .unwrap_or_default()
                });
                match parsed {
                    Some(counts) if !counts.is_empty() => worker_counts = counts,
                    _ => {
                        eprintln!(
                            "bench_engine: --workers needs positive integers (e.g. 2 or 2,4)"
                        );
                        std::process::exit(2);
                    }
                }
                if cfg!(not(unix)) {
                    eprintln!("bench_engine: --workers requires a unix platform");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!(
                    "bench_engine: unknown argument {other:?}\n\
                     usage: bench_engine [--smoke] [--workers N[,M...]]"
                );
                std::process::exit(2);
            }
        }
    }
    let (reps, sizes, ring_hops, work_hops) = if smoke {
        (2, vec![1_000usize], 200u64, 40u64)
    } else {
        (7, vec![1_000usize, 100_000], 5_000u64, 400u64)
    };

    println!(
        "engine micro-benchmarks ({})",
        if smoke { "smoke" } else { "full" }
    );

    let baseline = load_baseline();
    let mut below = Vec::new();
    let mut floors_ok = true;
    println!("{:<28} {:>12} {:>8}", "workload", "rate", "ns/ev");
    let queue_rows = sizes
        .iter()
        .map(|&n| (format!("queue/push_pop_{n}"), bench_queue_calendar(n, reps)));
    let relay_rows = [(64usize, 16usize), (1024, 256)]
        .into_iter()
        .map(|(ring, tokens)| {
            (
                format!("relay_ring/{ring}x{tokens}"),
                bench_relay_ring(ring, tokens, ring_hops, reps),
            )
        });
    for (name, rate) in queue_rows.chain(relay_rows) {
        println!("{name:<28} {:>12} {:>8.0}", human(rate), ns_per_event(rate));
        floors_ok &= rate > 0.0;
        check_floor(baseline.as_ref(), &name, rate, &mut below);
    }

    // --- engine scaling: sequential vs sharded on the same workload -----
    println!(
        "{:<28} {:>12} {:>12} {:>8} {:>10} {:>8}",
        "workload", "sharded", "sequential", "speedup", "allocs/ev", "ns/ev"
    );
    // Xorshift rounds per event, calibrated so one synthetic event costs
    // about as much as one event of a real torus router workload (the
    // `router` class ns/event of `supersim --host-profile`) on the same
    // build — re-derived whenever the router hot path changes materially.
    // The arena/fused pipeline dispatches the torus at ~2.5 M events/s
    // (~400 ns/event); 128 rounds (~390 ns including dispatch) match that,
    // where the pre-calibration value of 256 (~780 ns/event) nearly
    // doubled it.
    const WORK: u32 = 128;
    for &(ring, tokens, work) in &[(1024usize, 256usize, 0u32), (1024, 256, WORK)] {
        let family = if work == 0 { "relay_ring" } else { "work_ring" };
        let (seq, seq_allocs) = bench_work_ring(ring, tokens, work_hops, work, 1, reps);
        let seq_name = format!("{family}_engine/{ring}x{tokens}/seq");
        println!(
            "{seq_name:<28} {:>12} {:>12} {:>7.2}x {:>10.3} {:>8.0}",
            "",
            human(seq),
            1.0,
            seq_allocs,
            ns_per_event(seq)
        );
        floors_ok &= seq > 0.0;
        check_floor(baseline.as_ref(), &seq_name, seq, &mut below);
        for s in [2, 4] {
            let name = format!("{family}_engine/{ring}x{tokens}/s{s}");
            let (rate, allocs) = bench_work_ring(ring, tokens, work_hops, work, s, reps);
            println!(
                "{name:<28} {:>12} {:>12} {:>7.2}x {:>10.3} {:>8.0}",
                human(rate),
                human(seq),
                rate / seq,
                allocs,
                ns_per_event(rate)
            );
            floors_ok &= rate > 0.0;
            check_floor(baseline.as_ref(), &name, rate, &mut below);
        }
        // Process-transport rows (opt-in via --workers): same ring,
        // one OS process per shard, the full socket protocol on the
        // wire. Allocations happen in the workers, so that column is
        // blank. These rows carry no floors — spawn cost and
        // machine-dependent IPC latency would make any floor either
        // meaningless or flaky.
        #[cfg(unix)]
        for &w in &worker_counts {
            let name = format!("{family}_engine/{ring}x{tokens}/w{w}");
            let rate =
                process_rows::bench_work_ring_process(ring, tokens, work_hops, work, w, reps);
            println!(
                "{name:<28} {:>12} {:>12} {:>7.2}x {:>10} {:>8.0}",
                human(rate),
                human(seq),
                rate / seq,
                "-",
                ns_per_event(rate)
            );
            floors_ok &= rate > 0.0;
            check_floor(baseline.as_ref(), &name, rate, &mut below);
        }
    }
    #[cfg(not(unix))]
    let _ = worker_counts;

    // Floor assertions: the harness must observe real forward progress.
    // (The relay benches also assert exact event counts and a non-trivial
    // queue high-water mark inside each run.)
    assert!(floors_ok, "benchmark reported a zero event rate");
    if !below.is_empty() {
        eprintln!("bench_engine: measured rates below baseline floors:");
        for b in &below {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
    println!("floors ok: all rates > 0 events/s and above baseline floors");
}
