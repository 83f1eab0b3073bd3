//! Fixed-input probes of single layers.
//!
//! Each probe is a tight loop over one public function on an input built
//! from a fixed `des::Rng` seed, so its number is comparable across
//! commits whatever `--seed` the workloads got. Every probe consumes its
//! result and asserts an exact count, so the loop can neither be
//! optimised away nor silently do less work. They are reported in the
//! traced pass only; no end-to-end number comes from here.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use supersim::config::{self, Value};
use supersim::core::{checkpoint, RunReport, SuperSim};
use supersim::des::wire::WireCodec;
use supersim::des::{Component, ComponentId, Context, EventQueue, Rng, Simulator, Time};
use supersim::netbase::{
    AppId, Ev, Flit, FlitArena, FlitSpan, MessageId, PacketId, PacketInfo, TerminalId,
};
use supersim::scenario;
use supersim::stats::{RecordKind, SampleLog, SampleRecord};
use supersim::topology::{partition_routers, Torus};

use crate::maths::median;
use crate::workloads::{counter, CLOS, SWEEP_PLAIN, TORUS};

pub type Readings = Vec<(&'static str, f64)>;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        samples.push(start.elapsed().as_nanos() as f64);
    }
    Ok(median(&samples))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// `des.queue_ns_per_op`: push then pop 100 k events at mixed times.
fn queue() -> Result<Readings, String> {
    const N: u64 = 100_000;
    let mut rng = Rng::new(0x5EED_0001);
    let times: Vec<u64> = (0..N).map(|_| rng.gen_below(N)).collect();
    let target = ComponentId::try_from_index(0).expect("index 0 fits the id space");
    let ns = median_ns(7, || {
        let mut q = EventQueue::<u64>::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(target, Time::at(t), i as u64);
        }
        let (mut popped, mut last, mut sum) = (0u64, Time::at(0), 0u64);
        while let Some(entry) = q.pop() {
            ensure(entry.time >= last, || "queue popped out of order".into())?;
            last = entry.time;
            sum += entry.payload;
            popped += 1;
        }
        ensure(popped == N && sum == N * (N - 1) / 2, || {
            format!("queue returned {popped} of {N} events")
        })
    })?;
    Ok(vec![("des.queue_ns_per_op", ns / (2 * N) as f64)])
}

/// Forwards each event to the next component one tick later: dispatch
/// with no model work.
struct Relay {
    next: ComponentId,
    remaining: u64,
}

impl Component<u64> for Relay {
    fn name(&self) -> &str {
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

/// `des.dispatch_ns_per_event` and `des.dispatch_s2_ns_per_event`: a ring
/// of 1024 relays with 256 events in flight, on the sequential engine and
/// on the sharded engine with 2 shards.
fn dispatch() -> Result<Readings, String> {
    const RING: usize = 1024;
    const TOKENS: usize = 256;
    const HOPS: u64 = 400;
    let events = RING as u64 * HOPS + TOKENS as u64;
    let build = || {
        let mut sim = Simulator::new(1);
        let id = |i: usize| ComponentId::try_from_index(i % RING).expect("ring fits the id space");
        for i in 0..RING {
            sim.add_component(Box::new(Relay {
                next: id(i + 1),
                remaining: HOPS,
            }));
        }
        for t in 0..TOKENS {
            sim.schedule(id(t * RING / TOKENS), Time::at(0), 0);
        }
        sim
    };
    let check = |executed: u64| {
        ensure(executed == events, || {
            format!("relay ring executed {executed} of {events} events")
        })
    };
    let seq = median_ns(3, || check(build().run().events_executed))?;
    let s2 = median_ns(3, || {
        let shard_of: Vec<u32> = (0..RING).map(|i| (i * 2 / RING) as u32).collect();
        check(build().into_sharded(2, shard_of).run().events_executed)
    })?;
    Ok(vec![
        ("des.dispatch_ns_per_event", seq / events as f64),
        ("des.dispatch_s2_ns_per_event", s2 / events as f64),
    ])
}

/// Builds and runs `text` with `overrides`, and checks that the run was
/// clean and conserved flits.
fn run_config(what: &str, text: &str, overrides: &[&str]) -> Result<RunReport, String> {
    let mut cfg = config::parse(text).map_err(|e| format!("{what}: {e}"))?;
    config::apply_overrides(&mut cfg, overrides).map_err(|e| format!("{what}: {e}"))?;
    let report = SuperSim::from_config(&cfg)
        .map_err(|e| format!("{what}: {e}"))?
        .run_report();
    if let Some(e) = &report.error {
        return Err(format!("{what}: {e}"));
    }
    let counters = &report.output.counters;
    ensure(
        counters.flits_sent > 0 && counters.flits_sent == counters.flits_received,
        || {
            format!(
                "{what}: {} flits sent, {} received",
                counters.flits_sent, counters.flits_received
            )
        },
    )?;
    Ok(report)
}

/// `router.{iq,oq,ioq}_ns_per_event`: the shipped 64-terminal torus with
/// the router architecture swapped, host time of class `router` per event
/// in the profiler's sampled batches.
fn router_architectures() -> Result<Readings, String> {
    let mut out = Readings::new();
    for (metric, architecture) in [
        ("router.iq_ns_per_event", "input_queued"),
        ("router.oq_ns_per_event", "output_queued"),
        ("router.ioq_ns_per_event", "input_output_queued"),
    ] {
        let arch = format!("network.router.architecture=string={architecture}");
        let report = run_config(
            architecture,
            TORUS,
            &[
                arch.as_str(),
                "network.router.output_queue=uint=64",
                "network.router.core_latency=uint=8",
                "engine.kind=string=sequential",
                "host.profile.enabled=bool=true",
            ],
        )?;
        let events = counter(&report.output.metrics, "host", "class_router_events");
        ensure(
            events > 0 && events <= report.output.engine.events_executed,
            || format!("{architecture}: {events} router events sampled"),
        )?;
        let ns = counter(&report.output.metrics, "host", "class_router_ns");
        out.push((metric, ns as f64 / events as f64));
    }
    Ok(out)
}

fn random_flit(rng: &mut Rng, spanned: bool) -> Flit {
    let size = 1 + rng.gen_below(16) as u32;
    let pkt = PacketInfo {
        id: PacketId(rng.gen_below(1 << 24)),
        message: MessageId(rng.gen_below(1 << 20)),
        app: AppId(rng.gen_below(4) as u8),
        src: TerminalId(rng.gen_below(512) as u32),
        dst: TerminalId(rng.gen_below(512) as u32),
        size,
        message_size: size,
        inject_tick: rng.gen_below(100_000),
        message_tick: rng.gen_below(100_000),
        sample: rng.gen_bool(0.5),
    };
    let seq = rng.gen_below(u64::from(size)) as u32;
    Flit {
        crc: Flit::compute_crc(pkt.id.0, seq),
        pkt: Arc::new(pkt),
        seq,
        vc: rng.gen_below(4) as u32,
        hops: rng.gen_below(12) as u16,
        inter: None,
        span: spanned.then(|| {
            Box::new(FlitSpan {
                enqueue: rng.gen_below(100_000),
                arrive: rng.gen_below(100_000),
                stall_start: rng.gen_bool(0.5).then(|| rng.gen_below(100_000)),
                queueing: rng.gen_below(500),
                alloc: rng.gen_below(500),
                serialization: rng.gen_below(500),
                channel: rng.gen_below(500),
                credit: rng.gen_below(500),
            })
        }),
    }
}

/// `netbase.wire_*`: the `WireCodec` of `Ev` over equal parts credits,
/// bare flits and flits carrying a latency span.
fn wire_codec() -> Result<Readings, String> {
    const N: usize = 30_000;
    let mut rng = Rng::new(0x5EED_0002);
    let events: Vec<Ev> = (0..N)
        .map(|i| match i % 3 {
            0 => Ev::Credit {
                port: rng.gen_below(8) as u32,
                vc: rng.gen_below(4) as u32,
            },
            kind => Ev::Flit {
                port: rng.gen_below(8) as u32,
                flit: random_flit(&mut rng, kind == 2),
            },
        })
        .collect();
    let mut bytes = Vec::new();
    let encode = median_ns(5, || {
        bytes.clear();
        for ev in &events {
            ev.encode(&mut bytes);
        }
        black_box(bytes.len());
        Ok(())
    })?;
    let mut decoded: Vec<Ev> = Vec::with_capacity(N);
    let decode = median_ns(5, || {
        decoded.clear();
        let mut buf = bytes.as_slice();
        while !buf.is_empty() {
            decoded.push(Ev::decode(&mut buf).ok_or("wire decode rejected its own encoding")?);
        }
        ensure(decoded.len() == N, || {
            format!("decoded {} of {N} events", decoded.len())
        })
    })?;
    let mut again = Vec::with_capacity(bytes.len());
    for ev in &decoded {
        ev.encode(&mut again);
    }
    ensure(again == bytes, || {
        format!(
            "re-encoding gave {} bytes, the encoding had {}",
            again.len(),
            bytes.len()
        )
    })?;
    Ok(vec![
        ("netbase.wire_encode_ns_per_event", encode / N as f64),
        ("netbase.wire_decode_ns_per_event", decode / N as f64),
        (
            "netbase.wire_bytes_per_event",
            bytes.len() as f64 / N as f64,
        ),
    ])
}

/// `netbase.arena_ns_per_op`: `FlitArena::insert` + `take` with 64 flits
/// resident, taken in insertion order so the free list is churned.
fn arena() -> Result<Readings, String> {
    const RESIDENT: usize = 64;
    const ROUNDS: usize = 2_000;
    let mut rng = Rng::new(0x5EED_0003);
    let mut flits: Vec<Flit> = (0..RESIDENT)
        .map(|_| random_flit(&mut rng, false))
        .collect();
    let expected: u64 = flits.iter().map(|f| u64::from(f.seq)).sum();
    let mut handles = Vec::with_capacity(RESIDENT);
    let ns = median_ns(5, || {
        let mut arena = FlitArena::with_capacity(RESIDENT);
        let mut seen = 0u64;
        for _ in 0..ROUNDS {
            handles.extend(flits.drain(..).map(|f| arena.insert(f)));
            for h in handles.drain(..) {
                let flit = arena.take(h);
                seen += u64::from(flit.seq);
                flits.push(flit);
            }
        }
        ensure(
            arena.live() == 0
                && arena.high_water() as usize == RESIDENT
                && seen == expected * ROUNDS as u64,
            || "arena lost or duplicated a flit".into(),
        )
    })?;
    Ok(vec![(
        "netbase.arena_ns_per_op",
        ns / (2 * RESIDENT * ROUNDS) as f64,
    )])
}

/// `stats.log_*`: `SampleLog::to_text` and `SampleLog::parse` over 100 k
/// records.
fn sample_log() -> Result<Readings, String> {
    const N: usize = 100_000;
    let mut rng = Rng::new(0x5EED_0004);
    let log: SampleLog = (0..N)
        .map(|i| {
            let send = rng.gen_below(1_000_000);
            SampleRecord {
                kind: if i % 2 == 0 {
                    RecordKind::Packet
                } else {
                    RecordKind::Message
                },
                app: rng.gen_below(4) as u8,
                src: rng.gen_below(512) as u32,
                dst: rng.gen_below(512) as u32,
                send,
                recv: send + rng.gen_below(500),
                hops: rng.gen_below(12) as u16,
                size: 1 + rng.gen_below(16) as u32,
            }
        })
        .collect();
    let mut text = String::new();
    let to_text = median_ns(3, || {
        text = log.to_text();
        black_box(text.len());
        Ok(())
    })?;
    let parse = median_ns(3, || {
        let parsed = SampleLog::parse(&text).map_err(|line| format!("log line {line}"))?;
        ensure(parsed.records() == log.records(), || {
            format!("{} of {N} records survived the round trip", parsed.len())
        })
    })?;
    Ok(vec![
        ("stats.log_text_ns_per_record", to_text / N as f64),
        ("stats.log_parse_ns_per_record", parse / N as f64),
    ])
}

/// `core.checkpoint_*_mb_s`: `checkpoint::encode` / `decode` on the last
/// checkpoint a shipped-Clos run writes. The blob is that run's, so the
/// input is the same whichever workload the pass belongs to.
fn checkpoint_codec(scratch: &Path) -> Result<Readings, String> {
    let dir = scratch.join("probe-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_override = format!("checkpoint.dir=string={}", dir.display());
    run_config(
        "checkpointed clos",
        CLOS,
        &[
            "engine.kind=string=sequential",
            "checkpoint.interval=uint=200",
            dir_override.as_str(),
        ],
    )?;
    let path = checkpoint::latest_in_dir(&dir).ok_or("the run wrote no checkpoint")?;
    let read = checkpoint::read_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let (header, blob) = read.map_err(|e| e.to_string())?;
    // Enough passes per sample to move about 16 MB.
    let passes = (16_000_000 / blob.len().max(1)).clamp(1, 10_000);
    let mut image = Vec::new();
    let encode = median_ns(3, || {
        for _ in 0..passes {
            image = checkpoint::encode(&header, black_box(&blob));
        }
        Ok(())
    })?;
    let decode = median_ns(3, || {
        for _ in 0..passes {
            let (h, b) = checkpoint::decode(black_box(&image)).map_err(|e| e.to_string())?;
            ensure(h == header && b == blob, || {
                "checkpoint did not survive encode + decode".into()
            })?;
        }
        Ok(())
    })?;
    // bytes per nanosecond * 1000 = MB/s
    let mb_s = |ns: f64| (passes * image.len()) as f64 / ns * 1e3;
    Ok(vec![
        ("core.checkpoint_encode_mb_s", mb_s(encode)),
        ("core.checkpoint_decode_mb_s", mb_s(decode)),
    ])
}

/// `core.process_fixed_s` and `des.hub_wire_bytes_per_event`: one
/// 2-worker `engine.transport=process` run of the shipped torus. The
/// fixed cost is the wall time, text in hand to report, less the longest
/// time a worker spent in its round loop: spawning the workers, each
/// rebuilding the simulation, and the merge.
fn process_backend() -> Result<Readings, String> {
    let start = Instant::now();
    let report = run_config(
        "2-worker torus",
        TORUS,
        &[
            "engine.kind=string=sharded",
            "engine.transport=string=process",
            "engine.shards=uint=2",
            "host.profile.enabled=bool=true",
        ],
    )?;
    let wall_ns = start.elapsed().as_nanos() as f64;
    let loop_ns = |worker: usize| -> u64 {
        [
            "drain_ns",
            "execute_ns",
            "sample_edge_ns",
            "fold_ns",
            "exchange_ns",
        ]
        .iter()
        .map(|phase| {
            counter(
                &report.output.metrics,
                &format!("host_shard_{worker}"),
                phase,
            )
        })
        .sum()
    };
    let longest_loop = loop_ns(0).max(loop_ns(1));
    let wire: u64 = (0..2)
        .flat_map(|w| {
            [
                format!("worker_{w}_wire_in_bytes"),
                format!("worker_{w}_wire_out_bytes"),
            ]
        })
        .map(|name| counter(&report.output.metrics, "host", &name))
        .sum();
    ensure(wire > 0 && longest_loop > 0, || {
        format!("the hub counted {wire} wire bytes, the workers {longest_loop} ns of rounds")
    })?;
    Ok(vec![
        (
            "core.process_fixed_s",
            (wall_ns - longest_loop as f64).max(0.0) / 1e9,
        ),
        (
            "des.hub_wire_bytes_per_event",
            wire as f64 / report.output.engine.events_executed as f64,
        ),
    ])
}

/// `config.parse_mb_s`: `config::parse` over the text of every shipped
/// configuration and library scenario.
fn config_parse() -> Result<Readings, String> {
    const PASSES: usize = 40;
    let texts: Vec<&str> = SWEEP_PLAIN
        .iter()
        .chain(scenario::LIBRARY)
        .map(|(_, text)| *text)
        .collect();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let ns = median_ns(5, || {
        let mut objects = 0;
        for _ in 0..PASSES {
            for text in &texts {
                let doc = config::parse(black_box(text)).map_err(|e| e.to_string())?;
                objects += usize::from(matches!(doc, Value::Object(_)));
            }
        }
        ensure(objects == PASSES * texts.len(), || {
            format!("{objects} documents parsed to objects")
        })
    })?;
    Ok(vec![(
        "config.parse_mb_s",
        (PASSES * bytes) as f64 / ns * 1e3,
    )])
}

/// `topology.partition_s`: `partition_routers` over the 512-router torus
/// of the torus workloads, 2 shards.
fn partition() -> Result<Readings, String> {
    let torus = Torus::new(vec![8, 8, 8], 1).map_err(|e| e.to_string())?;
    let ns = median_ns(5, || {
        let shard_of = partition_routers(black_box(&torus), 2);
        let in_first = shard_of.iter().filter(|&&s| s == 0).count();
        ensure(
            shard_of.len() == 512 && in_first > 0 && in_first < 512,
            || format!("{in_first} of {} routers in shard 0", shard_of.len()),
        )
    })?;
    Ok(vec![("topology.partition_s", ns / 1e9)])
}

/// Runs every probe. `scratch` is where the checkpoint probe may write.
pub fn run_all(scratch: &Path) -> Result<Readings, String> {
    let mut out = Readings::new();
    out.extend(queue()?);
    out.extend(dispatch()?);
    out.extend(router_architectures()?);
    out.extend(wire_codec()?);
    out.extend(arena()?);
    out.extend(sample_log()?);
    out.extend(checkpoint_codec(scratch)?);
    out.extend(process_backend()?);
    out.extend(config_parse()?);
    out.extend(partition()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process probes at full size: every exact-count assertion
    /// must hold. (The process probe needs the `ssbench` executable to
    /// act as the worker, so the binary exercises it, not this test.)
    #[test]
    fn in_process_probes_pass_their_own_checks() {
        let exe = std::env::current_exe().expect("test executable has a path");
        let dir = exe.with_file_name(format!("ssbench-probe-test-{}", std::process::id()));
        let mut names = Vec::new();
        for readings in [
            queue(),
            dispatch(),
            wire_codec(),
            arena(),
            sample_log(),
            checkpoint_codec(&dir),
            config_parse(),
            partition(),
        ] {
            for (name, value) in readings.expect("probe passes its check") {
                assert!(value.is_finite() && value > 0.0, "{name} = {value}");
                names.push(name);
            }
        }
        assert_eq!(names.len(), 13);
    }
}
