//! Per-shard result snapshots: everything `run_report` reads out of the
//! network components, lifted into plain data.
//!
//! The single-process path extracts one [`ShardPartial`] covering every
//! component and assembles the report from it directly. The
//! multi-process path has each worker extract a partial covering only
//! its owned components, encode it, and ship it to the parent in the
//! PARTIAL frame; the parent merges the partials by global component
//! index — so the assembly walks components in exactly the order the
//! in-process path does, and the report stays byte-identical.
//!
//! A partial is the statistics subset of a checkpoint: the three structs
//! below are field lists over the encodings the components' own
//! checkpoint sections use (`SampleLog`, `InterfaceCounters`,
//! `InterfaceMetrics`, `RouterMetrics`, `ComponentSampler`, …), so this
//! module defines no byte format of its own.
//!
//! Everything in a partial is either integer data or built from
//! commutative integer merges (histograms, window aggregates, fault
//! counters), which is what makes the cross-process merge exact rather
//! than approximate.

use supersim_des::{wire_struct, ComponentId, Engine, Tick};
use supersim_netbase::{Ev, FaultCounters, Phase};
use supersim_router::{Router, RouterMetrics};
use supersim_stats::{ComponentSampler, SampleLog};
use supersim_workload::{
    Interface, InterfaceCounters, InterfaceMetrics, SpanRecord, WorkloadMonitor,
};

/// Everything the report assembly reads from one interface component.
#[derive(Debug, Clone)]
pub(crate) struct InterfacePartial {
    pub flits_generating: Option<u64>,
    pub flits_finishing: Option<u64>,
    pub log: SampleLog,
    pub counters: InterfaceCounters,
    pub metrics: InterfaceMetrics,
    pub span_records: Vec<SpanRecord>,
    /// `(fault counters, flits parked in retransmission holds)`.
    pub fault: Option<(FaultCounters, u64)>,
    pub sampler: Option<ComponentSampler>,
}

wire_struct!(InterfacePartial {
    flits_generating,
    flits_finishing,
    log,
    counters,
    metrics,
    span_records,
    fault,
    sampler,
});

/// Everything the report assembly reads from one router component.
/// Custom (non-built-in) router architectures report `None` throughout,
/// exactly as the downcast-based accessors did.
#[derive(Debug, Clone)]
pub(crate) struct RouterPartial {
    pub metrics: Option<RouterMetrics>,
    /// `(cycles, flits_advanced, arena live, arena high-water)`.
    pub profile: Option<(u64, u64, u32, u32)>,
    pub fault: Option<(FaultCounters, u64)>,
    pub sampler: Option<ComponentSampler>,
    /// `(buffered flits, per-(port, vc) credit (available, capacity))`.
    pub occupancy: Option<(u64, Vec<(u32, u32)>)>,
}

wire_struct!(RouterPartial {
    metrics,
    profile,
    fault,
    sampler,
    occupancy,
});

/// One shard's contribution to the run report: its owned interfaces and
/// routers by global index, plus the monitor's phase transitions when
/// this shard owns the monitor (shard 0).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardPartial {
    pub interfaces: Vec<(u32, InterfacePartial)>,
    pub routers: Vec<(u32, RouterPartial)>,
    pub phase_times: Option<Vec<(Phase, Tick)>>,
}

wire_struct!(ShardPartial {
    interfaces,
    routers,
    phase_times,
});

/// Reads the partial of every component the engine owns. On the
/// single-process engines that is every component; on a worker engine,
/// foreign components are absent and silently skipped.
///
/// The two large per-interface logs — samples and span records — are
/// moved out, not copied: extraction is the engine's last use on every
/// path (the run report consumes the simulation, a worker ships its
/// partial and exits, and a failed resume never ran), so the components
/// are left with empty logs.
pub(crate) fn extract_partial(
    engine: &mut dyn Engine<Ev>,
    interfaces: &[ComponentId],
    routers: &[ComponentId],
    monitor: ComponentId,
) -> ShardPartial {
    let mut partial = ShardPartial::default();
    for (t, &id) in interfaces.iter().enumerate() {
        let Some(iface) = engine.component_as_mut::<Interface>(id) else {
            continue;
        };
        partial.interfaces.push((
            t as u32,
            InterfacePartial {
                flits_generating: iface.flits_at_phase(Phase::Generating),
                flits_finishing: iface.flits_at_phase(Phase::Finishing),
                log: std::mem::take(&mut iface.log),
                counters: iface.counters,
                metrics: iface.metrics.clone(),
                span_records: std::mem::take(&mut iface.span_log),
                fault: iface.fault.as_ref().map(|f| (f.counters, f.held_flits())),
                sampler: iface.sampler.clone(),
            },
        ));
    }
    let engine = &*engine;
    for (r, &id) in routers.iter().enumerate() {
        // A worker that owns none of this router's planes contributes
        // nothing; an owned custom router contributes an all-None entry,
        // matching the downcast misses of the in-process path.
        if engine.component(id).is_none() {
            continue;
        }
        // One lookup of the shared router skeleton; a custom router
        // component reports no router-plane data.
        let router = engine.component_as::<Router>(id);
        let core = router.map(|r| &r.core);
        partial.routers.push((
            r as u32,
            RouterPartial {
                metrics: core.map(|c| c.metrics.clone()),
                profile: core.map(|c| {
                    let (live, high) = c.arena_stats();
                    (c.counters.cycles, c.counters.flits_advanced, live, high)
                }),
                fault: core
                    .and_then(|c| c.fault.as_ref())
                    .map(|f| (f.counters, f.held_flits())),
                sampler: core.and_then(|c| c.sampler.clone()),
                occupancy: router.map(|r| (r.buffered_flits(), r.core.credit_state())),
            },
        ));
    }
    partial.phase_times = engine
        .component_as::<WorkloadMonitor>(monitor)
        .map(|m| m.phase_times.clone());
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_des::wire::testing::check_codec;
    use supersim_des::wire::WireCodec;
    use supersim_des::Rng;
    use supersim_stats::{Histogram, RecordKind, SampleRecord};

    fn rand_hist(rng: &mut Rng) -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..rng.gen_u64() % 8 {
            h.record(rng.gen_u64() >> (rng.gen_u64() % 64));
        }
        h
    }

    fn rand_sampler(rng: &mut Rng) -> ComponentSampler {
        let mut s = ComponentSampler::new(1 + (rng.gen_u64() as usize % 4));
        for w in 0..rng.gen_u64() % 6 {
            for _ in 0..rng.gen_u64() % 3 {
                s.record("lat", rng.gen_u64() >> 40);
            }
            s.close((w + 1) * 100, vec![("flits", rng.gen_u64() >> 48)]);
        }
        s
    }

    fn rand_fault(rng: &mut Rng) -> (FaultCounters, u64) {
        (
            FaultCounters {
                injected: rng.gen_u64() >> 40,
                detected: rng.gen_u64() >> 40,
                recovered: rng.gen_u64() >> 40,
                escalated: rng.gen_u64() >> 40,
                flit_clones: rng.gen_u64() >> 40,
            },
            rng.gen_u64() >> 48,
        )
    }

    fn rand_iface(rng: &mut Rng) -> InterfacePartial {
        let mut log = SampleLog::new();
        for _ in 0..rng.gen_u64() % 5 {
            log.push(SampleRecord {
                kind: RecordKind::Packet,
                app: rng.gen_u64() as u8,
                src: rng.gen_u64() as u32,
                dst: rng.gen_u64() as u32,
                send: rng.gen_u64() >> 16,
                recv: rng.gen_u64() >> 16,
                hops: rng.gen_u64() as u16,
                size: rng.gen_u64() as u32,
            });
        }
        let mut metrics = InterfaceMetrics::default();
        metrics.inject_stalls.add(rng.gen_u64() >> 32);
        metrics.queue_depth.set(rng.gen_u64() >> 48);
        metrics.phase_latency = std::array::from_fn(|_| rand_hist(rng));
        metrics.spans.total = rand_hist(rng);
        metrics.spans.residual = rand_hist(rng);
        InterfacePartial {
            flits_generating: rng.gen_bool(0.5).then(|| rng.gen_u64() >> 32),
            flits_finishing: rng.gen_bool(0.5).then(|| rng.gen_u64() >> 32),
            log,
            counters: InterfaceCounters {
                messages_sent: rng.gen_u64() >> 24,
                flits_received: rng.gen_u64() >> 24,
                ..InterfaceCounters::default()
            },
            metrics,
            span_records: Vec::new(),
            fault: rng.gen_bool(0.5).then(|| rand_fault(rng)),
            sampler: rng.gen_bool(0.5).then(|| rand_sampler(rng)),
        }
    }

    fn rand_router(rng: &mut Rng) -> RouterPartial {
        RouterPartial {
            metrics: rng.gen_bool(0.8).then(|| {
                let mut m = RouterMetrics::new(1 + (rng.gen_u64() % 5) as u32);
                m.grants.add(rng.gen_u64() >> 24);
                m.credit_stalls.add(rng.gen_u64() >> 24);
                m.flit_buffered(0);
                m
            }),
            profile: rng.gen_bool(0.8).then(|| {
                (
                    rng.gen_u64() >> 16,
                    rng.gen_u64() >> 16,
                    rng.gen_u64() as u32,
                    rng.gen_u64() as u32,
                )
            }),
            fault: rng.gen_bool(0.5).then(|| rand_fault(rng)),
            sampler: rng.gen_bool(0.5).then(|| rand_sampler(rng)),
            occupancy: rng.gen_bool(0.8).then(|| {
                (
                    rng.gen_u64() >> 40,
                    (0..rng.gen_u64() % 8)
                        .map(|_| (rng.gen_u64() as u32 % 64, rng.gen_u64() as u32 % 64))
                        .collect(),
                )
            }),
        }
    }

    fn rand_partial(rng: &mut Rng) -> ShardPartial {
        ShardPartial {
            interfaces: (0..rng.gen_u64() % 4)
                .map(|i| (i as u32 * 3, rand_iface(rng)))
                .collect(),
            routers: (0..rng.gen_u64() % 4)
                .map(|i| (i as u32 * 2 + 1, rand_router(rng)))
                .collect(),
            phase_times: rng.gen_bool(0.7).then(|| {
                Phase::ALL
                    .iter()
                    .take(1 + (rng.gen_u64() % 4) as usize)
                    .map(|&p| (p, rng.gen_u64() >> 24))
                    .collect()
            }),
        }
    }

    /// One row per partial struct: round trip by byte-equal re-encoding,
    /// every truncation `None` (the shape a worker killed mid-send
    /// produces), and bit flips and byte soup never panic — a misbehaving
    /// worker yields `None`, which the parent turns into a typed degrade.
    #[test]
    fn every_partial_codec_is_total() {
        check_codec(0x1FACE, 12, rand_iface);
        check_codec(0x2007E2, 20, rand_router);
        check_codec(0x51AB_DA7A, 12, rand_partial);
    }

    /// A hostile worker once crashed the parent with this 26-byte body:
    /// no interfaces, one router whose only present plane is a sampler
    /// claiming 2^62 capacity and 2^62 retained windows.
    #[test]
    fn hostile_sampler_counts_are_rejected_not_allocated() {
        let mut body = vec![0, 1, 0, 0, 0, 0, 1];
        (1u64 << 62).encode(&mut body); // capacity
        body.push(0); // evicted
        (1u64 << 62).encode(&mut body); // retained windows
        assert_eq!(body.len(), 26);
        assert!(ShardPartial::decode(&mut body.as_slice()).is_none());
    }
}
