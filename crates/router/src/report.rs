//! The routers' share of the end-of-run report: the `router_<r>` metrics
//! planes and the `profile` plane.

use supersim_netbase::LinkFaults;
use supersim_stats::{ComponentSampler, MetricValue, MetricsSnapshot};

use crate::Router;

/// What the routers of a run report beyond their planes.
pub struct RouterReport<'a> {
    /// The largest flit-arena high-water mark of any router.
    pub arena_high: u64,
    /// Each router's fault state, for the fault plane.
    pub faults: Vec<&'a LinkFaults>,
    /// Each router's time-series ring, for the window fold.
    pub samplers: Vec<&'a ComponentSampler>,
}

/// Pushes one `router_<r>` plane per router, then the `profile` plane:
/// how many flits each batched pipeline event moved and how deep the
/// per-router flit arenas ran, with `events_dispatched` (the engine's
/// total) beside them. `routers[r]` is `None` for a router this process
/// does not hold and for a custom (non-skeleton) architecture, which
/// reports no router plane. Every aggregate is a commutative integer sum
/// or max, so the planes are the same on every engine and shard count.
pub fn push_router_planes<'a>(
    metrics: &mut MetricsSnapshot,
    routers: &[Option<&'a Router>],
    events_dispatched: u64,
) -> RouterReport<'a> {
    // The router planes are most of a snapshot: three counters and one
    // occupancy gauge per port for each router, then the four of `profile`.
    let per_router = |r: &&Router| 3 + r.core.metrics.occupancy().len();
    let reserved = routers.iter().flatten().map(per_router).sum::<usize>() + 4;
    metrics.reserve(reserved);
    let start = metrics.len();
    for (r, router) in routers.iter().enumerate() {
        let Some(router) = router else { continue };
        let name = format!("router_{r}");
        let m = &router.core.metrics;
        metrics.push_counter(name.clone(), "grants", m.grants.get());
        metrics.push_counter(name.clone(), "denials", m.denials.get());
        metrics.push_counter(name.clone(), "credit_stalls", m.credit_stalls.get());
        for (p, gauge) in m.occupancy().iter().enumerate() {
            metrics.push_gauge(name.clone(), format!("occupancy_port_{p}"), *gauge);
        }
    }

    let cores = || routers.iter().flatten().map(|x| &x.core);
    let (mut cycles, mut advanced, mut arena_live, mut arena_high) = (0, 0, 0, 0);
    for core in cores() {
        let (live, high) = core.arena_stats();
        cycles += core.counters.cycles;
        advanced += core.counters.flits_advanced;
        arena_live += u64::from(live);
        arena_high = arena_high.max(u64::from(high));
    }
    metrics.push_counter("profile", "events_dispatched", events_dispatched);
    metrics.push_counter("profile", "router_cycles", cycles);
    metrics.push_counter("profile", "flits_advanced", advanced);
    let arena = MetricValue::Gauge {
        value: arena_live,
        max: arena_high,
    };
    metrics.push("profile", "arena_occupancy", arena);
    debug_assert_eq!(metrics.len() - start, reserved, "pushed what was reserved");

    RouterReport {
        arena_high,
        faults: cores().filter_map(|c| c.fault.as_ref()).collect(),
        samplers: cores().filter_map(|c| c.sampler.as_ref()).collect(),
    }
}
