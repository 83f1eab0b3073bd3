//! Router observability metrics shared by the IQ/OQ/IOQ
//! microarchitectures.
//!
//! The plain [`RouterCounters`](crate::RouterCounters) answer "how many
//! flits moved"; these metrics answer *why they didn't*: allocation
//! grants versus denials, candidates starved of credits, and per-port
//! buffer occupancy with high-water marks. All primitives come from
//! `supersim-stats::metrics` and cost a couple of integer instructions
//! per update.

use supersim_des::{wire_overlay, wire_struct};
use supersim_netbase::Port;
use supersim_stats::{ComponentSampler, Counter, Gauge};

/// Allocation and flow-control metrics of one router.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// Crossbar / drain allocation grants (one per flit moved by an
    /// arbitration stage).
    pub grants: Counter,
    /// Allocation rounds where an output had candidates but granted none.
    pub denials: Counter,
    /// Candidates (or ready flits) held back by zero credits / queue
    /// space at judgment time.
    pub credit_stalls: Counter,
    /// Per-input-port buffered flit count, with high-water marks.
    occupancy: Vec<Gauge>,
}

impl RouterMetrics {
    /// Metrics for a router with `radix` ports.
    pub fn new(radix: u32) -> Self {
        RouterMetrics {
            grants: Counter::new(),
            denials: Counter::new(),
            credit_stalls: Counter::new(),
            occupancy: vec![Gauge::new(); radix as usize],
        }
    }

    /// Notes a flit entering input port `port`'s buffers.
    #[inline]
    pub fn flit_buffered(&mut self, port: Port) {
        let g = &mut self.occupancy[port as usize];
        g.set(g.get() + 1);
    }

    /// Notes a flit leaving input port `port`'s buffers.
    #[inline]
    pub fn flit_unbuffered(&mut self, port: Port) {
        let g = &mut self.occupancy[port as usize];
        g.set(g.get().saturating_sub(1));
    }

    /// Per-input-port occupancy gauges, indexed by port.
    pub fn occupancy(&self) -> &[Gauge] {
        &self.occupancy
    }
}

// The occupancy table has one gauge per port of the rebuilt router.
wire_overlay!(RouterMetrics {
    grants,
    denials,
    credit_stalls,
    occupancy: slice,
});

/// Counter values at the last closed sampling window edge — the delta
/// basis shared by the IQ/OQ/IOQ `Component::sample` implementations.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterSampleBase {
    credit_stalls: u64,
    grants: u64,
    flits_in: u64,
    flits_out: u64,
}

wire_struct!(RouterSampleBase {
    credit_stalls,
    grants,
    flits_in,
    flits_out,
});

/// Closes one sampling window of a router: monotonic counter deltas since
/// the previous edge plus a point-in-time buffered-flit occupancy
/// snapshot. All three router microarchitectures report the same series,
/// so the per-window fold sees one uniform `router.*` plane.
pub fn close_router_window(
    sampler: &mut ComponentSampler,
    base: &mut RouterSampleBase,
    edge: u64,
    metrics: &RouterMetrics,
    flits_in: u64,
    flits_out: u64,
    buffered: u64,
) {
    let credit_stalls = metrics.credit_stalls.get();
    let grants = metrics.grants.get();
    sampler.close(
        edge,
        vec![
            ("router.flits_in", flits_in - base.flits_in),
            ("router.flits_out", flits_out - base.flits_out),
            ("router.grants", grants - base.grants),
            ("router.credit_stalls", credit_stalls - base.credit_stalls),
            ("router.buffered_flits", buffered),
        ],
    );
    *base = RouterSampleBase {
        credit_stalls,
        grants,
        flits_in,
        flits_out,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{Arbiter, Request, RoundRobinArbiter};
    use crate::skeleton::RouterCounters;
    use supersim_des::wire::testing::check_codec;
    use supersim_des::wire::Overlay;

    /// One row per `WireCodec` type this crate defines.
    #[test]
    fn every_router_codec_is_total() {
        check_codec(1, 40, |r| RouterCounters {
            flits_in: r.gen_u64() >> 20,
            flits_out: r.gen_u64() >> 20,
            credits_in: r.gen_u64() >> 20,
            cycles: r.gen_u64() >> 24,
            flits_advanced: r.gen_u64() >> 20,
        });
        check_codec(2, 40, |r| RouterSampleBase {
            credit_stalls: r.gen_u64() >> 30,
            grants: r.gen_u64() >> 24,
            flits_in: r.gen_u64() >> 20,
            flits_out: r.gen_u64() >> 20,
        });
        check_codec(4, 20, |r| {
            let mut arbiter = RoundRobinArbiter::new();
            if r.gen_bool(0.7) {
                let request = Request {
                    id: r.gen_u64() as u32,
                    age: 0,
                };
                arbiter.grant(&[request], r);
            }
            arbiter
        });
    }

    /// Saved metrics load back onto a router of the same radix and
    /// re-save byte-equal; another port count is rejected.
    #[test]
    fn metrics_load_rejects_another_port_count() {
        let mut m = RouterMetrics::new(3);
        m.grants.add(7);
        m.flit_buffered(2);
        m.flit_buffered(2);
        m.flit_unbuffered(2);
        let mut saved = Vec::new();
        m.save(&mut saved);
        let mut back = RouterMetrics::new(3);
        assert_eq!(back.load(&mut saved.as_slice()), Some(()));
        assert_eq!((back.grants.get(), back.occupancy()[2].max()), (7, 2));
        let mut again = Vec::new();
        back.save(&mut again);
        assert_eq!(again, saved);
        assert_eq!(RouterMetrics::new(4).load(&mut saved.as_slice()), None);
    }

    #[test]
    fn occupancy_tracks_per_port_high_water() {
        let mut m = RouterMetrics::new(3);
        m.flit_buffered(1);
        m.flit_buffered(1);
        m.flit_buffered(2);
        m.flit_unbuffered(1);
        assert_eq!(m.occupancy()[0].get(), 0);
        assert_eq!(m.occupancy()[1].get(), 1);
        assert_eq!(m.occupancy()[1].max(), 2);
        assert_eq!(m.occupancy()[2].get(), 1);
        // Unbuffering an already-empty port saturates at zero.
        m.flit_unbuffered(0);
        assert_eq!(m.occupancy()[0].get(), 0);
    }
}
