//! Minimal and UGAL routing for HyperX / flattened butterfly (paper §VI-B).
//!
//! Minimal routing corrects dimensions in index order, one hop each —
//! deadlock-free on one VC because the channel dependency order follows the
//! dimension order.
//!
//! UGAL (Universal Globally-Adaptive Load-balanced routing, Singh 2005)
//! decides per packet at the *source router* between the minimal path and a
//! Valiant path through a random intermediate router, comparing congestion
//! weighted by path length: minimal wins when
//! `q_min * h_min <= q_nonmin * h_nonmin + threshold`. Non-minimal packets
//! travel to the intermediate on VC 0 and minimally afterwards on VC 1,
//! which breaks the cross-phase cycle (2 VCs required — the configuration
//! of case study B).

use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_netbase::{Flit, Port, RouterId, Vc, Via};

use crate::hyperx::HyperX;
use crate::routing::{least_congested_vc, RouteChoice, RoutingAlgorithm, RoutingContext};
use crate::types::Topology;

/// Path selection policy for HyperX.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HyperXMode {
    /// Dimension-order minimal routing.
    Minimal,
    /// Oblivious Valiant routing: every packet detours through a uniformly
    /// random intermediate router, perfectly load-balancing adversarial
    /// patterns at the cost of doubling the path length.
    Valiant,
    /// UGAL with the given non-minimal bias threshold (in normalized
    /// congestion units; 0 compares costs directly).
    Ugal {
        /// Additive bias favoring the minimal path.
        threshold: f64,
    },
}

/// The VC carrying packets on their Valiant first phase.
const VC_NONMIN: Vc = 0;
/// The VC carrying minimal-phase packets.
const VC_MIN: Vc = 1;

/// Minimal / UGAL routing on a [`HyperX`].
#[derive(Debug, Clone)]
pub struct HyperXRouting {
    topology: Arc<HyperX>,
    mode: HyperXMode,
    vcs: u32,
}

impl HyperXRouting {
    /// Creates a HyperX routing engine.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero, or if the mode is Valiant or UGAL and
    /// `vcs < 2` or the network has fewer than 3 routers: a two-phase
    /// packet draws an intermediate router other than its source and
    /// destination, and with 2 routers none exists.
    pub fn new(topology: Arc<HyperX>, mode: HyperXMode, vcs: u32) -> Self {
        assert!(vcs > 0, "at least one VC required");
        if matches!(mode, HyperXMode::Ugal { .. } | HyperXMode::Valiant) {
            assert!(vcs >= 2, "two-phase routing needs at least 2 VCs");
            assert!(
                topology.num_routers() >= 3,
                "two-phase routing needs at least 3 routers"
            );
        }
        HyperXRouting {
            topology,
            mode,
            vcs,
        }
    }

    /// First-hop port of the dimension-order minimal path from `from`
    /// toward router `to`; `None` when already there.
    fn min_port(&self, from: RouterId, to: RouterId) -> Option<Port> {
        let t = &self.topology;
        t.router_coords(from)
            .zip(t.router_coords(to))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(dim, (_, b))| t.port_toward(from, dim, b))
    }

    /// Dimension-order hop count between routers.
    fn hops_between(&self, a: RouterId, b: RouterId) -> u32 {
        let t = &self.topology;
        t.router_coords(a)
            .zip(t.router_coords(b))
            .filter(|(x, y)| x != y)
            .count() as u32
    }

    /// VC candidates of a phase class when more than 2 VCs are configured:
    /// even VCs extend class 0, odd VCs extend class 1.
    fn class_vcs(&self, class: Vc) -> impl Iterator<Item = Vc> {
        let vcs = self.vcs;
        (0..vcs).filter(move |v| v % 2 == class % 2)
    }
}

wire_overlay!(HyperXRouting {});

impl RoutingAlgorithm for HyperXRouting {
    fn name(&self) -> &str {
        match self.mode {
            HyperXMode::Minimal => "hyperx_minimal",
            HyperXMode::Valiant => "hyperx_valiant",
            HyperXMode::Ugal { .. } => "ugal",
        }
    }

    fn vcs_required(&self) -> u32 {
        self.vcs
    }

    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &*self.topology;
        let (dst_router, dst_port) = t.terminal_attachment(flit.pkt.dst);

        // Phase bookkeeping: reaching the intermediate clears it.
        if flit.inter.map(Via::router) == Some(ctx.router) {
            flit.inter = None;
        }

        if ctx.router == dst_router && flit.inter.is_none() {
            let vc = least_congested_vc(ctx.congestion, dst_port, 0..self.vcs);
            return RouteChoice { port: dst_port, vc };
        }

        let at_source = t.terminal_at(ctx.router, ctx.input_port).is_some();
        if at_source && !matches!(self.mode, HyperXMode::Minimal) {
            // Candidate intermediate: uniform among other routers.
            let n = t.num_routers();
            let mut inter = RouterId(ctx.rng.gen_range(0..n));
            while inter == ctx.router || inter == dst_router {
                inter = RouterId(ctx.rng.gen_range(0..n));
            }
            let go_nonminimal = match self.mode {
                HyperXMode::Valiant => true,
                HyperXMode::Ugal { threshold } => {
                    let h_min = self.hops_between(ctx.router, dst_router);
                    let h_non =
                        self.hops_between(ctx.router, inter) + self.hops_between(inter, dst_router);
                    let p_min = self.min_port(ctx.router, dst_router).expect("not at dst");
                    let p_non = self.min_port(ctx.router, inter).expect("inter differs");
                    let q_min = ctx.congestion.vc_congestion(p_min, VC_MIN);
                    let q_non = ctx.congestion.vc_congestion(p_non, VC_NONMIN);
                    q_min * h_min as f64 > q_non * h_non as f64 + threshold
                }
                HyperXMode::Minimal => unreachable!("filtered above"),
            };
            if go_nonminimal {
                flit.inter = Some(Via::new(inter).expect("a router id below u32::MAX"));
                let p_non = self.min_port(ctx.router, inter).expect("inter differs");
                let vc = least_congested_vc(ctx.congestion, p_non, self.class_vcs(VC_NONMIN));
                return RouteChoice { port: p_non, vc };
            }
        }

        // Minimal (or post-decision) phase: head toward the current target.
        let (target, class) = match flit.inter {
            Some(inter) => (inter.router(), VC_NONMIN),
            None => (dst_router, VC_MIN),
        };
        let port = self
            .min_port(ctx.router, target)
            .expect("target differs from current router");
        let vc = if matches!(self.mode, HyperXMode::Minimal) {
            // Pure minimal routing is deadlock-free on any VC; use all.
            least_congested_vc(ctx.congestion, port, 0..self.vcs)
        } else {
            least_congested_vc(ctx.congestion, port, self.class_vcs(class))
        };
        RouteChoice { port, vc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{CongestionView, ZeroCongestion};
    use supersim_des::Rng;
    use supersim_netbase::{AppId, MessageId, PacketBuilder, PacketId, TerminalId};

    fn head(src: u32, dst: u32) -> Flit {
        PacketBuilder {
            id: PacketId(1),
            message: MessageId(1),
            app: AppId(0),
            src: TerminalId(src),
            dst: TerminalId(dst),
            size: 1,
            message_size: 1,
            inject_tick: 0,
            message_tick: 0,
            sample: false,
        }
        .build()
        .remove(0)
    }

    fn walk(
        t: &Arc<HyperX>,
        algo: &mut HyperXRouting,
        view: &dyn CongestionView,
        src: u32,
        dst: u32,
        seed: u64,
    ) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        let mut flit = head(src, dst);
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(src));
        let mut in_vc = 0;
        let mut path = vec![router.0];
        for _ in 0..16 {
            let mut ctx = RoutingContext {
                router,
                input_port: in_port,
                input_vc: in_vc,
                congestion: view,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if let Some(term) = t.terminal_at(router, choice.port) {
                assert_eq!(term, TerminalId(dst));
                return path;
            }
            let (next, arrive) = t.neighbor(router, choice.port).expect("wired");
            in_vc = choice.vc;
            router = next;
            in_port = arrive;
            path.push(router.0);
        }
        panic!("packet lost in the hyperx");
    }

    #[test]
    fn minimal_routes_one_hop_per_dimension() {
        let t = Arc::new(HyperX::new(vec![4, 4], 1).unwrap());
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Minimal, 1);
        // (1,0) -> (3,2): exactly two hops.
        let path = walk(&t, &mut algo, &ZeroCongestion, 1, 3 + 2 * 4, 5);
        assert_eq!(path.len(), 3);
        assert_eq!(path[1], 3); // dim 0 corrected first
    }

    #[test]
    fn minimal_all_pairs() {
        let t = Arc::new(HyperX::new(vec![3, 3], 2).unwrap());
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Minimal, 1);
        for src in 0..t.num_terminals() {
            for dst in 0..t.num_terminals() {
                if src == dst {
                    continue;
                }
                let path = walk(&t, &mut algo, &ZeroCongestion, src, dst, 5);
                let hops = t.min_hops(TerminalId(src), TerminalId(dst)) as usize;
                assert_eq!(path.len(), hops + 1, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn ugal_uncongested_goes_minimal() {
        let t = Arc::new(HyperX::new(vec![8], 4).unwrap());
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Ugal { threshold: 0.0 }, 2);
        // With zero congestion everywhere, q_min*h_min = 0 <= 0: minimal.
        let path = walk(&t, &mut algo, &ZeroCongestion, 0, 17, 9);
        assert_eq!(path.len(), 2); // src router 0, dst router 4, one hop
    }

    /// Congestion view where the direct port toward a victim router is hot.
    struct HotPort {
        port: Port,
    }
    impl CongestionView for HotPort {
        fn vc_congestion(&self, port: Port, _vc: Vc) -> f64 {
            if port == self.port {
                1.0
            } else {
                0.0
            }
        }
        fn port_congestion(&self, port: Port) -> f64 {
            self.vc_congestion(port, 0)
        }
    }

    #[test]
    fn ugal_congested_goes_valiant() {
        let t = Arc::new(HyperX::new(vec![8], 4).unwrap());
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Ugal { threshold: 0.0 }, 2);
        // src terminal 0 on router 0; dst terminal 17 on router 4; the
        // direct port from router 0 to router 4 is hot.
        let direct = t.port_toward(supersim_netbase::RouterId(0), 0, 4);
        let view = HotPort { port: direct };
        let path = walk(&t, &mut algo, &view, 0, 17, 13);
        assert_eq!(
            path.len(),
            3,
            "expected a two-hop valiant path, got {path:?}"
        );
        assert_ne!(path[1], 4);
    }

    #[test]
    fn ugal_valiant_packets_reach_destination() {
        let t = Arc::new(HyperX::new(vec![6], 1).unwrap());
        // Force Valiant by making every direct port look congested and
        // verify delivery across many seeds.
        struct AllHot;
        impl CongestionView for AllHot {
            fn vc_congestion(&self, _p: Port, vc: Vc) -> f64 {
                if vc == VC_MIN {
                    1.0
                } else {
                    0.0
                }
            }
            fn port_congestion(&self, _p: Port) -> f64 {
                0.5
            }
        }
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Ugal { threshold: 0.0 }, 2);
        for seed in 0..20 {
            let path = walk(&t, &mut algo, &AllHot, 0, 3, seed);
            assert!(path.len() == 3, "valiant path expected, got {path:?}");
        }
    }

    #[test]
    #[should_panic(expected = "needs at least 2")]
    fn ugal_requires_two_vcs() {
        let t = Arc::new(HyperX::new(vec![4], 1).unwrap());
        let _ = HyperXRouting::new(t, HyperXMode::Ugal { threshold: 0.0 }, 1);
    }

    #[test]
    #[should_panic(expected = "at least 3 routers")]
    fn two_phase_routing_requires_an_intermediate_router() {
        let t = Arc::new(HyperX::new(vec![2], 1).unwrap());
        let _ = HyperXRouting::new(t, HyperXMode::Valiant, 2);
    }

    #[test]
    fn valiant_always_detours_and_delivers() {
        let t = Arc::new(HyperX::new(vec![6], 1).unwrap());
        let mut algo = HyperXRouting::new(Arc::clone(&t), HyperXMode::Valiant, 2);
        for seed in 0..16 {
            let path = walk(&t, &mut algo, &ZeroCongestion, 0, 3, seed);
            // Source router, random intermediate, destination router.
            assert_eq!(path.len(), 3, "expected a two-hop valiant path: {path:?}");
            assert_ne!(path[1], 3);
            assert_ne!(path[1], 0);
        }
    }
}
