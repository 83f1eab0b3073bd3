//! Minimal and UGAL routing for dragonfly networks.
//!
//! The minimal path is local → global → local (at most one of each). UGAL
//! chooses per packet, at the source router, between the minimal path and a
//! Valiant path through a random intermediate *group*, comparing first-hop
//! congestion weighted by estimated path length.
//!
//! Deadlock freedom uses the standard hop-ladder: the VC number equals the
//! number of router-to-router hops already taken (capped at the top VC), so
//! channel dependencies only ever climb the ladder. Minimal routing needs
//! 3 VCs, UGAL needs 6.

use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_netbase::{Flit, Port, RouterId, Vc, Via};

use crate::dragonfly::Dragonfly;
use crate::routing::{RouteChoice, RoutingAlgorithm, RoutingContext};
use crate::types::Topology;

/// Path selection policy for dragonfly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DragonflyMode {
    /// Minimal local/global/local routing.
    Minimal,
    /// UGAL with the given non-minimal bias threshold.
    Ugal {
        /// Additive bias favoring the minimal path.
        threshold: f64,
    },
}

/// Minimal / UGAL routing on a [`Dragonfly`].
#[derive(Debug, Clone)]
pub struct DragonflyRouting {
    topology: Arc<Dragonfly>,
    mode: DragonflyMode,
    vcs: u32,
}

impl DragonflyRouting {
    /// Creates a dragonfly routing engine.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is below the ladder depth the mode requires
    /// (3 for minimal, 6 for UGAL), or if the mode is UGAL and the network
    /// has fewer than 3 groups: UGAL draws an intermediate group other
    /// than the source and destination groups, and with 2 none exists.
    pub fn new(topology: Arc<Dragonfly>, mode: DragonflyMode, vcs: u32) -> Self {
        let need = match mode {
            DragonflyMode::Minimal => 3,
            DragonflyMode::Ugal { .. } => 6,
        };
        assert!(vcs >= need, "dragonfly {mode:?} needs at least {need} VCs");
        if matches!(mode, DragonflyMode::Ugal { .. }) {
            assert!(
                topology.num_groups() >= 3,
                "dragonfly UGAL needs at least 3 groups"
            );
        }
        DragonflyRouting {
            topology,
            mode,
            vcs,
        }
    }

    /// Next output port of the minimal path from `router` toward
    /// `target_router`; `None` when already there.
    fn min_port(&self, router: RouterId, target_router: RouterId) -> Option<Port> {
        let t = &self.topology;
        if router == target_router {
            return None;
        }
        let (my_group, my_local) = t.router_position(router);
        let (dst_group, dst_local) = t.router_position(target_router);
        if my_group == dst_group {
            return Some(t.local_port_toward(router, dst_local));
        }
        let (exit_router, exit_port) = t.global_exit(my_group, dst_group);
        if exit_router == router {
            Some(exit_port)
        } else {
            let (_, exit_local) = t.router_position(exit_router);
            debug_assert_ne!(exit_local, my_local);
            Some(t.local_port_toward(router, exit_local))
        }
    }

    /// Remaining minimal hop estimate from `router` to `target_router`.
    fn hops_between(&self, router: RouterId, target_router: RouterId) -> u32 {
        let t = &self.topology;
        if router == target_router {
            return 0;
        }
        let (mg, _) = t.router_position(router);
        let (dg, _) = t.router_position(target_router);
        if mg == dg {
            return 1;
        }
        let (exit, _) = t.global_exit(mg, dg);
        let (entry, _) = t.global_exit(dg, mg);
        u32::from(exit != router) + 1 + u32::from(entry != target_router)
    }

    /// The VC for the next hop under the hop-ladder scheme.
    fn ladder_vc(&self, flit: &Flit) -> Vc {
        (flit.hops as u32).min(self.vcs - 1)
    }
}

wire_overlay!(DragonflyRouting {});

impl RoutingAlgorithm for DragonflyRouting {
    fn name(&self) -> &str {
        match self.mode {
            DragonflyMode::Minimal => "dragonfly_minimal",
            DragonflyMode::Ugal { .. } => "dragonfly_ugal",
        }
    }

    fn vcs_required(&self) -> u32 {
        self.vcs
    }

    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &*self.topology;
        let (dst_router, dst_port) = t.terminal_attachment(flit.pkt.dst);

        if flit.inter.map(Via::router) == Some(ctx.router) {
            flit.inter = None;
        }

        if ctx.router == dst_router && flit.inter.is_none() {
            return RouteChoice {
                port: dst_port,
                vc: self.ladder_vc(flit),
            };
        }

        let at_source = t.terminal_at(ctx.router, ctx.input_port).is_some();
        if at_source {
            if let DragonflyMode::Ugal { threshold } = self.mode {
                let (my_group, _) = t.router_position(ctx.router);
                let (dst_group, _) = t.router_position(dst_router);
                if my_group != dst_group {
                    // Random intermediate group and router within it.
                    let g = t.num_groups();
                    let mut ig = ctx.rng.gen_range(0..g);
                    while ig == my_group || ig == dst_group {
                        ig = ctx.rng.gen_range(0..g);
                    }
                    let inter = t.router_id(ig, ctx.rng.gen_range(0..t.routers_per_group()));
                    let h_min = self.hops_between(ctx.router, dst_router);
                    let h_non =
                        self.hops_between(ctx.router, inter) + self.hops_between(inter, dst_router);
                    let p_min = self.min_port(ctx.router, dst_router).expect("differs");
                    let p_non = self.min_port(ctx.router, inter).expect("differs");
                    let q_min = ctx.congestion.port_congestion(p_min);
                    let q_non = ctx.congestion.port_congestion(p_non);
                    if q_min * h_min as f64 > q_non * h_non as f64 + threshold {
                        flit.inter = Some(Via::new(inter).expect("a router id below u32::MAX"));
                        return RouteChoice {
                            port: p_non,
                            vc: self.ladder_vc(flit),
                        };
                    }
                }
            }
        }

        let target = flit.inter.map_or(dst_router, Via::router);
        let port = self.min_port(ctx.router, target).expect("target differs");
        RouteChoice {
            port,
            vc: self.ladder_vc(flit),
        }
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
        t: &Arc<Dragonfly>,
        algo: &mut DragonflyRouting,
        view: &dyn CongestionView,
        src: u32,
        dst: u32,
        seed: u64,
    ) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        let mut flit = head(src, dst);
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(src));
        let mut path = vec![router.0];
        for _ in 0..16 {
            let mut ctx = RoutingContext {
                router,
                input_port: in_port,
                input_vc: flit.vc,
                congestion: view,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if let Some(term) = t.terminal_at(router, choice.port) {
                assert_eq!(term, TerminalId(dst));
                return path;
            }
            let (next, arrive) = t.neighbor(router, choice.port).expect("wired");
            flit.vc = choice.vc;
            flit.hops += 1;
            router = next;
            in_port = arrive;
            path.push(router.0);
        }
        panic!("packet lost in the dragonfly");
    }

    #[test]
    fn minimal_all_pairs_within_three_hops() {
        let t = Arc::new(Dragonfly::new(3, 2, 2).unwrap()); // 7 groups, 21 routers
        let mut algo = DragonflyRouting::new(Arc::clone(&t), DragonflyMode::Minimal, 3);
        for src in 0..t.num_terminals() {
            for dst in 0..t.num_terminals() {
                if src == dst {
                    continue;
                }
                let path = walk(&t, &mut algo, &ZeroCongestion, src, dst, 3);
                let hops = t.min_hops(TerminalId(src), TerminalId(dst)) as usize;
                assert_eq!(path.len(), hops + 1, "{src}->{dst}: {path:?}");
            }
        }
    }

    #[test]
    fn ladder_vcs_increase_along_path() {
        let t = Arc::new(Dragonfly::new(3, 2, 2).unwrap());
        let mut algo = DragonflyRouting::new(Arc::clone(&t), DragonflyMode::Minimal, 3);
        let mut rng = Rng::new(1);
        let mut flit = head(0, t.num_terminals() - 1);
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(0));
        let mut vcs = vec![];
        for _ in 0..8 {
            let mut ctx = RoutingContext {
                router,
                input_port: in_port,
                input_vc: flit.vc,
                congestion: &ZeroCongestion,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if t.terminal_at(router, choice.port).is_some() {
                break;
            }
            vcs.push(choice.vc);
            let (next, arrive) = t.neighbor(router, choice.port).unwrap();
            flit.hops += 1;
            router = next;
            in_port = arrive;
        }
        assert!(
            vcs.windows(2).all(|w| w[0] < w[1]),
            "vcs not increasing: {vcs:?}"
        );
    }

    #[test]
    fn ugal_uncongested_stays_minimal() {
        let t = Arc::new(Dragonfly::new(3, 2, 2).unwrap());
        let mut algo =
            DragonflyRouting::new(Arc::clone(&t), DragonflyMode::Ugal { threshold: 0.0 }, 6);
        let dst = t.num_terminals() - 1;
        let path = walk(&t, &mut algo, &ZeroCongestion, 0, dst, 17);
        let hops = t.min_hops(TerminalId(0), TerminalId(dst)) as usize;
        assert_eq!(path.len(), hops + 1);
    }

    #[test]
    fn ugal_congested_takes_valiant_and_delivers() {
        let t = Arc::new(Dragonfly::new(3, 2, 2).unwrap());
        let mut algo =
            DragonflyRouting::new(Arc::clone(&t), DragonflyMode::Ugal { threshold: 0.0 }, 6);
        // Make the source router's minimal first hop look congested.
        struct Hot(Port);
        impl CongestionView for Hot {
            fn vc_congestion(&self, port: Port, _vc: Vc) -> f64 {
                self.port_congestion(port)
            }
            fn port_congestion(&self, port: Port) -> f64 {
                if port == self.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
        let dst = t.num_terminals() - 1;
        let (src_router, _) = t.terminal_attachment(TerminalId(0));
        let (dst_router, _) = t.terminal_attachment(TerminalId(dst));
        let inner = DragonflyRouting::new(Arc::clone(&t), DragonflyMode::Minimal, 3);
        let hot = inner.min_port(src_router, dst_router).unwrap();
        let min_hops = t.min_hops(TerminalId(0), TerminalId(dst)) as usize;
        let mut took_longer = false;
        for seed in 0..10 {
            let path = walk(&t, &mut algo, &Hot(hot), 0, dst, seed);
            if path.len() > min_hops + 1 {
                took_longer = true;
            }
        }
        assert!(took_longer, "ugal never took a non-minimal path");
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn insufficient_vcs_rejected() {
        let t = Arc::new(Dragonfly::new(3, 2, 2).unwrap());
        let _ = DragonflyRouting::new(t, DragonflyMode::Ugal { threshold: 0.0 }, 3);
    }

    #[test]
    #[should_panic(expected = "at least 3 groups")]
    fn ugal_requires_an_intermediate_group() {
        let t = Arc::new(Dragonfly::new(1, 1, 1).unwrap());
        let _ = DragonflyRouting::new(t, DragonflyMode::Ugal { threshold: 0.0 }, 6);
    }
}
