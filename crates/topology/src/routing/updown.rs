//! Up/down routing for folded-Clos networks (paper §VI-A).
//!
//! While the destination is outside the current router's subtree the packet
//! climbs; any up port leads to a valid common ancestor, so the choice is
//! free. [`UpDownMode::Adaptive`] picks the least congested up port (the
//! algorithm of Kim et al.'s "Adaptive Routing in High-Radix Clos
//! Networks", used in case study A); [`UpDownMode::Deterministic`] picks a
//! hash of the destination, keeping each flow on one path. The descent is
//! fully determined by the destination address.

use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_netbase::{Flit, Port};

use crate::clos::FoldedClos;
use crate::routing::{least_congested_vc, RouteChoice, RoutingAlgorithm, RoutingContext};

/// Up-port selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpDownMode {
    /// Least congested up port, random tie break.
    Adaptive,
    /// Destination-hashed up port: oblivious and flow-stable.
    Deterministic,
}

/// Up/down routing on a [`FoldedClos`].
#[derive(Debug, Clone)]
pub struct UpDownRouting {
    topology: Arc<FoldedClos>,
    mode: UpDownMode,
    vcs: u32,
    /// The adaptive tie list, allocated once with capacity `k` and cleared
    /// on every call. Scratch, not state: no checkpoint carries it.
    ties: Vec<Port>,
}

impl UpDownRouting {
    /// Creates an up/down engine.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    pub fn new(topology: Arc<FoldedClos>, mode: UpDownMode, vcs: u32) -> Self {
        assert!(vcs > 0, "at least one VC required");
        let ties = Vec::with_capacity(topology.k() as usize);
        UpDownRouting {
            topology,
            mode,
            vcs,
            ties,
        }
    }

    fn pick_up_port(&mut self, ctx: &mut RoutingContext<'_>, flit: &Flit) -> Port {
        let k = self.topology.k();
        let base = self.topology.up_port_base();
        match self.mode {
            UpDownMode::Deterministic => {
                // Knuth multiplicative hash of the destination spreads
                // flows across up ports while keeping each flow stable.
                base + flit.pkt.dst.0.wrapping_mul(2_654_435_761) % k
            }
            UpDownMode::Adaptive => {
                // Least congested up port; random tie break so that
                // simultaneous engines do not all pile onto port 0.
                let best = &mut self.ties;
                best.clear();
                let mut best_c = f64::INFINITY;
                for u in 0..k {
                    let c = ctx.congestion.port_congestion(base + u);
                    if c < best_c {
                        best_c = c;
                        best.clear();
                        best.push(base + u);
                    } else if c == best_c {
                        best.push(base + u);
                    }
                }
                best[ctx.rng.gen_range(0..best.len())]
            }
        }
    }
}

wire_overlay!(UpDownRouting {});

impl RoutingAlgorithm for UpDownRouting {
    fn name(&self) -> &str {
        match self.mode {
            UpDownMode::Adaptive => "adaptive_updown",
            UpDownMode::Deterministic => "deterministic_updown",
        }
    }

    fn vcs_required(&self) -> u32 {
        self.vcs
    }

    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &self.topology;
        let port = if t.subtree_contains(ctx.router, flit.pkt.dst) {
            // Descend (or eject): the address digit names the down port.
            t.down_port_toward(t.router_level(ctx.router), flit.pkt.dst)
        } else {
            self.pick_up_port(ctx, flit)
        };
        let vc = least_congested_vc(ctx.congestion, port, 0..self.vcs);
        RouteChoice { port, vc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{CongestionView, ZeroCongestion};
    use crate::types::Topology;
    use supersim_des::Rng;
    use supersim_netbase::{AppId, MessageId, PacketBuilder, PacketId, TerminalId, Vc};

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

    fn walk(t: &Arc<FoldedClos>, mode: UpDownMode, src: u32, dst: u32) -> Vec<u32> {
        let mut rng = Rng::new(11);
        let mut algo = UpDownRouting::new(Arc::clone(t), mode, 1);
        let mut flit = head(src, dst);
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(src));
        let mut path = vec![router.0];
        for _ in 0..32 {
            let mut ctx = RoutingContext {
                router,
                input_port: in_port,
                input_vc: 0,
                congestion: &ZeroCongestion,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if let Some(term) = t.terminal_at(router, choice.port) {
                assert_eq!(term, TerminalId(dst));
                return path;
            }
            let (next, arrive) = t.neighbor(router, choice.port).expect("wired");
            router = next;
            in_port = arrive;
            path.push(router.0);
        }
        panic!("packet lost in the clos");
    }

    #[test]
    fn all_pairs_reach_destination_both_modes() {
        let t = Arc::new(FoldedClos::new(3, 3).unwrap());
        for mode in [UpDownMode::Adaptive, UpDownMode::Deterministic] {
            for src in (0..27).step_by(5) {
                for dst in 0..27 {
                    if src == dst {
                        continue;
                    }
                    let path = walk(&t, mode, src, dst);
                    let hops = t.min_hops(TerminalId(src), TerminalId(dst)) as usize;
                    assert_eq!(path.len(), hops + 1, "{mode:?} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn same_leaf_goes_straight_down() {
        let t = Arc::new(FoldedClos::new(3, 4).unwrap());
        let path = walk(&t, UpDownMode::Adaptive, 0, 3);
        assert_eq!(path.len(), 1); // never leaves the leaf router
    }

    #[test]
    fn deterministic_mode_is_path_stable() {
        let t = Arc::new(FoldedClos::new(3, 4).unwrap());
        let a = walk(&t, UpDownMode::Deterministic, 0, 63);
        let b = walk(&t, UpDownMode::Deterministic, 0, 63);
        assert_eq!(a, b);
    }

    /// A view that makes up port 1 (absolute port k+1) look bad.
    struct BiasedView {
        bad_port: Port,
    }
    impl CongestionView for BiasedView {
        fn vc_congestion(&self, port: Port, _vc: Vc) -> f64 {
            self.port_congestion(port)
        }
        fn port_congestion(&self, port: Port) -> f64 {
            if port == self.bad_port {
                0.9
            } else {
                0.1
            }
        }
    }

    #[test]
    fn adaptive_mode_avoids_congested_up_port() {
        let t = Arc::new(FoldedClos::new(2, 4).unwrap());
        let mut algo = UpDownRouting::new(Arc::clone(&t), UpDownMode::Adaptive, 1);
        let mut rng = Rng::new(3);
        let bad = t.up_port_base() + 1;
        let view = BiasedView { bad_port: bad };
        // Destination outside the leaf's subtree forces an up hop.
        let (router, _) = t.terminal_attachment(TerminalId(0));
        for _ in 0..32 {
            let mut ctx = RoutingContext {
                router,
                input_port: 0,
                input_vc: 0,
                congestion: &view,
                rng: &mut rng,
            };
            let mut flit = head(0, 15);
            let choice = algo.route(&mut ctx, &mut flit);
            assert_ne!(choice.port, bad, "picked the congested up port");
            assert!(choice.port >= t.up_port_base());
        }
    }

    #[test]
    fn adaptive_tie_break_spreads_choices() {
        let t = Arc::new(FoldedClos::new(2, 4).unwrap());
        let mut algo = UpDownRouting::new(Arc::clone(&t), UpDownMode::Adaptive, 1);
        let mut rng = Rng::new(3);
        let (router, _) = t.terminal_attachment(TerminalId(0));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let mut ctx = RoutingContext {
                router,
                input_port: 0,
                input_vc: 0,
                congestion: &ZeroCongestion,
                rng: &mut rng,
            };
            let mut flit = head(0, 15);
            seen.insert(algo.route(&mut ctx, &mut flit).port);
        }
        assert!(seen.len() > 1, "tie break never varied the port");
    }
}
