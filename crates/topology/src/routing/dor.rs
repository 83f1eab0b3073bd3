//! Dimension-order routing (DOR) for tori, with dateline VC classes.
//!
//! Dimensions are corrected in index order; within a dimension the shorter
//! way around the ring is taken. Deadlock freedom on the rings follows the
//! classic dateline scheme: virtual channels are split into two classes,
//! packets start a dimension in class 0 and switch to class 1 on the hop
//! that crosses the wrap-around link. With `v` VCs configured, class 0 owns
//! VCs `0..v/2` and class 1 owns `v/2..v`; within a class the least
//! congested VC is chosen, so configurations with 4 or 8 VCs (paper case
//! study C) use all of them.

use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_netbase::{Flit, Vc};

use crate::routing::{least_congested_vc, RouteChoice, RoutingAlgorithm, RoutingContext};
use crate::torus::Torus;
use crate::types::Topology;

/// Dimension-order routing on a [`Torus`].
///
/// One instance serves one router input port, as in the paper's
/// architecture where every input port has an independent routing engine.
#[derive(Debug, Clone)]
pub struct DimOrderRouting {
    topology: Arc<Torus>,
    vcs: u32,
}

impl DimOrderRouting {
    /// Creates a DOR engine for a router of the given torus with `vcs`
    /// virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is not an even number of at least 2 — the dateline
    /// scheme needs two equal VC classes.
    pub fn new(topology: Arc<Torus>, vcs: u32) -> Self {
        assert!(
            vcs >= 2 && vcs.is_multiple_of(2),
            "dateline DOR needs an even number of VCs (>= 2)"
        );
        DimOrderRouting { topology, vcs }
    }

    /// VC candidates of a dateline class.
    fn class_vcs(&self, class: u32) -> std::ops::Range<Vc> {
        let half = self.vcs / 2;
        (class * half)..((class + 1) * half)
    }
}

wire_overlay!(DimOrderRouting {});

impl RoutingAlgorithm for DimOrderRouting {
    fn name(&self) -> &str {
        "dimension_order"
    }

    fn vcs_required(&self) -> u32 {
        self.vcs
    }

    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &self.topology;
        let (dst_router, dst_port) = t.terminal_attachment(flit.pkt.dst);
        if ctx.router == dst_router {
            // Ejection: any VC of the terminal port.
            let vc = least_congested_vc(ctx.congestion, dst_port, 0..self.vcs);
            return RouteChoice { port: dst_port, vc };
        }
        // First differing dimension, in index order.
        let (dim, (c, d)) = t
            .router_coords(ctx.router)
            .zip(t.router_coords(dst_router))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("not at destination router, so some coordinate differs");
        let w = t.widths()[dim];
        let (_, plus) = Torus::ring_step(c, d, w).expect("coordinates differ");
        let port = t.port_toward(dim, plus);

        // Dateline class: carry class 1 within a dimension once the wrap
        // link has been crossed; reset on entering a new dimension.
        let crossing_now = (plus && c == w - 1) || (!plus && c == 0);
        let same_dim = t
            .port_direction(ctx.input_port)
            .is_some_and(|(in_dim, _)| in_dim == dim);
        let in_class = u32::from(ctx.input_vc >= self.vcs / 2);
        let class = if crossing_now || (same_dim && in_class == 1) {
            1
        } else {
            0
        };
        let vc = least_congested_vc(ctx.congestion, port, self.class_vcs(class));
        RouteChoice { port, vc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ZeroCongestion;
    use supersim_des::Rng;
    use supersim_netbase::{AppId, MessageId, PacketBuilder, PacketId, RouterId, TerminalId};

    fn head(dst: u32) -> Flit {
        PacketBuilder {
            id: PacketId(1),
            message: MessageId(1),
            app: AppId(0),
            src: TerminalId(0),
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

    fn ctx_at<'a>(
        router: RouterId,
        input_port: u32,
        input_vc: u32,
        rng: &'a mut Rng,
    ) -> RoutingContext<'a> {
        RoutingContext {
            router,
            input_port,
            input_vc,
            congestion: &ZeroCongestion,
            rng,
        }
    }

    /// Walk a packet from src to dst, returning visited routers and VCs.
    fn walk(t: &Arc<Torus>, src: u32, dst: u32) -> (Vec<u32>, Vec<u32>) {
        let mut rng = Rng::new(7);
        let mut algo = DimOrderRouting::new(Arc::clone(t), 2);
        let mut flit = head(dst);
        flit.pkt = Arc::new(supersim_netbase::PacketInfo {
            src: TerminalId(src),
            ..(*flit.pkt).clone()
        });
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(src));
        let mut in_vc = 0;
        let mut routers = vec![router.0];
        let mut vcs = vec![];
        for _ in 0..64 {
            let mut c = ctx_at(router, in_port, in_vc, &mut rng);
            let choice = algo.route(&mut c, &mut flit);
            if let Some(term) = t.terminal_at(router, choice.port) {
                assert_eq!(term, TerminalId(dst), "ejected at wrong terminal");
                return (routers, vcs);
            }
            vcs.push(choice.vc);
            let (next, arrive_port) = t.neighbor(router, choice.port).expect("wired port");
            router = next;
            in_port = arrive_port;
            in_vc = choice.vc;
            routers.push(router.0);
        }
        panic!("packet did not reach destination");
    }

    #[test]
    fn routes_minimally_on_a_ring() {
        let t = Arc::new(Torus::new(vec![8], 1).unwrap());
        let (routers, _) = walk(&t, 1, 4);
        assert_eq!(routers, vec![1, 2, 3, 4]);
        // The short way wraps for 1 -> 7.
        let (routers, _) = walk(&t, 1, 7);
        assert_eq!(routers, vec![1, 0, 7]);
    }

    #[test]
    fn corrects_dimensions_in_order() {
        let t = Arc::new(Torus::new(vec![4, 4], 1).unwrap());
        // src (1,0), dst (3,1): dim0 first (1->2->3 the short way), then dim1.
        let src = 1;
        let dst = 3 + 4;
        let (routers, _) = walk(&t, src, dst);
        assert_eq!(routers, vec![1, 2, 3, 3 + 4]);
    }

    #[test]
    fn dateline_switches_vc_class() {
        let t = Arc::new(Torus::new(vec![8], 1).unwrap());
        // 6 -> 1 the short way: 6,7,0,1 crossing the wrap link 7->0.
        let (routers, vcs) = walk(&t, 6, 1);
        assert_eq!(routers, vec![6, 7, 0, 1]);
        // Hops: 6->7 class 0, 7->0 crosses (class 1), 0->1 stays class 1.
        assert_eq!(vcs, vec![0, 1, 1]);
    }

    #[test]
    fn class_resets_on_new_dimension() {
        let t = Arc::new(Torus::new(vec![4, 4], 1).unwrap());
        // src (3,3) dst (1,1): dim0 wraps 3->0->1 (class 1 after cross),
        // then dim1 wraps 3->0->1 but restarts in class 0 until its cross.
        let src = 3 + 3 * 4;
        let dst = 1 + 4;
        let (_, vcs) = walk(&t, src, dst);
        assert_eq!(vcs, vec![1, 1, 1, 1]);
        // dim0: 3->0 crosses immediately (class 1), 0->1 class 1;
        // dim1: 3->0 crosses immediately (class 1), 0->1 class 1.
    }

    #[test]
    fn non_wrapping_path_stays_class_zero() {
        let t = Arc::new(Torus::new(vec![8], 1).unwrap());
        let (_, vcs) = walk(&t, 1, 4);
        assert_eq!(vcs, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "even number of VCs")]
    fn odd_vcs_rejected() {
        let t = Arc::new(Torus::new(vec![4], 1).unwrap());
        let _ = DimOrderRouting::new(t, 3);
    }

    #[test]
    fn all_pairs_reach_destination_small_torus() {
        let t = Arc::new(Torus::new(vec![3, 3], 1).unwrap());
        for src in 0..9 {
            for dst in 0..9 {
                if src == dst {
                    continue;
                }
                let (routers, _) = walk(&t, src, dst);
                // Path length == min hops + 1 routers.
                let expect = t.min_hops(TerminalId(src), TerminalId(dst)) as usize + 1;
                assert_eq!(routers.len(), expect, "{src}->{dst}");
            }
        }
    }
}
