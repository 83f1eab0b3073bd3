//! Minimal-adaptive routing for tori with Duato-style escape channels.
//!
//! At each router a head flit may move along *any* productive dimension
//! (one whose coordinate still differs from the destination's, taking the
//! shorter way around that ring), choosing the least congested option on
//! the *adaptive* virtual channels (VCs `2..v`). Deadlock freedom comes
//! from an *escape* sub-network — VCs 0 and 1 running strict
//! dimension-order routing with a **history-free dateline** class — that a
//! blocked packet can always fall back to, per Duato's theory. The router
//! re-routes a waiting head every switch cycle
//! ([`RoutingAlgorithm::reroutes`]), and this engine forces the escape
//! choice periodically so the fallback is always eventually taken.
//!
//! The history-free dateline: a packet moving *plus* in a ring of size `k`
//! uses class 0 while its coordinate is greater than the destination's
//! (the pre-wrap stretch) and class 1 afterwards; the class-0 set then
//! never contains the link `0 → 1` and the class-1 set never contains the
//! wrap link, so both are acyclic regardless of where a packet joined the
//! escape network. The minus direction mirrors this.

use std::sync::Arc;

use supersim_des::wire_overlay;
use supersim_netbase::{Flit, PacketId, Vc};

use crate::routing::{least_congested_vc, RouteChoice, RoutingAlgorithm, RoutingContext};
use crate::torus::Torus;
use crate::types::Topology;

/// How many consecutive routing attempts pick adaptively before one is
/// forced onto the escape path (liveness of the Duato fallback).
const ESCAPE_EVERY: u32 = 4;

/// Minimal-adaptive torus routing with escape VCs 0/1.
#[derive(Debug, Clone)]
pub struct AdaptiveTorusRouting {
    topology: Arc<Torus>,
    vcs: u32,
    /// Routing attempts for the packet currently at this engine's head.
    attempts: u32,
    last_packet: Option<PacketId>,
}

impl AdaptiveTorusRouting {
    /// Creates an adaptive torus engine.
    ///
    /// # Panics
    ///
    /// Panics if `vcs < 3`: two escape classes plus at least one adaptive
    /// VC are required.
    pub fn new(topology: Arc<Torus>, vcs: u32) -> Self {
        assert!(
            vcs >= 3,
            "adaptive torus routing needs at least 3 VCs (2 escape + adaptive)"
        );
        AdaptiveTorusRouting {
            topology,
            vcs,
            attempts: 0,
            last_packet: None,
        }
    }

    /// The history-free dateline class for a hop in `dim` from coordinate
    /// `c` toward `d` in direction `plus`.
    fn escape_class(c: u32, d: u32, plus: bool) -> Vc {
        let pre_wrap = if plus { c > d } else { c < d };
        if pre_wrap {
            0
        } else {
            1
        }
    }
}

impl RoutingAlgorithm for AdaptiveTorusRouting {
    fn name(&self) -> &str {
        "adaptive_torus"
    }

    fn vcs_required(&self) -> u32 {
        self.vcs
    }

    fn reroutes(&self) -> bool {
        true
    }

    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &self.topology;
        let (dst_router, dst_port) = t.terminal_attachment(flit.pkt.dst);
        if ctx.router == dst_router {
            let vc = least_congested_vc(ctx.congestion, dst_port, 0..self.vcs);
            return RouteChoice { port: dst_port, vc };
        }

        // Count attempts for this packet; every ESCAPE_EVERY-th attempt is
        // forced onto the escape path so a blocked head always eventually
        // tries the deadlock-free sub-network.
        if self.last_packet == Some(flit.pkt.id) {
            self.attempts = self.attempts.wrapping_add(1);
        } else {
            self.last_packet = Some(flit.pkt.id);
            self.attempts = 0;
        }
        let force_escape = self.attempts % ESCAPE_EVERY == ESCAPE_EVERY - 1;

        let pairs = || t.router_coords(ctx.router).zip(t.router_coords(dst_router));

        // Escape choice: strict dimension order on the escape classes.
        let (esc_dim, (ec, ed)) = pairs()
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("not at destination router");
        let (_, esc_plus) =
            Torus::ring_step(ec, ed, t.widths()[esc_dim]).expect("coordinates differ");
        let escape = RouteChoice {
            port: t.port_toward(esc_dim, esc_plus),
            vc: Self::escape_class(ec, ed, esc_plus),
        };
        if force_escape {
            return escape;
        }

        // Adaptive candidates: every productive dimension, shorter way,
        // least congested adaptive VC (2..v).
        let mut best: Option<(f64, RouteChoice)> = None;
        for (dim, (c, d)) in pairs().enumerate() {
            if c == d {
                continue;
            }
            let (_, plus) = Torus::ring_step(c, d, t.widths()[dim]).expect("differs");
            let port = t.port_toward(dim, plus);
            let vc = least_congested_vc(ctx.congestion, port, 2..self.vcs);
            let congestion = ctx.congestion.vc_congestion(port, vc);
            if best.as_ref().is_none_or(|(bc, _)| congestion < *bc) {
                best = Some((congestion, RouteChoice { port, vc }));
            }
        }
        let (adaptive_congestion, adaptive) = best.expect("at least one productive dim");

        // Prefer the adaptive path unless the escape path is strictly less
        // congested (e.g. the adaptive buffers are backed up).
        let escape_congestion = ctx.congestion.vc_congestion(escape.port, escape.vc);
        if escape_congestion < adaptive_congestion {
            escape
        } else {
            adaptive
        }
    }
}

wire_overlay!(AdaptiveTorusRouting {
    attempts,
    last_packet,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ZeroCongestion;
    use supersim_des::Rng;
    use supersim_netbase::{AppId, MessageId, PacketBuilder, TerminalId};

    fn head(id: u64, src: u32, dst: u32) -> Flit {
        PacketBuilder {
            id: PacketId(id),
            message: MessageId(id),
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

    fn walk(t: &Arc<Torus>, src: u32, dst: u32, seed: u64) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        let mut algo = AdaptiveTorusRouting::new(Arc::clone(t), 4);
        let mut flit = head(seed, src, dst);
        let (mut router, mut in_port) = t.terminal_attachment(TerminalId(src));
        let mut path = vec![router.0];
        for _ in 0..64 {
            let mut ctx = RoutingContext {
                router,
                input_port: in_port,
                input_vc: flit.vc,
                congestion: &ZeroCongestion,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if let Some(term) = t.terminal_at(router, choice.port) {
                assert_eq!(term, TerminalId(dst));
                return path;
            }
            let (next, arrive) = t.neighbor(router, choice.port).expect("wired");
            flit.vc = choice.vc;
            router = next;
            in_port = arrive;
            path.push(router.0);
        }
        panic!("packet lost");
    }

    #[test]
    fn all_pairs_minimal_length() {
        let t = Arc::new(Torus::new(vec![4, 3], 1).unwrap());
        for src in 0..12 {
            for dst in 0..12 {
                if src == dst {
                    continue;
                }
                let path = walk(&t, src, dst, 7);
                let hops = t.min_hops(TerminalId(src), TerminalId(dst)) as usize;
                assert_eq!(path.len(), hops + 1, "{src}->{dst}: {path:?}");
            }
        }
    }

    #[test]
    fn escape_class_is_history_free_and_acyclic() {
        // Plus direction: class 0 links never include 0 -> 1; class 1
        // links never include the wrap.
        let k = 8u32;
        for d in 0..k {
            for c in 0..k {
                if c == d {
                    continue;
                }
                let class = AdaptiveTorusRouting::escape_class(c, d, true);
                if c == 0 {
                    assert_eq!(class, 1, "link 0->1 must be class 1");
                }
                if c == k - 1 && class == 1 {
                    panic!("wrap link k-1 -> 0 must be class 0 when used (c={c}, d={d})");
                }
            }
        }
        // Minus direction mirrors: class 0 excludes k-1 -> k-2; class 1
        // excludes the minus wrap 0 -> k-1.
        for d in 0..k {
            for c in 0..k {
                if c == d {
                    continue;
                }
                let class = AdaptiveTorusRouting::escape_class(c, d, false);
                if c == k - 1 {
                    assert_eq!(class, 1, "link k-1 -> k-2 must be class 1");
                }
                if c == 0 {
                    assert_eq!(class, 0, "minus wrap must be class 0");
                }
            }
        }
    }

    #[test]
    fn forced_escape_fires_periodically() {
        let t = Arc::new(Torus::new(vec![4, 4], 1).unwrap());
        let mut algo = AdaptiveTorusRouting::new(Arc::clone(&t), 4);
        let mut rng = Rng::new(1);
        let mut flit = head(1, 0, 5); // router (0,0) -> (1,1): two productive dims
        let mut escape_hits = 0;
        for _ in 0..16 {
            let mut ctx = RoutingContext {
                router: supersim_netbase::RouterId(0),
                input_port: 0,
                input_vc: 0,
                congestion: &ZeroCongestion,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            if choice.vc < 2 {
                escape_hits += 1;
            }
        }
        assert_eq!(
            escape_hits, 4,
            "every 4th attempt must take the escape path"
        );
    }

    #[test]
    fn adaptive_vcs_used_when_uncongested() {
        let t = Arc::new(Torus::new(vec![4, 4], 1).unwrap());
        let mut algo = AdaptiveTorusRouting::new(Arc::clone(&t), 4);
        let mut rng = Rng::new(1);
        let mut flit = head(1, 0, 5);
        let mut ctx = RoutingContext {
            router: supersim_netbase::RouterId(0),
            input_port: 0,
            input_vc: 0,
            congestion: &ZeroCongestion,
            rng: &mut rng,
        };
        let choice = algo.route(&mut ctx, &mut flit);
        assert!(
            choice.vc >= 2,
            "first attempt should be adaptive, got vc {}",
            choice.vc
        );
    }

    #[test]
    #[should_panic(expected = "at least 3 VCs")]
    fn needs_three_vcs() {
        let t = Arc::new(Torus::new(vec![4], 1).unwrap());
        let _ = AdaptiveTorusRouting::new(t, 2);
    }
}
