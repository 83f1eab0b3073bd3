//! The routing algorithm abstraction.
//!
//! Routing algorithms are constructed per router input port (each input
//! port's routing engine operates independently — a property case study A
//! shows to matter) and invoked once per head flit. Adaptive algorithms
//! consult the router's [`CongestionView`], which the router
//! microarchitecture implements; the paper's latent-congestion and
//! credit-accounting case studies are experiments on *what that view
//! reports*.

pub mod dor;
pub mod dragonfly_routing;
pub mod hyperx_routing;
pub mod torus_adaptive;
pub mod updown;

use supersim_des::wire::Overlay;
use supersim_des::Rng;

use supersim_netbase::{Flit, Port, RouterId, Vc};

/// A router's view of its own output congestion, as seen by routing
/// engines.
///
/// Values are normalized occupancies: 0.0 = completely free, 1.0 = full.
/// What exactly is counted (output queues, downstream credits, or both; per
/// VC or per port) and how stale the view is are properties of the router's
/// congestion sensor configuration.
pub trait CongestionView {
    /// Congestion of output (`port`, `vc`).
    fn vc_congestion(&self, port: Port, vc: Vc) -> f64;

    /// Congestion of the whole output `port`.
    fn port_congestion(&self, port: Port) -> f64;
}

/// A congestion view reporting zero everywhere; useful for testing routing
/// algorithms' structural decisions in isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroCongestion;

impl CongestionView for ZeroCongestion {
    fn vc_congestion(&self, _port: Port, _vc: Vc) -> f64 {
        0.0
    }
    fn port_congestion(&self, _port: Port) -> f64 {
        0.0
    }
}

/// Everything a routing engine may consult while routing one head flit.
pub struct RoutingContext<'a> {
    /// The router this engine lives in.
    pub router: RouterId,
    /// The input port the head flit arrived on.
    pub input_port: Port,
    /// The input VC the head flit arrived on.
    pub input_vc: Vc,
    /// The router's congestion view.
    pub congestion: &'a dyn CongestionView,
    /// Deterministic randomness for oblivious decisions.
    pub rng: &'a mut Rng,
}

/// The outcome of routing one head flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// Output port to take.
    pub port: Port,
    /// Virtual channel to request on that output.
    pub vc: Vc,
}

supersim_des::wire_struct!(RouteChoice { port, vc });

/// A routing algorithm instance bound to one router input port.
///
/// Implementations may mutate the head flit to carry routing state with the
/// packet (e.g. the Valiant intermediate router in
/// [`Flit::inter`]). State an engine carries across `route` calls is its
/// [`Overlay`], saved at every checkpoint.
pub trait RoutingAlgorithm: Overlay + Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Number of VCs this algorithm requires of the router.
    fn vcs_required(&self) -> u32;

    /// Whether the router should *re-route* a head flit on every switch
    /// cycle until its packet starts transmitting. Fully adaptive
    /// algorithms with escape channels (Duato-style) return `true` so a
    /// blocked head can fall back to the escape path; deterministic and
    /// source-decided algorithms keep the default `false`.
    fn reroutes(&self) -> bool {
        false
    }

    /// Routes a head flit, returning the output port and VC.
    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice;
}

/// Selects the least congested VC of `port` among `vcs`, breaking ties by
/// lower VC number. Shared by several algorithms.
pub(crate) fn least_congested_vc(
    view: &dyn CongestionView,
    port: Port,
    vcs: impl Iterator<Item = Vc>,
) -> Vc {
    let mut best: Option<(f64, Vc)> = None;
    for vc in vcs {
        let c = view.vc_congestion(port, vc);
        match best {
            Some((bc, _)) if bc <= c => {}
            _ => best = Some((c, vc)),
        }
    }
    best.expect("vc candidate set must be non-empty").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_choice_codec_is_total() {
        supersim_des::wire::testing::check_codec(1, 40, |r| RouteChoice {
            port: r.gen_u64() as u32,
            vc: r.gen_u64() as u32 % 16,
        });
    }

    struct FakeView;
    impl CongestionView for FakeView {
        fn vc_congestion(&self, _port: Port, vc: Vc) -> f64 {
            match vc {
                0 => 0.9,
                1 => 0.2,
                2 => 0.2,
                _ => 1.0,
            }
        }
        fn port_congestion(&self, _port: Port) -> f64 {
            0.5
        }
    }

    #[test]
    fn least_congested_vc_picks_minimum_with_low_tie_break() {
        let vc = least_congested_vc(&FakeView, 0, 0..4);
        assert_eq!(vc, 1);
    }

    #[test]
    fn zero_congestion_reports_zero() {
        assert_eq!(ZeroCongestion.vc_congestion(3, 1), 0.0);
        assert_eq!(ZeroCongestion.port_congestion(9), 0.0);
    }
}
