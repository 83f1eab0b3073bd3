#![warn(missing_docs)]

//! Topologies and routing algorithms for SuperSim-rs (paper §IV-B).
//!
//! A [`Topology`] defines the shape of the network: how many routers and
//! terminals exist, how terminals attach to routers, and how router ports
//! wire to each other. A [`RoutingAlgorithm`] decides, per head flit, which
//! output port and virtual channel to take; adaptive algorithms consult the
//! router's [`CongestionView`]. The router microarchitecture and the
//! topology with its routing algorithm are modeled independently, exactly
//! as in the paper: routers obtain routing algorithm instances through a
//! factory supplied by the network.
//!
//! Provided topologies:
//!
//! - [`Torus`] — k-ary n-cube with per-dimension widths (paper §VI-C uses
//!   an 8×8×8×8 4-D torus),
//! - [`FoldedClos`] — L-level fat tree (paper §VI-A uses a 3-level,
//!   4096-terminal folded Clos),
//! - [`HyperX`] — fully-connected dimensions; covers the 1-D flattened
//!   butterfly of §VI-B and the hypercube,
//! - [`Dragonfly`] — groups of routers with all-to-all global links.
//!
//! Provided routing algorithms:
//!
//! - [`DimOrderRouting`] — deterministic dimension-order routing for tori
//!   with dateline VC classes,
//! - [`UpDownRouting`] — adaptive (least congested) or deterministic
//!   up-routing for folded Clos,
//! - [`HyperXRouting`] — minimal DOR and UGAL (min vs Valiant by
//!   congestion) for HyperX,
//! - [`DragonflyRouting`] — minimal and UGAL global adaptive routing.

mod clos;
mod dragonfly;
mod hyperx;
mod partition;
pub mod routing;
mod torus;
mod types;

pub use clos::FoldedClos;
pub use dragonfly::Dragonfly;
pub use hyperx::HyperX;
pub use partition::{cut_links, partition_routers};
pub use routing::dor::DimOrderRouting;
pub use routing::dragonfly_routing::{DragonflyMode, DragonflyRouting};
pub use routing::hyperx_routing::{HyperXMode, HyperXRouting};
pub use routing::torus_adaptive::AdaptiveTorusRouting;
pub use routing::updown::{UpDownMode, UpDownRouting};
pub use routing::{CongestionView, RouteChoice, RoutingAlgorithm, RoutingContext, ZeroCongestion};
pub use torus::Torus;
pub use types::{ChannelClass, Topology, TopologyError};
