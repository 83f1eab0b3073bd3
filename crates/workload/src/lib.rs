#![warn(missing_docs)]

//! Workload modeling for SuperSim-rs (paper §IV-A).
//!
//! The workload layer is strictly isolated from network modeling: traffic
//! generation has no baked-in assumptions about the topology, and any
//! network model works under any workload. The pieces:
//!
//! - [`TrafficPattern`]s decide destinations ([`UniformRandom`],
//!   [`BitComplement`], [`Tornado`], [`Transpose`], [`Neighbor`],
//!   [`CrossSubtree`], [`RandomPermutation`], [`Hotspot`], [`Incast`]),
//! - the [`BernoulliProcess`] decides timing, with
//!   [`SizeDistribution`]s for message sizes,
//! - [`Application`]s build one [`Terminal`] per endpoint ([`BlastApp`],
//!   [`PulseApp`], [`PingPongApp`]),
//! - the [`Interface`] component hosts the terminals of all applications
//!   on one endpoint, injecting and ejecting flits under credit flow
//!   control,
//! - the [`WorkloadMonitor`] runs the four-phase handshake
//!   (warming / generating / finishing / draining) that aligns all
//!   applications' areas of interest with the sampling window,
//! - [`push_workload_plane`] reports what the interfaces did: the
//!   `workload` metrics plane, the merged sample log and the span text.

mod blast;
mod injection;
mod interface;
mod monitor;
mod pingpong;
mod pulse;
mod report;
mod terminal;
mod traffic;

pub use blast::{BlastApp, BlastConfig};
pub use injection::{BernoulliProcess, SizeDistribution};
pub use interface::{
    spans_json_lines, Interface, InterfaceConfig, InterfaceCounters, InterfaceMetrics, SpanMetrics,
    SpanRecord,
};
pub use monitor::WorkloadMonitor;
pub use pingpong::{PingPongApp, PingPongConfig};
pub use pulse::{PulseApp, PulseConfig};
pub use report::{push_workload_plane, InterfaceLogs, WorkloadReport};
pub use terminal::{Application, MessageSpec, Terminal, TerminalAction};
pub use traffic::{
    BitComplement, CrossSubtree, Hotspot, Incast, Neighbor, RandomPermutation, Tornado,
    TrafficPattern, Transpose, UniformRandom,
};
