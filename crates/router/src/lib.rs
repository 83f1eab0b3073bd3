#![warn(missing_docs)]

//! Router microarchitectures for SuperSim-rs (paper §IV-C).
//!
//! One [`Router`] component: a shared skeleton ([`RouterCore`] — ports,
//! flit arena, input buffers, route table, credits, congestion sensor,
//! event handling, pipeline wake-up, fault protocol, sampling,
//! checkpointing) driven once per switch cycle by the architecture's
//! composition of at most three stages:
//!
//! | architecture | route stage | input stage | output stage |
//! |---|---|---|---|
//! | [`Router::output_queued`] | shared | conflict-free transfer under an owner table (OQ's own) | output-queue drain |
//! | [`Router::input_queued`] | shared, re-routing until the packet starts | crossbar, judged against downstream credits, onto the channel | — |
//! | [`Router::input_output_queued`] | shared | crossbar, judged against output-queue space, into the output queues | output-queue drain |
//!
//! - OQ is the idealistic architecture: zero head-of-line blocking, no
//!   scheduling conflicts, infinite or finite output queues. Used by case
//!   study A (latent congestion detection).
//! - IQ is the standard input-queued architecture with full crossbar
//!   input speedup; flits wait in input queues until downstream credits
//!   are available. Used by case study C (flow control techniques).
//! - IOQ is the combined input/output-queued architecture with input and
//!   output speedup; flits wait at the inputs only for *output queue*
//!   credits and at the outputs for downstream credits. Used by case
//!   study B (congestion credit accounting).
//!
//! What stays with an architecture is deliberate: OQ's infinite queues and
//! owner table, IOQ's link-gate wake-up, the RNG draw OQ and IOQ make
//! before draining, and each one's pipeline re-arm rule.
//!
//! The building blocks (arbiters, buffers, crossbar schedulers, congestion
//! sensors) are public so user-defined architectures can be assembled from
//! them, mirroring the paper's extensibility story.
//!
//! At the end of a run, [`push_router_planes`] reports the routers'
//! `router_<r>` and `profile` metrics planes.

mod arbiter;
#[cfg(test)]
mod arch_tests;
mod buffer;
mod common;
mod congestion;
#[cfg(test)]
mod fused_model;
mod ioq;
mod iq;
mod metrics;
mod oq;
mod report;
mod skeleton;
mod snapshot;
mod stages;
#[cfg(test)]
mod testutil;
mod xbar_sched;

pub use arbiter::{
    arbiter_by_name, AgeBasedArbiter, Arbiter, FixedPriorityArbiter, RandomArbiter, Request,
    RoundRobinArbiter,
};
pub use buffer::VcBuffer;
pub use common::{RouterError, RouterPorts, RoutingFactory};
pub use congestion::{
    CongestionGranularity, CongestionSensor, CongestionSource, DelayedValue, SensorConfig,
};
pub use metrics::RouterMetrics;
pub use report::{push_router_planes, RouterReport};
pub use skeleton::{Router, RouterConfig, RouterCore, RouterCounters};
pub use stages::XbarConfig;
pub use xbar_sched::{FlowControl, OutputScheduler};
