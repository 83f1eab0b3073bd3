#![warn(missing_docs)]

//! Shared network vocabulary for SuperSim-rs.
//!
//! This crate defines the types that every layer of the simulator speaks:
//!
//! - identifiers ([`TerminalId`], [`RouterId`], [`PacketId`], ...),
//! - the flit/packet/message data model ([`Flit`], [`PacketInfo`]) — a
//!   *flit* (flow control digit) is the smallest unit of resource
//!   allocation in a router, and flit-level modeling is what distinguishes
//!   SuperSim from packet- and flow-level simulators,
//! - credit-based flow control bookkeeping ([`CreditCounter`]),
//! - channel wiring descriptors ([`LinkTarget`]),
//! - the global simulation event type [`Ev`] exchanged by all components,
//! - the four-phase workload protocol vocabulary ([`Phase`], [`AppSignal`],
//!   [`PhaseCommand`]; paper §IV-A Figure 4),
//! - the error-detection invariants of paper §IV-D
//!   ([`DeliveryChecker`], [`CreditCounter`] underflow checks, buffer
//!   overrun guards),
//! - the deterministic fault plane ([`FaultPlane`], [`LinkFaults`],
//!   [`FaultError`]): stochastic/scheduled link outages, bit-error
//!   corruption caught by the flit header checksum, credit loss, and the
//!   stop-and-wait link-level retransmission protocol that recovers from
//!   them — bit-identical across engine backends for one
//!   `(configuration, seed)`,
//! - the flit-event tracing vocabulary ([`TraceKind`], [`FlitTraceExt`])
//!   over the engine's generic trace plane — filtered
//!   collection that is free when disabled, engine-agnostic (the sharded
//!   backend merges records back into canonical order), and serializes
//!   to JSON-lines ([`trace_json_lines`]).

mod arena;
mod check;
mod credit;
mod event;
mod fault;
mod flit;
mod ids;
mod link;
mod phase;
mod trace;
mod wire;

pub use arena::{FlitArena, FlitHandle, FlitMeta};
pub use check::{CheckError, DeliveryChecker};
pub use credit::{CreditCounter, CreditError};
pub use event::Ev;
pub use fault::{
    retry_port, retry_tag, FaultConfig, FaultCounters, FaultError, FaultPlane, LinkFaults, LinkId,
    ScheduledOutage, RETRY_TAG,
};
pub use flit::{Flit, FlitSpan, PacketBuilder, PacketInfo, SpanBreakdown};
pub use ids::{AppId, MessageId, PacketId, Port, RouterId, TerminalId, Vc, Via};
pub use link::LinkTarget;
pub use phase::{AppSignal, Phase, PhaseCommand};
pub use trace::{trace_json_lines, FlitTraceExt, TraceKind, TraceRecord};
