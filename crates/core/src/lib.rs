#![warn(missing_docs)]

//! The SuperSim-rs simulator core: configuration-driven assembly of
//! networks and workloads, the run facade, and experiment helpers.
//!
//! This crate is the paper's primary contribution reassembled in Rust: a
//! programmer-centric, extensible flit-level simulation framework. The
//! division of labor:
//!
//! - [`factory`] — name → constructor registries for every abstract
//!   component type (the paper's §III-D smart object factories). User code
//!   extends the simulator by registering new models, never by editing the
//!   framework.
//! - [`SuperSim`] — builds a simulation from a JSON configuration
//!   ([`supersim_config::Value`]) and runs all four workload phases to
//!   completion, returning a [`RunOutput`] with the sample log, phase
//!   times, and engine statistics.
//! - [`experiment`] — load-latency sweep execution.
//!
//! # Quickstart
//!
//! ```
//! use supersim_core::SuperSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = supersim_config::parse(include_str!("../../../configs/quickstart.json"))?;
//! let output = SuperSim::from_config(&config)?.run()?;
//! println!(
//!     "{} packets, mean latency {:.1} ticks",
//!     output.packets_delivered(),
//!     output.mean_packet_latency().unwrap_or(f64::NAN),
//! );
//! # Ok(())
//! # }
//! ```

mod builder;
pub mod checkpoint;
mod defaults;
mod error;
pub mod experiment;
pub mod factory;
#[cfg(unix)]
mod process;
mod progress;
mod report;
mod sim;
#[doc(hidden)]
pub mod testing;

pub use error::{BuildError, SimError};
pub use experiment::{run_load_sweep, LoadSweepSpec, SweepError};
pub use factory::{AppCtx, Factories, NetworkPlan, RouterCtx};
#[cfg(unix)]
pub use process::run_worker;
pub use report::{DiagnosticSnapshot, RouterDiag, RunOutput, RunReport};
pub use sim::SuperSim;
