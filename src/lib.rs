//! # SuperSim-rs
//!
//! An extensible flit-level simulator for large-scale interconnection
//! networks — a Rust reproduction of *SuperSim* (McDonald et al., ISPASS
//! 2018).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! - [`des`] — the discrete-event simulation engine (ticks + epsilons,
//!   multi-clock designs).
//! - [`config`] — JSON configuration with command-line overrides.
//! - [`netbase`] — flits, packets, messages, credits, channels, and the
//!   error-detection invariants of paper §IV-D.
//! - [`topology`] — torus, folded Clos, HyperX/flattened butterfly,
//!   dragonfly, and their routing algorithms.
//! - [`router`] — OQ / IQ / IOQ microarchitectures and their building
//!   blocks (arbiters, allocators, crossbar schedulers, congestion sensors).
//! - [`workload`] — the four-phase workload state machine, applications
//!   (Blast, Pulse, ...), traffic patterns, and injection processes.
//! - [`stats`] — sample logs, latency distributions, percentiles, and
//!   load-latency analysis.
//! - [`core`] — the simulator facade that assembles everything from a
//!   configuration and runs it, and `run_load_sweep`, the one sweep
//!   runner (SSSweep's role).
//! - [`scenario`] — the scenario compiler: compact declarations expand
//!   deterministically into full configurations (`supersim --scenario`).
//! - [`tools`] — the SSParse / SSPlot / SSReport tool ecosystem.
//!
//! # Quickstart
//!
//! ```
//! use supersim::core::SuperSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = supersim::config::parse(include_str!("../configs/quickstart.json"))?;
//! let output = SuperSim::from_config(&config)?.run()?;
//! assert!(output.packets_delivered() > 0);
//! # Ok(())
//! # }
//! ```

pub use supersim_config as config;
pub use supersim_core as core;
pub use supersim_des as des;
pub use supersim_netbase as netbase;
pub use supersim_router as router;
pub use supersim_scenario as scenario;
pub use supersim_stats as stats;
pub use supersim_tools as tools;
pub use supersim_topology as topology;
pub use supersim_workload as workload;
