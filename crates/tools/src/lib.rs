#![warn(missing_docs)]

//! The SuperSim tool ecosystem (paper §V).
//!
//! The common workflow for a simulation experiment is configure →
//! simulate → parse → analyze → plot → view; this crate provides the
//! supporting tools. Sweeps are not here: a load sweep is
//! `supersim_core::run_load_sweep`, and every other axis is a plain loop
//! around it (as the figure binaries do).
//!
//! - [`ssparse`] — **SSParse**: parse sample logs, apply `+field=value`
//!   filters, and compute latency/hop statistics for packets, messages,
//!   and transactions.
//! - [`ssplot`] — **SSPlot**: emit the data series behind the paper's
//!   plots (load-latency with percentile distributions, percentile
//!   curves, time series) as CSV, plus quick ASCII charts.
//! - [`ssreport`] — **SSReport**: render end-of-run metrics snapshots
//!   (the observability plane) as text reports and as the CSV shapes
//!   SSPlot already consumes.

pub mod ssparse;
pub mod ssplot;
pub mod ssreport;

pub use ssparse::{analyze, analyze_text, Analysis, KindAnalysis, SsparseError};
pub use ssplot::{
    ascii_chart, histogram_csv, latent_congestion_figure, load_latency_csv, parse_timeseries,
    percentile_csv, timeseries_csv, timeseries_windows_csv, TsPoint, TsWindow,
};
pub use ssreport::{
    checkpoint_host_report, counters_csv, fault_report, histogram_ascii, histogram_ascii_report,
    histogram_names, histogram_report, host_profile_report, report_text, shard_report,
};
