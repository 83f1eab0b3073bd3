#![warn(missing_docs)]

//! Statistics, sampling, and analysis for SuperSim-rs (paper §V).
//!
//! During the sampling window a simulation records one [`SampleRecord`] per
//! delivered packet (and per message / transaction). This crate provides the
//! machinery the SuperSim tool ecosystem is built on:
//!
//! - [`SampleLog`] — the in-memory transaction log, serializable to the
//!   text format parsed by the `ssparse` tool,
//! - [`Filter`] — SSParse's filter language (`+app=0`, `+send=500-1000`),
//! - [`LatencyDistribution`] — means, standard deviations, minima/maxima,
//!   and *percentile distributions* (the paper stresses that latency
//!   distributions, not just averages, reveal effects such as phantom
//!   congestion),
//! - [`TimeSeries`] — binned latency-versus-time curves (Figure 5),
//! - [`ComponentSampler`]/[`WindowAggregate`] — the windowed time-series
//!   plane: ring-buffered per-window integer aggregates filled by the
//!   engine's sampling hook, with order-independent mean/max/p99 folds,
//! - [`analysis`] — load-latency sweep aggregation and saturation
//!   detection (Figure 8 and the case studies),
//! - [`StreamingStats`] — constant-space mean/variance accumulators,
//! - [`metrics`] — the observability plane: zero-allocation counters,
//!   gauges, and log₂-bucketed histograms embedded in hot components,
//!   plus the [`MetricsSnapshot`] layer serialized through the in-tree
//!   JSON writer.

pub mod analysis;
mod distribution;
mod filter;
pub mod host;
pub mod metrics;
mod record;
pub mod snapshot;
mod streaming;
mod timeseries;

pub use distribution::LatencyDistribution;
pub use filter::{Filter, FilterError, FilterTerm};
pub use host::{CkptTimes, HostClock, HostData, ProgressLine, TraceEventBuilder};
pub use metrics::{
    Counter, Gauge, Histogram, MetricName, MetricSample, MetricValue, MetricsSnapshot,
};
pub use record::{RecordKind, Records, SampleLog, SampleRecord};
pub use streaming::StreamingStats;
pub use timeseries::{
    fold_windows, intern_series, timeseries_json_lines, ComponentSampler, FoldedWindow, TimeSeries,
    WindowAggregate, WindowSample,
};
