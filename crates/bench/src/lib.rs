//! Shared harness for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's framework and evaluation sections
//! has a binary in `src/bin/` that reruns the underlying experiment and
//! prints the series the paper plots (also written as CSV under
//! `target/experiments/`). Binaries default to laptop-scale versions of
//! the paper's configurations and accept `--full` for paper scale; the
//! *shape* of each result (who wins, by roughly what factor, where
//! crossovers fall) is the reproduction target, not absolute numbers.
//! Load sweeps go through `supersim_core::run_load_sweep`; the other axes
//! of a figure are loops in its binary.

use std::path::PathBuf;

use supersim_config::Value;
use supersim_core::{RunOutput, SuperSim};
use supersim_stats::analysis::LoadPoint;
use supersim_stats::RecordKind;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults (hundreds of terminals, shorter windows).
    Small,
    /// The paper's full-scale parameters (Table I).
    Full,
}

impl Scale {
    /// Parses process arguments: `--full` selects [`Scale::Full`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Small
        }
    }

    /// Picks between the small and full variants of a parameter.
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Creates (if needed) and returns the experiment output directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes an artifact file and reports where it went.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, contents).expect("write experiment artifact");
    println!("wrote {}", path.display());
}

/// Runs one configuration to completion, panicking with context on error
/// (figure binaries are front-line tools; failures should be loud).
pub fn run(config: &Value, what: &str) -> RunOutput {
    let sim = SuperSim::from_config(config)
        .unwrap_or_else(|e| panic!("{what}: configuration rejected: {e}"));
    sim.run()
        .unwrap_or_else(|e| panic!("{what}: simulation failed: {e}"))
}

/// Fraction of sampled packets that took a non-minimal path, judged by
/// comparing recorded hop counts against the caller-supplied minimal
/// router count for each (src, dst) record.
pub fn nonminimal_fraction(out: &RunOutput, min_routers: impl Fn(u32, u32) -> u16) -> f64 {
    let mut nonmin = 0u64;
    let mut total = 0u64;
    for r in out.log.of_kind(RecordKind::Packet) {
        total += 1;
        if r.hops > min_routers(r.src, r.dst) {
            nonmin += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        nonmin as f64 / total as f64
    }
}

/// Formats a percentile row used by several figures.
pub fn percentile_row(point: &LoadPoint) -> String {
    match point.latency {
        Some(l) => format!(
            "{:.3},{:.3},{:.2},{},{},{},{},{}",
            point.offered, point.delivered, l.mean, l.p50, l.p90, l.p99, l.p999, l.p9999
        ),
        None => format!("{:.3},{:.3},,,,,,", point.offered, point.delivered),
    }
}

/// The shared CSV header matching [`percentile_row`].
pub const PERCENTILE_HEADER: &str = "offered,delivered,mean,p50,p90,p99,p999,p9999";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Small.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn percentile_row_formats() {
        let p = LoadPoint {
            offered: 0.5,
            delivered: 0.49,
            latency: None,
        };
        assert_eq!(percentile_row(&p), "0.500,0.490,,,,,,");
        assert_eq!(PERCENTILE_HEADER.split(',').count(), 8);
    }
}
