//! Experiment helpers: load-latency sweeps.
//!
//! The primary method of describing network performance is the load versus
//! latency plot (paper §V, Figure 8); this module runs one simulation per
//! offered-load point — in parallel across available cores — and collects
//! a [`LoadSweep`] series.

use std::fmt;

use supersim_config::{ConfigError, Value};
use supersim_stats::analysis::{LoadPoint, LoadSweep};
use supersim_stats::Filter;

use crate::error::{BuildError, SimError};
use crate::sim::SuperSim;

/// Specification of one load-latency sweep.
#[derive(Debug, Clone)]
pub struct LoadSweepSpec {
    /// Base configuration; the sweep rewrites `load_paths` and `seed`.
    pub base: Value,
    /// Legend label of the resulting series.
    pub label: String,
    /// Offered loads in flits per tick per terminal, ascending.
    pub loads: Vec<f64>,
    /// Configuration paths receiving each offered load (usually
    /// `workload.applications.0.load`).
    pub load_paths: Vec<String>,
    /// SSParse-style filter terms applied to the records (e.g. `+app=0`).
    pub filter: Vec<String>,
}

impl LoadSweepSpec {
    /// A single-application sweep with no filtering.
    pub fn simple(base: Value, label: impl Into<String>, loads: Vec<f64>) -> Self {
        LoadSweepSpec {
            base,
            label: label.into(),
            loads,
            load_paths: vec!["workload.applications.0.load".to_string()],
            filter: Vec::new(),
        }
    }
}

/// Errors from running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// A point's configuration failed to build.
    Build {
        /// The offered load of the failing point.
        load: f64,
        /// The underlying error.
        source: BuildError,
    },
    /// A point's simulation failed.
    Sim {
        /// The offered load of the failing point.
        load: f64,
        /// The underlying error.
        source: SimError,
    },
    /// The filter expression was malformed.
    Filter(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Build { load, source } => {
                write!(f, "building the load={load} point failed: {source}")
            }
            SweepError::Sim { load, source } => {
                write!(f, "simulating the load={load} point failed: {source}")
            }
            SweepError::Filter(msg) => write!(f, "bad sweep filter: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Runs one point of a sweep.
fn run_point(spec: &LoadSweepSpec, index: usize, load: f64) -> Result<LoadPoint, SweepError> {
    let filter = Filter::parse_all(&spec.filter).map_err(|e| SweepError::Filter(e.to_string()))?;
    let config_error = |e| SweepError::Build {
        load,
        source: BuildError::Config(e),
    };
    let mut cfg = spec.base.clone();
    for path in &spec.load_paths {
        cfg.set_path(path, Value::Float(load))
            .map_err(config_error)?;
    }
    // Decorrelate the points without losing reproducibility. The point's
    // seed must stay a valid config integer (`i64`).
    let base = cfg.opt_u64("seed", 1).map_err(config_error)?;
    let seed = base
        .checked_add(index as u64)
        .and_then(|seed| i64::try_from(seed).ok())
        .ok_or_else(|| {
            config_error(ConfigError::invalid(
                "seed",
                format!("seed {base} + point {index} exceeds the largest config integer"),
            ))
        })?;
    cfg.set_path("seed", Value::Int(seed))
        .map_err(config_error)?;
    let sim = SuperSim::from_config(&cfg).map_err(|source| SweepError::Build { load, source })?;
    let output = sim
        .run()
        .map_err(|source| SweepError::Sim { load, source })?;
    output
        .load_point(load, &filter)
        .ok_or_else(|| SweepError::Sim {
            load,
            source: SimError::Model("run produced no sampling window".to_string()),
        })
}

/// Runs all points of a sweep, in parallel across available cores, and
/// returns the assembled series.
///
/// # Errors
///
/// Returns the first failing point's error.
pub fn run_load_sweep(spec: &LoadSweepSpec) -> Result<LoadSweep, SweepError> {
    let workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let mut results: Vec<Option<Result<LoadPoint, SweepError>>> =
        (0..spec.loads.len()).map(|_| None).collect();
    if workers <= 1 || spec.loads.len() <= 1 {
        for (i, &load) in spec.loads.iter().enumerate() {
            results[i] = Some(run_point(spec, i, load));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results_mx = std::sync::Mutex::new(&mut results);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(spec.loads.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= spec.loads.len() {
                        break;
                    }
                    let r = run_point(spec, i, spec.loads[i]);
                    results_mx.lock().expect("no panics hold this lock")[i] = Some(r);
                });
            }
        });
    }
    let mut sweep = LoadSweep::new(spec.label.clone());
    for r in results {
        sweep.push(r.expect("every index filled")?);
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quickstart() -> Value {
        supersim_config::parse(include_str!("../../../configs/quickstart.json"))
            .expect("valid JSON")
    }

    #[test]
    fn sweep_produces_monotone_series() {
        let spec = LoadSweepSpec::simple(quickstart(), "quickstart", vec![0.05, 0.2]);
        let sweep = run_load_sweep(&spec).expect("sweep runs");
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.points[0].delivered > 0.0);
        // More offered load delivers more (far from saturation).
        assert!(sweep.points[1].delivered > sweep.points[0].delivered);
        let l0 = sweep.points[0].latency.expect("sampled");
        assert!(l0.mean > 0.0);
    }

    #[test]
    fn invalid_seeds_are_build_errors() {
        // `SuperSim::from_config` rejects these seeds; the sweep must not
        // quietly run seeds 1, 2, ... instead.
        for seed in [Value::Int(-5), Value::from("x")] {
            let mut spec = LoadSweepSpec::simple(quickstart(), "x", vec![0.1]);
            spec.base.set_path("seed", seed).expect("object");
            assert!(matches!(
                run_load_sweep(&spec),
                Err(SweepError::Build {
                    source: BuildError::Config(_),
                    ..
                })
            ));
        }
        // The second point's seed does not fit the config's `i64`.
        let mut spec = LoadSweepSpec::simple(quickstart(), "x", vec![0.1, 0.2]);
        spec.base
            .set_path("seed", Value::Int(i64::MAX))
            .expect("object");
        let err = run_load_sweep(&spec).expect_err("seed overflow");
        assert!(
            matches!(
                &err,
                SweepError::Build {
                    source: BuildError::Config(ConfigError::Invalid { .. }),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn filter_errors_are_reported() {
        let mut spec = LoadSweepSpec::simple(quickstart(), "x", vec![0.1]);
        spec.filter = vec!["+nonsense=1".to_string()];
        assert!(matches!(run_load_sweep(&spec), Err(SweepError::Filter(_))));
    }
}
