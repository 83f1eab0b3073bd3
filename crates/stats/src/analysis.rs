//! Load-latency analysis (paper Figure 8 and the case studies).
//!
//! The primary method used to describe network performance is the load
//! versus latency plot: a sweep of injection rates, each summarized by a
//! latency distribution, with the plot line stopping where the network
//! saturates (a saturated network yields unbounded latency).

use crate::distribution::LatencyDistribution;

/// A compact summary of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
}

impl LatencySummary {
    /// Summarizes a distribution; returns `None` when it is empty.
    pub fn of(dist: &mut LatencyDistribution) -> Option<LatencySummary> {
        if dist.is_empty() {
            return None;
        }
        Some(LatencySummary {
            count: dist.count() as u64,
            mean: dist.mean().expect("non-empty"),
            min: dist.min().expect("non-empty"),
            max: dist.max().expect("non-empty"),
            p50: dist.percentile(50.0).expect("non-empty"),
            p90: dist.percentile(90.0).expect("non-empty"),
            p99: dist.percentile(99.0).expect("non-empty"),
            p999: dist.percentile(99.9).expect("non-empty"),
            p9999: dist.percentile(99.99).expect("non-empty"),
        })
    }
}

/// One point of a load-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load in flits per tick per terminal.
    pub offered: f64,
    /// Delivered (accepted) load in flits per tick per terminal.
    pub delivered: f64,
    /// Latency summary of sampled packets, absent when nothing was sampled.
    pub latency: Option<LatencySummary>,
}

impl LoadPoint {
    /// Whether the network failed to deliver the offered load within
    /// `tolerance` (e.g. 0.05 for 5%): the saturation criterion used to cut
    /// plot lines.
    pub fn is_saturated(&self, tolerance: f64) -> bool {
        self.delivered < self.offered * (1.0 - tolerance)
    }
}

/// A named series of load points — one line of a load-latency plot.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// Legend label for the series.
    pub label: String,
    /// Points in increasing offered-load order.
    pub points: Vec<LoadPoint>,
}

impl LoadSweep {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        LoadSweep {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: LoadPoint) {
        self.points.push(point);
    }

    /// The highest delivered load across the sweep — the measured
    /// saturation throughput, in flits per tick per terminal.
    pub fn saturation_throughput(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.delivered)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Points up to (and excluding) the first saturated point, mirroring
    /// how the paper's plots cut lines at saturation.
    pub fn unsaturated_prefix(&self, tolerance: f64) -> &[LoadPoint] {
        let cut = self
            .points
            .iter()
            .position(|p| p.is_saturated(tolerance))
            .unwrap_or(self.points.len());
        &self.points[..cut]
    }

    /// Mean latency at the lowest offered load, if available — the
    /// "zero-load latency" approximation.
    pub fn zero_load_latency(&self) -> Option<f64> {
        self.points.first().and_then(|p| p.latency.map(|l| l.mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_point_and_saturation() {
        let point = |offered, delivered| LoadPoint {
            offered,
            delivered,
            latency: None,
        };
        assert!(point(0.5, 0.04).is_saturated(0.05));
        assert!(!point(0.02, 0.02).is_saturated(0.05));
    }

    #[test]
    fn latency_summary() {
        let mut dist: LatencyDistribution = (1..=100u64).collect();
        let s = LatencySummary::of(&mut dist).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(LatencySummary::of(&mut LatencyDistribution::new()).is_none());
    }

    #[test]
    fn sweep_cuts_at_saturation() {
        let mut sweep = LoadSweep::new("fb");
        for (offered, delivered) in [(0.1, 0.1), (0.2, 0.2), (0.3, 0.21), (0.4, 0.21)] {
            sweep.push(LoadPoint {
                offered,
                delivered,
                latency: None,
            });
        }
        assert_eq!(sweep.unsaturated_prefix(0.05).len(), 2);
        assert!((sweep.saturation_throughput().unwrap() - 0.21).abs() < 1e-12);
    }

    #[test]
    fn zero_load_latency_reads_first_point() {
        let mut sweep = LoadSweep::new("x");
        assert_eq!(sweep.zero_load_latency(), None);
        let mut dist: LatencyDistribution = [10u64, 20].into_iter().collect();
        sweep.push(LoadPoint {
            offered: 0.01,
            delivered: 0.01,
            latency: LatencySummary::of(&mut dist),
        });
        assert_eq!(sweep.zero_load_latency(), Some(15.0));
    }
}
