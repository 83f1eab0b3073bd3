//! Low-overhead metrics: counters, gauges, log-bucketed histograms, and
//! the snapshot (the observability plane's data model).
//!
//! # Design
//!
//! The simulator is single-threaded and hot: recording a metric must cost
//! a couple of integer instructions and **never allocate**. The
//! primitives here — [`Counter`], [`Gauge`], [`Histogram`] — are plain
//! embeddable structs; components own them as fields and bump them
//! directly (no `Rc`, no locks, no trait objects on the record path).
//! [`Histogram`] uses a fixed-size array of power-of-two buckets and
//! records with shift/mask arithmetic only: **no floats on the record
//! path** (floating point enters only in reporting accessors such as
//! [`Histogram::mean`]).
//!
//! A [`MetricsSnapshot`] is assembled **on demand** at the end of a run:
//! each plane is pushed by the crate that owns its counters, visiting the
//! owners of the embedded primitives. Snapshots serialize to JSON through
//! the workspace's own `supersim-config` writer and back, so the
//! observability plane stays zero-dependency.
//!
//! All record-path operations saturate instead of wrapping: a counter
//! that hits `u64::MAX` stays there, which keeps pathological runs
//! observable rather than panicking or wrapping to small values.

use std::borrow::Cow;

use supersim_config::Value;

/// Number of histogram buckets: one for value 0, then one per power of
/// two up to `2^63..=u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    pub(crate) value: u64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter { value: 0 }
    }

    /// Adds one, saturating at `u64::MAX`.
    #[inline]
    pub fn inc(&mut self) {
        self.value = self.value.saturating_add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// An instantaneous level with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    pub(crate) value: u64,
    pub(crate) max: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge { value: 0, max: 0 }
    }

    /// Sets the current level, updating the high-water mark.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.value = v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Largest level ever set.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// A log₂-bucketed `u64` histogram with a fixed-size bucket array.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Recording is branch-free integer arithmetic
/// (`leading_zeros` + saturating adds); percentiles and means are
/// reporting-path conveniences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// The inclusive `(low, high)` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS, "bucket index out of range");
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one observation. Saturates; never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = &mut self.buckets[Self::bucket_index(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket array.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Mean observation, or `None` when empty (reporting path).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 ..= 1.0`), or `None` when empty (reporting path).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// Adds all of `other`'s observations to `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Rebuilds a histogram from raw log₂ bucket counts (shorter slices
    /// are zero-extended) plus externally tracked count/sum — the bridge
    /// for subsystems (like the DES engine) that keep raw bucket arrays
    /// to stay dependency-free.
    ///
    /// # Panics
    ///
    /// Panics if `counts` has more than [`HIST_BUCKETS`] entries.
    pub fn from_log2_counts(counts: &[u64], count: u64, sum: u64) -> Self {
        assert!(counts.len() <= HIST_BUCKETS, "too many buckets");
        let mut h = Histogram::new();
        h.buckets[..counts.len()].copy_from_slice(counts);
        h.count = count;
        h.sum = sum;
        h
    }

    /// The non-empty buckets as `(bucket_low_bound, count)` pairs — the
    /// shape the `ssplot` histogram CSV consumes.
    pub fn nonzero_bins(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bounds(i).0, c))
            .collect()
    }
}

/// One metric's snapshotted value.
///
/// A snapshot holds a handful of samples per component — ten per router
/// on a large torus — and most are counters and gauges, so the histogram
/// is boxed: every sample stays three words, and only a histogram sample
/// pays for its 65 buckets.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous level plus high-water mark.
    Gauge {
        /// Level at snapshot time.
        value: u64,
        /// Largest level observed.
        max: u64,
    },
    /// Full log₂ histogram.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    /// Short kind name used in the JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A component or metric name: nearly every one is a literal, borrowed
/// for free; a generated one (`router_3`, `occupancy_port_2`) or a parsed
/// one is owned.
pub type MetricName = Cow<'static, str>;

/// One named metric of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Component that owns the metric (e.g. `engine`, `router_3`).
    pub component: MetricName,
    /// Metric name within the component (e.g. `credit_stalls`).
    pub name: MetricName,
    /// The snapshotted value.
    pub value: MetricValue,
}

/// A point-in-time collection of metric samples, serializable to JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more samples, so a plane that knows
    /// its size is pushed without regrowing the list.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Adds one sample.
    pub fn push(
        &mut self,
        component: impl Into<MetricName>,
        name: impl Into<MetricName>,
        value: MetricValue,
    ) {
        self.samples.push(MetricSample {
            component: component.into(),
            name: name.into(),
            value,
        });
    }

    /// Adds a counter sample.
    pub fn push_counter(
        &mut self,
        component: impl Into<MetricName>,
        name: impl Into<MetricName>,
        value: u64,
    ) {
        self.push(component, name, MetricValue::Counter(value));
    }

    /// Adds a gauge sample.
    pub fn push_gauge(
        &mut self,
        component: impl Into<MetricName>,
        name: impl Into<MetricName>,
        gauge: Gauge,
    ) {
        self.push(
            component,
            name,
            MetricValue::Gauge {
                value: gauge.get(),
                max: gauge.max(),
            },
        );
    }

    /// Adds a histogram sample.
    pub fn push_histogram(
        &mut self,
        component: impl Into<MetricName>,
        name: impl Into<MetricName>,
        hist: &Histogram,
    ) {
        self.push(component, name, MetricValue::Histogram(Box::new(*hist)));
    }

    /// All samples, in insertion order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Looks up a sample by component and metric name.
    pub fn get(&self, component: &str, name: &str) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| s.component == component && s.name == name)
            .map(|s| &s.value)
    }

    /// Serializes to a JSON array of sample objects.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.samples
                .iter()
                .map(|s| {
                    let mut v = Value::object();
                    v.set_path("component", Value::Str(s.component.to_string()))
                        .expect("object");
                    v.set_path("name", Value::Str(s.name.to_string()))
                        .expect("object");
                    v.set_path("kind", Value::Str(s.value.kind().to_string()))
                        .expect("object");
                    match &s.value {
                        MetricValue::Counter(c) => {
                            v.set_path("value", int(*c)).expect("object");
                        }
                        MetricValue::Gauge { value, max } => {
                            v.set_path("value", int(*value)).expect("object");
                            v.set_path("max", int(*max)).expect("object");
                        }
                        MetricValue::Histogram(h) => {
                            v.set_path("count", int(h.count())).expect("object");
                            v.set_path("sum", int(h.sum())).expect("object");
                            // Trailing zero buckets are elided; shorter
                            // arrays re-expand on parse.
                            let last = h
                                .buckets()
                                .iter()
                                .rposition(|&c| c > 0)
                                .map_or(0, |i| i + 1);
                            v.set_path(
                                "buckets",
                                Value::Array(h.buckets()[..last].iter().map(|&c| int(c)).collect()),
                            )
                            .expect("object");
                        }
                    }
                    v
                })
                .collect(),
        )
    }

    /// Compact JSON text of [`MetricsSnapshot::to_value`].
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses the JSON form back.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntactic or structural
    /// problem.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let value = supersim_config::parse(text).map_err(|e| e.to_string())?;
        let arr = value
            .as_array()
            .ok_or("metrics snapshot JSON must be an array")?;
        let mut snap = MetricsSnapshot::new();
        for (i, v) in arr.iter().enumerate() {
            let err = || format!("malformed metric sample at index {i}");
            let component = v.get("component").and_then(Value::as_str).ok_or_else(err)?;
            let name = v.get("name").and_then(Value::as_str).ok_or_else(err)?;
            let kind = v.get("kind").and_then(Value::as_str).ok_or_else(err)?;
            let value = match kind {
                "counter" => {
                    MetricValue::Counter(v.get("value").and_then(Value::as_u64).ok_or_else(err)?)
                }
                "gauge" => MetricValue::Gauge {
                    value: v.get("value").and_then(Value::as_u64).ok_or_else(err)?,
                    max: v.get("max").and_then(Value::as_u64).ok_or_else(err)?,
                },
                "histogram" => {
                    let count = v.get("count").and_then(Value::as_u64).ok_or_else(err)?;
                    let sum = v.get("sum").and_then(Value::as_u64).ok_or_else(err)?;
                    let buckets = v.get("buckets").and_then(Value::as_array).ok_or_else(err)?;
                    if buckets.len() > HIST_BUCKETS {
                        return Err(err());
                    }
                    let counts: Option<Vec<u64>> = buckets.iter().map(Value::as_u64).collect();
                    MetricValue::Histogram(Box::new(Histogram::from_log2_counts(
                        &counts.ok_or_else(err)?,
                        count,
                        sum,
                    )))
                }
                _ => return Err(err()),
            };
            snap.push(component.to_string(), name.to_string(), value);
        }
        Ok(snap)
    }
}

fn int(v: u64) -> Value {
    // The in-tree JSON integer is i64; metric magnitudes beyond i64::MAX
    // (only reachable through saturation) clamp rather than wrap.
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "counter must saturate");
        c.add(100);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut g = Gauge::new();
        g.set(5);
        g.set(17);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 17);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly the value 0.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i >= 1 covers [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high bound of bucket {i}");
            if i > 0 {
                let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
                assert_eq!(lo, prev_hi + 1, "buckets must tile the u64 range");
            }
        }
    }

    #[test]
    fn histogram_records_and_reports() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_010);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2); // 2 and 3
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(1.0), Some(Histogram::bucket_bounds(20).1));
        assert!(h.mean().unwrap() > 0.0);
    }

    #[test]
    fn histogram_saturates() {
        let mut h = Histogram::from_log2_counts(&[u64::MAX], u64::MAX, u64::MAX);
        h.record(0);
        assert_eq!(h.buckets()[0], u64::MAX);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 102);
        assert_eq!(a.buckets()[1], 2);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert!(h.nonzero_bins().is_empty());
    }

    #[test]
    fn snapshot_json_round_trip() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(70_000);
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("engine", "events_executed", 1234);
        snap.push(
            "engine",
            "queue_len",
            MetricValue::Gauge { value: 3, max: 99 },
        );
        snap.push_histogram("workload", "packet_latency", &h);
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back.samples(), snap.samples());
        assert_eq!(
            back.get("engine", "queue_len"),
            Some(&MetricValue::Gauge { value: 3, max: 99 })
        );
        // Empty snapshots round-trip too.
        let empty = MetricsSnapshot::new();
        assert_eq!(MetricsSnapshot::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn snapshot_json_rejects_malformed_input() {
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json(r#"[{"component":"x"}]"#).is_err());
        assert!(
            MetricsSnapshot::from_json(r#"[{"component":"x","name":"y","kind":"nope"}]"#).is_err()
        );
    }

    /// A snapshot pushes about ten samples per router, nearly all
    /// counters and gauges, so a sample is paid for at its own size, not
    /// at a histogram's.
    #[test]
    fn metric_samples_keep_their_size() {
        use std::mem::size_of;
        assert!(
            size_of::<MetricValue>() <= 24,
            "MetricValue is {} bytes",
            size_of::<MetricValue>()
        );
        assert!(
            size_of::<MetricSample>() <= 72,
            "MetricSample is {} bytes",
            size_of::<MetricSample>()
        );
    }

    #[test]
    fn nonzero_bins_match_ssplot_shape() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(9);
        h.record(9);
        assert_eq!(h.nonzero_bins(), vec![(0, 1), (8, 2)]);
    }
}
