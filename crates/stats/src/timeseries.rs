//! Binned time series, e.g. mean latency over time (paper Figure 5),
//! plus the windowed sampling plane: ring-buffered per-window aggregates
//! ([`ComponentSampler`]) filled by the engine's
//! `Component::sample` hook and folded into deterministic JSON-lines at
//! the end of a run.

use std::collections::{BTreeMap, VecDeque};

use supersim_config::push_uint;

use crate::metrics::Histogram;
use crate::record::SampleRecord;
use crate::streaming::StreamingStats;

/// Aggregates samples into fixed-width time bins.
///
/// Used for transient analyses such as the Blast/Pulse experiment where the
/// mean latency of one application is plotted over time while another
/// application disturbs the network.
///
/// # Example
///
/// ```
/// use supersim_stats::TimeSeries;
///
/// let mut ts = TimeSeries::new(100);
/// ts.push(50, 10.0);   // bin 0
/// ts.push(60, 20.0);   // bin 0
/// ts.push(250, 99.0);  // bin 2
/// let pts = ts.points();
/// assert_eq!(pts[0], (0, Some(15.0)));
/// assert_eq!(pts[1], (100, None));    // empty bin
/// assert_eq!(pts[2], (200, Some(99.0)));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: u64,
    bins: Vec<StreamingStats>,
}

impl TimeSeries {
    /// Creates a series with the given bin width in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be non-zero");
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// The configured bin width in ticks.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Adds a sample value observed at `tick`.
    pub fn push(&mut self, tick: u64, value: f64) {
        let idx = (tick / self.bin_width) as usize;
        if idx >= self.bins.len() {
            self.bins.resize_with(idx + 1, StreamingStats::new);
        }
        self.bins[idx].push(value);
    }

    /// Adds a record's latency at its receive time — the natural way to
    /// build a latency-over-time curve from a sample log.
    pub fn push_record(&mut self, record: &SampleRecord) {
        self.push(record.recv, record.latency() as f64);
    }

    /// `(bin_start_tick, mean)` for every bin; `None` marks empty bins.
    pub fn points(&self) -> Vec<(u64, Option<f64>)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mean = (s.count() > 0).then(|| s.mean());
                (i as u64 * self.bin_width, mean)
            })
            .collect()
    }

    /// `(bin_start_tick, count)` for every bin.
    pub fn counts(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64 * self.bin_width, s.count()))
            .collect()
    }

    /// Number of bins allocated so far.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The largest bin mean, if any bin has samples — a quick measure of a
    /// transient spike's height.
    pub fn peak_mean(&self) -> Option<f64> {
        self.bins
            .iter()
            .filter(|s| s.count() > 0)
            .map(StreamingStats::mean)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// Integer-only aggregate of one series over one sampling window.
///
/// Everything reported from a window — count, sum, max, and the log₂
/// bucket array behind the p99 estimator — is built from saturating
/// integer arithmetic, so merging aggregates is associative and
/// commutative and the fold over shards/components is byte-identical in
/// any order. Means are derived at reporting time as `sum / count`; the
/// p99 uses the same bucket-upper-bound estimator as
/// [`Histogram::percentile`], which depends only on the bucket counts,
/// never on observation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAggregate {
    pub(crate) hist: Histogram,
    pub(crate) max: u64,
}

impl Default for WindowAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowAggregate {
    /// An empty aggregate.
    pub const fn new() -> Self {
        WindowAggregate {
            hist: Histogram::new(),
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.hist.record(v);
        self.max = self.max.max(v);
    }

    /// Folds another aggregate into this one (exact: merging partials in
    /// any order yields the same result as recording every observation
    /// into one aggregate).
    pub fn merge(&mut self, other: &WindowAggregate) {
        self.hist.merge(&other.hist);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.hist.sum()
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.hist.mean()
    }

    /// Order-independent p99 estimate (log₂ bucket upper bound), or
    /// `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.hist.percentile(0.99)
    }

    /// General percentile with the same bucket estimator as
    /// [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.hist.percentile(p)
    }
}

/// One closed sampling window of one component: the window's closing edge
/// plus the values the component reported.
///
/// `scalars` are single per-window observations (a counter delta, a
/// queue-depth snapshot); `dists` carry full distributions accumulated
/// during the window (e.g. the latency of every packet delivered in it).
/// Both fold across components into [`WindowAggregate`]s.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// The closing edge tick: the window covers `[edge - interval, edge)`.
    pub edge: u64,
    /// `(series, value)` single observations, in the component's fixed
    /// reporting order.
    pub scalars: Vec<(&'static str, u64)>,
    /// `(series, aggregate)` distributions accumulated during the window,
    /// sorted by series name. Held at exact size: a run keeps every
    /// closed window of every component until the end.
    pub dists: Box<[(&'static str, WindowAggregate)]>,
}

/// A component's ring buffer of closed sampling windows.
///
/// Components record distribution observations as they happen
/// ([`ComponentSampler::record`]) and close the pending window when the
/// engine crosses a window edge ([`ComponentSampler::close`]). The ring
/// keeps the most recent `capacity` windows; older windows are evicted
/// oldest-first and counted, so a bounded-memory run still reports how
/// much history it dropped. Every component of a run uses the same
/// capacity and closes the same edges, so all rings retain exactly the
/// same window set — the fold over components never sees ragged history.
#[derive(Debug, Clone)]
pub struct ComponentSampler {
    pub(crate) capacity: usize,
    pub(crate) windows: VecDeque<WindowSample>,
    pub(crate) pending: Vec<(&'static str, WindowAggregate)>,
    pub(crate) evicted: u64,
}

impl ComponentSampler {
    /// Creates a sampler retaining at most `capacity` closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sampler capacity must be non-zero");
        ComponentSampler {
            capacity,
            windows: VecDeque::new(),
            pending: Vec::new(),
            evicted: 0,
        }
    }

    /// Records one observation of a distribution series into the pending
    /// (not yet closed) window.
    pub fn record(&mut self, series: &'static str, v: u64) {
        match self.pending.iter_mut().find(|(s, _)| *s == series) {
            Some((_, agg)) => agg.record(v),
            None => {
                let mut agg = WindowAggregate::new();
                agg.record(v);
                self.pending.push((series, agg));
            }
        }
    }

    /// Closes the pending window at `edge`, attaching the given scalar
    /// observations, and starts a fresh pending window. Evicts the oldest
    /// closed window when the ring is full.
    pub fn close(&mut self, edge: u64, scalars: Vec<(&'static str, u64)>) {
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        let mut dists = std::mem::take(&mut self.pending);
        dists.sort_by_key(|(s, _)| *s);
        self.windows.push_back(WindowSample {
            edge,
            scalars,
            dists: dists.into_boxed_slice(),
        });
    }

    /// The retained closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowSample> {
        self.windows.iter()
    }

    /// Number of retained closed windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been closed (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Closed windows evicted to respect the ring capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Interns a series name, returning a `&'static str` with the same
/// content.
///
/// The sampling plane keys series by `&'static str` so that the hot
/// recording path never hashes or clones strings. Decoding a sampler
/// from the wire only has owned strings in hand; this interner bridges
/// the two by leaking each *distinct* name once. The set of series names
/// in a simulator build is small and fixed (a few dozen literals), so
/// the leak is bounded regardless of how many runs or workers decode
/// samplers.
pub fn intern_series(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(Default::default)
        .lock()
        .expect("series interner poisoned");
    if let Some(s) = set.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// One sampling window folded across every component of the run: the
/// closing edge plus one [`WindowAggregate`] per series name.
///
/// Per-component scalars fold in as one observation each (so
/// `router.buffered_flits` aggregated over 16 routers has `count() == 16`
/// and `sum()` equal to the network-wide total); per-component
/// distributions merge bucket-wise. Both operations are integer-exact,
/// associative, and commutative, so the fold yields identical bytes no
/// matter how the run's components were partitioned across shards.
#[derive(Debug, Clone)]
pub struct FoldedWindow {
    /// The closing edge tick: the window covers `[edge - interval, edge)`.
    pub edge: u64,
    /// `(series, aggregate)` pairs, sorted by series name.
    pub series: Vec<(&'static str, WindowAggregate)>,
}

impl FoldedWindow {
    /// The aggregate of one series, if it was reported this window.
    pub fn get(&self, series: &str) -> Option<&WindowAggregate> {
        self.series
            .iter()
            .find(|(s, _)| *s == series)
            .map(|(_, a)| a)
    }
}

/// Folds the closed windows of many component samplers into one global
/// per-edge sequence, sorted by edge.
///
/// The result is independent of the component iteration order: every
/// series aggregate is a commutative integer merge. The engine closes the
/// same edge set on every component (all rings share one capacity), so
/// the fold never sees ragged history; a component that reported nothing
/// for a series in some window simply contributes nothing to it.
pub fn fold_windows<'a>(
    samplers: impl IntoIterator<Item = &'a ComponentSampler>,
) -> Vec<FoldedWindow> {
    let mut edges: BTreeMap<u64, BTreeMap<&'static str, WindowAggregate>> = BTreeMap::new();
    for sampler in samplers {
        for w in sampler.windows() {
            let fold = edges.entry(w.edge).or_default();
            for &(name, v) in &w.scalars {
                fold.entry(name).or_default().record(v);
            }
            for (name, agg) in &w.dists {
                fold.entry(name).or_default().merge(agg);
            }
        }
    }
    edges
        .into_iter()
        .map(|(edge, series)| FoldedWindow {
            edge,
            series: series.into_iter().collect(),
        })
        .collect()
}

/// Serializes folded windows as deterministic JSON-lines: one window per
/// line, series sorted by name, integer fields only (`count`, `sum`,
/// `max`, `p99`). Means are for consumers to derive as `sum / count` —
/// keeping the emitter free of floating point is what makes the output
/// byte-identical across engines and shard counts.
pub fn timeseries_json_lines(windows: &[FoldedWindow]) -> String {
    // ~70 bytes per series aggregate, ~30 per window of framing.
    let series: usize = windows.iter().map(|w| w.series.len()).sum();
    let mut out = String::with_capacity(32 * windows.len() + 80 * series);
    for w in windows {
        out.push_str("{\"edge\":");
        push_uint(&mut out, w.edge);
        out.push_str(",\"series\":{");
        for (i, (name, agg)) in w.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":{\"count\":");
            push_uint(&mut out, agg.count());
            out.push_str(",\"sum\":");
            push_uint(&mut out, agg.sum());
            out.push_str(",\"max\":");
            push_uint(&mut out, agg.max().unwrap_or(0));
            out.push_str(",\"p99\":");
            push_uint(&mut out, agg.p99().unwrap_or(0));
            out.push('}');
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    #[test]
    fn binning() {
        let mut ts = TimeSeries::new(10);
        ts.push(0, 1.0);
        ts.push(9, 3.0);
        ts.push(10, 5.0);
        assert_eq!(ts.num_bins(), 2);
        assert_eq!(ts.points()[0], (0, Some(2.0)));
        assert_eq!(ts.points()[1], (10, Some(5.0)));
        assert_eq!(ts.counts(), vec![(0, 2), (10, 1)]);
    }

    #[test]
    fn sparse_bins_are_none() {
        let mut ts = TimeSeries::new(5);
        ts.push(22, 7.0);
        let pts = ts.points();
        assert_eq!(pts.len(), 5);
        assert!(pts[..4].iter().all(|&(_, m)| m.is_none()));
        assert_eq!(pts[4], (20, Some(7.0)));
    }

    #[test]
    fn push_record_uses_receive_time() {
        let mut ts = TimeSeries::new(100);
        ts.push_record(&SampleRecord {
            kind: RecordKind::Packet,
            app: 0,
            src: 0,
            dst: 1,
            send: 90,
            recv: 130,
            hops: 1,
            size: 1,
        });
        assert_eq!(ts.points()[1], (100, Some(40.0)));
    }

    #[test]
    fn peak_mean_finds_spike() {
        let mut ts = TimeSeries::new(10);
        ts.push(5, 1.0);
        ts.push(15, 100.0);
        ts.push(25, 2.0);
        assert_eq!(ts.peak_mean(), Some(100.0));
        assert_eq!(TimeSeries::new(10).peak_mean(), None);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_width_panics() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn window_aggregate_merge_equals_direct_recording() {
        let values = [3u64, 17, 17, 255, 1, 0, 9000];
        let mut direct = WindowAggregate::new();
        for &v in &values {
            direct.record(v);
        }
        // Any split into partials merged in any order is identical.
        let mut a = WindowAggregate::new();
        let mut b = WindowAggregate::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, direct);
        assert_eq!(ba, direct);
        assert_eq!(direct.count(), 7);
        assert_eq!(direct.max(), Some(9000));
        assert_eq!(ab.p99(), direct.p99());
    }

    /// A run keeps every closed window of every component to its end,
    /// so a window stores its distributions as an exact-size boxed slice,
    /// not as the pending list grown by doubling.
    #[test]
    fn closed_windows_hold_exactly_their_entries() {
        let mut s = ComponentSampler::new(4);
        s.record("b", 1);
        s.record("a", 2);
        s.record("b", 3);
        s.close(100, Vec::new());
        s.record("a", 5);
        s.close(200, Vec::new());
        let entry = std::mem::size_of::<(&str, WindowAggregate)>();
        let windows: Vec<&WindowSample> = s.windows().collect();
        let first: Box<[(&str, WindowAggregate)]> = windows[0].dists.clone();
        assert_eq!(std::mem::size_of_val(&*first), 2 * entry);
        let names: Vec<&str> = first.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(first[1].1.sum(), 4);
        assert_eq!(std::mem::size_of_val(&*windows[1].dists), entry);
        assert!(s.pending.is_empty());
    }

    #[test]
    fn sampler_ring_wraparound_evicts_oldest() {
        let mut s = ComponentSampler::new(3);
        for edge in 1..=5u64 {
            s.record("x", edge * 10);
            s.close(edge * 100, vec![("scalar", edge)]);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let edges: Vec<u64> = s.windows().map(|w| w.edge).collect();
        assert_eq!(edges, vec![300, 400, 500]);
        // The retained windows keep their own data, not the evicted ones'.
        let first = s.windows().next().unwrap();
        assert_eq!(first.scalars, vec![("scalar", 3)]);
        assert_eq!(first.dists[0].1.sum(), 30);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_sampler_panics() {
        let _ = ComponentSampler::new(0);
    }

    #[test]
    fn fold_is_component_order_independent() {
        let mut a = ComponentSampler::new(8);
        a.record("lat", 5);
        a.record("lat", 100);
        a.close(100, vec![("depth", 3)]);
        let mut b = ComponentSampler::new(8);
        b.record("lat", 7);
        b.close(100, vec![("depth", 9)]);

        let ab = fold_windows([&a, &b]);
        let ba = fold_windows([&b, &a]);
        assert_eq!(timeseries_json_lines(&ab), timeseries_json_lines(&ba));
        assert_eq!(ab.len(), 1);
        let w = &ab[0];
        assert_eq!(w.edge, 100);
        assert_eq!(w.get("depth").unwrap().count(), 2);
        assert_eq!(w.get("depth").unwrap().sum(), 12);
        assert_eq!(w.get("depth").unwrap().max(), Some(9));
        assert_eq!(w.get("lat").unwrap().count(), 3);
        assert_eq!(w.get("lat").unwrap().sum(), 112);
    }

    #[test]
    fn fold_unions_distinct_edges_in_order() {
        let mut a = ComponentSampler::new(8);
        a.close(100, vec![("x", 1)]);
        a.close(200, vec![("x", 2)]);
        let mut b = ComponentSampler::new(8);
        b.close(100, vec![("x", 10)]);
        b.close(200, vec![("x", 20)]);
        let folded = fold_windows([&a, &b]);
        let edges: Vec<u64> = folded.iter().map(|w| w.edge).collect();
        assert_eq!(edges, vec![100, 200]);
        assert_eq!(folded[1].get("x").unwrap().sum(), 22);
    }

    #[test]
    fn json_lines_are_integer_only_and_sorted() {
        let mut s = ComponentSampler::new(4);
        s.record("z.last", 4);
        s.record("a.first", 2);
        s.close(50, vec![("m.mid", 7)]);
        let text = timeseries_json_lines(&fold_windows([&s]));
        // p99 is the log2-bucket upper bound: 2 → [2,3] → 3, 4 → [4,7] → 7.
        assert_eq!(
            text,
            "{\"edge\":50,\"series\":{\
             \"a.first\":{\"count\":1,\"sum\":2,\"max\":2,\"p99\":3},\
             \"m.mid\":{\"count\":1,\"sum\":7,\"max\":7,\"p99\":7},\
             \"z.last\":{\"count\":1,\"sum\":4,\"max\":4,\"p99\":7}}}\n"
        );
        assert!(!text.contains('.') || !text.contains("e-"), "no floats");
    }

    #[test]
    fn p99_estimator_depends_only_on_bucket_counts() {
        // Observation order and partitioning must not move the p99: it is
        // a pure function of the log2 bucket array.
        let mut fwd = WindowAggregate::new();
        let mut rev = WindowAggregate::new();
        let values: Vec<u64> = (0..200).map(|i| i * 13 % 1024).collect();
        for &v in &values {
            fwd.record(v);
        }
        for &v in values.iter().rev() {
            rev.record(v);
        }
        assert_eq!(fwd.p99(), rev.p99());
        assert_eq!(fwd.percentile(0.5), rev.percentile(0.5));
        assert_eq!(fwd, rev);
    }
}
