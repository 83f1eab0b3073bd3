//! SSParse: parse and analyze sample logs (paper §V).
//!
//! Turns the verbose transaction log written during the sampling window
//! into latency- and hop-based statistics for packets, messages, and
//! transactions, with the `+field=value` filter language for slicing the
//! data (e.g. `+app=0`, `+send=500-1000`).

use std::fmt;
use std::fmt::Write as _;

use supersim_stats::analysis::LatencySummary;
use supersim_stats::{
    Filter, FilterError, LatencyDistribution, RecordKind, SampleLog, StreamingStats,
};

/// Errors from analyzing a log.
#[derive(Debug)]
pub enum SsparseError {
    /// The log text was malformed at this 1-based line.
    BadLog(usize),
    /// A filter expression was malformed.
    BadFilter(FilterError),
}

impl fmt::Display for SsparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsparseError::BadLog(line) => write!(f, "malformed sample log at line {line}"),
            SsparseError::BadFilter(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SsparseError {}

/// Latency and hop statistics for one record kind.
#[derive(Debug, Clone)]
pub struct KindAnalysis {
    /// Which record kind this summarizes.
    pub kind: RecordKind,
    /// Latency summary, absent when no records matched.
    pub latency: Option<LatencySummary>,
    /// Mean hop count (0 for kinds that do not track hops).
    pub mean_hops: f64,
    /// The full latency distribution, for percentile curves.
    pub distribution: LatencyDistribution,
}

/// Complete analysis of a (filtered) sample log.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-kind results: packets, messages, transactions.
    pub kinds: Vec<KindAnalysis>,
    /// Records that matched the filter.
    pub matched: usize,
    /// Total records in the log.
    pub total: usize,
}

impl Analysis {
    /// The analysis for one kind.
    pub fn of(&self, kind: RecordKind) -> &KindAnalysis {
        self.kinds
            .iter()
            .find(|k| k.kind == kind)
            .expect("all kinds present")
    }

    /// Renders a human-readable summary table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "records: {} matched of {}", self.matched, self.total);
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
            "kind", "count", "mean", "min", "p50", "p99", "p99.9", "max", "hops"
        );
        for k in &self.kinds {
            match &k.latency {
                Some(l) => {
                    let _ = writeln!(
                        out,
                        "{:<12} {:>8} {:>10.2} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7.2}",
                        k.kind.name(),
                        l.count,
                        l.mean,
                        l.min,
                        l.p50,
                        l.p99,
                        l.p999,
                        l.max,
                        k.mean_hops
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<12} {:>8} (no samples)", k.kind.name(), 0);
                }
            }
        }
        out
    }
}

/// Analyzes an in-memory log under a filter, in one pass over its
/// records.
pub fn analyze(log: &SampleLog, filter: &Filter) -> Analysis {
    const KINDS: [RecordKind; 3] = [
        RecordKind::Packet,
        RecordKind::Message,
        RecordKind::Transaction,
    ];
    let mut acc: [(LatencyDistribution, StreamingStats); 3] =
        std::array::from_fn(|_| (LatencyDistribution::new(), StreamingStats::new()));
    let mut matched = 0;
    for r in log.records().iter().filter(|r| filter.matches(r)) {
        let k = KINDS.iter().position(|&k| k == r.kind).expect("every kind");
        let (dist, hops) = &mut acc[k];
        dist.push(r.latency());
        hops.push(r.hops as f64);
        matched += 1;
    }
    let kinds = KINDS
        .into_iter()
        .zip(acc)
        .map(|(kind, (mut dist, hops))| KindAnalysis {
            kind,
            latency: LatencySummary::of(&mut dist),
            mean_hops: hops.mean(),
            distribution: dist,
        })
        .collect();
    Analysis {
        kinds,
        matched,
        total: log.len(),
    }
}

/// Parses log text (the format written by
/// [`SampleLog::to_text`]) and analyzes it under the given filter terms.
///
/// # Errors
///
/// Returns [`SsparseError::BadLog`] for malformed log lines and
/// [`SsparseError::BadFilter`] for malformed filter terms.
pub fn analyze_text<S: AsRef<str>>(text: &str, filters: &[S]) -> Result<Analysis, SsparseError> {
    let log = SampleLog::parse(text).map_err(SsparseError::BadLog)?;
    let filter =
        Filter::parse_all(filters.iter().map(|s| s.as_ref())).map_err(SsparseError::BadFilter)?;
    Ok(analyze(&log, &filter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_stats::SampleRecord;

    fn log() -> SampleLog {
        let mut log = SampleLog::new();
        for i in 0..100u64 {
            log.push(SampleRecord {
                kind: RecordKind::Packet,
                app: (i % 2) as u8,
                src: 0,
                dst: 1,
                send: i * 10,
                recv: i * 10 + 20 + i,
                hops: 3,
                size: 1,
            });
        }
        log.push(SampleRecord {
            kind: RecordKind::Message,
            app: 0,
            src: 0,
            dst: 1,
            send: 0,
            recv: 500,
            hops: 3,
            size: 4,
        });
        log
    }

    #[test]
    fn analyze_counts_kinds_separately() {
        let a = analyze(&log(), &Filter::new());
        assert_eq!(a.of(RecordKind::Packet).latency.unwrap().count, 100);
        assert_eq!(a.of(RecordKind::Message).latency.unwrap().count, 1);
        assert!(a.of(RecordKind::Transaction).latency.is_none());
        assert_eq!(a.matched, 101);
        assert_eq!(a.of(RecordKind::Packet).mean_hops, 3.0);
    }

    #[test]
    fn filters_slice_the_data() {
        let text = log().to_text();
        let a = analyze_text(&text, &["+app=0"]).unwrap();
        assert_eq!(a.of(RecordKind::Packet).latency.unwrap().count, 50);
        let a = analyze_text(&text, &["+send=0-99"]).unwrap();
        assert_eq!(a.of(RecordKind::Packet).latency.unwrap().count, 10);
    }

    #[test]
    fn table_renders() {
        let a = analyze(&log(), &Filter::new());
        let table = a.to_table();
        assert!(table.contains("packet"));
        assert!(table.contains("transaction"));
        assert!(table.contains("101 matched of 101"));
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(matches!(
            analyze_text::<&str>("not a log", &[]),
            Err(SsparseError::BadLog(1))
        ));
        assert!(matches!(
            analyze_text("", &["+wat=1"]),
            Err(SsparseError::BadFilter(_))
        ));
    }
}
