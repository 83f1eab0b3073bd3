//! Checks `BENCH_HISTORY.jsonl`, the recorded performance trajectory: one
//! JSON object per line, one line per (issue, workload, metric), oldest
//! first, appended to and never rewritten.
//!
//! A row's `verdict` is not the author's to choose; it follows from the
//! row's own numbers:
//!
//! * `resolved` — the change won at least 9 in 10 of its alternating
//!   parent/change pairs (`change_wins >= 0.9 * pairs`) and the medians
//!   differ by more than the parent's interquartile range
//!   (`|change - parent| > parent_iqr`);
//! * `unknown` — the pair count, the win count or the parent's spread
//!   was not recorded, so the rule cannot be applied;
//! * `unresolved` — otherwise.
//!
//! `change_wins` counts the pairs in which the change read better in the
//! direction `BENCHMARK.json` gives the metric, so `resolved` marks a
//! resolved improvement. A change that reads worse is judged against the
//! metric's bound, not by this rule.

use std::collections::BTreeSet;

use supersim::config::{parse, Value};

const HISTORY: &str = include_str!("../BENCH_HISTORY.jsonl");
const BENCHMARK: &str = include_str!("../BENCHMARK.json");
const EXPECTED: &str = include_str!("../ssbench/expected.json");

const KEYS: [&str; 14] = [
    "issue",
    "changes_label",
    "workload",
    "metric",
    "unit",
    "parent",
    "change",
    "parent_iqr",
    "pairs",
    "change_wins",
    "claimed",
    "verdict",
    "source",
    "host",
];

/// The verdict the rule in the module documentation gives a row.
fn rule(
    parent: f64,
    change: f64,
    parent_iqr: Option<f64>,
    pairs: Option<u64>,
    wins: Option<u64>,
) -> &'static str {
    match (pairs, wins, parent_iqr) {
        (Some(pairs), Some(wins), Some(iqr)) => {
            if 10 * wins >= 9 * pairs && (change - parent).abs() > iqr {
                "resolved"
            } else {
                "unresolved"
            }
        }
        _ => "unknown",
    }
}

/// A key that may hold `null`: `None` for `null`, `Some` of the typed
/// value otherwise, and a failure naming the line for any other type.
fn nullable<T>(row: &Value, key: &str, line: usize, typed: fn(&Value) -> Option<T>) -> Option<T> {
    let v = row.get(key).expect("checked present");
    if v.is_null() {
        return None;
    }
    Some(typed(v).unwrap_or_else(|| panic!("line {line}: {key} has the wrong type")))
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares.
fn declared_metrics(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    benchmark
        .req_array(section)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            (
                m.req_str("name").expect("named").to_string(),
                m.req_str("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn history_rows_are_complete_and_verdicts_follow_the_rule() {
    let benchmark = parse(BENCHMARK).expect("BENCHMARK.json parses");
    let expected = parse(EXPECTED).expect("ssbench/expected.json parses");
    let workloads: Vec<&str> = benchmark
        .req_array("workloads")
        .expect("workloads")
        .iter()
        .map(|w| w.req_str("name").expect("named"))
        .collect();
    let end_to_end = declared_metrics(&benchmark, "end_to_end");
    let mut metrics = end_to_end.clone();
    metrics.extend(declared_metrics(&benchmark, "per_layer"));

    let mut rows = Vec::new();
    for (i, text) in HISTORY.lines().enumerate() {
        let line = i + 1;
        let row = parse(text).unwrap_or_else(|e| panic!("line {line}: {e}"));
        for key in KEYS {
            assert!(row.get(key).is_some(), "line {line}: no {key:?}");
        }
        let issue = row.req_u64("issue").expect("issue is a number");
        let workload = row.req_str("workload").expect("workload is a string");
        let metric = row.req_str("metric").expect("metric is a string");
        let unit = row.req_str("unit").expect("unit is a string");
        assert!(
            workloads.contains(&workload) || workload == "probes",
            "line {line}: unknown workload {workload:?}"
        );
        let declared = metrics.iter().find(|(name, _)| name == metric);
        assert_eq!(
            declared.map(|(_, u)| u.as_str()),
            Some(unit),
            "line {line}: {metric:?} is not a BENCHMARK.json metric in {unit:?}"
        );
        row.req_str("changes_label").expect("label is a string");
        row.req_bool("claimed").expect("claimed is a bool");
        let parent = row.req_f64("parent").expect("parent is a number");
        let change = row.req_f64("change").expect("change is a number");
        let iqr = nullable(&row, "parent_iqr", line, Value::as_f64);
        let pairs = nullable(&row, "pairs", line, Value::as_u64);
        let wins = nullable(&row, "change_wins", line, Value::as_u64);
        if let (Some(pairs), Some(wins)) = (pairs, wins) {
            assert!(wins <= pairs, "line {line}: {wins} wins of {pairs} pairs");
        }
        assert_eq!(
            row.req_str("verdict").expect("verdict is a string"),
            rule(parent, change, iqr, pairs, wins),
            "line {line}: the verdict does not follow from the row"
        );
        let source = row.req_str("source").expect("source is a string");
        assert!(
            ["measured", "driver", "backfilled"].contains(&source),
            "line {line}: source {source:?}"
        );
        let host = row.req_obj("host").expect("host is an object");
        host.req_u64("nproc").expect("host.nproc is a number");
        let cpu = host.get("cpu").expect("host.cpu is present");
        assert!(cpu.is_null() || cpu.as_str().is_some(), "line {line}: cpu");
        rows.push((issue, row));
    }
    assert!(
        rows.windows(2).all(|w| w[0].0 <= w[1].0),
        "rows are appended in issue order"
    );

    // The newest issue's rows are this repository's own measurement: every
    // workload by every end-to-end metric, each run with the pinned seed
    // and producing the pinned digest.
    let newest = rows.last().expect("the history is not empty").0;
    let newest: Vec<&Value> = rows
        .iter()
        .filter(|(issue, _)| *issue == newest)
        .map(|(_, row)| row)
        .collect();
    let mut covered = BTreeSet::new();
    for row in &newest {
        let workload = row.req_str("workload").expect("checked");
        assert_eq!(row.req_str("source").ok(), Some("measured"));
        assert_eq!(
            row.req_u64("seed").ok(),
            expected.req_u64("seed").ok(),
            "{workload}: seed"
        );
        assert_eq!(
            row.req_str("digest").ok(),
            expected
                .path(&format!("digests.{workload}"))
                .and_then(Value::as_str),
            "{workload}: the newest rows must carry the pinned digest"
        );
        covered.insert((workload, row.req_str("metric").expect("checked")));
    }
    for workload in &workloads {
        for (metric, _) in &end_to_end {
            assert!(
                covered.contains(&(*workload, metric.as_str())),
                "newest issue has no {workload} {metric} row"
            );
        }
    }
}

#[test]
fn the_verdict_rule() {
    // 9 of 10 pairs and a delta past the spread (in either unit
    // direction: a rate that rose): resolved.
    assert_eq!(rule(3.0, 2.0, Some(0.5), Some(10), Some(9)), "resolved");
    assert_eq!(rule(2.0, 3.0, Some(0.5), Some(10), Some(9)), "resolved");
    // 8 of 10, or a delta inside the spread: unresolved.
    assert_eq!(rule(3.0, 2.0, Some(0.5), Some(10), Some(8)), "unresolved");
    assert_eq!(rule(3.0, 2.9, Some(0.5), Some(10), Some(10)), "unresolved");
    // Anything unrecorded: unknown.
    assert_eq!(rule(3.0, 2.0, None, Some(10), Some(10)), "unknown");
    assert_eq!(rule(3.0, 2.0, Some(0.5), None, None), "unknown");
    assert_eq!(rule(3.0, 2.0, Some(0.5), Some(10), None), "unknown");
}
