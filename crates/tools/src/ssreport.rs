//! SSReport: render a metrics snapshot for humans and for the existing
//! tool formats.
//!
//! The observability plane ends a run with a [`MetricsSnapshot`] (see
//! `supersim-stats::metrics`). This module turns that snapshot into
//!
//! - a per-component text report for terminals and logs,
//! - a flat `component,name,kind,value,max` CSV of scalar metrics, and
//! - per-histogram `bin_start,count` CSV in exactly the shape
//!   [`histogram_csv`](crate::ssplot::histogram_csv) (and therefore
//!   SSPlot's PDF plots) already consume — no new downstream format.

use std::fmt::Write as _;

use supersim_stats::{MetricValue, MetricsSnapshot};

/// Renders the snapshot as a per-component text report.
///
/// Components appear in first-sample order; histograms are summarized by
/// count / mean / p50 / p99 rather than dumped bucket-by-bucket.
pub fn report_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut current: Option<&str> = None;
    for s in snap.samples() {
        if current != Some(&*s.component) {
            if current.is_some() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", s.component);
            current = Some(&*s.component);
        }
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "  {:<24} {v}", s.name);
            }
            MetricValue::Gauge { value, max } => {
                let _ = writeln!(out, "  {:<24} {value} (max {max})", s.name);
            }
            MetricValue::Histogram(h) => {
                let _ = write!(out, "  {:<24} count {}", s.name, h.count());
                if let Some(mean) = h.mean() {
                    let _ = write!(
                        out,
                        "  mean {mean:.2}  p50 {}  p99 {}",
                        h.percentile(0.5).expect("non-empty"),
                        h.percentile(0.99).expect("non-empty"),
                    );
                }
                out.push('\n');
            }
        }
    }
    if out.is_empty() {
        out.push_str("(empty snapshot)\n");
    }
    out
}

/// Renders the scalar metrics (counters and gauges) as CSV rows of
/// `component,name,kind,value,max`; counters leave `max` empty.
/// Histograms are omitted — they have their own CSV form
/// ([`histogram_report`]).
pub fn counters_csv(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("component,name,kind,value,max\n");
    for s in snap.samples() {
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{},{},counter,{v},", s.component, s.name);
            }
            MetricValue::Gauge { value, max } => {
                let _ = writeln!(out, "{},{},gauge,{value},{max}", s.component, s.name);
            }
            MetricValue::Histogram(_) => {}
        }
    }
    out
}

/// Renders one snapshotted histogram as `bin_start,count` CSV — the
/// SSPlot histogram shape — or `None` when the metric does not exist or
/// is not a histogram.
pub fn histogram_report(snap: &MetricsSnapshot, component: &str, name: &str) -> Option<String> {
    match snap.get(component, name)? {
        MetricValue::Histogram(h) => Some(crate::ssplot::histogram_csv(&h.nonzero_bins())),
        _ => None,
    }
}

/// Renders histogram bins as an ASCII bar chart, one `start count bar`
/// row per bin, bars scaled so the fullest bin spans `width` characters.
///
/// The two degenerate shapes render sensibly instead of producing a
/// collapsed scale: an empty histogram says so explicitly, and a
/// single-bucket histogram gets one full-width bar (the scale anchors at
/// zero, never at the minimum count, so one bucket cannot divide by a
/// zero-width range).
pub fn histogram_ascii(bins: &[(u64, u64)], width: usize) -> String {
    let width = width.max(8);
    if bins.is_empty() {
        return String::from("(empty histogram)\n");
    }
    let peak = bins.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
    let start_w = bins
        .iter()
        .map(|&(s, _)| s.to_string().len())
        .max()
        .unwrap_or(1);
    let count_w = bins
        .iter()
        .map(|&(_, c)| c.to_string().len())
        .max()
        .unwrap_or(1);
    let mut out = String::new();
    for &(start, count) in bins {
        let mut bar = ((count as f64 / peak as f64) * width as f64).round() as usize;
        if count > 0 {
            bar = bar.max(1); // any occupancy shows at least one mark
        }
        let _ = writeln!(
            out,
            "{start:>start_w$} {count:>count_w$} {}",
            "#".repeat(bar)
        );
    }
    out
}

/// Renders one snapshotted histogram as an ASCII bar chart
/// ([`histogram_ascii`] over its non-zero bins), or `None` when the
/// metric does not exist or is not a histogram.
pub fn histogram_ascii_report(
    snap: &MetricsSnapshot,
    component: &str,
    name: &str,
    width: usize,
) -> Option<String> {
    match snap.get(component, name)? {
        MetricValue::Histogram(h) => Some(histogram_ascii(&h.nonzero_bins(), width)),
        _ => None,
    }
}

/// Renders the per-shard engine breakdown of a snapshot: one row per
/// `engine_shard_<i>` plane with the shard's event/batch/enqueue counters,
/// queue high-water mark, and its share of all executed events, followed
/// by an aggregate `total` row. A sequential run reports one shard
/// (shard 0); a sharded run reports one row per worker, making partition
/// imbalance visible at a glance. `None` when the snapshot predates the
/// engine-shard planes.
pub fn shard_report(snap: &MetricsSnapshot) -> Option<String> {
    let mut shards: Vec<usize> = snap
        .samples()
        .iter()
        .filter_map(|s| s.component.strip_prefix("engine_shard_"))
        .filter_map(|i| i.parse().ok())
        .collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.is_empty() {
        return None;
    }
    let counter = |shard: usize, name: &str| -> u64 {
        match snap.get(&format!("engine_shard_{shard}"), name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    };
    let queue_high = |shard: usize| -> u64 {
        match snap.get(&format!("engine_shard_{shard}"), "queue_len") {
            Some(MetricValue::Gauge { max, .. }) => *max,
            _ => 0,
        }
    };
    let total_events: u64 = shards.iter().map(|&s| counter(s, "events_executed")).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>12} {:>16} {:>12} {:>7}",
        "shard", "events", "batches", "enqueued", "queue_max", "share"
    );
    let mut agg = [0u64; 4];
    for &s in &shards {
        let row = [
            counter(s, "events_executed"),
            counter(s, "batches"),
            counter(s, "total_enqueued"),
            queue_high(s),
        ];
        let share = if total_events > 0 {
            row[0] as f64 / total_events as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{s:<8} {:>16} {:>12} {:>16} {:>12} {share:>6.1}%",
            row[0], row[1], row[2], row[3]
        );
        agg[0] += row[0];
        agg[1] += row[1];
        agg[2] += row[2];
        agg[3] = agg[3].max(row[3]);
    }
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>12} {:>16} {:>12} {:>6.1}%",
        "total",
        agg[0],
        agg[1],
        agg[2],
        agg[3],
        if total_events > 0 { 100.0 } else { 0.0 }
    );
    Some(out)
}

/// Renders the fault summary of a snapshot: the run's degraded flag plus
/// the aggregate fault-lifecycle counters (injected, detected, recovered,
/// escalated) and the flits still parked in retransmission holds.
/// `None` when the snapshot has no `fault` plane (the fault plane was
/// disabled, or the snapshot predates it).
pub fn fault_report(snap: &MetricsSnapshot) -> Option<String> {
    let counter = |name: &str| -> Option<u64> {
        match snap.get("fault", name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    };
    let injected = counter("injected")?;
    let detected = counter("detected").unwrap_or(0);
    let recovered = counter("recovered").unwrap_or(0);
    let escalated = counter("escalated").unwrap_or(0);
    let held = counter("held_flits").unwrap_or(0);
    let degraded = matches!(snap.get("run", "degraded"), Some(MetricValue::Counter(1)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {}",
        if degraded { "DEGRADED" } else { "complete" }
    );
    let _ = writeln!(out, "{:<12} {injected}", "injected");
    let _ = writeln!(out, "{:<12} {detected}", "detected");
    let _ = writeln!(out, "{:<12} {recovered}", "recovered");
    let _ = writeln!(out, "{:<12} {escalated}", "escalated");
    let _ = writeln!(out, "{:<12} {held}", "held_flits");
    if detected > 0 {
        let _ = writeln!(
            out,
            "{:<12} {:.1}%",
            "recovery",
            recovered as f64 / detected as f64 * 100.0
        );
    }
    Some(out)
}

/// Reads a counter off an arbitrary plane, defaulting missing or
/// non-counter metrics to zero.
fn plane_counter(snap: &MetricsSnapshot, component: &str, name: &str) -> u64 {
    match snap.get(component, name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Renders the host-time profiling plane of a snapshot: the process's peak
/// resident set with its bytes per terminal (recorded by an in-process
/// run where the platform reports it; the per-terminal figure is the
/// run's own only when the process ran that one simulation), a
/// phase table attributing wall-clock time (drain / execute / sample-edge /
/// exchange / checkpoint) with percent-of-wall columns, the sampled
/// per-component-class attribution, per-shard execute/exchange rows with
/// imbalance and barrier-wait gauges, flits advanced per router pipeline
/// cycle (from the `profile` plane), checkpoint write costs, and — for
/// worker-fleet runs — hub rounds and per-worker wire bytes. `None` when the snapshot has no `host` plane (the run did not
/// enable `host.profile.enabled`).
pub fn host_profile_report(snap: &MetricsSnapshot) -> Option<String> {
    let wall_ns = match snap.get("host", "wall_ns")? {
        MetricValue::Counter(v) => *v,
        _ => return None,
    };
    let host = |name: &str| plane_counter(snap, "host", name);
    let pct = |ns: u64| {
        if wall_ns > 0 {
            ns as f64 / wall_ns as f64 * 100.0
        } else {
            0.0
        }
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    let _ = writeln!(out, "wall time: {:.1} ms", ms(wall_ns));
    if let Some(MetricValue::Counter(peak)) = snap.get("host", "peak_rss_bytes") {
        let terminals = host("terminals");
        let _ = writeln!(
            out,
            "process peak resident set: {:.1} MB, {} bytes per terminal ({terminals} terminals)",
            *peak as f64 / 1e6,
            peak / terminals.max(1)
        );
    }

    // Phase table, heaviest phase first.
    let mut phases: Vec<(&str, u64)> = [
        ("execute", host("execute_ns")),
        ("drain", host("drain_ns")),
        ("sample_edge", host("sample_edge_ns")),
        ("exchange", host("exchange_ns")),
        ("checkpoint", host("checkpoint_ns")),
    ]
    .into_iter()
    .collect();
    phases.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let _ = writeln!(out, "\n{:<14} {:>12} {:>8}", "phase", "ms", "% wall");
    for (name, ns) in &phases {
        let _ = writeln!(out, "{name:<14} {:>12.2} {:>7.1}%", ms(*ns), pct(*ns));
    }

    // Sampled per-component-class attribution (heaviest class first).
    let mut classes: Vec<(String, u64, u64)> = snap
        .samples()
        .iter()
        .filter(|s| s.component == "host")
        .filter_map(|s| {
            let class = s.name.strip_prefix("class_")?.strip_suffix("_ns")?;
            let ns = match s.value {
                MetricValue::Counter(v) => v,
                _ => return None,
            };
            let events = host(&format!("class_{class}_events"));
            Some((class.to_string(), ns, events))
        })
        .collect();
    classes.sort_by_key(|c| std::cmp::Reverse(c.1));
    if !classes.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<14} {:>12} {:>8} {:>12} {:>10}",
            "class", "sampled_ms", "% wall", "events", "ns/event"
        );
        for (class, ns, events) in &classes {
            let per_event = if *events > 0 { ns / events } else { 0 };
            let _ = writeln!(
                out,
                "{class:<14} {:>12.2} {:>7.1}% {events:>12} {per_event:>10}",
                ms(*ns),
                pct(*ns)
            );
        }
    }

    // Per-shard breakdown.
    let mut shards: Vec<usize> = snap
        .samples()
        .iter()
        .filter_map(|s| s.component.strip_prefix("host_shard_"))
        .filter_map(|i| i.parse().ok())
        .collect();
    shards.sort_unstable();
    shards.dedup();
    if !shards.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<8} {:>12} {:>12} {:>12}",
            "shard", "execute_ms", "exchange_ms", "batches"
        );
        for &s in &shards {
            let plane = format!("host_shard_{s}");
            let c = |name: &str| plane_counter(snap, &plane, name);
            let _ = writeln!(
                out,
                "{s:<8} {:>12.2} {:>12.2} {:>12}",
                ms(c("execute_ns")),
                ms(c("exchange_ns")),
                c("total_batches"),
            );
        }
    }

    // Imbalance gauges (present only on multi-shard runs).
    if let Some(MetricValue::Counter(millis)) = snap.get("host", "execute_imbalance_millis") {
        let _ = writeln!(
            out,
            "\nexecute imbalance (max/min): {:.2}x",
            *millis as f64 / 1000.0
        );
    }
    if let Some(MetricValue::Counter(millis)) = snap.get("host", "barrier_wait_millis") {
        let _ = writeln!(out, "barrier wait fraction: {:.1}%", *millis as f64 / 10.0);
    }
    let cycles = plane_counter(snap, "profile", "router_cycles");
    if cycles > 0 {
        let advanced = plane_counter(snap, "profile", "flits_advanced");
        let _ = writeln!(
            out,
            "flits per router cycle: {:.2}",
            advanced as f64 / cycles as f64
        );
    }

    // Checkpoint write costs.
    let ckpt_writes = host("checkpoint_writes");
    if ckpt_writes > 0 {
        let _ = writeln!(
            out,
            "checkpoints: {ckpt_writes} writes, {} bytes, {:.2} ms",
            host("checkpoint_bytes"),
            ms(host("checkpoint_ns")),
        );
    }

    // Hub / per-worker wire accounting (worker-fleet runs only).
    let hub_rounds = host("hub_rounds");
    if hub_rounds > 0 {
        let _ = writeln!(out, "\nhub: {hub_rounds} rounds");
        let mut workers: Vec<usize> = snap
            .samples()
            .iter()
            .filter(|s| s.component == "host")
            .filter_map(|s| s.name.strip_prefix("worker_"))
            .filter_map(|rest| rest.strip_suffix("_wire_in_bytes"))
            .filter_map(|i| i.parse().ok())
            .collect();
        workers.sort_unstable();
        workers.dedup();
        for w in workers {
            let _ = writeln!(
                out,
                "worker {w}: wire in {} bytes, out {} bytes",
                host(&format!("worker_{w}_wire_in_bytes")),
                host(&format!("worker_{w}_wire_out_bytes")),
            );
        }
    }
    Some(out)
}

/// Renders the checkpoint-write cost summary from a snapshot's host
/// plane: write count, total bytes, total and mean wall time per write.
/// `None` when the snapshot has no host plane or the run wrote no
/// checkpoints.
pub fn checkpoint_host_report(snap: &MetricsSnapshot) -> Option<String> {
    snap.get("host", "wall_ns")?;
    let writes = plane_counter(snap, "host", "checkpoint_writes");
    if writes == 0 {
        return None;
    }
    let ns = plane_counter(snap, "host", "checkpoint_ns");
    let bytes = plane_counter(snap, "host", "checkpoint_bytes");
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {writes}", "writes");
    let _ = writeln!(out, "{:<16} {bytes}", "bytes");
    let _ = writeln!(out, "{:<16} {:.2}", "total_ms", ns as f64 / 1e6);
    let _ = writeln!(
        out,
        "{:<16} {:.2}",
        "mean_ms_per_write",
        ns as f64 / writes as f64 / 1e6
    );
    Some(out)
}

/// All `(component, name)` pairs of histogram metrics in the snapshot.
pub fn histogram_names(snap: &MetricsSnapshot) -> Vec<(String, String)> {
    snap.samples()
        .iter()
        .filter(|s| matches!(s.value, MetricValue::Histogram(_)))
        .map(|s| (s.component.to_string(), s.name.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_stats::Histogram;

    fn snapshot() -> MetricsSnapshot {
        let mut h = Histogram::new();
        h.record(0);
        h.record(9);
        h.record(9);
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("engine", "events_executed", 42);
        snap.push(
            "engine",
            "queue_len",
            MetricValue::Gauge { value: 3, max: 17 },
        );
        snap.push_histogram("workload", "packet_latency_generating", &h);
        snap
    }

    #[test]
    fn text_report_groups_by_component() {
        let text = report_text(&snapshot());
        assert!(text.contains("[engine]"));
        assert!(text.contains("[workload]"));
        assert!(text.contains("events_executed"));
        assert!(text.contains("(max 17)"));
        assert!(text.contains("count 3"));
        assert!(report_text(&MetricsSnapshot::new()).contains("empty"));
    }

    #[test]
    fn counters_csv_skips_histograms() {
        let csv = counters_csv(&snapshot());
        assert!(csv.starts_with("component,name,kind,value,max\n"));
        assert!(csv.contains("engine,events_executed,counter,42,\n"));
        assert!(csv.contains("engine,queue_len,gauge,3,17\n"));
        assert!(!csv.contains("packet_latency"));
    }

    #[test]
    fn histogram_report_matches_ssplot_shape() {
        let snap = snapshot();
        let csv = histogram_report(&snap, "workload", "packet_latency_generating").unwrap();
        // Identical shape to ssplot::histogram_csv output.
        assert_eq!(csv, "bin_start,count\n0,1\n8,2\n");
        assert!(histogram_report(&snap, "workload", "nope").is_none());
        assert!(histogram_report(&snap, "engine", "events_executed").is_none());
    }

    #[test]
    fn shard_report_breaks_down_and_aggregates() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("engine", "events_executed", 100);
        for (s, events) in [(0u32, 60u64), (1, 40)] {
            let name = format!("engine_shard_{s}");
            snap.push_counter(name.clone(), "events_executed", events);
            snap.push_counter(name.clone(), "batches", events / 10);
            snap.push_counter(name.clone(), "total_enqueued", events + 1);
            snap.push(
                name,
                "queue_len",
                MetricValue::Gauge {
                    value: 0,
                    max: 5 + s as u64,
                },
            );
        }
        let text = shard_report(&snap).expect("shard planes present");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header, two shards, total:\n{text}");
        assert!(lines[1].starts_with('0') && lines[1].contains("60.0%"));
        assert!(lines[2].starts_with('1') && lines[2].contains("40.0%"));
        // Totals: counters sum, the queue high-water is a max.
        assert!(lines[3].starts_with("total") && lines[3].contains("100"));
        assert!(lines[3].contains(" 6 ") || lines[3].trim_end().ends_with("100.0%"));
        // No shard planes → no report.
        assert!(shard_report(&snapshot()).is_none());
    }

    #[test]
    fn fault_report_summarizes_lifecycle() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("run", "degraded", 1);
        snap.push_counter("fault", "injected", 10);
        snap.push_counter("fault", "detected", 8);
        snap.push_counter("fault", "recovered", 6);
        snap.push_counter("fault", "escalated", 1);
        snap.push_counter("fault", "held_flits", 3);
        let text = fault_report(&snap).expect("fault plane present");
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("injected     10"));
        assert!(text.contains("escalated    1"));
        assert!(text.contains("recovery     75.0%"));
        // No fault plane → no report.
        assert!(fault_report(&snapshot()).is_none());
        // A clean fault-enabled run reports complete.
        let mut clean = MetricsSnapshot::new();
        clean.push_counter("run", "degraded", 0);
        clean.push_counter("fault", "injected", 0);
        assert!(fault_report(&clean).unwrap().contains("complete"));
    }

    fn host_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("host", "wall_ns", 10_000_000); // 10 ms
        snap.push_counter("host", "execute_ns", 6_000_000);
        snap.push_counter("host", "drain_ns", 1_000_000);
        snap.push_counter("host", "sample_edge_ns", 500_000);
        snap.push_counter("host", "exchange_ns", 2_000_000);
        snap.push_counter("host", "checkpoint_ns", 3_000_000);
        snap.push_counter("host", "checkpoint_writes", 2);
        snap.push_counter("host", "checkpoint_bytes", 4096);
        snap.push_counter("host", "class_router_ns", 4_000_000);
        snap.push_counter("host", "class_router_events", 1000);
        snap.push_counter("host", "class_interface_ns", 1_000_000);
        snap.push_counter("host", "class_interface_events", 500);
        snap.push_counter("host", "execute_imbalance_millis", 1500);
        snap.push_counter("host", "barrier_wait_millis", 125);
        for s in 0..2u32 {
            let plane = format!("host_shard_{s}");
            snap.push_counter(plane.clone(), "execute_ns", 3_000_000);
            snap.push_counter(plane.clone(), "exchange_ns", 1_000_000);
            snap.push_counter(plane.clone(), "total_batches", 40 + s as u64);
        }
        snap
    }

    #[test]
    fn host_profile_report_attributes_wall_time() {
        let text = host_profile_report(&host_snapshot()).expect("host plane present");
        assert!(text.contains("wall time: 10.0 ms"));
        // Phase table sorted heaviest-first with % of wall.
        let exec_at = text.find("execute ").expect("execute row");
        let exchange_at = text.find("exchange ").expect("exchange row");
        assert!(exec_at < exchange_at, "heaviest phase first:\n{text}");
        assert!(text.contains("60.0%"), "execute is 60% of wall:\n{text}");
        // Class attribution sorted heaviest-first, with ns/event.
        let router_at = text.find("router").expect("router class row");
        let iface_at = text.find("interface").expect("interface class row");
        assert!(router_at < iface_at);
        assert!(text.contains("4000"), "router ns/event = 4e6/1000:\n{text}");
        // Per-shard rows, imbalance, barrier wait, checkpoint line.
        assert!(text.contains("\n0 ") && text.contains("\n1 "));
        assert!(text.contains("execute imbalance (max/min): 1.50x"));
        assert!(text.contains("barrier wait fraction: 12.5%"));
        assert!(text.contains("checkpoints: 2 writes, 4096 bytes, 3.00 ms"));
        // No hub section on an in-process run; no profile plane, no
        // flits-per-cycle line; no peak row, no resident-set line.
        assert!(!text.contains("hub:"));
        assert!(!text.contains("peak resident set"));
        assert!(!text.contains("flits per router cycle"));
        let mut snap = host_snapshot();
        snap.push_counter("profile", "router_cycles", 200);
        snap.push_counter("profile", "flits_advanced", 500);
        snap.push_counter("host", "terminals", 512);
        snap.push_counter("host", "peak_rss_bytes", 38_300_000);
        let text = host_profile_report(&snap).expect("host plane present");
        assert!(text.contains("flits per router cycle: 2.50"));
        assert!(
            text.contains(
                "process peak resident set: 38.3 MB, 74804 bytes per terminal (512 terminals)"
            ),
            "{text}"
        );
        // No host plane → no report.
        assert!(host_profile_report(&snapshot()).is_none());
    }

    #[test]
    fn host_profile_report_shows_hub_wire_bytes() {
        let mut snap = host_snapshot();
        snap.push_counter("host", "hub_rounds", 12);
        snap.push_counter("host", "worker_0_wire_in_bytes", 111);
        snap.push_counter("host", "worker_0_wire_out_bytes", 222);
        snap.push_counter("host", "worker_1_wire_in_bytes", 333);
        snap.push_counter("host", "worker_1_wire_out_bytes", 444);
        let text = host_profile_report(&snap).expect("host plane present");
        assert!(text.contains("hub: 12 rounds\n"));
        assert!(text.contains("worker 0: wire in 111 bytes, out 222 bytes"));
        assert!(text.contains("worker 1: wire in 333 bytes, out 444 bytes"));
    }

    #[test]
    fn checkpoint_host_report_summarizes_write_costs() {
        let text = checkpoint_host_report(&host_snapshot()).expect("checkpoint writes present");
        assert!(text.contains("writes           2"));
        assert!(text.contains("bytes            4096"));
        assert!(text.contains("total_ms         3.00"));
        assert!(text.contains("mean_ms_per_write 1.50"));
        // No host plane, or zero writes → no report.
        assert!(checkpoint_host_report(&snapshot()).is_none());
        let mut lean = MetricsSnapshot::new();
        lean.push_counter("host", "wall_ns", 1);
        assert!(checkpoint_host_report(&lean).is_none());
    }

    #[test]
    fn histogram_ascii_scales_bars_to_peak() {
        let text = histogram_ascii(&[(0, 1), (8, 4), (16, 0)], 8);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], " 0 1 ##");
        assert_eq!(lines[1], " 8 4 ########");
        // A zero-count bin renders no bar (but keeps its row).
        assert_eq!(lines[2], "16 0 ");
    }

    #[test]
    fn histogram_ascii_empty_histogram_says_so() {
        // The degenerate shapes must not collapse the scale: empty input
        // is labeled rather than rendered as zero-width noise.
        assert_eq!(histogram_ascii(&[], 20), "(empty histogram)\n");
        let snap = snapshot();
        assert!(histogram_ascii_report(&snap, "workload", "nope", 20).is_none());
    }

    #[test]
    fn histogram_ascii_single_bucket_fills_width() {
        // One bucket anchors the scale at zero, so its bar spans the full
        // width instead of dividing by a zero-count range.
        assert_eq!(histogram_ascii(&[(32, 7)], 10), "32 7 ##########\n");
        // Tiny non-zero counts still show at least one mark.
        let text = histogram_ascii(&[(0, 1), (8, 1000)], 10);
        assert!(text.lines().next().unwrap().ends_with(" #"));
    }

    #[test]
    fn histogram_ascii_report_reads_snapshot() {
        let snap = snapshot();
        let text = histogram_ascii_report(&snap, "workload", "packet_latency_generating", 8)
            .expect("histogram metric");
        // Bins (0,1) and (8,2): the fuller bin spans the width.
        assert_eq!(text, "0 1 ####\n8 2 ########\n");
    }

    #[test]
    fn histogram_names_lists_only_histograms() {
        let names = histogram_names(&snapshot());
        assert_eq!(
            names,
            vec![(
                "workload".to_string(),
                "packet_latency_generating".to_string()
            )]
        );
    }
}
