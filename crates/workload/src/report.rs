//! The interfaces' share of the end-of-run report: the `workload` metrics
//! plane, the merged sample log and the span logs the span text is
//! rendered from.

use supersim_des::wire::EncodedLog;
use supersim_netbase::{LinkFaults, Phase};
use supersim_stats::{
    ComponentSampler, Histogram, MetricValue, MetricsSnapshot, SampleLog, SampleRecord,
};

use crate::interface::{Interface, InterfaceCounters, SpanMetrics, SpanRecord};

/// One interface's sample and span logs, as [`Interface::take_logs`]
/// moves them out.
pub type InterfaceLogs = (EncodedLog<SampleRecord>, EncodedLog<SpanRecord>);

/// What the interfaces of a run delivered, beyond the `workload` plane.
pub struct WorkloadReport<'a> {
    /// The merged sample log, one segment per interface in index order.
    pub log: SampleLog,
    /// Each interface's span log, in index order, when spans were
    /// enabled: [`spans_json_lines`](crate::spans_json_lines) renders
    /// them once the components are gone.
    pub span_logs: Option<Vec<EncodedLog<SpanRecord>>>,
    /// Interface counters, summed.
    pub counters: InterfaceCounters,
    /// Flits ejected network-wide during the sampling window.
    pub window_flits: u64,
    /// Span histograms, merged.
    pub span_metrics: SpanMetrics,
    /// Encoded bytes the sample and span logs held before they were
    /// merged: what the run held for its two largest outputs.
    pub log_bytes: u64,
    /// Each interface's fault state, for the fault plane.
    pub faults: Vec<&'a LinkFaults>,
    /// Each interface's time-series ring, for the window fold.
    pub samplers: Vec<&'a ComponentSampler>,
}

/// Pushes the `workload` plane — with its `span_*` histograms when
/// `spans` is set — from `ifaces`, and merges `logs`, each interface's
/// logs in the same order. Every sum is commutative integer arithmetic,
/// so the plane is the same however the interfaces were partitioned.
///
/// Each sample log moves into the merged log as one of its segments, still
/// wire-encoded; the span logs are handed back as they are, so the span
/// text need not share the heap with the components.
pub fn push_workload_plane<'a>(
    metrics: &mut MetricsSnapshot,
    ifaces: &[&'a Interface],
    logs: Vec<InterfaceLogs>,
    spans: bool,
) -> WorkloadReport<'a> {
    let log_bytes = logs
        .iter()
        .map(|(s, p)| s.byte_len() + p.byte_len())
        .sum::<usize>();
    let mut log = SampleLog::new();
    let mut span_logs = Vec::with_capacity(logs.len());
    for (samples, span_log) in logs {
        log.append(samples);
        span_logs.push(span_log);
    }

    let mut counters = InterfaceCounters::default();
    let mut window_flits = 0;
    let (mut inject_stalls, mut queue_depth, mut queue_depth_high) = (0, 0, 0);
    let mut phase_latency = [Histogram::new(); 4];
    let mut span_metrics = SpanMetrics::default();
    for iface in ifaces {
        if let (Some(start), Some(end)) = (
            iface.flits_at_phase(Phase::Generating),
            iface.flits_at_phase(Phase::Finishing),
        ) {
            window_flits += end - start;
        }
        counters.absorb(&iface.counters);
        let m = &iface.metrics;
        inject_stalls += m.inject_stalls.get();
        queue_depth += m.queue_depth.get();
        queue_depth_high = queue_depth_high.max(m.queue_depth.max());
        for (agg, h) in phase_latency.iter_mut().zip(&m.phase_latency) {
            agg.merge(h);
        }
        if let Some(spans) = &m.spans {
            span_metrics.merge(spans);
        }
    }

    for (name, value) in [
        ("messages_sent", counters.messages_sent),
        ("packets_sent", counters.packets_sent),
        ("flits_sent", counters.flits_sent),
        ("flits_received", counters.flits_received),
        ("messages_received", counters.messages_received),
        ("inject_stalls", inject_stalls),
    ] {
        metrics.push_counter("workload", name, value);
    }
    let queue_depth = MetricValue::Gauge {
        value: queue_depth,
        max: queue_depth_high,
    };
    metrics.push("workload", "queue_depth", queue_depth);
    for phase in Phase::ALL {
        let name = format!("packet_latency_{phase}");
        metrics.push_histogram("workload", name, &phase_latency[phase.index()]);
    }
    if spans {
        for (name, h) in span_metrics.named() {
            metrics.push_histogram("workload", format!("span_{name}"), h);
        }
    }

    WorkloadReport {
        log,
        span_logs: spans.then_some(span_logs),
        counters,
        window_flits,
        span_metrics,
        log_bytes: log_bytes as u64,
        faults: ifaces.iter().filter_map(|i| i.fault.as_ref()).collect(),
        samplers: ifaces.iter().filter_map(|i| i.sampler.as_ref()).collect(),
    }
}
