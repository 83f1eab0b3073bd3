//! In-memory spans around the public calls a run makes into each layer.
//!
//! The recorder is off for the timed repetitions (begin/end are then a
//! branch and nothing else) and on for the traced one. Spans stay in
//! memory until the run ends and are then written as Chrome `trace_event`
//! JSON, one thread track per simulation run.

use std::collections::BTreeMap;
use std::time::Instant;

use supersim::stats::TraceEventBuilder;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which simulation run of the workload the span belongs to.
    pub run: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: enabled.then(Instant::now),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, run: usize) -> Open {
        let Some(epoch) = self.epoch else {
            return Open(None);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: Self::now_ns(epoch),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let (Some(index), Some(epoch)) = (open.0, self.epoch) else {
            return;
        };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close in nesting order");
        self.spans[index].end_ns = Self::now_ns(epoch);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total time per span name, in nanoseconds.
pub fn total_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.ns();
    }
    out
}

/// Self time per span name: each span's duration minus the part its
/// children cover, in nanoseconds.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

/// Renders the spans as a Chrome `trace_event` document: process 0, one
/// thread per simulation run, slices nested by containment.
pub fn trace_event_json(spans: &[Span], process: &str, run_labels: &[String]) -> String {
    let mut tb = TraceEventBuilder::new();
    tb.process_name(0, process);
    for (run, label) in run_labels.iter().enumerate() {
        tb.thread_name(0, run as u64, label);
    }
    for s in spans {
        tb.slice(0, s.run as u64, s.name, s.start_ns / 1000, s.ns() / 1000);
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("run", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("serialize", 40, 90, Some(0)),
            span("write", 50, 80, Some(2)),
        ];
        let own = self_ns(&spans);
        assert_eq!(own["run"], 100 - 20 - 50);
        assert_eq!(own["build"], 20);
        assert_eq!(own["serialize"], 50 - 30);
        assert_eq!(own["write"], 30);
        assert_eq!(total_ns(&spans)["serialize"], 50);
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_off() {
        let mut on = Tracer::new(true);
        let outer = on.begin("outer", 3);
        let inner = on.begin("inner", 3);
        on.end(inner);
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let open = off.begin("outer", 0);
        off.end(open);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_document_parses_and_carries_every_span() {
        let spans = [
            span("run", 0, 5_000, None),
            span("core.run", 1_000, 4_000, Some(0)),
        ];
        let doc = trace_event_json(&spans, "ssbench", &["only".to_string()]);
        let parsed = supersim::config::parse(&doc).expect("trace_event JSON parses");
        let events = parsed.req_array("traceEvents").expect("traceEvents array");
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.req_str("ph") == Ok("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[1].req_str("name"), Ok("core.run"));
        assert_eq!(slices[1].req_u64("dur"), Ok(3));
    }
}
