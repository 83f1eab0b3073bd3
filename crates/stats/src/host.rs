//! Host-time observability primitives: the wall-clock plane.
//!
//! Everything in this module is strictly *out-of-band*: host clocks
//! attribute where wall time went but never feed simulation state, so a
//! profiled run produces byte-identical logs, metrics, and time series
//! to an unprofiled one.
//!
//! - [`HostClock`] — a monotonic epoch for nanosecond wall-time reads,
//!   shared by the engines' profilers and the benchmark harness,
//! - [`TraceEventBuilder`] — an in-tree Chrome `trace_event` JSON
//!   writer (the format Perfetto and `chrome://tracing` load), emitting
//!   complete-duration slices, counter tracks, and process/thread
//!   metadata with no external dependencies,
//! - [`ProgressLine`] — the live-progress heartbeat record rendered as
//!   one integer-only JSON line per interval.

use std::fmt::Write;
use std::time::Instant;

use supersim_config::push_json_str;

/// A monotonic host-time epoch. All reads are nanoseconds since the
/// clock was created (saturating at `u64::MAX`, i.e. after ~584 years).
#[derive(Debug, Clone)]
pub struct HostClock {
    epoch: Instant,
}

impl HostClock {
    /// Starts the epoch now.
    pub fn new() -> Self {
        HostClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Milliseconds since the epoch.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a Chrome `trace_event` JSON document (the `traceEvents`
/// array form), loadable by Perfetto and `chrome://tracing`.
///
/// Timestamps and durations are microseconds, per the format. Events
/// may be appended in any order — viewers sort by `ts`.
#[derive(Debug, Default)]
pub struct TraceEventBuilder {
    buf: String,
    any: bool,
}

impl TraceEventBuilder {
    /// An empty trace document.
    pub fn new() -> Self {
        TraceEventBuilder {
            buf: String::from("{\"traceEvents\":["),
            any: false,
        }
    }

    fn sep(&mut self) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('\n');
    }

    /// Names a process track (`process_name` metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.sep();
        self.buf
            .push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        write!(self.buf, "{pid}").expect("writing to String cannot fail");
        self.buf.push_str(",\"tid\":0,\"args\":{\"name\":");
        push_json_str(&mut self.buf, name);
        self.buf.push_str("}}");
    }

    /// Names a thread track (`thread_name` metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.sep();
        self.buf
            .push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        write!(self.buf, "{pid},\"tid\":{tid}").expect("writing to String cannot fail");
        self.buf.push_str(",\"args\":{\"name\":");
        push_json_str(&mut self.buf, name);
        self.buf.push_str("}}");
    }

    /// A complete-duration slice (`ph:"X"`) on `(pid, tid)` spanning
    /// `[ts_us, ts_us + dur_us]`.
    pub fn slice(&mut self, pid: u64, tid: u64, name: &str, ts_us: u64, dur_us: u64) {
        self.sep();
        self.buf.push_str("{\"ph\":\"X\",\"name\":");
        push_json_str(&mut self.buf, name);
        write!(
            self.buf,
            ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur_us}}}"
        )
        .expect("writing to String cannot fail");
    }

    /// A counter sample (`ph:"C"`): one series point on the process's
    /// counter track named `name`.
    pub fn counter(&mut self, pid: u64, name: &str, ts_us: u64, value: u64) {
        self.sep();
        self.buf.push_str("{\"ph\":\"C\",\"name\":");
        push_json_str(&mut self.buf, name);
        write!(self.buf, ",\"pid\":{pid},\"tid\":0,\"ts\":{ts_us}").expect("write to String");
        self.buf.push_str(",\"args\":{\"value\":");
        write!(self.buf, "{value}}}}}").expect("writing to String cannot fail");
    }

    /// The finished JSON document.
    pub fn finish(mut self) -> String {
        if self.any {
            self.buf.push('\n');
        }
        self.buf.push_str("]}\n");
        self.buf
    }
}

/// One live-progress heartbeat, rendered as a single integer-only JSON
/// line (the `--progress` stderr stream).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgressLine {
    /// Last globally agreed simulation tick.
    pub tick: u64,
    /// Wall-clock milliseconds since the run started.
    pub wall_ms: u64,
    /// Cumulative executed events across all shards.
    pub events: u64,
    /// Instantaneous events/second (since the previous heartbeat).
    pub eps_inst: u64,
    /// Cumulative events/second over the whole run so far.
    pub eps_cum: u64,
    /// Estimated milliseconds to the configured tick horizon, when one
    /// is configured and progress has been made.
    pub eta_ms: Option<u64>,
    /// Worker restarts performed so far (process fleet only).
    pub restarts: u64,
    /// Terminal summary, present only on the final heartbeat:
    /// `(degraded, faults)`.
    pub done: Option<(bool, u64)>,
}

impl ProgressLine {
    /// The JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        write!(
            out,
            "{{\"tick\":{},\"wall_ms\":{},\"events\":{},\"eps\":{},\"eps_cum\":{}",
            self.tick, self.wall_ms, self.events, self.eps_inst, self.eps_cum
        )
        .expect("writing to String cannot fail");
        if let Some(eta) = self.eta_ms {
            write!(out, ",\"eta_ms\":{eta}").expect("writing to String cannot fail");
        }
        if self.restarts > 0 {
            write!(out, ",\"restarts\":{}", self.restarts).expect("writing to String cannot fail");
        }
        if let Some((degraded, faults)) = self.done {
            write!(
                out,
                ",\"done\":true,\"degraded\":{},\"faults\":{faults}",
                if degraded { "true" } else { "false" }
            )
            .expect("writing to String cannot fail");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = HostClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        assert!(clock.elapsed_ms() <= 1_000, "fresh clock reads near zero");
    }

    #[test]
    fn trace_builder_emits_valid_document_shape() {
        let mut b = TraceEventBuilder::new();
        b.process_name(1, "worker \"0\"");
        b.thread_name(1, 2, "shard-1");
        b.slice(1, 2, "round", 10, 5);
        b.counter(1, "events/s", 10, 1234);
        let doc = b.finish();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("]}\n"));
        assert!(doc.contains("\\\"0\\\""), "quotes escaped: {doc}");
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":5"));
        assert!(doc.contains("\"args\":{\"value\":1234}"));
        // Exactly three separators for four events.
        assert_eq!(doc.matches("},\n{").count(), 3);
    }

    #[test]
    fn empty_trace_is_well_formed() {
        assert_eq!(TraceEventBuilder::new().finish(), "{\"traceEvents\":[]}\n");
    }

    #[test]
    fn progress_line_renders_optional_fields() {
        let mut line = ProgressLine {
            tick: 500,
            wall_ms: 20,
            events: 4000,
            eps_inst: 100,
            eps_cum: 200,
            ..ProgressLine::default()
        };
        assert_eq!(
            line.render(),
            "{\"tick\":500,\"wall_ms\":20,\"events\":4000,\"eps\":100,\"eps_cum\":200}"
        );
        line.eta_ms = Some(80);
        line.restarts = 1;
        line.done = Some((true, 3));
        assert_eq!(
            line.render(),
            "{\"tick\":500,\"wall_ms\":20,\"events\":4000,\"eps\":100,\"eps_cum\":200,\
             \"eta_ms\":80,\"restarts\":1,\"done\":true,\"degraded\":true,\"faults\":3}"
        );
    }
}
