//! Host-time observability primitives: the wall-clock plane.
//!
//! Everything in this module is strictly *out-of-band*: host clocks
//! attribute where wall time went but never feed simulation state, so a
//! profiled run produces byte-identical logs, metrics, and time series
//! to an unprofiled one.
//!
//! - [`HostClock`] — a monotonic epoch for nanosecond wall-time reads,
//!   shared by the engines' profilers, the checkpoint writer and the
//!   benchmark harness (defined beside the recorders in `supersim-des`),
//! - [`TraceEventBuilder`] — an in-tree Chrome `trace_event` JSON
//!   writer (the format Perfetto and `chrome://tracing` load), emitting
//!   complete-duration slices, counter tracks, and process/thread
//!   metadata with no external dependencies,
//! - [`ProgressLine`] — the live-progress heartbeat record rendered as
//!   one integer-only JSON line per interval,
//! - [`HostData`] — what a profiled run collected ([`CkptTimes`] among
//!   it), and the owner of the `host` / `host_shard_<s>` metrics planes
//!   and the Chrome trace built from it.

use std::collections::BTreeMap;
use std::fmt::Write;

use supersim_config::push_json_str;
use supersim_des::{HostShardTimes, HubHostStats};

pub use supersim_des::HostClock;

use crate::metrics::MetricsSnapshot;

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

/// Wall-clock attribution of checkpoints on the run's host clock: state
/// capture plus file write, or a worker's capture plus its send to the
/// hub. Out-of-band: never touches simulation state.
#[derive(Debug, Clone, Default)]
pub struct CkptTimes {
    /// Checkpoint files written.
    pub writes: u64,
    /// Total wall time spent capturing + writing them, in nanoseconds.
    pub ns: u64,
    /// Total bytes written (state blobs, excluding headers).
    pub bytes: u64,
    /// `(start_ns, dur_ns)` per write — the trace exporter's slices.
    pub slices: Vec<(u64, u64)>,
}

impl CkptTimes {
    /// Records one completed checkpoint write spanning
    /// `[start_ns, end_ns]` that shipped `bytes` bytes of state.
    pub fn record(&mut self, start_ns: u64, end_ns: u64, bytes: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        self.writes += 1;
        self.ns += dur;
        self.bytes += bytes;
        self.slices.push((start_ns, dur));
    }
}

/// The process's peak resident set in bytes: `VmHWM` of
/// `/proc/self/status` on Linux, `None` elsewhere or when it cannot be
/// read.
fn peak_rss_bytes() -> Option<u64> {
    if cfg!(target_os = "linux") {
        vm_hwm_bytes(&std::fs::read_to_string("/proc/self/status").ok()?)
    } else {
        None
    }
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in bytes.
fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = value.trim().strip_suffix("kB")?.trim_end().parse().ok()?;
    kib.checked_mul(1024)
}

/// Everything the host-time plane collected over a run: per-shard
/// wall-clock records, hub accounting (worker fleets), and checkpoint
/// write attribution. Its planes exist only when profiling was armed and
/// carry host time exclusively, so stripping them recovers the
/// byte-identical simulation snapshot of an unprofiled run.
#[derive(Debug, Clone, Default)]
pub struct HostData {
    /// One record per shard (worker order for a fleet).
    pub shards: Vec<HostShardTimes>,
    /// Hub accounting; `None` for in-process runs.
    pub hub: Option<HubHostStats>,
    /// Checkpoint write attribution.
    pub ckpt: CkptTimes,
}

impl HostData {
    /// Pushes the `host_shard_<s>` planes, then the `host` plane. `wall_ns`
    /// is the run's wall time, `log_bytes` the encoded bytes the
    /// interfaces' sample and span logs held when assembly began, and
    /// `terminals` the network's terminal count, the divisor of the
    /// per-terminal memory figures. On an in-process run, where the
    /// platform reports it, the plane also holds this process's peak
    /// resident set so far (`peak_rss_bytes`: `VmHWM` on Linux, read when
    /// the plane is pushed, which report assembly does after the engine
    /// is dropped and every dump — span text, flit trace, time series,
    /// host trace — is rendered, so it covers the whole run). It is the
    /// run's own peak only when the process ran one simulation; a worker
    /// fleet's shards live in other processes, so a fleet run records
    /// none.
    pub fn push_planes(
        &self,
        metrics: &mut MetricsSnapshot,
        wall_ns: u64,
        log_bytes: u64,
        terminals: u32,
    ) {
        let shards = &self.shards;
        for (s, t) in shards.iter().enumerate() {
            let name = format!("host_shard_{s}");
            for (metric, value) in [
                ("total_batches", t.total_batches),
                ("sampled_batches", t.sampled_batches),
                ("sampled_events", t.sampled_events),
                ("drain_ns", t.drain_ns),
                ("execute_ns", t.execute_ns),
                ("sample_edge_ns", t.sample_edge_ns),
                ("exchange_ns", t.exchange_ns),
                ("checkpoint_ns", t.checkpoint_ns),
                ("checkpoint_writes", t.checkpoint_writes),
                ("checkpoint_bytes", t.checkpoint_bytes),
            ] {
                metrics.push_counter(name.clone(), metric, value);
            }
        }
        let sum = |field: fn(&HostShardTimes) -> u64| shards.iter().map(field).sum::<u64>();
        let exchange_ns = sum(|t| t.exchange_ns);
        for (metric, value) in [
            ("wall_ns", wall_ns),
            ("drain_ns", sum(|t| t.drain_ns)),
            ("execute_ns", sum(|t| t.execute_ns)),
            ("sample_edge_ns", sum(|t| t.sample_edge_ns)),
            ("exchange_ns", exchange_ns),
            ("total_batches", sum(|t| t.total_batches)),
            ("sampled_batches", sum(|t| t.sampled_batches)),
            ("sampled_events", sum(|t| t.sampled_events)),
            ("log_bytes", log_bytes),
            ("terminals", u64::from(terminals)),
        ] {
            metrics.push_counter("host", metric, value);
        }
        if let Some(peak) = self.hub.is_none().then(peak_rss_bytes).flatten() {
            metrics.push_counter("host", "peak_rss_bytes", peak);
        }
        // Imbalance gauges, scaled by 1000 (integer metrics plane):
        // `execute_imbalance_millis` is the max/min per-shard execute-time
        // ratio (1000 = perfectly balanced); `barrier_wait_millis` the
        // exchange's share of total loop time, the wait at the one
        // synchronization of each round.
        let min_exec = shards.iter().map(|t| t.execute_ns).min().unwrap_or(0);
        let max_exec = shards.iter().map(|t| t.execute_ns).max().unwrap_or(0);
        if shards.len() > 1 && min_exec > 0 {
            let imbalance = max_exec.saturating_mul(1000) / min_exec;
            metrics.push_counter("host", "execute_imbalance_millis", imbalance);
        }
        let loop_ns = sum(|t| t.drain_ns + t.execute_ns + t.sample_edge_ns + t.exchange_ns);
        if let Some(wait) = exchange_ns.saturating_mul(1000).checked_div(loop_ns) {
            metrics.push_counter("host", "barrier_wait_millis", wait);
        }
        // Per-component-class attribution from the sampled batches,
        // summed over shards, in name order so the plane layout is
        // stable.
        let mut classes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (class, ns, events) in shards.iter().flat_map(|t| &t.classes) {
            let slot = classes.entry(class).or_default();
            slot.0 += ns;
            slot.1 += events;
        }
        for (class, (ns, events)) in classes {
            metrics.push_counter("host", format!("class_{class}_ns"), ns);
            metrics.push_counter("host", format!("class_{class}_events"), events);
        }
        // Checkpoint attribution: worker-side state capture plus the
        // parent-side file writes.
        let ckpt = &self.ckpt;
        for (metric, value) in [
            (
                "checkpoint_writes",
                sum(|t| t.checkpoint_writes) + ckpt.writes,
            ),
            ("checkpoint_ns", sum(|t| t.checkpoint_ns) + ckpt.ns),
            ("checkpoint_bytes", sum(|t| t.checkpoint_bytes) + ckpt.bytes),
        ] {
            metrics.push_counter("host", metric, value);
        }
        if let Some(hub) = &self.hub {
            metrics.push_counter("host", "hub_rounds", hub.rounds);
            for (w, (inb, outb)) in hub
                .wire_in_bytes
                .iter()
                .zip(&hub.wire_out_bytes)
                .enumerate()
            {
                metrics.push_counter("host", format!("worker_{w}_wire_in_bytes"), *inb);
                metrics.push_counter("host", format!("worker_{w}_wire_out_bytes"), *outb);
            }
        }
    }

    /// The Chrome `trace_event` document of the run. In-process runs put
    /// every shard on pid 0, one tid per shard; a fleet gets one pid per
    /// worker (the hub is pid 0). Each sampled round renders a parent
    /// "round" slice with execute/exchange children laid end to end,
    /// so slices nest by construction. Worker processes time against their
    /// own epochs; cross-pid skew is cosmetic. `arena_high` is the routers'
    /// flit-arena high-water mark.
    pub fn chrome_trace(&self, arena_high: u64) -> String {
        let fleet = self.hub.is_some();
        let mut tb = TraceEventBuilder::new();
        tb.process_name(0, if fleet { "supersim-hub" } else { "supersim" });
        for (s, t) in self.shards.iter().enumerate() {
            let (pid, tid) = if fleet {
                (1 + s as u64, 0)
            } else {
                (0, s as u64)
            };
            if fleet {
                tb.process_name(pid, &format!("worker-{s}"));
            }
            tb.thread_name(pid, tid, &format!("shard-{s}"));
            for sl in &t.round_slices {
                let start_us = sl.start_ns / 1000;
                let exec_us = sl.execute_ns / 1000;
                let exch_us = sl.exchange_ns / 1000;
                tb.slice(pid, tid, "round", start_us, exec_us + exch_us);
                if exec_us > 0 {
                    tb.slice(pid, tid, "execute", start_us, exec_us);
                }
                if exch_us > 0 {
                    tb.slice(pid, tid, "exchange", start_us + exec_us, exch_us);
                }
                let dur_ns = sl.execute_ns + sl.exchange_ns;
                if let Some(eps) = sl.events.saturating_mul(1_000_000_000).checked_div(dur_ns) {
                    tb.counter(pid, "events_per_sec", start_us, eps);
                }
            }
        }
        if !self.ckpt.slices.is_empty() {
            let ckpt_tid = if fleet { 0 } else { self.shards.len() as u64 };
            tb.thread_name(0, ckpt_tid, "checkpoint");
            for &(start_ns, dur_ns) in &self.ckpt.slices {
                tb.slice(0, ckpt_tid, "checkpoint", start_ns / 1000, dur_ns / 1000);
            }
        }
        tb.counter(0, "arena_occupancy_peak", 0, arena_high);
        tb.finish()
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
    fn peak_rss_is_the_vm_hwm_line() {
        let status = "Name:\tsupersim\nVmPeak:\t  90000 kB\nVmHWM:\t   38312 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(38_312 * 1024));
        assert_eq!(vm_hwm_bytes("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t 12 pages\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        }
    }

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
