//! The live-progress heartbeat (`progress.interval_ms`).
//!
//! A background thread samples the engine's out-of-band
//! [`ProgressShared`] board on a fixed wall-clock interval and emits one
//! integer-only JSON line per beat to stderr — simulated tick, wall
//! elapsed, instantaneous and cumulative events/second, an ETA against
//! the configured tick horizon, and restart counters. On a TTY the line
//! rewrites in place (`\r`); piped output gets plain JSON-lines. The
//! board is written with relaxed atomics by the engines and only ever
//! read here, so the heartbeat can never perturb simulation state.

use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use supersim_des::{ProgressShared, Tick};
use supersim_stats::{HostClock, MetricValue, ProgressLine};

use crate::builder::Built;
use crate::report::RunReport;

/// A running heartbeat thread. Call [`Heartbeat::finish`] to stop it
/// and emit the final summary line.
pub(crate) struct Heartbeat {
    stop: Arc<AtomicBool>,
    board: Arc<ProgressShared>,
    clock: HostClock,
    tick_limit: Tick,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// One rendered beat from the board's current state.
fn beat(
    board: &ProgressShared,
    clock: &HostClock,
    tick_limit: Tick,
    prev: &mut (u64, u64),
) -> ProgressLine {
    let events = board.events();
    let wall_ms = clock.elapsed_ms();
    let (prev_events, prev_ms) = *prev;
    *prev = (events, wall_ms);
    let dt_ms = wall_ms.saturating_sub(prev_ms);
    let eps_inst = events
        .saturating_sub(prev_events)
        .saturating_mul(1000)
        .checked_div(dt_ms)
        .unwrap_or(0);
    let eps_cum = events
        .saturating_mul(1000)
        .checked_div(wall_ms)
        .unwrap_or(0);
    let tick = board.tick();
    let eta_ms = (tick > 0 && tick < tick_limit && wall_ms > 0)
        .then(|| (tick_limit - tick).saturating_mul(wall_ms) / tick);
    ProgressLine {
        tick,
        wall_ms,
        events,
        eps_inst,
        eps_cum,
        eta_ms,
        restarts: board.restarts(),
        done: None,
    }
}

/// Writes one beat to stderr. On a TTY, interim beats rewrite a single
/// status line; the final beat (and all piped output) is a full line.
fn emit(line: &ProgressLine, last: bool) {
    let mut err = std::io::stderr().lock();
    let rendered = line.render();
    let _ = if !last && err.is_terminal() {
        write!(err, "\r{rendered}\x1b[K")
    } else {
        writeln!(err, "{rendered}")
    };
    let _ = err.flush();
}

/// Starts the heartbeat thread of a run, if `progress.interval_ms` armed
/// one (which is exactly when the build created a board).
pub(crate) fn start(built: &Built) -> Option<Heartbeat> {
    let board = Arc::clone(built.host.board.as_ref()?);
    let interval_ms = built.host.progress_interval_ms;
    let tick_limit = built.tick_limit;
    let stop = Arc::new(AtomicBool::new(false));
    let clock = HostClock::new();
    let handle = {
        let stop = Arc::clone(&stop);
        let board = Arc::clone(&board);
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut prev = (0u64, 0u64);
            let mut next_beat = interval_ms;
            // Sleep in short steps so finish() never waits a full
            // interval for the thread to notice the stop flag.
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(interval_ms.clamp(1, 10)));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if clock.elapsed_ms() >= next_beat {
                    emit(&beat(&board, &clock, tick_limit, &mut prev), false);
                    next_beat = clock.elapsed_ms().saturating_add(interval_ms);
                }
            }
        })
    };
    Some(Heartbeat {
        stop,
        board,
        clock,
        tick_limit,
        handle: Some(handle),
    })
}

impl Heartbeat {
    /// Stops the thread and emits the final summary line, which adds
    /// the run's degraded flag and its `fault.injected` count (0 when the
    /// fault plane was off).
    pub(crate) fn finish(mut self, report: &RunReport) {
        let faults = match report.output.metrics.get("fault", "injected") {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let mut prev = (0u64, 0u64);
        let mut line = beat(&self.board, &self.clock, self.tick_limit, &mut prev);
        line.eps_inst = line.eps_cum;
        line.eta_ms = None;
        line.done = Some((report.error.is_some(), faults));
        emit(&line, true);
    }
}

impl Drop for Heartbeat {
    // Early-error paths drop the heartbeat without a final line; stop
    // the thread so it never outlives the run.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
