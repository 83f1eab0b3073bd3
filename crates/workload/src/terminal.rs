//! The terminal abstraction: per-endpoint, per-application traffic logic.
//!
//! Each [`Application`] constructs one [`Terminal`] per network endpoint
//! (paper §IV-A); the hosting interface drives terminals through phase
//! changes, timed wake-ups, and message-arrival callbacks, and carries out
//! the actions they return.

use supersim_des::wire::Overlay;
use supersim_des::Rng;

use supersim_des::Tick;
use supersim_netbase::{AppSignal, Phase, TerminalId};

/// A message a terminal wants to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSpec {
    /// Destination terminal.
    pub dst: TerminalId,
    /// Message size in flits.
    pub size: u32,
    /// Whether the message is flagged for the sampling window.
    pub sample: bool,
}

/// An action returned by a terminal to its hosting interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalAction {
    /// Enqueue a message for injection.
    Send(MessageSpec),
    /// Raise a four-phase protocol signal toward the workload monitor.
    Signal(AppSignal),
    /// Record a completed application-level transaction (e.g. a
    /// request/reply pair) that started at `start`.
    RecordTransaction {
        /// Tick the transaction began.
        start: Tick,
        /// The peer terminal.
        peer: TerminalId,
        /// Total flits involved.
        size: u32,
    },
}

/// Per-endpoint traffic logic of one application. Its dynamic state is
/// its [`Overlay`], saved in its interface's checkpoint section.
pub trait Terminal: Overlay + Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Called when the application's phase changes (including the initial
    /// entry into [`Phase::Warming`] at time 0).
    fn enter_phase(&mut self, phase: Phase, now: Tick, rng: &mut Rng) -> Vec<TerminalAction>;

    /// The next tick this terminal wants [`Terminal::wake`] called, if
    /// any. Must be non-decreasing between wakes.
    fn next_wake(&self) -> Option<Tick>;

    /// Timed callback at the tick previously returned by
    /// [`Terminal::next_wake`].
    fn wake(&mut self, now: Tick, rng: &mut Rng) -> Vec<TerminalAction>;

    /// A complete message of `size` flits from `src` arrived for this
    /// terminal.
    fn on_message(
        &mut self,
        src: TerminalId,
        size: u32,
        now: Tick,
        rng: &mut Rng,
    ) -> Vec<TerminalAction>;
}

/// Constructs the per-endpoint [`Terminal`]s of one application.
pub trait Application: Send {
    /// Short application name (e.g. `"blast"`).
    fn name(&self) -> &str;

    /// Builds the terminal for endpoint `terminal`.
    fn create_terminal(&self, terminal: TerminalId) -> Box<dyn Terminal>;
}
