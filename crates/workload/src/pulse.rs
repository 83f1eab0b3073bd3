//! The Pulse application: a temporary traffic disturbance.
//!
//! Pulse idles through warming, then — optionally after a delay — fires a
//! fixed number of messages per terminal at its own rate and reports
//! `Complete`. Combined with [`Blast`](crate::BlastApp) it reproduces the
//! paper's transient analysis of adaptive routing (Figure 5), where a
//! steady-state application's latency is disrupted by a burst.

use std::sync::Arc;

use supersim_des::{wire_overlay, Rng};

use supersim_des::Tick;
use supersim_netbase::{AppSignal, Phase, TerminalId};

use crate::injection::{BernoulliProcess, SizeDistribution};
use crate::terminal::{Application, MessageSpec, Terminal, TerminalAction};
use crate::traffic::TrafficPattern;

/// Configuration for [`PulseApp`].
#[derive(Clone)]
pub struct PulseConfig {
    /// Destination pattern.
    pub pattern: Arc<dyn TrafficPattern>,
    /// Injection load during the pulse, flits per tick per terminal.
    pub load: f64,
    /// Message sizes.
    pub sizes: SizeDistribution,
    /// Delay after the `Start` command before the pulse begins.
    pub delay: Tick,
    /// Messages per terminal in the pulse.
    pub count: u64,
    /// Restricts the pulse to these terminals (sorted ascending). `None`
    /// pulses from every terminal. Outsiders complete immediately.
    pub sources: Option<Arc<[u32]>>,
}

/// The Pulse application.
pub struct PulseApp {
    config: PulseConfig,
}

impl PulseApp {
    /// Creates a Pulse application.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1]`.
    pub fn new(config: PulseConfig) -> Self {
        assert!(
            config.load > 0.0 && config.load <= 1.0,
            "pulse load must be in (0, 1] flits/tick/terminal"
        );
        PulseApp { config }
    }
}

impl Application for PulseApp {
    fn name(&self) -> &str {
        "pulse"
    }

    fn create_terminal(&self, terminal: TerminalId) -> Box<dyn Terminal> {
        let active = self
            .config
            .sources
            .as_ref()
            .is_none_or(|s| s.binary_search(&terminal.0).is_ok());
        Box::new(PulseTerminal {
            me: terminal,
            config: self.config.clone(),
            phase: Phase::Warming,
            injection: BernoulliProcess::new(
                (self.config.load / self.config.sizes.mean()).min(1.0),
            ),
            next_gen: None,
            remaining: if active { self.config.count } else { 0 },
        })
    }
}

struct PulseTerminal {
    me: TerminalId,
    config: PulseConfig,
    phase: Phase,
    injection: BernoulliProcess,
    next_gen: Option<Tick>,
    remaining: u64,
}

impl Terminal for PulseTerminal {
    fn name(&self) -> &str {
        "pulse_terminal"
    }

    fn enter_phase(&mut self, phase: Phase, now: Tick, rng: &mut Rng) -> Vec<TerminalAction> {
        self.phase = phase;
        match phase {
            Phase::Warming => vec![TerminalAction::Signal(AppSignal::Ready)],
            Phase::Generating => {
                if self.remaining == 0 {
                    vec![TerminalAction::Signal(AppSignal::Complete)]
                } else {
                    self.next_gen = Some(now + self.config.delay + self.injection.next_gap(rng));
                    Vec::new()
                }
            }
            Phase::Finishing => {
                self.next_gen = None;
                vec![TerminalAction::Signal(AppSignal::Done)]
            }
            Phase::Draining => {
                self.next_gen = None;
                Vec::new()
            }
        }
    }

    fn next_wake(&self) -> Option<Tick> {
        self.next_gen
    }

    fn wake(&mut self, now: Tick, rng: &mut Rng) -> Vec<TerminalAction> {
        let mut actions = Vec::new();
        if self.next_gen.is_some_and(|t| t <= now) && self.remaining > 0 {
            let dst = self.config.pattern.dest(self.me, rng);
            let size = self.config.sizes.sample(rng);
            actions.push(TerminalAction::Send(MessageSpec {
                dst,
                size,
                sample: self.phase.samples(),
            }));
            self.remaining -= 1;
            if self.remaining == 0 {
                self.next_gen = None;
                actions.push(TerminalAction::Signal(AppSignal::Complete));
            } else {
                self.next_gen = Some(now + self.injection.next_gap(rng));
            }
        }
        actions
    }

    fn on_message(
        &mut self,
        _src: TerminalId,
        _size: u32,
        _now: Tick,
        _rng: &mut Rng,
    ) -> Vec<TerminalAction> {
        Vec::new()
    }
}

wire_overlay!(PulseTerminal {
    phase,
    next_gen,
    remaining,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Neighbor;

    fn rng() -> Rng {
        Rng::new(13)
    }

    fn app(count: u64, delay: Tick) -> PulseApp {
        PulseApp::new(PulseConfig {
            pattern: Arc::new(Neighbor::new(8, 1)),
            load: 1.0,
            sizes: SizeDistribution::Fixed(1),
            delay,
            count,
            sources: None,
        })
    }

    #[test]
    fn idle_during_warming_but_ready() {
        let mut rng = rng();
        let mut t = app(4, 0).create_terminal(TerminalId(0));
        let actions = t.enter_phase(Phase::Warming, 0, &mut rng);
        assert_eq!(actions, vec![TerminalAction::Signal(AppSignal::Ready)]);
        assert_eq!(t.next_wake(), None);
    }

    #[test]
    fn fires_exactly_count_messages_then_completes() {
        let mut rng = rng();
        let mut t = app(4, 0).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 100, &mut rng);
        let mut sends = 0;
        let mut complete = false;
        while let Some(w) = t.next_wake() {
            for a in t.wake(w, &mut rng) {
                match a {
                    TerminalAction::Send(_) => sends += 1,
                    TerminalAction::Signal(AppSignal::Complete) => complete = true,
                    other => panic!("unexpected action {other:?}"),
                }
            }
        }
        assert_eq!(sends, 4);
        assert!(complete);
    }

    #[test]
    fn delay_postpones_the_burst() {
        let mut rng = rng();
        let mut t = app(1, 500).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 100, &mut rng);
        assert!(t.next_wake().expect("armed") > 600);
    }

    #[test]
    fn source_mask_silences_outsiders() {
        let mut rng = rng();
        let app = PulseApp::new(PulseConfig {
            pattern: Arc::new(Neighbor::new(8, 1)),
            load: 1.0,
            sizes: SizeDistribution::Fixed(1),
            delay: 0,
            count: 4,
            sources: Some(Arc::from(vec![0u32, 5].into_boxed_slice())),
        });
        let mut silent = app.create_terminal(TerminalId(3));
        silent.enter_phase(Phase::Warming, 0, &mut rng);
        let actions = silent.enter_phase(Phase::Generating, 10, &mut rng);
        assert_eq!(actions, vec![TerminalAction::Signal(AppSignal::Complete)]);
        let mut active = app.create_terminal(TerminalId(5));
        active.enter_phase(Phase::Warming, 0, &mut rng);
        active.enter_phase(Phase::Generating, 10, &mut rng);
        assert!(active.next_wake().is_some());
    }

    #[test]
    fn zero_count_completes_immediately() {
        let mut rng = rng();
        let mut t = app(0, 0).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        let actions = t.enter_phase(Phase::Generating, 10, &mut rng);
        assert_eq!(actions, vec![TerminalAction::Signal(AppSignal::Complete)]);
    }

    #[test]
    fn finishing_reports_done_and_stops() {
        let mut rng = rng();
        let mut t = app(100, 0).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 0, &mut rng);
        let actions = t.enter_phase(Phase::Finishing, 50, &mut rng);
        assert_eq!(actions, vec![TerminalAction::Signal(AppSignal::Done)]);
        assert_eq!(t.next_wake(), None);
    }
}
