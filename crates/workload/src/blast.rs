//! The Blast application: steady-state random traffic.
//!
//! Blast drives the network at a constant injection rate. It optionally
//! warms the network before reporting `Ready`, samples its traffic during
//! the generating phase, reports `Complete` after a configured number of
//! sampled messages or a configured sampling duration, and keeps sending
//! unsampled traffic through the finishing phase — exactly the behavior of
//! the paper's Figure 5 experiment.

use std::sync::Arc;

use supersim_des::{wire_overlay, Rng};

use supersim_des::Tick;
use supersim_netbase::{AppSignal, Phase, TerminalId};

use crate::injection::{BernoulliProcess, SizeDistribution};
use crate::terminal::{Application, MessageSpec, Terminal, TerminalAction};
use crate::traffic::TrafficPattern;

/// Configuration for [`BlastApp`].
#[derive(Clone)]
pub struct BlastConfig {
    /// Destination pattern.
    pub pattern: Arc<dyn TrafficPattern>,
    /// Offered load in flits per tick per terminal (0 = idle).
    pub load: f64,
    /// Message sizes.
    pub sizes: SizeDistribution,
    /// Warm-up duration in ticks before `Ready`.
    pub warmup_ticks: Tick,
    /// Report `Complete` after this many sampled messages per terminal.
    pub sample_messages: Option<u64>,
    /// Report `Complete` after this much generating time.
    pub sample_ticks: Option<Tick>,
    /// Restricts injection to these terminals (sorted ascending). `None`
    /// means every terminal sends — the classic Blast. Terminals outside
    /// the set stay silent and complete immediately, which models
    /// few-to-many (outcast) and many-to-few (incast) storms.
    pub sources: Option<Arc<[u32]>>,
}

/// The Blast application.
pub struct BlastApp {
    config: BlastConfig,
}

impl BlastApp {
    /// Creates a Blast application.
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative or exceeds one flit per tick.
    pub fn new(config: BlastConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.load),
            "load must be in [0, 1] flits/tick/terminal"
        );
        BlastApp { config }
    }
}

impl Application for BlastApp {
    fn name(&self) -> &str {
        "blast"
    }

    fn create_terminal(&self, terminal: TerminalId) -> Box<dyn Terminal> {
        let active = self
            .config
            .sources
            .as_ref()
            .is_none_or(|s| s.binary_search(&terminal.0).is_ok());
        Box::new(BlastTerminal {
            me: terminal,
            config: self.config.clone(),
            phase: Phase::Warming,
            injection: (active && self.config.load > 0.0).then(|| {
                BernoulliProcess::new((self.config.load / self.config.sizes.mean()).min(1.0))
            }),
            next_gen: None,
            signal_at: None,
            sampled_sent: 0,
            completed: false,
        })
    }
}

struct BlastTerminal {
    me: TerminalId,
    config: BlastConfig,
    phase: Phase,
    injection: Option<BernoulliProcess>,
    next_gen: Option<Tick>,
    signal_at: Option<(Tick, AppSignal)>,
    sampled_sent: u64,
    completed: bool,
}

impl BlastTerminal {
    fn arm_generation(&mut self, now: Tick, rng: &mut Rng) {
        if let Some(inj) = &mut self.injection {
            if self.phase.allows_generation() {
                self.next_gen = Some(now + inj.next_gap(rng));
                return;
            }
        }
        self.next_gen = None;
    }

    fn make_message(&mut self, rng: &mut Rng) -> MessageSpec {
        let dst = self.config.pattern.dest(self.me, rng);
        let size = self.config.sizes.sample(rng);
        let sample = self.phase.samples();
        if sample {
            self.sampled_sent += 1;
        }
        MessageSpec { dst, size, sample }
    }

    fn maybe_complete(&mut self) -> Option<TerminalAction> {
        if self.completed || self.phase != Phase::Generating {
            return None;
        }
        let by_count = self
            .config
            .sample_messages
            .is_some_and(|n| self.sampled_sent >= n);
        if by_count {
            self.completed = true;
            return Some(TerminalAction::Signal(AppSignal::Complete));
        }
        None
    }
}

impl Terminal for BlastTerminal {
    fn name(&self) -> &str {
        "blast_terminal"
    }

    fn enter_phase(&mut self, phase: Phase, now: Tick, rng: &mut Rng) -> Vec<TerminalAction> {
        self.phase = phase;
        let mut actions = Vec::new();
        match phase {
            Phase::Warming => {
                if self.config.warmup_ticks == 0 {
                    actions.push(TerminalAction::Signal(AppSignal::Ready));
                } else {
                    self.signal_at = Some((now + self.config.warmup_ticks, AppSignal::Ready));
                }
                self.arm_generation(now, rng);
            }
            Phase::Generating => {
                if self.injection.is_none() {
                    // A silent terminal (zero load or outside the source
                    // set) has nothing to sample: complete immediately so
                    // it never wedges the workload handshake.
                    self.completed = true;
                    actions.push(TerminalAction::Signal(AppSignal::Complete));
                } else {
                    match (self.config.sample_ticks, self.config.sample_messages) {
                        (Some(t), _) => self.signal_at = Some((now + t, AppSignal::Complete)),
                        (None, Some(_)) => {} // completion counted per message
                        (None, None) => {
                            self.completed = true;
                            actions.push(TerminalAction::Signal(AppSignal::Complete));
                        }
                    }
                }
                self.arm_generation(now, rng);
            }
            Phase::Finishing => {
                actions.push(TerminalAction::Signal(AppSignal::Done));
                self.arm_generation(now, rng);
            }
            Phase::Draining => {
                self.next_gen = None;
                self.signal_at = None;
            }
        }
        actions
    }

    fn next_wake(&self) -> Option<Tick> {
        match (self.next_gen, self.signal_at) {
            (Some(g), Some((s, _))) => Some(g.min(s)),
            (Some(g), None) => Some(g),
            (None, Some((s, _))) => Some(s),
            (None, None) => None,
        }
    }

    fn wake(&mut self, now: Tick, rng: &mut Rng) -> Vec<TerminalAction> {
        let mut actions = Vec::new();
        if let Some((t, sig)) = self.signal_at {
            if t <= now {
                self.signal_at = None;
                if sig == AppSignal::Complete {
                    self.completed = true;
                }
                actions.push(TerminalAction::Signal(sig));
            }
        }
        if self.next_gen.is_some_and(|t| t <= now) {
            let spec = self.make_message(rng);
            actions.push(TerminalAction::Send(spec));
            if let Some(done) = self.maybe_complete() {
                actions.push(done);
            }
            self.arm_generation(now, rng);
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
        Vec::new() // blast is one-way traffic
    }
}

wire_overlay!(BlastTerminal {
    phase,
    next_gen,
    signal_at,
    sampled_sent,
    completed,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::UniformRandom;

    fn rng() -> Rng {
        Rng::new(5)
    }

    fn app(load: f64, warmup: Tick, count: Option<u64>, ticks: Option<Tick>) -> BlastApp {
        BlastApp::new(BlastConfig {
            pattern: Arc::new(UniformRandom::new(8)),
            load,
            sizes: SizeDistribution::Fixed(2),
            warmup_ticks: warmup,
            sample_messages: count,
            sample_ticks: ticks,
            sources: None,
        })
    }

    #[test]
    fn immediate_ready_without_warmup() {
        let mut rng = rng();
        let mut t = app(0.5, 0, Some(3), None).create_terminal(TerminalId(0));
        let actions = t.enter_phase(Phase::Warming, 0, &mut rng);
        assert!(actions.contains(&TerminalAction::Signal(AppSignal::Ready)));
    }

    #[test]
    fn warmup_delays_ready() {
        let mut rng = rng();
        let mut t = app(0.5, 100, Some(3), None).create_terminal(TerminalId(0));
        let actions = t.enter_phase(Phase::Warming, 0, &mut rng);
        assert!(actions.is_empty());
        // Wake exactly at the warm-up end raises Ready.
        let mut saw_ready = false;
        let mut now = 0;
        for _ in 0..1000 {
            let Some(w) = t.next_wake() else { break };
            now = w;
            for a in t.wake(now, &mut rng) {
                if a == TerminalAction::Signal(AppSignal::Ready) {
                    saw_ready = true;
                }
            }
            if saw_ready {
                break;
            }
        }
        assert!(saw_ready);
        assert!(now >= 100);
    }

    #[test]
    fn count_based_completion() {
        let mut rng = rng();
        let mut t = app(1.0, 0, Some(2), None).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 10, &mut rng);
        let mut sends = 0;
        let mut complete = false;
        for _ in 0..100 {
            let Some(w) = t.next_wake() else { break };
            for a in t.wake(w, &mut rng) {
                match a {
                    TerminalAction::Send(spec) => {
                        assert!(spec.sample);
                        sends += 1;
                    }
                    TerminalAction::Signal(AppSignal::Complete) => complete = true,
                    _ => {}
                }
            }
            if complete {
                break;
            }
        }
        assert!(complete);
        assert_eq!(sends, 2);
    }

    #[test]
    fn time_based_completion() {
        let mut rng = rng();
        let mut t = app(0.25, 0, None, Some(50)).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 100, &mut rng);
        let mut complete_at = None;
        while complete_at.is_none() {
            let w = t.next_wake().expect("must eventually complete");
            for a in t.wake(w, &mut rng) {
                if a == TerminalAction::Signal(AppSignal::Complete) {
                    complete_at = Some(w);
                }
            }
        }
        assert_eq!(complete_at, Some(150));
    }

    #[test]
    fn immediate_completion_when_unconfigured() {
        let mut rng = rng();
        let mut t = app(0.5, 0, None, None).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        let actions = t.enter_phase(Phase::Generating, 5, &mut rng);
        assert!(actions.contains(&TerminalAction::Signal(AppSignal::Complete)));
    }

    #[test]
    fn finishing_sends_unsampled_and_done() {
        let mut rng = rng();
        let mut t = app(1.0, 0, Some(1), None).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 0, &mut rng);
        let actions = t.enter_phase(Phase::Finishing, 20, &mut rng);
        assert!(actions.contains(&TerminalAction::Signal(AppSignal::Done)));
        // Still generating, but unsampled.
        let w = t.next_wake().expect("still sending");
        for a in t.wake(w, &mut rng) {
            if let TerminalAction::Send(spec) = a {
                assert!(!spec.sample);
            }
        }
    }

    #[test]
    fn draining_stops_generation() {
        let mut rng = rng();
        let mut t = app(1.0, 0, Some(1), None).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Draining, 30, &mut rng);
        assert_eq!(t.next_wake(), None);
    }

    #[test]
    fn zero_load_terminal_is_silent() {
        let mut rng = rng();
        let mut t = app(0.0, 0, None, None).create_terminal(TerminalId(0));
        let a = t.enter_phase(Phase::Warming, 0, &mut rng);
        assert_eq!(a, vec![TerminalAction::Signal(AppSignal::Ready)]);
        assert_eq!(t.next_wake(), None);
    }

    #[test]
    fn zero_load_terminal_completes_immediately() {
        // A silent terminal must not wedge the completion handshake even
        // when sample_messages is configured.
        let mut rng = rng();
        let mut t = app(0.0, 0, Some(5), None).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        let a = t.enter_phase(Phase::Generating, 10, &mut rng);
        assert!(a.contains(&TerminalAction::Signal(AppSignal::Complete)));
    }

    #[test]
    fn source_mask_silences_outsiders() {
        let mut rng = rng();
        let app = BlastApp::new(BlastConfig {
            pattern: Arc::new(UniformRandom::new(8)),
            load: 1.0,
            sizes: SizeDistribution::Fixed(2),
            warmup_ticks: 0,
            sample_messages: Some(2),
            sample_ticks: None,
            sources: Some(Arc::from(vec![1u32, 3].into_boxed_slice())),
        });
        // Terminal 2 is outside the source set: silent, completes at once.
        let mut silent = app.create_terminal(TerminalId(2));
        silent.enter_phase(Phase::Warming, 0, &mut rng);
        assert_eq!(silent.next_wake(), None);
        let a = silent.enter_phase(Phase::Generating, 10, &mut rng);
        assert!(a.contains(&TerminalAction::Signal(AppSignal::Complete)));
        // Terminal 3 is inside: it generates.
        let mut active = app.create_terminal(TerminalId(3));
        active.enter_phase(Phase::Warming, 0, &mut rng);
        active.enter_phase(Phase::Generating, 10, &mut rng);
        assert!(active.next_wake().is_some());
    }
}
