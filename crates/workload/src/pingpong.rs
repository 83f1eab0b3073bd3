//! The PingPong application: request/reply transactions.
//!
//! Each terminal keeps one request outstanding: it sends a request-sized
//! message to a pattern-chosen peer; the peer's terminal answers with a
//! reply-sized message; receiving the reply completes one *transaction*,
//! which is recorded in the sample log with its end-to-end latency. This
//! exercises the transaction-level statistics of the SSParse toolchain and
//! gives examples a latency-sensitive, closed-loop workload.

use std::collections::VecDeque;
use std::sync::Arc;

use supersim_des::{wire_overlay, Rng};

use supersim_des::Tick;
use supersim_netbase::{AppSignal, Phase, TerminalId};

use crate::terminal::{Application, MessageSpec, Terminal, TerminalAction};
use crate::traffic::TrafficPattern;

/// Configuration for [`PingPongApp`].
#[derive(Clone)]
pub struct PingPongConfig {
    /// Peer selection pattern.
    pub pattern: Arc<dyn TrafficPattern>,
    /// Request size in flits.
    pub request_size: u32,
    /// Reply size in flits; must differ from `request_size` so the two
    /// directions are distinguishable.
    pub reply_size: u32,
    /// Transactions per terminal before `Complete`.
    pub transactions: u64,
    /// Restricts request initiation to these terminals (sorted ascending).
    /// `None` means every terminal initiates. Non-initiators still serve
    /// incoming requests — the client/server split of storage traffic.
    pub initiators: Option<Arc<[u32]>>,
}

/// The PingPong application.
pub struct PingPongApp {
    config: PingPongConfig,
}

impl PingPongApp {
    /// Creates a PingPong application.
    ///
    /// # Panics
    ///
    /// Panics if the request and reply sizes are equal or zero.
    pub fn new(config: PingPongConfig) -> Self {
        assert!(
            config.request_size != config.reply_size,
            "request and reply sizes must differ to be distinguishable"
        );
        assert!(
            config.request_size > 0 && config.reply_size > 0,
            "sizes must be non-zero"
        );
        PingPongApp { config }
    }
}

impl Application for PingPongApp {
    fn name(&self) -> &str {
        "pingpong"
    }

    fn create_terminal(&self, terminal: TerminalId) -> Box<dyn Terminal> {
        let mut config = self.config.clone();
        let initiates = config
            .initiators
            .as_ref()
            .is_none_or(|s| s.binary_search(&terminal.0).is_ok());
        if !initiates {
            // A pure server: zero transactions completes immediately while
            // on_message keeps serving incoming requests.
            config.transactions = 0;
        }
        Box::new(PingPongTerminal {
            me: terminal,
            config,
            phase: Phase::Warming,
            in_flight: VecDeque::new(),
            completed: 0,
            fire_at: None,
        })
    }
}

struct PingPongTerminal {
    me: TerminalId,
    config: PingPongConfig,
    phase: Phase,
    /// Start ticks of outstanding requests (FIFO matched to replies).
    in_flight: VecDeque<Tick>,
    completed: u64,
    fire_at: Option<Tick>,
}

impl PingPongTerminal {
    fn request(&mut self, now: Tick, rng: &mut Rng) -> TerminalAction {
        let dst = self.config.pattern.dest(self.me, rng);
        self.in_flight.push_back(now);
        TerminalAction::Send(MessageSpec {
            dst,
            size: self.config.request_size,
            sample: self.phase.samples(),
        })
    }
}

impl Terminal for PingPongTerminal {
    fn name(&self) -> &str {
        "pingpong_terminal"
    }

    fn enter_phase(&mut self, phase: Phase, now: Tick, _rng: &mut Rng) -> Vec<TerminalAction> {
        self.phase = phase;
        match phase {
            Phase::Warming => vec![TerminalAction::Signal(AppSignal::Ready)],
            Phase::Generating => {
                if self.config.transactions == 0 {
                    vec![TerminalAction::Signal(AppSignal::Complete)]
                } else {
                    // Fire the first request on the next wake.
                    self.fire_at = Some(now);
                    Vec::new()
                }
            }
            Phase::Finishing => vec![TerminalAction::Signal(AppSignal::Done)],
            Phase::Draining => {
                self.fire_at = None;
                Vec::new()
            }
        }
    }

    fn next_wake(&self) -> Option<Tick> {
        self.fire_at
    }

    fn wake(&mut self, now: Tick, rng: &mut Rng) -> Vec<TerminalAction> {
        if self.fire_at.is_some_and(|t| t <= now) {
            self.fire_at = None;
            vec![self.request(now, rng)]
        } else {
            Vec::new()
        }
    }

    fn on_message(
        &mut self,
        src: TerminalId,
        size: u32,
        now: Tick,
        rng: &mut Rng,
    ) -> Vec<TerminalAction> {
        if size == self.config.request_size {
            // Serve the request: reply even during finishing so peers can
            // complete their transactions.
            if self.phase.allows_generation() {
                return vec![TerminalAction::Send(MessageSpec {
                    dst: src,
                    size: self.config.reply_size,
                    sample: self.phase.samples(),
                })];
            }
            return Vec::new();
        }
        // A reply: complete one transaction.
        let Some(start) = self.in_flight.pop_front() else {
            return Vec::new(); // stray reply after draining started
        };
        let mut actions = vec![TerminalAction::RecordTransaction {
            start,
            peer: src,
            size: self.config.request_size + self.config.reply_size,
        }];
        self.completed += 1;
        if self.completed == self.config.transactions {
            actions.push(TerminalAction::Signal(AppSignal::Complete));
        } else if self.completed < self.config.transactions && self.phase == Phase::Generating {
            actions.push(self.request(now, rng));
        }
        actions
    }
}

wire_overlay!(PingPongTerminal {
    phase,
    in_flight,
    completed,
    fire_at,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Neighbor;

    fn rng() -> Rng {
        Rng::new(77)
    }

    fn app(transactions: u64) -> PingPongApp {
        PingPongApp::new(PingPongConfig {
            pattern: Arc::new(Neighbor::new(4, 1)),
            request_size: 1,
            reply_size: 2,
            transactions,
            initiators: None,
        })
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_sizes_rejected() {
        let _ = PingPongApp::new(PingPongConfig {
            pattern: Arc::new(Neighbor::new(4, 1)),
            request_size: 2,
            reply_size: 2,
            transactions: 1,
            initiators: None,
        });
    }

    #[test]
    fn transaction_round_trip() {
        let mut rng = rng();
        let mut t = app(2).create_terminal(TerminalId(0));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 10, &mut rng);
        // First request fires from a wake.
        let w = t.next_wake().expect("armed");
        let actions = t.wake(w, &mut rng);
        assert!(matches!(
            actions[0],
            TerminalAction::Send(MessageSpec { size: 1, .. })
        ));
        // Reply arrives: one transaction recorded, next request sent.
        let actions = t.on_message(TerminalId(1), 2, 50, &mut rng);
        assert!(matches!(
            actions[0],
            TerminalAction::RecordTransaction {
                start: 10,
                size: 3,
                ..
            }
        ));
        assert!(matches!(actions[1], TerminalAction::Send(_)));
        // Second reply completes the app.
        let actions = t.on_message(TerminalId(1), 2, 90, &mut rng);
        assert!(actions.contains(&TerminalAction::Signal(AppSignal::Complete)));
    }

    #[test]
    fn serves_incoming_requests() {
        let mut rng = rng();
        let mut t = app(1).create_terminal(TerminalId(2));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Generating, 0, &mut rng);
        let actions = t.on_message(TerminalId(1), 1, 30, &mut rng);
        match actions[0] {
            TerminalAction::Send(MessageSpec { dst, size, .. }) => {
                assert_eq!(dst, TerminalId(1));
                assert_eq!(size, 2);
            }
            ref other => panic!("expected a reply, got {other:?}"),
        }
    }

    #[test]
    fn non_initiators_serve_but_never_request() {
        let mut rng = rng();
        let app = PingPongApp::new(PingPongConfig {
            pattern: Arc::new(Neighbor::new(4, 1)),
            request_size: 1,
            reply_size: 2,
            transactions: 3,
            initiators: Some(Arc::from(vec![0u32, 1].into_boxed_slice())),
        });
        // Terminal 3 is a pure server: completes at once, still replies.
        let mut server = app.create_terminal(TerminalId(3));
        server.enter_phase(Phase::Warming, 0, &mut rng);
        let actions = server.enter_phase(Phase::Generating, 10, &mut rng);
        assert_eq!(actions, vec![TerminalAction::Signal(AppSignal::Complete)]);
        assert_eq!(server.next_wake(), None);
        let actions = server.on_message(TerminalId(1), 1, 30, &mut rng);
        assert!(matches!(
            actions[0],
            TerminalAction::Send(MessageSpec { size: 2, .. })
        ));
        // Terminal 0 initiates as usual.
        let mut client = app.create_terminal(TerminalId(0));
        client.enter_phase(Phase::Warming, 0, &mut rng);
        client.enter_phase(Phase::Generating, 10, &mut rng);
        assert!(client.next_wake().is_some());
    }

    #[test]
    fn no_replies_while_draining() {
        let mut rng = rng();
        let mut t = app(1).create_terminal(TerminalId(2));
        t.enter_phase(Phase::Warming, 0, &mut rng);
        t.enter_phase(Phase::Draining, 100, &mut rng);
        assert!(t.on_message(TerminalId(1), 1, 130, &mut rng).is_empty());
    }
}
