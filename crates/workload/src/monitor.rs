//! The workload monitor: the four-phase handshake state machine
//! (paper §IV-A, Figure 4).
//!
//! The monitor counts `Ready` / `Complete` / `Done` signals per
//! application (one from each of the application's terminals) and, when
//! *all* applications have crossed a threshold, simultaneously broadcasts
//! the next command (`Start`, `Stop`, `Kill`) to every interface. After
//! `Kill` no new traffic is generated, the network drains, the event queue
//! runs empty, and the simulation ends.

use std::any::Any;

use supersim_des::wire::Overlay;
use supersim_des::{wire_overlay, Component, ComponentId, Context, Tick};
use supersim_netbase::{AppSignal, Ev, Phase, PhaseCommand};

/// The workload monitor component.
pub struct WorkloadMonitor {
    name: String,
    terminals_per_app: u32,
    interfaces: Vec<ComponentId>,
    ready: Vec<u32>,
    complete: Vec<u32>,
    done: Vec<u32>,
    phase: Phase,
    /// `(phase, entry tick)` transitions, starting with warming at 0.
    pub phase_times: Vec<(Phase, Tick)>,
}

impl WorkloadMonitor {
    /// Creates a monitor for `apps` applications, each with one terminal
    /// on every one of the `interfaces`.
    ///
    /// # Panics
    ///
    /// Panics when `apps` is zero or `interfaces` is empty.
    pub fn new(apps: u8, interfaces: Vec<ComponentId>) -> Self {
        assert!(apps > 0, "workload needs at least one application");
        assert!(
            !interfaces.is_empty(),
            "workload needs at least one interface"
        );
        WorkloadMonitor {
            name: "workload".to_string(),
            terminals_per_app: interfaces.len() as u32,
            interfaces,
            ready: vec![0; apps as usize],
            complete: vec![0; apps as usize],
            done: vec![0; apps as usize],
            phase: Phase::Warming,
            phase_times: vec![(Phase::Warming, 0)],
        }
    }

    /// The current workload phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The tick the given phase was entered, if it has been.
    pub fn phase_start(&self, phase: Phase) -> Option<Tick> {
        self.phase_times
            .iter()
            .find(|&&(p, _)| p == phase)
            .map(|&(_, t)| t)
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, Ev>, cmd: PhaseCommand) {
        let now = ctx.now();
        for &iface in &self.interfaces {
            ctx.schedule(iface, now, Ev::Command(cmd));
        }
        self.phase = cmd.next_phase();
        self.phase_times.push((self.phase, now.tick()));
    }

    fn all_at(&self, counts: &[u32]) -> bool {
        counts.iter().all(|&c| c == self.terminals_per_app)
    }
}

impl Component<Ev> for WorkloadMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn host_class(&self) -> &'static str {
        "monitor"
    }

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        let Ev::Signal { app, signal } = event else {
            ctx.fail(format!("{}: unexpected event {event:?}", self.name));
            return;
        };
        let a = app.index();
        if a >= self.ready.len() {
            ctx.fail(format!("{}: signal from unknown {app}", self.name));
            return;
        }
        let counts = match signal {
            AppSignal::Ready => &mut self.ready,
            AppSignal::Complete => &mut self.complete,
            AppSignal::Done => &mut self.done,
        };
        counts[a] += 1;
        if counts[a] > self.terminals_per_app {
            ctx.fail(format!(
                "{}: {app} raised {signal} more times than it has terminals",
                self.name
            ));
            return;
        }
        match self.phase {
            Phase::Warming if self.all_at(&self.ready) => {
                self.broadcast(ctx, PhaseCommand::Start);
            }
            Phase::Generating if self.all_at(&self.complete) => {
                self.broadcast(ctx, PhaseCommand::Stop);
            }
            Phase::Finishing if self.all_at(&self.done) => {
                self.broadcast(ctx, PhaseCommand::Kill);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        self.save(out);
    }

    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        self.load(buf)
    }
}

// No app signals more often than it has terminals, and the phase history
// always holds the initial entry.
wire_overlay!(WorkloadMonitor {
    ready: slice,
    complete: slice,
    done: slice,
    phase,
    phase_times,
} if |m| {
    let counts = [&m.ready, &m.complete, &m.done];
    counts.iter().all(|c| c.iter().all(|&n| n <= m.terminals_per_app)) && !m.phase_times.is_empty()
});

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_des::{Simulator, Time};
    use supersim_netbase::AppId;

    /// Records commands it receives.
    struct CommandSink {
        name: String,
        pub commands: Vec<(Tick, PhaseCommand)>,
    }

    impl Component<Ev> for CommandSink {
        fn name(&self) -> &str {
            &self.name
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            if let Ev::Command(cmd) = event {
                self.commands.push((ctx.now().tick(), cmd));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup(apps: u8, ifaces: usize) -> (Simulator<Ev>, Vec<ComponentId>, ComponentId) {
        let mut sim = Simulator::new(3);
        let iface_ids: Vec<ComponentId> = (0..ifaces)
            .map(|i| {
                sim.add_component(Box::new(CommandSink {
                    name: format!("sink{i}"),
                    commands: vec![],
                }))
            })
            .collect();
        let monitor = sim.add_component(Box::new(WorkloadMonitor::new(apps, iface_ids.clone())));
        (sim, iface_ids, monitor)
    }

    fn signal(sim: &mut Simulator<Ev>, monitor: ComponentId, t: Tick, app: u8, s: AppSignal) {
        sim.schedule(
            monitor,
            Time::at(t),
            Ev::Signal {
                app: AppId(app),
                signal: s,
            },
        );
    }

    #[test]
    fn full_protocol_sequence() {
        let (mut sim, ifaces, monitor) = setup(2, 2);
        // All four terminals (2 apps x 2 interfaces) walk the protocol.
        for app in 0..2 {
            for t in 0..2u64 {
                signal(&mut sim, monitor, 10 + t, app, AppSignal::Ready);
                signal(&mut sim, monitor, 30 + t, app, AppSignal::Complete);
                signal(&mut sim, monitor, 50 + t, app, AppSignal::Done);
            }
        }
        let stats = sim.run();
        assert!(stats.outcome.is_ok(), "{:?}", stats.outcome);
        let m = sim.component_as::<WorkloadMonitor>(monitor).unwrap();
        assert_eq!(m.phase(), Phase::Draining);
        assert_eq!(m.phase_start(Phase::Generating), Some(11));
        assert_eq!(m.phase_start(Phase::Finishing), Some(31));
        assert_eq!(m.phase_start(Phase::Draining), Some(51));
        for id in ifaces {
            let sink = sim.component_as::<CommandSink>(id).unwrap();
            let cmds: Vec<PhaseCommand> = sink.commands.iter().map(|&(_, c)| c).collect();
            assert_eq!(
                cmds,
                vec![PhaseCommand::Start, PhaseCommand::Stop, PhaseCommand::Kill]
            );
        }
    }

    #[test]
    fn waits_for_the_slowest_application() {
        let (mut sim, _, monitor) = setup(2, 1);
        signal(&mut sim, monitor, 5, 0, AppSignal::Ready);
        sim.run();
        let m = sim.component_as::<WorkloadMonitor>(monitor).unwrap();
        assert_eq!(m.phase(), Phase::Warming); // app 1 never became ready
        signal(&mut sim, monitor, 20, 1, AppSignal::Ready);
        sim.run();
        let m = sim.component_as::<WorkloadMonitor>(monitor).unwrap();
        assert_eq!(m.phase(), Phase::Generating);
    }

    #[test]
    fn over_signaling_is_detected() {
        let (mut sim, _, monitor) = setup(1, 1);
        signal(&mut sim, monitor, 1, 0, AppSignal::Ready);
        // Second Ready from a single-terminal app: protocol violation.
        // (The first Ready moved the phase on, so send two more.)
        signal(&mut sim, monitor, 2, 0, AppSignal::Ready);
        let stats = sim.run();
        assert!(!stats.outcome.is_ok());
    }

    #[test]
    fn unknown_app_is_detected() {
        let (mut sim, _, monitor) = setup(1, 1);
        signal(&mut sim, monitor, 1, 7, AppSignal::Ready);
        let stats = sim.run();
        assert!(!stats.outcome.is_ok());
    }
}
