//! Randomized check of the engine's dispatch-order contract, end to end
//! through [`Simulator`]: `queue_model.rs` checks the queue alone, the
//! engine unit tests use fixed schedules.
//!
//! Ports the old (never compiled) proptest suite to the workspace PRNG:
//! every run explores the same schedules, and a failure names its case.

use std::any::Any;

use supersim_des::{Component, ComponentId, Context, Rng, Simulator, Time};

/// Records every delivery it sees, in execution order.
struct Recorder {
    seen: Vec<(Time, u64)>,
}

impl Component<u64> for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        self.seen.push((ctx.now(), event));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// On its first event, schedules one event per gap at `now + gap`.
struct Spawner {
    target: ComponentId,
    gaps: Vec<u64>,
}

impl Component<u64> for Spawner {
    fn name(&self) -> &str {
        "spawner"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        if event == 0 {
            for (i, &gap) in self.gaps.iter().enumerate() {
                ctx.schedule(self.target, ctx.now().plus_ticks(gap), 1000 + i as u64);
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn events_execute_in_time_order_and_fifo_within_a_time() {
    let mut rng = Rng::new(0x0DE5);
    for case in 0..128 {
        let mut sim: Simulator<u64> = Simulator::new(1);
        let rec = sim.add_component(Box::new(Recorder { seen: Vec::new() }));
        let n = rng.gen_range(1usize..200);
        for i in 0..n {
            let time = Time::new(rng.gen_range(0u64..1000), rng.gen_range(0u8..4));
            sim.schedule(rec, time, i as u64);
        }
        let stats = sim.run();
        assert!(stats.outcome.is_ok(), "case {case}");
        assert_eq!(stats.events_executed, n as u64, "case {case}");
        let seen = &sim.component_as::<Recorder>(rec).expect("recorder").seen;
        assert_eq!(seen.len(), n, "case {case}: events lost");
        for w in seen.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "case {case}: out of order at {:?}",
                w[1].0
            );
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "case {case}: FIFO violated at {:?}",
                    w[0].0
                );
            }
        }
    }
}

#[test]
fn spawned_events_interleave_with_scheduled_ones() {
    let mut rng = Rng::new(0x5BA4);
    for case in 0..128 {
        let mut sim: Simulator<u64> = Simulator::new(2);
        let rec = sim.add_component(Box::new(Recorder { seen: Vec::new() }));
        let gaps: Vec<u64> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(1u64..50))
            .collect();
        let spawned = gaps.len();
        let spawner = sim.add_component(Box::new(Spawner { target: rec, gaps }));
        sim.schedule(spawner, Time::at(10), 0);
        let fixed = rng.gen_range(0usize..20);
        for _ in 0..fixed {
            sim.schedule(rec, Time::at(rng.gen_range(0u64..100)), 1);
        }
        let stats = sim.run();
        assert!(stats.outcome.is_ok(), "case {case}");
        let seen = &sim.component_as::<Recorder>(rec).expect("recorder").seen;
        assert_eq!(seen.len(), spawned + fixed, "case {case}: events lost");
        assert!(
            seen.windows(2).all(|w| w[0].0 <= w[1].0),
            "case {case}: out of order"
        );
    }
}
