//! Reproducibility: a (configuration, seed) pair yields bit-identical
//! results; changing the seed changes the stochastic details but not the
//! totals dictated by the workload.

mod common;

use supersim::config::Value;
use supersim::core::SuperSim;
use supersim::des::{Component, ComponentId, Context, Simulator, Time};

#[test]
fn same_seed_is_bit_identical() {
    let cfg = common::quickstart();
    let a = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let b = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    assert_eq!(a.log.to_text(), b.log.to_text());
    // The final engine stats must match exactly (everything except wall
    // time, which is non-deterministic by nature): same events executed,
    // same end time, same queue pressure, same enqueue count.
    assert_eq!(a.engine.events_executed, b.engine.events_executed);
    assert_eq!(a.engine.end_time, b.engine.end_time);
    assert_eq!(a.engine.queue_high_water, b.engine.queue_high_water);
    assert_eq!(a.engine.total_enqueued, b.engine.total_enqueued);
    assert_eq!(a.engine.outcome, b.engine.outcome);
    assert_eq!(a.phase_times, b.phase_times);
}

/// A component that records every event it executes and fans out
/// RNG-driven follow-up work: the full `(time, component, payload)` trace
/// is the strongest determinism witness — it pins the exact execution
/// order produced by the calendar queue and the in-tree PRNG, not just
/// aggregate totals.
struct Tracer {
    peers: Vec<ComponentId>,
    trace: Vec<(Time, u64)>,
}

impl Component<u64> for Tracer {
    fn name(&self) -> &str {
        "tracer"
    }
    fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
        self.trace.push((ctx.now(), event));
        if event == 0 {
            return;
        }
        // 1-3 follow-ups at random offsets to random peers, including
        // same-tick (epsilon) and far-future (overflow) targets.
        let fanout = ctx.rng().gen_range(1..4u64);
        for _ in 0..fanout {
            let peer = self.peers[ctx.rng().gen_range(0..self.peers.len())];
            let time = match ctx.rng().gen_range(0..10u32) {
                0 => ctx.now().next_epsilon(),
                1 => ctx.now().plus_ticks(10_000),
                _ => ctx.now().plus_ticks(ctx.rng().gen_range(1..64u64)),
            };
            ctx.schedule(peer, time, event - 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_trace(seed: u64) -> (Vec<Vec<(Time, u64)>>, supersim::des::RunStats) {
    let mut sim = Simulator::new(seed);
    let ids: Vec<ComponentId> = (0..8)
        .map(|_| {
            sim.add_component(Box::new(Tracer {
                peers: Vec::new(),
                trace: Vec::new(),
            }))
        })
        .collect();
    for &id in &ids {
        sim.component_as_mut::<Tracer>(id).expect("tracer").peers = ids.clone();
    }
    for (i, &id) in ids.iter().enumerate() {
        sim.schedule(id, Time::at(i as u64), 6);
    }
    let stats = sim.run();
    let traces = ids
        .iter()
        .map(|&id| {
            sim.component_as::<Tracer>(id)
                .expect("tracer")
                .trace
                .clone()
        })
        .collect();
    (traces, stats)
}

#[test]
fn identical_seed_yields_identical_event_trace_and_stats() {
    let (trace_a, stats_a) = run_trace(0xDE7E_2A11);
    let (trace_b, stats_b) = run_trace(0xDE7E_2A11);
    assert_eq!(
        trace_a, trace_b,
        "event traces diverged for identical (config, seed)"
    );
    assert_eq!(stats_a.events_executed, stats_b.events_executed);
    assert_eq!(stats_a.end_time, stats_b.end_time);
    assert_eq!(stats_a.queue_high_water, stats_b.queue_high_water);
    assert_eq!(stats_a.total_enqueued, stats_b.total_enqueued);
    assert_eq!(stats_a.outcome, stats_b.outcome);
    // And a different seed takes a genuinely different path.
    let (trace_c, _) = run_trace(0xDE7E_2A12);
    assert_ne!(trace_a, trace_c, "trace ignored the seed");
}

#[test]
fn different_seed_changes_details_not_contracts() {
    let cfg = common::quickstart();
    let mut cfg2 = cfg.clone();
    cfg2.set_path("seed", Value::from(4242u64)).expect("object");
    let a = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let b = SuperSim::from_config(&cfg2)
        .expect("build")
        .run()
        .expect("run");
    // Stochastic details differ...
    assert_ne!(a.log.to_text(), b.log.to_text());
    // ...but the workload contract holds for both: 50 sampled messages per
    // terminal, all conserved.
    for out in [&a, &b] {
        assert_eq!(out.counters.flits_sent, out.counters.flits_received);
        assert!(out.packets_delivered() >= 50 * 16);
    }
}

#[test]
fn config_round_trip_preserves_results() {
    // Serializing the config to JSON text and parsing it back must not
    // change the simulation.
    let cfg = common::quickstart();
    let text = cfg.to_json_pretty();
    let reparsed = supersim::config::parse(&text).expect("valid json");
    let a = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let b = SuperSim::from_config(&reparsed)
        .expect("build")
        .run()
        .expect("run");
    assert_eq!(a.log.to_text(), b.log.to_text());
}

#[test]
fn overrides_behave_like_edits() {
    // Applying a Listing-1 override must equal editing the document.
    let mut by_override = common::quickstart();
    supersim::config::apply_override(&mut by_override, "workload.applications.0.load=float=0.4")
        .expect("valid override");
    let mut by_edit = common::quickstart();
    by_edit
        .set_path("workload.applications.0.load", Value::Float(0.4))
        .expect("object");
    let a = SuperSim::from_config(&by_override)
        .expect("build")
        .run()
        .expect("run");
    let b = SuperSim::from_config(&by_edit)
        .expect("build")
        .run()
        .expect("run");
    assert_eq!(a.log.to_text(), b.log.to_text());
}
