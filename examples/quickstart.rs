//! Quickstart: build a small network from a configuration, run it, and
//! summarize the sampled traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use supersim::core::SuperSim;
use supersim::stats::Filter;
use supersim::tools;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A shipped configuration: a 4-router 1-D HyperX with 16 terminals,
    // input-queued routers, and uniform-random Blast traffic.
    let mut config = supersim::config::parse(include_str!("../configs/quickstart.json"))?;

    // Configurations are plain JSON documents; adjust anything before
    // building, or apply command-line style overrides (paper Listing 1).
    supersim::config::apply_override(&mut config, "workload.applications.0.load=float=0.45")?;
    println!("configuration:\n{}", config.to_json_pretty());

    let sim = SuperSim::from_config(&config)?;
    println!("built: {sim:?}");

    let output = sim.run()?;
    println!(
        "run finished at tick {}: {} events ({:.2} M events/s)",
        output.engine.end_time.tick(),
        output.engine.events_executed,
        output.engine.events_per_second() / 1e6
    );
    println!(
        "phases: {}",
        output
            .phase_times
            .iter()
            .map(|(p, t)| format!("{p}@{t}"))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // SSParse-style analysis of the sample log.
    let analysis = tools::analyze(&output.log, &Filter::new());
    println!("\n{}", analysis.to_table());

    // Every flit injected must have been delivered once the network
    // drained — the paper's §IV-D end-to-end guarantee.
    assert_eq!(output.counters.flits_sent, output.counters.flits_received);
    println!(
        "flit conservation: {} injected == {} ejected",
        output.counters.flits_sent, output.counters.flits_received
    );
    Ok(())
}
