//! Adaptive versus deterministic up-routing on a folded Clos.
//!
//! The scenario behind the paper's case study A: every message must climb
//! to the root of a fat tree, and the up-path choice (free under adaptive
//! routing, hashed under deterministic routing) decides how evenly root
//! bandwidth is used. This example sweeps the offered load for both
//! policies and plots the resulting load-latency curves.
//!
//! ```text
//! cargo run --release --example adaptive_clos
//! ```

use supersim::config::{apply_overrides, parse, Value};
use supersim::core::{run_load_sweep, LoadSweepSpec};
use supersim::tools;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Case study A's network, shrunk with command-line style overrides to
    // a 2-level folded Clos of radix-16 routers: 64 terminals, one level
    // of path diversity, 10-tick channels and 16-flit output queues.
    let mut base = parse(include_str!("../configs/paper/case_a_clos.json"))?;
    apply_overrides(
        &mut base,
        [
            "network.topology.levels=uint=2",
            "network.channel.local_latency=uint=10",
            "network.router.core_latency=uint=10",
            "network.router.output_queue=uint=16",
            "workload.applications.0.load=float=0.1", // rewritten by the sweep
            "workload.applications.0.warmup_ticks=uint=900",
            "workload.applications.0.sample_messages=uint=200",
            "workload.applications.0.pattern.per_subtree=uint=8",
        ],
    )?;
    let loads: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();

    let mut sweeps = Vec::new();
    for algorithm in ["adaptive_updown", "deterministic_updown"] {
        let mut cfg = base.clone();
        cfg.set_path("network.routing.algorithm", Value::from(algorithm))?;
        let spec = LoadSweepSpec::simple(cfg, algorithm, loads.clone());
        let sweep = run_load_sweep(&spec)?;
        println!(
            "{algorithm}: saturation throughput {:.3} flits/tick/terminal",
            sweep.saturation_throughput().unwrap_or(0.0)
        );
        sweeps.push(sweep);
    }

    // The paper's primary performance view: load versus mean latency,
    // lines cut at saturation.
    let series: Vec<(&str, Vec<(f64, f64)>)> = sweeps
        .iter()
        .map(|s| {
            let pts = s
                .unsaturated_prefix(0.05)
                .iter()
                .filter_map(|p| p.latency.map(|l| (p.offered, l.mean)))
                .collect();
            (s.label.as_str(), pts)
        })
        .collect();
    println!(
        "\n{}",
        tools::ascii_chart("load vs mean latency (ticks)", &series, 60, 16)
    );
    println!("{}", tools::load_latency_csv(&sweeps, 0.05));

    let adaptive = sweeps[0].saturation_throughput().unwrap_or(0.0);
    let deterministic = sweeps[1].saturation_throughput().unwrap_or(0.0);
    println!(
        "adaptive routing sustains {:.1}% of the load deterministic hashing sustains ({:+.1}%)",
        100.0 * adaptive / deterministic.max(1e-9),
        100.0 * (adaptive - deterministic) / deterministic.max(1e-9),
    );
    Ok(())
}
