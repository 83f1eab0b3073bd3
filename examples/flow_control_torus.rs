//! Flow control techniques on a torus (the scenario of case study C).
//!
//! Compares flit-buffer, packet-buffer, and winner-take-all crossbar
//! scheduling with long messages and several virtual channels on a small
//! 2-D torus: a plain loop over technique × message size around
//! `run_load_sweep`, which runs each load sweep's points in parallel.
//!
//! ```text
//! cargo run --release --example flow_control_torus
//! ```

use supersim::core::{presets, run_load_sweep, LoadSweepSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let loads = vec![0.25, 0.55];
    println!("| technique | message flits | offered | delivered (flits/tick/term) | mean latency (ticks) |");
    println!("|---|---|---|---|---|");
    for technique in ["flit_buffer", "packet_buffer", "winner_take_all"] {
        for message_flits in [1u32, 8, 32] {
            // One packet per message so the technique governs whole
            // messages.
            let base = presets::flow_control(
                vec![4, 4], // widths
                1,          // concentration
                4,          // VCs
                technique,
                message_flits,
                2,   // channel latency
                2,   // crossbar latency
                0.1, // offered load (rewritten by the sweep)
                150, // sampled messages per terminal
            );
            let label = format!("{technique}/{message_flits}");
            let sweep = run_load_sweep(&LoadSweepSpec::simple(base, label, loads.clone()))?;
            for p in &sweep.points {
                let mean = p.latency.map_or(f64::NAN, |l| l.mean);
                println!(
                    "| {technique} | {message_flits} | {:.2} | {:.3} | {mean:.1} |",
                    p.offered, p.delivered
                );
            }
        }
    }
    println!(
        "\nExpectation from the paper: with 1-flit messages the three techniques \
         are identical; differences grow with message length, and packet-buffer \
         pays the largest latency penalty."
    );
    Ok(())
}
