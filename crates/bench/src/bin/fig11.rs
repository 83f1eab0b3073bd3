//! Figure 11 (paper §VI-C, case study C): throughput of the three flow
//! control techniques (flit-buffer, packet-buffer, winner-take-all) across
//! message sizes {1..32} flits and VC counts {2, 4, 8} on a torus with
//! input-queued routers and dimension-order routing.
//!
//! ```text
//! cargo run --release -p supersim-bench --bin fig11 [--full]
//! ```

use supersim_bench::{write_artifact, Scale};
use supersim_core::{presets, run_load_sweep, LoadSweepSpec};

fn main() {
    let scale = Scale::from_args();
    let widths: Vec<u64> = scale.pick(vec![4, 4, 4], vec![8, 8, 8, 8]);
    let offered = 0.9;
    let sizes = [1u32, 2, 4, 8, 16, 32];
    let vcs_list = [2u32, 4, 8];
    let techniques = ["flit_buffer", "packet_buffer", "winner_take_all"];

    let mut csv = String::from("vcs,message_flits,technique,offered,delivered\n");
    for &vcs in &vcs_list {
        println!("=== Figure 11 ({vcs} VCs): saturation throughput by message size ===");
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            "flits", techniques[0], techniques[1], techniques[2]
        );
        for &size in &sizes {
            let mut row = format!("{size:<8}");
            for technique in techniques {
                // Keep the sampled flit volume roughly constant across
                // message sizes.
                let samples = (3200 / size as u64).max(40);
                let cfg = presets::flow_control(
                    widths.clone(),
                    1,
                    vcs,
                    technique,
                    size,
                    scale.pick(5, 5),
                    scale.pick(25, 25),
                    0.1,
                    samples,
                );
                let point = run_load_sweep(&LoadSweepSpec::simple(cfg, "fig11", vec![offered]))
                    .unwrap_or_else(|e| panic!("fig11: {e}"))
                    .points[0];
                row.push_str(&format!(" {:>14.3}", point.delivered));
                csv.push_str(&format!(
                    "{vcs},{size},{technique},{offered:.2},{:.4}\n",
                    point.delivered
                ));
            }
            println!("{row}");
        }
        println!();
    }
    write_artifact("fig11_flow_control_throughput.csv", &csv);
    println!(
        "paper shape: across a large-scale torus the three techniques deliver \
         nearly identical throughput — with single-flit messages they are \
         *identical by construction* — because at scale packets rarely span \
         multiple routers, so the unit of allocation stops mattering"
    );
}
