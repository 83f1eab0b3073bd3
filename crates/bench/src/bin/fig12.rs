//! Figure 12 (paper §VI-C): latency of the three flow control techniques
//! with 8 VCs and 32-flit messages, where blocking effects are severest.
//! The paper finds flit-buffer best, packet-buffer worst, and
//! winner-take-all in between.
//!
//! ```text
//! cargo run --release -p supersim-bench --bin fig12 [--full]
//! ```

use supersim_bench::{percentile_row, write_artifact, Scale, PERCENTILE_HEADER};
use supersim_config::Value;
use supersim_core::{presets, run_load_sweep, LoadSweepSpec};
use supersim_tools as tools;

fn main() {
    let scale = Scale::from_args();
    let widths: Vec<u64> = scale.pick(vec![4, 4, 4], vec![8, 8, 8, 8]);
    let loads = [0.1, 0.25, 0.4, 0.55, 0.7, 0.8];
    let techniques = ["flit_buffer", "packet_buffer", "winner_take_all"];

    println!("=== Figure 12: latency with 8 VCs and 32-flit messages ===");
    let mut csv = format!("technique,{PERCENTILE_HEADER}\n");
    let mut chart = Vec::new();
    let mut tails: Vec<(&str, u64, u64)> = Vec::new();
    for technique in techniques {
        let mut cfg = presets::flow_control(
            widths.clone(),
            1,
            8,
            technique,
            32,
            scale.pick(5, 5),
            scale.pick(25, 25),
            0.1,
            scale.pick(100, 150),
        );
        cfg.set_path("seed", Value::from(1000u64)).expect("object");
        let sw = run_load_sweep(&LoadSweepSpec::simple(cfg, technique, loads.to_vec()))
            .unwrap_or_else(|e| panic!("{technique}: {e}"));
        let mut pts = Vec::new();
        for p in sw.unsaturated_prefix(0.1) {
            csv.push_str(&format!("{technique},{}\n", percentile_row(p)));
            if let Some(l) = p.latency {
                pts.push((p.offered, l.mean));
            }
        }
        if let Some(l) = sw
            .points
            .iter()
            .find(|p| (p.offered - 0.8).abs() < 1e-9)
            .and_then(|p| p.latency)
        {
            tails.push((technique, l.p99, l.p999));
        }
        chart.push((technique, pts));
    }
    println!(
        "{}",
        tools::ascii_chart(
            "mean message-packet latency (ticks) vs offered load",
            &chart,
            72,
            18
        )
    );
    // Blocking shows up in the tail of the distribution at high load: rank
    // the techniques by their 99th/99.9th percentiles at 0.8 offered.
    println!("technique,p99_at_0.80,p999_at_0.80");
    for (technique, p99, p999) in &tails {
        println!("{technique},{p99},{p999}");
    }
    write_artifact("fig12_flow_control_latency.csv", &csv);
    println!(
        "paper shape: flit-buffer shows the most resilience to blocking \
         (lowest latency), packet-buffer the least, winner-take-all between \
         them — it is a hybrid of the two"
    );
}
