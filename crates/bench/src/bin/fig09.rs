//! Figure 9 (paper §VI-A, case study A): latent congestion detection on a
//! folded Clos with adaptive up-routing and the output-queued router.
//!
//! - Fig. 9a: infinite output queues — higher sensing latency inflates
//!   *latency* while throughput survives (the queues sink everything).
//! - Fig. 9b: finite 64-flit output queues — higher sensing latency
//!   collapses *throughput*.
//!
//! The default scale is the paper's own small-system variant (§VI-A text):
//! radix-16 routers (k = 8), 3 levels, 512 terminals, which the paper
//! reports at 90/90/75/40 % throughput for 1/2/4/8 ns of sensing delay.
//! `--full` runs the 4096-terminal radix-32 system.
//!
//! ```text
//! cargo run --release -p supersim-bench --bin fig09 [--full]
//! ```

use supersim_bench::{percentile_row, write_artifact, Scale, PERCENTILE_HEADER};
use supersim_config::Value;
use supersim_core::{presets, run_load_sweep, LoadSweepSpec};
use supersim_tools as tools;

fn main() {
    let scale = Scale::from_args();
    let (levels, k, samples) = scale.pick((3u32, 8u32, 150u64), (3, 16, 300));
    let delays: &[u64] = &[1, 2, 4, 8, 16, 32];
    let args: Vec<String> = std::env::args().collect();
    let only_a = args.iter().any(|a| a == "--9a");
    let only_b = args.iter().any(|a| a == "--9b");
    let (run_a, run_b) = if only_a || only_b {
        (only_a, only_b)
    } else {
        (true, true)
    };

    // --- Fig. 9a: infinite output queues, load-latency curves ----------
    if run_a {
        println!("=== Figure 9a: infinite output queues (latency impact) ===");
        let loads_a = [0.2, 0.4, 0.6, 0.8];
        let mut csv_a = format!("delay,{PERCENTILE_HEADER}\n");
        let mut latency_series = Vec::new();
        for &delay in delays {
            let mut cfg = presets::latent_congestion(levels, k, delay, None, 50, 50, 0.1, samples);
            cfg.set_path("seed", Value::from(1000u64)).expect("object");
            let label = format!("9a delay={delay}");
            let sw = run_load_sweep(&LoadSweepSpec::simple(cfg, &label, loads_a.to_vec()))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let mut pts = Vec::new();
            for p in &sw.points {
                csv_a.push_str(&format!("{delay},{}\n", percentile_row(p)));
                if let Some(l) = p.latency {
                    pts.push((p.offered, l.mean));
                }
            }
            latency_series.push((format!("delay {delay}"), pts));
        }
        let series_refs: Vec<(&str, Vec<(f64, f64)>)> = latency_series
            .iter()
            .map(|(l, p)| (l.as_str(), p.clone()))
            .collect();
        println!(
            "{}",
            tools::ascii_chart(
                "9a: mean latency (ticks) vs offered load",
                &series_refs,
                72,
                16
            )
        );
        write_artifact("fig09a_infinite.csv", &csv_a);
    }

    // --- Fig. 9b: finite 64-flit output queues, throughput collapse ----
    if !run_b {
        return;
    }
    println!("=== Figure 9b: 64-flit output queues (throughput impact) ===");
    println!("delay,offered,delivered,relative_throughput");
    let mut csv_b = String::from("delay,offered,delivered,relative_throughput\n");
    let offered = 0.9;
    let mut best = f64::MIN;
    let mut results = Vec::new();
    for &delay in delays {
        let mut cfg = presets::latent_congestion(levels, k, delay, Some(64), 50, 50, 0.1, samples);
        // A long warmup at an offered load far above the collapsed
        // capacity only builds an enormous drain backlog; congestion sets
        // in within a few channel round trips.
        cfg.set_path("workload.applications.0.warmup_ticks", Value::from(600u64))
            .expect("object");
        let point = run_load_sweep(&LoadSweepSpec::simple(cfg, "fig09b", vec![offered]))
            .unwrap_or_else(|e| panic!("fig09b: {e}"))
            .points[0];
        best = best.max(point.delivered);
        results.push((delay, point.delivered));
    }
    for &(delay, delivered) in &results {
        let rel = delivered / best;
        println!("{delay},{offered:.2},{delivered:.3},{rel:.2}");
        csv_b.push_str(&format!("{delay},{offered:.2},{delivered:.3},{rel:.2}\n"));
    }
    write_artifact("fig09b_finite.csv", &csv_b);
    println!(
        "paper shape (small system, delays 1/2/4/8): throughput ~90/90/75/40 %; \
         more levels and higher radix exacerbate the collapse"
    );
}
