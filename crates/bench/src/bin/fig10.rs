//! Figure 10 (paper §VI-B, case study B): six congestion credit accounting
//! styles — {VC, port} granularity × {output, downstream, both} credit
//! sources — under uniform random (10a) and bit complement (10b) traffic
//! on a 1-D flattened butterfly with IOQ routers and UGAL routing.
//!
//! ```text
//! cargo run --release -p supersim-bench --bin fig10 [--full]
//! ```

use supersim_bench::{write_artifact, Scale};
use supersim_config::Value;
use supersim_core::{presets, run_load_sweep, LoadSweepSpec};

fn main() {
    let scale = Scale::from_args();
    // Keep the paper's ~1 inter-router link per terminal: with fewer
    // links than that, routing quality decides throughput (concentration
    // close to the router count, as in the 32x32 full-scale system).
    let (routers, conc, samples) = scale.pick((16u32, 16u32, 150u64), (32, 32, 400));
    let channel = scale.pick(40, 100);
    let xbar = scale.pick(20, 100);
    let loads: Vec<f64> = vec![0.25, 0.5, 0.7, 0.85, 0.92, 0.96, 0.99];

    for (fig, pattern) in [("10a", "uniform_random"), ("10b", "bit_complement")] {
        println!("=== Figure {fig}: credit accounting styles under {pattern} ===");
        let mut csv = String::from("style,offered,delivered,mean,p99\n");
        let mut summary = Vec::new();
        for granularity in ["vc", "port"] {
            for source in ["output", "downstream", "both"] {
                let style = format!("{granularity}/{source}");
                let mut cfg = presets::credit_accounting(
                    routers,
                    conc,
                    source,
                    granularity,
                    pattern,
                    channel,
                    xbar,
                    0.1,
                    samples,
                );
                cfg.set_path("seed", Value::from(1000u64)).expect("object");
                let sw = run_load_sweep(&LoadSweepSpec::simple(cfg, &style, loads.clone()))
                    .unwrap_or_else(|e| panic!("{style}: {e}"));
                for p in &sw.points {
                    csv.push_str(&format!(
                        "{style},{:.2},{:.4},{},{}\n",
                        p.offered,
                        p.delivered,
                        p.latency
                            .map_or(String::new(), |l| format!("{:.1}", l.mean)),
                        p.latency.map_or(String::new(), |l| l.p99.to_string()),
                    ));
                }
                let tput = sw.saturation_throughput().unwrap_or(0.0);
                summary.push((style, tput));
            }
        }
        println!("style,saturation_throughput");
        for (style, tput) in &summary {
            println!("{style},{tput:.3}");
        }
        let vc_best: f64 = summary
            .iter()
            .filter(|(s, _)| s.starts_with("vc/"))
            .map(|&(_, t)| t)
            .fold(f64::MIN, f64::max);
        let port_best: f64 = summary
            .iter()
            .filter(|(s, _)| s.starts_with("port/"))
            .map(|&(_, t)| t)
            .fold(f64::MIN, f64::max);
        println!(
            "best port-based {port_best:.3} vs best VC-based {vc_best:.3} \
             ({:+.1}% port over VC)\n",
            100.0 * (port_best - vc_best) / vc_best
        );
        write_artifact(&format!("fig{fig}_credit_accounting.csv"), &csv);
    }
    println!(
        "paper shape: port-based accounting wins clearly under uniform random \
         (~+31.6% average throughput); VC-based accounting wins narrowly under \
         bit complement (~+3.3%), and downstream-only credits fail to sense BC \
         congestion"
    );
}
