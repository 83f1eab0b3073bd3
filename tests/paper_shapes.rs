//! The paper's case-study shapes, asserted at seconds scale on the
//! `configs/paper/` networks (the `paper` runner regenerates the full
//! figures). Each test shrinks a case study with command-line style
//! overrides and checks who wins, with wide margins, at two seeds.
//!
//! Not asserted: Fig. 12's latency order (flit-buffer < winner-take-all <
//! packet-buffer). At this scale it flips with the seed and the torus
//! size; EXPERIMENTS.md records the measurements.

use supersim::config::{apply_override, Value};
use supersim::core::{run_load_sweep, LoadSweepSpec, SuperSim};

mod common;

const SEEDS: [u64; 2] = [1000, 7];

/// Delivered load (flits per tick per terminal) of `cfg` offered `load`.
fn delivered(cfg: &Value, seed: u64, load: f64) -> f64 {
    let mut cfg = cfg.clone();
    apply_override(&mut cfg, &format!("seed=uint={seed}")).expect("seed");
    let sweep = run_load_sweep(&LoadSweepSpec::simple(cfg, "shape", vec![load])).expect("run");
    sweep.points[0].delivered
}

/// Case A (Fig. 9b): with finite output queues, a congestion sensing delay
/// of 8 ticks collapses the throughput that a delay of 1 sustains.
#[test]
fn case_a_sensing_delay_collapses_throughput() {
    let clos = |delay: u64| {
        common::config(
            "paper/case_a_clos.json",
            &[
                "network.topology.levels=uint=2",
                "network.router.output_queue=uint=64",
                &format!("network.router.congestion_sensor.delay=uint={delay}"),
                "workload.applications.0.warmup_ticks=uint=600",
                "workload.applications.0.sample_messages=uint=150",
                "workload.applications.0.pattern.per_subtree=uint=8",
            ],
        )
    };
    for seed in SEEDS {
        let fast = delivered(&clos(1), seed, 0.9);
        let slow = delivered(&clos(8), seed, 0.9);
        assert!(
            slow < 0.75 * fast,
            "seed {seed}: delay 8 delivers {slow:.3}, delay 1 delivers {fast:.3}"
        );
    }
}

/// Delivered load of each credit accounting style on an 8x8 flattened
/// butterfly offered 0.92 under `pattern`. The 400-tick warmup is a dozen
/// router-to-router round trips at these latencies; the figure's formula
/// (20·channel + 20·crossbar + 500 = 800) only lengthens the backlog a
/// saturated style must drain, and leaves every delivered load within
/// ±0.03.
fn accounting_styles(pattern: &str, seed: u64) -> Vec<(String, f64)> {
    let mut styles = Vec::new();
    for granularity in ["vc", "port"] {
        for source in ["output", "downstream", "both"] {
            let cfg = common::config(
                "paper/case_b_fbfly.json",
                &[
                    "network.topology.widths=json=[8]",
                    "network.topology.concentration=uint=8",
                    "network.channel.local_latency=uint=10",
                    "network.router.xbar_latency=uint=5",
                    &format!("network.router.congestion_sensor.granularity=string={granularity}"),
                    &format!("network.router.congestion_sensor.source=string={source}"),
                    "workload.applications.0.warmup_ticks=uint=400",
                    "workload.applications.0.sample_messages=uint=150",
                    &format!("workload.applications.0.pattern.name=string={pattern}"),
                ],
            );
            styles.push((
                format!("{granularity}/{source}"),
                delivered(&cfg, seed, 0.92),
            ));
        }
    }
    styles
}

/// Case B (Fig. 10a): under uniform random traffic every port-based
/// accounting style delivers more than every VC-based one.
#[test]
fn case_b_port_accounting_wins_under_uniform_random() {
    for seed in SEEDS {
        let styles = accounting_styles("uniform_random", seed);
        let (vc, port): (Vec<_>, Vec<_>) = styles.iter().partition(|(s, _)| s.starts_with("vc/"));
        for (p, pt) in &port {
            for (v, vt) in &vc {
                assert!(pt > vt, "seed {seed}: {p} delivers {pt:.3}, {v} {vt:.3}");
            }
        }
    }
}

/// Case B (Fig. 10b): under bit complement traffic downstream-only credits
/// fail to sense the congestion; both downstream styles deliver less than
/// each of the other four.
#[test]
fn case_b_downstream_credits_miss_bit_complement_congestion() {
    for seed in SEEDS {
        let styles = accounting_styles("bit_complement", seed);
        let (down, rest): (Vec<_>, Vec<_>) =
            styles.iter().partition(|(s, _)| s.ends_with("/downstream"));
        assert_eq!(down.len(), 2);
        for (d, dt) in &down {
            for (r, rt) in &rest {
                assert!(dt < rt, "seed {seed}: {d} delivers {dt:.3}, {r} {rt:.3}");
            }
        }
    }
}

/// Case C (Fig. 11): with single-flit messages the three flow control
/// techniques are identical by construction — every packet is one flit,
/// so the unit of buffer allocation cannot matter. Their sample logs are
/// byte-identical.
#[test]
fn case_c_single_flit_flow_control_is_identical() {
    for (vcs, input_buffer) in [(2, 128), (8, 32)] {
        let logs: Vec<String> = ["flit_buffer", "packet_buffer", "winner_take_all"]
            .iter()
            .map(|technique| {
                let cfg = common::config(
                    "paper/case_c_torus.json",
                    &[
                        "seed=uint=3",
                        "network.topology.widths=json=[4,4]",
                        &format!("network.vcs=uint={vcs}"),
                        &format!("network.router.input_buffer=uint={input_buffer}"),
                        &format!("network.router.flow_control=string={technique}"),
                        "workload.applications.0.load=float=0.9",
                        "workload.applications.0.sample_messages=uint=100",
                    ],
                );
                let out = SuperSim::from_config(&cfg)
                    .expect("build")
                    .run()
                    .expect("run");
                assert!(out.packets_delivered() > 0, "{technique}: no samples");
                out.log.to_text()
            })
            .collect();
        assert!(
            logs[1] == logs[0] && logs[2] == logs[0],
            "{vcs} VCs: single-flit sample logs differ"
        );
    }
}
