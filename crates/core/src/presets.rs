//! Ready-made configurations: a quickstart and the three case studies of
//! the paper's §VI (parameterized so benches can run them scaled down or
//! at paper scale).
//!
//! All presets return plain [`Value`] documents; anything can be adjusted
//! afterwards with [`Value::set_path`] or command-line-style overrides
//! (`supersim_config::apply_override`).

use supersim_config::{obj, Value};
use supersim_des::Tick;

/// A small HyperX network under uniform random Blast traffic — the
/// "hello world" configuration used by the quickstart example. The
/// document is `configs/quickstart.json`, compiled in.
pub fn quickstart() -> Value {
    supersim_config::parse(include_str!("../../../configs/quickstart.json"))
        .expect("configs/quickstart.json is valid JSON")
}

/// Case study A (paper §VI-A, Figure 9): latent congestion detection on a
/// folded Clos with the idealistic output-queued router and adaptive
/// up-routing. All traffic crosses the root (`cross_subtree` pattern).
///
/// Paper scale is `levels = 3, k = 16` (4096 terminals) with 50-tick
/// channels and core latency; pass smaller values for laptop-scale runs.
/// `output_queue = None` reproduces the infinite-queue variant (Fig. 9a),
/// `Some(64)` the finite variant (Fig. 9b). `sense_delay` is the congestion
/// propagation latency under study (1–32 in the paper).
#[allow(clippy::too_many_arguments)]
pub fn latent_congestion(
    levels: u32,
    k: u32,
    sense_delay: Tick,
    output_queue: Option<u32>,
    channel_latency: Tick,
    core_latency: Tick,
    load: f64,
    sample_messages: u64,
) -> Value {
    let per_subtree = k.pow(levels - 1) as u64;
    let mut router = obj! {
        "architecture" => "output_queued",
        "input_buffer" => 150u64,
        "core_latency" => core_latency,
        "congestion_sensor" => obj! {
            "source" => "output",
            "granularity" => "port",
            "delay" => sense_delay,
        },
    };
    if let Some(q) = output_queue {
        router
            .set_path("output_queue", Value::from(u64::from(q)))
            .expect("object root");
    }
    obj! {
        "seed" => 1u64,
        "network" => obj! {
            "topology" => obj! { "name" => "folded_clos", "levels" => u64::from(levels), "k" => u64::from(k) },
            "vcs" => 1u64,
            "routing" => obj! { "algorithm" => "adaptive_updown" },
            "channel" => obj! {
                "terminal_latency" => 1u64,
                "local_latency" => channel_latency,
                "link_period" => 1u64,
            },
            "router" => router,
            "interface" => obj! { "eject_buffer" => 64u64, "max_packet_size" => 16u64 },
        },
        "workload" => obj! {
            "applications" => vec![obj! {
                "name" => "blast",
                "load" => load,
                "message_size" => 1u64,
                "warmup_ticks" => 20 * channel_latency + 20 * core_latency + 500,
                "sample_messages" => sample_messages,
                "pattern" => obj! {
                    "name" => "cross_subtree",
                    "subtrees" => u64::from(k),
                    "per_subtree" => per_subtree,
                },
            }],
        },
    }
}

/// Case study B (paper §VI-B, Figure 10): congestion credit accounting on
/// a 1-D flattened butterfly with the IOQ router, UGAL routing, and a 2×
/// core frequency speedup. `source` is `"output"`, `"downstream"`, or
/// `"both"`; `granularity` is `"vc"` or `"port"`; `pattern` is
/// `"uniform_random"` or `"bit_complement"`.
///
/// Paper scale is `routers = 32, concentration = 32` (1024 terminals,
/// radix-63 routers) with 100-tick channels at a 2-tick link period
/// (tick = 0.5 ns).
#[allow(clippy::too_many_arguments)]
pub fn credit_accounting(
    routers: u32,
    concentration: u32,
    source: &str,
    granularity: &str,
    pattern: &str,
    channel_latency: Tick,
    xbar_latency: Tick,
    load: f64,
    sample_messages: u64,
) -> Value {
    obj! {
        "seed" => 1u64,
        "network" => obj! {
            "topology" => obj! {
                "name" => "hyperx",
                "widths" => vec![u64::from(routers)],
                "concentration" => u64::from(concentration),
            },
            "vcs" => 2u64,
            "routing" => obj! { "algorithm" => "ugal", "threshold" => 0.0f64 },
            "channel" => obj! {
                "terminal_latency" => 2u64,
                "local_latency" => channel_latency,
                "link_period" => 2u64,
            },
            "router" => obj! {
                "architecture" => "input_output_queued",
                "input_buffer" => 128u64,
                "output_queue" => 256u64,
                "speedup" => 2u64,
                "xbar_latency" => xbar_latency,
                "flow_control" => "flit_buffer",
                "arbiter" => "round_robin",
                "congestion_sensor" => obj! {
                    "source" => source,
                    "granularity" => granularity,
                    "delay" => 0u64,
                },
            },
            "interface" => obj! { "eject_buffer" => 64u64, "max_packet_size" => 16u64 },
        },
        "workload" => obj! {
            "applications" => vec![obj! {
                "name" => "blast",
                "load" => load,
                "message_size" => 1u64,
                "warmup_ticks" => 20 * channel_latency + 20 * xbar_latency + 500,
                "sample_messages" => sample_messages,
                "pattern" => obj! { "name" => pattern },
            }],
        },
    }
}

/// Case study C (paper §VI-C, Figures 11-12): flow control techniques on a
/// torus with the input-queued router and dimension-order routing.
/// `flow_control` is `"flit_buffer"`, `"packet_buffer"`, or
/// `"winner_take_all"`; sweep `vcs` over {2, 4, 8} and `message_size` over
/// {1, 2, 4, 8, 16, 32}.
///
/// Paper scale is an 8×8×8×8 torus (4096 terminals) with 5-tick channels
/// and 25-tick crossbar latency.
#[allow(clippy::too_many_arguments)]
pub fn flow_control(
    widths: Vec<u64>,
    concentration: u32,
    vcs: u32,
    flow_control: &str,
    message_size: u32,
    channel_latency: Tick,
    xbar_latency: Tick,
    load: f64,
    sample_messages: u64,
) -> Value {
    obj! {
        "seed" => 1u64,
        "network" => obj! {
            "topology" => obj! {
                "name" => "torus",
                "widths" => widths,
                "concentration" => u64::from(concentration),
            },
            "vcs" => u64::from(vcs),
            "routing" => obj! { "algorithm" => "dimension_order" },
            "channel" => obj! {
                "terminal_latency" => 1u64,
                "local_latency" => channel_latency,
                "link_period" => 1u64,
            },
            "router" => obj! {
                "architecture" => "input_queued",
                // The paper's 128-flit input buffers are a per-port budget;
                // split it across the VCs (floor 32 so packet-buffer flow
                // control can reserve a whole 32-flit packet).
                "input_buffer" => (256 / u64::from(vcs)).max(32),
                "xbar_latency" => xbar_latency,
                "flow_control" => flow_control,
                "arbiter" => "round_robin",
                "congestion_sensor" => obj! {
                    "source" => "downstream",
                    "granularity" => "vc",
                    "delay" => 0u64,
                },
            },
            "interface" => obj! {
                "eject_buffer" => 64u64,
                // One packet per message: the unit under study.
                "max_packet_size" => u64::from(message_size),
            },
        },
        "workload" => obj! {
            "applications" => vec![obj! {
                "name" => "blast",
                "load" => load,
                "message_size" => u64::from(message_size),
                "warmup_ticks" => 40 * channel_latency + 20 * xbar_latency + 500,
                "sample_messages" => sample_messages,
                "pattern" => obj! { "name" => "uniform_random" },
            }],
        },
    }
}

/// The Blast + Pulse transient experiment (paper §IV-A, Figure 5): Blast
/// provides steady sampled traffic while Pulse injects a disturbance after
/// `pulse_delay`.
pub fn transient(
    load: f64,
    sample_ticks: Tick,
    pulse_load: f64,
    pulse_count: u64,
    pulse_delay: Tick,
) -> Value {
    obj! {
        "seed" => 1u64,
        "network" => obj! {
            "topology" => obj! {
                "name" => "hyperx",
                "widths" => vec![8u64],
                "concentration" => 4u64,
            },
            "vcs" => 2u64,
            "routing" => obj! { "algorithm" => "ugal", "threshold" => 0.0f64 },
            "channel" => obj! {
                "terminal_latency" => 1u64,
                "local_latency" => 10u64,
                "link_period" => 1u64,
            },
            "router" => obj! {
                "architecture" => "input_output_queued",
                "input_buffer" => 32u64,
                "output_queue" => 64u64,
                "xbar_latency" => 4u64,
                "flow_control" => "flit_buffer",
                "arbiter" => "age_based",
                "congestion_sensor" => obj! {
                    "source" => "both",
                    "granularity" => "vc",
                    "delay" => 0u64,
                },
            },
            "interface" => obj! { "eject_buffer" => 32u64, "max_packet_size" => 4u64 },
        },
        "workload" => obj! {
            "applications" => vec![
                obj! {
                    "name" => "blast",
                    "load" => load,
                    "message_size" => 1u64,
                    "warmup_ticks" => 500u64,
                    "sample_ticks" => sample_ticks,
                    "pattern" => obj! { "name" => "uniform_random" },
                },
                obj! {
                    "name" => "pulse",
                    "load" => pulse_load,
                    "message_size" => 4u64,
                    "count" => pulse_count,
                    "delay" => pulse_delay,
                    "pattern" => obj! { "name" => "uniform_random" },
                },
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_configs() {
        for cfg in [
            quickstart(),
            latent_congestion(2, 4, 2, Some(8), 10, 10, 0.2, 20),
            credit_accounting(4, 2, "output", "vc", "uniform_random", 10, 4, 0.2, 20),
            flow_control(vec![4, 4], 1, 2, "flit_buffer", 2, 2, 2, 0.2, 20),
            transient(0.2, 300, 0.5, 10, 100),
        ] {
            // Each preset must parse back through JSON and contain the
            // mandatory blocks.
            let text = cfg.to_json_pretty();
            let back = supersim_config::parse(&text).expect("round trip");
            assert_eq!(back, cfg);
            assert!(cfg.path("network.topology.name").is_some());
            assert!(cfg.path("workload.applications.0.name").is_some());
        }
    }
}
