//! Extending the simulator with user models — the paper's core design
//! goal ("enable architects to quickly develop, instrument, and analyze
//! new designs", §III).
//!
//! This example drops in two custom models **without modifying any
//! framework code**, exactly like the C++ object-factory story:
//!
//! 1. a `hotspot` traffic pattern that sends a fraction of traffic to one
//!    victim terminal, and
//! 2. a `shuffle_ring` network model (custom topology wiring + routing),
//!
//! then runs them on the sequential engine and on two threads and checks
//! that both runs log the same bytes.
//!
//! ```text
//! cargo run --release --example custom_component
//! ```

use std::sync::Arc;

use supersim_des::Rng;

use supersim::config::obj;
use supersim::core::factory::{Factories, NetworkPlan};
use supersim::core::{BuildError, SuperSim};
use supersim::des::wire_overlay;
use supersim::netbase::{Flit, Port, TerminalId};
use supersim::router::RoutingFactory;
use supersim::stats::Filter;
use supersim::topology::{HyperX, RouteChoice, RoutingAlgorithm, RoutingContext, Topology};
use supersim::workload::TrafficPattern;

/// A pattern sending `fraction` of messages to a single hot terminal and
/// the rest uniformly.
#[derive(Debug)]
struct Hotspot {
    terminals: u32,
    hot: u32,
    fraction: f64,
}

impl TrafficPattern for Hotspot {
    fn name(&self) -> &str {
        "hotspot"
    }
    fn dest(&self, src: TerminalId, rng: &mut Rng) -> TerminalId {
        if rng.gen_bool(self.fraction) && src.0 != self.hot {
            return TerminalId(self.hot);
        }
        let mut d = rng.gen_range(0..self.terminals);
        if d == src.0 {
            d = (d + 1) % self.terminals;
        }
        TerminalId(d)
    }
}

/// Minimal routing on a 1-D HyperX: eject at the destination router,
/// otherwise take the direct link to it (every router pair is connected)
/// on the VC the congestion sensor reports least occupied — a small
/// user-defined algorithm to show a routing model plugs into the
/// framework by name.
#[derive(Debug)]
struct ShuffleRouting {
    topology: Arc<HyperX>,
    vcs: u32,
}

// No state survives between `route` calls, so nothing to checkpoint: a
// model with state lists its fields here instead.
wire_overlay!(ShuffleRouting {});

impl RoutingAlgorithm for ShuffleRouting {
    fn name(&self) -> &str {
        "shuffle_ring"
    }
    fn vcs_required(&self) -> u32 {
        self.vcs
    }
    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let t = &self.topology;
        let (dst_router, dst_port) = t.terminal_attachment(flit.pkt.dst);
        if ctx.router == dst_router {
            return RouteChoice {
                port: dst_port,
                vc: flit.vc % self.vcs,
            };
        }
        // 1-D HyperX: go straight to the destination router (every pair is
        // directly connected), choosing the emptier VC.
        let dst_coord = t
            .router_coords(dst_router)
            .next()
            .expect("a HyperX has at least one dimension");
        let port: Port = t.port_toward(ctx.router, 0, dst_coord);
        let vc = (0..self.vcs)
            .min_by(|&a, &b| {
                ctx.congestion
                    .vc_congestion(port, a)
                    .partial_cmp(&ctx.congestion.vc_congestion(port, b))
                    .expect("finite congestion")
            })
            .expect("at least one vc");
        RouteChoice { port, vc }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut factories = Factories::with_defaults();

    // Register the custom pattern: zero framework edits, just a name.
    factories.patterns.register("hotspot", |cfg, terminals| {
        let hot = cfg.opt_u32("hot", 0)?;
        let fraction = cfg.opt_f64("fraction", 0.2)?;
        if hot >= terminals || !(0.0..=1.0).contains(&fraction) {
            return Err(BuildError::invalid("bad hotspot parameters"));
        }
        Ok(Arc::new(Hotspot {
            terminals,
            hot,
            fraction,
        }) as Arc<dyn TrafficPattern>)
    });

    // Register the custom network model (topology + routing pair).
    factories.networks.register("shuffle_ring", |net, ()| {
        let routers = net.req_u32("topology.routers")?;
        let conc = net.req_u32("topology.concentration")?;
        let vcs = net.req_u32("vcs")?;
        let topology = Arc::new(HyperX::new(vec![routers], conc)?);
        let t = Arc::clone(&topology);
        let routing: RoutingFactory = Arc::new(move |_, _| {
            Box::new(ShuffleRouting {
                topology: Arc::clone(&t),
                vcs,
            })
        });
        Ok(NetworkPlan { topology, routing })
    });

    let mut config = obj! {
        "seed" => 7u64,
        "network" => obj! {
            "topology" => obj! {
                "name" => "shuffle_ring",
                "routers" => 8u64,
                "concentration" => 2u64,
            },
            "vcs" => 2u64,
            "channel" => obj! { "local_latency" => 4u64, "terminal_latency" => 1u64 },
            "router" => obj! {
                "architecture" => "input_queued",
                "input_buffer" => 16u64,
                "xbar_latency" => 1u64,
                "flow_control" => "winner_take_all",
                "arbiter" => "age_based",
            },
            "interface" => obj! { "eject_buffer" => 32u64, "max_packet_size" => 4u64 },
        },
        "workload" => obj! {
            "applications" => vec![obj! {
                "name" => "blast",
                "load" => 0.25f64,
                "message_size" => 2u64,
                "sample_messages" => 200u64,
                "pattern" => obj! { "name" => "hotspot", "hot" => 3u64, "fraction" => 0.3f64 },
            }],
        },
    };

    // User models run on every engine: the sequential run and a run on
    // two threads must log the same bytes. Both pin their engine, so the
    // `SUPERSIM_ENGINE` environment changes neither.
    let mut outputs = Vec::new();
    for (kind, shards) in [("sequential", 1u64), ("sharded", 2)] {
        config.set_path("engine.kind", kind.into())?;
        config.set_path("engine.shards", shards.into())?;
        outputs.push(SuperSim::with_factories(&config, &factories)?.run()?);
    }
    assert_eq!(
        outputs[0].log.to_text(),
        outputs[1].log.to_text(),
        "the two-thread run logged different bytes"
    );
    let output = &outputs[0];
    println!(
        "custom network + custom pattern ran: {} sampled packets, mean latency {:.1} ticks",
        output.packets_delivered(),
        output.mean_packet_latency().unwrap_or(f64::NAN)
    );

    // The hotspot should receive far more traffic than anyone else — show
    // it with an SSParse filter.
    let all = output
        .log
        .of_kind(supersim::stats::RecordKind::Packet)
        .count();
    let hot = Filter::parse_all(["+dst=3"])?;
    let to_hot = output
        .log
        .of_kind(supersim::stats::RecordKind::Packet)
        .filter(|r| hot.matches(r))
        .count();
    println!(
        "traffic to the hot terminal: {to_hot}/{all} packets ({:.0}%, uniform share would be ~{:.0}%)",
        100.0 * to_hot as f64 / all as f64,
        100.0 / 16.0
    );
    assert!(
        to_hot as f64 > all as f64 / 16.0 * 2.0,
        "hotspot had no effect?"
    );
    Ok(())
}
