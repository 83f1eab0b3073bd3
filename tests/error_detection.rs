//! Paper §IV-D: the framework catches broken user models early. These
//! tests inject deliberately buggy components through the public factory
//! API and assert the simulator refuses or fails loudly instead of
//! producing silently wrong results.

use std::sync::Arc;

use supersim::config::{obj, Value};
use supersim::core::factory::{Factories, NetworkPlan};
use supersim::core::{BuildError, SimError, SuperSim};
use supersim::des::wire_overlay;
use supersim::netbase::Flit;
use supersim::router::RoutingFactory;
use supersim::topology::{HyperX, RouteChoice, RoutingAlgorithm, RoutingContext, Topology};

fn tiny_config(topology_name: &str) -> Value {
    obj! {
        "seed" => 5u64,
        "network" => obj! {
            "topology" => obj! { "name" => topology_name, "widths" => vec![4u64], "concentration" => 1u64 },
            "vcs" => 2u64,
            "routing" => obj! { "algorithm" => "minimal" },
            "channel" => obj! { "local_latency" => 2u64 },
            "router" => obj! { "architecture" => "input_queued", "input_buffer" => 8u64 },
            "interface" => obj! { "eject_buffer" => 16u64 },
        },
        "workload" => obj! {
            "applications" => vec![obj! {
                "name" => "blast",
                "load" => 0.2f64,
                "sample_messages" => 10u64,
            }],
        },
    }
}

/// A routing engine returning a VC that was never registered.
struct IllegalVcRouting {
    topology: Arc<HyperX>,
}

wire_overlay!(IllegalVcRouting {});

impl RoutingAlgorithm for IllegalVcRouting {
    fn name(&self) -> &str {
        "illegal_vc"
    }
    fn vcs_required(&self) -> u32 {
        2
    }
    fn route(&mut self, ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        let (dst_router, dst_port) = self.topology.terminal_attachment(flit.pkt.dst);
        if ctx.router == dst_router {
            return RouteChoice {
                port: dst_port,
                vc: 99,
            }; // unregistered VC
        }
        let coord = self
            .topology
            .router_coords(dst_router)
            .next()
            .expect("a HyperX has at least one dimension");
        RouteChoice {
            port: self.topology.port_toward(ctx.router, 0, coord),
            vc: 0,
        }
    }
}

/// A routing engine that targets an unused (out of range) output port.
struct WildPortRouting;

wire_overlay!(WildPortRouting {});

impl RoutingAlgorithm for WildPortRouting {
    fn name(&self) -> &str {
        "wild_port"
    }
    fn vcs_required(&self) -> u32 {
        2
    }
    fn route(&mut self, _ctx: &mut RoutingContext<'_>, _flit: &mut Flit) -> RouteChoice {
        RouteChoice { port: 1000, vc: 0 }
    }
}

/// A routing engine that misdelivers: everything goes to terminal port 0
/// of the local router, regardless of destination.
struct MisdeliverRouting;

wire_overlay!(MisdeliverRouting {});

impl RoutingAlgorithm for MisdeliverRouting {
    fn name(&self) -> &str {
        "misdeliver"
    }
    fn vcs_required(&self) -> u32 {
        2
    }
    fn route(&mut self, _ctx: &mut RoutingContext<'_>, _flit: &mut Flit) -> RouteChoice {
        RouteChoice { port: 0, vc: 0 }
    }
}

fn factories_with(
    name: &'static str,
    make: fn(Arc<HyperX>) -> Box<dyn RoutingAlgorithm>,
) -> Factories {
    let mut f = Factories::with_defaults();
    f.networks.register(name, move |net, ()| {
        let widths = net
            .req_u64_array("topology.widths")?
            .into_iter()
            .map(|x| u32::try_from(x).map_err(|_| BuildError::invalid("width out of range")))
            .collect::<Result<Vec<u32>, _>>()?;
        let conc = net.req_u32("topology.concentration")?;
        let topology = Arc::new(HyperX::new(widths, conc)?);
        let t = Arc::clone(&topology);
        let routing: RoutingFactory = Arc::new(move |_, _| make(Arc::clone(&t)));
        Ok(NetworkPlan { topology, routing })
    });
    f
}

#[test]
fn unregistered_vc_use_is_caught() {
    let factories = factories_with("buggy", |t| Box::new(IllegalVcRouting { topology: t }));
    let mut cfg = tiny_config("buggy");
    cfg.set_path("network.topology.name", "buggy".into())
        .expect("object");
    let err = SuperSim::with_factories(&cfg, &factories)
        .expect("builds fine")
        .run()
        .expect_err("must fail at runtime");
    let msg = err.to_string();
    assert!(msg.contains("illegal output"), "unexpected error: {msg}");
}

#[test]
fn unused_output_port_is_rejected() {
    let factories = factories_with("wild", |_| Box::new(WildPortRouting));
    let mut cfg = tiny_config("wild");
    cfg.set_path("network.topology.name", "wild".into())
        .expect("object");
    let err = SuperSim::with_factories(&cfg, &factories)
        .expect("builds fine")
        .run()
        .expect_err("must fail at runtime");
    assert!(matches!(err, SimError::Model(_)), "unexpected error: {err}");
}

#[test]
fn wrong_destination_delivery_is_caught() {
    let factories = factories_with("misdeliver", |_| Box::new(MisdeliverRouting));
    let mut cfg = tiny_config("misdeliver");
    cfg.set_path("network.topology.name", "misdeliver".into())
        .expect("object");
    let err = SuperSim::with_factories(&cfg, &factories)
        .expect("builds fine")
        .run()
        .expect_err("must fail at runtime");
    let msg = err.to_string();
    assert!(msg.contains("delivered to"), "unexpected error: {msg}");
}

#[test]
fn build_errors_are_descriptive() {
    // Unknown models.
    let mut cfg = tiny_config("hyperx");
    cfg.set_path("network.topology.name", "klein_bottle".into())
        .expect("object");
    let err = SuperSim::from_config(&cfg).expect_err("unknown topology");
    assert!(err.to_string().contains("klein_bottle"));

    let mut cfg = tiny_config("hyperx");
    cfg.set_path("network.router.architecture", "quantum".into())
        .expect("object");
    let err = SuperSim::from_config(&cfg).expect_err("unknown architecture");
    assert!(matches!(err, BuildError::UnknownModel { .. }));

    // Unknown arbiter policy: a typed router error naming the choices, on
    // both crossbar-scheduled architectures.
    for architecture in ["input_queued", "input_output_queued"] {
        let mut cfg = tiny_config("hyperx");
        for (key, value) in [
            ("architecture", Value::from(architecture)),
            ("output_queue", Value::from(8u64)),
            ("arbiter", "coin_flip".into()),
        ] {
            cfg.set_path(&format!("network.router.{key}"), value)
                .expect("object");
        }
        let err = SuperSim::from_config(&cfg).expect_err("unknown arbiter");
        assert!(matches!(err, BuildError::Router(_)), "{err}");
        assert!(err.to_string().contains("fixed_priority"), "{err}");
    }

    // Missing required settings.
    let mut cfg = tiny_config("hyperx");
    cfg.as_object_mut()
        .expect("object")
        .get_mut("network")
        .and_then(|n| n.as_object_mut())
        .expect("object")
        .remove("vcs");
    let err = SuperSim::from_config(&cfg).expect_err("missing vcs");
    assert!(err.to_string().contains("vcs"));

    // Structurally invalid: UGAL with one VC.
    let mut cfg = tiny_config("hyperx");
    cfg.set_path("network.vcs", Value::from(1u64))
        .expect("object");
    cfg.set_path("network.routing.algorithm", "ugal".into())
        .expect("object");
    let err = SuperSim::from_config(&cfg).expect_err("ugal needs 2 vcs");
    assert!(err.to_string().contains("2 VCs"));
}

#[test]
fn overload_configurations_are_rejected() {
    // A load above one flit/tick/terminal cannot be offered.
    let mut cfg = tiny_config("hyperx");
    cfg.set_path("workload.applications.0.load", Value::Float(1.5))
        .expect("object");
    assert!(SuperSim::from_config(&cfg).is_err());
}
