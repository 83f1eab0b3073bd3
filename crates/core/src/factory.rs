//! Smart object factories (paper §III-D).
//!
//! The C++ SuperSim registers component constructors with a preprocessor
//! macro so that new models drop in "requiring zero changes to the existing
//! code base". The idiomatic Rust equivalent is one [`Registry`] per
//! abstract component type, pre-populated with the built-in models and
//! open for user registration at startup. Every kind registers the same
//! way: a constructor gets the model's configuration block and the
//! context of its kind. One model of each kind, then a run that uses all
//! four by name:
//!
//! ```
//! use std::sync::Arc;
//! use supersim_config::parse;
//! use supersim_core::factory::{Factories, NetworkPlan};
//! use supersim_core::SuperSim;
//! use supersim_des::Component;
//! use supersim_netbase::Ev;
//! use supersim_router::{
//!     CongestionGranularity, CongestionSource, Router, RouterConfig, SensorConfig,
//! };
//! use supersim_topology::{DimOrderRouting, Torus};
//! use supersim_workload::{
//!     Application, Neighbor, PulseApp, PulseConfig, SizeDistribution, TrafficPattern,
//! };
//!
//! let mut f = Factories::with_defaults();
//! // A network: the topology and its routing engines; no context.
//! f.networks.register("my_ring", |net, ()| {
//!     let routers = net.req_u32("topology.routers")?;
//!     let topology = Arc::new(Torus::new(vec![routers], 1)?);
//!     let t = Arc::clone(&topology);
//!     let routing = Arc::new(move |_, _| Box::new(DimOrderRouting::new(Arc::clone(&t), 2)) as _);
//!     Ok(NetworkPlan { topology, routing })
//! });
//! // A traffic pattern, given the terminal count.
//! f.patterns.register("my_neighbor", |cfg, terminals| {
//!     let offset = cfg.opt_u32("offset", 1)?;
//!     Ok(Arc::new(Neighbor::new(terminals, offset)) as Arc<dyn TrafficPattern>)
//! });
//! // A router architecture, given its id, wiring and routing engines.
//! f.routers.register("my_oq", |cfg, ctx| {
//!     let config = RouterConfig {
//!         id: ctx.id,
//!         ports: ctx.ports,
//!         input_buffer: cfg.req_u32("input_buffer")?,
//!         core_period: ctx.link_period,
//!         link_period: ctx.link_period,
//!         sensor: SensorConfig {
//!             source: CongestionSource::Downstream,
//!             granularity: CongestionGranularity::Vc,
//!             delay: 0,
//!         },
//!         routing: ctx.routing,
//!         fault: ctx.fault,
//!     };
//!     Ok(Box::new(Router::output_queued(config, None, 1)?) as Box<dyn Component<Ev>>)
//! });
//! // An application, given the pattern its `pattern` block names.
//! f.apps.register("my_burst", |cfg, ctx| {
//!     Ok(Box::new(PulseApp::new(PulseConfig {
//!         pattern: ctx.pattern,
//!         load: 0.5 / ctx.link_period as f64,
//!         sizes: SizeDistribution::Fixed(1),
//!         delay: 0,
//!         count: cfg.req_u64("count")?,
//!         sources: None,
//!     })) as Box<dyn Application>)
//! });
//!
//! let config = parse(
//!     r#"{"network": {"topology": {"name": "my_ring", "routers": 4}, "vcs": 2,
//!                     "router": {"architecture": "my_oq", "input_buffer": 4}},
//!         "workload": {"applications": [{"name": "my_burst", "count": 3,
//!                                        "pattern": {"name": "my_neighbor"}}]}}"#,
//! )?;
//! let output = SuperSim::with_factories(&config, &f)?.run()?;
//! assert_eq!(output.counters.messages_received, 4 * 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use supersim_config::Value;
use supersim_des::{Component, Tick};
use supersim_netbase::{Ev, FaultPlane, RouterId};
use supersim_router::{RouterPorts, RoutingFactory};
use supersim_topology::Topology;
use supersim_workload::{Application, TrafficPattern};

use crate::error::BuildError;

/// A boxed constructor stored by a [`Registry`].
type Constructor<A, T> = Box<dyn Fn(&Value, A) -> Result<T, BuildError> + Send + Sync>;

/// A name → constructor map for one abstract component type: each
/// constructor gets the model's configuration block and the context `A`
/// of its kind, and returns the model `T`.
pub struct Registry<A, T> {
    kind: &'static str,
    entries: BTreeMap<String, Constructor<A, T>>,
}

impl<A, T> Registry<A, T> {
    fn new(kind: &'static str) -> Self {
        Registry {
            kind,
            entries: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a constructor under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(&Value, A) -> Result<T, BuildError> + Send + Sync + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(ctor));
    }

    /// Whether a model named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The constructor registered under `name`, or
    /// [`BuildError::UnknownModel`].
    pub(crate) fn constructor(&self, name: &str) -> Result<&Constructor<A, T>, BuildError> {
        self.entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownModel {
                registry: self.kind,
                name: name.to_string(),
            })
    }

    /// Builds the model named `name` from its configuration block and
    /// the context of its kind.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownModel`] for unregistered names, or the
    /// constructor's error.
    pub fn build(&self, name: &str, config: &Value, ctx: A) -> Result<T, BuildError> {
        self.constructor(name)?(config, ctx)
    }
}

impl<A, T> std::fmt::Debug for Registry<A, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &self.kind)
            .field("models", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// The topology plus its routing-engine factory, produced by a network
/// model. Routing algorithms are constructed per router input port, so the
/// plan carries a constructor closure over the *concrete* topology.
pub struct NetworkPlan {
    /// The network shape.
    pub topology: Arc<dyn Topology>,
    /// Builds the routing engine for (router, input port).
    pub routing: RoutingFactory,
}

impl std::fmt::Debug for NetworkPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkPlan")
            .field("topology", &self.topology.name())
            .finish_non_exhaustive()
    }
}

/// What a router-architecture constructor gets besides its
/// `network.router` block.
pub struct RouterCtx {
    /// The router's id in the topology.
    pub id: RouterId,
    /// Wired ports (links, credit returns, downstream capacities).
    pub ports: RouterPorts,
    /// Routing engine factory from the network plan.
    pub routing: RoutingFactory,
    /// Channel cycle time in ticks.
    pub link_period: Tick,
    /// Shared fault plane; `None` disables fault injection entirely.
    pub fault: Option<Arc<FaultPlane>>,
    /// Window ring capacity when the sampling plane is armed; `None`
    /// disables sampling (constructors leave the router's sampler unset).
    pub sampler: Option<usize>,
}

/// What an application constructor gets besides its own block.
pub struct AppCtx {
    /// Number of terminals in the network.
    pub terminals: u32,
    /// Channel cycle time in ticks: loads are expressed as fractions of
    /// the line rate (one flit per link period), so applications convert
    /// to flits/tick by dividing by this.
    pub link_period: u64,
    /// Seed for structures that need construction-time randomness (e.g.
    /// random permutations).
    pub seed: u64,
    /// The traffic pattern the block's `pattern` names (`uniform_random`
    /// when it names none), built for this network's terminals.
    pub pattern: Arc<dyn TrafficPattern>,
}

/// All model registries of a simulation, pre-populated with the built-in
/// models by [`Factories::with_defaults`].
#[derive(Debug)]
pub struct Factories {
    /// Network models (topology + routing), keyed by topology name.
    pub networks: Registry<(), NetworkPlan>,
    /// Router microarchitectures.
    pub routers: Registry<RouterCtx, Box<dyn Component<Ev>>>,
    /// Applications.
    pub apps: Registry<AppCtx, Box<dyn Application>>,
    /// Traffic patterns, given the terminal count.
    pub patterns: Registry<u32, Arc<dyn TrafficPattern>>,
}

impl Factories {
    /// Creates empty registries (no built-in models).
    pub fn empty() -> Self {
        Factories {
            networks: Registry::new("network"),
            routers: Registry::new("router architecture"),
            apps: Registry::new("application"),
            patterns: Registry::new("traffic pattern"),
        }
    }

    /// Creates registries holding every built-in model.
    pub fn with_defaults() -> Self {
        let mut f = Factories::empty();
        crate::defaults::register_builtin(&mut f);
        f
    }
}

impl Default for Factories {
    fn default() -> Self {
        Factories::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_workload::Neighbor;

    #[test]
    fn defaults_contain_paper_models() {
        let f = Factories::with_defaults();
        for net in ["torus", "folded_clos", "hyperx", "dragonfly"] {
            assert!(f.networks.contains(net), "missing network {net}");
        }
        for arch in ["output_queued", "input_queued", "input_output_queued"] {
            assert!(f.routers.contains(arch), "missing router {arch}");
        }
        for app in ["blast", "pulse", "pingpong"] {
            assert!(f.apps.contains(app), "missing app {app}");
        }
        for pat in [
            "uniform_random",
            "bit_complement",
            "tornado",
            "transpose",
            "neighbor",
            "cross_subtree",
            "random_permutation",
            "hotspot",
            "incast",
        ] {
            assert!(f.patterns.contains(pat), "missing pattern {pat}");
        }
    }

    /// The shipped quickstart configuration with `edits` applied.
    fn quickstart(edits: &[(&str, Value)]) -> Value {
        let mut cfg =
            supersim_config::parse(include_str!("../../../configs/quickstart.json")).unwrap();
        for (path, value) in edits {
            cfg.set_path(path, value.clone()).unwrap();
        }
        cfg
    }

    fn build_error(cfg: &Value, f: &Factories) -> String {
        match crate::builder::build(cfg, f) {
            Ok(_) => panic!("the configuration built"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn unknown_lookup_is_a_clean_error() {
        let f = Factories::with_defaults();
        let name = |n: &str| Value::Str(n.into());
        // One row per kind, plus an application block whose name and
        // pattern are both wrong: the application is looked up first.
        for (edits, want) in [
            (
                vec![("network.topology.name", name("moebius"))],
                "no network model named \"moebius\" is registered",
            ),
            (
                vec![("network.router.architecture", name("moebius"))],
                "no router architecture model named \"moebius\" is registered",
            ),
            (
                vec![("workload.applications.0.name", name("moebius"))],
                "no application model named \"moebius\" is registered",
            ),
            (
                vec![("workload.applications.0.pattern.name", name("moebius"))],
                "no traffic pattern model named \"moebius\" is registered",
            ),
            (
                vec![
                    ("workload.applications.0.name", name("moebius")),
                    ("workload.applications.0.pattern.name", name("escher")),
                ],
                "no application model named \"moebius\" is registered",
            ),
        ] {
            assert_eq!(build_error(&quickstart(&edits), &f), want, "{edits:?}");
        }
    }

    #[test]
    fn user_registration_extends_without_modifying() {
        let mut f = Factories::with_defaults();
        // Each user model delegates to a built-in under a new name.
        let builtins = Factories::with_defaults();
        f.networks.register("my_network", move |net, ()| {
            builtins.networks.build("hyperx", net, ())
        });
        let builtins = Factories::with_defaults();
        f.routers.register("my_router", move |cfg, ctx| {
            builtins.routers.build("input_queued", cfg, ctx)
        });
        let builtins = Factories::with_defaults();
        f.apps.register("my_app", move |cfg, ctx| {
            builtins.apps.build("blast", cfg, ctx)
        });
        f.patterns.register("everyone_to_next", |_cfg, terminals| {
            Ok(Arc::new(Neighbor::new(terminals, 1)) as Arc<dyn TrafficPattern>)
        });
        let name = |n: &str| Value::Str(n.into());
        for (path, model) in [
            ("network.topology.name", "my_network"),
            ("network.router.architecture", "my_router"),
            ("workload.applications.0.name", "my_app"),
            ("workload.applications.0.pattern.name", "everyone_to_next"),
        ] {
            let cfg = quickstart(&[(path, name(model))]);
            let built = crate::builder::build(&cfg, &f).unwrap_or_else(|e| panic!("{model}: {e}"));
            assert_eq!(built.engine.num_components(), 16 + 4 + 1, "{model}");
        }
        // Built-ins are untouched.
        assert!(crate::builder::build(&quickstart(&[]), &f).is_ok());
    }
}
