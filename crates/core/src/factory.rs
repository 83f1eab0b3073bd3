//! Smart object factories (paper §III-D).
//!
//! The C++ SuperSim registers component constructors with a preprocessor
//! macro so that new models drop in "requiring zero changes to the existing
//! code base". The idiomatic Rust equivalent is an explicit [`Registry`]
//! per abstract component type, pre-populated with the built-in models and
//! open for user registration at startup:
//!
//! ```
//! use supersim_core::factory::Factories;
//! use supersim_workload::{Neighbor, TrafficPattern};
//! use std::sync::Arc;
//!
//! let mut factories = Factories::with_defaults();
//! factories.patterns.register("my_neighbor", |cfg, terminals| {
//!     let offset = cfg.opt_u32("offset", 1).map_err(supersim_core::BuildError::from)?;
//!     Ok(Arc::new(Neighbor::new(terminals, offset)) as Arc<dyn TrafficPattern>)
//! });
//! assert!(factories.patterns.contains("my_neighbor"));
//! ```
//!
//! Building a simulation then resolves every model by the name given in
//! the JSON settings, exactly as the paper describes.

use std::collections::BTreeMap;
use std::sync::Arc;

use supersim_config::Value;
use supersim_des::{Component, Tick};
use supersim_netbase::{Ev, FaultPlane, Port, RouterId};
use supersim_router::{RouterPorts, RoutingFactory};
use supersim_topology::{RoutingAlgorithm, Topology};
use supersim_workload::{Application, TrafficPattern};

use crate::error::BuildError;

/// A boxed constructor stored by a [`Registry`].
type Constructor<T> = Box<dyn Fn(&Value) -> Result<T, BuildError> + Send + Sync>;

/// A name → constructor map for one abstract component type.
pub struct Registry<T> {
    kind: &'static str,
    entries: BTreeMap<String, Constructor<T>>,
}

impl<T> Registry<T> {
    fn new(kind: &'static str) -> Self {
        Registry {
            kind,
            entries: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a constructor under `name`.
    pub fn register_raw(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(&Value) -> Result<T, BuildError> + Send + Sync + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(ctor));
    }

    /// Whether a model named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Registered model names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Builds the model named `name` from its configuration block.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownModel`] for unregistered names, or the
    /// constructor's error.
    pub fn build(&self, name: &str, config: &Value) -> Result<T, BuildError> {
        let ctor = self
            .entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownModel {
                registry: self.kind,
                name: name.to_string(),
            })?;
        ctor(config)
    }
}

impl<T> std::fmt::Debug for Registry<T> {
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
    pub routing: Arc<dyn Fn(RouterId, Port) -> Box<dyn RoutingAlgorithm> + Send + Sync>,
}

impl std::fmt::Debug for NetworkPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkPlan")
            .field("topology", &self.topology.name())
            .finish_non_exhaustive()
    }
}

impl NetworkPlan {
    /// Adapts the plan's routing constructor into the router crate's
    /// [`RoutingFactory`] form.
    pub fn routing_factory(&self) -> RoutingFactory {
        let routing = Arc::clone(&self.routing);
        Box::new(move |router, port| routing(router, port))
    }
}

/// Everything a router-architecture constructor receives.
pub struct RouterCtx<'a> {
    /// The router's id in the topology.
    pub id: RouterId,
    /// Wired ports (links, credit returns, downstream capacities).
    pub ports: RouterPorts,
    /// Routing engine factory from the network plan.
    pub routing: RoutingFactory,
    /// The `network.router` configuration block.
    pub config: &'a Value,
    /// Channel cycle time in ticks.
    pub link_period: Tick,
    /// Shared fault plane; `None` disables fault injection entirely.
    pub fault: Option<Arc<FaultPlane>>,
    /// Window ring capacity when the sampling plane is armed; `None`
    /// disables sampling (constructors leave the router's sampler unset).
    pub sampler: Option<usize>,
}

/// Everything an application constructor receives besides its own block.
pub struct AppCtx<'a> {
    /// Number of terminals in the network.
    pub terminals: u32,
    /// Channel cycle time in ticks: loads are expressed as fractions of
    /// the line rate (one flit per link period), so applications convert
    /// to flits/tick by dividing by this.
    pub link_period: u64,
    /// Seed for structures that need construction-time randomness (e.g.
    /// random permutations).
    pub seed: u64,
    /// The traffic-pattern registry, so applications can build their
    /// configured pattern by name.
    pub patterns: &'a PatternRegistry,
}

type RouterCtor =
    Box<dyn Fn(RouterCtx<'_>) -> Result<Box<dyn Component<Ev>>, BuildError> + Send + Sync>;
type AppCtor = Box<
    dyn for<'a> Fn(&Value, AppCtx<'a>) -> Result<Box<dyn Application>, BuildError> + Send + Sync,
>;
type PatternCtor =
    Box<dyn Fn(&Value, u32) -> Result<Arc<dyn TrafficPattern>, BuildError> + Send + Sync>;

/// The registry of traffic-pattern models (custom signature: patterns also
/// receive the terminal count).
pub struct PatternRegistry {
    entries: BTreeMap<String, PatternCtor>,
}

impl PatternRegistry {
    /// Registers (or replaces) a pattern constructor.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(&Value, u32) -> Result<Arc<dyn TrafficPattern>, BuildError>
            + Send
            + Sync
            + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(ctor));
    }

    /// Whether a pattern named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Builds the pattern named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownModel`] for unregistered names.
    pub fn build(
        &self,
        name: &str,
        config: &Value,
        terminals: u32,
    ) -> Result<Arc<dyn TrafficPattern>, BuildError> {
        let ctor = self
            .entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownModel {
                registry: "traffic pattern",
                name: name.to_string(),
            })?;
        ctor(config, terminals)
    }
}

/// The registry of router-architecture models.
pub struct RouterRegistry {
    entries: BTreeMap<String, RouterCtor>,
}

impl RouterRegistry {
    /// Registers (or replaces) a router-architecture constructor.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(RouterCtx<'_>) -> Result<Box<dyn Component<Ev>>, BuildError>
            + Send
            + Sync
            + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(ctor));
    }

    /// Whether an architecture named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Builds the architecture named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownModel`] for unregistered names.
    pub fn build(
        &self,
        name: &str,
        ctx: RouterCtx<'_>,
    ) -> Result<Box<dyn Component<Ev>>, BuildError> {
        let ctor = self
            .entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownModel {
                registry: "router architecture",
                name: name.to_string(),
            })?;
        ctor(ctx)
    }
}

/// The registry of application models.
pub struct AppRegistry {
    entries: BTreeMap<String, AppCtor>,
}

impl AppRegistry {
    /// Registers (or replaces) an application constructor.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl for<'a> Fn(&Value, AppCtx<'a>) -> Result<Box<dyn Application>, BuildError>
            + Send
            + Sync
            + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(ctor));
    }

    /// Whether an application named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Builds the application named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownModel`] for unregistered names.
    pub fn build(
        &self,
        name: &str,
        config: &Value,
        ctx: AppCtx<'_>,
    ) -> Result<Box<dyn Application>, BuildError> {
        let ctor = self
            .entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownModel {
                registry: "application",
                name: name.to_string(),
            })?;
        ctor(config, ctx)
    }
}

/// All model registries of a simulation, pre-populated with the built-in
/// models by [`Factories::with_defaults`].
pub struct Factories {
    /// Network models (topology + routing), keyed by topology name.
    pub networks: Registry<NetworkPlan>,
    /// Router microarchitectures.
    pub routers: RouterRegistry,
    /// Applications.
    pub apps: AppRegistry,
    /// Traffic patterns.
    pub patterns: PatternRegistry,
}

impl Factories {
    /// Creates empty registries (no built-in models).
    pub fn empty() -> Self {
        Factories {
            networks: Registry::new("network"),
            routers: RouterRegistry {
                entries: BTreeMap::new(),
            },
            apps: AppRegistry {
                entries: BTreeMap::new(),
            },
            patterns: PatternRegistry {
                entries: BTreeMap::new(),
            },
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

impl std::fmt::Debug for Factories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factories")
            .field(
                "networks",
                &self.networks.entries.keys().collect::<Vec<_>>(),
            )
            .field("routers", &self.routers.entries.keys().collect::<Vec<_>>())
            .field("apps", &self.apps.entries.keys().collect::<Vec<_>>())
            .field(
                "patterns",
                &self.patterns.entries.keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn unknown_lookup_is_a_clean_error() {
        let f = Factories::with_defaults();
        let err = f.networks.build("moebius", &Value::object()).unwrap_err();
        assert!(err.to_string().contains("moebius"));
    }

    #[test]
    fn user_registration_extends_without_modifying() {
        let mut f = Factories::with_defaults();
        f.patterns.register("everyone_to_zero", |_cfg, _terminals| {
            Ok(Arc::new(supersim_workload::Neighbor::new(2, 0)) as Arc<dyn TrafficPattern>)
        });
        assert!(f.patterns.contains("everyone_to_zero"));
        // Built-ins are untouched.
        assert!(f.patterns.contains("uniform_random"));
    }
}
