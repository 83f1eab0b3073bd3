//! The router skeleton: everything the three microarchitectures share.
//!
//! A [`Router`] is a [`RouterCore`] — ports, flit arena, input buffers,
//! route table, downstream credits, routing engines, congestion sensor,
//! pipeline wake-up, counters, metrics, fault protocol glue, sampling and
//! the checkpoint frame — plus one [`Pipeline`]: the architecture's stage
//! composition, run once per switch cycle. Event handling, sampling and
//! snapshotting exist only here; an architecture contributes its `cycle`
//! and the bytes of its own stage state.
//!
//! The helpers the stages call per flit or per cycle are `#[inline]`: the
//! stages live in other modules, so without it every such call would
//! cross a codegen-unit boundary that the former one-struct-per-file
//! routers never had.

use std::any::Any;
use std::sync::Arc;

use supersim_des::wire::{self, Overlay, WireCodec};
use supersim_des::{wire_struct, Clock, Component, Context, Tick, Time};
use supersim_netbase::{
    retry_port, CreditCounter, Ev, FaultPlane, Flit, FlitArena, FlitHandle, FlitTraceExt,
    LinkFaults, Port, RouterId, TraceKind, Vc,
};
use supersim_stats::ComponentSampler;
use supersim_topology::{RouteChoice, RoutingAlgorithm, RoutingContext};

use crate::buffer::InputBuffers;
use crate::common::{router_faults, FaultProtocolEvent, RouterError, RouterPorts, RoutingFactory};
use crate::congestion::{CongestionSensor, CongestionSource, SensorConfig};
use crate::metrics::{close_router_window, RouterMetrics, RouterSampleBase};
use crate::snapshot::{self as snap, HandleClaims};

/// Configuration common to every router microarchitecture.
pub struct RouterConfig {
    /// This router's id in the topology.
    pub id: RouterId,
    /// Port wiring.
    pub ports: RouterPorts,
    /// Input buffer depth in flits per (port, VC).
    pub input_buffer: u32,
    /// Switch cycle time in ticks; a 2× frequency speedup over the links
    /// means `core_period = link_period / 2`.
    pub core_period: Tick,
    /// Channel cycle time in ticks (at most one flit per output port per
    /// link period).
    pub link_period: Tick,
    /// Congestion sensor configuration.
    pub sensor: SensorConfig,
    /// Constructor for per-input-port routing engines.
    pub routing: RoutingFactory,
    /// Shared fault plane; `None` disables fault injection entirely.
    pub fault: Option<Arc<FaultPlane>>,
}

/// Operation counters of a router, for engine-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounters {
    /// Flits received on input ports.
    pub flits_in: u64,
    /// Flits sent on output ports.
    pub flits_out: u64,
    /// Credits received for output VCs.
    pub credits_in: u64,
    /// Switch cycles executed. Each cycle is one batched pipeline event,
    /// so this is also the profiling plane's batch count.
    pub cycles: u64,
    /// Flits moved by a pipeline stage (crossbar grants, queue transfers,
    /// channel sends) — `flits_advanced / cycles` is the per-batch
    /// advancement rate of the profiling plane.
    pub flits_advanced: u64,
}

wire_struct!(RouterCounters {
    flits_in,
    flits_out,
    credits_in,
    cycles,
    flits_advanced,
});

/// One architecture's stage composition over the shared [`RouterCore`].
/// Its [`Overlay`] is the stage state that follows the credit counters in
/// the checkpoint frame.
pub(crate) trait Pipeline: Overlay + Send {
    /// Runs one switch cycle: route, move flits through the stages, and
    /// re-arm the pipeline by the architecture's own rule.
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>);

    /// Flits held in stage-owned queues (beyond the input buffers).
    fn queued_flits(&self) -> u64 {
        0
    }

    /// Stage state that precedes the credit counters in the checkpoint
    /// frame.
    fn save_before_credits(&self, out: &mut Vec<u8>);

    /// Overlays state saved by [`Pipeline::save_before_credits`]; flit
    /// handles are claimed from the restored arena.
    fn load_before_credits(&mut self, claims: &mut HandleClaims<'_>, buf: &mut &[u8])
        -> Option<()>;
}

/// The state and stage helpers every router microarchitecture shares.
pub struct RouterCore {
    name: String,
    pub(crate) id: RouterId,
    pub(crate) ports: RouterPorts,
    pub(crate) clock: Clock,
    pub(crate) link_period: Tick,
    input_buffer: u32,
    /// In-flight flits parked once on arrival; buffers and queues move
    /// handles only.
    pub(crate) arena: FlitArena,
    pub(crate) inputs: InputBuffers,
    pub(crate) route_table: Vec<Option<RouteChoice>>,
    pub(crate) credits: Vec<CreditCounter>,
    routing: Vec<Box<dyn RoutingAlgorithm>>,
    pub(crate) sensor: CongestionSensor,
    pub(crate) last_send: Vec<Option<Tick>>,
    next_pipeline: Option<Tick>,
    last_cycle: Option<Tick>,
    /// Operation counters.
    pub counters: RouterCounters,
    /// Allocation / flow-control metrics.
    pub metrics: RouterMetrics,
    /// Per-port fault and retransmission state; `None` = fault-free.
    pub fault: Option<LinkFaults>,
    /// Windowed time-series ring; `None` = sampling disabled.
    pub sampler: Option<ComponentSampler>,
    win_base: RouterSampleBase,
}

impl RouterCore {
    /// Builds the shared state of a router named `<kind>_router_<id>`.
    pub(crate) fn new(kind: &str, config: RouterConfig) -> Result<Self, RouterError> {
        config.ports.validate()?;
        if config.core_period == 0 || config.link_period == 0 {
            return Err(RouterError::new("clock periods must be non-zero"));
        }
        let radix = config.ports.radix;
        let vcs = config.ports.vcs;
        let n = (radix * vcs) as usize;
        let credits = (0..n)
            .map(|k| {
                let (port, _) = config.ports.unkey(k);
                CreditCounter::new(config.ports.downstream_capacity[port as usize])
            })
            .collect();
        let routing = (0..radix).map(|p| (config.routing)(config.id, p)).collect();
        Ok(RouterCore {
            name: format!("{kind}_router_{}", config.id.0),
            id: config.id,
            clock: Clock::new(config.core_period),
            link_period: config.link_period,
            input_buffer: config.input_buffer,
            arena: FlitArena::new(),
            inputs: InputBuffers::new(n, config.input_buffer),
            route_table: vec![None; n],
            credits,
            routing,
            sensor: CongestionSensor::new(radix, vcs, config.sensor),
            last_send: vec![None; radix as usize],
            next_pipeline: None,
            last_cycle: None,
            counters: RouterCounters::default(),
            metrics: RouterMetrics::new(radix),
            fault: router_faults(config.fault, config.id, radix),
            ports: config.ports,
            sampler: None,
            win_base: RouterSampleBase::default(),
        })
    }

    /// Input buffer depth per (port, VC) — the credit count granted to
    /// upstream devices.
    pub fn input_buffer(&self) -> u32 {
        self.input_buffer
    }

    /// Flit-arena occupancy as `(live, high_water)`, for the profiling
    /// plane.
    pub fn arena_stats(&self) -> (u32, u32) {
        (self.arena.live(), self.arena.high_water())
    }

    /// Schedules a pipeline wake-up at the first clock edge at or after
    /// `desired`, unless an earlier one is already pending.
    #[inline]
    pub(crate) fn ensure_pipeline(&mut self, ctx: &mut Context<'_, Ev>, desired: Tick) {
        let t = self.clock.edge_at_or_after(desired);
        if self.next_pipeline.is_none_or(|np| t < np) {
            ctx.schedule_self(Time::new(t, 1), Ev::Pipeline);
            self.next_pipeline = Some(t);
        }
    }

    /// Whether any input buffer holds a flit.
    #[inline]
    pub(crate) fn inputs_pending(&self) -> bool {
        self.inputs.any()
    }

    /// Whether `out_port`'s channel is still serializing its previous
    /// flit at `tick`.
    #[inline]
    pub(crate) fn link_busy(&self, out_port: Port, tick: Tick) -> bool {
        self.last_send[out_port as usize].is_some_and(|t| tick < t + self.link_period)
    }

    /// The route stage: computes a route for every new head at an input
    /// buffer front. With `started` given, engines that opt into
    /// re-routing recompute a waiting head's route every cycle until its
    /// packet starts transmitting (Duato-style escape fallback); without,
    /// a route is frozen once computed. Returns `false` after reporting
    /// a model error.
    #[inline]
    pub(crate) fn route_heads(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        started: Option<&[bool]>,
    ) -> bool {
        let tick = ctx.now().tick();
        let mut at = 0;
        while let Some(k) = self.inputs.next_occupied(at) {
            at = k + 1;
            let routed = self.route_table[k].is_some();
            if routed && started.is_none_or(|s| s[k]) {
                continue;
            }
            let (in_port, in_vc) = self.ports.unkey(k);
            if routed && !self.routing[in_port as usize].reroutes() {
                continue;
            }
            let h = self.inputs.front(k).expect("occupied input");
            if !self.arena.meta(h).is_head() {
                if routed {
                    continue; // body flit streaming on a frozen route
                }
                ctx.fail(format!(
                    "{}: body flit of {} at buffer head without a route",
                    self.name,
                    self.arena.get(h).pkt.id
                ));
                return false;
            }
            let view = self.sensor.view_at(tick);
            let choice = {
                let mut rctx = RoutingContext {
                    router: self.id,
                    input_port: in_port,
                    input_vc: in_vc,
                    congestion: &view,
                    rng: ctx.rng(),
                };
                self.routing[in_port as usize].route(&mut rctx, self.arena.get_mut(h))
            };
            // Error detection (paper §IV-D): reject illegal routing output.
            if choice.port >= self.ports.radix || choice.vc >= self.ports.vcs {
                ctx.fail(format!(
                    "{}: routing produced illegal output (port {}, vc {})",
                    self.name, choice.port, choice.vc
                ));
                return false;
            }
            if self.ports.flit_links[choice.port as usize].is_none() {
                ctx.fail(format!(
                    "{}: routing targeted unused output port {}",
                    self.name, choice.port
                ));
                return false;
            }
            self.route_table[k] = Some(choice);
        }
        true
    }

    /// Bookkeeping for the flit just popped from input `k` on its way to
    /// `out_vc`: returns the freed buffer slot's credit upstream, releases
    /// the route at the tail, and stamps the hop.
    #[inline]
    pub(crate) fn leave_input(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        k: usize,
        h: FlitHandle,
        out_vc: Vc,
    ) {
        let (in_port, in_vc) = self.ports.unkey(k);
        if let Some(cl) = self.ports.credit_links[in_port as usize] {
            let lost = self.fault.as_mut().is_some_and(|f| f.credit_lost(ctx));
            if !lost {
                ctx.schedule(
                    cl.component,
                    Time::at(ctx.now().tick() + cl.latency),
                    Ev::Credit {
                        port: cl.port,
                        vc: in_vc,
                    },
                );
            }
        }
        if self.arena.meta(h).is_tail() {
            self.route_table[k] = None;
        }
        let flit = self.arena.get_mut(h);
        flit.hops += 1;
        flit.vc = out_vc;
        self.metrics.flit_unbuffered(in_port);
    }

    /// Sends flit `h` out on `out_port`'s channel after `transit` ticks
    /// inside the router, consuming one downstream credit of its VC.
    #[inline]
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        out_port: Port,
        h: FlitHandle,
        transit: Tick,
    ) {
        let tick = ctx.now().tick();
        let mut flit = self.arena.take(h);
        if self.credits[self.ports.key(out_port, flit.vc)]
            .consume()
            .is_err()
        {
            ctx.fail(format!(
                "{}: credit underflow on output {out_port}",
                self.name
            ));
            return;
        }
        self.sensor
            .add(tick, CongestionSource::Downstream, out_port, flit.vc);
        ctx.trace_flit(TraceKind::RouterDepart, self.id.0, &flit);
        let fl = self.ports.flit_links[out_port as usize].expect("validated at route time");
        if let Some(s) = flit.span.as_deref_mut() {
            s.grant(tick, transit, fl.latency);
        }
        if let Some(fault) = &mut self.fault {
            fault.send(ctx, out_port, &fl, transit + fl.latency, flit, self.id.0);
        } else {
            ctx.schedule(
                fl.component,
                Time::at(tick + transit + fl.latency),
                Ev::Flit {
                    port: fl.port,
                    flit,
                },
            );
        }
        self.last_send[out_port as usize] = Some(tick);
        self.counters.flits_out += 1;
        self.counters.flits_advanced += 1;
    }

    fn accept_flit(&mut self, ctx: &mut Context<'_, Ev>, port: Port, flit: Flit) {
        if port >= self.ports.radix || flit.vc >= self.ports.vcs {
            ctx.fail(format!(
                "{}: flit arrived on unknown input (port {port}, vc {})",
                self.name, flit.vc
            ));
            return;
        }
        let mut flit = match &mut self.fault {
            Some(fault) => {
                let reply = self.ports.credit_links[port as usize];
                match fault.receive(ctx, port, reply, flit, self.id.0) {
                    Some(flit) => flit,
                    None => return, // corrupt copy discarded and nacked
                }
            }
            None => flit,
        };
        self.counters.flits_in += 1;
        let now = ctx.now().tick();
        if let Some(s) = flit.span.as_deref_mut() {
            s.enter(now);
        }
        ctx.trace_flit(TraceKind::RouterArrive, self.id.0, &flit);
        let k = self.ports.key(port, flit.vc);
        let h = self.arena.insert(flit);
        if let Err(h) = self.inputs.push(k, h) {
            let flit = self.arena.take(h);
            ctx.fail(format!(
                "{}: input buffer overrun at port {port} vc {} ({})",
                self.name, flit.vc, flit.pkt.id
            ));
            return;
        }
        self.metrics.flit_buffered(port);
        self.ensure_pipeline(ctx, now);
    }

    fn accept_credit(&mut self, ctx: &mut Context<'_, Ev>, port: Port, vc: Vc) {
        if port >= self.ports.radix || vc >= self.ports.vcs {
            ctx.fail(format!(
                "{}: credit arrived for unknown output (port {port}, vc {vc})",
                self.name
            ));
            return;
        }
        self.counters.credits_in += 1;
        let k = self.ports.key(port, vc);
        if self.credits[k].release().is_err() {
            ctx.fail(format!(
                "{}: credit overflow at output port {port} vc {vc}",
                self.name
            ));
            return;
        }
        let now = ctx.now().tick();
        self.sensor
            .remove(now, CongestionSource::Downstream, port, vc);
        self.ensure_pipeline(ctx, now);
    }

    /// Dispatches a fault protocol event addressed to output port `port`:
    /// validates the port, looks up its flit link, and drives the
    /// sender-side retransmission state machine.
    fn fault_protocol(&mut self, ctx: &mut Context<'_, Ev>, port: Port, kind: FaultProtocolEvent) {
        let name = &self.name;
        let Some(fault) = self.fault.as_mut() else {
            ctx.fail(format!(
                "{name}: fault protocol event {kind:?} with the fault plane disabled"
            ));
            return;
        };
        if port >= self.ports.radix {
            ctx.fail(format!(
                "{name}: fault protocol event {kind:?} for unknown output port {port}"
            ));
            return;
        }
        let Some(link) = self.ports.flit_links[port as usize] else {
            ctx.fail(format!(
                "{name}: fault protocol event {kind:?} for unwired output port {port}"
            ));
            return;
        };
        match kind {
            FaultProtocolEvent::Ack => fault.handle_ack(ctx, port, &link, self.id.0),
            FaultProtocolEvent::Nack => fault.handle_nack(ctx, port, &link, self.id.0),
            FaultProtocolEvent::Retry => fault.handle_retry(ctx, port, &link, self.id.0),
        }
    }
}

/// A router component: the shared [`RouterCore`] driven by one
/// microarchitecture's pipeline. Built by [`Router::input_queued`],
/// [`Router::output_queued`] or [`Router::input_output_queued`].
pub struct Router {
    /// The architecture-independent state.
    pub core: RouterCore,
    pub(crate) pipeline: Box<dyn Pipeline>,
}

impl Router {
    /// Flits currently buffered (input buffers + stage queues + flits
    /// parked in fault hold queues), for diagnostic snapshots.
    pub fn buffered_flits(&self) -> u64 {
        let inputs: u64 = self
            .core
            .inputs
            .buffers()
            .iter()
            .map(|b| u64::from(b.occupancy()))
            .sum();
        inputs
            + self.pipeline.queued_flits()
            + self.core.fault.as_ref().map_or(0, |f| f.held_flits())
    }

    /// Per-(port, vc) downstream credit state as `(available, capacity)`,
    /// for diagnostic snapshots.
    pub fn credit_state(&self) -> Vec<(u32, u32)> {
        self.core
            .credits
            .iter()
            .map(|c| (c.available(), c.capacity()))
            .collect()
    }
}

impl Component<Ev> for Router {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn host_class(&self) -> &'static str {
        "router"
    }

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        let core = &mut self.core;
        match event {
            Ev::Flit { port, flit } => core.accept_flit(ctx, port, flit),
            Ev::Credit { port, vc } => core.accept_credit(ctx, port, vc),
            Ev::Pipeline => {
                let tick = ctx.now().tick();
                if core.next_pipeline == Some(tick) {
                    core.next_pipeline = None;
                }
                if core.last_cycle == Some(tick) {
                    return; // duplicate wake-up in the same cycle
                }
                core.last_cycle = Some(tick);
                core.counters.cycles += 1;
                self.pipeline.cycle(core, ctx);
            }
            Ev::Ack { port } => core.fault_protocol(ctx, port, FaultProtocolEvent::Ack),
            Ev::Nack { port } => core.fault_protocol(ctx, port, FaultProtocolEvent::Nack),
            Ev::Internal(tag) if retry_port(tag).is_some() => {
                let port = retry_port(tag).expect("guard matched");
                core.fault_protocol(ctx, port, FaultProtocolEvent::Retry);
            }
            other => {
                ctx.fail(format!("{}: unexpected event {other:?}", core.name));
            }
        }
    }

    fn sample(&mut self, edge: Tick) {
        if self.core.sampler.is_none() {
            return;
        }
        let buffered = self.buffered_flits();
        let core = &mut self.core;
        close_router_window(
            core.sampler.as_mut().expect("checked above"),
            &mut core.win_base,
            edge,
            &core.metrics,
            core.counters.flits_in,
            core.counters.flits_out,
            buffered,
        );
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        let core = &self.core;
        core.arena.save(out);
        snap::put_buffers(out, core.inputs.buffers());
        wire::put_slice(out, &core.route_table);
        self.pipeline.save_before_credits(out);
        wire::put_each(out, &core.credits, Overlay::save);
        self.pipeline.save(out);
        wire::put_sections(out, &core.routing);
        core.sensor.save(out);
        wire::put_slice(out, &core.last_send);
        core.next_pipeline.encode(out);
        core.last_cycle.encode(out);
        core.counters.encode(out);
        core.metrics.save(out);
        wire::put_armed(out, core.fault.as_ref(), Overlay::save);
        wire::put_armed(out, core.sampler.as_ref(), ComponentSampler::encode);
        core.win_base.encode(out);
    }

    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        let core = &mut self.core;
        let arena = FlitArena::load(buf)?;
        {
            let mut claims = HandleClaims::new(&arena);
            core.inputs.load(&mut claims, buf)?;
            snap::load_routes(&mut core.route_table, core.ports.radix, core.ports.vcs, buf)?;
            self.pipeline.load_before_credits(&mut claims, buf)?;
            if !claims.complete() {
                return None;
            }
        }
        wire::load_each(&mut core.credits, buf, Overlay::load)?;
        self.pipeline.load(buf)?;
        wire::load_sections(&mut core.routing, buf)?;
        core.sensor.load(buf)?;
        wire::load_slice(&mut core.last_send, buf)?;
        core.next_pipeline = Option::decode(buf)?;
        core.last_cycle = Option::decode(buf)?;
        core.counters = RouterCounters::decode(buf)?;
        core.metrics.load(buf)?;
        wire::load_armed(buf, core.fault.as_mut(), Overlay::load)?;
        wire::load_armed(buf, core.sampler.as_mut(), wire::load_value)?;
        core.win_base = RouterSampleBase::decode(buf)?;
        core.arena = arena;
        Some(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
