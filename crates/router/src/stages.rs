//! The pipeline stages the architectures compose (the route stage lives
//! on [`RouterCore`] itself):
//!
//! - [`Crossbar`] — the input stage of IQ and IOQ: one candidate pass over
//!   the inputs, one [`OutputScheduler`] pick per output port. What the
//!   candidates' "credits" are and where a winner goes is the stage's
//!   [`XbarTarget`] parameter: the channel (IQ) or the output queues
//!   (IOQ).
//! - [`OutputQueues`] — the output stage of OQ and IOQ: per-(port, VC)
//!   queues drained onto the channels at the link rate against downstream
//!   credits.

use std::collections::VecDeque;

use supersim_des::wire::{self, WireCodec};
use supersim_des::{wire_overlay, Context, Rng, Tick};
use supersim_netbase::{Ev, FlitHandle, Port, Vc};

use crate::arbiter::{Arbiter, Request, RoundRobinArbiter};
use crate::common::{RouterError, RouterPorts};
use crate::congestion::CongestionSource;
use crate::skeleton::RouterCore;
use crate::snapshot::HandleClaims;
use crate::xbar_sched::{FlowControl, OutputScheduler, XbarCandidate};

/// Configuration of a crossbar input stage.
pub struct XbarConfig {
    /// Crossbar traversal latency in ticks.
    pub latency: Tick,
    /// Crossbar scheduling flow control technique.
    pub flow_control: FlowControl,
    /// Arbiter policy for the output schedulers.
    pub arbiter: String,
}

/// Where a crossbar grant lands.
pub(crate) trait XbarTarget {
    /// Whether `out_port` can take a flit in the cycle at `tick`.
    fn port_open(&self, core: &RouterCore, out_port: Port, tick: Tick) -> bool;

    /// Free slots behind output key `okey` — the "credits" the schedulers'
    /// flow control is judged against.
    fn space(&self, core: &RouterCore, okey: usize) -> u32;

    /// Takes the granted flit `h`, already popped from input
    /// `c.input_key`, `transit` ticks of crossbar traversal away.
    fn accept(
        &mut self,
        core: &mut RouterCore,
        ctx: &mut Context<'_, Ev>,
        c: &XbarCandidate,
        out_port: Port,
        h: FlitHandle,
        transit: Tick,
    );
}

/// Crossbar-scheduled input stage: per cycle, each output port accepts at
/// most one flit from the input buffer heads.
pub(crate) struct Crossbar {
    latency: Tick,
    schedulers: Vec<OutputScheduler>,
    /// Per-output-port candidate buckets, reused across cycles.
    buckets: Vec<Vec<XbarCandidate>>,
}

impl Crossbar {
    pub(crate) fn new(ports: &RouterPorts, config: XbarConfig) -> Result<Self, RouterError> {
        let schedulers = (0..ports.radix)
            .map(|_| OutputScheduler::new(config.flow_control, ports.vcs, &config.arbiter))
            .collect::<Result<_, _>>()?;
        Ok(Crossbar {
            latency: config.latency,
            schedulers,
            buckets: (0..ports.radix).map(|_| Vec::new()).collect(),
        })
    }

    /// Switch allocation, one winner per open output port. A single pass
    /// over the inputs distributes candidates into reused per-output
    /// buckets — each input feeds exactly one output, so the per-output
    /// candidate order (ascending input key) and every space/stall
    /// observation are identical to a per-output sweep (pinned by
    /// `fused_model.rs`), at O(inputs + radix) per cycle with no per-cycle
    /// allocation. Returns whether any flit moved.
    pub(crate) fn allocate<T: XbarTarget>(
        &mut self,
        core: &mut RouterCore,
        ctx: &mut Context<'_, Ev>,
        target: &mut T,
    ) -> bool {
        let tick = ctx.now().tick();
        let mut progress = false;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        let mut at = 0;
        while let Some(k) = core.inputs.next_occupied(at) {
            at = k + 1;
            let Some(route) = core.route_table[k] else {
                continue;
            };
            if !target.port_open(core, route.port, tick) {
                continue;
            }
            let h = core.inputs.front(k).expect("occupied input");
            let m = core.arena.meta(h);
            let credits = target.space(core, core.ports.key(route.port, route.vc));
            let span = core.arena.span_mut(h);
            if credits == 0 {
                core.metrics.credit_stalls.inc();
                if let Some(s) = span {
                    s.stall(tick);
                }
            } else if let Some(s) = span {
                s.resume(tick);
            }
            self.buckets[route.port as usize].push(XbarCandidate {
                input_key: k as u32,
                age: m.age,
                out_vc: route.vc,
                is_head: m.is_head(),
                is_tail: m.is_tail(),
                packet_size: m.packet_size,
                credits,
            });
        }
        for out_port in 0..core.ports.radix {
            if !target.port_open(core, out_port, tick) {
                continue;
            }
            let cands = &self.buckets[out_port as usize];
            let Some(w) = self.schedulers[out_port as usize].pick(cands, ctx.rng()) else {
                if !cands.is_empty() {
                    core.metrics.denials.inc();
                }
                continue;
            };
            core.metrics.grants.inc();
            let c = cands[w];
            let k = c.input_key as usize;
            let h = core.inputs.pop(k).expect("candidate had a head flit");
            core.leave_input(ctx, k, h, c.out_vc);
            target.accept(core, ctx, &c, out_port, h, self.latency);
            progress = true;
        }
        progress
    }
}

wire_overlay!(Crossbar { schedulers: each });

/// Output queues per (port, VC) and their drain onto the channels.
pub(crate) struct OutputQueues {
    /// Flit handles with their ready ticks.
    queues: Vec<VecDeque<(Tick, FlitHandle)>>,
    /// Remaining space per (port, VC); `None` = unbounded queues.
    free: Option<Vec<u32>>,
    /// Per-output-port VC drain arbiters.
    arbiters: Vec<RoundRobinArbiter>,
    /// Drain request scratch, reused across ports and cycles.
    requests: Vec<Request>,
}

impl OutputQueues {
    /// Queues of `capacity` flits per (port, VC); `None` = unbounded.
    pub(crate) fn new(ports: &RouterPorts, capacity: Option<u32>) -> Result<Self, RouterError> {
        if capacity == Some(0) {
            return Err(RouterError::new("output queues need capacity > 0"));
        }
        let n = (ports.radix * ports.vcs) as usize;
        Ok(OutputQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            free: capacity.map(|cap| vec![cap; n]),
            arbiters: (0..ports.radix).map(|_| RoundRobinArbiter::new()).collect(),
            requests: Vec::new(),
        })
    }

    /// Whether the queues have a finite capacity.
    pub(crate) fn bounded(&self) -> bool {
        self.free.is_some()
    }

    /// Free slots in queue `okey`.
    #[inline]
    pub(crate) fn space(&self, okey: usize) -> u32 {
        self.free.as_ref().map_or(u32::MAX, |free| free[okey])
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Flits currently queued.
    pub(crate) fn len(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// The earliest ready tick after `tick` among the queue fronts:
    /// in-flight transits have no triggering event of their own.
    pub(crate) fn next_ready_after(&self, tick: Tick) -> Option<Tick> {
        self.queues
            .iter()
            .filter_map(|q| q.front())
            .map(|&(ready, _)| ready)
            .filter(|&r| r > tick)
            .min()
    }

    /// Enqueues flit `h` toward `(out_port, vc)`, ready after `transit`
    /// ticks. Its input residence ends here; the transit is serialization,
    /// then a fresh residence segment begins in the output queue.
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        core: &mut RouterCore,
        tick: Tick,
        out_port: Port,
        vc: Vc,
        h: FlitHandle,
        transit: Tick,
    ) {
        let okey = core.ports.key(out_port, vc);
        if let Some(free) = &mut self.free {
            debug_assert!(free[okey] > 0, "flit granted without queue space");
            free[okey] -= 1;
        }
        core.sensor
            .add(tick, CongestionSource::Output, out_port, vc);
        if let Some(s) = core.arena.span_mut(h) {
            s.grant(tick, transit, 0);
            s.enter(tick + transit);
        }
        self.queues[okey].push_back((tick + transit, h));
        core.counters.flits_advanced += 1;
    }

    /// The drain: each output port sends at most one ready flit per link
    /// period, honoring downstream credits. Returns whether any flit
    /// moved.
    pub(crate) fn drain(
        &mut self,
        core: &mut RouterCore,
        ctx: &mut Context<'_, Ev>,
        rng: &mut Rng,
    ) -> bool {
        let tick = ctx.now().tick();
        let mut progress = false;
        for out_port in 0..core.ports.radix {
            if core.link_busy(out_port, tick) {
                continue;
            }
            self.requests.clear();
            for vc in 0..core.ports.vcs {
                let okey = core.ports.key(out_port, vc);
                let Some(&(ready, h)) = self.queues[okey].front() else {
                    continue;
                };
                if ready > tick {
                    continue;
                }
                if !core.credits[okey].has_credit() {
                    core.metrics.credit_stalls.inc();
                    if let Some(s) = core.arena.span_mut(h) {
                        s.stall(tick);
                    }
                    continue;
                }
                self.requests.push(Request {
                    id: vc,
                    age: core.arena.meta(h).age,
                });
            }
            let Some(w) = self.arbiters[out_port as usize].grant(&self.requests, rng) else {
                if !self.requests.is_empty() {
                    core.metrics.denials.inc();
                }
                continue;
            };
            core.metrics.grants.inc();
            let vc = self.requests[w].id;
            let okey = core.ports.key(out_port, vc);
            let (_, h) = self.queues[okey].pop_front().expect("candidate had a flit");
            if let Some(free) = &mut self.free {
                free[okey] += 1;
            }
            core.sensor
                .remove(tick, CongestionSource::Output, out_port, vc);
            core.transmit(ctx, out_port, h, 0);
            progress = true;
        }
        progress
    }

    /// Serializes the queues' `(ready_tick, handle)` entries.
    pub(crate) fn save_queues(&self, out: &mut Vec<u8>) {
        wire::put_each(out, &self.queues, |q, o| {
            q.len().encode(o);
            for &(ready, h) in q {
                (ready, h.index()).encode(o);
            }
        });
    }

    /// Overlays saved entries onto the freshly built (empty) queues,
    /// claiming each handle from the restored arena.
    pub(crate) fn load_queues(
        &mut self,
        claims: &mut HandleClaims<'_>,
        buf: &mut &[u8],
    ) -> Option<()> {
        wire::load_each(&mut self.queues, buf, |q, b| {
            q.clear();
            for _ in 0..wire::get_len(b)? {
                let (ready, index) = <(Tick, u32)>::decode(b)?;
                q.push_back((ready, claims.claim(index)?));
            }
            Some(())
        })
    }

    /// Serializes the free-slot counts of bounded queues (unbounded
    /// queues have none to write).
    pub(crate) fn save_free(&self, out: &mut Vec<u8>) {
        if let Some(free) = &self.free {
            wire::put_slice(out, free);
        }
    }

    pub(crate) fn load_free(&mut self, buf: &mut &[u8]) -> Option<()> {
        match &mut self.free {
            Some(free) => wire::load_slice(free, buf),
            None => Some(()),
        }
    }
}

// The drain arbiters only: the handle-bearing queues and their free
// counts load before the credit table, through `load_queues` / `load_free`.
wire_overlay!(OutputQueues { arbiters: slice });
