//! The output-queued (OQ) router microarchitecture (paper §IV-C).
//!
//! The idealistic architecture: zero head-of-line blocking and no
//! scheduling conflicts — every input port can move its head flit into any
//! output queue in the same cycle. Output queues may be infinite or
//! finite; the finite case is what exposes latent congestion detection in
//! case study A. The input-to-output-queue transfer takes the configured
//! queue-to-queue core latency.
//!
//! Stages: route → conflict-free transfer under an owner table (OQ's own)
//! → output-queue drain.

use supersim_des::wire::{self, WireCodec};
use supersim_des::{wire_overlay, Context, Rng, Tick};
use supersim_netbase::Ev;

use crate::common::RouterError;
use crate::skeleton::{Pipeline, Router, RouterConfig, RouterCore};
use crate::snapshot::HandleClaims;
use crate::stages::OutputQueues;

impl Router {
    /// Builds an output-queued router with output queues of
    /// `output_queue` flits per (port, VC) (`None` = infinite) and a
    /// queue-to-queue `core_latency` in ticks.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] on inconsistent port tables, zero
    /// periods, or a zero-capacity finite output queue.
    pub fn output_queued(
        config: RouterConfig,
        output_queue: Option<u32>,
        core_latency: Tick,
    ) -> Result<Self, RouterError> {
        let core = RouterCore::new("oq", config)?;
        let pipeline = Oq {
            core_latency,
            owner: vec![None; core.inputs.len()],
            queues: OutputQueues::new(&core.ports, output_queue)?,
        };
        Ok(Router {
            core,
            pipeline: Box::new(pipeline),
        })
    }
}

struct Oq {
    core_latency: Tick,
    /// Wormhole atomicity at enqueue: which input key owns each output VC.
    owner: Vec<Option<u32>>,
    queues: OutputQueues,
}

impl Oq {
    /// Every input may move its head flit into its output queue — no
    /// scheduling conflicts (the OQ ideal).
    fn inputs_to_queues(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) -> bool {
        let tick = ctx.now().tick();
        let mut progress = false;
        let mut at = 0;
        while let Some(k) = core.inputs.next_occupied(at) {
            at = k + 1;
            let Some(route) = core.route_table[k] else {
                continue;
            };
            let h = core.inputs.front(k).expect("occupied input");
            let m = core.arena.meta(h);
            let okey = core.ports.key(route.port, route.vc);
            // Wormhole atomicity: one packet owns the output VC queue from
            // head to tail enqueue.
            let owner_ok = match self.owner[okey] {
                None => m.is_head(),
                Some(owner) => owner == k as u32,
            };
            if !owner_ok {
                continue;
            }
            if self.queues.space(okey) == 0 {
                core.metrics.credit_stalls.inc();
                if let Some(s) = core.arena.span_mut(h) {
                    s.stall(tick);
                }
                continue; // finite queue full: backpressure
            }
            core.inputs.pop(k).expect("front existed");
            core.leave_input(ctx, k, h, route.vc);
            self.owner[okey] = if m.is_tail() { None } else { Some(k as u32) };
            self.queues
                .enqueue(core, tick, route.port, route.vc, h, self.core_latency);
            progress = true;
        }
        progress
    }
}

impl Pipeline for Oq {
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        if !core.route_heads(ctx, None) {
            return;
        }
        let moved_in = self.inputs_to_queues(core, ctx);
        // The drain arbiter is deterministic; Rng is only part of the
        // Arbiter interface. Borrow the context's RNG via a reseeded copy
        // to keep the borrows disjoint.
        let mut rng = Rng::new(ctx.rng().gen_u64());
        let moved_out = self.queues.drain(core, ctx, &mut rng);

        // Re-arm: next edge while progress keeps state moving; otherwise
        // the earliest in-flight ready time.
        let work_pending = core.inputs_pending() || !self.queues.is_empty();
        if (moved_in || moved_out) && work_pending {
            core.ensure_pipeline(ctx, core.clock.next_edge(tick));
        } else if let Some(ready) = self.queues.next_ready_after(tick) {
            core.ensure_pipeline(ctx, ready);
        }
    }

    fn queued_flits(&self) -> u64 {
        self.queues.len()
    }

    fn save_before_credits(&self, out: &mut Vec<u8>) {
        self.queues.save_queues(out);
        self.queues.bounded().encode(out);
        self.queues.save_free(out);
        wire::put_slice(out, &self.owner);
    }

    fn load_before_credits(
        &mut self,
        claims: &mut HandleClaims<'_>,
        buf: &mut &[u8],
    ) -> Option<()> {
        self.queues.load_queues(claims, buf)?;
        if bool::decode(buf)? != self.queues.bounded() {
            return None;
        }
        self.queues.load_free(buf)?;
        wire::load_slice(&mut self.owner, buf)
    }
}

wire_overlay!(Oq { queues: overlay });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionGranularity, CongestionSource};
    use crate::testutil::{boxed, router_config, sensor, unwired_config, TestNet};
    use supersim_netbase::TerminalId;

    fn oq_net(output_queue: Option<u32>, core_latency: Tick, eject: u32) -> TestNet {
        TestNet::build(1, eject, move |ports, routing| {
            let sensor = sensor(CongestionSource::Output, CongestionGranularity::Port);
            boxed(Router::output_queued(
                router_config(ports, routing, 8, (1, 1), sensor),
                output_queue,
                core_latency,
            ))
        })
    }

    #[test]
    fn delivers_with_infinite_queues() {
        let mut net = oq_net(None, 5, 16);
        net.inject(0, TerminalId(1), 3, 0);
        let out = net.run();
        assert_eq!(out.delivered(1), 3);
        assert!(out.outcome.is_ok());
        assert!(out.all_credits_home);
    }

    #[test]
    fn core_latency_delays_transit() {
        // With queue-to-queue latency 10 the first flit cannot arrive
        // before inject(0) + send(1) + core(10) + channel(1).
        let mut net = oq_net(None, 10, 16);
        net.inject(0, TerminalId(1), 1, 0);
        let out = net.run();
        assert!(out.arrival_ticks(1)[0] >= 11, "{:?}", out.arrival_ticks(1));
    }

    #[test]
    fn no_scheduling_conflicts_across_inputs() {
        // Two inputs to one output simultaneously: both head flits enter
        // the output queue in the same cycle (single-flit packets).
        let mut net = oq_net(None, 1, 64);
        for t in 0..16 {
            net.inject(0, TerminalId(1), 1, t);
            net.inject(2, TerminalId(1), 1, t);
        }
        let out = net.run();
        assert_eq!(out.delivered(1), 32);
        // The output channel serializes at 1 flit/tick; delivery takes at
        // least 32 consecutive ticks.
        let times = out.arrival_ticks(1);
        assert!(times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn finite_queue_applies_backpressure_without_loss() {
        let mut net = oq_net(Some(2), 1, 4);
        for t in 0..8 {
            net.inject(0, TerminalId(1), 1, t);
            net.inject(2, TerminalId(1), 1, t);
        }
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 16);
        assert!(out.all_credits_home);
    }

    #[test]
    fn multi_flit_packets_stay_atomic_per_vc() {
        // Two 4-flit packets from different inputs into one output with a
        // single VC: enqueue ownership must keep them contiguous, which
        // the endpoint's delivery checker verifies.
        let mut net = oq_net(None, 2, 32);
        net.inject(0, TerminalId(1), 4, 0);
        net.inject(2, TerminalId(1), 4, 0);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 8);
    }

    #[test]
    fn sensor_counts_output_occupancy() {
        // Instantaneous sensor check through the public accessor.
        let mut net = oq_net(None, 50, 16);
        net.inject(0, TerminalId(1), 1, 0);
        // Not running to completion: we inspect mid-flight state is not
        // practical here; run fully and check the counters instead.
        let out = net.run();
        assert_eq!(out.router_counters[0].flits_in, 1);
        assert_eq!(out.router_counters[0].flits_out, 1);
    }

    #[test]
    fn rejects_zero_capacity_finite_queue() {
        let sensor = sensor(CongestionSource::Output, CongestionGranularity::Port);
        assert!(Router::output_queued(unwired_config(1, 1, sensor), Some(0), 1).is_err());
    }
}
