//! The input-output-queued (IOQ) router microarchitecture (paper §IV-C,
//! Figure 6).
//!
//! The standard input-queued architecture extended as a combined
//! input/output queued switch: flits wait in the input queues only until
//! credits are available for the *output queues*; after arriving in the
//! output queues they wait for downstream (next hop) credits. The switch
//! core typically runs at a frequency speedup over the links (2× in case
//! study B), configured here as a core period smaller than the link
//! period.
//!
//! Stages: route → crossbar into the output queues → output-queue drain.

use supersim_des::wire::Overlay;
use supersim_des::{wire_overlay, Context, Rng, Tick};
use supersim_netbase::{Ev, FlitHandle, Port};

use crate::common::RouterError;
use crate::skeleton::{Pipeline, Router, RouterConfig, RouterCore};
use crate::snapshot::HandleClaims;
use crate::stages::{Crossbar, OutputQueues, XbarConfig, XbarTarget};
use crate::xbar_sched::XbarCandidate;

impl Router {
    /// Builds an input-output-queued router with output queues of
    /// `output_queue` flits per (port, VC).
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] on inconsistent port tables, zero
    /// periods, a zero-capacity output queue, or an unknown arbiter
    /// policy.
    pub fn input_output_queued(
        config: RouterConfig,
        xbar: XbarConfig,
        output_queue: u32,
    ) -> Result<Self, RouterError> {
        let core = RouterCore::new("ioq", config)?;
        let pipeline = Ioq {
            xbar: Crossbar::new(&core.ports, xbar)?,
            queues: OutputQueues::new(&core.ports, Some(output_queue))?,
        };
        Ok(Router {
            core,
            pipeline: Box::new(pipeline),
        })
    }
}

struct Ioq {
    /// Enforces VC ownership and the flow control technique against
    /// output-queue space.
    xbar: Crossbar,
    queues: OutputQueues,
}

/// IOQ's crossbar target: the output queues, judged against queue space at
/// the core rate (no link gate).
impl XbarTarget for OutputQueues {
    #[inline]
    fn port_open(&self, _core: &RouterCore, _out_port: Port, _tick: Tick) -> bool {
        true
    }

    #[inline]
    fn space(&self, _core: &RouterCore, okey: usize) -> u32 {
        OutputQueues::space(self, okey)
    }

    fn accept(
        &mut self,
        core: &mut RouterCore,
        ctx: &mut Context<'_, Ev>,
        c: &XbarCandidate,
        out_port: Port,
        h: FlitHandle,
        transit: Tick,
    ) {
        self.enqueue(core, ctx.now().tick(), out_port, c.out_vc, h, transit);
    }
}

impl Pipeline for Ioq {
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        if !core.route_heads(ctx, None) {
            return;
        }
        let moved_in = self.xbar.allocate(core, ctx, &mut self.queues);
        let mut rng = Rng::new(ctx.rng().gen_u64());
        let moved_out = self.queues.drain(core, ctx, &mut rng);

        let work_pending = core.inputs_pending() || !self.queues.is_empty();
        if (moved_in || moved_out) && work_pending {
            core.ensure_pipeline(ctx, core.clock.next_edge(tick));
        } else if work_pending {
            // Wake for in-flight crossbar transits and, while flits are
            // queued, for the link-rate gate re-opening.
            let mut wake = self.queues.next_ready_after(tick);
            if !self.queues.is_empty() {
                let gate = core
                    .last_send
                    .iter()
                    .flatten()
                    .map(|&t| t + core.link_period)
                    .filter(|&t| t > tick)
                    .min();
                wake = match (wake, gate) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            if let Some(w) = wake {
                core.ensure_pipeline(ctx, w);
            }
        }
    }

    fn queued_flits(&self) -> u64 {
        self.queues.len()
    }

    fn save_before_credits(&self, out: &mut Vec<u8>) {
        self.queues.save_queues(out);
        self.queues.save_free(out);
        self.xbar.save(out);
    }

    fn load_before_credits(
        &mut self,
        claims: &mut HandleClaims<'_>,
        buf: &mut &[u8],
    ) -> Option<()> {
        self.queues.load_queues(claims, buf)?;
        self.queues.load_free(buf)?;
        self.xbar.load(buf)
    }
}

wire_overlay!(Ioq { queues: overlay });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionGranularity, CongestionSource};
    use crate::testutil::{boxed, router_config, sensor, unwired_config, TestNet};
    use crate::xbar_sched::FlowControl;
    use supersim_netbase::TerminalId;

    fn xbar(flow_control: FlowControl) -> XbarConfig {
        XbarConfig {
            latency: 1,
            flow_control,
            arbiter: "round_robin".into(),
        }
    }

    fn ioq_net(fc: FlowControl, core_period: Tick, oq_cap: u32, eject: u32) -> TestNet {
        TestNet::build(2, eject, move |ports, routing| {
            let sensor = sensor(CongestionSource::Both, CongestionGranularity::Vc);
            boxed(Router::input_output_queued(
                router_config(ports, routing, 8, (core_period, 2), sensor),
                xbar(fc),
                oq_cap,
            ))
        })
    }

    #[test]
    fn delivers_basic_traffic() {
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 8, 16);
        net.inject(0, TerminalId(1), 4, 0);
        net.inject(2, TerminalId(1), 2, 1);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 6);
        assert!(out.all_credits_home);
    }

    #[test]
    fn respects_link_rate_with_core_speedup() {
        // Core at 2x the link: flits cross the crossbar quickly but leave
        // at most one per 2 ticks per port.
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 16, 64);
        net.inject(0, TerminalId(1), 8, 0);
        let out = net.run();
        let times = out.arrival_ticks(1);
        assert_eq!(times.len(), 8);
        assert!(times.windows(2).all(|w| w[1] - w[0] >= 2), "{times:?}");
    }

    #[test]
    fn small_output_queues_backpressure_without_loss() {
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 1, 2);
        for t in 0..6 {
            net.inject(0, TerminalId(1), 2, t * 2);
        }
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 12);
        assert!(out.all_credits_home);
    }

    #[test]
    fn packet_buffer_reserves_output_queue_space() {
        // PB against the OQ: a 4-flit packet needs 4 free OQ slots.
        let mut net = ioq_net(FlowControl::PacketBuffer, 1, 4, 16);
        net.inject(0, TerminalId(1), 4, 0);
        net.inject(2, TerminalId(1), 4, 0);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 8);
    }

    #[test]
    fn winner_take_all_delivers() {
        let mut net = ioq_net(FlowControl::WinnerTakeAll, 1, 2, 4);
        net.inject(0, TerminalId(1), 5, 0);
        net.inject(2, TerminalId(1), 5, 0);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 10);
    }

    #[test]
    fn vcs_interleave_through_output_queues() {
        // Two packets on different input ports with 2 VCs available; the
        // star routing puts both on VC 0, so this exercises ownership
        // serialization through the OQ and in-order delivery.
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 8, 32);
        for t in 0..4 {
            net.inject(0, TerminalId(1), 3, t * 4);
            net.inject(2, TerminalId(1), 3, t * 4 + 1);
        }
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 24);
    }

    #[test]
    fn rejects_zero_output_queue() {
        let sensor = sensor(CongestionSource::Both, CongestionGranularity::Vc);
        let config = unwired_config(1, 1, sensor);
        assert!(Router::input_output_queued(config, xbar(FlowControl::FlitBuffer), 0).is_err());
    }
}
