//! Model-based equivalence test for the fused Stage-2 allocation pass.
//!
//! The router pipelines collect crossbar candidates for *all* output
//! ports in one input-ascending distribution pass and only then run the
//! per-port schedulers (the "fused" shape), instead of the reference
//! per-port stepping model that re-scans the inputs once per output
//! port with grants interleaved between scans. The two are equivalent
//! because:
//!
//! - routes are latched by the Stage-1 routing phase, so each input
//!   presents exactly one candidate to exactly one output port per
//!   cycle, and one k-ascending pass produces every per-port candidate
//!   list in the same order the per-port scans would;
//! - a grant for port `p` only mutates state keyed by `p` (its credit
//!   pool, its scheduler) and the winner's own input queue, none of
//!   which any other port's candidate collection reads.
//!
//! This module checks that argument mechanically: both models run side
//! by side on randomized multi-cycle scenarios (random routes, packet
//! sizes, credit replenishment, link gates, flow control, and arbiter
//! policies) and must produce identical grant schedules, credit
//! states, queue states, stall counts, and scheduler lock/ownership
//! state at every cycle. Randomness comes from the in-tree seeded
//! [`Rng`], so a failure reproduces from its scenario seed.

use std::collections::VecDeque;

use supersim_des::Rng;
use supersim_netbase::Vc;

use crate::xbar_sched::{FlowControl, OutputScheduler, XbarCandidate};

/// One wormhole packet parked at an input: a fixed route chosen at the
/// head plus how many of its flits have already crossed the crossbar.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelPacket {
    age: u64,
    size: u32,
    out_port: usize,
    out_vc: Vc,
    sent: u32,
}

/// The Stage-2 allocation state shared by both stepping models.
struct StageState {
    ports: usize,
    vcs: usize,
    inputs: Vec<VecDeque<ModelPacket>>,
    /// Credits toward the downstream buffer, keyed `port * vcs + vc`.
    credits: Vec<u32>,
    scheds: Vec<OutputScheduler>,
    rng: Rng,
    credit_stalls: u64,
}

impl StageState {
    fn new(
        ports: usize,
        vcs: usize,
        inputs: Vec<VecDeque<ModelPacket>>,
        credits: Vec<u32>,
        fc: FlowControl,
        arbiter: &str,
        rng_seed: u64,
    ) -> Self {
        StageState {
            ports,
            vcs,
            inputs,
            credits,
            scheds: (0..ports)
                .map(|_| OutputScheduler::new(fc, vcs as u32, arbiter).expect("known arbiter"))
                .collect(),
            rng: Rng::new(rng_seed),
            credit_stalls: 0,
        }
    }

    /// Latches each input's front flit and its route at cycle start —
    /// the Stage-1 routing phase. A tail retiring mid-cycle therefore
    /// cannot expose its successor packet as a candidate until the next
    /// cycle, exactly like the routers' `route_table`.
    fn latch(&self) -> Vec<Option<ModelPacket>> {
        self.inputs.iter().map(|q| q.front().cloned()).collect()
    }

    /// The candidate a latched front presents, reading the credit pool
    /// *now* (and counting a stall when it is empty, exactly like the
    /// routers' collection passes do).
    fn candidate(&mut self, k: usize, pkt: &ModelPacket) -> XbarCandidate {
        let key = pkt.out_port * self.vcs + pkt.out_vc as usize;
        let credits = self.credits[key];
        if credits == 0 {
            self.credit_stalls += 1;
        }
        XbarCandidate {
            input_key: k as u32,
            age: pkt.age,
            out_vc: pkt.out_vc,
            is_head: pkt.sent == 0,
            is_tail: pkt.sent + 1 == pkt.size,
            packet_size: pkt.size,
            credits,
        }
    }

    /// Applies a grant: consume one credit, advance the winner's packet,
    /// retire it at the tail.
    fn apply(&mut self, c: &XbarCandidate, out_port: usize) {
        let key = out_port * self.vcs + c.out_vc as usize;
        assert!(self.credits[key] > 0, "granted without a credit");
        self.credits[key] -= 1;
        let k = c.input_key as usize;
        let pkt = self.inputs[k].front_mut().expect("winner had a flit");
        pkt.sent += 1;
        if pkt.sent == pkt.size {
            self.inputs[k].pop_front();
        }
    }

    /// The fused shape: one k-ascending distribution pass into per-port
    /// buckets, then the schedulers in port order.
    fn step_fused(&mut self, gates: &[bool]) -> Vec<Option<u32>> {
        let latched = self.latch();
        let mut buckets: Vec<Vec<XbarCandidate>> = vec![Vec::new(); self.ports];
        for (k, front) in latched.iter().enumerate() {
            let Some(pkt) = front else {
                continue;
            };
            if gates[pkt.out_port] {
                continue; // channel still serializing; no candidate, no stall
            }
            let cand = self.candidate(k, pkt);
            buckets[pkt.out_port].push(cand);
        }
        let mut winners = vec![None; self.ports];
        for p in 0..self.ports {
            if gates[p] {
                continue;
            }
            let Some(w) = self.scheds[p].pick(&buckets[p], &mut self.rng) else {
                continue;
            };
            let c = buckets[p][w];
            winners[p] = Some(c.input_key);
            self.apply(&c, p);
        }
        winners
    }

    /// The reference per-phase shape: for each output port in turn,
    /// re-scan every input for that port's candidates, then grant —
    /// so later ports observe earlier ports' grants mid-cycle.
    fn step_reference(&mut self, gates: &[bool]) -> Vec<Option<u32>> {
        let latched = self.latch();
        let mut winners = vec![None; self.ports];
        for p in 0..self.ports {
            if gates[p] {
                continue;
            }
            let mut cands = Vec::new();
            for (k, front) in latched.iter().enumerate() {
                let Some(pkt) = front else {
                    continue;
                };
                if pkt.out_port != p {
                    continue;
                }
                let cand = self.candidate(k, pkt);
                cands.push(cand);
            }
            let Some(w) = self.scheds[p].pick(&cands, &mut self.rng) else {
                continue;
            };
            let c = cands[w];
            winners[p] = Some(c.input_key);
            self.apply(&c, p);
        }
        winners
    }

    fn drained(&self) -> bool {
        self.inputs.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOW_CONTROLS: [FlowControl; 3] = [
        FlowControl::FlitBuffer,
        FlowControl::PacketBuffer,
        FlowControl::WinnerTakeAll,
    ];
    const ARBITERS: [&str; 4] = ["round_robin", "age_based", "random", "fixed_priority"];

    /// Builds one random scenario. Credits start at or above the largest
    /// packet so packet-buffer reservation is satisfiable, and only grow
    /// (replenishment is non-negative), matching the real credit links.
    fn random_scenario(rng: &mut Rng) -> (StageState, StageState, u64) {
        let ports = rng.gen_range(2..5usize);
        let vcs = rng.gen_range(1..4usize);
        let n_inputs = rng.gen_range(2..7usize);
        let fc = FLOW_CONTROLS[rng.gen_range(0..FLOW_CONTROLS.len())];
        let arbiter = ARBITERS[rng.gen_range(0..ARBITERS.len())];
        let max_size = 4u32;
        let inputs: Vec<VecDeque<ModelPacket>> = (0..n_inputs)
            .map(|_| {
                (0..rng.gen_range(0..4usize))
                    .map(|_| ModelPacket {
                        age: rng.gen_range(0..100u64),
                        size: rng.gen_range(1..=max_size),
                        out_port: rng.gen_range(0..ports),
                        out_vc: rng.gen_range(0..vcs as u32),
                        sent: 0,
                    })
                    .collect()
            })
            .collect();
        let credits: Vec<u32> = (0..ports * vcs)
            .map(|_| rng.gen_range(max_size..max_size + 4))
            .collect();
        let pick_seed = rng.gen_u64();
        let fused = StageState::new(
            ports,
            vcs,
            inputs.clone(),
            credits.clone(),
            fc,
            arbiter,
            pick_seed,
        );
        let reference = StageState::new(ports, vcs, inputs, credits, fc, arbiter, pick_seed);
        (fused, reference, rng.gen_u64())
    }

    /// The fused single-pass distribution and the reference per-port
    /// stepping model produce identical grant schedules and end states
    /// on randomized scenarios — winners, credits, queues, stall
    /// counts, and scheduler ownership, cycle by cycle.
    #[test]
    fn fused_pass_matches_reference_stepping() {
        let mut scenario_rng = Rng::new(0x5EED_F05E);
        for scenario in 0..400 {
            let (mut fused, mut reference, cycle_seed) = random_scenario(&mut scenario_rng);
            let mut cycle_rng = Rng::new(cycle_seed);
            for cycle in 0..64 {
                // Shared per-cycle environment: link gates and credit
                // replenishment, identical for both models.
                let gates: Vec<bool> = (0..fused.ports).map(|_| cycle_rng.gen_bool(0.25)).collect();
                let fused_winners = fused.step_fused(&gates);
                let ref_winners = reference.step_reference(&gates);
                let at = format!("scenario {scenario} cycle {cycle}");
                assert_eq!(fused_winners, ref_winners, "winners diverged at {at}");
                assert_eq!(fused.credits, reference.credits, "credits diverged at {at}");
                assert_eq!(fused.inputs, reference.inputs, "queues diverged at {at}");
                assert_eq!(
                    fused.credit_stalls, reference.credit_stalls,
                    "stall counts diverged at {at}"
                );
                for p in 0..fused.ports {
                    assert_eq!(
                        fused.scheds[p].locked_to(),
                        reference.scheds[p].locked_to(),
                        "port {p} lock diverged at {at}"
                    );
                    for vc in 0..fused.vcs as u32 {
                        assert_eq!(
                            fused.scheds[p].vc_owner(vc),
                            reference.scheds[p].vc_owner(vc),
                            "port {p} vc {vc} owner diverged at {at}"
                        );
                    }
                }
                for key in 0..fused.credits.len() {
                    let r = cycle_rng.gen_range(0..2u32);
                    fused.credits[key] += r;
                    reference.credits[key] += r;
                }
                if fused.drained() {
                    break;
                }
            }
        }
    }

    /// Sanity: the scenarios actually exercise the machinery — across
    /// the sweep some packets drain fully and some credit stalls occur.
    #[test]
    fn scenarios_exercise_grants_and_stalls() {
        let mut scenario_rng = Rng::new(7);
        let mut drained = 0u32;
        let mut stalls = 0u64;
        for _ in 0..50 {
            let (mut fused, _, cycle_seed) = random_scenario(&mut scenario_rng);
            let mut cycle_rng = Rng::new(cycle_seed);
            for _ in 0..64 {
                let gates: Vec<bool> = (0..fused.ports).map(|_| cycle_rng.gen_bool(0.25)).collect();
                fused.step_fused(&gates);
                if fused.drained() {
                    drained += 1;
                    break;
                }
            }
            stalls += fused.credit_stalls;
        }
        assert!(drained > 10, "too few scenarios drained: {drained}");
        assert!(stalls > 0, "no credit stalls were ever observed");
    }
}
