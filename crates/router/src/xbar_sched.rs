//! Crossbar output scheduling and flow control techniques (paper §VI-C).
//!
//! One [`OutputScheduler`] guards each output port of an input-queued
//! router: every switch cycle it picks at most one flit to traverse the
//! crossbar toward its port, enforcing output-VC ownership (wormhole
//! packets never interleave within a VC) and the configured
//! [`FlowControl`] technique:
//!
//! - **Flit-buffer (FB)** — flit-by-flit arbitration; packets on different
//!   VCs interleave, each taking a fair share of the output bandwidth.
//! - **Packet-buffer (PB)** — a packet wins only if the downstream has
//!   space for *all* of it; the output port is then locked to the packet
//!   until its tail, so no credit stalls occur while streaming.
//! - **Winner-take-all (WTA)** — flit-level start (one credit suffices)
//!   with the port locked to the winner; a credit stall unlocks the port
//!   so other packets with credits can take over.

use supersim_des::{wire_overlay, Rng};

use supersim_netbase::Vc;

use crate::arbiter::{arbiter_by_name, Arbiter, Request, ARBITER_POLICIES};
use crate::common::RouterError;

/// The flow control technique of a crossbar scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// Flit-buffer flow control.
    FlitBuffer,
    /// Packet-buffer flow control.
    PacketBuffer,
    /// Winner-take-all flow control.
    WinnerTakeAll,
}

impl FlowControl {
    /// Parses `"flit_buffer"` / `"fb"`, `"packet_buffer"` / `"pb"`, or
    /// `"winner_take_all"` / `"wta"`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "flit_buffer" | "fb" => Some(FlowControl::FlitBuffer),
            "packet_buffer" | "pb" => Some(FlowControl::PacketBuffer),
            "winner_take_all" | "wta" => Some(FlowControl::WinnerTakeAll),
            _ => None,
        }
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FlowControl::FlitBuffer => "flit_buffer",
            FlowControl::PacketBuffer => "packet_buffer",
            FlowControl::WinnerTakeAll => "winner_take_all",
        }
    }
}

/// One input (port, VC) competing for an output port this cycle.
#[derive(Debug, Clone, Copy)]
pub struct XbarCandidate {
    /// Unique key of the input (e.g. flattened `(port, vc)`).
    pub input_key: u32,
    /// Packet age (injection tick) for age-based arbitration.
    pub age: u64,
    /// Output VC the packet uses (chosen at route time).
    pub out_vc: Vc,
    /// Whether the flit is its packet's head.
    pub is_head: bool,
    /// Whether the flit is its packet's tail.
    pub is_tail: bool,
    /// Packet length in flits.
    pub packet_size: u32,
    /// Credits currently available on `out_vc` toward the next buffer.
    pub credits: u32,
}

/// Per-output-port crossbar scheduler.
pub struct OutputScheduler {
    fc: FlowControl,
    arbiter: Box<dyn Arbiter>,
    /// Owner (input key) of each output VC, held from head grant to tail
    /// grant.
    vc_owner: Vec<Option<u32>>,
    /// Port lock for PB/WTA, held while a packet streams.
    lock: Option<u32>,
    /// Eligible-candidate indices, reused across [`pick`](Self::pick)
    /// calls to keep the per-cycle hot path allocation-free.
    eligible: Vec<usize>,
    /// Arbiter request scratch, reused across calls.
    requests: Vec<Request>,
}

impl OutputScheduler {
    /// Creates a scheduler for an output port with `vcs` virtual channels.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] naming the allowed policies if the
    /// arbiter policy name is unknown.
    pub fn new(fc: FlowControl, vcs: u32, arbiter_policy: &str) -> Result<Self, RouterError> {
        let arbiter = arbiter_by_name(arbiter_policy).ok_or_else(|| {
            RouterError::new(format!(
                "unknown arbiter policy {arbiter_policy:?} (expected one of {})",
                ARBITER_POLICIES.join(", ")
            ))
        })?;
        Ok(OutputScheduler {
            fc,
            arbiter,
            vc_owner: vec![None; vcs as usize],
            lock: None,
            eligible: Vec::new(),
            requests: Vec::new(),
        })
    }

    /// The flow control technique.
    pub fn flow_control(&self) -> FlowControl {
        self.fc
    }

    /// Current owner of an output VC, if any.
    pub fn vc_owner(&self, vc: Vc) -> Option<u32> {
        self.vc_owner[vc as usize]
    }

    /// Whether the port is currently locked to a streaming packet.
    pub fn locked_to(&self) -> Option<u32> {
        self.lock
    }

    /// Picks at most one candidate to traverse the crossbar this cycle and
    /// updates VC-ownership and lock state accordingly. Returns the index
    /// into `candidates` of the winner.
    ///
    /// The caller must present, per input (port, VC), only the flit at the
    /// head of that buffer, and must deliver the granted flit (the state
    /// update assumes the grant is used).
    pub fn pick(&mut self, candidates: &[XbarCandidate], rng: &mut Rng) -> Option<usize> {
        // A WTA lock breaks on a credit stall of the owner.
        if self.fc == FlowControl::WinnerTakeAll {
            if let Some(owner) = self.lock {
                let stalled = candidates
                    .iter()
                    .find(|c| c.input_key == owner)
                    .is_some_and(|c| c.credits == 0);
                if stalled {
                    self.lock = None;
                }
            }
        }

        // Eligibility filter (into the reused scratch vector).
        self.eligible.clear();
        for (i, c) in candidates.iter().enumerate() {
            if self.is_eligible(c) {
                self.eligible.push(i);
            }
        }

        // While a port lock is held, only the owner may proceed.
        let winner_idx = if let Some(owner) = self.lock {
            let own = self
                .eligible
                .iter()
                .copied()
                .find(|&i| candidates[i].input_key == owner);
            match self.fc {
                // PB holds the port for the owner even while it waits for
                // body flits to arrive.
                FlowControl::PacketBuffer => own?,
                // WTA holds the port unless the owner credit-stalled
                // (handled above). An input-starved owner keeps the port.
                FlowControl::WinnerTakeAll => own?,
                FlowControl::FlitBuffer => unreachable!("FB never locks the port"),
            }
        } else {
            self.requests.clear();
            for &i in &self.eligible {
                self.requests.push(Request {
                    id: candidates[i].input_key,
                    age: candidates[i].age,
                });
            }
            let w = self.arbiter.grant(&self.requests, rng)?;
            self.eligible[w]
        };

        self.commit(&candidates[winner_idx]);
        Some(winner_idx)
    }

    fn is_eligible(&self, c: &XbarCandidate) -> bool {
        // Output VC ownership: heads acquire a free VC, bodies continue on
        // their own VC.
        let owner = self.vc_owner[c.out_vc as usize];
        let vc_ok = if c.is_head {
            owner.is_none()
        } else {
            owner == Some(c.input_key)
        };
        if !vc_ok {
            return false;
        }
        match self.fc {
            FlowControl::FlitBuffer => c.credits >= 1,
            FlowControl::WinnerTakeAll => c.credits >= 1,
            FlowControl::PacketBuffer => {
                if c.is_head {
                    // Whole-packet reservation up front.
                    c.credits >= c.packet_size
                } else {
                    // Reservation guarantees space; credits cannot stall.
                    debug_assert!(c.credits >= 1, "packet-buffer reservation violated");
                    true
                }
            }
        }
    }

    fn commit(&mut self, c: &XbarCandidate) {
        if c.is_head {
            self.vc_owner[c.out_vc as usize] = Some(c.input_key);
            if self.fc != FlowControl::FlitBuffer {
                self.lock = Some(c.input_key);
            }
        }
        if c.is_tail {
            debug_assert_eq!(self.vc_owner[c.out_vc as usize], Some(c.input_key));
            self.vc_owner[c.out_vc as usize] = None;
            if self.lock == Some(c.input_key) {
                self.lock = None;
            }
        }
    }
}

// VC ownership, the port lock and the arbiter's history; the scratch
// vectors are not state.
wire_overlay!(OutputScheduler {
    vc_owner: slice,
    lock,
    arbiter: overlay,
});

impl std::fmt::Debug for OutputScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutputScheduler")
            .field("fc", &self.fc)
            .field("lock", &self.lock)
            .field("vc_owner", &self.vc_owner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(21)
    }

    fn cand(key: u32, vc: Vc, seq: u32, size: u32, credits: u32) -> XbarCandidate {
        XbarCandidate {
            input_key: key,
            age: key as u64,
            out_vc: vc,
            is_head: seq == 0,
            is_tail: seq + 1 == size,
            packet_size: size,
            credits,
        }
    }

    #[test]
    fn names_parse() {
        assert_eq!(FlowControl::from_name("fb"), Some(FlowControl::FlitBuffer));
        assert_eq!(
            FlowControl::from_name("packet_buffer"),
            Some(FlowControl::PacketBuffer)
        );
        assert_eq!(
            FlowControl::from_name("wta"),
            Some(FlowControl::WinnerTakeAll)
        );
        assert_eq!(FlowControl::from_name("x"), None);
        assert_eq!(FlowControl::WinnerTakeAll.name(), "winner_take_all");
    }

    #[test]
    fn unknown_arbiter_policy_is_a_typed_error() {
        let err = OutputScheduler::new(FlowControl::FlitBuffer, 1, "bogus")
            .expect_err("unknown policy must be rejected")
            .to_string();
        for policy in ARBITER_POLICIES {
            assert!(err.contains(policy), "{err}");
        }
    }

    #[test]
    fn fb_interleaves_packets_on_different_vcs() {
        let mut s = OutputScheduler::new(FlowControl::FlitBuffer, 2, "round_robin").unwrap();
        let mut rng = rng();
        // Two 4-flit packets on VCs 0 and 1; present heads then bodies.
        let mut seqs = [0u32, 0u32];
        let mut winners = vec![];
        for _ in 0..8 {
            let cands = vec![cand(0, 0, seqs[0], 4, 10), cand(1, 1, seqs[1], 4, 10)];
            let w = s.pick(&cands, &mut rng).unwrap();
            winners.push(cands[w].input_key);
            seqs[cands[w].input_key as usize] += 1;
        }
        // Round-robin on two inputs: perfect interleave, 50% each.
        assert_eq!(winners, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn fb_blocks_vc_stealing() {
        let mut s = OutputScheduler::new(FlowControl::FlitBuffer, 1, "round_robin").unwrap();
        let mut rng = rng();
        // Input 0's head takes VC 0.
        let w = s.pick(&[cand(0, 0, 0, 3, 5)], &mut rng).unwrap();
        assert_eq!(w, 0);
        assert_eq!(s.vc_owner(0), Some(0));
        // Input 1's head cannot acquire the owned VC; input 0's body can.
        let cands = vec![cand(1, 0, 0, 3, 5), cand(0, 0, 1, 3, 5)];
        let w = s.pick(&cands, &mut rng).unwrap();
        assert_eq!(cands[w].input_key, 0);
        // Tail releases the VC.
        let w = s.pick(&[cand(0, 0, 2, 3, 5)], &mut rng).unwrap();
        assert_eq!(w, 0);
        assert_eq!(s.vc_owner(0), None);
        let w = s.pick(&[cand(1, 0, 0, 3, 5)], &mut rng).unwrap();
        assert_eq!(w, 0);
        assert_eq!(s.vc_owner(0), Some(1));
    }

    #[test]
    fn fb_requires_a_credit() {
        let mut s = OutputScheduler::new(FlowControl::FlitBuffer, 1, "round_robin").unwrap();
        let mut rng = rng();
        assert_eq!(s.pick(&[cand(0, 0, 0, 2, 0)], &mut rng), None);
        assert!(s.pick(&[cand(0, 0, 0, 2, 1)], &mut rng).is_some());
    }

    #[test]
    fn pb_needs_full_packet_credits() {
        let mut s = OutputScheduler::new(FlowControl::PacketBuffer, 2, "round_robin").unwrap();
        let mut rng = rng();
        // 4-flit packet, only 3 credits: not eligible.
        assert_eq!(s.pick(&[cand(0, 0, 0, 4, 3)], &mut rng), None);
        // 4 credits: granted and the port locks.
        assert!(s.pick(&[cand(0, 0, 0, 4, 4)], &mut rng).is_some());
        assert_eq!(s.locked_to(), Some(0));
        // A competing head on another VC with plenty of credits must wait.
        let cands = vec![cand(1, 1, 0, 1, 9), cand(0, 0, 1, 4, 3)];
        let w = s.pick(&cands, &mut rng).unwrap();
        assert_eq!(cands[w].input_key, 0);
        // Stream the rest; tail unlocks.
        s.pick(&[cand(0, 0, 2, 4, 2)], &mut rng).unwrap();
        s.pick(&[cand(0, 0, 3, 4, 1)], &mut rng).unwrap();
        assert_eq!(s.locked_to(), None);
        let w = s.pick(&[cand(1, 1, 0, 1, 9)], &mut rng).unwrap();
        assert_eq!(w, 0);
    }

    #[test]
    fn pb_lock_holds_through_input_starvation() {
        let mut s = OutputScheduler::new(FlowControl::PacketBuffer, 2, "round_robin").unwrap();
        let mut rng = rng();
        s.pick(&[cand(0, 0, 0, 3, 3)], &mut rng).unwrap();
        // Owner has no flit this cycle; the other input may not slip in.
        assert_eq!(s.pick(&[cand(1, 1, 0, 1, 5)], &mut rng), None);
        assert_eq!(s.locked_to(), Some(0));
    }

    #[test]
    fn wta_starts_with_one_credit_and_unlocks_on_stall() {
        let mut s = OutputScheduler::new(FlowControl::WinnerTakeAll, 2, "round_robin").unwrap();
        let mut rng = rng();
        // 4-flit packet with a single credit: WTA may start (PB could not).
        assert!(s.pick(&[cand(0, 0, 0, 4, 1)], &mut rng).is_some());
        assert_eq!(s.locked_to(), Some(0));
        // Owner stalls on credits: unlock, competitor with credits wins.
        let cands = vec![cand(0, 0, 1, 4, 0), cand(1, 1, 0, 2, 3)];
        let w = s.pick(&cands, &mut rng).unwrap();
        assert_eq!(cands[w].input_key, 1);
        assert_eq!(s.locked_to(), Some(1));
        // The first packet's body still cannot interleave into the lock.
        assert_eq!(s.pick(&[cand(0, 0, 1, 4, 5)], &mut rng), None);
        // New owner finishes (tail): unlock; old packet resumes.
        s.pick(&[cand(1, 1, 1, 2, 3), cand(0, 0, 1, 4, 5)], &mut rng)
            .unwrap();
        assert_eq!(s.locked_to(), None);
        let cands = vec![cand(0, 0, 1, 4, 5)];
        assert!(s.pick(&cands, &mut rng).is_some());
    }

    #[test]
    fn single_flit_packets_behave_identically_across_techniques() {
        // With single-flit messages the three techniques act the same —
        // the explanation the paper gives for Figure 11's convergence.
        for fc in [
            FlowControl::FlitBuffer,
            FlowControl::PacketBuffer,
            FlowControl::WinnerTakeAll,
        ] {
            let mut s = OutputScheduler::new(fc, 1, "round_robin").unwrap();
            let mut rng = rng();
            let mut winners = vec![];
            for _ in 0..4 {
                let cands = vec![cand(0, 0, 0, 1, 1), cand(1, 0, 0, 1, 1)];
                // Both candidates are single-flit heads on the same VC; the
                // VC is free each cycle because tails release instantly.
                let w = s.pick(&cands, &mut rng).unwrap();
                winners.push(cands[w].input_key);
                assert_eq!(s.locked_to(), None);
                assert_eq!(s.vc_owner(0), None);
            }
            assert_eq!(winners, vec![0, 1, 0, 1], "{fc:?}");
        }
    }
}
