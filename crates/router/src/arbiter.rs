//! Arbiters: choose one winner among competing requests.
//!
//! Arbiters are the innermost scheduling primitive of every router
//! microarchitecture. All implement the [`Arbiter`] trait, so schedulers
//! and allocators are policy-agnostic; the paper's parking-lot experiment
//! (round-robin unfairness fixed by age-based arbitration) is a direct
//! comparison of two of these policies.

use supersim_des::wire::Overlay;
use supersim_des::Rng;
use supersim_des::{wire_overlay, wire_struct};

/// One arbitration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requester identity (e.g. a flattened `(port, vc)` index). Must be
    /// unique within one arbitration.
    pub id: u32,
    /// Age metadata: typically the packet's injection tick; *smaller is
    /// older* and wins under age-based arbitration.
    pub age: u64,
}

/// An arbitration policy.
///
/// `grant` returns the index into `requests` of the winner, or `None` when
/// `requests` is empty. Arbiters may carry state between invocations (e.g.
/// a round-robin pointer); that state is the arbiter's [`Overlay`].
pub trait Arbiter: Overlay + Send {
    /// Short policy name (e.g. `"round_robin"`).
    fn name(&self) -> &str;

    /// Chooses a winner among `requests`.
    fn grant(&mut self, requests: &[Request], rng: &mut Rng) -> Option<usize>;
}

/// The policy names [`arbiter_by_name`] accepts.
pub(crate) const ARBITER_POLICIES: [&str; 4] =
    ["round_robin", "age_based", "random", "fixed_priority"];

/// Builds an arbiter by policy name: `"round_robin"`, `"age_based"`,
/// `"random"`, or `"fixed_priority"`.
///
/// Returns `None` for unknown names.
pub fn arbiter_by_name(name: &str) -> Option<Box<dyn Arbiter>> {
    match name {
        "round_robin" => Some(Box::new(RoundRobinArbiter::new())),
        "age_based" => Some(Box::new(AgeBasedArbiter::new())),
        "random" => Some(Box::new(RandomArbiter::new())),
        "fixed_priority" => Some(Box::new(FixedPriorityArbiter::new())),
        _ => None,
    }
}

/// Round-robin arbitration: the winner is the lowest id strictly greater
/// than the previous winner's id, wrapping around.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinArbiter {
    last: Option<u32>,
}

impl RoundRobinArbiter {
    /// Creates a round-robin arbiter with no history.
    pub fn new() -> Self {
        Self::default()
    }
}

wire_struct!(RoundRobinArbiter { last });
wire_overlay!(value RoundRobinArbiter);

impl Arbiter for RoundRobinArbiter {
    fn name(&self) -> &str {
        "round_robin"
    }

    fn grant(&mut self, requests: &[Request], _rng: &mut Rng) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        let pivot = self.last.map_or(0, |l| l.wrapping_add(1));
        // Winner: smallest (id - pivot) mod 2^32 — the next id at or after
        // the pivot in cyclic order.
        let idx = requests
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.id.wrapping_sub(pivot))
            .map(|(i, _)| i)
            .expect("non-empty");
        self.last = Some(requests[idx].id);
        Some(idx)
    }
}

/// Age-based arbitration: the oldest request (smallest `age`) wins; ties
/// break toward the lower id. Known to fix the bandwidth unfairness of
/// round-robin in parking-lot scenarios.
#[derive(Debug, Clone, Default)]
pub struct AgeBasedArbiter;

impl AgeBasedArbiter {
    /// Creates an age-based arbiter.
    pub fn new() -> Self {
        AgeBasedArbiter
    }
}

wire_overlay!(AgeBasedArbiter {});

impl Arbiter for AgeBasedArbiter {
    fn name(&self) -> &str {
        "age_based"
    }

    fn grant(&mut self, requests: &[Request], _rng: &mut Rng) -> Option<usize> {
        requests
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.age, r.id))
            .map(|(i, _)| i)
    }
}

/// Uniformly random arbitration.
#[derive(Debug, Clone, Default)]
pub struct RandomArbiter;

impl RandomArbiter {
    /// Creates a random arbiter.
    pub fn new() -> Self {
        RandomArbiter
    }
}

wire_overlay!(RandomArbiter {});

impl Arbiter for RandomArbiter {
    fn name(&self) -> &str {
        "random"
    }

    fn grant(&mut self, requests: &[Request], rng: &mut Rng) -> Option<usize> {
        if requests.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..requests.len()))
        }
    }
}

/// Fixed-priority arbitration: the lowest id always wins. Starves high
/// ids under load; provided as a baseline.
#[derive(Debug, Clone, Default)]
pub struct FixedPriorityArbiter;

impl FixedPriorityArbiter {
    /// Creates a fixed-priority arbiter.
    pub fn new() -> Self {
        FixedPriorityArbiter
    }
}

wire_overlay!(FixedPriorityArbiter {});

impl Arbiter for FixedPriorityArbiter {
    fn name(&self) -> &str {
        "fixed_priority"
    }

    fn grant(&mut self, requests: &[Request], _rng: &mut Rng) -> Option<usize> {
        requests
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.id)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(99)
    }

    fn reqs(ids: &[u32]) -> Vec<Request> {
        ids.iter().map(|&id| Request { id, age: 0 }).collect()
    }

    #[test]
    fn empty_requests_grant_none() {
        let mut rng = rng();
        for mut a in [
            Box::new(RoundRobinArbiter::new()) as Box<dyn Arbiter>,
            Box::new(AgeBasedArbiter::new()),
            Box::new(RandomArbiter::new()),
            Box::new(FixedPriorityArbiter::new()),
        ] {
            assert_eq!(a.grant(&[], &mut rng), None);
        }
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut a = RoundRobinArbiter::new();
        let mut rng = rng();
        let r = reqs(&[0, 1, 2]);
        let winners: Vec<u32> = (0..6)
            .map(|_| r[a.grant(&r, &mut rng).unwrap()].id)
            .collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_absent_requesters() {
        let mut a = RoundRobinArbiter::new();
        let mut rng = rng();
        let r = reqs(&[0, 1, 2, 3]);
        assert_eq!(r[a.grant(&r, &mut rng).unwrap()].id, 0);
        // Requester 1 drops out; next grant goes to 2.
        let r = reqs(&[0, 2, 3]);
        assert_eq!(r[a.grant(&r, &mut rng).unwrap()].id, 2);
        // Wrap-around.
        let r = reqs(&[0, 3]);
        assert_eq!(r[a.grant(&r, &mut rng).unwrap()].id, 3);
        let r = reqs(&[0, 3]);
        assert_eq!(r[a.grant(&r, &mut rng).unwrap()].id, 0);
    }

    #[test]
    fn age_based_prefers_oldest() {
        let mut a = AgeBasedArbiter::new();
        let mut rng = rng();
        let r = vec![
            Request { id: 0, age: 500 },
            Request { id: 1, age: 100 },
            Request { id: 2, age: 100 },
        ];
        // Oldest age, tie broken to lower id.
        assert_eq!(a.grant(&r, &mut rng), Some(1));
    }

    #[test]
    fn fixed_priority_always_lowest_id() {
        let mut a = FixedPriorityArbiter::new();
        let mut rng = rng();
        let r = reqs(&[5, 2, 9]);
        for _ in 0..3 {
            assert_eq!(r[a.grant(&r, &mut rng).unwrap()].id, 2);
        }
    }

    #[test]
    fn random_covers_all_requesters() {
        let mut a = RandomArbiter::new();
        let mut rng = rng();
        let r = reqs(&[0, 1, 2, 3]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..128 {
            seen.insert(r[a.grant(&r, &mut rng).unwrap()].id);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn factory_by_name() {
        for name in ARBITER_POLICIES {
            assert_eq!(arbiter_by_name(name).unwrap().name(), name);
        }
        assert!(arbiter_by_name("magic").is_none());
    }

    #[test]
    fn round_robin_single_requester() {
        let mut a = RoundRobinArbiter::new();
        let mut rng = rng();
        let r = reqs(&[7]);
        for _ in 0..3 {
            assert_eq!(a.grant(&r, &mut rng), Some(0));
        }
    }
}
