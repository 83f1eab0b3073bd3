//! Wiring and `min_hops` properties over every provided topology.
//!
//! Ports the old (never compiled) proptest suite as exhaustive loops over
//! the shapes its strategies drew from: torus 1–3 dimensions of width 2–4
//! with concentration 1–3, HyperX 1–2 dimensions of width 2–4 with
//! concentration 1–3, folded Clos of 1–3 levels with k 2–4, and dragonfly
//! a 2–4 × h 1–2 × p 1–2. Every shape in those ranges is checked, so a
//! failure names its shape directly.

mod common;

use common::all_widths;
use supersim_netbase::{RouterId, TerminalId};
use supersim_topology::{Dragonfly, FoldedClos, HyperX, Topology, Torus};

/// Every port is a terminal port or a network port (never both); network
/// links are symmetric and never self-loops; every terminal attaches
/// exactly once, where `terminal_attachment` says it does.
fn check_wiring(t: &dyn Topology, shape: &str) {
    let mut terminal_seen = vec![false; t.num_terminals() as usize];
    for r in 0..t.num_routers() {
        let router = RouterId(r);
        for p in 0..t.radix(router) {
            let term = t.terminal_at(router, p);
            let net = t.neighbor(router, p);
            assert!(
                term.is_none() || net.is_none(),
                "{shape}: r{r} p{p} is both a terminal and a network port"
            );
            if let Some(term) = term {
                assert!(
                    !std::mem::replace(&mut terminal_seen[term.index()], true),
                    "{shape}: terminal {term} attached twice"
                );
                assert_eq!(t.terminal_attachment(term), (router, p), "{shape}");
            }
            if let Some((nr, np)) = net {
                assert_eq!(
                    t.neighbor(nr, np),
                    Some((router, p)),
                    "{shape}: r{r} p{p}: neighbor not symmetric"
                );
                assert_ne!((nr, np), (router, p), "{shape}: self-loop at r{r} p{p}");
            }
        }
    }
    assert!(
        terminal_seen.iter().all(|&s| s),
        "{shape}: some terminal never attached"
    );
}

/// Router-to-router hop distances over the wired graph, one BFS per
/// router.
fn graph_distances(t: &dyn Topology) -> Vec<Vec<u32>> {
    let n = t.num_routers() as usize;
    (0..n)
        .map(|src| {
            let mut dist = vec![u32::MAX; n];
            dist[src] = 0;
            let mut frontier = std::collections::VecDeque::from([src]);
            while let Some(r) = frontier.pop_front() {
                for p in 0..t.radix(RouterId(r as u32)) {
                    if let Some((nr, _)) = t.neighbor(RouterId(r as u32), p) {
                        if dist[nr.index()] == u32::MAX {
                            dist[nr.index()] = dist[r] + 1;
                            frontier.push_back(nr.index());
                        }
                    }
                }
            }
            dist
        })
        .collect()
}

/// How `min_hops` relates to the graph distance `d` between two routers.
#[derive(Clone, Copy)]
enum MinHops {
    /// `min_hops == d`: a metric, so the triangle inequality holds.
    Distance,
    /// `d <= min_hops <= d + 1`: the dragonfly's minimal routing takes at
    /// most one global channel, where the graph may offer a shorter
    /// two-global detour through a third group.
    MinimalRoute,
}

/// `min_hops` is symmetric, zero iff both terminals share a router, and
/// related to the graph distance as `kind` says — over every terminal
/// pair. Where it is a distance, the triangle inequality through a third
/// terminal is also checked on an evenly strided sample of about
/// `samples` terminals per axis.
fn check_min_hops(t: &dyn Topology, shape: &str, kind: MinHops, samples: u32) {
    let dist = graph_distances(t);
    let n = t.num_terminals();
    let router = |x: u32| t.terminal_attachment(TerminalId(x)).0.index();
    for a in 0..n {
        for b in 0..n {
            let ab = t.min_hops(TerminalId(a), TerminalId(b));
            let ba = t.min_hops(TerminalId(b), TerminalId(a));
            assert_eq!(ab, ba, "{shape}: asymmetric min_hops {a}<->{b}");
            assert_eq!(ab == 0, router(a) == router(b), "{shape}: {a}->{b} is {ab}");
            let d = dist[router(a)][router(b)];
            match kind {
                MinHops::Distance => assert_eq!(ab, d, "{shape}: {a}->{b}"),
                MinHops::MinimalRoute => {
                    assert!(
                        d <= ab && ab <= d + 1,
                        "{shape}: {a}->{b} is {ab}, graph {d}"
                    )
                }
            }
        }
    }
    if matches!(kind, MinHops::MinimalRoute) {
        return;
    }
    let step = (n / samples).max(1) as usize;
    for a in (0..n).step_by(step) {
        for b in (0..n).step_by(step) {
            let ab = t.min_hops(TerminalId(a), TerminalId(b));
            for c in (0..n).step_by(step) {
                let ac = t.min_hops(TerminalId(a), TerminalId(c));
                let cb = t.min_hops(TerminalId(c), TerminalId(b));
                assert!(ab <= ac + cb, "{shape}: triangle violated {a}->{c}->{b}");
            }
        }
    }
}

fn check(t: &dyn Topology, shape: String, kind: MinHops) {
    check_wiring(t, &shape);
    check_min_hops(t, &shape, kind, 12);
}

#[test]
fn torus_wiring_and_min_hops() {
    let shapes = all_widths(3);
    assert_eq!(shapes.len(), 3 + 9 + 27);
    for dims in shapes {
        for conc in 1..=3 {
            let t = Torus::new(dims.clone(), conc).expect("valid torus");
            check(&t, format!("torus {dims:?} conc {conc}"), MinHops::Distance);
        }
    }
}

#[test]
fn hyperx_wiring_and_min_hops() {
    for dims in all_widths(2) {
        for conc in 1..=3 {
            let t = HyperX::new(dims.clone(), conc).expect("valid hyperx");
            check(
                &t,
                format!("hyperx {dims:?} conc {conc}"),
                MinHops::Distance,
            );
        }
    }
}

#[test]
fn clos_wiring_and_min_hops() {
    for levels in 1..=3 {
        for k in 2..=4 {
            let t = FoldedClos::new(levels, k).expect("valid clos");
            check(&t, format!("clos levels {levels} k {k}"), MinHops::Distance);
        }
    }
}

#[test]
fn dragonfly_wiring_and_min_hops() {
    for a in 2..=4 {
        for h in 1..=2 {
            for p in 1..=2 {
                let t = Dragonfly::new(a, h, p).expect("valid dragonfly");
                check(
                    &t,
                    format!("dragonfly a {a} h {h} p {p}"),
                    MinHops::MinimalRoute,
                );
            }
        }
    }
}

#[test]
fn dragonfly_min_hops_is_not_a_metric() {
    // Terminals 3, 9 and 27 sit in groups 0, 1 and 4 of a 7-group
    // dragonfly. Minimal routing from 3 to 9 is local + global + local;
    // 3 -> 27 and 27 -> 9 are one global hop each, a two-hop detour.
    let t = Dragonfly::new(3, 2, 2).expect("valid dragonfly");
    let hops = |a: u32, b: u32| t.min_hops(TerminalId(a), TerminalId(b));
    assert_eq!((hops(3, 9), hops(3, 27), hops(27, 9)), (3, 1, 1));
}
