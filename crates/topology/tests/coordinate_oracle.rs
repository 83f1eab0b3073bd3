//! The topology coordinate helpers against the digit-`Vec` definitions
//! they replaced.
//!
//! Routing reads coordinates as integer arithmetic (`router / k^level`, a
//! borrowed iterator of mixed-radix digits). The reference definitions
//! below decode every id into an owned digit vector and compare digits one
//! position at a time, as the code did before; each helper is checked
//! against its reference over every router, port and destination of the
//! shapes `wiring_properties.rs` enumerates, plus the k=16 two-level Clos
//! of the `clos256_planes` benchmark workload. The last test checks that
//! the adaptive up/down engine's reused tie list picks the same port and
//! leaves the random stream where a fresh list per call left it.

use std::sync::Arc;

mod common;

use common::{all_widths, clos_shapes, head, TableView};
use supersim_des::Rng;
use supersim_netbase::{Port, RouterId, TerminalId};
use supersim_topology::{
    CongestionView, FoldedClos, HyperX, RoutingAlgorithm, RoutingContext, Topology, Torus,
    UpDownMode, UpDownRouting,
};

/// Reference: `index` as mixed-radix digits, least significant first.
fn digits(mut index: u32, widths: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(widths.len());
    for &w in widths {
        out.push(index % w);
        index /= w;
    }
    out
}

/// Reference: the inverse of [`digits`].
fn undigits(digits: &[u32], widths: &[u32]) -> u32 {
    digits
        .iter()
        .zip(widths)
        .rev()
        .fold(0, |index, (&d, &w)| index * w + d)
}

/// Reference Clos digits: `(level, router digits)` and terminal digits.
struct ClosDigits<'a>(&'a FoldedClos);

impl ClosDigits<'_> {
    fn router(&self, router: RouterId) -> (u32, Vec<u32>) {
        let c = self.0;
        let widths = vec![c.k(); c.levels() as usize - 1];
        let level = router.0 / c.routers_per_level();
        (level, digits(router.0 % c.routers_per_level(), &widths))
    }

    fn router_id(&self, level: u32, router_digits: &[u32]) -> RouterId {
        let c = self.0;
        let widths = vec![c.k(); c.levels() as usize - 1];
        RouterId(level * c.routers_per_level() + undigits(router_digits, &widths))
    }

    fn terminal(&self, terminal: TerminalId) -> Vec<u32> {
        digits(terminal.0, &vec![self.0.k(); self.0.levels() as usize])
    }

    fn subtree_contains(&self, router: RouterId, dst: TerminalId) -> bool {
        let (level, rd) = self.router(router);
        let dd = self.terminal(dst);
        (level as usize..self.0.levels() as usize - 1).all(|i| rd[i] == dd[i + 1])
    }

    fn down_port_toward(&self, level: u32, dst: TerminalId) -> Port {
        self.terminal(dst)[level as usize]
    }

    fn ancestor_level(&self, src: TerminalId, dst: TerminalId) -> u32 {
        let sd = self.terminal(src);
        let dd = self.terminal(dst);
        (1..self.0.levels() as usize)
            .rev()
            .find(|&i| sd[i] != dd[i])
            .map_or(0, |i| i as u32)
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Option<(RouterId, Port)> {
        let c = self.0;
        let k = c.k();
        let (level, rd) = self.router(router);
        if port >= c.radix(router) {
            return None;
        }
        let mut next = rd.clone();
        if c.is_up_port(level, port) {
            let old = std::mem::replace(&mut next[level as usize], port - k);
            Some((self.router_id(level + 1, &next), old))
        } else if level > 0 {
            let old = std::mem::replace(&mut next[level as usize - 1], port);
            Some((self.router_id(level - 1, &next), k + old))
        } else {
            None
        }
    }
}

#[test]
fn clos_arithmetic_matches_digit_vectors() {
    for (levels, k) in clos_shapes() {
        let c = FoldedClos::new(levels, k).expect("valid clos");
        let shape = format!("clos levels {} k {}", c.levels(), c.k());
        let old = ClosDigits(&c);
        for r in (0..c.num_routers()).map(RouterId) {
            let (level, rd) = old.router(r);
            assert_eq!(c.router_level(r), level, "{shape}: level of {r}");
            assert_eq!(c.router_id(level, &rd), r, "{shape}: id of {r}");
            for dst in (0..c.num_terminals()).map(TerminalId) {
                assert_eq!(
                    c.subtree_contains(r, dst),
                    old.subtree_contains(r, dst),
                    "{shape}: subtree of {r} contains {dst}"
                );
            }
            for p in 0..c.radix(r) {
                assert_eq!(c.neighbor(r, p), old.neighbor(r, p), "{shape}: {r} p{p}");
            }
        }
        for src in (0..c.num_terminals()).map(TerminalId) {
            for level in 0..c.levels() {
                assert_eq!(
                    c.down_port_toward(level, src),
                    old.down_port_toward(level, src),
                    "{shape}: down port at level {level} toward {src}"
                );
            }
            for dst in (0..c.num_terminals()).map(TerminalId) {
                assert_eq!(
                    c.ancestor_level(src, dst),
                    old.ancestor_level(src, dst),
                    "{shape}: ancestor of {src} and {dst}"
                );
            }
        }
    }
}

/// Reference neighbor: decode, replace one digit, encode.
fn replaced(router: RouterId, widths: &[u32], dim: usize, to: u32) -> (RouterId, u32) {
    let mut coords = digits(router.0, widths);
    let old = std::mem::replace(&mut coords[dim], to);
    (RouterId(undigits(&coords, widths)), old)
}

#[test]
fn torus_coordinates_match_digit_vectors() {
    for widths in all_widths(3) {
        for conc in 1..=3 {
            let t = Torus::new(widths.clone(), conc).expect("valid torus");
            let shape = format!("torus {widths:?} conc {conc}");
            for r in (0..t.num_routers()).map(RouterId) {
                let coords = digits(r.0, &widths);
                assert!(
                    t.router_coords(r).eq(coords.iter().copied()),
                    "{shape}: {r}"
                );
                assert_eq!(t.router_at(&coords), r, "{shape}: {r}");
                for p in 0..t.radix(r) {
                    let expected = t.port_direction(p).map(|(dim, plus)| {
                        let w = widths[dim];
                        let to = (coords[dim] + if plus { 1 } else { w - 1 }) % w;
                        (replaced(r, &widths, dim, to).0, t.port_toward(dim, !plus))
                    });
                    assert_eq!(t.neighbor(r, p), expected, "{shape}: {r} p{p}");
                }
            }
        }
    }
}

#[test]
fn hyperx_coordinates_match_digit_vectors() {
    for widths in all_widths(2) {
        for conc in 1..=3 {
            let h = HyperX::new(widths.clone(), conc).expect("valid hyperx");
            let shape = format!("hyperx {widths:?} conc {conc}");
            // Port blocks: dimension `d` owns `widths[d] - 1` ports.
            let base = |dim: usize| conc + widths[..dim].iter().map(|w| w - 1).sum::<u32>();
            for r in (0..h.num_routers()).map(RouterId) {
                let coords = digits(r.0, &widths);
                assert!(
                    h.router_coords(r).eq(coords.iter().copied()),
                    "{shape}: {r}"
                );
                assert_eq!(h.router_at(&coords), r, "{shape}: {r}");
                for (dim, &own) in coords.iter().enumerate() {
                    for to in (0..widths[dim]).filter(|&to| to != own) {
                        let port = base(dim) + if to < own { to } else { to - 1 };
                        assert_eq!(h.port_toward(r, dim, to), port, "{shape}: {r} d{dim}");
                        assert_eq!(h.port_target(r, port), Some((dim, to)), "{shape}");
                        let (other, _) = replaced(r, &widths, dim, to);
                        let back = base(dim) + if own < to { own } else { own - 1 };
                        assert_eq!(h.neighbor(r, port), Some((other, back)), "{shape}");
                    }
                }
            }
        }
    }
}

/// Reference adaptive up-port choice: a fresh tie list per call, one
/// `gen_range` draw over it.
fn fresh_list_pick(view: &TableView, base: Port, k: u32, rng: &mut Rng) -> Port {
    let mut best = Vec::with_capacity(4);
    let mut best_c = f64::INFINITY;
    for u in 0..k {
        let c = view.port_congestion(base + u);
        if c < best_c {
            best_c = c;
            best.clear();
            best.push(base + u);
        } else if c == best_c {
            best.push(base + u);
        }
    }
    best[rng.gen_range(0..best.len())]
}

#[test]
fn reused_tie_list_matches_a_fresh_list_per_call() {
    for (levels, k) in [(2, 4), (2, 16), (3, 3)] {
        let t = Arc::new(FoldedClos::new(levels, k).expect("valid clos"));
        let mut algo = UpDownRouting::new(Arc::clone(&t), UpDownMode::Adaptive, 2);
        // Terminal 0's leaf cannot reach the last terminal without climbing.
        let (leaf, _) = t.terminal_attachment(TerminalId(0));
        let dst = TerminalId(t.num_terminals() - 1);
        let mut flit = head(1, dst.0);
        let mut draw = Rng::new(u64::from(k));
        let mut rng = Rng::new(99);
        let mut ties_seen = 0;
        for _ in 0..500 {
            // Congestion from three levels forces ties of every width,
            // including all ports equal.
            let levels_used = 1 + draw.gen_range(0..3u32);
            let view = TableView(
                (0..t.radix(leaf))
                    .map(|_| f64::from(draw.gen_range(0..levels_used)) / 4.0)
                    .collect(),
            );
            let mut reference = rng.clone();
            let expected = fresh_list_pick(&view, t.up_port_base(), k, &mut reference);
            let mut ctx = RoutingContext {
                router: leaf,
                input_port: 0,
                input_vc: 0,
                congestion: &view,
                rng: &mut rng,
            };
            let choice = algo.route(&mut ctx, &mut flit);
            assert_eq!(choice.port, expected, "clos levels {levels} k {k}");
            assert_eq!(rng.clone().gen_u64(), reference.gen_u64(), "rng stream");
            let minimum = (0..k)
                .map(|u| view.port_congestion(t.up_port_base() + u))
                .fold(f64::INFINITY, f64::min);
            let tied = (0..k)
                .filter(|&u| view.port_congestion(t.up_port_base() + u) == minimum)
                .count();
            ties_seen += usize::from(tied > 1);
        }
        assert!(ties_seen > 100, "too few forced ties: {ties_seen}");
    }
}
