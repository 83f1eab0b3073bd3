//! `RoutingAlgorithm::route` never allocates.
//!
//! Every routing engine on every topology walks a seeded head flit from
//! every router with a terminal to every destination terminal, under congestion views with
//! all-equal ports, a two-way tie and a unique minimum. A counting global
//! allocator measures the heap allocations made inside `route` calls only;
//! topologies, engines, views and flits are all built before the first
//! call is counted. The count is kept per thread, and the file holds a
//! single `#[test]` so that no parallel test shares the binary's heap
//! traffic with it.
//!
//! The shapes are those `wiring_properties.rs` enumerates, plus the k=16
//! two-level folded Clos of the `clos256_planes` benchmark workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

mod common;

use common::{all_widths, clos_shapes, head, TableView};
use supersim_des::Rng;
use supersim_netbase::{Flit, RouterId};
use supersim_topology::{
    AdaptiveTorusRouting, DimOrderRouting, Dragonfly, DragonflyMode, DragonflyRouting, FoldedClos,
    HyperX, HyperXMode, HyperXRouting, RoutingAlgorithm, RoutingContext, Topology, Torus,
    UpDownMode, UpDownRouting,
};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an increment of
// a const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System`; the caller's obligations are
        // passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// All ports equal; the two highest ports tied below the rest (up ports on
/// the Clos, global ports on the dragonfly); a unique minimum.
fn views(radix: u32) -> [TableView; 3] {
    let equal = vec![0.5; radix as usize];
    let tie = (0..radix)
        .map(|p| if p + 2 >= radix { 0.1 } else { 0.6 })
        .collect();
    let unique = (0..radix)
        .map(|p| f64::from((p * 37 + 11) % 101) / 101.0)
        .collect();
    [TableView(equal), TableView(tie), TableView(unique)]
}

/// What the walks of one engine on one shape observed.
#[derive(Default)]
struct Tally {
    /// Heap allocations made inside `route`.
    allocations: u64,
    /// `route` calls made.
    routes: u64,
    /// Packets that took a Valiant intermediate router.
    detours: u64,
}

/// Walks a head flit from the first terminal of every router that has one
/// to every destination under every view, counting allocations inside `route`
/// only: `neighbor` and the tally run outside the counted windows.
fn walk_all(t: &dyn Topology, algo: &mut dyn RoutingAlgorithm, seed: u64) -> Tally {
    let radix = (0..t.num_routers())
        .map(|r| t.radix(RouterId(r)))
        .max()
        .expect("at least one router");
    let views = views(radix);
    // One flit per destination, each its own packet.
    let mut flits: Vec<Flit> = (0..t.num_terminals()).map(|d| head(d.into(), d)).collect();
    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    for view in &views {
        // Clos routers above the leaves have no terminal: walks cross them.
        let sources = (0..t.num_routers()).filter_map(|r| t.terminal_at(RouterId(r), 0));
        for src in sources {
            for flit in &mut flits {
                flit.inter = None;
                flit.vc = 0;
                flit.hops = 0;
                let (mut router, mut input_port) = t.terminal_attachment(src);
                let mut detoured = false;
                for hop in 0.. {
                    assert!(hop < 64, "{}: packet lost", algo.name());
                    let mut ctx = RoutingContext {
                        router,
                        input_port,
                        input_vc: flit.vc,
                        congestion: view,
                        rng: &mut rng,
                    };
                    let before = allocations();
                    let choice = algo.route(&mut ctx, flit);
                    tally.allocations += allocations() - before;
                    tally.routes += 1;
                    detoured |= flit.inter.is_some();
                    if let Some(term) = t.terminal_at(router, choice.port) {
                        assert_eq!(term, flit.pkt.dst, "{}: wrong terminal", algo.name());
                        break;
                    }
                    (router, input_port) = t.neighbor(router, choice.port).expect("wired port");
                    flit.vc = choice.vc;
                    flit.hops += 1;
                }
                tally.detours += u64::from(detoured);
            }
        }
    }
    tally
}

#[test]
fn route_never_allocates() {
    // (engine name, shape, tally) for every walk set.
    let mut results: Vec<(String, String, Tally)> = Vec::new();
    let mut run = |shape: String, t: &dyn Topology, algo: &mut dyn RoutingAlgorithm| {
        let tally = walk_all(t, algo, 17);
        results.push((algo.name().to_string(), shape, tally));
    };

    for widths in all_widths(3) {
        for conc in 1..=3 {
            let t = Arc::new(Torus::new(widths.clone(), conc).expect("valid torus"));
            let shape = format!("torus {widths:?} conc {conc}");
            run(
                shape.clone(),
                &*t,
                &mut DimOrderRouting::new(Arc::clone(&t), 4),
            );
            run(
                shape,
                &*t,
                &mut AdaptiveTorusRouting::new(Arc::clone(&t), 4),
            );
        }
    }
    for widths in all_widths(2) {
        for conc in 1..=3 {
            let t = Arc::new(HyperX::new(widths.clone(), conc).expect("valid hyperx"));
            // A two-phase packet needs an intermediate router other than its
            // source and destination, so those modes need three routers.
            let two_phase: &[HyperXMode] = if t.num_routers() > 2 {
                &[HyperXMode::Valiant, HyperXMode::Ugal { threshold: 0.0 }]
            } else {
                &[]
            };
            for &mode in [HyperXMode::Minimal].iter().chain(two_phase) {
                let mut algo = HyperXRouting::new(Arc::clone(&t), mode, 4);
                run(format!("hyperx {widths:?} conc {conc}"), &*t, &mut algo);
            }
        }
    }
    for a in 2..=4 {
        for h in 1..=2 {
            for p in 1..=2 {
                let t = Arc::new(Dragonfly::new(a, h, p).expect("valid dragonfly"));
                for mode in [
                    DragonflyMode::Minimal,
                    DragonflyMode::Ugal { threshold: 0.0 },
                ] {
                    let mut algo = DragonflyRouting::new(Arc::clone(&t), mode, 6);
                    run(format!("dragonfly a {a} h {h} p {p}"), &*t, &mut algo);
                }
            }
        }
    }
    for (levels, k) in clos_shapes() {
        let t = Arc::new(FoldedClos::new(levels, k).expect("valid clos"));
        for mode in [UpDownMode::Adaptive, UpDownMode::Deterministic] {
            let mut algo = UpDownRouting::new(Arc::clone(&t), mode, 2);
            run(format!("clos levels {levels} k {k}"), &*t, &mut algo);
        }
    }

    let allocating: Vec<String> = results
        .iter()
        .filter(|(_, _, tally)| tally.allocations > 0)
        .map(|(name, shape, tally)| {
            format!(
                "{name} on {shape}: {} allocations in {} routes",
                tally.allocations, tally.routes
            )
        })
        .collect();
    assert!(
        allocating.is_empty(),
        "route allocated:\n{}",
        allocating.join("\n")
    );

    // The walks reached every engine, and the two-phase modes took their
    // Valiant branch, so the zero above covers it.
    let engines: std::collections::BTreeSet<&str> =
        results.iter().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(engines.len(), 9, "{engines:?}");
    for two_phase in ["hyperx_valiant", "ugal", "dragonfly_ugal"] {
        let detours: u64 = results
            .iter()
            .filter(|(name, _, _)| name == two_phase)
            .map(|(_, _, tally)| tally.detours)
            .sum();
        assert!(detours > 0, "{two_phase} never took a Valiant path");
    }
}
