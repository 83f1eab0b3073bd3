//! Heap allocations per simulated event stay within a budget on two
//! shipped configurations, so that an allocation put back on a per-event
//! path (a coordinate `Vec` built per routed head flit, say) fails here and
//! not only in the benchmark's per-layer rows.
//!
//! A counting global allocator counts every allocation made while
//! `SuperSim::run_report` runs; configuration parsing and the network
//! build are outside the count. The file holds a single `#[test]` so that
//! no parallel test adds to the count. The engine is pinned to the
//! sequential kind because CI's sharded job exports `SUPERSIM_ENGINE`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use supersim::config::{apply_override, expand_file};
use supersim::core::SuperSim;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations are
        // passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per executed event over one sequential `run_report` of
/// `configs/<name>`.
fn allocs_per_event(name: &str) -> f64 {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    let mut cfg = expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    apply_override(&mut cfg, "engine.kind=string=sequential").expect("engine override");
    let sim = SuperSim::from_config(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run_report();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.is_ok(), "{name}: {:?}", report.error);
    let events = report.output.engine.events_executed;
    assert!(events > 0, "{name}: no events");
    allocations as f64 / events as f64
}

#[test]
fn shipped_configs_stay_within_their_allocation_budget() {
    // Ceilings, with the measurement before routing stopped allocating:
    // clos_adaptive made 2.42 allocations per event and quickstart 0.32.
    for (name, ceiling) in [("clos_adaptive.json", 0.5), ("quickstart.json", 0.25)] {
        let per_event = allocs_per_event(name);
        assert!(
            per_event <= ceiling,
            "{name}: {per_event:.3} allocations per event, budget {ceiling}"
        );
    }
}
