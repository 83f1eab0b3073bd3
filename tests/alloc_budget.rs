//! Heap allocations per simulated event stay within a budget on four
//! shipped configurations, so that an allocation put back on a per-event
//! path (a coordinate `Vec` built per routed head flit, say) fails here and
//! not only in the benchmark's per-layer rows.
//!
//! The same runs hold a heap budget: the high-water mark of live heap
//! bytes during the run, per sample record logged, stays under a ceiling
//! that a second, decoded copy of the sample log (32 bytes per record)
//! would break, and so would statistics stored above their size: a
//! histogram inlined in every metrics sample, or sampling windows kept
//! in lists grown by doubling. A run with its dumps on stays under a
//! ceiling that rendering them beside the live engine would break.
//!
//! A counting global allocator counts every allocation made while
//! `SuperSim::run_report` runs, and tracks the live bytes and their
//! high-water mark; configuration parsing and the network build are
//! outside the count. The file holds a single `#[test]` so that
//! no parallel test adds to the count. The engine is pinned to the
//! sequential kind because CI's sharded job exports `SUPERSIM_ENGINE`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use supersim::config::{apply_override, expand_file};
use supersim::core::SuperSim;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated, and their high-water mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed
// counter updates that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations are
        // passed on as they are.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one sequential `run_report` of `configs/<name>`, with
/// `overrides` applied, cost the heap.
struct HeapUse {
    allocs_per_event: f64,
    /// High-water live bytes above those live when the run began, per
    /// sample record the run logged.
    peak_bytes_per_record: f64,
}

fn heap_use(name: &str, overrides: &[&str]) -> HeapUse {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    let mut cfg = expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for o in overrides.iter().chain(&["engine.kind=string=sequential"]) {
        apply_override(&mut cfg, o).unwrap_or_else(|e| panic!("{o}: {e}"));
    }
    let sim = SuperSim::from_config(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let report = sim.run_report();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - live;
    assert!(report.is_ok(), "{name}: {:?}", report.error);
    let events = report.output.engine.events_executed;
    assert!(events > 0, "{name}: no events");
    let records = report.output.log.len();
    assert!(records > 0, "{name}: no sample records");
    HeapUse {
        allocs_per_event: allocations as f64 / events as f64,
        peak_bytes_per_record: peak as f64 / records as f64,
    }
}

#[test]
fn shipped_configs_stay_within_their_allocation_budget() {
    // Allocation ceilings, with the measurement before routing stopped
    // allocating: clos_adaptive made 2.42 allocations per event and
    // quickstart 0.32. torus_3d_dor makes 0.025 and latent_congestion 0.20.
    //
    // Peak ceilings: the run's high-water heap over its logged records.
    // With snapshot samples three words each (the histogram boxed) and
    // closed sampling windows at exact size, clos_adaptive peaks at 23.9
    // bytes per record, quickstart at 43.8, torus_3d_dor at 73.7 and
    // latent_congestion (windowed sampling on) at 115.0. With every sample
    // holding a 536-byte histogram inline and each window's distributions
    // in a list grown by doubling they peaked at 31.7, 90.1, 122.7 and
    // 194.0. Each ceiling sits between the two.
    //
    // clos_adaptive with its span, flit-trace and time-series dumps on
    // peaks at 348 bytes per record (0.33 allocations per event) when the
    // engine is dropped before any dump is rendered, and at 449 when the
    // span text was rendered beside the live engine.
    let dumps: &[&str] = &[
        "spans.enabled=bool=true",
        "observability.trace.enabled=bool=true",
        "sample.interval=uint=100",
    ];
    for (name, overrides, alloc_ceiling, peak_ceiling) in [
        ("clos_adaptive.json", &[][..], 0.5, 28.0),
        ("quickstart.json", &[], 0.25, 60.0),
        ("torus_3d_dor.json", &[], 0.1, 90.0),
        ("latent_congestion.json", &[], 0.3, 140.0),
        ("clos_adaptive.json", dumps, 0.5, 400.0),
    ] {
        let heap = heap_use(name, overrides);
        println!(
            "{name} {overrides:?}: {:.3} allocations per event, {:.1} peak bytes per record",
            heap.allocs_per_event, heap.peak_bytes_per_record
        );
        assert!(
            heap.allocs_per_event <= alloc_ceiling,
            "{name}: {:.3} allocations per event, budget {alloc_ceiling}",
            heap.allocs_per_event
        );
        assert!(
            heap.peak_bytes_per_record <= peak_ceiling,
            "{name}: {:.1} peak heap bytes per sample record, budget {peak_ceiling}",
            heap.peak_bytes_per_record
        );
    }
}
