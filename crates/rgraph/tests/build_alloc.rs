//! The allocation contract of the remapping-graph builder: a node's
//! dataflow fact shares every slot it does not change with its
//! neighbour's, so building `G_R` allocates in proportion to what the
//! routine's directives change, not nodes × arrays × passes.
//!
//! Pinned with a counting global allocator, in the style of
//! `crates/interp/tests/kernel_alloc.rs`: ONE `#[test]` (the counter is
//! process-global), and only the test thread's allocations are counted.
//! The builder this one replaced deep-cloned a per-array map of sets
//! three times per node visit: 44.7 MiB on the 128 × 16 shape, where the
//! shared-slot lattice allocates 10.8 MiB.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{synth, Lcg};
use hpfc_cfg::graph::build_cfg;
use hpfc_lang::frontend;
use hpfc_rgraph::build::build_from_cfg;

/// `System`, with every byte requested on the opted-in thread counted
/// (a `realloc` counts its whole new size).
struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    // `try_with`: TLS may be unavailable during thread teardown.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `build_from_cfg` requests for the benchmark's compile-bound
/// shape with `n_remaps` redistributions of 16 aligned arrays.
fn build_bytes(n_remaps: u64) -> u64 {
    let src = synth(n_remaps, 16, &mut Lcg(7));
    let module = frontend(&src).expect("front end accepts");
    let unit = module.main();
    let cfg = build_cfg(unit).expect("cfg builds");
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let rg = build_from_cfg(unit, cfg);
    COUNTED.with(|c| c.set(false));
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let rg = rg.expect("graph builds");
    assert_eq!(
        rg.vertices.len() as u64,
        n_remaps + 3,
        "v_c, v_0, the redistributes, v_e"
    );
    bytes
}

#[test]
fn building_the_graph_allocates_in_proportion_to_the_routine() {
    let (small, large) = (build_bytes(128), build_bytes(256));
    assert!(small < 16 << 20, "128 x 16 allocated {small} B");
    assert!(
        large * 10 < small * 23,
        "256 x 16 allocated {large} B, 128 x 16 {small} B"
    );
}
