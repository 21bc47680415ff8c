//! The allocation contract of the statement engine: an aligned
//! whole-array assignment allocates O(1) bytes — its tile stack —
//! however many elements it computes, and a scalar or element statement
//! allocates nothing per execution.
//!
//! Pinned with a counting global allocator, in the style of
//! `crates/runtime/tests/alloc_free.rs`: ONE `#[test]` (the counter is
//! process-global), and only the test thread's allocations are counted.
//! A statement cannot be executed on its own, so the pin is a
//! difference: the same routine with and without the statement, at two
//! extents, each warmed by one statement-free execution first. The per-point evaluator this engine replaced allocated a
//! dense `values` vector plus one point per element — 8 n bytes and n
//! allocations more. The statement path is pinned the same way: a `DO`
//! loop of element and scalar statements allocates the same bytes at
//! two trip counts. The tree walker it replaced allocated one point per
//! element reference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hpfc::{CompileOptions, ExecConfig};

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

/// Bytes `hpfc::execute` requests for a routine over two aligned
/// arrays of `n` elements: two fills, then `statement`.
fn execute_bytes(n: u64, statement: &str) -> u64 {
    let src = format!(
        "subroutine s(k)\ninteger :: k\nreal :: a({n}), b({n})\n!hpf$ processors p(4)\n\
         !hpf$ distribute a(block) onto p\n!hpf$ align with a :: b\n\
         a = 1.5\nb = k\n{statement}\nend"
    );
    let compiled = hpfc::compile(&src, &CompileOptions::default()).expect("compiles");
    let programs = compiled.programs();
    let config = ExecConfig::default().with_scalar("k", 3.0);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let result = hpfc::execute(&programs, "s", config);
    COUNTED.with(|c| c.set(false));
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let result = result.expect("executes");
    if !statement.is_empty() {
        assert!(result.arrays["a"].iter().all(|&v| v == 1.5 + 3.0 * 2.0 - 0.5), "wrong values");
    }
    bytes
}

/// Bytes `hpfc::execute` requests for a loop of `nt - 1` trips over
/// element and scalar statements (the ADI sweep's inner statement).
fn loop_bytes(nt: u64) -> u64 {
    let src = "subroutine s(nt)\ninteger :: nt\nreal :: u(8, 64)\n!hpf$ processors p(4)\n\
               !hpf$ distribute u(*, block) onto p\nu = 1.0\ns = 0.0\ndo j = 2, nt\n\
               u(1, j) = u(1, j) + u(1, j - 1)\ns = s + u(1, j)\nenddo\nend";
    let compiled = hpfc::compile(src, &CompileOptions::default()).expect("compiles");
    let programs = compiled.programs();
    let config = ExecConfig::default().with_scalar("nt", nt as f64);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let result = hpfc::execute(&programs, "s", config);
    COUNTED.with(|c| c.set(false));
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let result = result.expect("executes");
    let sum: f64 = (2..=nt).map(|j| j as f64).sum();
    assert_eq!(result.scalars["s"], sum, "wrong values");
    bytes
}

#[test]
fn an_aligned_whole_array_statement_allocates_o1_bytes() {
    let statement = "a = a + b * 2.0 - abs(0.5)";
    // The first execution at an extent compiles that extent's artifacts
    // into the process-wide registry (result extraction among them), and
    // the registry's growth would land on one side of the difference: a
    // statement-free execution warms each extent before the measured pair.
    let cost = |n: u64| {
        execute_bytes(n, "");
        execute_bytes(n, statement) - execute_bytes(n, "")
    };
    cost(16); // one-time initialisation (the process-wide registry, thread-locals)
    let (small, large) = (cost(1 << 12), cost(1 << 20));
    assert!(large < 64 * 1024, "one statement over 2^20 elements allocated {large} B");
    assert_eq!(small, large, "the statement's allocations depend on the extent");

    // The statement path: 2 and 62 trips (plus the untimed warm-up that
    // compiles the extent's extraction artifact) request the same bytes.
    loop_bytes(2);
    let (few, many) = (loop_bytes(3), loop_bytes(63));
    assert_eq!(few, many, "element and scalar statements allocate per execution");
}
