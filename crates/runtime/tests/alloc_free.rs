//! The zero-allocation contract of the steady-state remap path.
//!
//! After the first remap in each direction has populated the plan
//! cache, a remap bounce must perform **no heap allocation at all** in
//! the data-movement path: the cached [`hpfc_runtime::CopyProgram`] is
//! replayed family by family, schedule accounting runs in the machine's
//! reusable scratch arena, and the cache lookup hands out an `Arc`
//! clone (a refcount bump, not an allocation).
//!
//! Pinned with a counting global allocator. Everything lives in ONE
//! `#[test]` on purpose: the counter is process-global, and the test
//! harness would otherwise interleave allocations from sibling tests.
//! Only the test thread's allocations are counted (a thread-local
//! opt-in flag): the libtest harness thread lazily initializes its own
//! channel machinery (`std::sync::mpmc` thread-locals) at an arbitrary
//! moment, and a measured window must not fail because that one-time
//! setup landed inside it. The whole measured path (serial replay) runs
//! on the test thread, so the contract is unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use hpfc_mapping::{
    testing::{mapping_1d as mk, mapping_2d},
    DimFormat,
};
use hpfc_runtime::{
    plan_redistribution, try_remap_group, ArrayRt, CommSchedule, CopyProgram, ExecMode, GroupMember,
    Machine, PlanRegistry, PlannedGroup, PlannedRemap, VersionData,
};

/// A remap that must succeed.
fn remap(
    rt: &mut ArrayRt,
    machine: &mut Machine,
    target: u32,
    may_live: &BTreeSet<u32>,
    values_dead: bool,
) {
    let skip = BTreeSet::new();
    rt.try_remap_guarded(machine, target, may_live, values_dead, &skip).expect("remap");
}

/// `System`, with every allocation on the opted-in thread counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by the counted allocations (a `realloc` counts its
/// whole new size).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Counted allocations of a page (4 KiB) or more.
static PAGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Set on the test thread only; allocator callbacks on other
    /// threads (the harness) leave the counter alone. `const` init so
    /// reading the flag never itself allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    // `try_with`: TLS may be unavailable during thread teardown.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        if bytes >= 4096 {
            PAGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `rt`'s state in a fresh descriptor whose local plan view holds only
/// the remap into version `src`, so the next remap out of `src` misses
/// locally and is served by the machine's registry. Seeding the other
/// direction gives the view's map a node to insert into.
fn view_without(mut rt: ArrayRt, machine: &mut Machine, src: u32) -> ArrayRt {
    let back = rt.planned(machine, 1 - src, src);
    let mut view = ArrayRt::new(rt.name.clone(), rt.mappings.clone(), rt.elem_size);
    view.seed_plan(1 - src, src, back);
    view.copies = std::mem::take(&mut rt.copies);
    view.live = std::mem::take(&mut rt.live);
    view.status = rt.status;
    view
}

/// A machine on a registry of its own, so the exact
/// `plans_computed` assertions of one section cannot be satisfied by
/// another section's (or the process-wide registry's) registrations.
fn isolated() -> Machine {
    let registry = std::sync::Arc::new(PlanRegistry::new(2, 64));
    Machine::new(4).with_registry(registry)
}

#[test]
fn steady_state_remap_allocates_nothing() {
    COUNTED.with(|c| c.set(true));
    // Fault injection and validation default off, so a remap takes the
    // unguarded replay unless a section arms them. The guarded path
    // allocates nothing either — sections 6, 7 and 12 pin its counted
    // and checksummed rounds, 12 and 18 its healed wire faults, solo
    // and in a group — but a recompile or a table fallback may
    // allocate by design. Pin the
    // precondition so a future default change trips loudly here rather
    // than silently changing what the measured windows cover.
    {
        let m = Machine::new(4);
        assert!(m.faults.is_none(), "fault injection must default off");
        assert_eq!(
            m.validation,
            hpfc_runtime::ValidationLevel::Off,
            "validation must default off"
        );
    }
    let n = 4096u64;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));

    // --- 1. Bare program replay is allocation-free. -------------------
    let plan = plan_redistribution(&src, &dst, 8);
    // Positive control: the thread-gated counter sees the planner's
    // allocations, so the zero-delta windows below are meaningful.
    assert!(allocations() > 0, "counter is live on the test thread");
    let schedule = CommSchedule::from_plan(&plan);
    let program = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
    let mut a = VersionData::new(src.clone(), 8);
    a.fill(|p| p[0] as f64);
    let mut b = VersionData::new(dst.clone(), 8);
    b.copy_values_from_program(&a, &program, ExecMode::Serial); // touch once
    let before = allocations();
    for _ in 0..8 {
        b.copy_values_from_program(&a, &program, ExecMode::Serial);
    }
    assert_eq!(
        allocations(),
        before,
        "CopyProgram serial replay must not allocate"
    );
    assert_eq!(a.to_dense(), b.to_dense(), "and it still moves the data");

    // --- 2. The whole cached remap path is allocation-free. -----------
    // remap = status check + cache lookup (Arc clone) + schedule
    // accounting (machine scratch arena) + program replay.
    let mut machine = isolated();
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    // Warm up: allocate both copies, populate the plan cache both
    // directions, grow the accounting scratch.
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0); // stale the other copy: data moves each bounce
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "remap {i} ->0 allocated");
    }
    // All twenty measured remaps really moved data through the engine.
    assert_eq!(machine.stats.remaps_performed, performed + 20);
    assert_eq!(machine.stats.plans_computed, 2, "planned once per direction");

    // --- 3. The Fig. 18 restore path is allocation-free too. ----------
    // A save/restore loop: the array is remapped to the callee's
    // version (the ArgIn copy), written there (so the saved copy goes
    // stale and the restore must move data), then restored to the saved
    // tag. `ArrayRt::try_restore` is a tag-dispatched remap: with
    // the plan cache warm it is a status check + Arc clone + compiled
    // program replay — no heap allocation, exactly like a plain cached
    // remap bounce.
    let saved: u32 = 0; // the tag SaveStatus recorded before the call
    let dummy: u32 = 1; // the callee's version
    let mut machine = isolated();
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, saved).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [saved, dummy].into_iter().collect();
    // Warm up: populate the plan cache in both directions.
    for _ in 0..2 {
        remap(&mut rt, &mut machine, dummy, &keep, false);
        rt.set(&[0], 2.0); // the callee writes through the dummy copy
        rt.try_restore(&mut machine, saved, &keep, false).expect("restore");
        rt.set(&[1], 2.0);
    }
    let restored = machine.stats.restores_replayed;
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        remap(&mut rt, &mut machine, dummy, &keep, false);
        assert_eq!(allocations(), before, "restore bounce {i}: argin remap allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        rt.try_restore(&mut machine, saved, &keep, false).expect("restore");
        assert_eq!(allocations(), before, "restore bounce {i}: restore allocated");
    }
    assert_eq!(machine.stats.restores_replayed, restored + 10);
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.plans_computed, 2, "restore replays never plan");

    // --- 4. A cached remap GROUP bounce is allocation-free too. Two
    // arrays remapped by one directive share merged caterpillar
    // rounds: the coalesced path is eligibility checks, accounting
    // restricted to the movers in the machine scratch arena, and a
    // replay of the precompiled group program with the movers lent to
    // the core as lanes (nothing collected).
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = Machine::new(4);
    let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    let solo = |s: &_, d: &_| {
        std::sync::Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
    let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    // Warm up: allocate both versions of both arrays, seed the
    // caches, grow the accounting scratch.
    for _ in 0..2 {
        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &fwd).expect("group remap");
        a.set(&[0], 1.0);
        b.set(&[0], 1.0);
        let mut members = [
            GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &back).expect("group remap");
        a.set(&[1], 1.0);
        b.set(&[1], 1.0);
    }
    let groups = machine.stats.remap_groups_coalesced;
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        a.set(&[0], i as f64); // outside the measured window
        b.set(&[0], i as f64);
        let before = allocations();
        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &fwd).expect("group remap");
        assert_eq!(allocations(), before, "group bounce {i} ->1 allocated");
        a.set(&[1], i as f64);
        b.set(&[1], i as f64);
        let before = allocations();
        let mut members = [
            GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &back).expect("group remap");
        assert_eq!(allocations(), before, "group bounce {i} ->0 allocated");
    }
    // Every measured bounce coalesced both arrays' movement.
    assert_eq!(machine.stats.remap_groups_coalesced, groups + 20);
    assert_eq!(machine.stats.remaps_performed, performed + 40);
    assert_eq!(machine.stats.plans_computed, 0, "group members were precompiled");

    // --- 5. A registry-HIT bounce is allocation-free too. -------------
    // Every measured remap runs on a fresh descriptor whose local plan
    // view lacks its direction (`view_without`), so each one takes the
    // full shared-service path: stack-hash the mapping pair, probe the
    // interner (a hit returns an existing Arc), lock the registry shard,
    // touch the LRU stamp, clone the artifact out, and seed the local
    // view (BTreeMap leaf reuse — the view already holds the other
    // direction). None of it may heap-allocate, and the data a
    // registry-served session produces must be byte-identical to a
    // session that never evicts its local view.
    // A 64 x 64 array; a 1-D pair takes the very same shard path.
    let registry = std::sync::Arc::new(PlanRegistry::new(4, 64));
    let src = mapping_2d(64, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
    let dst = mapping_2d(64, 4, vec![DimFormat::Collapsed, DimFormat::Cyclic(Some(3))]);
    let mut machine = Machine::new(4).with_registry(std::sync::Arc::clone(&registry));
    let mut solo_machine = isolated();
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut solo = ArrayRt::new("s", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| (7 * (64 * p[0] + p[1]) + 3) as f64);
    solo.current(&mut solo_machine, 0).fill(|p| (7 * (64 * p[0] + p[1]) + 3) as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let (first, second) = ([0u64, 0], [0u64, 1]);
    // Warm up: registers both directions, grows scratch, seeds locals.
    for _ in 0..2 {
        for (r, m) in [(&mut rt, &mut machine), (&mut solo, &mut solo_machine)] {
            remap(r, m, 1, &keep, false);
            r.set(&first, 1.0);
            remap(r, m, 0, &keep, false);
            r.set(&second, 1.0);
        }
    }
    assert_eq!(registry.len(), 2, "both directions are registered");
    let hits = machine.stats.registry_hits;
    for i in 0..10u64 {
        rt.set(&first, i as f64); // outside the measured window
        solo.set(&first, i as f64);
        rt = view_without(rt, &mut machine, 0); // the registry serves 0 -> 1
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "registry-hit remap {i} ->1 allocated");
        rt.set(&second, i as f64);
        solo.set(&second, i as f64);
        rt = view_without(rt, &mut machine, 1); // and 1 -> 0
        let before = allocations();
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "registry-hit remap {i} ->0 allocated");
        remap(&mut solo, &mut solo_machine, 1, &keep, false);
        remap(&mut solo, &mut solo_machine, 0, &keep, false);
    }
    // Every measured remap was really served by the registry...
    assert_eq!(machine.stats.registry_hits, hits + 20);
    assert_eq!(machine.stats.plans_computed, 2, "compiled once per direction, ever");
    assert_eq!(machine.stats.registry_misses, 2);
    assert_eq!(solo_machine.stats.plans_computed, 2, "the baseline session plans itself");
    // ...and the served artifact moves bytes identically to the
    // baseline's.
    for i in 0..64 {
        for j in 0..64 {
            assert_eq!(rt.get(&[i, j]), solo.get(&[i, j]), "sessions diverge at ({i}, {j})");
        }
    }

    // --- 6. The transactional happy path is allocation-free too. ------
    // With a validation level configured the remap runs guarded and
    // ARMED: a rollback record (status, live flags, allocation) is
    // captured into the machine's scratch arena before the replay, and
    // the allocated target is staged — the old copy moves into the
    // record and the replay writes a spare drawn whole from the pool,
    // where the record's last staged-out copy goes once the draw is
    // made. Warm-up grows the scratch and pools one spare per version;
    // after that every record + stage + commit cycle reuses them — zero
    // allocations per cached bounce, and the happy path never rolls
    // back.
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = isolated().with_validation(hpfc_runtime::ValidationLevel::Counts);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    // Warm up: both copies allocated, both directions' programs cached,
    // the record scratch grown, a spare pooled for each version.
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "transactional remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "transactional remap {i} ->0 allocated");
    }
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.txn_rollbacks, 0, "the happy path never rolls back");
    assert_eq!(machine.stats.plans_computed, 2);

    // --- 7. Strided-kernel replay is allocation-free too. -------------
    // cyclic(1) destinations compile to pure Gather stride families
    // (no lone run): the cached bounce exercises the family
    // walk in the replay, the per-unit run accounting, and — armed by
    // the validation level — the staged spare, which this program
    // overwrites whole, so it is handed over without a copy. All of it
    // must reuse warm capacity, exactly like the bounce above.
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(None));
    let mut machine = isolated().with_validation(hpfc_runtime::ValidationLevel::Counts);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    // Pin the premise: the cached forward program really is family-only,
    // every unit labelled Gather — otherwise this section silently degenerates
    // into another measurement of short runs.
    {
        let cached = rt.planned(&mut machine, 0, 1);
        let prog = cached.program.as_ref().expect("cyclic(1) compiles");
        assert!(!prog.fams.is_empty(), "stride families drive this shape");
        assert!(prog.fams.iter().all(|f| f.count > 1), "no lone run for cyclic(1)");
        assert!(
            prog.local.iter().chain(prog.rounds.iter().flatten()).all(|u| matches!(
                u.kernel,
                hpfc_runtime::Kernel::Gather
            )),
            "every unit is labelled Gather"
        );
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "strided-kernel remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "strided-kernel remap {i} ->0 allocated");
    }
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.txn_rollbacks, 0, "the happy path never rolls back");
    assert_eq!(machine.stats.plans_computed, 2, "planned once per direction");

    // --- 8. A bounce whose cleaning frees the source recycles storage. -
    // Fig. 20 with `M = {target}`: every remap allocates its target and
    // cleaning frees the source right after — the shape of every
    // in-program remap loop. The freed copy goes whole to the pool and
    // the next remap in that direction takes it back, so after one
    // warm-up round trip `remap -> clean -> remap` never reaches the
    // allocator:
    // neither for the data, nor for the owned-set descriptors, nor for
    // the block table. (Both cached programs overwrite every destination
    // element, so the recycled buffers are not even re-zeroed.)
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(None));
    let mut machine = isolated();
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let (only0, only1): (BTreeSet<u32>, BTreeSet<u32>) = ([0u32].into(), [1u32].into());
    remap(&mut rt, &mut machine, 1, &only1, false);
    remap(&mut rt, &mut machine, 0, &only0, false);
    let performed = machine.stats.remaps_performed;
    let peak = machine.mem.peak.clone();
    for i in 0..10u64 {
        rt.set(&[i], -1.0);
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &only1, false);
        assert!(rt.copies[0].is_none(), "cleaning freed the source");
        remap(&mut rt, &mut machine, 0, &only0, false);
        assert!(rt.copies[1].is_none(), "cleaning freed the source");
        assert_eq!(allocations(), before, "recycling bounce {i} allocated");
    }
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every remap moved data");
    assert_eq!(machine.mem.peak, peak, "modeled memory is billed exactly as before");
    assert!((0..n).all(|i| rt.get(&[i]) == if i < 10 { -1.0 } else { i as f64 }));

    // --- 9. A version's only O(extent) allocation is its data. --------
    // Blocks address themselves through the mapping's closed-form
    // periodic sets, so CYCLIC(1) — where every owned index is its own
    // run — costs the data plus a few descriptors, not a second
    // extent-sized index list per block.
    let n = 1u64 << 20;
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let v = VersionData::new(mk(n, 4, DimFormat::Cyclic(None)), 8);
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(v.total_bytes(), n * 8);
    assert!(
        allocated <= n * 8 + (64 << 10),
        "VersionData::new allocated {allocated} B for {} B of data",
        n * 8
    );

    // --- 10. Compiling is flat in the extent. -------------------------
    // plan -> schedule -> program never lists a run of the innermost
    // dimension: BLOCK <-> CYCLIC(1) at n = 4Mi over 16 processors is
    // 4Mi single-element runs and compiles within a few descriptors per
    // processor pair. This is the deterministic guard against an
    // O(extent) compile coming back (timings are advisory on CI boxes).
    let n = 1u64 << 22;
    let block = mk(n, 16, DimFormat::Block(None));
    let cyclic = mk(n, 16, DimFormat::Cyclic(None));
    for (src, dst) in [(&block, &cyclic), (&cyclic, &block)] {
        let plan = plan_redistribution(src, dst, 8);
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let planned = PlannedRemap::compile(plan);
        let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        let program = planned.program.as_ref().expect("compiles");
        assert_eq!((program.n_runs(), program.n_elements()), (n, n));
        assert!(
            allocated <= 256 << 10,
            "compiling {n} runs allocated {allocated} B for a {} B artifact",
            program.artifact_bytes()
        );
    }

    // --- 11. A guarded group copies no destination. --------------------
    // Two 512 KiB arrays under Checksums validation, one remap directive
    // per hop: `a` is never written, so every hop of its is a live-copy
    // reuse; `b` is written after every hop, so it moves data — the
    // group's only mover. Every rollback record is status, live flags
    // and allocation; the mover writes its staged spare, pooled since
    // the warm-up, and `a` is not staged at all. Neither clones a
    // destination copy.
    let n = 1u64 << 16;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = isolated().with_validation(hpfc_runtime::ValidationLevel::Checksums);
    let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    let solo = |s: &_, d: &_| {
        std::sync::Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
    let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    let hop = |machine: &mut Machine, a: &mut ArrayRt, b: &mut ArrayRt, i: u64| {
        for (s, t, planned) in [(0u32, 1u32, &fwd), (1, 0, &back)] {
            let mut members = [
                GroupMember { rt: &mut *a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut *b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
            ];
            try_remap_group(machine, &mut members, planned).expect("a clean group hop");
            b.set(&[i % n], i as f64);
        }
    };
    for i in 0..2 {
        hop(&mut machine, &mut a, &mut b, i);
    }
    let (reused, performed) = (machine.stats.remaps_reused_live, machine.stats.remaps_performed);
    for i in 0..4u64 {
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        hop(&mut machine, &mut a, &mut b, i);
        let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
        assert!(
            allocated < n * 8,
            "guarded group bounce pair {i} allocated {allocated} B, a destination copy is {} B",
            n * 8
        );
    }
    assert_eq!(machine.stats.remaps_reused_live, reused + 8, "a reused its live copy every hop");
    assert_eq!(machine.stats.remaps_performed, performed + 8, "b moved data every hop");
    assert_eq!(machine.stats.group_rollbacks, 0);

    // --- 12. A checksummed solo bounce is allocation-free too. --------
    // Sections 6-7 pin the guarded path under `Counts`. Under
    // `Checksums` every unit is copied by the run kernel's copy-and-sum
    // (the source half of the checksum rides the copy) and summed back
    // out of destination memory: block <-> cyclic(4) replays 4-word
    // runs, one of the kernel's fixed-width loops. None of it may
    // allocate once the scratch has grown. A second pass arms a plan of
    // wire faults: deciding a corrupted, truncated or dropped round and
    // healing it by a retry of the round allocates nothing either.
    let n = 4096u64;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(4)));
    let mut machine = isolated().with_validation(hpfc_runtime::ValidationLevel::Checksums);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    {
        let cached = rt.planned(&mut machine, 0, 1);
        let prog = cached.program.as_ref().expect("cyclic(4) compiles");
        assert!(
            !prog.fams.is_empty() && prog.fams.iter().all(|f| f.len == 4),
            "the forward program replays 4-word stride families"
        );
    }
    use hpfc_runtime::FaultKind::{CorruptRound, DropRound, TruncateRound};
    let wire = hpfc_runtime::FaultPlan::new(7, 20, &[CorruptRound, TruncateRound, DropRound]);
    for faults in [None, Some(wire)] {
        machine.faults = faults;
        let performed = machine.stats.remaps_performed;
        for i in 0..10u64 {
            rt.set(&[0], i as f64); // outside the measured window
            let before = allocations();
            remap(&mut rt, &mut machine, 1, &keep, false);
            assert_eq!(allocations(), before, "checksummed remap {i} ->1 allocated: {faults:?}");
            rt.set(&[1], i as f64);
            let before = allocations();
            remap(&mut rt, &mut machine, 0, &keep, false);
            assert_eq!(allocations(), before, "checksummed remap {i} ->0 allocated: {faults:?}");
        }
        assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
        if faults.is_none() {
            assert_eq!(machine.stats.rounds_retried, 0, "every checksum matched first time");
        }
    }
    assert!(machine.stats.rounds_retried > 0, "wire faults fired and retries healed them");
    assert_eq!(machine.stats.programs_recompiled, 0, "every faulted round healed by a retry");
    assert_eq!(machine.stats.plans_computed, 2, "planned once per direction");

    // --- 13. Rollback returns the staged spare to the pool. -----------
    // A guarded remap into an allocated copy writes a spare while the
    // old copy waits in the rollback record; a forced exhaustion swaps
    // the two back, so the spare goes back to the pool. Each measured
    // remap is the heal right after such a rollback, in both
    // directions: it stages out of the pool exactly like section 6, so
    // nothing reaches the allocator.
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = isolated().with_validation(hpfc_runtime::ValidationLevel::Counts);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    let exhaust = hpfc_runtime::FaultPlan::new(97, 100, &[hpfc_runtime::FaultKind::Exhaust]);
    let skip = BTreeSet::new();
    for i in 0..4u64 {
        for target in [1u32, 0] {
            rt.set(&[i], i as f64); // stale the target: the remap moves data
            machine.faults = Some(exhaust);
            let failed = rt.try_remap_guarded(&mut machine, target, &keep, false, &skip);
            assert!(failed.is_err(), "forced exhaustion {i} ->{target}");
            machine.faults = None;
            let before = allocations();
            remap(&mut rt, &mut machine, target, &keep, false);
            assert_eq!(allocations(), before, "healed remap {i} ->{target} allocated");
        }
    }
    assert_eq!(machine.stats.txn_rollbacks, 8, "every exhaustion rolled a staged target back");
    // The writes above put every touched element back to its index.
    assert!((0..n).all(|i| rt.get(&[i]) == i as f64), "the healed remaps moved the data");

    // --- 14. A schedule is who sends how much to whom, and when. ------
    // CYCLIC(4) -> BLOCK(n/64) over 64 processors is all-to-all: 4032
    // messages in 63 rounds. Building the schedule sizes each message
    // and computes its round by formula; it copies no interval
    // descriptor (those stay in the plan) and keeps no table over rank
    // pairs, so its bytes are a small constant per message: 48 B (the
    // 32-byte message plus round indices), where copying each
    // message's two descriptors cost 395 B.
    let n = 1u64 << 16;
    let src = mk(n, 64, DimFormat::Cyclic(Some(4)));
    let dst = mk(n, 64, DimFormat::Block(Some(n / 64)));
    let plan = plan_redistribution(&src, &dst, 8);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let schedule = CommSchedule::from_plan(&plan);
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let n_msgs = schedule.messages.len() as u64;
    assert_eq!((n_msgs, schedule.n_rounds()), (4032, 63));
    assert!(
        allocated <= 96 * n_msgs,
        "scheduling {n_msgs} messages allocated {allocated} B ({} B/message)",
        allocated / n_msgs
    );

    // --- 15. A new array's storage comes from the pool. ---------------
    // Host buffers outlive the array that held them: a dropped array's
    // blocks of a page or more go to the process-wide pool, so a fresh
    // array running the same BLOCK <-> CYCLIC(4) bounce takes them back
    // and requests no page from the allocator — neither for the entry
    // version nor for the remap target. Values are written element by
    // element: a dense fill buffer has another length, and a request
    // the pool cannot serve releases everything pooled.
    let n = 1u64 << 14; // 8 pages per processor
    let versions = vec![mk(n, 4, DimFormat::Block(None)), mk(n, 4, DimFormat::Cyclic(Some(4)))];
    let mut machine = isolated();
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let bounce = |machine: &mut Machine| {
        let mut rt = ArrayRt::new("a", versions.clone(), 8);
        rt.current(machine, 0);
        for i in (0..n).step_by(97) {
            rt.set(&[i], i as f64);
        }
        for (hop, target) in [1u32, 0, 1, 0].into_iter().enumerate() {
            remap(&mut rt, machine, target, &keep, false);
            rt.set(&[hop as u64], -1.0);
        }
        rt
    };
    drop(bounce(&mut machine));
    let before = PAGE_ALLOCATIONS.load(Ordering::Relaxed);
    let rt = bounce(&mut machine);
    let paged = PAGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(paged, 0, "the second array requested {paged} page-sized allocation(s)");
    let want = |i: u64| match i {
        0..4 => -1.0,
        _ if i.is_multiple_of(97) => i as f64,
        _ => 0.0,
    };
    assert!((0..n).all(|i| rt.get(&[i]) == want(i)), "the pooled bounce moved the data");
    assert_eq!(machine.stats.remaps_performed, 8, "every hop moved data");

    // --- 16. A dealt bounce is allocation-free too. --------------------
    // BLOCK <-> CYCLIC(1) over 4 processors with blocks of 16 384
    // elements, four of the deal's 4 096-element row groups: the serial
    // walk replays every strided-side block as one deal, its four units
    // per pass borrowed into fixed arrays — nothing is collected.
    let n = 1u64 << 16;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(None));
    let mut machine = isolated();
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    for _ in 0..2 {
        remap(&mut rt, &mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    for i in 0..10u64 {
        rt.set(&[0], i as f64);
        let before = allocations();
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "dealt remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "dealt remap {i} ->0 allocated");
    }
    assert_eq!(machine.stats.remaps_performed, 24, "every hop moved data");
    let want = |i: u64| match i {
        0 | 1 => 9.0,
        _ => i as f64,
    };
    assert!((0..n).all(|i| rt.get(&[i]) == want(i)), "the dealt bounce moved the data");

    // --- 17. Whole versions cross arrays. -------------------------------
    // A released version goes to the pool whole, whatever its size:
    // buffers, block table and owned-set descriptors. Array `a` runs a
    // warm BLOCK <-> CYCLIC(4) bounce whose cleaning frees the source and
    // is dropped; array `b`, over the same versions with its plans seeded
    // outside the window, instantiates its entry version and bounces once
    // without asking the allocator for anything, of any size: each
    // request takes a version `a` released, as it is. Once with blocks of
    // two pages, once with blocks of 16 elements (64 over 4 ranks, far
    // under a page).
    for n in [4096u64, 64] {
        let versions =
            vec![mk(n, 4, DimFormat::Block(None)), mk(n, 4, DimFormat::Cyclic(Some(4)))];
        let mut machine = isolated();
        let mut a = ArrayRt::new("a", versions.clone(), 8);
        a.current(&mut machine, 0).fill(|p| p[0] as f64);
        for _ in 0..2 {
            remap(&mut a, &mut machine, 1, &only1, false);
            remap(&mut a, &mut machine, 0, &only0, false);
        }
        let mut b = ArrayRt::new("b", versions, 8);
        for (s, d) in [(0u32, 1u32), (1, 0)] {
            b.seed_plan(s, d, a.planned(&mut machine, s, d));
        }
        drop(a);
        let performed = machine.stats.remaps_performed;
        let before = allocations();
        b.current(&mut machine, 0);
        remap(&mut b, &mut machine, 1, &only1, false);
        remap(&mut b, &mut machine, 0, &only0, false);
        assert_eq!(allocations(), before, "n = {n}: a second array's versions allocated");
        assert_eq!(machine.stats.remaps_performed, performed + 2, "n = {n}: both hops moved data");
        assert!((0..n).all(|i| b.get(&[i]) == 0.0), "n = {n}: pooled storage reads as fresh");
    }

    // --- 18. A faulted guarded group bounce is allocation-free too. ----
    // Two movers of one coalesced group under `Checksums` and section
    // 12's plan of wire faults: attempt 0 of every round runs in one
    // walk of both lanes, its per-round tallies (one slot per round,
    // both lanes' units in it) live in the machine's scratch, and a
    // faulted round is retried in round order. Once the scratch has
    // grown, neither the walk, nor the retries, nor the rollback records
    // of the two staged targets may allocate — and a member's retired
    // copy reaches the pool only after its sibling drew its spare.
    let n = 4096u64;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(4)));
    let mut machine = isolated()
        .with_validation(hpfc_runtime::ValidationLevel::Checksums)
        .with_faults(wire);
    let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    let solo = |s: &_, d: &_| {
        std::sync::Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
    let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
    let hop = |machine: &mut Machine, a: &mut ArrayRt, b: &mut ArrayRt, i: u64, (s, t)| {
        a.set(&[i], -(i as f64)); // outside the measured window
        b.set(&[i], 1000.0 + i as f64);
        let planned = if s == 0 { &fwd } else { &back };
        let mut members = [
            GroupMember { rt: &mut *a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut *b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
        ];
        let before = allocations();
        assert_eq!(try_remap_group(machine, &mut members, planned).expect("healed"), 2);
        allocations() - before
    };
    for i in 0..2 {
        hop(&mut machine, &mut a, &mut b, i, (0u32, 1u32));
        hop(&mut machine, &mut a, &mut b, i, (1, 0));
    }
    let (coalesced, retried) = (machine.stats.remap_groups_coalesced, machine.stats.rounds_retried);
    for i in 2..12u64 {
        for dir in [(0u32, 1u32), (1, 0)] {
            let allocated = hop(&mut machine, &mut a, &mut b, i, dir);
            assert_eq!(allocated, 0, "faulted guarded group hop {i} {dir:?} allocated");
        }
    }
    assert_eq!(machine.stats.remap_groups_coalesced, coalesced + 20, "both members moved together");
    assert!(machine.stats.rounds_retried > retried, "wire faults fired and retries healed them");
    assert_eq!(machine.stats.programs_recompiled, 0, "every faulted round healed by a retry");
    assert_eq!(machine.stats.fallbacks_to_tables, 0, "no lane fell back to the table engine");
    for i in 0..n {
        let x = i as f64;
        let want = if i < 12 { (-x, 1000.0 + x) } else { (x, 2.0 * x) };
        assert_eq!((a.get(&[i]), b.get(&[i])), want, "element {i} after the faulted bounce");
    }
}
