//! Chaos harness for the self-healing remap engine: inject every fault
//! class at deterministic `(remap, round)` sites and assert the engine
//! heals — final contents equal a per-point oracle, wire accounting
//! books each remap exactly once (retried rounds are never re-billed),
//! recovery never plans (`plans_computed == 0` with seeded caches), and
//! unrecoverable situations surface as typed [`ExecError`]s, never as
//! a panic across the API boundary.
//!
//! The transactional section extends the invariant: when a fault
//! sequence is terminal (injected ladder exhaustion), the typed error
//! comes with the destination rolled back — bytes, status, and live
//! flags equal the pre-remap shadow, for solo and group remaps alike —
//! and no fault ever rewrites an artifact a later session is served.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_mapping::{
    AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping, NormalizedMapping,
    ProcGrid, Template, TemplateId,
};
use hpfc_runtime::{
    plan_redistribution, try_remap_group, ArrayRt, ExecError, FaultKind,
    FaultPlan, GroupMember, Machine, PlanRegistry, PlannedGroup, PlannedRemap, ValidationLevel,
};
use proptest::prelude::*;

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

fn mk1d(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
    hpfc_mapping::testing::mapping_1d(n, p, fmt)
}

/// A machine on a registry of its own: nothing another test registered
/// in the process-wide one can reach it, so its counters are exact.
fn isolated(nprocs: u64) -> Machine {
    Machine::new(nprocs).with_registry(Arc::new(PlanRegistry::new(2, 64)))
}

/// A 1-D array replicated along the second axis of a 2 × 2 grid.
fn mk_replicated(n: u64, fmt: DimFormat) -> NormalizedMapping {
    let template =
        Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n, 2]) };
    let grid = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[2, 2]) };
    let align = Alignment {
        template: TemplateId(0),
        targets: vec![AlignTarget::identity(0), AlignTarget::Replicate],
    };
    Mapping { align, dist: Distribution::new(GridId(0), vec![fmt, DimFormat::Block(None)]) }
        .normalize(&Extents::new(&[n]), &template, &grid)
        .expect("constructed mapping is well-formed")
}

/// A fresh array bouncing between BLOCK and CYCLIC(3) over `p` procs,
/// with both plan-cache directions pre-seeded (so recovery can be
/// asserted to never plan at run time).
fn seeded_array(n: u64, p: u64) -> ArrayRt {
    let src = mk1d(n, p, DimFormat::Block(None));
    let dst = mk1d(n, p, DimFormat::Cyclic(Some(3)));
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    rt.seed_plan(0, 1, Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8))));
    rt.seed_plan(1, 0, Arc::new(PlannedRemap::compile(plan_redistribution(&dst, &src, 8))));
    rt
}

/// Bounce `rt` between versions 0 and 1 `bounces` times, writing a
/// fresh value after every hop (so every hop moves data), and return
/// the expected final contents as a per-point oracle.
fn bounce_and_oracle(machine: &mut Machine, rt: &mut ArrayRt, n: u64, bounces: u32) -> Vec<f64> {
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    rt.current(machine, 0).fill(|p| p[0] as f64 + 1.0);
    let mut shadow: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    for b in 0..bounces {
        remap(rt, machine, 1 - (b % 2), &keep, false);
        let touched = (7 * b as u64 + 3) % n;
        rt.set(&[touched], 1000.0 + b as f64);
        shadow[touched as usize] = 1000.0 + b as f64;
    }
    shadow
}

fn assert_matches_oracle(rt: &ArrayRt, shadow: &[f64], what: &str) {
    for (i, want) in shadow.iter().enumerate() {
        let got = rt.get(&[i as u64]);
        assert_eq!(got, *want, "{what}: element {i} diverged from the oracle");
    }
}

/// CorruptRound at rate 100 with checksums: every attempt of every
/// round is corrupted, so retries and the recompiled program all fail
/// and each remap lands on the table engine — and the data is still
/// exactly right.
#[test]
fn corruption_at_full_rate_falls_back_to_tables() {
    let n = 4096u64;
    let mut machine = isolated(4)
        .with_faults(FaultPlan::new(11, 100, &[FaultKind::CorruptRound]))
        .with_validation(ValidationLevel::Checksums);
    let mut rt = seeded_array(n, 4);
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 4);
    assert_matches_oracle(&rt, &shadow, "corrupt@100");
    assert!(machine.stats.faults_injected > 0, "corruption was injected");
    assert!(machine.stats.rounds_retried > 0, "rung 1 retried");
    assert!(machine.stats.programs_recompiled > 0, "rung 2 recompiled");
    assert_eq!(
        machine.stats.fallbacks_to_tables, 4,
        "at rate 100 every data-moving remap ends on the table engine"
    );
    assert_eq!(machine.stats.plans_computed, 0, "recovery never plans");
}

/// CorruptRound at a moderate rate: retries converge (a retry re-rolls
/// the fault decision), the healed contents match the oracle, and at
/// least some rounds needed the ladder.
#[test]
fn corruption_at_moderate_rate_heals_by_retry() {
    let n = 4096u64;
    let mut machine = isolated(4)
        .with_faults(FaultPlan::new(5, 40, &[FaultKind::CorruptRound]))
        .with_validation(ValidationLevel::Checksums);
    let mut rt = seeded_array(n, 4);
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 8);
    assert_matches_oracle(&rt, &shadow, "corrupt@40");
    assert!(machine.stats.faults_injected > 0);
    assert!(machine.stats.rounds_retried > 0);
    assert_eq!(machine.stats.plans_computed, 0);
}

/// PoisonProgram at rate 100: every remap serves a corrupted copy of
/// its cached program; the fingerprint catches it before any position
/// is dereferenced and the program is recompiled from the cached plan
/// for that one replay — all without planning. The cached artifacts
/// themselves are never written: after the bounce each cache entry is
/// the very `Arc` that was seeded.
#[test]
fn poisoned_cache_entries_are_recompiled_and_repaired() {
    let n = 4096u64;
    let mut machine = isolated(4)
        .with_faults(FaultPlan::new(17, 100, &[FaultKind::PoisonProgram]));
    let mut rt = seeded_array(n, 4);
    let seeded = rt.plan_cache.clone();
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 4);
    assert_matches_oracle(&rt, &shadow, "poison@100");
    assert_eq!(machine.stats.faults_injected, 4, "each remap's entry was poisoned");
    assert_eq!(
        machine.stats.programs_recompiled, 4,
        "each poisoning was caught by the fingerprint and recompiled"
    );
    assert_eq!(machine.stats.fallbacks_to_tables, 0);
    assert_eq!(machine.stats.rounds_retried, 0, "a fresh program replays cleanly");
    assert_eq!(machine.stats.plans_computed, 0, "repair recompiles, it never re-plans");
    for (pair, served) in &rt.plan_cache {
        assert!(Arc::ptr_eq(served, &seeded[pair]), "cache entry {pair:?} was rewritten");
    }
}

/// Poison under the shared plan registry: a poisoned artifact is a
/// transient copy for one replay, so nothing corrupt — and nothing
/// recompiled — is ever registered. Session A registers both
/// directions, takes one poisoned remap on the chin (fingerprint →
/// recompile for that replay); session B, a fresh array and machine on
/// the same registry, then executes on registry hits alone — served the
/// very `Arc`s session A registered — recompiles nothing, and heals to
/// its oracle.
#[test]
fn a_poisoned_replay_leaves_the_registry_untouched_for_a_second_session() {
    let n = 4096u64;
    let (block, cyclic3) = (DimFormat::Block(None), DimFormat::Cyclic(Some(3)));
    // A distributed and a replicated pair: one keying, one outcome.
    let shapes = [
        (mk1d(n, 4, block), mk1d(n, 4, cyclic3)),
        (mk_replicated(n, block), mk_replicated(n, cyclic3)),
    ];
    for (src, dst) in shapes {
        let registry = Arc::new(PlanRegistry::new(2, 64));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();

        // Session A, fault-free: registers both directions in the registry.
        let mut ma = Machine::new(4)
            .with_registry(Arc::clone(&registry));
        let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        let shadow_a = bounce_and_oracle(&mut ma, &mut a, n, 2);
        assert_eq!(ma.stats.plans_computed, 2, "A planned both directions");
        assert_eq!(registry.len(), 2);
        let registered = a.plan_cache.clone();

        // One poisoned remap: the corrupt copy is caught by the
        // fingerprint and a recompiled program serves that replay.
        ma = ma.with_faults(FaultPlan::new(41, 100, &[FaultKind::PoisonProgram]));
        a.try_remap_guarded(&mut ma, 1, &keep, false, &BTreeSet::new()).expect("heals");
        assert_matches_oracle(&a, &shadow_a, "session A after poison");
        assert_eq!(ma.stats.faults_injected, 1, "exactly one poisoning");
        assert_eq!(ma.stats.programs_recompiled, 1, "recompiled exactly once");

        // Session B: fresh machine + fresh array, same registry, no faults.
        let mut mb = Machine::new(4)
            .with_registry(Arc::clone(&registry));
        let mut b = ArrayRt::new("b", vec![src, dst], 8);
        let shadow_b = bounce_and_oracle(&mut mb, &mut b, n, 4);
        assert_matches_oracle(&b, &shadow_b, "session B over the registry");
        assert_eq!(mb.stats.plans_computed, 0, "B is served by the registry");
        assert_eq!((mb.stats.registry_misses, mb.stats.registry_hits), (0, 2), "{:?}", mb.stats);
        assert_eq!(mb.stats.faults_injected, 0);
        assert_eq!(mb.stats.programs_recompiled, 0, "B never saw the corrupt program");
        for (pair, served) in &b.plan_cache {
            assert!(Arc::ptr_eq(served, &registered[pair]), "B was served a rewritten {pair:?}");
        }
    }
}

/// Drop/Truncate: conservation counts catch the short rounds, the
/// ladder heals them, and the wire accounting books each remap's
/// schedule exactly once — a retried round is never re-billed.
#[test]
fn wire_loss_heals_and_accounts_each_remap_once() {
    let n = 4096u64;
    let fwd = plan_redistribution(
        &mk1d(n, 4, DimFormat::Block(None)),
        &mk1d(n, 4, DimFormat::Cyclic(Some(3))),
        8,
    );
    let back = plan_redistribution(
        &mk1d(n, 4, DimFormat::Cyclic(Some(3))),
        &mk1d(n, 4, DimFormat::Block(None)),
        8,
    );
    let mut machine = isolated(4)
        .with_faults(FaultPlan::new(23, 40, &[FaultKind::DropRound, FaultKind::TruncateRound]))
        .with_validation(ValidationLevel::Counts);
    let mut rt = seeded_array(n, 4);
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 6);
    assert_matches_oracle(&rt, &shadow, "wire-loss");
    assert!(machine.stats.faults_injected > 0, "wire loss was injected");
    assert!(machine.stats.rounds_retried > 0, "short rounds were caught");
    // 6 bounces: 3 forward, 3 back. The schedule is accounted once
    // per remap *before* the replay; retries, recompiles and
    // fallbacks never touch the wire books again.
    assert_eq!(
        machine.stats.messages,
        3 * fwd.total_messages() + 3 * back.total_messages(),
        "wire messages booked once per remap"
    );
    assert_eq!(
        machine.stats.bytes,
        3 * fwd.total_bytes() + 3 * back.total_bytes(),
        "wire bytes booked once per remap"
    );
    assert_eq!(machine.stats.plans_computed, 0);
}

/// Group chaos: the coalesced two-array remap heals per-class like the
/// solo path — full-rate corruption lands every masked member on the
/// table engine, poison is recompiled — and both arrays' contents
/// match their oracles.
#[test]
fn group_remaps_heal_under_chaos() {
    let n = 4096u64;
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo =
        |s: &NormalizedMapping, d: &NormalizedMapping| {
            Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
        };
    let cases: [(FaultPlan, ValidationLevel); 2] = [
        // Every round of every attempt corrupted: per-member tables.
        (FaultPlan::new(29, 100, &[FaultKind::CorruptRound]), ValidationLevel::Checksums),
        // Every group program poisoned: recompile heals it.
        (FaultPlan::new(31, 100, &[FaultKind::PoisonProgram]), ValidationLevel::Off),
    ];
    for (faults, validation) in cases {
        let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
        let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
        let mut machine = isolated(4)
            .with_faults(faults)
            .with_validation(validation);
        let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
        a.current(&mut machine, 0).fill(|p| p[0] as f64);
        b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        for bounce in 0..4u32 {
            let (s, t) = if bounce % 2 == 0 { (0u32, 1u32) } else { (1, 0) };
            let mut members = [
                GroupMember { rt: &mut a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
            ];
            let planned = if s == 0 { &fwd } else { &back };
            let coalesced = try_remap_group(&mut machine, &mut members, planned).expect("group remap");
            assert_eq!(coalesced, 2, "both arrays moved together");
            a.set(&[0], 50.0 + bounce as f64);
            b.set(&[1], 70.0 + bounce as f64);
        }
        for i in 0..n {
            let want_a = if i == 0 { 53.0 } else { i as f64 };
            let want_b = if i == 1 { 73.0 } else { 2.0 * i as f64 };
            assert_eq!(a.get(&[i]), want_a, "array a element {i} ({faults:?})");
            assert_eq!(b.get(&[i]), want_b, "array b element {i} ({faults:?})");
        }
        assert!(machine.stats.faults_injected >= 4, "one injection per group remap");
        assert_eq!(machine.stats.plans_computed, 0, "group recovery never plans");
        match validation {
            ValidationLevel::Checksums => assert_eq!(
                machine.stats.fallbacks_to_tables,
                8,
                "full-rate corruption: 4 group remaps x 2 members on tables"
            ),
            _ => {
                assert_eq!(machine.stats.programs_recompiled, 4, "one group recompile per remap");
                assert_eq!(machine.stats.fallbacks_to_tables, 0);
            }
        }
    }
}

/// Unrecoverable situations are typed errors at the API boundary, not
/// panics: a remap whose source copy is gone reports `MissingCopy`, a
/// group whose member list disagrees with its plan reports
/// `GroupMismatch`.
#[test]
fn unrecoverable_paths_return_typed_errors() {
    let n = 256u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let mut machine = isolated(4);
    let mut rt = seeded_array(n, 4);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    // Sabotage: drop the source copy behind the status tag.
    rt.free_copy(&mut machine, 0);
    let err = rt.try_remap_guarded(&mut machine, 1, &keep, false, &BTreeSet::new()).unwrap_err();
    assert_eq!(err, ExecError::MissingCopy { array: "a".into(), version: 0 });
    assert!(err.to_string().contains("version 0"));

    // A group directive whose runtime member list is shorter than the
    // planned group.
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
    let planned = PlannedGroup::compile(vec![Arc::clone(&solo), solo]);
    let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    let skip = BTreeSet::new();
    let mut members = [GroupMember {
        rt: &mut a,
        src: 0,
        target: 1,
        may_live: &keep,
        skip_if_current: &skip,
    }];
    let err = try_remap_group(&mut machine, &mut members, &planned).unwrap_err();
    assert_eq!(err, ExecError::GroupMismatch { planned: 2, got: 1 });
}

/// A missing source copy is found by the entry check — before the
/// target is allocated, the schedule accounted or the remap counted —
/// so the typed error leaves the machine's books and the array exactly
/// as they were, on the solo path and on the group path alike (where
/// the same state used to panic out of a `try_` function).
#[test]
fn a_missing_source_copy_fails_before_anything_is_billed() {
    let n = 256u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
    let planned = PlannedGroup::compile(vec![Arc::clone(&solo), solo]);
    for validation in [ValidationLevel::Off, ValidationLevel::Counts] {
        let mut machine = isolated(4)
            .with_validation(validation);
        let mut a = seeded_array(n, 4);
        let mut b = seeded_array(n, 4);
        a.current(&mut machine, 0).fill(|p| p[0] as f64);
        b.current(&mut machine, 0).fill(|p| p[0] as f64);
        // Sabotage through the public field: the status still says 0.
        a.copies[0] = None;
        let (stats, mem) = (machine.stats, machine.mem.current.clone());
        let missing = ExecError::MissingCopy { array: "a".into(), version: 0 };

        let solo = a.try_remap_guarded(&mut machine, 1, &keep, false, &skip);
        assert_eq!(solo, Err(missing.clone()));
        assert_eq!(machine.stats, stats, "solo: nothing was billed ({validation:?})");
        assert_eq!(machine.mem.current, mem, "solo: nothing was allocated ({validation:?})");
        assert!(a.copies[1].is_none() && a.status == Some(0) && !a.live[1]);

        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        assert_eq!(try_remap_group(&mut machine, &mut members, &planned), Err(missing));
        assert_eq!(machine.stats, stats, "group: nothing was billed ({validation:?})");
        assert_eq!(machine.mem.current, mem, "group: nothing was allocated ({validation:?})");
        assert!(a.copies[1].is_none() && b.copies[1].is_none());
        assert_eq!((a.status, b.status), (Some(0), Some(0)));
    }
}

/// The fault-site contract, pinned: a fault is decided at
/// `(epoch, stream, round_no, attempt)` and nowhere else, so for a
/// fixed `FaultPlan` the recovery counters are a pure function of the
/// remap sequence — the same through the one-lane (solo) and the
/// two-lane (group) replay, whose epochs and round structure coincide
/// here; only the table rung counts per lane. Rows 2 and 3 were
/// captured at the commit before solo, guarded and group replays were
/// folded into one core; row 1 was re-captured, at the commit before
/// the worker-panic class left the wire set, with that class already
/// out of the plan (the pick is taken modulo the enabled wire kinds).
#[test]
fn fault_sites_are_pinned_for_solo_and_group_bounces() {
    let counters = |m: &Machine| {
        let s = &m.stats;
        [
            s.faults_injected,
            s.rounds_retried,
            s.programs_recompiled,
            s.fallbacks_to_tables,
            s.parallel_degradations,
        ]
    };
    let wire = [FaultKind::CorruptRound, FaultKind::TruncateRound, FaultKind::DropRound];
    // (plan, validation, [solo, group])
    let pins = [
        (
            FaultPlan::new(101, 45, &wire),
            ValidationLevel::Checksums,
            [[20, 19, 1, 0, 0], [20, 19, 1, 0, 0]],
        ),
        (
            FaultPlan::new(202, 50, &[FaultKind::PoisonProgram, FaultKind::DropRound]),
            ValidationLevel::Counts,
            [[34, 29, 4, 1, 0], [34, 29, 4, 2, 0]],
        ),
        (
            FaultPlan::new(303, 100, &[FaultKind::CorruptRound]),
            ValidationLevel::Checksums,
            [[48, 36, 6, 6, 0], [48, 36, 6, 12, 0]],
        ),
    ];
    let n = 1u64 << 18;
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = |s: &NormalizedMapping, d: &NormalizedMapping| {
        Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    for (faults, validation, want) in pins {
        let machine = || isolated(4).with_faults(faults).with_validation(validation);
        let mut one = machine();
        let mut rt = seeded_array(n, 4);
        let shadow = bounce_and_oracle(&mut one, &mut rt, n, 6);
        assert_matches_oracle(&rt, &shadow, "pinned solo bounce");
        assert_eq!(counters(&one), want[0], "solo {faults:?}");

        let mut two = machine();
        let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
        let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
        let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
        a.current(&mut two, 0).fill(|p| p[0] as f64);
        b.current(&mut two, 0).fill(|p| 2.0 * p[0] as f64);
        for bounce in 0..6u32 {
            let (s, t) = if bounce % 2 == 0 { (0u32, 1u32) } else { (1, 0) };
            let mut members = [
                GroupMember { rt: &mut a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
            ];
            let planned = if s == 0 { &fwd } else { &back };
            assert_eq!(try_remap_group(&mut two, &mut members, planned).expect("group remap"), 2);
            a.set(&[0], 50.0 + bounce as f64);
            b.set(&[1], 70.0 + bounce as f64);
        }
        for i in 0..n {
            assert_eq!(a.get(&[i]), if i == 0 { 55.0 } else { i as f64 }, "a[{i}]");
            assert_eq!(b.get(&[i]), if i == 1 { 75.0 } else { 2.0 * i as f64 }, "b[{i}]");
        }
        assert_eq!(counters(&two), want[1], "group {faults:?}");

        // A group of one books what a solo remap books: the same bounce
        // through the group entry, one member per directive.
        let mut lone = machine();
        let fwd = PlannedGroup::compile(vec![solo(&src, &dst)]);
        let back = PlannedGroup::compile(vec![solo(&dst, &src)]);
        let mut g = ArrayRt::new("g", vec![src.clone(), dst.clone()], 8);
        g.current(&mut lone, 0).fill(|p| p[0] as f64 + 1.0);
        let mut shadow_g: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        for b in 0..6u32 {
            let (s, t) = if b % 2 == 0 { (0u32, 1u32) } else { (1, 0) };
            let mut members =
                [GroupMember { rt: &mut g, src: s, target: t, may_live: &keep, skip_if_current: &skip }];
            try_remap_group(&mut lone, &mut members, if s == 0 { &fwd } else { &back })
                .expect("a group of one heals like a solo remap");
            let touched = (7 * b as u64 + 3) % n;
            g.set(&[touched], 1000.0 + b as f64);
            shadow_g[touched as usize] = 1000.0 + b as f64;
        }
        assert_eq!(shadow_g, shadow, "the one-member bounce writes what the solo bounce writes");
        assert_matches_oracle(&g, &shadow, "pinned group-of-one bounce");
        assert_eq!(counters(&lone), want[0], "group of one {faults:?}");
        let books = |m: &Machine| {
            let s = &m.stats;
            (s.bytes, s.messages, s.time_us.to_bits(), s.remaps_performed, s.local_elements)
        };
        assert_eq!(books(&lone), books(&one), "group of one books the solo wire {faults:?}");
        assert_eq!((one.stats.bytes, one.stats.messages), (9_437_088, 72), "solo wire {faults:?}");
        assert_eq!(lone.stats.plans_computed, 0, "the group's artifacts were seeded");
    }
}

/// Injected ladder exhaustion is terminal by design — and transactional:
/// the typed error surfaces only after the destination version was
/// rolled back to its exact pre-remap state (bytes, status, live flags,
/// allocation), planned from seeded caches and through the registry.
#[test]
fn exhaustion_rolls_a_solo_remap_back_to_its_pre_remap_state() {
    let n = 4096u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    for seeded in [true, false] {
        let mut machine = isolated(4);
        // Plan through pre-seeded per-array caches, or through the
        // registry (shared artifacts).
        let mut rt = if seeded {
            seeded_array(n, 4)
        } else {
            ArrayRt::new(
                "a",
                vec![mk1d(n, 4, DimFormat::Block(None)), mk1d(n, 4, DimFormat::Cyclic(Some(3)))],
                8,
            )
        };
        // Two clean bounces: both versions allocated, v1 stale.
        let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 2);
        assert_eq!(rt.status, Some(0));
        assert!(rt.copies[1].is_some(), "v1 stays allocated (stale)");
        let pre = (rt.status, rt.live.clone(), rt.copies.clone());
        machine = machine.with_faults(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));

        // Preallocated destination: the rollback restores its bytes.
        let err = rt.try_remap_guarded(&mut machine, 1, &keep, false, &skip).unwrap_err();
        assert!(matches!(err, ExecError::Unrecovered { .. }), "typed terminal error: {err}");
        assert_eq!(machine.stats.txn_rollbacks, 1, "seeded={seeded}");
        assert_eq!(rt.status, pre.0, "status restored");
        assert_eq!(rt.live, pre.1, "live flags restored");
        assert_eq!(rt.copies, pre.2, "destination bytes are byte-identical to pre-remap");
        assert_matches_oracle(&rt, &shadow, "contents after rollback");

        // Fresh destination: the rollback frees the just-allocated copy.
        rt.free_copy(&mut machine, 1);
        let pre = (rt.status, rt.live.clone(), rt.copies.clone());
        let err = rt.try_remap_guarded(&mut machine, 1, &keep, false, &skip).unwrap_err();
        assert!(matches!(err, ExecError::Unrecovered { .. }), "typed terminal error: {err}");
        assert_eq!(machine.stats.txn_rollbacks, 2);
        assert!(rt.copies[1].is_none(), "the fresh destination copy was freed");
        assert_eq!((rt.status, &rt.live, &rt.copies), (pre.0, &pre.1, &pre.2));

        // The array is fully usable afterwards: drop the faults and
        // the same remap completes to the oracle.
        machine.faults = None;
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_matches_oracle(&rt, &shadow, "remap after rollback");
    }
}

/// Rollback byte-identity when the destination is written through
/// stride-family kernels, not flat triples: `cyclic(1)` destinations
/// compile to pure Gather families (zero residual triples), so the
/// transactional snapshot must capture — and the rollback must replay —
/// strided destination runs. A scratch capture that only walked the
/// residual triple list would restore nothing here and leave the
/// partial write behind.
#[test]
fn exhaustion_rolls_back_strided_kernel_destinations_byte_identically() {
    let n = 1u64 << 18;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(None));
    let fwd = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
    let back = Arc::new(PlannedRemap::compile(plan_redistribution(&dst, &src, 8)));
    // Pin the premise: both directions replay through stride families
    // exclusively — if the encoder ever left this shape to residual
    // triples, the test would silently stop covering the strided
    // capture path.
    for planned in [&fwd, &back] {
        let prog = planned.program.as_ref().expect("cyclic(1) bounce compiles");
        assert!(!prog.fams.is_empty(), "stride families drive this shape");
        assert!(prog.runs.is_empty(), "no residual triples for cyclic(1)");
    }
    let mut machine = isolated(4);
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    rt.seed_plan(0, 1, Arc::clone(&fwd));
    rt.seed_plan(1, 0, Arc::clone(&back));
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 2);
    assert_eq!(rt.status, Some(0));
    assert!(rt.copies[1].is_some(), "v1 stays allocated (stale)");
    let pre = (rt.status, rt.live.clone(), rt.copies.clone());
    machine = machine.with_faults(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));
    let err = rt.try_remap_guarded(&mut machine, 1, &keep, false, &BTreeSet::new()).unwrap_err();
    assert!(matches!(err, ExecError::Unrecovered { .. }), "typed terminal error: {err}");
    assert_eq!(machine.stats.txn_rollbacks, 1);
    assert_eq!(rt.status, pre.0, "status restored");
    assert_eq!(rt.live, pre.1, "live flags restored");
    assert_eq!(
        rt.copies, pre.2,
        "strided destination bytes are byte-identical to pre-remap"
    );
    assert_matches_oracle(&rt, &shadow, "contents after strided rollback");
    // And the array heals: without faults the same remap completes.
    machine.faults = None;
    remap(&mut rt, &mut machine, 1, &keep, false);
    assert_matches_oracle(&rt, &shadow, "remap after strided rollback");
    assert_eq!(machine.stats.plans_computed, 0, "seeded caches: recovery never plans");
}

/// What the transaction buys: a forced exhaustion writes, then rejects
/// — every executed round changes destination bytes — and the rollback
/// restores the stale destination byte-identically. (Rollback on the
/// guarded path is a safety property, not an option: the "off"
/// behaviour this test once contrasted it with no longer exists.)
#[test]
fn transactions_off_leaves_the_partial_write_behind() {
    let n = 4096u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let mut machine = isolated(4);
    let mut rt = seeded_array(n, 4);
    bounce_and_oracle(&mut machine, &mut rt, n, 2);
    // Refresh every element of the current copy so the stale v1
    // differs everywhere — any executed round must change bytes.
    rt.current(&mut machine, 0).fill(|p| 5000.0 + p[0] as f64);
    let shadow: Vec<f64> = (0..n).map(|i| 5000.0 + i as f64).collect();
    let pre_copies = rt.copies.clone();
    machine = machine.with_faults(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));
    let err = rt.try_remap_guarded(&mut machine, 1, &keep, false, &BTreeSet::new()).unwrap_err();
    assert!(matches!(err, ExecError::Unrecovered { .. }));
    assert_eq!(machine.stats.txn_rollbacks, 1);
    assert_eq!(rt.copies, pre_copies, "transaction restored the stale destination");
    // Status never moved, so reads stay correct.
    assert_eq!(rt.status, Some(0));
    assert_matches_oracle(&rt, &shadow, "reads via the unchanged status");
}

/// Group atomicity on the coalesced path: forced exhaustion of the
/// merged replay surfaces one typed error and rolls BOTH members back
/// to their byte-identical pre-directive state.
#[test]
fn exhaustion_rolls_a_coalesced_group_back_atomically() {
    let n = 4096u64;
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = |s: &NormalizedMapping, d: &NormalizedMapping| {
        Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
    let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
    let mut machine = isolated(4);
    let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    // One clean group bounce so both versions are allocated and the
    // writes leave every non-current copy stale.
    for (s, t, planned) in [(0u32, 1u32, &fwd), (1, 0, &back)] {
        let mut members = [
            GroupMember { rt: &mut a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
        ];
        assert_eq!(try_remap_group(&mut machine, &mut members, planned).expect("group remap"), 2);
        a.set(&[0], 90.0 + t as f64);
        b.set(&[1], 80.0 + t as f64);
    }
    let pre_a = (a.status, a.live.clone(), a.copies.clone());
    let pre_b = (b.status, b.live.clone(), b.copies.clone());
    machine = machine.with_faults(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));
    let err = {
        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &fwd).unwrap_err()
    };
    assert!(matches!(err, ExecError::Unrecovered { .. }), "typed terminal error: {err}");
    assert_eq!(machine.stats.group_rollbacks, 1);
    assert_eq!((a.status, &a.live, &a.copies), (pre_a.0, &pre_a.1, &pre_a.2), "member a");
    assert_eq!((b.status, &b.live, &b.copies), (pre_b.0, &pre_b.1, &pre_b.2), "member b");
    // Both arrays remain fully usable: the same directive completes
    // once the faults are gone.
    machine.faults = None;
    let mut members = [
        GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
    ];
    assert_eq!(try_remap_group(&mut machine, &mut members, &fwd).expect("group remap"), 2);
    for i in 0..n {
        let want_a = if i == 0 { 90.0 } else { i as f64 };
        let want_b = if i == 1 { 80.0 } else { 2.0 * i as f64 };
        assert_eq!(a.get(&[i]), want_a, "a[{i}] after the group healed");
        assert_eq!(b.get(&[i]), want_b, "b[{i}] after the group healed");
    }
}

/// Group atomicity below two movers: a member that already
/// committed cheaply (live-copy reuse — no replay at all) is
/// un-committed when a later sibling's ladder exhausts, so the group
/// still commits all members or none.
#[test]
fn a_failing_member_uncommits_its_already_replayed_sibling() {
    let n = 4096u64;
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = |s: &NormalizedMapping, d: &NormalizedMapping| {
        Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
    };
    let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    let mut machine = isolated(4);
    let mut a = seeded_array(n, 4);
    let mut b = seeded_array(n, 4);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    // a: remap 0->1 with no write afterwards — both copies stay live,
    // so its way back is a live-copy reuse (commits without replaying).
    remap(&mut a, &mut machine, 1, &keep, false);
    assert!(a.live[0] && a.live[1]);
    // b: remap 0->1 then write — its way back must move data.
    remap(&mut b, &mut machine, 1, &keep, false);
    b.set(&[5], 123.0);
    assert!(!b.live[0]);
    let pre_a = (a.status, a.live.clone(), a.copies.clone());
    let pre_b = (b.status, b.live.clone(), b.copies.clone());
    machine = machine.with_faults(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));
    // One mover (b) => it runs as a group of one: a
    // commits first by live-copy reuse, then b's ladder exhausts.
    let err = {
        let mut members = [
            GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &back).unwrap_err()
    };
    assert!(matches!(err, ExecError::Unrecovered { .. }));
    assert_eq!(machine.stats.remaps_reused_live, 1, "a had already committed");
    assert_eq!(machine.stats.group_rollbacks, 1);
    assert_eq!(a.status, Some(1), "a's commit was rolled back with its failing sibling");
    assert_eq!((a.status, &a.live, &a.copies), (pre_a.0, &pre_a.1, &pre_a.2), "member a");
    assert_eq!((b.status, &b.live, &b.copies), (pre_b.0, &pre_b.1, &pre_b.2), "member b");
    for i in 0..n {
        assert_eq!(a.get(&[i]), i as f64);
        let want_b = if i == 5 { 123.0 } else { 2.0 * i as f64 };
        assert_eq!(b.get(&[i]), want_b);
    }
}

/// An injected compile panic unwinds inside the registry's
/// compile-under-lock; it is contained to a typed decline (the shard
/// lock stays healthy), recovered by a clean solo compile published
/// registry-wide, and the remap itself completes to the oracle.
#[test]
fn a_contained_compile_panic_still_heals_to_the_oracle() {
    let n = 4096u64;
    let registry = Arc::new(PlanRegistry::new(2, 64));
    let mut machine = Machine::new(4)
        .with_registry(Arc::clone(&registry))
        .with_faults(FaultPlan::new(7, 100, &[FaultKind::CompilePanic]));
    let mut rt = ArrayRt::new(
        "a",
        vec![mk1d(n, 4, DimFormat::Block(None)), mk1d(n, 4, DimFormat::Cyclic(Some(3)))],
        8,
    );
    let shadow = bounce_and_oracle(&mut machine, &mut rt, n, 4);
    assert_matches_oracle(&rt, &shadow, "compilepanic@100");
    // Each direction's first compile panicked (later bounces are plan
    // cache hits, so the kind cannot fire again); both were contained
    // and cleanly recompiled outside the lock.
    assert_eq!(machine.stats.faults_injected, 2);
    assert_eq!(machine.stats.plans_computed, 2);
    assert_eq!(registry.len(), 2, "the clean recompiles were published");
    assert_eq!(machine.stats.lock_poison_recoveries, 0, "no lock was ever poisoned");
    assert_eq!(machine.stats.txn_rollbacks, 0, "nothing terminal happened");
}

/// One drawn mapping configuration (alignment + distribution
/// selectors); realized against a shared grid by [`realize_mapping`].
type MappingCfg = ((usize, usize), (i64, bool), i64, (usize, usize), u64);

fn mapping_cfg_strategy() -> impl Strategy<Value = MappingCfg> {
    (
        (0usize..5, 0usize..5),
        (1i64..4, prop::bool::ANY),
        0i64..3,
        (0usize..4, 0usize..4),
        1u64..4,
    )
}

/// A trimmed mirror of `proptest_redist.rs`'s rich mapping space:
/// strided/offset/negative alignments, constants, replication, 2-D
/// grids, every distribution format — enough shape diversity that the
/// caterpillar structure varies wildly under chaos. Both endpoints of a
/// remap share one grid: `Machine` memory and schedule accounting both
/// index processor ranks of that grid.
fn realize_mapping(n0: u64, n1: u64, grid: (u64, u64), cfg: MappingCfg) -> NormalizedMapping {
    let ((al0, al1), (s_abs, neg), oslack, (f0, f1), b) = cfg;
    let stride = if neg { -s_abs } else { s_abs };
    let nmax = n0.max(n1);
    let text = 3 * nmax + 8;
    let mk_target = |sel: usize, dim: usize| match sel {
        0 => AlignTarget::identity(dim),
        1 => {
            let n = if dim == 0 { n0 } else { n1 };
            let offset = if stride < 0 { (-stride) * (n as i64 - 1) + oslack } else { oslack };
            AlignTarget::Axis { array_dim: dim, stride, offset }
        }
        2 => AlignTarget::Replicate,
        3 => AlignTarget::Constant(oslack),
        _ => AlignTarget::Axis { array_dim: dim, stride: 2, offset: 1 },
    };
    let align = Alignment {
        template: TemplateId(0),
        targets: vec![mk_target(al0, 0), mk_target(al1, 1)],
    };
    let mk_fmt = |sel: usize| match sel {
        0 => DimFormat::Block(None),
        1 => DimFormat::Cyclic(None),
        2 => DimFormat::Cyclic(Some(b)),
        _ => DimFormat::Collapsed,
    };
    let template =
        Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[text, text]) };
    let grid = ProcGrid {
        id: GridId(0),
        name: "P".into(),
        shape: Extents::new(&[grid.0, grid.1]),
    };
    Mapping { align, dist: Distribution::new(GridId(0), vec![mk_fmt(f0), mk_fmt(f1)]) }
        .normalize(&Extents::new(&[n0, n1]), &template, &grid)
        .expect("constructed mapping is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine survives EVERY fault class at random sites over the
    /// rich mapping space: each fault-ridden bounce either heals (the
    /// ladder absorbs the fault) or surfaces a typed error after the
    /// transaction rolled the destination back — so in both cases every
    /// element equals the per-point shadow oracle at every step, and
    /// recovery never planned.
    #[test]
    fn chaos_over_rich_mappings_heals_to_the_oracle(
        grid in (1u64..4, 1u64..4),
        src_cfg in mapping_cfg_strategy(),
        dst_cfg in mapping_cfg_strategy(),
        seed in 0u64..1_000_000,
        rate in 20u32..=100,
    ) {
        let src = realize_mapping(6, 5, grid, src_cfg);
        let dst = realize_mapping(6, 5, grid, dst_cfg);
        let nprocs = src.grid_shape.volume();
        let mut machine = isolated(nprocs)
            .with_faults(FaultPlan::all(seed, rate))
            .with_validation(ValidationLevel::Checksums);
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.seed_plan(0, 1, Arc::new(PlannedRemap::compile(
            plan_redistribution(&src, &dst, 8))));
        rt.seed_plan(1, 0, Arc::new(PlannedRemap::compile(
            plan_redistribution(&dst, &src, 8))));
        rt.current(&mut machine, 0).fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        let mut shadow = vec![0.0f64; 30];
        for p0 in 0..6u64 {
            for p1 in 0..5u64 {
                shadow[(p0 * 5 + p1) as usize] = (p0 * 31 + p1 * 7 + 1) as f64;
            }
        }
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        for b in 0..3u32 {
            let before = machine.stats.txn_rollbacks;
            let hop = rt.try_remap_guarded(&mut machine, 1 - (b % 2), &keep, false, &BTreeSet::new());
            if let Err(e) = hop {
                // Injected ladder exhaustion: the error is typed
                // and the transaction rolled the destination back,
                // so the array still matches the shadow below.
                prop_assert!(
                    matches!(e, ExecError::Unrecovered { .. }),
                    "unexpected terminal error under chaos seed {}: {}",
                    seed,
                    e
                );
                prop_assert!(
                    machine.stats.txn_rollbacks > before,
                    "terminal error without a rollback (seed {} rate {})",
                    seed,
                    rate
                );
            }
            let (p0, p1) = ((b as u64 * 2 + 1) % 6, (b as u64 * 3 + 2) % 5);
            rt.set(&[p0, p1], 500.0 + b as f64);
            shadow[(p0 * 5 + p1) as usize] = 500.0 + b as f64;
        }
        for p0 in 0..6u64 {
            for p1 in 0..5u64 {
                prop_assert_eq!(
                    rt.get(&[p0, p1]),
                    shadow[(p0 * 5 + p1) as usize],
                    "({}, {}) diverged under chaos seed {} rate {}",
                    p0, p1, seed, rate
                );
            }
        }
        prop_assert_eq!(machine.stats.plans_computed, 0, "recovery never plans");
    }

    /// Forced exhaustion over the whole mapping space: any remap that
    /// moves data surfaces the typed terminal error with the array
    /// rolled back to its exact pre-remap state; a remap that moves
    /// nothing (replication/collapse can make it a pure reuse) simply
    /// succeeds with nothing to roll back.
    #[test]
    fn forced_exhaustion_always_rolls_back_over_the_mapping_space(
        grid in (1u64..4, 1u64..4),
        src_cfg in mapping_cfg_strategy(),
        dst_cfg in mapping_cfg_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let src = realize_mapping(6, 5, grid, src_cfg);
        let dst = realize_mapping(6, 5, grid, dst_cfg);
        let nprocs = src.grid_shape.volume();
        let mut machine = isolated(nprocs)
            .with_faults(FaultPlan::new(seed, 100, &[FaultKind::Exhaust]));
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.seed_plan(0, 1, Arc::new(PlannedRemap::compile(
            plan_redistribution(&src, &dst, 8))));
        rt.current(&mut machine, 0).fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let pre = (rt.status, rt.live.clone(), rt.copies.clone());
        match rt.try_remap_guarded(&mut machine, 1, &keep, false, &BTreeSet::new()) {
            Ok(()) => {
                prop_assert_eq!(machine.stats.txn_rollbacks, 0);
            }
            Err(e) => {
                prop_assert!(matches!(e, ExecError::Unrecovered { .. }), "{}", e);
                prop_assert_eq!(machine.stats.txn_rollbacks, 1);
                prop_assert_eq!(&rt.status, &pre.0, "status restored");
                prop_assert_eq!(&rt.live, &pre.1, "live flags restored");
                prop_assert_eq!(&rt.copies, &pre.2, "bytes restored");
            }
        }
    }
}
