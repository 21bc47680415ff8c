//! Differential conformance harness for symbolic plans.
//!
//! The symbolic layer's whole contract is *identity*: an artifact
//! materialized by [`SymbolicPlan::instantiate`] must be byte-for-byte
//! the artifact direct compilation (`plan_redistribution` → caterpillar
//! schedule → stride-encoded program) produces at the same processor
//! count. This file pins that differentially — plan-for-plan,
//! schedule-for-schedule, program-fingerprint-for-fingerprint — for
//! every format family × P ∈ {2, 3, 4, 7, 8, 16, 64}, and replays the
//! instantiated programs serially and with per-round workers against a
//! per-point value oracle. The last test pins what the registry does
//! instead: it keys by mapping pair, so a fleet re-provisioned from
//! P = 16 to P = 64 compiles each new pair once.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_mapping::{format_pair, normalize_symbolic, DimFormat, NormalizedMapping};
use hpfc_runtime::{
    plan_redistribution, ArrayRt, ExecMode, Machine, NetStats, PlanRegistry, PlannedRemap,
    SymbolicPlan, VersionData,
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

/// The conformance grid of processor counts: small primes, powers of
/// two, composites, and the P = 16 → 64 re-provisioning endpoints.
const PS: [u64; 7] = [2, 3, 4, 7, 8, 16, 64];

/// Array/template extent: 2^5 · 3^2 · 7, so every P in [`PS`] leaves a
/// different mix of full and ragged blocks.
const N: u64 = 2016;

fn mk1d(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
    hpfc_mapping::testing::mapping_1d(n, p, fmt)
}

/// The format families under test. `BLOCK` (no explicit size) derives
/// its block from P, so it participates in the per-P differential but
/// is legitimately a *distinct* symbolic format at each P; the
/// fixed-block families are P-free and drive the cross-P tests.
fn families() -> Vec<(DimFormat, DimFormat)> {
    vec![
        (DimFormat::Cyclic(None), DimFormat::Cyclic(Some(3))),
        (DimFormat::Cyclic(Some(3)), DimFormat::Cyclic(None)),
        (DimFormat::Block(None), DimFormat::Cyclic(Some(5))),
        (DimFormat::Cyclic(Some(7)), DimFormat::Block(None)),
        (DimFormat::Cyclic(Some(2)), DimFormat::Cyclic(Some(16))),
    ]
}

/// Compile `(src, dst)` directly — the reference side of every
/// differential below.
fn direct(src: &NormalizedMapping, dst: &NormalizedMapping) -> PlannedRemap {
    PlannedRemap::compile(plan_redistribution(src, dst, 8))
}

/// Assert artifact identity between a symbolic instantiation and the
/// direct compilation, component by component so a divergence names
/// the layer that broke.
fn assert_identical(inst: &PlannedRemap, want: &PlannedRemap, ctx: &str) {
    assert_eq!(inst.plan, want.plan, "{ctx}: plan diverged");
    assert_eq!(inst.schedule, want.schedule, "{ctx}: schedule diverged");
    assert_eq!(
        inst.program.as_ref().map(|p| p.fingerprint),
        want.program.as_ref().map(|p| p.fingerprint),
        "{ctx}: program fingerprint diverged"
    );
    assert_eq!(inst.program, want.program, "{ctx}: compiled program diverged");
}

/// Every family × every P: extract the symbolic formats at that P,
/// instantiate, and the artifact must equal direct compilation exactly;
/// its program must also move real data correctly under both engines.
#[test]
fn instantiation_is_identical_to_direct_compilation_at_every_p() {
    for (fs, fd) in families() {
        for p in PS {
            let ctx = format!("{fs:?}->{fd:?} at P={p}");
            let src = mk1d(N, p, fs);
            let dst = mk1d(N, p, fd);
            let (sf, ps) = normalize_symbolic(&src).expect("family is symbolic");
            let (df, pd) = normalize_symbolic(&dst).expect("family is symbolic");
            assert_eq!((ps, pd), (p, p), "{ctx}: extracted P");
            let sym = SymbolicPlan::new(format_pair(sf, df), 8);
            let (inst, fresh) = sym.instantiate_planned(p, p, N).expect("realizable");
            assert!(fresh, "{ctx}: first instantiation materializes");
            assert_identical(&inst, &direct(&src, &dst), &ctx);

            // Per-point value oracle: replay the instantiated program
            // under both engines; every element must land where direct
            // normalization says it lives, with its exact value.
            let prog = inst.program.as_ref().expect("1-D block-cyclic compiles");
            for mode in [ExecMode::Serial, ExecMode::Parallel(4)] {
                let mut a = VersionData::new(src.clone(), 8);
                a.fill(|pt| (5 * pt[0] + 1) as f64);
                let mut b = VersionData::new(dst.clone(), 8);
                b.copy_values_from_program(&a, prog, mode);
                let dense = b.to_dense();
                for (i, got) in dense.iter().enumerate() {
                    assert_eq!(
                        *got,
                        (5 * i as u64 + 1) as f64,
                        "{ctx} ({mode:?}): element {i} diverged from the oracle"
                    );
                }
            }
        }
    }
}

/// The symbolic win itself: ONE parametric plan, extracted once at
/// P = 4, serves every processor count — including mixed
/// `p_src != p_dst` points — identically to direct compilation, and
/// the formats extracted at any other P are the *same* formats (the
/// format pair really is P-free). Fixed-block families only: `BLOCK`
/// derives its block size from P and legitimately keys per P.
#[test]
fn one_parametric_plan_serves_every_p() {
    let p_free: Vec<(DimFormat, DimFormat)> = families()
        .into_iter()
        .filter(|(a, b)| {
            !matches!(a, DimFormat::Block(None)) && !matches!(b, DimFormat::Block(None))
        })
        .collect();
    assert!(p_free.len() >= 3, "enough P-free families to be meaningful");
    for (fs, fd) in p_free {
        let ctx = format!("{fs:?}->{fd:?}");
        let (sf, _) = normalize_symbolic(&mk1d(N, 4, fs)).unwrap();
        let (df, _) = normalize_symbolic(&mk1d(N, 4, fd)).unwrap();
        let sym = SymbolicPlan::new(format_pair(sf, df), 8);
        for p in PS {
            let (inst, _) = sym.instantiate_planned(p, p, N).expect("realizable");
            assert_identical(
                &inst,
                &direct(&mk1d(N, p, fs), &mk1d(N, p, fd)),
                &format!("{ctx} instantiated from P=4 at P={p}"),
            );
            // P-free means P-free: re-extracting at this P yields the
            // very formats the plan was built from.
            assert_eq!(normalize_symbolic(&mk1d(N, p, fs)).unwrap().0, sf, "{ctx} at P={p}");
            assert_eq!(normalize_symbolic(&mk1d(N, p, fd)).unwrap().0, df, "{ctx} at P={p}");
        }
        // Mixed instantiation points: source and destination grids of
        // different sizes, still one parametric plan.
        for (p_src, p_dst) in [(3u64, 7u64), (16, 64), (64, 2)] {
            let (inst, _) = sym.instantiate_planned(p_src, p_dst, N).expect("realizable");
            assert_identical(
                &inst,
                &direct(&mk1d(N, p_src, fs), &mk1d(N, p_dst, fd)),
                &format!("{ctx} at P {p_src}->{p_dst}"),
            );
        }
        assert_eq!(sym.instances(), PS.len() + 3, "each point cached exactly once");
    }
}

/// One fleet member: a fresh array on a fresh machine wired to the
/// shared registry, bounced `bounces`
/// times with a write after every hop and checked against a per-point
/// shadow oracle. Returns the session stats for merging.
fn fleet_member(
    registry: &Arc<PlanRegistry>,
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    p: u64,
    bounces: u32,
) -> NetStats {
    let n = src.array_extents.volume();
    let mut machine = Machine::new(p).with_registry(Arc::clone(registry));
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    rt.current(&mut machine, 0).fill(|pt| (3 * pt[0] + 11) as f64);
    let mut shadow: Vec<f64> = (0..n).map(|i| (3 * i + 11) as f64).collect();
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for b in 0..bounces {
        remap(&mut rt, &mut machine, 1 - (b % 2), &keep, false);
        let touched = (13 * b as u64 + 5) % n;
        rt.set(&[touched], 9000.0 + b as f64);
        shadow[touched as usize] = 9000.0 + b as f64;
    }
    for (i, want) in shadow.iter().enumerate() {
        assert_eq!(rt.get(&[i as u64]), *want, "P={p}: element {i} diverged from the oracle");
    }
    machine.stats
}

/// The re-provisioning pin: a fleet of arrays remapped at P = 16
/// compiles one artifact per mapping pair. Re-launching it at P = 64
/// meets new mapping pairs, so each compiles exactly once more — the
/// second array of a family is served by the first one's compile — and
/// the registry holds one entry per (pair, P). Re-launching at a P
/// already seen computes zero plans.
#[test]
fn re_provisioning_p16_to_p64_compiles_each_new_pair_once() {
    let registry = Arc::new(PlanRegistry::new(4, 1024));
    // Two P-free families; each bounce direction is its own mapping
    // pair, so one launch spans 4 distinct pairs.
    let fams =
        [(DimFormat::Cyclic(None), DimFormat::Cyclic(Some(3))),
         (DimFormat::Cyclic(Some(5)), DimFormat::Cyclic(None))];
    const ARRAYS_PER_FAMILY: usize = 2;
    const PAIRS: usize = 4; // 2 families × 2 directions
    let launch = |p: u64| -> NetStats {
        let mut total = NetStats::default();
        for (fs, fd) in fams {
            for _ in 0..ARRAYS_PER_FAMILY {
                total.merge(&fleet_member(
                    &registry,
                    &mk1d(N, p, fs),
                    &mk1d(N, p, fd),
                    p,
                    4,
                ));
            }
        }
        total
    };
    let consultations = (2 * ARRAYS_PER_FAMILY * 2) as u64; // arrays × directions
    for (p, resident) in [(16, PAIRS), (64, 2 * PAIRS)] {
        let stats = launch(p);
        assert_eq!(stats.plans_computed, PAIRS as u64, "P={p}: {stats:?}");
        assert_eq!(stats.registry_misses, PAIRS as u64, "P={p}: {stats:?}");
        assert_eq!(stats.registry_hits, consultations - PAIRS as u64, "P={p}: {stats:?}");
        assert_eq!(registry.len(), resident, "one entry per mapping pair");
    }
    let again = launch(16);
    assert_eq!(again.plans_computed, 0, "P=16 is registered: {again:?}");
    assert_eq!(again.registry_hits, consultations, "{again:?}");
    assert_eq!(registry.len(), 2 * PAIRS);
}
