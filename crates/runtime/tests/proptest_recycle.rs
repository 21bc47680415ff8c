//! Differential harness for recycled version storage and the
//! cache-blocked serial replay order.
//!
//! Both are host-side only: which buffer a version's words live in, and
//! in which order a serial replay visits its units. Neither may be
//! observable. This file pins that differentially over the format
//! families of `proptest_symbolic.rs` × P ∈ {2, 3, 4, 7, 8, 16}:
//!
//! * one remap / write / clean / restore / evict / rollback / group
//!   sequence is driven through a **recycling** session (the default:
//!   freed copies go whole to the process-wide pool and are handed
//!   back) and through a **poisoned** one, which drops NaN-filled
//!   versions of all three mappings into the pool before every step, so
//!   each allocation it makes reuses garbage — per-point values, status
//!   and live flags, `NetStats`, and `MemTracker` current/peak must
//!   agree after every step (a NaN anywhere fails the comparison, even
//!   against itself);
//! * every compiled program's serial order is a permutation of
//!   `local ∪ rounds`, blocked by one side's rank, and its replay equals
//!   the table engine and a per-point oracle, on a plan that equals
//!   `plan_by_enumeration`.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_mapping::{testing::mapping_1d as mk1d, DimFormat, NormalizedMapping};
use hpfc_runtime::{
    plan_by_enumeration, plan_redistribution, try_remap_group, ArrayRt, CopyUnit, ExecError,
    ExecMode, FaultKind, FaultPlan, GroupMember, Machine, NetStats, PlanRegistry, PlannedGroup,
    PlannedRemap, VersionData,
};

const PS: [u64; 6] = [2, 3, 4, 7, 8, 16];

/// 2^5 · 3^2 · 7: every P in [`PS`] leaves a different mix of full and
/// ragged blocks.
const N: u64 = 2016;

/// The format families of `proptest_symbolic.rs`, plus the `cyclic(1)`
/// bounce whose gather/scatter shape the replay order exists for.
fn families() -> Vec<(DimFormat, DimFormat)> {
    vec![
        (DimFormat::Cyclic(None), DimFormat::Cyclic(Some(3))),
        (DimFormat::Cyclic(Some(3)), DimFormat::Cyclic(None)),
        (DimFormat::Block(None), DimFormat::Cyclic(Some(5))),
        (DimFormat::Cyclic(Some(7)), DimFormat::Block(None)),
        (DimFormat::Cyclic(Some(2)), DimFormat::Cyclic(Some(16))),
        (DimFormat::Block(None), DimFormat::Cyclic(None)),
    ]
}

fn planned(src: &NormalizedMapping, dst: &NormalizedMapping) -> Arc<PlannedRemap> {
    Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, 8)))
}

fn set_of(vs: &[u32]) -> BTreeSet<u32> {
    vs.iter().copied().collect()
}

/// One side of the differential: a machine and two arrays over the same
/// three versions, every version pair seeded so nothing plans at run
/// time and the books of both sides stay comparable.
struct Session {
    machine: Machine,
    a: ArrayRt,
    b: ArrayRt,
    /// Whether garbage is pooled before every step ([`Session::poison`]).
    poisoned: bool,
}

impl Session {
    fn new(versions: &[NormalizedMapping], poisoned: bool) -> Session {
        let p = versions[0].grid_shape.volume();
        let registry = Arc::new(PlanRegistry::new(2, 64));
        let machine = Machine::new(p).with_registry(registry);
        let mut arrays = ["a", "b"].map(|name| ArrayRt::new(name, versions.to_vec(), 8));
        for rt in &mut arrays {
            for (s, src) in versions.iter().enumerate() {
                for (d, dst) in versions.iter().enumerate() {
                    if s != d {
                        rt.seed_plan(s as u32, d as u32, planned(src, dst));
                    }
                }
            }
        }
        let [a, b] = arrays;
        Session { machine, a, b, poisoned }
    }

    /// Drop a NaN-filled version of each mapping into the pool, where
    /// this session's next allocations find them.
    fn poison(&self) {
        for mapping in &self.a.mappings {
            let mut garbage = VersionData::new(mapping.clone(), 8);
            garbage.blocks.iter_mut().flatten().for_each(|b| b.data.fill(f64::NAN));
        }
    }

    /// Remap array `a`; every remap of the differential must succeed.
    fn remap_a(&mut self, target: u32, may_live: &BTreeSet<u32>, values_dead: bool) {
        let skip = BTreeSet::new();
        let machine = &mut self.machine;
        self.a.try_remap_guarded(machine, target, may_live, values_dead, &skip).expect("remap");
    }

    /// Everything an observer of the arrays and the machine can see.
    fn observe(&self) -> Observation {
        let values = |rt: &ArrayRt| -> Vec<f64> {
            if rt.status.is_none() {
                return Vec::new();
            }
            (0..N).map(|i| rt.get(&[i])).collect()
        };
        Observation {
            values: [values(&self.a), values(&self.b)],
            status: [self.a.status, self.b.status],
            live: [self.a.live.clone(), self.b.live.clone()],
            allocated: [self.a.allocated_bytes(), self.b.allocated_bytes()],
            stats: self.machine.stats,
            mem_current: self.machine.mem.current.clone(),
            mem_peak: self.machine.mem.peak.clone(),
        }
    }
}

#[derive(Debug, PartialEq)]
struct Observation {
    values: [Vec<f64>; 2],
    status: [Option<u32>; 2],
    live: [Vec<bool>; 2],
    allocated: [u64; 2],
    stats: NetStats,
    mem_current: Vec<u64>,
    mem_peak: Vec<u64>,
}

/// Apply `step` to both sessions and require identical observations.
fn both(ctx: &str, what: &str, pair: &mut [Session; 2], step: impl Fn(&mut Session)) {
    for s in pair.iter_mut() {
        if s.poisoned {
            s.poison();
        }
        step(s);
    }
    assert_eq!(pair[0].observe(), pair[1].observe(), "{ctx}: diverged after `{what}`");
}

fn group_remap(s: &mut Session, group: &PlannedGroup, src: u32, target: u32) {
    let (may_live, skip) = (set_of(&[target]), BTreeSet::new());
    let mut members = [&mut s.a, &mut s.b].map(|rt| GroupMember {
        rt,
        src,
        target,
        may_live: &may_live,
        skip_if_current: &skip,
    });
    let moved = try_remap_group(&mut s.machine, &mut members, group).expect("group remap");
    assert_eq!(moved, 2, "both members replay coalesced");
}

#[test]
fn recycled_storage_is_indistinguishable_from_fresh() {
    for (f0, f1) in families() {
        for p in PS {
            let ctx = format!("{f0:?}<->{f1:?} at P={p}");
            let versions =
                [mk1d(N, p, f0), mk1d(N, p, f1), mk1d(N, p, DimFormat::Cyclic(Some(4)))];
            let pair = &mut [false, true].map(|poisoned| Session::new(&versions, poisoned));

            both(&ctx, "instantiate", pair, |s| {
                s.a.current(&mut s.machine, 0).fill(|pt| 1.0 + pt[0] as f64);
                s.b.current(&mut s.machine, 0).fill(|pt| -1.0 - pt[0] as f64);
            });
            // The bounce whose cleaning frees the source: the second
            // leg lands in a recycled, un-zeroed buffer.
            both(&ctx, "remap 0->1, clean 0", pair, |s| {
                s.remap_a(1, &set_of(&[1]), false)
            });
            both(&ctx, "write", pair, |s| {
                s.a.set(&[3], 99.0);
                s.a.set(&[N - 1], 77.0);
            });
            both(&ctx, "remap 1->0 into recycled v0", pair, |s| {
                s.remap_a(0, &set_of(&[0]), false)
            });
            // Dead values: nothing is copied, so the recycled buffer
            // must have been zeroed.
            both(&ctx, "dead-values remap into recycled v1", pair, |s| {
                s.remap_a(1, &set_of(&[1]), true)
            });
            assert!(
                pair[0].observe().values[0].iter().all(|&x| x == 0.0),
                "{ctx}: a recycled copy claimed without a program reads zeros"
            );
            both(&ctx, "whole-array write", pair, |s| {
                s.a.current(&mut s.machine, 1).fill(|pt| 7.0 * pt[0] as f64);
                s.a.invalidate_others();
            });
            // A third version: an allocation no copy of this array
            // released.
            both(&ctx, "remap 1->2, clean 1", pair, |s| {
                s.remap_a(2, &set_of(&[2]), false)
            });
            both(&ctx, "remap 2->0, keep 2", pair, |s| {
                s.remap_a(0, &set_of(&[0, 2]), false)
            });
            both(&ctx, "restore 2 (live reuse)", pair, |s| {
                s.a.try_restore(&mut s.machine, 2, &set_of(&[0, 2]), false).expect("restore")
            });
            both(&ctx, "write, restore 0", pair, |s| {
                s.a.set(&[5], -5.0);
                s.a.try_restore(&mut s.machine, 0, &set_of(&[0, 2]), false).expect("restore")
            });
            both(&ctx, "evict 2, regenerate", pair, |s| {
                assert!(s.a.evict(&mut s.machine, 2));
                s.remap_a(2, &set_of(&[2]), false)
            });
            // Guarded remaps under forced ladder exhaustion: first
            // into a fresh destination (the rollback frees it again),
            // then into a preallocated one (its bytes are restored).
            both(&ctx, "rollback of a fresh destination", pair, |s| {
                s.machine.faults = Some(FaultPlan::new(97, 100, &[FaultKind::Exhaust]));
                let skip = BTreeSet::new();
                let err = s.a.try_remap_guarded(&mut s.machine, 1, &set_of(&[1]), false, &skip);
                assert!(matches!(err, Err(ExecError::Unrecovered { .. })));
                assert_eq!(s.a.status, Some(2));
                s.machine.faults = None;
            });
            both(&ctx, "remap 2->1, keep 2", pair, |s| {
                s.remap_a(1, &set_of(&[1, 2]), false);
                s.a.set(&[11], 11.5);
            });
            both(&ctx, "rollback of a preallocated destination", pair, |s| {
                s.machine.faults = Some(FaultPlan::new(98, 100, &[FaultKind::Exhaust]));
                let skip = BTreeSet::new();
                let err = s.a.try_remap_guarded(&mut s.machine, 2, &set_of(&[2]), false, &skip);
                assert!(matches!(err, Err(ExecError::Unrecovered { .. })));
                s.machine.faults = None;
            });
            both(&ctx, "remap 1->0, clean all", pair, |s| {
                s.remap_a(0, &set_of(&[0]), false)
            });
            // Group bounce: both members' targets are claimed from
            // pooled storage by their member programs.
            let fwd = PlannedGroup::compile(vec![planned(&versions[0], &versions[1]); 2]);
            let back = PlannedGroup::compile(vec![planned(&versions[1], &versions[0]); 2]);
            both(&ctx, "group 0->1", pair, |s| group_remap(s, &fwd, 0, 1));
            both(&ctx, "write both", pair, |s| {
                s.a.set(&[1], 0.25);
                s.b.set(&[2], 0.5);
            });
            both(&ctx, "group 1->0", pair, |s| group_remap(s, &back, 1, 0));
            both(&ctx, "group 0->1 again", pair, |s| group_remap(s, &fwd, 0, 1));
            assert_eq!(pair[0].machine.stats.plans_computed, 0, "{ctx}: seeded, never plans");
            assert_eq!(pair[0].machine.stats.txn_rollbacks, 2, "{ctx}");
        }
    }
}

/// Extent whose blocks span several tiles of the serial walk at P ≤ 3
/// (the walk sweeps 32768-element tiles), ragged like [`N`].
const N_TILED: u64 = 2 * 32768 * 3 + 2016;

#[test]
fn serial_order_is_a_blocked_permutation_and_replays_like_the_tables() {
    for (f0, f1) in families() {
        for (n, p) in PS.map(|p| (N, p)).into_iter().chain([(N_TILED, 2), (N_TILED, 3)]) {
            for (fs, fd) in [(f0, f1), (f1, f0)] {
                let ctx = format!("{fs:?}->{fd:?} at n={n}, P={p}");
                let (src, dst) = (mk1d(n, p, fs), mk1d(n, p, fd));
                let remap = planned(&src, &dst);
                assert_eq!(remap.plan, plan_by_enumeration(&src, &dst, 8), "{ctx}: plan");
                let program = remap.program.as_ref().expect("1-D block-cyclic compiles");

                // A permutation of `local ∪ rounds` ...
                let key = |u: &CopyUnit| (u.provider, u.receiver);
                let walk: Vec<CopyUnit> = program.serial_order().copied().collect();
                let mut walked = walk.clone();
                let mut stored: Vec<CopyUnit> =
                    program.local.iter().chain(program.rounds.iter().flatten()).copied().collect();
                walked.sort_by_key(key);
                stored.sort_by_key(key);
                assert_eq!(walked, stored, "{ctx}: serial order visits every unit once");
                // ... blocked by one side's rank.
                let major = |k: fn(&CopyUnit) -> (u64, u64)| walk.windows(2).all(|w| k(&w[0]) < k(&w[1]));
                assert!(
                    major(|u| (u.provider, u.receiver)) || major(|u| (u.receiver, u.provider)),
                    "{ctx}: neither provider-major nor receiver-major"
                );

                let mut a = VersionData::new(src, 8);
                a.fill(|pt| (5 * pt[0] + 1) as f64);
                let mut serial = VersionData::new(dst, 8);
                serial.copy_values_from_program(&a, program, ExecMode::Serial);
                let mut tables = VersionData::new(serial.mapping.clone(), 8);
                tables.copy_values_from_plan(&a, &remap.plan);
                assert_eq!(serial, tables, "{ctx}: replay vs table engine");
                for (i, got) in serial.to_dense().iter().enumerate() {
                    assert_eq!(*got, (5 * i as u64 + 1) as f64, "{ctx}: element {i}");
                }
            }
        }
    }
}
