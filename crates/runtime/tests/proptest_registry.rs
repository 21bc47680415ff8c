//! Many-session concurrency harness for the shared plan registry:
//! N threads × M interpreter-style sessions draw mapping pairs from a
//! shared pool, every session's data is checked against a per-point
//! oracle, and the registry's accounting is pinned *exactly* — the
//! whole process compiles one plan per distinct interned direction
//! (never per session), hit/miss/eviction counters balance under a
//! forced-eviction cap, the cap bounds every resident artifact, and
//! nothing deadlocks.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_mapping::{DimFormat, NormalizedMapping};
use hpfc_runtime::{ArrayRt, Machine, NetStats, PlanRegistry};

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

/// Two array shapes, a 1-D and a 2-D one: [`PlanRegistry::resolve`]
/// keys both by their interned mapping pair, so every assertion below
/// holds for both alike.
#[derive(Clone, Copy, Debug)]
enum Shape {
    OneD,
    TwoD,
}

/// `k` distinct (src, dst) pairs — distinct extents, so each interns to
/// its own identity and the registry holds `2k` directional artifacts
/// when warm. Extents are unique to this file so the process-wide
/// interner never collides with another test's pairs.
fn pool(shape: Shape, k: usize) -> Vec<(NormalizedMapping, NormalizedMapping)> {
    use hpfc_mapping::testing::mapping_2d;
    (0..k)
        .map(|i| match shape {
            Shape::OneD => {
                let n = 3072 + 128 * i as u64;
                (mk1d(n, 4, DimFormat::Block(None)), mk1d(n, 4, DimFormat::Cyclic(Some(3))))
            }
            Shape::TwoD => {
                let n = 56 + 4 * i as u64;
                (
                    mapping_2d(n, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]),
                    mapping_2d(n, 4, vec![DimFormat::Collapsed, DimFormat::Cyclic(Some(3))]),
                )
            }
        })
        .collect()
}

/// One session: a fresh array over `(src, dst)` on a fresh machine
/// wired to the shared registry, bounced `bounces` times with a write
/// after every hop, verified against a per-point shadow oracle.
/// Returns the session's stats for merging. The fresh local plan cache
/// means exactly the first hop in each direction consults the
/// registry; every later hop is a local cache hit.
fn run_session(
    registry: &Arc<PlanRegistry>,
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    bounces: u32,
) -> (NetStats, ArrayRt) {
    let n = src.array_extents.volume();
    // Row-major point of flat index `i`, at the array's rank.
    let cols = src.array_extents.extent(src.array_extents.rank() - 1);
    let point = |i: u64| match src.array_extents.rank() {
        1 => vec![i],
        _ => vec![i / cols, i % cols],
    };
    let flat = |p: &[u64]| p.iter().fold(0, |acc, &x| acc * cols + x);
    let mut machine = Machine::new(4).with_registry(Arc::clone(registry));
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    rt.current(&mut machine, 0).fill(|p| (3 * flat(p) + 11) as f64);
    let mut shadow: Vec<f64> = (0..n).map(|i| (3 * i + 11) as f64).collect();
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for b in 0..bounces {
        remap(&mut rt, &mut machine, 1 - (b % 2), &keep, false);
        let touched = (13 * b as u64 + 5) % n;
        rt.set(&point(touched), 9000.0 + b as f64);
        shadow[touched as usize] = 9000.0 + b as f64;
    }
    for (i, want) in shadow.iter().enumerate() {
        assert_eq!(rt.get(&point(i as u64)), *want, "element {i} diverged from the oracle");
    }
    (machine.stats, rt)
}

/// The tentpole pin: 4 threads × 3 sessions over a 5-pair pool, with
/// staggered starts so threads contend on the same cold pairs. The
/// merged books must show exactly one compile per distinct direction
/// — `plans_computed == 2 × pairs`, however many sessions raced — and
/// hits account for every other registry consultation. The registry
/// shard locks and the interner locks must compose across the session
/// threads without deadlock.
#[test]
fn many_sessions_compile_once_per_distinct_pair() {
    const THREADS: usize = 4;
    const SESSIONS: usize = 3;
    const PAIRS: usize = 5;
    for shape in [Shape::OneD, Shape::TwoD] {
        let registry = Arc::new(PlanRegistry::new(4, 1024));
        let pairs = Arc::new(pool(shape, PAIRS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let pairs = Arc::clone(&pairs);
                std::thread::spawn(move || {
                    let mut stats = NetStats::default();
                    for s in 0..SESSIONS {
                        // Staggered: thread t's first session starts on
                        // pair t, so cold pairs are hammered concurrently.
                        let (src, dst) = &pairs[(t + s) % PAIRS];
                        let (session, _) = run_session(&registry, src, dst, 4);
                        stats.merge(&session);
                    }
                    stats
                })
            })
            .collect();
        let mut total = NetStats::default();
        for h in handles {
            total.merge(&h.join().expect("session thread panicked"));
        }
        // One compile per distinct direction, ever — concurrent cold
        // requests for one pair must collapse onto a single compilation.
        assert_eq!(total.plans_computed, 2 * PAIRS as u64, "{total:?}");
        assert_eq!(total.registry_misses, 2 * PAIRS as u64, "{total:?}");
        // Every other registry consultation was a hit: each of the 12
        // sessions consults the registry once per direction.
        let consultations = (THREADS * SESSIONS * 2) as u64;
        assert_eq!(total.registry_hits, consultations - 2 * PAIRS as u64, "{total:?}");
        assert_eq!(total.registry_evictions, 0, "a generous cap never evicts");
        assert_eq!(registry.len(), 2 * PAIRS, "{shape:?}");
        assert_eq!((registry.hits(), registry.misses()), (total.registry_hits, total.registry_misses));
    }
}

/// The acceptance-criterion pin at the runtime layer: a second session
/// over already-registered pairs executes with `plans_computed == 0`
/// and only registry hits, and its local cache view holds the very
/// same `Arc`s as the first session's.
#[test]
fn a_second_session_is_served_entirely_by_the_registry() {
    for shape in [Shape::OneD, Shape::TwoD] {
        let registry = Arc::new(PlanRegistry::new(2, 64));
        let pairs = pool(shape, 1);
        let (src, dst) = &pairs[0];
        let (s1, rt1) = run_session(&registry, src, dst, 4);
        assert_eq!((s1.plans_computed, s1.registry_misses, s1.registry_hits), (2, 2, 0), "{s1:?}");
        let (s2, rt2) = run_session(&registry, src, dst, 4);
        assert_eq!(s2.plans_computed, 0, "{s2:?}");
        assert_eq!((s2.registry_misses, s2.registry_hits), (0, 2), "{s2:?}");
        // Not equal artifacts — pointer-identical ones.
        for key in [(0u32, 1u32), (1, 0)] {
            assert!(
                Arc::ptr_eq(&rt1.plan_cache[&key], &rt2.plan_cache[&key]),
                "sessions must share one artifact for {key:?}"
            );
        }
    }
}

/// Forced-eviction accounting: one shard, two slots, three pairs in
/// round-robin. Every session runs two back-to-back fresh arrays over
/// its pair — the first pulls both directions in (two misses, evicting
/// the coldest resident artifacts), the second re-reads them while
/// still resident (two hits). Every counter is pinned exactly, and
/// identically for both shapes.
#[test]
fn eviction_counters_are_exact_under_a_tiny_cap() {
    for shape in [Shape::OneD, Shape::TwoD] {
        let registry = Arc::new(PlanRegistry::new(1, 2));
        let pairs = pool(shape, 3);
        const ROUNDS: usize = 3;
        let mut total = NetStats::default();
        let mut sessions = 0u64;
        for _ in 0..ROUNDS {
            for (src, dst) in &pairs {
                for _ in 0..2 {
                    let (stats, _) = run_session(&registry, src, dst, 4);
                    total.merge(&stats);
                }
                sessions += 1;
            }
        }
        // Per pair-session: 2 misses (fresh array A), 2 hits (fresh array
        // B, entries still the warmest), and — once the two slots filled —
        // each miss evicts the coldest resident, so only the very first
        // session's two inserts land in empty slots.
        assert_eq!(total.plans_computed, 2 * sessions, "{total:?}");
        assert_eq!(total.registry_misses, 2 * sessions, "{total:?}");
        assert_eq!(total.registry_hits, 2 * sessions, "{total:?}");
        assert_eq!(total.registry_evictions, 2 * sessions - 2, "{total:?}");
        assert_eq!(registry.len(), 2, "the cap bounds residency");
        assert_eq!(registry.evictions(), total.registry_evictions);
    }
}

/// Lock-poison recovery at the session layer: a thread panics while
/// holding a shard lock (poisoning it); the next session over that
/// shard is still served — both directions compile and register
/// normally — with the recovery counted, never `unwrap`-panicked. The
/// recovery also heals the lock for good (`clear_poison`), so later
/// sessions cross it without recovering again.
#[test]
fn a_poisoned_shard_lock_never_reaches_a_later_session() {
    for shape in [Shape::OneD, Shape::TwoD] {
        // One shard: every registry access crosses the poisoned lock.
        let registry = Arc::new(PlanRegistry::new(1, 64));
        let pairs = pool(shape, 1);
        let (src, dst) = &pairs[0];
        let poisoner = std::thread::spawn({
            let registry = Arc::clone(&registry);
            let (src, dst) = (src.clone(), dst.clone());
            move || registry.poison_shard_lock_for_tests(&src, &dst, 8)
        });
        assert!(poisoner.join().is_err(), "the hook panics while holding the shard lock");

        let (s1, _) = run_session(&registry, src, dst, 4);
        assert_eq!((s1.plans_computed, s1.registry_misses, s1.registry_hits), (2, 2, 0), "{s1:?}");
        assert_eq!(s1.lock_poison_recoveries, 1, "the first access recovered the guard");
        assert_eq!(registry.lock_recoveries(), 1);

        let (s2, _) = run_session(&registry, src, dst, 4);
        assert_eq!(s2.plans_computed, 0, "{s2:?}");
        assert_eq!(s2.lock_poison_recoveries, 0, "the recovery healed the lock for good");
        assert_eq!(registry.lock_recoveries(), 1);
    }
}

/// The cap bounds every resident artifact, not a family of them: one
/// `(format, format)` pair — `CYCLIC(4) -> CYCLIC` over one template —
/// at 40 distinct processor counts is 40 mapping pairs, and a registry
/// of two slots holds at most two of them, evicting exactly one per
/// compile once full.
#[test]
fn one_format_pair_at_many_processor_counts_stays_within_the_cap() {
    const N: u64 = 4096;
    let registry = PlanRegistry::new(1, 2);
    let counts: Vec<u64> = (2..42).collect();
    for &p in &counts {
        let (src, dst) = (mk1d(N, p, DimFormat::Cyclic(Some(4))), mk1d(N, p, DimFormat::Cyclic(None)));
        let (planned, _) = registry.resolve(&src, &dst, 8, false);
        assert!(planned.program.as_ref().is_some_and(|c| c.integrity_ok()), "P={p}");
        assert!(
            registry.len() + registry.sym_instances() <= 2,
            "P={p}: {} resident, {} instantiation points",
            registry.len(),
            registry.sym_instances()
        );
    }
    assert_eq!(registry.len(), 2);
    assert_eq!(registry.misses(), counts.len() as u64, "every processor count compiles");
    assert_eq!(registry.evictions(), counts.len() as u64 - 2);
}
