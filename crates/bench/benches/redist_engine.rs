//! Remap-engine micro-groups with no equivalent in the benchmark of
//! record (`benchmark/`, whose trace re-drive measures planning,
//! program compile, replay against the memcpy roofline, the registry,
//! symbolic instantiation and group remaps by name): the cached bounce
//! against per-iteration replanning, the save/restore bounce, and what
//! validation and the armed transaction add to a bounce.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, Criterion};
use hpfc::mapping::{testing::mapping_1d as mk, DimFormat};
use hpfc::runtime::{plan_redistribution, ArrayRt, Machine, ValidationLevel, VersionData};

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

/// The plan-caching payoff: a remap loop that bounces an array between
/// two mappings. `replan_every_iter` pays the ~tens-of-µs closed-form
/// planning on every bounce (the pre-cache behavior); `cached` goes
/// through [`ArrayRt`], which memoizes plan + schedule per (src, dst)
/// version pair — after the first bounce the replan cost disappears and
/// only the O(n) data movement remains.
fn bench_remap_loop_caching(c: &mut Criterion) {
    let n = 16384u64;
    let mut g = c.benchmark_group("redist/remap_loop");
    let src = mk(n, 16, DimFormat::Block(None));
    let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));

    g.bench_function("replan_every_iter", |b| {
        let mut a = VersionData::new(src.clone(), 8);
        a.fill(|p| p[0] as f64);
        let mut t = VersionData::new(dst.clone(), 8);
        b.iter(|| {
            let plan = plan_redistribution(&src, &dst, 8);
            t.copy_values_from_plan(&a, &plan);
            let plan_back = plan_redistribution(&dst, &src, 8);
            a.copy_values_from_plan(&t, &plan_back);
            std::hint::black_box((&a, &t));
        })
    });

    g.bench_function("cached", |b| {
        let mut m = Machine::new(16);
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.current(&mut m, 0).fill(|p| p[0] as f64);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        b.iter(|| {
            remap(&mut rt, &mut m, 1, &keep, false);
            rt.set(&[0], 1.0); // stale the other copy: data moves every time
            remap(&mut rt, &mut m, 0, &keep, false);
            rt.set(&[1], 1.0);
            std::hint::black_box(&rt);
        })
    });
    g.finish();
}

/// The restore path (Fig. 18): a save/restore bounce around a call —
/// remap to the callee's version, write there (staling the saved
/// copy), restore to the saved tag. `cached` is the post-lowering
/// behavior: the restore arm was planned at compile time and seeded
/// into the cache, so the bounce is tag dispatch + compiled program
/// replay.
fn bench_restore_bounce(c: &mut Criterion) {
    let n = 16384u64;
    let mut g = c.benchmark_group("redist/restore_bounce");
    let saved_m = mk(n, 16, DimFormat::Block(None));
    let dummy_m = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let saved: u32 = 0;
    let dummy: u32 = 1;
    let keep: BTreeSet<u32> = [saved, dummy].into_iter().collect();

    g.bench_function("cached", |b| {
        let mut m = Machine::new(16);
        let mut rt = ArrayRt::new("a", vec![saved_m.clone(), dummy_m.clone()], 8);
        rt.current(&mut m, saved).fill(|p| p[0] as f64);
        b.iter(|| {
            remap(&mut rt, &mut m, dummy, &keep, false);
            rt.set(&[0], 1.0); // the callee writes: the saved copy stales
            rt.try_restore(&mut m, saved, &keep, false).expect("restore");
            std::hint::black_box(&rt);
        })
    });
    g.finish();
}

/// The cached bounce of `redist/remap_loop` on a machine verifying at
/// `validation` — the body of the two overhead groups below.
fn cached_bounce(validation: ValidationLevel, b: &mut criterion::Bencher) {
    let n = 16384u64;
    let src = mk(n, 16, DimFormat::Block(None));
    let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let mut m = Machine::new(16).with_validation(validation);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut m, 0).fill(|p| p[0] as f64);
    b.iter(|| {
        remap(&mut rt, &mut m, 1, &keep, false);
        rt.set(&[0], 1.0); // stale the other copy: data moves every time
        remap(&mut rt, &mut m, 0, &keep, false);
        rt.set(&[1], 1.0);
        std::hint::black_box(&rt);
    })
}

/// What the failure model costs when it is off — and when it is on.
/// `validation_off` is the default machine (no `FaultPlan`,
/// `ValidationLevel::Off`) and must be indistinguishable from the plain
/// cached bounce — the guarded ladder is compiled out of the path by
/// one branch; `counts_on` adds the per-round conservation check (an
/// integer sum the replay already has); `checksums_on` pays one extra
/// read pass over source and destination words per round — the price of
/// detecting single-word corruption.
fn bench_fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/fault_overhead");
    g.bench_function("validation_off", |b| cached_bounce(ValidationLevel::Off, b));
    g.bench_function("counts_on", |b| cached_bounce(ValidationLevel::Counts, b));
    g.bench_function("checksums_on", |b| cached_bounce(ValidationLevel::Checksums, b));
    g.finish();
}

/// What the transaction costs. `txn_on_default` is the default machine
/// (no faults, no validation): the rollback record is armed only on the
/// guarded path, so this must be indistinguishable from the plain
/// cached bounce — the transactional machinery is one branch here.
/// `txn_on_counts` runs guarded AND armed: every bounce records the
/// array state into the machine's reused scratch arena and, both copies
/// staying allocated, stages its target — the replay writes a spare
/// drawn from the pool while the old copy waits in the record — then
/// commits: the true price of
/// all-or-nothing remaps. (`redist/fault_overhead`'s guarded bounces
/// stage the same way.)
fn bench_txn_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/txn_overhead");
    g.bench_function("txn_on_default", |b| cached_bounce(ValidationLevel::Off, b));
    g.bench_function("txn_on_counts", |b| cached_bounce(ValidationLevel::Counts, b));
    g.finish();
}

criterion_group!(
    benches,
    bench_remap_loop_caching,
    bench_restore_bounce,
    bench_fault_overhead,
    bench_txn_overhead
);
criterion_main!(benches);
