//! E23 — the redistribution-engine substrate (ref. [19]): closed-form
//! communication-set computation works on periodic interval
//! descriptors, so plan wall time must be near-constant from n = 1024
//! to n = 4194304 (the enumeration oracle is O(n) for contrast). Also
//! measures the full data movement, which is O(n) by nature but moves
//! block-level runs, not elements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpfc::mapping::{testing::mapping_1d as mk, DimFormat};
use hpfc::runtime::{
    plan_by_enumeration, plan_redistribution, ArrayRt, CommSchedule, CopyProgram, ExecMode,
    Machine, VersionData,
};

fn bench_plan_closed_form(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/plan_closed_form");
    for n in [1024u64, 16384, 262144, 4194304] {
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &(src, dst), |b, (s, d)| {
            b.iter(|| std::hint::black_box(plan_redistribution(s, d, 8)))
        });
    }
    g.finish();
}

/// Extent-independence under wrapping layouts on both sides: the
/// hyper-period (lcm of the two block-cyclic periods) is what planning
/// iterates, never the extent.
fn bench_plan_hyperperiod(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/plan_hyperperiod");
    for n in [1024u64, 16384, 262144, 4194304] {
        let src = mk(n, 16, DimFormat::Cyclic(Some(3)));
        let dst = mk(n, 16, DimFormat::Cyclic(Some(5)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &(src, dst), |b, (s, d)| {
            b.iter(|| std::hint::black_box(plan_redistribution(s, d, 8)))
        });
    }
    g.finish();
}

fn bench_plan_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/plan_enumeration_oracle");
    for n in [1024u64, 16384] {
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &(src, dst), |b, (s, d)| {
            b.iter(|| std::hint::black_box(plan_by_enumeration(s, d, 8)))
        });
    }
    g.finish();
}

/// The copy engines head to head on steady-state movement (destination
/// preallocated, plan/program precomputed — the cache-hit remap path):
/// `tables` is the PR-2 descriptor-table engine (positions re-derived
/// per copy via `count_below`); `program_tK` replays the compiled
/// `CopyProgram` serially (`t1`) or with K scoped workers per
/// caterpillar round. BLOCK → CYCLIC(1) is the engine's worst case —
/// every run degrades to a single element.
fn bench_data_movement(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/data_movement");
    for n in [1024u64, 16384, 262144, 4194304] {
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64);
        let mut t = VersionData::new(dst, 8);
        g.bench_function(BenchmarkId::new("tables", n), |b| {
            b.iter(|| {
                t.copy_values_from_plan(&a, &plan);
                std::hint::black_box(&t);
            })
        });
        for threads in [1usize, 2, 4] {
            let mode =
                if threads == 1 { ExecMode::Serial } else { ExecMode::Parallel(threads) };
            g.bench_function(BenchmarkId::new(format!("program_t{threads}"), n), |b| {
                b.iter(|| {
                    t.copy_values_from_program(&a, &program, mode);
                    std::hint::black_box(&t);
                })
            });
        }
    }
    g.finish();
}

/// Serial replay against the memcpy roofline: the `cyclic(1)` gather
/// (`block → cyclic`) and scatter (`cyclic → block`) legs at P = 16,
/// as bytes/s beside a plain `copy_from_slice` of the same payload.
/// At these extents every version (16 / 32 MiB) is several times L2, so
/// the gap to `memcpy` is the access pattern, not the instruction count.
fn bench_roofline(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/roofline");
    for n in [2097152u64, 4194304] {
        g.throughput(Throughput::Bytes(n * 8));
        let block = mk(n, 16, DimFormat::Block(None));
        let cyclic = mk(n, 16, DimFormat::Cyclic(None));
        for (name, src, dst) in
            [("block_to_cyclic", &block, &cyclic), ("cyclic_to_block", &cyclic, &block)]
        {
            let plan = plan_redistribution(src, dst, 8);
            let schedule = CommSchedule::from_plan(&plan);
            let program = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
            let mut a = VersionData::new(src.clone(), 8);
            a.fill(|p| p[0] as f64);
            let mut t = VersionData::new(dst.clone(), 8);
            g.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| {
                    t.copy_values_from_program(&a, &program, ExecMode::Serial);
                    std::hint::black_box(&t);
                })
            });
        }
        let (from, mut to) = (vec![1.0f64; n as usize], vec![0.0f64; n as usize]);
        g.bench_function(BenchmarkId::new("memcpy", n), |b| {
            b.iter(|| {
                to.copy_from_slice(std::hint::black_box(&from));
                std::hint::black_box(&to);
            })
        });
    }
    g.finish();
}

/// The kernel-dispatch A/B: stride-encoded run families replayed
/// through compile-time-chosen kernels vs the same program expanded
/// back to flat triples (`expand_to_triples`, the pre-encoding
/// representation). `cyclic(1)` is the adversarial shape for the
/// triple encoding — one 12-byte triple per element, ~48 MB at
/// n = 4194304 — which families collapse to O(P_src × P_dst) 24-byte
/// descriptors. The artifact byte counts are printed next to the
/// replay times so the shrink is recorded alongside the speed.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/kernel_dispatch");
    for n in [16384u64, 262144, 4194304] {
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let strided = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        let flat = strided.expand_to_triples();
        eprintln!(
            "redist/kernel_dispatch n={n}: artifact {} B strided vs {} B triples ({}x)",
            strided.artifact_bytes(),
            flat.artifact_bytes(),
            flat.artifact_bytes() / strided.artifact_bytes().max(1),
        );
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64);
        let mut t = VersionData::new(dst, 8);
        g.bench_function(BenchmarkId::new("strided", n), |b| {
            b.iter(|| {
                t.copy_values_from_program(&a, &strided, ExecMode::Serial);
                std::hint::black_box(&t);
            })
        });
        g.bench_function(BenchmarkId::new("triples", n), |b| {
            b.iter(|| {
                t.copy_values_from_program(&a, &flat, ExecMode::Serial);
                std::hint::black_box(&t);
            })
        });
    }
    g.finish();
}

/// The one-time cost the replay path buys its zero-per-copy price
/// with: compiling a plan + schedule into the flat triple program.
/// O(total runs) — the compiled artifact *is* the data movement, so
/// this scales with the extent, but it is paid once per (src, dst)
/// version pair and amortized over every later remap.
fn bench_copy_program_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/copy_program_compile");
    for n in [16384u64, 262144, 4194304] {
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        g.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(plan, schedule),
            |b, (plan, schedule)| {
                b.iter(|| std::hint::black_box(CopyProgram::try_compile(plan, schedule)))
            },
        );
    }
    g.finish();
}

fn bench_procs_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist/plan_vs_procs");
    for p in [4u64, 16, 64] {
        let src = mk(65536, p, DimFormat::Block(None));
        let dst = mk(65536, p, DimFormat::Cyclic(None));
        g.bench_with_input(BenchmarkId::from_parameter(p), &(src, dst), |b, (s, d)| {
            b.iter(|| std::hint::black_box(plan_redistribution(s, d, 8)))
        });
    }
    g.finish();
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
        let keep: std::collections::BTreeSet<u32> = [0u32, 1].into_iter().collect();
        b.iter(|| {
            rt.remap(&mut m, 1, &keep, false);
            rt.set(&[0], 1.0); // stale the other copy: data moves every time
            rt.remap(&mut m, 0, &keep, false);
            rt.set(&[1], 1.0);
            std::hint::black_box(&rt);
        })
    });
    g.finish();
}

/// Remap-as-a-service: 8 concurrent interpreter-style sessions (fresh
/// array + fresh machine each) bounce over a 4-pair pool. `shared`
/// wires every machine to one plan registry — after warm-up no session
/// ever plans; each one starts with two registry hits and replays
/// compiled programs. `solo` is the registry-disabled A/B: every
/// session re-plans both directions (closed-form plan + caterpillar
/// schedule + program compile × 16 per iteration). The gap is the
/// tentpole's payoff for many-session workloads.
fn bench_registry_sessions(c: &mut Criterion) {
    use hpfc::runtime::PlanRegistry;
    use std::sync::Arc;
    const SESSIONS: usize = 8;
    const PAIRS: usize = 4;
    type Pair = (hpfc::mapping::NormalizedMapping, hpfc::mapping::NormalizedMapping);
    let mut g = c.benchmark_group("redist/registry_sessions");
    let pairs: Arc<Vec<Pair>> = Arc::new(
        (0..PAIRS)
            .map(|i| {
                let n = 16384 + 1024 * i as u64;
                (mk(n, 16, DimFormat::Block(None)), mk(n, 16, DimFormat::Cyclic(Some(4))))
            })
            .collect(),
    );
    let run_sessions = |pairs: &Arc<Vec<Pair>>, registry: &Option<Arc<PlanRegistry>>| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|t| {
                let pairs = Arc::clone(pairs);
                let registry = registry.clone();
                std::thread::spawn(move || {
                    let (src, dst): &(_, _) = &pairs[t % PAIRS];
                    let mut m = match &registry {
                        Some(reg) => Machine::new(16).with_registry(Arc::clone(reg)),
                        None => Machine::new(16).without_registry(),
                    };
                    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
                    rt.current(&mut m, 0).fill(|p| p[0] as f64);
                    let keep: std::collections::BTreeSet<u32> = [0u32, 1].into_iter().collect();
                    rt.remap(&mut m, 1, &keep, false);
                    rt.set(&[0], 1.0);
                    rt.remap(&mut m, 0, &keep, false);
                    std::hint::black_box(rt.get(&[0]))
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread");
        }
    };
    g.bench_function("shared", |b| {
        let registry = Some(Arc::new(PlanRegistry::new(8, 256)));
        b.iter(|| run_sessions(&pairs, &registry))
    });
    g.bench_function("solo", |b| {
        b.iter(|| run_sessions(&pairs, &None))
    });
    g.finish();
}

/// Symbolic plans in P: launch-time instantiation vs
/// re-running the planner. `replan` is the concrete cost a re-provision
/// pays per mapping pair without the symbolic layer (closed-form plan +
/// caterpillar schedule + program compile from the concrete mappings);
/// `instantiate_new_p` is the symbolic layer's cost for a `P` it has
/// not seen — rebuild both mappings from the P-free residue in closed
/// form, then the same pipeline (so it must track `replan`, paid once
/// per format pair instead of once per mapping pair); and
/// `instantiate_cached_p` is the re-launch steady state — the
/// instantiation point is served from the instance cache, an Arc clone.
/// The registry-entry economics (O(format pairs) vs O(pairs × P)) are
/// printed next to the times.
fn bench_symbolic_instantiate(c: &mut Criterion) {
    use hpfc::mapping::{format_pair, normalize_symbolic};
    use hpfc::runtime::{PlanRegistry, PlannedRemap, SymbolicPlan};

    let n = 16384u64;
    let mut g = c.benchmark_group("redist/symbolic_instantiate");
    let fmt_src = DimFormat::Cyclic(Some(4));
    let fmt_dst = DimFormat::Cyclic(None);
    let (sf, _) = normalize_symbolic(&mk(n, 16, fmt_src)).expect("symbolic");
    let (df, _) = normalize_symbolic(&mk(n, 16, fmt_dst)).expect("symbolic");

    // Registry economics across a re-provisioning sweep: the same 4
    // format pairs launched at every P. Concrete keying holds one entry
    // per (pair, P); symbolic keying holds one per pair.
    let sweep = [4u64, 8, 16, 32, 64];
    let registry = PlanRegistry::new(8, 1024);
    for p in sweep {
        for (fs, fd) in [(fmt_src, fmt_dst), (fmt_dst, fmt_src)] {
            for extent in [n, 2 * n] {
                let (src, dst) = (mk(extent, p, fs), mk(extent, p, fd));
                registry.get_or_instantiate(&src, &dst, 8).expect("symbolic pair");
            }
        }
    }
    eprintln!(
        "redist/symbolic_instantiate: {} symbolic entries ({} instantiation points) \
         serve what concrete keying holds as {} entries across P in {sweep:?}",
        registry.sym_len(),
        registry.sym_instances(),
        registry.sym_instances(),
    );

    let (src64, dst64) = (mk(n, 64, fmt_src), mk(n, 64, fmt_dst));
    g.bench_function("replan", |b| {
        b.iter(|| {
            std::hint::black_box(PlannedRemap::compile(plan_redistribution(&src64, &dst64, 8)))
        })
    });
    g.bench_function("instantiate_new_p", |b| {
        b.iter(|| {
            let sym = SymbolicPlan::new(format_pair(sf, df), 8);
            std::hint::black_box(sym.instantiate_planned(64, 64, n).expect("realizable"))
        })
    });
    g.bench_function("instantiate_cached_p", |b| {
        let sym = SymbolicPlan::new(format_pair(sf, df), 8);
        sym.instantiate_planned(64, 64, n).expect("realizable");
        b.iter(|| std::hint::black_box(sym.instantiate_planned(64, 64, n).expect("cached")))
    });
    g.finish();
}

/// The restore-path payoff (Fig. 18, PR 4): a save/restore bounce
/// around a call — remap to the callee's version, write there (staling
/// the saved copy), restore to the saved tag. `cached` is the
/// post-lowering behavior: the restore arm was planned at compile time
/// and seeded into the cache, so the bounce is tag dispatch + compiled
/// program replay. `lazy_plan_every_restore` models the pre-PR restore
/// cost by evicting the restore direction from the plan cache before
/// each bounce — what the first execution of every flow-dependent
/// restore used to pay at run time (closed-form plan + caterpillar
/// schedule + program compile).
fn bench_restore_bounce(c: &mut Criterion) {
    let n = 16384u64;
    let mut g = c.benchmark_group("redist/restore_bounce");
    let saved_m = mk(n, 16, DimFormat::Block(None));
    let dummy_m = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let saved: u32 = 0;
    let dummy: u32 = 1;
    let keep: std::collections::BTreeSet<u32> = [saved, dummy].into_iter().collect();

    let bounce = |evict_restore_plan: bool, b: &mut criterion::Bencher| {
        let mut m = Machine::new(16);
        let mut rt = ArrayRt::new("a", vec![saved_m.clone(), dummy_m.clone()], 8);
        rt.current(&mut m, saved).fill(|p| p[0] as f64);
        b.iter(|| {
            if evict_restore_plan {
                rt.plan_cache.remove(&(dummy, saved));
            }
            rt.remap(&mut m, dummy, &keep, false);
            rt.set(&[0], 1.0); // the callee writes: the saved copy stales
            rt.restore(&mut m, saved, &keep, false);
            std::hint::black_box(&rt);
        })
    };

    g.bench_function("cached", |b| bounce(false, b));
    g.bench_function("lazy_plan_every_restore", |b| bounce(true, b));
    g.finish();
}

/// The directive-level coalescing payoff (Fig. 3, PR 5): two arrays
/// aligned to one template bounce between two mappings. `solo_sum`
/// remaps each array through its own cached schedule (one caterpillar
/// sweep, one cache lookup, one accounting pass per array per
/// direction — the pre-grouping behavior); `coalesced` moves both
/// through one [`hpfc::runtime::PlannedGroup`]: same payload and the
/// same compiled copy runs, but one merged round sweep per direction —
/// the same-pair wire messages share rounds and latency charges, and
/// the per-remap bookkeeping (cache lookups, schedule accounting)
/// is paid once per group instead of once per array.
fn bench_group_remap(c: &mut Criterion) {
    use hpfc::runtime::{remap_group, GroupMember, PlannedGroup, PlannedRemap};
    use std::sync::Arc;

    let n = 4096u64;
    let mut g = c.benchmark_group("redist/group_remap");
    let v0 = mk(n, 16, DimFormat::Block(None));
    let v1 = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let keep: std::collections::BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = std::collections::BTreeSet::new();

    g.bench_function("solo_sum", |b| {
        let mut m = Machine::new(16);
        let mut a0 = ArrayRt::new("a0", vec![v0.clone(), v1.clone()], 8);
        let mut a1 = ArrayRt::new("a1", vec![v0.clone(), v1.clone()], 8);
        a0.current(&mut m, 0).fill(|p| p[0] as f64);
        a1.current(&mut m, 0).fill(|p| 2.0 * p[0] as f64);
        b.iter(|| {
            a0.remap(&mut m, 1, &keep, false);
            a1.remap(&mut m, 1, &keep, false);
            a0.set(&[0], 1.0); // stale the other copies: data moves every time
            a1.set(&[0], 1.0);
            a0.remap(&mut m, 0, &keep, false);
            a1.remap(&mut m, 0, &keep, false);
            a0.set(&[1], 1.0);
            a1.set(&[1], 1.0);
            std::hint::black_box((&a0, &a1));
        })
    });

    g.bench_function("coalesced", |b| {
        let mut m = Machine::new(16);
        let mut a0 = ArrayRt::new("a0", vec![v0.clone(), v1.clone()], 8);
        let mut a1 = ArrayRt::new("a1", vec![v0.clone(), v1.clone()], 8);
        a0.current(&mut m, 0).fill(|p| p[0] as f64);
        a1.current(&mut m, 0).fill(|p| 2.0 * p[0] as f64);
        let solo =
            |s: &_, d: &_| Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)));
        let fwd = PlannedGroup::compile(vec![solo(&v0, &v1), solo(&v0, &v1)]);
        let back = PlannedGroup::compile(vec![solo(&v1, &v0), solo(&v1, &v0)]);
        b.iter(|| {
            let mut members = [
                GroupMember { rt: &mut a0, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut a1, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut m, &mut members, &fwd);
            a0.set(&[0], 1.0);
            a1.set(&[0], 1.0);
            let mut members = [
                GroupMember { rt: &mut a0, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut a1, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut m, &mut members, &back);
            a0.set(&[1], 1.0);
            a1.set(&[1], 1.0);
            std::hint::black_box((&a0, &a1));
        })
    });
    g.finish();
}

/// What the failure model costs when it is off — and when it is on.
/// The cached remap bounce of `redist/remap_loop`, re-measured under
/// the fault/validation configurations: `validation_off` is the
/// default machine (no `FaultPlan`, `ValidationLevel::Off`) and must
/// be indistinguishable from the plain cached bounce — the guarded
/// ladder is compiled out of the path by one branch; `counts_on` adds
/// the per-round conservation check (an integer sum the replay already
/// has); `checksums_on` pays one extra read pass over source and
/// destination words per round — the price of detecting single-word
/// corruption.
fn bench_fault_overhead(c: &mut Criterion) {
    use hpfc::runtime::ValidationLevel;

    let n = 16384u64;
    let mut g = c.benchmark_group("redist/fault_overhead");
    let src = mk(n, 16, DimFormat::Block(None));
    let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let keep: std::collections::BTreeSet<u32> = [0u32, 1].into_iter().collect();

    let bounce = |validation: ValidationLevel, b: &mut criterion::Bencher| {
        let mut m = Machine::new(16).with_validation(validation);
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.current(&mut m, 0).fill(|p| p[0] as f64);
        b.iter(|| {
            rt.remap(&mut m, 1, &keep, false);
            rt.set(&[0], 1.0); // stale the other copy: data moves every time
            rt.remap(&mut m, 0, &keep, false);
            rt.set(&[1], 1.0);
            std::hint::black_box(&rt);
        })
    };

    g.bench_function("validation_off", |b| bounce(ValidationLevel::Off, b));
    g.bench_function("counts_on", |b| bounce(ValidationLevel::Counts, b));
    g.bench_function("checksums_on", |b| bounce(ValidationLevel::Checksums, b));
    g.finish();
}

/// What the transaction costs. `txn_on_default` is the default machine
/// (no faults, no validation): the snapshot is armed only on the
/// guarded path, so this must be indistinguishable from the plain
/// cached bounce — the transactional machinery is one branch here.
/// `txn_on_counts` runs guarded AND armed: every bounce captures a
/// rollback record (destination runs into the machine's reused scratch
/// arena) and commits it — the true price of all-or-nothing remaps.
fn bench_txn_overhead(c: &mut Criterion) {
    use hpfc::runtime::ValidationLevel;

    let n = 16384u64;
    let mut g = c.benchmark_group("redist/txn_overhead");
    let src = mk(n, 16, DimFormat::Block(None));
    let dst = mk(n, 16, DimFormat::Cyclic(Some(4)));
    let keep: std::collections::BTreeSet<u32> = [0u32, 1].into_iter().collect();

    let bounce = |validation: ValidationLevel, b: &mut criterion::Bencher| {
        let mut m = Machine::new(16).with_validation(validation);
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.current(&mut m, 0).fill(|p| p[0] as f64);
        b.iter(|| {
            rt.remap(&mut m, 1, &keep, false);
            rt.set(&[0], 1.0); // stale the other copy: data moves every time
            rt.remap(&mut m, 0, &keep, false);
            rt.set(&[1], 1.0);
            std::hint::black_box(&rt);
        })
    };

    g.bench_function("txn_on_default", |b| bounce(ValidationLevel::Off, b));
    g.bench_function("txn_on_counts", |b| bounce(ValidationLevel::Counts, b));
    g.finish();
}

criterion_group!(
    benches,
    bench_plan_closed_form,
    bench_plan_hyperperiod,
    bench_plan_oracle,
    bench_data_movement,
    bench_roofline,
    bench_kernel_dispatch,
    bench_copy_program_compile,
    bench_procs_sweep,
    bench_remap_loop_caching,
    bench_registry_sessions,
    bench_symbolic_instantiate,
    bench_restore_bounce,
    bench_group_remap,
    bench_fault_overhead,
    bench_txn_overhead
);
criterion_main!(benches);
