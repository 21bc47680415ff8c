//! Optimizer-focused tests: ablation configurations, worst-case
//! synthetic programs, and the stats contract.

use std::collections::BTreeSet;

use hpfc_lang::frontend;
use hpfc_rgraph::build::build;
use hpfc_rgraph::optimize::{optimize, verify_reaching_paths, OptConfig};

/// A program where *every* remapping is used: the optimizer must remove
/// nothing.
const ALL_USED: &str = "\
subroutine s
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  a = 1.0
!hpf$ redistribute a(cyclic)
  a = a + 1.0
!hpf$ redistribute a(cyclic(2))
  a = a + 1.0
!hpf$ redistribute a(block)
  x = a(1)
end subroutine
";

/// A program where every remapping after the first write is useless.
const ALL_USELESS: &str = "\
subroutine s
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  a = 1.0
!hpf$ redistribute a(cyclic)
!hpf$ redistribute a(cyclic(2))
!hpf$ redistribute a(block)
end subroutine
";

#[test]
fn worst_case_removes_nothing() {
    let m = frontend(ALL_USED).unwrap();
    let mut rg = build(m.main()).unwrap();
    let stats = optimize(&mut rg, OptConfig::default());
    // Only the entry-instantiation slot can be touched; the three
    // redistributions are all referenced.
    let a = m.main().array("a").unwrap();
    for v in rg.vertex_ids() {
        if let Some(l) = rg.label(v, a) {
            if l.original_leaving.is_some() && l.is_removed() {
                // The only removable slot is the entry one (vertex 0/C)
                // — but `a` is written right after entry, so even that
                // stays as a non-slot. Nothing referenced is removed:
                assert!(
                    matches!(
                        rg.cfg.node(rg.node_of(v)).kind,
                        hpfc_cfg::graph::NodeKind::Entry | hpfc_cfg::graph::NodeKind::CallCtx
                    ),
                    "unexpected removal at {v:?}"
                );
            }
        }
    }
    assert_eq!(stats.trivial, 0);
    verify_reaching_paths(&rg).unwrap();
}

#[test]
fn dead_chain_collapses_entirely() {
    let m = frontend(ALL_USELESS).unwrap();
    let mut rg = build(m.main()).unwrap();
    let stats = optimize(&mut rg, OptConfig::default());
    // All three redistributions are unused (nothing references `a`
    // after them): all removed.
    assert!(stats.removed >= 3, "{stats:?}");
    verify_reaching_paths(&rg).unwrap();
}

#[test]
fn opt_none_keeps_everything() {
    let m = frontend(ALL_USELESS).unwrap();
    let mut rg = build(m.main()).unwrap();
    let stats = optimize(&mut rg, OptConfig::none());
    assert_eq!(stats.removed, 0);
    // May-live collapses to the leaving copies only.
    let a = m.main().array("a").unwrap();
    for v in rg.vertex_ids() {
        if let Some(l) = rg.label(v, a) {
            if let Some(leave) = &l.leaving {
                let versions: std::collections::BTreeSet<_> =
                    leave.versions().into_iter().collect();
                assert!(
                    l.may_live.is_subset(&versions.union(&l.passthrough).copied().collect()),
                    "no-reuse config must not keep extra copies: {l:?}"
                );
            }
        }
    }
}

#[test]
fn live_copy_ablation_shrinks_may_live() {
    // On the read-only path of Fig. 13, App. D keeps a copy alive past
    // some vertex beyond the ones that vertex leaves or passes through.
    let m = frontend(hpfc_lang::figures::FIG13_LIVE).unwrap();
    let mut rg = build(m.main()).unwrap();
    optimize(&mut rg, OptConfig::default());
    let a = m.main().array("a").unwrap();
    let grown = rg.vertex_ids().filter_map(|v| rg.label(v, a)).any(|l| {
        let mut own: BTreeSet<_> = l.leaving.iter().flat_map(|x| x.versions()).collect();
        own.extend(&l.passthrough);
        !l.may_live.is_subset(&own)
    });
    assert!(grown, "no optimized slot of `a` keeps a copy it does not leave");
}

#[test]
fn stats_totals_are_consistent() {
    for (_, src) in hpfc_lang::figures::all() {
        let m = frontend(src).unwrap();
        let mut rg = build(m.main()).unwrap();
        let total_before = rg.remapping_count();
        let stats = optimize(&mut rg, OptConfig::default());
        assert_eq!(stats.total, total_before);
        let removed_now = rg
            .vertex_ids()
            .flat_map(|v| rg.labels[v.idx()].values())
            .filter(|l| l.is_removed())
            .count();
        assert_eq!(stats.removed, removed_now);
        assert!(stats.trivial + stats.removed <= stats.total);
    }
}

#[test]
fn recompute_is_idempotent() {
    let m = frontend(hpfc_lang::figures::FIG10_ADI).unwrap();
    let mut rg = build(m.main()).unwrap();
    optimize(&mut rg, OptConfig::default());
    let snapshot: Vec<_> = rg.labels.clone();
    optimize(&mut rg, OptConfig::default());
    assert_eq!(snapshot, rg.labels, "a second optimize must be a fixpoint");
}

#[test]
fn synthetic_scaling_shapes_hold() {
    // More remap statements → more slots; optimizer time-independent
    // correctness at size.
    let mut last = 0;
    for m_count in [2usize, 8, 16] {
        let src = hpfc_bench_src(64, m_count, 3);
        let m = frontend(&src).unwrap();
        let mut rg = build(m.main()).unwrap();
        let stats = optimize(&mut rg, OptConfig::default());
        assert!(stats.total > last);
        last = stats.total;
        verify_reaching_paths(&rg).unwrap();
    }
}

/// Local copy of the bench generator shape (no dependency on the bench
/// crate from here).
fn hpfc_bench_src(n_stmts: usize, n_remaps: usize, n_arrays: usize) -> String {
    let mut s = String::from("subroutine synth\n");
    let names: Vec<String> = (0..n_arrays).map(|i| format!("a{i}")).collect();
    s.push_str(&format!(
        "  real :: {}\n",
        names.iter().map(|n| format!("{n}(64)")).collect::<Vec<_>>().join(", ")
    ));
    s.push_str("!hpf$ processors p(4)\n!hpf$ template t(64)\n!hpf$ dynamic t\n");
    s.push_str(&format!("!hpf$ align with t :: {}\n", names.join(", ")));
    s.push_str("!hpf$ distribute t(block) onto p\n");
    let gap = n_stmts / (n_remaps + 1);
    let mut stmt = 0usize;
    for r in 0..=n_remaps {
        for k in 0..gap.max(1) {
            if stmt >= n_stmts {
                break;
            }
            let a = &names[(stmt + k) % n_arrays];
            s.push_str(&format!("  {a}(1) = {a}(2) + 1.0\n"));
            stmt += 1;
        }
        if r < n_remaps {
            let fmt = if r % 2 == 0 { "cyclic" } else { "block" };
            s.push_str(&format!("!hpf$ redistribute t({fmt}) onto p\n"));
        }
    }
    s.push_str("end subroutine\n");
    s
}
