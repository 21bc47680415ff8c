//! Figure-by-figure validation of the remapping-graph construction and
//! optimizations against the paper's worked examples.

use std::collections::BTreeSet;

use hpfc_cfg::graph::NodeKind;
use hpfc_lang::diag::codes;
use hpfc_lang::{figures, frontend};
use hpfc_mapping::VersionId;
use hpfc_rgraph::build::{build, Rg, VertexId};
use hpfc_rgraph::label::{Leaving, UseInfo};
use hpfc_rgraph::optimize::{optimize, verify_reaching_paths, OptConfig};

fn rg_of(src: &str) -> (hpfc_lang::sema::Module, Rg) {
    let m = frontend(src).unwrap();
    let rg = build(m.main()).unwrap_or_else(|e| panic!("build failed: {e:?}"));
    (m, rg)
}

/// Versions of `name` used by actual references (the paper's "used with
/// mappings {…}" sets of Fig. 12).
fn used_versions(m: &hpfc_lang::sema::Module, rg: &Rg, name: &str) -> BTreeSet<u32> {
    let a = m.main().array(name).unwrap();
    rg.ref_versions
        .iter()
        .filter(|((_, arr), _)| *arr == a)
        .map(|(_, v)| v.index)
        .collect()
}

/// The vertices (by kind filter) in graph order.
fn redistribute_vertices(rg: &Rg) -> Vec<VertexId> {
    rg.vertex_ids()
        .filter(|&v| {
            matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Redistribute { .. })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 10 / 11 / 12 — the running example.
// ---------------------------------------------------------------------

#[test]
fn fig10_graph_has_seven_vertices() {
    let (_m, rg) = rg_of(figures::FIG10_ADI);
    assert_eq!(rg.vertices.len(), 7, "v_c, v_0, four redistributes, v_e");
}

#[test]
fn fig10_version_counts() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let a = m.main().array("a").unwrap();
    let b = m.main().array("b").unwrap();
    let c = m.main().array("c").unwrap();
    // Four distinct placements each: (block,*), (cyclic,*),
    // (block,block), (*,block).
    assert_eq!(rg.versions.n_versions(a), 4);
    assert_eq!(rg.versions.n_versions(b), 4);
    assert_eq!(rg.versions.n_versions(c), 4);
}

#[test]
fn fig10_zero_trip_edges_reach_exit() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let a = m.main().array("a").unwrap();
    let exit = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Exit))
        .unwrap();
    // The exit must be reached (for A) from: both branch redistributes
    // (zero-trip loop) and the last loop redistribute.
    let preds = rg.preds_for(exit, a);
    let redists = redistribute_vertices(&rg);
    assert!(preds.contains(&redists[0]), "then-branch → E (zero-trip)");
    assert!(preds.contains(&redists[1]), "else-branch → E (zero-trip)");
    assert!(preds.contains(&redists[3]), "loop bottom → E");
    assert_eq!(preds.len(), 3);
}

#[test]
fn fig10_loop_back_edge_exists() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let a = m.main().array("a").unwrap();
    let redists = redistribute_vertices(&rg);
    // v4 → v3 via the back edge, and v3 → v4 inside the body.
    let edge = |v: VertexId, w: VertexId| rg.edges[&v].get(&w).is_some_and(|s| s.contains(&a));
    assert!(edge(redists[3], redists[2]));
    assert!(edge(redists[2], redists[3]));
}

#[test]
fn fig10_use_labels() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let unit = m.main();
    let (a, b, c) =
        (unit.array("a").unwrap(), unit.array("b").unwrap(), unit.array("c").unwrap());
    let redists = redistribute_vertices(&rg);
    let u = |v: VertexId, arr| rg.label(v, arr).unwrap().use_info;
    // v1 (then): a = a + b — A written (W), B read (R); C untouched (N).
    assert_eq!(u(redists[0], a), UseInfo::W);
    assert_eq!(u(redists[0], b), UseInfo::R);
    assert_eq!(u(redists[0], c), UseInfo::N);
    // v2 (else): x = a(3,3) — A read; B, C untouched.
    assert_eq!(u(redists[1], a), UseInfo::R);
    assert_eq!(u(redists[1], b), UseInfo::N);
    assert_eq!(u(redists[1], c), UseInfo::N);
    // v3 (loop top): c = a + 2.0 — C fully redefined (D), A read.
    assert_eq!(u(redists[2], a), UseInfo::R);
    assert_eq!(u(redists[2], c), UseInfo::D);
    assert_eq!(u(redists[2], b), UseInfo::N);
    // v4 (loop bottom): a = a + c — A read+written (W), C read (R).
    assert_eq!(u(redists[3], a), UseInfo::W);
    assert_eq!(u(redists[3], c), UseInfo::R);
    assert_eq!(u(redists[3], b), UseInfo::N);
}

#[test]
fn fig12_used_version_sets() {
    // The paper's post-optimization statement: A used with {0,1,2,3},
    // B with {0,1}, C with {2,3}.
    let (m, mut rg) = rg_of(figures::FIG10_ADI);
    optimize(&mut rg, OptConfig::default());
    assert_eq!(used_versions(&m, &rg, "a"), [0, 1, 2, 3].into());
    assert_eq!(used_versions(&m, &rg, "b"), [0, 1].into());
    assert_eq!(used_versions(&m, &rg, "c"), [2, 3].into());
}

#[test]
fn fig12_b_and_c_remappings_removed() {
    let (m, mut rg) = rg_of(figures::FIG10_ADI);
    let unit = m.main();
    let (b, c) = (unit.array("b").unwrap(), unit.array("c").unwrap());
    let stats = optimize(&mut rg, OptConfig::default());
    let redists = redistribute_vertices(&rg);
    // B: remapped uselessly at v2, v3, v4 (never referenced after).
    assert!(rg.label(redists[1], b).unwrap().is_removed());
    assert!(rg.label(redists[2], b).unwrap().is_removed());
    assert!(rg.label(redists[3], b).unwrap().is_removed());
    assert!(!rg.label(redists[0], b).unwrap().is_removed());
    // C: remapped uselessly at v1 and v2 (only used inside the loop).
    assert!(rg.label(redists[0], c).unwrap().is_removed());
    assert!(rg.label(redists[1], c).unwrap().is_removed());
    assert!(!rg.label(redists[2], c).unwrap().is_removed());
    assert!(stats.removed >= 5);
    verify_reaching_paths(&rg).unwrap();
}

#[test]
fn fig10_exit_restores_dummy_with_w() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let a = m.main().array("a").unwrap();
    let exit = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Exit))
        .unwrap();
    let l = rg.label(exit, a).unwrap();
    // INTENT(INOUT): exported ⇒ W at v_e (Fig. 22); restored to the
    // declared mapping, version 0.
    assert_eq!(l.use_info, UseInfo::W);
    assert_eq!(
        l.leaving,
        Some(Leaving::One(VersionId { array: a, index: 0 }))
    );
}

// ---------------------------------------------------------------------
// Fig. 1 — direct remapping after optimization.
// ---------------------------------------------------------------------

#[test]
fn fig1_intermediate_remapping_removed() {
    let (m, mut rg) = rg_of(figures::FIG1_DIRECT);
    let a = m.main().array("a").unwrap();
    optimize(&mut rg, OptConfig::default());
    // The realign vertex's A-slot is removed (A unreferenced between
    // realign and redistribute)...
    let realign = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Realign { .. }))
        .unwrap();
    assert!(rg.label(realign, a).unwrap().is_removed());
    // ...and the redistribute now remaps A directly from version 0.
    let redist = redistribute_vertices(&rg)[0];
    let l = rg.label(redist, a).unwrap();
    assert_eq!(l.reaching, [VersionId { array: a, index: 0 }].into());
    assert!(!l.is_removed());
    verify_reaching_paths(&rg).unwrap();
}

// ---------------------------------------------------------------------
// Fig. 2 — both C remappings useless.
// ---------------------------------------------------------------------

#[test]
fn fig2_both_c_remappings_are_useless() {
    let (m, mut rg) = rg_of(figures::FIG2_USELESS);
    let c = m.main().array("c").unwrap();
    optimize(&mut rg, OptConfig::default());
    let realign = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Realign { .. }))
        .unwrap();
    let redist = redistribute_vertices(&rg)[0];
    // The realign slot is removed outright (C unreferenced before the
    // redistribution)…
    assert!(rg.label(realign, c).unwrap().is_removed());
    // …and the redistribution is statically trivial: the composed
    // placement equals the initial one (transpose ∘ transposed-dist).
    let l = rg.label(redist, c).unwrap();
    assert!(!l.is_removed(), "C is read afterwards, the slot stays");
    assert!(l.is_trivial(), "single reaching copy == leaving copy: {l:?}");
}

// ---------------------------------------------------------------------
// Fig. 3 — only used aligned arrays keep their remapping.
// ---------------------------------------------------------------------

#[test]
fn fig3_unused_aligned_arrays_are_not_remapped() {
    let (m, mut rg) = rg_of(figures::FIG3_ALIGNED);
    let unit = m.main();
    optimize(&mut rg, OptConfig::default());
    let redist = redistribute_vertices(&rg)[0];
    // All five arrays are remapped by the template redistribution…
    assert_eq!(rg.labels[redist.idx()].len(), 5);
    // …but only A and D are used afterwards.
    for name in ["a", "d"] {
        let arr = unit.array(name).unwrap();
        assert!(!rg.label(redist, arr).unwrap().is_removed(), "{name} must stay");
    }
    for name in ["b", "c", "e"] {
        let arr = unit.array(name).unwrap();
        assert!(rg.label(redist, arr).unwrap().is_removed(), "{name} must be removed");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — argument remappings across consecutive calls.
// ---------------------------------------------------------------------

#[test]
fn fig4_back_and_forth_argument_remappings_removed() {
    let (m, mut rg) = rg_of(figures::FIG4_ARGS);
    let y = m.main().array("y").unwrap();
    optimize(&mut rg, OptConfig::default());

    let arg_ins: Vec<VertexId> = rg
        .vertex_ids()
        .filter(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::ArgIn { .. }))
        .collect();
    let arg_outs: Vec<VertexId> = rg
        .vertex_ids()
        .filter(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::ArgOut { .. }))
        .collect();
    assert_eq!((arg_ins.len(), arg_outs.len()), (3, 3));

    // The restores after foo#1 and foo#2 are useless (Y unreferenced
    // until the next call remaps it again).
    assert!(rg.label(arg_outs[0], y).unwrap().is_removed());
    assert!(rg.label(arg_outs[1], y).unwrap().is_removed());
    // The final restore stays (Y read afterwards).
    assert!(!rg.label(arg_outs[2], y).unwrap().is_removed());

    // foo#2's ArgIn becomes trivial: Y already arrives CYCLIC.
    let l2 = rg.label(arg_ins[1], y).unwrap();
    assert!(l2.is_trivial(), "{l2:?}");
    // bla's ArgIn remaps CYCLIC → CYCLIC(2) directly (no intermediate
    // BLOCK hop — the paper's "direct remapping would be possible").
    let l3 = rg.label(arg_ins[2], y).unwrap();
    assert_eq!(l3.reaching.len(), 1);
    let reached = *l3.reaching.iter().next().unwrap();
    // Version 1 is the CYCLIC placement (0 = BLOCK initial).
    assert_eq!(reached.index, 1);
    verify_reaching_paths(&rg).unwrap();
}

// ---------------------------------------------------------------------
// Figs. 5, 6, 21 — the flow-level legality rules.
// ---------------------------------------------------------------------

#[test]
fn fig5_ambiguous_reference_rejected() {
    let m = frontend(figures::FIG5_AMBIGUOUS).unwrap();
    let errs = build(m.main()).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::AMBIGUOUS_REF), "{errs:?}");
}

#[test]
fn fig6_ambiguous_state_accepted_with_two_reaching() {
    let (m, rg) = rg_of(figures::FIG6_OK);
    let a = m.main().array("a").unwrap();
    let redists = redistribute_vertices(&rg);
    assert_eq!(redists.len(), 2);
    // The final redistribution sees both the BLOCK (0) and CYCLIC (1)
    // placements and leaves CYCLIC(2) (version 2).
    let l = rg.label(redists[1], a).unwrap();
    assert_eq!(
        l.reaching,
        [VersionId { array: a, index: 0 }, VersionId { array: a, index: 1 }].into()
    );
    assert_eq!(l.leaving, Some(Leaving::One(VersionId { array: a, index: 2 })));
}

#[test]
fn fig21_multiple_leaving_mappings_rejected() {
    let m = frontend(figures::FIG21_MULTI_LEAVING).unwrap();
    let errs = build(m.main()).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::MULTI_LEAVING), "{errs:?}");
}

// ---------------------------------------------------------------------
// Fig. 13 / 14 — flow-dependent live copy.
// ---------------------------------------------------------------------

#[test]
fn fig13_live_copy_kept_on_read_only_path() {
    let (m, mut rg) = rg_of(figures::FIG13_LIVE);
    let a = m.main().array("a").unwrap();
    optimize(&mut rg, OptConfig::default());
    let redists = redistribute_vertices(&rg);
    assert_eq!(redists.len(), 3);
    let v0 = VersionId { array: a, index: 0 };
    // THEN branch writes via the cyclic copy: A_0 must not be kept.
    // (`a = 2.0` is a whole-array write, so the sharper `D` applies —
    // like `W`, it stops live-copy propagation.)
    let l_then = rg.label(redists[0], a).unwrap();
    assert_eq!(l_then.use_info, UseInfo::D);
    assert!(!l_then.may_live.contains(&v0));
    // ELSE branch only reads: A_0 stays live for the later restore.
    let l_else = rg.label(redists[1], a).unwrap();
    assert_eq!(l_else.use_info, UseInfo::R);
    assert!(l_else.may_live.contains(&v0), "{l_else:?}");
    // The final vertex remaps back to version 0.
    let l_back = rg.label(redists[2], a).unwrap();
    assert_eq!(l_back.leaving, Some(Leaving::One(v0)));
}

// ---------------------------------------------------------------------
// Fig. 15 / 18 — status save/restore at a call.
// ---------------------------------------------------------------------

#[test]
fn fig15_argout_restores_flow_dependent_mapping() {
    let (m, rg) = rg_of(figures::FIG15_CALL_STATUS);
    let a = m.main().array("a").unwrap();
    let arg_out = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::ArgOut { .. }))
        .unwrap();
    let l = rg.label(arg_out, a).unwrap();
    match &l.leaving {
        Some(Leaving::Restore(set)) => {
            assert_eq!(set.len(), 2, "restores CYCLIC or CYCLIC(2) per saved status")
        }
        other => panic!("expected a status restore, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// KILL (Sec. 4.3).
// ---------------------------------------------------------------------

#[test]
fn kill_marks_values_dead_at_next_remapping() {
    let (m, mut rg) = rg_of(figures::KILL_EXAMPLE);
    let unit = m.main();
    let (a, b) = (unit.array("a").unwrap(), unit.array("b").unwrap());
    optimize(&mut rg, OptConfig::default());
    let redist = redistribute_vertices(&rg)[0];
    // B's values were killed: the copy needs no communication...
    let lb = rg.label(redist, b).unwrap();
    assert!(lb.values_dead);
    assert!(!lb.is_removed(), "B is referenced after, the copy itself stays");
    // ...while A's values are alive and must move.
    let la = rg.label(redist, a).unwrap();
    assert!(!la.values_dead);
}

// ---------------------------------------------------------------------
// Whole-suite invariants.
// ---------------------------------------------------------------------

#[test]
fn all_figures_build_and_verify_after_optimization() {
    for (name, src) in figures::all() {
        let m = frontend(src).unwrap();
        let mut rg = build(m.main()).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        optimize(&mut rg, OptConfig::default());
        verify_reaching_paths(&rg).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn optimization_never_removes_referenced_slots() {
    for (name, src) in figures::all() {
        let m = frontend(src).unwrap();
        let mut rg = build(m.main()).unwrap();
        optimize(&mut rg, OptConfig::default());
        // Every reference's version must be producible at some kept
        // vertex (or be the entry version of a never-remapped array).
        for ((_, arr), vid) in &rg.ref_versions {
            let produced = rg.vertex_ids().any(|v| {
                rg.labels[v.idx()].get(arr).is_some_and(|l| {
                    l.leaving.as_ref().is_some_and(|lv| lv.versions().contains(vid))
                })
            });
            assert!(produced, "{name}: referenced version {vid} is never produced");
        }
    }
}

#[test]
fn graph_text_rendering_is_stable() {
    let (m, rg) = rg_of(figures::FIG10_ADI);
    let text = hpfc_rgraph::dot::to_text(&rg, m.main());
    assert!(text.contains("vertex C:"));
    assert!(text.contains("vertex E:"));
    let dot = hpfc_rgraph::dot::to_dot(&rg, m.main());
    assert!(dot.starts_with("digraph"));
}
