//! Dataflow optimizations on the remapping graph (paper Sec. 4,
//! App. C/D), both may-problems on the CFG solver App. B's passes use,
//! with one slot per array (members are version indices). Only a `G_R`
//! vertex changes a slot, and only the slot of an array it remaps; every
//! other node and slot is transparent. That makes the CFG flow exactly
//! the `G_R` flow: pass 3 of the construction makes `v → w` an edge for
//! array `a` iff `w` is the next `a`-vertex on some CFG path from `v`,
//! so what transparent nodes carry into `w`'s slot `a` is the union of
//! the facts of its `G_R` predecessors (forward) or successors
//! (backward) for `a`, no more and no less.

use std::collections::{BTreeMap, BTreeSet};

use hpfc_cfg::dataflow::{input_of, solve, Dataflow, Direction, Facts};
use hpfc_cfg::graph::NodeId;
use hpfc_mapping::{ArrayId, VersionId};

use crate::build::{Rg, VertexId};
use crate::label::{Label, UseInfo};

/// Which optimizations to run: App. C and App. D (the default), or
/// neither ([`OptConfig::none`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptConfig {
    /// The naive baseline: no slot is removed and `M_A(v)` is just the
    /// leaving and pass-through copies — every other copy is dropped at
    /// each vertex (no reuse).
    naive: bool,
}

impl OptConfig {
    /// Everything off — the naive compilation baseline.
    pub fn none() -> Self {
        OptConfig { naive: true }
    }
}

/// What the optimizer did (per-routine accounting used by the
/// experiment harness).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// (vertex, array) remapping slots before optimization.
    pub total: usize,
    /// Slots removed by App. C (`U = N`).
    pub removed: usize,
    /// Slots that became statically trivial (single reaching copy equal
    /// to the leaving copy): kept in place, but a runtime status check
    /// skips them (Sec. 5.1).
    pub trivial: usize,
    /// Slots whose values are dead (`KILL`): copy allocated, no data
    /// moved.
    pub dead_values: usize,
}

/// Run the configured optimizations; always (re)computes may-live sets
/// so the runtime has consistent liveness information.
pub fn optimize(rg: &mut Rg, config: OptConfig) -> OptStats {
    let mut stats = OptStats { total: rg.remapping_count(), ..Default::default() };
    if !config.naive {
        // App. C: delete the leaving copies of unused slots, then
        // recompute every reaching set.
        for l in rg.labels.iter_mut().flat_map(|m| m.values_mut()) {
            if l.use_info == UseInfo::N && l.leaving.is_some() {
                l.leaving = None;
                stats.removed += 1;
            }
        }
        let reaching = solve_per_label(rg, &Reaching(Vertices::of(rg)));
        for (l, set) in rg.labels.iter_mut().flat_map(|m| m.values_mut()).zip(reaching) {
            l.reaching = set;
        }
    }
    let may_live =
        solve_per_label(rg, &MayLive { vertices: Vertices::of(rg), reuse: !config.naive });
    for (l, set) in rg.labels.iter_mut().flat_map(|m| m.values_mut()).zip(may_live) {
        l.may_live = set;
    }
    for l in rg.labels.iter().flat_map(|m| m.values()).filter(|l| l.leaving.is_some()) {
        stats.trivial += l.is_trivial() as usize;
        stats.dead_values += l.values_dead as usize;
    }
    stats
}

/// `G_R` seen from the CFG: a vertex's labels at its node, `None` at
/// every other node, and one slot per array.
struct Vertices<'a> {
    labels: Vec<Option<&'a BTreeMap<ArrayId, Label>>>,
    slots: usize,
}

impl<'a> Vertices<'a> {
    fn of(rg: &'a Rg) -> Self {
        let mut labels = vec![None; rg.cfg.len()];
        for (node, at_v) in rg.vertices.iter().zip(&rg.labels) {
            labels[node.idx()] = Some(at_v);
        }
        let slots = rg.labels.iter().flat_map(|m| m.keys()).map(|a| a.0 as usize + 1).max();
        Vertices { labels, slots: slots.unwrap_or(0) }
    }

    /// The labels at `node`, with the slot of each.
    fn at(&self, node: NodeId) -> impl Iterator<Item = (usize, &'a Label)> {
        self.labels[node.idx()].into_iter().flatten().map(|(a, l)| (a.0 as usize, l))
    }
}

/// The leaving versions of `l`, as slot members.
fn leaving_indices(l: &Label) -> impl Iterator<Item = u32> + '_ {
    l.leaving.iter().flat_map(|x| x.versions()).map(|v| v.index)
}

/// App. C (may-forward): a slot holds the versions that may be current.
/// A kept slot hands on its leaving copies; a removed (or never-leaving)
/// slot hands on what reached it — the transitive closure through
/// removed vertices.
struct Reaching<'a>(Vertices<'a>);

impl Dataflow for Reaching<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn slots(&self) -> usize {
        self.0.slots
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
        for (slot, l) in self.0.at(node).filter(|(_, l)| l.leaving.is_some()) {
            let mut leaving: Vec<u32> = leaving_indices(l).collect();
            // A partial-impact vertex forwards whatever *data* versions
            // arrive on its unaffected executions — conservatively,
            // everything that reaches it.
            if !l.passthrough.is_empty() {
                leaving.extend(fact.get(slot));
            }
            fact.set(slot, leaving);
        }
    }
}

/// App. D (may-backward): a slot holds the copies worth keeping because
/// a later remapping may reuse them without communication. A vertex
/// keeps its leaving and pass-through copies (the latter may be current
/// on unaffected executions), plus — under `reuse`, while the array is
/// only read (`U ∈ {N, R}`) — what its successors keep.
struct MayLive<'a> {
    vertices: Vertices<'a>,
    reuse: bool,
}

impl Dataflow for MayLive<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn slots(&self) -> usize {
        self.vertices.slots
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
        for (slot, l) in self.vertices.at(node) {
            let mut live: Vec<u32> = leaving_indices(l).collect();
            live.extend(l.passthrough.iter().map(|v| v.index));
            if self.reuse && matches!(l.use_info, UseInfo::N | UseInfo::R) {
                live.extend(fact.get(slot));
            }
            fact.set(slot, live);
        }
    }
}

/// Solve `problem` on the CFG and read every label's slot at its vertex,
/// in label order: the in-fact of a forward problem (what reaches the
/// vertex), the out-fact of a backward one (what the vertex keeps).
fn solve_per_label<D: Dataflow>(rg: &Rg, problem: &D) -> Vec<BTreeSet<VersionId>> {
    let outs = solve(&rg.cfg, problem);
    let mut sets = Vec::new();
    for (&node, at_v) in rg.vertices.iter().zip(&rg.labels) {
        let input = (problem.direction() == Direction::Forward)
            .then(|| input_of(&rg.cfg, problem, &outs, node));
        let fact = input.as_ref().unwrap_or(&outs[node.idx()]);
        sets.extend(at_v.keys().map(|&a| {
            fact.get(a.0 as usize).iter().map(|&index| VersionId { array: a, index }).collect()
        }));
    }
    sets
}

/// Theorem 1 sanity-checker (used by tests): every version in a
/// recomputed reaching set must be producible along a `G_R` path from a
/// kept vertex that leaves it, through removed/unreferenced vertices
/// only.
pub fn verify_reaching_paths(rg: &Rg) -> Result<(), String> {
    for v in rg.vertex_ids() {
        for (a, l) in &rg.labels[v.idx()] {
            for r in &l.reaching {
                if !reachable_from_producer(rg, v, *a, *r) {
                    return Err(format!(
                        "vertex {} array {:?}: reaching version {} has no producing path",
                        v.0, a, r
                    ));
                }
            }
        }
    }
    Ok(())
}

fn reachable_from_producer(rg: &Rg, v: VertexId, a: ArrayId, want: VersionId) -> bool {
    // Backward DFS from v through predecessors; a predecessor *produces*
    // `want` if it keeps a leaving copy equal to it; traversal continues
    // through predecessors with no leaving copy (removed).
    let mut stack = vec![v];
    let mut seen = BTreeSet::new();
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        for p in rg.preds_for(x, a) {
            let pl = &rg.labels[p.idx()][&a];
            match &pl.leaving {
                Some(leave) if leave.versions().contains(&want) => return true,
                // Partial-impact vertices forward arriving data versions.
                Some(_) if !pl.passthrough.is_empty() => stack.push(p),
                Some(_) => {}
                None => stack.push(p),
            }
        }
    }
    false
}
