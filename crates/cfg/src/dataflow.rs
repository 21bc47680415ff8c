//! The worklist solver and the one lattice of the may-forward /
//! may-backward dataflow problems of App. B–D.
//!
//! All six analyses in the paper are *may* problems over union
//! semilattices of small sets — mappings that may reach, qualifiers
//! that may apply, vertices that may come next — tracked per array,
//! and all six run here (App. B's four in `hpfc_rgraph::build`, App. C
//! and D's two in `hpfc_rgraph::optimize`). So the solver owns the
//! fact type and the join: [`Facts`] is one sorted set of `u32` per
//! *slot* (the problem says how many slots it has and what a slot and
//! a number mean), bottom is "every set empty" and the join is the
//! slot-wise union. A problem supplies only its direction and its
//! transfer function.
//!
//! A slot's set is shared by reference between the facts of every node
//! that does not change it, so a fact costs one pointer per slot rather
//! than a copy of every set: few distinct sets, changed at few nodes.
//!
//! Facts are tracked per node (the "out" side in the analysis
//! direction); the "in" side is the join over the neighbours, and
//! [`input_of`] is the single way to read it after the solve (during
//! it, one scratch in-fact per solve is refilled at every visit).

use std::rc::Rc;

use crate::graph::{Cfg, NodeId};

/// Analysis direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along edges (predecessors → node).
    Forward,
    /// Facts flow against edges (successors → node).
    Backward,
}

/// The lattice value attached to each node: per slot, a sorted set of
/// `u32` (`None` is the empty set, so bottom allocates no set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    slots: Vec<Option<Rc<[u32]>>>,
}

impl Facts {
    /// Bottom: `slots` empty sets.
    pub fn new(slots: usize) -> Facts {
        Facts {
            slots: vec![None; slots],
        }
    }

    /// The set at `slot`, ascending.
    pub fn get(&self, slot: usize) -> &[u32] {
        self.slots[slot].as_deref().unwrap_or(&[])
    }

    /// Replace the set at `slot` (sorted and deduplicated here). A set
    /// equal to the current one keeps the current, shared, storage.
    pub fn set(&mut self, slot: usize, set: impl IntoIterator<Item = u32>) {
        let mut set: Vec<u32> = set.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        if set != self.get(slot) {
            self.slots[slot] = (!set.is_empty()).then(|| set.into());
        }
    }

    /// Add `x` to the set at `slot`.
    pub fn insert(&mut self, slot: usize, x: u32) {
        if let Err(at) = self.get(slot).binary_search(&x) {
            let mut set = self.get(slot).to_vec();
            set.insert(at, x);
            self.slots[slot] = Some(set.into());
        }
    }

    /// Empty the set at `slot`.
    pub fn clear(&mut self, slot: usize) {
        self.slots[slot] = None;
    }

    /// Slot-wise union of `other` into `self`; returns whether `self`
    /// grew. A slot that is empty here takes `other`'s set by reference.
    pub fn join(&mut self, other: &Facts) -> bool {
        let mut grew = false;
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            let Some(b) = theirs else { continue };
            match mine {
                None => *mine = Some(Rc::clone(b)),
                Some(a) if Rc::ptr_eq(a, b) || b.iter().all(|x| a.binary_search(x).is_ok()) => {
                    continue
                }
                Some(a) => {
                    let mut union = [&a[..], &b[..]].concat();
                    union.sort_unstable();
                    union.dedup();
                    *mine = Some(union.into());
                }
            }
            grew = true;
        }
        grew
    }
}

/// A may-dataflow problem over the CFG, on the [`Facts`] lattice.
pub trait Dataflow {
    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// How many slots a fact has.
    fn slots(&self) -> usize;

    /// Transfer: turn the node's in-fact (the join of neighbour facts
    /// in the analysis direction, then [`Dataflow::seed`]) into its
    /// out-fact, in place. `outs` exposes the current out-fact of every
    /// node — needed by transfer functions with non-local dependencies
    /// (the ArgOut restore vertex reads the facts at its paired ArgIn's
    /// predecessors); reads must be monotone in those facts.
    fn transfer(&self, node: NodeId, fact: &mut Facts, outs: &[Facts]);

    /// Extra seed applied to the node's *input* before transfer (e.g.
    /// boundary facts at entry/exit). Default: nothing.
    fn seed(&self, _node: NodeId, _input: &mut Facts) {}
}

/// The in-fact of `node` under `outs`: the join of its upstream
/// neighbours' out-facts, seeded.
pub fn input_of<D: Dataflow>(cfg: &Cfg, problem: &D, outs: &[Facts], node: NodeId) -> Facts {
    let mut input = Facts::new(problem.slots());
    refill(cfg, problem, outs, node, &mut input);
    input
}

/// [`input_of`] into `input`'s storage: a copy of the first upstream
/// out-fact, joined with the rest.
fn refill<D: Dataflow>(cfg: &Cfg, problem: &D, outs: &[Facts], node: NodeId, input: &mut Facts) {
    let mut upstream = match problem.direction() {
        Direction::Forward => cfg.preds[node.idx()].iter(),
        Direction::Backward => cfg.succs[node.idx()].iter(),
    };
    match upstream.next() {
        Some(first) => input.slots.clone_from(&outs[first.idx()].slots),
        None => input.slots.fill(None),
    }
    for nb in upstream {
        input.join(&outs[nb.idx()]);
    }
    problem.seed(node, input);
}

/// Solve to fixpoint; returns the out-fact of every node.
pub fn solve<D: Dataflow>(cfg: &Cfg, problem: &D) -> Vec<Facts> {
    let n = cfg.len();
    let mut out = vec![Facts::new(problem.slots()); n];

    // Iteration order: RPO for forward, reverse-RPO for backward.
    let mut order = cfg.reverse_postorder();
    if problem.direction() == Direction::Backward {
        order.reverse();
    }

    let mut in_worklist = vec![true; n];
    let mut worklist: std::collections::VecDeque<NodeId> = order.iter().copied().collect();

    let mut fact = Facts::new(problem.slots());
    while let Some(v) = worklist.pop_front() {
        in_worklist[v.idx()] = false;
        refill(cfg, problem, &out, v, &mut fact);
        problem.transfer(v, &mut fact, &out);
        // Did the out-fact grow?
        if out[v.idx()].join(&fact) {
            let downstream = match problem.direction() {
                Direction::Forward => &cfg.succs[v.idx()],
                Direction::Backward => &cfg.preds[v.idx()],
            };
            for d in downstream {
                if !in_worklist[d.idx()] {
                    in_worklist[d.idx()] = true;
                    worklist.push_back(*d);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_cfg, NodeKind};
    use hpfc_lang::frontend;

    fn shared(a: &Facts, b: &Facts, slot: usize) -> bool {
        match (&a.slots[slot], &b.slots[slot]) {
            (Some(x), Some(y)) => Rc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn set_sorts_and_dedups() {
        let mut f = Facts::new(2);
        f.set(1, [7, 3, 7, 1, 3]);
        assert_eq!(f.get(1), [1, 3, 7]);
        assert!(f.get(0).is_empty());
        f.insert(1, 5);
        f.insert(1, 5);
        assert_eq!(f.get(1), [1, 3, 5, 7]);
        f.set(1, []);
        assert_eq!(f, Facts::new(2));
    }

    #[test]
    fn join_reports_growth_exactly_once_and_is_idempotent() {
        let (mut a, mut b) = (Facts::new(3), Facts::new(3));
        a.set(0, [1, 4]);
        b.set(0, [2, 4]);
        b.set(2, [9]);
        assert!(a.join(&b));
        assert_eq!(
            (a.get(0), a.get(1), a.get(2)),
            (&[1, 2, 4][..], &[][..], &[9][..])
        );
        assert!(!a.join(&b), "nothing new the second time");
        assert!(
            !a.join(&a.clone()),
            "a fact joined with itself does not grow"
        );
        assert!(!b.join(&Facts::new(3)), "bottom is the identity");
        // A slot that was empty takes the other side's storage.
        assert!(shared(&a, &b, 2) && !shared(&a, &b, 0));
    }

    #[test]
    fn clear_then_join_regrows() {
        let (mut a, mut b) = (Facts::new(1), Facts::new(1));
        b.set(0, [3, 5]);
        assert!(a.join(&b));
        a.clear(0);
        assert!(a.get(0).is_empty());
        assert!(a.join(&b));
        assert_eq!(a.get(0), [3, 5]);
        // Setting what is already there keeps the shared storage.
        a.set(0, [5, 3]);
        assert!(shared(&a, &b, 0));
    }

    /// Forward reachability-from-entry as a trivial may-problem: slot 0
    /// is the set of Cond nodes passed through, slot 1 is never touched.
    struct PassedConds<'a> {
        cfg: &'a crate::graph::Cfg,
    }

    impl<'a> Dataflow for PassedConds<'a> {
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn slots(&self) -> usize {
            2
        }
        fn seed(&self, node: NodeId, input: &mut Facts) {
            if node == self.cfg.call_ctx {
                input.set(1, [42]);
            }
        }
        fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
            if matches!(self.cfg.node(node).kind, NodeKind::Cond { .. }) {
                fact.insert(0, node.0);
            }
        }
    }

    #[test]
    fn forward_fixpoint_through_branches_and_loops() {
        let src = "subroutine s\nreal :: a(8)\n\
                   if (a(1) > 0.0) then\na = 1.0\nendif\n\
                   do i = 1, 3\nif (a(2) > 0.0) then\na = 2.0\nendif\nenddo\nend";
        let m = frontend(src).unwrap();
        let cfg = build_cfg(m.main()).unwrap();
        let problem = PassedConds { cfg: &cfg };
        let out = solve(&cfg, &problem);
        // At exit, both conds have been passed (may).
        let conds: Vec<u32> = cfg
            .node_ids()
            .filter(|&id| matches!(cfg.node(id).kind, NodeKind::Cond { .. }))
            .map(|id| id.0)
            .collect();
        assert_eq!(out[cfg.exit.idx()].get(0), conds);
        assert_eq!(conds.len(), 2);
        // A slot no transfer changes is one set: every node's out-fact,
        // and every in-fact read from its predecessors, share the
        // storage the root's seed allocated.
        let seeded = &out[cfg.call_ctx.idx()];
        for id in cfg.node_ids() {
            assert!(shared(&out[id.idx()], seeded, 1), "{id:?}");
            if id != cfg.call_ctx {
                assert!(
                    shared(&input_of(&cfg, &problem, &out, id), seeded, 1),
                    "{id:?}"
                );
            }
        }
    }

    /// Backward: set of LoopTest nodes reachable *from* a node.
    struct ReachesTests<'a> {
        cfg: &'a crate::graph::Cfg,
    }

    impl<'a> Dataflow for ReachesTests<'a> {
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn slots(&self) -> usize {
            1
        }
        fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
            if matches!(self.cfg.node(node).kind, NodeKind::LoopTest { .. }) {
                fact.insert(0, node.0);
            }
        }
    }

    #[test]
    fn backward_fixpoint_sees_loop() {
        let src = "subroutine s\nreal :: a(8)\na = 0.0\ndo i = 1, 3\na(i) = 1.0\nenddo\nend";
        let m = frontend(src).unwrap();
        let cfg = build_cfg(m.main()).unwrap();
        let out = solve(&cfg, &ReachesTests { cfg: &cfg });
        // From entry, the loop test is reachable.
        assert_eq!(out[cfg.entry.idx()].get(0).len(), 1);
        // From exit, nothing is.
        assert!(out[cfg.exit.idx()].get(0).is_empty());
    }
}
