//! Remapping-graph construction — the dataflow formulation of App. B.
//!
//! Four passes over the CFG, each a may-problem on the solver's one
//! lattice ([`Facts`]: per slot a sorted set of `u32`, joined by union),
//! so a pass is only its slot layout and its transfer function. Every
//! pass has one slot per array (slot = `ArrayId`); pass 1 adds one per
//! template after them.
//!
//! 1. **Reaching/leaving mappings** (may-forward). An array's slot holds
//!    the interned raw `(alignment, distribution)` pairs that may be
//!    current, updated by the `impact` of each remapping statement; a
//!    template's slot holds its interned current distributions, so a
//!    `REALIGN` picks up the target template's. The `ArgOut` vertex
//!    restores what reached the paired `ArgIn` by reading the out-facts
//!    of that node's predecessors — a non-local read, sound because it
//!    is monotone in facts that only grow.
//! 2. **Use summarization** (may-backward): folds per-node accesses into
//!    the `N < D < R < W` qualifiers between remapping vertices. A slot
//!    holds the qualifiers that may apply and is read as its strongest
//!    member, so the union *is* the paper's join = max; a node with an
//!    access replaces the set by one sequenced qualifier.
//! 3. **Remapped-after** (may-backward): a slot holds the CFG nodes of
//!    the remapping vertices that may come next for the array — the
//!    edges of `G_R`.
//! 4. **Live values** (may-forward): `KILL` support — a slot is `{0}`
//!    when the array's *values* may still be live, else empty.
//!
//! Along the way every array reference is re-pointed at its statically
//! known version (the paper's Sec. 2 translation) and the two
//! flow-level restrictions are enforced (ambiguous references, several
//! leaving mappings).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use hpfc_cfg::dataflow::{input_of, solve, Dataflow, Direction, Facts};
use hpfc_cfg::effects::{node_effects, Access};
use hpfc_cfg::graph::{build_cfg, Cfg, NodeId, NodeKind};
use hpfc_lang::ast::Intent;
use hpfc_lang::diag::{codes, Diagnostic};
use hpfc_lang::sema::RoutineUnit;
use hpfc_mapping::{
    ArrayId, DimFormat, Distribution, Mapping, TemplateId, VersionId, VersionTable,
};

use crate::label::{Label, Leaving, UseInfo};

/// Index of a vertex within [`Rg::vertices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// As usize for indexing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The remapping graph of one routine, plus the reference-version
/// tagging the code generator consumes.
#[derive(Debug, Clone)]
pub struct Rg {
    /// The underlying CFG (owned: later phases need node kinds/spans).
    pub cfg: Cfg,
    /// `V_R` in reverse-postorder (so `v_c` is first, `v_e` last or
    /// close to it); `VertexId` indexes into this.
    pub vertices: Vec<NodeId>,
    /// Per-vertex, per-array labels (the paper's `S(v)` is the key set).
    pub labels: Vec<BTreeMap<ArrayId, Label>>,
    /// Edges `v → w` with the arrays remapped at both ends and untouched
    /// in between.
    pub edges: BTreeMap<VertexId, BTreeMap<VertexId, BTreeSet<ArrayId>>>,
    /// Reverse edges (same labels).
    pub redges: BTreeMap<VertexId, BTreeMap<VertexId, BTreeSet<ArrayId>>>,
    /// The interned array versions (the paper's `A_0, A_1, …`).
    pub versions: VersionTable,
    /// For every referencing CFG node: the statically known version of
    /// each array it touches.
    pub ref_versions: BTreeMap<(NodeId, ArrayId), VersionId>,
}

impl Rg {
    /// CFG node of a vertex.
    pub fn node_of(&self, v: VertexId) -> NodeId {
        self.vertices[v.idx()]
    }

    /// The label of array `a` at vertex `v`, if `a ∈ S(v)`.
    pub fn label(&self, v: VertexId, a: ArrayId) -> Option<&Label> {
        self.labels[v.idx()].get(&a)
    }

    /// Vertex ids in order.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Predecessor vertices of `v` for array `a` (edges labelled `a`).
    pub fn preds_for(&self, v: VertexId, a: ArrayId) -> Vec<VertexId> {
        self.redges
            .get(&v)
            .map(|m| {
                m.iter().filter(|(_, arrays)| arrays.contains(&a)).map(|(p, _)| *p).collect()
            })
            .unwrap_or_default()
    }

    /// Total number of (vertex, array) remapping slots, before any
    /// optimization (the paper's per-array remapping count).
    pub fn remapping_count(&self) -> usize {
        self.labels.iter().map(|m| m.len()).sum()
    }
}

/// Fig. 22 — use qualifiers attached to dummy arguments at `v_c` / `v_e`
/// from the `INTENT` attribute.
pub fn intent_use_labels(intent: Intent) -> (UseInfo, UseInfo) {
    match intent {
        Intent::In => (UseInfo::D, UseInfo::N),
        Intent::InOut => (UseInfo::D, UseInfo::W),
        Intent::Out => (UseInfo::N, UseInfo::W),
    }
}

/// Build the remapping graph of a routine (constructs the CFG first).
pub fn build(unit: &RoutineUnit) -> Result<Rg, Vec<Diagnostic>> {
    let cfg = build_cfg(unit)?;
    build_from_cfg(unit, cfg)
}

// ---------------------------------------------------------------------
// What every pass knows about the routine.
// ---------------------------------------------------------------------

struct Routine<'a> {
    unit: &'a RoutineUnit,
    cfg: &'a Cfg,
    dummies: BTreeSet<ArrayId>,
    /// `node_effects` of every node, by node index.
    effects: Vec<Vec<(ArrayId, Access)>>,
}

impl Routine<'_> {
    fn intent(&self, a: ArrayId) -> Intent {
        let name = &self.unit.env.array(a).name;
        self.unit.param_intents.get(name).copied().unwrap_or(Intent::InOut)
    }

    fn kind(&self, node: NodeId) -> &NodeKind {
        &self.cfg.node(node).kind
    }
}

/// The slot of an array, in every pass.
fn slot(a: ArrayId) -> usize {
    a.0 as usize
}

/// Precomputed `S(v)` for remap vertices.
type SSets = BTreeMap<NodeId, BTreeSet<ArrayId>>;

// ---------------------------------------------------------------------
// Pass 1: reaching/leaving mapping propagation.
// ---------------------------------------------------------------------

type Key = u32;

/// Values numbered in order of first appearance.
struct Interner<T> {
    items: Vec<T>,
    index: HashMap<T, Key>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn new() -> Self {
        Interner { items: Vec::new(), index: HashMap::new() }
    }

    fn intern(&mut self, x: &T) -> Key {
        if let Some(&k) = self.index.get(x) {
            return k;
        }
        let k = self.items.len() as Key;
        self.items.push(x.clone());
        self.index.insert(x.clone(), k);
        k
    }
}

struct MapFlow<'a> {
    r: &'a Routine<'a>,
    maps: RefCell<Interner<Mapping>>,
    dists: RefCell<Interner<Distribution>>,
}

impl MapFlow<'_> {
    fn template_slot(&self, t: TemplateId) -> usize {
        self.r.unit.env.n_arrays() + t.0 as usize
    }

    fn initial(&self, a: ArrayId) -> [Key; 1] {
        [self.maps.borrow_mut().intern(&self.r.unit.initial[&a])]
    }

    fn template_initial(&self, t: TemplateId) -> Distribution {
        let unit = self.r.unit;
        unit.template_dist.get(&t).cloned().unwrap_or_else(|| {
            Distribution::new(
                unit.default_grid,
                vec![DimFormat::Collapsed; unit.env.template(t).shape.rank()],
            )
        })
    }

    /// The impact of `REDISTRIBUTE template(dist)` on one mapping: a
    /// mapping aligned with another template is left alone.
    fn redistributed(&self, k: Key, template: TemplateId, dist: &Distribution) -> Key {
        let mut maps = self.maps.borrow_mut();
        let align = &maps.items[k as usize].align;
        if align.template != template {
            return k;
        }
        let impacted = Mapping { align: align.clone(), dist: dist.clone() };
        maps.intern(&impacted)
    }
}

impl Dataflow for MapFlow<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn slots(&self) -> usize {
        self.r.unit.env.n_arrays() + self.r.unit.env.templates().len()
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, outs: &[Facts]) {
        let Routine { unit, cfg, dummies, .. } = self.r;
        match self.r.kind(node) {
            NodeKind::CallCtx => {
                // Seed every template's current distribution and the
                // dummies' initial mappings.
                for t in unit.env.templates() {
                    let d = self.dists.borrow_mut().intern(&self.template_initial(t.id));
                    fact.set(self.template_slot(t.id), [d]);
                }
                for &a in dummies {
                    fact.set(slot(a), self.initial(a));
                }
            }
            NodeKind::Entry => {
                for info in unit.env.arrays() {
                    if !dummies.contains(&info.id) {
                        fact.set(slot(info.id), self.initial(info.id));
                    }
                }
            }
            NodeKind::Exit => {
                // Dummies are restored to their declared mapping.
                for &a in dummies {
                    fact.set(slot(a), self.initial(a));
                }
            }
            NodeKind::Realign { pairs } => {
                for (a, al) in pairs {
                    let dists = self.dists.borrow();
                    let mut current: Vec<Distribution> = fact
                        .get(self.template_slot(al.template))
                        .iter()
                        .map(|&k| dists.items[k as usize].clone())
                        .collect();
                    if current.is_empty() {
                        current.push(self.template_initial(al.template));
                    }
                    let mut maps = self.maps.borrow_mut();
                    let keys: Vec<Key> = current
                        .into_iter()
                        .map(|dist| maps.intern(&Mapping { align: al.clone(), dist }))
                        .collect();
                    fact.set(slot(*a), keys);
                }
            }
            NodeKind::Redistribute { template, dist } => {
                fact.set(self.template_slot(*template), [self.dists.borrow_mut().intern(dist)]);
                for a in 0..unit.env.n_arrays() {
                    let keys: Vec<Key> =
                        fact.get(a).iter().map(|&k| self.redistributed(k, *template, dist)).collect();
                    fact.set(a, keys);
                }
            }
            NodeKind::ArgIn { array, mapping, .. } => {
                fact.set(slot(*array), [self.maps.borrow_mut().intern(mapping)]);
            }
            NodeKind::ArgOut { array, arg_in, .. } => {
                // Restore the mappings that reached the paired ArgIn:
                // monotone read of the current out-facts of its preds.
                let restored: Vec<Key> = cfg.preds[arg_in.idx()]
                    .iter()
                    .flat_map(|p| outs[p.idx()].get(slot(*array)).iter().copied())
                    .collect();
                if !restored.is_empty() {
                    fact.set(slot(*array), restored);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Pass 2: use summarization.
// ---------------------------------------------------------------------

struct UseFlow<'a> {
    r: &'a Routine<'a>,
    s_sets: &'a SSets,
}

/// The qualifier a slot of pass 2 stands for: its strongest member.
fn strongest(qualifiers: &[u32]) -> UseInfo {
    const BY_RANK: [UseInfo; 4] = [UseInfo::N, UseInfo::D, UseInfo::R, UseInfo::W];
    qualifiers.last().map_or(UseInfo::N, |&q| BY_RANK[q as usize])
}

impl Dataflow for UseFlow<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn slots(&self) -> usize {
        self.r.unit.env.n_arrays()
    }

    fn seed(&self, node: NodeId, input: &mut Facts) {
        if matches!(self.r.kind(node), NodeKind::Exit) {
            // Fig. 22: exported values are uses after exit.
            for &a in &self.r.dummies {
                let (_, at_exit) = intent_use_labels(self.r.intent(a));
                input.insert(slot(a), at_exit as u32);
            }
        }
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
        if let Some(s) = self.s_sets.get(&node) {
            // Remapping vertex: the summarized region ends here.
            for a in s {
                fact.clear(slot(*a));
            }
            return;
        }
        for &(a, acc) in &self.r.effects[node.idx()] {
            let of = if acc.read && acc.write {
                Some(UseInfo::W)
            } else if acc.read {
                Some(UseInfo::R)
            } else if acc.write_full {
                Some(UseInfo::D)
            } else if acc.write {
                Some(UseInfo::W)
            } else {
                None
            };
            let after = strongest(fact.get(slot(a)));
            fact.set(slot(a), [UseInfo::seq(of, after) as u32]);
        }
    }
}

// ---------------------------------------------------------------------
// Pass 3: remapped-after (G_R edges).
// ---------------------------------------------------------------------

struct NextRemapFlow<'a> {
    n_arrays: usize,
    s_sets: &'a SSets,
}

impl Dataflow for NextRemapFlow<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn slots(&self) -> usize {
        self.n_arrays
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
        for a in self.s_sets.get(&node).into_iter().flatten() {
            fact.set(slot(*a), [node.0]);
        }
    }
}

// ---------------------------------------------------------------------
// Pass 4: live values (KILL support).
// ---------------------------------------------------------------------

struct LiveValuesFlow<'a> {
    r: &'a Routine<'a>,
}

impl Dataflow for LiveValuesFlow<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn slots(&self) -> usize {
        self.r.unit.env.n_arrays()
    }

    fn transfer(&self, node: NodeId, fact: &mut Facts, _outs: &[Facts]) {
        match self.r.kind(node) {
            NodeKind::CallCtx => {
                // Imported values are live; OUT dummies arrive dead;
                // locals are uninitialized (dead) until first written.
                for &a in &self.r.dummies {
                    if self.r.intent(a) != Intent::Out {
                        fact.insert(slot(a), 0);
                    }
                }
            }
            NodeKind::Kill { arrays } => {
                for a in arrays {
                    fact.clear(slot(*a));
                }
            }
            _ => {
                for &(a, acc) in &self.r.effects[node.idx()] {
                    if acc.write {
                        fact.insert(slot(a), 0);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Assembly.
// ---------------------------------------------------------------------

/// Build `G_R` from an already-built CFG.
pub fn build_from_cfg(unit: &RoutineUnit, cfg: Cfg) -> Result<Rg, Vec<Diagnostic>> {
    let mut errs: Vec<Diagnostic> = Vec::new();

    let r = Routine {
        unit,
        cfg: &cfg,
        dummies: unit.ast.params.iter().filter_map(|p| unit.array(p)).collect(),
        effects: cfg.node_ids().map(|n| node_effects(unit, &cfg, n)).collect(),
    };
    let arrays = || unit.env.arrays().iter().map(|info| info.id);

    // --- Pass 1: mapping propagation.
    let flow = MapFlow {
        r: &r,
        maps: RefCell::new(Interner::new()),
        dists: RefCell::new(Interner::new()),
    };
    let outs = solve(&cfg, &flow);

    let mut remap_vertices = cfg.reverse_postorder();
    remap_vertices.retain(|&n| cfg.node(n).kind.is_remap_vertex());

    // --- Version interning (RPO order gives the paper's discovery-order
    // subscripts: the entry mapping is 0).
    let mut versions = VersionTable::new();
    let normalize_keys = |keys: &[Key],
                          a: ArrayId,
                          versions: &mut VersionTable,
                          errs: &mut Vec<Diagnostic>,
                          span: hpfc_lang::Span|
     -> BTreeSet<VersionId> {
        let mut out = BTreeSet::new();
        for &k in keys {
            match unit.env.normalize(a, &flow.maps.borrow().items[k as usize]) {
                Ok(nm) => {
                    out.insert(versions.intern(a, &nm));
                }
                Err(e) => {
                    errs.push(Diagnostic::error(
                        codes::MAPPING,
                        span,
                        format!("mapping of `{}` is invalid: {e}", unit.env.array(a).name),
                    ));
                }
            }
        }
        out
    };

    // --- S(v) — which arrays are remapped at each vertex — and their
    // leaving/reaching labels, vertex by vertex.
    let mut s_sets = SSets::new();
    let mut labels: Vec<BTreeMap<ArrayId, Label>> = Vec::new();
    for &v in &remap_vertices {
        let span = cfg.node(v).span;
        let kind = &cfg.node(v).kind;
        let before = input_of(&cfg, &flow, &outs, v);
        let after = &outs[v.idx()];
        let set: BTreeSet<ArrayId> = match kind {
            NodeKind::CallCtx | NodeKind::Exit => r.dummies.clone(),
            NodeKind::Entry => arrays().filter(|a| !r.dummies.contains(a)).collect(),
            NodeKind::ArgIn { array, .. } | NodeKind::ArgOut { array, .. } => [*array].into(),
            NodeKind::Realign { .. } | NodeKind::Redistribute { .. } => arrays()
                .filter(|&a| {
                    let reaching = before.get(slot(a));
                    !reaching.is_empty() && reaching != after.get(slot(a))
                })
                .collect(),
            _ => unreachable!("not a remap vertex"),
        };
        let mut labels_at_v: BTreeMap<ArrayId, Label> = BTreeMap::new();
        for &a in &set {
            // Split the conceptual mappings into *remapped* (the
            // directive's impact changes them) and *pass-through* (a
            // partial-impact redistribution leaves them alone — the
            // Fig. 5 situation where the alignment is flow-dependent).
            // The split applies `impact` per reaching key: for a
            // REDISTRIBUTE, a key is unaffected iff its alignment does
            // not target the redistributed template; every other vertex
            // kind maps all keys to the full after-set.
            let (before_keys, after_keys) = (before.get(slot(a)), after.get(slot(a)));
            let mut passthrough_keys: Vec<Key> = Vec::new();
            let mut affected_before: Vec<Key> = Vec::new();
            let mut affected_after: Vec<Key> = Vec::new();
            for &k in before_keys {
                let redistributed;
                let impact: &[Key] = match kind {
                    NodeKind::Redistribute { template, dist } => {
                        redistributed = [flow.redistributed(k, *template, dist)];
                        &redistributed
                    }
                    _ => after_keys,
                };
                if impact == [k] {
                    passthrough_keys.push(k);
                } else {
                    affected_before.push(k);
                    affected_after.extend(impact);
                }
            }
            if before_keys.is_empty() {
                // Entry-side vertices: everything they leave is new.
                affected_after.extend(after_keys);
            }
            affected_after.sort_unstable();
            affected_after.dedup();

            let reaching = normalize_keys(&affected_before, a, &mut versions, &mut errs, span);
            let passthrough =
                normalize_keys(&passthrough_keys, a, &mut versions, &mut errs, span);
            let leaving_set = normalize_keys(&affected_after, a, &mut versions, &mut errs, span);
            let leaving = if leaving_set.is_empty() {
                None
            } else if leaving_set.len() == 1 {
                Some(Leaving::One(*leaving_set.iter().next().unwrap()))
            } else if matches!(kind, NodeKind::ArgOut { .. }) {
                // Fig. 18: restore whichever mapping reached the call —
                // legal, realized by a runtime status save/restore.
                Some(Leaving::Restore(leaving_set.clone()))
            } else {
                errs.push(Diagnostic::error(
                    codes::MULTI_LEAVING,
                    span,
                    format!(
                        "`{}` has {} possible leaving mappings at this remapping \
                         (paper App. A assumes one; Fig. 21 case is rejected)",
                        unit.env.array(a).name,
                        leaving_set.len()
                    ),
                ));
                None
            };
            let mut label = Label::new(leaving, reaching);
            label.passthrough = passthrough;
            labels_at_v.insert(a, label);
        }
        s_sets.insert(v, set);
        labels.push(labels_at_v);
    }

    // --- Reference tagging + restriction 1 (ambiguous references).
    let mut ref_versions: BTreeMap<(NodeId, ArrayId), VersionId> = BTreeMap::new();
    for n in cfg.node_ids() {
        let effects = &r.effects[n.idx()];
        if effects.is_empty() {
            continue;
        }
        let span = cfg.node(n).span;
        let st = input_of(&cfg, &flow, &outs, n);
        for &(a, _acc) in effects {
            let keys = st.get(slot(a));
            if keys.is_empty() {
                errs.push(Diagnostic::error(
                    codes::AMBIGUOUS_REF,
                    span,
                    format!("`{}` referenced before any mapping", unit.env.array(a).name),
                ));
                continue;
            }
            let vset = normalize_keys(keys, a, &mut versions, &mut errs, span);
            match vset.len() {
                1 => {
                    ref_versions.insert((n, a), *vset.iter().next().unwrap());
                }
                0 => {}
                _ => {
                    errs.push(Diagnostic::error(
                        codes::AMBIGUOUS_REF,
                        span,
                        format!(
                            "`{}` is referenced with an ambiguous mapping \
                             ({} possible placements reach this statement); \
                             the paper's restriction 1 forbids this (Fig. 5)",
                            unit.env.array(a).name,
                            vset.len()
                        ),
                    ));
                }
            }
        }
    }

    // --- Pass 2: use qualifiers.
    let use_flow = UseFlow { r: &r, s_sets: &s_sets };
    let use_outs = solve(&cfg, &use_flow);
    for (&v, labels_at_v) in remap_vertices.iter().zip(&mut labels) {
        // U_A(v) = join of successor facts (+ exit seed).
        let input = input_of(&cfg, &use_flow, &use_outs, v);
        for (a, l) in labels_at_v {
            l.use_info = match cfg.node(v).kind {
                // Fig. 22 import side.
                NodeKind::CallCtx => intent_use_labels(r.intent(*a)).0,
                // ArgIn vertices need no special case: the callee's
                // Fig. 25 intent effect is the Call node's proper
                // effect, which the backward summarization already
                // folded into `input`.
                _ => strongest(input.get(slot(*a))),
            };
        }
    }

    // --- Pass 3: edges.
    let next_flow = NextRemapFlow { n_arrays: unit.env.n_arrays(), s_sets: &s_sets };
    let next_outs = solve(&cfg, &next_flow);
    let vindex: BTreeMap<NodeId, VertexId> = remap_vertices
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, VertexId(i as u32)))
        .collect();
    let mut edges: BTreeMap<VertexId, BTreeMap<VertexId, BTreeSet<ArrayId>>> = BTreeMap::new();
    let mut redges: BTreeMap<VertexId, BTreeMap<VertexId, BTreeSet<ArrayId>>> = BTreeMap::new();
    for &v in &remap_vertices {
        let input = input_of(&cfg, &next_flow, &next_outs, v);
        let from = vindex[&v];
        for &a in &s_sets[&v] {
            for &w in input.get(slot(a)) {
                let to = vindex[&NodeId(w)];
                edges.entry(from).or_default().entry(to).or_default().insert(a);
                redges.entry(to).or_default().entry(from).or_default().insert(a);
            }
        }
    }

    // --- Pass 4: live values (KILL).
    let live_flow = LiveValuesFlow { r: &r };
    let live_outs = solve(&cfg, &live_flow);
    for (&v, labels_at_v) in remap_vertices.iter().zip(&mut labels) {
        let input = input_of(&cfg, &live_flow, &live_outs, v);
        // Entry-side vertices have no incoming values by definition.
        let has_preds = !cfg.preds[v.idx()].is_empty();
        for (a, l) in labels_at_v {
            l.values_dead = has_preds && input.get(slot(*a)).is_empty();
        }
    }

    if !errs.is_empty() {
        return Err(errs);
    }

    Ok(Rg {
        cfg,
        vertices: remap_vertices,
        labels,
        edges,
        redges,
        versions,
        ref_versions,
    })
}
