//! The lowering walk: AST × remapping graph → static program.

use std::collections::{BTreeMap, BTreeSet};

use hpfc_cfg::graph::{NodeId, NodeKind};
use hpfc_lang::ast::{Directive, Expr, Stmt};
use hpfc_lang::sema::RoutineUnit;
use hpfc_lang::Span;
use hpfc_mapping::ArrayId;
use hpfc_rgraph::build::{Rg, VertexId};
use hpfc_rgraph::label::{Leaving, UseInfo};

use hpfc_mapping::VersionId;
use hpfc_runtime::PlanRegistry;
use std::sync::Arc;

use crate::ir::{
    ArrayDecl, ElementKernel, RemapGroupOp, RemapOp, RestoreArm, RestoreOp, SStmt, Scope, SpmdCopy,
    StaticProgram, Target,
};

/// Static accounting of what lowering emitted — the compile-time side
/// of the experiment tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// `Remap` statements emitted.
    pub emitted_remaps: usize,
    /// Remapping slots suppressed because App. C removed them.
    pub suppressed_removed: usize,
    /// Emitted remaps that are statically trivial (runtime status check
    /// will skip them).
    pub emitted_trivial: usize,
    /// Fig. 18 save/restore pairs.
    pub save_restores: usize,
    /// Remaps emitted with no data movement (`U = D` or dead values).
    pub no_data_remaps: usize,
    /// Compile-time-planned restore arms (one per statically possible
    /// saved tag of every flow-dependent restore).
    pub restore_arms: usize,
    /// Directive-level remap groups emitted (Fig. 3: ≥2 arrays of one
    /// directive aggregated into a merged schedule).
    pub remap_groups: usize,
    /// Total member remaps inside those groups.
    pub grouped_members: usize,
}

/// Lowering knobs.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Aggregate the remaps of one directive into a [`RemapGroupOp`]
    /// with a merged caterpillar schedule (on by default; off lowers
    /// each array's remap as a solo [`SStmt::Remap`], the pre-grouping
    /// behavior — useful as a baseline).
    pub group_remaps: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { group_remaps: true }
    }
}

/// Lower a routine to its static program, consuming the (optimized)
/// remapping graph, with default [`LowerOptions`].
pub fn lower(unit: &RoutineUnit, rg: &Rg) -> (StaticProgram, CodegenStats) {
    lower_with(unit, rg, &LowerOptions::default())
}

/// [`lower`] with explicit options.
pub fn lower_with(
    unit: &RoutineUnit,
    rg: &Rg,
    options: &LowerOptions,
) -> (StaticProgram, CodegenStats) {
    let mut stats = CodegenStats::default();

    // --- indices from source spans to CFG nodes / vertices.
    let mut directive_vertex: BTreeMap<(usize, usize), VertexId> = BTreeMap::new();
    let mut call_groups: BTreeMap<(usize, usize), CallGroup> = BTreeMap::new();
    let mut assign_nodes: BTreeMap<(usize, usize), NodeId> = BTreeMap::new();
    for v in rg.vertex_ids() {
        let n = rg.node_of(v);
        let span = rg.cfg.node(n).span;
        match rg.cfg.node(n).kind {
            NodeKind::Realign { .. } | NodeKind::Redistribute { .. } => {
                directive_vertex.insert(key(span), v);
            }
            NodeKind::ArgIn { .. } => {
                call_groups.entry(key(span)).or_default().arg_ins.push(v);
            }
            NodeKind::ArgOut { .. } => {
                call_groups.entry(key(span)).or_default().arg_outs.push(v);
            }
            _ => {}
        }
    }
    for n in rg.cfg.node_ids() {
        if matches!(rg.cfg.node(n).kind, NodeKind::Assign { .. }) {
            assign_nodes.insert(key(rg.cfg.node(n).span), n);
        }
    }

    let elem_sizes: BTreeMap<ArrayId, u64> =
        unit.env.arrays().iter().map(|info| (info.id, info.elem_size)).collect();
    let mut lowerer = Lowerer {
        slots: unit.ast.params.iter().filter(|p| unit.array(p).is_none()).cloned().collect(),
        unit,
        rg,
        directive_vertex,
        call_groups,
        assign_nodes,
        elem_sizes,
        stats: &mut stats,
        n_slots: 0,
        group_remaps: options.group_remaps,
    };
    let body = lowerer.lower_body(&unit.ast.body);

    // Exit block: dummy restores (the v_e vertex), then cleanup —
    // executed on every path out of the routine, including RETURN.
    let exit_v = rg
        .vertex_ids()
        .find(|&v| matches!(rg.cfg.node(rg.node_of(v)).kind, NodeKind::Exit))
        .expect("exit vertex");
    let mut exit_block = Vec::new();
    for (&a, label) in &rg.labels[exit_v.idx()] {
        if let Some(op) = lowerer.remap_op_from_label(a, label) {
            exit_block.push(SStmt::Remap(op));
        }
    }
    exit_block.push(SStmt::ExitCleanup);
    let (n_slots, scalars) = (lowerer.n_slots, lowerer.slots);

    // --- array declarations with version tables.
    let dummies: BTreeSet<ArrayId> =
        unit.ast.params.iter().filter_map(|p| unit.array(p)).collect();
    let mut arrays = Vec::new();
    for info in unit.env.arrays() {
        let mut versions: Vec<_> = rg
            .versions
            .versions_of(info.id)
            .into_iter()
            .map(|v| rg.versions.mapping_of(v).clone())
            .collect();
        if versions.is_empty() {
            // Never remapped nor referenced: a single static version.
            versions.push(unit.env.normalize(info.id, &unit.initial[&info.id]).expect(
                "initial mappings were validated by sema",
            ));
        }
        arrays.push(ArrayDecl {
            id: info.id,
            name: info.name.clone(),
            elem_size: info.elem_size,
            versions,
            entry_version: 0,
            is_dummy: dummies.contains(&info.id),
        });
    }

    let nprocs = unit.env.grids().iter().map(|g| g.nprocs()).max().unwrap_or(1);

    (
        StaticProgram {
            routine: unit.name.clone(),
            arrays,
            nprocs,
            body,
            exit_block,
            n_slots,
            param_order: unit.ast.params.clone(),
            scalars,
        },
        stats,
    )
}

fn key(s: Span) -> (usize, usize) {
    (s.start, s.end)
}

#[derive(Default)]
struct CallGroup {
    arg_ins: Vec<VertexId>,
    arg_outs: Vec<VertexId>,
}

struct Lowerer<'a> {
    unit: &'a RoutineUnit,
    rg: &'a Rg,
    directive_vertex: BTreeMap<(usize, usize), VertexId>,
    call_groups: BTreeMap<(usize, usize), CallGroup>,
    assign_nodes: BTreeMap<(usize, usize), NodeId>,
    elem_sizes: BTreeMap<ArrayId, u64>,
    stats: &'a mut CodegenStats,
    n_slots: u32,
    group_remaps: bool,
    /// The frame slot names handed out so far (see [`Scope`]).
    slots: Vec<String>,
}

impl<'a> Lowerer<'a> {
    /// Name resolution for this routine's expressions.
    fn scope(&mut self) -> Scope<'_> {
        Scope { unit: self.unit, slots: &mut self.slots }
    }

    fn lower_body(&mut self, body: &[Stmt]) -> Vec<SStmt> {
        let mut out = Vec::new();
        for s in body {
            self.lower_stmt(s, &mut out);
        }
        out
    }

    /// Plan, schedule, and compile the guarded copy arm for every
    /// data-moving source version (`r ∈ reaching`, `r ≠ target`), in
    /// source order — for plain remaps and each arm of a flow-dependent
    /// restore. Every pair is resolved by the process-wide plan registry,
    /// as a run-time miss would be, so the process holds one compiled
    /// pipeline per distinct pair.
    fn planned_copies(&self, a: ArrayId, reaching: &BTreeSet<u32>, target: u32) -> Vec<SpmdCopy> {
        let elem = self.elem_sizes[&a];
        let dst = self.rg.versions.mapping_of(VersionId { array: a, index: target });
        reaching
            .iter()
            .filter(|&&r| r != target)
            .map(|&r| {
                let src = self.rg.versions.mapping_of(VersionId { array: a, index: r });
                let (planned, _) = PlanRegistry::shared().resolve(src, dst, elem, false);
                SpmdCopy { src: r, planned }
            })
            .collect()
    }

    fn remap_op_from_label(
        &mut self,
        a: ArrayId,
        label: &hpfc_rgraph::label::Label,
    ) -> Option<RemapOp> {
        match &label.leaving {
            None => {
                if label.is_removed() {
                    self.stats.suppressed_removed += 1;
                }
                None
            }
            Some(Leaving::One(v)) => {
                let reaching: std::collections::BTreeSet<u32> =
                    label.reaching.iter().map(|x| x.index).collect();
                let no_data = label.values_dead || label.use_info == UseInfo::D;
                // One packed send/recv schedule per data-moving source
                // version, planned and compiled to a copy program now:
                // the interpreter seeds its plan cache from these Arcs.
                let copies = if no_data {
                    Vec::new()
                } else {
                    self.planned_copies(a, &reaching, v.index)
                };
                let op = RemapOp {
                    array: a,
                    target: v.index,
                    skip_if_current: label
                        .passthrough
                        .iter()
                        .map(|x| x.index)
                        .filter(|i| !reaching.contains(i))
                        .collect(),
                    reaching,
                    may_live: label.may_live.iter().map(|x| x.index).collect(),
                    no_data,
                    copies,
                };
                self.stats.emitted_remaps += 1;
                if label.is_trivial() {
                    self.stats.emitted_trivial += 1;
                }
                if op.no_data {
                    self.stats.no_data_remaps += 1;
                }
                Some(op)
            }
            Some(Leaving::Restore(_)) => {
                unreachable!("restores are emitted by the call path")
            }
        }
    }

    /// Emit one directive's remap operations: the data-moving,
    /// single-source members are aggregated into a [`RemapGroupOp`]
    /// per element size (Fig. 3's template impact — their same-pair
    /// messages share merged caterpillar rounds and wire buffers);
    /// everything else (no-data remaps, flow-merged multi-source
    /// remaps) stays a solo [`SStmt::Remap`]. With grouping off, every
    /// op is emitted solo — the pre-grouping baseline.
    fn emit_directive_ops(&mut self, ops: Vec<RemapOp>, out: &mut Vec<SStmt>) {
        if !self.group_remaps {
            out.extend(ops.into_iter().map(SStmt::Remap));
            return;
        }
        // Candidates bucketed by element size (a merged schedule's wire
        // buffers are homogeneous); ops arrive in array order and stay
        // in array order within each bucket.
        let mut buckets: BTreeMap<u64, Vec<RemapOp>> = BTreeMap::new();
        let mut solos = Vec::new();
        for op in ops {
            if !op.no_data && op.copies.len() == 1 {
                buckets.entry(self.elem_sizes[&op.array]).or_default().push(op);
            } else {
                solos.push(op);
            }
        }
        // A group is emitted with at most 64 members (a bound of this
        // lowering, not of the runtime, which coalesces any number); a
        // larger directive (65+ aligned arrays) is emitted as several
        // groups, each coalescing internally.
        const MAX_GROUP_MEMBERS: usize = 64;
        for (_, mut members) in buckets {
            while !members.is_empty() {
                let rest = members.split_off(members.len().min(MAX_GROUP_MEMBERS));
                if members.len() < 2 {
                    solos.extend(members);
                } else {
                    // Group artifacts share through the registry too,
                    // keyed by the ordered member pair identities.
                    let member_plans: Vec<_> =
                        members.iter().map(|m| Arc::clone(&m.copies[0].planned)).collect();
                    let (planned, _) = PlanRegistry::shared().get_or_compile_group(member_plans);
                    self.stats.remap_groups += 1;
                    self.stats.grouped_members += members.len();
                    out.push(SStmt::RemapGroup(RemapGroupOp { members, planned }));
                }
                members = rest;
            }
        }
        solos.sort_by_key(|op| op.array);
        out.extend(solos.into_iter().map(SStmt::Remap));
    }

    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<SStmt>) {
        match s {
            Stmt::Assign { lhs, rhs, span } => {
                let expected = self
                    .assign_nodes
                    .get(&key(*span))
                    .map(|&n| {
                        self.rg
                            .ref_versions
                            .range((n, ArrayId(0))..=(n, ArrayId(u32::MAX)))
                            .map(|((_, a), v)| (*a, v.index))
                            .collect()
                    })
                    .unwrap_or_default();
                // A whole-array assignment is an elementwise zip over
                // statically known versions; anything else is scalar.
                let scope = &mut self.scope();
                let (target, kernel) = match scope.unit.array(&lhs.name) {
                    Some(a) if lhs.subs.is_empty() => {
                        (Target::Whole(a), ElementKernel::elementwise(a, rhs, scope))
                    }
                    Some(a) => (
                        Target::Element(a, ElementKernel::scalar(&lhs.subs, scope)),
                        ElementKernel::scalar([rhs], scope),
                    ),
                    None => {
                        (Target::Scalar(scope.slot(&lhs.name)), ElementKernel::scalar([rhs], scope))
                    }
                };
                let (lhs, rhs) = (lhs.clone(), rhs.clone());
                out.push(SStmt::Assign { lhs, rhs, expected, target, kernel });
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                let test = ElementKernel::scalar([cond], &mut self.scope());
                let then_body = self.lower_body(then_body);
                let else_body = self.lower_body(else_body);
                out.push(SStmt::If { cond: cond.clone(), test, then_body, else_body });
            }
            Stmt::Do { var, lo, hi, step, body, .. } => {
                let one = Expr::Int(1, lo.span());
                let mut scope = self.scope();
                let bounds =
                    ElementKernel::scalar([step.as_ref().unwrap_or(&one), lo, hi], &mut scope);
                let slot = scope.slot(var);
                let body = self.lower_body(body);
                out.push(SStmt::Do {
                    var: var.clone(),
                    slot,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: step.clone(),
                    bounds,
                    body,
                });
            }
            Stmt::Return { .. } => out.push(SStmt::Return),
            Stmt::Call { name, args, span } => {
                let group = self.call_groups.remove(&key(*span)).unwrap_or_default();
                // Fig. 18: save the reaching status of every array whose
                // restore is flow-dependent, *before* remapping it.
                let mut slots: BTreeMap<ArrayId, u32> = BTreeMap::new();
                for &vo in &group.arg_outs {
                    let NodeKind::ArgOut { array, .. } = *rg_kind(self.rg, vo) else { continue };
                    let label = &self.rg.labels[vo.idx()][&array];
                    if matches!(label.leaving, Some(Leaving::Restore(_))) {
                        let slot = self.n_slots;
                        self.n_slots += 1;
                        slots.insert(array, slot);
                        out.push(SStmt::SaveStatus { array, slot });
                        self.stats.save_restores += 1;
                    }
                }
                // ArgIn remaps.
                let mut mapped = Vec::new();
                for &vi in &group.arg_ins {
                    let NodeKind::ArgIn { array, intent, .. } = *rg_kind(self.rg, vi) else {
                        continue;
                    };
                    let label = &self.rg.labels[vi.idx()][&array];
                    if let Some(op) = self.remap_op_from_label(array, label) {
                        mapped.push((array, intent, op.target));
                        out.push(SStmt::Remap(op));
                    } else if let Some(Leaving::One(v)) = &label.original_leaving {
                        // Removed ArgIn cannot happen (a call always uses
                        // its argument), but keep the dummy version for
                        // the Call record defensively.
                        mapped.push((array, intent, v.index));
                    }
                }
                let mut scope = self.scope();
                let actuals = args.iter().map(|e| ElementKernel::scalar([e], &mut scope)).collect();
                out.push(SStmt::Call { name: name.clone(), args: args.clone(), actuals, mapped });
                // ArgOut restores.
                for &vo in &group.arg_outs {
                    let NodeKind::ArgOut { array, .. } = *rg_kind(self.rg, vo) else { continue };
                    let label = &self.rg.labels[vo.idx()][&array];
                    match &label.leaving {
                        None => {
                            if label.is_removed() {
                                self.stats.suppressed_removed += 1;
                            }
                        }
                        Some(Leaving::One(_)) => {
                            if let Some(op) = self.remap_op_from_label(array, label) {
                                out.push(SStmt::Remap(op));
                            }
                        }
                        Some(Leaving::Restore(set)) => {
                            // Fig. 18, statically lowered: one compiled arm
                            // per possible saved tag; run time selects one.
                            let possible: BTreeSet<u32> =
                                set.iter().map(|x| x.index).collect();
                            let reaching: BTreeSet<u32> =
                                label.reaching.iter().map(|x| x.index).collect();
                            let no_data =
                                label.values_dead || label.use_info == UseInfo::D;
                            let arms: Vec<RestoreArm> = possible
                                .iter()
                                .map(|&v| RestoreArm {
                                    target: v,
                                    copies: if no_data {
                                        Vec::new()
                                    } else {
                                        self.planned_copies(array, &reaching, v)
                                    },
                                })
                                .collect();
                            self.stats.restore_arms += arms.len();
                            out.push(SStmt::RestoreStatus(RestoreOp {
                                array,
                                slot: slots[&array],
                                possible,
                                reaching,
                                may_live: label.may_live.iter().map(|x| x.index).collect(),
                                no_data,
                                arms,
                            }));
                            self.stats.emitted_remaps += 1;
                        }
                    }
                }
            }
            Stmt::Directive(d) => match d {
                Directive::Realign { span, .. } | Directive::Redistribute { span, .. } => {
                    let Some(&v) = self.directive_vertex.get(&key(*span)) else {
                        return; // unreachable directive (dead code)
                    };
                    let mut ops = Vec::new();
                    for (&a, label) in &self.rg.labels[v.idx()] {
                        if let Some(op) = self.remap_op_from_label(a, label) {
                            ops.push(op);
                        }
                    }
                    self.emit_directive_ops(ops, out);
                }
                // KILL is an analysis fact, not executable code.
                Directive::Kill { .. } => {}
                _ => {}
            },
        }
    }
}

fn rg_kind(rg: &Rg, v: VertexId) -> &NodeKind {
    &rg.cfg.node(rg.node_of(v)).kind
}
