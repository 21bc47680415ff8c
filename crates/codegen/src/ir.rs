//! The static-program IR: the paper's "standard statically mapped HPF
//! program with copies between differently mapped arrays" (Sec. 2).
//!
//! Statements carry compiled artifacts next to their source form. A
//! remapping carries its planned copies ([`SpmdCopy`]: plan, schedule
//! and copy program, resolved at lowering time). Every expression a
//! statement evaluates — right-hand side, subscripts, condition, loop
//! bounds, call arguments — carries its [`ElementKernel`], a postfix
//! program whose names lowering resolved to frame slots and array ids.
//! Because every reference is to a statically known version, a
//! whole-array assignment is an owner-computes zip over local blocks,
//! run tile by tile; anything else is the same program at width 1. The
//! source expressions stay on the statement for the renderer.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_lang::ast::{BinOp, Expr, Intent, LValue, UnOp};
use hpfc_lang::sema::{Intrinsic, RoutineUnit};
use hpfc_mapping::{ArrayId, NormalizedMapping};
use hpfc_runtime::{CommSchedule, PlannedGroup, PlannedRemap};

/// One array of the static program with all its versions.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Identity (indices into `StaticProgram.arrays` follow `ArrayId`).
    pub id: ArrayId,
    /// Source name.
    pub name: String,
    /// Element size in bytes.
    pub elem_size: u64,
    /// The statically mapped versions `A_0 … A_k` (index = subscript).
    pub versions: Vec<NormalizedMapping>,
    /// The version holding the array on entry (always 0 by
    /// construction).
    pub entry_version: u32,
    /// Whether the array is a dummy argument (its current copy belongs
    /// to the caller and is never freed by exit cleanup).
    pub is_dummy: bool,
}

/// The message-level lowering of one guarded copy source of a
/// [`RemapOp`]: when the runtime status is `src`, the copy into the
/// target version is this packed send/recv loop nest — per
/// communicating (sender, receiver) pair one contiguous buffer with a
/// closed-form byte count, pack/unpack loops walking the periodic run
/// iterator, and the whole set ordered into contention-free caterpillar
/// rounds.
///
/// The attached [`PlannedRemap`] is the *same* plan + schedule +
/// compiled [`hpfc_runtime::CopyProgram`] triple the runtime caches
/// ([`hpfc_runtime::ArrayRt::planned`]): the interpreter seeds the
/// per-array cache from these `Arc`s
/// ([`hpfc_runtime::ArrayRt::seed_plan`]), so executing a lowered
/// program replans **nothing** at run time and the rendered SPMD code,
/// the costed schedule, and the replayed copy program are one object
/// end to end.
///
/// ```
/// use std::sync::Arc;
/// use hpfc_codegen::ir::SpmdCopy;
/// use hpfc_mapping::{Alignment, DimFormat, Distribution, Extents, GridId, Mapping,
///                    ProcGrid, Template, TemplateId};
/// use hpfc_runtime::{plan_redistribution, PlannedRemap};
///
/// let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[16]) };
/// let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
/// let mk = |fmt| Mapping {
///     align: Alignment::identity(TemplateId(0), 1),
///     dist: Distribution::new(GridId(0), vec![fmt]),
/// }.normalize(&Extents::new(&[16]), &t, &g).unwrap();
///
/// let plan = plan_redistribution(&mk(DimFormat::Block(None)), &mk(DimFormat::Cyclic(None)), 8);
/// let copy = SpmdCopy { src: 0, planned: Arc::new(PlannedRemap::compile(plan)) };
/// assert_eq!(copy.schedule().messages.len(), 12); // all-to-all minus the diagonal
/// assert_eq!(copy.schedule().n_rounds(), 3);      // caterpillar: contention-free rounds
/// let program = copy.planned.program.as_ref().unwrap();
/// assert_eq!(program.n_elements(), 16);           // every element delivered once
/// ```
#[derive(Debug, Clone)]
pub struct SpmdCopy {
    /// The source version this copy reads from (the `status == src`
    /// guard arm of Fig. 20).
    pub src: u32,
    /// The compile-time-planned remapping: plan, caterpillar schedule,
    /// and compiled copy program, shared by `Arc` with the runtime
    /// cache seeding.
    pub planned: Arc<PlannedRemap>,
}

impl SpmdCopy {
    /// The per-pair packed messages in caterpillar rounds (each pair's
    /// pack-loop descriptors are in `planned.plan`).
    pub fn schedule(&self) -> &CommSchedule {
        &self.planned.schedule
    }
}

impl PartialEq for SpmdCopy {
    fn eq(&self, other: &Self) -> bool {
        // The schedule determines the copy (the plan is its preimage,
        // the program its compiled form).
        self.src == other.src && self.planned.schedule == other.planned.schedule
    }
}

impl Eq for SpmdCopy {}

/// One statically compiled arm of a flow-dependent restore (Fig. 18):
/// if the saved status tag equals [`RestoreArm::target`], the restore
/// is a remap to that version, and these are its guarded copy sources —
/// planned, scheduled, and compiled at lowering time exactly like a
/// [`RemapOp`]'s copies. Run time *selects* an arm by the live tag; it
/// never plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreArm {
    /// The saved version this arm restores to (the `reaching_s == v`
    /// guard of Fig. 18's if/elif chain).
    pub target: u32,
    /// Message-level SPMD copy code, one entry per version that may be
    /// current when the restore executes (every `r ∈ reaching`,
    /// `r ≠ target`). Empty when the restore moves no data.
    pub copies: Vec<SpmdCopy>,
}

/// A compiled flow-dependent status restore (Fig. 18) — the counterpart
/// of [`RemapOp`] for the save/restore path around calls. Where a
/// `RemapOp` has one statically known target, a restore's target is the
/// *saved* status tag, known only at run time — so lowering compiles
/// one [`RestoreArm`] per statically possible tag, and the rendered
/// code is a switch on the tag whose arms are ordinary guarded
/// message-level copies. Executing a restore therefore plans nothing:
/// the interpreter seeds every arm's `Arc<PlannedRemap>` into the
/// runtime cache and dispatch is a tag comparison.
///
/// ```
/// use std::sync::Arc;
/// use hpfc_codegen::ir::{RestoreArm, RestoreOp, SpmdCopy};
/// use hpfc_mapping::{ArrayId, DimFormat, testing::mapping_1d as mk};
/// use hpfc_runtime::{plan_redistribution, PlannedRemap};
///
/// // The callee's dummy version (2) can be live at the restore; the
/// // saved tag is 0 or 1. Each arm's copy is planned at compile time.
/// let vs = [
///     mk(16, 4, DimFormat::Block(None)),
///     mk(16, 4, DimFormat::Cyclic(Some(2))),
///     mk(16, 4, DimFormat::Cyclic(None)),
/// ];
/// let arm = |t: u32| RestoreArm {
///     target: t,
///     copies: vec![SpmdCopy {
///         src: 2,
///         planned: Arc::new(PlannedRemap::compile(plan_redistribution(&vs[2], &vs[t as usize], 8))),
///     }],
/// };
/// let op = RestoreOp {
///     array: ArrayId(0),
///     slot: 0,
///     possible: [0u32, 1].into_iter().collect(),
///     reaching: [2u32].into_iter().collect(),
///     may_live: Default::default(),
///     no_data: false,
///     arms: vec![arm(0), arm(1)],
/// };
/// // Run time only selects: the saved tag picks its precompiled arm.
/// assert_eq!(op.arm_for(1).unwrap().copies[0].src, 2);
/// assert!(op.arm_for(3).is_none()); // unforeseen tags fail loudly upstream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreOp {
    /// The array.
    pub array: ArrayId,
    /// Save-slot index (paired with the [`SStmt::SaveStatus`] before
    /// the call).
    pub slot: u32,
    /// The statically possible restored versions — one arm each.
    pub possible: BTreeSet<u32>,
    /// Versions that may be current when the restore executes (the
    /// reaching set of the `ArgOut` vertex — the copy sources of every
    /// arm).
    pub reaching: BTreeSet<u32>,
    /// Copies to keep alive past the restore.
    pub may_live: BTreeSet<u32>,
    /// No data movement required (values dead or fully redefined before
    /// use) — every arm is allocation + status flip only.
    pub no_data: bool,
    /// One compiled arm per possible saved tag, ordered by target
    /// version. Each arm's copies carry the same
    /// `Arc<`[`PlannedRemap`]`>` triples the runtime cache replays.
    pub arms: Vec<RestoreArm>,
}

impl RestoreOp {
    /// The arm selected by a saved status tag, if the tag was
    /// statically foreseen.
    pub fn arm_for(&self, tag: u32) -> Option<&RestoreArm> {
        self.arms.iter().find(|a| a.target == tag)
    }
}

/// An explicit remapping operation — one (vertex, array) slot of the
/// remapping graph, compiled per Fig. 19.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapOp {
    /// The array being remapped.
    pub array: ArrayId,
    /// Target version (`L_A(v)`).
    pub target: u32,
    /// Versions that may reach this point (`R_A(v)`) — the guarded copy
    /// sources of Fig. 20.
    pub reaching: BTreeSet<u32>,
    /// Copies to keep alive past this point (`M_A(v)`, App. D).
    pub may_live: BTreeSet<u32>,
    /// No data movement required: the leaving copy is fully redefined
    /// before use (`U = D`, Fig. 19's test) or the values are dead
    /// (`KILL` upstream).
    pub no_data: bool,
    /// Partial-impact guard: if the current status is one of these
    /// versions, this execution is unaffected by the directive (the
    /// array's alignment does not involve the redistributed template on
    /// this path) — skip the remap, keep the status.
    pub skip_if_current: BTreeSet<u32>,
    /// Message-level SPMD copy code, one entry per data-moving source
    /// version (every `r ∈ reaching`, `r ≠ target`). Empty when
    /// `no_data` — there is nothing to move. Ordered by source version.
    pub copies: Vec<SpmdCopy>,
}

/// A directive-level remap group (the paper's Fig. 3 situation): one
/// `REDISTRIBUTE`/`REALIGN` directive remaps *several* arrays at the
/// same program vertex, and their copies are aggregated into **one**
/// schedule. Lowering collects every data-moving, single-source
/// [`RemapOp`] of the directive (members keep their full Fig. 19/20
/// semantics — liveness sets, partial-impact guards, per-member stats),
/// merges the member plans' messages so same-(sender, receiver)-pair
/// messages of different arrays share a caterpillar round and a wire
/// buffer, and compiles one round-aligned group copy program.
///
/// The whole aggregate — merged schedule, member programs, makespan —
/// is one static object resolved at lowering time: the rendered SPMD
/// text, the costed rounds
/// ([`hpfc_runtime::Machine::account_schedule`]-style masked
/// accounting), and the replayed group program
/// ([`hpfc_runtime::try_remap_group`]) cannot disagree. Members whose
/// runtime state turns out not to move data (status noop, live-copy
/// reuse, partial-impact skip) drop out of the coalesced buffers; each
/// member's solo [`PlannedRemap`] is still seeded into the runtime
/// cache, so a mover that runs as a group of one never plans at run
/// time.
#[derive(Debug, Clone)]
pub struct RemapGroupOp {
    /// Member remaps in array order. Every member moves data from
    /// exactly one statically known source version
    /// (`copies.len() == 1`); multi-source or data-free remaps of the
    /// same directive are emitted as ordinary solo [`SStmt::Remap`]s.
    pub members: Vec<RemapOp>,
    /// The compile-time aggregate: merged caterpillar schedule over all
    /// members' messages plus the round-aligned group copy program,
    /// shared by `Arc` with the runtime executor.
    pub planned: Arc<PlannedGroup>,
}

/// One step of an [`ElementKernel`], in postfix order, on a stack of
/// tiles (a scalar expression is a tile of one). Names were resolved
/// at lowering: the run time looks nothing up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelOp {
    /// Push a literal.
    Const(f64),
    /// Push scalar frame slot `.0` (unset reads 0).
    Scalar(u32),
    /// Push value `.0` of the kernel's uniform part.
    Hoisted(usize),
    /// Push array `.0` as a whole, element for element.
    Operand(ArrayId),
    /// Pop `rank` subscripts, push the element of `array` they name.
    Elem {
        /// The array.
        array: ArrayId,
        /// Subscripts on the stack.
        rank: usize,
    },
    /// Pop `r`, pop `l`, push `l op r`.
    Bin(BinOp),
    /// Pop `e`, push `op e`.
    Un(UnOp),
    /// Pop `.1` arguments, push the value of intrinsic `.0`.
    Call(Intrinsic, usize),
}

impl KernelOp {
    /// The array an [`KernelOp::Operand`] pushes.
    pub fn operand(&self) -> Option<ArrayId> {
        match *self {
            KernelOp::Operand(a) => Some(a),
            _ => None,
        }
    }

    /// Tiles the op takes off the stack before it pushes its one.
    pub fn pops(&self) -> usize {
        match *self {
            KernelOp::Bin(_) => 2,
            KernelOp::Un(_) => 1,
            KernelOp::Elem { rank: n, .. } | KernelOp::Call(_, n) => n,
            _ => 0,
        }
    }
}

/// What lowering resolves names through: the routine's arrays, and the
/// name of every frame slot (a new scalar name gets the next slot).
pub struct Scope<'a> {
    /// The routine.
    pub unit: &'a RoutineUnit,
    /// Frame slot names.
    pub slots: &'a mut Vec<String>,
}

impl Scope<'_> {
    /// The frame slot of scalar `name`.
    pub fn slot(&mut self, name: &str) -> u32 {
        let at = self.slots.iter().position(|n| n == name).unwrap_or_else(|| {
            self.slots.push(name.to_string());
            self.slots.len() - 1
        });
        at as u32
    }
}

/// The compiled form of an expression: a postfix program whose first
/// [`ElementKernel::uniform`] ops run once, at width 1, and the rest
/// tile by tile over an assigned array, reading the uniform values as
/// [`KernelOp::Hoisted`]. A scalar expression is all uniform part. A
/// whole-array right-hand side hoists there every maximal subexpression
/// that mentions no whole array, which is so read **before** any element
/// is written: `a = a + a(8)` adds the old `a(8)` everywhere (Fortran
/// evaluates the right-hand side first). Whether a whole-array operand
/// conforms, and whether it is aligned, is decided when the statement
/// runs; in scalar context a whole array is an error then.
///
/// ```
/// use hpfc_codegen::ir::{ElementKernel, KernelOp::*, Scope};
/// use hpfc_lang::ast::{BinOp::*, Stmt};
/// use hpfc_mapping::ArrayId;
///
/// let m = hpfc_lang::frontend("subroutine s\nreal :: a(8), b(8)\na = b * 2.0 + a(k)\nend").unwrap();
/// let Stmt::Assign { rhs, .. } = &m.main().ast.body[0] else { unreachable!() };
/// let mut slots = Vec::new();
/// let k = ElementKernel::elementwise(ArrayId(0), rhs, &mut Scope { unit: m.main(), slots: &mut slots });
/// assert_eq!(slots, ["k"]);
/// // `2.0` and `a(k)` mention no whole array: one value each, read before the writes.
/// assert_eq!(k.ops[..k.uniform], [Const(2.0), Scalar(0), Elem { array: ArrayId(0), rank: 1 }]);
/// assert_eq!(k.ops[k.uniform..], [Operand(ArrayId(1)), Hoisted(0), Bin(Mul), Hoisted(1), Bin(Add)]);
/// assert_eq!((k.depth, k.buffered), (2, false));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElementKernel {
    /// The postfix program: the uniform part, then the per-element part.
    pub ops: Vec<KernelOp>,
    /// How many leading ops form the uniform part.
    pub uniform: usize,
    /// Every array referenced, in order of first mention: each needs a
    /// current copy before the program runs.
    pub arrays: Vec<ArrayId>,
    /// Stack slots (tiles, in the per-element part) the program needs.
    pub depth: usize,
    /// The per-element part reads the assigned array at computed
    /// subscripts (`a = a(b)`), so the values go to a temporary first.
    pub buffered: bool,
}

impl ElementKernel {
    /// Compile `exprs` for scalar context: one value each, in order.
    pub fn scalar<'e>(exprs: impl IntoIterator<Item = &'e Expr>, scope: &mut Scope<'_>) -> Self {
        let mut k = ElementKernel::default();
        for e in exprs {
            k.emit(e, scope, None);
        }
        k.finish(Vec::new())
    }

    /// Compile `rhs` for an assignment to the whole of `lhs`.
    pub fn elementwise(lhs: ArrayId, rhs: &Expr, scope: &mut Scope<'_>) -> Self {
        let mut k = ElementKernel::default();
        let mut per_element = Vec::new();
        k.emit(rhs, scope, Some(&mut per_element));
        k.buffered = per_element
            .iter()
            .any(|op| matches!(op, KernelOp::Elem { array, .. } if *array == lhs));
        k.finish(per_element)
    }

    /// The array, when the expression is a bare array name.
    pub fn whole_array(&self) -> Option<ArrayId> {
        match self.ops[..] {
            [op] => op.operand(),
            _ => None,
        }
    }

    fn finish(mut self, per_element: Vec<KernelOp>) -> Self {
        self.uniform = self.ops.len();
        self.ops.extend(per_element);
        let mut sp = 0;
        for (i, op) in self.ops.iter().enumerate() {
            if i == self.uniform {
                sp = 0;
            }
            sp = sp + 1 - op.pops();
            self.depth = self.depth.max(sp);
        }
        self
    }

    fn mention(&mut self, a: ArrayId) {
        if !self.arrays.contains(&a) {
            self.arrays.push(a);
        }
    }

    /// Emit `e` into the uniform part, or into `per_element`, hoisting a
    /// subexpression that mentions no whole array.
    fn emit(
        &mut self,
        e: &Expr,
        scope: &mut Scope<'_>,
        mut per_element: Option<&mut Vec<KernelOp>>,
    ) {
        if let Some(out) = per_element.as_deref_mut() {
            let mut whole = false;
            e.for_each_ref(|n, subscripted| whole |= !subscripted && scope.unit.array(n).is_some());
            if !whole {
                let hoisted = out.iter().filter(|op| matches!(op, KernelOp::Hoisted(_))).count();
                out.push(KernelOp::Hoisted(hoisted));
                return self.emit(e, scope, None);
            }
        }
        let op = match e {
            Expr::Int(v, _) => KernelOp::Const(*v as f64),
            Expr::Real(v, _) => KernelOp::Const(*v),
            Expr::Var(n, _) => match scope.unit.array(n) {
                Some(a) => {
                    self.mention(a);
                    KernelOp::Operand(a)
                }
                None => KernelOp::Scalar(scope.slot(n)),
            },
            Expr::Ref { name, subs, .. } => {
                let op = if let Some(a) = scope.unit.array(name) {
                    self.mention(a);
                    KernelOp::Elem { array: a, rank: subs.len() }
                } else if let Some(f) = Intrinsic::from_name(name) {
                    KernelOp::Call(f, subs.len())
                } else {
                    // Sema rejects a subscripted name that is neither
                    // (E010); lowering stays total.
                    return per_element.unwrap_or(&mut self.ops).push(KernelOp::Const(f64::NAN));
                };
                for s in subs {
                    self.emit(s, scope, per_element.as_deref_mut());
                }
                op
            }
            Expr::Bin { op, l, r, .. } => {
                self.emit(l, scope, per_element.as_deref_mut());
                self.emit(r, scope, per_element.as_deref_mut());
                KernelOp::Bin(*op)
            }
            Expr::Un { op, e, .. } => {
                self.emit(e, scope, per_element.as_deref_mut());
                KernelOp::Un(*op)
            }
        };
        per_element.unwrap_or(&mut self.ops).push(op);
    }
}

/// What the left-hand side of an assignment resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A scalar: its frame slot.
    Scalar(u32),
    /// One element of an array: `subs` leaves its subscripts.
    Element(ArrayId, ElementKernel),
    /// The whole array, element for element.
    Whole(ArrayId),
}

/// A statement of the static program.
#[derive(Debug, Clone)]
pub enum SStmt {
    /// An assignment (references use each array's *current* copy; the
    /// compiler guarantees the current version at this point — recorded
    /// in `expected` and asserted by the interpreter).
    Assign {
        /// Target (what the renderer prints).
        lhs: LValue,
        /// Source expression (what the renderer prints).
        rhs: Expr,
        /// Compiler-predicted (array, version) pairs at this reference.
        expected: Vec<(ArrayId, u32)>,
        /// What `lhs` resolved to.
        target: Target,
        /// The compiled right-hand side (elementwise for a whole array).
        kernel: ElementKernel,
    },
    /// Conditional.
    If {
        /// Condition (what the renderer prints).
        cond: Expr,
        /// The compiled condition.
        test: ElementKernel,
        /// Then branch.
        then_body: Vec<SStmt>,
        /// Else branch.
        else_body: Vec<SStmt>,
    },
    /// Counted loop.
    Do {
        /// Loop variable.
        var: String,
        /// The loop variable's frame slot.
        slot: u32,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Step (default 1).
        step: Option<Expr>,
        /// The compiled step (default `1`), lower and upper bound.
        bounds: ElementKernel,
        /// Body.
        body: Vec<SStmt>,
    },
    /// A call; argument copies are separate [`SStmt::Remap`] /
    /// [`SStmt::RestoreStatus`] statements around it.
    Call {
        /// Callee name.
        name: String,
        /// Actual arguments (what the renderer prints).
        args: Vec<Expr>,
        /// The compiled arguments ([`ElementKernel::whole_array`]s too).
        actuals: Vec<ElementKernel>,
        /// Mapped array arguments with their intents and the dummy
        /// version the callee sees.
        mapped: Vec<(ArrayId, Intent, u32)>,
    },
    /// A compiled remapping (Fig. 19/20).
    Remap(RemapOp),
    /// A directive-level remap group (Fig. 3): several arrays'
    /// same-directive remaps moved over one merged caterpillar
    /// schedule with coalesced same-pair wire messages.
    RemapGroup(RemapGroupOp),
    /// Save the current status of an array before a call whose restore
    /// is flow-dependent (Fig. 18, `reaching_A = status_A`).
    SaveStatus {
        /// The array.
        array: ArrayId,
        /// Save-slot index (per routine).
        slot: u32,
    },
    /// Restore the saved mapping after the call (Fig. 18's if/elif
    /// chain): a switch on the saved status tag whose arms are
    /// compile-time-planned remaps to each statically possible version.
    RestoreStatus(RestoreOp),
    /// Early return.
    Return,
    /// Exit cleanup: free every local copy; dummies keep their current
    /// copy ("which belongs to the caller", Sec. 5.2).
    ExitCleanup,
}

/// A fully lowered routine.
#[derive(Debug, Clone)]
pub struct StaticProgram {
    /// Routine name.
    pub routine: String,
    /// All arrays with their version tables.
    pub arrays: Vec<ArrayDecl>,
    /// Number of processors of the largest grid in use.
    pub nprocs: u64,
    /// The body.
    pub body: Vec<SStmt>,
    /// The exit block: dummy-argument restores (the `v_e` vertex) and
    /// final cleanup. Always executed, including on early RETURN.
    pub exit_block: Vec<SStmt>,
    /// Number of status save slots used.
    pub n_slots: u32,
    /// All dummy argument names in positional order (scalars and
    /// arrays), for interprocedural argument binding.
    pub param_order: Vec<String>,
    /// The scalar name of every frame slot ([`KernelOp::Scalar`]);
    /// scalar dummies come first.
    pub scalars: Vec<String>,
}

impl StaticProgram {
    /// Array declaration by id.
    pub fn array(&self, a: ArrayId) -> &ArrayDecl {
        &self.arrays[a.0 as usize]
    }

    /// The frame slot of scalar `name`, if the routine names it.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.scalars.iter().position(|n| n == name)
    }

    /// Visit every statement of the program (body and exit block, all
    /// nesting levels, pre-order) — the single traversal behind
    /// [`StaticProgram::for_each_planned_copy`] and
    /// [`StaticProgram::count_remaps`], so a future statement kind
    /// with a nested body only needs its recursion added here.
    pub fn for_each_stmt(&self, mut f: impl FnMut(&SStmt)) {
        fn go(body: &[SStmt], f: &mut impl FnMut(&SStmt)) {
            for s in body {
                f(s);
                match s {
                    SStmt::If { then_body, else_body, .. } => {
                        go(then_body, f);
                        go(else_body, f);
                    }
                    SStmt::Do { body, .. } => go(body, f),
                    _ => {}
                }
            }
        }
        go(&self.body, &mut f);
        go(&self.exit_block, &mut f);
    }

    /// Visit every compile-time-planned copy of the program — the
    /// guarded arms of plain remaps *and* the per-tag arms of
    /// flow-dependent restores — as `(array, target version, copy)`.
    /// The interpreter uses this to seed each array's runtime plan
    /// cache before execution starts, so no statement (including a
    /// Fig. 18 restore) ever plans at run time.
    pub fn for_each_planned_copy(&self, mut f: impl FnMut(ArrayId, u32, &SpmdCopy)) {
        self.for_each_stmt(|s| match s {
            SStmt::Remap(op) => {
                for copy in &op.copies {
                    f(op.array, op.target, copy);
                }
            }
            SStmt::RemapGroup(g) => {
                for op in &g.members {
                    for copy in &op.copies {
                        f(op.array, op.target, copy);
                    }
                }
            }
            SStmt::RestoreStatus(op) => {
                for arm in &op.arms {
                    for copy in &arm.copies {
                        f(op.array, arm.target, copy);
                    }
                }
            }
            _ => {}
        });
    }

    /// Total number of `Remap` statements (static count; flow-dependent
    /// restores count as one remap each, remap groups as one per
    /// member — grouping changes the schedule, not how many remapping
    /// slots exist).
    pub fn count_remaps(&self) -> usize {
        let mut n = 0;
        self.for_each_stmt(|s| match s {
            SStmt::Remap(_) | SStmt::RestoreStatus { .. } => n += 1,
            SStmt::RemapGroup(g) => n += g.members.len(),
            _ => {}
        });
        n
    }
}
