//! The executor: runs a static program frame-by-frame on the shared
//! simulated machine.
//!
//! Statements are dispatched here. Remaps, restores and calls drive
//! `hpfc-runtime`; scalar and element assignments, conditions and loop
//! bounds walk their expression tree ([`crate::eval`]); a whole-array
//! assignment hands its compiled kernel to the tiled engine
//! (the `kernel` module) and never visits a point unless an operand
//! forces it to.

use std::collections::BTreeMap;

use hpfc_codegen::ir::{SStmt, StaticProgram};
use hpfc_lang::ast::{Expr, Intent};
use hpfc_mapping::ArrayId;
use hpfc_runtime::{ArrayRt, ExecError, Machine, NetStats};

use crate::eval::EvalCtx;
use crate::kernel;

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Scalar dummy-argument values for the top-level routine.
    pub scalar_args: BTreeMap<String, f64>,
    /// Ablation / E24: after every remapping, evict all live non-status
    /// copies (models permanent memory pressure — disables App. D reuse
    /// at run time).
    pub evict_live_copies: bool,
    /// Call recursion guard.
    pub max_depth: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { scalar_args: BTreeMap::new(), evict_live_copies: false, max_depth: 8 }
    }
}

impl ExecConfig {
    /// Set a scalar argument.
    pub fn with_scalar(mut self, name: &str, v: f64) -> Self {
        self.scalar_args.insert(name.to_string(), v);
        self
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Network statistics accumulated across the whole run (callees
    /// included).
    pub stats: NetStats,
    /// Largest per-processor memory high-water mark (bytes).
    pub peak_mem_bytes: u64,
    /// Final dense contents of every array of the top routine.
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Final scalar values of the top routine.
    pub scalars: BTreeMap<String, f64>,
}

/// One-shot convenience: execute `routine` from a compiled program set.
/// Execution failures — a missing routine, a violated interpreter
/// invariant, or an unrecoverable remap — come back as typed
/// [`ExecError`]s instead of panics.
pub fn execute(
    programs: &BTreeMap<String, StaticProgram>,
    routine: &str,
    config: ExecConfig,
) -> Result<ExecResult, ExecError> {
    let nprocs = programs.values().map(|p| p.nprocs).max().unwrap_or(1);
    let mut ex = Executor { programs, machine: Machine::new(nprocs), config };
    ex.run(routine)
}

/// The execution engine; owns the machine so several runs can share it.
pub struct Executor<'a> {
    /// Compiled routines by name.
    pub programs: &'a BTreeMap<String, StaticProgram>,
    /// The simulated machine (shared across calls).
    pub machine: Machine,
    /// Options.
    pub config: ExecConfig,
}

enum Flow {
    Normal,
    Return,
}

struct Frame {
    arrays: Vec<ArrayRt>,
    names: BTreeMap<String, ArrayId>,
    scalars: BTreeMap<String, f64>,
    slots: Vec<Option<u32>>,
    /// Final dense contents, snapshotted by ExitCleanup before local
    /// copies are freed.
    results: BTreeMap<ArrayId, Vec<f64>>,
}

impl Frame {
    /// The tree walker over this frame, outside any elementwise context.
    fn ctx(&self) -> EvalCtx<'_> {
        EvalCtx { scalars: &self.scalars, arrays: &self.arrays, names: &self.names, point: None }
    }

    /// Assign a scalar; only the first assignment of a name allocates.
    fn set_scalar(&mut self, name: &str, value: f64) {
        match self.scalars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.scalars.insert(name.to_string(), value);
            }
        }
    }
}

impl<'a> Executor<'a> {
    /// Run a routine as the entry point: dummies are initialized with a
    /// deterministic fill (`value = 1 + linear index`). Execution
    /// failures return a typed [`ExecError`]; nothing on this path
    /// panics across the interpreter boundary.
    pub fn run(&mut self, routine: &str) -> Result<ExecResult, ExecError> {
        let p = self.programs.get(routine).ok_or_else(|| ExecError::Interp {
            what: format!("no routine `{routine}`"),
        })?;
        let mut inputs: BTreeMap<ArrayId, Vec<f64>> = BTreeMap::new();
        for a in &p.arrays {
            if a.is_dummy {
                let n = a.versions[0].array_extents.volume();
                inputs.insert(a.id, (0..n).map(|i| 1.0 + i as f64).collect());
            }
        }
        let mut frame = self.run_frame(p, self.config.scalar_args.clone(), inputs, 0)?;
        let mut arrays = BTreeMap::new();
        for decl in &p.arrays {
            let dense = frame.results.remove(&decl.id).unwrap_or_else(|| {
                vec![0.0; decl.versions[0].array_extents.volume() as usize]
            });
            arrays.insert(decl.name.clone(), dense);
        }
        Ok(ExecResult {
            stats: self.machine.stats,
            peak_mem_bytes: self.machine.mem.max_peak(),
            arrays,
            scalars: frame.scalars,
        })
    }

    fn run_frame(
        &mut self,
        p: &StaticProgram,
        scalars: BTreeMap<String, f64>,
        array_inputs: BTreeMap<ArrayId, Vec<f64>>,
        depth: u32,
    ) -> Result<Frame, ExecError> {
        if depth >= self.config.max_depth {
            return Err(ExecError::Interp {
                what: format!("call depth limit {} exceeded", self.config.max_depth),
            });
        }
        let mut frame = Frame {
            arrays: p
                .arrays
                .iter()
                .map(|a| ArrayRt::new(a.name.clone(), a.versions.clone(), a.elem_size))
                .collect(),
            names: p.arrays.iter().map(|a| (a.name.clone(), a.id)).collect(),
            scalars,
            slots: vec![None; p.n_slots as usize],
            results: BTreeMap::new(),
        };
        // Seed every array's runtime plan cache from the compile-time
        // plans lowering attached to the remap statements *and* the
        // per-tag arms of flow-dependent restores: the executed
        // schedule and copy program are the very objects codegen
        // rendered (shared by Arc), and `NetStats::plans_computed`
        // stays 0 for the whole lowered program — including Fig. 18
        // save/restore paths, whose arms are selected by tag at run
        // time but planned here, at compile time. Seeding goes through
        // the machine's shared plan registry: the first session over a
        // mapping pair publishes it, every later session adopts the
        // registered artifact (`registry_hits`), so N concurrent
        // interpreter sessions hold one artifact per distinct pair.
        let machine = &mut self.machine;
        p.for_each_planned_copy(|array, target, copy| {
            frame.arrays[array.0 as usize].seed_plan_shared(
                machine,
                copy.src,
                target,
                std::sync::Arc::clone(&copy.planned),
            );
        });
        // Dummy inputs arrive in the entry version.
        for (a, dense) in array_inputs {
            let decl = p.array(a);
            let rt = &mut frame.arrays[a.0 as usize];
            rt.current(&mut self.machine, decl.entry_version).load_dense(dense);
        }
        self.exec_body(p, &mut frame, &p.body, depth)?;
        self.exec_body(p, &mut frame, &p.exit_block, depth)?;
        Ok(frame)
    }

    fn exec_body(
        &mut self,
        p: &StaticProgram,
        frame: &mut Frame,
        body: &[SStmt],
        depth: u32,
    ) -> Result<Flow, ExecError> {
        for s in body {
            match self.exec_stmt(p, frame, s, depth)? {
                Flow::Normal => {}
                Flow::Return => return Ok(Flow::Return),
            }
        }
        Ok(Flow::Normal)
    }

    /// Make sure every array referenced by `e` has a current copy
    /// (lazy instantiation for reads of never-touched arrays).
    fn ensure_refs(&mut self, frame: &mut Frame, e: &Expr, expected: &[(ArrayId, u32)]) {
        e.for_each_ref(|name, _| {
            if let Some(&a) = frame.names.get(name) {
                self.ensure_current(frame, a, expected);
            }
        });
    }

    /// Instantiate `a` in its predicted version if it was never touched.
    fn ensure_current(&mut self, frame: &mut Frame, a: ArrayId, expected: &[(ArrayId, u32)]) {
        let predicted = expected.iter().find(|(x, _)| *x == a).map(|(_, v)| *v);
        let rt = &mut frame.arrays[a.0 as usize];
        rt.current(&mut self.machine, predicted.unwrap_or(0));
        debug_assert!(
            predicted.is_none() || rt.status == predicted,
            "compiler version prediction violated for `{}`",
            rt.name
        );
    }

    fn exec_stmt(
        &mut self,
        p: &StaticProgram,
        frame: &mut Frame,
        s: &SStmt,
        depth: u32,
    ) -> Result<Flow, ExecError> {
        match s {
            SStmt::Assign { lhs, rhs, expected, kernel } => {
                self.ensure_refs(frame, rhs, expected);
                for sub in &lhs.subs {
                    self.ensure_refs(frame, sub, expected);
                }
                match frame.names.get(&lhs.name).copied() {
                    Some(a) => {
                        self.ensure_current(frame, a, expected);
                        if let Some(kernel) = kernel {
                            // Whole-array elementwise assignment: the
                            // owner computes, block by block.
                            let Frame { arrays, names, scalars, .. } = frame;
                            kernel::run(arrays, names, scalars, a, kernel)?;
                        } else {
                            let (point, value) = {
                                let ctx = frame.ctx();
                                let point = ctx.point_of(&frame.arrays[a.0 as usize], &lhs.subs)?;
                                (point, ctx.eval(rhs)?)
                            };
                            frame.arrays[a.0 as usize].set(&point, value);
                        }
                    }
                    None => {
                        let value = frame.ctx().eval(rhs)?;
                        frame.set_scalar(&lhs.name, value);
                    }
                }
                Ok(Flow::Normal)
            }
            SStmt::If { cond, then_body, else_body } => {
                self.ensure_refs(frame, cond, &[]);
                if frame.ctx().eval(cond)? != 0.0 {
                    self.exec_body(p, frame, then_body, depth)
                } else {
                    self.exec_body(p, frame, else_body, depth)
                }
            }
            SStmt::Do { var, lo, hi, step, body } => {
                self.ensure_refs(frame, lo, &[]);
                self.ensure_refs(frame, hi, &[]);
                let (lo_v, hi_v, step_v) = {
                    let ctx = frame.ctx();
                    let step = match step {
                        Some(e) => ctx.eval(e)?,
                        None => 1.0,
                    };
                    (ctx.eval(lo)?, ctx.eval(hi)?, step)
                };
                if step_v == 0.0 {
                    return Err(ExecError::Interp {
                        what: format!("zero DO step for loop variable `{var}`"),
                    });
                }
                let mut i = lo_v;
                loop {
                    if (step_v > 0.0 && i > hi_v) || (step_v < 0.0 && i < hi_v) {
                        break;
                    }
                    frame.set_scalar(var, i);
                    if let Flow::Return = self.exec_body(p, frame, body, depth)? {
                        return Ok(Flow::Return);
                    }
                    i += step_v;
                }
                Ok(Flow::Normal)
            }
            SStmt::Remap(op) => {
                // Transactional: if the guarded remap surfaces a typed
                // error, the array was already rolled back to its
                // pre-remap state, so `?` propagates a clean failure.
                frame.arrays[op.array.0 as usize].try_remap_guarded(
                    &mut self.machine,
                    op.target,
                    &op.may_live,
                    op.no_data,
                    &op.skip_if_current,
                )?;
                if self.config.evict_live_copies {
                    self.evict_all(frame, op.array);
                }
                Ok(Flow::Normal)
            }
            SStmt::RemapGroup(op) => {
                // One directive's remap group: every member's solo plan
                // is already seeded in its array's cache; the runtime
                // moves the members whose state matches their planned
                // copy over the merged schedule (coalesced same-pair
                // wire messages, one latency per pair per round) and
                // runs the rest as ordinary guarded no-op remaps. The
                // group is atomic: a typed error means every member —
                // including siblings that had already replayed — was
                // rolled back to its pre-directive state.
                {
                    // Borrow each member's ArrayRt simultaneously —
                    // member array ids are distinct and ascending.
                    let mut rest: &mut [ArrayRt] = &mut frame.arrays;
                    let mut base = 0usize;
                    let mut members: Vec<hpfc_runtime::GroupMember<'_>> =
                        Vec::with_capacity(op.members.len());
                    for m in &op.members {
                        let at = m.array.0 as usize - base;
                        let (head, tail) = std::mem::take(&mut rest).split_at_mut(at + 1);
                        rest = tail;
                        base = m.array.0 as usize + 1;
                        members.push(hpfc_runtime::GroupMember {
                            rt: &mut head[at],
                            src: m.copies[0].src,
                            target: m.target,
                            may_live: &m.may_live,
                            skip_if_current: &m.skip_if_current,
                        });
                    }
                    hpfc_runtime::try_remap_group(&mut self.machine, &mut members, &op.planned)?;
                }
                if self.config.evict_live_copies {
                    for m in &op.members {
                        self.evict_all(frame, m.array);
                    }
                }
                Ok(Flow::Normal)
            }
            SStmt::SaveStatus { array, slot } => {
                frame.slots[*slot as usize] = frame.arrays[array.0 as usize].status;
                Ok(Flow::Normal)
            }
            SStmt::RestoreStatus(op) => {
                if let Some(v) = frame.slots[op.slot as usize] {
                    // Dispatch on the live tag: the arm must have been
                    // statically foreseen (its plans are already seeded
                    // in the cache), and the currently live version
                    // must be one of the arm's planned copy sources —
                    // otherwise the compiler's reaching analysis was
                    // violated and we fail loudly rather than plan
                    // lazily.
                    let rt = &mut frame.arrays[op.array.0 as usize];
                    let arm = op.arm_for(v).ok_or_else(|| ExecError::Interp {
                        what: format!(
                            "restore of `{}`: saved tag {v} has no compiled arm \
                             (possible: {:?})",
                            rt.name, op.possible
                        ),
                    })?;
                    if let Some(cur) = rt.status {
                        if !(cur == arm.target
                            || op.no_data
                            || arm.copies.iter().any(|c| c.src == cur))
                        {
                            return Err(ExecError::Interp {
                                what: format!(
                                    "restore of `{}` to {}: live version {cur} not among \
                                     the arm's planned sources {:?}",
                                    rt.name, arm.target, op.reaching
                                ),
                            });
                        }
                    }
                    rt.try_restore(&mut self.machine, arm.target, &op.may_live, op.no_data)?;
                    if self.config.evict_live_copies {
                        self.evict_all(frame, op.array);
                    }
                }
                Ok(Flow::Normal)
            }
            SStmt::Call { name, args, mapped } => {
                self.exec_call(p, frame, name, args, mapped, depth)?;
                Ok(Flow::Normal)
            }
            SStmt::Return => Ok(Flow::Return),
            SStmt::ExitCleanup => {
                // No version is re-requested past this point: parked
                // host storage goes before the snapshots below allocate,
                // and again once the last copies are freed, so it never
                // adds to the process high-water.
                frame.arrays.iter_mut().for_each(ArrayRt::release_parked);
                for decl in &p.arrays {
                    let rt = &mut frame.arrays[decl.id.0 as usize];
                    // Snapshot final contents before freeing anything.
                    if let Some(v) = rt.status {
                        if let Some(c) = rt.copies[v as usize].as_ref() {
                            frame.results.insert(decl.id, c.to_dense());
                        }
                    }
                    let keep = if decl.is_dummy { rt.status } else { None };
                    for v in 0..rt.copies.len() as u32 {
                        if Some(v) != keep {
                            rt.free_copy(&mut self.machine, v);
                        }
                    }
                    rt.release_parked();
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn evict_all(&mut self, frame: &mut Frame, a: ArrayId) {
        let rt = &mut frame.arrays[a.0 as usize];
        for v in 0..rt.copies.len() as u32 {
            rt.evict(&mut self.machine, v);
        }
    }

    fn exec_call(
        &mut self,
        p: &StaticProgram,
        frame: &mut Frame,
        name: &str,
        args: &[Expr],
        mapped: &[(ArrayId, Intent, u32)],
        depth: u32,
    ) -> Result<(), ExecError> {
        if let Some(callee) = self.programs.get(name) {
            // Full interprocedural execution: bind arguments by
            // position, hand dense values over (same placement on both
            // sides of the boundary: no network traffic).
            let mut scalars = BTreeMap::new();
            let mut inputs: BTreeMap<ArrayId, Vec<f64>> = BTreeMap::new();
            let mut out_args: Vec<(ArrayId, ArrayId)> = Vec::new(); // (caller, callee)
            for (pos, actual) in args.iter().enumerate() {
                let Some(pname) = callee.param_order.get(pos) else { continue };
                match callee.arrays.iter().find(|a| &a.name == pname) {
                    Some(cdecl) => {
                        if let Expr::Var(an, _) = actual {
                            if let Some(&ca) = frame.names.get(an) {
                                let intent = mapped
                                    .iter()
                                    .find(|(x, _, _)| *x == ca)
                                    .map(|(_, i, _)| *i)
                                    .unwrap_or(Intent::InOut);
                                if intent != Intent::Out {
                                    let rt = &mut frame.arrays[ca.0 as usize];
                                    let cur = rt.current(&mut self.machine, 0);
                                    inputs.insert(cdecl.id, cur.to_dense());
                                }
                                if intent != Intent::In {
                                    out_args.push((ca, cdecl.id));
                                }
                            }
                        }
                    }
                    None => {
                        scalars.insert(pname.clone(), frame.ctx().eval(actual)?);
                    }
                }
            }
            let mut callee_frame = self.run_frame(callee, scalars, inputs, depth + 1)?;
            // Export inout/out results back through the dummy copy.
            for (ca, cid) in out_args {
                if let Some(dense) = callee_frame.results.remove(&cid) {
                    let rt = &mut frame.arrays[ca.0 as usize];
                    rt.invalidate_others();
                    rt.current(&mut self.machine, 0).load_dense(dense);
                }
            }
        } else {
            // Interface-only callee: deterministic synthetic effect.
            let _ = p;
            for &(a, intent, _dummy_version) in mapped {
                match intent {
                    Intent::In => {}
                    Intent::InOut => {
                        let rt = &mut frame.arrays[a.0 as usize];
                        rt.invalidate_others();
                        // Every replica holds the same values, so each
                        // held word is incremented where it lies.
                        let cur = rt.current(&mut self.machine, 0);
                        for block in cur.blocks.iter_mut().flatten() {
                            block.data.iter_mut().for_each(|v| *v += 1.0);
                        }
                    }
                    Intent::Out => {
                        let rt = &mut frame.arrays[a.0 as usize];
                        rt.invalidate_others();
                        let cur = rt.current(&mut self.machine, 0);
                        let n = cur.mapping.array_extents.volume();
                        cur.load_dense((0..n).map(|i| i as f64).collect());
                    }
                }
            }
        }
        Ok(())
    }
}
