//! The executor: runs a static program frame-by-frame on the shared
//! simulated machine.
//!
//! Statements are dispatched here. Remaps, restores and calls drive
//! `hpfc-runtime`; every expression a statement evaluates runs its
//! compiled kernel through the one expression engine (the `kernel`
//! module): at width 1 for scalars, elements, conditions, loop bounds
//! and call arguments, tile by tile for a whole-array assignment, which
//! never visits a point unless an operand forces it to. Scalars live in
//! frame slots; names are looked up only on entry (scalar arguments) and
//! exit ([`ExecResult::scalars`]).

use std::collections::BTreeMap;

use hpfc_codegen::ir::{ElementKernel, SStmt, StaticProgram, Target};
use hpfc_lang::ast::Intent;
use hpfc_mapping::ArrayId;
use hpfc_runtime::{ArrayRt, ExecError, GroupMember, Machine, NetStats};

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
    /// Scalar values by frame slot (unset reads 0), and which slots
    /// were ever assigned.
    scalars: Vec<f64>,
    assigned: Vec<bool>,
    /// The stack width-1 kernels run on.
    stack: Vec<f64>,
    /// Status save slots (Fig. 18).
    saved: Vec<Option<u32>>,
    /// Final dense contents, snapshotted by ExitCleanup before local
    /// copies are freed.
    results: BTreeMap<ArrayId, Vec<f64>>,
}

impl Frame {
    fn set_scalar(&mut self, slot: u32, value: f64) {
        self.scalars[slot as usize] = value;
        self.assigned[slot as usize] = true;
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
        let args = self.config.scalar_args.clone();
        let mut frame = self.run_frame(p, &args, inputs, 0)?;
        let mut scalars = args;
        for (slot, name) in p.scalars.iter().enumerate().filter(|(s, _)| frame.assigned[*s]) {
            scalars.insert(name.clone(), frame.scalars[slot]);
        }
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
            scalars,
        })
    }

    fn run_frame(
        &mut self,
        p: &StaticProgram,
        scalars: &BTreeMap<String, f64>,
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
            scalars: vec![0.0; p.scalars.len()],
            assigned: vec![false; p.scalars.len()],
            stack: Vec::new(),
            saved: vec![None; p.n_slots as usize],
            results: BTreeMap::new(),
        };
        for (name, &v) in scalars {
            if let Some(slot) = p.slot_of(name) {
                frame.set_scalar(slot as u32, v);
            }
        }
        // Seed every array's plan cache from the plans lowering attached
        // to remaps and to the per-tag arms of Fig. 18 restores: the
        // executed copy programs are the objects codegen rendered (shared
        // by Arc), so `NetStats::plans_computed` stays 0. Seeding goes
        // through the machine's shared plan registry, so concurrent
        // sessions hold one artifact per distinct mapping pair.
        let machine = &mut self.machine;
        p.for_each_planned_copy(|array, target, copy| {
            frame.arrays[array.0 as usize].seed_plan_shared(
                machine,
                copy.src,
                target,
                std::sync::Arc::clone(&copy.planned),
            );
        });
        // Dummy inputs arrive in the entry version, whose storage the
        // load claims: it overwrites every element, so nothing is zeroed.
        for (a, dense) in array_inputs {
            let decl = p.array(a);
            let rt = &mut frame.arrays[a.0 as usize];
            rt.load_dense(&mut self.machine, decl.entry_version, dense);
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

    /// Run a scalar-context kernel once every array it references has a
    /// current copy (lazy instantiation for reads of never-touched
    /// arrays): its values, one per expression.
    fn values<'f>(
        &mut self,
        frame: &'f mut Frame,
        k: &ElementKernel,
        expected: &[(ArrayId, u32)],
    ) -> Result<&'f [f64], ExecError> {
        for &a in &k.arrays {
            self.ensure_current(frame, a, expected);
        }
        kernel::values(k, &frame.arrays, &frame.scalars, &mut frame.stack)
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
            SStmt::Assign { expected, target, kernel, .. } => {
                match target {
                    Target::Scalar(slot) => {
                        let value = self.values(frame, kernel, expected)?[0];
                        frame.set_scalar(*slot, value);
                    }
                    Target::Element(a, subs) => {
                        for &x in kernel.arrays.iter().chain(&subs.arrays).chain([a]) {
                            self.ensure_current(frame, x, expected);
                        }
                        let Frame { arrays, scalars, stack, .. } = frame;
                        let subs = kernel::values(subs, arrays, scalars, stack)?;
                        let rank = subs.len();
                        let point = kernel::point_of(&arrays[a.0 as usize], rank, |d| subs[d])?;
                        let value = kernel::values(kernel, arrays, scalars, stack)?[0];
                        arrays[a.0 as usize].set(&point[..rank], value);
                    }
                    Target::Whole(a) => {
                        // The owner computes, block by block.
                        for &x in kernel.arrays.iter().chain([a]) {
                            self.ensure_current(frame, x, expected);
                        }
                        let Frame { arrays, scalars, stack, .. } = frame;
                        kernel::run(arrays, scalars, *a, kernel, stack)?;
                    }
                }
                Ok(Flow::Normal)
            }
            SStmt::If { test, then_body, else_body, .. } => {
                if self.values(frame, test, &[])?[0] != 0.0 {
                    self.exec_body(p, frame, then_body, depth)
                } else {
                    self.exec_body(p, frame, else_body, depth)
                }
            }
            SStmt::Do { var, slot, bounds, body, .. } => {
                let v = self.values(frame, bounds, &[])?;
                let (step_v, lo_v, hi_v) = (v[0], v[1], v[2]);
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
                    frame.set_scalar(*slot, i);
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
                // One directive's remap group: members whose state matches
                // their planned copy move over the merged schedule, the
                // rest run as guarded no-op remaps. The group is atomic:
                // a typed error means every member was rolled back.
                // Member array ids are distinct and ascending: one pass
                // borrows each member's ArrayRt.
                let mut next = op.members.iter().peekable();
                let mut members: Vec<_> = frame
                    .arrays
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, rt)| {
                        let m = next.next_if(|m| m.array.0 as usize == i)?;
                        let (src, target) = (m.copies[0].src, m.target);
                        let (may_live, skip_if_current) = (&m.may_live, &m.skip_if_current);
                        Some(GroupMember { rt, src, target, may_live, skip_if_current })
                    })
                    .collect();
                debug_assert_eq!(members.len(), op.members.len(), "members out of array order");
                hpfc_runtime::try_remap_group(&mut self.machine, &mut members, &op.planned)?;
                if self.config.evict_live_copies {
                    for m in &op.members {
                        self.evict_all(frame, m.array);
                    }
                }
                Ok(Flow::Normal)
            }
            SStmt::SaveStatus { array, slot } => {
                frame.saved[*slot as usize] = frame.arrays[array.0 as usize].status;
                Ok(Flow::Normal)
            }
            SStmt::RestoreStatus(op) => {
                if let Some(v) = frame.saved[op.slot as usize] {
                    // Dispatch on the live tag: the arm must have been
                    // foreseen and the live version must be one of its
                    // planned sources, or the reaching analysis was
                    // violated and we fail loudly rather than plan lazily.
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
            SStmt::Call { name, actuals, mapped, .. } => {
                self.exec_call(frame, name, actuals, mapped, depth)?;
                Ok(Flow::Normal)
            }
            SStmt::Return => Ok(Flow::Return),
            SStmt::ExitCleanup => {
                // A freed copy goes to the process-wide pool as it is
                // freed: there is nothing else to release.
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
        frame: &mut Frame,
        name: &str,
        actuals: &[ElementKernel],
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
            for (pos, actual) in actuals.iter().enumerate() {
                let Some(pname) = callee.param_order.get(pos) else { continue };
                match callee.arrays.iter().find(|a| &a.name == pname) {
                    Some(cdecl) => {
                        if let Some(ca) = actual.whole_array() {
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
                    None => {
                        scalars.insert(pname.clone(), self.values(frame, actual, &[])?[0]);
                    }
                }
            }
            let mut callee_frame = self.run_frame(callee, &scalars, inputs, depth + 1)?;
            // Export inout/out results back through the dummy copy.
            for (ca, cid) in out_args {
                if let Some(dense) = callee_frame.results.remove(&cid) {
                    let rt = &mut frame.arrays[ca.0 as usize];
                    rt.invalidate_others();
                    rt.load_dense(&mut self.machine, 0, dense);
                }
            }
        } else {
            // Interface-only callee: deterministic synthetic effect.
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
                        let n = rt.mappings[0].array_extents.volume();
                        rt.load_dense(&mut self.machine, 0, (0..n).map(|i| i as f64).collect());
                    }
                }
            }
        }
        Ok(())
    }
}
