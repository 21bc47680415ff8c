//! The reference statement evaluator, test-side.
//!
//! The library runs every expression as a compiled postfix program (the
//! `kernel` module of `hpfc_interp`). This module keeps the tree walker
//! that engine replaced, [`EvalCtx`], with its own copy of the operator
//! semantics (`bin`, `un`, `intrinsic`), and the per-point whole-array
//! arm that preceded the tiled engine: walk `extents.points()`,
//! evaluate the right-hand side tree at each point, collect a dense
//! `values` vector, write it back through `fill` + `linearize`
//! ([`assign_whole_array_per_point`]). [`run_oracle`] is the smallest
//! driver that can execute a lowered program around them (assignments,
//! `IF`, `DO`, remaps; no calls), reading each statement's source
//! expressions and resolving names itself, so a test can run one program
//! under the engine of record and under code that engine does not share,
//! and demand the same bits.

use std::collections::BTreeMap;

use hpfc::{ExecConfig, Machine, StaticProgram};
use hpfc_codegen::ir::SStmt;
use hpfc_lang::ast::{BinOp, Expr, UnOp};
use hpfc_mapping::ArrayId;
use hpfc_runtime::ArrayRt;

/// The tree walker: scalar bindings, array runtimes, and an optional
/// current point for whole-array (elementwise) expressions.
pub struct EvalCtx<'a> {
    /// Scalar variables (loop indices included); unset reads 0.
    pub scalars: &'a BTreeMap<String, f64>,
    /// Array runtimes by id.
    pub arrays: &'a [ArrayRt],
    /// Name to array id.
    pub names: &'a BTreeMap<String, ArrayId>,
    /// The current point (zero-based) inside a whole-array assignment.
    pub point: Option<&'a [u64]>,
}

impl EvalCtx<'_> {
    /// The value of `e`. Out-of-range subscripts are clamped: the
    /// oracle runs programs whose subscripts are in range.
    pub fn eval(&self, e: &Expr) -> f64 {
        match e {
            Expr::Int(v, _) => *v as f64,
            Expr::Real(v, _) => *v,
            Expr::Var(n, _) => match (self.names.get(n), self.point) {
                (Some(a), Some(p)) => self.arrays[a.0 as usize].get(p),
                (Some(_), None) => panic!("whole-array `{n}` outside elementwise context"),
                (None, _) => self.scalars.get(n).copied().unwrap_or(0.0),
            },
            Expr::Ref { name, subs, .. } => match self.names.get(name) {
                Some(a) => self.arrays[a.0 as usize].get(&self.point_of(subs)),
                None => {
                    let v: Vec<f64> = subs.iter().map(|a| self.eval(a)).collect();
                    intrinsic(name, &v)
                }
            },
            Expr::Bin { op, l, r, .. } => bin(*op, self.eval(l), self.eval(r)),
            Expr::Un { op, e, .. } => un(*op, self.eval(e)),
        }
    }

    /// The zero-based point `subs` name.
    pub fn point_of(&self, subs: &[Expr]) -> Vec<u64> {
        subs.iter().map(|e| (self.eval(e) as i64 - 1).max(0) as u64).collect()
    }
}

fn bin(op: BinOp, a: f64, b: f64) -> f64 {
    let truth = |b: bool| if b { 1.0 } else { 0.0 };
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(b),
        BinOp::Lt => truth(a < b),
        BinOp::Gt => truth(a > b),
        BinOp::Le => truth(a <= b),
        BinOp::Ge => truth(a >= b),
        BinOp::Eq => truth(a == b),
        BinOp::Ne => truth(a != b),
        BinOp::And => truth(a != 0.0 && b != 0.0),
        BinOp::Or => truth(a != 0.0 || b != 0.0),
    }
}

fn un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Not => {
            if a == 0.0 {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn intrinsic(name: &str, v: &[f64]) -> f64 {
    match (name, v.len()) {
        ("sqrt", 1) => v[0].sqrt(),
        ("abs", 1) => v[0].abs(),
        ("sin", 1) => v[0].sin(),
        ("cos", 1) => v[0].cos(),
        ("exp", 1) => v[0].exp(),
        ("real", 1) => v[0],
        ("mod", 2) => v[0] % v[1],
        ("min", _) => v.iter().copied().fold(f64::INFINITY, f64::min),
        ("max", _) => v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        _ => panic!("unknown intrinsic `{name}`"),
    }
}

/// Final dense arrays and scalars of a run.
pub type Values = (BTreeMap<String, Vec<f64>>, BTreeMap<String, f64>);

/// The parent's whole-array arm: evaluate fully, then write (Fortran
/// array-expression semantics).
pub fn assign_whole_array_per_point(
    arrays: &mut [ArrayRt],
    names: &BTreeMap<String, ArrayId>,
    scalars: &BTreeMap<String, f64>,
    a: ArrayId,
    rhs: &Expr,
) {
    let extents = arrays[a.0 as usize].mappings[0].array_extents.clone();
    let mut values = Vec::with_capacity(extents.volume() as usize);
    {
        let ctx = EvalCtx { scalars, arrays, names, point: None };
        for pt in extents.points() {
            let c = EvalCtx { point: Some(&pt), ..ctx };
            values.push(c.eval(rhs));
        }
    }
    let rt = &mut arrays[a.0 as usize];
    rt.invalidate_others();
    let v = rt.status.expect("current() set status");
    let copy = rt.copies[v as usize].as_mut().unwrap();
    // Block-order walk: `values` is row-major over `extents`, so each
    // point indexes it by its linearisation.
    copy.fill(|pt| values[extents.linearize(pt) as usize]);
}

struct Oracle {
    machine: Machine,
    arrays: Vec<ArrayRt>,
    names: BTreeMap<String, ArrayId>,
    scalars: BTreeMap<String, f64>,
    results: BTreeMap<String, Vec<f64>>,
}

/// Execute `program` (a routine without calls or array dummies) with
/// every whole-array assignment evaluated per point.
pub fn run_oracle(program: &StaticProgram, config: &ExecConfig) -> Values {
    let mut o = Oracle {
        machine: Machine::new(program.nprocs),
        arrays: program
            .arrays
            .iter()
            .map(|a| ArrayRt::new(a.name.clone(), a.versions.clone(), a.elem_size))
            .collect(),
        names: program.arrays.iter().map(|a| (a.name.clone(), a.id)).collect(),
        scalars: config.scalar_args.clone(),
        results: BTreeMap::new(),
    };
    o.body(&program.body);
    o.body(&program.exit_block);
    (o.results, o.scalars)
}

impl Oracle {
    fn ensure_refs(&mut self, e: &Expr, expected: &[(ArrayId, u32)]) {
        e.for_each_ref(|name, _| {
            if let Some(a) = self.names.get(name) {
                let hint = expected.iter().find(|(x, _)| x == a).map_or(0, |(_, v)| *v);
                self.arrays[a.0 as usize].current(&mut self.machine, hint);
            }
        });
    }

    fn ctx(&self) -> EvalCtx<'_> {
        EvalCtx { scalars: &self.scalars, arrays: &self.arrays, names: &self.names, point: None }
    }

    fn eval(&self, e: &Expr) -> f64 {
        self.ctx().eval(e)
    }

    /// Returns `false` on `RETURN`.
    fn body(&mut self, body: &[SStmt]) -> bool {
        body.iter().all(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &SStmt) -> bool {
        match s {
            SStmt::Assign { lhs, rhs, expected, .. } => {
                self.ensure_refs(rhs, expected);
                for sub in &lhs.subs {
                    self.ensure_refs(sub, expected);
                }
                match self.names.get(&lhs.name).copied() {
                    Some(a) => {
                        let hint = expected.iter().find(|(x, _)| *x == a).map_or(0, |(_, v)| *v);
                        self.arrays[a.0 as usize].current(&mut self.machine, hint);
                        if lhs.subs.is_empty() {
                            assign_whole_array_per_point(
                                &mut self.arrays,
                                &self.names,
                                &self.scalars,
                                a,
                                rhs,
                            );
                        } else {
                            let point = self.ctx().point_of(&lhs.subs);
                            let value = self.eval(rhs);
                            self.arrays[a.0 as usize].set(&point, value);
                        }
                    }
                    None => {
                        let value = self.eval(rhs);
                        self.scalars.insert(lhs.name.clone(), value);
                    }
                }
            }
            SStmt::If { cond, then_body, else_body, .. } => {
                self.ensure_refs(cond, &[]);
                let taken = if self.eval(cond) != 0.0 { then_body } else { else_body };
                return self.body(taken);
            }
            SStmt::Do { var, lo, hi, step, body, .. } => {
                for e in [Some(lo), Some(hi), step.as_ref()].into_iter().flatten() {
                    self.ensure_refs(e, &[]);
                }
                let (lo, hi) = (self.eval(lo), self.eval(hi));
                let step = step.as_ref().map_or(1.0, |e| self.eval(e));
                assert!(step != 0.0, "zero DO step");
                let mut i = lo;
                while (step > 0.0 && i <= hi) || (step < 0.0 && i >= hi) {
                    self.scalars.insert(var.clone(), i);
                    if !self.body(body) {
                        return false;
                    }
                    i += step;
                }
            }
            SStmt::Remap(op) => self.remap(op),
            // Grouping changes the schedule, never a value.
            SStmt::RemapGroup(g) => g.members.iter().for_each(|op| self.remap(op)),
            SStmt::Return => return false,
            SStmt::ExitCleanup => {
                for rt in &mut self.arrays {
                    let dense = match rt.status {
                        Some(v) => rt.copies[v as usize].as_ref().unwrap().to_dense(),
                        None => vec![0.0; rt.mappings[0].array_extents.volume() as usize],
                    };
                    self.results.insert(rt.name.clone(), dense);
                }
            }
            SStmt::Call { .. } | SStmt::SaveStatus { .. } | SStmt::RestoreStatus(_) => {
                panic!("the oracle driver runs call-free programs")
            }
        }
        true
    }

    fn remap(&mut self, op: &hpfc_codegen::ir::RemapOp) {
        self.arrays[op.array.0 as usize]
            .try_remap_guarded(
                &mut self.machine,
                op.target,
                &op.may_live,
                op.no_data,
                &op.skip_if_current,
            )
            .expect("unguarded machine: remaps cannot fail");
    }
}

/// Bit-identical, except that any NaN equals any NaN: which payload a
/// two-NaN operation keeps depends on the operand order the compiler
/// picked for a commutative instruction.
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Compile `src`, run its first routine under the engine of record and
/// under the oracle, and demand identical arrays and scalars. Returns
/// them.
pub fn run_both(src: &str, scalars: &[(&str, f64)]) -> Values {
    let compiled = hpfc::compile(src, &hpfc::CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile error {e:?}\n{src}"));
    let programs = compiled.programs();
    let routine = &compiled.order[0];
    let mut config = ExecConfig::default();
    for (k, v) in scalars {
        config = config.with_scalar(k, *v);
    }
    let want = run_oracle(&programs[routine], &config);
    let got = hpfc::execute(&programs, routine, config)
        .unwrap_or_else(|e| panic!("execute error {e}\n{src}"));
    assert_eq!(
        got.arrays.keys().collect::<Vec<_>>(),
        want.0.keys().collect::<Vec<_>>(),
        "array names\n{src}"
    );
    for (name, dense) in &got.arrays {
        let reference = &want.0[name];
        assert_eq!(dense.len(), reference.len(), "`{name}` length\n{src}");
        if let Some(i) = (0..dense.len()).find(|&i| !same_bits(dense[i], reference[i])) {
            let (engine, oracle) = (dense[i], reference[i]);
            panic!("`{name}` differs at {i}: engine {engine} vs oracle {oracle}\n{src}");
        }
    }
    assert_eq!(
        got.scalars.keys().collect::<Vec<_>>(),
        want.1.keys().collect::<Vec<_>>(),
        "scalar names\n{src}"
    );
    for (name, v) in &got.scalars {
        assert!(same_bits(*v, want.1[name]), "scalar `{name}`: {v} vs {}\n{src}", want.1[name]);
    }
    (got.arrays, got.scalars)
}
