//! Expression evaluation over scalars and distributed array versions.
//!
//! [`EvalCtx::eval`] is the tree walker: one value per call, arrays
//! read through [`ArrayRt::get`] (owner computation plus a position
//! lookup per dimension). It runs scalar statements, subscripts, loop
//! bounds and conditions, and the *leaves* of a whole-array statement
//! that the tiled engine (the `kernel` module) cannot read as a slice.
//! The operator semantics (`bin`, `un`, `intrinsic`) are defined
//! once here and used by both, so the two cannot disagree on a value.

use std::collections::BTreeMap;

use hpfc_lang::ast::{BinOp, Expr, UnOp};
use hpfc_mapping::ArrayId;
use hpfc_runtime::{ArrayRt, ExecError};

/// Evaluation context: scalar bindings, array runtimes, and an optional
/// current point for whole-array (elementwise) expressions.
pub struct EvalCtx<'a> {
    /// Scalar variables (loop indices included), 1-based Fortran values.
    pub scalars: &'a BTreeMap<String, f64>,
    /// Array runtimes by id.
    pub arrays: &'a [ArrayRt],
    /// name → array id.
    pub names: &'a BTreeMap<String, ArrayId>,
    /// The current point for elementwise evaluation (zero-based), if
    /// inside a whole-array assignment.
    pub point: Option<&'a [u64]>,
}

impl<'a> EvalCtx<'a> {
    /// Evaluate an expression to a number. An element reference whose
    /// subscripts do not name an element of its array is an
    /// [`ExecError::Interp`], never a read of some other element.
    pub fn eval(&self, e: &Expr) -> Result<f64, ExecError> {
        Ok(match e {
            Expr::Int(v, _) => *v as f64,
            Expr::Real(v, _) => *v,
            Expr::Var(n, _) => match (self.names.get(n), self.point) {
                // Whole-array reference: elementwise value at the
                // current point.
                (Some(a), Some(p)) => self.arrays[a.0 as usize].get(p),
                (Some(_), None) => {
                    return Err(ExecError::Interp {
                        what: format!("whole-array `{n}` outside elementwise context"),
                    })
                }
                (None, _) => self.scalars.get(n).copied().unwrap_or(0.0),
            },
            Expr::Ref { name, subs, .. } => match self.names.get(name) {
                Some(a) => {
                    let rt = &self.arrays[a.0 as usize];
                    rt.get(&self.point_of(rt, subs)?)
                }
                None => self.intrinsic(name, subs)?,
            },
            Expr::Bin { op, l, r, .. } => bin(*op, self.eval(l)?, self.eval(r)?),
            Expr::Un { op, e, .. } => un(*op, self.eval(e)?),
        })
    }

    /// The zero-based point `rt(subs)` names: one subscript per
    /// dimension, each within `1..=extent` (Fortran subscripts are
    /// 1-based) — otherwise an [`ExecError::Interp`] naming the array
    /// and the subscript.
    pub(crate) fn point_of(&self, rt: &ArrayRt, subs: &[Expr]) -> Result<Vec<u64>, ExecError> {
        let extents = &rt.mappings[0].array_extents.0;
        if subs.len() != extents.len() {
            return Err(bad_subscripts(rt, format!("referenced with {} subscript(s)", subs.len())));
        }
        let mut point = Vec::with_capacity(subs.len());
        for (d, (s, &extent)) in subs.iter().zip(extents).enumerate() {
            let v = self.eval(s)?;
            match v as i64 {
                i if i >= 1 && i as u64 <= extent => point.push(i as u64 - 1),
                _ => {
                    let what = format!("subscript {} is {v}, outside 1..={extent}", d + 1);
                    return Err(bad_subscripts(rt, what));
                }
            }
        }
        Ok(point)
    }

    fn intrinsic(&self, name: &str, args: &[Expr]) -> Result<f64, ExecError> {
        let v: Vec<f64> = args.iter().map(|a| self.eval(a)).collect::<Result<_, _>>()?;
        Ok(intrinsic(name, v.len())(&v))
    }
}

/// The error for a reference to `rt` whose subscripts name no element;
/// cold, so the checks stay cheap on the statement path.
#[cold]
#[inline(never)]
fn bad_subscripts(rt: &ArrayRt, what: String) -> ExecError {
    let rank = rt.mappings[0].array_extents.rank();
    ExecError::Interp { what: format!("`{}` (rank {rank}): {what}", rt.name) }
}

/// `a op b`. Always inlined, so a caller that passes a constant `op`
/// gets the bare operation.
#[inline(always)]
pub(crate) fn bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(b),
        BinOp::Lt => bool_f(a < b),
        BinOp::Gt => bool_f(a > b),
        BinOp::Le => bool_f(a <= b),
        BinOp::Ge => bool_f(a >= b),
        BinOp::Eq => bool_f(a == b),
        BinOp::Ne => bool_f(a != b),
        BinOp::And => bool_f(a != 0.0 && b != 0.0),
        BinOp::Or => bool_f(a != 0.0 || b != 0.0),
    }
}

/// `op a`.
#[inline(always)]
pub(crate) fn un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Not => bool_f(a == 0.0),
    }
}

/// The intrinsic `name` called with `argc` arguments, as a function of
/// their values. Panics on a name or arity the language does not have.
pub(crate) fn intrinsic(name: &str, argc: usize) -> fn(&[f64]) -> f64 {
    match (name, argc) {
        ("sqrt", 1) => |v| v[0].sqrt(),
        ("abs", 1) => |v| v[0].abs(),
        ("sin", 1) => |v| v[0].sin(),
        ("cos", 1) => |v| v[0].cos(),
        ("exp", 1) => |v| v[0].exp(),
        ("real", 1) => |v| v[0],
        ("mod", 2) => |v| v[0] % v[1],
        ("min", _) => |v| v.iter().copied().fold(f64::INFINITY, f64::min),
        ("max", _) => |v| v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        _ => panic!("unknown intrinsic `{name}`"),
    }
}

fn bool_f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_lang::parser::parse_program;
    use hpfc_lang::ast::Stmt;

    fn expr_of(src: &str) -> Expr {
        let p = parse_program(&format!("subroutine s\nx = {src}\nend")).unwrap();
        match &p.routines[0].body[0] {
            Stmt::Assign { rhs, .. } => rhs.clone(),
            _ => unreachable!(),
        }
    }

    fn eval_scalar(src: &str, scalars: &[(&str, f64)]) -> f64 {
        let map: BTreeMap<String, f64> =
            scalars.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let names = BTreeMap::new();
        let ctx = EvalCtx { scalars: &map, arrays: &[], names: &names, point: None };
        ctx.eval(&expr_of(src)).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_scalar("1 + 2 * 3", &[]), 7.0);
        assert_eq!(eval_scalar("2 ** 3 ** 1", &[]), 8.0);
        assert_eq!(eval_scalar("-(4 - 6) / 2", &[]), 1.0);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_scalar("1 < 2 .and. 3 > 2", &[]), 1.0);
        assert_eq!(eval_scalar(".not. (1 == 1)", &[]), 0.0);
        assert_eq!(eval_scalar("2 /= 2 .or. 1 >= 1", &[]), 1.0);
    }

    #[test]
    fn scalar_lookup_with_default_zero() {
        assert_eq!(eval_scalar("t * 2", &[("t", 21.0)]), 42.0);
        assert_eq!(eval_scalar("unknown + 1", &[]), 1.0);
    }

    #[test]
    fn intrinsics() {
        assert_eq!(eval_scalar("sqrt(16.0)", &[]), 4.0);
        assert_eq!(eval_scalar("abs(-3.5)", &[]), 3.5);
        assert_eq!(eval_scalar("mod(7, 3)", &[]), 1.0);
        assert_eq!(eval_scalar("max(1, 5, 3)", &[]), 5.0);
        assert_eq!(eval_scalar("min(4, 2)", &[]), 2.0);
    }
}
