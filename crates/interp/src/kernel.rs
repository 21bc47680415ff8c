//! The statement engine: a whole-array assignment runs its
//! [`ElementKernel`] as a tiled zip over the left-hand side's local
//! blocks — the owner computes, block by block, in storage order.
//!
//! For every block of the LHS's current version, [`TILE`] elements at a
//! time, the kernel's postfix program is evaluated on a stack of tiles
//! and the result written straight into `block.data[at..at + len]`.
//! What each operand costs is decided once per statement, here, from
//! the arrays' *current* mappings:
//!
//! * **aligned** — the operand's current mapping equals the LHS's, so
//!   its local layout is byte-identical (`hpfc_runtime::store`) and the
//!   tile is the same `[at..at + len]` slice of the same rank's `data`.
//!   The LHS itself is the trivial case: it is read in place, from the
//!   slice the tile is about to overwrite;
//! * **uniform** — a literal, a scalar, or a subscripted reference that
//!   mentions no whole array: one value for the statement, read before
//!   the first write;
//! * **per point** — everything else (an operand under a different
//!   mapping, a vector subscript): the tree walker, once per global
//!   point of the tile. If such a leaf references the LHS the kernel is
//!   [`ElementKernel::buffered`] and the values go to a temporary
//!   first.
//!
//! Reading the uniform leaves first is a correctness rule, not an
//! optimisation: Fortran evaluates the right-hand side before it
//! assigns, so `a = a + a(8)` adds the *old* `a(8)` to every element,
//! the eighth included. An engine that writes in place sees the new
//! value from the eighth element on unless the read is hoisted.

use std::collections::BTreeMap;

use hpfc_codegen::ir::{ElementKernel, KernelOp};
use hpfc_lang::ast::{BinOp, Expr, UnOp};
use hpfc_mapping::ArrayId;
use hpfc_runtime::store::LocalBlock;
use hpfc_runtime::{ArrayRt, ExecError};

use crate::eval::{bin, intrinsic, un, EvalCtx};

/// Elements per tile: 8 KiB, so a stack of a few tiles stays in L1.
const TILE: usize = 1024;

/// A [`KernelOp`] with its load decided for this execution.
enum Step<'k> {
    /// One value for the whole statement.
    Uniform(f64),
    /// The same slice of the same rank's block of `arrays[.0]`.
    Aligned(usize),
    /// `arrays[.0]` read point by point.
    OperandAt(usize),
    /// A leaf walked point by point.
    LeafAt(&'k Expr),
    Bin(BinOp),
    Un(UnOp),
    Call(fn(&[f64]) -> f64, usize),
}

/// Execute `lhs = kernel` over the current copies of `arrays`. Every
/// referenced array must have a current copy (the caller's
/// `ensure_refs`). Nothing is written if an operand does not conform.
pub(crate) fn run(
    arrays: &mut [ArrayRt],
    names: &BTreeMap<String, ArrayId>,
    scalars: &BTreeMap<String, f64>,
    lhs: ArrayId,
    kernel: &ElementKernel,
) -> Result<(), ExecError> {
    let lhs = lhs.0 as usize;
    let shape = |a: usize| &arrays[a].mappings[0].array_extents;
    for a in kernel.operands.iter().map(|a| a.0 as usize) {
        if shape(a) != shape(lhs) {
            return Err(ExecError::Interp {
                what: format!(
                    "whole-array operand `{}` has shape {} but the assigned array `{}` has \
                     shape {}",
                    arrays[a].name,
                    shape(a),
                    arrays[lhs].name,
                    shape(lhs)
                ),
            });
        }
    }
    let ctx = EvalCtx { scalars, arrays, names, point: None };
    let steps: Vec<Step<'_>> = kernel
        .ops
        .iter()
        .map(|op| {
            Ok(match op {
                KernelOp::Const(v) => Step::Uniform(*v),
                KernelOp::Scalar(n) => Step::Uniform(scalars.get(n).copied().unwrap_or(0.0)),
                KernelOp::Operand(slot) => {
                    let a = kernel.operands[*slot].0 as usize;
                    if current(arrays, a).mapping == current(arrays, lhs).mapping {
                        Step::Aligned(a)
                    } else {
                        Step::OperandAt(a)
                    }
                }
                KernelOp::Bin(op) => Step::Bin(*op),
                KernelOp::Un(op) => Step::Un(*op),
                KernelOp::Call { name, argc } => Step::Call(intrinsic(name, *argc), *argc),
                KernelOp::Leaf { expr, per_point: true } => Step::LeafAt(expr),
                KernelOp::Leaf { expr, per_point: false } => Step::Uniform(ctx.eval(expr)?),
            })
        })
        .collect::<Result<_, ExecError>>()?;
    let walks_points = steps.iter().any(|s| matches!(s, Step::OperandAt(_) | Step::LeafAt(_)));
    let rank = shape(lhs).rank();

    arrays[lhs].invalidate_others();
    let mut stack = vec![0.0; kernel.depth * TILE];
    let mut args = vec![0.0; kernel.ops.iter().map(KernelOp::pops).max().unwrap_or(0)];
    let mut points = Vec::new();
    let mut buffer = Vec::new();
    for r in 0..current(arrays, lhs).blocks.len() {
        let Some(n) = current(arrays, lhs).blocks[r].as_ref().map(|b| b.data.len()) else {
            continue;
        };
        let mut cursor = (walks_points && n > 0).then(|| block_of(arrays, lhs, r).first_point());
        for at in (0..n).step_by(TILE) {
            let len = TILE.min(n - at);
            if let Some(cursor) = &mut cursor {
                points.clear();
                for _ in 0..len {
                    points.extend_from_slice(cursor.point());
                    block_of(arrays, lhs, r).next_point(cursor);
                }
            }
            let ctx = EvalCtx { scalars, arrays, names, point: None };
            let program = (steps.as_slice(), kernel.ops.as_slice());
            eval_tile(program, &ctx, (r, at, len), (&points, rank), &mut stack, &mut args)?;
            if kernel.buffered {
                buffer.extend_from_slice(&stack[..len]);
            } else {
                block_mut(arrays, lhs, r).data[at..at + len].copy_from_slice(&stack[..len]);
            }
        }
    }
    if kernel.buffered {
        let mut rest = buffer.as_slice();
        for r in 0..current(arrays, lhs).blocks.len() {
            if current(arrays, lhs).blocks[r].is_some() {
                let data = &mut block_mut(arrays, lhs, r).data;
                let (values, tail) = rest.split_at(data.len());
                data.copy_from_slice(values);
                rest = tail;
            }
        }
    }
    Ok(())
}

/// The current copy of `arrays[a]`.
fn current(arrays: &[ArrayRt], a: usize) -> &hpfc_runtime::VersionData {
    let rt = &arrays[a];
    let v = rt.status.expect("a referenced array has a current copy");
    rt.copies[v as usize].as_ref().expect("status copy allocated")
}

/// Rank `r`'s block of the current copy of `arrays[a]`.
fn block_of(arrays: &[ArrayRt], a: usize, r: usize) -> &LocalBlock {
    current(arrays, a).blocks[r].as_ref().expect("equal mappings hold blocks on the same ranks")
}

/// Rank `r`'s block of the current copy of `arrays[a]`, for writing.
fn block_mut(arrays: &mut [ArrayRt], a: usize, r: usize) -> &mut LocalBlock {
    let rt = &mut arrays[a];
    let v = rt.status.expect("the assigned array has a current copy");
    let copy = rt.copies[v as usize].as_mut().expect("status copy allocated");
    copy.blocks[r].as_mut().expect("the block was seen when it was sized")
}

/// Evaluate `steps` (`ops`, resolved) for the `len` elements from `at`
/// of rank `r`'s block; the result is `stack[..len]`. `points` holds
/// the tile's global points, `rank` coordinates each, when a step
/// walks them.
fn eval_tile(
    (steps, ops): (&[Step<'_>], &[KernelOp]),
    ctx: &EvalCtx<'_>,
    (r, at, len): (usize, usize, usize),
    (points, rank): (&[u64], usize),
    stack: &mut [f64],
    args: &mut [f64],
) -> Result<(), ExecError> {
    let point = |i: usize| &points[i * rank..(i + 1) * rank];
    let mut sp = 0;
    for (step, op) in steps.iter().zip(ops) {
        match step {
            Step::Uniform(v) => tile(stack, sp, len).fill(*v),
            Step::Aligned(a) => {
                let slice = &block_of(ctx.arrays, *a, r).data[at..at + len];
                tile(stack, sp, len).copy_from_slice(slice);
            }
            Step::OperandAt(a) => {
                for (i, x) in tile(stack, sp, len).iter_mut().enumerate() {
                    *x = ctx.arrays[*a].get(point(i));
                }
            }
            Step::LeafAt(e) => {
                for (i, x) in tile(stack, sp, len).iter_mut().enumerate() {
                    *x = EvalCtx { point: Some(point(i)), ..*ctx }.eval(e)?;
                }
            }
            Step::Bin(op) => {
                let (below, top) = stack.split_at_mut((sp - 1) * TILE);
                bin_tile(*op, tile(below, sp - 2, len), &top[..len]);
            }
            Step::Un(op) => {
                for x in tile(stack, sp - 1, len) {
                    *x = un(*op, *x);
                }
            }
            Step::Call(f, argc) => {
                let base = sp - argc;
                for i in 0..len {
                    for (k, arg) in args[..*argc].iter_mut().enumerate() {
                        *arg = stack[(base + k) * TILE + i];
                    }
                    stack[base * TILE + i] = f(&args[..*argc]);
                }
            }
        }
        sp = sp + 1 - op.pops();
    }
    debug_assert_eq!(sp, 1, "a kernel leaves one tile");
    Ok(())
}

/// The first `len` elements of tile `k` of the stack.
fn tile(stack: &mut [f64], k: usize, len: usize) -> &mut [f64] {
    &mut stack[k * TILE..][..len]
}

/// `l[i] = l[i] op r[i]`, with the `match` outside the loop so each
/// operator is a tight zip.
fn bin_tile(op: BinOp, l: &mut [f64], r: &[f64]) {
    macro_rules! zip_by {
        ($($v:ident)*) => {
            match op {
                $(BinOp::$v => {
                    for (a, b) in l.iter_mut().zip(r) {
                        *a = bin(BinOp::$v, *a, *b);
                    }
                })*
            }
        };
    }
    zip_by!(Add Sub Mul Div Pow Lt Gt Le Ge Eq Ne And Or);
}
