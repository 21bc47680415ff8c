//! The expression engine: every expression a statement evaluates is an
//! [`ElementKernel`], a postfix program run on a stack of tiles. A
//! scalar expression (a right-hand side assigned to a scalar or an
//! element, a subscript, a condition, a loop bound, a call argument) is
//! the program at tile width 1 ([`values`]). A whole-array assignment
//! ([`run`]) runs the uniform part at width 1, then the rest over the
//! assigned array's local blocks, [`TILE`] elements at a time, straight
//! into `block.data`: the owner computes, in storage order. An operand
//! whose current mapping equals the LHS's is read as the same slice of
//! the same rank's block; any other is read per point. Running the
//! uniform part first is a correctness rule: Fortran evaluates the
//! right-hand side before it assigns, so `a = a + a(8)` adds the *old*
//! `a(8)` to every element, the eighth included. See ARCHITECTURE.md,
//! "The life of a statement".

use hpfc_codegen::ir::{ElementKernel, KernelOp};
use hpfc_lang::ast::{BinOp, UnOp};
use hpfc_lang::sema::{Intrinsic, MAX_RANK};
use hpfc_mapping::ArrayId;
use hpfc_runtime::store::LocalBlock;
use hpfc_runtime::{ArrayRt, ExecError, VersionData};

/// Elements per tile: 8 KiB, so a stack of a few tiles stays in L1.
const TILE: usize = 1024;

/// What a program reads besides its stack: the assigned array (none at
/// width 1, where a whole array is an error), the uniform part's values,
/// and the tile — rank `block.0`'s block of the assigned array from
/// element `block.1`, with its global points, `points.1` coordinates
/// each, when an operand is read per point.
#[derive(Default)]
struct Inputs<'a> {
    arrays: &'a [ArrayRt],
    scalars: &'a [f64],
    lhs: Option<usize>,
    hoisted: &'a [f64],
    block: (usize, usize),
    points: (&'a [u64], usize),
}

/// Run a scalar-context kernel (or the uniform part of an elementwise
/// one) at width 1; its values, one per expression, lead `stack`. Every
/// array it references must have a current copy.
pub(crate) fn values<'s>(
    kernel: &ElementKernel,
    arrays: &[ArrayRt],
    scalars: &[f64],
    stack: &'s mut Vec<f64>,
) -> Result<&'s [f64], ExecError> {
    if stack.len() < kernel.depth {
        stack.resize(kernel.depth, 0.0);
    }
    let inputs = Inputs { arrays, scalars, ..Inputs::default() };
    let n = eval(&kernel.ops[..kernel.uniform], &inputs, (1, 1), stack)?;
    Ok(&stack[..n])
}

/// Execute `lhs = kernel` over the current copies of `arrays`. Every
/// referenced array must have a current copy. Nothing is written if an
/// operand does not conform or the uniform part fails.
pub(crate) fn run(
    arrays: &mut [ArrayRt],
    scalars: &[f64],
    lhs: ArrayId,
    kernel: &ElementKernel,
    scratch: &mut Vec<f64>,
) -> Result<(), ExecError> {
    let lhs = lhs.0 as usize;
    let shape = |a: usize| &arrays[a].mappings[0].array_extents;
    let per_element = &kernel.ops[kernel.uniform..];
    let operands = || per_element.iter().filter_map(|op| op.operand().map(|a| a.0 as usize));
    for a in operands() {
        if shape(a) != shape(lhs) {
            let (op, to) = (&arrays[a].name, &arrays[lhs].name);
            let what = format!(
                "whole-array operand `{op}` has shape {} but the assigned array `{to}` has shape {}",
                shape(a),
                shape(lhs)
            );
            return Err(ExecError::Interp { what });
        }
    }
    let hoisted = values(kernel, arrays, scalars, scratch)?;
    let walks_points = operands().any(|a| !aligned(arrays, a, lhs));
    let rank = shape(lhs).rank();

    arrays[lhs].invalidate_others();
    let mut stack = vec![0.0; kernel.depth * TILE];
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
            let inputs = Inputs {
                arrays,
                scalars,
                lhs: Some(lhs),
                hoisted,
                block: (r, at),
                points: (&points, rank),
            };
            eval(per_element, &inputs, (TILE, len), &mut stack)?;
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
fn current(arrays: &[ArrayRt], a: usize) -> &VersionData {
    let rt = &arrays[a];
    let v = rt.status.expect("a referenced array has a current copy");
    rt.copies[v as usize].as_ref().expect("status copy allocated")
}

/// Whether `arrays[a]`'s current copy has the layout of `arrays[lhs]`'s:
/// equal mappings store equal slices of the same ranks.
fn aligned(arrays: &[ArrayRt], a: usize, lhs: usize) -> bool {
    current(arrays, a).mapping == current(arrays, lhs).mapping
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

/// The zero-based point of `rt` that `rank` subscripts name (`sub(d)`
/// is the `d`-th, 1-based), each within `1..=extent` — otherwise an
/// [`ExecError::Interp`] naming the array and the subscript.
pub(crate) fn point_of(
    rt: &ArrayRt,
    rank: usize,
    sub: impl Fn(usize) -> f64,
) -> Result<[u64; MAX_RANK], ExecError> {
    let extents = &rt.mappings[0].array_extents.0;
    if rank != extents.len() {
        return Err(bad_subscripts(rt, format!("referenced with {rank} subscript(s)")));
    }
    let mut point = [0; MAX_RANK];
    for (d, &extent) in extents.iter().enumerate() {
        let v = sub(d);
        match v as i64 {
            i if i >= 1 && i as u64 <= extent => point[d] = i as u64 - 1,
            _ => {
                let what = format!("subscript {} is {v}, outside 1..={extent}", d + 1);
                return Err(bad_subscripts(rt, what));
            }
        }
    }
    Ok(point)
}

/// The error for a reference to `rt` whose subscripts name no element;
/// cold, so the checks stay cheap on the statement path.
#[cold]
#[inline(never)]
fn bad_subscripts(rt: &ArrayRt, what: String) -> ExecError {
    let rank = rt.mappings[0].array_extents.rank();
    ExecError::Interp { what: format!("`{}` (rank {rank}): {what}", rt.name) }
}

/// Run `ops` on `len` lanes of a stack of tiles `width` apart; returns
/// how many values they leave, tile `k` holding the `k`-th.
fn eval(
    ops: &[KernelOp],
    inputs: &Inputs<'_>,
    (width, len): (usize, usize),
    stack: &mut [f64],
) -> Result<usize, ExecError> {
    let (r, at) = inputs.block;
    let (points, rank) = inputs.points;
    let point = |i: usize| &points[i * rank..(i + 1) * rank];
    let mut sp = 0;
    for op in ops {
        match *op {
            KernelOp::Const(v) => tile(stack, width, sp, len).fill(v),
            KernelOp::Scalar(s) => tile(stack, width, sp, len).fill(inputs.scalars[s as usize]),
            KernelOp::Hoisted(i) => tile(stack, width, sp, len).fill(inputs.hoisted[i]),
            KernelOp::Operand(a) => {
                let (a, arrays) = (a.0 as usize, inputs.arrays);
                let Some(lhs) = inputs.lhs else {
                    let what =
                        format!("whole-array `{}` outside elementwise context", arrays[a].name);
                    return Err(ExecError::Interp { what });
                };
                let t = tile(stack, width, sp, len);
                if aligned(arrays, a, lhs) {
                    t.copy_from_slice(&block_of(arrays, a, r).data[at..at + len]);
                } else {
                    t.iter_mut().enumerate().for_each(|(i, x)| *x = arrays[a].get(point(i)));
                }
            }
            KernelOp::Elem { array, rank } => {
                let base = sp - rank;
                let rt = &inputs.arrays[array.0 as usize];
                for i in 0..len {
                    let p = point_of(rt, rank, |d| stack[(base + d) * width + i])?;
                    stack[base * width + i] = rt.get(&p[..rank]);
                }
            }
            KernelOp::Bin(op) => {
                let (below, top) = stack.split_at_mut((sp - 1) * width);
                bin_tile(op, tile(below, width, sp - 2, len), &top[..len]);
            }
            KernelOp::Un(op) => {
                for x in tile(stack, width, sp - 1, len) {
                    *x = un(op, *x);
                }
            }
            KernelOp::Call(f, argc) => {
                let base = sp - argc;
                for i in 0..len {
                    stack[base * width + i] = intrinsic(f, argc, |k| stack[(base + k) * width + i]);
                }
            }
        }
        sp = sp + 1 - op.pops();
    }
    Ok(sp)
}

/// The first `len` elements of tile `k` of a stack of tiles `width`
/// apart.
fn tile(stack: &mut [f64], width: usize, k: usize, len: usize) -> &mut [f64] {
    &mut stack[k * width..][..len]
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

/// Intrinsic `f` of its `argc` arguments, `arg(k)` the `k`-th.
fn intrinsic(f: Intrinsic, argc: usize, arg: impl Fn(usize) -> f64) -> f64 {
    match f {
        Intrinsic::Sqrt => arg(0).sqrt(),
        Intrinsic::Abs => arg(0).abs(),
        Intrinsic::Sin => arg(0).sin(),
        Intrinsic::Cos => arg(0).cos(),
        Intrinsic::Exp => arg(0).exp(),
        Intrinsic::Real => arg(0),
        Intrinsic::Mod => arg(0) % arg(1),
        Intrinsic::Min => (0..argc).map(arg).fold(f64::INFINITY, f64::min),
        Intrinsic::Max => (0..argc).map(arg).fold(f64::NEG_INFINITY, f64::max),
    }
}

/// `a op b`. Always inlined, so a caller that passes a constant `op`
/// gets the bare operation.
#[inline(always)]
fn bin(op: BinOp, a: f64, b: f64) -> f64 {
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

/// `op a`.
fn un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Not => truth(a == 0.0),
    }
}

/// 1 for true, 0 for false.
fn truth(b: bool) -> f64 {
    u8::from(b).into()
}
