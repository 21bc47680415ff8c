//! Test-side references for compiled copy programs, shared by the
//! integration tests and (through `#[path]`) `exec.rs`'s unit tests:
//! the expansion of a program into the element moves it stands for,
//! and the materialise-then-encode compile the closed-form compiler
//! replaced — kept here, outside the library, as its oracle.
#![allow(dead_code)]

use std::collections::BTreeMap;

use hpfc_mapping::intersect_runs;
use hpfc_runtime::redist::{for_each_pair_combination, DimContribution};
use hpfc_runtime::{CopyProgram, Kernel, RedistPlan, StrideFamily};

/// One `(src_pos, dst_pos, len)` run, as the reference lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    src_pos: u32,
    dst_pos: u32,
    len: u32,
}

/// One unit's element moves `(provider, receiver, src_pos, dst_pos)`,
/// appended to `out`.
fn push_moves(
    (provider, receiver): (u64, u64),
    fams: &[StrideFamily],
    out: &mut Vec<(u64, u64, u32, u32)>,
) {
    for f in fams {
        for k in 0..f.count {
            let (src, dst) = (f.src_base + k * f.src_step, f.dst_base + k * f.dst_step);
            out.extend((0..f.len).map(|i| (provider, receiver, src + i, dst + i)));
        }
    }
}

/// Every element move `(provider, receiver, src_pos, dst_pos)` a
/// program stands for, sorted — the flat meaning of its families,
/// whatever order and grouping encode it.
pub fn element_moves(prog: &CopyProgram) -> Vec<(u64, u64, u32, u32)> {
    let mut out = Vec::with_capacity(prog.n_elements() as usize);
    for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
        let fams = &prog.fams[u.fams.0 as usize..u.fams.1 as usize];
        push_moves((u.provider, u.receiver), fams, &mut out);
    }
    out.sort_unstable();
    out
}

/// One (provider, receiver) pair as the reference compile encodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceUnit {
    pub fams: Vec<StrideFamily>,
}

/// The label of one unit's shape, by its families' run counts: one lone
/// run is a memcpy; lone runs only (or none at all), triples;
/// progressions only, a gather when every run is one word, else
/// strided; both, mixed.
pub fn kernel_of(fams: &[StrideFamily]) -> Kernel {
    let progressions = fams.iter().filter(|f| f.count > 1).count();
    if progressions == 0 {
        return if fams.len() == 1 { Kernel::Memcpy } else { Kernel::Triples };
    }
    if progressions < fams.len() {
        Kernel::Mixed
    } else if fams.iter().any(|f| f.len != 1) {
        Kernel::Strided
    } else {
        Kernel::Gather
    }
}

/// The reference compile of a plan's data movement, per (provider,
/// receiver) pair: every intersection run of every descriptor
/// combination listed as a triple, then stride-encoded — O(runs).
pub fn reference_units(plan: &RedistPlan) -> BTreeMap<(u64, u64), ReferenceUnit> {
    let (src, dst) = plan.mappings.as_deref().expect("a closed-form plan");
    let per_dim = &plan.dims;
    let rank = per_dim.len();
    if rank == 0 || per_dim.iter().any(|e| e.is_empty()) {
        return BTreeMap::new();
    }
    let entry_runs: Vec<Vec<Vec<(u64, u64)>>> = per_dim
        .iter()
        .enumerate()
        .map(|(d, entries)| {
            let n = src.array_extents.extent(d);
            entries.iter().map(|e| intersect_runs(&e.src_set, &e.dst_set, 0, n).collect()).collect()
        })
        .collect();
    let mut acc: BTreeMap<(u64, u64), Vec<Run>> = BTreeMap::new();
    for_each_pair_combination(src, dst, per_dim, |provider, to, idx| {
        let entries: Vec<&DimContribution> = (0..rank).map(|d| &per_dim[d][idx[d]]).collect();
        let runs: Vec<&[(u64, u64)]> =
            (0..rank).map(|d| entry_runs[d][idx[d]].as_slice()).collect();
        let s_len: Vec<u64> = entries.iter().map(|e| e.src_set.count()).collect();
        let d_len: Vec<u64> = entries.iter().map(|e| e.dst_set.count()).collect();
        record_combination(&runs, &entries, &s_len, &d_len, acc.entry((provider, to)).or_default());
    });
    acc.into_iter().map(|(pair, rs)| (pair, ReferenceUnit { fams: encode_runs(rs) })).collect()
}

/// Sorted element moves of a reference compile.
pub fn reference_moves(units: &BTreeMap<(u64, u64), ReferenceUnit>) -> Vec<(u64, u64, u32, u32)> {
    let mut out = Vec::new();
    for (&pair, u) in units {
        push_moves(pair, &u.fams, &mut out);
    }
    out.sort_unstable();
    out
}

/// `CopyProgram::artifact_bytes` of a reference compile.
pub fn reference_bytes(units: &BTreeMap<(u64, u64), ReferenceUnit>) -> usize {
    use std::mem::size_of;
    units
        .values()
        .map(|u| u.fams.len() * size_of::<StrideFamily>() + size_of::<hpfc_runtime::CopyUnit>())
        .sum()
}

/// The `(src_pos, dst_pos, len)` triples of one descriptor combination:
/// outer dimensions one global index at a time, one triple per
/// innermost run, positions by `count_below`.
fn record_combination(
    runs_by_dim: &[&[(u64, u64)]],
    entries: &[&DimContribution],
    s_len: &[u64],
    d_len: &[u64],
    out: &mut Vec<Run>,
) {
    let rank = runs_by_dim.len();
    let last = rank - 1;
    let e_last = entries[last];
    let mut push = |s_at: u64, d_at: u64, len: u64| {
        out.push(Run {
            src_pos: u32::try_from(s_at).expect("test shapes fit u32"),
            dst_pos: u32::try_from(d_at).expect("test shapes fit u32"),
            len: u32::try_from(len).expect("test shapes fit u32"),
        });
    };
    let mut cur = vec![(0usize, 0u64); last];
    loop {
        let mut d_pref = 0u64;
        let mut s_pref = 0u64;
        for d in 0..last {
            let (ri, off) = cur[d];
            let g = runs_by_dim[d][ri].0 + off;
            d_pref = d_pref * d_len[d] + entries[d].dst_set.count_below(g);
            s_pref = s_pref * s_len[d] + entries[d].src_set.count_below(g);
        }
        for &(lo, hi) in runs_by_dim[last] {
            let dp = e_last.dst_set.count_below(lo);
            let sp = e_last.src_set.count_below(lo);
            push(s_pref * s_len[last] + sp, d_pref * d_len[last] + dp, hi - lo);
        }
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (ref mut ri, ref mut off) = cur[d];
            *off += 1;
            if runs_by_dim[d][*ri].0 + *off < runs_by_dim[d][*ri].1 {
                break;
            }
            *off = 0;
            *ri += 1;
            if *ri < runs_by_dim[d].len() {
                break;
            }
            *ri = 0;
        }
    }
}

/// Stride-encode one pair's runs: coalesce adjacent
/// contiguous-in-both runs, then cut the list greedily into maximal
/// arithmetic progressions in `(src_pos, dst_pos)` of equal-length
/// runs — each one family, a run that starts no progression included
/// (`count` 1, steps 0).
fn encode_runs(rs: Vec<Run>) -> Vec<StrideFamily> {
    let mut co: Vec<Run> = Vec::with_capacity(rs.len());
    for r in rs {
        match co.last_mut() {
            Some(last)
                if last.src_pos + last.len == r.src_pos && last.dst_pos + last.len == r.dst_pos =>
            {
                last.len += r.len;
            }
            _ => co.push(r),
        }
    }
    // The step from run `j` to run `j + 1`, when they may share a
    // progression (equal lengths, neither side stepping backward).
    let step = |j: usize| -> Option<(u32, u32)> {
        let (a, b) = (co[j], *co.get(j + 1)?);
        if a.len != b.len {
            return None;
        }
        Some((b.src_pos.checked_sub(a.src_pos)?, b.dst_pos.checked_sub(a.dst_pos)?))
    };
    let mut fams = Vec::new();
    let mut i = 0usize;
    while i < co.len() {
        let (src_step, dst_step) = step(i).unwrap_or((0, 0));
        let mut j = i;
        if step(i).is_some() {
            j += 1;
            while step(j) == Some((src_step, dst_step)) {
                j += 1;
            }
        }
        fams.push(StrideFamily {
            src_base: co[i].src_pos,
            dst_base: co[i].dst_pos,
            count: u32::try_from(j - i + 1).expect("test shapes fit u32"),
            src_step,
            dst_step,
            len: co[i].len,
        });
        i = j + 1;
    }
    fams
}
