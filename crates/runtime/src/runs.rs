//! The run kernel: the loops every walk over a compiled program's runs
//! goes through — one run set at a time, or several of one shape at
//! once (a deal).
//!
//! A [`RunSet`] is `count` runs of `len` words in arithmetic progression
//! on two sides — run `k` reads `src + k·src_step ..` and writes
//! `dst + k·dst_step ..`: the `usize` view of a [`crate::StrideFamily`]
//! (a lone run is one with `count = 1`), which the loops below index
//! with.
//!
//! Three operations walk a set: [`RunSet::copy`], [`RunSet::copy_sum`]
//! (the guarded round's copy, summing the words it reads) and
//! [`RunSet::sum`]. All three go through one `match` on `len`,
//! taken once per set: widths 1, 2, 4 and 8 get a loop of their own in
//! which every run is a fixed-size move — no `memcpy` call per run —
//! and any other width moves each run with `copy_from_slice`. The
//! table engine (`copy_runs` in `store.rs`) keeps its own loop: it is
//! the independent oracle replay is checked against.
//!
//! The **deal** ([`deal_gather`], [`deal_scatter`]) walks several sets
//! of one shape at once — the units of one strided-side block, which
//! share a run count, a run width and the step of their strided side —
//! row by row: row `k` of every stream before row `k + 1` of any. A
//! gather reads one source block and writes one stream per receiver, a
//! scatter reads one stream per provider and writes one destination
//! block, so the strided block's row `k` — the words every stream's run
//! `k` touches — is swept once per pass instead of once per stream. A
//! pass serves at most [`DEAL_STREAMS`] streams; the stream count and
//! the width are matched once per pass, so the per-row loop is unrolled
//! over the streams, and each stream's contiguous side is cut out as
//! one slice, so only the strided side is bounds-checked per run.

use std::ops::Range;

use crate::exec::{CopyProgram, CopyUnit, StrideFamily};

/// `count` runs of `len` words: run `k` reads `src + k·src_step` and
/// writes `dst + k·dst_step`. A step is not read when `count <= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSet {
    /// Position of the first run on the read side.
    pub src: usize,
    /// Read-side advance between consecutive runs.
    pub src_step: usize,
    /// Position of the first run on the written side.
    pub dst: usize,
    /// Written-side advance between consecutive runs.
    pub dst_step: usize,
    /// Words per run.
    pub len: usize,
    /// Number of runs.
    pub count: usize,
}

impl From<&StrideFamily> for RunSet {
    fn from(f: &StrideFamily) -> RunSet {
        RunSet {
            src: f.src_base as usize,
            src_step: f.src_step as usize,
            dst: f.dst_base as usize,
            dst_step: f.dst_step as usize,
            len: f.len as usize,
            count: f.count as usize,
        }
    }
}

/// Call `each` with the run set of every family of one unit of `prog`.
#[inline]
pub(crate) fn unit_sets(prog: &CopyProgram, unit: CopyUnit, mut each: impl FnMut(RunSet)) {
    for f in &prog.fams[unit.fams.0 as usize..unit.fams.1 as usize] {
        each(f.into());
    }
}

/// Wrapping sum of the raw bits of `words` onto `acc`.
#[inline(always)]
fn add_bits(acc: u64, words: &[f64]) -> u64 {
    words.iter().fold(acc, |a, w| a.wrapping_add(w.to_bits()))
}

impl RunSet {
    /// Fold `run(acc, s, d, w)` over every run (`w == len`), choosing
    /// the loop once from the width: in the arms for 1, 2, 4 and 8 `w`
    /// is a constant, so every slice of `w` words `run` touches compiles
    /// to fixed-size moves. Any other width takes an out-of-line loop,
    /// so the `memcpy` call it makes per run does not cost the
    /// fixed-width loops their registers; the accumulator is passed by
    /// value for the same reason.
    #[inline(always)]
    fn fold<A>(&self, acc: A, mut run: impl FnMut(A, usize, usize, usize) -> A) -> A {
        match self.len {
            1 => self.steps(1, acc, &mut run),
            2 => self.steps(2, acc, &mut run),
            4 => self.steps(4, acc, &mut run),
            8 => self.steps(8, acc, &mut run),
            len => self.steps_any(len, acc, &mut run),
        }
    }

    #[inline(never)]
    fn steps_any<A>(
        &self,
        w: usize,
        acc: A,
        run: &mut impl FnMut(A, usize, usize, usize) -> A,
    ) -> A {
        self.steps(w, acc, run)
    }

    #[inline(always)]
    fn steps<A>(
        &self,
        w: usize,
        mut acc: A,
        run: &mut impl FnMut(A, usize, usize, usize) -> A,
    ) -> A {
        let (mut s, mut d) = (self.src, self.dst);
        for _ in 0..self.count {
            acc = run(acc, s, d, w);
            s += self.src_step;
            d += self.dst_step;
        }
        acc
    }

    /// Copy every run from `src` into `dst`.
    #[inline]
    pub(crate) fn copy(&self, src: &[f64], dst: &mut [f64]) {
        self.fold((), |(), s, d, w| dst[d..d + w].copy_from_slice(&src[s..s + w]));
    }

    /// [`RunSet::copy`], returning the wrapping sum of the raw bits of
    /// every word read — the source half of a checksum, in the same
    /// pass as the copy.
    pub(crate) fn copy_sum(&self, src: &[f64], dst: &mut [f64]) -> u64 {
        self.fold(0, |sum, s, d, w| {
            let run = &src[s..s + w];
            dst[d..d + w].copy_from_slice(run);
            add_bits(sum, run)
        })
    }

    /// The wrapping sum of the raw bits of the words under the runs'
    /// written side, read from `dst`.
    pub(crate) fn sum(&self, dst: &[f64]) -> u64 {
        self.fold(0, |sum, _, d, w| add_bits(sum, &dst[d..d + w]))
    }
}

/// Most streams one pass of a deal serves. The streams of a pass sit at
/// one offset into blocks of one size, so their lines compete for the
/// ways of the same L1 sets: one pass of sixteen 1-word streams
/// measured about three times slower than two passes of eight.
pub(crate) const DEAL_STREAMS: usize = 8;

/// Rows `rows` of every set of a deal out of one source block, set `j`
/// into `dsts[j]` (a gather). The sets share their width and their
/// source step, and each writes one contiguous stream (`dst_step ==
/// len`). Streams beyond [`DEAL_STREAMS`] take further passes over the
/// same rows, which the first pass left in cache.
pub(crate) fn deal_gather(
    sets: &[RunSet],
    src: &[f64],
    dsts: &mut [&mut [f64]],
    rows: Range<usize>,
) {
    assert_eq!(sets.len(), dsts.len(), "one destination per stream");
    for (sets, dsts) in sets.chunks(DEAL_STREAMS).zip(dsts.chunks_mut(DEAL_STREAMS)) {
        match sets.len() {
            1 => gather::<1>(sets, src, dsts, rows.clone()),
            2 => gather::<2>(sets, src, dsts, rows.clone()),
            3 => gather::<3>(sets, src, dsts, rows.clone()),
            4 => gather::<4>(sets, src, dsts, rows.clone()),
            5 => gather::<5>(sets, src, dsts, rows.clone()),
            6 => gather::<6>(sets, src, dsts, rows.clone()),
            7 => gather::<7>(sets, src, dsts, rows.clone()),
            _ => gather::<8>(sets, src, dsts, rows.clone()),
        }
    }
}

/// Rows `rows` of every set of a deal into one destination block, set
/// `j` out of `srcs[j]` (a scatter). The sets share their width and
/// their destination step, and each reads one contiguous stream
/// (`src_step == len`).
pub(crate) fn deal_scatter(sets: &[RunSet], srcs: &[&[f64]], dst: &mut [f64], rows: Range<usize>) {
    assert_eq!(sets.len(), srcs.len(), "one source per stream");
    for (sets, srcs) in sets.chunks(DEAL_STREAMS).zip(srcs.chunks(DEAL_STREAMS)) {
        match sets.len() {
            1 => scatter::<1>(sets, srcs, dst, rows.clone()),
            2 => scatter::<2>(sets, srcs, dst, rows.clone()),
            3 => scatter::<3>(sets, srcs, dst, rows.clone()),
            4 => scatter::<4>(sets, srcs, dst, rows.clone()),
            5 => scatter::<5>(sets, srcs, dst, rows.clone()),
            6 => scatter::<6>(sets, srcs, dst, rows.clone()),
            7 => scatter::<7>(sets, srcs, dst, rows.clone()),
            _ => scatter::<8>(sets, srcs, dst, rows.clone()),
        }
    }
}

/// One gather pass over `M` streams: each stream's written words are
/// cut out as one slice, so only the strided reads are bounds-checked.
fn gather<const M: usize>(
    sets: &[RunSet],
    src: &[f64],
    dsts: &mut [&mut [f64]],
    rows: Range<usize>,
) {
    let sets: &[RunSet; M] = sets.try_into().expect("M streams");
    let dsts: &mut [&mut [f64]; M] = dsts.try_into().expect("M destinations");
    let (w, step, n) = (sets[0].len, sets[0].src_step, rows.len());
    let mut outs: [&mut [f64]; M] = std::array::from_fn(|_| Default::default());
    for ((out, dst), set) in outs.iter_mut().zip(dsts.iter_mut()).zip(sets) {
        let shaped = set.len == w && set.src_step == step && set.dst_step == w;
        assert!(shaped && rows.end <= set.count, "one shape, rows inside the set");
        let at = set.dst + rows.start * w;
        *out = &mut dst[at..at + n * w];
    }
    let bases: [usize; M] = std::array::from_fn(|j| sets[j].src + rows.start * step);
    deal_rows::<M>(w, step, n, |j, i, row, w| {
        let s = bases[j] + row;
        outs[j][i..i + w].copy_from_slice(&src[s..s + w]);
    });
}

/// One scatter pass over `M` streams: each stream's read words are cut
/// out as one slice, so only the strided writes are bounds-checked.
fn scatter<const M: usize>(sets: &[RunSet], srcs: &[&[f64]], dst: &mut [f64], rows: Range<usize>) {
    let sets: &[RunSet; M] = sets.try_into().expect("M streams");
    let (w, step, n) = (sets[0].len, sets[0].dst_step, rows.len());
    let ins: [&[f64]; M] = std::array::from_fn(|j| {
        let set = &sets[j];
        let shaped = set.len == w && set.dst_step == step && set.src_step == w;
        assert!(shaped && rows.end <= set.count, "one shape, rows inside the set");
        let at = set.src + rows.start * w;
        &srcs[j][at..at + n * w]
    });
    let bases: [usize; M] = std::array::from_fn(|j| sets[j].dst + rows.start * step);
    deal_rows::<M>(w, step, n, |j, i, row, w| {
        let d = bases[j] + row;
        dst[d..d + w].copy_from_slice(&ins[j][i..i + w]);
    });
}

/// Call `run(j, i, row, w)` for `n` rows of `M` streams of width `w`:
/// row `k` sits `row = k·step` past each stream's strided base and
/// `i = k·w` into its contiguous stream. The loop is chosen once from
/// the width, the way [`RunSet::fold`] chooses: `w` is a constant in
/// the arms for 1, 2 and 4.
#[inline(always)]
fn deal_rows<const M: usize>(
    w: usize,
    step: usize,
    n: usize,
    mut run: impl FnMut(usize, usize, usize, usize),
) {
    match w {
        1 => deal_steps::<M>(1, step, n, &mut run),
        2 => deal_steps::<M>(2, step, n, &mut run),
        4 => deal_steps::<M>(4, step, n, &mut run),
        w => deal_steps::<M>(w, step, n, &mut run),
    }
}

#[inline(always)]
fn deal_steps<const M: usize>(
    w: usize,
    step: usize,
    n: usize,
    run: &mut impl FnMut(usize, usize, usize, usize),
) {
    let mut row = 0;
    for k in 0..n {
        for j in 0..M {
            run(j, k * w, row, w);
        }
        row += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct, non-trivial bit patterns (a sum of them catches a word
    /// read twice or skipped); the top exponent bit is clear, so none is
    /// a NaN.
    fn words(n: usize, salt: u64) -> Vec<f64> {
        (0..n).map(|i| f64::from_bits(crate::exec::mix64(i as u64 ^ salt) >> 2)).collect()
    }

    /// The per-word reference: every `(read, written)` position of the
    /// set, run by run.
    fn positions(set: &RunSet) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for k in 0..set.count {
            for i in 0..set.len {
                out.push((set.src + k * set.src_step + i, set.dst + k * set.dst_step + i));
            }
        }
        out
    }

    #[test]
    fn every_width_matches_a_per_word_loop() {
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 16] {
            for step in [len, len + 1, 3 * len, 64] {
                for count in [0usize, 1, 2, 37] {
                    // Offsets on both sides, and the two sides stepping
                    // differently (the contiguous side of a gather).
                    let gather =
                        RunSet { src: 3, src_step: step, dst: 5, dst_step: len, len, count };
                    let scatter =
                        RunSet { src: 1, src_step: len, dst: 2, dst_step: step, ..gather };
                    for set in [gather, scatter] {
                        let n = 8 + set.src.max(set.dst) + count * (step + len);
                        let src = words(n, 17);
                        let base = words(n, 91);
                        let at = positions(&set);
                        let what = format!("{set:?}");

                        let mut want = base.clone();
                        let mut read = 0u64;
                        for &(s, d) in &at {
                            want[d] = src[s];
                            read = read.wrapping_add(src[s].to_bits());
                        }
                        let mut got = base.clone();
                        set.copy(&src, &mut got);
                        assert_eq!(got, want, "copy {what}");

                        let mut got = base.clone();
                        assert_eq!(set.copy_sum(&src, &mut got), read, "copy_sum {what}");
                        assert_eq!(got, want, "copy_sum's copy {what}");

                        let written =
                            at.iter().fold(0u64, |a, &(_, d)| a.wrapping_add(base[d].to_bits()));
                        assert_eq!(set.sum(&base), written, "sum {what}");
                    }
                }
            }
        }

        // The deal: k streams of one shape — 1 to 17, so a last pass
        // holds fewer than DEAL_STREAMS — over all rows and over rows
        // cut inside the sets, in both directions.
        let count = 37;
        for streams in 1..=17usize {
            for len in [1usize, 2, 3, 4] {
                for step in [streams * len, streams * len + 3] {
                    // Stream `j` starts `j·len` into the strided side's
                    // first row and `3·j + 1` into its own buffer.
                    let gather: Vec<RunSet> = (0..streams)
                        .map(|j| RunSet {
                            src: 2 + j * len,
                            src_step: step,
                            dst: 1 + 3 * j,
                            dst_step: len,
                            len,
                            count,
                        })
                        .collect();
                    // The same streams the other way round.
                    let scatter: Vec<RunSet> = gather
                        .iter()
                        .map(|g| RunSet {
                            src: g.dst,
                            src_step: len,
                            dst: g.src,
                            dst_step: step,
                            ..*g
                        })
                        .collect();
                    let strided = words(2 + streams * len + count * step, 17);
                    let own: Vec<Vec<f64>> = (0..streams)
                        .map(|j| words(1 + 3 * j + count * len, 91 + j as u64))
                        .collect();
                    for rows in [0..count, 5..23] {
                        let what = format!("{streams} streams of {len}, step {step}, {rows:?}");
                        let cut = |set: &RunSet| RunSet {
                            src: set.src + rows.start * set.src_step,
                            dst: set.dst + rows.start * set.dst_step,
                            count: rows.len(),
                            ..*set
                        };

                        let mut want = own.clone();
                        for (j, set) in gather.iter().enumerate() {
                            for (s, d) in positions(&cut(set)) {
                                want[j][d] = strided[s];
                            }
                        }
                        let mut got = own.clone();
                        let mut dsts: Vec<&mut [f64]> =
                            got.iter_mut().map(Vec::as_mut_slice).collect();
                        deal_gather(&gather, &strided, &mut dsts, rows.clone());
                        assert_eq!(got, want, "deal_gather, {what}");

                        let mut want = strided.clone();
                        for (j, set) in scatter.iter().enumerate() {
                            for (s, d) in positions(&cut(set)) {
                                want[d] = own[j][s];
                            }
                        }
                        let mut got = strided.clone();
                        let srcs: Vec<&[f64]> = own.iter().map(|v| &v[..]).collect();
                        deal_scatter(&scatter, &srcs, &mut got, rows.clone());
                        assert_eq!(got, want, "deal_scatter, {what}");
                    }
                }
            }
        }
    }
}
