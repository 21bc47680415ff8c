//! The run kernel: the one loop every walk over a compiled program's
//! runs goes through.
//!
//! A [`RunSet`] is `count` runs of `len` words in arithmetic progression
//! on two sides — run `k` reads `src + k·src_step ..` and writes
//! `dst + k·dst_step ..`. A [`crate::StrideFamily`] is one, and a
//! residual [`crate::CopyRun`] is one with `count = 1`.
//!
//! Three operations walk a set: [`RunSet::copy`], [`RunSet::copy_sum`]
//! (the guarded round's copy, summing the words it reads) and
//! [`RunSet::sum`]. All three go through one `match` on `len`,
//! taken once per set: widths 1, 2, 4 and 8 get a loop of their own in
//! which every run is a fixed-size move — no `memcpy` call per run —
//! and any other width moves each run with `copy_from_slice`. The
//! table engine (`copy_runs` in `store.rs`) keeps its own loop: it is
//! the independent oracle replay is checked against.

use crate::exec::{CopyProgram, CopyRun, CopyUnit, StrideFamily};

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

impl From<&CopyRun> for RunSet {
    fn from(r: &CopyRun) -> RunSet {
        let (src, dst, len) = (r.src_pos as usize, r.dst_pos as usize, r.len as usize);
        RunSet { src, src_step: 0, dst, dst_step: 0, len, count: 1 }
    }
}

/// Call `each` with every run set of one unit of `prog`: its stride
/// families, then its residual triples.
#[inline]
pub(crate) fn unit_sets(prog: &CopyProgram, unit: CopyUnit, mut each: impl FnMut(RunSet)) {
    for f in &prog.fams[unit.fams.0 as usize..unit.fams.1 as usize] {
        each(f.into());
    }
    for r in &prog.runs[unit.runs.0 as usize..unit.runs.1 as usize] {
        each(r.into());
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
    }
}
