//! Periodic interval algebra: the closed form behind size-independent
//! redistribution planning.
//!
//! The index set a processor owns along one array dimension under a
//! composed HPF mapping — `{ a : ((stride·a + offset) / b) mod P = c }`
//! — is *periodic in `a`*: the owner of template cell `t` only depends
//! on `t mod b·P`, so the owned set repeats with period
//! `b·P / gcd(|stride|, b·P)`. A [`PeriodicSet`] stores one period's
//! worth of intervals plus the period and the extent window, which is
//! enough to
//!
//! * count its elements in O(|base|) regardless of the extent,
//! * count an intersection of two such sets over one *hyper-period*
//!   (`lcm` of the two periods) plus tail — never over the extent,
//! * lazily enumerate maximal runs (for block-level data movement),
//! * describe those runs — its own ([`PeriodicSet::run_families`]) or
//!   an intersection's ([`intersect_families`]) — as [`RunFamily`]s:
//!   one period's runs × a repeat count, never a list of them,
//!
//! which is what makes redistribution *planning* O(P_src·P_dst) and the
//! *compilation* of a copy program O(runs of one hyper-period) instead
//! of O(extent) (the data movement itself is necessarily O(extent), but
//! walks whole intervals, not elements).
//!
//! # Example
//!
//! `CYCLIC(2)` over 3 processors on a 24-cell dimension: processor 1
//! owns `{2,3, 8,9, 14,15, 20,21}` — the base interval `[2,4)` repeated
//! with period `b·P = 6`:
//!
//! ```
//! use hpfc_mapping::{DimLayout, PeriodicSet};
//!
//! let layout = DimLayout::new(24, 2, 3);          // CYCLIC(2) over 3 procs
//! let owned = PeriodicSet::owned(1, 0, layout, 1, 24);
//! assert_eq!(owned.period, 6);                    // b·P
//! assert_eq!(owned.base, vec![(2, 4)]);           // one period's intervals
//! assert_eq!(owned.count(), 8);                   // closed form, O(|base|)
//! assert_eq!(owned.count_below(9), 3);            // {2,3,8}
//! assert_eq!(
//!     owned.runs(0, 10).collect::<Vec<_>>(),      // lazy maximal runs
//!     vec![(2, 4), (8, 10)],
//! );
//!
//! // A stride-2 alignment halves the period: period = b·P / gcd(2, b·P).
//! let strided = PeriodicSet::owned(2, 0, layout, 1, 24);
//! assert_eq!(strided.period, 3);
//! ```
//!
//! Intersections never enumerate elements: two sets meet over one
//! *hyper-period* (`lcm` of their periods) plus a tail window:
//!
//! ```
//! use hpfc_mapping::{intersect_runs, DimLayout, PeriodicSet};
//!
//! let a = PeriodicSet::owned(1, 0, DimLayout::new(24, 2, 3), 1, 24); // period 6
//! let b = PeriodicSet::owned(1, 0, DimLayout::new(24, 4, 2), 0, 24); // period 8
//! // lcm(6, 8) = 24: one hyper-period covers the window.
//! assert_eq!(a.intersect_count(&b), 4);
//! let runs: Vec<_> = intersect_runs(&a, &b, 0, 24).collect();
//! assert_eq!(runs, vec![(2, 4), (8, 10)]);
//! assert_eq!(runs.iter().map(|(lo, hi)| hi - lo).sum::<u64>(), 4);
//! ```

use crate::layout::DimLayout;

/// Greatest common divisor.
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple, saturating on overflow (a saturated period is
/// larger than any extent, which the window clamping handles).
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// A periodic set of array indices restricted to a window `[0, extent)`:
/// the union over `k ≥ 0` of `base + k·period`, intersected with the
/// window.
///
/// Invariants: `base` is sorted, disjoint, non-adjacent (maximal
/// intervals), and contained in `[0, min(period, extent))`. When
/// `period ≥ extent` the set is not really periodic inside the window
/// and `base` simply lists its intervals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeriodicSet {
    /// Repetition period (≥ 1).
    pub period: u64,
    /// Window bound: the set lives in `[0, extent)`.
    pub extent: u64,
    /// One period of intervals (half-open, sorted, maximal).
    pub base: Vec<(u64, u64)>,
}

impl PeriodicSet {
    /// The empty set over `[0, extent)`.
    pub fn empty(extent: u64) -> Self {
        PeriodicSet { period: 1, extent, base: Vec::new() }
    }

    /// The full range `[0, extent)`.
    pub fn full(extent: u64) -> Self {
        let base = if extent == 0 { Vec::new() } else { vec![(0, 1)] };
        PeriodicSet { period: 1, extent, base }
    }

    /// The owned index set of grid coordinate `coord` along a dimension
    /// mapped by `t = stride·a + offset` into `layout`: in closed form,
    /// from one period of the layout — O(|stride| / gcd(|stride|, b·P))
    /// intervals, independent of `extent`.
    pub fn owned(stride: i64, offset: i64, layout: DimLayout, coord: u64, extent: u64) -> Self {
        assert!(stride != 0, "alignment stride is non-zero (validated)");
        let tp = layout.period(); // b·P
        let period = layout.alignment_period(stride);
        let window = period.min(extent);
        if window == 0 {
            return PeriodicSet { period: period.max(1), extent, base: Vec::new() };
        }
        // Template range swept by a ∈ [0, window).
        let last = stride * (window as i64 - 1) + offset;
        let (t_lo, t_hi) = (offset.min(last), offset.max(last)); // inclusive
        // Cycles k whose block [c·b + k·tp, c·b + b + k·tp) can touch it.
        let b = layout.block as i64;
        let c = coord as i64;
        let tp_i = tp as i64;
        let k_lo = floor_div(t_lo - c * b - (b - 1), tp_i);
        let k_hi = floor_div(t_hi - c * b, tp_i);
        let mut base = Vec::new();
        for k in k_lo..=k_hi {
            let lo = c * b + k * tp_i;
            let hi = lo + b;
            // { a : lo <= stride·a + offset < hi }
            let (a_lo, a_hi) = if stride > 0 {
                (ceil_div(lo - offset, stride), ceil_div(hi - offset, stride))
            } else {
                (floor_div(hi - offset, stride) + 1, floor_div(lo - offset, stride) + 1)
            };
            let a_lo = a_lo.max(0) as u64;
            let a_hi = (a_hi.max(0) as u64).min(window);
            if a_lo < a_hi {
                base.push((a_lo, a_hi));
            }
        }
        // Negative strides produce cycles in reverse a-order.
        base.sort_unstable();
        // Merge adjacent/overlapping intervals so runs are maximal.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(base.len());
        for (lo, hi) in base {
            match merged.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        PeriodicSet { period, extent, base: merged }
    }

    /// Whether the set covers its whole window.
    pub fn is_full(&self) -> bool {
        self.base.len() == 1
            && self.base[0].0 == 0
            && self.base[0].1 >= self.period.min(self.extent)
    }

    /// Elements per period (tail periods excluded).
    fn per_period(&self) -> u64 {
        self.base.iter().map(|(a, b)| b - a).sum()
    }

    /// Number of elements in `[0, x)` — closed form, O(|base|).
    pub fn count_below(&self, x: u64) -> u64 {
        let x = x.min(self.extent);
        if x == 0 || self.base.is_empty() {
            return 0;
        }
        let (full, rem) = (x / self.period, x % self.period);
        let partial: u64 =
            self.base.iter().map(|&(a, b)| b.min(rem).saturating_sub(a).min(b - a)).sum();
        full * self.per_period() + partial
    }

    /// Number of elements in `[lo, hi)` — closed form.
    pub fn count_in(&self, lo: u64, hi: u64) -> u64 {
        self.count_below(hi) - self.count_below(lo)
    }

    /// Total number of elements in the window.
    pub fn count(&self) -> u64 {
        self.count_below(self.extent)
    }

    /// Maximal contiguous runs of the set within `[lo, hi)`, in order.
    /// Runs that span period boundaries are coalesced, so iterating is
    /// O(number of maximal runs), never O(elements).
    pub fn runs(&self, lo: u64, hi: u64) -> Runs<'_> {
        let hi = hi.min(self.extent);
        Runs { set: self, lo, hi, cursor: lo.min(hi) }
    }

    /// The first raw (uncoalesced, unclipped) interval whose end lies
    /// strictly after `x` (internal helper for [`Runs`]).
    fn next_raw(&self, x: u64) -> Option<(u64, u64)> {
        if self.base.is_empty() {
            return None;
        }
        let k = x / self.period;
        for &(a, b) in &self.base {
            if k * self.period + b > x {
                return Some((k * self.period + a, k * self.period + b));
            }
        }
        // Next period's first interval.
        let (a, b) = self.base[0];
        Some(((k + 1) * self.period + a, (k + 1) * self.period + b))
    }

    /// The first maximal (coalesced) run whose end lies strictly after
    /// `x`, unclipped — O(|base|), a closed-form *seek* (callers jump
    /// straight to an arbitrary position; nothing is stepped through).
    /// `limit` bounds the full-set shortcut only.
    fn run_after(&self, x: u64, limit: u64) -> Option<(u64, u64)> {
        if self.is_full() {
            let end = limit.min(self.extent);
            return (x < end).then_some((0, end));
        }
        let (lo, mut hi) = self.next_raw(x)?;
        // Coalesce across the period boundary: base intervals are
        // maximal within a period, so at most one merge happens.
        while let Some((nlo, nhi)) = self.next_raw(hi) {
            if nlo != hi {
                break;
            }
            hi = nhi;
        }
        Some((lo, hi))
    }

    /// Whether `x - 1` and `x` both belong to the set continued
    /// periodically below 0: a run starting at `x` is then the rest of a
    /// longer run of the pattern, not a phase the pattern repeats from.
    fn continues_at(&self, x: u64) -> bool {
        let in_base = |r: u64| self.base.iter().any(|&(a, b)| a <= r && r < b);
        in_base(x % self.period) && in_base((x % self.period + self.period - 1) % self.period)
    }

    /// The maximal runs of the set within `[lo, hi)` as [`RunFamily`]s,
    /// in O(|base|²) however long the window is: the run `lo` cuts into
    /// (if any), then — from a phase `φ` that is a true run start — one
    /// family per maximal run of `[φ, φ + period)` repeated
    /// `⌊(hi − φ) / period⌋` times, then the runs of the last, partial
    /// period one by one (the last clipped at `hi`).
    ///
    /// With one run per period the families expand in ascending order.
    /// With `m > 1` they expand family by family, and are only emitted
    /// in closed form when the period repeats at least `m` times —
    /// below that the `< m²` runs are listed one by one in ascending
    /// order, which is never the longer description.
    ///
    /// ```
    /// use hpfc_mapping::{DimLayout, PeriodicSet, RunFamily};
    /// // CYCLIC(2) over 3 processors, coordinate 1: [2,4) + 6k.
    /// let s = PeriodicSet::owned(1, 0, DimLayout::new(1 << 40, 2, 3), 1, 1 << 40);
    /// assert_eq!(
    ///     s.run_families(3, 51),
    ///     vec![
    ///         RunFamily { lo: 3, len: 1, count: 1, step: 0 },  // cut by `lo`
    ///         RunFamily { lo: 8, len: 2, count: 7, step: 6 },  // 8, 14, …, 44
    ///         RunFamily { lo: 50, len: 1, count: 1, step: 0 }, // clipped at `hi`
    ///     ],
    /// );
    /// ```
    pub fn run_families(&self, lo: u64, hi: u64) -> Vec<RunFamily> {
        let mut out = Vec::new();
        self.push_run_families(lo, hi, &mut out);
        out
    }

    /// [`PeriodicSet::run_families`], appending to `out`.
    fn push_run_families(&self, lo: u64, hi: u64, out: &mut Vec<RunFamily>) {
        let hi = hi.min(self.extent);
        if lo >= hi || self.base.is_empty() {
            return;
        }
        let single = |(a, b): (u64, u64)| RunFamily { lo: a, len: b - a, count: 1, step: 0 };
        if self.is_full() {
            out.push(single((lo, hi)));
            return;
        }
        // Head: a run that began before `lo` is no phase to repeat from.
        let mut phase = lo;
        if self.continues_at(lo) {
            let (_, end) = self.run_after(lo, hi).expect("lo is in the set");
            out.push(single((lo, end.min(hi))));
            phase = end;
        }
        // `run_after` of a position outside the set starts a true run.
        match self.run_after(phase, hi) {
            Some((start, _)) if start < hi => phase = phase.max(start),
            _ => return,
        }
        // `phase + period` is a true run start too: nothing is cut.
        let repeats = (hi - phase) / self.period;
        let body = out.len();
        out.extend(self.runs(phase, phase + self.period).map(|(a, b)| RunFamily {
            lo: a,
            len: b - a,
            count: repeats,
            step: self.period,
        }));
        let mut tail = phase + repeats * self.period;
        if repeats < (out.len() - body) as u64 {
            // Fewer periods than runs per period: listing is shorter.
            out.truncate(body);
            tail = phase;
        }
        out.extend(self.runs(tail, hi).map(single));
    }

    /// Count of `self ∩ other` over the shared window — closed form:
    /// over one hyper-period plus tail when the hyper-period fits the
    /// window, else over the window, in both cases by walking the runs
    /// of the sparser-run side and counting the other side per run.
    /// Never enumerates elements.
    pub fn intersect_count(&self, other: &PeriodicSet) -> u64 {
        let n = self.extent.min(other.extent);
        if n == 0 || self.base.is_empty() || other.base.is_empty() {
            return 0;
        }
        let h = lcm(self.period, other.period);
        let span = if 0 < h && h <= n { h } else { n };
        // A BLOCK side has O(1) runs however long the span is.
        let (walked, counted) = if self.runs_within(span) <= other.runs_within(span) {
            (self, other)
        } else {
            (other, self)
        };
        let over =
            |hi: u64| walked.runs(0, hi).map(|(a, b)| counted.count_in(a, b)).sum::<u64>();
        let tail = n % span;
        (n / span) * over(span) + if tail == 0 { 0 } else { over(tail) }
    }

    /// Upper bound on the number of maximal runs within `[0, x)`.
    fn runs_within(&self, x: u64) -> u64 {
        if self.base.is_empty() {
            return 0;
        }
        if self.is_full() {
            return 1;
        }
        (x / self.period + 1).saturating_mul(self.base.len() as u64)
    }
}

impl std::fmt::Display for PeriodicSet {
    /// Compact set-builder notation used by the SPMD renderer:
    /// `{}` for the empty set, `{[0,n)}` for the full window,
    /// `{[1,2)+4k}` for a genuinely periodic set (the base intervals,
    /// repeated with period 4), and a plain interval list when the
    /// period does not fit the window (the set never wraps).
    ///
    /// ```
    /// use hpfc_mapping::{DimLayout, PeriodicSet};
    /// // CYCLIC(1) over 4 processors, coordinate 1, window [0,16).
    /// let l = DimLayout::new(16, 1, 4);
    /// let s = PeriodicSet::owned(1, 0, l, 1, 16);
    /// assert_eq!(s.to_string(), "{[1,2)+4k}");
    /// assert_eq!(PeriodicSet::full(16).to_string(), "{[0,16)}");
    /// assert_eq!(PeriodicSet::empty(16).to_string(), "{}");
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.base.is_empty() {
            return write!(f, "{{}}");
        }
        if self.is_full() {
            return write!(f, "{{[0,{})}}", self.extent);
        }
        write!(f, "{{")?;
        for (i, (a, b)) in self.base.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "[{a},{b})")?;
        }
        if self.period < self.extent {
            write!(f, "+{}k", self.period)?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the maximal runs of a [`PeriodicSet`] within a range.
pub struct Runs<'a> {
    set: &'a PeriodicSet,
    lo: u64,
    hi: u64,
    cursor: u64,
}

impl Iterator for Runs<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.cursor >= self.hi {
            return None;
        }
        let (lo, hi) = self.set.run_after(self.cursor, self.hi)?;
        if lo >= self.hi {
            self.cursor = self.hi;
            return None;
        }
        let run = (lo.max(self.cursor).max(self.lo), hi.min(self.hi));
        self.cursor = run.1;
        Some(run)
    }
}

/// Maximal runs of the intersection of two periodic sets within
/// `[lo, hi)` — the block-level copy engine's unit of work.
///
/// Seeks instead of stepping: when one side's run ends far before the
/// other side's next run begins, the cursor jumps straight there
/// (closed form), so a sparse side never pays for a dense side's runs.
pub struct IntersectRuns<'a> {
    a: &'a PeriodicSet,
    b: &'a PeriodicSet,
    cursor: u64,
    hi: u64,
}

/// Lazy intersection runs of `a ∩ b` over `[lo, hi)`.
pub fn intersect_runs<'a>(
    a: &'a PeriodicSet,
    b: &'a PeriodicSet,
    lo: u64,
    hi: u64,
) -> IntersectRuns<'a> {
    let hi = hi.min(a.extent).min(b.extent);
    IntersectRuns { a, b, cursor: lo.min(hi), hi }
}

impl Iterator for IntersectRuns<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if self.cursor >= self.hi {
                return None;
            }
            let (alo, ahi) = self.a.run_after(self.cursor, self.hi)?;
            if alo >= self.hi {
                return None;
            }
            let start = self.cursor.max(alo);
            let (blo, bhi) = self.b.run_after(start, self.hi)?;
            if blo >= self.hi {
                return None;
            }
            if blo >= ahi {
                // `a`'s run ends before `b`'s next run begins: seek `a`
                // directly to `b`'s position.
                self.cursor = blo;
                continue;
            }
            let lo = start.max(blo);
            let hi = ahi.min(bhi).min(self.hi);
            self.cursor = hi;
            return Some((lo, hi));
        }
    }
}

/// `count` equal runs in arithmetic progression:
/// `[lo + k·step, lo + k·step + len)` for `k < count` — the unit in
/// which a periodic set describes its runs without walking the extent.
/// A lone run has `count == 1`; its `step` is not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFamily {
    /// Start of the first run.
    pub lo: u64,
    /// Length of every run.
    pub len: u64,
    /// Number of runs (≥ 1).
    pub count: u64,
    /// Distance between consecutive run starts.
    pub step: u64,
}

impl RunFamily {
    /// The runs the family stands for, in order.
    pub fn runs(self) -> impl Iterator<Item = (u64, u64)> {
        (0..self.count).map(move |k| (self.lo + k * self.step, self.lo + k * self.step + self.len))
    }
}

/// Append the maximal runs of `a ∩ b` over the shared window to `out`,
/// as [`RunFamily`]s — what [`intersect_runs`] enumerates, described in
/// O(runs of one hyper-period + runs of the sparser side) instead.
/// (`out` is the caller's so that a compile over P² entries reuses one
/// buffer.)
///
/// Either the hyper-period (`lcm` of the periods) repeats inside the
/// window and `a ∩ b` is itself a periodic set of that period
/// (`cyclic(j) ∩ cyclic(k)`), or one side has few runs over the whole
/// window and the other is described inside each of them
/// (`block ∩ cyclic`); whichever walks fewer runs is taken, by the same
/// `runs_within` bounds [`PeriodicSet::intersect_count`] chooses by. A
/// step is therefore always a multiple of a side's period, with the
/// whole family inside one run of the other side when it is not a
/// multiple of both.
///
/// ```
/// use hpfc_mapping::{intersect_families, DimLayout, PeriodicSet, RunFamily};
/// let n = 1 << 40;
/// let block = PeriodicSet::owned(1, 0, DimLayout::new(n, n / 4, 4), 1, n);
/// let cyclic = PeriodicSet::owned(1, 0, DimLayout::new(n, 1, 4), 2, n);
/// let mut families = Vec::new();
/// intersect_families(&block, &cyclic, &mut families);
/// assert_eq!(
///     families,
///     vec![
///         RunFamily { lo: n / 4 + 2, len: 1, count: n / 16 - 1, step: 4 },
///         // The block ends two cells into its last period.
///         RunFamily { lo: n / 2 - 2, len: 1, count: 1, step: 0 },
///     ],
/// );
/// ```
pub fn intersect_families(a: &PeriodicSet, b: &PeriodicSet, out: &mut Vec<RunFamily>) {
    let n = a.extent.min(b.extent);
    if a.is_full() || b.is_full() {
        let other = if a.is_full() { b } else { a };
        return other.push_run_families(0, n, out);
    }
    let h = lcm(a.period, b.period);
    let (coarse, fine) = if a.runs_within(n) <= b.runs_within(n) { (a, b) } else { (b, a) };
    if 0 < h && h <= n / 2 && a.runs_within(h).max(b.runs_within(h)) <= coarse.runs_within(n) {
        let both = PeriodicSet { period: h, extent: n, base: intersect_runs(a, b, 0, h).collect() };
        both.push_run_families(0, n, out);
    } else {
        for (lo, hi) in coarse.runs(0, n) {
            fine.push_run_families(lo, hi, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force membership for cross-checking.
    fn naive(stride: i64, offset: i64, layout: DimLayout, coord: u64, extent: u64) -> Vec<u64> {
        (0..extent)
            .filter(|&a| {
                let t = stride * a as i64 + offset;
                t >= 0 && layout.owner(t as u64) == coord
            })
            .collect()
    }

    fn families(a: &PeriodicSet, b: &PeriodicSet) -> Vec<RunFamily> {
        let mut out = Vec::new();
        intersect_families(a, b, &mut out);
        out
    }

    fn expand(s: &PeriodicSet) -> Vec<u64> {
        s.runs(0, s.extent).flat_map(|(a, b)| a..b).collect()
    }

    #[test]
    fn owned_matches_naive_identity() {
        for &(n, b, p) in &[(100u64, 25u64, 4u64), (10, 1, 4), (14, 3, 2), (17, 5, 3), (64, 4, 16)]
        {
            let l = DimLayout::new(n, b, p);
            for c in 0..p {
                let s = PeriodicSet::owned(1, 0, l, c, n);
                assert_eq!(expand(&s), naive(1, 0, l, c, n), "layout {l} coord {c}");
                assert_eq!(s.count(), naive(1, 0, l, c, n).len() as u64);
            }
        }
    }

    #[test]
    fn owned_matches_naive_strided() {
        // Strides and offsets, including negative strides.
        for &(stride, offset, text, b, p, n) in &[
            (2i64, 1i64, 24u64, 3u64, 4u64, 10u64),
            (3, 0, 30, 2, 5, 10),
            (-1, 9, 10, 2, 3, 10),
            (-2, 19, 20, 3, 2, 10),
            (5, 2, 60, 4, 3, 11),
        ] {
            let l = DimLayout::new(text, b, p);
            for c in 0..p {
                let s = PeriodicSet::owned(stride, offset, l, c, n);
                assert_eq!(
                    expand(&s),
                    naive(stride, offset, l, c, n),
                    "stride {stride} offset {offset} layout {l} coord {c}"
                );
            }
        }
    }

    #[test]
    fn period_is_extent_independent() {
        let l = DimLayout::new(1 << 20, 4, 8);
        let s = PeriodicSet::owned(1, 0, l, 3, 1 << 20);
        assert_eq!(s.period, 32);
        assert_eq!(s.base, vec![(12, 16)]);
        assert_eq!(s.count(), (1 << 20) / 8);
    }

    #[test]
    fn full_set_yields_one_run() {
        let s = PeriodicSet::full(1000);
        assert_eq!(s.runs(0, 1000).collect::<Vec<_>>(), vec![(0, 1000)]);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.count_in(10, 20), 10);
    }

    #[test]
    fn runs_coalesce_across_periods() {
        // base [(0,1),(2,3)] period 3: 2 and 0-of-next-period are
        // adjacent, so [2,4) must come out as one run.
        let s = PeriodicSet { period: 3, extent: 9, base: vec![(0, 1), (2, 3)] };
        let runs: Vec<_> = s.runs(0, 9).collect();
        assert_eq!(runs, vec![(0, 1), (2, 4), (5, 7), (8, 9)]);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn intersect_count_matches_naive() {
        // A side is every coordinate's owned set, or the full window —
        // each with its brute-force members.
        type Side = Vec<(PeriodicSet, std::collections::BTreeSet<u64>)>;
        let owned = |l: DimLayout, n: u64| -> Side {
            (0..l.nprocs)
                .map(|c| (PeriodicSet::owned(1, 0, l, c, n), naive(1, 0, l, c, n).into_iter().collect()))
                .collect()
        };
        let full = |n: u64| -> Side { vec![(PeriodicSet::full(n), (0..n).collect())] };
        let cases = [
            (owned(DimLayout::new(64, 4, 4), 64), owned(DimLayout::new(64, 1, 4), 64)),
            (owned(DimLayout::new(60, 15, 4), 60), owned(DimLayout::new(60, 2, 3), 60)),
            (owned(DimLayout::new(24, 3, 4), 23), owned(DimLayout::new(24, 5, 2), 23)),
            // CYCLIC(1) against BLOCK over the whole extent: the
            // hyper-period is the window, and only the BLOCK side is sparse.
            (owned(DimLayout::new(64, 1, 4), 64), owned(DimLayout::new(64, 16, 4), 64)),
            // A full side is one run however long the window is: walked,
            // it reduces the count to the other side's `count_in`.
            (full(61), owned(DimLayout::new(64, 3, 4), 61)),
            (full(64), owned(DimLayout::new(64, 16, 4), 64)),
        ];
        assert_eq!(PeriodicSet::full(64).runs_within(64), 1);
        for (sa, sb) in &cases {
            for (a, na) in sa {
                for (b, nb) in sb {
                    let want = na.intersection(nb).count() as u64;
                    assert_eq!(a.intersect_count(b), want, "{a} x {b}");
                    assert_eq!(b.intersect_count(a), want, "{b} x {a}");
                    let got: u64 = intersect_runs(a, b, 0, a.extent).map(|(x, y)| y - x).sum();
                    assert_eq!(got, want);
                    for fams in [families(a, b), families(b, a)] {
                        let got: u64 = fams.iter().map(|f| f.len * f.count).sum();
                        assert_eq!(got, want, "{a} x {b}");
                        if a.is_full() {
                            assert_eq!(fams, b.run_families(0, b.extent));
                        }
                    }
                }
            }
        }
    }

    /// `(stride, offset, block, nprocs)` of one side of the family
    /// sweep; a `block` of 0 stands for BLOCK (`⌈extent / nprocs⌉`).
    const SIDES: [(i64, i64, u64, u64); 9] = [
        (1, 0, 0, 4),
        (1, 0, 0, 3),
        (1, 0, 1, 4),
        (1, 0, 2, 3),
        (1, 0, 3, 4),
        (1, 0, 4, 4),
        (2, 1, 3, 4),
        (3, 0, 2, 5),
        (-1, -1, 2, 3), // offset -1: the image is mirrored into the template
    ];

    fn side_sets((stride, offset, block, p): (i64, i64, u64, u64), n: u64) -> Vec<PeriodicSet> {
        let text = stride.unsigned_abs() * n + offset.unsigned_abs() + 1;
        let block = if block == 0 { text.div_ceil(p) } else { block };
        let offset = if stride < 0 { text as i64 - 1 } else { offset };
        let layout = DimLayout::new(text, block, p);
        (0..p).map(|c| PeriodicSet::owned(stride, offset, layout, c, n)).collect()
    }

    #[test]
    fn intersect_families_match_intersect_runs() {
        for sa in SIDES {
            for sb in SIDES {
                for n in [1u64, 7, 48, 61, 240, 1000] {
                    for a in &side_sets(sa, n) {
                        for b in &side_sets(sb, n) {
                            let fams = families(a, b);
                            let mut got: Vec<(u64, u64)> =
                                fams.iter().flat_map(|f| f.runs()).collect();
                            // One run per period: the families already
                            // come out in ascending order.
                            let h = lcm(a.period, b.period);
                            if a.base.len() <= 1
                                && b.base.len() <= 1
                                && (h > n / 2 || intersect_runs(a, b, 0, h).count() <= 1)
                            {
                                assert!(
                                    got.windows(2).all(|w| w[0].1 < w[1].0),
                                    "{sa:?} {sb:?} {n}"
                                );
                            }
                            got.sort_unstable();
                            let want: Vec<(u64, u64)> = intersect_runs(a, b, 0, n).collect();
                            assert_eq!(got, want, "{sa:?} x {sb:?}, n = {n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn family_count_is_flat_in_the_extent() {
        // Block-cyclic sides only (a BLOCK side and a mirrored image
        // change with the extent):
        // once the window holds more hyper-periods than a hyper-period
        // holds runs, four times as many (the same tail behind them)
        // is the same description.
        for sa in &SIDES[2..8] {
            for sb in &SIDES[2..8] {
                let sets = |n| (side_sets(*sa, n), side_sets(*sb, n));
                let (a0, b0) = sets(1 << 20);
                let h = lcm(a0[0].period, b0[0].period);
                let per_h = a0.iter().chain(&b0).map(|s| s.runs_within(h)).max().expect("P >= 1");
                let whole = h * per_h.max(4);
                let n = whole + 5;
                let (small, large) = (sets(n), sets(4 * whole + 5));
                for (ca, (a, a4)) in small.0.iter().zip(&large.0).enumerate() {
                    for (cb, (b, b4)) in small.1.iter().zip(&large.1).enumerate() {
                        let (at_n, at_4n) = (families(a, b), families(a4, b4));
                        assert_eq!(at_n.len(), at_4n.len(), "{sa:?} x {sb:?} ({ca},{cb}) at {n}");
                        assert!(at_n.len() as u64 <= 2 * per_h + 2);
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_runs_match_membership() {
        let ls = DimLayout::new(40, 3, 3);
        let ld = DimLayout::new(80, 2, 4);
        let a = PeriodicSet::owned(1, 0, ls, 1, 37);
        let b = PeriodicSet::owned(2, 3, ld, 2, 37);
        let want: Vec<u64> = {
            let na: std::collections::BTreeSet<u64> = naive(1, 0, ls, 1, 37).into_iter().collect();
            naive(2, 3, ld, 2, 37).into_iter().filter(|x| na.contains(x)).collect()
        };
        let got: Vec<u64> = intersect_runs(&a, &b, 0, 37).flat_map(|(x, y)| x..y).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(u64::MAX, 2), u64::MAX); // saturates
    }
}
