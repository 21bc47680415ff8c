//! Per-processor storage of one array version.
//!
//! A version's local block on processor `p` holds the elements `p`
//! owns, row-major over the per-dimension owned index sets. Those sets
//! are never listed: a block addresses itself through the mapping's
//! closed-form [`PeriodicSet`] per dimension
//! ([`NormalizedMapping::owned_set_along`]) — the same descriptor the
//! planner and the program compiler use — so the local position of
//! global index `g` is `count_below(g)` and the only O(extent) thing a
//! version allocates is its `data`. Replicated mappings store a full
//! projection on every replica. This matches the local addressing
//! scheme the mapping layer's structural equality guarantees (see
//! `hpfc-mapping`), so two equal mappings have byte-identical local
//! layouts — the property live-copy reuse relies on.
//!
//! Data movement ([`VersionData::copy_values_from`]) is block-level: it
//! walks the planner's per-dimension periodic interval descriptors
//! ([`crate::redist::dim_contributions`]) and copies whole contiguous
//! runs with `copy_from_slice`, instead of routing every element
//! through a heap-allocated point and per-dimension position lookups.
//! The cached remap path goes further:
//! [`VersionData::copy_values_from_program`] replays a compiled
//! [`crate::CopyProgram`] whose positions were all resolved at plan
//! time — zero allocations per copy, on the calling thread (see
//! [`crate::exec`] for the artifact; the one replay core interprets
//! it).
//!
//! Values enter and leave the machine the same way. A dense row-major
//! array is the version of a one-processor mapping with every grid axis
//! replicated, so extraction ([`VersionData::to_dense`]) and hand-over
//! ([`VersionData::load_dense`]) are remaps between a version and that
//! dense mapping: the shared registry's compiled program for the pair,
//! replayed by the one serial walk, with no walk of their own.
//!
//! Every walk over a compiled program's runs goes through the crate's
//! one run kernel (the private `runs` module): a set of equal runs in
//! arithmetic progression, its loop picked once per set from the run
//! width. The table engine keeps its own run loop: it is the oracle
//! replay is checked against. A guarded remap's rollback copies no
//! words at all: it swaps the target's buffers (see `ArrayRt`).

use hpfc_mapping::intervals::intersect_runs;
use hpfc_mapping::{Extents, GridId, NormalizedMapping, PeriodicSet};

use crate::replay::Lane;

/// One processor's slice of a version.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalBlock {
    /// Per dimension, the owned global indices in closed form and their
    /// count (`set.count()`, cached: every position is a mixed-radix
    /// number over these).
    dims: Vec<(PeriodicSet, usize)>,
    /// Row-major element data over `dims`.
    pub data: Vec<f64>,
}

impl LocalBlock {
    /// Local position of a global point: per dimension, the number of
    /// owned indices below the coordinate. `None` if the block does not
    /// own the point.
    fn position(&self, point: &[u64]) -> Option<usize> {
        let mut idx = 0usize;
        for ((set, len), &g) in self.dims.iter().zip(point) {
            let k = set.count_below(g);
            if set.count_below(g + 1) == k {
                return None;
            }
            idx = idx * len + k as usize;
        }
        Some(idx)
    }
}

/// A position in a block's storage order: the global point of one
/// element. It borrows nothing, so a caller can hold it across writes
/// to the block; [`LocalBlock::next_point`] moves it on.
#[derive(Debug, Clone)]
pub struct BlockCursor {
    point: Vec<u64>,
    /// Per dimension, the end of the owned run `point[d]` lies in.
    run_end: Vec<u64>,
}

impl BlockCursor {
    /// The first combination of the owned indices of `dims`. Every set
    /// must be non-empty.
    fn first(dims: &[(PeriodicSet, usize)]) -> BlockCursor {
        let (point, run_end) = dims.iter().map(|(set, _)| first_run(set)).unzip();
        BlockCursor { point, run_end }
    }

    /// Step to the next combination, last dimension fastest, each set
    /// run by run (nothing is listed). `false` once it wrapped around
    /// to the first.
    fn step(&mut self, dims: &[(PeriodicSet, usize)]) -> bool {
        for (d, (set, _)) in dims.iter().enumerate().rev() {
            self.point[d] += 1;
            if self.point[d] < self.run_end[d] {
                return true;
            }
            if let Some(run) = set.runs(self.run_end[d], set.extent).next() {
                (self.point[d], self.run_end[d]) = run;
                return true;
            }
            // Wrapped: rewind this dimension and carry into the next one out.
            (self.point[d], self.run_end[d]) = first_run(set);
        }
        false
    }

    /// The global point the cursor is on.
    pub fn point(&self) -> &[u64] {
        &self.point
    }
}

fn first_run(set: &PeriodicSet) -> (u64, u64) {
    set.runs(0, set.extent).next().expect("a held block owns indices along every dimension")
}

impl LocalBlock {
    /// A cursor on `data[0]`. The block must hold at least one element.
    pub fn first_point(&self) -> BlockCursor {
        BlockCursor::first(&self.dims)
    }

    /// Move `cursor` to the next element of `data`; `false` once it
    /// wrapped around to `data[0]`.
    pub fn next_point(&self, cursor: &mut BlockCursor) -> bool {
        cursor.step(&self.dims)
    }
}

/// The distributed storage of one array version.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionData {
    /// The placement this storage realizes.
    pub mapping: NormalizedMapping,
    /// One optional block per processor rank (None = holds nothing).
    pub blocks: Vec<Option<LocalBlock>>,
    /// Element size in bytes (for accounting; data is simulated as f64).
    pub elem_size: u64,
}

impl VersionData {
    /// Allocate (zero-filled) storage for `mapping`.
    pub fn new(mapping: NormalizedMapping, elem_size: u64) -> Self {
        let nprocs = mapping.grid_shape.volume();
        let rank = mapping.array_extents.rank();
        let mut blocks = Vec::with_capacity(nprocs as usize);
        for r in 0..nprocs {
            let coords = mapping.grid_shape.delinearize(r);
            if !mapping.holds_anything(&coords) {
                blocks.push(None);
                continue;
            }
            let dims: Vec<(PeriodicSet, usize)> = (0..rank)
                .map(|d| {
                    let set = mapping.owned_set_along(d, &coords);
                    let len = set.count() as usize;
                    (set, len)
                })
                .collect();
            let len: usize = dims.iter().map(|(_, len)| len).product();
            blocks.push(Some(LocalBlock { dims, data: vec![0.0; len] }));
        }
        VersionData { mapping, blocks, elem_size }
    }

    /// Zero every element — what [`VersionData::new`] hands out, for
    /// storage that is being reused.
    pub(crate) fn clear(&mut self) {
        for block in self.blocks.iter_mut().flatten() {
            block.data.fill(0.0);
        }
    }

    /// Bytes allocated on processor `rank`.
    pub fn bytes_on(&self, rank: u64) -> u64 {
        self.blocks[rank as usize]
            .as_ref()
            .map(|b| b.data.len() as u64 * self.elem_size)
            .unwrap_or(0)
    }

    /// Total bytes across all processors (replicas count).
    pub fn total_bytes(&self) -> u64 {
        (0..self.blocks.len() as u64).map(|r| self.bytes_on(r)).sum()
    }

    /// Read an element (from its canonical owner).
    pub fn get(&self, point: &[u64]) -> f64 {
        let owner = crate::redist::canonical_owner(&self.mapping, point);
        let block = self.blocks[owner as usize].as_ref().expect("owner holds the element");
        block.data[block.position(point).expect("owned element")]
    }

    /// Write an element (to every replica); allocates nothing.
    pub fn set(&mut self, point: &[u64], value: f64) {
        let blocks = &mut self.blocks;
        self.mapping.for_each_owner(point, |owner| {
            let block = blocks[owner as usize].as_mut().expect("owner holds the element");
            let pos = block.position(point).expect("owned element");
            block.data[pos] = value;
        });
    }

    /// Fill from a function of the global point: `f` is written into
    /// the dense version's one block, walked in row-major order, and
    /// handed over by the remap [`VersionData::load_dense`] makes — so
    /// `f` runs once per element and every replica receives the same
    /// value.
    pub fn fill(&mut self, f: impl Fn(&[u64]) -> f64) {
        let ext = &self.mapping.array_extents;
        let mut dense = dense_version(ext, self.elem_size, vec![0.0; ext.volume() as usize]);
        let block = dense.blocks[0].as_mut().expect("the dense processor holds the array");
        if !block.data.is_empty() {
            let mut at = BlockCursor::first(&block.dims);
            for cell in block.data.iter_mut() {
                *cell = f(at.point());
                at.step(&block.dims);
            }
        }
        self.remap_from(&dense);
    }

    /// Copy all values from another version of the same array — the
    /// data movement a redistribution performs (traffic is accounted
    /// separately, from the plan). Returns `(runs, elements)` copied.
    ///
    /// Computes the per-dimension descriptor tables itself; when a
    /// [`crate::RedistPlan`] for this pair is already at hand, use
    /// [`VersionData::copy_values_from_plan`] to reuse its tables — and
    /// when a compiled [`crate::CopyProgram`] exists (the cached remap
    /// path), [`VersionData::copy_values_from_program`] replays it
    /// without re-deriving anything.
    pub fn copy_values_from(&mut self, other: &VersionData) -> (u64, u64) {
        let per_dim = crate::redist::dim_contributions(&other.mapping, &self.mapping);
        self.copy_with_tables(other, &per_dim)
    }

    /// [`VersionData::copy_values_from`] driven by the interval
    /// descriptors a [`crate::RedistPlan`] already carries (the remap
    /// path plans and then moves; the tables are computed once).
    /// Returns `(runs, elements)` copied.
    ///
    /// Falls back to recomputing when the plan was not computed for
    /// exactly this (source, destination) mapping pair — a plan with no
    /// descriptors (e.g. one built by [`crate::plan_by_enumeration`])
    /// or one planned for different mappings.
    pub fn copy_values_from_plan(
        &mut self,
        other: &VersionData,
        plan: &crate::RedistPlan,
    ) -> (u64, u64) {
        let descriptors_match = plan.dims.len() == self.mapping.array_extents.rank()
            && plan
                .mappings
                .as_ref()
                .is_some_and(|m| m.0 == other.mapping && m.1 == self.mapping);
        if descriptors_match {
            self.copy_with_tables(other, &plan.dims)
        } else {
            self.copy_values_from(other)
        }
    }

    /// Replay a compiled [`crate::CopyProgram`]: every position was
    /// resolved at plan time, so this is the run kernel over the
    /// program's families and triples, on the calling thread, with zero
    /// heap allocations. Every [`crate::ExecMode`] replays serially: the
    /// argument is kept for existing callers and chooses nothing.
    /// Returns `(runs, elements)` copied.
    ///
    /// Like [`VersionData::copy_values_from_plan`], this guards
    /// against mismatched inputs: a program compiled for a different
    /// (source, destination) mapping pair would apply its precompiled
    /// positions to the wrong block layouts, so the copy falls back to
    /// recomputing the descriptor tables instead. The check is an
    /// allocation-free structural comparison — the cached remap path
    /// stays allocation-free.
    pub fn copy_values_from_program(
        &mut self,
        other: &VersionData,
        program: &crate::CopyProgram,
        _mode: crate::ExecMode,
    ) -> (u64, u64) {
        if !program.compiled_for(other, self) {
            return self.copy_values_from(other);
        }
        let lane = &mut |visit: &mut dyn FnMut(&mut dyn Iterator<Item = Lane<'_>>)| {
            visit(&mut std::iter::once(Lane { at: 0, src: other, dst: &mut *self }))
        };
        crate::replay::replay(std::slice::from_ref(program), lane);
        (program.n_runs(), program.n_elements())
    }

    /// The block-level copy engine: for every combination of
    /// per-dimension periodic interval descriptors, contiguous index
    /// runs shared by the provider and the receiver are moved with
    /// `copy_from_slice`; elements are never routed through per-point
    /// owner computation. Returns `(runs, elements)` copied.
    fn copy_with_tables(
        &mut self,
        other: &VersionData,
        per_dim: &[Vec<crate::redist::DimContribution>],
    ) -> (u64, u64) {
        assert_eq!(self.mapping.array_extents, other.mapping.array_extents);
        let src = &other.mapping;
        let dst = &self.mapping;
        let rank = src.array_extents.rank();
        if rank == 0 {
            // Scalars: one element, every destination replica.
            let v = other.get(&[]);
            self.set(&[], v);
            let replicas = self.mapping.owners(&[]).len() as u64;
            return (replicas, replicas);
        }
        if per_dim.iter().any(|e| e.is_empty()) {
            return (0, 0); // empty array
        }

        // Materialize every entry's runs once, up front — the
        // combination walk below revisits each (dimension, entry) pair
        // many times.
        let entry_runs: Vec<Vec<Vec<(u64, u64)>>> = per_dim
            .iter()
            .enumerate()
            .map(|(d, entries)| {
                let n = src.array_extents.extent(d);
                entries
                    .iter()
                    .map(|e| intersect_runs(&e.src_set, &e.dst_set, 0, n).collect())
                    .collect()
            })
            .collect();

        // The pair logic (rank assembly, replica fan-out, receiver
        // self-preference) lives in the planner's shared driver; this
        // engine only supplies the per-combination run copy.
        let dst_blocks = &mut self.blocks;
        let mut runs: Vec<&[(u64, u64)]> = vec![&[]; rank];
        let mut totals = (0u64, 0u64);
        crate::redist::for_each_pair_combination(src, dst, per_dim, |provider, to, idx| {
            for d in 0..rank {
                runs[d] = &entry_runs[d][idx[d]];
            }
            let src_block =
                other.blocks[provider as usize].as_ref().expect("provider holds the data");
            let dst_block =
                dst_blocks[to as usize].as_mut().expect("receiver allocates the data");
            let (r, e) = copy_runs(dst_block, src_block, &runs, per_dim, idx);
            totals.0 += r;
            totals.1 += e;
        });
        totals
    }

    /// Gather the full array into a dense row-major vector (verification
    /// helper, and the interpreter's result-extraction path).
    ///
    /// Extraction is a remap: into the array's dense mapping (one
    /// processor holding every element, row-major), through the
    /// process-wide [`crate::PlanRegistry`]'s compiled program for the
    /// pair and the one serial replay — billed to no
    /// [`crate::Machine`]. Replicas beyond the one the plan reads from
    /// hold identical values by the storage invariants.
    pub fn to_dense(&self) -> Vec<f64> {
        let ext = &self.mapping.array_extents;
        let mut dense = dense_version(ext, self.elem_size, vec![0.0; ext.volume() as usize]);
        dense.remap_from(self);
        dense.blocks.pop().flatten().expect("the dense mapping's processor holds the array").data
    }

    /// Overwrite every element, on every replica, from a dense
    /// row-major vector: the reverse remap of [`VersionData::to_dense`]
    /// — how values are handed into a version from outside the machine.
    ///
    /// # Panics
    ///
    /// If `dense` does not hold exactly one value per element.
    pub fn load_dense(&mut self, dense: Vec<f64>) {
        let ext = &self.mapping.array_extents;
        assert_eq!(dense.len() as u64, ext.volume(), "one dense value per element");
        let src = dense_version(ext, self.elem_size, dense);
        self.remap_from(&src);
    }

    /// Copy `src`, another version of the same array, into this one the
    /// way a remap does: the process-wide registry's artifact for the
    /// pair, replayed serially, or the table engine when the plan drives
    /// no program.
    fn remap_from(&mut self, src: &VersionData) {
        let registry = crate::PlanRegistry::shared();
        let (planned, _) = registry.resolve(&src.mapping, &self.mapping, self.elem_size, false);
        match &planned.program {
            Some(program) => self.copy_values_from_program(src, program, crate::ExecMode::Serial),
            None => self.copy_values_from_plan(src, &planned.plan),
        };
    }
}

/// The dense mapping of an array of `extents`: one processor, every
/// grid axis replicated, so its one block holds every element row-major.
fn dense_mapping(extents: &Extents) -> NormalizedMapping {
    NormalizedMapping::replicated(GridId(0), Extents::new(&[1]), extents.clone())
}

/// A version in the dense mapping of `extents` holding `data`.
fn dense_version(extents: &Extents, elem_size: u64, data: Vec<f64>) -> VersionData {
    let dims = (0..extents.rank())
        .map(|d| {
            let n = extents.extent(d);
            (PeriodicSet::full(n), n as usize)
        })
        .collect();
    VersionData {
        mapping: dense_mapping(extents),
        blocks: vec![Some(LocalBlock { dims, data })],
        elem_size,
    }
}

/// Copy every element of the cartesian product of `runs` from
/// `src_block` into `dst_block`: outer dimensions are walked index by
/// index, the innermost dimension is moved run by run with
/// `copy_from_slice` (both sides hold each run contiguously, because a
/// run lies inside one owned interval on either side).
///
/// Local positions come from the periodic descriptors in closed form:
/// the position of global index `g` in a block is the number of owned
/// indices below `g` (`PeriodicSet::count_below`).
fn copy_runs(
    dst_block: &mut LocalBlock,
    src_block: &LocalBlock,
    runs: &[&[(u64, u64)]],
    per_dim: &[Vec<crate::redist::DimContribution>],
    idx: &[usize],
) -> (u64, u64) {
    let mut runs_copied = 0u64;
    let mut elements_copied = 0u64;
    let rank = runs.len();
    let last = rank - 1;
    let LocalBlock { dims: d_dims, data: d_data } = dst_block;
    let (s_dims, s_data) = (&src_block.dims, &src_block.data);
    let d_last_len = d_dims[last].1;
    let s_last_len = s_dims[last].1;
    let e_last = &per_dim[last][idx[last]];

    // Odometer over the outer dimensions, one global index at a time:
    // per dimension, (run index, offset inside the run).
    let mut cur = vec![(0usize, 0u64); last];
    loop {
        // Row-major position prefixes of the current outer coordinates.
        let mut d_pref = 0usize;
        let mut s_pref = 0usize;
        for d in 0..last {
            let (ri, off) = cur[d];
            let g = runs[d][ri].0 + off;
            let e = &per_dim[d][idx[d]];
            d_pref = d_pref * d_dims[d].1 + e.dst_set.count_below(g) as usize;
            s_pref = s_pref * s_dims[d].1 + e.src_set.count_below(g) as usize;
        }
        for &(lo, hi) in runs[last] {
            let dp = e_last.dst_set.count_below(lo) as usize;
            let sp = e_last.src_set.count_below(lo) as usize;
            let len = (hi - lo) as usize;
            let d_at = d_pref * d_last_len + dp;
            let s_at = s_pref * s_last_len + sp;
            if len == 1 {
                // Cyclic(1)-style destinations degrade every run to a
                // single element; skip the slice machinery for those.
                d_data[d_at] = s_data[s_at];
            } else {
                d_data[d_at..d_at + len].copy_from_slice(&s_data[s_at..s_at + len]);
            }
            runs_copied += 1;
            elements_copied += len as u64;
        }
        // Advance the outer odometer (innermost outer dim fastest).
        let mut d = last;
        loop {
            if d == 0 {
                return (runs_copied, elements_copied);
            }
            d -= 1;
            let (ref mut ri, ref mut off) = cur[d];
            *off += 1;
            if runs[d][*ri].0 + *off < runs[d][*ri].1 {
                break;
            }
            *off = 0;
            *ri += 1;
            if *ri < runs[d].len() {
                break;
            }
            *ri = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::{
        AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping, ProcGrid,
        Template, TemplateId,
    };

    fn mk2d(n: u64, p: u64, fmts: Vec<DimFormat>) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n, n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), fmts),
        }
        .normalize(&Extents::new(&[n, n]), &t, &g)
        .unwrap()
    }

    #[test]
    fn get_set_roundtrip_rowblock() {
        let nm = mk2d(8, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let mut v = VersionData::new(nm, 8);
        v.set(&[3, 5], 42.0);
        assert_eq!(v.get(&[3, 5]), 42.0);
        assert_eq!(v.get(&[0, 0]), 0.0);
    }

    #[test]
    fn fill_and_dense_are_consistent_across_mappings() {
        let row = mk2d(8, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let col = mk2d(8, 4, vec![DimFormat::Collapsed, DimFormat::Cyclic(None)]);
        let f = |p: &[u64]| (p[0] * 8 + p[1]) as f64;
        let mut a = VersionData::new(row, 8);
        let mut b = VersionData::new(col, 8);
        a.fill(f);
        b.fill(f);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn to_dense_follows_owned_sets_with_several_runs_per_period() {
        // `A(i)` aligned with `T(3i + 1)`, `T` cyclic(4): on 2 ranks each
        // period of 8 array indices holds several owned runs, so the
        // innermost set's run families expand family by family and the
        // local side steps by the words owned per period, not by `len`.
        // The second dimension of the 2-D case is the same set, under
        // collapsed rows.
        for (rank, p) in [(1usize, 2u64), (1, 5), (2, 2)] {
            let n = 101u64;
            let shape: Vec<u64> = vec![n; rank];
            let tshape: Vec<u64> = shape.iter().map(|&e| 3 * e + 1).collect();
            let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&tshape) };
            let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
            let strided = |d| AlignTarget::Axis { array_dim: d, stride: 3, offset: 1 };
            let align =
                Alignment { template: TemplateId(0), targets: (0..rank).map(strided).collect() };
            let mut fmts = vec![DimFormat::Collapsed; rank - 1];
            fmts.push(DimFormat::Cyclic(Some(4)));
            let nm = Mapping { align, dist: Distribution::new(GridId(0), fmts) }
                .normalize(&Extents::new(&shape), &t, &g)
                .unwrap();
            let inner = nm.owned_set_along(rank - 1, &[0]);
            let fams = inner.run_families(0, inner.extent);
            assert!(
                fams.iter().filter(|f| f.count > 1).count() > 1,
                "P={p}: several families repeat side by side: {fams:?}"
            );
            let value = |q: &[u64]| q.iter().fold(0u64, |a, &i| a * n + i) as f64 + 0.5;
            let mut v = VersionData::new(nm, 8);
            v.fill(value);
            let dense = v.to_dense();
            let mut q = vec![0u64; rank];
            for (at, got) in dense.iter().enumerate() {
                let mut rest = at as u64;
                for d in (0..rank).rev() {
                    (q[d], rest) = (rest % n, rest / n);
                }
                assert_eq!(*got, value(&q), "rank {rank}, P={p}: element {q:?}");
            }
        }
    }

    #[test]
    fn copy_values_preserves_content() {
        let row = mk2d(6, 3, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let col = mk2d(6, 3, vec![DimFormat::Collapsed, DimFormat::Block(None)]);
        let mut a = VersionData::new(row, 8);
        a.fill(|p| (p[0] * 100 + p[1]) as f64);
        let mut b = VersionData::new(col, 8);
        b.copy_values_from(&a);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn replicated_version_stores_everywhere() {
        let repl = mk2d(4, 4, vec![DimFormat::Collapsed, DimFormat::Collapsed]);
        let mut v = VersionData::new(repl.clone(), 8);
        v.set(&[1, 1], 7.0);
        // All four processors hold the element.
        let full = 4 * 4 * 8;
        assert_eq!(v.total_bytes(), 4 * full);
        assert_eq!(v.get(&[1, 1]), 7.0);
    }

    #[test]
    fn bytes_accounting_partition() {
        let nm = mk2d(8, 4, vec![DimFormat::Cyclic(None), DimFormat::Collapsed]);
        let v = VersionData::new(nm, 8);
        assert_eq!(v.total_bytes(), 8 * 8 * 8);
        assert_eq!(v.bytes_on(0), 2 * 8 * 8);
    }
}
