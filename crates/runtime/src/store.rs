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
//! Storage outlives the arrays that held it. Every version the runtime
//! lets go of — freed, evicted, cleaned, staged out or temporary, of any
//! size — goes whole to one process-wide pool (`VersionData`'s `Drop`):
//! buffers, block table and owned-set descriptors. A request takes the
//! most recently pooled version of an equal mapping as it is, so a warm
//! routine writes pages that are already mapped and rebuilds nothing.
//! A request nothing pooled serves first releases everything pooled:
//! pooled plus held elements never exceed the high-water of held
//! elements, with no knob. Pooled storage is zero-filled unless the
//! claiming program provably overwrites every element.
//!
//! Every walk over a compiled program's runs goes through the crate's
//! one run kernel (the private `runs` module): a set of equal runs in
//! arithmetic progression, its loop picked once per set from the run
//! width. The table engine keeps its own run loop: it is the oracle
//! replay is checked against. A guarded remap's rollback copies no
//! words at all: it swaps the target's buffers (see `ArrayRt`).

use std::sync::{Mutex, MutexGuard};

use hpfc_mapping::intervals::intersect_runs;
use hpfc_mapping::{DimSource, Extents, GridId, NormalizedMapping, PeriodicSet};

use crate::exec::CopyProgram;
use crate::replay::Lane;

/// A version's storage outside any `VersionData` — in the pool, or being
/// drawn: its block table and owned-set descriptors. It has no `Drop` of
/// its own, so one the pool lets go of frees its storage.
struct Pooled {
    mapping: NormalizedMapping,
    blocks: Vec<Option<LocalBlock>>,
}

/// Released versions, shared by every array in the process, and the
/// counts that bound them. All counts are in elements.
struct Pool {
    /// Versions waiting for a request, the most recently released last.
    free: Vec<Pooled>,
    /// Elements in the buffers of `free`.
    pooled: usize,
    /// Elements in the drawn versions that are held now.
    held: usize,
    /// The most `held` has ever been.
    high: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool { free: Vec::new(), pooled: 0, held: 0, high: 0 });

/// The pool, locked. A thread that panicked while holding the lock left
/// the counts consistent (no update in here can panic half way), so a
/// poisoned lock is recovered, as the registry's shard locks are.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(|poisoned| {
        POOL.clear_poison();
        poisoned.into_inner()
    })
}

/// Move `version`'s storage into the pool, leaving it empty. `held`
/// says whether the pool counts it as held (it was drawn); storage from
/// outside the runtime is kept only while pooled + held stays under the
/// high-water, and freed otherwise, as is a version with no stored
/// elements (the shell [`VersionData::to_dense`] takes the buffer out
/// of, or one released already).
fn release(version: &mut VersionData, held: bool) {
    let elements = version.stored_elements() as usize;
    if elements == 0 {
        return;
    }
    // A mapping over no grid and no extents owns no heap memory: the
    // version keeps it in place of the one the pool takes.
    let none = || Extents(Vec::new());
    let empty = NormalizedMapping::replicated(GridId(0), none(), none());
    let released = Pooled {
        mapping: std::mem::replace(&mut version.mapping, empty),
        blocks: std::mem::take(&mut version.blocks),
    };
    let mut pool = pool();
    if held {
        // Saturating: this runs in `Drop`, which must not panic.
        pool.held = pool.held.saturating_sub(elements);
    } else if pool.pooled + pool.held + elements > pool.high {
        drop(pool);
        return; // `released` is freed here, outside the lock
    }
    pool.pooled += elements;
    pool.free.push(released);
}

/// The blocks of a version of `mapping` — one for every processor that
/// holds anything — without buffers.
fn blocks_of(mapping: &NormalizedMapping) -> Vec<Option<LocalBlock>> {
    let rank = mapping.array_extents.rank();
    (0..mapping.grid_shape.volume())
        .map(|r| {
            let coords = mapping.grid_shape.delinearize(r);
            let dims = mapping.holds_anything(&coords).then(|| {
                (0..rank)
                    .map(|d| {
                        let set = mapping.owned_set_along(d, &coords);
                        let len = set.count() as usize;
                        (set, len)
                    })
                    .collect()
            })?;
            Some(LocalBlock { dims, data: Vec::new() })
        })
        .collect()
}

/// Elements a version of `mapping` stores (replicas count), without
/// building it: every element once per coordinate of each replicated
/// grid axis.
fn stored_by(mapping: &NormalizedMapping) -> usize {
    let replicated = mapping.axes.iter().enumerate();
    let replicas = replicated
        .filter(|(_, ax)| ax.source == DimSource::Replicated)
        .map(|(axis, _)| mapping.grid_shape.extent(axis))
        .product::<u64>();
    (mapping.array_extents.volume() * replicas) as usize
}

/// `(pooled, held, high)`: the pool's counts, in elements, read under
/// one lock.
#[cfg(test)]
pub(crate) fn pool_counts() -> (usize, usize, usize) {
    let pool = pool();
    (pool.pooled, pool.held, pool.high)
}

/// Whether replaying `claim` provably writes every one of `elements`
/// stored elements (replicas count) — then storage it writes need not
/// be zeroed first.
pub(crate) fn overwrites(claim: Option<&CopyProgram>, elements: u64) -> bool {
    claim.is_some_and(|p| p.total_elements == elements)
}

/// One processor's slice of a version. Its `data` keeps the length it
/// was allocated with: releasing the version hands the buffer on.
#[derive(Debug, PartialEq)]
pub struct LocalBlock {
    /// Per dimension, the owned global indices in closed form and their
    /// count (`set.count()`, cached: every position is a mixed-radix
    /// number over these).
    dims: Vec<(PeriodicSet, usize)>,
    /// Row-major element data over `dims`.
    pub data: Vec<f64>,
}

impl LocalBlock {
    /// The elements the block holds: the product of its owned counts.
    fn elements(&self) -> usize {
        self.dims.iter().map(|(_, len)| len).product()
    }

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

/// The distributed storage of one array version. Dropping it hands the
/// storage to the process-wide pool (see the module docs).
#[derive(Debug, PartialEq)]
pub struct VersionData {
    /// The placement this storage realizes.
    pub mapping: NormalizedMapping,
    /// One optional block per processor rank (None = holds nothing).
    pub blocks: Vec<Option<LocalBlock>>,
    /// Element size in bytes (for accounting; data is simulated as f64).
    pub elem_size: u64,
}

impl Clone for VersionData {
    /// A copy in storage from the pool (every element is overwritten,
    /// so pooled storage is not zeroed first).
    fn clone(&self) -> Self {
        let mut copy = VersionData::draw(&self.mapping, self.elem_size, self.stored_elements());
        for (to, from) in copy.blocks.iter_mut().flatten().zip(self.blocks.iter().flatten()) {
            to.data.copy_from_slice(&from.data);
        }
        copy
    }
}

impl Drop for VersionData {
    fn drop(&mut self) {
        release(self, true);
    }
}

impl VersionData {
    /// Allocate (zero-filled) storage for `mapping`.
    pub fn new(mapping: NormalizedMapping, elem_size: u64) -> Self {
        VersionData::draw(&mapping, elem_size, 0)
    }

    /// Storage for `mapping` that a replay of `claim` is about to
    /// write: zero-filled like [`VersionData::new`]'s, except that
    /// pooled storage is handed over as is when `claim` provably
    /// overwrites every element.
    pub(crate) fn claimed(
        mapping: &NormalizedMapping,
        elem_size: u64,
        claim: Option<&CopyProgram>,
    ) -> Self {
        VersionData::draw(mapping, elem_size, claim.map_or(0, |p| p.total_elements))
    }

    /// Storage for `mapping` whose caller writes `written` elements: the
    /// most recently pooled version of an equal mapping, whole, else
    /// fresh descriptors and buffers after everything pooled is
    /// released. Pooled storage is zero-filled unless `written` covers
    /// every stored element. The pool's lock is never held while
    /// building, zeroing or freeing storage.
    fn draw(mapping: &NormalizedMapping, elem_size: u64, written: u64) -> Self {
        let elements = stored_by(mapping);
        let mut pool = pool();
        pool.held += elements;
        // Storage stays a `Pooled` while the lock is held: a panic there
        // drops nothing that takes the lock again.
        let hit = pool.free.iter().rposition(|p| p.mapping == *mapping).map(|at| {
            pool.pooled -= elements;
            pool.free.remove(at)
        });
        let flushed = if hit.is_some() {
            Vec::new()
        } else {
            pool.high = pool.high.max(pool.held);
            pool.pooled = 0;
            std::mem::take(&mut pool.free)
        };
        drop(pool);
        drop(flushed);
        let Pooled { mapping, blocks } =
            hit.unwrap_or_else(|| Pooled { mapping: mapping.clone(), blocks: blocks_of(mapping) });
        let mut version = VersionData { mapping, blocks, elem_size };
        debug_assert_eq!(elements, version.blocks.iter().flatten().map(LocalBlock::elements).sum());
        let zero = written != elements as u64;
        for block in version.blocks.iter_mut().flatten() {
            if block.data.len() != block.elements() {
                block.data = vec![0.0; block.elements()];
            } else if zero {
                block.data.fill(0.0);
            }
        }
        version
    }

    /// Bytes allocated on processor `rank`.
    pub fn bytes_on(&self, rank: u64) -> u64 {
        self.blocks[rank as usize]
            .as_ref()
            .map(|b| b.data.len() as u64 * self.elem_size)
            .unwrap_or(0)
    }

    /// Elements stored across all processors (replicas count).
    pub(crate) fn stored_elements(&self) -> u64 {
        self.blocks.iter().flatten().map(|b| b.data.len() as u64).sum()
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
        // The walk below writes every element: pooled storage needs no zeroing.
        let mut dense = VersionData::draw(&dense_mapping(ext), self.elem_size, ext.volume());
        let block = dense.dense_block();
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
    /// program's families, on the calling thread, with zero
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
    /// hold identical values by the storage invariants. The returned
    /// buffer is drawn from the pool and leaves the pool's books with
    /// the caller.
    pub fn to_dense(&self) -> Vec<f64> {
        let dense_map = dense_mapping(&self.mapping.array_extents);
        let registry = crate::PlanRegistry::shared();
        let planned = registry.resolve(&self.mapping, &dense_map, self.elem_size, false).0;
        let written = planned.program.as_ref().map_or(0, |p| p.total_elements);
        let mut dense = VersionData::draw(&dense_map, self.elem_size, written);
        dense.copy_planned(self, &planned);
        let data = std::mem::take(&mut dense.dense_block().data);
        // The result leaves the runtime: it stops counting as held.
        let mut pool = pool();
        pool.held = pool.held.saturating_sub(data.len());
        data
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
        let mapping = dense_mapping(ext);
        let blocks = blocks_of(&mapping);
        let mut src = VersionData { mapping, blocks, elem_size: self.elem_size };
        src.dense_block().data = dense;
        self.remap_from(&src);
        // The caller's buffer was never held: the pool keeps it only
        // under the high-water.
        release(&mut src, false);
    }

    /// Copy `src`, another version of the same array, into this one the
    /// way a remap does: the process-wide registry's artifact for the
    /// pair, replayed serially, or the table engine when the plan drives
    /// no program.
    fn remap_from(&mut self, src: &VersionData) {
        let registry = crate::PlanRegistry::shared();
        let planned = registry.resolve(&src.mapping, &self.mapping, self.elem_size, false).0;
        self.copy_planned(src, &planned);
    }

    /// The process-wide registry's artifact that loads a dense vector
    /// into `mapping`: the copy [`VersionData::load_dense`] replays.
    pub(crate) fn loader(
        mapping: &NormalizedMapping,
        elem_size: u64,
    ) -> std::sync::Arc<crate::PlannedRemap> {
        let dense = dense_mapping(&mapping.array_extents);
        crate::PlanRegistry::shared().resolve(&dense, mapping, elem_size, false).0
    }

    /// Copy `src` by `planned`: its program, or the table engine when
    /// the plan drives none.
    fn copy_planned(&mut self, src: &VersionData, planned: &crate::PlannedRemap) {
        match &planned.program {
            Some(program) => self.copy_values_from_program(src, program, crate::ExecMode::Serial),
            None => self.copy_values_from_plan(src, &planned.plan),
        };
    }

    /// The one block of a dense version.
    fn dense_block(&mut self) -> &mut LocalBlock {
        self.blocks[0].as_mut().expect("the dense mapping's processor holds the array")
    }
}

/// The dense mapping of an array of `extents`: one processor, every
/// grid axis replicated, so its one block holds every element row-major.
fn dense_mapping(extents: &Extents) -> NormalizedMapping {
    NormalizedMapping::replicated(GridId(0), Extents::new(&[1]), extents.clone())
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
    use hpfc_mapping::testing::mapping_1d;
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
    fn a_released_buffer_reads_zero_when_reused() {
        let nm = mapping_1d(4096, 4, DimFormat::Block(None));
        let mut reused = false;
        // Tests on other threads may flush the pool in between; retry
        // until a block really got a released buffer back.
        for _ in 0..100 {
            let mut garbage = VersionData::new(nm.clone(), 8);
            let released: Vec<*const f64> =
                garbage.blocks.iter().flatten().map(|b| b.data.as_ptr()).collect();
            garbage.blocks.iter_mut().flatten().for_each(|b| b.data.fill(f64::NAN));
            drop(garbage);
            let v = VersionData::new(nm.clone(), 8);
            assert!(v.blocks.iter().flatten().all(|b| b.data.iter().all(|&x| x == 0.0)));
            if v.blocks.iter().flatten().any(|b| released.contains(&b.data.as_ptr())) {
                reused = true;
                break;
            }
        }
        assert!(reused, "a released buffer was handed out again");
    }

    #[test]
    fn an_overwriting_claim_on_a_pooled_buffer_matches_the_oracle() {
        let n = 8192u64;
        let src = mapping_1d(n, 4, DimFormat::Block(None));
        let dst = mapping_1d(n, 4, DimFormat::Cyclic(Some(3)));
        let planned = crate::PlannedRemap::compile(crate::plan_redistribution(&src, &dst, 8));
        let program = planned.program.as_ref().expect("compiles");
        let mut a = VersionData::new(src, 8);
        a.fill(|p| 0.5 + p[0] as f64);
        for _ in 0..10 {
            let mut garbage = VersionData::new(dst.clone(), 8);
            garbage.blocks.iter_mut().flatten().for_each(|b| b.data.fill(f64::NAN));
            assert!(overwrites(Some(program), garbage.stored_elements()));
            drop(garbage);
            let mut b = VersionData::claimed(&dst, 8, Some(program));
            b.copy_values_from_program(&a, program, crate::ExecMode::Serial);
            for i in 0..n {
                assert_eq!(b.get(&[i]).to_bits(), a.get(&[i]).to_bits(), "element {i}");
            }
        }
    }

    #[test]
    fn pooled_and_held_never_exceed_the_high_water_of_held() {
        // Two layouts of equal block lengths (neither is served by the
        // other's storage), one of other lengths, two below a page (64
        // elements over 4 ranks is the smallest) and one replicated.
        let mappings = [
            mapping_1d(4096, 4, DimFormat::Block(None)),
            mapping_1d(4096, 4, DimFormat::Cyclic(Some(4))),
            mapping_1d(3000, 4, DimFormat::Block(None)),
            mapping_1d(256, 4, DimFormat::Cyclic(None)),
            mapping_1d(64, 4, DimFormat::Block(None)),
            NormalizedMapping::replicated(GridId(0), Extents::new(&[2]), Extents::new(&[300])),
        ];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let bounded = |step: usize, what: &str| {
            let (pooled, held, high) = pool_counts();
            assert!(pooled + held <= high, "step {step}, {what}: {pooled} + {held} > {high}");
        };
        let mut held: Vec<VersionData> = Vec::new();
        for step in 0..1500 {
            let pick = next(held.len().max(1));
            match next(8) {
                0 | 1 => held.push(VersionData::new(mappings[next(mappings.len())].clone(), 8)),
                _ if held.is_empty() => continue,
                2 => drop(held.swap_remove(pick)),
                // A guarded stage: the copy steps aside, a spare of its
                // layout is drawn; then commit or roll back.
                3 | 4 => {
                    let spare = VersionData::new(held[pick].mapping.clone(), 8);
                    let staged = std::mem::replace(&mut held[pick], spare);
                    bounded(step, "staged");
                    if next(2) == 0 {
                        drop(staged);
                    } else {
                        drop(std::mem::replace(&mut held[pick], staged));
                    }
                }
                // A dense result leaving the runtime.
                5 => drop(held[pick].to_dense()),
                // A foreign dense buffer handed in.
                6 => {
                    let volume = held[pick].mapping.array_extents.volume() as usize;
                    held[pick].load_dense(vec![1.0; volume]);
                }
                _ => held.push(held[pick].clone()),
            }
            bounded(step, "after");
        }
    }

    #[test]
    fn two_threads_bounce_through_the_pool() {
        use std::collections::BTreeSet;
        let n = 1u64 << 13;
        // Both threads start every round together, so their takes and
        // releases interleave on the one pool lock.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let barrier = &barrier;
                s.spawn(move || {
                    let versions = vec![
                        mapping_1d(n, 4, DimFormat::Block(None)),
                        mapping_1d(n, 4, DimFormat::Cyclic(Some(4))),
                    ];
                    let (skip, keep0, keep1) =
                        (BTreeSet::new(), BTreeSet::from([0u32]), BTreeSet::from([1u32]));
                    let mut machine = crate::Machine::new(4);
                    for round in 0..12u64 {
                        barrier.wait();
                        // A fresh array each round: its storage comes
                        // from what the last one released.
                        let mut rt = crate::ArrayRt::new("a", versions.clone(), 8);
                        let value = |i: u64| (t * 1_000_000 + round * n + i) as f64;
                        rt.current(&mut machine, 0).fill(|p| value(p[0]));
                        for (target, keep) in [(1, &keep1), (0, &keep0), (1, &keep1)] {
                            rt.try_remap_guarded(&mut machine, target, keep, false, &skip)
                                .expect("a clean remap");
                            rt.set(&[round], -value(round));
                            let got = rt.copies[target as usize].as_ref().unwrap().to_dense();
                            for (i, x) in got.iter().enumerate() {
                                let i = i as u64;
                                let want = if i == round { -value(i) } else { value(i) };
                                assert_eq!(*x, want, "thread {t}, round {round}, element {i}");
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn bytes_accounting_partition() {
        let nm = mk2d(8, 4, vec![DimFormat::Cyclic(None), DimFormat::Collapsed]);
        let v = VersionData::new(nm, 8);
        assert_eq!(v.total_bytes(), 8 * 8 * 8);
        assert_eq!(v.bytes_on(0), 2 * 8 * 8);
    }
}
