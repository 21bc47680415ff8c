//! The redistribution engine: exact communication sets between two
//! composed mappings of the same array.
//!
//! This is the substrate the paper delegates to its SPMD code
//! generation phase (and that refs like Prylli & Tourancheau's
//! block-cyclic redistribution library provide): given source and
//! target [`NormalizedMapping`]s, compute, in closed form, how many
//! elements every processor pair exchanges — and *which* index
//! intervals, so data movement can copy whole runs.
//!
//! # Cost model
//!
//! Ownership factorizes per array dimension (each dimension feeds at
//! most one grid axis on each side through an affine map into a
//! block-cyclic layout), so per-dimension owned index sets are
//! [`PeriodicSet`]s — periodic unions of intervals with period
//! `b·P / gcd(|stride|, b·P)` — and the (sender, receiver) element
//! count is a product of per-dimension periodic-intersection sizes.
//!
//! A previous incarnation of this planner materialized, for every grid
//! coordinate, the full `O(extent / (b·P))` interval list and
//! intersected the lists pairwise (recomputing the destination side
//! once per source coordinate), making "closed-form" planning scale
//! with the array: `O(P_s·P_d · extent/(b·P))` per dimension. Planning
//! now intersects one *hyper-period* (`lcm` of the two sides' periods)
//! plus tail, so a dimension costs `O(P_s·P_d · runs(hyper-period))`,
//! independent of the extent; the pair accumulation runs over a dense
//! `P_s × P_d` count matrix with reusable scratch buffers instead of a
//! `BTreeMap` keyed by freshly allocated coordinate vectors. The plan
//! additionally carries the per-dimension [`PeriodicSet`] descriptors
//! (see [`DimContribution`]), which the storage layer's block-level
//! copy engine ([`crate::store::VersionData::copy_values_from`])
//! expands into `copy_from_slice` runs.
//!
//! Replication is handled by a **canonical source** rule: the replica
//! at coordinate 0 of every replicated source axis sends (deterministic
//! and factorizable); every replica on the destination side receives.
//! [`plan_by_enumeration`] is the O(n·P) brute-force oracle used by the
//! property tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpfc_mapping::{DimSource, Extents, NormalizedMapping, PeriodicSet};

/// One processor-pair transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sender rank (row-major in the source grid).
    pub from: u64,
    /// Receiver rank (row-major in the destination grid).
    pub to: u64,
    /// Number of elements.
    pub elements: u64,
}

/// The contribution of one array dimension to the communication set:
/// the elements owned along it by source grid coordinate `src` and
/// destination grid coordinate `dst` (`None` = the dimension does not
/// drive that side, i.e. the whole extent is held).
///
/// `src_set ∩ dst_set` is the exact index set moved for any pair built
/// from this entry; both are compact periodic descriptors whose size is
/// independent of the extent.
#[derive(Debug, Clone)]
pub struct DimContribution {
    /// Driven source axis and coordinate, if any.
    pub src: Option<(usize, u64)>,
    /// Driven destination axis and coordinate, if any.
    pub dst: Option<(usize, u64)>,
    /// `|src_set ∩ dst_set|`, closed form.
    pub count: u64,
    /// Indices owned on the source side (full range when not driven).
    pub src_set: PeriodicSet,
    /// Indices owned on the destination side (full range when not driven).
    pub dst_set: PeriodicSet,
}

/// A complete redistribution plan.
///
/// Equality compares the *communication content* (transfers, local
/// element count, element size); the `dims` descriptor tables are
/// derived data carried for the block-level copy engine and are
/// excluded, so a closed-form plan compares equal to the enumeration
/// oracle (which has no descriptors).
#[derive(Debug, Clone)]
pub struct RedistPlan {
    /// Remote transfers (`from != to`), sorted by (from, to).
    pub transfers: Vec<Transfer>,
    /// Elements that stay on their processor.
    pub local_elements: u64,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Per-dimension contribution tables (interval descriptors), each
    /// sorted by its entries' `(src, dst)` coordinates; empty for
    /// oracle-built plans.
    pub dims: Vec<Vec<DimContribution>>,
    /// The (source, destination) mapping pair this plan was computed
    /// for — the copy engine refuses to apply `dims` to any other pair.
    /// Shared by `Arc` with the compiled [`crate::CopyProgram`] of the
    /// same pair, so a cached `PlannedRemap` stores the two mappings
    /// once, not twice.
    pub mappings: Option<Arc<(NormalizedMapping, NormalizedMapping)>>,
}

impl PartialEq for RedistPlan {
    fn eq(&self, other: &Self) -> bool {
        self.transfers == other.transfers
            && self.local_elements == other.local_elements
            && self.elem_size == other.elem_size
    }
}

impl Eq for RedistPlan {}

impl RedistPlan {
    /// Total bytes crossing the network.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.elements * self.elem_size).sum()
    }

    /// Number of point-to-point messages (one per communicating pair,
    /// as a packing redistribution library would send).
    pub fn total_messages(&self) -> u64 {
        self.transfers.len() as u64
    }

    /// Total elements moved remotely.
    pub fn remote_elements(&self) -> u64 {
        self.transfers.iter().map(|t| t.elements).sum()
    }

    /// The (from, to, bytes) triples for
    /// [`crate::Machine::account_phase`], without materializing them.
    pub fn phase_triples(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.transfers.iter().map(|t| (t.from, t.to, t.elements * self.elem_size))
    }

    /// The per-dimension descriptors of the `(from, to)` pair's message:
    /// along every array dimension, the one contribution entry whose
    /// driven source and destination coordinates are those of the two
    /// ranks. The message's elements are the product over dimensions of
    /// `src_set ∩ dst_set` — what its pack and unpack loops walk — so
    /// for a transfer the entries' counts multiply to its `elements`.
    /// `None` for a plan without descriptors (the enumeration oracle, a
    /// rank-0 scalar) or a pair that exchanges nothing along some
    /// dimension.
    ///
    /// Allocates nothing: each driven coordinate is computed from the
    /// rank, and the entries are handed back as an iterator in
    /// dimension order.
    pub fn pair_dims(
        &self,
        from: u64,
        to: u64,
    ) -> Option<impl ExactSizeIterator<Item = &DimContribution> + Clone + '_> {
        let (src, dst) = self.mappings.as_deref()?;
        if self.dims.is_empty() {
            return None;
        }
        let entry = move |d: usize| -> Option<&DimContribution> {
            let want = (driven_coord(src, d, from), driven_coord(dst, d, to));
            let entries = &self.dims[d];
            entries.binary_search_by_key(&want, |e| (e.src, e.dst)).ok().map(|at| &entries[at])
        };
        let rank = self.dims.len();
        (0..rank).all(|d| entry(d).is_some()).then(move || {
            (0..rank).map(move |d| entry(d).expect("every dimension was found"))
        })
    }
}

/// The grid axis array dimension `d` drives under `nm`, and the
/// coordinate along it of processor `rank` (row-major, last axis
/// fastest); `None` when `d` drives no axis.
fn driven_coord(nm: &NormalizedMapping, d: usize, rank: u64) -> Option<(usize, u64)> {
    let (axis, ..) = nm.axis_driven_by(d)?;
    let shape = &nm.grid_shape;
    let below: u64 = (axis + 1..shape.rank()).map(|a| shape.extent(a)).product();
    Some((axis, rank / below % shape.extent(axis)))
}

/// The canonical owner of a point under a mapping: its owner with
/// coordinate 0 substituted on replicated axes.
///
/// Computed directly from the per-axis sources (no [`hpfc_mapping::Locus`]
/// materialization): this sits on the per-element read path
/// ([`crate::VersionData::get`]), where a heap allocation per point used
/// to dominate.
pub fn canonical_owner(nm: &NormalizedMapping, point: &[u64]) -> u64 {
    let mut rank = 0u64;
    for (a, ax) in nm.axes.iter().enumerate() {
        let coord = match ax.source {
            hpfc_mapping::DimSource::Replicated => 0,
            hpfc_mapping::DimSource::FixedCoord(q) => q,
            hpfc_mapping::DimSource::ArrayAxis { dim, stride, offset } => {
                let t = stride * point[dim] as i64 + offset;
                debug_assert!(t >= 0, "alignment image validated non-negative");
                ax.layout.expect("axis source has layout").owner(t as u64)
            }
        };
        rank = rank * nm.grid_shape.extent(a) + coord;
    }
    rank
}

/// The source a receiver actually reads a point from: itself if it
/// holds the point under `src`, else the canonical owner.
pub fn source_for(src: &NormalizedMapping, receiver: u64, point: &[u64]) -> u64 {
    if receiver < src.grid_shape.volume() && src.is_owned(point, receiver) {
        receiver
    } else {
        canonical_owner(src, point)
    }
}

/// All owners of a point (replicas expanded).
pub fn all_owners(nm: &NormalizedMapping, point: &[u64]) -> Vec<u64> {
    nm.owners(point)
}

// --- the planner -------------------------------------------------------

/// One side's candidates along array dimension `d`: every coordinate of
/// the grid axis `d` drives, with the index set it owns — or, when `d`
/// drives no axis, the one undriven entry holding the whole extent.
/// The sets are [`NormalizedMapping::owned_set_along`]'s, the ones the
/// storage layer's blocks address through.
fn side_sets(nm: &NormalizedMapping, d: usize) -> Vec<(Option<(usize, u64)>, PeriodicSet)> {
    let mut coords = vec![0u64; nm.grid_shape.rank()];
    match nm.axis_driven_by(d) {
        Some((axis, .., layout)) => (0..layout.nprocs)
            .map(|c| {
                coords[axis] = c;
                (Some((axis, c)), nm.owned_set_along(d, &coords))
            })
            .collect(),
        None => vec![(None, nm.owned_set_along(d, &coords))],
    }
}

/// Per-dimension contribution tables: for every array dimension, the
/// non-empty (source coord, destination coord) interval intersections,
/// in ascending `(src, dst)` order (the order
/// [`RedistPlan::pair_dims`] searches).
/// Each side's periodic sets are computed once per coordinate and
/// shared across all coordinates of the other side.
pub fn dim_contributions(
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
) -> Vec<Vec<DimContribution>> {
    (0..src.array_extents.rank())
        .map(|d| {
            let d_sets = side_sets(dst, d);
            let mut entries = Vec::new();
            for (s_coord, s_set) in side_sets(src, d) {
                for (d_coord, d_set) in &d_sets {
                    let count = s_set.intersect_count(d_set);
                    if count > 0 {
                        entries.push(DimContribution {
                            src: s_coord,
                            dst: *d_coord,
                            count,
                            src_set: s_set.clone(),
                            dst_set: d_set.clone(),
                        });
                    }
                }
            }
            entries
        })
        .collect()
}

/// Row-major strides of a grid shape (rank contribution of coordinate
/// `c` on axis `a` is `c * strides[a]`).
fn rank_strides(shape: &Extents) -> Vec<u64> {
    let rank = shape.rank();
    let mut strides = vec![1u64; rank];
    for a in (0..rank.saturating_sub(1)).rev() {
        strides[a] = strides[a + 1] * shape.extent(a + 1);
    }
    strides
}

/// Static per-mapping assembly data: which axes are driven by array
/// dimensions, the rank contribution of undriven axes, and (for the
/// destination) the precomputed replicated-axis rank offsets. Shared
/// by the planner and the storage layer's copy engine so the two can
/// never disagree on rank assembly.
pub(crate) struct SideInfo {
    pub(crate) strides: Vec<u64>,
    /// Rank contribution of all `FixedCoord` axes.
    pub(crate) fixed_base: u64,
    /// For the source-holds check: per axis, `Some(coord)` when the
    /// coordinate is pinned (`FixedCoord`), `None` when the axis is
    /// replicated (matches anything) or driven (filled per combination).
    pub(crate) want: Vec<Option<u64>>,
    /// Whether each axis is replicated (matches any coordinate).
    pub(crate) replicated: Vec<bool>,
}

pub(crate) fn side_info(nm: &NormalizedMapping) -> SideInfo {
    let strides = rank_strides(&nm.grid_shape);
    let mut fixed_base = 0u64;
    let mut want = vec![None; nm.axes.len()];
    let mut replicated = vec![false; nm.axes.len()];
    for (axis, ax) in nm.axes.iter().enumerate() {
        match ax.source {
            DimSource::FixedCoord(q) => {
                fixed_base += q * strides[axis];
                want[axis] = Some(q);
            }
            DimSource::Replicated => replicated[axis] = true,
            DimSource::ArrayAxis { .. } => {} // filled per combination
        }
    }
    SideInfo { strides, fixed_base, want, replicated }
}

/// Rank offsets of every combination of replicated destination axes
/// (the broadcast fan-out), precomputed once per plan.
pub(crate) fn replicated_offsets(nm: &NormalizedMapping, strides: &[u64]) -> Vec<u64> {
    let mut offsets = vec![0u64];
    for (axis, ax) in nm.axes.iter().enumerate() {
        if matches!(ax.source, DimSource::Replicated) {
            let n = nm.grid_shape.extent(axis);
            let old_len = offsets.len();
            let mut next = Vec::with_capacity(old_len * n as usize);
            for &o in &offsets {
                for c in 0..n {
                    next.push(o + c * strides[axis]);
                }
            }
            offsets = next;
        }
    }
    offsets
}

/// Whether rank `to`, interpreted in the source grid, matches the
/// per-axis source-owner coordinates `want` (axes flagged in
/// `replicated` match anything). `scratch` receives the delinearized
/// coordinates — no per-call allocation.
pub(crate) fn receiver_holds_under_src(
    src: &NormalizedMapping,
    replicated: &[bool],
    want: &[Option<u64>],
    to: u64,
    scratch: &mut [u64],
) -> bool {
    if to >= src.grid_shape.volume() {
        return false;
    }
    let mut rem = to;
    for a in (0..scratch.len()).rev() {
        let n = src.grid_shape.extent(a);
        scratch[a] = rem % n;
        rem /= n;
    }
    replicated
        .iter()
        .zip(want)
        .zip(scratch.iter())
        .all(|((&repl, want), &have)| repl || *want == Some(have))
}

/// The shared (sender, receiver) combination walk: the odometer over
/// every per-dimension [`DimContribution`] combination and every
/// replicated-destination rank offset, with the **receiver
/// self-preference** rule applied (a receiver that already holds the
/// combination's elements under the source mapping is its own
/// provider — all elements of a combination share their source-owner
/// coordinates, so one check covers them all).
///
/// `f(provider, receiver, idx)` is called once per (combination,
/// destination replica); `idx[d]` selects the dimension-`d` entry of
/// `per_dim`. At least one combination always runs, which is what
/// makes rank-0 scalars work.
///
/// This single driver is what the closed-form planner
/// ([`plan_redistribution`]), the descriptor-table copy engine
/// (`VersionData::copy_with_tables`), and the program compiler
/// ([`crate::CopyProgram::try_compile`]) all iterate — they cannot
/// disagree on who provides what to whom, because the pair logic
/// exists exactly once.
pub fn for_each_pair_combination(
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    per_dim: &[Vec<DimContribution>],
    mut f: impl FnMut(u64, u64, &[usize]),
) {
    debug_assert!(per_dim.iter().all(|e| !e.is_empty()), "caller filters empty arrays");
    let rank = per_dim.len();
    let src_info = side_info(src);
    let dst_info = side_info(dst);
    let repl_offsets = replicated_offsets(dst, &dst_info.strides);
    // Reusable scratch: the per-combination driven source coordinates
    // (for the receiver-holds check) and the delinearization buffer.
    let mut s_want = src_info.want.clone();
    let mut delin = vec![0u64; src.grid_shape.rank()];

    let mut idx = vec![0usize; rank];
    loop {
        // Current combination.
        let mut from_base = src_info.fixed_base;
        let mut to_base = dst_info.fixed_base;
        for d in 0..rank {
            let e = &per_dim[d][idx[d]];
            if let Some((ax, c)) = e.src {
                from_base += c * src_info.strides[ax];
                s_want[ax] = Some(c);
            }
            if let Some((ax, c)) = e.dst {
                to_base += c * dst_info.strides[ax];
            }
        }
        for &off in &repl_offsets {
            let to = to_base + off;
            let holds =
                receiver_holds_under_src(src, &src_info.replicated, &s_want, to, &mut delin);
            let from = if holds { to } else { from_base };
            f(from, to, &idx);
        }
        // Advance the odometer.
        let mut d = 0;
        loop {
            if d == rank {
                return;
            }
            idx[d] += 1;
            if idx[d] < per_dim[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

/// Closed-form redistribution plan between two mappings of one array.
///
/// Panics if the mappings disagree on the array extents (they are
/// versions of the same array by construction).
pub fn plan_redistribution(
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    elem_size: u64,
) -> RedistPlan {
    assert_eq!(
        src.array_extents, dst.array_extents,
        "redistribution between different arrays"
    );
    let per_dim = dim_contributions(src, dst);
    let vd = dst.grid_shape.volume();

    if per_dim.iter().any(|e| e.is_empty()) {
        // Some dimension contributes nothing: the array is empty.
        return RedistPlan {
            transfers: Vec::new(),
            local_elements: 0,
            elem_size,
            dims: per_dim,
            mappings: Some(hpfc_mapping::intern::pair(src, dst)),
        };
    }

    // Dense (sender, receiver) count matrix; compacted at the end.
    let vs = src.grid_shape.volume();
    let mut matrix = vec![0u64; (vs * vd) as usize];
    for_each_pair_combination(src, dst, &per_dim, |from, to, idx| {
        let count: u64 = idx.iter().enumerate().map(|(d, &i)| per_dim[d][i].count).product();
        matrix[(from * vd + to) as usize] += count;
    });
    compact(matrix, vd, elem_size, per_dim, src, dst)
}

/// Compact the dense count matrix into sorted transfers.
fn compact(
    matrix: Vec<u64>,
    vd: u64,
    elem_size: u64,
    dims: Vec<Vec<DimContribution>>,
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
) -> RedistPlan {
    let mut transfers = Vec::new();
    let mut local = 0u64;
    for (i, &elements) in matrix.iter().enumerate() {
        if elements == 0 {
            continue;
        }
        let from = i as u64 / vd;
        let to = i as u64 % vd;
        if from == to {
            local += elements;
        } else {
            transfers.push(Transfer { from, to, elements });
        }
    }
    RedistPlan {
        transfers,
        local_elements: local,
        elem_size,
        dims,
        // Hash-consed: every plan over an equal (src, dst) pair shares
        // one pointer-identical Arc — the identity the shared plan
        // registry keys by.
        mappings: Some(hpfc_mapping::intern::pair(src, dst)),
    }
}

/// Brute-force oracle: enumerate every element, canonical source, all
/// destination replicas. O(n · replicas).
pub fn plan_by_enumeration(
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    elem_size: u64,
) -> RedistPlan {
    let mut pairs: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for p in src.array_extents.points() {
        for to in all_owners(dst, &p) {
            let from = source_for(src, to, &p);
            *pairs.entry((from, to)).or_insert(0) += 1;
        }
    }
    let mut transfers = Vec::new();
    let mut local = 0u64;
    for ((from, to), elements) in pairs {
        if from == to {
            local += elements;
        } else {
            transfers.push(Transfer { from, to, elements });
        }
    }
    RedistPlan { transfers, local_elements: local, elem_size, dims: Vec::new(), mappings: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::{
        Alignment, DimFormat, Distribution, Extents, GridId, Mapping, ProcGrid, Template,
        TemplateId,
    };

    fn mk(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![fmt]),
        }
        .normalize(&Extents::new(&[n]), &t, &g)
        .unwrap()
    }

    #[test]
    fn block_to_cyclic_1d() {
        let src = mk(16, 4, DimFormat::Block(None)); // blocks of 4
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        assert_eq!(plan, oracle);
        // Each proc keeps exactly 1 of its 4 elements (the one whose
        // cyclic owner == block owner).
        assert_eq!(plan.local_elements, 4);
        assert_eq!(plan.remote_elements(), 12);
        // All-to-all among 4 procs minus diagonal: 12 messages.
        assert_eq!(plan.total_messages(), 12);
        assert_eq!(plan.total_bytes(), 12 * 8);
    }

    #[test]
    fn identity_redistribution_is_all_local() {
        let src = mk(20, 4, DimFormat::Cyclic(Some(2)));
        let plan = plan_redistribution(&src, &src, 8);
        assert_eq!(plan.total_messages(), 0);
        assert_eq!(plan.local_elements, 20);
    }

    #[test]
    fn replication_broadcast() {
        // src: block over 4; dst: fully replicated.
        let src = mk(8, 4, DimFormat::Block(None));
        let dst = mk(8, 4, DimFormat::Collapsed);
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        assert_eq!(plan, oracle);
        // Every proc must receive the 6 elements it does not own, and
        // keeps its own 2: 8 local, 24 remote.
        assert_eq!(plan.local_elements, 8);
        assert_eq!(plan.remote_elements(), 24);
    }

    #[test]
    fn replicated_source_needs_no_communication() {
        let src = mk(8, 4, DimFormat::Collapsed); // replicated everywhere
        let dst = mk(8, 4, DimFormat::Block(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        assert_eq!(plan, oracle);
        // Every receiver already holds everything under the replicated
        // source: all copies are local.
        assert_eq!(plan.local_elements, 8);
        assert_eq!(plan.total_messages(), 0);
    }

    #[test]
    fn two_dim_transpose_style() {
        // (BLOCK, *) -> (*, BLOCK) on a 2-D array: the classic FFT
        // transpose-by-redistribution.
        let n = 12u64;
        let p = 3u64;
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n, n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        let e = Extents::new(&[n, n]);
        let row = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Collapsed]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let col = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), vec![DimFormat::Collapsed, DimFormat::Block(None)]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let plan = plan_redistribution(&row, &col, 8);
        let oracle = plan_by_enumeration(&row, &col, 8);
        assert_eq!(plan, oracle);
        // Each proc keeps its diagonal tile (n/p × n/p) and sends the
        // rest of its rows.
        assert_eq!(plan.local_elements, p * (n / p) * (n / p));
        assert_eq!(plan.total_messages(), p * (p - 1));
    }

    #[test]
    fn strided_alignment_plan_matches_oracle() {
        // ALIGN A(i) WITH T(2*i+1): stride-2 alignment into a template
        // twice as large, BLOCK vs CYCLIC(3).
        let n = 10u64;
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[24]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
        let e = Extents::new(&[n]);
        let al = Alignment {
            template: TemplateId(0),
            targets: vec![hpfc_mapping::AlignTarget::Axis { array_dim: 0, stride: 2, offset: 1 }],
        };
        let src = Mapping {
            align: al.clone(),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let dst = Mapping {
            align: al,
            dist: Distribution::new(GridId(0), vec![DimFormat::Cyclic(Some(3))]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        assert_eq!(plan, oracle);
        // Conservation: every element lands somewhere exactly once.
        assert_eq!(plan.local_elements + plan.remote_elements(), n);
    }

    #[test]
    fn plan_carries_interval_descriptors() {
        let src = mk(16, 4, DimFormat::Block(None));
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        assert_eq!(plan.dims.len(), 1);
        // 4x4 coordinate pairs, all non-empty for block->cyclic on 16.
        assert_eq!(plan.dims[0].len(), 16);
        for e in &plan.dims[0] {
            assert_eq!(e.src_set.intersect_count(&e.dst_set), e.count);
        }
        // Descriptor sizes depend on the layouts, not the extent.
        let big_src = mk(1 << 22, 4, DimFormat::Block(None));
        let big_dst = mk(1 << 22, 4, DimFormat::Cyclic(None));
        let big = plan_redistribution(&big_src, &big_dst, 8);
        for e in &big.dims[0] {
            assert!(e.src_set.base.len() <= 2, "src descriptor stays O(1)");
            assert!(e.dst_set.base.len() <= 2, "dst descriptor stays O(1)");
        }
    }
}
