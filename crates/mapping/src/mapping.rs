//! The two-level [`Mapping`] (alignment ∘ distribution) and its
//! composed, canonical form [`NormalizedMapping`].
//!
//! The paper's central observation (Sec. 1, "HPF two-level mapping makes
//! the reaching mapping problem not as simple as the reaching definition
//! problem") is that neither the alignment nor the distribution alone
//! identifies where data lives: the compiler must compose both to decide
//! whether two program points see *the same* placement. Normalization is
//! that composition. Fig. 2's "redistribute restores the initial
//! mapping" is recognized here: a transposing realignment followed by a
//! transposed distribution composes back to the original placement
//! function and compares equal.
//!
//! Equality on [`NormalizedMapping`] is *structural after
//! canonicalization* and is sound: structurally equal mappings place
//! every element on the same processor with the same local address
//! (property-tested against the pointwise oracle
//! [`NormalizedMapping::equiv_pointwise`]). It may miss exotic
//! coincidences (two different formulas that happen to coincide on a
//! given extent); missing one only costs an avoidable copy, never
//! correctness — the same conservativeness the paper accepts for its
//! static analyses.

use crate::align::{AlignTarget, Alignment};
use crate::dist::Distribution;
use crate::error::MappingError;
use crate::geometry::Extents;
use crate::grid::{ProcGrid, Template};
use crate::intervals::PeriodicSet;
use crate::layout::{DimLayout, Locus};
use crate::GridId;

/// An array's mapping as written: its alignment plus the current
/// distribution of its template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// First level: array → template.
    pub align: Alignment,
    /// Second level: template → processors.
    pub dist: Distribution,
}

/// What feeds one processor-grid axis in a composed mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimSource {
    /// The axis coordinate is a function of one array axis:
    /// `coord = ((stride*a + offset) / block) mod nprocs`.
    ArrayAxis {
        /// Array dimension driving this grid axis.
        dim: usize,
        /// Alignment stride.
        stride: i64,
        /// Alignment offset.
        offset: i64,
    },
    /// The whole array sits at one grid coordinate along this axis
    /// (constant alignment, degenerate layout, or single processor).
    FixedCoord(u64),
    /// The array is replicated along this axis.
    Replicated,
}

/// The composed placement along one processor-grid axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimMap {
    /// What drives this grid axis.
    pub source: DimSource,
    /// Block-cyclic layout of the underlying template dimension; `None`
    /// when `source` is [`DimSource::FixedCoord`] or
    /// [`DimSource::Replicated`] (no per-element math remains).
    pub layout: Option<DimLayout>,
}

/// Canonical composed mapping: for each grid axis, how the array feeds
/// it; plus the array extents (local addressing is derived from this).
///
/// Local storage model: on processor `p`, the local copy holds, for each
/// array dimension, the indices it owns along that dimension in
/// ascending order ([`NormalizedMapping::owned_set_along`]; all indices
/// for undistributed dimensions); elements are stored row-major over
/// those sets. Two structurally equal `NormalizedMapping`s therefore
/// agree on owners *and* local addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NormalizedMapping {
    /// Target grid identity.
    pub grid: GridId,
    /// Target grid shape.
    pub grid_shape: Extents,
    /// One entry per grid axis.
    pub axes: Vec<DimMap>,
    /// The array's extents.
    pub array_extents: Extents,
}

impl Mapping {
    /// Compose and canonicalize this mapping for an array of shape
    /// `array_extents`, aligned to `template`, distributed on `grid`.
    pub fn normalize(
        &self,
        array_extents: &Extents,
        template: &Template,
        grid: &ProcGrid,
    ) -> Result<NormalizedMapping, MappingError> {
        if self.align.targets.len() != template.shape.rank() {
            return Err(MappingError::MalformedAlignment {
                reason: format!(
                    "alignment has {} targets but template rank is {}",
                    self.align.targets.len(),
                    template.shape.rank()
                ),
            });
        }
        if self.dist.formats.len() != template.shape.rank() {
            return Err(MappingError::MalformedDistribution {
                reason: format!(
                    "distribution has {} formats but template rank is {}",
                    self.dist.formats.len(),
                    template.shape.rank()
                ),
            });
        }
        self.align
            .validate(array_extents.rank())
            .map_err(|reason| MappingError::MalformedAlignment { reason })?;
        // More distributed dims than grid axes is an error; *fewer* is
        // allowed internally: the unused grid axes replicate the array
        // (how we encode unmapped/replicated objects uniformly).
        if self.dist.distributed_rank() > grid.shape.rank() {
            return Err(MappingError::GridRankMismatch {
                grid: grid.id,
                distributed_dims: self.dist.distributed_rank(),
                grid_rank: grid.shape.rank(),
            });
        }

        let proc_axis = self.dist.proc_axis_of_dim();
        let mut axes: Vec<Option<DimMap>> = vec![None; grid.shape.rank()];

        for (tdim, fmt) in self.dist.formats.iter().enumerate() {
            let Some(axis) = proc_axis[tdim] else { continue }; // collapsed: placement-neutral
            let extent = template.shape.extent(tdim);
            let nprocs = grid.shape.extent(axis);
            let block = fmt
                .effective_block(extent, nprocs)
                .expect("distributed format has a block size");
            if block == 0 {
                return Err(MappingError::MalformedDistribution {
                    reason: format!("zero block size on template dim {tdim}"),
                });
            }
            // HPF rule: BLOCK(b) must cover the dimension in one cycle.
            if matches!(fmt, crate::dist::DimFormat::Block(_)) && block * nprocs < extent {
                return Err(MappingError::BlockTooSmall { block, extent, nprocs });
            }
            let layout = DimLayout::new(extent, block, nprocs);

            let dim_map = match self.align.targets[tdim] {
                AlignTarget::Replicate => {
                    DimMap { source: DimSource::Replicated, layout: None }
                }
                AlignTarget::Constant(c) => {
                    if c < 0 || c as u64 >= extent {
                        return Err(MappingError::MalformedAlignment {
                            reason: format!(
                                "constant alignment {c} outside template dim {tdim} (extent {extent})"
                            ),
                        });
                    }
                    DimMap { source: DimSource::FixedCoord(layout.owner(c as u64)), layout: None }
                }
                AlignTarget::Axis { array_dim, stride, offset } => {
                    let n = array_extents.extent(array_dim);
                    // Validate the image of [0, n) stays inside the template.
                    let lo = offset.min(stride * (n as i64 - 1) + offset);
                    let hi = offset.max(stride * (n as i64 - 1) + offset);
                    if n > 0 && (lo < 0 || hi as u64 >= extent) {
                        return Err(MappingError::MalformedAlignment {
                            reason: format!(
                                "image [{lo},{hi}] of array dim {array_dim} outside \
                                 template dim {tdim} (extent {extent})"
                            ),
                        });
                    }
                    // Canonicalize degenerate placements to FixedCoord so
                    // that e.g. BLOCK(100) and BLOCK(200) over a 50-cell
                    // single-block dimension compare equal.
                    let single_owner = nprocs == 1
                        || (n > 0 && layout.owner(lo as u64) == layout.owner(hi as u64)
                            && (lo as u64) / block == (hi as u64) / block);
                    if single_owner {
                        let coord = if n > 0 { layout.owner(lo as u64) } else { 0 };
                        DimMap { source: DimSource::FixedCoord(coord), layout: None }
                    } else {
                        DimMap {
                            source: DimSource::ArrayAxis { dim: array_dim, stride, offset },
                            layout: Some(layout),
                        }
                    }
                }
            };
            axes[axis] = Some(dim_map);
        }

        Ok(NormalizedMapping {
            grid: grid.id,
            grid_shape: grid.shape.clone(),
            axes: axes
                .into_iter()
                .map(|a| a.unwrap_or(DimMap { source: DimSource::Replicated, layout: None }))
                .collect(),
            array_extents: array_extents.clone(),
        })
    }
}

impl NormalizedMapping {
    /// A fully replicated mapping (every processor holds the array) —
    /// used for scalars and unmapped locals.
    pub fn replicated(grid: GridId, grid_shape: Extents, array_extents: Extents) -> Self {
        let axes = (0..grid_shape.rank())
            .map(|_| DimMap { source: DimSource::Replicated, layout: None })
            .collect();
        NormalizedMapping { grid, grid_shape, axes, array_extents }
    }

    /// The placement of array point `p`.
    pub fn locus(&self, p: &[u64]) -> Locus {
        let proc = self
            .axes
            .iter()
            .map(|ax| match ax.source {
                DimSource::Replicated => None,
                DimSource::FixedCoord(q) => Some(q),
                DimSource::ArrayAxis { dim, stride, offset } => {
                    let t = stride * p[dim] as i64 + offset;
                    debug_assert!(t >= 0, "alignment image validated non-negative");
                    Some(ax.layout.expect("axis source has layout").owner(t as u64))
                }
            })
            .collect();
        Locus { proc }
    }

    /// Row-major ranks of all processors owning point `p` (replication
    /// yields several).
    pub fn owners(&self, p: &[u64]) -> Vec<u64> {
        self.locus(p).owner_ranks(&self.grid_shape)
    }

    /// Call `f` with the row-major rank of every processor owning point
    /// `p` — [`NormalizedMapping::owners`] without the `Vec`.
    pub fn for_each_owner(&self, p: &[u64], mut f: impl FnMut(u64)) {
        fn go(nm: &NormalizedMapping, p: &[u64], axis: usize, rank: u64, f: &mut impl FnMut(u64)) {
            let Some(ax) = nm.axes.get(axis) else { return f(rank) };
            let n = nm.grid_shape.extent(axis);
            let coord = match ax.source {
                DimSource::Replicated => {
                    return (0..n).for_each(|c| go(nm, p, axis + 1, rank * n + c, f))
                }
                DimSource::FixedCoord(q) => q,
                DimSource::ArrayAxis { dim, stride, offset } => {
                    let t = stride * p[dim] as i64 + offset;
                    debug_assert!(t >= 0, "alignment image validated non-negative");
                    ax.layout.expect("axis source has layout").owner(t as u64)
                }
            };
            go(nm, p, axis + 1, rank * n + coord, f)
        }
        go(self, p, 0, 0, &mut f)
    }

    /// Whether the processor with row-major rank `rank` owns point `p`.
    pub fn is_owned(&self, p: &[u64], rank: u64) -> bool {
        let coords = self.grid_shape.delinearize(rank);
        self.locus(p)
            .proc
            .iter()
            .zip(&coords)
            .all(|(want, &have)| want.is_none_or(|w| w == have))
    }

    /// The grid axis array dimension `d` drives, if any, with the affine
    /// alignment and the layout it feeds: `(axis, stride, offset, layout)`.
    pub fn axis_driven_by(&self, d: usize) -> Option<(usize, i64, i64, DimLayout)> {
        self.axes.iter().enumerate().find_map(|(axis, ax)| match ax.source {
            DimSource::ArrayAxis { dim, stride, offset } if dim == d => {
                Some((axis, stride, offset, ax.layout.expect("axis source has layout")))
            }
            _ => None,
        })
    }

    /// The array indices owned along array dimension `d` by the
    /// processor at grid coordinates `coords`, in closed form — the one
    /// description of a local block's shape that storage, the planner
    /// and the program compiler all address through.
    ///
    /// For a dimension that does not drive any grid axis this is the
    /// full range `0..extent(d)`. If some grid axis pins the array away
    /// from `coords` entirely (a `FixedCoord` mismatch) the processor
    /// owns nothing; that is a *whole-array* condition handled by
    /// [`NormalizedMapping::holds_anything`], not per-dimension.
    pub fn owned_set_along(&self, d: usize, coords: &[u64]) -> PeriodicSet {
        let n = self.array_extents.extent(d);
        match self.axis_driven_by(d) {
            Some((axis, stride, offset, layout)) => {
                PeriodicSet::owned(stride, offset, layout, coords[axis], n)
            }
            None => PeriodicSet::full(n),
        }
    }

    /// Whether the processor at `coords` holds any part of the array
    /// (false only when a `FixedCoord` axis pins the array elsewhere).
    pub fn holds_anything(&self, coords: &[u64]) -> bool {
        self.axes.iter().enumerate().all(|(axis, ax)| match ax.source {
            DimSource::FixedCoord(q) => coords[axis] == q,
            _ => true,
        })
    }

    /// Number of elements stored by the processor with rank `rank`.
    pub fn local_volume(&self, rank: u64) -> u64 {
        let coords = self.grid_shape.delinearize(rank);
        if !self.holds_anything(&coords) {
            return 0;
        }
        (0..self.array_extents.rank())
            .map(|d| self.owned_set_along(d, &coords).count())
            .product()
    }

    /// Pointwise equivalence oracle: same owners *and* same local
    /// ordering for every element. O(P·n) — tests only.
    pub fn equiv_pointwise(&self, other: &NormalizedMapping) -> bool {
        if self.array_extents != other.array_extents
            || self.grid_shape.volume() != other.grid_shape.volume()
        {
            return false;
        }
        for p in self.array_extents.points() {
            let mut a = self.owners(&p);
            let mut b = other.owners(&p);
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        // Same owners everywhere; local ordering is derived from global
        // index order per dimension, so it agrees iff per-proc owned
        // sets agree — which the loop above already guarantees.
        true
    }

    /// Total bytes for one local copy on `rank`, for `elem_size`-byte
    /// elements.
    pub fn local_bytes(&self, rank: u64, elem_size: u64) -> u64 {
        self.local_volume(rank) * elem_size
    }
}

impl std::fmt::Display for NormalizedMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, ax) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            match ax.source {
                DimSource::Replicated => write!(f, "repl")?,
                DimSource::FixedCoord(q) => write!(f, "@{q}")?,
                DimSource::ArrayAxis { dim, stride, offset } => {
                    write!(f, "a{dim}*{stride}+{offset} {}", ax.layout.unwrap())?
                }
            }
        }
        write!(f, "]{}", self.array_extents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DimFormat;
    use crate::{TemplateId};

    fn setup(
        tshape: &[u64],
        gshape: &[u64],
    ) -> (Template, ProcGrid) {
        (
            Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(tshape) },
            ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(gshape) },
        )
    }

    #[test]
    fn row_block_mapping() {
        let (t, g) = setup(&[8, 8], &[4]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Collapsed]),
        };
        let n = m.normalize(&Extents::new(&[8, 8]), &t, &g).unwrap();
        assert_eq!(n.owners(&[0, 5]), vec![0]);
        assert_eq!(n.owners(&[3, 0]), vec![1]);
        assert_eq!(n.owners(&[7, 7]), vec![3]);
        assert_eq!(n.local_volume(0), 16); // 2 rows x 8 cols
    }

    #[test]
    fn fig2_transposed_realign_plus_redistribute_restores_mapping() {
        // Paper Fig. 2: C identity-aligned, B distributed (BLOCK,*).
        // realign C(i,j) with B(j,i), then redistribute B(*,BLOCK):
        // C's composed placement is row-block both before and after.
        let (t, g) = setup(&[8, 8], &[4]);
        let before = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Collapsed]),
        };
        let after = Mapping {
            align: Alignment::transpose2(TemplateId(0)),
            dist: Distribution::new(GridId(0), vec![DimFormat::Collapsed, DimFormat::Block(None)]),
        };
        let e = Extents::new(&[8, 8]);
        let nb = before.normalize(&e, &t, &g).unwrap();
        let na = after.normalize(&e, &t, &g).unwrap();
        assert_eq!(nb, na, "composed mappings must be recognized equal");
        assert!(nb.equiv_pointwise(&na));
    }

    #[test]
    fn block_vs_cyclic_same_block_no_wrap_are_equal() {
        // BLOCK(2) over 4 procs, extent 8 == CYCLIC(2): never wraps.
        let (t, g) = setup(&[8], &[4]);
        let e = Extents::new(&[8]);
        let b = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(Some(2))]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let c = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Cyclic(Some(2))]),
        }
        .normalize(&e, &t, &g)
        .unwrap();
        assert_eq!(b, c);
    }

    #[test]
    fn block_vs_cyclic_differ_when_wrapping() {
        let (t, g) = setup(&[16], &[4]);
        let e = Extents::new(&[16]);
        let b = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]), // BLOCK(4)
        }
        .normalize(&e, &t, &g)
        .unwrap();
        let c = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Cyclic(None)]), // CYCLIC(1)
        }
        .normalize(&e, &t, &g)
        .unwrap();
        assert_ne!(b, c);
        assert!(!b.equiv_pointwise(&c));
    }

    #[test]
    fn degenerate_layouts_canonicalize() {
        // Extent 5, BLOCK(8) vs BLOCK(16) over 1 cycle: all on proc 0.
        let (t, g) = setup(&[5], &[4]);
        let e = Extents::new(&[5]);
        let mk = |b| {
            Mapping {
                align: Alignment::identity(TemplateId(0), 1),
                dist: Distribution::new(GridId(0), vec![DimFormat::Block(Some(b))]),
            }
            .normalize(&e, &t, &g)
            .unwrap()
        };
        assert_eq!(mk(8), mk(16));
        assert_eq!(mk(8).owners(&[4]), vec![0]);
    }

    #[test]
    fn replicated_alignment_owns_on_all_coords() {
        let (t, g) = setup(&[8], &[4]);
        let m = Mapping {
            align: Alignment {
                template: TemplateId(0),
                targets: vec![AlignTarget::Replicate],
            },
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
        };
        let n = m.normalize(&Extents::new(&[3]), &t, &g).unwrap();
        assert_eq!(n.owners(&[1]).len(), 4);
        assert_eq!(n.local_volume(2), 3);
    }

    #[test]
    fn constant_alignment_pins_to_one_coord() {
        let (t, g) = setup(&[8], &[4]);
        let m = Mapping {
            align: Alignment {
                template: TemplateId(0),
                targets: vec![AlignTarget::Constant(5)], // cell 5, BLOCK(2) -> proc 2
            },
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
        };
        let n = m.normalize(&Extents::new(&[3]), &t, &g).unwrap();
        assert_eq!(n.owners(&[0]), vec![2]);
        assert_eq!(n.local_volume(2), 3);
        assert_eq!(n.local_volume(0), 0);
    }

    #[test]
    fn block_too_small_rejected() {
        let (t, g) = setup(&[100], &[4]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(Some(10))]),
        };
        let err = m.normalize(&Extents::new(&[100]), &t, &g).unwrap_err();
        assert!(matches!(err, MappingError::BlockTooSmall { .. }));
    }

    #[test]
    fn alignment_image_bounds_checked() {
        let (t, g) = setup(&[8], &[4]);
        let m = Mapping {
            align: Alignment {
                template: TemplateId(0),
                targets: vec![AlignTarget::Axis { array_dim: 0, stride: 1, offset: 4 }],
            },
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
        };
        // array extent 8, offset 4 -> image [4, 11] overflows template [0,8)
        assert!(m.normalize(&Extents::new(&[8]), &t, &g).is_err());
        // extent 4 fits
        assert!(m.normalize(&Extents::new(&[4]), &t, &g).is_ok());
    }

    #[test]
    fn local_volumes_sum_to_total_without_replication() {
        let (t, g) = setup(&[10, 12], &[2, 3]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(
                GridId(0),
                vec![DimFormat::Cyclic(Some(3)), DimFormat::Block(None)],
            ),
        };
        let e = Extents::new(&[10, 12]);
        let n = m.normalize(&e, &t, &g).unwrap();
        let total: u64 = (0..6).map(|r| n.local_volume(r)).sum();
        assert_eq!(total, e.volume());
    }

    #[test]
    fn grid_rank_mismatch_rejected() {
        let (t, g) = setup(&[8, 8], &[4]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(
                GridId(0),
                vec![DimFormat::Block(None), DimFormat::Block(None)],
            ),
        };
        assert!(matches!(
            m.normalize(&Extents::new(&[8, 8]), &t, &g),
            Err(MappingError::GridRankMismatch { .. })
        ));
    }

    #[test]
    fn under_distributed_grid_axes_replicate() {
        // Only one distributed dim onto a 2-D grid: the second grid axis
        // replicates, so each element has 2 owners (one per coordinate).
        let (t, g) = setup(&[8, 8], &[2, 2]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(
                GridId(0),
                vec![DimFormat::Block(None), DimFormat::Collapsed],
            ),
        };
        let n = m.normalize(&Extents::new(&[8, 8]), &t, &g).unwrap();
        assert_eq!(n.owners(&[0, 0]).len(), 2);
        assert!(matches!(n.axes[1].source, DimSource::Replicated));
        // The allocation-free enumeration visits the same ranks, in order.
        for p in n.array_extents.points() {
            let mut ranks = Vec::new();
            n.for_each_owner(&p, |r| ranks.push(r));
            assert_eq!(ranks, n.owners(&p), "{p:?}");
        }
    }

    #[test]
    fn all_collapsed_is_fully_replicated() {
        let (t, g) = setup(&[8], &[4]);
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![DimFormat::Collapsed]),
        };
        let n = m.normalize(&Extents::new(&[8]), &t, &g).unwrap();
        assert_eq!(n.owners(&[3]).len(), 4);
        assert_eq!(
            n,
            NormalizedMapping::replicated(GridId(0), g.shape.clone(), Extents::new(&[8]))
        );
    }
}
