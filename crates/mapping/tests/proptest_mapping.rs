//! Property-based tests for the mapping algebra: the invariants every
//! downstream phase (remapping graph, redistribution engine, simulator)
//! silently relies on.

use hpfc_mapping::{
    AlignTarget, Alignment, DimFormat, DimLayout, Distribution, Extents, GridId, Mapping,
    ProcGrid, Template, TemplateId,
};
use proptest::prelude::*;

fn layout_strategy() -> impl Strategy<Value = DimLayout> {
    (1u64..200, 1u64..16, 1u64..9).prop_map(|(extent, block, nprocs)| {
        DimLayout::new(extent, block, nprocs)
    })
}

proptest! {
    /// Every cell has exactly one owner, and local/global addressing is
    /// a bijection on owned cells.
    #[test]
    fn layout_local_global_bijection(l in layout_strategy()) {
        for t in 0..l.extent {
            let p = l.owner(t);
            prop_assert!(p < l.nprocs);
            prop_assert_eq!(l.global(p, l.local(t)), t);
        }
    }

    /// Per-processor counts partition the extent.
    #[test]
    fn layout_counts_partition_extent(l in layout_strategy()) {
        let total: u64 = (0..l.nprocs).map(|p| l.local_count(p)).sum();
        prop_assert_eq!(total, l.extent);
    }

    /// `owned_cells` agrees with the owner predicate and with
    /// `local_count`, and is sorted.
    #[test]
    fn layout_owned_cells_consistent(l in layout_strategy()) {
        for p in 0..l.nprocs {
            let cells: Vec<u64> = l.owned_cells(p).collect();
            prop_assert!(cells.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(cells.len() as u64, l.local_count(p));
            for (i, &t) in cells.iter().enumerate() {
                prop_assert_eq!(l.owner(t), p);
                prop_assert_eq!(l.local(t), i as u64, "dense local packing");
            }
        }
    }

    /// Closed-form intervals expand to exactly the owned cells.
    #[test]
    fn layout_intervals_equal_cells(l in layout_strategy()) {
        for p in 0..l.nprocs {
            let cells: Vec<u64> = l.owned_cells(p).collect();
            let exp: Vec<u64> = l.owned_intervals(p).iter().flat_map(|&(a, b)| a..b).collect();
            prop_assert_eq!(cells, exp);
        }
    }
}

/// A random well-formed 2-D mapping of an `n0 x n1` array onto a 1-D
/// grid of `p` processors.
fn mapping_strategy() -> impl Strategy<Value = (Extents, Template, ProcGrid, Mapping)> {
    (2u64..24, 2u64..24, 1u64..6, 0usize..4, prop::bool::ANY, 1u64..5).prop_map(
        |(n0, n1, p, fmt_sel, transpose, b)| {
            let extents = Extents::new(&[n0, n1]);
            let tshape = if transpose { [n1, n0] } else { [n0, n1] };
            let template =
                Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&tshape) };
            let grid = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
            let align = if transpose {
                Alignment::transpose2(TemplateId(0))
            } else {
                Alignment::identity(TemplateId(0), 2)
            };
            // Pick which template dim is distributed and with what format.
            let fmt = match fmt_sel {
                0 => DimFormat::Block(None),
                1 => DimFormat::Cyclic(None),
                2 => DimFormat::Cyclic(Some(b)),
                _ => DimFormat::Block(Some(tshape[0].div_ceil(p) + b)),
            };
            let dist = Distribution::new(GridId(0), vec![fmt, DimFormat::Collapsed]);
            (extents, template, grid, Mapping { align, dist })
        },
    )
}

proptest! {
    /// Without replication, the local volumes of all processors
    /// partition the array.
    #[test]
    fn mapping_local_volumes_partition((extents, template, grid, m) in mapping_strategy()) {
        let n = m.normalize(&extents, &template, &grid).unwrap();
        let total: u64 = (0..grid.nprocs()).map(|r| n.local_volume(r)).sum();
        prop_assert_eq!(total, extents.volume());
    }

    /// Every element has exactly one owner, and `is_owned` agrees with
    /// `owners`.
    #[test]
    fn mapping_single_owner((extents, template, grid, m) in mapping_strategy()) {
        let n = m.normalize(&extents, &template, &grid).unwrap();
        for pt in extents.points() {
            let owners = n.owners(&pt);
            prop_assert_eq!(owners.len(), 1);
            for r in 0..grid.nprocs() {
                prop_assert_eq!(n.is_owned(&pt, r), owners[0] == r);
            }
        }
    }

    /// Soundness of structural equality: two independently normalized
    /// mappings that compare equal place every element identically.
    #[test]
    fn structural_equality_implies_pointwise(
        (extents, template, grid, m1) in mapping_strategy(),
        sel in 0usize..4,
    ) {
        // Build a second mapping over the same array/grid.
        let fmt = match sel {
            0 => DimFormat::Block(None),
            1 => DimFormat::Cyclic(None),
            2 => DimFormat::Cyclic(Some(2)),
            _ => DimFormat::Block(Some(template.shape.extent(0).div_ceil(grid.nprocs()))),
        };
        let m2 = Mapping {
            align: m1.align.clone(),
            dist: Distribution::new(GridId(0), vec![fmt, DimFormat::Collapsed]),
        };
        let n1 = m1.normalize(&extents, &template, &grid).unwrap();
        if let Ok(n2) = m2.normalize(&extents, &template, &grid) {
            if n1 == n2 {
                prop_assert!(n1.equiv_pointwise(&n2));
            }
        }
    }

    /// `owned_set_along` is consistent with per-point ownership: the
    /// cartesian product of the per-dim owned sets (expanded through
    /// their runs) is exactly the owned point set, and `count()` is
    /// their size.
    #[test]
    fn owned_indices_product_is_owned_set((extents, template, grid, m) in mapping_strategy()) {
        let n = m.normalize(&extents, &template, &grid).unwrap();
        for r in 0..grid.nprocs() {
            let coords = grid.shape.delinearize(r);
            let expand = |d: usize| -> Vec<u64> {
                let set = n.owned_set_along(d, &coords);
                let list: Vec<u64> = set.runs(0, set.extent).flat_map(|(lo, hi)| lo..hi).collect();
                assert_eq!(set.count(), list.len() as u64);
                list
            };
            let (d0, d1) = (expand(0), expand(1));
            let holds = n.holds_anything(&coords);
            let mut count = 0u64;
            for pt in extents.points() {
                if n.is_owned(&pt, r) {
                    count += 1;
                    prop_assert!(holds);
                    prop_assert!(d0.contains(&pt[0]) && d1.contains(&pt[1]));
                }
            }
            if holds {
                prop_assert_eq!(count, (d0.len() * d1.len()) as u64);
            } else {
                prop_assert_eq!(count, 0);
            }
        }
    }
}

/// Paper Fig. 1: `REALIGN A WITH B(j,i)` then `REDISTRIBUTE B(CYCLIC,*)`
/// produces a placement reachable in one direct remapping — i.e. the two
/// intermediate placements are all distinct, which is what makes the
/// intermediate copy a real (optimizable) cost.
#[test]
fn fig1_intermediate_mapping_is_distinct() {
    let e = Extents::new(&[12, 12]);
    let t = Template { id: TemplateId(0), name: "B".into(), shape: e.clone() };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
    let m0 = Mapping {
        align: Alignment::identity(TemplateId(0), 2),
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Collapsed]),
    };
    // After REALIGN A(i,j) WITH B(j,i): alignment transposed, same dist.
    let m1 = Mapping { align: Alignment::transpose2(TemplateId(0)), dist: m0.dist.clone() };
    // After REDISTRIBUTE B(CYCLIC,*).
    let m2 = Mapping {
        align: Alignment::transpose2(TemplateId(0)),
        dist: Distribution::new(GridId(0), vec![DimFormat::Cyclic(None), DimFormat::Collapsed]),
    };
    let n0 = m0.normalize(&e, &t, &g).unwrap();
    let n1 = m1.normalize(&e, &t, &g).unwrap();
    let n2 = m2.normalize(&e, &t, &g).unwrap();
    assert_ne!(n0, n1);
    assert_ne!(n1, n2);
    assert_ne!(n0, n2);
}

/// Replication makes local volumes over-count the array (each replica
/// holds a full projection).
#[test]
fn replicated_axis_overcounts() {
    let e = Extents::new(&[6]);
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[6, 4]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[2, 2]) };
    let m = Mapping {
        align: Alignment {
            template: TemplateId(0),
            targets: vec![AlignTarget::identity(0), AlignTarget::Replicate],
        },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Block(None)]),
    };
    let n = m.normalize(&e, &t, &g).unwrap();
    let total: u64 = (0..4).map(|r| n.local_volume(r)).sum();
    assert_eq!(total, 12); // 6 elements x 2 replicas
    assert_eq!(n.owners(&[0]).len(), 2);
}
