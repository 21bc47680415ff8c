//! E23 — property tests for the redistribution engine: the closed-form
//! communication sets must agree with brute-force enumeration for any
//! pair of well-formed mappings, and data movement must preserve array
//! contents exactly.

use std::collections::BTreeMap;

use hpfc_mapping::{
    AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping, NormalizedMapping,
    ProcGrid, Template, TemplateId,
};
use hpfc_runtime::{
    plan_by_enumeration, plan_redistribution, CommSchedule, CopyProgram, ExecMode, Kernel, Machine,
    RedistPlan, VersionData,
};
use proptest::prelude::*;

mod common;

/// A random well-formed mapping of an `n0 x n1` array.
fn mapping_strategy(
    n0: u64,
    n1: u64,
) -> impl Strategy<Value = NormalizedMapping> {
    (1u64..6, 0usize..5, 1u64..4, prop::bool::ANY, prop::bool::ANY).prop_map(
        move |(p, fmt_sel, b, transpose, swap_dist)| {
            let tshape = if transpose { [n1, n0] } else { [n0, n1] };
            let template =
                Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&tshape) };
            let grid = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
            let align = if transpose {
                Alignment::transpose2(TemplateId(0))
            } else {
                Alignment::identity(TemplateId(0), 2)
            };
            let fmt = match fmt_sel {
                0 => DimFormat::Block(None),
                1 => DimFormat::Cyclic(None),
                2 => DimFormat::Cyclic(Some(b)),
                3 => DimFormat::Collapsed, // fully replicated over p=1 axis? no: both collapsed
                _ => DimFormat::Block(Some(tshape[0].div_ceil(p) + b)),
            };
            let fmts = if matches!(fmt, DimFormat::Collapsed) {
                vec![DimFormat::Collapsed, DimFormat::Collapsed]
            } else if swap_dist {
                vec![DimFormat::Collapsed, DimFormat::Cyclic(Some(b))]
            } else {
                vec![fmt, DimFormat::Collapsed]
            };
            Mapping { align, dist: Distribution::new(GridId(0), fmts) }
                .normalize(&Extents::new(&[n0, n1]), &template, &grid)
                .unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed-form plan equals the enumeration oracle exactly —
    /// same pairs, same counts, same locals.
    #[test]
    fn plan_matches_oracle(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        prop_assert_eq!(plan, oracle);
    }

    /// Element conservation: locals + remote arrivals per replica cover
    /// the array exactly once per destination replica.
    #[test]
    fn plan_conserves_elements(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        // Total deliveries = sum over points of (#dst owners).
        let mut expected = 0u64;
        for p in src.array_extents.points() {
            expected += dst.owners(&p).len() as u64;
        }
        prop_assert_eq!(plan.local_elements + plan.remote_elements(), expected);
    }

    /// Executing the movement preserves contents for any mapping pair.
    #[test]
    fn data_movement_preserves_values(
        src in mapping_strategy(6, 5),
        dst in mapping_strategy(6, 5),
    ) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7) as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from(&a);
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    /// The BSP phase accounting is consistent: non-negative time, and
    /// zero iff there are no remote transfers.
    #[test]
    fn phase_time_consistency(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let mut m = Machine::new(8);
        let t = m.account_phase(plan.phase_triples());
        prop_assert!(t >= 0.0);
        prop_assert_eq!(t == 0.0, plan.total_messages() == 0);
        prop_assert_eq!(m.stats.bytes, plan.total_bytes());
    }

    /// Identity redistributions are free.
    #[test]
    fn identity_is_free(src in mapping_strategy(9, 7)) {
        let plan = plan_redistribution(&src, &src, 8);
        prop_assert_eq!(plan.total_messages(), 0);
    }
}

/// A random mapping drawn from the *full* space the planner supports:
/// strided/offset/negative affine alignments, constant and replicated
/// alignment targets, 1-D and 2-D processor grids, and every
/// distribution format. The template is sized so any drawn affine
/// image fits.
fn rich_mapping_strategy(n0: u64, n1: u64) -> impl Strategy<Value = NormalizedMapping> {
    (
        (1u64..4, 1u64..4),              // grid extents (2-D, possibly 1 wide)
        (0usize..5, 0usize..5),          // per-template-dim alignment selector
        (1i64..4, prop::bool::ANY),      // |stride|, negate?
        0i64..3,                         // offset slack
        (0usize..4, 0usize..4),          // per-template-dim format selector
        1u64..4,                         // cyclic block size
    )
        .prop_map(move |((p0, p1), (al0, al1), (s_abs, neg), oslack, (f0, f1), b)| {
            let stride = if neg { -s_abs } else { s_abs };
            // Template dim sized to hold the worst-case affine image of
            // either array dim plus slack.
            let nmax = n0.max(n1);
            let text = 3 * nmax + 8;
            let mk_target = |sel: usize, dim: usize| match sel {
                0 => AlignTarget::identity(dim),
                1 => {
                    // Strided/offset affine image inside [0, text).
                    let n = if dim == 0 { n0 } else { n1 };
                    let offset = if stride < 0 {
                        (-stride) * (n as i64 - 1) + oslack
                    } else {
                        oslack
                    };
                    AlignTarget::Axis { array_dim: dim, stride, offset }
                }
                2 => AlignTarget::Replicate,
                3 => AlignTarget::Constant(oslack),
                _ => AlignTarget::Axis { array_dim: dim, stride: 2, offset: 1 },
            };
            // Each array dim may be used at most once: template dim 0
            // draws from array dim 0, template dim 1 from array dim 1.
            let align = Alignment {
                template: TemplateId(0),
                targets: vec![mk_target(al0, 0), mk_target(al1, 1)],
            };
            let mk_fmt = |sel: usize| match sel {
                0 => DimFormat::Block(None),
                1 => DimFormat::Cyclic(None),
                2 => DimFormat::Cyclic(Some(b)),
                _ => DimFormat::Collapsed,
            };
            let template = Template {
                id: TemplateId(0),
                name: "T".into(),
                shape: Extents::new(&[text, text]),
            };
            let grid =
                ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p0, p1]) };
            Mapping { align, dist: Distribution::new(GridId(0), vec![mk_fmt(f0), mk_fmt(f1)]) }
                .normalize(&Extents::new(&[n0, n1]), &template, &grid)
                .expect("constructed mapping is well-formed")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Closed form == oracle over the full mapping space: strides,
    /// offsets, negative strides, constants, replication, 2-D grids.
    #[test]
    fn rich_plan_matches_oracle(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        prop_assert_eq!(plan, oracle);
    }

    /// Conservation over the full mapping space: every element is
    /// delivered exactly once per destination replica
    /// (`local + remote == n × replicas`).
    #[test]
    fn rich_plan_conserves_elements(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let replicas: u64 = dst
            .axes
            .iter()
            .enumerate()
            .filter(|(_, ax)| matches!(ax.source, hpfc_mapping::DimSource::Replicated))
            .map(|(axis, _)| dst.grid_shape.extent(axis))
            .product();
        let n = src.array_extents.volume();
        prop_assert_eq!(plan.local_elements + plan.remote_elements(), n * replicas);
    }

    /// The block-level copy engine preserves contents over the full
    /// mapping space (strided alignments, replication, 2-D grids).
    #[test]
    fn rich_data_movement_preserves_values(
        src in rich_mapping_strategy(6, 5),
        dst in rich_mapping_strategy(6, 5),
    ) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from(&a);
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    /// Extraction — a remap into the dense mapping — equals the
    /// row-major per-point `get` walk over the full mapping space.
    #[test]
    fn rich_to_dense_matches_per_point_get(src in rich_mapping_strategy(6, 5)) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 13 + p[1] * 3 + 2) as f64);
        let dense = a.to_dense();
        let per_point: Vec<f64> =
            a.mapping.array_extents.points().map(|p| a.get(&p)).collect();
        prop_assert_eq!(dense, per_point);
    }

    /// Hand-over — the reverse remap — restores what extraction took:
    /// `load_dense(to_dense())` into a fresh version reproduces every
    /// block bit for bit, each replica included.
    #[test]
    fn rich_load_dense_reproduces_every_block(m in rich_mapping_strategy(6, 5)) {
        let mut a = VersionData::new(m.clone(), 8);
        a.fill(|p| -((p[0] * 13 + p[1] * 3) as f64) / 7.0 - 0.25);
        let mut b = VersionData::new(m, 8);
        b.load_dense(a.to_dense());
        prop_assert_eq!(block_bits(&b), block_bits(&a));
    }

    /// Local addressing against per-point ownership over the full
    /// mapping space. The oracle is `NormalizedMapping::owners`, never
    /// the owned sets the blocks address through: a block stores its
    /// owned points in global row-major order, so every block — each
    /// replica included — must read as `f` over exactly the points
    /// whose owners contain its rank.
    #[test]
    fn rich_local_addressing_matches_per_point_owners(m in rich_mapping_strategy(6, 5)) {
        let points: Vec<Vec<u64>> = m.array_extents.points().collect();
        let mut v = VersionData::new(m.clone(), 8);
        let owned_image = |r: u64, f: &dyn Fn(&[u64]) -> f64| -> Vec<f64> {
            points.iter().filter(|p| m.owners(p).contains(&r)).map(|p| f(p)).collect()
        };
        let stored = |v: &VersionData, r: u64| -> Vec<f64> {
            v.blocks[r as usize].as_ref().map_or(Vec::new(), |b| b.data.clone())
        };
        let f = |p: &[u64]| (p[0] * 17 + p[1] * 5 + 3) as f64;
        v.fill(f);
        let dense = v.to_dense();
        for (lin, p) in points.iter().enumerate() {
            prop_assert_eq!(v.get(p), f(p));
            prop_assert_eq!(dense[lin], f(p));
        }
        for r in 0..m.grid_shape.volume() {
            let want = owned_image(r, &f);
            prop_assert_eq!(v.bytes_on(r), m.local_volume(r) * v.elem_size);
            prop_assert_eq!(m.local_volume(r), want.len() as u64);
            prop_assert_eq!(stored(&v, r), want, "fill, rank {}", r);
        }
        // `set` reaches every replica; `get` reads it back.
        let g = |p: &[u64]| -(f(p) + 0.5);
        for p in &points {
            v.set(p, g(p));
            prop_assert_eq!(v.get(p), g(p));
        }
        for r in 0..m.grid_shape.volume() {
            prop_assert_eq!(stored(&v, r), owned_image(r, &g), "set, rank {}", r);
        }
    }

    /// The compiled copy program agrees with every other engine over
    /// the full mapping space: replay == descriptor-table engine == the
    /// per-point oracle (element-by-
    /// element reads through the canonical owner). Also pins the
    /// volume invariant: the program delivers exactly the planned
    /// `local + remote` element count.
    #[test]
    fn rich_program_replay_matches_tables_and_per_point_oracle(
        src in rich_mapping_strategy(6, 5),
        dst in rich_mapping_strategy(6, 5),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule)
            .expect("rank >= 1 plans always compile");
        prop_assert_eq!(
            program.n_elements(),
            plan.local_elements + plan.remote_elements(),
            "program delivers exactly the planned volume"
        );
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        // Compiled replay.
        let mut serial = VersionData::new(dst, 8);
        serial.copy_values_from_program(&a, &program, ExecMode::Serial);
        // Descriptor-table engine.
        let mut tables = VersionData::new(serial.mapping.clone(), 8);
        tables.copy_values_from_plan(&a, &plan);
        // Per-point oracle: read every element through the canonical
        // owner, write it to every destination replica.
        let mut oracle = VersionData::new(serial.mapping.clone(), 8);
        let extents = a.mapping.array_extents.clone();
        for p in extents.points() {
            oracle.set(&p, a.get(&p));
        }
        prop_assert_eq!(&serial, &tables);
        prop_assert_eq!(&serial, &oracle);
    }

    /// The closed-form compile against the materialise-then-encode
    /// reference over the full mapping space (rows long enough for the
    /// periods to repeat).
    #[test]
    fn rich_program_matches_reference_compile(
        src in rich_mapping_strategy(4, 40),
        dst in rich_mapping_strategy(4, 40),
    ) {
        check_against_reference(&src, &dst);
    }

    /// The program's structural invariant behind lock-free parallel
    /// execution: within any round (including the local group), no two
    /// units share a receiver block, and remote units correspond
    /// one-to-one to the schedule's messages.
    #[test]
    fn rich_program_rounds_have_disjoint_receivers(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule)
            .expect("rank >= 1 plans always compile");
        for round in program.rounds.iter().chain(std::iter::once(&program.local)) {
            let receivers: std::collections::BTreeSet<u64> =
                round.iter().map(|u| u.receiver).collect();
            prop_assert_eq!(receivers.len(), round.len(),
                "two units in one round share a receiver block");
        }
        let n_remote: usize = program.rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(n_remote, schedule.messages.len());
        // The serial replay order is a permutation of the same units
        // ((provider, receiver) pairs are unique within a program).
        let pairs = |units: &mut dyn Iterator<Item = &hpfc_runtime::CopyUnit>| {
            let mut v: Vec<(u64, u64)> = units.map(|u| (u.provider, u.receiver)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(
            pairs(&mut program.serial_order()),
            pairs(&mut program.local.iter().chain(program.rounds.iter().flatten())),
            "serial order is not a permutation of local ∪ rounds"
        );
    }

    /// The message-level schedule agrees with its plan message for
    /// message (pairs, element counts, descriptor products), its
    /// caterpillar rounds partition the messages contention-free, and
    /// the compiled program puts every unit in its message's round.
    #[test]
    fn rich_schedule_matches_plan(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        prop_assert_eq!(s.messages.len() as u64, plan.total_messages());
        for (m, t) in s.messages.iter().zip(&plan.transfers) {
            prop_assert_eq!((m.from, m.to, m.elements), (t.from, t.to, t.elements));
            let dims = plan.pair_dims(m.from, m.to).expect("planned pairs have descriptors");
            prop_assert_eq!(dims.len(), src.array_extents.rank());
            let count: u64 = dims.map(|e| e.src_set.intersect_count(&e.dst_set)).product();
            prop_assert_eq!(count, m.elements);
        }
        // Rounds: every message exactly once, at most one partner per
        // rank per round.
        let mut seen = vec![false; s.messages.len()];
        for round in &s.rounds {
            let mut partner = std::collections::BTreeMap::new();
            for &i in round {
                prop_assert!(!seen[i]);
                seen[i] = true;
                let m = &s.messages[i];
                for (me, other) in [(m.from, m.to), (m.to, m.from)] {
                    let p = partner.entry(me).or_insert(other);
                    prop_assert_eq!(*p, other);
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
        // Every compiled unit of wire round `r` is a message of round
        // `r`, carrying that pair's elements.
        let program = CopyProgram::try_compile(&plan, &s).expect("rank >= 1 plans always compile");
        prop_assert_eq!(program.rounds.len(), s.n_rounds());
        for (r, units) in program.rounds.iter().enumerate() {
            prop_assert_eq!(round_pair_elements(&s, r), unit_pair_elements(units), "round {}", r);
        }
        // Costing the schedule books exactly the plan's traffic.
        let mut m = Machine::new(16);
        m.account_schedule(&s);
        prop_assert_eq!(m.stats.bytes, plan.total_bytes());
        prop_assert_eq!(m.stats.messages, plan.total_messages());
        prop_assert_eq!(m.stats.local_elements, plan.local_elements);
    }
}

/// The `(from, to)` pairs of wire round `r` with their elements summed
/// over the round's messages (one per pair and member).
fn round_pair_elements(s: &CommSchedule, r: usize) -> BTreeMap<(u64, u64), u64> {
    let mut out = BTreeMap::new();
    for &i in &s.rounds[r] {
        let m = &s.messages[i];
        *out.entry((m.from, m.to)).or_insert(0) += m.elements;
    }
    out
}

/// Compiled units by `(provider, receiver)` with their element counts.
fn unit_pair_elements(units: &[hpfc_runtime::CopyUnit]) -> BTreeMap<(u64, u64), u64> {
    let mut out = BTreeMap::new();
    for u in units {
        *out.entry((u.provider, u.receiver)).or_insert(0) += u.elements;
    }
    out
}

/// Whether every innermost-dimension entry of the plan has at most one
/// run per period — per side, and of the intersection per hyper-period
/// where that repeats inside the extent. The closed-form compile then
/// sees the runs in the reference's ascending order.
fn one_run_per_period(plan: &RedistPlan) -> bool {
    let Some(inner) = plan.dims.last() else { return true };
    inner.iter().all(|e| {
        let n = e.src_set.extent.min(e.dst_set.extent);
        let h = hpfc_mapping::intervals::lcm(e.src_set.period, e.dst_set.period);
        e.src_set.base.len() <= 1
            && e.dst_set.base.len() <= 1
            && (h > n / 2
                || hpfc_mapping::intersect_runs(&e.src_set, &e.dst_set, 0, h).count() <= 1)
    })
}

/// The closed-form compile of `src → dst` against the test-side
/// reference (every run materialised, then stride-encoded): the same
/// element moves per unit, an artifact no larger, every unit labelled
/// as the reference classifies its families (every reference memcpy
/// still a memcpy), the identical encoding (hence fingerprint input and
/// label) wherever the reference's run order is the compile's, and a
/// replay that equals the table engine. Returns the units' labels.
fn check_against_reference(src: &NormalizedMapping, dst: &NormalizedMapping) -> Vec<Kernel> {
    let plan = plan_redistribution(src, dst, 8);
    let schedule = CommSchedule::from_plan(&plan);
    let prog = CopyProgram::try_compile(&plan, &schedule).expect("rank >= 1 plans compile");
    let reference = common::reference_units(&plan);
    let ctx = format!("{src:?} -> {dst:?}");
    assert!(prog.integrity_ok(), "{ctx}");
    assert_eq!(common::element_moves(&prog), common::reference_moves(&reference), "{ctx}");
    assert!(
        prog.artifact_bytes() <= common::reference_bytes(&reference),
        "{} B > reference {} B: {ctx}",
        prog.artifact_bytes(),
        common::reference_bytes(&reference)
    );
    let identical = one_run_per_period(&plan);
    let mut labels = Vec::new();
    for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
        let r = &reference[&(u.provider, u.receiver)];
        labels.push(u.kernel);
        let fams = &prog.fams[u.fams.0 as usize..u.fams.1 as usize];
        let what = format!("unit {}->{}: {ctx}", u.provider, u.receiver);
        assert_eq!(u.kernel, common::kernel_of(fams), "{what}");
        if common::kernel_of(&r.fams) == Kernel::Memcpy {
            assert_eq!(u.kernel, Kernel::Memcpy, "{what}");
        }
        if identical {
            assert_eq!(fams, &r.fams[..], "{what}");
        }
    }
    assert_eq!(labels.len(), reference.len(), "{ctx}");
    let mut a = VersionData::new(src.clone(), 8);
    a.fill(|p| (p.iter().fold(7, |h, &x| h * 131 + x) % 8191) as f64);
    let mut tables = VersionData::new(dst.clone(), 8);
    tables.copy_values_from_plan(&a, &plan);
    let mut b = VersionData::new(dst.clone(), 8);
    b.copy_values_from_program(&a, &prog, ExecMode::Serial);
    assert_eq!(b, tables, "{ctx}");
    labels
}

/// The reference differential over a fixed sweep (the proptest shim
/// replays the same 64 cases every run): every 1-D format pair at
/// process counts and extents that cut periods short, repeat them, and
/// leave tails — and 2-D pairs whose rows repeat the innermost items.
/// Between them the units carry all five labels.
#[test]
fn program_matches_reference_compile_over_a_sweep() {
    use hpfc_mapping::testing::{mapping_1d, mapping_2d};
    let mut seen: Vec<Kernel> = Vec::new();
    let mut check = |src: &NormalizedMapping, dst: &NormalizedMapping| {
        for k in check_against_reference(src, dst) {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
    };
    let fmts = [
        DimFormat::Block(None),
        DimFormat::Cyclic(None),
        DimFormat::Cyclic(Some(2)),
        DimFormat::Cyclic(Some(3)),
        DimFormat::Cyclic(Some(4)),
        DimFormat::Cyclic(Some(7)),
    ];
    for fs in &fmts {
        for fd in &fmts {
            for (ps, pd) in [(2, 2), (2, 4), (3, 4), (4, 3), (4, 4), (7, 5), (8, 16)] {
                for n in [1, 5, 60, 61, 257, 1024, 4099] {
                    check(&mapping_1d(n, ps, *fs), &mapping_1d(n, pd, *fd));
                }
            }
        }
    }
    let row = |f: DimFormat| vec![f, DimFormat::Collapsed];
    let col = |f: DimFormat| vec![DimFormat::Collapsed, f];
    for f in &fmts[1..5] {
        for g in &fmts[..5] {
            for (n, p) in [(24, 3), (65, 4)] {
                check(&mapping_2d(n, p, row(*f)), &mapping_2d(n, p, col(*g)));
                check(&mapping_2d(n, p, col(*f)), &mapping_2d(n, p, col(*g)));
                check(&mapping_2d(n, p, col(*f)), &mapping_2d(n, p, row(*g)));
            }
        }
    }
    assert_eq!(seen.len(), 5, "the sweep labels units {seen:?}");
}

/// A deterministic sweep used as a regression anchor: BLOCK→CYCLIC over
/// increasing P moves a growing fraction of the array.
#[test]
fn block_to_cyclic_volume_grows_with_p() {
    let n = 64u64;
    let mut last_remote = 0u64;
    for p in [2u64, 4, 8] {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        let e = Extents::new(&[n]);
        let mk = |fmt| {
            Mapping {
                align: Alignment::identity(TemplateId(0), 1),
                dist: Distribution::new(GridId(0), vec![fmt]),
            }
            .normalize(&e, &t, &g)
            .unwrap()
        };
        let plan = plan_redistribution(&mk(DimFormat::Block(None)), &mk(DimFormat::Cyclic(None)), 8);
        // Remote fraction (P-1)/P of the array.
        assert_eq!(plan.remote_elements(), n * (p - 1) / p);
        assert!(plan.remote_elements() > last_remote);
        last_remote = plan.remote_elements();
    }
}

/// Replicated alignments also roundtrip through the planner.
#[test]
fn replicate_axis_roundtrip() {
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[8, 4]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[2, 2]) };
    let e = Extents::new(&[8]);
    let repl = Mapping {
        align: Alignment {
            template: TemplateId(0),
            targets: vec![AlignTarget::identity(0), AlignTarget::Replicate],
        },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Block(None)]),
    }
    .normalize(&e, &t, &g)
    .unwrap();
    let pinned = Mapping {
        align: Alignment {
            template: TemplateId(0),
            targets: vec![AlignTarget::identity(0), AlignTarget::Constant(3)],
        },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Block(None)]),
    }
    .normalize(&e, &t, &g)
    .unwrap();
    for (s, d) in [(&repl, &pinned), (&pinned, &repl)] {
        let plan = plan_redistribution(s, d, 8);
        let oracle = plan_by_enumeration(s, d, 8);
        assert_eq!(plan, oracle);
    }
}

/// Every block's words as bits, rank by rank (`None` = holds nothing).
fn block_bits(v: &VersionData) -> Vec<Option<Vec<u64>>> {
    let bits = |b: &hpfc_runtime::store::LocalBlock| b.data.iter().map(|x| x.to_bits()).collect();
    v.blocks.iter().map(|b| b.as_ref().map(bits)).collect()
}

/// Extraction and hand-over at the edges of the mapping space: a scalar
/// (rank 0) replicated on a 2 × 2 grid or pinned to one processor, and
/// arrays with a zero extent.
#[test]
fn dense_round_trip_covers_scalars_and_empty_arrays() {
    let grid = Extents::new(&[2, 2]);
    let pinned_axis = |q| hpfc_mapping::DimMap {
        source: hpfc_mapping::DimSource::FixedCoord(q),
        layout: None,
    };
    let replicated = NormalizedMapping::replicated(GridId(0), grid.clone(), Extents::new(&[]));
    let pinned = NormalizedMapping { axes: vec![pinned_axis(1), pinned_axis(0)], ..replicated.clone() };
    for m in [replicated, pinned] {
        let mut a = VersionData::new(m.clone(), 8);
        a.set(&[], -2.75);
        assert_eq!(a.to_dense(), vec![-2.75], "{m:?}");
        let mut b = VersionData::new(m.clone(), 8);
        b.load_dense(vec![-2.75]);
        assert_eq!(block_bits(&b), block_bits(&a), "{m:?}");
    }
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[4, 5]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[2]) };
    for shape in [[0u64, 5], [4, 0]] {
        let m = Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Collapsed]),
        }
        .normalize(&Extents::new(&shape), &t, &g)
        .unwrap();
        let a = VersionData::new(m.clone(), 8);
        assert!(a.to_dense().is_empty(), "{shape:?}");
        let mut b = VersionData::new(m, 8);
        b.load_dense(Vec::new());
        assert_eq!(b, a, "{shape:?}");
    }
}
