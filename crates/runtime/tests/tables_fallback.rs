//! The table-engine fallback for plans a [`CopyProgram`] declines:
//! rank-0 scalars and `u32` position overflow. These used to be silent
//! `None`s inside the compiler; this pins the typed decline reasons
//! ([`CompileDecline`]), the `program: None` cached form, and the
//! runtime behavior — a remap of such an array goes through
//! `copy_values_from_plan` and is counted in
//! `NetStats::fallbacks_to_tables`, on both the unguarded fast path
//! and the guarded (validated) path.

use std::collections::BTreeSet;

use hpfc_mapping::{
    AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping, NormalizedMapping,
    ProcGrid, Template, TemplateId,
};
use hpfc_runtime::{
    plan_redistribution, ArrayRt, CommSchedule, CompileDecline, CopyProgram, Machine,
    PlannedRemap, ValidationLevel,
};

/// A remap that must succeed.
fn remap(
    rt: &mut ArrayRt,
    machine: &mut Machine,
    target: u32,
    may_live: &BTreeSet<u32>,
    values_dead: bool,
) {
    let skip = BTreeSet::new();
    rt.try_remap_guarded(machine, target, may_live, values_dead, &skip).expect("remap");
}

/// A rank-0 scalar pinned to template cell `c` of a 1-D template over
/// `p` processors — different cells land on different owners, so a
/// remap between two such mappings really moves the value.
fn scalar_at(c: i64, p: u64) -> NormalizedMapping {
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[8]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
    Mapping {
        align: Alignment { template: TemplateId(0), targets: vec![AlignTarget::Constant(c)] },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
    }
    .normalize(&Extents::new(&[]), &t, &g)
    .expect("rank-0 mapping is well-formed")
}

#[test]
fn rank0_scalar_declines_compilation_with_typed_reason() {
    let src = scalar_at(0, 4);
    let dst = scalar_at(7, 4);
    let plan = plan_redistribution(&src, &dst, 8);
    let schedule = CommSchedule::from_plan(&plan);
    assert_eq!(CopyProgram::compile_checked(&plan, &schedule), Err(CompileDecline::Rank0));
    assert!(CopyProgram::try_compile(&plan, &schedule).is_none());
    // The cached form carries the plan but no program.
    let planned = PlannedRemap::compile(plan);
    assert!(planned.program.is_none(), "rank-0 plans cache without a program");
}

#[test]
fn rank0_remap_moves_data_through_the_table_engine() {
    // Block(8) on a template of 8 cells puts cell 0 on proc 0 and cell
    // 7 on proc 3: the scalar really travels.
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for validation in [ValidationLevel::Off, ValidationLevel::Counts, ValidationLevel::Checksums]
    {
        let mut machine = Machine::new(4).with_validation(validation);
        let mut rt = ArrayRt::new("s", vec![scalar_at(0, 4), scalar_at(7, 4)], 8);
        rt.current(&mut machine, 0).fill(|_| 42.0);
        // Bounce a few times; every data-moving remap is a table
        // fallback (there is no program to replay), on the fast path
        // (`Off`) and the guarded path (`Counts`/`Checksums`) alike.
        remap(&mut rt, &mut machine, 1, &keep, false);
        assert_eq!(rt.get(&[]), 42.0, "value survived the hop ({validation:?})");
        rt.set(&[], 7.0);
        remap(&mut rt, &mut machine, 0, &keep, false);
        assert_eq!(rt.get(&[]), 7.0, "value survived the hop back ({validation:?})");
        assert_eq!(machine.stats.fallbacks_to_tables, 2, "every move fell back ({validation:?})");
        assert_eq!(machine.stats.remaps_performed, 2);
        // The fallback is a planned degradation, not an injected fault.
        assert_eq!(machine.stats.faults_injected, 0);
        assert_eq!(machine.stats.rounds_retried, 0);
        assert_eq!(machine.stats.programs_recompiled, 0);
    }
}

#[test]
fn u32_position_overflow_declines_compilation() {
    // 6 Gi elements in ONE block (p = 1): local copy positions exceed
    // `u32::MAX`, so the compiler declines and the cached plan carries
    // no program — the table engine's `u64` arithmetic is the fallback.
    // Descriptor planning is closed-form, so nothing here allocates
    // 6 Gi of data.
    let n = 6u64 << 30;
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[1]) };
    let mk = |fmt| {
        Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![fmt]),
        }
        .normalize(&Extents::new(&[n]), &t, &g)
        .expect("well-formed giant mapping")
    };
    let src = mk(DimFormat::Block(None));
    let dst = mk(DimFormat::Cyclic(Some(3)));
    let plan = plan_redistribution(&src, &dst, 8);
    let schedule = CommSchedule::from_plan(&plan);
    assert_eq!(
        CopyProgram::compile_checked(&plan, &schedule),
        Err(CompileDecline::PositionOverflow)
    );
    assert!(CopyProgram::try_compile(&plan, &schedule).is_none());
    assert!(PlannedRemap::compile(plan).program.is_none());
}

#[test]
fn small_blocks_still_compile() {
    // Control: the same shapes at a sane size compile fine — the
    // declines above are about the *reasons*, not a blanket refusal.
    let src = hpfc_mapping::testing::mapping_1d(64, 4, DimFormat::Block(None));
    let dst = hpfc_mapping::testing::mapping_1d(64, 4, DimFormat::Cyclic(Some(3)));
    let plan = plan_redistribution(&src, &dst, 8);
    let schedule = CommSchedule::from_plan(&plan);
    assert!(CopyProgram::compile_checked(&plan, &schedule).is_ok());
}
