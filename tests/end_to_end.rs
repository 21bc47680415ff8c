//! Cross-crate integration tests: compile every figure program with and
//! without the paper's optimizations, execute both on the simulated
//! machine, and check (a) bit-identical results — the optimizations are
//! semantics-preserving — and (b) the communication savings the paper
//! claims.

use hpfc::{compile, compile_and_run, figures, CompileOptions, ExecConfig};

fn run_both(src: &str, exec: ExecConfig) -> (hpfc::ExecResult, hpfc::ExecResult) {
    let (_, naive) = compile_and_run(src, &CompileOptions::naive(), exec.clone()).unwrap();
    let (_, opt) = compile_and_run(src, &CompileOptions::default(), exec).unwrap();
    (naive, opt)
}

fn scalars(pairs: &[(&str, f64)]) -> ExecConfig {
    let mut cfg = ExecConfig::default();
    for (k, v) in pairs {
        cfg = cfg.with_scalar(k, *v);
    }
    cfg
}

#[test]
fn optimizations_preserve_results_on_all_figures() {
    for (name, src) in figures::all() {
        let exec = scalars(&[("m", 1.0), ("t", 3.0)]);
        let (naive, opt) = run_both(src, exec);
        assert_eq!(naive.arrays, opt.arrays, "{name}: array results differ");
        assert_eq!(naive.scalars, opt.scalars, "{name}: scalar results differ");
    }
}

#[test]
fn optimizations_never_increase_traffic() {
    for (name, src) in figures::all() {
        let exec = scalars(&[("m", 1.0), ("t", 3.0)]);
        let (naive, opt) = run_both(src, exec);
        assert!(
            opt.stats.bytes <= naive.stats.bytes,
            "{name}: optimized traffic {} > naive {}",
            opt.stats.bytes,
            naive.stats.bytes
        );
        assert!(opt.stats.messages <= naive.stats.messages, "{name}: messages");
    }
}

#[test]
fn fig1_direct_remapping_halves_traffic() {
    // Naive: A copies block→col-block→cyclic (two data movements).
    // Optimized: one direct block→cyclic movement.
    let (naive, opt) = run_both(figures::FIG1_DIRECT, ExecConfig::default());
    assert_eq!(naive.stats.remaps_performed, 2);
    assert_eq!(opt.stats.remaps_performed, 1);
    assert!(opt.stats.bytes < naive.stats.bytes);
}

#[test]
fn fig2_useless_remappings_cost_nothing_after_optimization() {
    let (naive, opt) = run_both(figures::FIG2_USELESS, ExecConfig::default());
    // Optimized: the one kept C-remapping is trivial (status check);
    // B's remapping is removed outright: zero remapping traffic.
    assert_eq!(opt.stats.bytes, 0, "stats: {:?}", opt.stats);
    assert!(naive.stats.bytes > 0);
}

#[test]
fn fig3_only_used_arrays_move() {
    let (naive, opt) = run_both(figures::FIG3_ALIGNED, ExecConfig::default());
    // Five aligned arrays remapped naively; only A and D after opts.
    assert_eq!(naive.stats.remaps_performed, 5);
    assert_eq!(opt.stats.remaps_performed, 2);
    // Traffic drops by the three unused arrays' redistribution volume.
    assert!(opt.stats.bytes * 2 < naive.stats.bytes);
}

#[test]
fn fig4_argument_remappings_shrink_from_six_to_three() {
    let (naive, opt) = run_both(figures::FIG4_ARGS, ExecConfig::default());
    // Naive: 6 remap movements (in/out per call); foo#2's ArgIn is a
    // genuine no-op even naively (status check catches block→... wait:
    // naively the restore after foo#1 puts Y back to BLOCK, so foo#2's
    // ArgIn moves data again: 6 real movements.
    assert_eq!(naive.stats.remaps_performed, 6);
    // Optimized: foo#1 in (block→cyclic), bla in (cyclic→cyclic(2)),
    // final restore (cyclic(2)→block): 3 movements; foo#2's ArgIn is
    // skipped by the status check.
    assert_eq!(opt.stats.remaps_performed, 3);
    assert_eq!(opt.stats.remaps_skipped_noop, 1);
    assert!(opt.stats.bytes < naive.stats.bytes);
}

#[test]
fn fig6_status_resolves_ambiguous_state_both_paths() {
    // The top-level run takes the THEN path (positive initial fill).
    let (compiled, res) = compile_and_run(
        figures::FIG6_OK,
        &CompileOptions::default(),
        ExecConfig::default(),
    )
    .unwrap();
    assert!(res.stats.remaps_performed > 0);
    // The final remap must have both reaching versions in its guarded
    // copy code (Fig. 20) — each arm is a message-level schedule, not a
    // whole-array copy statement.
    let text = hpfc::codegen::render::program_text(&compiled.main().program);
    assert!(text.contains("if (status_a == 0) then  ! a_0 -> a_2"), "{text}");
    assert!(text.contains("if (status_a == 1) then  ! a_1 -> a_2"), "{text}");
    assert!(!text.contains("a_2 = a_0"), "whole-array copies are gone: {text}");
}

/// Fig. 13 variant with the branch driven by a scalar dummy so both
/// paths can be exercised deterministically (`a` itself is initialized
/// so the entry copy exists and *can* be kept live).
const FIG13_DRIVEN: &str = "\
subroutine fig13x(s)
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  a = 1.0
  if (s > 0.0) then
!hpf$ redistribute a(cyclic)
    a = 2.0
  else
!hpf$ redistribute a(cyclic)
    x = a(3)
  endif
!hpf$ redistribute a(block)
  x = a(5)
end subroutine
";

#[test]
fn fig13_live_copy_saves_restore_on_read_only_path() {
    // THEN path writes through the cyclic copy: A_0 is stale, no reuse.
    let (_, then_path) = compile_and_run(
        FIG13_DRIVEN,
        &CompileOptions::default(),
        scalars(&[("s", 1.0)]),
    )
    .unwrap();
    assert_eq!(then_path.stats.remaps_reused_live, 0, "{:?}", then_path.stats);

    // ELSE path only reads: the original block copy is still live when
    // the final redistribution wants it back — zero traffic for it.
    let (_, else_path) = compile_and_run(
        FIG13_DRIVEN,
        &CompileOptions::default(),
        scalars(&[("s", -1.0)]),
    )
    .unwrap();
    assert_eq!(else_path.stats.remaps_reused_live, 1, "{:?}", else_path.stats);
    // Both paths produce correct values.
    assert!(then_path.arrays["a"].iter().all(|&v| v == 2.0));
    assert!(else_path.arrays["a"].iter().all(|&v| v == 1.0));
}

#[test]
fn fig15_status_save_restore_roundtrip() {
    // The Fig. 18 save/restore is the *baseline* mechanism: in naive
    // mode the flow-dependent restore is emitted and executed.
    let (compiled, res) = compile_and_run(
        figures::FIG15_CALL_STATUS,
        &CompileOptions::naive(),
        ExecConfig::default(),
    )
    .unwrap();
    assert_eq!(compiled.main().codegen_stats.save_restores, 1);
    // One compiled arm per statically possible saved tag ({0, 1}).
    assert_eq!(compiled.main().codegen_stats.restore_arms, 2);
    assert!(res.stats.remaps_performed > 0);
    // The restore executed through its compiled arm: dispatch on the
    // saved tag, cached copy program replay, zero run-time planning.
    assert_eq!(res.stats.restores_replayed, 1, "{:?}", res.stats);
    assert_eq!(res.stats.plans_computed, 0, "{:?}", res.stats);
    let text = hpfc::codegen::render::program_text(&compiled.main().program);
    assert!(text.contains("reaching_0 = status_a"), "{text}");
    // The restore is a switch on the saved tag whose arms are full
    // guarded message-level remaps — the opaque run-time `remap a ->`
    // statement is gone.
    assert!(text.contains("if (reaching_0 == 0) then  ! restore a -> a_0"), "{text}");
    assert!(text.contains("elif (reaching_0 == 1) then  ! restore a -> a_1"), "{text}");
    assert!(text.contains("! a_2 -> a_0: 12 message(s), 96 byte(s), 3 round(s)"), "{text}");
    assert!(text.contains("! a_2 -> a_1: 6 message(s), 96 byte(s), 3 round(s)"), "{text}");
    assert!(!text.contains("remap a -> a_"), "{text}");

    // With App. C on, the restore is dead (nothing references `a` while
    // restored) and is removed — sharper than the paper's Fig. 18 code.
    let opt = compile(figures::FIG15_CALL_STATUS, &CompileOptions::default()).unwrap();
    assert_eq!(opt.main().codegen_stats.save_restores, 0);
    assert!(opt.main().opt_stats.removed > 0);
}

#[test]
fn fig16_loop_motion_makes_iterations_free() {
    let t = 6.0;
    let exec = scalars(&[("t", t)]);
    let (_, naive) =
        compile_and_run(figures::FIG16_LOOP, &CompileOptions::naive(), exec.clone()).unwrap();
    let (_, motioned) =
        compile_and_run(figures::FIG16_LOOP, &CompileOptions::max(), exec).unwrap();
    // Naive: 2 movements per iteration.
    assert_eq!(naive.stats.remaps_performed, 2.0 as u64 * t as u64);
    // Motion + status check: one movement on the first iteration, one
    // after the loop; iterations 2..t skip via the status check.
    assert_eq!(motioned.stats.remaps_performed, 2);
    assert_eq!(motioned.stats.remaps_skipped_noop, t as u64 - 1);
    // Results agree.
    let (_, a) = compile_and_run(
        figures::FIG16_LOOP,
        &CompileOptions::naive(),
        scalars(&[("t", t)]),
    )
    .unwrap();
    let (_, b) = compile_and_run(
        figures::FIG16_LOOP,
        &CompileOptions::max(),
        scalars(&[("t", t)]),
    )
    .unwrap();
    assert_eq!(a.arrays["a"], b.arrays["a"]);
}

#[test]
fn fig16_zero_trip_loop_is_correct_under_motion() {
    let exec = scalars(&[("t", 0.0)]);
    let (_, naive) =
        compile_and_run(figures::FIG16_LOOP, &CompileOptions::naive(), exec.clone()).unwrap();
    let (_, motioned) = compile_and_run(figures::FIG16_LOOP, &CompileOptions::max(), exec).unwrap();
    assert_eq!(naive.arrays["a"], motioned.arrays["a"]);
    // The hoisted restore is a no-op when the loop never ran.
    assert_eq!(motioned.stats.remaps_performed, 0);
}

#[test]
fn kill_directive_suppresses_data_movement() {
    let with_kill = figures::KILL_EXAMPLE;
    let without_kill = figures::KILL_EXAMPLE.replace("!hpf$ kill b\n", "");
    let (_, w) =
        compile_and_run(with_kill, &CompileOptions::default(), ExecConfig::default()).unwrap();
    let (_, wo) =
        compile_and_run(&without_kill, &CompileOptions::default(), ExecConfig::default()).unwrap();
    // B's copy moves no data under KILL.
    assert_eq!(w.stats.remaps_dead_values, 1);
    assert!(w.stats.bytes < wo.stats.bytes, "{} !< {}", w.stats.bytes, wo.stats.bytes);
    // And the final values agree (B is redefined before its next read).
    assert_eq!(w.arrays["b"], wo.arrays["b"]);
    assert_eq!(w.arrays["a"], wo.arrays["a"]);
}

#[test]
fn adi_kernel_results_are_distribution_independent() {
    let exec = scalars(&[("t", 2.0)]);
    let (_, naive) = compile_and_run(figures::ADI_KERNEL, &CompileOptions::naive(), exec.clone())
        .unwrap();
    let (_, opt) =
        compile_and_run(figures::ADI_KERNEL, &CompileOptions::max(), exec).unwrap();
    assert_eq!(naive.arrays["u"], opt.arrays["u"]);
    assert!(opt.stats.bytes <= naive.stats.bytes);
}

#[test]
fn eviction_pressure_trades_memory_for_traffic() {
    // E24: with permanent eviction pressure, live-copy reuse never
    // fires; traffic can only grow, peak memory can only shrink.
    let normal = compile_and_run(FIG13_DRIVEN, &CompileOptions::default(), scalars(&[("s", -1.0)]))
        .unwrap()
        .1;
    let mut pressed_cfg = scalars(&[("s", -1.0)]);
    pressed_cfg.evict_live_copies = true;
    let pressed =
        compile_and_run(FIG13_DRIVEN, &CompileOptions::default(), pressed_cfg).unwrap().1;
    assert_eq!(normal.stats.remaps_reused_live, 1);
    assert_eq!(pressed.stats.remaps_reused_live, 0);
    assert!(pressed.stats.bytes > normal.stats.bytes);
    assert!(pressed.peak_mem_bytes <= normal.peak_mem_bytes);
    // Values identical either way: eviction only costs communication.
    assert_eq!(normal.arrays["a"], pressed.arrays["a"]);
}

#[test]
fn fig20_golden_copy_code() {
    // The generated guarded copy code for Fig. 6's final remapping has
    // exactly the shape of the paper's Fig. 20.
    let compiled = compile(figures::FIG6_OK, &CompileOptions::default()).unwrap();
    let p = &compiled.main().program;
    // Find the last Remap of the body.
    fn last_remap(body: &[hpfc::codegen::ir::SStmt]) -> Option<&hpfc::codegen::ir::RemapOp> {
        let mut found = None;
        for s in body {
            match s {
                hpfc::codegen::ir::SStmt::Remap(op) => found = Some(op),
                hpfc::codegen::ir::SStmt::If { then_body, else_body, .. } => {
                    found = last_remap(then_body).or(last_remap(else_body)).or(found)
                }
                _ => {}
            }
        }
        found
    }
    let op = last_remap(&p.body).expect("a remap in the body");
    let text = hpfc::codegen::render::remap_text(p, op);
    // The Fig. 20 guard skeleton survives; each copy arm is now a
    // message-level caterpillar schedule.
    let expected_head = "\
if (status_a /= 2) then
  allocate a_2 if needed
  if (.not. live_a(2)) then
    if (status_a == 0) then  ! a_0 -> a_2: 6 message(s), 96 byte(s), 3 round(s)
      copy local runs a_0 \u{2229} a_2 across ranks (4 element(s) total, no communication)
      round 1:
";
    assert!(
        text.starts_with(expected_head),
        "generated:\n{text}\nexpected prefix:\n{expected_head}"
    );
    // Both arms present, guard closes, and no whole-array copies remain.
    assert!(text.contains("if (status_a == 1) then  ! a_1 -> a_2"), "{text}");
    assert!(text.contains("send sbuf"), "{text}");
    assert!(text.contains("recv rbuf"), "{text}");
    assert!(!text.contains("a_2 = a_0") && !text.contains("a_2 = a_1"), "{text}");
}

#[test]
fn interprocedural_execution_with_defined_callee() {
    // A module where the callee is *defined*, not just described: the
    // callee runs its own static program (with its own remapping) on
    // the shared machine.
    let src = "\
subroutine caller
  real :: b(16)
!hpf$ processors p(4)
!hpf$ dynamic b
!hpf$ distribute b(block) onto p
  interface
    subroutine double(x)
      real :: x(16)
      intent(inout) :: x
!hpf$ distribute x(cyclic) onto p
    end subroutine
  end interface
  b = 3.0
  call double(b)
  b = b + 1.0
end subroutine

subroutine double(x)
  real :: x(16)
  intent(inout) :: x
!hpf$ processors p(4)
!hpf$ distribute x(cyclic) onto p
  x = x * 2.0
end subroutine
";
    let (compiled, res) =
        compile_and_run(src, &CompileOptions::default(), ExecConfig::default()).unwrap();
    assert_eq!(compiled.units.len(), 2);
    // 3.0 * 2 + 1 = 7.0 everywhere.
    assert!(res.arrays["b"].iter().all(|&v| v == 7.0), "{:?}", res.arrays["b"]);
    // The caller remapped B to CYCLIC for the call and restored after.
    assert!(res.stats.remaps_performed >= 2);
}

#[test]
fn executor_reuse_across_runs_accumulates_stats() {
    let compiled = compile(figures::FIG1_DIRECT, &CompileOptions::default()).unwrap();
    let programs = compiled.programs();
    let mut ex = hpfc::Executor {
        programs: &programs,
        machine: hpfc::Machine::new(4),
        config: ExecConfig::default(),
    };
    ex.run("fig1").expect("fig1 executes cleanly");
    let after_one = ex.machine.stats.bytes;
    ex.run("fig1").expect("fig1 executes cleanly");
    assert_eq!(ex.machine.stats.bytes, 2 * after_one);
}

/// One way to get a plan: lowering and a run-time local miss resolve a
/// pair through the same registry function, so for every planned copy
/// of a lowered program — 1-D or 2-D — an array that was never seeded
/// is handed the very `Arc` the program carries.
#[test]
fn lowering_and_the_runtime_resolve_to_the_same_artifact() {
    const BOUNCE_1D: &str = "\
subroutine bounce1d
  real :: v(1936)
!hpf$ processors p(4)
!hpf$ dynamic v
!hpf$ distribute v(block) onto p
  v = 1.0
!hpf$ redistribute v(cyclic(3)) onto p
  v = v + 1.0
!hpf$ redistribute v(block) onto p
  x = v(7)
end subroutine
";
    for (src, routine, rank) in [(BOUNCE_1D, "bounce1d", 1), (figures::ADI_KERNEL, "adi", 2)] {
        let compiled = compile(src, &CompileOptions::default()).unwrap();
        let program = &compiled.units[routine].program;
        let mut machine = hpfc::Machine::new(program.nprocs);
        let mut copies = 0;
        program.for_each_planned_copy(|array, target, copy| {
            let decl = program.array(array);
            assert_eq!(decl.versions[0].array_extents.rank(), rank);
            let mut rt =
                hpfc::runtime::ArrayRt::new(&decl.name, decl.versions.clone(), decl.elem_size);
            let planned = rt.planned(&mut machine, copy.src, target);
            assert!(
                std::sync::Arc::ptr_eq(&planned, &copy.planned),
                "{routine}: {} {} -> {target} resolved to a different artifact",
                decl.name,
                copy.src
            );
            copies += 1;
        });
        assert!(copies >= 2, "{routine}: both directions are planned");
        assert_eq!(machine.stats.plans_computed, 0, "{routine}: lowering compiled them all");
        assert_eq!(machine.stats.registry_hits, copies);
    }
}
