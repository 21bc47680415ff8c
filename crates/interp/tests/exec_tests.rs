//! Interpreter-level tests: language execution semantics on the
//! simulated machine, independent of the remapping machinery.

use hpfc::{compile_and_run, CompileOptions, ExecConfig};

fn run(src: &str, scalars: &[(&str, f64)]) -> hpfc::ExecResult {
    let mut cfg = ExecConfig::default();
    for (k, v) in scalars {
        cfg = cfg.with_scalar(k, *v);
    }
    compile_and_run(src, &CompileOptions::default(), cfg).expect("compile+run").1
}

#[test]
fn whole_array_assignment_is_elementwise() {
    let r = run(
        "subroutine s\nreal :: a(8), b(8)\n!hpf$ processors p(4)\n\
         !hpf$ distribute a(block) onto p\n!hpf$ align with a :: b\n\
         a = 3.0\nb = a * 2.0 + 1.0\nend",
        &[],
    );
    assert!(r.arrays["b"].iter().all(|&v| v == 7.0));
}

#[test]
fn fortran_array_expression_semantics_rhs_before_write() {
    // a = a(reversed-ish self reference): rhs must be fully evaluated
    // before any element is written. With a shift expression a(i) uses
    // a(i) only, so use an elementwise self-reference with a twist:
    // b = a + first element of a (whole-array + element mix).
    let r = run(
        "subroutine s\nreal :: a(4)\n!hpf$ processors p(2)\n\
         !hpf$ distribute a(block) onto p\n\
         do i = 1, 4\n  a(i) = i\nenddo\n\
         a = a + a(1)\nend",
        &[],
    );
    // a(1) on the rhs is the OLD a(1) = 1 for every element, including
    // the first: [2, 3, 4, 5].
    assert_eq!(r.arrays["a"], vec![2.0, 3.0, 4.0, 5.0]);
}

/// `a = b` with `b` of another shape must come back from `execute` as
/// a typed error naming both arrays and both shapes.
fn assert_operand_refused(decl: &str, dist: &str, shapes: [&str; 2]) {
    let src = format!(
        "subroutine s\nreal :: {decl}\n!hpf$ processors p(4)\n!hpf$ distribute {dist} onto p\n\
         !hpf$ distribute b(block) onto p\na = b\nend"
    );
    let compiled = hpfc::compile(&src, &CompileOptions::default()).expect("compiles");
    let err = hpfc::execute(&compiled.programs(), "s", ExecConfig::default())
        .expect_err("the operand does not conform");
    let hpfc::ExecError::Interp { what } = &err else { panic!("{err:?}") };
    assert!(shapes.iter().all(|s| what.contains(s)), "{what}");
    assert!(what.contains("`a`") && what.contains("`b`"), "{what}");
}

#[test]
fn a_shorter_whole_array_operand_is_a_typed_error() {
    // Used to panic inside the store ("owned element").
    assert_operand_refused("a(8), b(4)", "a(block)", ["(8)", "(4)"]);
}

#[test]
fn a_lower_rank_whole_array_operand_is_not_broadcast() {
    // Used to repeat `b` along the first dimension, silently.
    assert_operand_refused("a(4,4), b(4)", "a(block, *)", ["(4,4)", "(4)"]);
}

#[test]
fn do_loop_with_step_and_bounds() {
    let r = run(
        "subroutine s\nreal :: a(10)\n!hpf$ processors p(2)\n\
         !hpf$ distribute a(block) onto p\na = 0.0\n\
         do i = 1, 10, 3\n  a(i) = 1.0\nenddo\nend",
        &[],
    );
    let ones: Vec<usize> =
        r.arrays["a"].iter().enumerate().filter(|(_, &v)| v == 1.0).map(|(i, _)| i).collect();
    assert_eq!(ones, vec![0, 3, 6, 9]);
}

#[test]
fn zero_trip_and_negative_step_loops() {
    let r = run(
        "subroutine s(t)\ninteger :: t\nreal :: a(4)\n!hpf$ processors p(2)\n\
         !hpf$ distribute a(block) onto p\na = 0.0\n\
         do i = 1, t\n  a(i) = 9.0\nenddo\n\
         do j = 4, 3, -1\n  a(j) = a(j) + 1.0\nenddo\nend",
        &[("t", 0.0)],
    );
    // First loop never runs; second runs j = 4, 3.
    assert_eq!(r.arrays["a"], vec![0.0, 0.0, 1.0, 1.0]);
}

#[test]
fn nested_conditionals_and_scalars() {
    let r = run(
        "subroutine s(v)\nreal :: a(4)\n!hpf$ processors p(2)\n\
         !hpf$ distribute a(block) onto p\n\
         if (v > 2.0) then\n  if (v > 4.0) then\n    x = 2.0\n  else\n    x = 1.0\n  endif\n\
         else\n  x = 0.0\nendif\na = x\nend",
        &[("v", 3.0)],
    );
    assert!(r.arrays["a"].iter().all(|&v| v == 1.0));
    assert_eq!(r.scalars["x"], 1.0);
}

#[test]
fn early_return_still_restores_dummies() {
    // The inout dummy must be restored to its declared mapping even on
    // the RETURN path (the exit block always runs).
    let src = "subroutine s(a, flag)\nreal :: a(8)\nintent(inout) :: a\n\
               !hpf$ processors p(4)\n!hpf$ dynamic a\n!hpf$ distribute a(block) onto p\n\
               a = 5.0\n!hpf$ redistribute a(cyclic)\na = 6.0\n\
               if (flag > 0.0) then\n  return\nendif\na = 7.0\nend";
    let taken = run(src, &[("flag", 1.0)]);
    assert!(taken.arrays["a"].iter().all(|&v| v == 6.0));
    // The exit restore moved the data back to the block mapping.
    assert!(taken.stats.remaps_performed >= 1);
    let not_taken = run(src, &[("flag", -1.0)]);
    assert!(not_taken.arrays["a"].iter().all(|&v| v == 7.0));
}

#[test]
fn intrinsics_in_distributed_context() {
    let r = run(
        "subroutine s\nreal :: a(4)\n!hpf$ processors p(2)\n\
         !hpf$ distribute a(block) onto p\n\
         a = 9.0\na = sqrt(a) + abs(0.0 - 1.0) + max(0.0, min(2.0, 5.0))\nend",
        &[],
    );
    assert!(r.arrays["a"].iter().all(|&v| v == 6.0)); // 3 + 1 + 2
}

#[test]
fn two_level_calls_execute_on_shared_machine() {
    // caller → mid → leaf, each with its own mapping preference.
    let src = "\
subroutine top
  real :: v(16)
!hpf$ processors p(4)
!hpf$ dynamic v
!hpf$ distribute v(block) onto p
  interface
    subroutine mid(x)
      real :: x(16)
      intent(inout) :: x
!hpf$ distribute x(cyclic) onto p
    end subroutine
  end interface
  v = 1.0
  call mid(v)
  v = v + 1.0
end subroutine

subroutine mid(x)
  real :: x(16)
  intent(inout) :: x
!hpf$ processors p(4)
!hpf$ dynamic x
!hpf$ distribute x(cyclic) onto p
  interface
    subroutine leaf(y)
      real :: y(16)
      intent(inout) :: y
!hpf$ distribute y(cyclic(2)) onto p
    end subroutine
  end interface
  x = x * 10.0
  call leaf(x)
end subroutine

subroutine leaf(y)
  real :: y(16)
  intent(inout) :: y
!hpf$ processors p(4)
!hpf$ distribute y(cyclic(2)) onto p
  y = y + 0.5
end subroutine
";
    let r = run(src, &[]);
    // 1.0 * 10 + 0.5 + 1 = 11.5.
    assert!(r.arrays["v"].iter().all(|&v| v == 11.5), "{:?}", &r.arrays["v"][..4]);
    // Remapping happened at each boundary: block→cyclic (caller),
    // cyclic→cyclic(2) (mid→leaf), and the restores.
    assert!(r.stats.remaps_performed >= 3);
}

#[test]
fn out_intent_synthetic_callee_defines_values() {
    let src = "subroutine s\nreal :: b(8)\n!hpf$ processors p(4)\n!hpf$ dynamic b\n\
               !hpf$ distribute b(block) onto p\n\
               interface\n  subroutine gen(x)\n    real :: x(8)\n    intent(out) :: x\n\
               !hpf$ distribute x(cyclic) onto p\n  end subroutine\nend interface\n\
               call gen(b)\nx = b(1)\nend";
    let r = run(src, &[]);
    // The synthetic OUT effect writes the linear index.
    assert_eq!(r.arrays["b"], (0..8).map(|i| i as f64).collect::<Vec<_>>());
    // OUT means no inbound data movement for the dummy copy.
    assert_eq!(r.stats.remaps_dead_values, 0); // D is handled as no_data, not dead-values
}

#[test]
fn scalar_dummy_arguments_flow_into_callee() {
    let src = "\
subroutine top
  real :: v(8)
!hpf$ processors p(2)
!hpf$ distribute v(block) onto p
  interface
    subroutine fill(x, c)
      real :: x(8)
      intent(out) :: x
!hpf$ distribute x(block) onto p
    end subroutine
  end interface
  call fill(v, 4.5)
end subroutine

subroutine fill(x, c)
  real :: x(8)
  intent(out) :: x
!hpf$ processors p(2)
!hpf$ distribute x(block) onto p
  x = c
end subroutine
";
    let r = run(src, &[]);
    assert!(r.arrays["v"].iter().all(|&v| v == 4.5));
}

#[test]
fn lowered_programs_execute_with_zero_runtime_planning() {
    // A naive-mode remap loop: two data movements per iteration.
    // Lowering planned every (reaching source, target) pair at compile
    // time and the interpreter seeds the runtime plan cache from those
    // very Arcs, so executing the lowered program computes *zero* plans
    // at run time — every data-moving remap is a cache hit, and the
    // executed schedule is structurally the one codegen rendered.
    let t = 6.0;
    let mut cfg = ExecConfig::default();
    cfg = cfg.with_scalar("t", t);
    let r = compile_and_run(hpfc::figures::FIG16_LOOP, &CompileOptions::naive(), cfg)
        .expect("compile+run")
        .1;
    assert_eq!(r.stats.remaps_performed, 2 * t as u64);
    assert_eq!(r.stats.plans_computed, 0, "{:?}", r.stats);
    assert_eq!(r.stats.plan_cache_hits, 2 * t as u64, "{:?}", r.stats);
    // The compiled copy programs moved exactly the planned volume:
    // every remap's deliveries (local + remote) are counted in
    // bytes_moved, and every replayed run in runs_copied.
    assert_eq!(r.stats.bytes_moved, 2 * t as u64 * 16 * 8, "{:?}", r.stats);
    assert!(r.stats.runs_copied > 0, "{:?}", r.stats);
}

#[test]
fn remap_time_reflects_caterpillar_rounds() {
    // block -> cyclic over 4 procs is an all-to-all: 12 messages in 3
    // contention-free rounds. Each round bills one send + one recv per
    // processor, so the remap's time is at least 3 rounds' worth of
    // paired latencies — strictly more than a single message's time,
    // and exactly what the schedule (not one BSP max) predicts.
    let src = "subroutine s\nreal :: a(16)\n!hpf$ processors p(4)\n!hpf$ dynamic a\n\
               !hpf$ distribute a(block) onto p\na = 1.0\n\
               !hpf$ redistribute a(cyclic)\nx = a(1)\nend";
    let r = run(src, &[]);
    assert_eq!(r.stats.messages, 12);
    let cost = hpfc::CostModel::default();
    // 3 rounds × (send + recv latency + 2 × 8 bytes each way).
    let per_round = 2.0 * cost.latency_us + 2.0 * 8.0 / cost.bandwidth_bytes_per_us;
    assert!(
        (r.stats.time_us - 3.0 * per_round).abs() < 1e-9,
        "time {} != 3 rounds × {per_round}",
        r.stats.time_us
    );
}

/// Two arrays aligned to one dynamic template: the redistribution
/// remaps both at the same vertex (Fig. 3), so lowering must aggregate
/// them into one `RemapGroupOp` whose merged caterpillar schedule has
/// strictly fewer rounds than the two solo schedules combined.
const GROUPED_PAIR: &str = "\
subroutine grp(s)
  real :: a(16), b(16)
!hpf$ processors p(4)
!hpf$ template t(16)
!hpf$ dynamic t
!hpf$ align with t :: a, b
!hpf$ distribute t(block) onto p
  a = 1.0
  b = 2.0
!hpf$ redistribute t(cyclic) onto p
  x = a(1) + b(2)
end subroutine
";

fn first_group(body: &[hpfc::codegen::ir::SStmt]) -> Option<&hpfc::codegen::ir::RemapGroupOp> {
    body.iter().find_map(|s| match s {
        hpfc::codegen::ir::SStmt::RemapGroup(op) => Some(op),
        _ => None,
    })
}

#[test]
fn grouped_remap_time_reflects_merged_rounds() {
    // Each array's solo schedule is a 4-proc all-to-all: 12
    // one-element messages in 3 contention-free rounds — 2 × 3 = 6
    // solo rounds in total. Merged, the same-pair messages share
    // rounds and wire buffers: still 3 rounds, 12 wire messages of 2
    // elements each, and the run is billed exactly 3 rounds of paired
    // latencies + 16 bytes each way — half the solo-sum latency cost.
    let compiled = hpfc::compile(GROUPED_PAIR, &CompileOptions::naive()).unwrap();
    let p = &compiled.units["grp"].program;
    let op = first_group(&p.body).expect("the directive lowers to one remap group");
    assert_eq!(op.members.len(), 2, "both aligned arrays are members");
    assert_eq!(op.planned.schedule.n_rounds(), 3);
    assert_eq!(op.planned.solo_rounds(), 6, "solo sum");
    assert!(op.planned.schedule.n_rounds() < op.planned.solo_rounds());
    assert_eq!(op.planned.schedule.n_wire_messages(), 12);
    assert_eq!(op.planned.schedule.messages.len(), 24, "12 per member");

    let r = run_naive(GROUPED_PAIR, &[("s", 0.0)]);
    assert_eq!(r.stats.remap_groups_coalesced, 1, "{:?}", r.stats);
    assert_eq!(r.stats.remaps_performed, 2, "each member still counts");
    assert_eq!(r.stats.messages, 12, "coalesced wire messages, not 24");
    assert_eq!(r.stats.bytes, 24 * 8, "both arrays' bytes travel");
    assert_eq!(r.stats.plans_computed, 0, "{:?}", r.stats);
    let cost = hpfc::CostModel::default();
    // 3 merged rounds x (send + recv latency + 2 x 16 coalesced bytes).
    let per_round = 2.0 * cost.latency_us + 2.0 * 16.0 / cost.bandwidth_bytes_per_us;
    assert!(
        (r.stats.time_us - 3.0 * per_round).abs() < 1e-9,
        "time {} != 3 merged rounds × {per_round}",
        r.stats.time_us
    );
    // The solo-sum baseline books the same traffic in twice the
    // rounds' latency: strictly slower in the model.
    let ungrouped = {
        let mut cfg = ExecConfig::default();
        cfg = cfg.with_scalar("s", 0.0);
        compile_and_run(GROUPED_PAIR, &CompileOptions::naive().ungrouped(), cfg)
            .expect("compile+run")
            .1
    };
    assert_eq!(ungrouped.stats.messages, 24);
    assert_eq!(ungrouped.stats.bytes, r.stats.bytes);
    assert!(ungrouped.stats.time_us > r.stats.time_us);
    assert_eq!(ungrouped.arrays, r.arrays, "grouping never changes values");
    // Values: both arrays arrive intact through the coalesced rounds.
    assert!(r.arrays["a"].iter().all(|&v| v == 1.0));
    assert!(r.arrays["b"].iter().all(|&v| v == 2.0));
}

/// A Fig. 15/18 program driven by a scalar so both restore arms are
/// reachable deterministically: CYCLIC initially, CYCLIC(2) on the
/// taken branch, BLOCK for the callee dummy — over 4 procs both
/// CYCLIC↔BLOCK legs are all-to-alls (12 single-element messages in 3
/// caterpillar rounds).
const RESTORE_DRIVEN: &str = "\
subroutine rest(s)
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(cyclic) onto p
  interface
    subroutine foo(x)
      real :: x(16)
      intent(inout) :: x
!hpf$ distribute x(block) onto p
    end subroutine
  end interface
  a = 1.0
  if (s > 0.0) then
!hpf$ redistribute a(cyclic(2))
    a = 2.0
  endif
  call foo(a)
end subroutine
";

fn run_naive(src: &str, scalars: &[(&str, f64)]) -> hpfc::ExecResult {
    let mut cfg = ExecConfig::default();
    for (k, v) in scalars {
        cfg = cfg.with_scalar(k, *v);
    }
    compile_and_run(src, &CompileOptions::naive(), cfg).expect("compile+run").1
}

#[test]
fn restore_arm_time_reflects_caterpillar_rounds() {
    // Not-taken path: the saved tag is 0 (CYCLIC). The run performs
    // exactly two data movements — the ArgIn remap CYCLIC -> BLOCK and
    // the restore arm BLOCK -> CYCLIC — each a 4-proc all-to-all of 12
    // one-element messages in 3 contention-free rounds. Every round
    // bills one send + one recv latency plus 8 bytes each way per
    // processor, so the whole run costs exactly 6 rounds — the restore
    // arm's schedule is accounted round by round, same as any remap.
    let r = run_naive(RESTORE_DRIVEN, &[("s", -1.0)]);
    assert_eq!(r.stats.remaps_performed, 2, "{:?}", r.stats);
    assert_eq!(r.stats.restores_replayed, 1, "{:?}", r.stats);
    assert_eq!(r.stats.messages, 24);
    assert_eq!(r.stats.bytes, 24 * 8);
    let cost = hpfc::CostModel::default();
    let per_round = 2.0 * cost.latency_us + 2.0 * 8.0 / cost.bandwidth_bytes_per_us;
    assert!(
        (r.stats.time_us - 6.0 * per_round).abs() < 1e-9,
        "time {} != 6 rounds × {per_round}",
        r.stats.time_us
    );
    // And nothing was planned at run time: both legs replayed the
    // compile-time-planned programs seeded into the cache (the restore
    // arm was selected by the saved tag).
    assert_eq!(r.stats.plans_computed, 0, "{:?}", r.stats);
    assert_eq!(r.stats.plan_cache_hits, 2, "{:?}", r.stats);
    // 1.0 + the callee's INOUT increment, restored intact.
    assert!(r.arrays["a"].iter().all(|&v| v == 2.0), "{:?}", r.arrays["a"]);
}

#[test]
fn restore_program_never_plans_on_either_path() {
    // Acceptance pin: `plans_computed == 0` for a lowered program
    // containing a flow-dependent RestoreStatus, on both branch paths
    // (different saved tags select different compiled arms).
    for s in [1.0, -1.0] {
        let r = run_naive(RESTORE_DRIVEN, &[("s", s)]);
        assert_eq!(r.stats.plans_computed, 0, "s={s}: {:?}", r.stats);
        assert_eq!(r.stats.restores_replayed, 1, "s={s}");
        assert!(r.stats.plan_cache_hits >= 2, "s={s}: {:?}", r.stats);
        let want = if s > 0.0 { 3.0 } else { 2.0 };
        assert!(r.arrays["a"].iter().all(|&v| v == want), "s={s}: {:?}", r.arrays["a"]);
    }
}

#[test]
fn peak_memory_reflects_copies() {
    // Two live copies of a 1024-element array on 4 procs: ~2 × 2048 B
    // per processor at the peak.
    let src = "subroutine s\nreal :: a(1024)\n!hpf$ processors p(4)\n!hpf$ dynamic a\n\
               !hpf$ distribute a(block) onto p\na = 1.0\n\
               !hpf$ redistribute a(cyclic)\nx = a(1)\n!hpf$ redistribute a(block)\nx = a(2)\nend";
    let r = run(src, &[]);
    // 1024 els * 8 B / 4 procs = 2048 per copy; both copies coexist
    // during the remap.
    assert!(r.peak_mem_bytes >= 2 * 2048, "{}", r.peak_mem_bytes);
    assert!(r.peak_mem_bytes <= 3 * 2048, "{}", r.peak_mem_bytes);
}

#[test]
fn a_remap_across_grids_of_different_sizes_bills_the_ranks_it_holds() {
    // `a` moves from p(2) to q(4) and back; the machine has four ranks,
    // so its p-versions hold no block on ranks 2 and 3. At the peak,
    // rank 0 holds `a` on p (4 elements), `a` on q and `b` (2 each):
    // 64 B.
    let src = "subroutine s\nreal :: a(8), b(8)\n!hpf$ processors p(2)\n\
               !hpf$ processors q(4)\n!hpf$ dynamic a\n!hpf$ distribute a(block) onto p\n\
               !hpf$ distribute b(block) onto q\ndo i = 1, 8\n  a(i) = i\nenddo\nb = 1.0\n\
               !hpf$ redistribute a(block) onto q\na = a + b\n\
               !hpf$ redistribute a(block) onto p\na = a * 2.0\nend";
    let r = run(src, &[]);
    let want: Vec<f64> = (1..=8).map(|i| 2.0 * (i as f64 + 1.0)).collect();
    assert_eq!(r.arrays["a"], want);
    assert_eq!(r.stats.remaps_performed, 2, "both remaps moved data");
    assert_eq!(r.peak_mem_bytes, 64);
}

#[test]
fn a_second_interpreter_session_is_served_entirely_by_the_registry() {
    // Two independent interpreter sessions over one compiled program,
    // sharing one (isolated) plan registry. Lowering precompiled every
    // planned copy, so neither session plans; the point here is the
    // *registry* books — session 1's frame seeding publishes each
    // distinct artifact once (misses), session 2's seeding finds every
    // pair already registered and runs on hits alone, producing
    // identical results from pointer-shared artifacts.
    use std::sync::Arc;
    let compiled =
        hpfc::compile(hpfc::figures::FIG16_LOOP, &CompileOptions::naive()).expect("compile");
    let programs = compiled.programs();
    let nprocs = programs.values().map(|p| p.nprocs).max().unwrap();
    let main = compiled.order[0].clone();
    let registry = Arc::new(hpfc::PlanRegistry::new(2, 64));
    let session = |reg: &Arc<hpfc::PlanRegistry>| {
        let mut ex = hpfc::Executor {
            programs: &programs,
            machine: hpfc::Machine::new(nprocs).with_registry(Arc::clone(reg)),
            config: ExecConfig::default().with_scalar("t", 6.0),
        };
        ex.run(&main).expect("run")
    };
    let r1 = session(&registry);
    assert_eq!(r1.stats.plans_computed, 0, "{:?}", r1.stats);
    assert!(r1.stats.registry_misses > 0, "session 1 publishes: {:?}", r1.stats);
    let published = r1.stats.registry_misses;

    let r2 = session(&registry);
    assert_eq!(r2.stats.plans_computed, 0, "{:?}", r2.stats);
    assert_eq!(r2.stats.registry_misses, 0, "everything was registered: {:?}", r2.stats);
    assert_eq!(r2.stats.registry_hits, published, "one hit per distinct artifact");
    assert_eq!(r1.arrays, r2.arrays, "registry-served sessions agree");
    assert_eq!(r1.stats.bytes, r2.stats.bytes);
}

/// Run `body` on a block-distributed `a(8)` and demand a typed
/// interpreter error naming `a` and `what`.
fn assert_interp_error(body: &str, what: &str) {
    let src = format!(
        "subroutine s\nreal :: a(8)\n!hpf$ processors p(4)\n!hpf$ distribute a(block) onto p\n\
         a = 1.0\n{body}\nend"
    );
    let compiled = hpfc::compile(&src, &CompileOptions::default()).expect("compiles");
    let err = hpfc::execute(&compiled.programs(), "s", ExecConfig::default())
        .expect_err("the statement is refused");
    let hpfc::ExecError::Interp { what: msg } = &err else { panic!("{err:?}") };
    assert!(msg.contains("`a`") && msg.contains(what), "{msg}");
}

#[test]
fn a_subscript_below_one_is_a_typed_error() {
    // Used to alias `a(1)`, on reads and writes alike.
    assert_interp_error("a(0) = 2.0", "is 0, outside 1..=8");
    assert_interp_error("x = a(-1)", "is -1, outside 1..=8");
}

#[test]
fn a_subscript_beyond_the_extent_is_a_typed_error() {
    // Used to panic inside the store ("owned element").
    assert_interp_error("a(20) = 1.0", "is 20, outside 1..=8");
    assert_interp_error("x = a(30)", "is 30, outside 1..=8");
    // Computed subscripts are checked the same way.
    assert_interp_error("do i = 1, 9\n  a(i) = a(i) + 1.0\nenddo", "is 9, outside 1..=8");
}

#[test]
fn a_whole_array_read_in_a_scalar_assignment_is_a_typed_error() {
    // Used to panic in the evaluator.
    assert_interp_error("x = a", "whole-array `a` outside elementwise context");
}

/// Values handed over at a call boundary, both ways: an `in`, an
/// `inout` and an `out` array dummy of a compiled callee, mapped
/// `cyclic(3)` and `(block, *)` against the caller's `block` and
/// `(*, block)`, then an interface-only callee with an `inout` and an
/// `out` array. Every final element is checked against a hand-computed
/// reference.
#[test]
fn call_hand_over_moves_every_element_both_ways() {
    let src = "\
subroutine top
  real :: a(12), b(8, 6), c(12), d(12), e(8, 6)
!hpf$ processors p(4)
!hpf$ dynamic a, b, c, d, e
!hpf$ distribute a(block) onto p
!hpf$ distribute b(*, block) onto p
!hpf$ distribute c(block) onto p
!hpf$ distribute d(block) onto p
!hpf$ distribute e(*, block) onto p
  interface
    subroutine work(x, y, z)
      real :: x(12), y(8, 6), z(12)
      intent(in) :: x
      intent(inout) :: y
      intent(out) :: z
!hpf$ distribute x(cyclic(3)) onto p
!hpf$ distribute y(block, *) onto p
!hpf$ distribute z(cyclic(3)) onto p
    end subroutine
    subroutine ext(u, w)
      real :: u(12), w(8, 6)
      intent(inout) :: u
      intent(out) :: w
!hpf$ distribute u(cyclic(3)) onto p
!hpf$ distribute w(block, *) onto p
    end subroutine
  end interface
  do i = 1, 12
    a(i) = 3 * i + 1
  enddo
  do i = 1, 8
    do j = 1, 6
      b(i, j) = 10 * i + j
    enddo
  enddo
  call work(a, b, c)
  do i = 1, 12
    d(i) = i * i
  enddo
  call ext(d, e)
end subroutine

subroutine work(x, y, z)
  real :: x(12), y(8, 6), z(12)
  intent(in) :: x
  intent(inout) :: y
  intent(out) :: z
!hpf$ processors p(4)
!hpf$ distribute x(cyclic(3)) onto p
!hpf$ distribute y(block, *) onto p
!hpf$ distribute z(cyclic(3)) onto p
  y = y * 2.0
  y(2, 5) = x(7)
  z = x + 0.5
  z(12) = y(8, 6)
end subroutine
";
    let r = run(src, &[]);
    let a: Vec<f64> = (1..=12).map(|i| (3 * i + 1) as f64).collect();
    assert_eq!(r.arrays["a"], a, "intent(in) leaves the actual as it was");
    let mut b: Vec<f64> =
        (1..=8).flat_map(|i| (1..=6).map(move |j| (2 * (10 * i + j)) as f64)).collect();
    b[6 + 4] = a[6];
    assert_eq!(r.arrays["b"], b, "intent(inout) comes back updated");
    let mut c: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
    c[11] = b[47];
    assert_eq!(r.arrays["c"], c, "intent(out) defines the actual");
    let d: Vec<f64> = (1..=12).map(|i| (i * i + 1) as f64).collect();
    assert_eq!(r.arrays["d"], d, "interface-only inout adds one");
    let e: Vec<f64> = (0..48).map(|i| i as f64).collect();
    assert_eq!(r.arrays["e"], e, "interface-only out writes the linear index");
}

#[test]
fn dummies_loaded_into_pooled_storage_read_no_stale_words() {
    // A dummy's entry version is claimed by the load of its values, so a
    // pooled buffer (blocks of 1024 and 4096 words here) is handed over
    // without zeroing. The first run releases its blocks to the pool
    // holding other values; the second takes them back and must agree
    // with it value for value — under a cyclic entry mapping and a
    // replicated one (no directive: every processor holds all of `b`).
    let src = "subroutine s(a, b)\nreal :: a(4096), b(4096)\nintent(inout) :: a, b\n\
               !hpf$ processors p(4)\n!hpf$ distribute a(cyclic) onto p\n\
               a = 3.0 * a + 1.0\nb = b - 0.5\nend";
    let first = run(src, &[]);
    let second = run(src, &[]);
    assert_eq!(first.arrays, second.arrays, "the second run read stale pooled words");
    let input = |i: usize| 1.0 + i as f64;
    assert!(first.arrays["a"].iter().enumerate().all(|(i, &v)| v == 3.0 * input(i) + 1.0));
    assert!(first.arrays["b"].iter().enumerate().all(|(i, &v)| v == input(i) - 0.5));
}
