//! Golden-output tests for the message-level SPMD code generation: a
//! strided 2-D remap must render as per-pair packed send/recv loops
//! (never whole-array copy statements), the executed caterpillar
//! schedule must match the redistribution plan message for message, and
//! a Fig. 18 flow-dependent restore must render as a switch on the
//! saved tag whose arms are the same packed send/recv loops.

use hpfc::codegen::ir::{RemapGroupOp, RemapOp, RestoreOp, SStmt};
use hpfc::runtime::{PackedMessage, RedistPlan};
use hpfc::{compile, CompileOptions};

/// A 2-D array aligned with stride 2 into a template, remapped from a
/// BLOCK row distribution to a wrapping CYCLIC(2) one: the paper's
/// Fig. 19/20 situation with genuinely strided periodic ownership.
const STRIDED_2D: &str = "\
subroutine spmd2d
  real :: a(4, 8)
!hpf$ processors p(2)
!hpf$ template t(8, 8)
!hpf$ dynamic t
!hpf$ align a(i, j) with t(2*i, j)
!hpf$ distribute t(block, *) onto p
  a = 1.0
!hpf$ redistribute t(cyclic(2), *) onto p
  x = a(2, 2)
end subroutine
";

fn first_remap(body: &[SStmt]) -> Option<&RemapOp> {
    for s in body {
        match s {
            SStmt::Remap(op) => return Some(op),
            SStmt::If { then_body, else_body, .. } => {
                if let Some(op) = first_remap(then_body).or_else(|| first_remap(else_body)) {
                    return Some(op);
                }
            }
            SStmt::Do { body, .. } => {
                if let Some(op) = first_remap(body) {
                    return Some(op);
                }
            }
            _ => {}
        }
    }
    None
}

#[test]
fn strided_2d_remap_renders_packed_send_recv_loops() {
    let compiled = compile(STRIDED_2D, &CompileOptions::default()).unwrap();
    let p = &compiled.units["spmd2d"].program;
    let op = first_remap(&p.body).expect("the redistribution's remap");
    let text = hpfc::codegen::render::remap_text(p, op);
    let expected = "\
if (status_a /= 1) then
  allocate a_1 if needed
  if (.not. live_a(1)) then
    if (status_a == 0) then  ! a_0 -> a_1: 2 message(s), 128 byte(s), 1 round(s)
      copy local runs a_0 \u{2229} a_1 across ranks (16 element(s) total, no communication)
      round 1:
        p0 -> p1: 8 element(s), 64 byte(s)
          on p0:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[0,2)} \u{2229} {[1,2)+2k})
              do i0 = lo0, hi0-1
                do (lo1, hi1) in runs(d1: {[0,8)} \u{2229} {[0,8)})
                  sbuf(k : k+hi1-lo1) = a_0(pos_0(i0, lo1) : pos_0(i0, hi1)); k += hi1-lo1
            send sbuf(0:8) -> p1  ! 64 bytes
          on p1:  ! unpack
            recv rbuf(0:8) <- p0  ! 64 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[0,2)} \u{2229} {[1,2)+2k})
              do i0 = lo0, hi0-1
                do (lo1, hi1) in runs(d1: {[0,8)} \u{2229} {[0,8)})
                  a_1(pos_1(i0, lo1) : pos_1(i0, hi1)) = rbuf(k : k+hi1-lo1); k += hi1-lo1
        p1 -> p0: 8 element(s), 64 byte(s)
          on p1:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[2,4)} \u{2229} {[0,1)+2k})
              do i0 = lo0, hi0-1
                do (lo1, hi1) in runs(d1: {[0,8)} \u{2229} {[0,8)})
                  sbuf(k : k+hi1-lo1) = a_0(pos_0(i0, lo1) : pos_0(i0, hi1)); k += hi1-lo1
            send sbuf(0:8) -> p0  ! 64 bytes
          on p0:  ! unpack
            recv rbuf(0:8) <- p1  ! 64 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[2,4)} \u{2229} {[0,1)+2k})
              do i0 = lo0, hi0-1
                do (lo1, hi1) in runs(d1: {[0,8)} \u{2229} {[0,8)})
                  a_1(pos_1(i0, lo1) : pos_1(i0, hi1)) = rbuf(k : k+hi1-lo1); k += hi1-lo1
    endif
    live_a(1) = .true.
  endif
  status_a = 1
endif
if (live_a(0)) then
  free a_0
  live_a(0) = .false.
endif
";
    assert_eq!(text, expected);
    // Structural guarantees the golden string encodes, stated
    // explicitly: per-pair messages, no whole-array copy statements.
    assert!(!text.contains("a_1 = a_0"));
    assert!(text.matches("send sbuf").count() == 2 && text.matches("recv rbuf").count() == 2);
}

/// Fig. 3's situation at golden scale: two arrays aligned to one
/// dynamic template, remapped together by a single redistribution —
/// the directive must lower to ONE remap group whose rounds carry
/// coalesced per-pair wire buffers with one packed part per array,
/// not two back-to-back solo remaps.
const GROUPED_2ARRAY: &str = "\
subroutine grp2
  real :: a(8), b(8)
!hpf$ processors p(2)
!hpf$ template t(8)
!hpf$ dynamic t
!hpf$ align with t :: a, b
!hpf$ distribute t(block) onto p
  a = 1.0
  b = 2.0
!hpf$ redistribute t(cyclic) onto p
  x = a(1) + b(2)
end subroutine
";

fn first_group(body: &[SStmt]) -> Option<&RemapGroupOp> {
    body.iter().find_map(|s| match s {
        SStmt::RemapGroup(op) => Some(op),
        _ => None,
    })
}

#[test]
fn two_array_directive_renders_one_grouped_remap() {
    let compiled = compile(GROUPED_2ARRAY, &CompileOptions::default()).unwrap();
    let p = &compiled.units["grp2"].program;
    let op = first_group(&p.body).expect("the directive's remap group");
    assert_eq!(op.members.len(), 2);
    let text = hpfc::codegen::render::remap_group_text(p, op);
    let expected = "\
! remap group (one directive, 2 arrays): a_0 -> a_1, b_0 -> b_1
! merged schedule: 2 wire message(s), 64 byte(s), 1 round(s) (solo sum: 2 round(s))
if (status_a == 0 .and. .not. live_a(1) .and. status_b == 0 .and. .not. live_b(1)) then  ! coalesced bounce
  allocate a_1, b_1 if needed
  copy local runs a_0 \u{2229} a_1 across ranks (4 element(s) total, no communication)
  copy local runs b_0 \u{2229} b_1 across ranks (4 element(s) total, no communication)
  round 1:
    p0 -> p1: 4 element(s), 32 byte(s), one buffer coalescing 2 message(s)
      part a_0 -> a_1:
        p0 -> p1: 2 element(s), 16 byte(s)
          on p0:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[0,4)} \u{2229} {[1,2)+2k})
              sbuf(k : k+hi0-lo0) = a_0(pos_0(lo0) : pos_0(hi0)); k += hi0-lo0
            send sbuf(0:2) -> p1  ! 16 bytes
          on p1:  ! unpack
            recv rbuf(0:2) <- p0  ! 16 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[0,4)} \u{2229} {[1,2)+2k})
              a_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
      part b_0 -> b_1:
        p0 -> p1: 2 element(s), 16 byte(s)
          on p0:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[0,4)} \u{2229} {[1,2)+2k})
              sbuf(k : k+hi0-lo0) = b_0(pos_0(lo0) : pos_0(hi0)); k += hi0-lo0
            send sbuf(0:2) -> p1  ! 16 bytes
          on p1:  ! unpack
            recv rbuf(0:2) <- p0  ! 16 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[0,4)} \u{2229} {[1,2)+2k})
              b_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
    p1 -> p0: 4 element(s), 32 byte(s), one buffer coalescing 2 message(s)
      part a_0 -> a_1:
        p1 -> p0: 2 element(s), 16 byte(s)
          on p1:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[4,8)} \u{2229} {[0,1)+2k})
              sbuf(k : k+hi0-lo0) = a_0(pos_0(lo0) : pos_0(hi0)); k += hi0-lo0
            send sbuf(0:2) -> p0  ! 16 bytes
          on p0:  ! unpack
            recv rbuf(0:2) <- p1  ! 16 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[4,8)} \u{2229} {[0,1)+2k})
              a_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
      part b_0 -> b_1:
        p1 -> p0: 2 element(s), 16 byte(s)
          on p1:  ! pack
            k = 0
            do (lo0, hi0) in runs(d0: {[4,8)} \u{2229} {[0,1)+2k})
              sbuf(k : k+hi0-lo0) = b_0(pos_0(lo0) : pos_0(hi0)); k += hi0-lo0
            send sbuf(0:2) -> p0  ! 16 bytes
          on p0:  ! unpack
            recv rbuf(0:2) <- p1  ! 16 bytes
            k = 0
            do (lo0, hi0) in runs(d0: {[4,8)} \u{2229} {[0,1)+2k})
              b_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
  live_a(1) = .true.; status_a = 1
  live_b(1) = .true.; status_b = 1
else
  ! partial group: non-moving members drop out of the coalesced buffers (their wire parts are masked); below two movers every member runs its solo guarded remap (same compiled plans, Fig. 20)
endif
if (live_a(0)) then
  free a_0
  live_a(0) = .false.
endif
if (live_b(0)) then
  free b_0
  live_b(0) = .false.
endif
";
    assert_eq!(text, expected);

    // The two old back-to-back solo remap texts are gone from the
    // whole program: no solo Fig. 20 guards, no per-array allocate
    // lines, and only one round structure for the directive.
    let program = hpfc::codegen::render::program_text(p);
    assert!(!program.contains("if (status_a /= 1) then"), "{program}");
    assert!(!program.contains("if (status_b /= 1) then"), "{program}");
    assert!(!program.contains("allocate a_1 if needed"), "{program}");
    assert!(!program.contains("allocate b_1 if needed"), "{program}");
    assert!(!program.contains("! a_0 -> a_1: "), "solo schedule header gone: {program}");
    assert!(!program.contains("! b_0 -> b_1: "), "solo schedule header gone: {program}");
    assert_eq!(program.matches("round 1:").count(), 1, "one merged round structure");
    // And the ungrouped baseline still renders exactly those two solo
    // remaps — the assertion above is about grouping, not renaming.
    let solo = compile(GROUPED_2ARRAY, &CompileOptions::default().ungrouped()).unwrap();
    let solo_text = hpfc::codegen::render::program_text(&solo.units["grp2"].program);
    assert!(solo_text.contains("if (status_a /= 1) then"));
    assert!(solo_text.contains("if (status_b /= 1) then"));
    assert_eq!(solo_text.matches("round 1:").count(), 2);
}

#[test]
fn grouped_schedule_matches_member_plans_message_for_message() {
    let compiled = compile(GROUPED_2ARRAY, &CompileOptions::default()).unwrap();
    let p = &compiled.units["grp2"].program;
    let op = first_group(&p.body).expect("group");
    let sched = &op.planned.schedule;
    // Per member: the merged schedule contains exactly the member
    // plan's transfers, tagged with the member index.
    for (i, member) in op.members.iter().enumerate() {
        let decl = p.array(member.array);
        let plan = hpfc::runtime::plan_redistribution(
            &decl.versions[member.copies[0].src as usize],
            &decl.versions[member.target as usize],
            decl.elem_size,
        );
        let member_msgs: Vec<_> =
            sched.messages.iter().filter(|m| m.member == i).collect();
        assert_eq!(member_msgs.len() as u64, plan.total_messages());
        for (m, t) in member_msgs.iter().zip(&plan.transfers) {
            assert_eq!((m.from, m.to, m.elements), (t.from, t.to, t.elements));
        }
    }
    // Costing the merged schedule books the coalesced wire messages
    // but the full byte volume.
    let mut machine = hpfc::Machine::new(p.nprocs);
    let t = machine.account_schedule(sched);
    assert!(t > 0.0);
    assert_eq!(machine.stats.messages, sched.n_wire_messages());
    assert_eq!(machine.stats.bytes, sched.total_bytes());
}

/// Fig. 18's situation at golden scale: the mapping reaching the call
/// is flow-dependent (BLOCK or CYCLIC(2) depending on the branch), so
/// the post-call restore must dispatch on the saved status tag — and
/// after this PR each tag's arm is a complete compile-time-planned
/// packed send/recv remap from the dummy's CYCLIC version.
const SAVE_RESTORE: &str = "\
subroutine saverest(s)
  real :: a(8)
!hpf$ processors p(2)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  interface
    subroutine foo(x)
      real :: x(8)
      intent(inout) :: x
!hpf$ distribute x(cyclic) onto p
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

fn first_restore(body: &[SStmt]) -> Option<&RestoreOp> {
    body.iter().find_map(|s| match s {
        SStmt::RestoreStatus(op) => Some(op),
        _ => None,
    })
}

#[test]
fn flow_dependent_restore_renders_switch_of_packed_arms() {
    let compiled = compile(SAVE_RESTORE, &CompileOptions::naive()).unwrap();
    let p = &compiled.units["saverest"].program;
    let op = first_restore(&p.body).expect("the call's flow-dependent restore");
    assert_eq!(op.arms.len(), 2, "one arm per possible saved tag");
    let text = hpfc::codegen::render::restore_text(p, op);
    let expected = "\
if (reaching_0 == 0) then  ! restore a -> a_0
  if (status_a /= 0) then
    allocate a_0 if needed
    if (.not. live_a(0)) then
      if (status_a == 2) then  ! a_2 -> a_0: 2 message(s), 32 byte(s), 1 round(s)
        copy local runs a_2 \u{2229} a_0 across ranks (4 element(s) total, no communication)
        round 1:
          p0 -> p1: 2 element(s), 16 byte(s)
            on p0:  ! pack
              k = 0
              do (lo0, hi0) in runs(d0: {[0,1)+2k} \u{2229} {[4,8)})
                sbuf(k : k+hi0-lo0) = a_2(pos_2(lo0) : pos_2(hi0)); k += hi0-lo0
              send sbuf(0:2) -> p1  ! 16 bytes
            on p1:  ! unpack
              recv rbuf(0:2) <- p0  ! 16 bytes
              k = 0
              do (lo0, hi0) in runs(d0: {[0,1)+2k} \u{2229} {[4,8)})
                a_0(pos_0(lo0) : pos_0(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
          p1 -> p0: 2 element(s), 16 byte(s)
            on p1:  ! pack
              k = 0
              do (lo0, hi0) in runs(d0: {[1,2)+2k} \u{2229} {[0,4)})
                sbuf(k : k+hi0-lo0) = a_2(pos_2(lo0) : pos_2(hi0)); k += hi0-lo0
              send sbuf(0:2) -> p0  ! 16 bytes
            on p0:  ! unpack
              recv rbuf(0:2) <- p1  ! 16 bytes
              k = 0
              do (lo0, hi0) in runs(d0: {[1,2)+2k} \u{2229} {[0,4)})
                a_0(pos_0(lo0) : pos_0(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
      endif
      live_a(0) = .true.
    endif
    status_a = 0
  endif
  if (live_a(2)) then
    free a_2
    live_a(2) = .false.
  endif
elif (reaching_0 == 1) then  ! restore a -> a_1
  if (status_a /= 1) then
    allocate a_1 if needed
    if (.not. live_a(1)) then
      if (status_a == 2) then  ! a_2 -> a_1: 2 message(s), 32 byte(s), 1 round(s)
        copy local runs a_2 \u{2229} a_1 across ranks (4 element(s) total, no communication)
        round 1:
          p0 -> p1: 2 element(s), 16 byte(s)
            on p0:  ! pack
              k = 0
              do (lo0, hi0) in runs(d0: {[0,1)+2k} \u{2229} {[2,4)+4k})
                sbuf(k : k+hi0-lo0) = a_2(pos_2(lo0) : pos_2(hi0)); k += hi0-lo0
              send sbuf(0:2) -> p1  ! 16 bytes
            on p1:  ! unpack
              recv rbuf(0:2) <- p0  ! 16 bytes
              k = 0
              do (lo0, hi0) in runs(d0: {[0,1)+2k} \u{2229} {[2,4)+4k})
                a_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
          p1 -> p0: 2 element(s), 16 byte(s)
            on p1:  ! pack
              k = 0
              do (lo0, hi0) in runs(d0: {[1,2)+2k} \u{2229} {[0,2)+4k})
                sbuf(k : k+hi0-lo0) = a_2(pos_2(lo0) : pos_2(hi0)); k += hi0-lo0
              send sbuf(0:2) -> p0  ! 16 bytes
            on p0:  ! unpack
              recv rbuf(0:2) <- p1  ! 16 bytes
              k = 0
              do (lo0, hi0) in runs(d0: {[1,2)+2k} \u{2229} {[0,2)+4k})
                a_1(pos_1(lo0) : pos_1(hi0)) = rbuf(k : k+hi0-lo0); k += hi0-lo0
      endif
      live_a(1) = .true.
    endif
    status_a = 1
  endif
  if (live_a(2)) then
    free a_2
    live_a(2) = .false.
  endif
endif
";
    assert_eq!(text, expected);
    // Structural guarantees the golden string encodes: the restore is a
    // tag switch whose arms carry packed send/recv loops; the old
    // opaque run-time restore statement is gone from the whole program.
    let program = hpfc::codegen::render::program_text(p);
    assert!(!program.contains("remap a -> a_"), "{program}");
    assert!(program.contains("reaching_0 = status_a"), "{program}");
    assert_eq!(text.matches("send sbuf").count(), 4);
    assert_eq!(text.matches("recv rbuf").count(), 4);
    assert!(!text.contains("a_0 = a_2") && !text.contains("a_1 = a_2"));
}

#[test]
fn restore_arm_schedules_match_their_plans() {
    // Every arm's attached schedule must be the plan's, message for
    // message — the restore arms are the same artifact as remap copies.
    let compiled = compile(SAVE_RESTORE, &CompileOptions::naive()).unwrap();
    let p = &compiled.units["saverest"].program;
    let op = first_restore(&p.body).expect("restore");
    let decl = p.array(op.array);
    for arm in &op.arms {
        assert_eq!(arm.copies.len(), 1, "one reaching source (the dummy version)");
        let copy = &arm.copies[0];
        let plan = hpfc::runtime::plan_redistribution(
            &decl.versions[copy.src as usize],
            &decl.versions[arm.target as usize],
            decl.elem_size,
        );
        let sched = copy.schedule();
        assert_eq!(sched.messages.len() as u64, plan.total_messages());
        for (m, t) in sched.messages.iter().zip(&plan.transfers) {
            assert_eq!((m.from, m.to, m.elements), (t.from, t.to, t.elements));
        }
        assert_eq!(sched.total_bytes(), plan.total_bytes());
        let prog = copy.planned.program.as_ref().expect("1-D plan compiles");
        assert_eq!(prog.n_elements(), 8, "every element delivered once");
    }
}

#[test]
fn schedule_costing_matches_plan_message_for_message() {
    let compiled = compile(STRIDED_2D, &CompileOptions::default()).unwrap();
    let p = &compiled.units["spmd2d"].program;
    let op = first_remap(&p.body).expect("remap");
    assert_eq!(op.copies.len(), 1, "one reaching source");
    let sched = op.copies[0].schedule();

    // Recompute the plan independently and compare pair by pair.
    let decl = p.array(op.array);
    let plan = hpfc::runtime::plan_redistribution(
        &decl.versions[op.copies[0].src as usize],
        &decl.versions[op.target as usize],
        decl.elem_size,
    );
    assert_eq!(sched.messages.len() as u64, plan.total_messages());
    for (m, t) in sched.messages.iter().zip(&plan.transfers) {
        assert_eq!((m.from, m.to, m.elements), (t.from, t.to, t.elements));
    }
    assert_eq!(sched.total_bytes(), plan.total_bytes());
    assert_eq!(sched.local_elements, plan.local_elements);

    // Costing the caterpillar schedule books exactly the plan's
    // messages and bytes, round by contention-free round.
    let mut m = hpfc::Machine::new(p.nprocs);
    let t = m.account_schedule(sched);
    assert!(t > 0.0);
    assert_eq!(m.stats.messages, plan.total_messages());
    assert_eq!(m.stats.bytes, plan.total_bytes());
    assert_eq!(m.stats.local_elements, plan.local_elements);
}

/// Every message of every remap of every figure program — plain remap
/// arms, restore arms and merged groups, compiled with the default,
/// naive and ungrouped options — finds one descriptor per dimension in
/// its plan (the lookup the renderer prints the pack and unpack loops
/// from), and their counts multiply to its element count. Rendering
/// each program does not panic.
#[test]
fn every_figure_message_matches_its_plan_descriptors() {
    let check = |plan: &RedistPlan, m: &PackedMessage, what: &str| {
        let dims = plan
            .pair_dims(m.from, m.to)
            .unwrap_or_else(|| panic!("{what}: p{} -> p{} has no descriptors", m.from, m.to));
        let count: u64 = dims.map(|e| e.src_set.intersect_count(&e.dst_set)).product();
        assert_eq!(count, m.elements, "{what}: p{} -> p{}", m.from, m.to);
    };
    let mut n_messages = 0;
    for (name, src) in hpfc::figures::all() {
        for (mode, opts) in [
            ("default", CompileOptions::default()),
            ("naive", CompileOptions::naive()),
            ("ungrouped", CompileOptions::default().ungrouped()),
        ] {
            let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            for unit in compiled.units.values() {
                let p = &unit.program;
                let what = format!("{name} ({mode}) `{}`", p.routine);
                p.for_each_planned_copy(|_, _, copy| {
                    for m in &copy.schedule().messages {
                        check(&copy.planned.plan, m, &what);
                        n_messages += 1;
                    }
                });
                p.for_each_stmt(|s| {
                    if let SStmt::RemapGroup(g) = s {
                        for m in &g.planned.schedule.messages {
                            check(&g.planned.members[m.member].plan, m, &what);
                        }
                    }
                });
                assert!(!hpfc::codegen::render::program_text(p).is_empty(), "{what}");
            }
        }
    }
    assert!(n_messages > 0, "the figures move data");
}
