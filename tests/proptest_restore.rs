//! Restore-path fuzzing: generate programs with the Fig. 18
//! call/save/restore shape — a branch-dependent redistribution before a
//! call, so the mapping reaching the call (and therefore the post-call
//! restore target) is known only at run time — over a rich mapping
//! space (strides, offsets, replication, 2-D grids), and check on every
//! one:
//!
//! 1. the restored array values equal the per-point oracle;
//! 2. `plans_computed == 0` after lowering — the flow-dependent restore
//!    executes entirely from its compile-time-planned arms, naive and
//!    optimized alike;
//! 3. the arm selected at run time matches the actually-live version:
//!    the run's exact wire traffic equals the schedules of the copies
//!    on the taken path, *including the restore arm of the saved tag*
//!    (a wrong arm books a different schedule), and the interpreter's
//!    own reaching-analysis assertions stay silent.

use hpfc::codegen::ir::{RemapOp, RestoreOp, SStmt, StaticProgram};
use hpfc::{compile, CompileOptions, ExecConfig, ExecResult};
use proptest::prelude::*;

/// One generated program shape: a layout family and three distinct
/// distribution formats (initial, branch, callee dummy).
#[derive(Debug, Clone)]
struct Gen {
    layout: usize,
    f0: usize,
    f1: usize,
    fd: usize,
    taken: bool,
}

/// Format menus per layout family (applied to the caller's template or
/// array). All block sizes satisfy `b × P ≥ extent` for their template,
/// so every combination is valid.
fn formats(layout: usize) -> &'static [&'static str] {
    match layout {
        // a(16) straight onto p(4).
        0 => &["block", "cyclic", "cyclic(2)", "cyclic(3)", "block(5)"],
        // t(32) (strided, offset alignment) onto p(4).
        1 => &["block", "cyclic", "cyclic(2)", "cyclic(5)", "block(9)"],
        // 2-D a(8,8) onto q(2,2): format pairs.
        2 => &["block, block", "cyclic, block", "block, cyclic", "cyclic, cyclic(2)", "cyclic(3), block"],
        // t(16,4): a replicated along the second template axis.
        3 => &["block, block", "cyclic, block", "cyclic(2), block", "block(9), cyclic", "cyclic(3), cyclic"],
        _ => unreachable!(),
    }
}

/// Format menu for the callee's dummy. Layouts 0 and 2 share the
/// caller's menu (same extents); the template-aligned layouts map the
/// plain (unaligned) dummy from a 1-D menu of their own — for layout 3
/// the 1-D format onto the 2-D grid replicates over the unused axis,
/// so a dummy can even coincide with a replicated caller version (the
/// noop-leg case `copy_traffic` handles).
fn dummy_formats(layout: usize) -> &'static [&'static str] {
    match layout {
        0 | 2 => formats(layout),
        // x(12) onto p(4).
        1 => &["block", "cyclic", "cyclic(2)", "cyclic(5)", "block(9)"],
        // x(16) onto q(2,2) (distributed over axis 1, replicated on 2).
        3 => &["cyclic", "block", "cyclic(2)", "cyclic(3)", "block(9)"],
        _ => unreachable!(),
    }
}

/// Render the generated program. Every layout has the same control
/// skeleton — per-point init, a guarded redistribution, a call to an
/// interface-only INOUT callee — so the restore after the call is
/// flow-dependent with two possible tags.
fn render(g: &Gen) -> String {
    let f = formats(g.layout);
    let (f0, f1, fd) = (f[g.f0], f[g.f1], dummy_formats(g.layout)[g.fd]);
    match g.layout {
        0 => format!(
            "subroutine prest(s)\n  real :: a(16)\n!hpf$ processors p(4)\n!hpf$ dynamic a\n\
             !hpf$ distribute a({f0}) onto p\n  interface\n    subroutine foo(x)\n      \
             real :: x(16)\n      intent(inout) :: x\n!hpf$ distribute x({fd}) onto p\n    \
             end subroutine\n  end interface\n  do i = 1, 16\n    a(i) = i\n  enddo\n  \
             if (s > 0.0) then\n!hpf$ redistribute a({f1})\n    a = a + 2.0\n  endif\n  \
             call foo(a)\nend subroutine\n"
        ),
        1 => format!(
            "subroutine prest(s)\n  real :: a(12)\n!hpf$ processors p(4)\n\
             !hpf$ template t(32)\n!hpf$ dynamic t\n!hpf$ align a(i) with t(2*i + 3)\n\
             !hpf$ distribute t({f0}) onto p\n  interface\n    subroutine foo(x)\n      \
             real :: x(12)\n      intent(inout) :: x\n!hpf$ distribute x({fd}) onto p\n    \
             end subroutine\n  end interface\n  do i = 1, 12\n    a(i) = i\n  enddo\n  \
             if (s > 0.0) then\n!hpf$ redistribute t({f1})\n    a = a + 2.0\n  endif\n  \
             call foo(a)\nend subroutine\n"
        ),
        2 => format!(
            "subroutine prest(s)\n  real :: a(8, 8)\n!hpf$ processors q(2, 2)\n\
             !hpf$ dynamic a\n!hpf$ distribute a({f0}) onto q\n  interface\n    \
             subroutine foo(x)\n      real :: x(8, 8)\n      intent(inout) :: x\n\
             !hpf$ distribute x({fd}) onto q\n    end subroutine\n  end interface\n  \
             do i = 1, 8\n    do j = 1, 8\n      a(i, j) = i * 10.0 + j\n    enddo\n  \
             enddo\n  if (s > 0.0) then\n!hpf$ redistribute a({f1})\n    a = a + 2.0\n  \
             endif\n  call foo(a)\nend subroutine\n"
        ),
        3 => format!(
            "subroutine prest(s)\n  real :: a(16)\n!hpf$ processors q(2, 2)\n\
             !hpf$ template t(16, 4)\n!hpf$ dynamic t\n!hpf$ align a(i) with t(i, *)\n\
             !hpf$ distribute t({f0}) onto q\n  interface\n    subroutine foo(x)\n      \
             real :: x(16)\n      intent(inout) :: x\n!hpf$ distribute x({fd}) onto q\n    \
             end subroutine\n  end interface\n  do i = 1, 16\n    a(i) = i\n  enddo\n  \
             if (s > 0.0) then\n!hpf$ redistribute t({f1})\n    a = a + 2.0\n  endif\n  \
             call foo(a)\nend subroutine\n"
        ),
        _ => unreachable!(),
    }
}

/// The per-point oracle: init value, +2 on the taken branch, +1 from
/// the synthetic INOUT callee — position-dependent so a restore that
/// permutes or misplaces elements cannot pass.
fn oracle(g: &Gen, p: &StaticProgram) -> Vec<f64> {
    let delta = if g.taken { 3.0 } else { 1.0 };
    let extents = &p.arrays[0].versions[0].array_extents;
    extents
        .points()
        .map(|pt| {
            let init = if pt.len() == 2 {
                (pt[0] + 1) as f64 * 10.0 + (pt[1] + 1) as f64
            } else {
                (pt[0] + 1) as f64
            };
            init + delta
        })
        .collect()
}

struct PathOps<'a> {
    branch: &'a RemapOp,
    arg_in: &'a RemapOp,
    restore: &'a RestoreOp,
}

/// Locate the three remapping sites of the generated skeleton.
fn path_ops(p: &StaticProgram) -> PathOps<'_> {
    let mut branch = None;
    let mut arg_in = None;
    let mut restore = None;
    for s in &p.body {
        match s {
            SStmt::If { then_body, .. } => {
                branch = then_body.iter().find_map(|s| match s {
                    SStmt::Remap(op) => Some(op),
                    _ => None,
                });
            }
            SStmt::Remap(op) => arg_in = Some(op),
            SStmt::RestoreStatus(op) => restore = Some(op),
            _ => {}
        }
    }
    PathOps {
        branch: branch.expect("branch redistribution"),
        arg_in: arg_in.expect("ArgIn remap"),
        restore: restore.expect("flow-dependent restore"),
    }
}

/// Wire traffic of one guarded copy source, from its attached
/// schedule. A remap whose live source *is* the target is skipped by
/// the runtime status check — zero traffic (this happens when the
/// callee's dummy mapping is interned onto one of the caller's
/// versions, e.g. a replicated caller mapping equal to the dummy's).
fn copy_traffic(copies: &[hpfc::codegen::ir::SpmdCopy], src: u32, target: u32) -> (u64, u64) {
    if src == target {
        return (0, 0);
    }
    let c = copies.iter().find(|c| c.src == src).expect("copy for the live source");
    (c.schedule().messages.len() as u64, c.schedule().total_bytes())
}

/// Run one compiled module down the taken or the fall-through path.
fn run(compiled: &hpfc::Compiled, taken: bool) -> ExecResult {
    let programs = compiled.programs();
    let nprocs = programs.values().map(|p| p.nprocs).max().unwrap();
    let mut ex = hpfc::Executor {
        programs: &programs,
        machine: hpfc::Machine::new(nprocs),
        config: ExecConfig::default().with_scalar("s", if taken { 1.0 } else { -1.0 }),
    };
    ex.run("prest").expect("prest executes cleanly")
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    (0usize..4, 0usize..5, 0usize..5, 0usize..5, prop::bool::ANY).prop_map(
        |(layout, f0, d1, d2, taken)| {
            // Three pairwise-distinct format indices: the branch must
            // change the mapping (else the restore is not
            // flow-dependent), and within a shared menu distinct
            // indices keep the dummy off the caller's versions so most
            // paths move data through the restore arm. (For the
            // template-aligned layouts the dummy draws from its own
            // menu, so it can still coincide with a caller version —
            // a legal noop leg `copy_traffic` accounts as zero.)
            let f1 = (f0 + 1 + d1 % 4) % 5;
            let mut fd = (f0 + 1 + d2 % 4) % 5;
            if fd == f1 {
                fd = (fd + 1) % 5;
                if fd == f0 {
                    fd = (fd + 1) % 5;
                }
            }
            Gen { layout, f0, f1, fd, taken }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn restores_execute_from_compiled_arms(g in gen_strategy()) {
        let src = render(&g);
        let naive = compile(&src, &CompileOptions::naive())
            .unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        let p = &naive.units["prest"].program;
        let ops = path_ops(p);

        // --- static shape: one compiled arm per possible tag, each
        // covering every version that can be live at the restore.
        prop_assert_eq!(ops.restore.arms.len(), ops.restore.possible.len());
        prop_assert!(ops.restore.possible.len() >= 2, "flow-dependent\n{}", src);
        for arm in &ops.restore.arms {
            prop_assert!(ops.restore.possible.contains(&arm.target));
            if !ops.restore.no_data {
                for r in &ops.restore.reaching {
                    prop_assert!(
                        *r == arm.target || arm.copies.iter().any(|c| c.src == *r),
                        "arm {} misses reaching source {}\n{}", arm.target, r, src
                    );
                }
            }
        }

        // --- the expected path traffic, read off the compiled
        // schedules: branch remap (taken only), ArgIn remap from the
        // live tag, restore arm *of that tag* back from the dummy.
        let tag = if g.taken { ops.branch.target } else { *ops.branch.reaching.iter().next().unwrap() };
        let mut exp_msgs = 0;
        let mut exp_bytes = 0;
        if g.taken {
            let src = *ops.branch.reaching.iter().next().unwrap();
            let (m, b) = copy_traffic(&ops.branch.copies, src, ops.branch.target);
            exp_msgs += m;
            exp_bytes += b;
        }
        let (m, b) = copy_traffic(&ops.arg_in.copies, tag, ops.arg_in.target);
        exp_msgs += m;
        exp_bytes += b;
        let arm = ops.restore.arm_for(tag).expect("arm for the live tag");
        let (m, b) = copy_traffic(&arm.copies, ops.arg_in.target, arm.target);
        exp_msgs += m;
        exp_bytes += b;

        // --- execute.
        let res = run(&naive, g.taken);
        let want = oracle(&g, p);
        prop_assert_eq!(&res.arrays["a"], &want, "values\n{}", src);
        // (b) nothing planned at run time: the restore arms were
        // seeded into the cache like every remap copy.
        prop_assert_eq!(res.stats.plans_computed, 0, "planned\n{}", src);
        prop_assert_eq!(res.stats.restores_replayed, 1, "{}", src);
        // (c) the executed traffic is exactly the taken path's
        // compiled schedules, restore arm included: a wrong arm
        // would book a different schedule.
        prop_assert_eq!(res.stats.messages, exp_msgs, "messages\n{}", src);
        prop_assert_eq!(res.stats.bytes, exp_bytes, "bytes\n{}", src);

        // --- the optimized compilation agrees on values and also
        // never plans at run time.
        let opt = compile(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        let opt_res = run(&opt, g.taken);
        prop_assert_eq!(&opt_res.arrays["a"], &want, "optimized values\n{}", src);
        prop_assert_eq!(opt_res.stats.plans_computed, 0, "optimized planned\n{}", src);
        prop_assert!(opt_res.stats.bytes <= res.stats.bytes, "opt traffic grew\n{}", src);
    }
}
