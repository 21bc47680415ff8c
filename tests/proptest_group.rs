//! Remap-group fuzzing: generate programs in which one directive
//! remaps 2–4 arrays at the same vertex (the paper's Fig. 3 template
//! impact) over a rich mapping space — heterogeneous strides and
//! offsets into one template, plain identity alignment, 2-D grids,
//! replication — and check on every one:
//!
//! 1. the directive lowers to ONE `RemapGroupOp` covering every
//!    data-moving array, and executing it coalesces the members
//!    (`remap_groups_coalesced == 1`, `plans_computed == 0`);
//! 2. per-point value oracle per array;
//! 3. exact wire accounting: coalesced traffic equals the **sum of the
//!    member plans' bytes** (coalescing shares latency, never drops or
//!    duplicates payload), engine-written bytes equal the members'
//!    `(local + remote) × elem_size`, and the wire message count is
//!    the merged schedule's coalesced count;
//! 4. contention-freedom of the merged rounds: each processor sends at
//!    most one and receives at most one coalesced wire message per
//!    round, and every member's compiled units of round `r` are its
//!    messages of round `r`, each matching its plan's descriptors;
//! 5. the ungrouped baseline (one solo schedule per array) produces
//!    identical values and payload bytes with at least as many wire
//!    messages — grouping is a scheduling change, not a semantic one.
//!
//! Two fixed shapes ride along at the runtime layer, below what
//! lowering emits: a 65-member group (the runtime has no member cap)
//! and a group whose blocks span several tiles of the serial walk.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hpfc::codegen::ir::{RemapGroupOp, SStmt};
use hpfc::mapping::{testing::mapping_1d, DimFormat};
use hpfc::runtime::{
    plan_redistribution, try_remap_group, ArrayRt, GroupMember, PlannedGroup, PlannedRemap,
    ValidationLevel,
};
use hpfc::{compile, CompileOptions, ExecConfig, ExecResult};
use proptest::prelude::*;

/// One generated program: a layout family, 2–4 member arrays, and two
/// distinct distribution formats (initial, redistributed).
#[derive(Debug, Clone)]
struct Gen {
    layout: usize,
    n_arrays: usize,
    f0: usize,
    f1: usize,
}

/// Format menus per layout family. All block sizes satisfy
/// `b × P ≥ extent` for their template, so every combination is valid.
fn formats(layout: usize) -> &'static [&'static str] {
    match layout {
        // t(40) onto p(4), arrays strided/offset-aligned into it.
        0 => &["block", "cyclic", "cyclic(2)", "cyclic(3)", "block(11)"],
        // t(16) onto p(4), identity alignment.
        1 => &["block", "cyclic", "cyclic(2)", "cyclic(3)", "block(5)"],
        // 2-D t(8,8) onto q(2,2): format pairs.
        2 => &["block, block", "cyclic, block", "block, cyclic", "cyclic, cyclic(2)", "cyclic(3), block"],
        // t(16,4) onto q(2,2): arrays replicated along the second axis.
        3 => &["block, block", "cyclic, block", "cyclic(2), block", "block(9), cyclic", "cyclic(3), cyclic"],
        _ => unreachable!(),
    }
}

/// Per-array alignment clause for the heterogeneous-stride family.
fn align_clause(layout: usize, k: usize, name: &str) -> String {
    match layout {
        0 => {
            // Distinct affine images into t(40) per member.
            let spec = ["t(2*i)", "t(i + 3)", "t(2*i + 1)", "t(i + 17)"][k];
            format!("!hpf$ align {name}(i) with {spec}\n")
        }
        3 => format!("!hpf$ align {name}(i) with t(i, *)\n"),
        _ => unreachable!("identity-aligned layouts use a collective clause"),
    }
}

fn render(g: &Gen) -> String {
    let f = formats(g.layout);
    let (f0, f1) = (f[g.f0], f[g.f1]);
    let names: Vec<String> = (0..g.n_arrays).map(|k| format!("a{k}")).collect();
    let mut s = String::from("subroutine pgrp\n");
    let decl = match g.layout {
        2 => names.iter().map(|n| format!("{n}(8, 8)")).collect::<Vec<_>>().join(", "),
        _ => names.iter().map(|n| format!("{n}(16)")).collect::<Vec<_>>().join(", "),
    };
    s.push_str(&format!("  real :: {decl}\n"));
    match g.layout {
        0 => {
            s.push_str("!hpf$ processors p(4)\n!hpf$ template t(40)\n!hpf$ dynamic t\n");
            for (k, n) in names.iter().enumerate() {
                s.push_str(&align_clause(0, k, n));
            }
            s.push_str(&format!("!hpf$ distribute t({f0}) onto p\n"));
        }
        1 => {
            s.push_str("!hpf$ processors p(4)\n!hpf$ template t(16)\n!hpf$ dynamic t\n");
            s.push_str(&format!("!hpf$ align with t :: {}\n", names.join(", ")));
            s.push_str(&format!("!hpf$ distribute t({f0}) onto p\n"));
        }
        2 => {
            s.push_str("!hpf$ processors q(2, 2)\n!hpf$ template t(8, 8)\n!hpf$ dynamic t\n");
            s.push_str(&format!("!hpf$ align with t :: {}\n", names.join(", ")));
            s.push_str(&format!("!hpf$ distribute t({f0}) onto q\n"));
        }
        3 => {
            s.push_str("!hpf$ processors q(2, 2)\n!hpf$ template t(16, 4)\n!hpf$ dynamic t\n");
            for n in &names {
                s.push_str(&align_clause(3, 0, n));
            }
            s.push_str(&format!("!hpf$ distribute t({f0}) onto q\n"));
        }
        _ => unreachable!(),
    }
    // Position-dependent init per array, so misrouted or permuted
    // elements cannot pass the oracle.
    for (k, n) in names.iter().enumerate() {
        if g.layout == 2 {
            s.push_str(&format!(
                "  do i = 1, 8\n    do j = 1, 8\n      {n}(i, j) = i * 10.0 + j + {}\n    enddo\n  enddo\n",
                100 * (k + 1)
            ));
        } else {
            s.push_str(&format!(
                "  do i = 1, 16\n    {n}(i) = i + {}\n  enddo\n",
                100 * (k + 1)
            ));
        }
    }
    s.push_str(&format!("!hpf$ redistribute t({f1})\n"));
    // Read every array after the directive so nothing is removable.
    let reads: Vec<String> = names
        .iter()
        .map(|n| if g.layout == 2 { format!("{n}(1, 2)") } else { format!("{n}(2)") })
        .collect();
    s.push_str(&format!("  x = {}\n", reads.join(" + ")));
    s.push_str("end subroutine\n");
    s
}

/// Expected dense contents per array, matching the init loops.
fn oracle(g: &Gen, k: usize) -> Vec<f64> {
    if g.layout == 2 {
        (0..8u64)
            .flat_map(|i| {
                (0..8u64).map(move |j| (i + 1) as f64 * 10.0 + (j + 1) as f64 + (100 * (k + 1)) as f64)
            })
            .collect()
    } else {
        (0..16u64).map(|i| (i + 1) as f64 + (100 * (k + 1)) as f64).collect()
    }
}

fn find_group(body: &[SStmt]) -> Option<&RemapGroupOp> {
    body.iter().find_map(|s| match s {
        SStmt::RemapGroup(op) => Some(op),
        _ => None,
    })
}

fn run(compiled: &hpfc::Compiled) -> ExecResult {
    let programs = compiled.programs();
    let nprocs = programs.values().map(|p| p.nprocs).max().unwrap();
    let mut ex = hpfc::Executor {
        programs: &programs,
        machine: hpfc::Machine::new(nprocs),
        config: ExecConfig::default(),
    };
    ex.run("pgrp").expect("pgrp executes cleanly")
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    (0usize..4, 2usize..5, 0usize..5, 0usize..4).prop_map(|(layout, n_arrays, f0, d)| {
        // Two distinct formats: the directive must actually change the
        // mapping so every member moves data.
        let f1 = (f0 + 1 + d) % 5;
        Gen { layout, n_arrays, f0, f1 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grouped_directives_coalesce_exactly(g in gen_strategy()) {
        let src = render(&g);
        let naive = compile(&src, &CompileOptions::naive())
            .unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        let p = &naive.units["pgrp"].program;

        // --- static shape: one group, all arrays members, one planned
        // source each.
        let op = find_group(&p.body).unwrap_or_else(|| panic!("no remap group\n{src}"));
        prop_assert_eq!(op.members.len(), g.n_arrays, "all arrays grouped\n{}", src);
        for m in &op.members {
            prop_assert_eq!(m.copies.len(), 1, "single reaching source\n{}", src);
        }
        let sched = &op.planned.schedule;
        // Merged rounds never exceed the solo sum; payload is the sum.
        prop_assert!(sched.n_rounds() <= op.planned.solo_rounds());
        let member_bytes: u64 =
            op.members.iter().map(|m| m.copies[0].planned.plan.total_bytes()).sum();
        let member_msgs: u64 =
            op.members.iter().map(|m| m.copies[0].planned.plan.total_messages()).sum();
        prop_assert_eq!(sched.total_bytes(), member_bytes, "{}", src);
        let moved_bytes: u64 = op
            .members
            .iter()
            .map(|m| {
                let plan = &m.copies[0].planned.plan;
                (plan.local_elements + plan.remote_elements()) * plan.elem_size
            })
            .sum();

        // --- contention-freedom of the merged rounds: per round every
        // processor sends at most one and receives at most one
        // coalesced wire message.
        for r in 0..sched.n_rounds() {
            let mut sends: BTreeMap<u64, u64> = BTreeMap::new();
            let mut recvs: BTreeMap<u64, u64> = BTreeMap::new();
            for (from, to, bytes) in sched.round_triples(r) {
                prop_assert!(bytes > 0);
                *sends.entry(from).or_insert(0) += 1;
                *recvs.entry(to).or_insert(0) += 1;
            }
            prop_assert!(sends.values().all(|&c| c <= 1), "round {} sender contention\n{}", r, src);
            prop_assert!(recvs.values().all(|&c| c <= 1), "round {} receiver contention\n{}", r, src);
        }

        // --- every member's compiled units of merged wire round `r` are
        // that member's messages of round `r`, element for element, and
        // each message's descriptors (read from its member plan, as the
        // renderer reads them) multiply to its element count.
        let program = op.planned.program.as_ref().expect("grouped members compile");
        prop_assert_eq!(program.n_rounds, sched.n_rounds());
        for (k, member) in program.members.iter().enumerate() {
            prop_assert_eq!(member.rounds.len(), sched.n_rounds());
            for (r, units) in member.rounds.iter().enumerate() {
                let mut want: BTreeMap<(u64, u64), u64> = BTreeMap::new();
                for m in sched.rounds[r].iter().map(|&i| &sched.messages[i]) {
                    if m.member == k {
                        *want.entry((m.from, m.to)).or_insert(0) += m.elements;
                    }
                }
                let mut got: BTreeMap<(u64, u64), u64> = BTreeMap::new();
                for u in units {
                    *got.entry((u.provider, u.receiver)).or_insert(0) += u.elements;
                }
                prop_assert_eq!(got, want, "member {} round {}\n{}", k, r, src);
            }
        }
        for m in &sched.messages {
            let plan = &op.planned.members[m.member].plan;
            let dims = plan.pair_dims(m.from, m.to).expect("planned pairs have descriptors");
            let count: u64 = dims.map(|e| e.src_set.intersect_count(&e.dst_set)).product();
            prop_assert_eq!(count, m.elements, "{}", src);
        }

        // --- execute.
        let res = run(&naive);
        for k in 0..g.n_arrays {
            let want = oracle(&g, k);
            prop_assert_eq!(&res.arrays[&format!("a{k}")], &want, "values of a{}\n{}", k, src);
        }
        prop_assert_eq!(res.stats.plans_computed, 0, "planned\n{}", src);
        prop_assert_eq!(res.stats.remap_groups_coalesced, 1, "{}", src);
        prop_assert_eq!(res.stats.remaps_performed, g.n_arrays as u64, "{}", src);
        // Exact traffic: coalesced wire bytes == sum of member
        // plans; engine wrote every member's (local + remote).
        prop_assert_eq!(res.stats.bytes, member_bytes, "wire bytes\n{}", src);
        prop_assert_eq!(res.stats.messages, sched.n_wire_messages(), "{}", src);
        prop_assert_eq!(res.stats.bytes_moved, moved_bytes, "moved\n{}", src);

        // --- the ungrouped baseline: same values, same payload, one
        // solo schedule per array (>= as many wire messages).
        let solo = compile(&src, &CompileOptions::naive().ungrouped())
            .unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        prop_assert!(find_group(&solo.units["pgrp"].program.body).is_none());
        let solo_res = run(&solo);
        for k in 0..g.n_arrays {
            prop_assert_eq!(
                &solo_res.arrays[&format!("a{k}")], &oracle(&g, k),
                "ungrouped values of a{}\n{}", k, src
            );
        }
        prop_assert_eq!(solo_res.stats.bytes, member_bytes, "{}", src);
        prop_assert_eq!(solo_res.stats.messages, member_msgs, "{}", src);
        prop_assert!(solo_res.stats.messages >= run(&naive).stats.messages);
        prop_assert_eq!(solo_res.stats.plans_computed, 0, "{}", src);

        // --- optimized compilation agrees on values.
        let opt = compile(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        let opt_res = run(&opt);
        for k in 0..g.n_arrays {
            prop_assert_eq!(
                &opt_res.arrays[&format!("a{k}")], &oracle(&g, k),
                "optimized values of a{}\n{}", k, src
            );
        }
        prop_assert!(opt_res.stats.bytes <= solo_res.stats.bytes, "opt traffic grew\n{}", src);
    }
}

/// Bounce `count` arrays of extent `n` over `p` processors between
/// BLOCK and `other` as ONE remap group — there and back — and check
/// every array against its per-point oracle after each hop.
fn bounce_group(count: usize, n: u64, p: u64, other: DimFormat, machine: &mut hpfc::Machine) {
    let v0 = mapping_1d(n, p, DimFormat::Block(None));
    let v1 = mapping_1d(n, p, other);
    let init = |k: usize| move |pt: &[u64]| (k as u64 * n + pt[0]) as f64 + 0.5;
    let mut rts: Vec<ArrayRt> = (0..count)
        .map(|k| ArrayRt::new(format!("a{k}"), vec![v0.clone(), v1.clone()], 8))
        .collect();
    for (k, rt) in rts.iter_mut().enumerate() {
        rt.current(machine, 0).fill(init(k));
    }
    let solo = |s, d| Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)));
    let (fwd, back) = (solo(&v0, &v1), solo(&v1, &v0));
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    for (src, target, member) in [(0u32, 1u32, &fwd), (1, 0, &back)] {
        let planned = PlannedGroup::compile(vec![Arc::clone(member); count]);
        let mut members: Vec<GroupMember<'_>> = rts
            .iter_mut()
            .map(|rt| GroupMember { rt, src, target, may_live: &keep, skip_if_current: &skip })
            .collect();
        let moved = try_remap_group(machine, &mut members, &planned);
        assert_eq!(moved, Ok(count), "all {count} members move coalesced, {src} -> {target}");
        for (k, rt) in rts.iter_mut().enumerate() {
            assert_eq!(rt.status, Some(target));
            let dense = rt.copies[target as usize].as_ref().expect("target is allocated").to_dense();
            let wrong = (0..n).find(|&i| dense[i as usize] != init(k)(&[i]));
            assert_eq!(wrong, None, "a{k} diverged from the oracle after {src} -> {target}");
            // Stale the copy left behind, so the way back moves data.
            let here = rt.get(&[0]);
            rt.set(&[0], here);
        }
    }
}

/// More members than the old 64-bit mover mask had bits: the runtime
/// keeps no mask, so 65 members coalesce — unguarded, and guarded
/// (where the per-member rollback capture used to shift `1 << 64`).
#[test]
fn sixty_five_members_coalesce_guarded_and_unguarded() {
    for validation in [ValidationLevel::Off, ValidationLevel::Counts] {
        let mut machine = hpfc::Machine::new(4).with_validation(validation);
        bounce_group(65, 16, 4, DimFormat::Cyclic(None), &mut machine);
        assert_eq!(machine.stats.remap_groups_coalesced, 2, "{validation:?}");
        assert_eq!(machine.stats.remaps_performed, 2 * 65, "{validation:?}");
    }
}

/// Per-rank blocks of 2^18 elements are eight tiles of the serial walk:
/// unguarded group replay takes each lane's tiled, blocked order
/// (gather on the way out, scatter on the way back) and must agree with
/// the oracle.
#[test]
fn multi_tile_blocks_replay_identically_in_a_group() {
    let mut machine = hpfc::Machine::new(4);
    bounce_group(2, 1 << 20, 4, DimFormat::Cyclic(None), &mut machine);
    assert_eq!(machine.stats.remap_groups_coalesced, 2);
}
