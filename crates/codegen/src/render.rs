//! Pretty-printing of the static program, including the Fig. 19/20-style
//! guarded copy code for each remapping — with every copy lowered to
//! message-granularity SPMD: per (sender, receiver) pair a pack loop
//! over the periodic intersection runs, one contiguous send/recv with a
//! closed-form byte count, and the mirror unpack loop, ordered into
//! contention-free caterpillar rounds. The schedule says who sends how
//! much to whom in which round; the loops read the pair's descriptors
//! from the message's plan (`RedistPlan::pair_dims`).

use std::collections::BTreeSet;

use crate::ir::{RemapGroupOp, RemapOp, RestoreOp, SStmt, SpmdCopy, StaticProgram};
use hpfc_lang::pretty::expr_to_string;
use hpfc_runtime::{PackedMessage, RedistPlan};

/// Fig. 20: the runtime copy code of one remapping, as the paper's code
/// generation phase would emit it — except that each guarded copy arm is
/// message-level SPMD code (packed send/recv loops driven by the
/// planner's periodic interval descriptors), not a whole-array copy
/// statement.
///
/// ```text
/// if (status_a /= 2) then
///   allocate a_2 if needed
///   if (.not. live_a(2)) then
///     if (status_a == 0) then    ! a_0 -> a_2: N messages, B bytes, R rounds
///       <per-pair packed send/recv loops>
///     endif
///     live_a(2) = .true.
///   endif
///   status_a = 2
/// endif
/// ```
pub fn remap_text(p: &StaticProgram, op: &RemapOp) -> String {
    let name = &p.array(op.array).name;
    let t = op.target;
    let mut s = String::new();
    s.push_str(&format!("if (status_{name} /= {t}) then\n"));
    s.push_str(&format!("  allocate {name}_{t} if needed\n"));
    s.push_str(&format!("  if (.not. live_{name}({t})) then\n"));
    if op.no_data {
        s.push_str("    ! values dead or fully redefined: no copy\n");
    } else {
        for copy in &op.copies {
            s.push_str(&spmd_copy_text(name, t, copy, 4));
        }
    }
    s.push_str(&format!("    live_{name}({t}) = .true.\n"));
    s.push_str("  endif\n");
    s.push_str(&format!("  status_{name} = {t}\n"));
    s.push_str("endif\n");
    s.push_str(&cleaning_text(p, op));
    s
}

/// Fig. 19's second loop: free every copy outside the target and the
/// may-live set.
fn cleaning_text(p: &StaticProgram, op: &RemapOp) -> String {
    let name = &p.array(op.array).name;
    let mut s = String::new();
    for v in 0..p.array(op.array).versions.len() as u32 {
        if v != op.target && !op.may_live.contains(&v) {
            s.push_str(&format!(
                "if (live_{name}({v})) then\n  free {name}_{v}\n  live_{name}({v}) = .false.\nendif\n"
            ));
        }
    }
    s
}

/// A Fig. 3 remap group as message-level SPMD pseudo-code: the
/// all-members-move guard (the steady-state fast path), then the
/// **merged** caterpillar rounds — per round, one coalesced wire
/// message per communicating pair whose parts are the member arrays'
/// packed loops. The solo back-to-back per-array remap texts are gone.
/// At run time, members that would not move data are *masked out* of
/// the coalesced buffers (the `else` arm's note); only below two
/// movers does the group degrade to solo guarded remaps — the same
/// compiled plans either way.
pub fn remap_group_text(p: &StaticProgram, op: &RemapGroupOp) -> String {
    let sched = &op.planned.schedule;
    let member_name = |i: usize| &p.array(op.members[i].array).name;
    let arrow = |i: usize| {
        let m = &op.members[i];
        format!("{n}_{s} -> {n}_{t}", n = member_name(i), s = m.copies[0].src, t = m.target)
    };
    let mut s = String::new();
    let list: Vec<String> = (0..op.members.len()).map(arrow).collect();
    s.push_str(&format!(
        "! remap group (one directive, {} arrays): {}\n",
        op.members.len(),
        list.join(", ")
    ));
    s.push_str(&format!(
        "! merged schedule: {} wire message(s), {} byte(s), {} round(s) (solo sum: {} round(s))\n",
        sched.n_wire_messages(),
        sched.total_bytes(),
        sched.n_rounds(),
        op.planned.solo_rounds(),
    ));
    let guard: Vec<String> = op
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            format!(
                "status_{n} == {s} .and. .not. live_{n}({t})",
                n = member_name(i),
                s = m.copies[0].src,
                t = m.target
            )
        })
        .collect();
    s.push_str(&format!("if ({}) then  ! coalesced bounce\n", guard.join(" .and. ")));
    let allocs: Vec<String> = op
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| format!("{}_{}", member_name(i), m.target))
        .collect();
    s.push_str(&format!("  allocate {} if needed\n", allocs.join(", ")));
    for (i, m) in op.members.iter().enumerate() {
        let local = m.copies[0].schedule().local_elements;
        if local > 0 {
            s.push_str(&format!(
                "  copy local runs {n}_{src} \u{2229} {n}_{t} across ranks \
                 ({local} element(s) total, no communication)\n",
                n = member_name(i),
                src = m.copies[0].src,
                t = m.target,
            ));
        }
    }
    for (round_no, round) in sched.rounds.iter().enumerate() {
        s.push_str(&format!("  round {}:\n", round_no + 1));
        // Adjacent same-pair messages of a round are one wire buffer.
        let mut k = 0usize;
        while k < round.len() {
            let first = &sched.messages[round[k]];
            let (from, to) = (first.from, first.to);
            let mut end = k + 1;
            while end < round.len()
                && sched.messages[round[end]].from == from
                && sched.messages[round[end]].to == to
            {
                end += 1;
            }
            let elements: u64 =
                round[k..end].iter().map(|&mi| sched.messages[mi].elements).sum();
            s.push_str(&format!(
                "    p{from} -> p{to}: {elements} element(s), {} byte(s), one buffer \
                 coalescing {} message(s)\n",
                elements * sched.elem_size,
                end - k,
            ));
            for &mi in &round[k..end] {
                let m = &sched.messages[mi];
                s.push_str(&format!("      part {}:\n", arrow(m.member)));
                s.push_str(&message_text(
                    member_name(m.member),
                    op.members[m.member].copies[0].src,
                    op.members[m.member].target,
                    m,
                    &op.planned.members[m.member].plan,
                    8,
                ));
            }
            k = end;
        }
    }
    for (i, m) in op.members.iter().enumerate() {
        s.push_str(&format!(
            "  live_{n}({t}) = .true.; status_{n} = {t}\n",
            n = member_name(i),
            t = m.target
        ));
    }
    s.push_str("else\n");
    s.push_str(
        "  ! partial group: non-moving members drop out of the coalesced buffers \
         (their wire parts are masked); below two movers every member runs its \
         solo guarded remap (same compiled plans, Fig. 20)\n",
    );
    s.push_str("endif\n");
    for m in &op.members {
        s.push_str(&cleaning_text(p, m));
    }
    s
}

/// Fig. 18, statically lowered: the flow-dependent restore as a switch
/// on the saved status tag. Each arm is a full Fig. 20 guarded remap to
/// one statically possible version, with its own compile-time-planned
/// packed send/recv loops — the restore carries no opaque "remap at run
/// time" step anywhere.
///
/// ```text
/// if (reaching_0 == 0) then  ! restore a -> a_0
///   if (status_a /= 0) then
///     allocate a_0 if needed
///     if (.not. live_a(0)) then
///       if (status_a == 2) then    ! a_2 -> a_0: N messages, B bytes, R rounds
///         <per-pair packed send/recv loops>
///       endif
///       live_a(0) = .true.
///     endif
///     status_a = 0
///   endif
///   <cleaning>
/// elif (reaching_0 == 1) then  ! restore a -> a_1
///   ...
/// endif
/// ```
pub fn restore_text(p: &StaticProgram, op: &RestoreOp) -> String {
    let name = &p.array(op.array).name;
    let mut s = String::new();
    let mut first = true;
    for arm in &op.arms {
        let kw = if first { "if" } else { "elif" };
        first = false;
        s.push_str(&format!(
            "{kw} (reaching_{} == {t}) then  ! restore {name} -> {name}_{t}\n",
            op.slot,
            t = arm.target
        ));
        // Each arm is an ordinary guarded remap to its tag's version.
        let body = remap_text(
            p,
            &RemapOp {
                array: op.array,
                target: arm.target,
                reaching: op.reaching.clone(),
                may_live: op.may_live.clone(),
                no_data: op.no_data,
                skip_if_current: BTreeSet::new(),
                copies: arm.copies.clone(),
            },
        );
        for line in body.lines() {
            s.push_str(&format!("  {line}\n"));
        }
    }
    s.push_str("endif\n");
    s
}

/// One guarded copy arm as message-level SPMD pseudo-code: the header
/// comment summarizes the schedule, then local runs, then one block per
/// caterpillar round with every pair's packed send/recv loops.
pub fn spmd_copy_text(name: &str, target: u32, copy: &SpmdCopy, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let sched = copy.schedule();
    let plan = &copy.planned.plan;
    let r = copy.src;
    let mut s = String::new();
    s.push_str(&format!(
        "{pad}if (status_{name} == {r}) then  ! {name}_{r} -> {name}_{target}: \
         {} message(s), {} byte(s), {} round(s)\n",
        sched.messages.len(),
        sched.total_bytes(),
        sched.n_rounds(),
    ));
    if sched.local_elements > 0 {
        s.push_str(&format!(
            "{pad}  copy local runs {name}_{r} ∩ {name}_{target} across ranks \
             ({} element(s) total, no communication)\n",
            sched.local_elements
        ));
    }
    for (round_no, round) in sched.rounds.iter().enumerate() {
        s.push_str(&format!("{pad}  round {}:\n", round_no + 1));
        for &mi in round {
            s.push_str(&message_text(name, r, target, &sched.messages[mi], plan, indent + 4));
        }
    }
    s.push_str(&format!("{pad}endif\n"));
    s
}

/// One packed point-to-point message: sender-side pack loop over the
/// periodic intersection runs of the pair's descriptors in `plan` (the
/// message's plan, which also gives the element size), a single
/// contiguous send with its closed-form byte count, the matching recv,
/// and the receiver-side unpack loop. Local buffer positions are closed-form
/// (`pos_v(g)` = owned indices of version `v` below `g`, i.e.
/// `PeriodicSet::count_below`), so the loops are guard-free.
fn message_text(
    name: &str,
    src: u32,
    dst: u32,
    m: &PackedMessage,
    plan: &RedistPlan,
    indent: usize,
) -> String {
    let pad = " ".repeat(indent);
    let bytes = m.bytes(plan.elem_size);
    let mut s = String::new();
    s.push_str(&format!(
        "{pad}p{} -> p{}: {} element(s), {} byte(s)\n",
        m.from, m.to, m.elements, bytes
    ));
    let Some(dims) = plan.pair_dims(m.from, m.to) else {
        // Oracle-built plan: sized message, no loop structure.
        s.push_str(&format!("{pad}  send/recv opaque buffer ({bytes} bytes)\n"));
        return s;
    };
    let rank = dims.len();
    let last = rank - 1;
    // Loop headers: outer dimensions walk runs element by element, the
    // innermost dimension moves whole runs.
    let mut depth = indent + 2;
    let mut lines_open: Vec<String> = Vec::new();
    for (d, dim) in dims.enumerate() {
        let pad_d = " ".repeat(depth);
        lines_open.push(format!(
            "{pad_d}do (lo{d}, hi{d}) in runs(d{d}: {} ∩ {})\n",
            dim.src_set, dim.dst_set
        ));
        depth += 2;
        if d < last {
            let pad_i = " ".repeat(depth);
            lines_open.push(format!("{pad_i}do i{d} = lo{d}, hi{d}-1\n"));
            depth += 2;
        }
    }
    let body_pad = " ".repeat(depth);
    let outer: Vec<String> = (0..last).map(|d| format!("i{d}, ")).collect();
    let outer = outer.concat();
    // Sender side.
    s.push_str(&format!("{pad}  on p{}:  ! pack\n", m.from));
    s.push_str(&format!("{pad}    k = 0\n"));
    for l in &lines_open {
        // Shift loop headers two deeper than the `on pX:` line.
        s.push_str(&format!("  {l}"));
    }
    s.push_str(&format!(
        "  {body_pad}sbuf(k : k+hi{last}-lo{last}) = \
         {name}_{src}(pos_{src}({outer}lo{last}) : pos_{src}({outer}hi{last})); \
         k += hi{last}-lo{last}\n"
    ));
    s.push_str(&format!("{pad}    send sbuf(0:{}) -> p{}  ! {} bytes\n", m.elements, m.to, bytes));
    // Receiver side.
    s.push_str(&format!("{pad}  on p{}:  ! unpack\n", m.to));
    s.push_str(&format!("{pad}    recv rbuf(0:{}) <- p{}  ! {} bytes\n", m.elements, m.from, bytes));
    s.push_str(&format!("{pad}    k = 0\n"));
    for l in &lines_open {
        s.push_str(&format!("  {l}"));
    }
    s.push_str(&format!(
        "  {body_pad}{name}_{dst}(pos_{dst}({outer}lo{last}) : pos_{dst}({outer}hi{last})) = \
         rbuf(k : k+hi{last}-lo{last}); k += hi{last}-lo{last}\n"
    ));
    s
}

/// Whole-program listing.
pub fn program_text(p: &StaticProgram) -> String {
    let mut s = format!("! static program for `{}` on {} processors\n", p.routine, p.nprocs);
    for a in &p.arrays {
        s.push_str(&format!(
            "! array {}: {} version(s){}\n",
            a.name,
            a.versions.len(),
            if a.is_dummy { " (dummy)" } else { "" }
        ));
        for (i, v) in a.versions.iter().enumerate() {
            s.push_str(&format!("!   {}_{i}: {v}\n", a.name));
        }
    }
    body_text(p, &p.body, 0, &mut s);
    s.push_str("! exit block\n");
    body_text(p, &p.exit_block, 0, &mut s);
    s
}

fn body_text(p: &StaticProgram, body: &[SStmt], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for s in body {
        match s {
            SStmt::Assign { lhs, rhs, .. } => {
                let subs = if lhs.subs.is_empty() {
                    String::new()
                } else {
                    format!(
                        "({})",
                        lhs.subs.iter().map(expr_to_string).collect::<Vec<_>>().join(", ")
                    )
                };
                out.push_str(&format!("{pad}{}{subs} = {}\n", lhs.name, expr_to_string(rhs)));
            }
            SStmt::If { cond, then_body, else_body, .. } => {
                out.push_str(&format!("{pad}if ({}) then\n", expr_to_string(cond)));
                body_text(p, then_body, depth + 1, out);
                if !else_body.is_empty() {
                    out.push_str(&format!("{pad}else\n"));
                    body_text(p, else_body, depth + 1, out);
                }
                out.push_str(&format!("{pad}endif\n"));
            }
            SStmt::Do { var, lo, hi, step, body, .. } => {
                let st = step
                    .as_ref()
                    .map(|e| format!(", {}", expr_to_string(e)))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{pad}do {var} = {}, {}{st}\n",
                    expr_to_string(lo),
                    expr_to_string(hi)
                ));
                body_text(p, body, depth + 1, out);
                out.push_str(&format!("{pad}enddo\n"));
            }
            SStmt::Call { name, args, .. } => {
                out.push_str(&format!(
                    "{pad}call {name}({})\n",
                    args.iter().map(expr_to_string).collect::<Vec<_>>().join(", ")
                ));
            }
            SStmt::Remap(op) => {
                for line in remap_text(p, op).lines() {
                    out.push_str(&format!("{pad}{line}\n"));
                }
            }
            SStmt::RemapGroup(op) => {
                for line in remap_group_text(p, op).lines() {
                    out.push_str(&format!("{pad}{line}\n"));
                }
            }
            SStmt::SaveStatus { array, slot } => {
                out.push_str(&format!(
                    "{pad}reaching_{slot} = status_{}\n",
                    p.array(*array).name
                ));
            }
            SStmt::RestoreStatus(op) => {
                for line in restore_text(p, op).lines() {
                    out.push_str(&format!("{pad}{line}\n"));
                }
            }
            SStmt::Return => out.push_str(&format!("{pad}return\n")),
            SStmt::ExitCleanup => out.push_str(&format!("{pad}! exit: free local copies\n")),
        }
    }
}
