//! Directive-level remap groups: several arrays remapped by **one**
//! directive, moved over **one** aggregated caterpillar schedule.
//!
//! When a `distribute`/`align` directive hits a template, *every* array
//! aligned to it remaps at the same program vertex (the paper's Fig. 3
//! template-impact situation). Scheduled independently, each array pays
//! the full per-pair round latency on the same processor pairs, N times
//! over. A [`PlannedGroup`] instead merges the member plans' messages:
//! same-pair messages share a caterpillar round and a wire buffer
//! ([`CommSchedule::from_plans`]), so the group's makespan is one round
//! sweep — never more rounds than the members' solo sum, and strictly
//! fewer whenever two members talk over the same pairs.
//!
//! [`remap_group`] is the executable form: it checks, per member, that
//! the exact compile-time-planned copy is the one the runtime would
//! perform (current status is the planned source, target copy not
//! live). Members that would not move data (status noop, live-copy
//! reuse, partial-impact skip, first instantiation) are executed as
//! ordinary [`ArrayRt::remap_guarded`] no-ops and **masked out** of the
//! accounting — the coalesced wire buffers simply shrink — while the
//! remaining movers are costed over the merged rounds
//! ([`CommSchedule::round_triples_masked`]) and replayed round by round
//! from the group's compiled [`GroupCopyProgram`]. The replay is
//! allocation-free in steady state (same contract as a solo cached
//! remap) and safe under [`ExecMode::Parallel`]: within a merged round,
//! every receiving *block* is written by exactly one unit — receivers
//! are distinct per member, and different members write different
//! arrays' storage.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::exec::{flip_unit_word, pair_round_units, replay_chunked, replay_unit,
                  round_goes_inline, unit_n_runs, unit_sum, CopyProgram, CopyUnit, ExecMode,
                  GroupCopyProgram, PairedUnit};
use crate::fault::{poison_program, run_round_ladder, ExecError, FaultKind, RoundCtx,
                   RoundFailure, ValidationLevel};
use crate::machine::Machine;
use crate::redist::RedistPlan;
use crate::schedule::CommSchedule;
use crate::status::{ArrayRt, PlannedRemap};
use crate::store::VersionData;

/// The compile-time artifact of one directive's remap group: the
/// members' solo plans (shared `Arc`s with each member's own
/// [`PlannedRemap`], so nothing is planned twice), their messages
/// merged into one aggregated caterpillar schedule, and the group copy
/// program that replays every member's units round by round.
#[derive(Debug, Clone)]
pub struct PlannedGroup {
    /// The member remaps, in group order (one per array, each with its
    /// own plan + solo schedule + solo program — the fallback path).
    pub members: Vec<Arc<PlannedRemap>>,
    /// The merged schedule: all members' same-pair messages share
    /// rounds and wire buffers.
    pub schedule: CommSchedule,
    /// The group replay program, round-aligned to `schedule`. `None`
    /// when some member cannot drive a compiled program — the group
    /// then always falls back to solo remaps.
    pub program: Option<GroupCopyProgram>,
}

impl PlannedGroup {
    /// Merge the members' plans into the aggregated schedule and
    /// compile the group program. The members' plans are borrowed, not
    /// replanned.
    pub fn compile(members: Vec<Arc<PlannedRemap>>) -> PlannedGroup {
        let plans: Vec<&RedistPlan> = members.iter().map(|m| &m.plan).collect();
        let schedule = CommSchedule::from_plans(&plans);
        let program = GroupCopyProgram::try_compile(&plans, &schedule);
        PlannedGroup { members, schedule, program }
    }

    /// Sum of the members' *solo* round counts — what the same remaps
    /// would cost in rounds if scheduled one array at a time. The
    /// merged schedule has `schedule.n_rounds() <=` this, strictly less
    /// whenever members share processor pairs.
    pub fn solo_rounds(&self) -> usize {
        self.members.iter().map(|m| m.schedule.n_rounds()).sum()
    }
}

/// One member's runtime binding for [`remap_group`]: the array's
/// runtime descriptor plus the compile-time facts of its remap op
/// (single planned source, target, liveness sets — the fields of
/// `hpfc-codegen`'s `RemapOp` the runtime needs).
pub struct GroupMember<'a> {
    /// The array's runtime state.
    pub rt: &'a mut ArrayRt,
    /// The single compile-time-planned source version of this member's
    /// copy.
    pub src: u32,
    /// Target version.
    pub target: u32,
    /// Copies to keep alive past the remap (`M_A(v)`).
    pub may_live: &'a BTreeSet<u32>,
    /// Partial-impact guard: statuses under which this member skips.
    pub skip_if_current: &'a BTreeSet<u32>,
}

impl<'a> GroupMember<'a> {
    /// Would this member, right now, perform exactly its planned copy
    /// (source → target data movement)? Everything else — status noop,
    /// live-copy reuse, partial-impact skip, first instantiation —
    /// moves no data and is handled by the ordinary remap path.
    fn moves_data(&self) -> bool {
        self.rt.status == Some(self.src)
            && !self.rt.live[self.target as usize]
            && !self.skip_if_current.contains(&self.src)
    }
}

/// Execute one directive's remap group.
///
/// Members whose state matches their compile-time-planned copy are
/// moved **coalesced**: one masked accounting sweep over the merged
/// caterpillar rounds (each communicating pair pays one latency per
/// round, not one per array), one round-by-round replay of the group
/// copy program. All other members (and every member, if fewer than two
/// would move data or the group has no compiled program) go through
/// [`ArrayRt::remap_guarded`] — with their solo plan seeded into the
/// array's cache first, so even the fallback never plans at run time.
///
/// `members` must be in group order (matching `planned.members`).
/// Groups larger than 64 members never coalesce (the mover mask is a
/// `u64`); lowering emits groups of at most 64, so lowered programs
/// never hit that fallback. Returns the number of members that moved
/// through the coalesced path (0 when the group fell back entirely).
pub fn remap_group(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
) -> usize {
    match try_remap_group(machine, members, planned) {
        Ok(n) => n,
        Err(e) => panic!("remap group: {e}"),
    }
}

/// [`remap_group`] returning a typed [`ExecError`] instead of
/// panicking: a member-count mismatch with the planned group and any
/// unrecoverable member remap surface as errors. With faults or
/// validation configured on the machine, the coalesced replay runs
/// through the same recovery ladder as a solo remap (retry failed
/// rounds → recompile the group program → per-member table-engine
/// fallback), with worker panics degrading the round to serial.
///
/// **Atomic** (`HPFC_TXN`, default on): the group commits all members
/// or none. On the guarded path a rollback record is captured per
/// member before anything executes, liveness cleaning is deferred until
/// every member committed (cleaning frees copies a rollback could not
/// restore), and any member's terminal error rolls *every* member —
/// already-replayed siblings included — back to its byte-identical
/// pre-group state before the error surfaces
/// (`NetStats::group_rollbacks`).
pub fn try_remap_group(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
) -> Result<usize, ExecError> {
    if members.len() != planned.members.len() {
        return Err(ExecError::GroupMismatch {
            planned: planned.members.len(),
            got: members.len(),
        });
    }
    // Seed every member's solo plan (a no-op when already present),
    // publishing through the machine's shared registry so sessions
    // executing the same group converge on one artifact per member:
    // whichever path executes below, nothing plans at run time.
    for (i, m) in members.iter_mut().enumerate() {
        m.rt.seed_plan_shared(machine, m.src, m.target, Arc::clone(&planned.members[i]));
    }
    let mut mask = 0u64;
    let mut movers = 0usize;
    if planned.program.is_some() && members.len() <= 64 {
        for (i, m) in members.iter().enumerate() {
            if m.moves_data() {
                mask |= 1 << i;
                movers += 1;
            }
        }
    }
    if movers < 2 {
        // The members fall back to solo remaps, whose write sets the
        // group program does not describe: capture full blocks instead.
        mask = 0;
    }
    let guarded = machine.faults.is_some() || machine.validation != ValidationLevel::Off;
    let armed = machine.txn && guarded;
    // Phase 1 (guarded path only): capture every member's rollback
    // record before anything executes. Movers are bounded by their
    // member program's destination runs; everyone else saves full
    // destination blocks (their remaps are no-ops or solo fallbacks).
    let mut snaps = std::mem::take(&mut machine.group_txn_scratch);
    if armed {
        if snaps.len() < members.len() {
            snaps.resize_with(members.len(), Default::default);
        }
        for (i, m) in members.iter().enumerate() {
            let program = if mask & (1 << i) != 0 {
                planned.program.as_ref().map(|g| &g.members[i])
            } else {
                None
            };
            snaps[i].capture(
                m.rt.status,
                &m.rt.live,
                m.rt.copies[m.target as usize].is_some(),
                m.rt.copies[m.src as usize].as_ref(),
                m.rt.copies[m.target as usize].as_ref(),
                program,
            );
        }
    }
    // Phase 2: execute with cleaning deferred, then commit or roll
    // back the whole group.
    match remap_group_body(machine, members, planned, mask, movers) {
        Ok(n) => {
            for s in snaps.iter_mut() {
                s.captured = false;
            }
            machine.group_txn_scratch = snaps;
            // Every member committed: now (and only now) clean — a
            // freed copy cannot be restored by any rollback.
            for m in members.iter_mut() {
                m.rt.clean_copies(machine, m.target, m.may_live);
            }
            Ok(n)
        }
        Err(e) => {
            if armed {
                machine.stats.group_rollbacks += 1;
                for (i, m) in members.iter_mut().enumerate().rev() {
                    m.rt.rollback_remap(machine, m.target, &mut snaps[i]);
                }
            }
            machine.group_txn_scratch = snaps;
            Err(e)
        }
    }
}

/// The execution half of [`try_remap_group`], with liveness cleaning
/// deferred to the caller's commit: solo fallbacks and non-movers run
/// [`ArrayRt::try_remap_inner`] un-cleaned and un-armed (the group's
/// per-member records already cover them), movers replay coalesced.
fn remap_group_body(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
    mask: u64,
    movers: usize,
) -> Result<usize, ExecError> {
    if movers < 2 {
        // Nothing to coalesce: ordinary guarded remaps (cache hits).
        for m in members.iter_mut() {
            m.rt.try_remap_inner(
                machine,
                m.target,
                m.may_live,
                false,
                m.skip_if_current,
                false,
                false,
            )?;
        }
        return Ok(0);
    }
    // Non-movers first: their remap is a no-op plus cleaning, fully
    // independent of the movers (different arrays).
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            m.rt.try_remap_inner(
                machine,
                m.target,
                m.may_live,
                false,
                m.skip_if_current,
                false,
                false,
            )?;
        }
    }
    // The coalesced movement: allocate targets, cost the merged rounds
    // restricted to the movers, replay the group program.
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            let claim = planned.program.as_ref().map(|g| &g.members[i]);
            m.rt.allocate_for(machine, m.target, claim);
        }
    }
    for r in 0..planned.schedule.rounds.len() {
        machine.account_phase(planned.schedule.round_triples_masked(r, mask));
    }
    let epoch = machine.next_fault_epoch();
    // `None`: the fast path ran — bill the compiled program's planned
    // per-member figures. `Some`: the guarded ladder ran and reports
    // what the authoritative replay actually delivered per member.
    let per_member = replay_group_with_recovery(machine, members, planned, mask, epoch)?;
    machine.stats.remap_groups_coalesced += 1;
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        let (runs, elements) = match &per_member {
            Some(v) => v[i],
            None => {
                let mp = &planned.program.as_ref().expect("movers imply a program").members[i];
                (mp.n_runs(), mp.n_elements())
            }
        };
        machine.stats.remaps_performed += 1;
        machine.stats.runs_copied += runs;
        machine.stats.bytes_moved += elements * m.rt.elem_size;
        machine.stats.local_elements += planned.members[i].plan.local_elements;
        m.rt.live[m.target as usize] = true;
        m.rt.status = Some(m.target);
        // Cleaning deferred to the caller's group commit.
    }
    Ok(movers)
}

/// The member's (source, destination) version storage, borrowed
/// simultaneously from its copies table (the two versions are distinct
/// by construction — a planned copy never has `src == target`).
fn member_pair(rt: &mut ArrayRt, src: u32, dst: u32) -> (&VersionData, &mut VersionData) {
    let (s, d) = (src as usize, dst as usize);
    debug_assert_ne!(s, d, "planned copies move between distinct versions");
    if s < d {
        let (lo, hi) = rt.copies.split_at_mut(d);
        (
            lo[s].as_ref().expect("source copy is allocated"),
            hi[0].as_mut().expect("target copy is allocated"),
        )
    } else {
        let (lo, hi) = rt.copies.split_at_mut(s);
        (
            hi[0].as_ref().expect("source copy is allocated"),
            lo[d].as_mut().expect("target copy is allocated"),
        )
    }
}

/// A member program's units of one group round (`None` = the local,
/// never-on-the-wire group).
fn units_of(mp: &CopyProgram, round: Option<usize>) -> &[CopyUnit] {
    match round {
        None => &mp.local,
        Some(r) => &mp.rounds[r],
    }
}

/// Serial group replay: walk the merged rounds (local group first) and
/// move every masked-in member's units of that round. Allocation-free —
/// the steady-state coalesced bounce performs zero heap allocations,
/// like a solo cached remap.
fn replay_serial(members: &mut [GroupMember<'_>], prog: &GroupCopyProgram, mask: u64) {
    for round in std::iter::once(None).chain((0..prog.n_rounds).map(Some)) {
        replay_round_inline(members, prog, mask, round);
    }
}

/// One round of serial (or inline-parallel) replay.
fn replay_round_inline(
    members: &mut [GroupMember<'_>],
    prog: &GroupCopyProgram,
    mask: u64,
    round: Option<usize>,
) {
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        let mp = &prog.members[i];
        let units = units_of(mp, round);
        if units.is_empty() {
            continue;
        }
        let (src, dst) = member_pair(m.rt, m.src, m.target);
        for unit in units {
            let sb = src.blocks[unit.provider as usize]
                .as_ref()
                .expect("provider holds the data");
            let db = dst.blocks[unit.receiver as usize]
                .as_mut()
                .expect("receiver allocates the data");
            replay_unit(&mp.fams, &mp.runs, *unit, sb, db);
        }
    }
}

/// Parallel group replay: per merged round, pair every masked-in
/// member's units with their receiving blocks — distinct per member
/// (schedule contention-freedom) and across members (different arrays'
/// storage) — then split the round into weight-balanced chunks across
/// scoped worker threads. Rounds below the shared inline threshold
/// ([`round_goes_inline`]) replay inline, spawning nothing.
fn replay_parallel(
    members: &mut [GroupMember<'_>],
    prog: &GroupCopyProgram,
    mask: u64,
    threads: usize,
) {
    for round in std::iter::once(None).chain((0..prog.n_rounds).map(Some)) {
        let total: u64 = prog
            .members
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, mp)| units_of(mp, round).iter().map(|u| u.elements).sum::<u64>())
            .sum();
        if total == 0 {
            continue;
        }
        if round_goes_inline(total) {
            replay_round_inline(members, prog, mask, round);
            continue;
        }
        // Pool every masked-in member's round units, paired with their
        // receiving blocks (distinct per member by contention-freedom,
        // distinct across members because each member writes its own
        // array's storage), then split across scoped workers.
        let mut paired: Vec<PairedUnit<'_>> = Vec::new();
        for (i, m) in members.iter_mut().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let mp = &prog.members[i];
            let units = units_of(mp, round);
            if units.is_empty() {
                continue;
            }
            let (src, dst) = member_pair(m.rt, m.src, m.target);
            pair_round_units(units, &mp.fams, &mp.runs, src, dst, &mut paired);
        }
        replay_chunked(paired, total, threads, None);
    }
}

/// Replay the coalesced movement, guarded when the machine carries
/// faults or a validation level (otherwise the pre-existing
/// allocation-free fast path, returning `Ok(None)`). Guarded:
/// integrity-check the group program (a poisoned program is recompiled
/// from the cached member plans), run every merged round through the
/// shared retry ladder, and escalate a stuck round to a one-shot group
/// recompile and finally to per-member table-engine copies — unless an
/// injected [`FaultKind::Exhaust`] blocks the table rung too, which
/// surfaces the terminal error [`try_remap_group`]'s rollback exists
/// for. Returns the per-member `(runs, elements)` the authoritative
/// replay delivered.
fn replay_group_with_recovery(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
    mask: u64,
    epoch: u64,
) -> Result<Option<Vec<(u64, u64)>>, ExecError> {
    let base = planned.program.as_ref().expect("movers imply a compiled group program");
    let guarded = machine.faults.is_some() || machine.validation != ValidationLevel::Off;
    if !guarded {
        match machine.exec_mode {
            ExecMode::Parallel(t) if t > 1 => replay_parallel(members, base, mask, t),
            _ => replay_serial(members, base, mask),
        }
        return Ok(None);
    }
    let exhaust = machine.faults.as_ref().is_some_and(|f| f.exhaust_fires(epoch));
    if exhaust {
        machine.stats.faults_injected += 1;
    }
    let blocked_tables = |machine: &mut Machine,
                          members: &mut [GroupMember<'_>]|
     -> Result<Option<Vec<(u64, u64)>>, ExecError> {
        if exhaust {
            return Err(ExecError::Unrecovered {
                context: format!("group remap epoch {epoch}: injected ladder exhaustion"),
            });
        }
        Ok(Some(group_tables_fallback(machine, members, planned, mask)))
    };
    // PoisonProgram: replay a corrupted clone of the group program —
    // what a damaged shared plan registry would serve. (The planned
    // group itself is borrowed, so unlike the solo cache the poison
    // cannot persist past this call.)
    let mut poisoned: Option<GroupCopyProgram> = None;
    if machine.faults.is_some_and(|f| f.poison_fires(epoch)) {
        let mut bad = base.clone();
        for mp in &mut bad.members {
            poison_program(mp);
        }
        machine.stats.faults_injected += 1;
        poisoned = Some(bad);
    }
    let mut active: &GroupCopyProgram = poisoned.as_ref().unwrap_or(base);
    let recompiled: Option<GroupCopyProgram>;
    if !active.integrity_ok() {
        machine.stats.programs_recompiled += 1;
        let plans: Vec<&RedistPlan> = planned.members.iter().map(|m| &m.plan).collect();
        recompiled = GroupCopyProgram::try_compile(&plans, &planned.schedule);
        match &recompiled {
            Some(fresh) => active = fresh,
            None => return blocked_tables(machine, members),
        }
    } else {
        recompiled = None;
    }
    if let Ok(v) = replay_group_rounds_guarded(machine, members, active, mask, epoch, 0) {
        return Ok(Some(v));
    }
    if recompiled.is_none() {
        // Rung 2: recompile the whole group once and re-replay
        // (idempotent: every destination position is rewritten).
        machine.stats.programs_recompiled += 1;
        let plans: Vec<&RedistPlan> = planned.members.iter().map(|m| &m.plan).collect();
        if let Some(fresh) = GroupCopyProgram::try_compile(&plans, &planned.schedule) {
            if let Ok(v) = replay_group_rounds_guarded(machine, members, &fresh, mask, epoch, 1) {
                return Ok(Some(v));
            }
        }
    }
    blocked_tables(machine, members)
}

/// The group's last rung: an independent full table-engine copy per
/// masked member (re-derives every position from the plan descriptors,
/// shares nothing with the compiled programs, never fault-injected).
fn group_tables_fallback(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
    mask: u64,
) -> Vec<(u64, u64)> {
    let mut out = vec![(0u64, 0u64); members.len()];
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        machine.stats.fallbacks_to_tables += 1;
        let (src, dst) = member_pair(m.rt, m.src, m.target);
        out[i] = dst.copy_values_from_plan(src, &planned.members[i].plan);
    }
    out
}

/// All merged rounds of the group under the guarded regime, each
/// through the shared retry ladder. Per-member `(runs, elements)`
/// totals count only the authoritative (final successful) attempt of
/// every round.
fn replay_group_rounds_guarded(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    prog: &GroupCopyProgram,
    mask: u64,
    epoch: u64,
    stream: u32,
) -> Result<Vec<(u64, u64)>, ()> {
    let mut per_member = vec![(0u64, 0u64); members.len()];
    let mut scratch = vec![(0u64, 0u64); members.len()];
    for (ri, round) in std::iter::once(None).chain((0..prog.n_rounds).map(Some)).enumerate() {
        let mut expected = 0u64;
        let mut n_units = 0usize;
        for (i, mp) in prog.members.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let us = units_of(mp, round);
            n_units += us.len();
            expected += us.iter().map(|u| u.elements).sum::<u64>();
        }
        if n_units == 0 {
            continue;
        }
        let ctx = RoundCtx { expected, units: n_units, round_no: ri as u32 };
        run_round_ladder(machine, &ctx, epoch, stream, |mode, checksums, fault| {
            scratch.iter_mut().for_each(|s| *s = (0, 0));
            replay_group_round_guarded(
                members, prog, mask, round, mode, checksums, fault, &mut scratch,
            )
        })?;
        for (acc, s) in per_member.iter_mut().zip(scratch.iter()) {
            acc.0 += s.0;
            acc.1 += s.1;
        }
    }
    Ok(per_member)
}

/// One merged round under the guarded regime. Wire-loss faults apply
/// to the round's **concatenated** unit list (members in group order,
/// units in program order): truncation replays the first half of that
/// list, corruption picks its victim by global index — so a fault can
/// land on any member, exactly like a fault on the shared wire buffer.
/// Writes each member's delivered `(runs, elements)` into `per_member`.
#[allow(clippy::too_many_arguments)]
fn replay_group_round_guarded(
    members: &mut [GroupMember<'_>],
    prog: &GroupCopyProgram,
    mask: u64,
    round: Option<usize>,
    mode: ExecMode,
    checksums: bool,
    fault: Option<(FaultKind, u64)>,
    per_member: &mut [(u64, u64)],
) -> Result<(u64, u64), RoundFailure> {
    let masked = |i: usize| mask & (1 << i) != 0;
    let total_units: usize = prog
        .members
        .iter()
        .enumerate()
        .filter(|(i, _)| masked(*i))
        .map(|(_, mp)| units_of(mp, round).len())
        .sum();
    let cut = match fault {
        Some((FaultKind::DropRound, _)) => 0,
        Some((FaultKind::TruncateRound, _)) => total_units / 2,
        _ => total_units,
    };
    // taken[i]: member i's prefix of units under the concatenated cut.
    let mut taken = vec![0usize; members.len()];
    let mut idx = 0usize;
    for (i, mp) in prog.members.iter().enumerate() {
        let n = if masked(i) { units_of(mp, round).len() } else { 0 };
        taken[i] = n.min(cut.saturating_sub(idx));
        idx += n;
    }
    let weight: u64 = prog
        .members
        .iter()
        .enumerate()
        .map(|(i, mp)| units_of(mp, round)[..taken[i]].iter().map(|u| u.elements).sum::<u64>())
        .sum();
    let copied = catch_unwind(AssertUnwindSafe(|| {
        if mode.threads() > 1 && !round_goes_inline(weight) {
            let mut paired: Vec<PairedUnit<'_>> = Vec::new();
            for (i, m) in members.iter_mut().enumerate() {
                if taken[i] == 0 {
                    continue;
                }
                let mp = &prog.members[i];
                let units = &units_of(mp, round)[..taken[i]];
                let (src, dst) = member_pair(m.rt, m.src, m.target);
                pair_round_units(units, &mp.fams, &mp.runs, src, dst, &mut paired);
            }
            let boom = matches!(fault, Some((FaultKind::WorkerPanic, _))).then_some(0);
            replay_chunked(paired, weight, mode.threads(), boom);
        } else {
            for (i, m) in members.iter_mut().enumerate() {
                if taken[i] == 0 {
                    continue;
                }
                let mp = &prog.members[i];
                let units = &units_of(mp, round)[..taken[i]];
                let (src, dst) = member_pair(m.rt, m.src, m.target);
                for unit in units {
                    let sb = src.blocks[unit.provider as usize]
                        .as_ref()
                        .expect("provider holds the data");
                    let db = dst.blocks[unit.receiver as usize]
                        .as_mut()
                        .expect("receiver allocates the data");
                    replay_unit(&mp.fams, &mp.runs, *unit, sb, db);
                }
            }
        }
    }));
    if copied.is_err() {
        return Err(RoundFailure::Panicked);
    }
    if let Some((FaultKind::CorruptRound, salt)) = fault {
        if total_units > 0 {
            let mut v = (salt % total_units as u64) as usize;
            for (i, m) in members.iter_mut().enumerate() {
                if !masked(i) {
                    continue;
                }
                let units = units_of(&prog.members[i], round);
                if v < units.len() {
                    let victim = units[v];
                    let (_, dst) = member_pair(m.rt, m.src, m.target);
                    let db = dst.blocks[victim.receiver as usize]
                        .as_mut()
                        .expect("receiver allocates the data");
                    let mp = &prog.members[i];
                    flip_unit_word(&mp.fams, &mp.runs, victim, db);
                    break;
                }
                v -= units.len();
            }
        }
    }
    let mut read = 0u64;
    let mut written = 0u64;
    let mut runs_total = 0u64;
    let mut elems_total = 0u64;
    for (i, m) in members.iter_mut().enumerate() {
        if taken[i] == 0 {
            continue;
        }
        let mp = &prog.members[i];
        let units = &units_of(mp, round)[..taken[i]];
        let (src, dst) = member_pair(m.rt, m.src, m.target);
        let mut mruns = 0u64;
        let mut melems = 0u64;
        for unit in units {
            mruns += unit_n_runs(&mp.fams, *unit);
            melems += unit.elements;
            if checksums {
                let sb = src.blocks[unit.provider as usize]
                    .as_ref()
                    .expect("provider holds the data");
                let db = dst.blocks[unit.receiver as usize]
                    .as_ref()
                    .expect("receiver allocates the data");
                read = read.wrapping_add(unit_sum(&mp.fams, &mp.runs, *unit, sb, false));
                written = written.wrapping_add(unit_sum(&mp.fams, &mp.runs, *unit, db, true));
            }
        }
        per_member[i].0 += mruns;
        per_member[i].1 += melems;
        runs_total += mruns;
        elems_total += melems;
    }
    if checksums && read != written {
        return Err(RoundFailure::Mismatch);
    }
    Ok((runs_total, elems_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{testing::mapping_1d as mk, DimFormat, NormalizedMapping};

    fn planned_pair(
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
    ) -> Arc<PlannedRemap> {
        Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, 8)))
    }

    fn two_array_group(
        n: u64,
        p: u64,
        f0: DimFormat,
        f1: DimFormat,
    ) -> (Machine, ArrayRt, ArrayRt, PlannedGroup, PlannedGroup) {
        let v0 = mk(n, p, f0);
        let v1 = mk(n, p, f1);
        let m = Machine::new(p);
        let mut a = ArrayRt::new("a", vec![v0.clone(), v1.clone()], 8);
        let mut b = ArrayRt::new("b", vec![v0.clone(), v1.clone()], 8);
        let mut machine = m;
        a.current(&mut machine, 0).fill(|pt| pt[0] as f64);
        b.current(&mut machine, 0).fill(|pt| 1000.0 + pt[0] as f64);
        let fwd = PlannedGroup::compile(vec![planned_pair(&v0, &v1), planned_pair(&v0, &v1)]);
        let back = PlannedGroup::compile(vec![planned_pair(&v1, &v0), planned_pair(&v1, &v0)]);
        (machine, a, b, fwd, back)
    }

    #[test]
    fn merged_schedule_has_fewer_rounds_and_same_bytes() {
        let (_, _, _, fwd, _) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        // Two identical block->cyclic all-to-alls: solo 3 rounds each,
        // merged still 3 rounds — strictly fewer than the solo sum of 6.
        assert_eq!(fwd.schedule.n_rounds(), 3);
        assert_eq!(fwd.solo_rounds(), 6);
        // Bytes are the sum of the members'; wire messages coalesce to
        // one per pair per round (12, not 24).
        let solo_bytes: u64 = fwd.members.iter().map(|m| m.plan.total_bytes()).sum();
        assert_eq!(fwd.schedule.total_bytes(), solo_bytes);
        assert_eq!(fwd.schedule.messages.len(), 24);
        assert_eq!(fwd.schedule.n_wire_messages(), 12);
        // The group program delivers every member's (local + remote)
        // elements exactly once.
        let prog = fwd.program.as_ref().expect("1-D members compile");
        let deliveries: u64 = fwd
            .members
            .iter()
            .map(|m| m.plan.local_elements + m.plan.remote_elements())
            .sum();
        assert_eq!(prog.total_elements, deliveries);
    }

    #[test]
    fn coalesced_group_moves_both_arrays_with_one_latency_per_pair_round() {
        let (mut machine, mut a, mut b, fwd, _) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        let moved = {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd)
        };
        assert_eq!(moved, 2);
        assert_eq!(machine.stats.remap_groups_coalesced, 1);
        assert_eq!(machine.stats.remaps_performed, 2);
        // 12 coalesced wire messages (not 24), each carrying 2 arrays'
        // elements; bytes are both plans' sums.
        assert_eq!(machine.stats.messages, 12);
        assert_eq!(machine.stats.bytes, 2 * 12 * 8);
        // Values arrived intact for both arrays.
        for i in 0..16u64 {
            assert_eq!(a.get(&[i]), i as f64);
            assert_eq!(b.get(&[i]), 1000.0 + i as f64);
        }
        // Time is 3 merged rounds, one send+recv latency per processor
        // per round, 2 x 16 bytes per direction.
        let cost = machine.cost;
        let per_round = 2.0 * cost.latency_us + 2.0 * 16.0 / cost.bandwidth_bytes_per_us;
        assert!((machine.stats.time_us - 3.0 * per_round).abs() < 1e-9,
            "time {} != 3 x {per_round}", machine.stats.time_us);
        // Nothing planned at run time (solo plans were seeded).
        assert_eq!(machine.stats.plans_computed, 0);
    }

    #[test]
    fn ineligible_member_masks_out_of_the_coalesced_accounting() {
        let (mut machine, mut a, mut b, fwd, back) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd);
        }
        // Stale only a's old copy: on the way back, b's version-0 copy
        // is still live — b reuses it and must not be billed.
        a.set(&[0], 99.0);
        let bytes_before = machine.stats.bytes;
        let moved = {
            let mut members = [
                GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &back)
        };
        // Only one mover: the group falls back to solo guarded remaps.
        assert_eq!(moved, 0);
        assert_eq!(machine.stats.remaps_reused_live, 1);
        // a's solo return trip is 12 messages of 8 bytes.
        assert_eq!(machine.stats.bytes, bytes_before + 12 * 8);
        assert_eq!(machine.stats.plans_computed, 0, "fallback was seeded, never plans");
        assert_eq!(a.get(&[0]), 99.0);
        assert_eq!(b.get(&[3]), 1003.0);
    }

    #[test]
    fn threshold_boundary_round_takes_the_same_engine_solo_and_group() {
        use crate::exec::PARALLEL_THRESHOLD;
        // Solo: Block → Cyclic(n/4) on 2 ranks puts the local group AND
        // the single caterpillar round at exactly PARALLEL_THRESHOLD
        // elements — the boundary the shared predicate pins.
        let n = 2 * PARALLEL_THRESHOLD;
        let src = mk(n, 2, DimFormat::Block(None));
        let dst = mk(n, 2, DimFormat::Cyclic(Some(n / 4)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = crate::CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        for round in std::iter::once(&prog.local).chain(prog.rounds.iter()) {
            let w: u64 = round.iter().map(|u| u.elements).sum();
            assert_eq!(w, PARALLEL_THRESHOLD, "round sits exactly at the boundary");
            assert!(
                !crate::exec::round_goes_inline(w),
                "a boundary round takes the parallel engine everywhere"
            );
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 8191) as f64);
        let mut serial = VersionData::new(dst.clone(), 8);
        serial.copy_values_from_program(&a, &prog, ExecMode::Serial);
        let mut par = VersionData::new(dst, 8);
        par.copy_values_from_program(&a, &prog, ExecMode::Parallel(4));
        assert_eq!(serial, par);

        // Group: two members at half the extent, so every *merged*
        // round (local group and the wire round) also totals exactly
        // PARALLEL_THRESHOLD — the group dispatcher must agree with
        // the solo one at the boundary.
        let gn = PARALLEL_THRESHOLD;
        let run = |mode: ExecMode| {
            let (machine, mut a, mut b, fwd, _back) = two_array_group(
                gn,
                2,
                DimFormat::Block(None),
                DimFormat::Cyclic(Some(gn / 4)),
            );
            let gp = fwd.program.as_ref().expect("members compile");
            for round in std::iter::once(None).chain((0..gp.n_rounds).map(Some)) {
                let w: u64 = gp
                    .members
                    .iter()
                    .map(|mp| units_of(mp, round).iter().map(|u| u.elements).sum::<u64>())
                    .sum();
                assert_eq!(w, PARALLEL_THRESHOLD, "merged round sits exactly at the boundary");
            }
            let mut machine = machine.with_exec_mode(mode);
            let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
            let skip = BTreeSet::new();
            {
                let mut members = [
                    GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                    GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                ];
                assert_eq!(remap_group(&mut machine, &mut members, &fwd), 2);
            }
            let av = a.copies[1].as_ref().unwrap().to_dense();
            let bv = b.copies[1].as_ref().unwrap().to_dense();
            (av, bv)
        };
        assert_eq!(run(ExecMode::Serial), run(ExecMode::Parallel(4)));
    }

    #[test]
    fn serial_and_parallel_group_replay_agree() {
        // Large enough that parallel rounds cross the inline threshold
        // and really spawn scoped workers across both arrays' units.
        let run = |mode: ExecMode| {
            let (machine, mut a, mut b, fwd, back) =
                two_array_group(1 << 18, 4, DimFormat::Block(None), DimFormat::Cyclic(Some(3)));
            let mut machine = machine.with_exec_mode(mode);
            let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
            let skip = BTreeSet::new();
            for round in 0..3 {
                {
                    let mut members = [
                        GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                        GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                    ];
                    assert_eq!(remap_group(&mut machine, &mut members, &fwd), 2);
                }
                a.set(&[0], round as f64);
                b.set(&[1], round as f64);
                {
                    let mut members = [
                        GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                        GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                    ];
                    assert_eq!(remap_group(&mut machine, &mut members, &back), 2);
                }
                a.set(&[2], round as f64);
                b.set(&[3], round as f64);
            }
            let av = a.copies[a.status.unwrap() as usize].as_ref().unwrap().to_dense();
            let bv = b.copies[b.status.unwrap() as usize].as_ref().unwrap().to_dense();
            (av, bv, machine.stats.bytes, machine.stats.messages)
        };
        assert_eq!(run(ExecMode::Serial), run(ExecMode::Parallel(4)));
    }
}
