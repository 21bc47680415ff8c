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
//! ordinary [`ArrayRt::remap_guarded`] no-ops and drop out of the
//! accounting — the coalesced wire buffers simply shrink — while the
//! remaining movers are costed over the merged rounds
//! ([`CommSchedule::round_triples_of`]) and handed to the replay core
//! as the lanes of the group's compiled [`GroupCopyProgram`]: the same
//! interpreter, recovery ladder and steady-state allocation-freedom as
//! a solo cached remap, with one lane per mover instead of one.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::exec::GroupCopyProgram;
use crate::fault::{poison_program, ExecError};
use crate::machine::Machine;
use crate::redist::RedistPlan;
use crate::replay::Lane;
use crate::schedule::CommSchedule;
use crate::status::{version_pair, ArrayRt, PlannedRemap};

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

impl GroupMember<'_> {
    /// Would this member, right now, perform exactly its planned copy
    /// (source → target data movement)? Everything else — status noop,
    /// live-copy reuse, partial-impact skip, first instantiation, a
    /// copy from some other version — takes the ordinary remap path.
    /// The answer depends on this array's state alone and holds from
    /// before the group executes until the member commits (only the
    /// commit moves `status`), so no side table of movers is kept.
    fn moves_data(&self) -> bool {
        self.rt.copy_source(self.target, false, self.skip_if_current) == Ok(Some(self.src))
    }
}

/// Execute one directive's remap group.
///
/// Members whose state matches their compile-time-planned copy are
/// moved **coalesced**: one accounting sweep over the merged
/// caterpillar rounds restricted to them (each communicating pair pays
/// one latency per round, not one per array), one replay of the group
/// copy program with the movers as its lanes. All other members (and
/// every member, if fewer than two would move data or the group has no
/// compiled program) go through [`ArrayRt::remap_guarded`] — with their
/// solo plan seeded into the array's cache first, so even the fallback
/// never plans at run time.
///
/// `members` must be in group order (matching `planned.members`).
/// Returns the number of members that moved through the coalesced path
/// (0 when the group fell back entirely).
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
/// panicking: a member-count mismatch with the planned group, a member
/// whose source copy is missing (reported before anything is allocated
/// or billed), and any unrecoverable member remap surface as errors.
/// With faults or validation configured on the machine, the coalesced
/// replay runs through the same recovery ladder as a solo remap (retry
/// failed rounds → recompile the group program → per-member
/// table-engine fallback), with worker panics degrading the round to
/// serial.
///
/// **Atomic**: the group commits all members or none. On the guarded
/// path a rollback record is captured per member before anything
/// executes, liveness cleaning is deferred until every member committed
/// (cleaning frees copies a rollback could not restore), and any
/// member's terminal error rolls *every* member — already-replayed
/// siblings included — back to its byte-identical pre-group state
/// before the error surfaces (`NetStats::group_rollbacks`).
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
    for m in members.iter() {
        m.rt.copy_source(m.target, false, m.skip_if_current)?;
    }
    // Seed every member's solo plan (a no-op when already present),
    // publishing through the machine's shared registry so sessions
    // executing the same group converge on one artifact per member:
    // whichever path executes below, nothing plans at run time.
    for (m, solo) in members.iter_mut().zip(&planned.members) {
        m.rt.seed_plan_shared(machine, m.src, m.target, Arc::clone(solo));
    }
    // Below two movers there is nothing to coalesce: every member takes
    // the solo path, whose write set the group program does not
    // describe.
    let movers = members.iter().filter(|m| m.moves_data()).count();
    let group = planned.program.as_ref().filter(|_| movers >= 2);
    let armed = machine.guarded();
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
            snaps[i].capture(
                m.rt.status,
                &m.rt.live,
                m.rt.copies[m.target as usize].is_some(),
                m.rt.copies[m.src as usize].as_ref(),
                m.rt.copies[m.target as usize].as_ref(),
                group.filter(|_| m.moves_data()).map(|g| &g.members[i]),
            );
        }
    }
    // Phase 2: execute with cleaning deferred, then commit or roll
    // back the whole group.
    let moved = remap_group_body(machine, members, planned, group);
    if moved.is_err() && armed {
        machine.stats.group_rollbacks += 1;
        for (m, snap) in members.iter_mut().zip(&mut snaps).rev() {
            m.rt.rollback_remap(machine, m.target, snap);
        }
    }
    snaps.iter_mut().for_each(|s| s.captured = false);
    machine.group_txn_scratch = snaps;
    let moved = moved?;
    // Every member committed: now (and only now) clean — a freed copy
    // cannot be restored by any rollback.
    for m in members.iter_mut() {
        m.rt.clean_copies(machine, m.target, m.may_live);
    }
    Ok(moved)
}

/// The execution half of [`try_remap_group`], with liveness cleaning
/// deferred to the caller's commit: solo fallbacks and non-movers run
/// [`ArrayRt::try_remap_inner`] as `grouped` remaps (un-cleaned, and
/// un-armed: the group's per-member records already cover them); with
/// a `group` program to coalesce over, the movers replay as its lanes.
fn remap_group_body(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
    group: Option<&GroupCopyProgram>,
) -> Result<usize, ExecError> {
    // Everyone who is not a coalesced mover: a no-op plus cleaning, or
    // an ordinary guarded remap (a cache hit) — fully independent of
    // the movers (different arrays).
    for m in members.iter_mut().filter(|m| group.is_none() || !m.moves_data()) {
        m.rt.try_remap_inner(machine, m.target, m.may_live, false, m.skip_if_current, true)?;
    }
    let Some(group) = group else { return Ok(0) };
    // The coalesced movement: allocate targets, cost the merged rounds
    // restricted to the movers, replay the group program.
    for (m, prog) in members.iter_mut().zip(&group.members).filter(|(m, _)| m.moves_data()) {
        m.rt.allocate_for(machine, m.target, Some(prog));
    }
    let movers = members.iter().filter(|m| m.moves_data()).count();
    let all = movers == members.len();
    for r in 0..planned.schedule.rounds.len() {
        let rides = |i: usize| all || members[i].moves_data();
        machine.account_phase(planned.schedule.round_triples_of(r, rides));
    }
    let epoch = machine.next_fault_epoch();
    // PoisonProgram: replay a corrupted clone of the group program —
    // what a damaged shared plan registry would serve. (The planned
    // group itself is borrowed, so unlike the solo cache the poison
    // cannot persist past this call, and a repaired set is dropped.)
    let mut poisoned = None;
    if machine.faults.is_some_and(|f| f.poison_fires(epoch)) {
        let bad = poisoned.insert(group.members.clone());
        bad.iter_mut().for_each(poison_program);
        machine.stats.faults_injected += 1;
    }
    crate::replay::run(
        machine,
        &planned.members,
        poisoned.as_deref().unwrap_or(&group.members),
        &mut |visit| {
            let movers = members.iter_mut().enumerate().filter(|(_, m)| m.moves_data());
            visit(&mut movers.map(|(at, m)| {
                let (src, dst) = version_pair(&mut m.rt.copies, m.src, m.target);
                Lane { at, src, dst }
            }))
        },
        epoch,
        &|| {
            let plans: Vec<&RedistPlan> = planned.members.iter().map(|m| &m.plan).collect();
            GroupCopyProgram::try_compile(&plans, &planned.schedule).map(|fresh| fresh.members)
        },
    )?;
    machine.stats.remap_groups_coalesced += 1;
    for (m, solo) in members.iter_mut().zip(&planned.members).filter(|(m, _)| m.moves_data()) {
        machine.stats.remaps_performed += 1;
        machine.stats.local_elements += solo.plan.local_elements;
        m.rt.live[m.target as usize] = true;
        m.rt.status = Some(m.target);
        // Cleaning deferred to the caller's group commit.
    }
    Ok(movers)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{testing::mapping_1d as mk, DimFormat, NormalizedMapping};

    pub(crate) fn planned_pair(
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
    ) -> Arc<PlannedRemap> {
        Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, 8)))
    }

    pub(crate) fn two_array_group(
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
}
