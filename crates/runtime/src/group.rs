//! Remap statements: the one executor behind every remap, and the
//! directive-level groups it coalesces.
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
//! Every remap statement runs through one private executor, Fig. 20
//! applied per member: check each member's source copy, record each
//! member's status, live flags and allocation, settle the members that
//! move no data (status noop, partial-impact skip, live-copy reuse,
//! dead values, first instantiation), move the rest as the lanes of one
//! replay over one artifact — a guarded mover into an allocated copy
//! writes a pool draw while the old copy waits in its rollback record —
//! then roll every member back (freeing fresh targets, swapping staged
//! ones back) or clean every member. A solo remap
//! ([`ArrayRt::try_remap_guarded`]) is a group of one whose artifact is
//! its own [`PlannedRemap`]. [`try_remap_group`] hands over the
//! directive's [`PlannedGroup`]: its members that copy out of their
//! planned source are costed over the merged rounds
//! ([`CommSchedule::round_triples_of`]) and replayed as the lanes of
//! its [`GroupCopyProgram`]; below two such movers each mover is a
//! group of one through its seeded solo artifact.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::exec::{CopyProgram, GroupCopyProgram};
use crate::fault::ExecError;
use crate::machine::Machine;
use crate::redist::RedistPlan;
use crate::replay::Lane;
use crate::schedule::CommSchedule;
use crate::status::{version_pair, ArrayRt, PlannedRemap, TxnRecord};

/// The compile-time artifact of one directive's remap group: the
/// members' solo plans (shared `Arc`s with each member's own
/// [`PlannedRemap`], so nothing is planned twice), their messages
/// merged into one aggregated caterpillar schedule, and the group copy
/// program that replays every member's units round by round.
#[derive(Debug, Clone)]
pub struct PlannedGroup {
    /// The member remaps, in group order (one per array, each with its
    /// own plan + solo schedule + solo program — what a mover runs
    /// when it is a group of one).
    pub members: Vec<Arc<PlannedRemap>>,
    /// The merged schedule: all members' same-pair messages share
    /// rounds and wire buffers.
    pub schedule: CommSchedule,
    /// The group replay program, round-aligned to `schedule`. `None`
    /// when some member cannot drive a compiled program — every mover
    /// then runs as a group of one.
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

/// One member's runtime binding for [`try_remap_group`]: the array's
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

/// Execute one directive's remap group.
///
/// Members whose state matches their compile-time-planned copy are
/// moved **coalesced**: one accounting sweep over the merged
/// caterpillar rounds restricted to them (each communicating pair pays
/// one latency per round, not one per array), one replay of the group
/// copy program with the movers as its lanes. Every other member that
/// moves data (all of them, if fewer than two would coalesce or the
/// group has no compiled program) is a group of one through its solo
/// plan, seeded into the array's cache first, so nothing plans at run
/// time. With faults or validation configured on the machine, every
/// replay runs through the recovery ladder (retry failed rounds →
/// recompile → per-member table-engine fallback).
///
/// `members` must be in group order (matching `planned.members`).
/// Returns the number of members that moved through the coalesced path
/// (0 when there was nothing to coalesce). A member-count mismatch with
/// the planned group, a member whose source copy is missing (reported
/// before anything is allocated or billed), and any unrecoverable
/// replay surface as typed [`ExecError`]s.
///
/// **Atomic**: the group commits all members or none. On the guarded
/// path every member's rollback record is captured before that member
/// is touched, liveness cleaning is deferred until every member
/// committed (cleaning frees copies a rollback could not restore), and
/// a terminal error rolls *every* member — already-replayed siblings
/// included — back to its byte-identical pre-group state before the
/// error surfaces (`NetStats::group_rollbacks`; a group of one counts
/// in `txn_rollbacks`, like the solo remap it is).
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
    execute(machine, members, false, Some(planned))
}

/// The one remap executor. Runs `members` as one statement — over
/// `group`'s artifact when there is one, else each mover as a group of
/// one — and returns how many members moved coalesced.
pub(crate) fn execute(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    values_dead: bool,
    group: Option<&PlannedGroup>,
) -> Result<usize, ExecError> {
    // 1. Every member's source copy is there: checked before anything
    // is allocated or billed, so an error leaves the books untouched.
    for m in members.iter() {
        m.rt.copy_source(m.target, values_dead, m.skip_if_current)?;
    }
    // Seed every member's solo plan (a no-op when already present),
    // publishing through the machine's shared registry so sessions
    // executing the same group converge on one artifact per member.
    if let Some(group) = group {
        for (m, solo) in members.iter_mut().zip(&group.members) {
            m.rt.seed_plan_shared(machine, m.src, m.target, Arc::clone(solo));
        }
    }
    // Steps 2–4. Rollback records are armed on the guarded path only:
    // unguarded, a replay cannot fail after its writes begin.
    let armed = machine.guarded();
    let mut snaps = std::mem::take(&mut machine.txn_scratch);
    if armed && snaps.len() < members.len() {
        snaps.resize_with(members.len(), Default::default);
    }
    let snapped = armed.then_some(&mut snaps[..]);
    let moved = settle_and_move(machine, members, values_dead, group, snapped);
    // 5. Roll every member back, or clean every member.
    if moved.is_err() && armed {
        if members.len() == 1 {
            machine.stats.txn_rollbacks += 1;
        } else {
            machine.stats.group_rollbacks += 1;
        }
        for (m, snap) in members.iter_mut().zip(&mut snaps).rev() {
            m.rt.rollback_remap(machine, m.target, snap);
        }
    }
    snaps.iter_mut().for_each(|s| s.captured = false);
    machine.txn_scratch = snaps;
    let moved = moved?;
    // Every member committed: now (and only now) clean — a freed copy
    // cannot be restored by any rollback.
    for m in members.iter_mut() {
        m.rt.clean_copies(machine, m.target, m.may_live);
    }
    Ok(moved)
}

/// Steps 2–4 of [`execute`]: settle or move every member, capturing
/// each one's rollback record into `snaps` (when armed) right before
/// the member is first touched.
fn settle_and_move(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    values_dead: bool,
    group: Option<&PlannedGroup>,
    mut snaps: Option<&mut [TxnRecord]>,
) -> Result<usize, ExecError> {
    // A member copies out of its status or not at all; the answer
    // depends on its own array's state, which only its commit moves.
    let source = |m: &GroupMember<'_>| {
        m.rt.copy_source(m.target, values_dead, m.skip_if_current).ok().flatten()
    };
    let planned_source = |m: &GroupMember<'_>| source(m) == Some(m.src);
    let coalesced = group
        .and_then(|g| Some((g, g.program.as_ref()?)))
        .filter(|_| members.iter().filter(|m| planned_source(m)).count() >= 2);
    let rides = |m: &GroupMember<'_>| coalesced.is_some() && planned_source(m);
    for (i, m) in members.iter_mut().enumerate().filter(|(_, m)| !rides(m)) {
        let snap = snaps.as_deref_mut().map(|s| std::slice::from_mut(&mut s[i]));
        let Some(src) = source(m) else {
            if let Some([snap]) = snap {
                snap.capture(m.rt, m.target, false);
            }
            m.rt.settle(machine, m.target, m.skip_if_current);
            continue;
        };
        // A group of one: the lane's program and schedule are the
        // member's own solo artifact.
        let epoch = machine.next_fault_epoch();
        let inject_compile_panic = machine.faults.is_some_and(|f| f.compile_panic_fires(epoch))
            && !m.rt.plan_cache.contains_key(&(src, m.target));
        if inject_compile_panic {
            machine.stats.faults_injected += 1;
        }
        let planned = m.rt.planned_with(machine, src, m.target, inject_compile_panic);
        let artifact = Artifact {
            plans: std::slice::from_ref(&planned),
            schedule: &planned.schedule,
            programs: planned.program.as_slice(),
            recompile: &|| {
                CopyProgram::try_compile(&planned.plan, &planned.schedule).map(|p| vec![p])
            },
        };
        move_lanes(machine, std::slice::from_mut(m), snap, &|_| true, artifact, epoch)?;
    }
    let Some((group, program)) = coalesced else { return Ok(0) };
    let artifact = Artifact {
        plans: &group.members,
        schedule: &group.schedule,
        programs: &program.members,
        recompile: &|| {
            let plans: Vec<&RedistPlan> = group.members.iter().map(|m| &m.plan).collect();
            GroupCopyProgram::try_compile(&plans, &group.schedule).map(|fresh| fresh.members)
        },
    };
    let epoch = machine.next_fault_epoch();
    let movers = members.iter().filter(|m| rides(m)).count();
    move_lanes(machine, members, snaps, &rides, artifact, epoch)?;
    machine.stats.remap_groups_coalesced += 1;
    Ok(movers)
}

/// What one replay runs: the plans behind its lanes (lane `at` is plan
/// `at`), the schedule its wire is costed over, the programs served for
/// them, and how to compile that program set afresh when a served
/// program cannot be trusted.
struct Artifact<'p> {
    plans: &'p [Arc<PlannedRemap>],
    schedule: &'p CommSchedule,
    programs: &'p [CopyProgram],
    recompile: &'p dyn Fn() -> Option<Vec<CopyProgram>>,
}

/// Move the `members` that `rides` selects as the lanes of one replay
/// of `artifact` (member `i` is lane `i`), each copying out of its
/// status: record its rollback point, allocate its target (or, when
/// guarded into an allocated copy, stage it), book the wire of the
/// rounds restricted to the lanes, replay, commit.
fn move_lanes(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    mut snaps: Option<&mut [TxnRecord]>,
    rides: &dyn Fn(&GroupMember<'_>) -> bool,
    artifact: Artifact<'_>,
    epoch: u64,
) -> Result<(), ExecError> {
    let Artifact { plans, schedule, programs: progs, recompile } = artifact;
    for (i, m) in members.iter_mut().enumerate().filter(|(_, m)| rides(m)) {
        let rt = &mut *m.rt;
        // Guarded into an allocated copy, the replay writes a spare.
        let staged = snaps.is_some() && rt.copies[m.target as usize].is_some();
        if let Some(snap) = snaps.as_deref_mut().map(|s| &mut s[i]) {
            snap.capture(rt, m.target, staged);
            if staged {
                rt.stage_target(m.target, progs.get(i), snap);
            }
        }
        if !staged {
            rt.allocate_for(machine, m.target, progs.get(i));
        }
        machine.stats.remaps_performed += 1;
        machine.stats.local_elements += plans[i].plan.local_elements;
    }
    // Retired copies reach the pool only now: a member's copy of the
    // other layout cannot flush the spare a sibling is about to draw.
    snaps.iter_mut().flat_map(|s| s.iter_mut()).for_each(|s| s.retired = None);
    let all = members.iter().all(rides);
    for r in 0..schedule.rounds.len() {
        machine.account_phase(schedule.round_triples_of(r, |i| all || rides(&members[i])));
    }
    crate::replay::run(
        machine,
        plans,
        progs,
        &mut |visit| {
            let lanes = members.iter_mut().enumerate().filter(|(_, m)| rides(m));
            visit(&mut lanes.map(|(at, m)| {
                let src = m.rt.status.expect("a copy moves out of the current version");
                let (src, dst) = version_pair(&mut m.rt.copies, src, m.target);
                Lane { at, src, dst }
            }))
        },
        epoch,
        recompile,
    )?;
    for m in members.iter_mut().filter(|m| rides(m)) {
        m.rt.live[m.target as usize] = true;
        m.rt.status = Some(m.target);
    }
    Ok(())
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
            try_remap_group(&mut machine, &mut members, &fwd).expect("group remap")
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
            try_remap_group(&mut machine, &mut members, &fwd).expect("group remap");
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
            try_remap_group(&mut machine, &mut members, &back).expect("group remap")
        };
        // Only one mover: it runs as a group of one.
        assert_eq!(moved, 0);
        assert_eq!(machine.stats.remaps_reused_live, 1);
        // a's solo return trip is 12 messages of 8 bytes.
        assert_eq!(machine.stats.bytes, bytes_before + 12 * 8);
        assert_eq!(machine.stats.plans_computed, 0, "fallback was seeded, never plans");
        assert_eq!(a.get(&[0]), 99.0);
        assert_eq!(b.get(&[3]), 1003.0);
    }
}
