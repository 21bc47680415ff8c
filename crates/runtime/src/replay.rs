//! The replay core: the one place that moves elements under a compiled
//! [`CopyProgram`].
//!
//! The paper's runtime has a single data operation — copy version *s*
//! into version *t* under a statically compiled schedule (Fig. 19/20) —
//! and this module is its single interpreter. It is written over a set
//! of **lanes**: one [`Lane`] per array being moved, naming the version
//! read, the version written, and which program of the replay's program
//! set moves it. A solo remap ([`crate::ArrayRt::try_remap_guarded`])
//! and a bare [`VersionData::copy_values_from_program`] are the one-lane
//! case; a coalesced remap group ([`crate::try_remap_group`]) is its
//! movers' lanes, in member order.
//!
//! Three layers, each written once: [`replay`] (unguarded), the
//! guarded rounds, and [`run`], the recovery ladder, which the one
//! remap executor calls with each artifact's recompile. All three run
//! on the calling thread: every copy under a compiled program — a remap
//! a [`Machine`] runs, a bare copy whatever its [`crate::ExecMode`],
//! and result extraction or hand-over ([`VersionData::to_dense`],
//! [`VersionData::load_dense`]) — replays serially here.
//!
//! **Serial order.** The unguarded replay walks each lane's program in
//! its blocked serial order ([`CopyProgram::serial_head`]), one block
//! of the strided side at a time. A block whose units share one shape —
//! one stride family each, one run count, one strided-side step, one
//! run width under a cache line, contiguous on the other side — is
//! *dealt*: its units move together, row group by row group, through
//! the run kernel's k-stream loop ([`crate::runs::deal_gather`],
//! [`crate::runs::deal_scatter`]), so each line of the strided block is
//! fetched once per row group instead of once per unit. Every other
//! block is swept in L2-sized tiles, unit by unit. The guarded replay
//! runs attempt 0 of every round in one pass over the same order, whole
//! unit by whole unit (no deal, no tile), summing each unit right after
//! its copy; it validates round by round, and retries a round in round
//! order.
//!
//! **Fault-site contract.** Every injected fault is decided at a site
//! `(epoch, stream, round_no, attempt)`: the caller draws one `epoch`
//! per data-moving remap ([`Machine::next_fault_epoch`]) before calling
//! [`run`]; `stream` is 0 for the served programs and 1 for the
//! re-replay after a recompile; `round_no` 0 is the local group and
//! `r + 1` wire round `r`, rounds without units are skipped and draw
//! nothing; `attempt` counts retries of one round. Every round's attempt
//! 0 is decided before the pass writes anything, and faults are counted
//! round by round up to the first stuck round, as if the rounds ran one
//! after another. For a fixed [`crate::FaultPlan`] the recovery counters
//! in [`crate::NetStats`] are therefore a pure function of the remap
//! sequence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::exec::{CopyProgram, CopyUnit, StrideFamily};
use crate::fault::{decide, poison_program, run_round_ladder, ExecError, FaultKind, RoundCtx};
use crate::machine::Machine;
use crate::runs::{deal_gather, deal_scatter, unit_sets, RunSet, DEAL_STREAMS};
use crate::status::PlannedRemap;
use crate::store::{LocalBlock, VersionData};

/// One array's share of a replay: version `src` is copied into version
/// `dst` by program `at` of the replay's program set (the member index
/// in a group, 0 for a solo remap).
pub(crate) struct Lane<'a> {
    /// Index of this lane's program (and plan) in the replay's tables.
    pub at: usize,
    /// The version read.
    pub src: &'a VersionData,
    /// The version written.
    pub dst: &'a mut VersionData,
}

/// How the core reaches its lanes: the caller's closure hands `visit`
/// an iterator over them, in lane order. The core asks again for every
/// pass it makes, so a caller lends its storage afresh each time — a
/// group straight from `members.iter_mut()` — and collects nothing.
pub(crate) type Lanes<'h> = dyn FnMut(&mut dyn FnMut(&mut dyn Iterator<Item = Lane<'_>>)) + 'h;

/// A program's units of one round: 0 is the local, never-on-the-wire
/// group, `r + 1` is wire round `r`.
fn units_of(prog: &CopyProgram, round: usize) -> &[CopyUnit] {
    match round {
        0 => &prog.local,
        r => &prog.rounds[r - 1],
    }
}

/// Rounds to walk: the local group plus the wire rounds (the programs
/// of one replay are round-aligned, so the longest list is everyone's).
fn n_rounds(progs: &[CopyProgram]) -> usize {
    1 + progs.iter().map(|p| p.rounds.len()).max().unwrap_or(0)
}

/// The families of one unit.
fn fams_of<'p>(prog: &'p CopyProgram, unit: &CopyUnit) -> &'p [StrideFamily] {
    &prog.fams[unit.fams.0 as usize..unit.fams.1 as usize]
}

/// The blocks one unit reads and writes.
fn blocks_of<'v>(
    unit: &CopyUnit,
    src: &'v VersionData,
    dst: &'v mut VersionData,
) -> (&'v LocalBlock, &'v mut LocalBlock) {
    let src_block = src.blocks[unit.provider as usize].as_ref().expect("provider holds the data");
    let dst_block =
        dst.blocks[unit.receiver as usize].as_mut().expect("receiver allocates the data");
    (src_block, dst_block)
}

/// The unguarded replay: every lane's cache-blocked serial walk, lane
/// by lane. Allocation-free — the steady-state path of the cached solo
/// bounce and of the coalesced group bounce alike.
pub(crate) fn replay(progs: &[CopyProgram], lanes: &mut Lanes<'_>) {
    lanes(&mut |each| {
        for lane in each {
            serial_walk(&progs[lane.at], lane.src, lane.dst);
        }
    });
}

/// One round's slot in a guarded replay: the round's concatenated unit
/// list (lanes in order, units in program order) and what one attempt
/// at it delivers. Wire-loss faults apply to that list, like a fault on
/// the shared wire buffer: a drop replays none of it, a truncation its
/// first half, and corruption picks its victim by index, on any lane.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundTally {
    /// The round's unit count, planned elements and number.
    ctx: RoundCtx,
    /// Units of the lanes walked so far: a lane's offset into the list.
    base: usize,
    /// Units at or past `cut` are not replayed; `victim` is scribbled.
    cut: usize,
    victim: Option<usize>,
    /// The attempt's elements, runs and bytes, and the wrapping sums of
    /// the words it read and wrote (under checksums).
    elements: u64,
    runs: u64,
    bytes: u64,
    read: u64,
    written: u64,
}

impl RoundTally {
    /// Start an attempt under `fault`.
    fn arm(&mut self, fault: Option<(FaultKind, u64)>) {
        let units = self.ctx.units;
        (self.cut, self.victim) = match fault {
            Some((FaultKind::DropRound, _)) => (0, None),
            Some((FaultKind::TruncateRound, _)) => (units / 2, None),
            Some((FaultKind::CorruptRound, salt)) => (units, Some((salt % units as u64) as usize)),
            _ => (units, None),
        };
        (self.elements, self.runs, self.bytes, self.read, self.written) = (0, 0, 0, 0, 0);
    }
}

/// One unit of a guarded attempt, `at` its index in its round's list:
/// the one step of the walk and of a retry. Copies the unit (under
/// checksums summing the words it reads, as a sender sums what it
/// sends), scribbles it if it is the victim, and sums the words written
/// back out of destination memory (each is written by one unit only).
fn guarded_unit(
    prog: &CopyProgram,
    (unit, at): (&CopyUnit, usize),
    t: &mut RoundTally,
    checksums: bool,
    src: &VersionData,
    dst: &mut VersionData,
) {
    if at >= t.cut {
        return;
    }
    t.bytes += unit.elements * dst.elem_size;
    let (src_block, dst_block) = blocks_of(unit, src, dst);
    if checksums {
        t.read = t.read.wrapping_add(replay_unit_sum(prog, *unit, src_block, dst_block));
    } else {
        replay_unit(prog, *unit, src_block, dst_block);
    }
    if t.victim == Some(at) {
        flip_unit_word(prog, *unit, dst_block);
    }
    t.runs += unit_n_runs(prog, *unit);
    t.elements += unit.elements;
    if checksums {
        t.written = t.written.wrapping_add(unit_sum(prog, *unit, dst_block));
    }
}

/// Attempt 0 of every round at once, in each lane's blocked serial
/// order ([`CopyProgram::serial_head`]), whole unit by whole unit: a
/// unit's `(group, index)` link names its round and, past the earlier
/// lanes' units, its place in the round's list.
fn walk(progs: &[CopyProgram], lanes: &mut Lanes<'_>, tallies: &mut [RoundTally], sums: bool) {
    lanes(&mut |each| {
        for lane in each {
            let prog = &progs[lane.at];
            let mut link = prog.serial_head;
            while let Some(unit) = prog.unit_at(link) {
                let t = &mut tallies[link.0 as usize];
                guarded_unit(prog, (unit, t.base + link.1 as usize), t, sums, lane.src, lane.dst);
                link = (unit.next_group, unit.next_index);
            }
            for (round, t) in tallies.iter_mut().enumerate() {
                t.base += units_of(prog, round).len();
            }
        }
    })
}

/// A retry of one round under `fault`, in round order. Returns the
/// elements replayed, or `None` when the checksums disagree or the copy
/// panicked.
fn replay_round(
    progs: &[CopyProgram],
    lanes: &mut Lanes<'_>,
    (round, t): (usize, &mut RoundTally),
    checksums: bool,
    fault: Option<(FaultKind, u64)>,
) -> Option<u64> {
    t.arm(fault);
    catch_unwind(AssertUnwindSafe(|| {
        lanes(&mut |each| {
            let mut at = 0;
            for lane in each {
                let prog = &progs[lane.at];
                for unit in units_of(prog, round) {
                    guarded_unit(prog, (unit, at), t, checksums, lane.src, lane.dst);
                    at += 1;
                }
            }
        })
    }))
    .ok()?;
    (t.read == t.written).then_some(t.elements)
}

/// Every round of the program set under the guarded regime: decide
/// every round's attempt-0 fault, run all those attempts in one
/// [`walk`], then validate round by round, each through the shared
/// retry ladder, up to the first stuck round. `stream` separates the
/// fault-decision stream of the served programs from a recompiled
/// set's, so a full re-replay rolls fresh decisions. The returned
/// `(runs, bytes)` count only the authoritative (final successful)
/// attempt of every round; `Err(())` means some round is stuck.
fn replay_rounds(
    machine: &mut Machine,
    progs: &[CopyProgram],
    lanes: &mut Lanes<'_>,
    epoch: u64,
    stream: u32,
) -> Result<(u64, u64), ()> {
    let sums = machine.validation == crate::ValidationLevel::Checksums;
    let mut tallies = std::mem::take(&mut machine.round_tallies);
    tallies.clear();
    tallies.resize(n_rounds(progs), RoundTally::default());
    lanes(&mut |each| {
        for lane in each {
            for (round, t) in tallies.iter_mut().enumerate() {
                let units = units_of(&progs[lane.at], round);
                t.ctx.round_no = round as u32;
                t.ctx.units += units.len();
                t.ctx.expected += units.iter().map(|u| u.elements).sum::<u64>();
            }
        }
    });
    for t in tallies.iter_mut() {
        t.arm(decide(machine, &t.ctx, epoch, stream, 0));
    }
    // A panic fails attempt 0 of every round: none is validated yet.
    let walked = catch_unwind(AssertUnwindSafe(|| walk(progs, lanes, &mut tallies, sums))).is_ok();
    let total = tallies.iter_mut().enumerate().filter(|(_, t)| t.ctx.units > 0).try_fold(
        (0, 0),
        |(runs, bytes), (round, t)| {
            let (ctx, first) = (t.ctx, (walked && t.read == t.written).then_some(t.elements));
            let retry = |sums, fault| replay_round(progs, lanes, (round, &mut *t), sums, fault);
            run_round_ladder(machine, &ctx, epoch, stream, first, retry)?;
            Ok((runs + t.runs, bytes + t.bytes))
        },
    );
    machine.round_tallies = tallies;
    total
}

/// What replaying `progs` over the lanes delivers — `(runs, bytes)` —
/// or `None` when some lane has no program that can be trusted with its
/// storage: none was compiled, or only for another mapping pair (its
/// positions are meaningless against these block layouts), or, with
/// `fingerprints`, it no longer matches its compile-time fingerprint.
fn vet(progs: &[CopyProgram], lanes: &mut Lanes<'_>, fingerprints: bool) -> Option<(u64, u64)> {
    let mut planned = None;
    lanes(&mut |mut each| {
        planned = Iterator::try_fold(&mut each, (0u64, 0u64), |(runs, bytes), lane| {
            let prog = progs.get(lane.at)?;
            let trusted =
                prog.compiled_for(lane.src, lane.dst) && (!fingerprints || prog.integrity_ok());
            trusted.then(|| (runs + prog.n_runs(), bytes + prog.n_elements() * lane.dst.elem_size))
        })
    });
    planned
}

/// The guarded replay's storage checks, as typed errors instead of the
/// unguarded replay's panics: every lane's two versions have the same
/// extents, and every block a lane's program references is allocated.
fn check_storage(progs: &[CopyProgram], lanes: &mut Lanes<'_>) -> Result<(), ExecError> {
    let mut checked = Ok(());
    lanes(&mut |mut each| {
        checked = Iterator::try_for_each(&mut each, |lane| {
            let (s, d) = (&lane.src.mapping.array_extents, &lane.dst.mapping.array_extents);
            if s != d {
                let (src, dst) = (format!("{s:?}"), format!("{d:?}"));
                return Err(ExecError::ShapeMismatch { src, dst });
            }
            let prog = progs.get(lane.at);
            for unit in prog.iter().flat_map(|p| p.local.iter().chain(p.rounds.iter().flatten())) {
                if lane.src.blocks[unit.provider as usize].is_none() {
                    return Err(ExecError::MissingBlock { rank: unit.provider, side: "provider" });
                }
                if lane.dst.blocks[unit.receiver as usize].is_none() {
                    return Err(ExecError::MissingBlock { rank: unit.receiver, side: "receiver" });
                }
            }
            Ok(())
        })
    });
    checked
}

/// The last rung: an independent table-engine copy per lane — it
/// re-derives every position from the plan's descriptors, shares
/// nothing with the compiled programs, and is never fault-injected.
fn tables(machine: &mut Machine, plans: &[Arc<PlannedRemap>], lanes: &mut Lanes<'_>) -> (u64, u64) {
    let mut total = (0u64, 0u64);
    lanes(&mut |each| {
        for lane in each {
            machine.stats.fallbacks_to_tables += 1;
            let (runs, elements) = lane.dst.copy_values_from_plan(lane.src, &plans[lane.at].plan);
            total.0 += runs;
            total.1 += elements * lane.dst.elem_size;
        }
    });
    total
}

/// Move the lanes' data, healing injected or real faults: the recovery
/// ladder every remap shares. `progs[lane.at]` is the program served
/// for a lane (`progs` is empty when the plans cannot drive compiled
/// programs — the table engine then does the work), `planned[lane.at]`
/// the plan behind it, `epoch` the remap's fault epoch, and `recompile`
/// rebuilds the whole program set from the plans. Bills what the
/// authoritative copy delivered (`runs_copied`, `bytes_moved`: each
/// lane's elements at its element size). Served programs are never
/// written: an injected [`FaultKind::PoisonProgram`] corrupts a
/// transient copy of them for this replay, and a recompiled set serves
/// this replay only.
///
/// Unguarded this is the plain [`replay`]. Guarded, the rungs are:
/// (1) bounded retry of a failed round; (2) recompile — at once when a
/// served program is not to be trusted, else after a round got stuck —
/// and re-replay everything on fault stream 1 (idempotent: every
/// destination position is rewritten); (3) the table engine. An injected
/// [`FaultKind::Exhaust`] rejects every round and blocks rung 3, so the
/// remap ends in [`ExecError::Unrecovered`] with the destinations
/// partially written — what the callers' rollback exists for.
pub(crate) fn run(
    machine: &mut Machine,
    planned: &[Arc<PlannedRemap>],
    progs: &[CopyProgram],
    lanes: &mut Lanes<'_>,
    epoch: u64,
    recompile: &dyn Fn() -> Option<Vec<CopyProgram>>,
) -> Result<(), ExecError> {
    let exhaust = machine.faults.as_ref().is_some_and(|f| f.exhaust_fires(epoch));
    if exhaust {
        machine.stats.faults_injected += 1;
    }
    let mut done: Option<(u64, u64)> = None;
    if !machine.guarded() {
        done = vet(progs, lanes, false);
        if done.is_some() {
            replay(progs, lanes);
        }
    } else {
        let mut poisoned = None;
        if !progs.is_empty() && machine.faults.is_some_and(|f| f.poison_fires(epoch)) {
            let bad: &mut Vec<CopyProgram> = poisoned.insert(progs.to_vec());
            bad.iter_mut().for_each(poison_program);
            machine.stats.faults_injected += 1;
        }
        let progs = poisoned.as_deref().unwrap_or(progs);
        let fresh = |machine: &mut Machine, lanes: &mut Lanes<'_>| {
            machine.stats.programs_recompiled += 1;
            recompile().filter(|f| vet(f, lanes, true).is_some())
        };
        let mut repaired: Option<Vec<CopyProgram>> = None;
        let mut active = progs;
        if !progs.is_empty() && vet(progs, lanes, true).is_none() {
            // Poisoned (or foreign) served programs: rung 2 straight away.
            repaired = fresh(machine, lanes);
            active = repaired.as_deref().unwrap_or(&[]);
        }
        check_storage(active, lanes)?;
        if !active.is_empty() {
            done = replay_rounds(machine, active, lanes, epoch, 0).ok();
        }
        if done.is_none() && !progs.is_empty() && repaired.is_none() {
            if let Some(f) = fresh(machine, lanes) {
                done = replay_rounds(machine, &f, lanes, epoch, 1).ok();
            }
        }
    }
    let (runs, bytes) = match done {
        Some(totals) => totals,
        None if exhaust => {
            return Err(ExecError::Unrecovered {
                context: format!("remap epoch {epoch}: injected ladder exhaustion"),
            })
        }
        None => tables(machine, planned, lanes),
    };
    machine.stats.runs_copied += runs;
    machine.stats.bytes_moved += bytes;
    Ok(())
}

/// Elements of the strided side one pass of the serial walk sweeps:
/// 256 KiB of `f64`, a tile any L2 holds beside the contiguous streams.
const SERIAL_TILE: usize = 32768;

/// Elements of the strided side one row group of a deal spans: 32 KiB
/// of `f64`, which an L1d holds, so the passes after a group's first
/// re-read it from L1.
const DEAL_ROW_GROUP: usize = 4096;

/// The rank whose block the serial walk is blocked by: the receiver of
/// a receiver-major program, else the provider.
fn major(prog: &CopyProgram, unit: &CopyUnit) -> u64 {
    if prog.receiver_major {
        unit.receiver
    } else {
        unit.provider
    }
}

/// One lane's serial replay — the allocation-free steady-state path.
/// Walks the program's blocked order one block of the strided side at a
/// time. A block whose units share one shape ([`deal_shape`]) is dealt:
/// all its units move together, row group by row group. Any other block
/// is swept tile by tile: every unit touching it replays its runs inside
/// the tile before the walk moves on, so the tile stays cache-resident
/// however large the block is.
fn serial_walk(prog: &CopyProgram, src: &VersionData, dst: &mut VersionData) {
    debug_assert_eq!(dst.mapping.array_extents, src.mapping.array_extents);
    let mut next = prog.unit_at(prog.serial_head);
    while let Some(first) = next {
        let (p, r) = (first.provider as usize, first.receiver as usize);
        let block = if prog.receiver_major { &dst.blocks[r] } else { &src.blocks[p] };
        let span = block.as_ref().map_or(0, |b| b.data.len());
        if let Some(deal) = deal_shape(prog, first, span) {
            deal_block(prog, first, &deal, src, dst);
            next = deal.after;
            continue;
        }
        for lo in (0..span.max(1)).step_by(SERIAL_TILE) {
            next = Some(first); // every tile re-walks the block's units
            while let Some(unit) = next.filter(|u| major(prog, u) == major(prog, first)) {
                let (src_block, dst_block) = blocks_of(unit, src, dst);
                if span <= SERIAL_TILE {
                    replay_unit(prog, *unit, src_block, dst_block);
                } else {
                    let window = (prog.receiver_major, lo, lo + SERIAL_TILE);
                    replay_unit_window(prog, *unit, src_block, dst_block, window);
                }
                next = prog.unit_at((unit.next_group, unit.next_index));
            }
        }
    }
}

/// What the units of a dealt block share, and where the block ends.
struct Deal<'p> {
    /// Runs per unit.
    count: usize,
    /// Strided-side advance between consecutive runs of a unit.
    step: usize,
    /// The unit after the block in the serial order.
    after: Option<&'p CopyUnit>,
}

/// The [`Deal`] of the strided-side block starting at `first`, or `None`
/// when the block is swept tile by tile. A block is dealt when it spans
/// more than a row group and every unit of it is one stride family of
/// one run count, one strided-side step and one run width narrower than
/// a cache line, with its runs adjacent on the other side (one
/// contiguous stream per unit). Each such unit reads or writes a word
/// or a few out of every line of the block, so replaying
/// the units one by one fetches each line once per unit; wider runs use
/// whole lines and gain nothing.
fn deal_shape<'p>(prog: &'p CopyProgram, first: &'p CopyUnit, span: usize) -> Option<Deal<'p>> {
    if span <= DEAL_ROW_GROUP {
        return None;
    }
    let family = |u: &CopyUnit| match fams_of(prog, u) {
        [f] => Some(f),
        _ => None,
    };
    // (strided-side step, contiguous-side step) of a family.
    let steps = |f: &StrideFamily| match prog.receiver_major {
        true => (f.dst_step, f.src_step),
        false => (f.src_step, f.dst_step),
    };
    let shape = family(first)?;
    if shape.count == 0 || shape.len as usize * std::mem::size_of::<f64>() >= 64 {
        return None;
    }
    let step = steps(shape).0;
    let mut next = Some(first);
    while let Some(unit) = next.filter(|u| major(prog, u) == major(prog, first)) {
        let f = family(unit)?;
        if (f.count, f.len, steps(f)) != (shape.count, shape.len, (step, shape.len)) {
            return None;
        }
        next = prog.unit_at((unit.next_group, unit.next_index));
    }
    Some(Deal { count: shape.count as usize, step: step as usize, after: next })
}

/// Deal the strided-side block starting at `first`: for each row group
/// — the runs whose strided-side positions fall into
/// [`DEAL_ROW_GROUP`] elements — pass over the block's units
/// [`DEAL_STREAMS`] at a time. Out of line, so the tiled sweep that
/// small remaps take keeps the code it had in [`serial_walk`]: inlined,
/// the deal made a loop of 256-element-block remaps about 3 % slower.
#[inline(never)]
fn deal_block(
    prog: &CopyProgram,
    first: &CopyUnit,
    deal: &Deal<'_>,
    src: &VersionData,
    dst: &mut VersionData,
) {
    let in_block = |u: &CopyUnit| major(prog, u) == major(prog, first);
    let rows = (DEAL_ROW_GROUP / deal.step.max(1)).max(1);
    for lo in (0..deal.count).step_by(rows) {
        let mut next = Some(first); // every row group re-walks the units
        while next.is_some_and(in_block) {
            let mut chunk = [*first; DEAL_STREAMS];
            let mut m = 0;
            while let Some(unit) = next.filter(|u| m < DEAL_STREAMS && in_block(u)) {
                chunk[m] = *unit;
                m += 1;
                next = prog.unit_at((unit.next_group, unit.next_index));
            }
            deal_pass(prog, &chunk[..m], src, dst, lo..deal.count.min(lo + rows));
        }
    }
}

/// One pass of a deal: rows `rows` of up to [`DEAL_STREAMS`] units of
/// one strided-side block, through the run kernel's k-stream loop — a
/// scatter into the receiver's block when the program is
/// receiver-major, else a gather out of the provider's block.
fn deal_pass(
    prog: &CopyProgram,
    units: &[CopyUnit],
    src: &VersionData,
    dst: &mut VersionData,
    rows: std::ops::Range<usize>,
) {
    let family = |u: &CopyUnit| RunSet::from(&prog.fams[u.fams.0 as usize]);
    let mut sets = [family(&units[0]); DEAL_STREAMS];
    for (set, unit) in sets.iter_mut().zip(units) {
        *set = family(unit);
    }
    let sets = &sets[..units.len()];
    if prog.receiver_major {
        let mut srcs: [&[f64]; DEAL_STREAMS] = [&[]; DEAL_STREAMS];
        for (words, unit) in srcs.iter_mut().zip(units) {
            let block = src.blocks[unit.provider as usize].as_ref();
            *words = &block.expect("provider holds the data").data;
        }
        let block = dst.blocks[units[0].receiver as usize].as_mut();
        let words = &mut block.expect("receiver allocates the data").data;
        deal_scatter(sets, &srcs[..units.len()], words, rows);
    } else {
        let block = src.blocks[units[0].provider as usize].as_ref();
        let words = &block.expect("provider holds the data").data;
        // One block range per receiver, padded with empty ranges (which
        // overlap nothing): a provider's receivers are distinct.
        let at: [std::ops::Range<usize>; DEAL_STREAMS] = std::array::from_fn(|j| {
            units.get(j).map_or(0..0, |u| u.receiver as usize..u.receiver as usize + 1)
        });
        let blocks = dst.blocks.get_disjoint_mut(at).expect("a provider's receivers are distinct");
        let mut dsts: [&mut [f64]; DEAL_STREAMS] = Default::default();
        for (out, block) in dsts.iter_mut().zip(blocks).take(units.len()) {
            *out = &mut block[0].as_mut().expect("receiver allocates the data").data;
        }
        deal_gather(sets, words, &mut dsts[..units.len()], rows);
    }
}

/// Replay the part of one unit that falls into a window of the serial
/// walk: of every family, the runs whose position on the windowed side
/// (`by_dst`) lies in `lo..hi` — a lone run in the window that holds
/// its start.
#[inline]
fn replay_unit_window(
    prog: &CopyProgram,
    unit: CopyUnit,
    src: &LocalBlock,
    dst: &mut LocalBlock,
    (by_dst, lo, hi): (bool, usize, usize),
) {
    for f in fams_of(prog, &unit) {
        let (base, step) = if by_dst { (f.dst_base, f.dst_step) } else { (f.src_base, f.src_step) };
        // Runs `k0..k1` start inside the window.
        let runs_below = |pos: usize| {
            pos.saturating_sub(base as usize).div_ceil(step.max(1) as usize).min(f.count as usize)
                as u32
        };
        let (k0, k1) = (runs_below(lo), runs_below(hi));
        if k0 < k1 {
            let (k0, set) = (k0 as usize, RunSet::from(f));
            let window = RunSet {
                src: set.src + k0 * set.src_step,
                dst: set.dst + k0 * set.dst_step,
                count: k1 as usize - k0,
                ..set
            };
            window.copy(&src.data, &mut dst.data);
        }
    }
}

/// Replay one unit: every family of it through the run kernel, which
/// picks its loop once per family from the run width. The unit's
/// [`crate::Kernel`] label is not read.
#[inline]
fn replay_unit(prog: &CopyProgram, unit: CopyUnit, src: &LocalBlock, dst: &mut LocalBlock) {
    unit_sets(prog, unit, |set| set.copy(&src.data, &mut dst.data));
}

/// [`replay_unit`], returning the wrapping bit sum of every word it
/// read — the source half of the unit's checksum, summed by the pass
/// that copies.
fn replay_unit_sum(
    prog: &CopyProgram,
    unit: CopyUnit,
    src: &LocalBlock,
    dst: &mut LocalBlock,
) -> u64 {
    let mut sum = 0u64;
    unit_sets(prog, unit, |set| sum = sum.wrapping_add(set.copy_sum(&src.data, &mut dst.data)));
    sum
}

/// Number of logical copy runs one unit performs: every run its
/// families encode — the per-unit slice of [`CopyProgram::n_runs`],
/// used by the guarded replay's accounting.
fn unit_n_runs(prog: &CopyProgram, unit: CopyUnit) -> u64 {
    fams_of(prog, &unit).iter().map(|f| f.count as u64).sum()
}

/// Sum of the words one unit wrote into its receiver block, as raw
/// `f64` bits (wrapping) — the destination half of the per-unit
/// checksum of [`crate::ValidationLevel::Checksums`], read back from
/// destination memory: after a clean replay it equals the sum
/// [`replay_unit_sum`] returned; any scribbled destination word breaks
/// the equality.
fn unit_sum(prog: &CopyProgram, unit: CopyUnit, dst: &LocalBlock) -> u64 {
    let mut sum = 0u64;
    unit_sets(prog, unit, |set| sum = sum.wrapping_add(set.sum(&dst.data)));
    sum
}

/// Flip one bit of the first word a unit delivered — the
/// `CorruptRound` fault's scribble (a unit without runs is left alone).
fn flip_unit_word(prog: &CopyProgram, unit: CopyUnit, dst: &mut LocalBlock) {
    let first = fams_of(prog, &unit).iter().find(|f| f.count > 0 && f.len > 0);
    if let Some(&StrideFamily { dst_base: d, .. }) = first {
        dst.data[d as usize] = f64::from_bits(dst.data[d as usize].to_bits() ^ 1);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::group::tests::two_array_group;
    use crate::group::{try_remap_group, GroupMember, PlannedGroup};
    use crate::redist::plan_redistribution;
    use crate::schedule::CommSchedule;
    use crate::status::ArrayRt;
    use crate::{CopyProgram, ExecMode};
    use hpfc_mapping::testing::{mapping_1d as mk, mapping_2d};
    use hpfc_mapping::{
        AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping,
        NormalizedMapping, ProcGrid, Template, TemplateId,
    };

    /// Run every round of `prog` from `src` into `dst` through the
    /// round ladder of a Checksums machine, corrupting concatenated unit
    /// `victim` of round `round_no` on attempt 0. Returns what each
    /// attempt of that round replayed and the machine's retry count.
    fn corrupt_once(
        prog: &CopyProgram,
        src: &VersionData,
        dst: &mut VersionData,
        (round_no, victim): (usize, usize),
    ) -> (Vec<Option<u64>>, u64) {
        let mut machine = Machine::new(src.blocks.len() as u64)
            .with_validation(crate::ValidationLevel::Checksums);
        let progs = std::slice::from_ref(prog);
        let lanes = &mut |visit: &mut dyn FnMut(&mut dyn Iterator<Item = Lane<'_>>)| {
            visit(&mut std::iter::once(Lane { at: 0, src, dst: &mut *dst }))
        };
        let mut attempts = Vec::new();
        for round in 0..n_rounds(progs) {
            let units = units_of(prog, round);
            let expected = units.iter().map(|u| u.elements).sum();
            let ctx = RoundCtx { expected, units: units.len(), round_no: round as u32 };
            if ctx.units == 0 {
                continue;
            }
            let mut t = RoundTally { ctx, ..RoundTally::default() };
            // The salt selects the victim by index, modulo the units.
            let fault = (round == round_no).then_some((FaultKind::CorruptRound, victim as u64));
            let first = replay_round(progs, lanes, (round, &mut t), true, fault);
            let mut seen = vec![first];
            run_round_ladder(&mut machine, &ctx, 0, 0, first, |checksums, drawn| {
                assert!(checksums && drawn.is_none(), "validation only, no fault plan");
                let got = replay_round(progs, lanes, (round, &mut t), checksums, None);
                seen.push(got);
                got
            })
            .expect("a retried round heals");
            if round == round_no {
                attempts = seen;
            }
        }
        (attempts, machine.stats.rounds_retried)
    }

    #[test]
    fn corruption_is_detected_with_the_source_sum_fused_into_the_copy() {
        // The victim is a unit of 1-word runs, of 4-word runs, and with a
        // lone run. The extent cuts a cyclic(4) chunk, so the 4-word
        // program also carries clipped runs, each a family of one.
        let (n, p) = (4 * 4 * 16 + 6, 4);
        let src = mk(n, p, DimFormat::Block(None));
        type Shape = fn(&CopyProgram, &CopyUnit) -> bool;
        let one_word: Shape = |prog, u| {
            let fams = fams_of(prog, u);
            !fams.is_empty() && fams.iter().all(|f| f.len == 1 && f.count > 1)
        };
        let four_words: Shape = |prog, u| {
            let fams = fams_of(prog, u);
            !fams.is_empty() && fams.iter().all(|f| f.len == 4 && f.count > 1)
        };
        let lone: Shape = |prog, u| fams_of(prog, u).iter().any(|f| f.count == 1);
        let cases =
            [(1, one_word, "1-word runs"), (4, four_words, "4-word runs"), (4, lone, "a lone run")];
        for (k, shape, what) in cases {
            let dst = mk(n, p, DimFormat::Cyclic(Some(k)));
            let plan = plan_redistribution(&src, &dst, 8);
            let prog = CopyProgram::try_compile(&plan, &CommSchedule::from_plan(&plan)).unwrap();
            // The first wire round holding a unit of the shape (round 0
            // is the local group, which the fault model covers too).
            let site = (0..=prog.rounds.len())
                .find_map(|r| Some((r, units_of(&prog, r).iter().position(|u| shape(&prog, u))?)))
                .unwrap_or_else(|| panic!("cyclic({k}) has a unit of {what}"));
            let mut a = VersionData::new(src.clone(), 8);
            a.fill(|q| (q[0] * 3 + 1) as f64);
            let mut b = VersionData::new(dst.clone(), 8);
            let (attempts, retried) = corrupt_once(&prog, &a, &mut b, site);
            let planned = units_of(&prog, site.0).iter().map(|u| u.elements).sum();
            assert_eq!(
                attempts,
                vec![None, Some(planned)],
                "{what}: the corrupted attempt is rejected, the retry accepted"
            );
            assert_eq!(retried, 1, "{what}: exactly one retry");
            let mut oracle = VersionData::new(dst, 8);
            oracle.copy_values_from(&a);
            assert!(b == oracle, "{what}: healed to the table engine's copy");
        }
    }

    #[test]
    fn walked_faults_land_on_their_rounds_across_lanes() {
        // Two movers of one group: `a` goes block -> cyclic(n / 8), which
        // reaches two ranks from each, `b` block -> cyclic(1), which
        // reaches all four. A wire round holds fewer units of `a` than
        // of `b`, so a truncation's cut — half the round's concatenated
        // list — falls inside `b`'s units.
        use crate::FaultKind::{CorruptRound, TruncateRound};
        let (n, p) = (256u64, 4u64);
        let block = mk(n, p, DimFormat::Block(None));
        let targets = [mk(n, p, DimFormat::Cyclic(Some(n / 8))), mk(n, p, DimFormat::Cyclic(None))];
        let pair = |d: &NormalizedMapping| {
            Arc::new(crate::PlannedRemap::compile(plan_redistribution(&block, d, 8)))
        };
        let group = PlannedGroup::compile(targets.iter().map(pair).collect());
        let progs = &group.program.as_ref().expect("both members compile").members;
        let units = |r: usize| progs.iter().map(|prog| units_of(prog, r).len()).sum::<usize>();
        let lane_a = |r: usize| units_of(&progs[0], r).len();
        // The attempt-0 decisions of the group's epoch (the machine's
        // first data-moving remap) on the served programs' stream.
        let first = |plan: &crate::FaultPlan, r: usize| {
            plan.round_fault(0, 0, r as u32, 0).filter(|_| units(r) > 0).map(|(k, _)| k)
        };
        let rounds = 0..n_rounds(progs);
        let plan = (0..10_000)
            .map(|seed| crate::FaultPlan::new(seed, 30, &[CorruptRound, TruncateRound]))
            .find(|plan| {
                let cut_in_b = rounds.clone().any(|r| {
                    first(plan, r) == Some(TruncateRound) && units(r) / 2 > lane_a(r)
                });
                let corrupt = rounds.clone().any(|r| first(plan, r) == Some(CorruptRound));
                let heals = rounds.clone().all(|r| {
                    (0..4).any(|attempt| plan.round_fault(0, 0, r as u32, attempt).is_none())
                });
                cut_in_b && corrupt && heals
            })
            .expect("a seed truncates inside the second lane and corrupts another round");
        // Under checksums every wire fault is caught, so each faulted
        // attempt of a round is followed by one retry, until a clean one.
        let mut want = (0u64, 0u64);
        for r in rounds.filter(|&r| units(r) > 0) {
            let faulted =
                (0..4).take_while(|&k| plan.round_fault(0, 0, r as u32, k).is_some()).count();
            want.0 += faulted as u64;
            want.1 += faulted as u64;
        }

        let mut machine = Machine::new(p)
            .with_validation(crate::ValidationLevel::Checksums)
            .with_faults(plan);
        let [mut a, mut b] = [0.0, 1000.0].map(|shift| {
            let to = targets[(shift > 0.0) as usize].clone();
            let mut rt = ArrayRt::new("a", vec![block.clone(), to], 8);
            rt.current(&mut machine, 0).fill(|q| shift + q[0] as f64);
            rt
        });
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        assert_eq!(try_remap_group(&mut machine, &mut members, &group).expect("healed"), 2);
        for (rt, to) in [&a, &b].into_iter().zip(&targets) {
            let mut tables = VersionData::new(to.clone(), 8);
            tables.copy_values_from(rt.copies[0].as_ref().expect("the source stays live"));
            assert!(*rt.copies[1].as_ref().unwrap() == tables, "the table engine's bytes");
        }
        let s = &machine.stats;
        assert_eq!((s.faults_injected, s.rounds_retried), want, "one retry per faulted attempt");
        assert_eq!((s.programs_recompiled, s.fallbacks_to_tables), (0, 0), "retries healed");
    }

    #[test]
    fn tile_boundary_blocks_replay_exactly_solo_and_group() {
        // Solo: Block → Cyclic(n/4) on 2 ranks, with blocks of exactly
        // SERIAL_TILE elements and of a few more. The serial walk
        // replays the first in one pass and sweeps the second window by
        // window; both write the table engine's bytes.
        let tile = SERIAL_TILE as u64;
        for n in [2 * tile, 2 * tile + 8] {
            let src = mk(n, 2, DimFormat::Block(None));
            let dst = mk(n, 2, DimFormat::Cyclic(Some(n / 4)));
            let plan = plan_redistribution(&src, &dst, 8);
            let schedule = CommSchedule::from_plan(&plan);
            let prog = crate::CopyProgram::try_compile(&plan, &schedule).expect("compiles");
            let mut a = VersionData::new(src, 8);
            a.fill(|p| (p[0] % 8191) as f64);
            let mut replayed = VersionData::new(dst.clone(), 8);
            replayed.copy_values_from_program(&a, &prog, ExecMode::Serial);
            let mut tables = VersionData::new(dst, 8);
            tables.copy_values_from(&a);
            assert!(replayed == tables, "n = {n}: replay matches the table engine");
        }

        // Group: two members with tile-sized blocks — the machine's
        // serial group replay moves both members exactly.
        let gn = 2 * tile;
        let (mut machine, mut a, mut b, fwd, _back) =
            two_array_group(gn, 2, DimFormat::Block(None), DimFormat::Cyclic(Some(gn / 4)));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            assert_eq!(try_remap_group(&mut machine, &mut members, &fwd).expect("group remap"), 2);
        }
        let want_a: Vec<f64> = (0..gn).map(|i| i as f64).collect();
        let want_b: Vec<f64> = (0..gn).map(|i| 1000.0 + i as f64).collect();
        assert_eq!(a.copies[1].as_ref().unwrap().to_dense(), want_a);
        assert_eq!(b.copies[1].as_ref().unwrap().to_dense(), want_b);
    }

    /// `(dealt, swept)`: the strided-side blocks of `prog`, over
    /// versions of its pair, that the serial walk deals, and that it
    /// sweeps tile by tile although they span more than a row group.
    fn census(prog: &CopyProgram, src: &VersionData, dst: &VersionData) -> (usize, usize) {
        let (mut dealt, mut swept) = (0, 0);
        let mut next = prog.unit_at(prog.serial_head);
        while let Some(first) = next {
            let (p, r) = (first.provider as usize, first.receiver as usize);
            let block = if prog.receiver_major { &dst.blocks[r] } else { &src.blocks[p] };
            let span = block.as_ref().map_or(0, |b| b.data.len());
            match deal_shape(prog, first, span) {
                Some(_) => dealt += 1,
                None if span > DEAL_ROW_GROUP => swept += 1,
                None => {}
            }
            while let Some(unit) = next.filter(|u| major(prog, u) == major(prog, first)) {
                next = prog.unit_at((unit.next_group, unit.next_index));
            }
        }
        (dealt, swept)
    }

    /// The compiled program of a pair, with versions of both sides.
    fn compiled(
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
    ) -> (CopyProgram, VersionData, VersionData) {
        let plan = plan_redistribution(src, dst, 8);
        let prog = CopyProgram::try_compile(&plan, &CommSchedule::from_plan(&plan));
        let (a, b) = (VersionData::new(src.clone(), 8), VersionData::new(dst.clone(), 8));
        (prog.expect("compiles"), a, b)
    }

    #[test]
    fn the_deal_is_chosen_by_block_shape() {
        // Block -> cyclic(1) at P = 16 with blocks of 4 row groups: every
        // provider block is dealt, and so is every receiver block back.
        let n = 16 * 4 * DEAL_ROW_GROUP as u64;
        let block = mk(n, 16, DimFormat::Block(None));
        let cyclic = mk(n, 16, DimFormat::Cyclic(None));
        for (from, to) in [(&block, &cyclic), (&cyclic, &block)] {
            let (prog, a, b) = compiled(from, to);
            assert_eq!(census(&prog, &a, &b), (16, 0), "block <-> cyclic(1) deals every block");
        }
        // A lone run beside the first block's first family: that block
        // is swept, the other fifteen still dealt.
        let (mut prog, a, b) = compiled(&block, &cyclic);
        let (g, i) = prog.serial_head;
        let head = if g == 0 { &mut prog.local } else { &mut prog.rounds[g as usize - 1] };
        let (first, end) = (head[i as usize].fams.0 as usize, prog.fams.len() as u32);
        head[i as usize].fams = (end, end + 2);
        let lone = StrideFamily { count: 1, src_step: 0, dst_step: 0, ..prog.fams[first] };
        prog.fams.extend([prog.fams[first], lone]);
        assert_eq!(census(&prog, &a, &b), (15, 1), "a block with a lone run is swept");
        // ... but not at one row group: nothing to re-read.
        let small = 16 * DEAL_ROW_GROUP as u64;
        let from = mk(small, 16, DimFormat::Block(None));
        let (prog, a, b) = compiled(&from, &mk(small, 16, DimFormat::Cyclic(None)));
        assert_eq!(census(&prog, &a, &b), (0, 0), "blocks of one row group are not dealt");

        // ADI's transpose moves 256-word runs, which use whole cache lines.
        let rows = mapping_2d(1024, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let cols = mapping_2d(1024, 4, vec![DimFormat::Collapsed, DimFormat::Block(None)]);
        let (prog, a, b) = compiled(&rows, &cols);
        assert!(prog.fams.iter().all(|f| f.len == 256), "ADI moves 256-word runs");
        assert_eq!(census(&prog, &a, &b), (0, 4), "256-word runs are swept");

        // Mixed families: (*, block) -> (*, cyclic) is one family per row.
        let from = mapping_2d(256, 4, vec![DimFormat::Collapsed, DimFormat::Block(None)]);
        let to = mapping_2d(256, 4, vec![DimFormat::Collapsed, DimFormat::Cyclic(None)]);
        let (prog, a, b) = compiled(&from, &to);
        assert!(prog.local.iter().all(|u| u.fams.1 - u.fams.0 > 1), "several families per unit");
        assert_eq!(census(&prog, &a, &b), (0, 4), "units of several families are swept");
    }

    /// A `rows × cols` array identity-aligned to a template of its
    /// shape, distributed `fmts` over `p` processors.
    fn rect(rows: u64, cols: u64, p: u64, fmts: [DimFormat; 2]) -> NormalizedMapping {
        let shape = Extents::new(&[rows, cols]);
        let t = Template { id: TemplateId(0), name: "T".into(), shape: shape.clone() };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        let dist = Distribution::new(GridId(0), fmts.to_vec());
        Mapping { align: Alignment::identity(TemplateId(0), 2), dist }
            .normalize(&shape, &t, &g)
            .expect("well-formed 2-D mapping")
    }

    /// A 1-D array distributed `fmt` over the first axis of a `p × 2`
    /// grid and replicated along the second.
    fn replicated(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n, 2]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p, 2]) };
        let targets = vec![AlignTarget::identity(0), AlignTarget::Replicate];
        let align = Alignment { template: TemplateId(0), targets };
        Mapping { align, dist: Distribution::new(GridId(0), vec![fmt, DimFormat::Block(None)]) }
            .normalize(&Extents::new(&[n]), &t, &g)
            .expect("well-formed replicated mapping")
    }

    /// Move distinct values from `from` into `to` as a solo copy, as
    /// both lanes of a coalesced group and through `load_dense` /
    /// `to_dense`, and demand the table engine's copy and the dense
    /// truth of every one. Returns the solo program's [`census`].
    fn deal_matches_the_oracles(
        from: &NormalizedMapping,
        to: &NormalizedMapping,
        what: &str,
    ) -> (usize, usize) {
        let n = from.array_extents.volume();
        let truth: Vec<f64> = (0..n).map(|i| (7 * i + 1) as f64).collect();
        let (prog, mut a, mut solo) = compiled(from, to);
        a.load_dense(truth.clone());
        assert_eq!(a.to_dense(), truth, "{what}: the source round-trips through dense");
        let mut tables = VersionData::new(to.clone(), 8);
        tables.copy_values_from(&a);

        solo.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert!(solo == tables, "{what}: solo replay differs from the table engine");
        assert_eq!(solo.to_dense(), truth, "{what}: solo replay, extracted");
        let mut loaded = VersionData::new(to.clone(), 8);
        loaded.load_dense(truth.clone());
        assert!(loaded == tables, "{what}: load_dense differs from the table engine");

        let pair = |s: &NormalizedMapping, d: &NormalizedMapping| {
            Arc::new(crate::PlannedRemap::compile(plan_redistribution(s, d, 8)))
        };
        let group = PlannedGroup::compile(vec![pair(from, to), pair(from, to)]);
        let mut machine = Machine::new(from.grid_shape.volume());
        let shifts = [0.0, 1000.0];
        let [mut x, mut y] = shifts.map(|shift| {
            let mut rt = ArrayRt::new("a", vec![from.clone(), to.clone()], 8);
            rt.current(&mut machine, 0).load_dense(truth.iter().map(|v| v + shift).collect());
            rt
        });
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        let mut members = [
            GroupMember { rt: &mut x, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut y, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        assert_eq!(try_remap_group(&mut machine, &mut members, &group).expect("group"), 2);
        assert_eq!(machine.stats.remap_groups_coalesced, 1, "{what}: the lanes moved together");
        for (rt, shift) in [x, y].iter().zip(shifts) {
            let got = rt.copies[1].as_ref().expect("the target is allocated");
            if shift == 0.0 {
                assert!(*got == tables, "{what}: group lane differs from the table engine");
            }
            let want: Vec<f64> = truth.iter().map(|v| v + shift).collect();
            assert_eq!(got.to_dense(), want, "{what}: group lane {shift}, extracted");
        }
        census(&prog, &a, &solo)
    }

    #[test]
    fn dealt_blocks_replay_like_the_table_engine_and_the_dense_truth() {
        // Blocks of 2 row groups and 3 more runs per unit (the last row
        // group is ragged), the last block half as long plus one (its
        // units differ, so it is swept); P = 3, 5, 13 and 17 need a
        // short last pass of streams.
        for k in 1..=4u64 {
            for p in [3u64, 5, 13, 16, 17] {
                let per_row_group = DEAL_ROW_GROUP as u64 / (k * p);
                let b = k * p * (2 * per_row_group + 3);
                let n = (p - 1) * b + b / 2 + 1;
                let block = mk(n, p, DimFormat::Block(Some(b)));
                let cyclic = mk(n, p, DimFormat::Cyclic(Some(k)));
                for (from, to, dir) in [(&block, &cyclic, "->"), (&cyclic, &block, "<-")] {
                    let what = format!("n={n} P={p} block {dir} cyclic({k})");
                    let (dealt, _) = deal_matches_the_oracles(from, to, &what);
                    assert!(dealt >= p as usize - 1, "{what}: {dealt} blocks dealt");
                }
            }
        }
        // A replicated destination: every stream is written twice over.
        let (k, p) = (2u64, 5u64);
        let b = k * p * (2 * (DEAL_ROW_GROUP as u64 / (k * p)) + 3);
        let n = p * b;
        let block = replicated(n, p, DimFormat::Block(Some(b)));
        let cyclic = replicated(n, p, DimFormat::Cyclic(Some(k)));
        for (from, to, dir) in [(&block, &cyclic, "->"), (&cyclic, &block, "<-")] {
            let what = format!("replicated block {dir} cyclic({k})");
            let (dealt, _) = deal_matches_the_oracles(from, to, &what);
            assert!(dealt > 0, "{what}: some block is dealt");
        }
        // 2-D: (block, *) <-> (cyclic, *) over rows of 3 words moves one
        // row per run and is dealt; (*, block) <-> (*, cyclic) is one
        // family per row and is swept — both must replay exactly.
        let p = 5u64;
        let rows = p * (2 * (DEAL_ROW_GROUP as u64 / (3 * p)) + 3);
        let long = (p - 1) * rows + 11;
        let fmt = |d: DimFormat| [d, DimFormat::Collapsed];
        let from = rect(long, 3, p, fmt(DimFormat::Block(Some(rows))));
        let to = rect(long, 3, p, fmt(DimFormat::Cyclic(None)));
        for (from, to, dir) in [(&from, &to, "->"), (&to, &from, "<-")] {
            let what = format!("(block, *) {dir} (cyclic, *)");
            let (dealt, _) = deal_matches_the_oracles(from, to, &what);
            assert!(dealt > 0, "{what}: some block is dealt");
        }
        let fmt = |d: DimFormat| [DimFormat::Collapsed, d];
        let from = rect(3, long, p, fmt(DimFormat::Block(Some(rows))));
        let to = rect(3, long, p, fmt(DimFormat::Cyclic(None)));
        for (from, to, dir) in [(&from, &to, "->"), (&to, &from, "<-")] {
            deal_matches_the_oracles(from, to, &format!("(*, block) {dir} (*, cyclic)"));
        }
    }
}
