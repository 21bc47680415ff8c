//! Compiled copy programs: the data-movement half of a remap, resolved
//! once at plan time into stride-encoded run families
//! ([`StrideFamily`]), each unit labelled with the [`Kernel`] shape its
//! families make. Every run lies in exactly one family: a run that no
//! progression covers is a family of one. This module is the
//! *artifact* — its encoding, its compilation, its fingerprint; the one
//! interpreter that replays it (allocation-free and serial on every
//! `Machine`) is the crate's `replay` module.
//!
//! # Before / after
//!
//! The block-level engine of [`crate::VersionData::copy_values_from`]
//! already moves whole `copy_from_slice` runs, but it re-derives the
//! *positions* of those runs on every copy: per copy it rebuilds the
//! side-assembly tables, re-materializes every `(dimension, entry)` run
//! vector, and calls [`PeriodicSet::count_below`] twice per run — a
//! handful of divisions per copied run, plus `O(runs)` fresh heap
//! allocations, on the hot path of every remap bounce. A
//! [`CopyProgram`] does all of that exactly once, when the plan enters
//! the per-array cache:
//!
//! * **compile** ([`CopyProgram::try_compile`], O(descriptor entries ×
//!   runs per hyper-period) in the innermost dimension — flat in its
//!   extent; the outer dimensions of a rank ≥ 2 array are stepped index
//!   by index — once per (source, destination) version pair): walk the
//!   same descriptor odometer the table engine walks, but *record*
//!   positions instead of copying, and record them per [`RunFamily`] of
//!   the innermost dimension
//!   ([`intersect_families`]: one period's runs × a repeat count, both
//!   sides' local steps from two `count_below`s), not per run. A
//!   streaming encoder turns each (provider, receiver) pair's items
//!   into [`StrideFamily`]s — what the merge-then-greedy passes over
//!   the listed runs would produce, byte for byte, wherever a period
//!   holds one run; where it holds several, one family per base run
//!   (after merging what is contiguous on both sides), which is the
//!   smaller artifact — grouped into per-(provider, receiver)
//!   [`CopyUnit`]s;
//! * **replay** ([`crate::VersionData::copy_values_from_program`],
//!   every later copy): every family goes through one run kernel, whose
//!   loop is picked once per family from the run width — fixed-size
//!   moves for runs of 1, 2, 4 and 8 words, `copy_from_slice` for any
//!   other. No positions are recomputed, nothing is allocated — the
//!   steady-state remap path performs zero heap allocations (pinned by
//!   the counting-allocator test `alloc_free.rs`).
//!
//! # Rounds
//!
//! Units are grouped exactly like the [`crate::CommSchedule`]'s
//! caterpillar rounds (plus one round-like group for the local,
//! never-on-the-wire copies). Within a round every processor has at
//! most one partner, so the round's receivers are pairwise distinct —
//! each destination block is written by exactly one unit. The guarded
//! replay walks these rounds on one thread (they are its fault sites);
//! nothing replays them in parallel.
//!
//! Serial unguarded replay needs neither the wire order nor disjoint
//! `&mut`s — every destination element is written by exactly one run —
//! so it walks a cache-blocked order threaded through the units at
//! compile time instead ([`CopyProgram::serial_order`]; see
//! `ARCHITECTURE.md`, "Replay order is not schedule order").
//!
//! [`PeriodicSet::count_below`]: hpfc_mapping::PeriodicSet::count_below
//! [`RunFamily`]: hpfc_mapping::RunFamily
//! [`intersect_families`]: hpfc_mapping::intersect_families

use hpfc_mapping::intervals::{intersect_families, intersect_runs};

use crate::redist::{DimContribution, RedistPlan};
use crate::schedule::CommSchedule;
use crate::store::VersionData;

/// The mode argument of a bare
/// [`crate::VersionData::copy_values_from_program`]. It chooses nothing:
/// every copy under a compiled program replays serially, on the calling
/// thread, whatever the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread replays every unit in the program's serial order.
    Serial,
    /// Replays exactly like [`ExecMode::Serial`]; the count is ignored.
    Parallel(usize),
}

/// A stride-encoded family of copy runs: `count` runs of `len`
/// elements each, whose `(src_pos, dst_pos)` pairs form an arithmetic
/// progression starting at `(src_base, dst_base)` with per-run steps
/// `(src_step, dst_step)`. One 24-byte descriptor stands for `count`
/// runs — for a cyclic(1) destination (one run per *element*) the whole
/// (provider, receiver) pair collapses to a single family, shrinking
/// the n=4M artifact from O(n) runs to O(P_src × P_dst) descriptors. A
/// run no progression covers is a lone run: `count == 1`, steps 0.
/// Positions are `u32` deliberately — blocks larger than `u32::MAX`
/// elements make [`CopyProgram::try_compile`] decline (the table engine
/// then serves as the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFamily {
    /// Element offset of the first run in the provider's local data.
    pub src_base: u32,
    /// Element offset of the first run in the receiver's local data.
    pub dst_base: u32,
    /// Number of runs in the family (≥ 1).
    pub count: u32,
    /// Source offset advance between consecutive runs.
    pub src_step: u32,
    /// Destination offset advance between consecutive runs.
    pub dst_step: u32,
    /// Length of every run in the family, in elements.
    pub len: u32,
}

/// The shape of a [`CopyUnit`]'s families — a label stamped at compile
/// time, covered by the fingerprint and reported by traces. A family is
/// a *progression* when it holds several runs, else a *lone run*.
/// Replay does not dispatch on it: every family goes through one run
/// kernel, which picks its loop once per family from the run width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Exactly one lone run: the whole unit is one copy.
    Memcpy,
    /// Progressions only, every run one element long (the cyclic(1)
    /// shape): a gather/scatter of single words.
    Gather,
    /// Progressions only, general run length.
    Strided,
    /// Lone runs only, more than one (or an empty unit).
    Triples,
    /// Both progressions and lone runs.
    Mixed,
}

/// All runs of one (provider, receiver) pair: `fams` is a half-open
/// index range into [`CopyProgram::fams`], and `kernel` labels its
/// shape. Local units have `provider == receiver` (the receiver already
/// holds the elements under the source mapping); remote units
/// correspond one-to-one to the schedule's packed messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyUnit {
    /// Rank whose *source-version* block is read.
    pub provider: u64,
    /// Rank whose *destination-version* block is written.
    pub receiver: u64,
    /// Half-open range into the program's stride-family list.
    pub fams: (u32, u32),
    /// The shape label chosen at compile time (not read by replay).
    pub kernel: Kernel,
    /// Total elements this unit moves (the load-balancing weight).
    pub elements: u64,
    /// The unit [`CopyProgram::serial_order`] visits after this one:
    /// group 0 is `local`, group `r + 1` is `rounds[r]`, and
    /// [`SERIAL_END`] ends the walk.
    pub next_group: u16,
    /// Index of the next unit within `next_group`.
    pub next_index: u32,
}

/// The `next_group` that ends the serial walk.
pub const SERIAL_END: u16 = u16::MAX;

// The links fit the padding behind `kernel`: the order costs no bytes.
const _: () = assert!(std::mem::size_of::<CopyUnit>() == 40);

/// A compiled copy program: the executable form of one redistribution's
/// data movement. Built once per (source, destination) version pair and
/// cached per array ([`crate::ArrayRt::planned`]) or attached at compile
/// time by `hpfc-codegen`'s lowering, then replayed by
/// [`crate::VersionData::copy_values_from_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyProgram {
    /// The (source, destination) mapping pair the families were
    /// compiled for — replay refuses to apply them to any other pair
    /// (precompiled positions are meaningless against different block
    /// layouts). The `Arc` is shared with
    /// [`crate::RedistPlan::mappings`]: a cached
    /// [`crate::PlannedRemap`] stores the pair once, halving its
    /// mapping footprint.
    pub mappings: std::sync::Arc<(hpfc_mapping::NormalizedMapping, hpfc_mapping::NormalizedMapping)>,
    /// Stride-encoded run families, unit `fams` ranges index this.
    pub fams: Vec<StrideFamily>,
    /// Local units (`provider == receiver`), sorted by receiver — one
    /// round-like group whose receivers are all distinct.
    pub local: Vec<CopyUnit>,
    /// Remote units grouped by caterpillar round (mirrors
    /// [`CommSchedule::rounds`]); within a round receivers are
    /// pairwise distinct, each round's units sorted by receiver.
    pub rounds: Vec<Vec<CopyUnit>>,
    /// Total elements delivered (local + remote, replicas counted) —
    /// equals `plan.local_elements + plan.remote_elements()`.
    pub total_elements: u64,
    /// `(group, index)` of the serial walk's first unit, encoded like
    /// [`CopyUnit::next_group`].
    pub serial_head: (u16, u32),
    /// Whether the serial walk is blocked by receiver (the destination
    /// is the strided side) rather than by provider.
    pub receiver_major: bool,
    /// Integrity fingerprint over the families and units, computed at
    /// compile time. The guarded replay path recomputes it before
    /// trusting a cached program ([`CopyProgram::integrity_ok`]): a
    /// poisoned cache entry cannot keep its fingerprint consistent, so
    /// corruption is detected *before* any position is dereferenced.
    pub fingerprint: u64,
}

/// Why [`CopyProgram::compile_checked`] declined to compile a plan —
/// the former silent `None` reasons, promoted to a typed result so the
/// fallback decision is auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileDecline {
    /// The plan carries no per-dimension descriptors (e.g. one built by
    /// [`crate::plan_by_enumeration`]) or no mapping pair.
    NoDescriptors,
    /// Rank-0 scalar: the replica walk of the table engine is cheaper
    /// than a compiled program.
    Rank0,
    /// Some local position or run index overflows `u32` (blocks beyond
    /// 4 Gi elements); the table engine's `u64` arithmetic is the
    /// fallback.
    PositionOverflow,
}

impl std::fmt::Display for CompileDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileDecline::NoDescriptors => write!(f, "plan carries no descriptors"),
            CompileDecline::Rank0 => write!(f, "rank-0 scalar"),
            CompileDecline::PositionOverflow => write!(f, "local position overflows u32"),
        }
    }
}

impl CopyProgram {
    /// Number of precompiled runs: every run a stride family encodes —
    /// the logical copy count a flat run list would store (modulo
    /// contiguous coalescing).
    pub fn n_runs(&self) -> u64 {
        self.fams.iter().map(|f| f.count as u64).sum()
    }

    /// Bytes the compiled artifact's run encoding occupies — the
    /// cache-residency number the stride encoding exists to shrink
    /// (families + unit descriptors).
    pub fn artifact_bytes(&self) -> usize {
        self.fams.len() * std::mem::size_of::<StrideFamily>()
            + (self.local.len() + self.rounds.iter().map(Vec::len).sum::<usize>())
                * std::mem::size_of::<CopyUnit>()
    }

    /// Total elements the program delivers (each destination replica
    /// counts once).
    pub fn n_elements(&self) -> u64 {
        self.total_elements
    }

    /// Compile the plan's descriptor tables into an executable program.
    ///
    /// Returns `None` when the plan cannot drive a compiled program:
    /// it carries no descriptors (the enumeration oracle), it is a
    /// rank-0 scalar (the replica walk is cheaper than a program), or
    /// some local position overflows `u32` (blocks beyond 4 Gi
    /// elements). Callers fall back to the table engine
    /// ([`crate::VersionData::copy_values_from_plan`]). The typed
    /// reason is available from [`CopyProgram::compile_checked`].
    pub fn try_compile(plan: &RedistPlan, schedule: &CommSchedule) -> Option<CopyProgram> {
        CopyProgram::compile_checked(plan, schedule).ok()
    }

    /// [`CopyProgram::try_compile`] with the decline reason made
    /// explicit — the rank-0 / `u32`-overflow / no-descriptor debug
    /// assumptions promoted into a typed result.
    pub fn compile_checked(
        plan: &RedistPlan,
        schedule: &CommSchedule,
    ) -> Result<CopyProgram, CompileDecline> {
        CopyProgram::compile_inner(plan, schedule, false)
    }

    /// Whether the stored fingerprint still matches the program's
    /// contents — the cheap integrity check the guarded replay path
    /// applies before trusting a cached program.
    pub fn integrity_ok(&self) -> bool {
        self.fingerprint == self.content_fingerprint()
    }

    /// Stamp the fingerprint of a freshly assembled program.
    fn sealed(mut self) -> CopyProgram {
        self.fingerprint = self.content_fingerprint();
        self
    }

    /// Fingerprint of the program's executable content: every stride
    /// family, every unit boundary (family range, kernel tag, serial
    /// link), and the totals. Any single-field corruption of a cached
    /// program changes the value, and memory corruption cannot keep the
    /// stored fingerprint consistent with recomputation.
    fn content_fingerprint(&self) -> u64 {
        let link = |(group, index): (u16, u32)| ((group as u64) << 32) | index as u64;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        h = mix64(h ^ self.total_elements);
        h = mix64(h ^ link(self.serial_head) ^ ((self.receiver_major as u64) << 63));
        h = mix64(h ^ self.fams.len() as u64);
        for f in &self.fams {
            h = mix64(h ^ (((f.src_base as u64) << 32) | f.dst_base as u64));
            h = mix64(h ^ (((f.src_step as u64) << 32) | f.dst_step as u64));
            h = mix64(h ^ (((f.count as u64) << 32) | f.len as u64));
        }
        h = mix64(h ^ self.rounds.len() as u64);
        for u in self.local.iter().chain(self.rounds.iter().flatten()) {
            h = mix64(h ^ (u.provider.rotate_left(32) ^ u.receiver));
            h = mix64(h ^ (((u.fams.0 as u64) << 32) | u.fams.1 as u64));
            h = mix64(h ^ u.elements);
            h = mix64(h ^ u.kernel as u64);
            h = mix64(h ^ link((u.next_group, u.next_index)));
        }
        h
    }

    /// [`CopyProgram::try_compile`], parameterized over whether empty
    /// rounds are kept: a member program of a [`GroupCopyProgram`] is
    /// compiled against the *merged* schedule of its whole remap group,
    /// and must keep one (possibly empty) unit list per merged round so
    /// round `r` means the same wire round for every member.
    fn compile_inner(
        plan: &RedistPlan,
        schedule: &CommSchedule,
        keep_empty_rounds: bool,
    ) -> Result<CopyProgram, CompileDecline> {
        let (src, dst) = plan.mappings.as_deref().ok_or(CompileDecline::NoDescriptors)?;
        let rank = src.array_extents.rank();
        if rank == 0 {
            return Err(CompileDecline::Rank0);
        }
        if plan.dims.len() != rank {
            return Err(CompileDecline::NoDescriptors);
        }
        let mappings = std::sync::Arc::clone(plan.mappings.as_ref().expect("checked above"));
        if plan.dims.iter().any(|e| e.is_empty()) {
            // Empty array: a program with nothing to do (round-aligned
            // when asked, so group replay can still index by round).
            let rounds = if keep_empty_rounds {
                vec![Vec::new(); schedule.rounds.len()]
            } else {
                Vec::new()
            };
            return Ok(CopyProgram {
                mappings,
                fams: Vec::new(),
                local: Vec::new(),
                rounds,
                total_elements: 0,
                serial_head: (SERIAL_END, 0),
                receiver_major: false,
                fingerprint: 0,
            }
            .sealed());
        }
        let per_dim = &plan.dims;

        // Per entry, the local extent of the owning block along that
        // dimension on each side: `|src_set|` / `|dst_set|`, the same
        // sets the storage layer's blocks address through.
        let s_lens: Vec<Vec<u64>> =
            per_dim.iter().map(|es| es.iter().map(|e| e.src_set.count()).collect()).collect();
        let d_lens: Vec<Vec<u64>> =
            per_dim.iter().map(|es| es.iter().map(|e| e.dst_set.count()).collect()).collect();

        // Decline closed-form first: every recorded position is a
        // prefix count into one rank's local block, bounded by that
        // rank's per-dim count product — so when any side's largest
        // local volume exceeds the u32 family format, some position
        // must overflow, and the program is refused in O(descriptor
        // entries). This pre-check, the encoder's emissions, the
        // unit-range assembly, and the stride-family counts all funnel
        // through the single [`fit_u32`] gate, so every >4Gi shape
        // declines via the same `CompileDecline::PositionOverflow` path.
        let max_local = |lens: &[Vec<u64>]| {
            lens.iter()
                .map(|ls| ls.iter().copied().max().unwrap_or(0))
                .fold(1u64, u64::saturating_mul)
        };
        fit_u32(max_local(&s_lens))?;
        fit_u32(max_local(&d_lens))?;

        // The outer dimensions are stepped index by index, so their
        // runs are listed; the innermost dimension never is — each of
        // its entries is described once, as items in local positions.
        let (inner, outer) = per_dim.split_last().expect("rank >= 1");
        let n_of = |d: usize| src.array_extents.extent(d);
        let outer_runs: Vec<Vec<Vec<(u64, u64)>>> = outer
            .iter()
            .enumerate()
            .map(|(d, entries)| {
                entries
                    .iter()
                    .map(|e| intersect_runs(&e.src_set, &e.dst_set, 0, n_of(d)).collect())
                    .collect()
            })
            .collect();
        let inner_items = InnerItems::of(inner);

        // Which combinations feed which (provider, receiver) pair is the
        // planner's shared combination walk's to say (rank assembly,
        // replica fan-out, receiver self-preference live there exactly
        // once); sorted, a pair's combinations are adjacent and still in
        // walk order, so each pair is encoded in one go, straight into
        // the program's tables.
        let mut combos: Vec<((u64, u64), usize)> = Vec::new();
        let mut picks: Vec<usize> = Vec::new(); // `rank` entry indices per combination
        crate::redist::for_each_pair_combination(src, dst, per_dim, |provider, to, idx| {
            combos.push(((provider, to), picks.len()));
            picks.extend_from_slice(idx);
        });
        combos.sort_unstable();

        // Assemble: stride-encode each pair's items — the copy of the
        // table engine replaced by position recording — into families,
        // and partition units into the local group and the schedule's
        // rounds. Pairs come in (provider, receiver) order; each round
        // is re-sorted by receiver because the guarded round's
        // truncation cut and corruption victim index its concatenated
        // unit list in that order (the fault sites
        // `fault_sites_are_pinned_for_solo_and_group_bounces` pins).
        let mut walk = CombinationWalk {
            per_dim,
            outer_runs: &outer_runs,
            inner_items: &inner_items,
            s_lens: &s_lens,
            d_lens: &d_lens,
            cur: vec![(0, 0); rank - 1],
        };
        let mut fams = Vec::new();
        let mut local = Vec::new();
        let mut rounds: Vec<Vec<CopyUnit>> = vec![Vec::new(); schedule.rounds.len()];
        let mut total_elements = 0u64;
        for pair in combos.chunk_by(|a, b| a.0 == b.0) {
            let (provider, receiver) = pair[0].0;
            let start = fit_u32(fams.len() as u64)?;
            let mut unit = UnitEncoder::new(&mut fams);
            for &(_, at) in pair {
                walk.record(&picks[at..at + rank], &mut unit)?;
            }
            let elements = unit.finish()?;
            total_elements += elements;
            let unit = CopyUnit {
                provider,
                receiver,
                fams: (start, fit_u32(fams.len() as u64)?),
                kernel: choose_kernel(&fams[start as usize..]),
                elements,
                next_group: SERIAL_END,
                next_index: 0,
            };
            if provider == receiver {
                local.push(unit);
            } else {
                let r = schedule
                    .round_of(provider, receiver)
                    .expect("every remote pair has a scheduled message");
                rounds[r].push(unit);
            }
        }
        for round in &mut rounds {
            round.sort_by_key(|u| u.receiver);
        }
        if !keep_empty_rounds {
            rounds.retain(|r| !r.is_empty());
        }
        debug_assert_eq!(
            total_elements,
            plan.local_elements + plan.remote_elements(),
            "compiled program delivers exactly the planned volume"
        );
        let (serial_head, receiver_major) = thread_serial_order(&fams, &mut local, &mut rounds)?;
        Ok(CopyProgram {
            mappings,
            fams,
            local,
            rounds,
            total_elements,
            serial_head,
            receiver_major,
            fingerprint: 0,
        }
        .sealed())
    }

    /// Whether this program was compiled for exactly the
    /// (`src`, `dst`) mapping pair — the guard
    /// [`crate::VersionData::copy_values_from_program`] applies before
    /// replaying (an allocation-free structural comparison).
    pub fn compiled_for(&self, src: &VersionData, dst: &VersionData) -> bool {
        self.mappings.0 == src.mapping && self.mappings.1 == dst.mapping
    }

    /// Every unit exactly once — a permutation of `local ∪ rounds` — in
    /// the cache-blocked order threaded at compile time.
    pub fn serial_order(&self) -> impl Iterator<Item = &CopyUnit> + '_ {
        std::iter::successors(self.unit_at(self.serial_head), |u| {
            self.unit_at((u.next_group, u.next_index))
        })
    }

    /// The unit a serial link points at (`None` for the end mark).
    pub(crate) fn unit_at(&self, (group, index): (u16, u32)) -> Option<&CopyUnit> {
        match group {
            SERIAL_END => None,
            0 => Some(&self.local[index as usize]),
            g => Some(&self.rounds[g as usize - 1][index as usize]),
        }
    }
}

/// The compiled data movement of a whole remap group: one round-aligned
/// member [`CopyProgram`] per member plan of the group's merged
/// [`CommSchedule`]. Every member's `rounds[r]` holds its units of
/// merged wire round `r` (empty rounds kept), so a guarded group
/// replay ([`crate::group::try_remap_group`]) can walk the rounds
/// once and move every member array's units of that round together
/// (receiving *blocks* are distinct across members: each member writes
/// its own array's storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCopyProgram {
    /// One round-aligned program per member plan, in group order; every
    /// member has exactly `n_rounds` round unit lists.
    pub members: Vec<CopyProgram>,
    /// Merged wire round count (`== merged schedule's rounds.len()`).
    pub n_rounds: usize,
    /// Total elements delivered across all members (local + remote,
    /// replicas counted).
    pub total_elements: u64,
}

impl GroupCopyProgram {
    /// Compile every member plan against the group's merged schedule.
    /// Returns `None` if any member cannot drive a compiled program
    /// (every mover of the group then runs as a group of one).
    pub fn try_compile(plans: &[&RedistPlan], merged: &CommSchedule) -> Option<GroupCopyProgram> {
        let members: Vec<CopyProgram> = plans
            .iter()
            .map(|p| CopyProgram::compile_inner(p, merged, true).ok())
            .collect::<Option<_>>()?;
        debug_assert!(members.iter().all(|m| m.rounds.len() == merged.rounds.len()));
        let total_elements = members.iter().map(|m| m.total_elements).sum();
        Some(GroupCopyProgram { members, n_rounds: merged.rounds.len(), total_elements })
    }
}

/// The single u32-overflow gate of program compilation: every local
/// position, family index, and family count funnels through here, so
/// any >4Gi shape declines via one [`CompileDecline::PositionOverflow`]
/// path (the table engine's u64 arithmetic is the fallback).
#[inline]
fn fit_u32(x: u64) -> Result<u32, CompileDecline> {
    u32::try_from(x).map_err(|_| CompileDecline::PositionOverflow)
}

/// `count` equal runs of one (provider, receiver) pair in arithmetic
/// progression, in local positions: run `k` copies `len` elements from
/// `src + k·src_step` to `dst + k·dst_step`. What the compiler records
/// per innermost [`hpfc_mapping::RunFamily`] and what the encoder
/// consumes; a lone run has `count == 1` (its steps are not read).
#[derive(Debug, Clone, Copy)]
struct Item {
    src: u64,
    dst: u64,
    len: u64,
    count: u64,
    src_step: u64,
    dst_step: u64,
}

impl Item {
    fn run(src: u64, dst: u64, len: u64) -> Item {
        Item { src, dst, len, count: 1, src_step: 0, dst_step: 0 }
    }

    /// Positions of run `k`.
    fn at(&self, k: u64) -> (u64, u64) {
        (self.src + k * self.src_step, self.dst + k * self.dst_step)
    }

    /// Whether run `k` of `self` ends, on both sides, where `next`
    /// begins.
    fn meets(&self, k: u64, next: (u64, u64)) -> bool {
        let (s, d) = self.at(k);
        (s + self.len, d + self.len) == next
    }
}

/// The innermost dimension's entries as items, each entry's back to
/// back: computed once, read by every combination the entry is part of.
struct InnerItems {
    items: Vec<Item>,
    /// `ends[i]` is where entry `i`'s items stop (and `i + 1`'s start).
    ends: Vec<usize>,
}

impl InnerItems {
    /// One item per family of every entry's `src_set ∩ dst_set`,
    /// positions by `count_below`. A family's steps are affine on both
    /// sides by construction — its global step is a multiple of a
    /// side's period, or the whole family lies inside one run of that
    /// side — so two `count_below`s give them.
    fn of(entries: &[DimContribution]) -> InnerItems {
        let mut inner = InnerItems {
            items: Vec::with_capacity(2 * entries.len()),
            ends: Vec::with_capacity(entries.len()),
        };
        let mut families = Vec::new();
        let mut raw: Vec<Item> = Vec::new();
        for e in entries {
            let at = |x: u64| (e.src_set.count_below(x), e.dst_set.count_below(x));
            families.clear();
            intersect_families(&e.src_set, &e.dst_set, &mut families);
            raw.clear();
            raw.extend(families.iter().map(|f| {
                let (src, dst) = at(f.lo);
                let (src_step, dst_step) = if f.count > 1 {
                    let (s, d) = at(f.lo + f.step);
                    (s - src, d - dst)
                } else {
                    (0, 0)
                };
                Item { src, dst, len: f.len, count: f.count, src_step, dst_step }
            }));
            regroup_bodies(&raw, &mut inner.items);
            inner.ends.push(inner.items.len());
        }
        inner
    }

    fn entry(&self, i: usize) -> &[Item] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.items[start..self.ends[i]]
    }
}

/// Append one entry's `items` to `out`, regrouped: where a period holds
/// several runs their families come family by family, so runs the
/// ascending walk would have found adjacent are not — put back what it
/// would have merged. Families of one body (same count, same steps)
/// whose runs are contiguous on both sides pairwise become one family
/// of longer runs; and when a body's last run meets its first run *of
/// the next period*, the body is re-phased to start one run later, so
/// that pair is one run too. A stream that is already ascending never
/// qualifies (the merged-with run would have to sit before its
/// predecessor's second run) and passes through unchanged.
fn regroup_bodies(items: &[Item], out: &mut Vec<Item>) {
    let same_body = |a: &Item, b: &Item| {
        a.count > 1 && (a.count, a.src_step, a.dst_step) == (b.count, b.src_step, b.dst_step)
    };
    let mut body = out.len(); // where the current body starts in `out`
    for (i, item) in items.iter().enumerate() {
        match out[body..].last_mut() {
            Some(last) if same_body(last, item) && last.meets(0, item.at(0)) => {
                last.len += item.len
            }
            Some(last) if same_body(last, item) => out.push(*item),
            _ => {
                body = out.len();
                out.push(*item);
            }
        }
        // At the end of a body of several families: does it wrap?
        let ends = items.get(i + 1).is_none_or(|next| !same_body(item, next));
        let (first, last) = (out[body], out[out.len() - 1]);
        if ends && out.len() - body > 1 && last.meets(0, first.at(1)) {
            let k = last.count - 1;
            out[body] = Item::run(first.src, first.dst, first.len);
            out.pop();
            out.push(Item { len: last.len + first.len, count: k, ..last });
            let (s, d) = last.at(k);
            out.push(Item::run(s, d, last.len));
        }
    }
}

/// The streaming stride encoder of one (provider, receiver) pair: fed
/// the pair's [`Item`]s in walk order, it emits exactly what the two
/// passes over the expanded run list would — merge runs contiguous on
/// BOTH sides (a unit-stride span is one memcpy at replay, however the
/// walk sliced it), then greedily extend arithmetic progressions in
/// `(src_pos, dst_pos)` of equal-length runs, each maximal one a
/// [`StrideFamily`] (a run no progression takes is a family of one) —
/// but steps over an item's interior in O(1). Positions within one
/// pair ascend within a combination, so steps are non-negative; where
/// they jump backward the progression breaks.
struct UnitEncoder<'a> {
    /// Pass 1: the last item pushed, whose last run may yet grow.
    pending: Option<Item>,
    /// Pass 2: the progression being extended (steps valid from 2 runs).
    open: Option<Item>,
    /// The program's family table, which the unit's encoding is
    /// appended to.
    fams: &'a mut Vec<StrideFamily>,
    elements: u64,
}

impl<'a> UnitEncoder<'a> {
    fn new(fams: &'a mut Vec<StrideFamily>) -> Self {
        UnitEncoder { pending: None, open: None, fams, elements: 0 }
    }

    /// Pass 1 over the next item of the stream.
    fn push(&mut self, mut x: Item) -> Result<(), CompileDecline> {
        self.elements += x.len * x.count;
        if x.count > 1 && (x.src_step, x.dst_step) == (x.len, x.len) {
            x = Item::run(x.src, x.dst, x.len * x.count);
        }
        let Some(mut p) = self.pending.take() else {
            self.pending = Some(x);
            return Ok(());
        };
        if !p.meets(p.count - 1, x.at(0)) {
            self.feed(p)?;
            self.pending = Some(x);
            return Ok(());
        }
        // `p`'s last run and `x`'s first are one run; neither interior
        // can take part (an interior that could was collapsed above).
        let (s, d) = p.at(p.count - 1);
        let joint = Item::run(s, d, p.len + x.len);
        if p.count > 1 {
            p.count -= 1;
            self.feed(p)?;
        }
        if x.count > 1 {
            self.feed(joint)?;
            (x.src, x.dst) = x.at(1);
            x.count -= 1;
            self.pending = Some(x);
        } else {
            self.pending = Some(joint);
        }
        Ok(())
    }

    /// Pass 2 over an item pass 1 is done with: its runs one at a time
    /// until the open progression runs on the item's own steps, then
    /// the rest of the item at once.
    fn feed(&mut self, y: Item) -> Result<(), CompileDecline> {
        let mut k = 0;
        while k < y.count {
            let (s, d) = y.at(k);
            self.feed_run(s, d, y.len)?;
            k += 1;
            let open = self.open.as_mut().expect("a fed run is the open progression's last");
            if open.count > 1 && (open.src_step, open.dst_step) == (y.src_step, y.dst_step) {
                open.count += y.count - k;
                break;
            }
        }
        Ok(())
    }

    /// One greedy step: extend the open progression by the run, or
    /// close it — whatever its count — and open the next one.
    fn feed_run(&mut self, src: u64, dst: u64, len: u64) -> Result<(), CompileDecline> {
        let run = Item::run(src, dst, len);
        let Some(open) = self.open.as_mut() else {
            self.open = Some(run);
            return Ok(());
        };
        let (last_src, last_dst) = open.at(open.count - 1);
        let step = src.checked_sub(last_src).zip(dst.checked_sub(last_dst));
        match step.filter(|_| len == open.len) {
            Some((src_step, dst_step)) if open.count == 1 => {
                *open = Item { count: 2, src_step, dst_step, ..*open }
            }
            Some(step) if step == (open.src_step, open.dst_step) => open.count += 1,
            _ => self.fams.push(family(std::mem::replace(open, run))?),
        }
        Ok(())
    }

    /// Flush both passes; returns the elements the unit moves.
    fn finish(mut self) -> Result<u64, CompileDecline> {
        if let Some(p) = self.pending.take() {
            self.feed(p)?;
        }
        if let Some(open) = self.open.take() {
            self.fams.push(family(open)?);
        }
        Ok(self.elements)
    }
}

/// The [`StrideFamily`] of a finished progression (a lone run keeps
/// the zero steps [`Item::run`] gave it).
fn family(p: Item) -> Result<StrideFamily, CompileDecline> {
    Ok(StrideFamily {
        src_base: fit_u32(p.src)?,
        dst_base: fit_u32(p.dst)?,
        count: fit_u32(p.count)?,
        src_step: fit_u32(p.src_step)?,
        dst_step: fit_u32(p.dst_step)?,
        len: fit_u32(p.len)?,
    })
}

/// Thread the serial replay order through the units' `next_*` links;
/// returns its head and whether it is receiver-major. The order is
/// major in the rank of the side whose families sweep the wider span —
/// provider-major for a strided source (gather), receiver-major for a
/// strided destination (scatter) — so all units of one sparsely swept
/// block are adjacent. Contiguous units sweep equal spans and take
/// provider-major, the order of the family table.
/// O(units log units), independent of the extent.
fn thread_serial_order(
    fams: &[StrideFamily],
    local: &mut [CopyUnit],
    rounds: &mut [Vec<CopyUnit>],
) -> Result<((u16, u32), bool), CompileDecline> {
    let span = |step: fn(&StrideFamily) -> u32| -> u64 {
        fams.iter().map(|f| f.count as u64 * step(f) as u64).sum()
    };
    let receiver_major = span(|f| f.dst_step) > span(|f| f.src_step);
    let mut order: Vec<((u64, u64), u16, u32)> = Vec::new();
    let groups = std::iter::once(&*local).chain(rounds.iter().map(Vec::as_slice));
    for (g, units) in groups.enumerate() {
        // Group ids stay below the end mark.
        let g = u16::try_from(g + 1).map_err(|_| CompileDecline::PositionOverflow)? - 1;
        for (i, u) in units.iter().enumerate() {
            let key =
                if receiver_major { (u.receiver, u.provider) } else { (u.provider, u.receiver) };
            order.push((key, g, fit_u32(i as u64)?));
        }
    }
    // (provider, receiver) pairs are unique, so the order is total.
    order.sort_unstable();
    let mut next = (SERIAL_END, 0);
    for &(_, g, i) in order.iter().rev() {
        let unit = match g {
            0 => &mut local[i as usize],
            g => &mut rounds[g as usize - 1][i as usize],
        };
        (unit.next_group, unit.next_index) = next;
        next = (g, i);
    }
    Ok((next, receiver_major))
}

/// Label one unit by its families: lone runs (`count == 1`) and
/// progressions.
fn choose_kernel(fams: &[StrideFamily]) -> Kernel {
    let lone = fams.iter().filter(|f| f.count == 1).count();
    match (lone, fams.len() - lone) {
        (1, 0) => Kernel::Memcpy,
        (_, 0) => Kernel::Triples,
        (0, _) if fams.iter().all(|f| f.len == 1) => Kernel::Gather,
        (0, _) => Kernel::Strided,
        _ => Kernel::Mixed,
    }
}

/// What recording a descriptor combination reads: the plan's entries,
/// the outer dimensions' run lists, the innermost dimension's items,
/// and per entry the local extents of the provider/receiver blocks
/// (`|src_set|` / `|dst_set|`) — plus the outer odometer's scratch.
struct CombinationWalk<'a> {
    per_dim: &'a [Vec<DimContribution>],
    outer_runs: &'a [Vec<Vec<(u64, u64)>>],
    inner_items: &'a InnerItems,
    s_lens: &'a [Vec<u64>],
    d_lens: &'a [Vec<u64>],
    /// Per outer dimension, (run index, offset inside the run).
    cur: Vec<(usize, u64)>,
}

impl CombinationWalk<'_> {
    /// Record the combination `idx` (one entry per dimension) into its
    /// pair's encoder — the position arithmetic of the table engine's
    /// `copy_runs`, evaluated once at compile time: the outer
    /// dimensions one global index at a time, the innermost as its
    /// entry's items shifted to the row.
    fn record(&mut self, idx: &[usize], unit: &mut UnitEncoder<'_>) -> Result<(), CompileDecline> {
        let last = self.cur.len();
        let items = self.inner_items.entry(idx[last]);
        let (s_last, d_last) = (self.s_lens[last][idx[last]], self.d_lens[last][idx[last]]);
        self.cur.fill((0, 0));
        loop {
            let mut d_pref = 0u64;
            let mut s_pref = 0u64;
            for (d, &i) in idx[..last].iter().enumerate() {
                let (ri, off) = self.cur[d];
                let g = self.outer_runs[d][i][ri].0 + off;
                let e = &self.per_dim[d][i];
                d_pref = d_pref * self.d_lens[d][i] + e.dst_set.count_below(g);
                s_pref = s_pref * self.s_lens[d][i] + e.src_set.count_below(g);
            }
            for item in items {
                let (src, dst) = (s_pref * s_last + item.src, d_pref * d_last + item.dst);
                unit.push(Item { src, dst, ..*item })?;
            }
            // Advance the outer odometer (innermost outer dim fastest).
            let mut d = last;
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                let runs = &self.outer_runs[d][idx[d]];
                let (ref mut ri, ref mut off) = self.cur[d];
                *off += 1;
                if runs[*ri].0 + *off < runs[*ri].1 {
                    break;
                }
                *off = 0;
                *ri += 1;
                if *ri < runs.len() {
                    break;
                }
                *ri = 0;
            }
        }
    }
}

/// One 64-bit mixing step (splitmix64 finalizer) — shared by the
/// program fingerprint and the fault plan's site hashing.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::element_moves;
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{testing::mapping_1d as mk, DimFormat, NormalizedMapping};

    fn compiled(src: &NormalizedMapping, dst: &NormalizedMapping) -> (RedistPlan, CopyProgram) {
        let plan = plan_redistribution(src, dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        (plan, prog)
    }

    #[test]
    fn program_replays_block_to_cyclic() {
        let src = mk(16, 4, DimFormat::Block(None));
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let (plan, prog) = compiled(&src, &dst);
        assert_eq!(prog.n_elements(), plan.local_elements + plan.remote_elements());
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64 + 1.0);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        // The table engine writes the identical bytes.
        let mut c = VersionData::new(b.mapping.clone(), 8);
        c.copy_values_from(&a);
        assert_eq!(b, c);
    }

    #[test]
    fn program_rounds_mirror_schedule_and_are_receiver_disjoint() {
        let src = mk(60, 4, DimFormat::Cyclic(Some(3)));
        let dst = mk(60, 5, DimFormat::Cyclic(Some(2)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        // One remote unit per scheduled message.
        let n_units: usize = prog.rounds.iter().map(Vec::len).sum();
        assert_eq!(n_units, schedule.messages.len());
        for round in &prog.rounds {
            let mut receivers: Vec<u64> = round.iter().map(|u| u.receiver).collect();
            receivers.dedup();
            assert_eq!(receivers.len(), round.len(), "receivers distinct within a round");
        }
        // Local units: one per receiver, distinct by construction.
        let mut local: Vec<u64> = prog.local.iter().map(|u| u.receiver).collect();
        local.dedup();
        assert_eq!(local.len(), prog.local.len());
    }

    #[test]
    fn serial_order_is_blocked_by_the_strided_side() {
        let block = mk(4096, 8, DimFormat::Block(None));
        let cyclic = mk(4096, 8, DimFormat::Cyclic(None));
        // Gather (strided source): all units of one provider in a row.
        let (_, gather) = compiled(&block, &cyclic);
        let walk: Vec<(u64, u64)> =
            gather.serial_order().map(|u| (u.provider, u.receiver)).collect();
        assert_eq!(walk.len(), 8 * 8, "every unit exactly once");
        assert!(walk.windows(2).all(|w| w[0] < w[1]), "provider-major");
        // Scatter (strided destination): all units of one receiver.
        let (_, scatter) = compiled(&cyclic, &block);
        let walk: Vec<(u64, u64)> =
            scatter.serial_order().map(|u| (u.receiver, u.provider)).collect();
        assert_eq!(walk.len(), 8 * 8);
        assert!(walk.windows(2).all(|w| w[0] < w[1]), "receiver-major");
        // The order rides in the unit descriptors: same artifact size,
        // and covered by the fingerprint.
        let units = gather.local.len() + gather.rounds.iter().map(Vec::len).sum::<usize>();
        assert_eq!(gather.artifact_bytes(), gather.fams.len() * 24 + units * 40);
        // Whatever the order, the walk moves every element exactly once.
        let moved: u64 = gather.serial_order().map(|u| u.elements).sum();
        assert_eq!(moved, 4096);
        let moves = element_moves(&gather);
        assert_eq!(moves.len(), 4096);
        assert!(moves.windows(2).all(|w| w[0] != w[1]));
        let mut bad = gather.clone();
        bad.local[0].next_index ^= 1;
        assert!(!bad.integrity_ok(), "a scribbled serial link must be detected");
        let mut bad = gather;
        bad.serial_head.1 ^= 1;
        assert!(!bad.integrity_ok(), "a scribbled serial head must be detected");
    }

    #[test]
    fn large_round_replay_matches_tables() {
        // Rounds of ~65k elements over blocks of 2^16: the serial walk
        // sweeps every block in several tiles.
        let n = 1u64 << 18;
        let src = mk(n, 4, DimFormat::Block(None));
        let dst = mk(n, 4, DimFormat::Cyclic(Some(2)));
        let (plan, prog) = compiled(&src, &dst);
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 509) as f64);
        let mut replayed = VersionData::new(dst, 8);
        replayed.copy_values_from_program(&a, &prog, ExecMode::Serial);
        let mut tables = VersionData::new(replayed.mapping.clone(), 8);
        tables.copy_values_from(&a);
        assert_eq!(replayed, tables);
        assert_eq!(prog.n_elements(), plan.local_elements + plan.remote_elements());
    }

    #[test]
    fn oracle_plans_do_not_compile() {
        let src = mk(12, 3, DimFormat::Block(None));
        let dst = mk(12, 3, DimFormat::Cyclic(None));
        let plan = crate::redist::plan_by_enumeration(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert!(CopyProgram::try_compile(&plan, &schedule).is_none());
    }

    #[test]
    fn exec_mode_threads() {
        // Every mode, whatever thread count it names, is the serial
        // replay: it writes the table engine's bytes.
        let src = mk(4096, 4, DimFormat::Block(None));
        let dst = mk(4096, 4, DimFormat::Cyclic(Some(3)));
        let (_, prog) = compiled(&src, &dst);
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64 + 0.5);
        let copy = |mode: ExecMode| {
            let mut b = VersionData::new(dst.clone(), 8);
            b.copy_values_from_program(&a, &prog, mode);
            b
        };
        let mut tables = VersionData::new(dst.clone(), 8);
        tables.copy_values_from(&a);
        assert_eq!(copy(ExecMode::Serial), tables);
        for threads in [0, 1, 4] {
            assert_eq!(copy(ExecMode::Parallel(threads)), tables, "Parallel({threads})");
        }
    }

    #[test]
    fn compile_checked_reports_typed_declines() {
        // Enumeration-oracle plans carry no descriptors.
        let src = mk(12, 3, DimFormat::Block(None));
        let dst = mk(12, 3, DimFormat::Cyclic(None));
        let plan = crate::redist::plan_by_enumeration(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert_eq!(
            CopyProgram::compile_checked(&plan, &schedule),
            Err(CompileDecline::NoDescriptors)
        );
        // A single 6 Gi-element block: local positions exceed u32::MAX.
        // Declined closed-form from the descriptor counts — nothing
        // here allocates 6 Gi of data or a single family.
        let n = 6u64 << 30;
        let src = mk(n, 1, DimFormat::Block(None));
        let dst = mk(n, 1, DimFormat::Cyclic(Some(3)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert_eq!(
            CopyProgram::compile_checked(&plan, &schedule),
            Err(CompileDecline::PositionOverflow)
        );
    }

    #[test]
    fn cyclic1_collapses_to_gather_families() {
        // Block → Cyclic(1): a flat encoding stores one run per
        // element; the stride encoder collapses every (provider,
        // receiver) pair to one gather family.
        let n = 1u64 << 18;
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.len() <= 16 * 16, "O(P_src × P_dst) descriptors");
        assert!(prog.fams.iter().all(|f| f.count > 1), "no lone run in the cyclic(1) shape");
        assert_eq!(prog.n_runs(), n, "still n logical single-element runs");
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Gather);
        }
        // The acceptance bar: ≥100× smaller than a flat encoding, which
        // stores every logical run as a 12-byte (src, dst, len) triple.
        let moves = element_moves(&prog);
        assert_eq!(moves.len() as u64, n);
        let units = prog.local.len() + prog.rounds.iter().map(Vec::len).sum::<usize>();
        let flat_bytes = prog.n_runs() as usize * 12 + units * 40;
        assert!(
            prog.artifact_bytes() * 100 <= flat_bytes,
            "strided artifact {}B vs flat {}B",
            prog.artifact_bytes(),
            flat_bytes
        );
        // Replay delivers every element, identically to the table engine.
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 1021) as f64);
        let mut b = VersionData::new(dst.clone(), 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        let mut d = VersionData::new(dst, 8);
        d.copy_values_from(&a);
        assert_eq!(b, d);
    }

    #[test]
    fn artifact_is_extent_independent_with_several_runs_per_hyper_period() {
        // CYCLIC(4) -> CYCLIC(3) over 4: a hyper-period of 48 holds
        // several runs of alternating length per pair, which no single
        // progression spans — one family per base run does.
        let artifact = |n: u64| {
            let src = mk(n, 4, DimFormat::Cyclic(Some(4)));
            let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
            let (plan, prog) = compiled(&src, &dst);
            assert_eq!(prog.n_elements(), n);
            let mut a = VersionData::new(src, 8);
            a.fill(|p| (p[0] % 8191) as f64);
            let mut tables = VersionData::new(dst.clone(), 8);
            tables.copy_values_from_plan(&a, &plan);
            let mut b = VersionData::new(dst, 8);
            b.copy_values_from_program(&a, &prog, ExecMode::Serial);
            assert_eq!(b, tables);
            prog.artifact_bytes()
        };
        let (small, large) = (artifact(1 << 16), artifact(1 << 18));
        assert_eq!(small, large);
        assert!(small < 64 << 10, "{small} B");
    }

    #[test]
    fn compile_never_walks_the_extent() {
        // 32 Gi elements: listing the runs (8 Gi of them) is out of the
        // question; the artifact is the one of n = 1 Mi. No version is
        // allocated — plan, schedule and program are all there is.
        let compile = |n: u64, to_cyclic: bool| {
            let block = mk(n, 16, DimFormat::Block(None));
            let cyclic = mk(n, 16, DimFormat::Cyclic(Some(4)));
            let (src, dst) = if to_cyclic { (block, cyclic) } else { (cyclic, block) };
            let (_, prog) = compiled(&src, &dst);
            assert_eq!(prog.n_elements(), n);
            assert_eq!(prog.n_runs(), n / 4);
            prog
        };
        for to_cyclic in [true, false] {
            let (huge, small) = (compile(1 << 35, to_cyclic), compile(1 << 20, to_cyclic));
            assert_eq!(huge.artifact_bytes(), small.artifact_bytes());
            assert_eq!(huge.fams.len(), small.fams.len());
            let kernels = |p: &CopyProgram| -> Vec<Kernel> {
                p.local.iter().chain(p.rounds.iter().flatten()).map(|u| u.kernel).collect()
            };
            assert_eq!(kernels(&huge), kernels(&small));
        }
    }

    #[test]
    fn kernels_match_unit_shapes() {
        // Block-cyclic destination: equal-length runs on a constant
        // stride — every unit is labelled strided.
        let src = mk(4096, 4, DimFormat::Block(None));
        let dst = mk(4096, 4, DimFormat::Cyclic(Some(8)));
        let (_, prog) = compiled(&src, &dst);
        assert!(!prog.fams.is_empty());
        assert!(prog.fams.iter().all(|f| f.len == 8));
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Strided);
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64 + 0.5);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        // Block → block: each pair's contribution is contiguous on
        // both sides, coalesces to one lone run, and the whole unit is a
        // single memcpy.
        let src = mk(64, 4, DimFormat::Block(None));
        let dst = mk(64, 2, DimFormat::Block(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.iter().all(|f| (f.count, f.src_step, f.dst_step) == (1, 0, 0)));
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Memcpy);
            assert_eq!(u.fams.1 - u.fams.0, 1);
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn overflow_boundary_is_exact_and_unified() {
        // Exactly u32::MAX local elements: the largest block the u32
        // format admits. Compiles (closed-form, no data allocated) to
        // a single coalesced lone run.
        let n = u64::from(u32::MAX);
        let src = mk(n, 1, DimFormat::Block(None));
        let dst = mk(n, 1, DimFormat::Cyclic(Some(3)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::compile_checked(&plan, &schedule)
            .expect("u32::MAX-element block is in range");
        assert_eq!(prog.n_elements(), n);
        assert_eq!(prog.n_runs(), 1, "one coalesced unit-stride span");
        // One element more (2^32) declines through the single
        // PositionOverflow gate — the closed-form pre-check, the
        // per-push backstop, and the stride encoder share it.
        let n = 1u64 << 32;
        let src = mk(n, 1, DimFormat::Block(None));
        let dst = mk(n, 1, DimFormat::Cyclic(Some(3)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert_eq!(
            CopyProgram::compile_checked(&plan, &schedule),
            Err(CompileDecline::PositionOverflow)
        );
    }

    #[test]
    fn fingerprint_detects_family_and_kernel_corruption() {
        let src = mk(4096, 4, DimFormat::Block(None));
        let dst = mk(4096, 4, DimFormat::Cyclic(None));
        let (_, mut prog) = compiled(&src, &dst);
        assert!(!prog.fams.is_empty());
        assert!(prog.integrity_ok());
        let orig = prog.fams[0];
        prog.fams[0].src_step = prog.fams[0].src_step.wrapping_add(1);
        assert!(!prog.integrity_ok(), "a scribbled family stride must be detected");
        prog.fams[0] = orig;
        prog.fams[0].count = prog.fams[0].count.wrapping_sub(1);
        assert!(!prog.integrity_ok(), "a scribbled family count must be detected");
        prog.fams[0] = orig;
        assert!(prog.integrity_ok());
        let k = prog.local[0].kernel;
        prog.local[0].kernel = if k == Kernel::Triples { Kernel::Gather } else { Kernel::Triples };
        assert!(!prog.integrity_ok(), "a scribbled kernel tag must be detected");
    }

    #[test]
    fn fingerprint_detects_single_field_corruption() {
        let src = mk(64, 4, DimFormat::Block(None));
        let dst = mk(64, 4, DimFormat::Cyclic(Some(3)));
        let (_, mut prog) = compiled(&src, &dst);
        assert!(prog.integrity_ok());
        let lone = prog.fams.iter().position(|f| f.count == 1).expect("clipped chunks run alone");
        let orig = prog.fams[lone];
        prog.fams[lone].src_base = orig.src_base.wrapping_add(1);
        assert!(!prog.integrity_ok(), "a scribbled lone run must be detected");
        prog.fams[lone] = orig;
        assert!(prog.integrity_ok());
        prog.fingerprint ^= 1;
        assert!(!prog.integrity_ok(), "a scribbled fingerprint must be detected");
    }
}
