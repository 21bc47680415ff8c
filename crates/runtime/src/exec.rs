//! Compiled copy programs: the data-movement half of a remap, resolved
//! once at plan time into stride-encoded run families
//! ([`StrideFamily`]) plus an irregular residue of flat
//! `(src_pos, dst_pos, len)` triples, each unit tagged with the replay
//! [`Kernel`] its shape compiles to. This module is the *artifact* —
//! its encoding, its compilation, its fingerprint; the one interpreter
//! that replays it (allocation-free, optionally with the caterpillar
//! rounds split across `std::thread::scope` workers) is the crate's
//! `replay` module.
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
//! * **compile** ([`CopyProgram::try_compile`], `O(total runs)`, once
//!   per (source, destination) version pair): walk the same descriptor
//!   odometer the table engine walks, but *record* each run's closed-form
//!   local positions instead of copying — producing one flat
//!   [`CopyRun`] list, grouped into per-(provider, receiver)
//!   [`CopyUnit`]s;
//! * **replay** ([`crate::VersionData::copy_values_from_program`],
//!   every later copy): a loop of
//!   `copy_from_slice` over the precompiled triples. No positions are
//!   recomputed, nothing is allocated — the steady-state remap path
//!   performs zero heap allocations (pinned by the counting-allocator
//!   test `alloc_free.rs`).
//!
//! # Parallel rounds
//!
//! Units are grouped exactly like the [`crate::CommSchedule`]'s
//! caterpillar rounds (plus one round-like group for the local,
//! never-on-the-wire copies). Within a round every processor has at
//! most one partner, so the round's receivers are pairwise distinct —
//! each destination block is written by exactly one unit, and the round
//! can be split across `std::thread::scope` workers without locks or
//! aliasing ([`ExecMode::Parallel`]). The `HPFC_THREADS` environment
//! variable picks the default mode ([`ExecMode::from_env`]); serial
//! replay stays available so both engines are continuously tested.
//!
//! Serial unguarded replay needs neither the wire order nor disjoint
//! `&mut`s — every destination element is written by exactly one run —
//! so it walks a cache-blocked order threaded through the units at
//! compile time instead ([`CopyProgram::serial_order`]; see
//! `ARCHITECTURE.md`, "Replay order is not schedule order").
//!
//! [`PeriodicSet::count_below`]: hpfc_mapping::PeriodicSet::count_below

use std::collections::BTreeMap;

use hpfc_mapping::intervals::intersect_runs;

use crate::redist::{DimContribution, RedistPlan};
use crate::schedule::CommSchedule;
use crate::store::VersionData;

/// How a [`CopyProgram`] replay runs the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread replays every unit in order (allocation-free).
    Serial,
    /// Each round's units are split across this many scoped worker
    /// threads (receivers within a round are disjoint, so no locks).
    /// `Parallel(0 | 1)` degrades to [`ExecMode::Serial`].
    Parallel(usize),
}

impl ExecMode {
    /// Parse an `HPFC_THREADS`-style value: `0` or `1` mean
    /// [`ExecMode::Serial`], any larger value means that many workers
    /// per round, and anything unparsable is `None` (the caller decides
    /// the fallback).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s.trim().parse::<usize>() {
            Ok(t) if t > 1 => Some(ExecMode::Parallel(t)),
            Ok(_) => Some(ExecMode::Serial),
            Err(_) => None,
        }
    }

    /// The mode selected by the `HPFC_THREADS` environment variable:
    /// unset, `0` or `1` mean [`ExecMode::Serial`]; any larger value
    /// means that many workers per round. An **unparsable** value also
    /// falls back to [`ExecMode::Serial`], but emits a one-time warning
    /// on stderr — a typo in `HPFC_THREADS` silently serializing every
    /// replay is exactly the kind of quiet misconfiguration the fault
    /// model exists to surface.
    pub fn from_env() -> ExecMode {
        match std::env::var("HPFC_THREADS") {
            Ok(s) => ExecMode::parse(&s).unwrap_or_else(|| {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "hpfc: unparsable HPFC_THREADS value {s:?}; \
                         falling back to serial replay"
                    );
                });
                ExecMode::Serial
            }),
            Err(_) => ExecMode::Serial,
        }
    }

    /// Worker count this mode uses.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel(t) => t.max(1),
        }
    }
}

/// One precompiled contiguous copy: `len` elements from local position
/// `src_pos` of the provider's block to local position `dst_pos` of the
/// receiver's block. Positions are `u32` deliberately — half the memory
/// and twice the cache density of `usize` triples; blocks larger than
/// `u32::MAX` elements make [`CopyProgram::try_compile`] decline (the
/// table engine then serves as the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Element offset in the provider's local data.
    pub src_pos: u32,
    /// Element offset in the receiver's local data.
    pub dst_pos: u32,
    /// Run length in elements.
    pub len: u32,
}

/// A stride-encoded family of copy runs: `count` runs of `len`
/// elements each, whose `(src_pos, dst_pos)` pairs form an arithmetic
/// progression starting at `(src_base, dst_base)` with per-run steps
/// `(src_step, dst_step)`. One 24-byte descriptor replaces `count`
/// 12-byte triples — for a cyclic(1) destination (one triple per
/// *element* in the flat encoding) the whole (provider, receiver) pair
/// collapses to a single family, shrinking the n=4M artifact from
/// O(n) triples to O(P_src × P_dst) descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFamily {
    /// Element offset of the first run in the provider's local data.
    pub src_base: u32,
    /// Element offset of the first run in the receiver's local data.
    pub dst_base: u32,
    /// Number of runs in the family (≥ `MIN_FAMILY`).
    pub count: u32,
    /// Source offset advance between consecutive runs.
    pub src_step: u32,
    /// Destination offset advance between consecutive runs.
    pub dst_step: u32,
    /// Length of every run in the family, in elements.
    pub len: u32,
}

/// Which replay loop a [`CopyUnit`] dispatches to — chosen once at
/// compile time from the shape of the unit's encoded runs, so the
/// steady-state replay pays zero per-run classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Exactly one contiguous residual run: a single
    /// `copy_from_slice` (memcpy) moves the whole unit.
    Memcpy,
    /// Families only, every run one element long (the cyclic(1)
    /// shape): a tight scalar gather/scatter loop, no slice machinery.
    Gather,
    /// Families only, general run length: a blocked strided loop of
    /// `copy_from_slice` per run.
    Strided,
    /// Residual triples only (or an empty unit): the flat triple loop.
    Triples,
    /// Both families and residual triples: strided loop then triples.
    Mixed,
}

/// All runs of one (provider, receiver) pair: `fams` and `runs` are
/// half-open index ranges into [`CopyProgram::fams`] /
/// [`CopyProgram::runs`], and `kernel` picks the replay loop compiled
/// for their shape. Local units have `provider == receiver` (the
/// receiver already holds the elements under the source mapping);
/// remote units correspond one-to-one to the schedule's packed
/// messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyUnit {
    /// Rank whose *source-version* block is read.
    pub provider: u64,
    /// Rank whose *destination-version* block is written.
    pub receiver: u64,
    /// Half-open range into the program's stride-family list.
    pub fams: (u32, u32),
    /// Half-open range into the program's residual flat run list.
    pub runs: (u32, u32),
    /// Replay kernel chosen at compile time for this unit's shape.
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
const _: () = assert!(std::mem::size_of::<CopyUnit>() == 48);

/// A compiled copy program: the executable form of one redistribution's
/// data movement. Built once per (source, destination) version pair and
/// cached in [`crate::ArrayRt::plan_cache`] (or attached at compile
/// time by `hpfc-codegen`'s lowering), then replayed by
/// [`crate::VersionData::copy_values_from_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyProgram {
    /// The (source, destination) mapping pair the triples were
    /// compiled for — replay refuses to apply them to any other pair
    /// (precompiled positions are meaningless against different block
    /// layouts). The `Arc` is shared with
    /// [`crate::RedistPlan::mappings`]: a cached
    /// [`crate::PlannedRemap`] stores the pair once, halving its
    /// mapping footprint.
    pub mappings: std::sync::Arc<(hpfc_mapping::NormalizedMapping, hpfc_mapping::NormalizedMapping)>,
    /// Stride-encoded run families, unit `fams` ranges index this.
    pub fams: Vec<StrideFamily>,
    /// Residual flat `(src_pos, dst_pos, len)` triples — only the
    /// genuinely irregular remainder that no arithmetic progression
    /// covers; unit `runs` ranges index this.
    pub runs: Vec<CopyRun>,
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
    /// Integrity fingerprint over the triples and units, computed at
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
    /// The plan → schedule → program compile panicked and was caught
    /// (`catch_unwind` around the registry's compile-under-lock), so
    /// the shard lock stays healthy and the caller retries a clean solo
    /// compile or falls back to the table engine.
    Panicked,
}

impl std::fmt::Display for CompileDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileDecline::NoDescriptors => write!(f, "plan carries no descriptors"),
            CompileDecline::Rank0 => write!(f, "rank-0 scalar"),
            CompileDecline::PositionOverflow => write!(f, "local position overflows u32"),
            CompileDecline::Panicked => write!(f, "plan compilation panicked (contained)"),
        }
    }
}

impl CopyProgram {
    /// Number of precompiled runs: every run a stride family encodes
    /// plus the residual triples — the same logical copy count the
    /// pre-stride flat encoding stored (modulo contiguous coalescing).
    pub fn n_runs(&self) -> u64 {
        self.fams.iter().map(|f| f.count as u64).sum::<u64>() + self.runs.len() as u64
    }

    /// Bytes the compiled artifact's run encoding occupies — the
    /// cache-residency number the stride encoding exists to shrink
    /// (families + residual triples + unit descriptors).
    pub fn artifact_bytes(&self) -> usize {
        self.fams.len() * std::mem::size_of::<StrideFamily>()
            + self.runs.len() * std::mem::size_of::<CopyRun>()
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
    /// family, every residual triple, every unit boundary (family and
    /// run ranges, kernel tag, serial link), and the totals. Any
    /// single-field corruption of a cached program changes the value,
    /// and memory corruption cannot keep the stored fingerprint
    /// consistent with recomputation.
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
        h = mix64(h ^ self.runs.len() as u64);
        for r in &self.runs {
            h = mix64(h ^ (((r.src_pos as u64) << 32) | r.dst_pos as u64));
            h = mix64(h ^ r.len as u64);
        }
        h = mix64(h ^ self.rounds.len() as u64);
        for u in self.local.iter().chain(self.rounds.iter().flatten()) {
            h = mix64(h ^ (u.provider.rotate_left(32) ^ u.receiver));
            h = mix64(h ^ (((u.fams.0 as u64) << 32) | u.fams.1 as u64));
            h = mix64(h ^ (((u.runs.0 as u64) << 32) | u.runs.1 as u64));
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
                runs: Vec::new(),
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

        // Message (from, to) -> caterpillar round, from the schedule.
        let round_of: BTreeMap<(u64, u64), usize> = schedule.round_of_pairs().collect();

        // Per entry, the local extent of the owning block along that
        // dimension on each side: `|src_set|` / `|dst_set|`, the same
        // sets the storage layer's blocks address through.
        let s_lens: Vec<Vec<u64>> =
            per_dim.iter().map(|es| es.iter().map(|e| e.src_set.count()).collect()).collect();
        let d_lens: Vec<Vec<u64>> =
            per_dim.iter().map(|es| es.iter().map(|e| e.dst_set.count()).collect()).collect();

        // Decline closed-form BEFORE materializing any intersection
        // run: every recorded position is a prefix count into one
        // rank's local block, bounded by that rank's per-dim count
        // product — so when any side's largest local volume exceeds
        // the u32 triple format, some position must overflow, and the
        // program is refused in O(descriptor entries) instead of after
        // enumerating gigabytes of runs. This pre-check, the per-push
        // backstop in `record_combination`, the unit-range assembly,
        // and the stride-family counts all funnel through the single
        // [`fit_u32`] gate, so every >4Gi shape declines via the same
        // `CompileDecline::PositionOverflow` path.
        let max_local = |lens: &[Vec<u64>]| {
            lens.iter()
                .map(|ls| ls.iter().copied().max().unwrap_or(0))
                .fold(1u64, u64::saturating_mul)
        };
        fit_u32(max_local(&s_lens))?;
        fit_u32(max_local(&d_lens))?;

        // Materialize every entry's intersection runs.
        let n_of = |d: usize| src.array_extents.extent(d);
        let entry_runs: Vec<Vec<Vec<(u64, u64)>>> = per_dim
            .iter()
            .enumerate()
            .map(|(d, entries)| {
                entries
                    .iter()
                    .map(|e| intersect_runs(&e.src_set, &e.dst_set, 0, n_of(d)).collect())
                    .collect()
            })
            .collect();

        // Accumulate runs per (provider, receiver) pair — the planner's
        // shared combination walk (rank assembly, replica fan-out,
        // receiver self-preference live there exactly once), with the
        // copy replaced by position recording.
        let mut acc: BTreeMap<(u64, u64), Vec<CopyRun>> = BTreeMap::new();
        let mut runs_ref: Vec<&[(u64, u64)]> = vec![&[]; rank];
        let mut entries_ref: Vec<&DimContribution> = Vec::with_capacity(rank);
        let mut s_len = vec![0u64; rank];
        let mut d_len = vec![0u64; rank];
        let mut fits_u32 = true;
        crate::redist::for_each_pair_combination(src, dst, per_dim, |provider, to, idx| {
            if !fits_u32 {
                return;
            }
            entries_ref.clear();
            for d in 0..rank {
                entries_ref.push(&per_dim[d][idx[d]]);
                runs_ref[d] = &entry_runs[d][idx[d]];
                s_len[d] = s_lens[d][idx[d]];
                d_len[d] = d_lens[d][idx[d]];
            }
            if record_combination(
                &runs_ref,
                &entries_ref,
                &s_len,
                &d_len,
                acc.entry((provider, to)).or_default(),
            )
            .is_none()
            {
                fits_u32 = false;
            }
        });
        if !fits_u32 {
            return Err(CompileDecline::PositionOverflow);
        }

        // Assemble: stride-encode each (provider, receiver) pair's
        // triples into families plus an irregular residual, and
        // partition units into the local group and the schedule's
        // rounds. BTreeMap iteration gives (provider, receiver) order;
        // re-sorting each group by receiver keeps the parallel
        // executor's block walk a single pass.
        let mut fams = Vec::new();
        let mut runs = Vec::new();
        let mut local = Vec::new();
        let mut rounds: Vec<Vec<CopyUnit>> = vec![Vec::new(); schedule.rounds.len()];
        let mut total_elements = 0u64;
        for ((provider, receiver), rs) in acc {
            let f_start = fit_u32(fams.len() as u64)?;
            let r_start = fit_u32(runs.len() as u64)?;
            let elements: u64 = rs.iter().map(|r| r.len as u64).sum();
            encode_runs(rs, &mut fams, &mut runs)?;
            let f_end = fit_u32(fams.len() as u64)?;
            let r_end = fit_u32(runs.len() as u64)?;
            total_elements += elements;
            let kernel =
                choose_kernel(&fams[f_start as usize..], &runs[r_start as usize..]);
            let unit = CopyUnit {
                provider,
                receiver,
                fams: (f_start, f_end),
                runs: (r_start, r_end),
                kernel,
                elements,
                next_group: SERIAL_END,
                next_index: 0,
            };
            if provider == receiver {
                local.push(unit);
            } else {
                let r = *round_of
                    .get(&(provider, receiver))
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
            runs,
            local,
            rounds,
            total_elements,
            serial_head,
            receiver_major,
            fingerprint: 0,
        }
        .sealed())
    }

    /// Expand the stride families back into flat triples — the
    /// pre-stride encoding, kept as the reference the encoder's
    /// equivalence tests compare against. Every unit's kernel becomes
    /// [`Kernel::Triples`]; the replayed bytes are identical by
    /// construction.
    #[doc(hidden)]
    pub fn expand_to_triples(&self) -> CopyProgram {
        fn expand_unit(p: &CopyProgram, u: &CopyUnit, runs: &mut Vec<CopyRun>) -> CopyUnit {
            let start = runs.len() as u32;
            for f in &p.fams[u.fams.0 as usize..u.fams.1 as usize] {
                let (mut s, mut d) = (f.src_base as u64, f.dst_base as u64);
                for _ in 0..f.count {
                    runs.push(CopyRun { src_pos: s as u32, dst_pos: d as u32, len: f.len });
                    s += f.src_step as u64;
                    d += f.dst_step as u64;
                }
            }
            runs.extend_from_slice(&p.runs[u.runs.0 as usize..u.runs.1 as usize]);
            // Same (group, index) slot, so the serial links carry over.
            CopyUnit { fams: (0, 0), runs: (start, runs.len() as u32), kernel: Kernel::Triples, ..*u }
        }
        let mut runs = Vec::with_capacity(self.n_runs() as usize);
        let local: Vec<CopyUnit> =
            self.local.iter().map(|u| expand_unit(self, u, &mut runs)).collect();
        let rounds: Vec<Vec<CopyUnit>> = self
            .rounds
            .iter()
            .map(|r| r.iter().map(|u| expand_unit(self, u, &mut runs)).collect())
            .collect();
        CopyProgram {
            mappings: std::sync::Arc::clone(&self.mappings),
            fams: Vec::new(),
            runs,
            local,
            rounds,
            total_elements: self.total_elements,
            serial_head: self.serial_head,
            receiver_major: self.receiver_major,
            fingerprint: 0,
        }
        .sealed()
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
/// merged wire round `r` (empty rounds kept), so a parallel or guarded
/// group replay ([`crate::group::remap_group`]) can walk the rounds
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
    /// (the group then falls back to per-member solo remaps).
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

/// Below this many elements a round is replayed inline even in
/// [`ExecMode::Parallel`] — the scoped-thread spawns would cost more
/// than the copy itself.
pub(crate) const PARALLEL_THRESHOLD: u64 = 1 << 15;

/// The one inline-vs-parallel decision: a round of `total` elements
/// replays inline iff it is strictly below [`PARALLEL_THRESHOLD`].
/// Every round dispatcher — the solo and group replays, guarded and
/// unguarded — routes through this predicate, so a round of exactly
/// threshold size takes the same engine everywhere.
#[inline]
pub(crate) fn round_goes_inline(total: u64) -> bool {
    total < PARALLEL_THRESHOLD
}

/// Fewest runs an arithmetic progression must cover before the encoder
/// emits a [`StrideFamily`] instead of residual triples — below this a
/// 24-byte descriptor plus loop control beats 12-byte triples by too
/// little to matter.
pub(crate) const MIN_FAMILY: usize = 4;

/// The single u32-overflow gate of program compilation: every local
/// position, run index, family index, and family count funnels through
/// here, so any >4Gi shape declines via one
/// [`CompileDecline::PositionOverflow`] path (the table engine's u64
/// arithmetic is the fallback).
#[inline]
fn fit_u32(x: u64) -> Result<u32, CompileDecline> {
    u32::try_from(x).map_err(|_| CompileDecline::PositionOverflow)
}

/// Stride-encode one (provider, receiver) pair's triples: coalesce
/// adjacent contiguous-in-both runs, then greedily detect arithmetic
/// progressions in `(src_pos, dst_pos)` of equal-length runs. Runs of
/// ≥ [`MIN_FAMILY`] progressions become [`StrideFamily`] descriptors
/// in `fams`; the genuinely irregular remainder lands in `runs` as
/// explicit triples. Positions within one pair are produced in
/// ascending destination order by the combination walk, so steps are
/// non-negative; combination boundaries (where positions may jump
/// backward) simply break the progression.
fn encode_runs(
    rs: Vec<CopyRun>,
    fams: &mut Vec<StrideFamily>,
    runs: &mut Vec<CopyRun>,
) -> Result<(), CompileDecline> {
    // Pass 1: merge runs contiguous on BOTH sides — a unit-stride
    // span is one memcpy at replay, however the walk sliced it.
    let mut co: Vec<CopyRun> = Vec::with_capacity(rs.len());
    for r in rs {
        match co.last_mut() {
            Some(last)
                if last.src_pos + last.len == r.src_pos
                    && last.dst_pos + last.len == r.dst_pos =>
            {
                last.len += r.len;
            }
            _ => co.push(r),
        }
    }
    // Pass 2: greedy arithmetic-progression detection.
    let mut i = 0usize;
    while i < co.len() {
        let mut j = i;
        let mut src_step = 0u32;
        let mut dst_step = 0u32;
        if let Some(next) = co.get(i + 1) {
            if next.len == co[i].len {
                if let (Some(ss), Some(ds)) = (
                    next.src_pos.checked_sub(co[i].src_pos),
                    next.dst_pos.checked_sub(co[i].dst_pos),
                ) {
                    src_step = ss;
                    dst_step = ds;
                    j = i + 1;
                    while j + 1 < co.len()
                        && co[j + 1].len == co[i].len
                        && co[j + 1].src_pos.checked_sub(co[j].src_pos) == Some(src_step)
                        && co[j + 1].dst_pos.checked_sub(co[j].dst_pos) == Some(dst_step)
                    {
                        j += 1;
                    }
                }
            }
        }
        let count = j - i + 1;
        if count >= MIN_FAMILY {
            fams.push(StrideFamily {
                src_base: co[i].src_pos,
                dst_base: co[i].dst_pos,
                count: fit_u32(count as u64)?,
                src_step,
                dst_step,
                len: co[i].len,
            });
            i = j + 1;
        } else {
            runs.push(co[i]);
            i += 1;
        }
    }
    Ok(())
}

/// Thread the serial replay order through the units' `next_*` links;
/// returns its head and whether it is receiver-major. The order is
/// major in the rank of the side whose families sweep the wider span —
/// provider-major for a strided source (gather), receiver-major for a
/// strided destination (scatter) — so all units of one sparsely swept
/// block are adjacent. Contiguous units sweep equal spans and take
/// provider-major, the order of the family and run tables.
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

/// Pick the replay kernel for one unit's encoded runs — decided once
/// at compile time so replay pays zero per-run classification.
fn choose_kernel(fams: &[StrideFamily], runs: &[CopyRun]) -> Kernel {
    match (fams.is_empty(), runs.is_empty()) {
        // A unit-stride span coalesces to a single residual triple:
        // the whole unit is one memcpy.
        (true, false) if runs.len() == 1 => Kernel::Memcpy,
        (true, _) => Kernel::Triples,
        (false, true) if fams.iter().all(|f| f.len == 1) => Kernel::Gather,
        (false, true) => Kernel::Strided,
        (false, false) => Kernel::Mixed,
    }
}

/// Record the `(src_pos, dst_pos, len)` triples of one descriptor
/// combination — the position arithmetic of the table engine's
/// `copy_runs`, evaluated once at compile time. `s_len`/`d_len` are the
/// per-dimension local extents of the provider/receiver blocks
/// (`|src_set|` / `|dst_set|` of the combination's entries). Returns
/// `None` when a position overflows `u32`.
fn record_combination(
    runs_by_dim: &[&[(u64, u64)]],
    entries: &[&DimContribution],
    s_len: &[u64],
    d_len: &[u64],
    out: &mut Vec<CopyRun>,
) -> Option<()> {
    let rank = runs_by_dim.len();
    let last = rank - 1;
    let e_last = entries[last];
    let mut push = |s_at: u64, d_at: u64, len: u64| -> Option<()> {
        out.push(CopyRun {
            src_pos: u32::try_from(s_at).ok()?,
            dst_pos: u32::try_from(d_at).ok()?,
            len: u32::try_from(len).ok()?,
        });
        Some(())
    };
    // Odometer over the outer dimensions, one global index at a time:
    // per dimension, (run index, offset inside the run).
    let mut cur = vec![(0usize, 0u64); last];
    loop {
        let mut d_pref = 0u64;
        let mut s_pref = 0u64;
        for d in 0..last {
            let (ri, off) = cur[d];
            let g = runs_by_dim[d][ri].0 + off;
            d_pref = d_pref * d_len[d] + entries[d].dst_set.count_below(g);
            s_pref = s_pref * s_len[d] + entries[d].src_set.count_below(g);
        }
        for &(lo, hi) in runs_by_dim[last] {
            let dp = e_last.dst_set.count_below(lo);
            let sp = e_last.src_set.count_below(lo);
            push(s_pref * s_len[last] + sp, d_pref * d_len[last] + dp, hi - lo)?;
        }
        // Advance the outer odometer (innermost outer dim fastest).
        let mut d = last;
        loop {
            if d == 0 {
                return Some(());
            }
            d -= 1;
            let (ref mut ri, ref mut off) = cur[d];
            *off += 1;
            if runs_by_dim[d][*ri].0 + *off < runs_by_dim[d][*ri].1 {
                break;
            }
            *off = 0;
            *ri += 1;
            if *ri < runs_by_dim[d].len() {
                break;
            }
            *ri = 0;
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
mod tests {
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
        // Parallel replay writes the identical bytes.
        let mut c = VersionData::new(b.mapping.clone(), 8);
        c.copy_values_from_program(&a, &prog, ExecMode::Parallel(3));
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
        // same walk after re-encoding, and covered by the fingerprint.
        let units = gather.local.len() + gather.rounds.iter().map(Vec::len).sum::<usize>();
        assert_eq!(
            gather.artifact_bytes(),
            gather.fams.len() * 24 + gather.runs.len() * 12 + units * 48
        );
        let flat = gather.expand_to_triples();
        assert!(flat.integrity_ok());
        assert!(flat
            .serial_order()
            .map(|u| (u.provider, u.receiver))
            .eq(gather.serial_order().map(|u| (u.provider, u.receiver))));
        let mut bad = gather.clone();
        bad.local[0].next_index ^= 1;
        assert!(!bad.integrity_ok(), "a scribbled serial link must be detected");
        let mut bad = gather;
        bad.serial_head.1 ^= 1;
        assert!(!bad.integrity_ok(), "a scribbled serial head must be detected");
    }

    #[test]
    fn threaded_replay_above_threshold_matches_serial() {
        // Rounds of ~65k elements: well above PARALLEL_THRESHOLD, so
        // Parallel(3) really spawns scoped workers with split blocks.
        let n = 1u64 << 18;
        let src = mk(n, 4, DimFormat::Block(None));
        let dst = mk(n, 4, DimFormat::Cyclic(Some(2)));
        let (plan, prog) = compiled(&src, &dst);
        assert!(
            prog.rounds.iter().any(|r| r.iter().map(|u| u.elements).sum::<u64>()
                >= PARALLEL_THRESHOLD),
            "test must cross the inline threshold"
        );
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 509) as f64);
        let mut serial = VersionData::new(dst, 8);
        serial.copy_values_from_program(&a, &prog, ExecMode::Serial);
        let mut parallel = VersionData::new(serial.mapping.clone(), 8);
        parallel.copy_values_from_program(&a, &prog, ExecMode::Parallel(3));
        assert_eq!(serial, parallel);
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
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel(4).threads(), 4);
        assert_eq!(ExecMode::Parallel(0).threads(), 1);
    }

    #[test]
    fn exec_mode_parse_distinguishes_unparsable_values() {
        assert_eq!(ExecMode::parse("4"), Some(ExecMode::Parallel(4)));
        assert_eq!(ExecMode::parse(" 2 "), Some(ExecMode::Parallel(2)));
        assert_eq!(ExecMode::parse("1"), Some(ExecMode::Serial));
        assert_eq!(ExecMode::parse("0"), Some(ExecMode::Serial));
        // Unparsable values are `None`, so `from_env` can warn instead
        // of silently serializing.
        assert_eq!(ExecMode::parse("four"), None);
        assert_eq!(ExecMode::parse(""), None);
        assert_eq!(ExecMode::parse("-3"), None);
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
        // here allocates 6 Gi of data or a single triple.
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
        // Block → Cyclic(1): the flat encoding stores one triple per
        // element; the stride encoder collapses every (provider,
        // receiver) pair to one gather family.
        let n = 1u64 << 18;
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.len() <= 16 * 16, "O(P_src × P_dst) descriptors");
        assert!(prog.runs.is_empty(), "no irregular remainder in the cyclic(1) shape");
        assert_eq!(prog.n_runs(), n, "still n logical single-element runs");
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Gather);
        }
        // The acceptance bar: ≥100× smaller than the triple encoding.
        let flat = prog.expand_to_triples();
        assert_eq!(flat.runs.len() as u64, n);
        assert!(
            prog.artifact_bytes() * 100 <= flat.artifact_bytes(),
            "strided artifact {}B vs flat {}B",
            prog.artifact_bytes(),
            flat.artifact_bytes()
        );
        // Both encodings replay byte-identical data, in both engines.
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 1021) as f64);
        let mut b = VersionData::new(dst.clone(), 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        let mut c = VersionData::new(dst.clone(), 8);
        c.copy_values_from_program(&a, &flat, ExecMode::Serial);
        assert_eq!(b, c);
        let mut d = VersionData::new(dst, 8);
        d.copy_values_from_program(&a, &prog, ExecMode::Parallel(4));
        assert_eq!(b, d);
    }

    #[test]
    fn kernels_match_unit_shapes() {
        // Block-cyclic destination: equal-length runs on a constant
        // stride — every unit compiles to the blocked strided kernel.
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
        // both sides, coalesces to one triple, and the whole unit is a
        // single memcpy.
        let src = mk(64, 4, DimFormat::Block(None));
        let dst = mk(64, 2, DimFormat::Block(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.is_empty());
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Memcpy);
            assert_eq!(u.runs.1 - u.runs.0, 1);
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
        // a single coalesced memcpy triple.
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
    fn inline_threshold_boundary_is_shared() {
        // The one inline-vs-parallel predicate: strictly below the
        // threshold is inline, exactly the threshold is not — every
        // dispatcher (solo, group, guarded, unguarded) uses this.
        assert!(round_goes_inline(PARALLEL_THRESHOLD - 1));
        assert!(!round_goes_inline(PARALLEL_THRESHOLD));
        assert!(!round_goes_inline(PARALLEL_THRESHOLD + 1));
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
        let orig = prog.runs[0];
        prog.runs[0].src_pos = prog.runs[0].src_pos.wrapping_add(1);
        assert!(!prog.integrity_ok(), "a scribbled triple must be detected");
        prog.runs[0] = orig;
        assert!(prog.integrity_ok());
        prog.fingerprint ^= 1;
        assert!(!prog.integrity_ok(), "a scribbled fingerprint must be detected");
    }
}
