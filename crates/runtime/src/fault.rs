//! The fault *model* of the remap engine: what can be injected, what is
//! detected, what a failure is called, and the per-round retry policy.
//! The recovery ladder that acts on it lives with the replay core (the
//! crate's `replay` module), shared by every remap.
//!
//! The plan registry shares one compiled artifact between every
//! session, so a poisoned cache entry or one bad round must degrade,
//! not take down every session. This module provides the three pieces
//! of that failure model:
//!
//! * **Injection** — a seedable, deterministic [`FaultPlan`], armed
//!   only by `Machine::with_faults` (no environment variable selects
//!   one). Faults are decided by a pure hash of
//!   `(seed, remap epoch, round, attempt)`, so a failing execution
//!   replays bit-identically, and a *retry* of the same round rolls a
//!   fresh decision — exactly the recoverable-transient regime the
//!   ladder is built for. The deterministic caterpillar round structure
//!   makes the injection points well-defined: a fault hits *a chosen
//!   round of a chosen remap*, never a vague interleaving.
//! * **Detection** — per-round conservation counts (elements replayed
//!   vs. schedule-planned), optional per-unit checksums over the copied
//!   words ([`ValidationLevel::Checksums`]), and a compile-time
//!   fingerprint over every cached program's families
//!   ([`crate::CopyProgram::integrity_ok`]).
//! * **Recovery** — one ladder behind every remap statement
//!   (`try_remap_guarded` and `try_remap_group`): bounded retry of the
//!   failed round (`run_round_ladder`, below) → recompile the program
//!   from the cached plan, for that replay only → fall back to the
//!   table engine → a typed [`ExecError`]. A round that
//!   panics is caught with `catch_unwind` and retried like any other
//!   failed round. Every round replays on the calling thread.
//!
//! When no faults are configured and validation is
//! [`ValidationLevel::Off`], none of this is on the remap path: the
//! cached bounce takes the exact pre-existing unguarded replay
//! (allocation-free, pinned by `alloc_free.rs` and the
//! `redist/fault_overhead` bench).

use crate::exec::{mix64, CopyProgram};
use crate::machine::Machine;

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Scribble one delivered word of the round after replaying it
    /// (a wire bit-flip). Detected by checksums.
    CorruptRound,
    /// Replay only the first half of the round's units (a short wire
    /// read). Detected by conservation counts.
    TruncateRound,
    /// Replay none of the round's units (a lost message batch).
    /// Detected by conservation counts.
    DropRound,
    /// Corrupt a transient copy of the served compiled programs before
    /// the replay starts (the served artifacts themselves are never
    /// written). Detected by the program fingerprint; healed by
    /// recompiling from the cached plan for that replay.
    PoisonProgram,
    /// Panic the plan → schedule → program compile itself (decided once
    /// per remap, fires only on a cold compile). Contained by
    /// `catch_unwind` in the registry's compile-under-lock (the shard
    /// `Mutex` is **not** poisoned) and recovered by a clean compile
    /// outside the lock ([`crate::PlanRegistry::resolve`]).
    CompilePanic,
    /// Force the whole recovery ladder to fail: every round attempt is
    /// rejected and the table-engine rung is blocked, so the remap
    /// surfaces a terminal [`ExecError::Unrecovered`] *after* partial
    /// writes happened — the scenario transactional rollback exists
    /// for.
    Exhaust,
}

impl FaultKind {
    const ALL: [FaultKind; 6] = [
        FaultKind::CorruptRound,
        FaultKind::TruncateRound,
        FaultKind::DropRound,
        FaultKind::PoisonProgram,
        FaultKind::CompilePanic,
        FaultKind::Exhaust,
    ];

    fn bit(self) -> u8 {
        match self {
            FaultKind::CorruptRound => 1,
            FaultKind::TruncateRound => 2,
            FaultKind::DropRound => 4,
            FaultKind::PoisonProgram => 16,
            FaultKind::CompilePanic => 32,
            FaultKind::Exhaust => 64,
        }
    }

    /// The wire-level (per-round) kinds; `PoisonProgram` is decided
    /// once per remap instead.
    const WIRE: [FaultKind; 3] =
        [FaultKind::CorruptRound, FaultKind::TruncateRound, FaultKind::DropRound];
}

/// A seedable, deterministic fault-injection plan. Decisions are a pure
/// hash of `(seed, remap epoch, round, attempt)`: the same execution
/// faults identically every run, and retrying a round re-rolls the
/// decision, so bounded retries converge unless the rate is 100%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Injection probability per decision point, in percent (0–100).
    rate: u32,
    kinds: u8,
}

impl FaultPlan {
    /// A plan injecting the given kinds at `rate` percent per decision
    /// point. A plan is armed on a machine only
    /// ([`Machine::with_faults`]); pair injected corruption with
    /// [`ValidationLevel::Checksums`], or it is absorbed silently.
    ///
    /// ```
    /// use std::collections::BTreeSet;
    ///
    /// use hpfc_mapping::{testing::mapping_1d, DimFormat};
    /// use hpfc_runtime::{ArrayRt, FaultKind, FaultPlan, Machine, ValidationLevel};
    ///
    /// // Deterministic chaos: seed 7, 25% of decision points, chosen classes.
    /// let mut machine = Machine::new(4)
    ///     .with_validation(ValidationLevel::Checksums)
    ///     .with_faults(FaultPlan::new(7, 25, &[FaultKind::CorruptRound, FaultKind::DropRound]));
    /// let n = 4096;
    /// let versions =
    ///     vec![mapping_1d(n, 4, DimFormat::Block(None)), mapping_1d(n, 4, DimFormat::Cyclic(Some(3)))];
    /// let mut a = ArrayRt::new("a", versions, 8);
    /// a.current(&mut machine, 0).fill(|p| p[0] as f64);
    /// let keep: BTreeSet<u32> = [0, 1].into_iter().collect();
    /// let skip = BTreeSet::new();
    /// for hop in 0..8 {
    ///     a.try_remap_guarded(&mut machine, (hop + 1) % 2, &keep, false, &skip).expect("healed");
    ///     a.set(&[hop as u64], hop as f64); // a write, so the next hop moves data
    /// }
    /// // Faults were injected, and every one was healed.
    /// assert!(machine.stats.faults_injected > 0);
    /// assert!((0..n).all(|i| a.get(&[i]) == i as f64));
    /// ```
    pub fn new(seed: u64, rate: u32, kinds: &[FaultKind]) -> FaultPlan {
        let mask = kinds.iter().fold(0u8, |m, k| m | k.bit());
        FaultPlan { seed, rate: rate.min(100), kinds: mask }
    }

    /// A plan injecting **every** fault class at `rate` percent.
    pub fn all(seed: u64, rate: u32) -> FaultPlan {
        FaultPlan::new(seed, rate, &FaultKind::ALL)
    }

    fn site_hash(&self, epoch: u64, stream: u32, round: u32, attempt: u32) -> u64 {
        let site = ((stream as u64) << 48) ^ ((round as u64) << 16) ^ attempt as u64;
        mix64(self.seed ^ mix64(epoch.wrapping_mul(0x9E37_79B9).wrapping_add(site)))
    }

    /// The wire-level fault (if any) for one `(remap epoch, round,
    /// attempt)` decision point, plus a salt for victim selection.
    /// `stream` separates the original program's decision stream from a
    /// recompiled one's.
    pub(crate) fn round_fault(
        &self,
        epoch: u64,
        stream: u32,
        round: u32,
        attempt: u32,
    ) -> Option<(FaultKind, u64)> {
        let h = self.site_hash(epoch, stream, round, attempt);
        if (h % 100) as u32 >= self.rate {
            return None;
        }
        // The k-th enabled kind, picked without collecting: a healed
        // fault allocates nothing.
        let mut enabled = FaultKind::WIRE.into_iter().filter(|k| self.kinds & k.bit() != 0);
        let pick = ((h >> 32) as usize).checked_rem(enabled.clone().count())?;
        Some((enabled.nth(pick)?, h))
    }

    /// Whether this remap's served programs get poisoned (decided once
    /// per remap epoch, before the replay starts).
    pub(crate) fn poison_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::PoisonProgram.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 3, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }

    /// Whether this remap's *compile* panics (decided once per remap
    /// epoch; only meaningful on a cold compile — a cache or registry
    /// hit never compiles).
    pub(crate) fn compile_panic_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::CompilePanic.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 4, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }

    /// Whether this remap's entire recovery ladder is forced to fail
    /// (decided once per remap epoch): every round attempt is rejected
    /// and the table-engine rung is blocked, so the remap ends in a
    /// terminal [`ExecError::Unrecovered`].
    pub(crate) fn exhaust_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::Exhaust.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 5, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }
}

/// How much the guarded replay verifies per round. `Checksums` implies
/// the conservation counts of `Counts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ValidationLevel {
    /// No verification — with no faults configured this selects the
    /// unguarded allocation-free fast path.
    #[default]
    Off,
    /// Per-round conservation counts: elements replayed must equal the
    /// round's planned elements (catches dropped/truncated rounds).
    Counts,
    /// `Counts` plus per-unit checksums over the copied words: the sum
    /// of source words read must equal the sum of destination words
    /// written (catches any single-word corruption).
    Checksums,
}

/// A typed execution error — what the remap engine returns when the
/// recovery ladder cannot produce a correct result, replacing the
/// panic sites on the execution path. The interpreter propagates these
/// across its boundary instead of aborting the process.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// Source and destination extents differ — the promoted form of the
    /// replay's shape debug-assertion.
    ShapeMismatch {
        /// Source-side extents (debug rendering).
        src: String,
        /// Destination-side extents (debug rendering).
        dst: String,
    },
    /// A version copy the remap needs is not allocated.
    MissingCopy {
        /// Array name.
        array: String,
        /// The missing version subscript.
        version: u32,
    },
    /// A local block a compiled program references is unallocated.
    MissingBlock {
        /// Processor rank of the missing block.
        rank: u64,
        /// `"provider"` or `"receiver"`.
        side: &'static str,
    },
    /// The recovery ladder was exhausted without a clean replay.
    Unrecovered {
        /// What was being replayed.
        context: String,
    },
    /// A remap group's runtime member list disagrees with its planned
    /// group.
    GroupMismatch {
        /// Planned member count.
        planned: usize,
        /// Runtime member count.
        got: usize,
    },
    /// An interpreter-level invariant violation, reported instead of
    /// panicked.
    Interp {
        /// Description of the violated invariant.
        what: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ShapeMismatch { src, dst } => {
                write!(f, "shape mismatch: source extents {src}, destination extents {dst}")
            }
            ExecError::MissingCopy { array, version } => {
                write!(f, "array `{array}`: version {version} copy is not allocated")
            }
            ExecError::MissingBlock { rank, side } => {
                write!(f, "compiled program references unallocated {side} block on rank {rank}")
            }
            ExecError::Unrecovered { context } => {
                write!(f, "recovery ladder exhausted: {context}")
            }
            ExecError::GroupMismatch { planned, got } => {
                write!(f, "remap group has {got} members but {planned} were planned")
            }
            ExecError::Interp { what } => write!(f, "interpreter invariant violated: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The payload of an injected [`FaultKind::CompilePanic`] — a marker
/// type so genuine panics remain distinguishable in captured output.
#[derive(Debug)]
pub struct InjectedPanic;

/// Corrupt a compiled program in place — the `PoisonProgram` fault.
/// Zeroing the families' source bases keeps every run in bounds
/// (because `pos + extent <= block_len` implies the zero-based extent
/// fits too) while changing what the program copies; the fingerprint
/// catches it either way.
pub(crate) fn poison_program(p: &mut CopyProgram) {
    for f in &mut p.fams {
        f.src_base = 0;
    }
    if p.integrity_ok() {
        // Degenerate program unchanged by the scribble (e.g. every
        // src_base already 0): corrupt the fingerprint itself instead.
        p.fingerprint ^= 0x5A5A_5A5A;
    }
}

/// Per-round facts the retry ladder needs to pick applicable faults
/// and validate conservation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundCtx {
    /// Planned elements of the round (sum of its units' elements).
    pub expected: u64,
    /// Number of units in the round.
    pub units: usize,
    /// Round number for fault hashing (0 = the local group).
    pub round_no: u32,
}

/// Bound on replay attempts per round (1 initial + 3 retries).
const MAX_ROUND_ATTEMPTS: u32 = 4;

/// The wire fault, if any, drawn for this round at `(epoch, stream,
/// round_no, attempt)` — a pure function of the site, so every round's
/// attempt 0 can be decided before the replay writes anything. Wire
/// loss needs something on the wire.
pub(crate) fn decide(
    machine: &Machine,
    ctx: &RoundCtx,
    epoch: u64,
    stream: u32,
    attempt: u32,
) -> Option<(FaultKind, u64)> {
    let fault = machine.faults.as_ref()?.round_fault(epoch, stream, ctx.round_no, attempt);
    fault.filter(|_| ctx.expected > 0 && ctx.units > 0)
}

/// The per-round rungs of the recovery ladder: count the round's
/// injected faults, validate what each attempt replayed — `first` for
/// attempt 0, which the caller ran for every round in one walk, and
/// `replay` for each retry (the elements it replayed, or `None` when
/// the attempt failed its checksums or panicked) — and on failure retry
/// (bounded). `Err(())` means the round is stuck (the caller escalates:
/// recompile, then the table engine).
pub(crate) fn run_round_ladder(
    machine: &mut Machine,
    ctx: &RoundCtx,
    epoch: u64,
    stream: u32,
    first: Option<u64>,
    mut replay: impl FnMut(bool, Option<(FaultKind, u64)>) -> Option<u64>,
) -> Result<(), ()> {
    let checksums = machine.validation == ValidationLevel::Checksums;
    let counts = machine.validation >= ValidationLevel::Counts;
    // An exhaust fault rejects every attempt of every round — the
    // writes still happen, so the destination is left partially
    // written, which is exactly what transactional rollback must undo.
    let exhaust = machine.faults.as_ref().is_some_and(|f| f.exhaust_fires(epoch));
    for attempt in 0..MAX_ROUND_ATTEMPTS {
        if attempt > 0 {
            machine.stats.rounds_retried += 1;
        }
        let fault = decide(machine, ctx, epoch, stream, attempt);
        if fault.is_some() {
            machine.stats.faults_injected += 1;
        }
        let replayed = if attempt == 0 { first } else { replay(checksums, fault) };
        if !exhaust && replayed.is_some_and(|elements| !counts || elements == ctx.expected) {
            return Ok(());
        }
    }
    Err(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::all(42, 30);
        let mut fired = 0usize;
        for epoch in 0..200u64 {
            let a = plan.round_fault(epoch, 0, 1, 0);
            let b = plan.round_fault(epoch, 0, 1, 0);
            assert_eq!(a, b, "same site must decide identically");
            if a.is_some() {
                fired += 1;
            }
        }
        // ~30% of 200 decision points; generous determinism-safe bounds.
        assert!((20..=100).contains(&fired), "fired {fired} of 200 at rate 30");
        // A retry rolls a fresh decision (attempt is part of the site).
        let differs = (0..100u64).any(|e| {
            plan.round_fault(e, 0, 1, 0).map(|(k, _)| k)
                != plan.round_fault(e, 0, 1, 1).map(|(k, _)| k)
        });
        assert!(differs, "attempt must re-roll the decision");
    }

    #[test]
    fn rate_zero_and_disabled_kinds_never_fire() {
        let silent = FaultPlan::all(7, 0);
        assert!((0..500u64).all(|e| silent.round_fault(e, 0, 0, 0).is_none()));
        assert!((0..500u64).all(|e| !silent.poison_fires(e)));
        let poison_only = FaultPlan::new(7, 100, &[FaultKind::PoisonProgram]);
        assert!((0..100u64).all(|e| poison_only.round_fault(e, 0, 0, 0).is_none()));
        assert!(poison_only.poison_fires(3));
        let wire_only = FaultPlan::new(7, 100, &[FaultKind::DropRound]);
        assert!((0..100u64).all(|e| !wire_only.poison_fires(e)));
    }

    #[test]
    fn constructors_saturate_rate_and_mask_kinds() {
        let p = FaultPlan::new(9, 120, &[FaultKind::DropRound]);
        assert_eq!(p.rate, 100, "rate saturates at 100");
        assert_eq!(p.kinds, FaultKind::DropRound.bit());
        let all = FaultPlan::all(1, 10);
        assert_eq!(all.kinds, 0b111_0111);
    }

    #[test]
    fn terminal_kinds_fire_on_their_own_streams() {
        let cp = FaultPlan::new(11, 100, &[FaultKind::CompilePanic]);
        assert!(cp.compile_panic_fires(5));
        assert!(!cp.exhaust_fires(5));
        assert!(!cp.poison_fires(5));
        assert!((0..100u64).all(|e| cp.round_fault(e, 0, 0, 0).is_none()));
        let ex = FaultPlan::new(11, 100, &[FaultKind::Exhaust]);
        assert!(ex.exhaust_fires(5));
        assert!(!ex.compile_panic_fires(5));
        let silent = FaultPlan::new(11, 0, &[FaultKind::CompilePanic, FaultKind::Exhaust]);
        assert!((0..200u64).all(|e| !silent.compile_panic_fires(e) && !silent.exhaust_fires(e)));
    }

    #[test]
    fn validation_levels_are_ordered() {
        assert!(ValidationLevel::Off < ValidationLevel::Counts);
        assert!(ValidationLevel::Counts < ValidationLevel::Checksums);
        assert_eq!(ValidationLevel::default(), ValidationLevel::Off);
    }

    #[test]
    fn exec_error_displays() {
        let e = ExecError::MissingCopy { array: "a".into(), version: 2 };
        assert!(e.to_string().contains("version 2"));
        let e = ExecError::Unrecovered { context: "round 3".into() };
        assert!(e.to_string().contains("round 3"));
    }
}
