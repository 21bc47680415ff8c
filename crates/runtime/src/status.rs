//! The per-array runtime descriptor of Sec. 5.1 and the executable
//! semantics of the generated copy code (Fig. 19/20).
//!
//! Each dynamic array carries:
//! * a **status** — which version is current (may be referenced);
//! * per-version **live** flags — which copies hold the current values;
//!
//! [`ArrayRt::try_remap_guarded`] is Fig. 20 executed: skip if already
//! mapped as required; allocate the target lazily; if the target copy
//! is not live, copy from the status copy (real communication, through
//! the redistribution engine) unless the values are dead; then clean
//! every copy outside the may-live set. [`ArrayRt::evict`] models the
//! memory-pressure path: a live non-current copy may be dropped at any
//! time and is regenerated (with communication) if needed again.
//!
//! *Modeled* memory (`Machine::mem`) follows Fig. 20 to the byte; *host*
//! storage does not: a freed copy is parked for the next allocation of
//! the same version (remap loops free and re-request the same shapes).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hpfc_mapping::NormalizedMapping;

use crate::exec::CopyProgram;
use crate::fault::ExecError;
use crate::group::GroupMember;
use crate::machine::Machine;
use crate::redist::RedistPlan;
use crate::schedule::CommSchedule;
use crate::store::VersionData;

/// A memoized redistribution: the closed-form plan, its message-level
/// caterpillar schedule, and the compiled copy program — computed once
/// per `(source version, target version)` pair and reused by every
/// later remap between the same pair (remap loops stop replanning —
/// the mappings of a version never change, so the plan cannot either).
/// Lowering (`hpfc-codegen`) builds the same triple at compile time
/// and the interpreter seeds it into [`ArrayRt::plan_cache`] via
/// [`ArrayRt::seed_plan`], so executed programs never replan at all.
#[derive(Debug, Clone)]
pub struct PlannedRemap {
    /// The communication plan (carries the interval descriptors the
    /// block-level copy engine walks).
    pub plan: RedistPlan,
    /// The plan lowered to per-pair packed messages in caterpillar
    /// rounds — what [`Machine::account_schedule`] costs.
    pub schedule: CommSchedule,
    /// The executable form: precompiled `(src_pos, dst_pos, len)`
    /// triples grouped by round, replayed allocation-free by
    /// [`VersionData::copy_values_from_program`]. `None` when the plan
    /// cannot drive a program (rank-0 scalars, `u32` position
    /// overflow) — the table engine is the fallback.
    pub program: Option<CopyProgram>,
}

impl PlannedRemap {
    /// Plan → schedule → compiled program, the whole pipeline.
    pub fn compile(plan: RedistPlan) -> PlannedRemap {
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule);
        PlannedRemap { plan, schedule, program }
    }
}

/// Host buffers of freed versions (index = version subscript). A clone
/// starts with none: parked storage is not array state.
#[derive(Debug)]
struct Parked(Vec<Option<VersionData>>);

impl Clone for Parked {
    fn clone(&self) -> Self {
        Parked(vec![None; self.0.len()])
    }
}

/// Runtime state of one dynamic array.
#[derive(Debug, Clone)]
pub struct ArrayRt {
    /// Display name (diagnostics).
    pub name: String,
    /// The statically known placements (index = version subscript).
    pub mappings: Vec<NormalizedMapping>,
    /// Allocated copies (lazy).
    pub copies: Vec<Option<VersionData>>,
    /// Which copies hold the current values.
    pub live: Vec<bool>,
    /// The current version, if any ("no initial mapping is imposed from
    /// entry" — instantiation is delayed to first use or remapping).
    pub status: Option<u32>,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Memoized plans + schedules keyed by (source, target) version —
    /// i.e. by (source, destination) mapping pair, since a version *is*
    /// its mapping. Shared by reference: cloning the descriptor does
    /// not replan.
    pub plan_cache: BTreeMap<(u32, u32), Arc<PlannedRemap>>,
    /// Freed-but-kept host storage, see [`ArrayRt::free_copy`].
    parked: Parked,
}

impl ArrayRt {
    /// New descriptor over the known versions.
    pub fn new(name: impl Into<String>, mappings: Vec<NormalizedMapping>, elem_size: u64) -> Self {
        let n = mappings.len();
        ArrayRt {
            name: name.into(),
            mappings,
            copies: vec![None; n],
            live: vec![false; n],
            status: None,
            elem_size,
            plan_cache: BTreeMap::new(),
            parked: Parked(vec![None; n]),
        }
    }

    /// The memoized plan + schedule + compiled copy program for
    /// remapping version `src` to version `dst`. The per-array cache is
    /// the first level (a hit touches no lock); a local miss is
    /// resolved by the machine's [`crate::PlanRegistry`] and booked by
    /// [`crate::NetStats::bill`]: served if any session registered it
    /// (`registry_hits`), otherwise compiled **once registry-wide**
    /// (`registry_misses` + `plans_computed`).
    pub fn planned(&mut self, machine: &mut Machine, src: u32, dst: u32) -> Arc<PlannedRemap> {
        self.planned_with(machine, src, dst, false)
    }

    /// [`ArrayRt::planned`] with an injectable compile panic
    /// ([`crate::FaultKind::CompilePanic`]), which
    /// [`crate::PlanRegistry::resolve`] contains and recovers from — so
    /// this method stays infallible.
    pub(crate) fn planned_with(
        &mut self,
        machine: &mut Machine,
        src: u32,
        dst: u32,
        inject_compile_panic: bool,
    ) -> Arc<PlannedRemap> {
        if let Some(p) = self.plan_cache.get(&(src, dst)) {
            machine.stats.plan_cache_hits += 1;
            return Arc::clone(p);
        }
        let (planned, out) = machine.registry.resolve(
            &self.mappings[src as usize],
            &self.mappings[dst as usize],
            self.elem_size,
            inject_compile_panic,
        );
        machine.stats.bill(&out);
        machine.stats.plans_computed += u64::from(!out.hit);
        self.plan_cache.insert((src, dst), Arc::clone(&planned));
        planned
    }

    /// Seed the plan cache with a remapping planned elsewhere —
    /// lowering plans every (reaching source, target) pair at compile
    /// time and the interpreter hands those `Arc`s straight in, so
    /// executing a lowered program computes **zero** plans at run time
    /// (`NetStats::plans_computed` stays 0) and the executed schedule
    /// is *structurally* the one the code generator rendered. An
    /// already-cached pair is kept (same mapping pair ⇒ same plan).
    pub fn seed_plan(&mut self, src: u32, dst: u32, planned: Arc<PlannedRemap>) {
        self.plan_cache.entry((src, dst)).or_insert(planned);
    }

    /// [`ArrayRt::seed_plan`] through the machine's shared registry:
    /// the seeded artifact is published registry-wide (first publisher
    /// wins) and the **canonical** `Arc` is cached locally, so every
    /// session seeding equal pairs converges on one allocation. A pair
    /// already cached locally touches neither registry nor counters —
    /// steady-state re-seeding (each group remap re-seeds its members)
    /// stays lock-free and allocation-free.
    pub fn seed_plan_shared(
        &mut self,
        machine: &mut Machine,
        src: u32,
        dst: u32,
        planned: Arc<PlannedRemap>,
    ) {
        if self.plan_cache.contains_key(&(src, dst)) {
            return;
        }
        let (canonical, out) = machine.registry.adopt(planned);
        machine.stats.bill(&out);
        self.plan_cache.insert((src, dst), canonical);
    }

    /// Ensure version `v` has zero-filled storage (lazy allocation,
    /// with memory accounting).
    pub fn ensure_allocated(&mut self, machine: &mut Machine, v: u32) {
        self.allocate_for(machine, v, None);
    }

    /// [`ArrayRt::ensure_allocated`] for the destination of a remap
    /// that replays `claim`: a parked buffer of version `v` is taken
    /// back, zeroed like a fresh one unless the program provably
    /// overwrites every element.
    pub(crate) fn allocate_for(
        &mut self,
        machine: &mut Machine,
        v: u32,
        claim: Option<&CopyProgram>,
    ) {
        if self.copies[v as usize].is_some() {
            return;
        }
        let data = match self.parked.0[v as usize].take() {
            Some(mut data) => {
                let overwritten = claim
                    .is_some_and(|p| p.total_elements * data.elem_size == data.total_bytes());
                if !overwritten {
                    data.clear();
                }
                data
            }
            None => {
                // Only a fresh buffer grows allocated + parked, so
                // dropping the parked ones here keeps that sum under
                // the high-water of `allocated_bytes()` alone.
                self.release_parked();
                VersionData::new(self.mappings[v as usize].clone(), self.elem_size)
            }
        };
        for r in 0..machine.nprocs {
            machine.mem.alloc(r as usize, data.bytes_on(r));
        }
        self.copies[v as usize] = Some(data);
    }

    /// Free version `v`'s storage and clear its live flag: the modeled
    /// memory is billed as freed, the host buffer is parked for the
    /// next allocation of `v`.
    pub fn free_copy(&mut self, machine: &mut Machine, v: u32) {
        if let Some(data) = self.copies[v as usize].take() {
            for r in 0..machine.nprocs {
                machine.mem.free(r as usize, data.bytes_on(r));
            }
            self.parked.0[v as usize] = Some(data);
        }
        self.live[v as usize] = false;
    }

    /// Drop every parked buffer — for callers that know no version will
    /// be re-requested (routine exit).
    pub fn release_parked(&mut self) {
        self.parked.0.fill(None);
    }

    /// Memory-pressure eviction (Sec. 5.2 end): drop a live, non-current
    /// copy — its host storage really goes, nothing is parked; it will
    /// be regenerated with communication if needed later. Returns
    /// whether anything was evicted.
    pub fn evict(&mut self, machine: &mut Machine, v: u32) -> bool {
        if Some(v) == self.status || self.copies[v as usize].is_none() {
            return false;
        }
        self.free_copy(machine, v);
        self.parked.0[v as usize] = None;
        true
    }

    /// Fig. 20, executed: remap to `target`, as a remap statement of
    /// one member.
    ///
    /// * `may_live` — the compiler's `M_A(v)`: copies to keep; all other
    ///   copies are cleaned afterwards.
    /// * `values_dead` — the compiler proved the values need not move
    ///   (`U = D` downstream, or a `KILL` upstream).
    /// * `skip_if_current` — the partial-impact guard: when the current
    ///   status is in it, this execution is unaffected by the directive
    ///   (Fig. 5/6 flow-dependent alignment) and only the liveness
    ///   cleaning runs.
    ///
    /// When the machine carries a [`crate::FaultPlan`] or a validation
    /// level, the data movement runs guarded: a poisoned program is
    /// detected by its fingerprint and recompiled from the cached plan
    /// for that replay, and failed rounds are retried then escalated
    /// (recompile → table engine). Served artifacts are never
    /// rewritten. With neither configured this is exactly the
    /// unguarded allocation-free path.
    ///
    /// **Transactional**: on the guarded path a rollback record is
    /// captured before the replay writes anything, and any terminal
    /// error restores the destination version — status, live flags,
    /// allocation, and bytes — to its exact pre-remap state
    /// (`NetStats::txn_rollbacks`). The unguarded fast path needs no
    /// snapshot: with no faults injected and no validation demanded,
    /// its replay cannot fail after writes begin.
    pub fn try_remap_guarded(
        &mut self,
        machine: &mut Machine,
        target: u32,
        may_live: &BTreeSet<u32>,
        values_dead: bool,
        skip_if_current: &BTreeSet<u32>,
    ) -> Result<(), ExecError> {
        // No group to coalesce in, so the planned source is only
        // nominal: the copy, if any, comes out of the status.
        let src = self.status.unwrap_or(target);
        let member = GroupMember { rt: self, src, target, may_live, skip_if_current };
        crate::group::execute(machine, &mut [member], values_dead, None).map(drop)
    }

    /// The version a remap to `target` would copy out of, given the
    /// array's state right now — `None` when it would move no data
    /// (partial-impact skip, status noop, live-copy reuse, dead values,
    /// first instantiation). That copy must be allocated: this is the
    /// entry check of every member of every remap statement, made
    /// before the target is allocated or anything is billed, so the
    /// error leaves the array and the machine's books untouched.
    pub(crate) fn copy_source(
        &self,
        target: u32,
        values_dead: bool,
        skip_if_current: &BTreeSet<u32>,
    ) -> Result<Option<u32>, ExecError> {
        let moving = |s: &u32| {
            *s != target
                && !values_dead
                && !self.live[target as usize]
                && !skip_if_current.contains(s)
        };
        match self.status.filter(moving) {
            Some(src) if self.copies[src as usize].is_none() => {
                Err(ExecError::MissingCopy { array: self.name.clone(), version: src })
            }
            source => Ok(source),
        }
    }

    /// Settle a remap to `target` that moves no data: the status check
    /// ("the runtime will notice that the array is already mapped as
    /// required just by an inexpensive check of its status"), the
    /// partial-impact skip, live-copy reuse (App. D), dead values
    /// (`KILL`) and first instantiation. Cleaning is the caller's.
    pub(crate) fn settle(
        &mut self,
        machine: &mut Machine,
        target: u32,
        skip_if_current: &BTreeSet<u32>,
    ) {
        if self.status.is_some_and(|c| c == target || skip_if_current.contains(&c)) {
            machine.stats.remaps_skipped_noop += 1;
            return;
        }
        self.allocate_for(machine, target, None);
        if self.live[target as usize] {
            machine.stats.remaps_reused_live += 1;
        } else {
            // With no status at all this is the first instantiation:
            // nothing to copy from.
            if self.status.is_some() {
                machine.stats.remaps_dead_values += 1;
            }
            self.live[target as usize] = true;
        }
        self.status = Some(target);
    }

    /// Cleaning (Fig. 20's tail): free copies that are live but not
    /// worth keeping. The status copy is never cleaned — on
    /// pass-through executions of a partial-impact vertex it differs
    /// from `target` and is still the current data. A remap statement
    /// runs this only after all its members committed: cleaning frees
    /// copies a rollback could not restore.
    pub(crate) fn clean_copies(
        &mut self,
        machine: &mut Machine,
        target: u32,
        may_live: &BTreeSet<u32>,
    ) {
        for v in 0..self.live.len() as u32 {
            if v != target
                && Some(v) != self.status
                && self.live[v as usize]
                && !may_live.contains(&v)
            {
                self.free_copy(machine, v);
            }
        }
    }

    /// The array half of a transactional rollback: paired with the
    /// byte restore in [`crate::store::TxnScratch`], it puts the array
    /// back to the captured pre-remap state — bytes (or the freed
    /// fresh allocation), live flags, and status. Idempotent via the
    /// `captured` flag; a no-op if nothing was captured.
    pub(crate) fn rollback_remap(
        &mut self,
        machine: &mut Machine,
        target: u32,
        snap: &mut crate::store::TxnScratch,
    ) {
        if !snap.captured {
            return;
        }
        if snap.target_preallocated {
            if let Some(dst) = self.copies[target as usize].as_mut() {
                snap.restore_bytes(dst);
            }
        } else {
            // The target copy did not exist before the remap: undo the
            // allocation (and its memory accounting) entirely.
            self.free_copy(machine, target);
        }
        self.live.copy_from_slice(&snap.live);
        self.status = snap.status;
        snap.captured = false;
    }

    /// Fig. 18's restore, executed: remap back to the `saved` status
    /// tag. Semantically a [`ArrayRt::try_remap_guarded`] whose target
    /// is the run-time tag — with the cache seeded from the statically
    /// compiled restore arms, the replay goes straight through the
    /// compiled-program path (the `(current, saved)` pair is a cache
    /// hit), so a restore plans nothing and allocates nothing in steady
    /// state, exactly like a plain cached remap. Every dispatch is
    /// counted in [`crate::NetStats::restores_replayed`], including
    /// ones the status check then skips.
    pub fn try_restore(
        &mut self,
        machine: &mut Machine,
        saved: u32,
        may_live: &BTreeSet<u32>,
        values_dead: bool,
    ) -> Result<(), ExecError> {
        machine.stats.restores_replayed += 1;
        self.try_remap_guarded(machine, saved, may_live, values_dead, &BTreeSet::new())
    }

    /// Current copy for reading, instantiating version `v_default`
    /// lazily if the array was never touched.
    pub fn current(&mut self, machine: &mut Machine, v_default: u32) -> &mut VersionData {
        let v = match self.status {
            Some(v) => v,
            None => {
                self.ensure_allocated(machine, v_default);
                self.live[v_default as usize] = true;
                self.status = Some(v_default);
                v_default
            }
        };
        self.copies[v as usize].as_mut().expect("status copy allocated")
    }

    /// Read one element through the current copy.
    pub fn get(&self, point: &[u64]) -> f64 {
        let v = self.status.expect("read of an array that was never defined");
        self.copies[v as usize].as_ref().expect("status copy allocated").get(point)
    }

    /// Write one element through the current copy. Any other live copy
    /// becomes stale and is invalidated — the defensive counterpart of
    /// the compiler's liveness reasoning (a correct compilation never
    /// reuses a copy this invalidates).
    pub fn set(&mut self, point: &[u64], value: f64) {
        let v = self.status.expect("write to an array with no current version");
        self.copies[v as usize].as_mut().expect("status copy allocated").set(point, value);
        for w in 0..self.live.len() {
            if w as u32 != v {
                self.live[w] = false;
            }
        }
    }

    /// Invalidate all non-status copies (bulk-write entry point used by
    /// the interpreter for whole-array assignments).
    pub fn invalidate_others(&mut self) {
        if let Some(v) = self.status {
            for w in 0..self.live.len() {
                if w as u32 != v {
                    self.live[w] = false;
                }
            }
        }
    }

    /// Allocated bytes across copies (one processor's view is
    /// `bytes / nprocs` only for perfectly balanced mappings; this is
    /// the global figure).
    pub fn allocated_bytes(&self) -> u64 {
        self.copies.iter().flatten().map(|c| c.total_bytes()).sum()
    }
}

/// Version `src` for reading and version `dst` for writing, borrowed
/// from one copies table at once. Both are allocated by the time a
/// replay starts: the source was checked by [`ArrayRt::copy_source`],
/// the target allocated by [`ArrayRt::allocate_for`].
pub(crate) fn version_pair(
    copies: &mut [Option<VersionData>],
    src: u32,
    dst: u32,
) -> (&VersionData, &mut VersionData) {
    let [read, write] = copies
        .get_disjoint_mut([src as usize, dst as usize])
        .expect("a copy moves between two distinct versions of the array");
    (
        read.as_ref().expect("source copy is allocated"),
        write.as_mut().expect("target copy is allocated"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{
        Alignment, DimFormat, Distribution, Extents, GridId, Mapping, ProcGrid, Template,
        TemplateId,
    };

    fn mk(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![fmt]),
        }
        .normalize(&Extents::new(&[n]), &t, &g)
        .unwrap()
    }

    /// A remap that must succeed.
    fn remap(a: &mut ArrayRt, m: &mut Machine, target: u32, may_live: &BTreeSet<u32>, dead: bool) {
        a.try_remap_guarded(m, target, may_live, dead, &BTreeSet::new()).expect("remap");
    }

    fn rt() -> (Machine, ArrayRt) {
        let m = Machine::new(4);
        let a = ArrayRt::new(
            "a",
            vec![
                mk(16, 4, DimFormat::Block(None)),  // 0
                mk(16, 4, DimFormat::Cyclic(None)), // 1
                mk(16, 4, DimFormat::Cyclic(Some(2))), // 2
            ],
            8,
        );
        (m, a)
    }

    #[test]
    fn lazy_instantiation_and_first_remap_moves_no_data() {
        let (mut m, mut a) = rt();
        // First remapping of a never-touched array: allocation only.
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        assert_eq!(a.status, Some(1));
        assert_eq!(m.stats.messages, 0);
        assert_eq!(m.stats.remaps_performed, 0);
    }

    #[test]
    fn remap_moves_data_and_preserves_values() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        assert_eq!(m.stats.remaps_performed, 1);
        assert!(m.stats.bytes > 0);
        // Values survived the remapping.
        for i in 0..16u64 {
            assert_eq!(a.get(&[i]), i as f64);
        }
    }

    #[test]
    fn status_check_skips_noop_remaps() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        let bytes = m.stats.bytes;
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        assert_eq!(m.stats.remaps_skipped_noop, 1);
        assert_eq!(m.stats.bytes, bytes, "no extra traffic");
    }

    #[test]
    fn live_copy_reuse_avoids_communication() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        // Keep version 0 alive across the remapping (M = {0, 1}).
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        remap(&mut a, &mut m, 1, &keep, false);
        let bytes_after_first = m.stats.bytes;
        assert!(a.live[0], "copy 0 kept live");
        // Remap back: version 0 is still live — zero communication.
        remap(&mut a, &mut m, 0, &keep, false);
        assert_eq!(m.stats.remaps_reused_live, 1);
        assert_eq!(m.stats.bytes, bytes_after_first);
        assert_eq!(a.get(&[5]), 5.0);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        remap(&mut a, &mut m, 1, &keep, false);
        // Writing through the current (cyclic) copy kills copy 0.
        a.set(&[3], 99.0);
        assert!(!a.live[0]);
        // Remapping back now needs real communication again.
        remap(&mut a, &mut m, 0, &keep, false);
        assert_eq!(m.stats.remaps_performed, 2);
        assert_eq!(a.get(&[3]), 99.0);
    }

    #[test]
    fn cleaning_frees_copies_outside_may_live() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0);
        // M = {1}: version 0 must be freed by the remapping.
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        assert!(a.copies[0].is_none());
        assert!(!a.live[0]);
        // Memory accounting went down to one copy.
        let one_copy: u64 = a.allocated_bytes();
        assert_eq!(one_copy, 16 * 8);
        // The modeled books are those of a plain free (one 32-byte
        // block per rank now, two at the peak); only the host buffer
        // is kept back.
        assert_eq!(m.mem.current, vec![32; 4]);
        assert_eq!(m.mem.peak, vec![64; 4]);
        assert!(a.parked.0[0].is_some());
    }

    #[test]
    fn parked_storage_is_recycled_zeroed_and_never_cloned() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| 1.0 + p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        let parked_at = a.parked.0[0].as_ref().expect("cleaning parked v0").blocks[0]
            .as_ref()
            .unwrap()
            .data
            .as_ptr();
        // A clone shares nothing with the parked buffers.
        let twin = a.clone();
        assert!(twin.parked.0.iter().all(Option::is_none));
        assert_eq!(twin.allocated_bytes(), a.allocated_bytes());
        // A dead-values remap claims the parked buffer — the very same
        // allocation — and must read zeros, like a fresh one.
        remap(&mut a, &mut m, 0, &[0u32].into_iter().collect(), true);
        let v0 = a.copies[0].as_ref().unwrap();
        assert_eq!(v0.blocks[0].as_ref().unwrap().data.as_ptr(), parked_at);
        assert!(v0.to_dense().iter().all(|&x| x == 0.0));
        assert!(a.parked.0[0].is_none() && a.parked.0[1].is_some());
        // A fresh allocation of a third version releases what is parked:
        // allocated + parked never exceeds what was once allocated alone.
        remap(&mut a, &mut m, 2, &[0u32, 2].into_iter().collect(), false);
        assert!(a.parked.0.iter().all(Option::is_none));
        assert_eq!(m.mem.current, vec![64; 4]);
        assert_eq!(m.mem.peak, vec![64; 4]);
        a.free_copy(&mut m, 0);
        a.release_parked();
        assert!(a.parked.0.iter().all(Option::is_none));
    }

    #[test]
    fn eviction_and_regeneration() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| 2.0 * p[0] as f64);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        remap(&mut a, &mut m, 1, &keep, false);
        // Pressure: drop the live copy 0 — allocated and parked alike.
        assert!(a.evict(&mut m, 0));
        assert!(!a.live[0]);
        assert!(a.copies[0].is_none() && a.parked.0[0].is_none());
        assert_eq!(a.allocated_bytes(), 16 * 8);
        assert_eq!(m.mem.current, vec![32; 4]);
        // Status copy cannot be evicted.
        assert!(!a.evict(&mut m, 1));
        // Going back to 0 regenerates it with communication.
        let performed = m.stats.remaps_performed;
        remap(&mut a, &mut m, 0, &keep, false);
        assert_eq!(m.stats.remaps_performed, performed + 1);
        assert_eq!(a.get(&[7]), 14.0);
        assert_eq!(a.allocated_bytes(), 2 * 16 * 8);
        assert_eq!(m.mem.current, vec![64; 4]);
        assert_eq!(m.mem.peak, vec![64; 4]);
    }

    #[test]
    fn remap_loop_plans_once_per_direction() {
        use hpfc_mapping::testing::mapping_2d;
        let (row, col) = (
            vec![DimFormat::Block(None), DimFormat::Collapsed],
            vec![DimFormat::Collapsed, DimFormat::Block(None)],
        );
        // A 1-D and a 2-D array: one keying, so the books read the same.
        let shapes = [
            (vec![mk(16, 4, DimFormat::Block(None)), mk(16, 4, DimFormat::Cyclic(None))], 1),
            (vec![mapping_2d(8, 4, row), mapping_2d(8, 4, col)], 2),
        ];
        for (mappings, rank) in shapes {
            // An isolated registry: the process-wide one is shared with
            // every other test in this binary, which would make the
            // computed/hit split here nondeterministic.
            let registry = Arc::new(crate::PlanRegistry::new(2, 64));
            let mut m = Machine::new(4).with_registry(Arc::clone(&registry));
            let mut a = ArrayRt::new("a", mappings, 8);
            a.current(&mut m, 0).fill(|p| p[0] as f64);
            let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
            let (p0, p1) = (vec![0; rank], vec![1; rank]);
            for i in 0..10 {
                remap(&mut a, &mut m, 1, &keep, false);
                a.set(&p0, i as f64); // stale the other copy: every remap moves data
                remap(&mut a, &mut m, 0, &keep, false);
                a.set(&p1, i as f64);
            }
            assert_eq!(m.stats.remaps_performed, 20);
            // The loop planned exactly once per direction; all later
            // remaps reused the cached plan + schedule. The two computes
            // registered registry-wide (misses); the local first-level
            // cache answered everything after, so the registry was never
            // consulted again.
            assert_eq!(m.stats.plans_computed, 2);
            assert_eq!(m.stats.plan_cache_hits, 18);
            assert_eq!(m.stats.registry_misses, 2);
            assert_eq!(m.stats.registry_hits, 0);
            assert_eq!(registry.len(), 2);
        }
    }

    #[test]
    fn remap_accounts_caterpillar_schedule() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        // block(4) -> cyclic over 4 procs: all-to-all, 12 messages in 3
        // contention-free rounds; totals match the plan exactly.
        let planned = a.planned(&mut m, 0, 1);
        assert_eq!(m.stats.messages, planned.plan.total_messages());
        assert_eq!(m.stats.bytes, planned.plan.total_bytes());
        assert_eq!(planned.schedule.n_rounds(), 3);
        // Local elements are credited from the schedule.
        assert_eq!(m.stats.local_elements, planned.plan.local_elements);
    }

    #[test]
    fn remap_moves_exactly_the_planned_byte_volume() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        let planned = a.planned(&mut m, 0, 1);
        // The engine wrote exactly the plan's deliveries (local +
        // remote), and the compiled program predicted its run count.
        let expected =
            (planned.plan.local_elements + planned.plan.remote_elements()) * a.elem_size;
        assert_eq!(m.stats.bytes_moved, expected);
        let prog = planned.program.as_ref().expect("1-D plan compiles");
        assert_eq!(m.stats.runs_copied, prog.n_runs());
        assert_eq!(prog.n_elements() * a.elem_size, expected);
        // Merging stats folds the movement counters too.
        let mut folded = crate::NetStats::default();
        folded.merge(&m.stats);
        folded.merge(&m.stats);
        assert_eq!(folded.bytes_moved, 2 * expected);
        assert_eq!(folded.runs_copied, 2 * prog.n_runs());
        assert!(m.stats.summary().contains("moved"));
    }

    #[test]
    fn chained_remaps_with_writes_match_the_oracle() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| (3 * p[0] + 1) as f64);
        let keep: BTreeSet<u32> = [0u32, 1, 2].into_iter().collect();
        remap(&mut a, &mut m, 1, &keep, false);
        a.set(&[2], 9.0);
        remap(&mut a, &mut m, 2, &keep, false);
        a.set(&[3], 11.0);
        remap(&mut a, &mut m, 0, &keep, false);
        let mut want: Vec<f64> = (0..16).map(|i| (3 * i + 1) as f64).collect();
        (want[2], want[3]) = (9.0, 11.0);
        assert_eq!((0..16).map(|i| a.get(&[i])).collect::<Vec<_>>(), want);
    }

    #[test]
    fn planned_remap_shares_one_mapping_pair_between_plan_and_program() {
        // The (src, dst) mapping pair is stored once per cached
        // `PlannedRemap`: the compiled program's `mappings` is the very
        // Arc the plan carries, not a clone — with restore arms
        // multiplying cached entries, this halves the mapping storage
        // per entry. The mappings are unique to this test: pairs are
        // hash-consed process-wide, so a pair another test also plans
        // over would count that test's holders too.
        let mut m = Machine::new(4);
        let mut a = ArrayRt::new(
            "a",
            vec![mk(257, 4, DimFormat::Block(None)), mk(257, 4, DimFormat::Cyclic(Some(7)))],
            8,
        );
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), false);
        let planned = a.planned(&mut m, 0, 1);
        let plan_pair = planned.plan.mappings.as_ref().expect("closed-form plan");
        let prog_pair = &planned.program.as_ref().expect("1-D plan compiles").mappings;
        assert!(Arc::ptr_eq(plan_pair, prog_pair), "pair must be shared, not cloned");
        // Exactly the two holders above (plan + program): neither
        // compiling, nor the interner (weak), nor the registry entry
        // (which holds the `PlannedRemap`, not extra pair clones) left
        // more behind.
        assert_eq!(Arc::strong_count(plan_pair), 2);
    }

    #[test]
    fn plans_over_equal_mappings_intern_one_pair() {
        // Hash-consing: two *independently computed* plans over equal
        // mappings carry pointer-identical pairs, and `strong_count`
        // reflects true sharing (2 plans + 2 programs = 4 holders).
        // Unique extents, for the same reason as above.
        let src = mk(263, 4, DimFormat::Block(None));
        let dst = mk(263, 4, DimFormat::Cyclic(Some(5)));
        let p1 = PlannedRemap::compile(plan_redistribution(&src, &dst, 8));
        let p2 = PlannedRemap::compile(plan_redistribution(&src.clone(), &dst.clone(), 8));
        let pair1 = p1.plan.mappings.as_ref().expect("closed-form plan");
        let pair2 = p2.plan.mappings.as_ref().expect("closed-form plan");
        assert!(Arc::ptr_eq(pair1, pair2), "equal pairs must intern to one Arc");
        assert_eq!(Arc::strong_count(pair1), 4);
        // Seeding those plans into arrays adds PlannedRemap holders,
        // never pair holders.
        let mut a = ArrayRt::new("a", vec![src, dst], 8);
        a.seed_plan(0, 1, Arc::new(p1));
        assert_eq!(Arc::strong_count(a.plan_cache[&(0, 1)].plan.mappings.as_ref().unwrap()), 4);
    }

    #[test]
    fn dead_values_move_no_data() {
        let (mut m, mut a) = rt();
        a.current(&mut m, 0).fill(|p| p[0] as f64);
        remap(&mut a, &mut m, 1, &[1u32].into_iter().collect(), true);
        assert_eq!(m.stats.remaps_dead_values, 1);
        assert_eq!(m.stats.bytes, 0);
        assert_eq!(a.status, Some(1));
    }
}
