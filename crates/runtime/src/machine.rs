//! The simulated SPMD machine: processors, network cost model, exact
//! traffic accounting, per-processor memory tracking.
//!
//! Accounting is allocation-free in steady state: the per-phase
//! send/receive tallies live in a reusable [`PhaseScratch`] arena on
//! the machine, so costing a cached remap schedule performs no heap
//! allocation (part of the zero-allocation remap path pinned by the
//! runtime's counting-allocator test).

/// Latency/bandwidth network model (per message: `latency_us +
/// bytes / bandwidth_bytes_per_us`), BSP-style per-phase accounting:
/// a communication phase costs the maximum per-processor time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in microseconds.
    pub latency_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bandwidth_bytes_per_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Mid-90s MPP ballpark (e.g. Paragon/SP2 class): ~40 µs latency,
        // ~60 MB/s per link — the regime in which the paper's remapping
        // costs were significant.
        CostModel { latency_us: 40.0, bandwidth_bytes_per_us: 60.0 }
    }
}

impl CostModel {
    /// Time for one message of `bytes`.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 / self.bandwidth_bytes_per_us
    }
}

/// Cumulative traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Payload bytes moved between distinct processors.
    pub bytes: u64,
    /// Elements copied processor-locally (no network).
    pub local_elements: u64,
    /// Simulated elapsed communication time (µs, BSP per-phase max).
    pub time_us: f64,
    /// Remapping operations that actually moved data.
    pub remaps_performed: u64,
    /// Remapping operations skipped by the runtime status check
    /// ("already mapped as required", Sec. 4.3).
    pub remaps_skipped_noop: u64,
    /// Remapping operations satisfied by a live copy (no communication,
    /// App. D reuse).
    pub remaps_reused_live: u64,
    /// Remapping operations whose values were dead (`KILL`): copy
    /// allocated, nothing moved.
    pub remaps_dead_values: u64,
    /// Redistribution plans computed (closed-form planner invocations).
    pub plans_computed: u64,
    /// Redistribution plans served from the per-array cache.
    pub plan_cache_hits: u64,
    /// Payload bytes the copy engine actually wrote into destination
    /// blocks (every delivery counts, including processor-local copies
    /// and destination replicas) — the simulated-memory counterpart of
    /// the wire-level `bytes`. A remap moves exactly
    /// `(local_elements + remote_elements) × elem_size` of these.
    pub bytes_moved: u64,
    /// Contiguous runs the copy engine replayed (`copy_from_slice`
    /// granularity; only engines that track runs contribute).
    pub runs_copied: u64,
    /// Flow-dependent status restores dispatched through a
    /// compile-time-planned arm (Fig. 18): the run time selected the
    /// arm by the saved tag — never planned. Counts every dispatch;
    /// whether data then moves follows the ordinary remap rules (a
    /// status-check noop or live-copy reuse moves nothing, otherwise
    /// the arm's cached copy program is replayed).
    pub restores_replayed: u64,
    /// Directive-level remap groups executed over their merged
    /// caterpillar schedule (≥2 member arrays moved coalesced — each
    /// member still counts in `remaps_performed`; a group whose movers
    /// run as groups of one does not count here).
    pub remap_groups_coalesced: u64,
    /// Faults injected by the configured [`crate::FaultPlan`] (chaos
    /// testing only; zero in production runs).
    pub faults_injected: u64,
    /// Replay rounds retried by the recovery ladder after a detected
    /// fault (rung 1).
    pub rounds_retried: u64,
    /// Copy programs recompiled from their cached plan after a round
    /// could not be healed by retrying, or after a cached program
    /// failed its integrity check (rung 2).
    pub programs_recompiled: u64,
    /// Remaps that fell back to the table engine — either because no
    /// program could be compiled (rank-0 / position-overflow declines)
    /// or because the recovery ladder exhausted the compiled rungs
    /// (rung 3).
    pub fallbacks_to_tables: u64,
    /// Always 0: every remap a machine runs replays serially, so no
    /// round is ever degraded. Kept for readers of the recovery
    /// counters.
    pub parallel_degradations: u64,
    /// Compiled artifacts this machine was served by the shared
    /// [`crate::PlanRegistry`] (a local plan-cache miss answered
    /// without compiling anything).
    pub registry_hits: u64,
    /// Registry lookups by this machine that found no entry — the
    /// artifact was compiled (or published) once, registry-wide.
    pub registry_misses: u64,
    /// LRU entries this machine's registry insertions pushed out.
    pub registry_evictions: u64,
    /// One-member remaps (solo remaps and groups of one) rolled back
    /// all-or-nothing: the recovery ladder surfaced a terminal
    /// [`crate::ExecError`] and the destination version was restored
    /// byte-identical to its pre-remap state.
    pub txn_rollbacks: u64,
    /// Remap groups of two or more members un-committed as a whole:
    /// one member's failure rolled back every member — including
    /// siblings that had already replayed — before the typed error
    /// surfaced.
    pub group_rollbacks: u64,
    /// Always 0: served artifacts are never rewritten, so no pair
    /// accumulates repairs and none is ever quarantined. Kept for
    /// readers of the recovery counters.
    pub quarantined_pairs: u64,
    /// Registry lock acquisitions that recovered a poisoned shard lock
    /// (`Mutex::into_inner` instead of an `unwrap` panic).
    pub lock_poison_recoveries: u64,
}

impl NetStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, o: &NetStats) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.local_elements += o.local_elements;
        self.time_us += o.time_us;
        self.remaps_performed += o.remaps_performed;
        self.remaps_skipped_noop += o.remaps_skipped_noop;
        self.remaps_reused_live += o.remaps_reused_live;
        self.remaps_dead_values += o.remaps_dead_values;
        self.plans_computed += o.plans_computed;
        self.plan_cache_hits += o.plan_cache_hits;
        self.bytes_moved += o.bytes_moved;
        self.runs_copied += o.runs_copied;
        self.restores_replayed += o.restores_replayed;
        self.remap_groups_coalesced += o.remap_groups_coalesced;
        self.faults_injected += o.faults_injected;
        self.rounds_retried += o.rounds_retried;
        self.programs_recompiled += o.programs_recompiled;
        self.fallbacks_to_tables += o.fallbacks_to_tables;
        self.parallel_degradations += o.parallel_degradations;
        self.registry_hits += o.registry_hits;
        self.registry_misses += o.registry_misses;
        self.registry_evictions += o.registry_evictions;
        self.txn_rollbacks += o.txn_rollbacks;
        self.group_rollbacks += o.group_rollbacks;
        self.quarantined_pairs += o.quarantined_pairs;
        self.lock_poison_recoveries += o.lock_poison_recoveries;
    }

    /// Book one [`crate::PlanRegistry`] access: a hit or a miss, and
    /// what it evicted and recovered. (A miss that compiled is also a
    /// `plans_computed`; one that only published —
    /// [`crate::PlanRegistry::adopt`] — is not, so the caller adds
    /// that.)
    pub fn bill(&mut self, o: &crate::registry::Outcome) {
        if o.hit {
            self.registry_hits += 1;
        } else {
            self.registry_misses += 1;
        }
        self.registry_evictions += o.evicted;
        self.lock_poison_recoveries += o.lock_recoveries;
    }

    /// One-line human-readable digest (experiment drivers, examples).
    /// The registry segment (`registry ...`) and recovery tail
    /// (`faults ... degraded ...`) are appended only when something
    /// actually fired, so solo fault-free runs read as before.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "msgs {} | wire {} B | moved {} B in {} runs | local els {} | time {:.1} µs | \
             remaps {} (noop {}, live {}, dead {}) | restores {} | groups {} | \
             plans {} (+{} cache hits)",
            self.messages,
            self.bytes,
            self.bytes_moved,
            self.runs_copied,
            self.local_elements,
            self.time_us,
            self.remaps_performed,
            self.remaps_skipped_noop,
            self.remaps_reused_live,
            self.remaps_dead_values,
            self.restores_replayed,
            self.remap_groups_coalesced,
            self.plans_computed,
            self.plan_cache_hits,
        );
        let registry = self.registry_hits + self.registry_misses + self.registry_evictions;
        if registry > 0 {
            s.push_str(&format!(
                " | registry {} hits / {} misses / {} evicted",
                self.registry_hits, self.registry_misses, self.registry_evictions,
            ));
        }
        let recovery = self.faults_injected
            + self.rounds_retried
            + self.programs_recompiled
            + self.fallbacks_to_tables
            + self.parallel_degradations;
        if recovery > 0 {
            s.push_str(&format!(
                " | faults {} (retried {}, recompiled {}, tables {}, degraded {})",
                self.faults_injected,
                self.rounds_retried,
                self.programs_recompiled,
                self.fallbacks_to_tables,
                self.parallel_degradations,
            ));
        }
        let txn = self.txn_rollbacks
            + self.group_rollbacks
            + self.quarantined_pairs
            + self.lock_poison_recoveries;
        if txn > 0 {
            s.push_str(&format!(
                " | txn rolled back {} solo / {} group, quarantined {}, locks recovered {}",
                self.txn_rollbacks,
                self.group_rollbacks,
                self.quarantined_pairs,
                self.lock_poison_recoveries,
            ));
        }
        s
    }
}

/// Reusable per-phase tallies for [`Machine::account_phase`] — grown
/// once to the processor count, then zero-filled per phase instead of
/// reallocated.
#[derive(Debug, Clone, Default)]
pub struct PhaseScratch {
    send_bytes: Vec<u64>,
    recv_bytes: Vec<u64>,
    send_msgs: Vec<u64>,
    recv_msgs: Vec<u64>,
}

impl PhaseScratch {
    fn reset(&mut self, n: usize) {
        for v in [&mut self.send_bytes, &mut self.recv_bytes, &mut self.send_msgs, &mut self.recv_msgs]
        {
            v.resize(n, 0);
            v[..n].fill(0);
        }
    }
}

/// Per-processor memory accounting.
#[derive(Debug, Clone, Default)]
pub struct MemTracker {
    /// Currently allocated bytes per processor.
    pub current: Vec<u64>,
    /// High-water mark per processor.
    pub peak: Vec<u64>,
}

impl MemTracker {
    fn ensure(&mut self, nprocs: usize) {
        if self.current.len() < nprocs {
            self.current.resize(nprocs, 0);
            self.peak.resize(nprocs, 0);
        }
    }

    /// Record an allocation of `bytes` on processor `p`.
    pub fn alloc(&mut self, p: usize, bytes: u64) {
        self.ensure(p + 1);
        self.current[p] += bytes;
        if self.current[p] > self.peak[p] {
            self.peak[p] = self.current[p];
        }
    }

    /// Record a free of `bytes` on processor `p`.
    pub fn free(&mut self, p: usize, bytes: u64) {
        self.ensure(p + 1);
        self.current[p] = self.current[p].saturating_sub(bytes);
    }

    /// Largest per-processor peak.
    pub fn max_peak(&self) -> u64 {
        self.peak.iter().copied().max().unwrap_or(0)
    }
}

/// The simulated machine. Grids of different shapes share the same
/// physical processors (ranks are row-major grid positions, as in HPF
/// implementations mapping all `PROCESSORS` arrangements onto one
/// partition).
#[derive(Debug, Clone)]
pub struct Machine {
    /// Number of physical processors (max over the grids in use).
    pub nprocs: u64,
    /// Network model.
    pub cost: CostModel,
    /// Cumulative statistics.
    pub stats: NetStats,
    /// Memory accounting.
    pub mem: MemTracker,
    /// Deterministic fault injection for chaos testing
    /// ([`Machine::with_faults`]); `None` unless a caller asks.
    pub faults: Option<crate::fault::FaultPlan>,
    /// How much the guarded replay verifies per round
    /// ([`Machine::with_validation`]; off by default). With
    /// faults unset and validation [`crate::ValidationLevel::Off`], the
    /// remap path is the unguarded allocation-free fast path.
    pub validation: crate::fault::ValidationLevel,
    /// The plan registry this machine resolves local plan-cache misses
    /// through and publishes to: the process-wide instance
    /// ([`crate::PlanRegistry::shared`]) unless
    /// [`Machine::with_registry`] hands it a private one.
    pub registry: std::sync::Arc<crate::registry::PlanRegistry>,
    /// Reusable per-phase accounting buffers.
    scratch: PhaseScratch,
    /// Reusable per-member rollback records of a remap statement
    /// (capacity persists across remaps, keeping the armed snapshot
    /// allocation-free).
    pub(crate) txn_scratch: Vec<crate::store::TxnScratch>,
    /// Monotonic counter handed to the fault plan: one epoch per
    /// data-moving remap, making injection deterministic per operation.
    fault_epoch: u64,
}

impl Machine {
    /// A machine with `nprocs` processors and the default cost model.
    pub fn new(nprocs: u64) -> Self {
        Machine {
            nprocs,
            cost: CostModel::default(),
            stats: NetStats::default(),
            mem: MemTracker::default(),
            faults: None,
            validation: crate::fault::ValidationLevel::Off,
            registry: std::sync::Arc::clone(crate::registry::PlanRegistry::shared()),
            scratch: PhaseScratch::default(),
            txn_scratch: Vec::new(),
            fault_epoch: 0,
        }
    }

    /// A machine with a custom cost model.
    pub fn with_cost(nprocs: u64, cost: CostModel) -> Self {
        Machine { cost, ..Machine::new(nprocs) }
    }

    /// Builder-style fault-injection plan (chaos testing).
    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builder-style validation level for the guarded replay.
    pub fn with_validation(mut self, level: crate::fault::ValidationLevel) -> Self {
        self.validation = level;
        self
    }

    /// Builder-style plan registry — sessions handed the same `Arc`
    /// share compiled artifacts. Tests and embedders use private
    /// instances so their hit/miss/eviction counters are exact.
    pub fn with_registry(
        mut self,
        registry: std::sync::Arc<crate::registry::PlanRegistry>,
    ) -> Self {
        self.registry = registry;
        self
    }

    /// Whether remaps run guarded: a fault plan or a validation level
    /// puts every data-moving replay behind the recovery ladder and a
    /// transactional rollback record. Otherwise a replay cannot fail
    /// after its writes begin, and the remap path is the unguarded
    /// allocation-free one.
    pub(crate) fn guarded(&self) -> bool {
        self.faults.is_some() || self.validation != crate::fault::ValidationLevel::Off
    }

    /// The next fault epoch — bumped once per data-moving remap so the
    /// stateless [`crate::FaultPlan`] decides deterministically per
    /// operation.
    pub(crate) fn next_fault_epoch(&mut self) -> u64 {
        let e = self.fault_epoch;
        self.fault_epoch += 1;
        e
    }

    /// Account one communication phase given per-(sender, receiver)
    /// transfer sizes; returns the phase time.
    ///
    /// BSP-style: every processor sends/receives its messages
    /// concurrently; the phase costs the maximum per-processor time.
    /// Takes any `(from, to, bytes)` stream (e.g.
    /// [`crate::RedistPlan::phase_triples`]) so callers never
    /// materialize a triple vector.
    pub fn account_phase(
        &mut self,
        transfers: impl IntoIterator<Item = (u64, u64, u64)>,
    ) -> f64 {
        // (from, to, bytes); from == to entries are local copies. The
        // tallies live in the machine's scratch arena: steady-state
        // schedule accounting allocates nothing.
        let n = self.nprocs as usize;
        self.scratch.reset(n);
        for (from, to, bytes) in transfers {
            if from == to {
                self.stats.local_elements += bytes / 8;
                continue;
            }
            self.stats.messages += 1;
            self.stats.bytes += bytes;
            self.scratch.send_bytes[from as usize] += bytes;
            self.scratch.recv_bytes[to as usize] += bytes;
            self.scratch.send_msgs[from as usize] += 1;
            self.scratch.recv_msgs[to as usize] += 1;
        }
        let mut phase = 0.0f64;
        for p in 0..n {
            let t = self.cost.latency_us
                * (self.scratch.send_msgs[p] + self.scratch.recv_msgs[p]) as f64
                + (self.scratch.send_bytes[p] + self.scratch.recv_bytes[p]) as f64
                    / self.cost.bandwidth_bytes_per_us;
            phase = phase.max(t);
        }
        self.stats.time_us += phase;
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting_takes_per_proc_max() {
        let mut m = Machine::with_cost(4, CostModel { latency_us: 10.0, bandwidth_bytes_per_us: 100.0 });
        // p0 sends 1000B to p1 and p2; p3 idle.
        let t = m.account_phase([(0, 1, 1000), (0, 2, 1000)]);
        // p0: 2 msgs * 10 + 2000/100 = 40. p1: 10 + 10 = 20.
        assert!((t - 40.0).abs() < 1e-9);
        assert_eq!(m.stats.messages, 2);
        assert_eq!(m.stats.bytes, 2000);
    }

    #[test]
    fn local_transfers_cost_nothing() {
        let mut m = Machine::new(2);
        let t = m.account_phase([(1, 1, 800)]);
        assert_eq!(t, 0.0);
        assert_eq!(m.stats.messages, 0);
        assert_eq!(m.stats.local_elements, 100);
    }

    #[test]
    fn memory_peak_tracking() {
        let mut mt = MemTracker::default();
        mt.alloc(0, 100);
        mt.alloc(0, 50);
        mt.free(0, 120);
        mt.alloc(1, 10);
        assert_eq!(mt.current[0], 30);
        assert_eq!(mt.peak[0], 150);
        assert_eq!(mt.max_peak(), 150);
    }

    #[test]
    fn stats_merge() {
        let mut a = NetStats { messages: 1, bytes: 10, ..Default::default() };
        let b = NetStats { messages: 2, bytes: 5, time_us: 1.0, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 15);
        assert!((a.time_us - 1.0).abs() < 1e-12);
    }

    /// Every counter set, no `..Default::default()` anywhere: adding a
    /// `NetStats` field without wiring it through `merge()` (and this
    /// test) fails to compile here, and a field `merge()` silently
    /// drops fails the per-field assertions — the way `faults_injected`
    /// and friends could once have been lost.
    #[test]
    fn stats_merge_and_summary_carry_every_field() {
        let mk = |base: u64| NetStats {
            messages: base + 1,
            bytes: base + 2,
            local_elements: base + 3,
            time_us: base as f64 + 0.5,
            remaps_performed: base + 4,
            remaps_skipped_noop: base + 5,
            remaps_reused_live: base + 6,
            remaps_dead_values: base + 7,
            plans_computed: base + 8,
            plan_cache_hits: base + 9,
            bytes_moved: base + 10,
            runs_copied: base + 11,
            restores_replayed: base + 12,
            remap_groups_coalesced: base + 13,
            faults_injected: base + 14,
            rounds_retried: base + 15,
            programs_recompiled: base + 16,
            fallbacks_to_tables: base + 17,
            parallel_degradations: base + 18,
            registry_hits: base + 19,
            registry_misses: base + 20,
            registry_evictions: base + 21,
            txn_rollbacks: base + 22,
            group_rollbacks: base + 23,
            quarantined_pairs: base + 24,
            lock_poison_recoveries: base + 25,
        };
        let mut merged = mk(100);
        merged.merge(&mk(1000));
        // Exhaustive destructuring — a new field breaks this pattern
        // until it is added (and to merge(), or the sum check fails).
        let NetStats {
            messages,
            bytes,
            local_elements,
            time_us,
            remaps_performed,
            remaps_skipped_noop,
            remaps_reused_live,
            remaps_dead_values,
            plans_computed,
            plan_cache_hits,
            bytes_moved,
            runs_copied,
            restores_replayed,
            remap_groups_coalesced,
            faults_injected,
            rounds_retried,
            programs_recompiled,
            fallbacks_to_tables,
            parallel_degradations,
            registry_hits,
            registry_misses,
            registry_evictions,
            txn_rollbacks,
            group_rollbacks,
            quarantined_pairs,
            lock_poison_recoveries,
        } = merged;
        assert_eq!(messages, 101 + 1001);
        assert_eq!(bytes, 102 + 1002);
        assert_eq!(local_elements, 103 + 1003);
        assert!((time_us - (100.5 + 1000.5)).abs() < 1e-12);
        assert_eq!(remaps_performed, 104 + 1004);
        assert_eq!(remaps_skipped_noop, 105 + 1005);
        assert_eq!(remaps_reused_live, 106 + 1006);
        assert_eq!(remaps_dead_values, 107 + 1007);
        assert_eq!(plans_computed, 108 + 1008);
        assert_eq!(plan_cache_hits, 109 + 1009);
        assert_eq!(bytes_moved, 110 + 1010);
        assert_eq!(runs_copied, 111 + 1011);
        assert_eq!(restores_replayed, 112 + 1012);
        assert_eq!(remap_groups_coalesced, 113 + 1013);
        assert_eq!(faults_injected, 114 + 1014);
        assert_eq!(rounds_retried, 115 + 1015);
        assert_eq!(programs_recompiled, 116 + 1016);
        assert_eq!(fallbacks_to_tables, 117 + 1017);
        assert_eq!(parallel_degradations, 118 + 1018);
        assert_eq!(registry_hits, 119 + 1019);
        assert_eq!(registry_misses, 120 + 1020);
        assert_eq!(registry_evictions, 121 + 1021);
        assert_eq!(txn_rollbacks, 122 + 1022);
        assert_eq!(group_rollbacks, 123 + 1023);
        assert_eq!(quarantined_pairs, 124 + 1024);
        assert_eq!(lock_poison_recoveries, 125 + 1025);
        // With every counter nonzero, all conditional summary segments
        // print, and every u64 counter's value appears verbatim —
        // summary() cannot silently omit a field either.
        let s = mk(200).summary();
        for v in 201..=225u64 {
            assert!(s.contains(&v.to_string()), "summary misses {v}: {s}");
        }
        assert!(s.contains("200.5"), "summary misses time_us: {s}");
    }
}
