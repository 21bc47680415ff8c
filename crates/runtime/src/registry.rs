//! Remap-as-a-service: a sharded, LRU-bounded, runtime-wide registry of
//! compiled remap artifacts.
//!
//! Every [`crate::ArrayRt`] keeps a private plan cache, which is the
//! right *view* but the wrong *owner*: two arrays, two programs, or two
//! interpreter sessions bouncing over the same (src, dst) mapping pair
//! would compile the identical plan → caterpillar schedule →
//! [`crate::CopyProgram`] pipeline twice. The [`PlanRegistry`] owns
//! that pipeline once per distinct pair and serves shared
//! [`Arc<PlannedRemap>`]s to every client; per-array caches become thin
//! first-level views that seed from and publish to it.
//!
//! # One way to get a plan
//!
//! [`PlanRegistry::resolve`] is the only route from a mapping pair to
//! its artifact — lowering and [`crate::ArrayRt::planned`] both call
//! it, and every [`crate::Machine`] has a registry to call it on. It
//! is total for every shape: a shard hit, otherwise compile-under-lock,
//! with a panicking compile contained and the clean recompile
//! published. The [`Outcome`] says which happened, and
//! [`crate::NetStats::bill`] books it. [`PlanRegistry::adopt`]
//! publishes an artifact compiled elsewhere. A registered artifact is
//! never replaced.
//!
//! # Identity, not equality
//!
//! Entries are keyed by **mapping-pair identity** — the one key of
//! every artifact: the pointer of the hash-consed
//! [`hpfc_mapping::intern`] pair (plus the element size, which the plan
//! bakes into its schedule). Each entry's `PlannedRemap` holds a strong
//! reference to its pair, so a key pointer can never dangle or be
//! recycled while the entry lives; when an entry is evicted and the
//! last plan drops, the pair dies with it and a later request
//! re-interns and re-registers from scratch.
//!
//! # Concurrency and eviction
//!
//! The table is sharded by key hash; each shard is a `Mutex` around a
//! small map with LRU stamps. A miss computes the full pipeline
//! *under the shard lock*, so N sessions racing on one cold pair
//! produce exactly one `plans_computed` — the many-session harness
//! pins `plans_computed == distinct pairs`, not `× sessions`. Lookups
//! of a warm entry are allocation-free (stack-hashed key, in-place
//! probe, `Arc` clone out), preserving the zero-allocation cached
//! bounce pinned by the counting-allocator test. Both tables — the
//! shards and the groups — are bounded by the registry's cap through
//! one LRU implementation, so the cap bounds every resident artifact,
//! and every entry it pushes out is counted in
//! [`PlanRegistry::evictions`].
//!
//! # Corruption does not fan out
//!
//! Fingerprinted programs and the recovery ladder are what make a
//! *shared* registry safe: a corrupt program served to any session is
//! detected by its fingerprint and recompiled for that replay only.
//! Served artifacts are immutable — nothing a session does to a replay
//! is written back — so later sessions are handed exactly what was
//! registered.
//!
//! # Neither do panics
//!
//! Shared state must also survive *misbehaving clients*. Two layers:
//!
//! * **Lock-poison recovery** — a thread that panics while holding a
//!   shard `Mutex` poisons it; every lock here recovers via
//!   `into_inner` (counted in
//!   [`lock_recoveries`](PlanRegistry::lock_recoveries)) instead of
//!   `unwrap`-panicking, so one crashed session can never deny service
//!   to the rest of the process. This is sound because shard state is
//!   a map of immutable `Arc`s: a panic mid-update can at worst lose an
//!   insertion, which the next miss recompiles.
//! * **Contained compiles** — the compile-under-lock is wrapped in
//!   `catch_unwind`, so a panicking compile leaves the shard lock
//!   released healthy and [`resolve`](PlanRegistry::resolve) recovers
//!   with a clean compile outside any lock.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use hpfc_mapping::intern::{self, MappingPair};
use hpfc_mapping::NormalizedMapping;

use crate::group::PlannedGroup;
use crate::redist::plan_redistribution;
use crate::status::PlannedRemap;

/// Lock shards of the process-wide registry.
const GLOBAL_SHARDS: usize = 8;
/// Entry cap of the process-wide registry: far beyond any workload in
/// the repo, so eviction only happens under true pressure (tests force
/// it with small private instances).
const GLOBAL_CAP: usize = 4096;

/// What one registry access did — the argument of
/// [`crate::NetStats::bill`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// The artifact was served from the registry (no compilation).
    pub hit: bool,
    /// How many LRU entries this access pushed out.
    pub evicted: u64,
    /// How many poisoned locks this access recovered via `into_inner`.
    pub lock_recoveries: u64,
}

/// Key of one solo entry: the interned pair's pointer (identity) plus
/// the element size the plan was computed for.
type PlanKey = (usize, u64);

/// A map with least-recently-used eviction: the one bounded table
/// behind the solo shards, the groups and each
/// [`crate::SymbolicPlan`]'s instantiation points. A hit is
/// allocation-free.
pub(crate) struct Lru<K, V> {
    map: HashMap<K, (u64, V)>,
    clock: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru { map: HashMap::new(), clock: 0 }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// The value under `key`, marked most recently used.
    pub(crate) fn touch<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let (stamp, value) = self.map.get_mut(key)?;
        *stamp = self.clock;
        Some(value)
    }

    /// Insert (or replace) `key` as most recently used, then drop the
    /// least recently used entries until at most `cap` remain; returns
    /// how many were dropped. The entry just inserted carries the
    /// newest stamp, so it is never the victim.
    pub(crate) fn insert(&mut self, key: K, value: V, cap: usize) -> u64 {
        self.clock += 1;
        self.map.insert(key, (self.clock, value));
        let mut evicted = 0;
        while self.map.len() > cap {
            let victim = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k);
            let victim = victim.expect("a map over its cap is not empty").clone();
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

type Shard = Lru<PlanKey, Arc<PlannedRemap>>;

/// The shared, concurrent, LRU-bounded plan registry. See the module
/// docs for the design; see [`PlanRegistry::shared`] for the
/// process-wide instance every [`crate::Machine`] attaches to by
/// default.
pub struct PlanRegistry {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry cap (total cap divided across shards).
    shard_cap: usize,
    /// Directive-level groups, keyed by the ordered member identities:
    /// one unsharded table (groups are built cold, at lowering, so the
    /// boxed key is off the replay path).
    groups: Mutex<Lru<Box<[PlanKey]>, Arc<PlannedGroup>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRegistry")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl PlanRegistry {
    /// A registry with `shards` lock shards and room for `cap` solo
    /// entries in total (each shard gets at least one slot).
    pub fn new(shards: usize, cap: usize) -> PlanRegistry {
        let shards = shards.max(1);
        let shard_cap = cap.div_ceil(shards).max(1);
        PlanRegistry {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_cap,
            groups: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// The process-wide registry every [`crate::Machine::new`] attaches
    /// to and lowering compiles through, created on first use.
    pub fn shared() -> &'static Arc<PlanRegistry> {
        static SHARED: OnceLock<Arc<PlanRegistry>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(PlanRegistry::new(GLOBAL_SHARDS, GLOBAL_CAP)))
    }

    /// [`PlanRegistry::shared`], always `Some`: the signature the
    /// benchmark harness still matches on.
    pub fn global() -> Option<&'static Arc<PlanRegistry>> {
        Some(Self::shared())
    }

    /// Lock `m`, recovering from poisoning via `into_inner` instead of
    /// propagating the panic. Sound for every lock here: shard state is
    /// maps of immutable `Arc`s plus monotone counters, and the only
    /// panics possible under a lock (compile panics are caught before
    /// they unwind past the guard) leave at worst a missing insertion,
    /// which the next miss recompiles. Returns the recovery count
    /// (0 or 1) for the caller's [`Outcome`].
    fn lock_recover<'a, T>(&self, m: &'a Mutex<T>) -> (MutexGuard<'a, T>, u64) {
        match m.lock() {
            Ok(g) => (g, 0),
            Err(poisoned) => {
                // Clear the flag so one panic is one recovery, not one
                // per access forever after.
                m.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                (poisoned.into_inner(), 1)
            }
        }
    }

    fn shard_of(&self, key: PlanKey) -> &Mutex<Shard> {
        // The key's pointer component is allocation-aligned; mix the
        // low bits away so consecutive allocations spread over shards.
        let mixed = crate::exec::mix64(key.0 as u64 ^ key.1.rotate_left(32));
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// The key of `(src, dst)` at `elem_size`, with the interned pair
    /// whose pointer it holds: the key means that pair only while the
    /// pair (or an entry registered under it) is alive.
    fn key_for(
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (MappingPair, PlanKey) {
        let pair = intern::pair(src, dst);
        let key = (Arc::as_ptr(&pair) as usize, elem_size);
        (pair, key)
    }

    fn key_of(planned: &PlannedRemap) -> Option<PlanKey> {
        let pair = planned.plan.mappings.as_ref()?;
        Some((Arc::as_ptr(pair) as usize, planned.plan.elem_size))
    }

    /// The artifact for `(src, dst)` at `elem_size` — the one route
    /// from a mapping pair to the code that moves it, total for every
    /// shape. A registered artifact (seeded, adopted, or compiled
    /// earlier) is served as-is (a *hit*, allocation-free); otherwise
    /// the whole pipeline compiles once under the pair's shard lock and
    /// is registered (a *miss*): a second session asking for the pair
    /// waits there and then hits. `force_panic` injects
    /// [`crate::FaultKind::CompilePanic`] into that compile. A
    /// panicking compile, injected or real, is contained — the
    /// `catch_unwind` stops it before it unwinds past the guard, so the
    /// shard lock is released healthy and no miss is counted — and
    /// recovered by a clean compile outside any lock, published
    /// registry-wide.
    pub fn resolve(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
        force_panic: bool,
    ) -> (Arc<PlannedRemap>, Outcome) {
        let mut out = Outcome::default();
        // Held across the compile: `plan_redistribution` re-interns the
        // pair — a pure lookup, returning the pointer we key by.
        let (_pair, key) = Self::key_for(src, dst, elem_size);
        let mut shard = match self.lookup(key, &mut out) {
            Ok(planned) => return (planned, out),
            Err(shard) => shard,
        };
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            if force_panic {
                std::panic::panic_any(crate::fault::InjectedPanic);
            }
            Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, elem_size)))
        }));
        let Ok(planned) = compiled else {
            drop(shard);
            let clean = Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, elem_size)));
            self.install(Arc::clone(&clean));
            return (clean, out);
        };
        out.evicted = shard.insert(key, Arc::clone(&planned), self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// [`PlanRegistry::resolve`] without an injected panic: the name
    /// the benchmark harness calls.
    pub fn get_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (Arc<PlannedRemap>, Outcome) {
        self.resolve(src, dst, elem_size, false)
    }

    /// What is served for `key` without compiling: the shard's entry,
    /// touching LRU recency — counted as a hit. On a miss nothing is
    /// counted and the shard comes back still locked, for the caller to
    /// compile under or drop.
    fn lookup(
        &self,
        key: PlanKey,
        out: &mut Outcome,
    ) -> Result<Arc<PlannedRemap>, MutexGuard<'_, Shard>> {
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        out.lock_recoveries += rec;
        let found = match shard.touch(&key) {
            Some(planned) => Arc::clone(planned),
            None => return Err(shard),
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        out.hit = true;
        Ok(found)
    }

    /// Publish an artifact compiled elsewhere (lowering, a seeded
    /// session). If the pair is already registered the **existing**
    /// artifact wins and is returned — callers must adopt the returned
    /// `Arc` as canonical. Plans without a mapping pair (rank-0
    /// degenerate) cannot be keyed and pass through untouched.
    pub fn adopt(&self, planned: Arc<PlannedRemap>) -> (Arc<PlannedRemap>, Outcome) {
        let Some(key) = Self::key_of(&planned) else {
            return (planned, Outcome::default());
        };
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        let mut out = Outcome { lock_recoveries: rec, ..Default::default() };
        if let Some(existing) = shard.touch(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(existing), out);
        }
        out.evicted = shard.insert(key, Arc::clone(&planned), self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// Register `planned` for its pair, replacing whatever is there:
    /// how [`PlanRegistry::resolve`] publishes the clean recompile of a
    /// contained compile panic. Counts neither hit nor miss.
    fn install(&self, planned: Arc<PlannedRemap>) {
        let Some(key) = Self::key_of(&planned) else { return };
        let (mut shard, _) = self.lock_recover(self.shard_of(key));
        let evicted = shard.insert(key, planned, self.shard_cap);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// What the registry serves for `(src, dst)` at `elem_size` without
    /// compiling — the shard's entry. A hit is counted; a miss bills
    /// **nothing**. The benchmark harness's first step; the library
    /// calls [`PlanRegistry::resolve`].
    pub fn probe(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (Option<Arc<PlannedRemap>>, Outcome) {
        let mut out = Outcome::default();
        let (_pair, key) = Self::key_for(src, dst, elem_size);
        let found = self.lookup(key, &mut out).ok();
        (found, out)
    }

    /// Always `None`: the registry keys every artifact by its mapping
    /// pair, and keeps no format-pair (P-free) table to instantiate
    /// from. Kept for the benchmark harness, whose own resolution order
    /// (`probe`, this, then [`PlanRegistry::get_or_compile`]) thereby
    /// falls through to the library's.
    pub fn get_or_instantiate(
        &self,
        _src: &NormalizedMapping,
        _dst: &NormalizedMapping,
        _elem_size: u64,
    ) -> Option<(Arc<PlannedRemap>, Outcome)> {
        None
    }

    /// Always 0: no format-pair entries exist (see
    /// [`PlanRegistry::get_or_instantiate`]). Kept for the benchmark
    /// harness; [`PlanRegistry::len`] counts every artifact.
    pub fn sym_len(&self) -> usize {
        0
    }

    /// Always 0, like [`PlanRegistry::sym_len`].
    pub fn sym_instances(&self) -> usize {
        0
    }

    /// The shared directive-level group artifact for `members` (in
    /// order): served if a group over identical member artifacts is
    /// registered, otherwise compiled and registered. Group identity is
    /// the sequence of member pair identities, so two programs lowering
    /// the same directive share one [`PlannedGroup`]. Members without a
    /// mapping pair make the group unkeyable; it is compiled solo.
    pub fn get_or_compile_group(
        &self,
        members: Vec<Arc<PlannedRemap>>,
    ) -> (Arc<PlannedGroup>, Outcome) {
        let keys: Option<Box<[PlanKey]>> = members.iter().map(|m| Self::key_of(m)).collect();
        let Some(keys) = keys else {
            return (Arc::new(PlannedGroup::compile(members)), Outcome::default());
        };
        let (mut groups, rec) = self.lock_recover(&self.groups);
        let mut out = Outcome { lock_recoveries: rec, ..Default::default() };
        if let Some(planned) = groups.touch(&keys[..]) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(planned), out);
        }
        let planned = Arc::new(PlannedGroup::compile(members));
        // Groups share the per-shard cap: they are few (one per lowered
        // directive shape) and each pins its members' pairs alive.
        out.evicted = groups.insert(keys, Arc::clone(&planned), self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// Registered solo entries across all shards (groups not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_recover(s).0.len()).sum()
    }

    /// Whether no solo entry is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count (solo + group), registry-wide.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (solo + group), registry-wide.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime LRU eviction count, registry-wide (solo entries and
    /// groups).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lifetime poisoned-lock recoveries, registry-wide.
    pub fn lock_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Chaos hook: panic while holding the shard lock that owns
    /// `(src, dst, elem_size)`, poisoning that `Mutex` exactly as a
    /// client panicking mid-critical-section would. Call it under
    /// `catch_unwind` (or on a scratch thread and join the expected
    /// panic); the next access to
    /// the shard recovers via `into_inner` and is counted in
    /// [`PlanRegistry::lock_recoveries`].
    pub fn poison_shard_lock_for_tests(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) {
        let (_pair, key) = Self::key_for(src, dst, elem_size);
        let _guard = self.lock_recover(self.shard_of(key)).0;
        panic!("injected shard-lock poison (test hook)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::testing::mapping_1d;
    use hpfc_mapping::DimFormat;

    // Extents unique to this module so the process-wide interner and
    // registry of the unit-test binary never collide with other tests.
    fn pair_for(n: u64) -> (NormalizedMapping, NormalizedMapping) {
        (mapping_1d(n, 4, DimFormat::Block(None)), mapping_1d(n, 4, DimFormat::Cyclic(Some(2))))
    }

    #[test]
    fn second_request_hits_and_shares_the_artifact() {
        let reg = PlanRegistry::new(2, 64);
        let (src, dst) = pair_for(5003);
        let (p1, o1) = reg.get_or_compile(&src, &dst, 8);
        assert!(!o1.hit);
        let (p2, o2) = reg.get_or_compile(&src, &dst, 8);
        assert!(o2.hit);
        assert!(Arc::ptr_eq(&p1, &p2), "hit must serve the registered Arc");
        // Same pair at a different element size is a distinct artifact.
        let (p3, o3) = reg.get_or_compile(&src, &dst, 4);
        assert!(!o3.hit);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!((reg.hits(), reg.misses(), reg.len()), (1, 2, 2));
    }

    #[test]
    fn adopt_keeps_the_first_publisher() {
        let reg = PlanRegistry::new(1, 64);
        let (src, dst) = pair_for(5009);
        let a = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
        let b = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
        assert!(!Arc::ptr_eq(&a, &b));
        let (ca, oa) = reg.adopt(Arc::clone(&a));
        let (cb, ob) = reg.adopt(Arc::clone(&b));
        assert!(!oa.hit && ob.hit);
        assert!(Arc::ptr_eq(&ca, &a) && Arc::ptr_eq(&cb, &a), "first publisher wins");
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        // One shard, two slots: a third distinct artifact evicts the
        // least recently used one.
        let reg = PlanRegistry::new(1, 2);
        let (s1, d1) = pair_for(5011);
        let (s2, d2) = pair_for(5021);
        let (s3, d3) = pair_for(5023);
        let (p1, _) = reg.get_or_compile(&s1, &d1, 8);
        let (_p2, _) = reg.get_or_compile(&s2, &d2, 8);
        // Touch pair 1 so pair 2 is the LRU victim.
        let (p1b, o) = reg.get_or_compile(&s1, &d1, 8);
        assert!(o.hit && Arc::ptr_eq(&p1, &p1b));
        let (_, o3) = reg.get_or_compile(&s3, &d3, 8);
        assert_eq!(o3.evicted, 1);
        assert_eq!(reg.len(), 2);
        // Pair 1, touched, survived the eviction...
        let (_, o1c) = reg.get_or_compile(&s1, &d1, 8);
        assert!(o1c.hit);
        // ...while pair 2 — the least recently used — did not: asking
        // again recompiles, and that insert evicts once more (pair 3,
        // now the coldest) to stay at cap.
        let (_, o2b) = reg.get_or_compile(&s2, &d2, 8);
        assert!(!o2b.hit);
        assert_eq!(o2b.evicted, 1);
        assert_eq!(reg.evictions(), 2);
        assert_eq!(reg.len(), 2);
    }

    /// A stream of array extents `7000 + i` over one fixed template:
    /// one format pair, a distinct mapping pair per extent.
    fn cyclic3_to_cyclic(i: usize) -> (NormalizedMapping, NormalizedMapping) {
        use hpfc_mapping::{
            Alignment, Distribution, Extents, GridId, Mapping, ProcGrid, Template, TemplateId,
        };
        let n = 7000 + i as u64;
        let at = |fmt: DimFormat| {
            let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[77_777]) };
            let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
            Mapping {
                align: Alignment::identity(TemplateId(0), 1),
                dist: Distribution::new(GridId(0), vec![fmt]),
            }
            .normalize(&Extents::new(&[n]), &t, &g)
            .expect("well-formed")
        };
        (at(DimFormat::Cyclic(Some(3))), at(DimFormat::Cyclic(None)))
    }

    #[test]
    fn symbolic_instances_are_bounded_and_their_evictions_counted() {
        // One format pair, a stream of array extents, each resolved by
        // a fresh array of one session: every extent is its own mapping
        // pair, compiled once, and the cap bounds all of them — no
        // instantiation point lives outside it. The session's books see
        // every eviction the registry counts.
        const CAP: usize = 4;
        let reg = Arc::new(PlanRegistry::new(1, CAP));
        let mut machine = crate::Machine::new(4).with_registry(Arc::clone(&reg));
        let mut planned = |i: usize| {
            let (s, d) = cyclic3_to_cyclic(i);
            crate::ArrayRt::new("a", vec![s, d], 8).planned(&mut machine, 0, 1)
        };
        let first = planned(0);
        for i in 1..3 * CAP {
            planned(i);
            assert!(reg.len() + reg.sym_instances() <= CAP, "after {i}: {reg:?}");
        }
        assert_eq!((reg.len(), reg.sym_len(), reg.sym_instances()), (CAP, 0, 0));
        assert_eq!(reg.evictions(), 2 * CAP as u64);
        // The evicted first pair recompiles to an equal artifact; the
        // Arc handed out before the eviction is untouched.
        let again = planned(0);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first.program, again.program);
        assert_eq!((&first.plan, &first.schedule), (&again.plan, &again.schedule));
        assert!(first.program.as_ref().is_some_and(|p| p.integrity_ok()));
        let stats = machine.stats;
        assert_eq!(stats.registry_evictions, reg.evictions(), "{stats:?}");
        let compiled = 3 * CAP as u64 + 1;
        assert_eq!((stats.registry_misses, stats.plans_computed), (compiled, compiled), "{stats:?}");
    }

    #[test]
    fn resolve_keeps_both_tables_within_the_cap() {
        // Both tables — the shards and the groups — are bounded by the
        // cap through one LRU: a stream of fresh pairs, each also built
        // as a group of one, keeps each table at the cap, and every
        // eviction is billed to the access that caused it.
        const CAP: usize = 4;
        let reg = PlanRegistry::new(1, CAP);
        let groups = || reg.lock_recover(&reg.groups).0.len();
        let mut billed = 0;
        for i in 0..3 * CAP {
            let (s, d) = cyclic3_to_cyclic(i);
            let (member, out) = reg.resolve(&s, &d, 8, false);
            assert!(!out.hit, "a fresh pair: {out:?}");
            billed += out.evicted;
            let (_, out) = reg.get_or_compile_group(vec![member]);
            assert!(!out.hit, "a fresh group: {out:?}");
            billed += out.evicted;
            assert!(reg.len() <= CAP && groups() <= CAP, "after {i}: {reg:?}, {} groups", groups());
        }
        assert_eq!((reg.len(), groups()), (CAP, CAP));
        assert_eq!((reg.evictions(), billed), (4 * CAP as u64, 4 * CAP as u64));
        // Least recently used first: the newest CAP pairs are resident.
        let (s, d) = cyclic3_to_cyclic(3 * CAP - 1);
        assert!(reg.resolve(&s, &d, 8, false).1.hit);
        let (s, d) = cyclic3_to_cyclic(0);
        assert!(!reg.resolve(&s, &d, 8, false).1.hit);
    }

    #[test]
    fn resolve_keys_every_shape_by_its_mapping_pair() {
        use hpfc_mapping::testing::mapping_2d;
        let reg = PlanRegistry::new(2, 64);
        let at = |p| {
            (mapping_1d(5101, p, DimFormat::Cyclic(Some(2))), mapping_1d(5101, p, DimFormat::Cyclic(None)))
        };
        let row = mapping_2d(72, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let col = mapping_2d(72, 4, vec![DimFormat::Collapsed, DimFormat::Block(None)]);
        // A 1-D pair at two processor counts and a 2-D pair: each is a
        // miss, then a hit on the very same Arc. The same formats at
        // another P are another mapping pair, compiled on their own.
        for (src, dst) in [at(4), at(8), (row, col)] {
            let (p, o) = reg.resolve(&src, &dst, 8, false);
            assert_eq!(o, Outcome::default());
            let (q, o) = reg.resolve(&src, &dst, 8, false);
            assert_eq!(o, Outcome { hit: true, ..Outcome::default() });
            assert!(Arc::ptr_eq(&p, &q));
        }
        assert_eq!((reg.len(), reg.hits(), reg.misses()), (3, 3, 3));
    }

    #[test]
    fn install_replaces_registry_wide() {
        let reg = PlanRegistry::new(2, 64);
        let (src, dst) = pair_for(5039);
        let (p1, _) = reg.get_or_compile(&src, &dst, 8);
        let replacement = Arc::new(PlannedRemap::clone(&p1));
        reg.install(Arc::clone(&replacement));
        let (served, o) = reg.get_or_compile(&src, &dst, 8);
        assert!(o.hit);
        assert!(Arc::ptr_eq(&served, &replacement) && !Arc::ptr_eq(&served, &p1));
    }

    #[test]
    fn groups_are_shared_by_member_identity() {
        let reg = PlanRegistry::new(2, 64);
        let (s1, d1) = pair_for(5051);
        let (s2, d2) = pair_for(5059);
        let (m1, _) = reg.get_or_compile(&s1, &d1, 8);
        let (m2, _) = reg.get_or_compile(&s2, &d2, 8);
        let (g1, o1) = reg.get_or_compile_group(vec![Arc::clone(&m1), Arc::clone(&m2)]);
        let (g2, o2) = reg.get_or_compile_group(vec![Arc::clone(&m1), Arc::clone(&m2)]);
        assert!(!o1.hit && o2.hit);
        assert!(Arc::ptr_eq(&g1, &g2));
        // Member order is part of the identity.
        let (g3, o3) = reg.get_or_compile_group(vec![m2, m1]);
        assert!(!o3.hit && !Arc::ptr_eq(&g1, &g3));
    }

    #[test]
    fn poisoned_shard_lock_recovers_and_is_counted() {
        let reg = Arc::new(PlanRegistry::new(1, 64));
        let (src, dst) = pair_for(5077);
        let (p1, _) = reg.get_or_compile(&src, &dst, 8);
        // Poison the (only) shard: a panic unwinding past the guard.
        let joined = catch_unwind(AssertUnwindSafe(|| reg.poison_shard_lock_for_tests(&src, &dst, 8)));
        assert!(joined.is_err(), "the hook must panic while holding the lock");
        // The next access is served — no unwrap panic — and reports the
        // recovery both per-call and registry-wide.
        let (p2, o) = reg.get_or_compile(&src, &dst, 8);
        assert!(o.hit && Arc::ptr_eq(&p1, &p2));
        assert_eq!(o.lock_recoveries, 1);
        assert_eq!(reg.lock_recoveries(), 1);
        // The poison is cleared by the first recovery, not re-counted.
        let (_, o2) = reg.get_or_compile(&src, &dst, 8);
        assert_eq!(o2.lock_recoveries, 0);
    }

    #[test]
    fn contained_compile_panic_declines_without_poisoning() {
        let reg = PlanRegistry::new(1, 64);
        let (src, dst) = pair_for(5081);
        // The injected panic unwinds inside compile-under-lock, is
        // caught there, and the clean recompile is published.
        let (clean, out) = reg.resolve(&src, &dst, 8, true);
        assert_eq!(out, Outcome::default(), "a miss, no lock recovered");
        assert!(clean.program.as_ref().is_some_and(|p| p.integrity_ok()));
        assert_eq!(reg.misses(), 0, "the panicked compile is not a miss; install counts nothing");
        assert_eq!(reg.len(), 1, "published registry-wide");
        // The shard lock survived the panicking compile: the next
        // access is a plain hit on the published artifact.
        let (served, out2) = reg.resolve(&src, &dst, 8, false);
        assert_eq!(out2, Outcome { hit: true, ..Outcome::default() });
        assert!(Arc::ptr_eq(&served, &clean));
        assert_eq!(reg.lock_recoveries(), 0);
    }
}
