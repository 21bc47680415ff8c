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
//! # Identity, not equality
//!
//! Entries are keyed by **mapping-pair identity**: the pointer of the
//! hash-consed [`hpfc_mapping::intern`] pair (plus the element size,
//! which the plan bakes into its schedule). Each entry's
//! `PlannedRemap` holds a strong reference to its pair, so a key
//! pointer can never dangle or be recycled while the entry lives; when
//! an entry is evicted and the last plan drops, the pair dies with it
//! and a later request re-interns and re-registers from scratch.
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
//! bounce pinned by the counting-allocator test.
//!
//! # Corruption does not fan out
//!
//! PR 6's fingerprinted programs and recovery ladder are what make a
//! *shared* registry safe: a poisoned entry served to any session is
//! detected by its fingerprint, recompiled once, and the healthy
//! artifact is re-[`install`](PlanRegistry::install)ed registry-wide —
//! later sessions are never handed the corrupt artifact.
//!
//! # Neither do panics or deterministic failures
//!
//! Shared state must also survive *misbehaving clients*. Three layers:
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
//!   `catch_unwind`, so a panicking compile surfaces as a typed
//!   [`crate::CompileDecline::Panicked`]
//!   ([`try_get_or_compile`](PlanRegistry::try_get_or_compile)) with
//!   the shard lock released healthy.
//! * **Quarantine** — a pair whose artifact keeps failing
//!   fingerprint/recompile repair (a deterministically-bad entry) is
//!   quarantined after [`QUARANTINE_THRESHOLD`] strikes: for a backoff
//!   window of accesses the registry serves a program-stripped artifact
//!   whose replay goes straight to the table engine — no ladder, no
//!   retries — then lets one access probe the normal path again
//!   (doubling the window if it fails again).
//!
//! # Configuration
//!
//! The process-wide instance behind [`PlanRegistry::global`] is
//! configured once from `HPFC_REGISTRY` (see [`RegistryConfig`]):
//! `HPFC_REGISTRY=shards=S,cap=C` sizes it, `HPFC_REGISTRY=off`
//! disables it entirely — every `Machine` then plans solo, the exact
//! pre-registry behavior, kept compilable for A/B runs.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use hpfc_mapping::intern::{self, MappingPair};
use hpfc_mapping::NormalizedMapping;

use crate::group::PlannedGroup;
use crate::redist::plan_redistribution;
use crate::status::PlannedRemap;

/// Sizing and on/off switch for the process-wide registry, parsed once
/// from the `HPFC_REGISTRY` environment variable.
///
/// Accepted forms (comma-separated fragments; unrecognized fragments
/// are ignored — configuration must never crash the engine):
///
/// * `off` / `0` / `disabled` / `none` — no shared registry; every
///   machine plans solo (the pre-registry path, kept for A/B).
/// * `on` — the defaults (8 shards, 4096 entries).
/// * `shards=S,cap=C` — override either or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Whether the process-wide registry exists at all.
    pub enabled: bool,
    /// Shard count (lock granularity); clamped to at least 1.
    pub shards: usize,
    /// Total entry capacity across shards; clamped to at least the
    /// shard count (each shard holds at least one entry).
    pub cap: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        // Generous by default: 4096 (pair, elem_size) entries is far
        // beyond any workload in the repo, so eviction only happens
        // when explicitly forced small (tests) or under true pressure.
        RegistryConfig { enabled: true, shards: 8, cap: 4096 }
    }
}

impl RegistryConfig {
    /// Parse the `HPFC_REGISTRY` syntax. Unset or empty means the
    /// defaults (enabled).
    pub fn parse(s: &str) -> RegistryConfig {
        let mut cfg = RegistryConfig::default();
        match s.trim() {
            "" | "on" | "1" => return cfg,
            "off" | "0" | "disabled" | "none" => {
                cfg.enabled = false;
                return cfg;
            }
            _ => {}
        }
        for frag in s.split(',') {
            let Some((key, value)) = frag.split_once('=') else { continue };
            match (key.trim(), value.trim().parse::<usize>()) {
                ("shards", Ok(n)) => cfg.shards = n.max(1),
                ("cap", Ok(n)) => cfg.cap = n.max(1),
                _ => {}
            }
        }
        cfg
    }

    /// Read `HPFC_REGISTRY` from the process environment.
    pub fn from_env() -> RegistryConfig {
        match std::env::var("HPFC_REGISTRY") {
            Ok(s) => RegistryConfig::parse(&s),
            Err(_) => RegistryConfig::default(),
        }
    }
}

/// What one registry access did, for the caller's [`crate::NetStats`]
/// bookkeeping (`registry_hits` / `registry_misses` /
/// `registry_evictions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryOutcome {
    /// The artifact was served from the registry (no compilation).
    pub hit: bool,
    /// How many LRU entries this access pushed out.
    pub evicted: u64,
    /// How many poisoned locks this access recovered via `into_inner`
    /// (folded into `NetStats::lock_poison_recoveries`).
    pub lock_recoveries: u64,
}

/// Key of one solo entry: the interned pair's pointer (identity) plus
/// the element size the plan was computed for.
type PlanKey = (usize, u64);

/// Key of one symbolic entry: the interned format pair's pointer plus
/// the element size. Each [`SymbolicPlan`] holds its pair strongly, so
/// — exactly as with [`PlanKey`] — the pointer cannot dangle or be
/// recycled while the entry lives.
type SymKey = (usize, u64);

struct Entry {
    planned: Arc<PlannedRemap>,
    /// LRU recency stamp from the owning shard's clock.
    stamp: u64,
}

struct Shard {
    map: HashMap<PlanKey, Entry>,
    clock: u64,
}

struct GroupEntry {
    planned: Arc<PlannedGroup>,
    stamp: u64,
}

/// Group entries are keyed by the ordered member identities — groups
/// are built cold (lowering), so the boxed key allocation is off the
/// replay path.
struct GroupShard {
    map: HashMap<Box<[PlanKey]>, GroupEntry>,
    clock: u64,
}

/// Failed repairs a pair is allowed before it is quarantined.
pub const QUARANTINE_THRESHOLD: u32 = 3;
/// Accesses served the table-engine artifact on first quarantine.
const QUARANTINE_INITIAL_BACKOFF: u32 = 8;
/// Backoff ceiling — the window stops doubling here.
const QUARANTINE_MAX_BACKOFF: u32 = 1024;

/// One deterministically-bad pair under quarantine. While `remaining`
/// is positive, [`PlanRegistry::try_get_or_compile`] serves `stripped`
/// (program-less: the replay goes straight to the table engine) instead
/// of the registered artifact; when the window closes, one access
/// probes the normal path again (probation), and another failed repair
/// re-arms the window doubled.
struct QuarantineEntry {
    /// Pins the keyed pair alive so its pointer identity can never be
    /// recycled onto a different pair while this entry exists.
    _pair: MappingPair,
    /// Failed fingerprint/recompile repairs recorded for this pair.
    failures: u32,
    /// Accesses still to be served the stripped artifact.
    remaining: u32,
    /// Window length to arm on the next quarantine (doubles, capped).
    backoff: u32,
    /// The program-stripped artifact served while quarantined.
    stripped: Option<Arc<PlannedRemap>>,
}

/// The shared, concurrent, LRU-bounded plan registry. See the module
/// docs for the design; see [`PlanRegistry::global`] for the
/// process-wide instance every [`crate::Machine`] attaches to by
/// default.
pub struct PlanRegistry {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry cap (total cap divided across shards).
    shard_cap: usize,
    /// Directive-level groups, one unsharded table (cold path only).
    groups: Mutex<GroupShard>,
    /// Pairs whose artifacts keep failing repair (off the hot path:
    /// only consulted when the quarantine table is non-empty).
    quarantine: Mutex<HashMap<PlanKey, QuarantineEntry>>,
    /// Parametric plans keyed by interned format pair (symbolic
    /// keying). Deliberately unbounded and un-evicted: the table is
    /// O(format pairs) *by design* — that bound is the whole point of
    /// the symbolic layer, and each entry amortizes over every `P` a
    /// job is ever launched on. One lock, not shards: entries are few
    /// and materialization is one-time per instantiation point.
    sym: Mutex<HashMap<SymKey, Arc<crate::symbolic::SymbolicPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
    quarantined: AtomicU64,
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
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
                .collect(),
            shard_cap,
            groups: Mutex::new(GroupShard { map: HashMap::new(), clock: 0 }),
            quarantine: Mutex::new(HashMap::new()),
            sym: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// A registry sized by a [`RegistryConfig`] (the `enabled` flag is
    /// the caller's concern).
    pub fn with_config(cfg: &RegistryConfig) -> PlanRegistry {
        PlanRegistry::new(cfg.shards, cfg.cap)
    }

    /// The process-wide registry, created on first use from
    /// `HPFC_REGISTRY` (read **once** per process). `None` when the
    /// variable disables it — callers then plan solo.
    pub fn global() -> Option<&'static Arc<PlanRegistry>> {
        static GLOBAL: OnceLock<Option<Arc<PlanRegistry>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cfg = RegistryConfig::from_env();
                cfg.enabled.then(|| Arc::new(PlanRegistry::with_config(&cfg)))
            })
            .as_ref()
    }

    /// Lock `m`, recovering from poisoning via `into_inner` instead of
    /// propagating the panic. Sound for every lock here: shard state is
    /// maps of immutable `Arc`s plus monotone counters, and the only
    /// panics possible under a lock (compile panics are caught before
    /// they unwind past the guard) leave at worst a missing insertion,
    /// which the next miss recompiles. Returns the recovery count
    /// (0 or 1) for the caller's [`RegistryOutcome`].
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

    fn key_of(planned: &PlannedRemap) -> Option<PlanKey> {
        let pair = planned.plan.mappings.as_ref()?;
        Some((Arc::as_ptr(pair) as usize, planned.plan.elem_size))
    }

    /// Evict least-recently-used entries until the shard fits its cap;
    /// returns how many were dropped. The entry just touched carries
    /// the newest stamp, so it is never the victim.
    fn evict_over_cap(shard: &mut Shard, cap: usize) -> u64 {
        let mut evicted = 0;
        while shard.map.len() > cap {
            let Some(victim) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k)
            else {
                break;
            };
            shard.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// The shared plan → schedule → program artifact for `(src, dst)`
    /// at `elem_size`: served from the registry when present (a *hit*,
    /// allocation-free), otherwise interned, compiled once under the
    /// shard lock, and registered (a *miss*). Concurrent requests for
    /// the same cold pair serialize on the shard and compile exactly
    /// once.
    pub fn get_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (Arc<PlannedRemap>, RegistryOutcome) {
        match self.lookup_or_compile(src, dst, elem_size, false) {
            (Ok(planned), out) => (planned, out),
            // A genuinely panicking compile: re-raise it *outside* the
            // shard lock, so the registry stays healthy for everyone
            // else even on this legacy infallible-signature path.
            (Err(payload), _) => std::panic::resume_unwind(payload),
        }
    }

    /// [`PlanRegistry::get_or_compile`] with compile panics contained:
    /// a panicking compile (injected via `force_panic`, or real) is
    /// caught by `catch_unwind` *inside* the critical section, so the
    /// shard `Mutex` is released healthy — never poisoned — and the
    /// caller gets a typed [`crate::CompileDecline::Panicked`] to
    /// recover from (clean solo compile, or the table engine). Nothing
    /// is registered and no miss is counted for a declined compile.
    ///
    /// A quarantined pair short-circuits everything: the
    /// program-stripped artifact is served as a *hit* (zero retries,
    /// zero recompiles billed) until its backoff window closes.
    pub fn try_get_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
        force_panic: bool,
    ) -> (Result<Arc<PlannedRemap>, crate::CompileDecline>, RegistryOutcome) {
        let (res, out) = self.lookup_or_compile(src, dst, elem_size, force_panic);
        (res.map_err(|_| crate::CompileDecline::Panicked), out)
    }

    /// Common body of the two lookups; `Err` carries the caught panic
    /// payload (the shard guard is already dropped, unpoisoned).
    #[allow(clippy::type_complexity)]
    fn lookup_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
        force_panic: bool,
    ) -> (Result<Arc<PlannedRemap>, Box<dyn std::any::Any + Send>>, RegistryOutcome) {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let mut out = RegistryOutcome::default();
        // The quarantine table is consulted only once anything was ever
        // quarantined (monotone counter): the common hot path stays a
        // single shard-lock acquisition.
        if self.quarantined.load(Ordering::Relaxed) != 0 {
            if let Some(stripped) = self.quarantine_probe(key, &mut out) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.hit = true;
                return (Ok(stripped), out);
            }
        }
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        out.lock_recoveries += rec;
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Ok(Arc::clone(&e.planned)), out);
        }
        // Compile the whole pipeline under the shard lock: a second
        // session asking for this pair waits here and then hits.
        // (`plan_redistribution` re-interns the pair — a pure lookup,
        // returning the same pointer we key by.) The `catch_unwind`
        // stops a panicking compile before it unwinds past the guard —
        // the lock is never poisoned by a compile.
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            if force_panic {
                std::panic::panic_any(crate::fault::InjectedPanic);
            }
            Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, elem_size)))
        }));
        let planned = match compiled {
            Ok(p) => p,
            Err(payload) => {
                drop(shard);
                return (Err(payload), out);
            }
        };
        shard.map.insert(key, Entry { planned: Arc::clone(&planned), stamp });
        out.evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (Ok(planned), out)
    }

    /// Publish an artifact compiled elsewhere (lowering, a seeded
    /// session). If the pair is already registered the **existing**
    /// artifact wins and is returned — callers must adopt the returned
    /// `Arc` as canonical. Plans without a mapping pair (rank-0
    /// degenerate) cannot be keyed and pass through untouched.
    pub fn adopt(&self, planned: Arc<PlannedRemap>) -> (Arc<PlannedRemap>, RegistryOutcome) {
        let Some(key) = Self::key_of(&planned) else {
            return (planned, RegistryOutcome::default());
        };
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        let mut out = RegistryOutcome { lock_recoveries: rec, ..Default::default() };
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(&e.planned), out);
        }
        shard.map.insert(key, Entry { planned: Arc::clone(&planned), stamp });
        out.evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// Replace the registered artifact for `planned`'s pair —
    /// unconditionally. This is the repair (and fault-injection) hook:
    /// when a session detects a poisoned program and recompiles it, the
    /// healthy artifact is installed registry-wide so no later session
    /// is served the corrupt one. Counts neither hit nor miss.
    pub fn install(&self, planned: Arc<PlannedRemap>) {
        let Some(key) = Self::key_of(&planned) else { return };
        let (mut shard, _) = self.lock_recover(self.shard_of(key));
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, Entry { planned, stamp });
        let evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// The registered artifact for `(src, dst)` at `elem_size`, if any
    /// — a read-only probe (touches LRU recency, counts nothing).
    pub fn get(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> Option<Arc<PlannedRemap>> {
        let pair: MappingPair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let (mut shard, _) = self.lock_recover(self.shard_of(key));
        shard.clock += 1;
        let stamp = shard.clock;
        let e = shard.map.get_mut(&key)?;
        e.stamp = stamp;
        Some(Arc::clone(&e.planned))
    }

    /// A counted probe of the concrete tables for `(src, dst)` at
    /// `elem_size` — the first leg of the symbolic flow. Mirrors
    /// the internal lookup-or-compile serving order exactly: a
    /// quarantined pair short-circuits to its program-stripped artifact
    /// (consuming one backoff-window slot), then the shard is probed,
    /// touching LRU recency. A hit bills the registry-internal hit
    /// counter and sets `out.hit`; a miss bills **nothing** — the
    /// caller decides whether the symbolic table or a concrete compile
    /// resolves it, and that path does the miss accounting.
    pub fn probe(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (Option<Arc<PlannedRemap>>, RegistryOutcome) {
        let pair: MappingPair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let mut out = RegistryOutcome::default();
        if self.quarantined.load(Ordering::Relaxed) != 0 {
            if let Some(stripped) = self.quarantine_probe(key, &mut out) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.hit = true;
                return (Some(stripped), out);
            }
        }
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        out.lock_recoveries += rec;
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Some(Arc::clone(&e.planned)), out);
        }
        (None, out)
    }

    /// The symbolic-keyed artifact for `(src, dst)` at `elem_size`:
    /// both mappings are reduced to their P-free residues
    /// ([`hpfc_mapping::normalize_symbolic`]), the residue pair is
    /// interned, and the per-format-pair [`crate::SymbolicPlan`] — created on
    /// first sight, served ever after — materializes the concrete
    /// artifact at this exact `(p_src, p_dst, extent)` instantiation
    /// point.
    ///
    /// `None` (a *decline*, `NetStats::symbolic_declines`) when either
    /// mapping has no symbolic residue, the extents differ, or the
    /// formats cannot be realized at the requested point; nothing is
    /// billed and nothing is cached — the caller falls back to the
    /// concrete [`PlanRegistry::try_get_or_compile`] path.
    ///
    /// Billing on success mirrors the concrete scheme so compile-once
    /// accounting holds under both keyings: a fresh format pair is a
    /// registry *miss* (the caller additionally bills
    /// `plans_computed`); a known pair is a *hit*, and if this call
    /// materialized a new instantiation point, `out.instantiated` marks
    /// the cheap cross-`P` path (`NetStats::symbolic_instantiations`).
    pub fn get_or_instantiate(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> Option<(Arc<PlannedRemap>, crate::SymbolicOutcome)> {
        let (src_fmt, p_src) = hpfc_mapping::normalize_symbolic(src)?;
        let (dst_fmt, p_dst) = hpfc_mapping::normalize_symbolic(dst)?;
        if src.array_extents != dst.array_extents || src.array_extents.rank() != 1 {
            return None;
        }
        let extent = src.array_extents.extent(0);
        let formats = hpfc_mapping::format_pair(src_fmt, dst_fmt);
        let key: SymKey = (Arc::as_ptr(&formats) as usize, elem_size);
        let mut out = crate::SymbolicOutcome::default();
        let (mut sym, rec) = self.lock_recover(&self.sym);
        out.lock_recoveries += rec;
        let (plan, known) = match sym.get(&key) {
            Some(plan) => (Arc::clone(plan), true),
            None => {
                let plan = Arc::new(crate::SymbolicPlan::new(formats, elem_size));
                sym.insert(key, Arc::clone(&plan));
                (plan, false)
            }
        };
        // Materialize under the table lock: racing sessions instantiate
        // each point exactly once (the instance cache's own lock makes
        // this belt-and-braces, but holding the table lock keeps the
        // hit/miss decision and the artifact atomic).
        let evicted_before = plan.evictions();
        let (planned, fresh) = match plan.instantiate_planned(p_src, p_dst, extent) {
            Some(r) => r,
            None => {
                // Unrealizable point: withdraw a pair entry this call
                // created so a decline leaves no trace.
                if !known {
                    sym.remove(&key);
                }
                return None;
            }
        };
        // Points the plan pushed out to stay within its cap (exact: it
        // only instantiates under the table lock held here).
        self.evictions.fetch_add(plan.evictions() - evicted_before, Ordering::Relaxed);
        drop(sym);
        if known {
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            out.instantiated = fresh;
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Some((planned, out))
    }

    /// Registered symbolic (format-pair) entries — O(format pairs) by
    /// design; compare [`PlanRegistry::len`], which counts concrete
    /// per-mapping-pair entries.
    pub fn sym_len(&self) -> usize {
        self.lock_recover(&self.sym).0.len()
    }

    /// Total concrete instantiation points resident across all symbolic
    /// entries (each is one cached plan → schedule → program; at most
    /// [`crate::symbolic::INSTANCE_CAP`] per entry, evictions counted
    /// in [`PlanRegistry::evictions`]).
    pub fn sym_instances(&self) -> usize {
        self.lock_recover(&self.sym).0.values().map(|p| p.instances()).sum()
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
    ) -> (Arc<PlannedGroup>, RegistryOutcome) {
        let keys: Option<Box<[PlanKey]>> = members.iter().map(|m| Self::key_of(m)).collect();
        let Some(keys) = keys else {
            return (Arc::new(PlannedGroup::compile(members)), RegistryOutcome::default());
        };
        let (mut groups, rec) = self.lock_recover(&self.groups);
        let mut out = RegistryOutcome { lock_recoveries: rec, ..Default::default() };
        groups.clock += 1;
        let stamp = groups.clock;
        if let Some(e) = groups.map.get_mut(&keys[..]) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(&e.planned), out);
        }
        let planned = Arc::new(PlannedGroup::compile(members));
        groups.map.insert(keys, GroupEntry { planned: Arc::clone(&planned), stamp });
        // Groups share the per-shard cap: they are few (one per lowered
        // directive shape) and each pins its members' pairs alive.
        let mut evicted = 0;
        while groups.map.len() > self.shard_cap {
            let Some(victim) =
                groups.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            groups.map.remove(&victim);
            evicted += 1;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        out.evicted = evicted;
        (planned, out)
    }

    /// Registered solo entries across all shards (groups not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_recover(s).0.map.len()).sum()
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

    /// Lifetime LRU eviction count, registry-wide (solo entries, groups
    /// and symbolic instantiation points).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lifetime poisoned-lock recoveries, registry-wide.
    pub fn lock_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Lifetime quarantine events (first arms plus failed probations).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Serve the quarantined artifact for `key` while its backoff
    /// window is open, consuming one window slot. A closed window
    /// (probation) returns `None`: the caller walks the normal path,
    /// and if that fails repair again, [`PlanRegistry::note_repair`]
    /// re-arms the window doubled.
    fn quarantine_probe(&self, key: PlanKey, out: &mut RegistryOutcome) -> Option<Arc<PlannedRemap>> {
        let (mut q, rec) = self.lock_recover(&self.quarantine);
        out.lock_recoveries += rec;
        let e = q.get_mut(&key)?;
        if e.remaining == 0 {
            return None;
        }
        let stripped = e.stripped.as_ref()?;
        e.remaining -= 1;
        Some(Arc::clone(stripped))
    }

    /// Record one failed fingerprint/recompile repair for `planned`'s
    /// pair — called by the remap path whenever a served artifact had
    /// to be healed. At [`QUARANTINE_THRESHOLD`] failures the pair is
    /// quarantined: a program-stripped artifact (table-engine replay,
    /// no ladder) is served for a backoff window of accesses, which
    /// doubles every time a post-window probation fails again. Returns
    /// whether this call (re-)armed a quarantine window.
    pub fn note_repair(&self, planned: &Arc<PlannedRemap>) -> bool {
        let Some(key) = Self::key_of(planned) else { return false };
        let Some(pair) = planned.plan.mappings.clone() else { return false };
        let (mut q, _) = self.lock_recover(&self.quarantine);
        let e = q.entry(key).or_insert_with(|| QuarantineEntry {
            _pair: pair,
            failures: 0,
            remaining: 0,
            backoff: QUARANTINE_INITIAL_BACKOFF,
            stripped: None,
        });
        e.failures += 1;
        if e.failures < QUARANTINE_THRESHOLD || e.remaining > 0 {
            return false;
        }
        // Threshold reached with no open window: arm (or re-arm after a
        // failed probation) the stripped artifact for `backoff`
        // accesses, then double the next window.
        e.stripped = Some(Arc::new(PlannedRemap {
            plan: planned.plan.clone(),
            schedule: planned.schedule.clone(),
            program: None,
        }));
        e.remaining = e.backoff;
        e.backoff = (e.backoff * 2).min(QUARANTINE_MAX_BACKOFF);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Whether `(src, dst, elem_size)` currently has an open quarantine
    /// window (diagnostics and tests).
    pub fn is_quarantined(&self, src: &NormalizedMapping, dst: &NormalizedMapping, elem_size: u64) -> bool {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let (mut q, _) = self.lock_recover(&self.quarantine);
        q.get_mut(&key).is_some_and(|e| e.remaining > 0 && e.stripped.is_some())
    }

    /// Chaos hook: panic while holding the shard lock that owns
    /// `(src, dst, elem_size)`, poisoning that `Mutex` exactly as a
    /// client panicking mid-critical-section would. Call it from a
    /// scratch thread and join the (expected) panic; the next access to
    /// the shard recovers via `into_inner` and is counted in
    /// [`PlanRegistry::lock_recoveries`].
    pub fn poison_shard_lock_for_tests(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
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
    fn parse_accepts_the_documented_forms() {
        assert_eq!(RegistryConfig::parse(""), RegistryConfig::default());
        assert_eq!(RegistryConfig::parse("on"), RegistryConfig::default());
        assert!(!RegistryConfig::parse("off").enabled);
        assert!(!RegistryConfig::parse("0").enabled);
        let cfg = RegistryConfig::parse("shards=2,cap=16");
        assert_eq!((cfg.enabled, cfg.shards, cfg.cap), (true, 2, 16));
        // Tolerant: unknown fragments and garbage values are ignored.
        let cfg = RegistryConfig::parse("shards=3,bogus=1,cap=zzz");
        assert_eq!((cfg.shards, cfg.cap), (3, RegistryConfig::default().cap));
        // Zero sizes are clamped, never panic.
        let cfg = RegistryConfig::parse("shards=0,cap=0");
        assert_eq!((cfg.shards, cfg.cap), (1, 1));
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

    #[test]
    fn symbolic_instances_are_bounded_and_their_evictions_counted() {
        use crate::symbolic::INSTANCE_CAP;
        use hpfc_mapping::{
            Alignment, Distribution, Extents, GridId, Mapping, ProcGrid, Template, TemplateId,
        };
        // One format pair (a fixed template), a stream of array extents.
        let at = |n: u64, fmt: DimFormat| {
            let t =
                Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[77_777]) };
            let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
            Mapping {
                align: Alignment::identity(TemplateId(0), 1),
                dist: Distribution::new(GridId(0), vec![fmt]),
            }
            .normalize(&Extents::new(&[n]), &t, &g)
            .expect("well-formed")
        };
        let pair = |i: usize| {
            let n = 7000 + i as u64;
            (at(n, DimFormat::Cyclic(Some(3))), at(n, DimFormat::Cyclic(None)))
        };
        let reg = PlanRegistry::new(1, 64);
        let (s0, d0) = pair(0);
        let (first, _) = reg.get_or_instantiate(&s0, &d0, 8).expect("symbolic shape");
        for i in 1..10 * INSTANCE_CAP {
            let (s, d) = pair(i);
            reg.get_or_instantiate(&s, &d, 8).expect("symbolic shape");
            assert!(reg.sym_instances() <= INSTANCE_CAP * reg.sym_len());
        }
        assert_eq!((reg.sym_len(), reg.sym_instances()), (1, INSTANCE_CAP));
        assert_eq!(reg.evictions(), (9 * INSTANCE_CAP) as u64);
        // The evicted first point re-instantiates to an equal artifact;
        // the Arc handed out before the eviction is untouched.
        let (again, o) = reg.get_or_instantiate(&s0, &d0, 8).expect("symbolic shape");
        assert!(o.hit && o.instantiated && !Arc::ptr_eq(&first, &again));
        assert_eq!(first.program, again.program);
        assert_eq!((&first.plan, &first.schedule), (&again.plan, &again.schedule));
        assert!(first.program.as_ref().is_some_and(|p| p.integrity_ok()));
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
        // Poison the (only) shard from a scratch thread.
        let r2 = Arc::clone(&reg);
        let (s2, d2) = (src.clone(), dst.clone());
        let joined = std::thread::spawn(move || r2.poison_shard_lock_for_tests(&s2, &d2, 8)).join();
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
        let (res, out) = reg.try_get_or_compile(&src, &dst, 8, true);
        assert_eq!(res.unwrap_err(), crate::CompileDecline::Panicked);
        assert!(!out.hit);
        assert_eq!(reg.misses(), 0, "a declined compile is not a miss");
        assert_eq!(reg.len(), 0, "nothing registered");
        // The shard lock survived the panicking compile: the clean
        // retry compiles and registers normally with zero recoveries.
        let (res2, out2) = reg.try_get_or_compile(&src, &dst, 8, false);
        assert!(res2.is_ok() && !out2.hit && out2.lock_recoveries == 0);
        assert_eq!((reg.misses(), reg.len()), (1, 1));
    }

    #[test]
    fn quarantine_arms_at_threshold_and_serves_stripped_artifacts() {
        let reg = PlanRegistry::new(2, 64);
        let (src, dst) = pair_for(5087);
        let (p, _) = reg.get_or_compile(&src, &dst, 8);
        assert!(p.program.is_some(), "1-D plan compiles");
        // Two failed repairs: below threshold, nothing served stripped.
        assert!(!reg.note_repair(&p));
        assert!(!reg.note_repair(&p));
        assert!(!reg.is_quarantined(&src, &dst, 8));
        // Third strike arms the window.
        assert!(reg.note_repair(&p));
        assert_eq!(reg.quarantined(), 1);
        assert!(reg.is_quarantined(&src, &dst, 8));
        // Every access in the window is a hit serving the program-less
        // artifact (replay goes straight to the table engine).
        for _ in 0..QUARANTINE_INITIAL_BACKOFF {
            let (q, o) = reg.try_get_or_compile(&src, &dst, 8, false);
            let q = q.unwrap();
            assert!(o.hit && q.program.is_none());
            assert_eq!(q.plan.total_messages(), p.plan.total_messages());
        }
        // Window exhausted: probation serves the registered artifact.
        assert!(!reg.is_quarantined(&src, &dst, 8));
        let (probed, o) = reg.try_get_or_compile(&src, &dst, 8, false);
        assert!(o.hit && Arc::ptr_eq(&probed.unwrap(), &p));
        // A failed probation re-arms immediately (threshold already
        // met) with the window doubled.
        assert!(reg.note_repair(&p));
        assert_eq!(reg.quarantined(), 2);
        let mut served = 0;
        while reg.is_quarantined(&src, &dst, 8) {
            let (q, _) = reg.try_get_or_compile(&src, &dst, 8, false);
            assert!(q.unwrap().program.is_none());
            served += 1;
        }
        assert_eq!(served, 2 * QUARANTINE_INITIAL_BACKOFF);
    }
}
