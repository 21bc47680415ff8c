//! Symbolic plans: a `(format, format)` pair with the processor count
//! left free, instantiated at any `P`.
//!
//! A [`SymbolicPlan`] pins the P-free residue of a mapping pair (two
//! [`hpfc_mapping::SymbolicFormat`]s, hash-consed into one
//! [`FormatPair`]); [`SymbolicPlan::instantiate_planned`] rebuilds both
//! concrete mappings in closed form at `(p_src, p_dst, extent)` and
//! runs the ordinary pipeline (plan → caterpillar schedule →
//! [`crate::CopyProgram`]) there, caching the result per point. The
//! rebuilt mappings are *exactly* the directly normalized ones (the
//! symbolic normalizer round-trips before admitting a format), so every
//! artifact is byte-for-byte a direct compile — pinned by
//! `tests/proptest_symbolic.rs`.
//!
//! Instantiating is a full compile, so it buys nothing over compiling
//! the concrete pair: the [`crate::PlanRegistry`] keys every artifact by
//! its interned mapping pair and never consults this module.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hpfc_mapping::symbolic::FormatPair;
use hpfc_mapping::Extents;

use crate::redist::{plan_redistribution, RedistPlan};
use crate::registry::Lru;
use crate::status::PlannedRemap;

/// Most instantiation points one [`SymbolicPlan`] keeps resident: each
/// costs a plan, a schedule and a program, so a long stream of distinct
/// extents must not keep every one forever.
pub const INSTANCE_CAP: usize = 64;

/// The instance cache: artifacts by instantiation point
/// `(p_src, p_dst, extent)`.
type Instances = Lru<(u64, u64, u64), Arc<PlannedRemap>>;

/// A parametric remap plan: a `(format, format)` pair with `P` left
/// free, plus the cache of concrete artifacts it has been instantiated
/// to: one `SymbolicPlan` serves every processor count of a family.
pub struct SymbolicPlan {
    /// The interned P-free formats (source, destination).
    formats: FormatPair,
    /// Element size the artifacts are compiled for.
    elem_size: u64,
    /// At most [`INSTANCE_CAP`] concrete artifacts, least recently used
    /// evicted first. Materialization happens under this lock, so
    /// racing sessions instantiate each point exactly once.
    instances: Mutex<Instances>,
    /// Points evicted over the plan's lifetime.
    evictions: AtomicU64,
}

impl std::fmt::Debug for SymbolicPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicPlan")
            .field("formats", &self.formats)
            .field("elem_size", &self.elem_size)
            .field("instances", &self.instances())
            .finish()
    }
}

impl SymbolicPlan {
    /// A parametric plan over `formats` at `elem_size`, with no
    /// instantiations yet.
    pub fn new(formats: FormatPair, elem_size: u64) -> SymbolicPlan {
        SymbolicPlan {
            formats,
            elem_size,
            instances: Mutex::default(),
            evictions: AtomicU64::new(0),
        }
    }

    /// The interned format pair this plan is parametric over.
    pub fn formats(&self) -> &FormatPair {
        &self.formats
    }

    /// Element size the plan's artifacts are compiled for.
    pub fn elem_size(&self) -> u64 {
        self.elem_size
    }

    /// Concrete instantiation points currently resident (at most
    /// [`INSTANCE_CAP`]).
    pub fn instances(&self) -> usize {
        self.lock().len()
    }

    /// Instantiation points evicted to stay within [`INSTANCE_CAP`],
    /// over the plan's lifetime. Holders of an evicted artifact's `Arc`
    /// keep it; the point re-instantiates on its next request.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lock the instance cache, recovering a poisoned lock (state is a
    /// map of immutable `Arc`s — a lost insertion re-materializes).
    fn lock(&self) -> MutexGuard<'_, Instances> {
        match self.instances.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.instances.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Materialize the concrete [`RedistPlan`] at `(p_src, p_dst,
    /// extent)`. `None` when either format cannot be realized there
    /// (fewer than two processors, alignment image out of bounds, or a
    /// placement that degenerates to a single owner at that `P`).
    pub fn instantiate(&self, p_src: u64, p_dst: u64, extent: u64) -> Option<RedistPlan> {
        self.instantiate_planned(p_src, p_dst, extent).map(|(p, _)| p.plan.clone())
    }

    /// The full cached artifact (plan → schedule → program) at
    /// `(p_src, p_dst, extent)`; the `bool` reports whether this call
    /// materialized it (`false`: served from the instance cache,
    /// allocation-free). Artifacts are byte-identical to direct
    /// compilation: the rebuilt mappings equal the directly normalized
    /// ones, hash-cons to the same interned pair, and feed the same
    /// deterministic pipeline.
    pub fn instantiate_planned(
        &self,
        p_src: u64,
        p_dst: u64,
        extent: u64,
    ) -> Option<(Arc<PlannedRemap>, bool)> {
        let key = (p_src, p_dst, extent);
        let mut cache = self.lock();
        if let Some(planned) = cache.touch(&key) {
            return Some((Arc::clone(planned), false));
        }
        let shape = Extents::new(&[extent]);
        let src = self.formats.0.instantiate(p_src, &shape)?;
        let dst = self.formats.1.instantiate(p_dst, &shape)?;
        let planned =
            Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, self.elem_size)));
        let evicted = cache.insert(key, Arc::clone(&planned), INSTANCE_CAP);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Some((planned, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::testing::mapping_1d;
    use hpfc_mapping::{format_pair, normalize_symbolic, DimFormat};

    fn plan_for(n: u64, p: u64) -> (SymbolicPlan, u64, u64) {
        let src = mapping_1d(n, p, DimFormat::Cyclic(Some(3)));
        let dst = mapping_1d(n, p, DimFormat::Cyclic(None));
        let (fs, ps) = normalize_symbolic(&src).unwrap();
        let (fd, pd) = normalize_symbolic(&dst).unwrap();
        (SymbolicPlan::new(format_pair(fs, fd), 8), ps, pd)
    }

    #[test]
    fn instantiation_equals_direct_compilation() {
        let n = 2016;
        let (sym, _, _) = plan_for(n, 4);
        for p in [2u64, 3, 7, 8, 16, 64] {
            let direct = PlannedRemap::compile(plan_redistribution(
                &mapping_1d(n, p, DimFormat::Cyclic(Some(3))),
                &mapping_1d(n, p, DimFormat::Cyclic(None)),
                8,
            ));
            let (inst, fresh) = sym.instantiate_planned(p, p, n).unwrap();
            assert!(fresh);
            assert_eq!(inst.plan, direct.plan, "plan differs at P={p}");
            assert_eq!(inst.schedule, direct.schedule, "schedule differs at P={p}");
            assert_eq!(inst.program, direct.program, "program differs at P={p}");
        }
        assert_eq!(sym.instances(), 6);
    }

    #[test]
    fn instantiation_points_cache_one_artifact() {
        let (sym, ps, pd) = plan_for(1024, 4);
        let (a, fresh_a) = sym.instantiate_planned(ps, pd, 1024).unwrap();
        let (b, fresh_b) = sym.instantiate_planned(ps, pd, 1024).unwrap();
        assert!(fresh_a && !fresh_b);
        assert!(Arc::ptr_eq(&a, &b), "cached instantiation must share the Arc");
        assert_eq!(sym.instances(), 1);
        // The ISSUE-shaped plan accessor serves the same cached point.
        let plan = sym.instantiate(ps, pd, 1024).unwrap();
        assert_eq!(plan, a.plan);
    }

    #[test]
    fn instance_cache_is_bounded_and_evicts_least_recently_used() {
        let (sym, ps, pd) = plan_for(1 << 20, 4);
        let extent = |i: usize| 1024 + 3 * i as u64;
        let (first, _) = sym.instantiate_planned(ps, pd, extent(0)).unwrap();
        for i in 1..10 * INSTANCE_CAP {
            // Point 1 is touched throughout, so it is never the victim.
            sym.instantiate_planned(ps, pd, extent(1)).unwrap();
            assert!(sym.instantiate_planned(ps, pd, extent(i)).unwrap().1 || i == 1);
            assert!(sym.instances() <= INSTANCE_CAP);
        }
        assert_eq!(sym.instances(), INSTANCE_CAP);
        assert_eq!(sym.evictions(), (9 * INSTANCE_CAP) as u64);
        assert!(!sym.instantiate_planned(ps, pd, extent(1)).unwrap().1, "kept by its use");
        // The evicted point rebuilds to an equal artifact; the old Arc
        // was its holder's all along.
        let (again, fresh) = sym.instantiate_planned(ps, pd, extent(0)).unwrap();
        assert!(fresh && !Arc::ptr_eq(&first, &again));
        assert_eq!((&first.plan, &first.schedule), (&again.plan, &again.schedule));
        assert_eq!(first.program, again.program);
        assert!(first.program.as_ref().is_some_and(|p| p.integrity_ok()));
    }

    #[test]
    fn unrealizable_points_decline() {
        let (sym, _, _) = plan_for(1024, 4);
        assert!(sym.instantiate_planned(1, 4, 1024).is_none(), "P=1 is never symbolic");
        assert!(sym.instantiate_planned(4, 4, 4096).is_none(), "extent beyond the template");
        assert_eq!(sym.instances(), 0, "declines cache nothing");
    }
}
