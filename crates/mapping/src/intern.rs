//! Hash-consing: one weak interner ([`WeakInterner`]), and its use for
//! `(source, destination)` mapping pairs.
//!
//! PR 5 deduplicated mapping storage behind one shared
//! `Arc<(NormalizedMapping, NormalizedMapping)>` *per plan*: the plan
//! and its compiled copy program hold the same allocation. This module
//! extends that sharing across plans: every pair of equal mappings
//! interns to **one** process-wide `Arc`, so two plans over the same
//! (src, dst) pair — computed by different arrays, programs, or
//! interpreter sessions — hold pointer-identical pairs. That pointer
//! identity is what keys the runtime's shared plan registry
//! (`hpfc_runtime::registry`): an equality check on two mappings
//! becomes a pointer compare. Symbolic `(format, format)` pairs
//! ([`crate::symbolic`]) intern through the same table type.
//!
//! The interner holds [`Weak`] references only — it never keeps a
//! value alive. When the last plan over a pair drops, the pair
//! drops with it and the table slot is pruned on the next insertion
//! into its bucket. Consumers that need a pair's identity to stay
//! stable (the plan registry) keep their own strong reference.
//!
//! Lookups of an already-interned pair are allocation-free: the pair is
//! hashed by reference, the bucket is probed in place, and a hit
//! returns an `Arc` clone — part of the zero-allocation cached-remap
//! contract pinned by the runtime's counting-allocator test.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use crate::mapping::NormalizedMapping;

/// Interner shard count. Sharded so concurrent sessions interning
/// unrelated values do not serialize on one lock; the shard is picked
/// by the value's hash, so equal values always meet in the same shard.
const SHARDS: usize = 8;

/// Hash → candidates with that hash (collisions are value-checked).
type Shard<T> = HashMap<u64, Vec<Weak<T>>>;

/// A weak, sharded hash-consing table: equal values intern to one
/// `Arc`, which the table never keeps alive. The one implementation
/// behind mapping pairs ([`pair`]) and symbolic format pairs
/// ([`crate::format_pair`]); separate instances exist only for tests
/// that need isolation.
pub struct WeakInterner<T> {
    shards: [Mutex<Shard<T>>; SHARDS],
}

impl<T> Default for WeakInterner<T> {
    fn default() -> Self {
        WeakInterner { shards: std::array::from_fn(|_| Mutex::default()) }
    }
}

impl<T> std::fmt::Debug for WeakInterner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeakInterner").field("live", &self.live()).finish()
    }
}

impl<T> WeakInterner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical `Arc` of the value `key` describes: a live value
    /// for which `is` holds is returned as-is (allocation-free — `key`
    /// may borrow its parts, so a hit clones nothing), otherwise
    /// `make()` is recorded weakly, pruning the bucket's dead slots on
    /// the way in so churned values do not accumulate. Every caller of
    /// one interner must hash the same `key` form, and `is` must hold
    /// exactly for the value `make` builds.
    ///
    /// A shard poisoned by a panicking thread is recovered, not
    /// propagated: its state is a bag of `Weak`s, valid at every step.
    pub fn intern<K: Hash>(
        &self,
        key: &K,
        is: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        let mut shard =
            self.shards[hash as usize % SHARDS].lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = shard.entry(hash).or_default();
        if let Some(live) = bucket.iter().filter_map(Weak::upgrade).find(|v| is(v)) {
            return live;
        }
        let fresh = Arc::new(make());
        debug_assert!(is(&fresh), "`is` recognizes what `make` builds");
        bucket.retain(|w| w.strong_count() > 0);
        bucket.push(Arc::downgrade(&fresh));
        fresh
    }

    /// Number of currently live interned values (introspection; takes
    /// every shard lock).
    pub fn live(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                shard.values().flatten().filter(|w| w.strong_count() > 0).count()
            })
            .sum()
    }
}

impl<A, B> WeakInterner<(A, B)> {
    /// [`WeakInterner::live`], under the name pair tables are asked by.
    pub fn live_pairs(&self) -> usize {
        self.live()
    }
}

/// A hash-consed `(source, destination)` mapping pair: equal pairs
/// interned through [`pair`] share one allocation, so pointer identity
/// (`Arc::ptr_eq`) coincides with value equality for live pairs.
pub type MappingPair = Arc<(NormalizedMapping, NormalizedMapping)>;

/// The process-wide interner behind [`pair`].
pub fn global() -> &'static WeakInterner<(NormalizedMapping, NormalizedMapping)> {
    static GLOBAL: OnceLock<WeakInterner<(NormalizedMapping, NormalizedMapping)>> =
        OnceLock::new();
    GLOBAL.get_or_init(WeakInterner::new)
}

/// Intern `(src, dst)` in `table`: by reference, so a hit clones
/// neither mapping.
fn pair_in(
    table: &WeakInterner<(NormalizedMapping, NormalizedMapping)>,
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
) -> MappingPair {
    table.intern(&(src, dst), |p| p.0 == *src && p.1 == *dst, || (src.clone(), dst.clone()))
}

/// Intern `(src, dst)` in the process-wide table — the canonical way to
/// build a shared mapping pair. Equal pairs return pointer-identical
/// `Arc`s for as long as at least one strong reference is live.
pub fn pair(src: &NormalizedMapping, dst: &NormalizedMapping) -> MappingPair {
    pair_in(global(), src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DimFormat;
    use crate::testing::mapping_1d;

    fn distinct_pair() -> (NormalizedMapping, NormalizedMapping) {
        // An extent no other test uses, so the process-wide table holds
        // exactly the references this test creates.
        (
            mapping_1d(4093, 4, DimFormat::Block(None)),
            mapping_1d(4093, 4, DimFormat::Cyclic(Some(3))),
        )
    }

    #[test]
    fn equal_pairs_intern_to_one_arc() {
        let (a, b) = distinct_pair();
        let p1 = pair(&a, &b);
        let p2 = pair(&a.clone(), &b.clone());
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(Arc::strong_count(&p1), 2, "interner must not hold strong refs");
        // The reversed direction is a different pair.
        let rev = pair(&b, &a);
        assert!(!Arc::ptr_eq(&p1, &rev));
    }

    #[test]
    fn dropped_pairs_are_reclaimed_and_reinterned() {
        let interner = WeakInterner::new();
        let (a, b) = distinct_pair();
        let p1 = pair_in(&interner, &a, &b);
        assert_eq!(interner.live_pairs(), 1);
        let addr = Arc::as_ptr(&p1) as usize;
        drop(p1);
        assert_eq!(interner.live_pairs(), 0, "weak table must not keep pairs alive");
        // Re-interning after the pair died yields a fresh (live) pair.
        let p2 = pair_in(&interner, &a, &b);
        assert_eq!(interner.live_pairs(), 1);
        let _ = addr; // the new allocation may or may not reuse the address
        assert_eq!(*p2, (a, b));
    }

    #[test]
    fn concurrent_interning_converges_on_one_pair() {
        let interner = std::sync::Arc::new(WeakInterner::new());
        let (a, b) = distinct_pair();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let interner = std::sync::Arc::clone(&interner);
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || pair_in(&interner, &a, &b))
            })
            .collect();
        let pairs: Vec<MappingPair> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &pairs[1..] {
            assert!(Arc::ptr_eq(&pairs[0], p));
        }
        assert_eq!(interner.live_pairs(), 1);
    }

    #[test]
    fn poisoned_shard_still_serves() {
        let interner = WeakInterner::<u32>::new();
        let kept = interner.intern(&7u32, |v| *v == 7, || 7);
        // `is` runs under the shard lock: a panic there poisons it.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            interner.intern(&7u32, |_| panic!("poison the shard"), || 7)
        }));
        assert!(poisoned.is_err());
        let again = interner.intern(&7u32, |v| *v == 7, || 7);
        assert!(Arc::ptr_eq(&kept, &again));
        assert_eq!(interner.live(), 1);
    }
}
