//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this vendored shim
//! provides the (small) slice of the proptest API this workspace uses:
//! [`Strategy`] with `prop_map` / `prop_recursive` / `boxed`, range and
//! tuple strategies, `prop::bool::ANY`, `prop::collection::vec`,
//! [`Just`], the `proptest!` / `prop_assert!` / `prop_assert_eq!` /
//! `prop_oneof!` macros, and [`ProptestConfig`].
//!
//! Sampling is deterministic: every test derives its RNG seed from the
//! test name and case index (splitmix64), so failures are reproducible
//! run-over-run without a persistence file. There is no shrinking; the
//! failing case is reported instead — its index and seed, whether the
//! body failed a `prop_assert!` or panicked.
//!
//! Two environment variables widen the search, for test runs only:
//! `HPFC_PROPTEST_SEED` (any string; a number is used as is, anything
//! else is hashed) is mixed into every test's seed, so each value
//! explores different inputs, and `HPFC_PROPTEST_CASES` (a count)
//! replaces every block's configured number of cases. Unset, both leave
//! the name-derived inputs and the configured counts as they are.

use std::fmt::Debug;
use std::rc::Rc;

// --- RNG ---------------------------------------------------------------

/// Deterministic splitmix64 generator seeded per (test, case).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test identifier and case number.
    pub fn for_case(test_seed: u64, case: u64) -> Self {
        TestRng { state: test_seed ^ case.wrapping_mul(0x9e3779b97f4a7c15) }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The seed a test runs under: [`seed_from_name`], with
/// `HPFC_PROPTEST_SEED` (when set) mixed in.
pub fn test_seed(name: &str) -> u64 {
    match std::env::var("HPFC_PROPTEST_SEED") {
        Ok(extra) => {
            let extra = extra.trim().parse().unwrap_or_else(|_| seed_from_name(&extra));
            seed_from_name(name) ^ TestRng::for_case(extra, 0).next_u64()
        }
        Err(_) => seed_from_name(name),
    }
}

/// The number of cases a block runs: `HPFC_PROPTEST_CASES` when set,
/// else the block's configured `cases`.
pub fn cases(configured: u32) -> u32 {
    match std::env::var("HPFC_PROPTEST_CASES") {
        Ok(n) => n.trim().parse().unwrap_or_else(|_| {
            panic!("HPFC_PROPTEST_CASES must be a case count, got {n:?}")
        }),
        Err(_) => configured,
    }
}

/// Reports the running case if the test body panics: dropped while
/// unwinding, it prints the case's index and seeds.
#[doc(hidden)]
pub struct CaseReport {
    /// The test's name.
    pub test: &'static str,
    /// The test's seed ([`test_seed`]).
    pub seed: u64,
    /// The running case.
    pub case: u64,
}

impl Drop for CaseReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            use std::io::Write;
            let extra = std::env::var("HPFC_PROPTEST_SEED").unwrap_or_else(|_| "unset".into());
            // Ignored on error: a panic here, while unwinding, would abort.
            let _ = writeln!(
                std::io::stderr(),
                "proptest {} failed at case {} (test seed {:#x}, HPFC_PROPTEST_SEED {extra})",
                self.test,
                self.case,
                self.seed
            );
        }
    }
}

/// Stable seed for a test, derived from its fully qualified name.
pub fn seed_from_name(name: &str) -> u64 {
    // FNV-1a.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// --- errors and config -------------------------------------------------

/// A failed property within a `proptest!` body.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    /// Human-readable failure description.
    pub message: String,
}

impl TestCaseError {
    /// Failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-block configuration (only `cases` is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// --- the Strategy trait ------------------------------------------------

/// A generator of random values (the proptest core abstraction, minus
/// shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase into a clonable, shareable strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let this = Rc::new(self);
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| this.sample(rng)))
    }

    /// Recursive strategies: `f` receives the strategy built so far and
    /// returns the branch strategy; recursion is bounded by `depth`.
    /// (`_desired_size` and `_expected_branch` are accepted for API
    /// compatibility and ignored.)
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let branch = f(cur).boxed();
            let l = leaf.clone();
            cur = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Lean toward leaves so generated sizes stay bounded.
                if rng.below(2) == 0 {
                    l.sample(rng)
                } else {
                    branch.sample(rng)
                }
            }));
        }
        cur
    }
}

/// Type-erased strategy (`Rc`-shared, clonable).
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!` backend).
pub fn union<T>(alts: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T>
where
    T: 'static,
{
    assert!(!alts.is_empty(), "prop_oneof! needs at least one alternative");
    BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
        let k = rng.below(alts.len() as u64) as usize;
        alts[k].sample(rng)
    }))
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                lo + (rng.below(span.saturating_add(1).max(1))) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )+};
}

signed_range_strategy!(i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
}

/// The `prop::` namespace mirrored from real proptest.
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        use crate::{Strategy, TestRng};

        /// Strategy yielding uniform booleans.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Uniform boolean strategy (`prop::bool::ANY`).
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.below(2) == 1
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Strategy for `Vec`s with lengths drawn from a range.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: std::ops::Range<usize>,
        }

        /// `Vec` strategy over `element` with length in `len`.
        pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.clone().sample(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// --- macros ------------------------------------------------------------

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($l:expr, $r:expr) => {{
        let (l, r) = (&$l, &$r);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($l), stringify!($r), l, r
        );
    }};
    ($l:expr, $r:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$l, &$r);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($l), stringify!($r), l, r, format!($($fmt)+)
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($l:expr, $r:expr) => {{
        let (l, r) = (&$l, &$r);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($l), stringify!($r), l
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::union(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// The `proptest!` block: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Internal: expand each test item in a `proptest!` block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::test_seed(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..$crate::cases(config.cases) as u64 {
                let _report = $crate::CaseReport { test: stringify!($name), seed, case };
                let mut rng = $crate::TestRng::for_case(seed, case);
                $(
                    let $pat = $crate::Strategy::sample(&($strat), &mut rng);
                )+
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("proptest {} failed:\n{}", stringify!($name), e);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}
