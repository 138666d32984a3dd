//! A small, offline property-testing harness exposing the subset of the
//! `proptest` crate API that this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `proptest` cannot be vendored; this shim keeps the property tests (and
//! their `proptest!` syntax) working against a deterministic
//! [`SplitMix64`]-driven sampler. There is no shrinking: a failing case
//! reports its case number and the seed so it can be replayed.
//!
//! Supported surface:
//!
//! * `proptest! { #[test] fn name(x in strategy, ...) { body } }`
//! * `prop_assert!`, `prop_assert_eq!`
//! * range strategies (`0.5..0.999f64`, `1usize..32`, …), `any::<u64>()`
//! * tuples of strategies
//! * `prop::collection::vec(element, size)` with `usize`, `Range<usize>`
//!   or `RangeInclusive<usize>` sizes
//!
//! Beside it, [`WatchingAlloc`]: the allocator the hostile-bytes suites
//! install to measure the largest single allocation a decode makes.

#![warn(missing_docs)]

use perfeval_stats::rng::SplitMix64;

mod alloc;
pub use alloc::WatchingAlloc;

/// Number of cases each property runs (override with `PROPTEST_CASES`).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic per-property generator: the seed is a hash of the
/// property name, so adding a property never reorders another's cases.
pub fn test_rng(name: &str) -> SplitMix64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(h)
}

/// A failed property case (the `Err` side of a property body).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(message: String) -> Self {
        TestCaseError(message)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Samples one value.
    fn sample(&self, rng: &mut SplitMix64) -> Self::Value;
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        rng.next_range_f64(self.start, self.end)
    }
}

impl Strategy for std::ops::Range<i64> {
    type Value = i64;
    fn sample(&self, rng: &mut SplitMix64) -> i64 {
        rng.next_range_i64(self.start, self.end - 1)
    }
}

impl Strategy for std::ops::Range<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        self.start + rng.next_below(self.end - self.start)
    }
}

impl Strategy for std::ops::Range<u32> {
    type Value = u32;
    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        self.start + rng.next_below((self.end - self.start) as u64) as u32
    }
}

impl Strategy for std::ops::Range<usize> {
    type Value = usize;
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.start + rng.next_below((self.end - self.start) as u64) as usize
    }
}

impl Strategy for std::ops::RangeInclusive<usize> {
    type Value = usize;
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.start() + rng.next_below((self.end() - self.start() + 1) as u64) as usize
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut SplitMix64) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut SplitMix64) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Types with a canonical "anything goes" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut SplitMix64) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut SplitMix64) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut SplitMix64) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut SplitMix64) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SplitMix64) -> bool {
        rng.next_bool(0.5)
    }
}

/// Strategy wrapper returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut SplitMix64) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T` (`any::<u64>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SizeBounds, Strategy};
    use perfeval_stats::rng::SplitMix64;

    /// Strategy for `Vec<E>` with an element strategy and a size range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SplitMix64) -> Vec<S::Value> {
            let len = self.min + rng.next_below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Vectors of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeBounds) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// Accepted length specifications for [`collection::vec`].
pub trait SizeBounds {
    /// Inclusive `(min, max)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl SizeBounds for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl SizeBounds for std::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl SizeBounds for std::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// `proptest`-compatible module path for collection strategies.
pub mod prop {
    pub use crate::collection;
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{any, prop, Arbitrary, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares deterministic property tests.
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_rng(stringify!($name));
                let cases = $crate::cases();
                for case in 0..cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property {} failed at case {case}/{cases}: {e}",
                            stringify!($name)
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body, failing the case (not the
/// whole process) with a report.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3i64..9, y in 0.25..0.75f64, n in 2usize..5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
            prop_assert!((2..5).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0i64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
            prop_assert!(v.iter().all(|x| (0..10).contains(x)));
        }

        #[test]
        fn fixed_size_vec(v in prop::collection::vec(-1.0..1.0f64, 8)) {
            prop_assert_eq!(v.len(), 8);
        }

        #[test]
        fn tuples_sample_both(pair in (0i64..5, -100i64..100)) {
            prop_assert!((0..5).contains(&pair.0));
            prop_assert!((-100..100).contains(&pair.1));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = super::test_rng("same");
        let mut b = super::test_rng("same");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = super::test_rng("different");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_number() {
        proptest! {
            fn always_fails(x in 0i64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
