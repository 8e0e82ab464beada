//! Offline drop-in subset of the `proptest` property-testing API.
//!
//! The registry crate is unavailable in this build environment; this shim
//! keeps the workspace's property tests compiling and genuinely running.
//! It implements the slice of the API the workspace uses:
//!
//! * the [`proptest!`] macro, including the
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * half-open range strategies (`0.0f64..1.0`, `1usize..8`, …) and
//!   inclusive ranges,
//! * [`prop::collection::vec`] with an exact length,
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! Differences from upstream: inputs are drawn from a fixed deterministic
//! seed per test (reproducible across runs and machines), there is **no
//! shrinking** (the failing case is reported verbatim), and rejected cases
//! (`prop_assume!`) are retried up to a global attempt cap.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator feeding strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)` for `span >= 1`.
    pub fn below(&mut self, span: u64) -> u64 {
        // Multiply-shift; bias is negligible for test-input spans.
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A generator of random test inputs.
///
/// Upstream's `Strategy` also carries shrinking machinery; the shim only
/// needs generation.
pub trait Strategy {
    /// The produced value type.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

/// A strategy producing a constant (upstream `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;

    /// Length specification for [`vec()`]: a fixed size or a size range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy generating a `Vec` of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Vector strategy: `vec(0.0f64..1.0, 64)` or `vec(strategy, 1..=8)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Namespace alias matching upstream's `proptest::prop` re-export layout.
pub mod prop {
    pub use crate::collection;
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; draw fresh ones.
    Reject,
    /// An assertion failed with the given message.
    Fail(String),
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
    /// Attempt cap as a multiple of `cases`, bounding `prop_assume!`
    /// rejection loops.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Drives one property: draws inputs, runs the case closure, panics with
/// a reproduction report on failure. Called by the [`proptest!`]
/// expansion; not part of the public upstream surface.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
{
    // Deterministic seed per property name: reproducible everywhere.
    let seed = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
    let mut rng = TestRng::new(seed);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    while accepted < config.cases {
        let (inputs, outcome) = case(&mut rng);
        match outcome {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > config.max_global_rejects {
                    panic!(
                        "property `{name}`: too many prop_assume! rejections \
                         ({rejected}) after {accepted} accepted cases"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property `{name}` failed at accepted case {accepted}: {msg}\n\
                     inputs: {inputs}"
                );
            }
        }
    }
}

/// Defines property tests over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; expands one `fn` per step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::run_property(stringify!($name), &__config, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                (__inputs, __outcome)
            });
        }
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
}

/// Asserts within a property, reporting the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($left), stringify!($right), l
        );
    }};
}

/// Rejects the current inputs and retries with fresh ones.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(
            x in 0.25f64..0.75,
            n in 3usize..7,
            k in 1u32..=4,
        ) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!((3..7).contains(&n));
            prop_assert!((1..=4).contains(&k));
        }

        #[test]
        fn vec_strategy_has_exact_len(
            v in prop::collection::vec(0.0f64..1.0, 16),
        ) {
            prop_assert_eq!(v.len(), 16);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn assume_rejects_and_retries(a in 0u32..100) {
            prop_assume!(a % 2 == 0);
            prop_assert!(a % 2 == 0);
        }
    }

    #[test]
    fn default_config_used_without_header() {
        proptest! {
            fn inner(x in 0u8..10) {
                prop_assert!(x < 10);
            }
        }
        inner();
    }

    #[test]
    #[should_panic(expected = "failed at accepted case")]
    fn failure_reports_inputs() {
        proptest! {
            fn inner(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }

    #[test]
    fn deterministic_across_runs() {
        let mut r1 = super::TestRng::new(1);
        let mut r2 = super::TestRng::new(1);
        for _ in 0..10 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }
}
