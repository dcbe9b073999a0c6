//! Offline stand-in for `proptest`.
//!
//! The build container has no registry access, so the real `proptest`
//! cannot be fetched. This shim drives each `proptest!` test as a loop of
//! deterministic random cases (seeded from the test's name, so failures
//! reproduce run-to-run) and implements the strategy surface this workspace
//! uses: ranges, `any::<T>()`, tuples, `prop_map`, `prop_filter`,
//! `collection::vec`, plus the `prop_assert*`/`prop_assume!` macros.
//!
//! No shrinking: a failing case reports its arguments' source expressions
//! and the assertion message, not a minimized counterexample.

use rand::{RngExt, SeedableRng};

/// The RNG driving case generation.
pub type TestRng = rand::rngs::StdRng;

/// Deterministic per-test RNG (FNV-1a of the test name as the seed).
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// Why a test case did not complete.
pub enum TestCaseError {
    /// The case was rejected (`prop_assume!` failed); it is skipped and
    /// does not count toward the case budget.
    Reject(String),
    /// An assertion failed; the test panics with this message.
    Fail(String),
}

/// A strategy could not produce a value (e.g. `prop_filter` exhausted its
/// retry budget).
pub struct Rejected(pub String);

/// Runner configuration (`cases` is the only knob implemented).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; this substrate's cases are heavy
        // (lattice builds, NN evaluations), so default lower — tests that
        // care set `with_cases` explicitly.
        ProptestConfig { cases: 64 }
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy for an [`Arbitrary`] type.
pub struct Any<A>(std::marker::PhantomData<A>);

/// `any::<T>()`: the full-range strategy for `T`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(std::marker::PhantomData)
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::{Any, Arbitrary, Rejected, TestRng};
    use rand::RngExt;
    use std::ops::Range;

    /// A recipe for generating test values.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value (or reject, e.g. a filter that never passed).
        fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected>;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keep only values satisfying `pred`; `reason` labels rejections.
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, reason, pred }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> Result<O, Rejected> {
            self.inner.generate(rng).map(&self.f)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Result<S::Value, Rejected> {
            for _ in 0..1000 {
                let v = self.inner.generate(rng)?;
                if (self.pred)(&v) {
                    return Ok(v);
                }
            }
            Err(Rejected(format!("filter never passed: {}", self.reason)))
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> Result<$t, Rejected> {
                    Ok(rng.random_range(self.clone()))
                }
            }
        )*};
    }

    range_strategy!(f64, f32, u8, u16, u32, u64, usize, i32, i64);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> Result<A, Rejected> {
            Ok(A::arbitrary(rng))
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+),)*) => {$(
            #[allow(non_snake_case)]
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Rejected> {
                    let ($($s,)+) = self;
                    Ok(($($s.generate(rng)?,)+))
                }
            }
        )*};
    }

    tuple_strategy! {
        (A),
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, F),
        (A, B, C, D, E, F, G),
        (A, B, C, D, E, F, G, H),
        (A, B, C, D, E, F, G, H, I),
        (A, B, C, D, E, F, G, H, I, J),
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::{Rejected, TestRng};
    use rand::RngExt;
    use std::ops::Range;

    /// Strategy for `Vec`s with a random length in `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `collection::vec(element_strategy, len_range)`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, Rejected> {
            let n = rng.random_range(self.size.clone());
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob import used by test files.

    pub use crate::strategy::Strategy;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, ProptestConfig,
        TestCaseError,
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ...)`
/// becomes a loop over `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(stringify!($name));
            let mut __done: u32 = 0;
            let mut __attempts: u32 = 0;
            while __done < __cfg.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cfg.cases.saturating_mul(16).saturating_add(1000),
                    "proptest {}: too many rejected cases",
                    stringify!($name),
                );
                let __strat = ($($strat,)+);
                let ($($arg,)+) =
                    match $crate::strategy::Strategy::generate(&__strat, &mut __rng) {
                        ::std::result::Result::Ok(v) => v,
                        ::std::result::Result::Err(_) => continue,
                    };
                let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __result {
                    ::std::result::Result::Ok(()) => {
                        __done += 1;
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => panic!(
                        "proptest {} failed on case {} (args: {}): {}",
                        stringify!($name),
                        __done,
                        stringify!($($arg in $strat),+),
                        __msg,
                    ),
                }
            }
        }
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        // The negation is structural (the macro can't rewrite `$cond` into
        // its complement), so silence the partial-ord style lint at the
        // expansion site.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                ::std::format!($($fmt)+)
            )));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner. Operands only
/// need `PartialEq` (no `Debug`); the message shows their source text.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: {} == {}",
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: {} == {}: {}",
                stringify!($a),
                stringify!($b),
                ::std::format!($($fmt)+)
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(::std::format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn unit() -> impl Strategy<Value = f64> {
        0.0f64..1.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        /// Range strategies stay in range; maps and filters apply.
        #[test]
        fn combinators_work(
            x in unit(),
            n in 1usize..10,
            v in crate::collection::vec((0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b), 1..5),
            bits in any::<u16>(),
        ) {
            prop_assume!(bits != 1);
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((1..10).contains(&n), "n = {n}");
            prop_assert!(!v.is_empty() && v.len() < 5);
            for s in &v {
                prop_assert!((0.0..2.0).contains(s));
            }
            prop_assert_eq!(bits, bits);
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let mut a = crate::test_rng("t");
        let mut b = crate::test_rng("t");
        use rand::RngExt;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failures_panic() {
        proptest! {
            fn inner(x in 0.0f64..1.0) {
                prop_assert!(x < 0.0, "x = {x}");
            }
        }
        inner();
    }
}
