//! Offline shim for the subset of `proptest` this workspace's property
//! tests use.
//!
//! Supports the [`proptest!`] macro with a `#![proptest_config(..)]`
//! header, strategies over integer/float ranges, tuples of strategies,
//! [`collection::vec`], [`sample::select`] / [`sample::subsequence`],
//! [`arbitrary::any`], simple `".{a,b}"` string patterns, and the
//! `prop_assert*` macros. No shrinking: a failing case panics with its
//! case number and seed so it can be replayed by rerunning the test (the
//! generator stream is deterministic per test).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (`cases` is the only knob the shim honors).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Failure raised by `prop_assert*`.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The generator handed to strategies; deterministic per (test, case).
pub struct TestRng(pub StdRng);

impl TestRng {
    pub fn for_case(test_name: &str, case: u32) -> TestRng {
        // Stable hash of the test name so each test gets its own stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37)))
    }
}

/// A value generator (the used subset of proptest's `Strategy`).
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, f32, f64);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_inclusive_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// String pattern strategy. The shim understands `".{a,b}"` (a–b
/// arbitrary chars); any other pattern falls back to 0–8 chars. Half the
/// chars are printable ASCII, the rest multi-byte UTF-8 of two, three and
/// four bytes, so byte length, hashing and ordering properties meet
/// non-ASCII text by default. The bounds count chars, not bytes.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_repeat_bounds(self).unwrap_or((0, 8));
        let len = rng.0.gen_range(lo..=hi);
        (0..len).map(|_| arbitrary_char(rng)).collect()
    }
}

/// Code point ranges of the non-ASCII chars: Latin-1 and Latin Extended
/// and Cyrillic (two UTF-8 bytes), CJK ideographs (three), and
/// pictographs (four). None holds a surrogate or a control char.
const MULTI_BYTE: [(u32, u32); 4] = [
    (0xa1, 0x250),
    (0x400, 0x500),
    (0x4e00, 0xa000),
    (0x1f300, 0x1f600),
];

fn arbitrary_char(rng: &mut TestRng) -> char {
    if rng.0.gen_range(0u8..2) == 0 {
        return char::from(rng.0.gen_range(0x20u8..0x7f));
    }
    let (lo, hi) = MULTI_BYTE[rng.0.gen_range(0..MULTI_BYTE.len())];
    char::from_u32(rng.0.gen_range(lo..hi)).expect("the ranges hold only scalar values")
}

fn parse_repeat_bounds(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for a `Vec` of `lens` elements drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        lens: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, lens: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, lens }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.lens.is_empty() {
                self.lens.start
            } else {
                rng.0.gen_range(self.lens.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniformly pick one of the given values.
    pub struct Select<T>(Vec<T>);

    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select: empty options");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.0.gen_range(0..self.0.len())].clone()
        }
    }

    /// An order-preserving random subsequence of exactly `size` elements.
    pub struct Subsequence<T> {
        values: Vec<T>,
        size: usize,
    }

    pub fn subsequence<T: Clone>(values: Vec<T>, size: usize) -> Subsequence<T> {
        assert!(size <= values.len(), "subsequence: size exceeds input");
        Subsequence { values, size }
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;
        fn generate(&self, rng: &mut TestRng) -> Vec<T> {
            // Reservoir-style index draw, then restore input order.
            let mut idx: Vec<usize> = (0..self.values.len()).collect();
            for i in 0..self.size {
                let j = rng.0.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            let mut picked = idx[..self.size].to_vec();
            picked.sort_unstable();
            picked.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }
}

pub mod arbitrary {
    use super::{Strategy, TestRng};
    use rand::RngCore;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.0.next_u64_dyn() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.0.next_u64_dyn() & 1 == 1
        }
    }

    pub struct AnyStrategy<T>(PhantomData<T>);

    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}` ({:?} vs {:?}): {}",
            stringify!($a), stringify!($b), a, b, format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}` (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// The test-defining macro. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs `body` over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!("proptest case {case} of {} failed: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(
            xs in prop::collection::vec(-10i64..10, 0..20),
            pick in prop::sample::select(vec![1, 2, 3]),
            s in ".{0,12}",
            raw in any::<i64>(),
        ) {
            prop_assert!(xs.iter().all(|x| (-10..10).contains(x)));
            prop_assert!([1, 2, 3].contains(&pick));
            prop_assert!(s.chars().count() <= 12);
            let _ = raw;
        }

        #[test]
        fn subsequence_preserves_order(
            sub in prop::sample::subsequence((0usize..8).collect::<Vec<_>>(), 8)
        ) {
            prop_assert_eq!(sub, (0usize..8).collect::<Vec<_>>());
        }
    }

    /// Strings reach every UTF-8 width, and each char is one the
    /// pattern allows.
    #[test]
    fn strings_reach_multi_byte_utf8() {
        let mut rng = crate::TestRng::for_case("utf8", 0);
        let mut widths = [0usize; 5];
        for _ in 0..200 {
            let s = ".{0,12}".generate(&mut rng);
            assert!(s.chars().count() <= 12);
            assert!(s.chars().all(|c| !c.is_control()));
            s.chars().for_each(|c| widths[c.len_utf8()] += 1);
        }
        assert!(widths[1..].iter().all(|&n| n > 0), "{widths:?}");
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        let s = prop::collection::vec(0i64..100, 5..6);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn inner(x in 0i64..10) {
                prop_assert!(x > 100, "forced failure {x}");
            }
        }
        inner();
    }
}
