//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no access to a crates registry, so this
//! workspace ships a minimal, dependency-free re-implementation of the
//! slice of proptest the test suite uses: `Strategy` with `prop_map`,
//! integer ranges, `Just`, weighted `prop_oneof!`, `collection::vec`,
//! `option::of`, `bool::ANY`, simple regex string strategies
//! (`"[a-z]{2,5}"` and friends), and the `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros.
//!
//! Differences from the real crate, by design:
//!
//! * generation is a deterministic SplitMix64 stream seeded from the test
//!   name, so failures reproduce without a persistence file;
//! * there is no shrinking — a failing case panics with the full debug
//!   rendering of its inputs instead of a minimized one.

use std::fmt;

pub mod test_runner {
    /// Deterministic SplitMix64 generator.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name, stably across runs and platforms.
        pub fn deterministic(name: &str) -> TestRng {
            let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for b in name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    /// Outcome of one generated test case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: String) -> TestCaseError {
            TestCaseError::Fail(msg)
        }
    }
}

pub mod strategy {
    use super::fmt;
    use super::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        type Value: fmt::Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: fmt::Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + fmt::Debug>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: fmt::Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy (cheaply clonable).
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Weighted choice between same-typed strategies (`prop_oneof!`).
    #[derive(Clone)]
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T: fmt::Debug> Union<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum::<u64>().max(1);
            Union { arms, total }
        }
    }

    impl<T: fmt::Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut ticket = rng.below(self.total);
            for (weight, arm) in &self.arms {
                let w = u64::from(*weight);
                if ticket < w {
                    return arm.generate(rng);
                }
                ticket -= w;
            }
            self.arms.last().expect("non-empty").1.generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);

    /// `&str` patterns act as tiny regex generators: sequences of literal
    /// characters or `[a-z0-9]` classes, each optionally quantified by `?`
    /// or `{m,n}`. This covers every pattern the test suite uses.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a character class or a literal character.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated class in pattern {pattern:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        set.extend((lo..=hi).filter(|c| c.is_ascii()));
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            assert!(!alphabet.is_empty(), "empty class in pattern {pattern:?}");
            // Optional quantifier.
            let (lo, hi) = if i < chars.len() && chars[i] == '?' {
                i += 1;
                (0u64, 1u64)
            } else if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated repeat in pattern {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                let (lo, hi) = match body.split_once(',') {
                    Some((l, h)) => (l.parse().unwrap(), h.parse().unwrap()),
                    None => {
                        let n: u64 = body.parse().unwrap();
                        (n, n)
                    }
                };
                i = close + 1;
                (lo, hi)
            } else {
                (1, 1)
            };
            let count = lo + rng.below(hi - lo + 1);
            for _ in 0..count {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt;
    use std::ops::Range;

    /// Element-count specification accepted by [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo as u64 + rng.below((self.size.hi - self.size.lo) as u64);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt;

    pub struct OptionStrategy<S>(S);

    /// `proptest::option::of`: `None` a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    #[derive(Clone, Copy, Debug)]
    pub struct BoolAny;

    /// `proptest::bool::ANY`.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines deterministic property tests over generated inputs.
///
/// Supports the real macro's surface as used in this repo: an optional
/// `#![proptest_config(..)]` header and `#[test] fn name(pat in strategy,
/// ...) { .. }` items whose bodies may use `prop_assert*!`, `prop_assume!`
/// and early `return Ok(())`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                while accepted < config.cases && attempts < config.cases.saturating_mul(20) {
                    attempts += 1;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => continue,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property failed at case {}: {}\ninputs: {:#?}",
                                accepted, msg, ($(&$arg,)*)
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Weighted or unweighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (($weight) as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), lhs, rhs),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3i64..17), &mut rng);
            assert!((3..17).contains(&v));
            let u = Strategy::generate(&(0usize..5), &mut rng);
            assert!(u < 5);
        }
    }

    #[test]
    fn regex_patterns_generate_expected_shapes() {
        let mut rng = TestRng::deterministic("regex");
        for _ in 0..200 {
            let s = Strategy::generate(&"[xyz]", &mut rng);
            assert!(s.len() == 1 && "xyz".contains(&s));
            let s = Strategy::generate(&"[a-h][0-9]?", &mut rng);
            assert!(!s.is_empty() && s.len() <= 2);
            assert!(('a'..='h').contains(&s.chars().next().unwrap()));
            let s = Strategy::generate(&"[a-z]{2,5}", &mut rng);
            assert!((2..=5).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let strat = prop_oneof![9 => 0i64..1, 1 => 1i64..2];
        let mut rng = TestRng::deterministic("weights");
        let ones = (0..1000)
            .filter(|_| Strategy::generate(&strat, &mut rng) == 1)
            .count();
        assert!(ones < 300, "weight-1 arm fired {ones}/1000 times");
    }

    #[test]
    fn generation_is_deterministic() {
        let collect = || {
            let mut rng = TestRng::deterministic("det");
            (0..32)
                .map(|_| Strategy::generate(&(0u64..1_000_000), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(
            v in crate::collection::vec(0i64..10, 1..4),
            flag in crate::bool::ANY,
            opt in crate::option::of(0i64..3),
        ) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
            if flag {
                return Ok(());
            }
            prop_assert_eq!(opt.map(|x| x.min(2)).unwrap_or(0) <= 2, true);
        }
    }
}
