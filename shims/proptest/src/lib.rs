//! Offline drop-in shim for the subset of [proptest] this workspace uses.
//!
//! Provides the `proptest!` test macro (with the optional inner
//! `#![proptest_config(...)]` attribute), the [`Strategy`] trait with
//! `prop_map`, range / [`Just`](strategy::Just) / tuple / `prop_oneof!` / [`any`]
//! strategies, and the `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from the real crate, deliberate for an offline build:
//! no shrinking (a failing case reports its inputs via the strategy debug
//! print of the generated values, but is not minimized), and generation is
//! driven by a fixed-seed RNG derived from the test name, so failures are
//! reproducible run-to-run. Case count comes from `PROPTEST_CASES` or the
//! per-block `ProptestConfig::with_cases`.
//!
//! [proptest]: https://docs.rs/proptest

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod prelude {
    pub use crate::strategy::{any, Just};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub mod test_runner {
    use super::*;

    /// Per-block configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// The deterministic generation RNG handed to strategies.
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Seeded from the test name (FNV-1a), so each test draws a fixed,
        /// reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// A value generator. Unlike real proptest there is no shrinking tree —
/// `generate` yields a single sampled value.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<R, F: Fn(Self::Value) -> R>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
    {
        strategy::Map { inner: self, f }
    }
}

pub mod strategy {
    use super::*;

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, R, F: Fn(S::Value) -> R> Strategy for Map<S, F> {
        type Value = R;

        fn generate(&self, rng: &mut TestRng) -> R {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy, the element type of [`OneOf`].
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Box a strategy (used by `prop_oneof!` to unify arm types).
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.0.random_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// `any::<T>()` for types with a full-domain uniform distribution.
    pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
        AnyStrategy(std::marker::PhantomData)
    }

    pub struct AnyStrategy<A>(std::marker::PhantomData<A>);

    impl<A: Arbitrary> Strategy for AnyStrategy<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// Full-domain generation for `any`.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub use strategy::any;

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

range_strategy!(usize, u32, u64, f32, f64);

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

/// Uniform choice among heterogeneous strategy expressions of one value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Soft assertion: fails the current case (with context) without aborting
/// the process the way a bare `assert!` inside generated code would.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)*)
            ));
        }
    };
}

/// `prop_assert!` for equality.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}",
                stringify!($a), stringify!($b), va, vb, file!(), line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}: {}",
                stringify!($a), stringify!($b), va, vb, file!(), line!(),
                format!($($fmt)*)
            ));
        }
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err(format!(
                "assertion failed: {} != {} (both {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                file!(),
                line!()
            ));
        }
    }};
}

/// The test-defining macro. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs; `prop_assert*`
/// failures report the case number and every generated argument.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident
        ($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), String> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(msg) = outcome {
                    panic!(
                        "proptest case {}/{} of {} failed:\n  {}\n  inputs: {}",
                        case + 1,
                        config.cases,
                        stringify!($name),
                        msg,
                        [$(format!("{} = {:?}", stringify!($arg), &$arg)),+]
                            .join(", "),
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 0usize..10, y in -1.0f32..=1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..=1.0).contains(&y), "y = {}", y);
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(3usize), 10usize..20]) {
            prop_assert!(v == 3 || (10..20).contains(&v));
        }

        #[test]
        fn tuple_prop_map(s in (1usize..4, 1usize..4).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..16).contains(&s));
        }

        #[test]
        fn any_u16_full_domain(bits in any::<u16>()) {
            let _roundtrip = u16::from_le_bytes(bits.to_le_bytes());
            prop_assert_eq!(_roundtrip, bits);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_cases_honoured(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }
}
