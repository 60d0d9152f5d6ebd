//! # gpl-check — a minimal, hermetic property-testing harness
//!
//! The offline replacement for `proptest`, covering exactly what this
//! repository uses: seeded random case generation, automatic shrinking
//! to a minimal counterexample, and regression-seed persistence next to
//! the test source (the `*.proptest-regressions` convention).
//!
//! ## Design: choice-stream generation
//!
//! A [`Strategy`] draws values through a [`Gen`], which records every
//! bounded integer "choice" it hands out. A test case is therefore
//! fully described by its choice stream (`Vec<u64>`), and shrinking is
//! plain data surgery on that stream — delete chunks (shorter
//! collections), binary-search individual choices toward zero (smaller
//! values) — with the strategy re-run after each edit. Mapped
//! strategies (`prop_map`) shrink for free because generation is simply
//! replayed; no inverse function is ever needed. (This is the
//! Hypothesis architecture, sized down.)
//!
//! ## Determinism
//!
//! There is no ambient entropy anywhere: case seeds derive from the
//! source file, test name, and case index via FNV-1a, so every run of
//! the suite — any machine, any day — executes byte-identical cases.
//! Set `GPL_CHECK_SEED=<n>` to explore a different universe, and
//! `GPL_CHECK_CASES=<n>` to change the per-property case count.
//!
//! ## Use
//!
//! ```ignore
//! gpl_check::prop! {
//!     #![cases(64)]                       // optional; default 256
//!     #[test]
//!     fn reverse_is_involutive(v in collection::vec(0u32..100, 0..50)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(v, w);
//!     }
//! }
//! ```
//!
//! On failure the harness shrinks, appends a `seed 0x…` line to
//! `<source>.proptest-regressions` (legacy proptest `cc` lines in the
//! same files are tolerated and ignored), and panics with the minimal
//! counterexample. Persisted seeds are re-run before fresh cases on
//! every subsequent run.
//!
//! ## Pins
//!
//! [`pins::check`] is the other half of the test plane: expected values
//! committed as plain text under `pins/`, written out as observed to
//! `target/pins/` on every run, and re-pinned by one copy.

pub mod collection;
pub mod gen;
pub mod pins;
pub mod runner;
pub mod shrink;
pub mod strategy;

pub use gen::Gen;
pub use strategy::{any, BoxedStrategy, Just, Strategy};

/// `proptest`-path compatibility: lets call sites keep writing
/// `prop::collection::vec(...)`.
pub mod prop {
    pub use crate::collection;
}

/// One-stop import for test modules.
pub mod prelude {
    pub use crate::collection;
    // Imports both the `prop` module (`prop::collection::vec`) and the
    // `prop!` macro — they share the name across namespaces.
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::Gen;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof};
}

/// Define property tests. Accepts an optional `#![cases(N)]` header
/// followed by `fn name(pat in strategy, ...) { body }` items; each
/// becomes a deterministic, shrinking property. Attributes (including
/// the conventional `#[test]`) pass through.
#[macro_export]
macro_rules! prop {
    ( #![cases($cases:expr)] $($rest:tt)* ) => {
        $crate::__prop_tests!(($cases); $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__prop_tests!(($crate::runner::DEFAULT_CASES); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_tests {
    ( ($cases:expr); $( $(#[$meta:meta])* fn $name:ident(
          $($arg:pat_param in $strat:expr),+ $(,)?
      ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::runner::run(
                    ::core::file!(),
                    ::core::stringify!($name),
                    $cases,
                    ($($strat,)+),
                    |($($arg,)+)| $body,
                );
            }
        )*
    };
}

/// Assertion macros: plain `assert!` equivalents (the harness catches
/// the panic, shrinks, and reports). Kept under the `proptest` names so
/// property bodies read identically.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Choose among several strategies producing the same value type;
/// shrinking biases toward the first alternative.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}
