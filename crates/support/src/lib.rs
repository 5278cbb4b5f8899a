//! # axml-support — hermetic build-and-test substrate
//!
//! The workspace must build and test **offline**: no registry crate may
//! appear in any `Cargo.toml`. This crate supplies, from scratch, the
//! small slices of `rand`, `proptest`, `criterion` and `parking_lot` that
//! the rest of the workspace actually uses:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64 seeding a
//!   xoshiro256\*\* core) behind `rand`-style [`rng::Rng`] /
//!   [`rng::RngExt`] / [`rng::SeedableRng`] traits. Same seed, same
//!   stream, on every platform — the property suites and the adversarial
//!   services depend on that.
//! * [`prop`] — a minimal property-testing harness: strategy combinators
//!   ([`prop::Strategy::prop_map`], [`prop::Strategy::prop_recursive`],
//!   [`prop_oneof!`], [`prop::collection::vec`], pattern-string and range
//!   strategies), bounded choice-stream shrinking, and seed-corpus replay
//!   from a `regressions/` directory. The [`proptest!`] macro mirrors the
//!   upstream surface the test suites were written against.
//! * [`bench`](mod@bench) — a micro-bench harness (warm-up, N timed iterations,
//!   median/p95, JSON emission) with a Criterion-compatible facade so the
//!   `benches/b*.rs` workloads keep their shape. See DESIGN.md for the
//!   emitted `BENCH_*.json` schema.
//! * [`sync`] — `parking_lot`-flavoured [`sync::Mutex`] / [`sync::RwLock`]
//!   (no poison plumbing at call sites) over `std::sync`; channels are
//!   `std::sync::mpsc` as it stands.
//! * [`hash`] — an FxHash-style deterministic fast hasher
//!   ([`hash::FxHashMap`], [`hash::fx_hash_one`]) for trusted-key
//!   interning tables and structural fingerprints on hot paths.
//! * [`clock`] — time as a capability: the [`clock::Clock`] trait with a
//!   wall-clock default, so the deterministic simulator can substitute
//!   virtual time everywhere code sleeps or timestamps.
//! * [`poll`] — a minimal level-triggered OS readiness poller (epoll on
//!   Linux, kqueue on macOS/BSD) over `std::os::fd` with in-repo
//!   `extern "C"` bindings, the substrate of the event-driven network
//!   core (`axml-net`'s `--io poll` engine).
//!
//! Everything here is plain `std`; adding a dependency to this crate
//! defeats its purpose.

#![warn(missing_docs)]

pub mod bench;
pub mod clock;
pub mod hash;
mod macros;
#[cfg(unix)]
pub mod poll;
pub mod prop;
pub mod rng;
pub mod sync;

/// One-stop import for property tests, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop::collection;
    pub use crate::prop::{
        self, select, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}
