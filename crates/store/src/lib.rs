//! Persistent warm state for Active XML peers (DESIGN.md §11).
//!
//! PR 4's [`SolveCache`] makes warm enforcement several times faster
//! than cold, but a process restart throws the cache away — and a
//! production fleet restarts constantly, paying full cold-solve
//! latency exactly when traffic is least forgiving. This crate gives
//! a peer a durable home for two artifacts:
//!
//! * **Solver-cache snapshots** ([`Store::persist_cache`] /
//!   [`Store::load_cache`]): every solved safe/possible game and
//!   complement/target DFA, serialized under its full structural key.
//!   Keys embed the schema fingerprint, so invalidation is safe by
//!   construction, and a loaded entry is bit-identical to a cold
//!   solve — a restarted daemon resumes at warm hit-rates.
//! * **The schema compatibility matrix** ([`CompatMatrix`]): the
//!   precomputed Sec. 6 schema-to-schema safe-rewriting relation over
//!   a peer's schema portfolio, consulted during exchange negotiation
//!   so "can I safely send to you?" costs a table lookup, not a game.
//!
//! Both live in one versioned, checksummed, little-endian on-disk
//! format (see [`format`](mod@format)); writes are atomic (tmp + rename) and every
//! read is verified, so a torn, truncated, bit-flipped, version-skewed
//! or foreign-schema file loads as a *cold miss* with
//! `store.corrupt_discarded_total` incremented — never a panic, never
//! a stale answer.
//!
//! [`SolveCache`]: axml_core::solve_cache::SolveCache

#![warn(missing_docs)]

pub mod format;
pub mod matrix;
pub mod snapshot;
mod store;

pub use matrix::{CompatMatrix, MATRIX_MAGIC};
pub use snapshot::{decode_entries, encode_entries, CACHE_MAGIC};
pub use store::{LoadReport, Store, CACHE_SNAPSHOT_FILE, MATRIX_FILE};
