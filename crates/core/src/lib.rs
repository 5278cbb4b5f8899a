//! Core algorithms of *Exchanging Intensional XML Data* (SIGMOD 2003).
//!
//! This crate is the paper's contribution: deciding how much of an
//! intensional XML document must be materialized before it is exchanged,
//! and doing the materialization.
//!
//! * [`awk`] — the k-depth expansion automaton `A_w^k` (Fig. 3 steps 5–10).
//! * [`game`] — the rewriting game of one children word: the product of
//!   `A_w^k` with the target's complement, marked for safe rewriting
//!   (Fig. 3; eager, or lazy/pruned as in Sec. 7, Fig. 12), or with the
//!   target itself, marked by reachability for possible rewriting (Fig. 9).
//! * [`rewrite`] — the three-stage document rewriter of Sec. 4 (parameters
//!   bottom-up, traversal top-down, per-node word games) with execution
//!   against live services, including the backtracking executor of Sec. 5,
//!   and the Schema Enforcement module's validate-or-rewrite of Sec. 7 for
//!   a tree and for a forest against a function's input or output type.
//! * [`stream`] — streaming bounded-memory enforcement: the same rewrite
//!   driven incrementally off the pull parser, materializing only the
//!   subtrees that contain function calls.
//! * [`mixed`] — the mixed approach of Sec. 5 (eager invocation of cheap
//!   calls, then safe analysis on actual results); its select-driven
//!   materialization pass also enriches a peer's stored documents.
//! * [`adversary`] — strategic opponents extracted from the solved games:
//!   worst-case type-correct answers for a given call.
//! * [`schema_rw`] — schema-to-schema safe rewriting (Sec. 6).
//! * [`invoke`] — the service-invocation boundary.
//! * [`brute`] — brute-force reference implementations of the definitions,
//!   used to cross-check the automata algorithms.
//!
//! ```
//! use axml_core::rewrite::Rewriter;
//! use axml_core::invoke::ScriptedInvoker;
//! use axml_schema::{Compiled, ITree, NoOracle, Schema, newspaper_example, validate};
//!
//! // The exchange schema (**): temperature must be materialized.
//! let schema = Schema::builder()
//!     .element("newspaper", "title.date.temp.(TimeOut|exhibit*)")
//!     .data_element("title").data_element("date")
//!     .data_element("temp").data_element("city")
//!     .element("exhibit", "title.(Get_Date|date)")
//!     .data_element("performance")
//!     .function("Get_Temp", "city", "temp")
//!     .function("TimeOut", "data", "(exhibit|performance)*")
//!     .function("Get_Date", "title", "date")
//!     .build().unwrap();
//! let compiled = Compiled::new(schema, &NoOracle).unwrap();
//!
//! let mut invoker = ScriptedInvoker::new()
//!     .answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
//! let mut rewriter = Rewriter::new(&compiled).with_k(1);
//! let (sent, report) = rewriter.rewrite_safe(&newspaper_example(), &mut invoker).unwrap();
//! assert_eq!(report.invoked, vec!["Get_Temp".to_string()]);
//! validate(&sent, &compiled).unwrap();
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod awk;
pub mod brute;
pub mod dot;
pub mod game;
pub mod invoke;
pub mod mixed;
pub mod rewrite;
pub mod schema_rw;
pub mod solve_cache;
pub mod stream;
