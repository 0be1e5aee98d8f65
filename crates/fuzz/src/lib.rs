//! # twigfuzz — conformance fuzzing for the Twig²Stack workspace
//!
//! The differential test suites draw queries from small hand-written
//! pools, so whole regions of the GTP grammar are never exercised against
//! the naive oracle. This crate closes that gap with structured fuzzing:
//!
//! * [`gen`] — a seeded random GTP generator that samples labels and text
//!   values from an actual document (so queries are rarely vacuously
//!   empty) and covers the full grammar: both axes, wildcards, all three
//!   roles, optional edges, OR-groups, and value predicates. Every
//!   generated query round-trips `gtpquery::serialize` ∘
//!   `gtpquery::parse_twig` losslessly.
//! * [`invariants`] — eleven metamorphic invariants checked per
//!   (document, query) pair: cross-engine agreement, count/enumerate
//!   consistency, existence consistency, early-vs-full equality,
//!   serial-vs-parallel equality, predicate-weakening monotonicity,
//!   pruned-vs-unpruned and mapped-vs-heap equivalence,
//!   adaptive-vs-forced planning, edited-vs-rebuilt index maintenance,
//!   and catalog-vs-serial scatter-gather equivalence. See DESIGN.md §8
//!   for the mapping to paper sections.
//! * [`edits`] — seeded random edit scripts (insert/delete/replace
//!   subtrees, including root deletion and empty-document revival) that
//!   drive the `edited_vs_rebuilt` invariant and ride in the `edits =`
//!   key of corpus files.
//! * [`mod@shrink`] — greedy minimization of failing pairs (prune query
//!   nodes, delete document subtrees, drop edit-script ops) so
//!   regressions are readable.
//! * [`corpus`] — self-contained `.t2s` case files under `corpus/`,
//!   replayed by `tests/corpus_replay.rs` on every build.
//! * [`session`] — the seeded fuzzing loop used by both the
//!   `cargo test` smoke suites and the long-running `twigfuzz` binary
//!   (`crates/bench/src/bin/twigfuzz.rs`), reporting per-invariant
//!   counters through `twigobs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod edits;
pub mod gen;
pub mod invariants;
pub mod session;
pub mod shrink;
pub mod vocab;

pub use corpus::{write_case, CaseFile};
pub use edits::{derive_script, EditScript, ScriptOp, DERIVED_STEPS};
pub use gen::{generate_query, GenConfig};
pub use invariants::{
    check, check_case, check_catalog, check_notifications, check_script, expected_notification,
    CaseOutcome, Invariant, Outcome,
};
pub use session::{run_session, Dataset, FailureCase, SessionConfig, SessionReport};
pub use shrink::{copy_without, shrink, shrink_script};
pub use vocab::Vocabulary;
