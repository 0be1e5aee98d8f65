//! # gtpquery — Generalized Tree Pattern queries
//!
//! The query model for the Twig²Stack reproduction:
//!
//! * [`gtp`] — the GTP data model: nodes with tests and roles
//!   (return / group-return / non-return), edges with axes (PC / AD) and
//!   optionality (paper §2);
//! * [`parse`] — an XPath-like twig syntax with GTP extensions
//!   (`!` non-return, `@` group-return, `/?`-style optional edges);
//! * [`xquery`] — translation of a FLWOR XQuery subset into a GTP;
//! * [`analysis`] — existence-checking classification (paper §3.5), the
//!   top branch node (paper §4.4), output schema, validation, the
//!   label-indexed dispatch table every matcher uses, and path-summary
//!   feasibility (the pruned-stream planner);
//! * [`cost`] — the adaptive planner's cost model: stream-size,
//!   skip-scan, and selectivity estimates from the path summary, plus
//!   the pruning on/off rule (DESIGN.md §14);
//! * [`exec`] — typed evaluation errors and cooperative cancellation for
//!   the fallible drivers (disk streams, serving deadlines).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod exec;
pub mod gtp;
pub mod parse;
pub mod results;
pub mod serialize;
pub mod xquery;

pub use analysis::{
    LabelDispatch, ParallelFallback, QueryAnalysis, SummaryFeasibility, ValidationIssue,
};
pub use cost::QueryEstimate;
pub use exec::{CancelToken, QueryError};
pub use gtp::{Axis, Edge, Gtp, GtpBuilder, NodeTest, QNodeId, Role, ValuePred};
pub use parse::{parse_twig, QueryParseError};
pub use results::{cmp_rows, cmp_rows_by, Cell, ResultSet};
pub use serialize::{serialize, structurally_equal};
pub use xquery::{translate, XQueryError};
