//! # twig2stack — hierarchical-stack twig matching (VLDB 2006)
//!
//! A faithful implementation of *Twig²Stack: Bottom-up Processing of
//! Generalized-Tree-Pattern Queries over XML Documents* (Chen et al.,
//! VLDB 2006):
//!
//! * [`hstack`] — hierarchical stacks and the merge operation (§3.2),
//!   including the existence-checking truncation (§3.5);
//! * [`edges`] — result edges between hierarchical stacks;
//! * [`matcher`] — the bottom-up matching algorithm (§3.3, Figure 7);
//! * [`sot`] — sequence-of-trees structures (§4.1);
//! * [`enumerate()`] — duplicate-free, document-ordered GTP result
//!   enumeration (§4.2–4.3, Figures 10–11);
//! * [`count`] — O(encoding) result counting over the factorized
//!   representation, without materializing tuples;
//! * [`early`] — the hybrid PathStack + Twig²Stack mode with early result
//!   enumeration (§4.4);
//! * [`memory`] — runtime memory accounting (§5.4, Table 1);
//! * [`parallel`] — partitioned multi-threaded evaluation with a serial
//!   spine replay (exactly equivalent to the serial matcher);
//! * [`pruned`] — index-backed evaluation over path-summary-pruned,
//!   skip-capable element streams (byte-identical results, fewer reads).
//!
//! ## Quick start
//!
//! ```
//! use gtpquery::parse_twig;
//! use twig2stack::evaluate;
//! use xmldom::parse;
//!
//! let doc = parse("<dblp><inproceedings><title/><author/></inproceedings></dblp>").unwrap();
//! let gtp = parse_twig("//dblp/inproceedings[title]/author").unwrap();
//! let results = evaluate(&doc, &gtp);
//! assert_eq!(results.len(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod count;
pub mod early;
pub mod edges;
pub mod enumerate;
pub mod hstack;
pub mod matcher;
pub mod memory;
pub mod parallel;
pub mod pruned;
pub mod sot;
pub mod subscribe;

pub use context::EvalContext;
pub use count::count_results;
pub use early::{evaluate_auto, evaluate_early, EarlyMatcher, EarlyStats, EarlyUnsupported};
pub use enumerate::enumerate;
pub use matcher::{match_document, MatchOptions, MatchStats, Matcher, TwigMatch};
pub use memory::MemoryMeter;
pub use parallel::{
    evaluate_parallel, match_document_parallel, parallel_plan, FallbackReason, ParallelPlan,
};
pub use pruned::{
    evaluate_indexed, match_indexed, try_match_indexed, try_match_indexed_group, try_match_streams,
    IndexedPlan,
};
pub use subscribe::{
    run_subscriptions, run_subscriptions_doc, try_run_subscriptions, SharedAutomaton, SubRunStats,
    SubscriptionEngine, SubscriptionId,
};

use gtpquery::{CancelToken, Gtp, QueryError, ResultSet};
use xmldom::Document;

/// Match and enumerate in one call with default options.
pub fn evaluate(doc: &Document, gtp: &Gtp) -> ResultSet {
    let (tm, _) = match_document(doc, gtp, MatchOptions::default());
    enumerate(&tm)
}

/// Match and enumerate a raw XML string without materializing a DOM — the
/// paper's streaming mode (§7): start tags arrive in pre-order, end tags
/// in post-order, which is exactly the traversal Figure 7 needs.
pub fn evaluate_streaming(
    xml: &str,
    gtp: &Gtp,
    options: MatchOptions,
) -> Result<(ResultSet, MatchStats), xmldom::ParseError> {
    match streaming_impl(xml, gtp, options, &CancelToken::never()) {
        Ok(out) => Ok(out),
        Err(subscribe::SubscribeAbort::Parse(e)) => Err(e),
        Err(subscribe::SubscribeAbort::Query(_)) => {
            unreachable!("the never-token cannot cancel")
        }
    }
}

/// [`evaluate_streaming`] under a cooperative [`CancelToken`], polled at
/// tag granularity like the indexed drivers behind `gtpquery::exec` —
/// a deadline or cancellation mid-stream unwinds with the typed
/// [`QueryError`] instead of running to completion. Malformed XML
/// surfaces as [`QueryError::Stream`] (the event source died mid-scan).
///
/// ```
/// use gtpquery::{parse_twig, CancelToken, QueryError};
/// use twig2stack::{try_evaluate_streaming, MatchOptions};
///
/// let gtp = parse_twig("//a/b").unwrap();
/// let token = CancelToken::new();
/// token.cancel();
/// let err = try_evaluate_streaming("<a><b/></a>", &gtp, MatchOptions::default(), &token)
///     .unwrap_err();
/// assert!(matches!(err, QueryError::Cancelled));
/// ```
pub fn try_evaluate_streaming(
    xml: &str,
    gtp: &Gtp,
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<(ResultSet, MatchStats), QueryError> {
    streaming_impl(xml, gtp, options, cancel).map_err(subscribe::SubscribeAbort::into_query)
}

fn streaming_impl(
    xml: &str,
    gtp: &Gtp,
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<(ResultSet, MatchStats), subscribe::SubscribeAbort> {
    use subscribe::SubscribeAbort as Abort;
    assert!(
        !gtp.has_value_preds(),
        "value predicates need element text, which the structure-only \
         stream drops; use match_document over a DOM instead"
    );
    // One pass: the dispatch table is compiled against a label table
    // seeded with the query's names, and the event parser keeps interning
    // the document's other names into it. Those can only match `*` nodes,
    // which the dispatch's wildcard fallback covers.
    let mut labels = xmldom::LabelTable::new();
    for name in gtp.label_names() {
        labels.intern(name);
    }
    let mut matcher = Matcher::new(gtp, &labels, options);
    {
        let _span = twigobs::span(twigobs::Phase::Match);
        let mut events = xmldom::EventParser::with_labels(xml, labels);
        loop {
            cancel.check().map_err(Abort::Query)?;
            match events.next_event() {
                Ok(Some(xmldom::Event::End {
                    elem,
                    label,
                    region,
                })) => matcher.on_element_close(elem, label, region),
                Ok(Some(xmldom::Event::Start { .. })) => {}
                Ok(None) => break,
                Err(e) => return Err(Abort::Parse(e)),
            }
        }
    }
    let (tm, stats) = matcher.finish();
    Ok((enumerate(&tm), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtpquery::parse_twig;
    use twigbaselines::naive_evaluate;
    use xmldom::parse;

    #[test]
    fn evaluate_matches_oracle() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let gtp = parse_twig("//a/b[c]").unwrap();
        assert_eq!(evaluate(&doc, &gtp), naive_evaluate(&doc, &gtp));
    }

    #[test]
    fn streaming_matches_dom_evaluation() {
        let xml = "<a><a><b><c/></b></a><b/><b><c/><c/></b></a>";
        let doc = parse(xml).unwrap();
        for q in ["//a/b[c]", "//a//b", "//a!/b[c!]", "//a/b[?c@]"] {
            let gtp = parse_twig(q).unwrap();
            let (rs, _) = evaluate_streaming(xml, &gtp, MatchOptions::default()).unwrap();
            assert_eq!(rs, evaluate(&doc, &gtp), "query {q}");
        }
    }

    #[test]
    fn streaming_wildcards_reach_labels_the_query_never_names() {
        // Every label but `a`/`c` is first interned mid-stream, after the
        // matcher's dispatch table was compiled.
        let xml = "<r><x><c/></x><a><y><z/></y><c/></a><w><a><v/></a></w></r>";
        let doc = parse(xml).unwrap();
        for q in ["//*[c]", "//a//*", "//*", "//*/*[c]", "/*//a"] {
            let gtp = parse_twig(q).unwrap();
            let (rs, _) = evaluate_streaming(xml, &gtp, MatchOptions::default()).unwrap();
            assert_eq!(rs, evaluate(&doc, &gtp), "query {q}");
            assert!(!rs.is_empty(), "query {q}");
        }
    }

    #[test]
    fn streaming_surfaces_parse_errors() {
        let gtp = parse_twig("//a/b").unwrap();
        assert!(evaluate_streaming("<a><b>", &gtp, MatchOptions::default()).is_err());
    }
}
