//! Differential check of the observability counters: the parallel
//! partitioned evaluator must report exactly the serial counters for
//! every work-proportional metric. `chunks`/`fallbacks` are excluded by
//! construction (they describe the execution strategy, not the work).
//!
//! This test forces the `twigobs/enabled` feature through core's
//! dev-dependencies, so it exercises the real recording layer even when
//! the workspace default leaves obs off.

use gtpquery::parse_twig;
use twig2stack::{
    enumerate, evaluate_streaming, match_document, match_document_parallel, run_subscriptions,
    MatchOptions, SharedAutomaton,
};
use twigobs::Counter;
use xmldom::parse;

/// Several records under one root, with matches crossing none of the
/// chunk boundaries and spine elements (`a`) matched by some queries —
/// the same corpus the parallel equivalence tests use.
const CORPUS: &str = "<a>\
    <a><b><c/></b></a>\
    <b/>\
    <b><c/><c/></b>\
    <d><b><c/></b><b/></d>\
    <a><a><b><c/><d/></b></a></a>\
    </a>";

const QUERIES: &[&str] = &[
    "//a/b[c]",
    "//a//b",
    "//a[b]//c",
    "//a/b[?c@]",
    "//a!/b[c!]",
    "//b[c][d]",
    "//a/a//b",
    "/a/b",
    "//*[c]",
];

/// The counters that must agree between serial and parallel runs.
const WORK_COUNTERS: [Counter; 5] = [
    Counter::ElementsScanned,
    Counter::StackPushes,
    Counter::Merges,
    Counter::EdgesCreated,
    Counter::ResultsEnumerated,
];

#[test]
#[allow(clippy::assertions_on_constants)] // guards the dev-dependency feature wiring
fn parallel_obs_counters_match_serial() {
    assert!(twigobs::ENABLED, "core tests force the obs recording layer");
    let doc = parse(CORPUS).unwrap();
    for q in QUERIES {
        let gtp = parse_twig(q).unwrap();

        let _ = twigobs::take();
        let (stm, _) = match_document(&doc, &gtp, MatchOptions::default());
        let _ = enumerate(&stm);
        let serial = twigobs::take();

        for threads in [2, 4, 8] {
            let (ptm, _) =
                match_document_parallel(&doc, &gtp, MatchOptions::default(), threads);
            let _ = enumerate(&ptm);
            let parallel = twigobs::take();
            for c in WORK_COUNTERS {
                assert_eq!(
                    parallel.get(c),
                    serial.get(c),
                    "query {q}, {threads} threads, counter {}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn serial_counters_are_plausible() {
    let doc = parse(CORPUS).unwrap();
    let gtp = parse_twig("//a/b[c]").unwrap();
    let _ = twigobs::take();
    let (tm, stats) = match_document(&doc, &gtp, MatchOptions::default());
    let rs = enumerate(&tm);
    let m = twigobs::take();
    // Every element close is one scan.
    assert_eq!(m.get(Counter::ElementsScanned), doc.len() as u64);
    // The obs push counter mirrors the matcher's own statistic.
    assert_eq!(m.get(Counter::StackPushes), stats.elements_pushed as u64);
    assert_eq!(m.get(Counter::EdgesCreated), stats.edges_created as u64);
    assert_eq!(m.get(Counter::ResultsEnumerated), rs.len() as u64);
    // Serial runs never partition or fall back.
    assert_eq!(m.get(Counter::Chunks), 0);
    assert_eq!(m.get(Counter::Fallbacks), 0);
}

#[test]
fn partitioned_runs_report_chunks() {
    let doc = parse(CORPUS).unwrap();
    let gtp = parse_twig("//a/b[c]").unwrap();
    let _ = twigobs::take();
    let _ = match_document_parallel(&doc, &gtp, MatchOptions::default(), 4);
    let m = twigobs::take();
    assert!(m.get(Counter::Chunks) >= 2, "corpus must partition");
    assert_eq!(m.get(Counter::Fallbacks), 0);
    // Partitioned matching opens the coordinator span plus one per task.
    assert!(m.span_entries(twigobs::Phase::Match) >= 1);
}

#[test]
fn serial_fallback_is_counted() {
    let doc = parse(CORPUS).unwrap();
    let gtp = parse_twig("//a/b[c]").unwrap();
    let _ = twigobs::take();
    let _ = match_document_parallel(&doc, &gtp, MatchOptions::default(), 1);
    let m = twigobs::take();
    assert_eq!(m.get(Counter::Fallbacks), 1);
    assert_eq!(m.get(Counter::Chunks), 0);
}

#[test]
fn streaming_drivers_scan_each_element_once() {
    // One tokenizer pass per call: a text-driven run delivers every
    // element to its consumer exactly once, like a DOM walk.
    let xml = "<a><b><c/></b><b/><d/></a>";
    let doc = parse(xml).unwrap();
    let gtp = parse_twig("//a/b[c]").unwrap();
    let _ = twigobs::take();
    evaluate_streaming(xml, &gtp, MatchOptions::default()).unwrap();
    assert_eq!(twigobs::take().get(Counter::ElementsScanned), doc.len() as u64);

    let auto = SharedAutomaton::build(vec![gtp, parse_twig("//*[c]").unwrap()]);
    run_subscriptions(xml, &auto, MatchOptions::default()).unwrap();
    assert_eq!(twigobs::take().get(Counter::ElementsScanned), doc.len() as u64);
}
