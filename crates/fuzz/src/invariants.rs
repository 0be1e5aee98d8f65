//! The twelve metamorphic invariants checked per (document, query) pair.
//!
//! Each invariant encodes a correctness claim of the paper (references
//! per variant below; the full table lives in DESIGN.md §8). An
//! invariant either **passes**, is **skipped** (the query shape falls
//! outside the invariant's soundness conditions — e.g. TwigStack cannot
//! run optional edges), or **fails** with a human-readable message. A
//! failure means a conformance bug somewhere: either an engine, or the
//! invariant's own soundness gate, is wrong — both are worth a corpus
//! entry.

use crate::edits::{derive_script, EditScript};
use crate::gen::group_members;
use crate::shrink::copy_without;
use gtpquery::{Cell, Gtp, QueryAnalysis, ResultSet, Role};
use std::collections::HashSet;
use twig2stack::{
    count_results, enumerate, evaluate, evaluate_early, evaluate_indexed, evaluate_parallel,
    evaluate_streaming, match_document, MatchOptions,
};
use twigbaselines::{
    build_streams, is_full_twig, is_linear, naive_evaluate, naive_exists, path_stack,
    path_stack_indexed, tj_fast, tj_fast_indexed, twig_stack_indexed, DeweyResolver,
    PathStackStats, TJFastStats, TwigStackStats,
};
use xmldom::{write, Document, EditDelta, EditOp, Indent, Label, NodeId};
use xmlindex::{DeweyIndex, EditApply, ElementIndex, MappedIndex, PruningPolicy, SliceStream};

/// The metamorphic invariants, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// All engines that accept the query agree on its result
    /// (Twig²Stack §4, TwigStack/PathStack §2, TJFast — related work).
    CrossEngine,
    /// `count()` equals `enumerate().len()` without materializing rows
    /// (paper §4.3, `CountTwig²Stack`).
    CountConsistency,
    /// Boolean existence agrees with result emptiness (paper §3.5,
    /// existence-checking nodes).
    ExistenceConsistency,
    /// Early (hybrid, §4.4) and full bottom-up enumeration produce
    /// identical rows in identical order.
    EarlyVsFull,
    /// The parallel partitioned evaluator equals the serial path for
    /// every thread count.
    SerialVsParallel,
    /// Dropping a predicate (value predicate or mandatory existence
    /// leaf) yields a superset of the original rows — matching is
    /// monotone in the query (§2, GTP semantics).
    PredicateWeakening,
    /// Path-summary pruned streams produce byte-identical results to the
    /// full scans, for every engine that has an indexed driver (the
    /// pruning soundness claim; feasible sets over-approximate match
    /// projections).
    PrunedVsUnpruned,
    /// The zero-copy mapped (v3) index is indistinguishable from the
    /// heap index: byte-equal results, equal matcher work, and equal
    /// scan/skip counters, pruned and unpruned.
    MappedVsHeap,
    /// The service's cost-based adaptive planner returns the same rows
    /// as both fixed-pruning arms — the planner picks a pruning policy,
    /// it never changes the answers.
    AdaptiveVsForced,
    /// Incremental index maintenance is invisible: chaining
    /// `ElementIndex::apply_edit` across a derived random edit script
    /// yields, at every step, an index structurally identical to one
    /// rebuilt from scratch (elements, sid tags, skip blocks, path
    /// summary), and byte-equal query results on the final document; the
    /// same script through a subscription service publishes exactly the
    /// brute-force notification deltas (DESIGN.md §17).
    EditedVsRebuilt,
    /// Sharded scatter-gather over a multi-document catalog equals
    /// serial per-document evaluation concatenated in doc-id order, the
    /// Bloom router never drops a matching document, and every hit
    /// equals the single-document oracle (DESIGN.md §16: the catalog
    /// merge and zero-false-negative contracts).
    CatalogVsSerial,
    /// Registering the query into a shared prefix-merged subscription
    /// automaton (alongside a `//*` sibling and a duplicate of itself)
    /// and driving one pass over the document yields, for every
    /// subscription, matches byte-equal to running that query solo —
    /// through the DOM oracle and, for structure-only queries, through
    /// `evaluate_streaming` over the serialized stream; duplicate
    /// registrations must stay independent and identical (DESIGN.md §17:
    /// sharing never changes an answer).
    SubscribedVsSolo,
}

impl Invariant {
    /// Every invariant, in report order.
    pub const ALL: [Invariant; 12] = [
        Invariant::CrossEngine,
        Invariant::CountConsistency,
        Invariant::ExistenceConsistency,
        Invariant::EarlyVsFull,
        Invariant::SerialVsParallel,
        Invariant::PredicateWeakening,
        Invariant::PrunedVsUnpruned,
        Invariant::MappedVsHeap,
        Invariant::AdaptiveVsForced,
        Invariant::EditedVsRebuilt,
        Invariant::CatalogVsSerial,
        Invariant::SubscribedVsSolo,
    ];

    /// Stable snake_case name (used in `.t2s` corpus files and the obs
    /// sidecar).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::CrossEngine => "cross_engine",
            Invariant::CountConsistency => "count_consistency",
            Invariant::ExistenceConsistency => "existence_consistency",
            Invariant::EarlyVsFull => "early_vs_full",
            Invariant::SerialVsParallel => "serial_vs_parallel",
            Invariant::PredicateWeakening => "predicate_weakening",
            Invariant::PrunedVsUnpruned => "pruned_vs_unpruned",
            Invariant::MappedVsHeap => "mapped_vs_heap",
            Invariant::AdaptiveVsForced => "adaptive_vs_forced",
            Invariant::EditedVsRebuilt => "edited_vs_rebuilt",
            Invariant::CatalogVsSerial => "catalog_vs_serial",
            Invariant::SubscribedVsSolo => "subscribed_vs_solo",
        }
    }

    /// Inverse of [`Invariant::name`].
    pub fn from_name(name: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.name() == name)
    }
}

/// Result of checking one invariant on one pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The invariant held.
    Passed,
    /// The query shape falls outside this invariant's soundness
    /// conditions; nothing was asserted.
    Skipped(&'static str),
    /// The invariant was violated.
    Failed(String),
}

/// Aggregate outcome of running all invariants on one pair.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Invariants that held.
    pub passed: usize,
    /// Invariants skipped for shape reasons.
    pub skipped: usize,
    /// Violations: `(invariant, message)`.
    pub failures: Vec<(Invariant, String)>,
}

/// Run every invariant on the pair.
pub fn check_case(doc: &Document, gtp: &Gtp) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    for inv in Invariant::ALL {
        match check(doc, gtp, inv) {
            Outcome::Passed => out.passed += 1,
            Outcome::Skipped(_) => out.skipped += 1,
            Outcome::Failed(msg) => out.failures.push((inv, msg)),
        }
    }
    out
}

/// Guard against pathological pairs whose result sets would dominate
/// the smoke budget (6-wildcard descendant chains over deep documents).
const MAX_ROWS: usize = 50_000;

/// Check one invariant on one pair.
pub fn check(doc: &Document, gtp: &Gtp, inv: Invariant) -> Outcome {
    let analysis = QueryAnalysis::new(gtp);
    if !analysis.enumerable() {
        return Outcome::Skipped("query is not enumerable");
    }
    if analysis.columns().is_empty() {
        return Outcome::Skipped("query has no output columns");
    }
    match inv {
        Invariant::CrossEngine => cross_engine(doc, gtp),
        Invariant::CountConsistency => count_consistency(doc, gtp),
        Invariant::ExistenceConsistency => existence_consistency(doc, gtp),
        Invariant::EarlyVsFull => early_vs_full(doc, gtp),
        Invariant::SerialVsParallel => serial_vs_parallel(doc, gtp),
        Invariant::PredicateWeakening => predicate_weakening(doc, gtp, &analysis),
        Invariant::PrunedVsUnpruned => pruned_vs_unpruned(doc, gtp),
        Invariant::MappedVsHeap => mapped_vs_heap(doc, gtp),
        Invariant::AdaptiveVsForced => adaptive_vs_forced(doc, gtp),
        Invariant::EditedVsRebuilt => check_script(doc, gtp, &derive_script(doc, gtp)),
        Invariant::CatalogVsSerial => catalog_vs_serial(doc, gtp),
        Invariant::SubscribedVsSolo => subscribed_vs_solo(doc, gtp),
    }
}

fn diff(engine: &str, got: &ResultSet, expected: &ResultSet) -> Outcome {
    Outcome::Failed(format!(
        "{engine} differs from oracle: {} vs {} rows",
        got.len(),
        expected.len()
    ))
}

fn cross_engine(doc: &Document, gtp: &Gtp) -> Outcome {
    let expected = naive_evaluate(doc, gtp);
    if expected.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    if !expected.is_duplicate_free() {
        return Outcome::Failed("oracle produced duplicate rows".to_string());
    }
    // Twig²Stack, with the existence-checking optimization off and on.
    for existence_opt in [false, true] {
        let (tm, _) = match_document(doc, gtp, MatchOptions { existence_opt });
        let got = enumerate(&tm);
        if got != expected {
            return diff(
                if existence_opt {
                    "twig2stack(existence_opt)"
                } else {
                    "twig2stack"
                },
                &got,
                &expected,
            );
        }
    }
    // Streaming entry point (structure-only: no value predicates).
    if !gtp.has_value_preds() {
        let xml = write(doc, Indent::None);
        match evaluate_streaming(&xml, gtp, MatchOptions::default()) {
            Ok((got, _)) => {
                if got != expected {
                    return diff("streaming", &got, &expected);
                }
            }
            Err(e) => return Outcome::Failed(format!("streaming re-parse failed: {e}")),
        }
    }
    // Classic baselines on the query shapes they support. Row order is
    // not part of their contracts, so compare sorted.
    if is_full_twig(gtp) {
        let expected_sorted = expected.clone().sorted();
        let index = ElementIndex::build(doc);
        let owned = build_streams(&index, doc.labels(), gtp);
        let streams: Vec<SliceStream<'_>> = owned.iter().map(|v| SliceStream::new(v)).collect();
        let mut ts = TwigStackStats::default();
        let got = twigbaselines::twig_stack(gtp, streams, &mut ts).sorted();
        if got != expected_sorted {
            return diff("twigstack", &got, &expected_sorted);
        }
        let dewey = DeweyIndex::build(doc);
        let resolver = DeweyResolver::build(&dewey, doc.labels());
        let mut tjs = TJFastStats::default();
        let got = tj_fast(gtp, &dewey, doc.labels(), &resolver, &mut tjs).sorted();
        if got != expected_sorted {
            return diff("tjfast", &got, &expected_sorted);
        }
        if is_linear(gtp) {
            let streams: Vec<SliceStream<'_>> = owned.iter().map(|v| SliceStream::new(v)).collect();
            let mut ps = PathStackStats::default();
            let sols = path_stack(gtp, streams, &mut ps);
            let mut got = ResultSet::new(sols.path.clone());
            for row in sols.solutions {
                got.push(row.into_iter().map(Cell::Node).collect());
            }
            let got = got.sorted();
            if got != expected_sorted {
                return diff("pathstack", &got, &expected_sorted);
            }
        }
    }
    Outcome::Passed
}

fn count_consistency(doc: &Document, gtp: &Gtp) -> Outcome {
    for existence_opt in [false, true] {
        let (tm, _) = match_document(doc, gtp, MatchOptions { existence_opt });
        let counted = count_results(&tm);
        let rows = enumerate(&tm);
        if rows.len() > MAX_ROWS {
            return Outcome::Skipped("result set too large for the smoke budget");
        }
        if counted != rows.len() as u64 {
            return Outcome::Failed(format!(
                "count()={counted} but enumerate() produced {} rows (existence_opt={existence_opt})",
                rows.len()
            ));
        }
    }
    Outcome::Passed
}

fn existence_consistency(doc: &Document, gtp: &Gtp) -> Outcome {
    let exists = naive_exists(doc, gtp);
    let rows = evaluate(doc, gtp);
    if rows.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    if exists == rows.is_empty() {
        return Outcome::Failed(format!(
            "exists()={exists} but enumeration produced {} rows",
            rows.len()
        ));
    }
    Outcome::Passed
}

fn early_vs_full(doc: &Document, gtp: &Gtp) -> Outcome {
    let expected = naive_evaluate(doc, gtp);
    if expected.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    for existence_opt in [false, true] {
        match evaluate_early(doc, gtp, MatchOptions { existence_opt }) {
            Ok((got, _)) => {
                if got != expected {
                    return diff("early enumeration", &got, &expected);
                }
            }
            Err(_) => return Outcome::Skipped("query shape unsupported by the early mode"),
        }
    }
    Outcome::Passed
}

fn serial_vs_parallel(doc: &Document, gtp: &Gtp) -> Outcome {
    let serial = evaluate(doc, gtp);
    if serial.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    for threads in [2, 4] {
        let got = evaluate_parallel(doc, gtp, threads);
        if got != serial {
            return Outcome::Failed(format!(
                "parallel({threads} threads) produced {} rows, serial {}",
                got.len(),
                serial.len()
            ));
        }
    }
    Outcome::Passed
}

/// Weakening is only row-wise monotone when every output cell is a
/// plain node: group cells aggregate (a weaker query yields *longer*
/// lists, not more rows) and optional edges introduce nulls that can
/// *replace* rows. Within those gates, removing a conjunct can only
/// grow the set of satisfying assignments.
fn predicate_weakening(doc: &Document, gtp: &Gtp, analysis: &QueryAnalysis) -> Outcome {
    if gtp.iter().any(|q| gtp.role(q) == Role::GroupReturn) {
        return Outcome::Skipped("group cells are not row-wise monotone");
    }
    if gtp.iter().any(|q| gtp.edge(q).is_some_and(|e| e.optional)) {
        return Outcome::Skipped("optional edges are not row-wise monotone");
    }
    let weaker = if let Some(q) = gtp.iter().find(|&q| gtp.value_pred(q).is_some()) {
        let mut w = gtp.clone();
        w.set_value_pred(q, None);
        Some(w)
    } else {
        // Drop a mandatory, non-output leaf that is not part of a
        // multi-member OR-group (removing an OR alternative would
        // *strengthen* the disjunction).
        gtp.iter()
            .find(|&q| {
                q != gtp.root()
                    && gtp.is_leaf(q)
                    && gtp.role(q) == Role::NonReturn
                    && group_members(gtp, q).len() == 1
            })
            .and_then(|q| copy_without(gtp, q))
    };
    let Some(weak) = weaker else {
        return Outcome::Skipped("no removable predicate");
    };
    let wa = QueryAnalysis::new(&weak);
    if !wa.enumerable() || wa.columns().len() != analysis.columns().len() {
        return Outcome::Skipped("weakened query changed the output schema");
    }
    let strong_rows = evaluate(doc, gtp);
    let weak_rows = evaluate(doc, &weak);
    if weak_rows.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    // Within the gates above every cell is a plain node, so rows can be
    // compared as `Vec<NodeId>` keys.
    let key = |row: &Vec<Cell>| -> Option<Vec<xmldom::NodeId>> {
        row.iter()
            .map(|c| match c {
                Cell::Node(n) => Some(*n),
                _ => None,
            })
            .collect()
    };
    let mut weak_sorted = Vec::with_capacity(weak_rows.len());
    for row in &weak_rows.rows {
        let Some(k) = key(row) else {
            return Outcome::Skipped("non-node cell under the weakening gates");
        };
        weak_sorted.push(k);
    }
    weak_sorted.sort();
    for row in &strong_rows.rows {
        let Some(k) = key(row) else {
            return Outcome::Skipped("non-node cell under the weakening gates");
        };
        if weak_sorted.binary_search(&k).is_err() {
            return Outcome::Failed(format!(
                "row present under the stronger query but missing after weakening \
                 ({} strong rows, {} weak rows)",
                strong_rows.len(),
                weak_rows.len()
            ));
        }
    }
    Outcome::Passed
}

/// Pruning soundness: the path-summary filtered, skip-scanning pipelines
/// must equal the full-scan pipelines exactly — on the core engine for
/// every GTP shape, and on each classic baseline's indexed driver for the
/// shapes it accepts (sorted there: row order is not part of their
/// contracts).
fn pruned_vs_unpruned(doc: &Document, gtp: &Gtp) -> Outcome {
    let expected = evaluate(doc, gtp);
    if expected.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    let index = ElementIndex::build(doc);
    let pruned = evaluate_indexed(doc, &index, gtp, PruningPolicy::Enabled);
    if pruned != expected {
        return diff("twig2stack(pruned)", &pruned, &expected);
    }
    let unpruned = evaluate_indexed(doc, &index, gtp, PruningPolicy::Disabled);
    if unpruned != expected {
        return diff("twig2stack(indexed, full-scan)", &unpruned, &expected);
    }
    if is_full_twig(gtp) {
        let expected_sorted = expected.clone().sorted();
        let mut ts = TwigStackStats::default();
        let got =
            twig_stack_indexed(&index, doc.labels(), gtp, PruningPolicy::Enabled, &mut ts).sorted();
        if got != expected_sorted {
            return diff("twigstack(pruned)", &got, &expected_sorted);
        }
        let dewey = DeweyIndex::build(doc);
        let resolver = DeweyResolver::build(&dewey, doc.labels());
        let mut tjs = TJFastStats::default();
        let got = tj_fast_indexed(
            gtp,
            &dewey,
            index.summary(),
            doc.labels(),
            &resolver,
            PruningPolicy::Enabled,
            &mut tjs,
        )
        .sorted();
        if got != expected_sorted {
            return diff("tjfast(pruned)", &got, &expected_sorted);
        }
        if is_linear(gtp) {
            let mut ps = PathStackStats::default();
            let sols =
                path_stack_indexed(&index, doc.labels(), gtp, PruningPolicy::Enabled, &mut ps);
            let mut got = ResultSet::new(sols.path.clone());
            for row in sols.solutions {
                got.push(row.into_iter().map(Cell::Node).collect());
            }
            let got = got.sorted();
            if got != expected_sorted {
                return diff("pathstack(pruned)", &got, &expected_sorted);
            }
        }
    }
    Outcome::Passed
}

/// Zero-copy equivalence: round-trip the document through the v3 mapped
/// format and re-evaluate — results must be byte-identical to the heap
/// index's, the matcher must do identical work, and (when the obs layer
/// is compiled in) the streams must scan and skip exactly the same
/// element counts. Catches any divergence between the two backends'
/// postings, block-max tables, or summaries.
fn mapped_vs_heap(doc: &Document, gtp: &Gtp) -> Outcome {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);

    let expected = evaluate(doc, gtp);
    if expected.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    let path = std::env::temp_dir().join(format!(
        "t2s-fuzz-mapped-{}-{}.t2sidx",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = xmlindex::write_mapped_index(doc, &path) {
        return Outcome::Failed(format!("v3 write failed: {e}"));
    }
    let mapped = match MappedIndex::open(&path) {
        Ok(m) => m,
        Err(e) => {
            std::fs::remove_file(&path).ok();
            return Outcome::Failed(format!("v3 open failed: {e}"));
        }
    };
    let index = ElementIndex::build(doc);
    // Bracket each arm's counters with take(), accumulating into a local
    // carry that is re-absorbed once at the end — absorbing between
    // iterations would leak one arm's counts into the next comparison.
    let mut carried = twigobs::take();
    let mut failure = None;
    for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
        let (tm, hs) = twig2stack::match_indexed(doc, &index, gtp, MatchOptions::default(), policy);
        let heap_rs = enumerate(&tm);
        let heap_obs = twigobs::take();
        let (tm, ms) =
            twig2stack::match_indexed(doc, &mapped, gtp, MatchOptions::default(), policy);
        let mapped_rs = enumerate(&tm);
        let mapped_obs = twigobs::take();
        carried.merge(&heap_obs);
        carried.merge(&mapped_obs);
        if mapped_rs != heap_rs {
            failure = Some(format!(
                "mapped != heap results under {policy:?}: {} vs {} rows",
                mapped_rs.len(),
                heap_rs.len()
            ));
            break;
        }
        if mapped_rs != expected {
            failure = Some(format!(
                "mapped != oracle under {policy:?}: {} vs {} rows",
                mapped_rs.len(),
                expected.len()
            ));
            break;
        }
        if ms != hs {
            failure = Some(format!(
                "matcher work differs under {policy:?}: {ms:?} vs {hs:?}"
            ));
            break;
        }
        for c in [
            twigobs::Counter::ElementsScanned,
            twigobs::Counter::ElementsPruned,
            twigobs::Counter::StreamSkips,
        ] {
            if mapped_obs.get(c) != heap_obs.get(c) {
                failure = Some(format!(
                    "counter {c:?} differs under {policy:?}: {} vs {}",
                    mapped_obs.get(c),
                    heap_obs.get(c)
                ));
                break;
            }
        }
        if failure.is_some() {
            break;
        }
    }
    twigobs::absorb(&carried);
    std::fs::remove_file(&path).ok();
    match failure {
        Some(msg) => Outcome::Failed(msg),
        None => Outcome::Passed,
    }
}

/// Planner soundness end to end: the same query answered through a
/// [`twigserve::QueryService`] in adaptive mode and with each fixed
/// pruning policy must produce exactly the rows of serial DOM
/// evaluation — the planner may only choose between proven-equivalent
/// configurations.
fn adaptive_vs_forced(doc: &Document, gtp: &Gtp) -> Outcome {
    use twigserve::{PlannerMode, QueryService, ServiceConfig};

    // The service takes query *text*; the canonical serialization
    // round-trips every generated GTP, but re-parsing renumbers query
    // nodes (and with them the result schema), so the oracle must
    // evaluate the round-tripped form, not the original.
    let query = gtpquery::serialize(gtp);
    let canonical = match gtpquery::parse_twig(&query) {
        Ok(g) => g,
        Err(e) => {
            return Outcome::Failed(format!(
                "canonical serialization failed to re-parse ({query}): {e}"
            ))
        }
    };
    let expected = evaluate(doc, &canonical);
    if expected.len() > MAX_ROWS {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    let index = ElementIndex::build(doc);
    let modes = [
        ("adaptive", PlannerMode::Adaptive),
        ("fixed(enabled)", PlannerMode::Fixed(PruningPolicy::Enabled)),
        ("fixed(disabled)", PlannerMode::Fixed(PruningPolicy::Disabled)),
    ];
    for (label, mode) in modes {
        let svc = QueryService::new(
            doc.clone(),
            index.clone(),
            ServiceConfig {
                planner: mode,
                ..ServiceConfig::default()
            },
        );
        match svc.execute(&query) {
            Ok(got) => {
                if got != expected {
                    return Outcome::Failed(format!(
                        "service({label}) differs from oracle: {} vs {} rows",
                        got.len(),
                        expected.len()
                    ));
                }
            }
            Err(e) => {
                return Outcome::Failed(format!("service({label}) failed: {e}"));
            }
        }
    }
    Outcome::Passed
}

/// Derive a three-member catalog from the fuzzed pair — the document
/// twice (identical summary fingerprint, so the shards must share one
/// schema plan) around a label-disjoint decoy the Bloom router should
/// skip whenever the query names any required label — and hand it to
/// [`check_catalog`].
fn catalog_vs_serial(doc: &Document, gtp: &Gtp) -> Outcome {
    let decoy = xmldom::parse("<zq9><zq9/></zq9>").expect("static decoy parses");
    check_catalog(&[doc.clone(), decoy, doc.clone()], gtp)
}

/// The harness behind [`Invariant::CatalogVsSerial`], shared with corpus
/// replay (a `.t2s` file's `docs =` key routes here with the stored
/// member list instead of the derived three-member catalog).
///
/// Asserts, for 1-shard and 3-shard partitionings of `members`:
/// * serial catalog iteration equals the per-member naive-order oracle
///   (one [`evaluate`] per member, empty members dropped, doc-id order);
/// * the Bloom router routes every member that has at least one hit
///   (zero false negatives);
/// * async scatter-gather over the shard pool returns exactly the
///   serial hits — same doc ids, same rows, same order.
pub fn check_catalog(members: &[Document], gtp: &Gtp) -> Outcome {
    use twigserve::{CatalogConfig, CatalogService};

    if members.is_empty() {
        return Outcome::Skipped("empty catalog");
    }
    // Same round-trip caveat as `adaptive_vs_forced`: the catalog takes
    // query *text*, and re-parsing the canonical serialization renumbers
    // query nodes, so the oracle must evaluate the round-tripped form.
    let query = gtpquery::serialize(gtp);
    let canonical = match gtpquery::parse_twig(&query) {
        Ok(g) => g,
        Err(e) => {
            return Outcome::Failed(format!(
                "canonical serialization failed to re-parse ({query}): {e}"
            ))
        }
    };
    let mut expected: Vec<(u32, ResultSet)> = Vec::new();
    let mut total_rows = 0usize;
    for (id, member) in members.iter().enumerate() {
        let rows = evaluate(member, &canonical);
        total_rows += rows.len();
        if total_rows > MAX_ROWS {
            return Outcome::Skipped("result set too large for the smoke budget");
        }
        if !rows.is_empty() {
            expected.push((id as u32, rows));
        }
    }
    for shards in [1, 3] {
        let cat = CatalogService::build_heap(
            members.to_vec(),
            CatalogConfig {
                shards,
                ..CatalogConfig::default()
            },
        );
        let routed = match cat.routed_docs(&query) {
            Ok(ids) => ids,
            Err(e) => return Outcome::Failed(format!("routing failed ({shards} shards): {e}")),
        };
        for (id, _) in &expected {
            if !routed.contains(id) {
                return Outcome::Failed(format!(
                    "routing false negative: doc {id} has matches but was not \
                     routed ({shards} shards)"
                ));
            }
        }
        let serial = match cat.execute_serial(&query) {
            Ok(hits) => hits,
            Err(e) => {
                return Outcome::Failed(format!("serial iteration failed ({shards} shards): {e}"))
            }
        };
        let serial_pairs: Vec<(u32, &ResultSet)> =
            serial.iter().map(|h| (h.doc, &h.rows)).collect();
        let expected_pairs: Vec<(u32, &ResultSet)> =
            expected.iter().map(|(id, rows)| (*id, rows)).collect();
        if serial_pairs != expected_pairs {
            return Outcome::Failed(format!(
                "serial catalog iteration differs from the per-member oracle: \
                 {} vs {} hits ({shards} shards)",
                serial.len(),
                expected.len()
            ));
        }
        let scattered = match cat.execute(&query) {
            Ok(hits) => hits,
            Err(e) => {
                return Outcome::Failed(format!("scatter-gather failed ({shards} shards): {e}"))
            }
        };
        if scattered != serial {
            return Outcome::Failed(format!(
                "scatter-gather differs from serial iteration: {} vs {} hits \
                 ({shards} shards)",
                scattered.len(),
                serial.len()
            ));
        }
    }
    Outcome::Passed
}

/// Derive a three-member subscription set from the fuzzed pair — the
/// query itself, a `//*` sibling that keeps every automaton state busy,
/// and a duplicate of the query (duplicate registrations must stay
/// independent) — and hand it to [`check_subscriptions`].
fn subscribed_vs_solo(doc: &Document, gtp: &Gtp) -> Outcome {
    let wild = gtpquery::parse_twig("//*").expect("static wildcard parses");
    check_subscriptions(doc, &[gtp.clone(), wild, gtp.clone()])
}

/// The harness behind [`Invariant::SubscribedVsSolo`], shared with
/// corpus replay (a `.t2s` file's `subs =` key routes here with the
/// stored query list instead of the derived three-member set).
///
/// Registers `subs` into one shared prefix-merged automaton
/// (`twig2stack::subscribe`) and asserts:
/// * **DOM path** — one `run_subscriptions_doc` pass over `doc` yields,
///   per subscription, rows byte-equal to that query's solo
///   [`evaluate`] (value predicates included: the document is the text
///   source);
/// * **stream path** (only when no subscription has a value predicate —
///   the structure-only stream drops text) — one `run_subscriptions`
///   pass over the serialized document equals each query's solo
///   [`evaluate_streaming`] run, byte for byte;
/// * **duplicate independence** — subscriptions with identical
///   canonical serializations produce identical results;
/// * the NFA's relevance filter never feeds a matcher more closes than
///   the stream has elements per subscription.
pub fn check_subscriptions(doc: &Document, subs: &[Gtp]) -> Outcome {
    use twig2stack::{run_subscriptions, run_subscriptions_doc, SharedAutomaton};

    if subs.is_empty() {
        return Outcome::Skipped("no subscriptions");
    }
    if doc.is_empty() {
        return Outcome::Skipped("empty document has no event stream");
    }
    for (i, sub) in subs.iter().enumerate() {
        let a = QueryAnalysis::new(sub);
        if !a.enumerable() || a.columns().is_empty() {
            return Outcome::Skipped(if i == 0 {
                "query is not enumerable"
            } else {
                "a sibling subscription is not enumerable"
            });
        }
    }
    let mut total_rows = 0usize;
    let mut expected = Vec::with_capacity(subs.len());
    for sub in subs {
        let rows = evaluate(doc, sub);
        total_rows += rows.len();
        if total_rows > MAX_ROWS {
            return Outcome::Skipped("result set too large for the smoke budget");
        }
        expected.push(rows);
    }

    let auto = SharedAutomaton::build(subs.to_vec());
    let (dom_results, stats) = run_subscriptions_doc(doc, &auto, MatchOptions::default());
    for (i, (got, want)) in dom_results.iter().zip(&expected).enumerate() {
        if got != want {
            return Outcome::Failed(format!(
                "subscription {i} diverged from its solo DOM run: {} vs {} rows",
                got.len(),
                want.len()
            ));
        }
    }
    if stats.matcher_feeds > stats.elements * subs.len() as u64 {
        return Outcome::Failed(format!(
            "relevance filter fed {} matcher closes for {} elements x {} \
             subscriptions",
            stats.matcher_feeds,
            stats.elements,
            subs.len()
        ));
    }
    // Duplicate independence: equal canonical forms, equal results.
    for i in 0..subs.len() {
        for j in i + 1..subs.len() {
            if gtpquery::serialize(&subs[i]) == gtpquery::serialize(&subs[j])
                && dom_results[i] != dom_results[j]
            {
                return Outcome::Failed(format!(
                    "duplicate registrations {i} and {j} diverged: {} vs {} rows",
                    dom_results[i].len(),
                    dom_results[j].len()
                ));
            }
        }
    }

    if subs.iter().any(Gtp::has_value_preds) {
        return Outcome::Passed; // stream path cannot see text
    }
    let xml = write(doc, Indent::None);
    let (stream_results, _) = match run_subscriptions(&xml, &auto, MatchOptions::default()) {
        Ok(out) => out,
        Err(e) => return Outcome::Failed(format!("shared stream pass failed: {e}")),
    };
    for (i, (sub, got)) in subs.iter().zip(&stream_results).enumerate() {
        match evaluate_streaming(&xml, sub, MatchOptions::default()) {
            Ok((want, _)) => {
                if *got != want {
                    return Outcome::Failed(format!(
                        "subscription {i} diverged from its solo evaluate_streaming \
                         run: {} vs {} rows",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => return Outcome::Failed(format!("solo stream re-parse failed: {e}")),
        }
    }
    Outcome::Passed
}

/// The harness behind [`Invariant::EditedVsRebuilt`], shared with corpus
/// replay (a `.t2s` file's `edits =` key routes here with the stored
/// script instead of the derived one).
///
/// Replays `script` against `doc`, maintaining **one** index
/// incrementally across the whole chain while rebuilding a fresh index
/// at every step, and demands the two be structurally identical —
/// element partitions, sid tags, skip-block tables, and the path
/// summary — whether the step was patched in place or fell back to a
/// rebuild. On the final document the incrementally-maintained index
/// must also produce byte-equal query results to the rebuilt one and to
/// the naive oracle, pruned and unpruned: structural equality proves
/// the encoding, the query pass proves the index is actually usable.
///
/// The same script then drives a [`twigserve::SubscriptionService`]
/// holding the query and a `//*` sibling, and every notification must
/// equal the brute-force delta ([`check_notifications`]).
pub fn check_script(doc: &Document, gtp: &Gtp, script: &EditScript) -> Outcome {
    let steps = match script.apply(doc) {
        Ok(s) => s,
        Err(e) => return Outcome::Failed(format!("edit script is not applicable: {e}")),
    };
    if steps.is_empty() {
        return Outcome::Skipped("empty edit script");
    }
    let mut patched = ElementIndex::build(doc);
    for (step, (edited, delta)) in steps.iter().enumerate() {
        let (next, how) = patched.apply_edit(edited, delta);
        patched = next;
        let rebuilt = ElementIndex::build(edited);
        if let Some(msg) = index_diff(&patched, &rebuilt, edited) {
            let how = match how {
                EditApply::Patched => "patched",
                EditApply::Rebuilt => "rebuilt",
            };
            return Outcome::Failed(format!("step {step} ({how}): {msg}"));
        }
    }
    let (last, _) = steps.last().expect("non-empty steps");
    let analysis = QueryAnalysis::new(gtp);
    if !last.is_empty() && analysis.enumerable() && !analysis.columns().is_empty() {
        let expected = naive_evaluate(last, gtp);
        if expected.len() > MAX_ROWS {
            return Outcome::Skipped("result set too large for the smoke budget");
        }
        let rebuilt = ElementIndex::build(last);
        for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
            let inc = evaluate_indexed(last, &patched, gtp, policy);
            let fresh = evaluate_indexed(last, &rebuilt, gtp, policy);
            if inc != fresh {
                return diff("edited index", &inc, &fresh);
            }
            if inc != expected {
                return diff("edited index vs naive oracle", &inc, &expected);
            }
        }
    }
    if !analysis.enumerable() || analysis.columns().is_empty() {
        return Outcome::Passed;
    }
    // Every state of the chain; op `i` addresses `states[i]`.
    let states = std::iter::once(doc).chain(steps.iter().map(|(d, _)| d));
    let rows = |d: &Document| count_results(&match_document(d, gtp, MatchOptions::default()).0);
    if states.clone().any(|d| rows(d) > MAX_ROWS as u64) {
        return Outcome::Skipped("result set too large for the smoke budget");
    }
    let ops = match script
        .ops
        .iter()
        .zip(states)
        .map(|(sop, d)| sop.to_edit_op(d))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(ops) => ops,
        Err(e) => return Outcome::Failed(format!("edit script does not lower: {e}")),
    };
    let wild = gtpquery::parse_twig("//*").expect("static wildcard parses");
    check_notifications(doc, &[gtp.clone(), wild], &ops)
}

/// The brute-force notification oracle: the `(added, removed)` delta a
/// subscription must publish when its match set goes from `old` to `new`
/// across a rotation that applied `deltas`. Every old row is carried into
/// the new snapshot's ids through the composed [`EditDelta::map_id`]; a
/// row with any id that is gone (a group that lost a member included)
/// counts as removed. Membership is hash-set based, independent of the
/// service's ordered merge. `added` keeps `new`'s row order and ids,
/// `removed` keeps `old`'s.
pub fn expected_notification(
    old: &ResultSet,
    deltas: &[EditDelta],
    new: &ResultSet,
) -> (ResultSet, ResultSet) {
    let map = |n: &NodeId| {
        deltas
            .iter()
            .try_fold(n.index() as u32, |id, d| d.map_id(id))
            .map(|id| NodeId::from_index(id as usize))
    };
    let carried: Vec<Option<Vec<Cell>>> = old
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    Cell::Node(n) => map(n).map(Cell::Node),
                    Cell::Null => Some(Cell::Null),
                    Cell::Group(g) => g.iter().map(map).collect::<Option<_>>().map(Cell::Group),
                })
                .collect()
        })
        .collect();
    let old_set: HashSet<&Vec<Cell>> = carried.iter().flatten().collect();
    let new_set: HashSet<&Vec<Cell>> = new.rows.iter().collect();
    let mut added = ResultSet::new(new.columns.clone());
    for row in new.rows.iter().filter(|r| !old_set.contains(r)) {
        added.push(row.clone());
    }
    let mut removed = ResultSet::new(old.columns.clone());
    for (row, c) in old.rows.iter().zip(&carried) {
        if !c.as_ref().is_some_and(|c| new_set.contains(c)) {
            removed.push(row.clone());
        }
    }
    (added, removed)
}

/// Drive `ops` through a [`twigserve::SubscriptionService`] holding
/// `queries` twice — op by op with `apply_edit`, then as one
/// `apply_edits` batch on a fresh service — and demand after every
/// rotation that each subscription's published `matches()` equals a solo
/// [`evaluate`] on the rotated snapshot, and that its notification
/// equals [`expected_notification`] row for row, in order (no
/// notification when that delta is empty). `ops[i]` addresses the
/// document as it stands after `ops[..i]`.
pub fn check_notifications(doc: &Document, queries: &[Gtp], ops: &[EditOp]) -> Outcome {
    use twigserve::{QueryService, ServiceConfig, SubscriptionService};

    // Registration takes query text; the oracle evaluates the re-parsed
    // form, whose query-node numbering (the result schema) the service
    // shares.
    let texts: Vec<String> = queries.iter().map(gtpquery::serialize).collect();
    let gtps = match texts
        .iter()
        .map(|t| gtpquery::parse_twig(t))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(g) => g,
        Err(e) => {
            return Outcome::Failed(format!("canonical serialization failed to re-parse: {e}"))
        }
    };
    let subscribe = || -> Result<_, String> {
        let svc = QueryService::build(doc.clone(), ServiceConfig::default());
        let subs = SubscriptionService::new(std::sync::Arc::new(svc));
        let ids = texts
            .iter()
            .map(|t| subs.register(t).map_err(|e| format!("register {t}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((subs, ids))
    };
    let run = || -> Result<(), String> {
        let (subs, ids) = subscribe()?;
        for (step, op) in ops.iter().enumerate() {
            check_rotation(&subs, &ids, &gtps, || {
                let (r, notes) = subs.apply_edit(op).map_err(|e| e.to_string())?;
                Ok((r.version, vec![r.delta], notes))
            })
            .map_err(|e| format!("step {step}: {e}"))?;
        }
        let (subs, ids) = subscribe()?;
        check_rotation(&subs, &ids, &gtps, || {
            let (r, notes) = subs.apply_edits(ops).map_err(|e| e.to_string())?;
            Ok((r.version, r.deltas, notes))
        })
        .map_err(|e| format!("batch of {}: {e}", ops.len()))
    };
    match run() {
        Ok(()) => Outcome::Passed,
        Err(msg) => Outcome::Failed(msg),
    }
}

/// One rotation of [`check_notifications`]: snapshot every published set,
/// `rotate`, then check each subscription (`ids[i]` runs `gtps[i]`)
/// against the oracle. `rotate` returns the published version, the
/// rotation's deltas in application order, and the notifications.
fn check_rotation(
    subs: &twigserve::SubscriptionService,
    ids: &[twigserve::SubscriptionId],
    gtps: &[Gtp],
    rotate: impl FnOnce() -> Result<(u64, Vec<EditDelta>, Vec<twigserve::SubNotification>), String>,
) -> Result<(), String> {
    let before: Vec<ResultSet> = ids
        .iter()
        .map(|&id| {
            subs.matches(id)
                .expect("registered subscriptions stay live")
        })
        .collect();
    let (version, deltas, notes) = rotate()?;
    let snap = subs.service().snapshot();
    let mut notes = notes.into_iter().peekable();
    for ((&id, gtp), old) in ids.iter().zip(gtps).zip(&before) {
        let new = evaluate(snap.doc(), gtp);
        let i = id.index();
        if subs.matches(id).as_ref() != Some(&new) {
            return Err(format!(
                "subscription {i}: published set differs from solo evaluate"
            ));
        }
        let (added, removed) = expected_notification(old, &deltas, &new);
        match notes.next_if(|n| n.sub == id) {
            None if added.is_empty() && removed.is_empty() => {}
            None => return Err(format!("subscription {i}: changed but not notified")),
            Some(n) if n.version != version => {
                return Err(format!(
                    "subscription {i}: version {} vs {version}",
                    n.version
                ))
            }
            Some(n) if n.added != added || n.removed != removed => {
                return Err(format!(
                    "subscription {i}: added {} vs oracle {}, removed {} vs oracle {} rows",
                    n.added.len(),
                    added.len(),
                    n.removed.len(),
                    removed.len()
                ))
            }
            Some(_) => {}
        }
    }
    match notes.next() {
        Some(n) => Err(format!(
            "unexpected notification for subscription {}",
            n.sub.index()
        )),
        None => Ok(()),
    }
}

/// First structural difference between an incrementally-patched index
/// and a rebuilt one, or `None` when they are identical.
fn index_diff(patched: &ElementIndex, rebuilt: &ElementIndex, doc: &Document) -> Option<String> {
    if patched.label_count() != rebuilt.label_count() {
        return Some(format!(
            "label_count {} vs rebuilt {}",
            patched.label_count(),
            rebuilt.label_count()
        ));
    }
    for ix in 0..doc.labels().len() {
        let l = Label::from_index(ix);
        if patched.elements(l) != rebuilt.elements(l) {
            return Some(format!("label {ix}: element partition differs"));
        }
        if patched.sids(l) != rebuilt.sids(l) {
            return Some(format!("label {ix}: sid tags differ"));
        }
        if patched.blocks(l) != rebuilt.blocks(l) {
            return Some(format!("label {ix}: skip-block table differs"));
        }
    }
    if patched.path_summary() != rebuilt.path_summary() {
        return Some("path summary differs".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtpquery::parse_twig;
    use xmldom::parse;

    fn all_pass(xml: &str, query: &str) {
        let doc = parse(xml).unwrap();
        let gtp = parse_twig(query).unwrap();
        let out = check_case(&doc, &gtp);
        assert!(out.failures.is_empty(), "{query}: {:?}", out.failures);
        assert!(out.passed >= 1, "{query}: everything skipped");
    }

    #[test]
    fn known_good_pairs_pass() {
        all_pass("<a><b><c/></b><b/></a>", "//a/b//c");
        all_pass("<a><b><c/></b><b/></a>", "//a[b]/b!");
        all_pass("<a><b>x</b><b>y</b></a>", "//a/b='x'");
        all_pass("<a><b/><c/></a>", "//a[b! or d!]");
        all_pass("<a><b/><c/></a>", "//a/?d");
        all_pass("<a><b/><b><c/></b></a>", "//a/b@[.//c!]");
    }

    #[test]
    fn boolean_queries_are_skipped() {
        let doc = parse("<a><b/></a>").unwrap();
        let gtp = parse_twig("//a!/b!").unwrap();
        for inv in Invariant::ALL {
            assert!(
                matches!(check(&doc, &gtp, inv), Outcome::Skipped(_)),
                "{}",
                inv.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::from_name(inv.name()), Some(inv));
        }
        assert_eq!(Invariant::from_name("nope"), None);
    }

    #[test]
    fn pruned_vs_unpruned_covers_gtp_extensions() {
        // Shapes the classic baselines reject still exercise the core
        // engine's pruned path: optional edges, OR-groups, value
        // predicates, wildcards.
        let doc = parse("<a><b>x</b><b><c/></b><d><b/></d></a>").unwrap();
        for q in ["//a/b[?c@]", "//a[b! or d!]/b", "//a/b='x'", "//*/b[c]"] {
            let gtp = parse_twig(q).unwrap();
            assert_eq!(
                check(&doc, &gtp, Invariant::PrunedVsUnpruned),
                Outcome::Passed,
                "{q}"
            );
        }
    }

    #[test]
    fn edited_vs_rebuilt_passes_on_known_pairs() {
        for (xml, q) in [
            ("<a><b><c/></b><b/></a>", "//a/b//c"),
            ("<a><b>x</b><b>y</b></a>", "//a/b='x'"),
            ("<a><b/><c/></a>", "//a[b! or d!]"),
        ] {
            let doc = parse(xml).unwrap();
            let gtp = parse_twig(q).unwrap();
            assert_eq!(
                check(&doc, &gtp, Invariant::EditedVsRebuilt),
                Outcome::Passed,
                "{q}"
            );
        }
    }

    #[test]
    fn check_script_covers_root_delete_and_revive() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        let gtp = parse_twig("//a/b").unwrap();
        let script =
            EditScript::parse("delete 0 ; insert - 0 <a><b/></a> ; insert 0 1 <c><b/></c>")
                .unwrap();
        assert_eq!(check_script(&doc, &gtp, &script), Outcome::Passed);
    }

    #[test]
    fn check_script_notifications_cover_renumber_revive_groups_and_optionals() {
        let doc = parse("<a><b><c/></b><b/><d/></a>").unwrap();
        let script = EditScript::parse(
            "insert 0 1 <b><c/><c/></b> ; insert 1 0 <c/> ; delete 5 ; delete 0 ; \
             insert - 0 <a><b/><b><c/></b></a> ; replace 1 <b><c/></b> ; insert 0 0 <d/>",
        )
        .unwrap();
        let steps = script.apply(&doc).unwrap();
        assert!(
            steps.iter().any(|(_, d)| d.renumbered),
            "no step renumbered"
        );
        assert!(
            steps.iter().any(|(d, _)| d.is_empty()),
            "no step emptied the document"
        );
        for q in ["//a/b//c", "//a/b[?c@]", "//a/b@[.//c!]", "//a[?d]/b"] {
            let gtp = parse_twig(q).unwrap();
            assert_eq!(check_script(&doc, &gtp, &script), Outcome::Passed, "{q}");
        }
    }

    #[test]
    fn expected_notification_retires_rows_that_lose_a_group_member() {
        let doc = parse("<a><b/><b/><c/></a>").unwrap();
        let gtp = parse_twig("//a/b@").unwrap();
        let old = evaluate(&doc, &gtp);
        let op = EditOp::DeleteSubtree {
            target: NodeId::from_index(2),
        };
        let (edited, delta) = xmldom::apply_op(&doc, &op).unwrap();
        let new = evaluate(&edited, &gtp);
        let (added, removed) = expected_notification(&old, &[delta], &new);
        assert_eq!(
            (added, removed),
            (new, old.clone()),
            "the group changed wholesale"
        );
        // A splice after every matched id changes nothing.
        let op = EditOp::DeleteSubtree {
            target: NodeId::from_index(3),
        };
        let (edited, delta) = xmldom::apply_op(&doc, &op).unwrap();
        let (added, removed) = expected_notification(&old, &[delta], &evaluate(&edited, &gtp));
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn check_script_fails_on_inapplicable_scripts() {
        let doc = parse("<a/>").unwrap();
        let gtp = parse_twig("//a").unwrap();
        let script = EditScript::parse("delete 99").unwrap();
        assert!(matches!(
            check_script(&doc, &gtp, &script),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn catalog_vs_serial_passes_on_known_pairs() {
        for (xml, q) in [
            ("<a><b><c/></b><b/></a>", "//a/b//c"),
            ("<a><b>x</b><b>y</b></a>", "//a/b='x'"),
            ("<a><b/><c/></a>", "//a[b! or d!]"),
            ("<a><b/></a>", "//q/z"), // no member matches anywhere
        ] {
            let doc = parse(xml).unwrap();
            let gtp = parse_twig(q).unwrap();
            assert_eq!(
                check(&doc, &gtp, Invariant::CatalogVsSerial),
                Outcome::Passed,
                "{q}"
            );
        }
    }

    #[test]
    fn check_catalog_accepts_heterogeneous_member_lists() {
        let members: Vec<_> = ["<a><b/></a>", "<x><y/></x>", "<a><b><b/></b></a>", "<a/>"]
            .iter()
            .map(|x| parse(x).unwrap())
            .collect();
        let gtp = parse_twig("//a/b").unwrap();
        assert_eq!(check_catalog(&members, &gtp), Outcome::Passed);
        assert!(matches!(check_catalog(&[], &gtp), Outcome::Skipped(_)));
    }

    #[test]
    fn subscribed_vs_solo_passes_on_known_pairs() {
        for (xml, q) in [
            ("<a><b><c/></b><b/></a>", "//a/b//c"),
            ("<a><b>x</b><b>y</b></a>", "//a/b='x'"), // DOM path only
            ("<a><b/><c/></a>", "//a[b! or d!]"),
            ("<a><b/><b><c/></b></a>", "//a/b[?c@]"),
            ("<a><b/></a>", "//q/z"), // matches nothing anywhere
        ] {
            let doc = parse(xml).unwrap();
            let gtp = parse_twig(q).unwrap();
            assert_eq!(
                check(&doc, &gtp, Invariant::SubscribedVsSolo),
                Outcome::Passed,
                "{q}"
            );
        }
    }

    #[test]
    fn check_subscriptions_accepts_explicit_query_lists() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let subs: Vec<_> = ["//a/b", "//b//c", "//*[b]", "//a/b"]
            .iter()
            .map(|q| parse_twig(q).unwrap())
            .collect();
        assert_eq!(check_subscriptions(&doc, &subs), Outcome::Passed);
        assert!(matches!(
            check_subscriptions(&doc, &[]),
            Outcome::Skipped(_)
        ));
    }

    #[test]
    fn weakening_gates_on_groups_and_optional() {
        let doc = parse("<a><b/></a>").unwrap();
        let g = parse_twig("//a/b@").unwrap();
        assert!(matches!(
            check(&doc, &g, Invariant::PredicateWeakening),
            Outcome::Skipped(_)
        ));
        let g = parse_twig("//a/?b").unwrap();
        assert!(matches!(
            check(&doc, &g, Invariant::PredicateWeakening),
            Outcome::Skipped(_)
        ));
    }
}
