//! # twigobs — engine observability for the Twig²Stack reproduction
//!
//! The paper's evaluation (§5, Figures 14–19, Table 1) argues from
//! *internal* quantities — elements scanned, stack entries pushed, result
//! edges created, results enumerated — not just wall-clock time. This
//! crate is the substrate that lets every engine in the workspace report
//! those quantities:
//!
//! * [`Counter`] — the typed counter vocabulary (one id per paper
//!   quantity, see the DESIGN.md §7 semantics table);
//! * [`Phase`] — the span vocabulary (parse, index build, match,
//!   enumerate, splice) with monotonic [`span`] timing;
//! * [`Metrics`] — one thread's accumulated counters and span totals,
//!   drained with [`take`] and folded across threads with [`absorb`];
//! * [`report::RunReport`] — a named, JSON-serializable aggregate written
//!   as the `*.metrics.json` sidecar of every experiment run.
//!
//! ## Zero cost when disabled
//!
//! All recording goes through three hot-path hooks — [`add`], [`bump`],
//! and [`span`] — which are *empty inline functions* unless the crate is
//! built with the `enabled` cargo feature. Consumers call them
//! unconditionally; with the feature off, the optimizer removes every
//! call site (verified by the `obs_overhead` criterion bench in
//! `twigbench`). The [`ENABLED`] constant reports which variant was
//! compiled in.
//!
//! ## Per-thread accumulators
//!
//! Counters and span totals live in a thread-local cell: recording never
//! synchronizes, so instrumenting a hot loop costs one thread-local add.
//! Multi-threaded engines (the parallel partitioned evaluator) drain each
//! worker's accumulator with [`take`] when a task finishes and fold it
//! into the coordinating thread with [`absorb`], so one final [`take`] on
//! the coordinator observes the whole run.
//!
//! ```
//! use twigobs::{bump, span, take, Counter, Phase};
//!
//! let _guard = span(Phase::Match);       // records on drop
//! bump(Counter::StackPushes);
//! drop(_guard);
//! let m = take();                        // drain this thread
//! let expect = if twigobs::ENABLED { 1 } else { 0 };
//! assert_eq!(m.get(Counter::StackPushes), expect);
//! assert_eq!(m.span_entries(Phase::Match), expect);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::RunReport;

use std::time::Duration;

/// `true` iff this build compiled the recording layer in (cargo feature
/// `enabled`); `false` means every hook in this crate is a no-op.
///
/// ```
/// // The constant mirrors the cargo feature exactly.
/// assert_eq!(twigobs::ENABLED, cfg!(feature = "enabled"));
/// ```
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Typed counter ids — the engine quantities the paper's evaluation
/// argues from. See DESIGN.md §7 for the table mapping each counter to
/// the paper quantity it reproduces.
///
/// ```
/// use twigobs::Counter;
/// assert_eq!(Counter::ALL.len(), 34);
/// assert_eq!(Counter::EdgesCreated.name(), "edges_created");
/// assert_eq!(Counter::PlanCacheHits.name(), "plan_cache_hits");
/// assert_eq!(Counter::PlanMispredictions.name(), "plan_mispredictions");
/// assert_eq!(Counter::EditsApplied.name(), "edits_applied");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Elements delivered by a scan: SAX parse events, DOM event walks,
    /// and element-stream advances (the paper's "elements scanned").
    ElementsScanned,
    /// Elements pushed into hierarchical (or path) stacks.
    StackPushes,
    /// Stack-tree merge operations (paper Figure 6 folds).
    Merges,
    /// Result edges recorded between hierarchical stacks (§4.2).
    EdgesCreated,
    /// Result rows produced by enumeration (§4.3 `EnumTwig²Stack`).
    ResultsEnumerated,
    /// Document chunks processed by the parallel partitioned evaluator.
    Chunks,
    /// Serial fallbacks taken by the parallel evaluator.
    Fallbacks,
    /// (Document, query) pairs exercised by the conformance fuzzer.
    FuzzCases,
    /// Individual metamorphic invariant checks run by the fuzzer
    /// (several per case; skipped invariants are not counted).
    FuzzChecks,
    /// Invariant checks that FAILED — nonzero means a conformance bug.
    FuzzFailures,
    /// Path-summary (strong DataGuide) nodes constructed by index builds.
    SummaryNodes,
    /// Elements a pruned stream discarded or jumped over without
    /// delivering them to a matcher (summary-infeasible elements plus
    /// elements bypassed by `skip_to`).
    ElementsPruned,
    /// `skip_to` calls that bypassed at least one element.
    StreamSkips,
    /// Query-service plan-cache lookups served from the cache (the
    /// feasibility analysis was skipped).
    PlanCacheHits,
    /// Query-service plan-cache lookups that had to parse and analyze.
    PlanCacheMisses,
    /// Cached plans evicted by the plan cache's LRU policy.
    PlanCacheEvictions,
    /// Queries admitted past the service's concurrency gate.
    QueriesAdmitted,
    /// Queries shed by the overload policy (typed rejection, never run).
    QueriesRejected,
    /// Admitted queries aborted because their deadline expired mid-scan.
    DeadlineExceeded,
    /// Adaptive executions whose actual scan or output count landed
    /// outside the planner's tolerance window (DESIGN.md §14) — nonzero
    /// means the cost model mis-estimated, visibly.
    PlanMispredictions,
    /// Sum of the planner's *predicted* elements-to-scan over adaptive
    /// executions — compare with `elements_scanned` in the same sidecar.
    PlanPredictedScan,
    /// Sum of the planner's *predicted* result rows over adaptive
    /// executions — compare with `results_enumerated`.
    PlanPredictedResults,
    /// Document edit operations (insert/delete/replace subtree) applied
    /// successfully by `xmldom::edit::apply_op`.
    EditsApplied,
    /// Query-service snapshot rotations: each counts one batch of edits
    /// swapped in behind the readers' `Arc`.
    SnapshotRotations,
    /// Whole-document region renumberings forced by an exhausted gap
    /// budget between two adjacent tag positions (DESIGN.md §15).
    RenumberEvents,
    /// Elements rewritten into label partitions by incremental index
    /// maintenance — the work a full rebuild would spend on *every*
    /// element (the Fig E incremental-vs-rebuild cost axis).
    EditElementsReindexed,
    /// Cached plans dropped by snapshot rotation because their label set
    /// intersected the edit's changed labels (or the summary was
    /// rebuilt).
    PlanCacheInvalidations,
    /// Catalog documents a routed query actually visited (the Bloom +
    /// summary-feasibility router could not rule them out).
    CatalogDocsRouted,
    /// Catalog documents skipped by routing (a mandatory query label was
    /// absent from the document's Bloom filter, or the document's schema
    /// was proven unsatisfiable by summary feasibility). Zero false
    /// negatives: a skipped document never holds a match.
    CatalogDocsSkipped,
    /// Per-shard scatter jobs dispatched by the catalog (one per
    /// (query, shard-with-routed-documents) pair).
    ShardQueries,
    /// Cross-document shared scans formed by the catalog batch path (one
    /// merged stream scan serving several same-label-set queries on one
    /// document).
    CatalogBatches,
    /// Start/end tag events processed by the shared subscription
    /// automaton (DESIGN.md §17) — the denominator of the per-event
    /// amortization argument.
    SubEvents,
    /// `(subscription, element)` close deliveries the automaton let
    /// through to a per-subscription matcher; a solo-per-query sweep
    /// would pay `subscriptions x elements`.
    SubMatcherFeeds,
    /// Per-subscription change notifications emitted by the
    /// subscription service after an edit's snapshot rotation.
    SubNotifications,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 34] = [
        Counter::ElementsScanned,
        Counter::StackPushes,
        Counter::Merges,
        Counter::EdgesCreated,
        Counter::ResultsEnumerated,
        Counter::Chunks,
        Counter::Fallbacks,
        Counter::FuzzCases,
        Counter::FuzzChecks,
        Counter::FuzzFailures,
        Counter::SummaryNodes,
        Counter::ElementsPruned,
        Counter::StreamSkips,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::QueriesAdmitted,
        Counter::QueriesRejected,
        Counter::DeadlineExceeded,
        Counter::PlanMispredictions,
        Counter::PlanPredictedScan,
        Counter::PlanPredictedResults,
        Counter::EditsApplied,
        Counter::SnapshotRotations,
        Counter::RenumberEvents,
        Counter::EditElementsReindexed,
        Counter::PlanCacheInvalidations,
        Counter::CatalogDocsRouted,
        Counter::CatalogDocsSkipped,
        Counter::ShardQueries,
        Counter::CatalogBatches,
        Counter::SubEvents,
        Counter::SubMatcherFeeds,
        Counter::SubNotifications,
    ];

    /// The counter's snake_case report key (stable: it is the JSON
    /// sidecar schema).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ElementsScanned => "elements_scanned",
            Counter::StackPushes => "stack_pushes",
            Counter::Merges => "merges",
            Counter::EdgesCreated => "edges_created",
            Counter::ResultsEnumerated => "results_enumerated",
            Counter::Chunks => "chunks",
            Counter::Fallbacks => "fallbacks",
            Counter::FuzzCases => "fuzz_cases",
            Counter::FuzzChecks => "fuzz_checks",
            Counter::FuzzFailures => "fuzz_failures",
            Counter::SummaryNodes => "summary_nodes",
            Counter::ElementsPruned => "elements_pruned",
            Counter::StreamSkips => "skips",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
            Counter::QueriesAdmitted => "queries_admitted",
            Counter::QueriesRejected => "queries_rejected",
            Counter::DeadlineExceeded => "deadline_exceeded",
            Counter::PlanMispredictions => "plan_mispredictions",
            Counter::PlanPredictedScan => "plan_predicted_scan",
            Counter::PlanPredictedResults => "plan_predicted_results",
            Counter::EditsApplied => "edits_applied",
            Counter::SnapshotRotations => "snapshot_rotations",
            Counter::RenumberEvents => "renumber_events",
            Counter::EditElementsReindexed => "edit_elements_reindexed",
            Counter::PlanCacheInvalidations => "plan_cache_invalidations",
            Counter::CatalogDocsRouted => "catalog_docs_routed",
            Counter::CatalogDocsSkipped => "catalog_docs_skipped",
            Counter::ShardQueries => "shard_queries",
            Counter::CatalogBatches => "catalog_batches",
            Counter::SubEvents => "sub_events",
            Counter::SubMatcherFeeds => "sub_matcher_feeds",
            Counter::SubNotifications => "sub_notifications",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Counter::ElementsScanned => 0,
            Counter::StackPushes => 1,
            Counter::Merges => 2,
            Counter::EdgesCreated => 3,
            Counter::ResultsEnumerated => 4,
            Counter::Chunks => 5,
            Counter::Fallbacks => 6,
            Counter::FuzzCases => 7,
            Counter::FuzzChecks => 8,
            Counter::FuzzFailures => 9,
            Counter::SummaryNodes => 10,
            Counter::ElementsPruned => 11,
            Counter::StreamSkips => 12,
            Counter::PlanCacheHits => 13,
            Counter::PlanCacheMisses => 14,
            Counter::PlanCacheEvictions => 15,
            Counter::QueriesAdmitted => 16,
            Counter::QueriesRejected => 17,
            Counter::DeadlineExceeded => 18,
            Counter::PlanMispredictions => 19,
            Counter::PlanPredictedScan => 20,
            Counter::PlanPredictedResults => 21,
            Counter::EditsApplied => 22,
            Counter::SnapshotRotations => 23,
            Counter::RenumberEvents => 24,
            Counter::EditElementsReindexed => 25,
            Counter::PlanCacheInvalidations => 26,
            Counter::CatalogDocsRouted => 27,
            Counter::CatalogDocsSkipped => 28,
            Counter::ShardQueries => 29,
            Counter::CatalogBatches => 30,
            Counter::SubEvents => 31,
            Counter::SubMatcherFeeds => 32,
            Counter::SubNotifications => 33,
        }
    }
}

/// Engine phases timed by [`span`] guards.
///
/// The hierarchy (documented, not enforced): a run is
/// `parse` → `index_build` → `match` → `enumerate`, with `splice` nested
/// *inside* `match` on the parallel path (so `match` totals include
/// splice time). On multi-threaded runs span totals aggregate across
/// threads — like CPU time, they can exceed wall-clock.
///
/// ```
/// use twigobs::Phase;
/// assert_eq!(Phase::ALL.len(), 7);
/// assert_eq!(Phase::IndexBuild.name(), "index_build");
/// assert_eq!(Phase::Serve.name(), "serve");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// XML text → events / DOM.
    Parse,
    /// Element / Dewey index construction.
    IndexBuild,
    /// The matching pass (bottom-up scan, path matching, …).
    Match,
    /// Result enumeration from the match encoding.
    Enumerate,
    /// Grafting a finished parallel chunk into the main encoding.
    Splice,
    /// Whole-request service time in the query service (admission wait,
    /// plan lookup, evaluation, enumeration); `match` nests inside it.
    Serve,
    /// Opening a mapped (v3) index: `mmap` plus checksum verification —
    /// the zero-copy counterpart of `index_build`.
    IndexOpen,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Parse,
        Phase::IndexBuild,
        Phase::Match,
        Phase::Enumerate,
        Phase::Splice,
        Phase::Serve,
        Phase::IndexOpen,
    ];

    /// The phase's snake_case report key (stable: JSON sidecar schema).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::IndexBuild => "index_build",
            Phase::Match => "match",
            Phase::Enumerate => "enumerate",
            Phase::Splice => "splice",
            Phase::Serve => "serve",
            Phase::IndexOpen => "index_open",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::IndexBuild => 1,
            Phase::Match => 2,
            Phase::Enumerate => 3,
            Phase::Splice => 4,
            Phase::Serve => 5,
            Phase::IndexOpen => 6,
        }
    }
}

/// Typed gauge ids — point-in-time *levels* (not accumulating counts),
/// recorded with [`gauge`]: the most recent set wins within a thread, and
/// merging across threads takes the maximum.
///
/// ```
/// use twigobs::Gauge;
/// assert_eq!(Gauge::ALL.len(), 2);
/// assert_eq!(Gauge::BytesResident.name(), "bytes_resident");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Bytes of index payload resident in memory: heap array bytes for
    /// the built index, `mincore`-reported mapped bytes for the v3 index.
    BytesResident,
    /// Total bytes of the index backing store (heap arrays or file).
    IndexBytes,
}

impl Gauge {
    /// Every gauge, in report order.
    pub const ALL: [Gauge; 2] = [Gauge::BytesResident, Gauge::IndexBytes];

    /// The gauge's snake_case report key (stable: JSON sidecar schema).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::BytesResident => "bytes_resident",
            Gauge::IndexBytes => "index_bytes",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Gauge::BytesResident => 0,
            Gauge::IndexBytes => 1,
        }
    }
}

/// One thread's accumulated observations: a value per [`Counter`] and a
/// total duration + entry count per [`Phase`].
///
/// Obtained by draining a thread with [`take`]; folded across threads
/// with [`Metrics::merge`] (value-level) or [`absorb`] (into the current
/// thread's accumulator). Always a real struct — even in no-op builds —
/// so reports and channels carry it uniformly; in no-op builds it simply
/// never leaves its zeroed state.
///
/// ```
/// use twigobs::{Counter, Metrics, Phase};
/// let mut a = Metrics::default();
/// assert!(a.is_zero());
/// let b = Metrics::default();
/// a.merge(&b);
/// assert_eq!(a.get(Counter::Merges), 0);
/// assert_eq!(a.span_total(Phase::Match).as_nanos(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    span_nanos: [u64; Phase::ALL.len()],
    span_entries: [u64; Phase::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
}

// Hand-written because `Default` is not derivable for arrays longer than
// 32 elements and `Counter::ALL` has outgrown that.
impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: [0; Counter::ALL.len()],
            span_nanos: [0; Phase::ALL.len()],
            span_entries: [0; Phase::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
        }
    }
}

impl Metrics {
    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Total time spent inside spans of phase `p`.
    pub fn span_total(&self, p: Phase) -> Duration {
        Duration::from_nanos(self.span_nanos[p.index()])
    }

    /// Number of spans of phase `p` that completed.
    pub fn span_entries(&self, p: Phase) -> u64 {
        self.span_entries[p.index()]
    }

    /// Current level of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// Fold `other` into `self` (counters and span totals add).
    pub fn merge(&mut self, other: &Metrics) {
        for i in 0..self.counters.len() {
            self.counters[i] += other.counters[i];
        }
        for i in 0..self.span_nanos.len() {
            self.span_nanos[i] += other.span_nanos[i];
            self.span_entries[i] += other.span_entries[i];
        }
        for i in 0..self.gauges.len() {
            // Gauges are levels: the merged level is the high-water mark.
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
    }

    /// True iff nothing was recorded (the state [`take`] leaves behind,
    /// and the permanent state of a no-op build).
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.span_nanos.iter().all(|&n| n == 0)
            && self.span_entries.iter().all(|&n| n == 0)
            && self.gauges.iter().all(|&g| g == 0)
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, Gauge, Metrics, Phase};
    use std::cell::RefCell;
    use std::time::{Duration, Instant};

    thread_local! {
        static LOCAL: RefCell<Metrics> = RefCell::new(Metrics::default());
    }

    #[inline]
    pub fn add(c: Counter, n: u64) {
        LOCAL.with(|m| m.borrow_mut().counters[c.index()] += n);
    }

    #[inline]
    pub fn gauge(g: Gauge, level: u64) {
        LOCAL.with(|m| m.borrow_mut().gauges[g.index()] = level);
    }

    pub fn record_span(p: Phase, elapsed: Duration) {
        LOCAL.with(|m| {
            let mut m = m.borrow_mut();
            m.span_nanos[p.index()] += elapsed.as_nanos() as u64;
            m.span_entries[p.index()] += 1;
        });
    }

    pub fn take() -> Metrics {
        LOCAL.with(|m| std::mem::take(&mut *m.borrow_mut()))
    }

    pub fn absorb(other: &Metrics) {
        LOCAL.with(|m| m.borrow_mut().merge(other));
    }

    /// Live timing guard: clocks the phase from construction to drop.
    #[derive(Debug)]
    pub struct SpanGuard {
        phase: Phase,
        start: Instant,
    }

    pub fn span(p: Phase) -> SpanGuard {
        SpanGuard {
            phase: p,
            start: Instant::now(),
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            record_span(self.phase, self.start.elapsed());
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, Gauge, Metrics, Phase};
    use std::time::Duration;

    #[inline(always)]
    pub fn add(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub fn gauge(_g: Gauge, _level: u64) {}

    #[inline(always)]
    pub fn record_span(_p: Phase, _elapsed: Duration) {}

    #[inline(always)]
    pub fn take() -> Metrics {
        Metrics::default()
    }

    #[inline(always)]
    pub fn absorb(_other: &Metrics) {}

    /// No-op guard: a zero-sized type with no `Drop` logic.
    #[derive(Debug)]
    pub struct SpanGuard;

    #[inline(always)]
    pub fn span(_p: Phase) -> SpanGuard {
        SpanGuard
    }
}

/// A live span: timing starts when [`span`] returns it and is recorded
/// into the thread's accumulator when it drops. In no-op builds this is a
/// zero-sized type and nothing is clocked.
///
/// ```
/// use twigobs::{span, take, Phase};
/// {
///     let _parse = span(Phase::Parse); // dropped at end of scope
/// }
/// let m = take();
/// let expect = if twigobs::ENABLED { 1 } else { 0 };
/// assert_eq!(m.span_entries(Phase::Parse), expect);
/// ```
pub use imp::SpanGuard;

/// Add `n` to counter `c` in this thread's accumulator.
///
/// ```
/// use twigobs::{add, take, Counter};
/// add(Counter::ElementsScanned, 10);
/// let expect = if twigobs::ENABLED { 10 } else { 0 };
/// assert_eq!(take().get(Counter::ElementsScanned), expect);
/// ```
#[inline]
pub fn add(c: Counter, n: u64) {
    imp::add(c, n);
}

/// Add 1 to counter `c` in this thread's accumulator.
#[inline]
pub fn bump(c: Counter) {
    imp::add(c, 1);
}

/// Set gauge `g` to `level` in this thread's accumulator (a level, not an
/// increment: the latest set wins).
///
/// ```
/// use twigobs::{gauge, take, Gauge};
/// gauge(Gauge::BytesResident, 4096);
/// let expect = if twigobs::ENABLED { 4096 } else { 0 };
/// assert_eq!(take().gauge(Gauge::BytesResident), expect);
/// ```
#[inline]
pub fn gauge(g: Gauge, level: u64) {
    imp::gauge(g, level);
}

/// Record a pre-measured duration for phase `p` (for callers that cannot
/// hold a [`SpanGuard`] across the timed region).
#[inline]
pub fn record_span(p: Phase, elapsed: Duration) {
    imp::record_span(p, elapsed);
}

/// Start timing phase `p`; the elapsed time is recorded when the returned
/// guard drops.
#[inline]
#[must_use = "the span records its elapsed time when dropped"]
pub fn span(p: Phase) -> SpanGuard {
    imp::span(p)
}

/// Drain this thread's accumulator, returning everything recorded since
/// the last `take` (zeroed [`Metrics`] in no-op builds).
#[inline]
pub fn take() -> Metrics {
    imp::take()
}

/// Fold `other` into this thread's accumulator — how the parallel
/// evaluator folds each finished chunk's per-thread metrics into the
/// coordinating thread, so the coordinator's final [`take`] reports the
/// whole run.
///
/// ```
/// use twigobs::{absorb, bump, take, Counter};
/// bump(Counter::Chunks);
/// let worker = take(); // pretend this came from a worker thread
/// absorb(&worker);
/// assert_eq!(take().get(Counter::Chunks), worker.get(Counter::Chunks));
/// ```
#[inline]
pub fn absorb(other: &Metrics) {
    imp::absorb(other);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        // Lowercase, digits (twig2stack), and underscores only: the
        // names are the JSON sidecar schema.
        assert!(names.iter().all(|n| n
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')));
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = Metrics::default();
        a.counters[Counter::Merges.index()] = 2;
        a.span_nanos[Phase::Match.index()] = 100;
        a.span_entries[Phase::Match.index()] = 1;
        let mut b = Metrics::default();
        b.counters[Counter::Merges.index()] = 3;
        b.span_nanos[Phase::Match.index()] = 50;
        b.span_entries[Phase::Match.index()] = 2;
        a.merge(&b);
        assert_eq!(a.get(Counter::Merges), 5);
        assert_eq!(a.span_total(Phase::Match), Duration::from_nanos(150));
        assert_eq!(a.span_entries(Phase::Match), 3);
        assert!(!a.is_zero());
    }

    #[test]
    fn take_drains_and_absorb_refills() {
        // Works in both build variants: everything is zero when disabled.
        add(Counter::EdgesCreated, 4);
        let m = take();
        assert!(take().is_zero(), "take must drain");
        absorb(&m);
        assert_eq!(
            take().get(Counter::EdgesCreated),
            m.get(Counter::EdgesCreated)
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_guard_records_positive_time() {
        {
            let _g = span(Phase::Enumerate);
            std::hint::black_box(());
        }
        let m = take();
        assert_eq!(m.span_entries(Phase::Enumerate), 1);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_records_nothing() {
        let _g = span(Phase::Enumerate);
        add(Counter::Merges, 99);
        drop(_g);
        assert!(take().is_zero());
        assert!(!ENABLED);
    }
}
