//! Path-summary cost model — the estimation half of the adaptive planner.
//!
//! The serving layer (`twigserve`) must decide, per cached plan, whether
//! path-summary pruning pays
//! ([`PruningPolicy`](xmlindex::PruningPolicy) on or off). Everything it
//! needs to decide is already in the index's path summary (strong
//! DataGuide): per-sid element counts, per-sid region hulls, and the
//! [`SummaryFeasibility`] sets the pruned streams are built from. This
//! module turns those statistics into a [`QueryEstimate`] — predicted
//! stream sizes, skip-scan savings, and output selectivities — and the
//! DESIGN.md §14 decision rule [`QueryEstimate::pruning_pays`].
//!
//! The estimates are *predictions*, recorded by the service next to the
//! actual counters (`plan_predicted_scan` vs `elements_scanned`) so
//! mispredictions are visible in the metrics sidecar rather than silently
//! mis-planning forever.
//!
//! Everything here reads only the summary — never the element postings —
//! so estimating costs `O(summary nodes)`, the same order as the
//! feasibility analysis the plan cache already amortizes.

use crate::analysis::SummaryFeasibility;
use crate::gtp::Gtp;
use crate::LabelDispatch;
use xmldom::{Label, LabelTable};
use xmlindex::{filter_worthwhile, SummaryRef, SummarySet};

/// Per-query cost estimates derived from the path summary. All element
/// counts are exact *summary* aggregations of over-approximate feasible
/// sets: `scan_pruned ≤ scan_full` always, and both bound what a pruned /
/// full stream scan would actually deliver from above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEstimate {
    /// Some mandatory query node has no feasible path: the result is
    /// empty and evaluation short-circuits without touching a stream.
    pub unsatisfiable: bool,
    /// Elements a full (unpruned) scan delivers: the summed postings of
    /// every label some query node dispatches to.
    pub scan_full: u64,
    /// Elements a pruned scan is estimated to deliver, honoring the
    /// same `filter_worthwhile` drop the real stream plan applies and
    /// scaling filterless labels by the root-cover fraction (the
    /// skip-scan savings estimate).
    pub scan_pruned: u64,
    /// Fraction (0..=1, in 1/1024 units to stay integer) of the document
    /// region span covered by candidate-root hulls; `skip_to` gallops
    /// past the rest.
    pub cover_permille: u32,
    /// Lower-bound output estimate: the most selective returned node's
    /// feasible element count (every result row projects one element
    /// from it).
    pub expected_results: u64,
    /// Labels the plan scans.
    pub labels_scanned: u32,
    /// Labels whose summary filter survives `filter_worthwhile` (the
    /// rest are scanned filter-free — the XMark-Q2 lesson).
    pub filters_kept: u32,
}

impl QueryEstimate {
    /// Estimate `gtp`'s stream and output cardinalities against the path
    /// summary. Runs one [`SummaryFeasibility`] analysis — the same
    /// `O(query × summary)` pass `IndexedPlan::compute` runs, so a
    /// planner that calls both per plan doubles a cost the plan cache
    /// already amortizes to once per canonical query.
    pub fn compute(gtp: &Gtp, summary: SummaryRef<'_>, labels: &LabelTable) -> QueryEstimate {
        let dispatch = LabelDispatch::compile(gtp, labels);
        let feas = SummaryFeasibility::compute(gtp, summary, labels);
        if feas.is_unsatisfiable() {
            return QueryEstimate {
                unsatisfiable: true,
                scan_full: 0,
                scan_pruned: 0,
                cover_permille: 0,
                expected_results: 0,
                labels_scanned: 0,
                filters_kept: 0,
            };
        }

        // Full label postings, aggregated from the summary (per-sid
        // counts sum to the label's posting-list length).
        let mut label_counts = vec![0u64; labels.len()];
        for node in summary.nodes() {
            label_counts[node.label.index()] += u64::from(node.count);
        }

        // Root-cover fraction of the document's region span.
        let cover = feas.root_cover(gtp, summary);
        let doc_span = summary
            .nodes()
            .iter()
            .map(|n| u64::from(n.max_right))
            .max()
            .unwrap_or(0)
            + 1;
        let covered_span: u64 = cover
            .spans()
            .iter()
            .map(|&(l, r)| u64::from(r) - u64::from(l) + 1)
            .sum();
        let cover_permille = ((covered_span.min(doc_span) * 1024) / doc_span.max(1)) as u32;

        let mut scan_full = 0u64;
        let mut scan_pruned = 0u64;
        let mut labels_scanned = 0u32;
        let mut filters_kept = 0u32;
        for (i, &full) in label_counts.iter().enumerate() {
            let l = Label::from_index(i);
            if dispatch.query_nodes(l).is_empty() {
                continue;
            }
            labels_scanned += 1;
            scan_full += full;
            // Mirror the stream plan: the filter is the union of the
            // dispatched nodes' feasible sets, dropped when it admits
            // (nearly) every posting.
            let mut set = SummarySet::empty(summary.len());
            for &q in dispatch.query_nodes(l) {
                set.union(feas.feasible(q));
            }
            let covered = set.element_count(summary);
            if filter_worthwhile(covered, full) {
                filters_kept += 1;
                scan_pruned += covered;
            } else {
                // No per-element filter, but `skip_to` still gallops past
                // regions outside the candidate-root cover. Do NOT assume
                // uniform element density — on XMark-Q2 the cover spans
                // ~20% of the document yet holds *every* person element,
                // so a density-scaled estimate undershoots 5× and makes
                // pruning look profitable when it saves nothing. Instead
                // count per summary node: a sid whose region hull
                // intersects the cover contributes all its elements (the
                // gallop lands inside the hull and scans through it).
                scan_pruned += summary
                    .nodes()
                    .iter()
                    .filter(|n| n.label == l)
                    .filter(|n| {
                        cover.spans().iter().any(|&(cl, cr)| {
                            cl <= n.max_right && n.min_left <= cr
                        })
                    })
                    .map(|n| u64::from(n.count))
                    .sum::<u64>();
            }
        }

        // The most selective returned node bounds the distinct elements
        // any output column can hold.
        let expected_results = gtp
            .iter()
            .filter(|&q| gtp.role(q).is_output())
            .map(|q| feas.feasible(q).element_count(summary))
            .min()
            .unwrap_or(0);

        QueryEstimate {
            unsatisfiable: false,
            scan_full,
            scan_pruned,
            cover_permille,
            expected_results,
            labels_scanned,
            filters_kept,
        }
    }

    /// Estimated elements saved by pruning (`scan_full − scan_pruned`).
    pub fn pruning_savings(&self) -> u64 {
        self.scan_full.saturating_sub(self.scan_pruned)
    }

    /// Decision-table predicate: is pruning worth its overhead? The
    /// feasibility sets are computed either way (the plan cache holds
    /// them), so the *runtime* overhead is the per-element sid probe and
    /// the cover gallop bookkeeping — worth paying only when at least
    /// 1/8 of the full scan goes away (XMark-Q2 saves ~0, TreeBank saves
    /// up to 93%; see EXPERIMENTS.md Fig S / Fig A).
    pub fn pruning_pays(&self) -> bool {
        self.unsatisfiable || self.pruning_savings() * 8 >= self.scan_full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_twig;
    use xmlindex::PathSummary;

    fn setup(xml: &str) -> (xmldom::Document, PathSummary) {
        let doc = xmldom::parse(xml).unwrap();
        let summary = PathSummary::build(&doc);
        (doc, summary)
    }

    #[test]
    fn full_scan_counts_every_dispatched_label_posting() {
        let (doc, summary) = setup("<a><b><c/></b><b/><d><b/></d></a>");
        let gtp = parse_twig("//a/b").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(!est.unsatisfiable);
        // Labels scanned: a (1 element) + b (3 elements).
        assert_eq!(est.scan_full, 4);
        assert_eq!(est.labels_scanned, 2);
    }

    #[test]
    fn pruned_scan_respects_feasibility() {
        // Only the b under d is NOT reachable as /a/b; feasibility keeps
        // the a/b path and drops the a/d/b path.
        let (doc, summary) = setup("<a><b><c/></b><b/><d><b/></d></a>");
        let gtp = parse_twig("/a/b").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(est.scan_pruned <= est.scan_full);
        assert!(est.pruning_savings() >= 1, "the d/b posting is prunable");
    }

    #[test]
    fn unsatisfiable_queries_estimate_zero() {
        let (doc, summary) = setup("<a><b/></a>");
        let gtp = parse_twig("//a/z").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(est.unsatisfiable);
        assert_eq!(est.scan_full, 0);
        assert_eq!(est.expected_results, 0);
        assert!(est.pruning_pays(), "short-circuiting is free and total");
    }

    #[test]
    fn expected_results_is_the_most_selective_output_count() {
        let (doc, summary) = setup("<a><b/><b/><b/><c/></a>");
        let gtp = parse_twig("//a[b]/c").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        // Every node is returned (brackets don't demote roles in this
        // parser); the most selective is a or c at 1 element each.
        assert_eq!(est.expected_results, 1);
    }
}
