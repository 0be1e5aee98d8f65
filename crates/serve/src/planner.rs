//! The cost-based planner: the per-query pruning decision.
//!
//! `twigserve` evaluates every query with the paper's bottom-up
//! Twig²Stack engine, which accepts every GTP. The one per-query choice
//! left is [`PruningPolicy`]: path-summary pruning helps 7/9 figure-16
//! queries but *hurts* XMark-Q2 (EXPERIMENTS.md Fig S), so the service
//! decides per query, once per canonical form, and stores the
//! [`PlanDecision`] in the cached plan.
//!
//! Two modes ([`PlannerMode`]):
//!
//! * **`Fixed(policy)`** — the default is `Fixed(Enabled)`: always use
//!   `policy`, exactly the pre-planner behaviour (every pinned test keeps
//!   its configuration). `Fixed(Disabled)` is the unpruned A/B arm.
//! * **`Adaptive`** — estimate stream sizes and skip-scan savings from
//!   the path summary ([`gtpquery::cost::QueryEstimate`]) and keep
//!   pruning only when [`QueryEstimate::pruning_pays`] (DESIGN.md §14).
//!
//! Adaptive decisions carry their *predictions* (elements to scan,
//! expected results). The service records them next to the actual
//! counters on every execution (`plan_predicted_scan` vs
//! `elements_scanned` in the metrics sidecar) and bumps
//! `plan_mispredictions` when the actual scan leaves the tolerance window
//! ([`scan_within_tolerance`]) — a wrong cost model is a counter you can
//! alert on, not a silent slowdown.

use gtpquery::cost::QueryEstimate;
use gtpquery::Gtp;
use xmldom::LabelTable;
use xmlindex::{IndexView, PruningPolicy};

/// How the service plans queries. The default is
/// `Fixed(PruningPolicy::Enabled)` — the exact pre-planner behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Cost-based per-query pruning decisions from the path summary
    /// (DESIGN.md §14).
    Adaptive,
    /// Always plan with this pruning policy.
    Fixed(PruningPolicy),
}

impl Default for PlannerMode {
    fn default() -> Self {
        PlannerMode::Fixed(PruningPolicy::Enabled)
    }
}

/// The planner's verdict for one cached plan: the pruning policy its
/// streams are built with, plus the predictions the verdict was derived
/// from (zero in fixed mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDecision {
    /// Pruning policy the plan's streams were built with.
    pub policy: PruningPolicy,
    /// True iff this decision came from the cost model (predictions are
    /// recorded and checked only for adaptive decisions).
    pub adaptive: bool,
    /// Predicted elements delivered by the plan's streams per execution.
    pub predicted_scan: u64,
    /// Predicted result rows per execution (a lower-bound estimate: the
    /// most selective output node's feasible element count).
    pub predicted_results: u64,
}

impl Default for PlanDecision {
    fn default() -> Self {
        PlanDecision {
            policy: PruningPolicy::Enabled,
            adaptive: false,
            predicted_scan: 0,
            predicted_results: 0,
        }
    }
}

/// The adaptive verdict for `est`: pruning iff it pays, with the scan
/// predicted for that policy.
fn adaptive_decision(est: &QueryEstimate) -> PlanDecision {
    let (policy, predicted_scan) = if est.pruning_pays() {
        (PruningPolicy::Enabled, est.scan_pruned)
    } else {
        (PruningPolicy::Disabled, est.scan_full)
    };
    PlanDecision {
        policy,
        adaptive: true,
        predicted_scan,
        predicted_results: est.expected_results,
    }
}

/// Decide how to run `gtp`, per `mode`. Called once per plan-cache miss;
/// the result lives in the cached plan.
pub fn decide<I: IndexView>(
    gtp: &Gtp,
    index: &I,
    labels: &LabelTable,
    mode: PlannerMode,
) -> PlanDecision {
    match mode {
        PlannerMode::Fixed(policy) => PlanDecision { policy, ..PlanDecision::default() },
        PlannerMode::Adaptive => {
            adaptive_decision(&QueryEstimate::compute(gtp, index.summary(), labels))
        }
    }
}

/// Re-plan after repeated mispredictions, blending the **measured** scan
/// into the estimate (the planner feedback loop, DESIGN.md §14).
///
/// The summary estimate is recomputed. When the prior plan ran pruned
/// streams, the measurement *is* the pruned scan, so it replaces the
/// estimated one and pruning keeps paying only if it still saves ≥ 1/8
/// of the full scan. An unpruned measurement says nothing new about the
/// filters, so the static estimate stands. The prediction is recentered
/// on the measurement when the policy is unchanged (the model was wrong,
/// the measurement is ground truth), or on the static estimate for the
/// other policy — either way a well-behaved replacement plan stops
/// alarming.
pub fn replan<I: IndexView>(
    gtp: &Gtp,
    index: &I,
    labels: &LabelTable,
    prior: &PlanDecision,
    measured_scan: u64,
) -> PlanDecision {
    let mut est = QueryEstimate::compute(gtp, index.summary(), labels);
    if prior.policy.is_enabled() {
        est.scan_pruned = measured_scan;
    }
    let mut decision = adaptive_decision(&est);
    if decision.policy == prior.policy {
        decision.predicted_scan = measured_scan;
    }
    decision
}

/// The misprediction tolerance window: an adaptive execution whose actual
/// stream scan lands outside a factor-4 band (plus a small absolute slack
/// for tiny queries) around the prediction counts as a misprediction.
/// Factor 4 separates "estimate noise" (feasible sets over-approximate,
/// uniform-density cover scaling) from "the model is wrong" (a policy
/// picked on a cardinality that was off by orders of magnitude).
pub fn scan_within_tolerance(predicted: u64, actual: u64) -> bool {
    actual <= predicted.saturating_mul(4).saturating_add(16)
        && predicted <= actual.saturating_mul(4).saturating_add(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtpquery::parse_twig;
    use xmlindex::ElementIndex;

    fn fixture() -> (xmldom::Document, ElementIndex) {
        let doc = xmldom::parse("<a><b><c/></b><b/><d><b><c/></b></d></a>").unwrap();
        let index = ElementIndex::build(&doc);
        (doc, index)
    }

    #[test]
    fn default_mode_is_fixed_pruning() {
        assert_eq!(PlannerMode::default(), PlannerMode::Fixed(PruningPolicy::Enabled));
    }

    #[test]
    fn fixed_mode_keeps_its_policy_and_predicts_nothing() {
        let (doc, index) = fixture();
        let gtp = parse_twig("//a/b[c]").unwrap();
        for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
            let d = decide(&gtp, &index, doc.labels(), PlannerMode::Fixed(policy));
            assert_eq!(d.policy, policy);
            assert!(!d.adaptive);
            assert_eq!(d.predicted_scan, 0, "fixed mode predicts nothing");
        }
    }

    #[test]
    fn adaptive_mode_records_predictions() {
        let (doc, index) = fixture();
        let gtp = parse_twig("/a/b/c").unwrap();
        let d = decide(&gtp, &index, doc.labels(), PlannerMode::Adaptive);
        assert!(d.adaptive);
        assert!(d.predicted_scan > 0);
    }

    #[test]
    fn replan_drops_pruning_that_measured_no_savings() {
        let (doc, index) = fixture();
        let gtp = parse_twig("/a/b/c").unwrap();
        let prior = decide(&gtp, &index, doc.labels(), PlannerMode::Adaptive);
        assert!(prior.policy.is_enabled(), "the d/b/c path is prunable");
        let full = QueryEstimate::compute(&gtp, index.summary(), doc.labels()).scan_full;
        // The pruned run delivered the whole scan: pruning saved nothing.
        let d = replan(&gtp, &index, doc.labels(), &prior, full);
        assert_eq!(d.policy, PruningPolicy::Disabled);
        assert_eq!(d.predicted_scan, full);
        // A pruned run that saved as predicted keeps the decision.
        let d = replan(&gtp, &index, doc.labels(), &prior, prior.predicted_scan);
        assert_eq!(d, prior);
    }

    #[test]
    fn tolerance_window_is_a_factor_four_band() {
        assert!(scan_within_tolerance(100, 100));
        assert!(scan_within_tolerance(100, 400));
        assert!(scan_within_tolerance(100, 25));
        assert!(!scan_within_tolerance(100, 500));
        assert!(!scan_within_tolerance(1000, 100));
        // Absolute slack keeps tiny queries out of the alarm.
        assert!(scan_within_tolerance(0, 16));
        assert!(scan_within_tolerance(16, 0));
    }
}
