//! Pinned planner decisions on the figure-16 workloads (DESIGN.md §14).
//!
//! The adaptive planner's value proposition is concrete, measured calls:
//! on XMark-Q2 every `person` element sits inside the query's region
//! cover, so pruning scans the same 101 elements as the full streams and
//! only adds skip-probe overhead — the planner must turn it off. On
//! TreeBank-Q1 pruning skips ~80% of the candidate elements — the
//! planner must keep it. These tests pin those two calls (plus the
//! fixed-mode default) so a cost-model change that flips either shows
//! up as a test failure, not a silent perf regression in Fig A.

use twigbench::workload::{treebank, treebank_queries, xmark, xmark_queries, Profile};
use twigbench::Dataset;
use twigserve::{PlannerMode, QueryService, ServiceConfig};

fn adaptive(ds: &Dataset) -> QueryService {
    QueryService::new(
        ds.doc.clone(),
        ds.index.clone(),
        ServiceConfig { planner: PlannerMode::Adaptive, ..ServiceConfig::default() },
    )
}

#[test]
fn adaptive_disables_pruning_on_xmark_q2() {
    let ds = xmark(Profile::Quick, 1);
    let q = &xmark_queries()[1];
    assert_eq!(q.name, "XMark-Q2");

    let svc = adaptive(&ds);
    let d = svc.planned(q.text).expect("plan XMark-Q2");
    assert!(d.adaptive, "service in Adaptive mode must produce adaptive decisions");
    assert!(
        !d.policy.is_enabled(),
        "pruning hurts on XMark-Q2 (cover holds every person element); \
         the planner must disable it, got {:?}",
        d.policy
    );
}

#[test]
fn adaptive_keeps_pruning_on_treebank_q1() {
    let ds = treebank(Profile::Quick);
    let q = &treebank_queries()[0];
    assert_eq!(q.name, "TreeBank-Q1");

    let svc = adaptive(&ds);
    let d = svc.planned(q.text).expect("plan TreeBank-Q1");
    assert!(d.adaptive);
    assert!(
        d.policy.is_enabled(),
        "pruning skips ~80% of TreeBank-Q1's candidate elements; \
         the planner must keep it, got {:?}",
        d.policy
    );
}

#[test]
fn fixed_default_keeps_pruning_on() {
    // The default service (PlannerMode::Fixed(Enabled)) must not
    // second-guess its pruning policy — pinned-behaviour tests across
    // the repo rely on this.
    let ds = xmark(Profile::Quick, 1);
    let svc = QueryService::new(ds.doc.clone(), ds.index.clone(), ServiceConfig::default());
    for q in xmark_queries() {
        let d = svc.planned(q.text).expect("plan");
        assert!(!d.adaptive, "{}: fixed decisions are not adaptive", q.name);
        assert!(d.policy.is_enabled(), "{}: the default keeps pruning on", q.name);
    }
}

#[test]
fn pinned_decisions_survive_cache_round_trips_and_match_execution() {
    // planned() on a warm cache must return the same decision the cold
    // planning pass produced, and executing afterwards must agree with
    // the default service byte-for-byte — on the figure-16 queries and
    // on the generated queries the planner once routed to TJFast.
    let census = [
        "//*[.//i]",
        "/*",
        "//europe[*]",
        "//*[closed_auctions]",
        "//*[.//*[.//wp]]",
    ];
    for ds in [treebank(Profile::Quick), xmark(Profile::Quick, 1)] {
        let svc = adaptive(&ds);
        let oracle =
            QueryService::new(ds.doc.clone(), ds.index.clone(), ServiceConfig::default());
        let pinned = treebank_queries().into_iter().chain(xmark_queries()).map(|q| q.text);
        for q in pinned.chain(census) {
            let cold = svc.planned(q).expect("cold plan");
            let warm = svc.planned(q).expect("warm plan");
            assert_eq!(cold, warm, "{q}: cached decision drifted");
            let got = svc.execute(q).expect("adaptive execute");
            let want = oracle.execute(q).expect("fixed execute");
            assert_eq!(got, want, "{q} on {}: adaptive results differ from fixed", ds.name);
        }
    }
}
