//! Fig T's metrics sidecar must agree with the service's own stats.
//! twigobs counters are thread-local (obs is compiled in under
//! twigbench's default `obs` feature), so the figure's worker threads
//! must hand theirs back to the calling thread, which writes the
//! sidecar.

use twigbench::figt;
use twigbench::workload::Profile;
use twigobs::Counter;

#[test]
fn worker_counters_reach_the_calling_thread() {
    twigobs::take(); // isolate this thread's counters
    let (rows, _) = figt(Profile::Quick, &[4]);
    let m = twigobs::take();
    let hits: u64 = rows.iter().map(|r| r.plan_cache_hits).sum();
    let admitted: u64 = rows.iter().map(|r| r.queries_run).sum();
    assert!(hits > 0, "the cached arms must hit");
    assert_eq!(m.get(Counter::PlanCacheHits), hits);
    assert_eq!(m.get(Counter::QueriesAdmitted), admitted);
}
