//! Criterion bench for the cost-based planner: adaptive vs fixed-pruning
//! request latency per figure-16 query, plus the planning decision cost
//! itself (the extra work an adaptive plan-cache miss pays).
//!
//! Besides the console report, the run exports `BENCH_planner.json` at
//! the repo root (schema `twig2stack.bench/v1`) with the quick-scale
//! Figure A rows — adaptive vs best-fixed wall clock, the chosen pruning
//! policy, and the prediction-vs-actual scan columns — so
//! future cost-model changes have a recorded trajectory:
//!
//! ```text
//! cargo bench -p twigbench --bench planner
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use twigbench::workload::{treebank, treebank_queries, xmark, xmark_queries, Profile};
use twigbench::{figa, FigARow};
use twigserve::{PlannerMode, QueryService, ServiceConfig};
use xmlindex::PruningPolicy;

fn service(ds: &twigbench::Dataset, mode: PlannerMode) -> QueryService {
    QueryService::new(
        ds.doc.clone(),
        ds.index.clone(),
        ServiceConfig { planner: mode, ..ServiceConfig::default() },
    )
}

/// Adaptive vs default `Fixed(Enabled)` request latency on the two
/// queries where the decision matters most: XMark-Q2 (pruning hurts; the
/// planner turns it off) and TreeBank-Q1 (pruning saves 80%; the planner
/// keeps it).
fn adaptive_vs_fixed(c: &mut Criterion) {
    let cases = [
        (xmark(Profile::Quick, 1), xmark_queries().swap_remove(1)),
        (treebank(Profile::Quick), treebank_queries().swap_remove(0)),
    ];
    let mut group = c.benchmark_group("planner/request");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for (ds, nq) in &cases {
        let adaptive = service(ds, PlannerMode::Adaptive);
        let fixed = service(ds, PlannerMode::Fixed(PruningPolicy::Enabled));
        adaptive.execute(nq.text).expect("warm the adaptive cache");
        fixed.execute(nq.text).expect("warm the fixed cache");
        group.bench_with_input(BenchmarkId::new("adaptive", nq.name), &adaptive, |b, svc| {
            b.iter(|| svc.execute(nq.text).expect("adaptive request").len())
        });
        group.bench_with_input(BenchmarkId::new("fixed", nq.name), &fixed, |b, svc| {
            b.iter(|| svc.execute(nq.text).expect("fixed request").len())
        });
    }
    group.finish();
}

/// The planning overhead itself: an adaptive plan-cache miss runs the
/// cost estimate on top of the feasibility analysis a fixed miss runs.
fn planning_cost(c: &mut Criterion) {
    let ds = treebank(Profile::Quick);
    let q = treebank_queries().swap_remove(0);
    let mut group = c.benchmark_group("planner/miss");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for (label, mode) in [
        ("fixed", PlannerMode::Fixed(PruningPolicy::Enabled)),
        ("adaptive", PlannerMode::Adaptive),
    ] {
        // Capacity 0 keeps every lookup on the miss path.
        let svc = QueryService::new(
            ds.doc.clone(),
            ds.index.clone(),
            ServiceConfig {
                planner: mode,
                plan_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        group.bench_function(label, |b| {
            b.iter(|| svc.execute(q.text).expect("uncached request").len())
        });
    }
    group.finish();
}

/// Export `BENCH_planner.json` at the repo root: the quick-scale Figure A
/// rows (this also re-runs Fig A's soundness and ≤1.1×-of-best-fixed
/// assertions as part of the bench).
fn export_json(_c: &mut Criterion) {
    let mut json = String::from("{\n  \"schema\": \"twig2stack.bench/v1\",\n");
    json.push_str("  \"name\": \"planner\",\n  \"profile\": \"quick\",\n");
    json.push_str("  \"figA\": [\n");
    let (rows, _) = figa(Profile::Quick);
    for (i, r) in rows.iter().enumerate() {
        let FigARow {
            dataset,
            query,
            pruned,
            predicted_scan,
            actual_scan,
            predicted_results,
            results,
            mispredicted,
            time_adaptive,
            best_fixed,
            time_best_fixed,
            ..
        } = r;
        json.push_str(&format!(
            "    {{\"dataset\": \"{dataset}\", \"query\": \"{query}\", \
             \"pruned\": {pruned}, \
             \"predicted_scan\": {predicted_scan}, \"actual_scan\": {actual_scan}, \
             \"predicted_results\": {predicted_results}, \"results\": {results}, \
             \"mispredicted\": {mispredicted}, \
             \"adaptive_ns\": {}, \"best_fixed\": \"{best_fixed}\", \
             \"best_fixed_ns\": {}}}{}\n",
            time_adaptive.as_nanos(),
            time_best_fixed.as_nanos(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_planner.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, adaptive_vs_fixed, planning_cost, export_json);
criterion_main!(benches);
