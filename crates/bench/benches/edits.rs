//! Criterion bench for the edit path: incremental index maintenance
//! ([`xmlindex::ElementIndex::apply_edit`]) vs rebuild-from-scratch on a
//! gap-fitting insert, the full service-level edit (rotation plus
//! plan-cache invalidation) through [`twigserve::QueryService`], and one
//! write through [`twigserve::SubscriptionService`] (rotation, the shared
//! automaton pass and the notification diff; criterion only).
//!
//! Besides the console report, the run exports `BENCH_edits.json` at the
//! repo root (schema `twig2stack.bench/v1`) with best-of-3 wall-clock
//! numbers plus the Figure E rows at quick scale, so future changes have
//! a recorded trajectory to compare against:
//!
//! ```text
//! cargo bench -p twigbench --bench edits
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twigbench::workload::{dblp, xmark, Profile};
use twigbench::{fige, FigERow};
use twigserve::{QueryService, ServiceConfig, SubscriptionService};
use xmldom::{apply_op, parse, Document, EditOp};
use xmlindex::ElementIndex;

/// A gap-carrying DBLP document and the record insert used by every
/// bench below: apply one priming edit (the renumber leaves stride
/// gaps), then measure steady-state inserts of a small known-path
/// record at the front of the root.
fn primed() -> (Document, ElementIndex, EditOp) {
    let ds = dblp(Profile::Quick);
    let record =
        parse("<article><author>bench</author><title>t</title><year>2006</year></article>")
            .unwrap();
    let prime = EditOp::InsertSubtree {
        parent: Some(ds.doc.root()),
        position: 0,
        subtree: record.clone(),
    };
    let (doc, delta) = apply_op(&ds.doc, &prime).expect("priming insert applies");
    let (index, _) = ds.index.apply_edit(&doc, &delta);
    let op = EditOp::InsertSubtree { parent: Some(doc.root()), position: 0, subtree: record };
    (doc, index, op)
}

/// Steady-state incremental patch vs full rebuild for one gap-fitting
/// insert on quick-scale DBLP.
fn patch_vs_rebuild(c: &mut Criterion) {
    let (doc, index, op) = primed();
    let (edited, delta) = apply_op(&doc, &op).expect("bench insert applies");
    let mut group = c.benchmark_group("edits/one-insert");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    group.bench_function("apply_edit", |b| {
        b.iter(|| {
            let (next, how) = index.apply_edit(&edited, &delta);
            assert_eq!(how, xmlindex::EditApply::Patched, "steady state must patch");
            next
        })
    });
    group.bench_function("rebuild", |b| b.iter(|| ElementIndex::build(&edited)));
    group.finish();
}

/// The whole service edit: apply, rotate the snapshot, invalidate
/// touched plans. Each iteration alternates insert/delete so the
/// document does not grow across the measurement.
fn service_edit(c: &mut Criterion) {
    let (doc, index, op) = primed();
    let svc = QueryService::new(doc, index, ServiceConfig::default());
    svc.execute("//article/author").expect("cache a plan to invalidate");
    let mut group = c.benchmark_group("edits/service");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    group.bench_function("apply+rotate", |b| {
        b.iter(|| {
            let receipt = svc.apply_edit(&op).expect("insert applies");
            let snap = svc.snapshot();
            let target = snap.doc().children(snap.doc().root()).next().unwrap();
            svc.apply_edit(&EditOp::DeleteSubtree { target }).expect("delete applies");
            receipt.version
        })
    });
    group.finish();
}

/// One `SubscriptionService::apply_edit` on quick-scale XMark with the
/// four standing queries of the `edit-churn` workload (XMark-Q1–Q3 and
/// Figure 19(b)). Iterations alternate inserting a copy of a `person`
/// record at the front of `people` and deleting it again, so the
/// document does not grow across the measurement.
fn subscribe_edit(c: &mut Criterion) {
    let ds = xmark(Profile::Quick, 1);
    let subs = SubscriptionService::new(Arc::new(QueryService::build(
        ds.doc.clone(),
        ServiceConfig::default(),
    )));
    for q in [
        "/site/open_auctions[.//bidder/personref]//reserve",
        "//people//person[.//address/zipcode]/profile/education",
        "//item[location]/description//keyword",
        "//people//person[.//address!/zipcode!]/profile/education",
    ] {
        subs.register(q).expect("standing queries register");
    }
    let label = |name| ds.doc.labels().get(name).expect("XMark label");
    let person = ds.doc.nodes_with_label(label("person"))[0];
    // Edits stay inside `people`'s subtree, so its id never shifts.
    let people = ds.doc.nodes_with_label(label("people"))[0];
    let insert = EditOp::InsertSubtree {
        parent: Some(people),
        position: 0,
        subtree: xmlgen::extract_subtree(&ds.doc, person),
    };
    let mut group = c.benchmark_group("edits");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let mut grow = true;
    group.bench_function("subscribe_apply_edit", |b| {
        b.iter(|| {
            let op = if grow {
                insert.clone()
            } else {
                let target = subs.service().snapshot().doc().children(people).next();
                EditOp::DeleteSubtree {
                    target: target.expect("the inserted record"),
                }
            };
            grow = !grow;
            subs.apply_edit(&op).expect("edit applies").1.len()
        })
    });
    group.finish();
}

fn best_of_3(mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Export `BENCH_edits.json` at the repo root: best-of-3 single-edit
/// latencies plus the quick-scale Figure E rows.
fn export_json(_c: &mut Criterion) {
    let mut json = String::from("{\n  \"schema\": \"twig2stack.bench/v1\",\n");
    json.push_str("  \"name\": \"edits\",\n  \"profile\": \"quick\",\n");

    let (doc, index, op) = primed();
    let (edited, delta) = apply_op(&doc, &op).expect("bench insert applies");
    let patch = best_of_3(|| {
        std::hint::black_box(index.apply_edit(&edited, &delta));
    });
    let rebuild = best_of_3(|| {
        std::hint::black_box(ElementIndex::build(&edited));
    });
    json.push_str(&format!(
        "  \"one_insert\": {{\"dataset\": \"DBLP\", \"elements\": {}, \"patch_ns\": {}, \
         \"rebuild_ns\": {}}},\n",
        edited.len(),
        patch.as_nanos(),
        rebuild.as_nanos()
    ));

    json.push_str("  \"figE\": [\n");
    let (rows, _) = fige(Profile::Quick);
    for (i, r) in rows.iter().enumerate() {
        let FigERow {
            dataset,
            elements,
            edits,
            patched,
            incr_total,
            rebuild_total,
            reindexed_incr,
            reindexed_rebuild,
            results,
            reader_rounds,
        } = r;
        json.push_str(&format!(
            "    {{\"dataset\": \"{dataset}\", \"elements\": {elements}, \"edits\": {edits}, \
             \"patched\": {patched}, \"incr_ns\": {}, \"rebuild_ns\": {}, \
             \"reindexed_incr\": {reindexed_incr}, \"reindexed_rebuild\": {reindexed_rebuild}, \
             \"results\": {results}, \"reader_rounds\": {reader_rounds}}}{}\n",
            incr_total.as_nanos(),
            rebuild_total.as_nanos(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_edits.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group!(
    benches,
    patch_vs_rebuild,
    service_edit,
    subscribe_edit,
    export_json
);
criterion_main!(benches);
