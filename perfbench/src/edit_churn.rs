//! `edit-churn`: writes beside reads on XMark at `Profile::Full`.
//!
//! A `SubscriptionService` holds a few standing queries. One writer
//! applies seeded record-level edits through it (insert a copy of a
//! record, delete a record, replace a record with a copy of another);
//! one reader runs the XMark pool of `query-mix` against the same
//! service. This covers `apply_op`'s arena copy, index patch-or-rebuild,
//! snapshot rotation, plan-cache invalidation and notification diffing.
//! XMark rather than DBLP: `QueryService::apply_edit` takes ~18 ms per
//! record there against ~280 ms on DBLP. With the standing queries'
//! notification a write still takes ~260 ms, so a twenty-second run
//! holds only about seventy writes.

use crate::common::{self, ms_since, ratio, Ds, Outcome, Schedule};
use crate::query_mix::{self, closed_loop, read, Answer, Tally};
use crate::trace::{timed, Probe};
use crate::Args;
use gtpquery::parse_twig;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use twig2stack::{run_subscriptions_doc, MatchOptions, SharedAutomaton};
use twigserve::{QueryService, ServeIndex, ServiceConfig, SubscriptionId, SubscriptionService};
use xmldom::{apply_op, Document, EditOp};
use xmlindex::EditApply;

/// Standing queries: the first XMark fixed queries.
pub const SUBSCRIPTIONS: usize = 4;
/// Record elements the writer edits.
const RECORDS: [&str; 4] = ["person", "item", "open_auction", "closed_auction"];
/// Edit mix: shares of insert and delete (the rest replace). Equal
/// insert and delete shares keep the document's size steady.
const INSERT_SHARE: f64 = 0.4;
const DELETE_SHARE: f64 = 0.4;
/// Consecutive writes per window of the gated numbers (see `Timed`).
const WRITES_PER_WINDOW: usize = 6;

/// A seeded record-level edit against `doc`.
fn next_edit(doc: &Document, rng: &mut SmallRng) -> EditOp {
    let name = RECORDS[rng.gen_range(0..RECORDS.len())];
    let label = doc
        .labels()
        .get(name)
        .expect("XMark has every record label");
    let records = doc.nodes_with_label(label);
    let pick = |rng: &mut SmallRng| records[rng.gen_range(0..records.len())];
    let roll = common::unit(rng);
    if roll < INSERT_SHARE || (roll < INSERT_SHARE + DELETE_SHARE && records.len() < 8) {
        let copy = xmlgen::extract_subtree(doc, pick(rng));
        let parent = doc.parent(pick(rng)).expect("records have parents");
        let arity = doc.children(parent).count();
        EditOp::InsertSubtree {
            parent: Some(parent),
            position: rng.gen_range(0..=arity),
            subtree: copy,
        }
    } else if roll < INSERT_SHARE + DELETE_SHARE {
        EditOp::DeleteSubtree { target: pick(rng) }
    } else {
        let subtree = xmlgen::extract_subtree(doc, pick(rng));
        EditOp::ReplaceSubtree {
            target: pick(rng),
            subtree,
        }
    }
}

/// The traced phase's copy of the served document: the same edits are
/// applied to it through `QueryService::apply_edit` alone, and layer by
/// layer, so the subscription wrapper's share can be told apart.
struct Twin {
    svc: QueryService,
    auto: SharedAutomaton,
}

/// One write through `SubscriptionService::apply_edit`.
fn write(
    sub: &SubscriptionService,
    op: &EditOp,
    twin: Option<&Twin>,
    probe: Option<Probe>,
    req: u64,
) -> (Answer, f64) {
    let tr = probe.map(|p| p.tracer);
    let root = tr.map(|t| t.open("request", None, req));
    if let (Some(p), Some(twin)) = (probe, twin) {
        let snap = twin.svc.snapshot();
        let (applied, op_ms) = timed(tr, "xmldom.apply_op", root, req, || {
            apply_op(snap.doc(), op)
        });
        if let (Ok((doc, delta)), ServeIndex::Heap(ix)) = (applied, snap.index()) {
            let ((_, how), ix_ms) = timed(tr, "xmlindex.apply_edit", root, req, || {
                ix.apply_edit(&doc, &delta)
            });
            p.layers.add("xmldom.apply_op_ms", op_ms);
            p.layers.add("xmlindex.apply_edit_ms", ix_ms);
            p.layers.add(
                "xmlindex.patched_share",
                f64::from(how == EditApply::Patched),
            );
        }
        let (_, svc_ms) = timed(tr, "twigserve.apply_edit", root, req, || {
            twin.svc.apply_edit(op)
        });
        p.layers.add("twigserve.apply_edit_ms", svc_ms);
    }
    let (res, ms) = timed(tr, "twigserve.subscribe.apply_edit", root, req, || {
        sub.apply_edit(op)
    });
    if let (Some(p), Some(twin)) = (probe, twin) {
        p.layers.add("twigserve.subscribe.apply_edit_ms", ms);
        if let Ok((receipt, _)) = &res {
            p.layers
                .add("twigserve.invalidations", receipt.invalidated_plans as f64);
        }
        let snap = sub.service().snapshot();
        let ((_, stats), sub_ms) = timed(tr, "twig2stack.subscribe", root, req, || {
            run_subscriptions_doc(snap.doc(), &twin.auto, MatchOptions::default())
        });
        p.layers.add("twig2stack.subscribe_ms", sub_ms);
        p.layers
            .add("twig2stack.sub_feeds", stats.matcher_feeds as f64);
        p.layers
            .add("twig2stack.sub_elements", stats.elements as f64);
    }
    if let (Some(t), Some(r)) = (tr, root) {
        t.close(r);
    }
    (
        if res.is_ok() {
            Answer::Right
        } else {
            Answer::Failed
        },
        ms,
    )
}

struct Served {
    sub: SubscriptionService,
    ids: Vec<SubscriptionId>,
}

fn serve(xml: &str, standing: &[String], probe: Option<Probe>, req: u64) -> Served {
    let svc = Arc::new(query_mix::serve(xml, probe, req));
    let sub = SubscriptionService::new(svc);
    let ids = standing
        .iter()
        .map(|q| sub.register(q).expect("standing queries register"))
        .collect();
    Served { sub, ids }
}

pub fn run(args: &Args, probe: Option<Probe>) -> Outcome {
    let mut out = Outcome {
        gated_class: "writes (SubscriptionService::apply_edit)",
        ..Outcome::default()
    };
    let text = common::dataset(Ds::XMark);
    let standing: Vec<String> = common::fixed_queries(Ds::XMark)
        .into_iter()
        .take(SUBSCRIPTIONS)
        .map(str::to_string)
        .collect();
    let mut served = None;
    for rep in 0..common::SETUP_REPS {
        drop(served.take());
        let t = Instant::now();
        served = Some(serve(&text.xml, &standing, probe, rep as u64));
        out.setup_s.push(ms_since(t) / 1e3);
    }
    let Served { sub, ids } = served.expect("set up at least once");
    let svc = Arc::clone(sub.service());
    let pool = query_mix::warm_pool(&svc, Ds::XMark);
    let weights = common::zipf_weights(pool.queries.len(), query_mix::ZIPF_S);
    let items: Vec<(usize, f64)> = weights.into_iter().enumerate().collect();
    out.notes.push(format!(
        "XMark: {:.2} MB, {} elements; {} standing queries; reader pool {} queries; edits {:.0}% insert, \
         {:.0}% delete, {:.0}% replace of {:?} records",
        text.mb(),
        text.elements,
        standing.len(),
        pool.queries.len(),
        INSERT_SHARE * 100.0,
        DELETE_SHARE * 100.0,
        (1.0 - INSERT_SHARE - DELETE_SHARE) * 100.0,
        RECORDS,
    ));
    let writer_rng = Mutex::new(common::rng(args.seed, 0xed17));
    let phase = |secs: f64, probe: Option<Probe>, stream: u64| -> (Tally, Tally) {
        let schedule = Schedule::new(
            &items,
            query_mix::CYCLE_LEN,
            &mut common::rng(args.seed, stream),
        );
        let twin = probe.map(|_| Twin {
            svc: QueryService::build(svc.snapshot().doc().clone(), ServiceConfig::default()),
            auto: SharedAutomaton::build(
                standing
                    .iter()
                    .map(|q| parse_twig(q).expect("standing queries parse"))
                    .collect(),
            ),
        });
        let writes_done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                closed_loop(1, secs, |req| {
                    let op = next_edit(
                        svc.snapshot().doc(),
                        &mut writer_rng.lock().expect("writer rng poisoned"),
                    );
                    let (answer, ms) = write(&sub, &op, twin.as_ref(), probe, req);
                    (
                        answer,
                        ms,
                        writes_done.fetch_add(1, Ordering::Relaxed) / WRITES_PER_WINDOW,
                    )
                })
            });
            let reader = closed_loop(1, secs, |req| {
                let (q, cycle) = schedule.next();
                let (answer, ms, _) = read(&svc, &pool.queries[q], false, probe, req + (1 << 40));
                (answer, ms, cycle)
            });
            (writer.join().expect("writer panicked"), reader)
        })
    };
    let untraced_secs = if probe.is_some() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = svc.stats();
    let (writes, reads) = phase(untraced_secs, None, 1);
    let after = svc.stats();
    if let Some(p) = probe {
        let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
        let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;
        p.layers
            .set("twigserve.plan_cache_hit_rate", ratio(hits, hits + misses));
        p.layers.set(
            "twigserve.plan_cache_evictions",
            (after.plan_cache_evictions - before.plan_cache_evictions) as f64,
        );
    }
    out.ops = writes.add_to(&mut out);
    let reads = reads.add_to(&mut out);
    out.detail = vec![
        common::metric("write_p50_ms", out.ops.p50(), "ms"),
        common::metric("write_p99_ms", out.ops.p99(), "ms"),
        common::metric("write_ops_s", out.ops.per_s(), "1/s"),
        common::metric("read_p50_ms", reads.p50(), "ms"),
        common::metric("read_p99_ms", reads.p99(), "ms"),
        common::metric("read_qps", reads.per_s(), "1/s"),
    ];
    if probe.is_some() {
        let (writes, reads) = phase(args.seconds / 2.0, probe, 2);
        out.traced_ops = Some(writes.add_to(&mut out));
        reads.add_to(&mut out);
    }
    // Every subscription's published matches must equal a fresh DOM
    // evaluation of its query on the final document.
    let snap = svc.snapshot();
    for (id, q) in ids.iter().zip(&standing) {
        let expected =
            twig2stack::evaluate(snap.doc(), &parse_twig(q).expect("standing queries parse"));
        let published = sub.matches(*id).expect("subscription is live");
        out.attempted += 1;
        if common::fingerprint(&published) != common::fingerprint(&expected) {
            out.failed += 1;
            out.wrong += 1;
        }
    }
    let stats = svc.stats();
    out.notes.push(format!(
        "final document: {} elements after {} edits ({} rotations, {} plan invalidations)",
        snap.doc().len(),
        stats.edits_applied,
        stats.snapshot_rotations,
        stats.plan_cache_invalidations
    ));
    out
}
