//! `catalog-fanout`: two closed-loop clients against a `CatalogService`
//! over the Figure U catalog at `Profile::Full` (10,000 small documents
//! in four label-disjoint families), running the `catalog_queries()` mix
//! with equal shares.
//!
//! Per-document match work is tiny here; the time goes to routing,
//! scatter over the shard pool and the merge. It is the only workload
//! that exercises those layers.

use crate::common::{self, ms_since, ratio, Outcome, Schedule};
use crate::query_mix::{closed_loop, Answer};
use crate::trace::{timed, Probe};
use crate::Args;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use twigbench::workload::{self, Profile};
use twigserve::{CatalogConfig, CatalogService, CatalogStats, DocHit};
use xmldom::Indent;

const CLIENTS: u64 = 2;
/// Requests per schedule cycle: 20 of each query, about two seconds.
const CYCLE_LEN: usize = 120;
/// In a traced run, every this-many-th request also runs the serial
/// oracle (`execute_serial`), which costs several catalog requests.
const SERIAL_EVERY: u64 = 8;

fn hits_fingerprint(hits: &[DocHit]) -> u64 {
    let mut h = DefaultHasher::new();
    for hit in hits {
        hit.doc.hash(&mut h);
        common::fingerprint(&hit.rows).hash(&mut h);
    }
    h.finish()
}

fn build(texts: &[String], probe: Option<Probe>, req: u64) -> CatalogService {
    let tr = probe.map(|p| p.tracer);
    let root = tr.map(|t| t.open("setup", None, req));
    let (docs, parse_ms) = timed(tr, "xmldom.parse", root, req, || {
        texts
            .iter()
            .map(|x| xmldom::parse(x).expect("catalog members parse"))
            .collect::<Vec<_>>()
    });
    let (catalog, _) = timed(tr, "twigserve.catalog.build", root, req, || {
        CatalogService::build_heap(docs, CatalogConfig::default())
    });
    if let (Some(p), Some(r)) = (probe, root) {
        // Per-member means, so parse_ms reads as one document's parse.
        let n = texts.len() as f64;
        p.layers.add("xmldom.parse_ms", parse_ms / n);
        p.layers.add(
            "xmldom.parse_mb",
            texts.iter().map(String::len).sum::<usize>() as f64 / 1e6 / n,
        );
        p.tracer.close(r);
    }
    catalog
}

pub fn run(args: &Args, probe: Option<Probe>) -> Outcome {
    let mut out = Outcome {
        gated_class: "catalog reads (CatalogService::execute)",
        ..Outcome::default()
    };
    let members = workload::catalog_docs(Profile::Full);
    let elements: usize = members.iter().map(|d| d.len()).sum();
    let texts: Vec<String> = members
        .iter()
        .map(|d| xmldom::write(d, Indent::None))
        .collect();
    drop(members);
    let mut catalog = None;
    for rep in 0..common::SETUP_REPS {
        drop(catalog.take());
        let t = Instant::now();
        catalog = Some(build(&texts, probe, rep as u64));
        out.setup_s.push(ms_since(t) / 1e3);
    }
    let catalog = catalog.expect("set up at least once");
    let queries: Vec<(&'static str, u64)> = workload::catalog_queries()
        .iter()
        .map(|q| {
            let hits = catalog
                .execute_serial(q.text)
                .expect("catalog queries run serially");
            (q.text, hits_fingerprint(&hits))
        })
        .collect();
    out.notes.push(format!(
        "catalog: {} documents, {} elements, {:.2} MB; {} shards; {} queries with equal shares",
        catalog.doc_count(),
        elements,
        texts.iter().map(String::len).sum::<usize>() as f64 / 1e6,
        catalog.shard_count(),
        queries.len()
    ));
    let share = 1.0 / queries.len() as f64;
    let items: Vec<(usize, f64)> = (0..queries.len()).map(|i| (i, share)).collect();
    let phase = |secs: f64, probe: Option<Probe>, stream: u64| {
        let schedule = Schedule::new(&items, CYCLE_LEN, &mut common::rng(args.seed, stream));
        closed_loop(CLIENTS, secs, |req| {
            let (q, cycle) = schedule.next();
            let (text, fp) = queries[q];
            let tr = probe.map(|p| p.tracer);
            let root = tr.map(|t| t.open("request", None, req));
            let (res, ms) = timed(tr, "twigserve.catalog.execute", root, req, || {
                catalog.execute(text)
            });
            if let Some(p) = probe {
                p.layers.add("twigserve.catalog.execute_ms", ms);
                let (_, route_ms) = timed(tr, "twigserve.catalog.route", root, req, || {
                    catalog.routed_docs(text)
                });
                p.layers.add("twigserve.catalog.route_ms", route_ms);
                if req % SERIAL_EVERY == 0 {
                    let (_, serial_ms) = timed(tr, "twigserve.catalog.serial", root, req, || {
                        catalog.execute_serial(text)
                    });
                    p.layers.add("twigserve.catalog.serial_ms", serial_ms);
                }
            }
            if let (Some(t), Some(r)) = (tr, root) {
                t.close(r);
            }
            let answer = match res {
                Ok(hits) if hits_fingerprint(&hits) == fp => Answer::Right,
                Ok(_) => Answer::Wrong,
                Err(_) => Answer::Failed,
            };
            (answer, ms, cycle)
        })
    };
    let untraced_secs = if probe.is_some() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before: CatalogStats = catalog.stats();
    let tally = phase(untraced_secs, None, 1);
    let after = catalog.stats();
    let routed = (after.docs_routed - before.docs_routed) as f64;
    let skipped = (after.docs_skipped - before.docs_skipped) as f64;
    out.notes.push(format!(
        "routing over the untraced phase: {routed} documents routed, {skipped} skipped"
    ));
    out.ops = tally.add_to(&mut out);
    out.detail = vec![
        common::metric("read_p50_ms", out.ops.p50(), "ms"),
        common::metric("read_p99_ms", out.ops.p99(), "ms"),
        common::metric("read_qps", out.ops.per_s(), "1/s"),
    ];
    if let Some(p) = probe {
        p.layers.set(
            "twigserve.catalog.skip_rate",
            ratio(skipped, routed + skipped),
        );
        let tally = phase(args.seconds / 2.0, probe, 2);
        out.traced_ops = Some(tally.add_to(&mut out));
    }
    out
}
