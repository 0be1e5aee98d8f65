//! `ingest-stream`: one client pushing the three datasets' XML text
//! through the text-driven paths, one operation at a time:
//!
//! * ingest: `xmldom::parse` then `ElementIndex::build`;
//! * solo streaming: `twig2stack::evaluate_streaming` of one query;
//! * `twig2stack::run_subscriptions` with `K` standing queries.
//!
//! Parsing is most of every operation here, so this is the workload a
//! faster tokenizer or a merged streaming loop must move. A cycle runs
//! each (operation, dataset) pair once, in a seeded order; the gated
//! numbers pool every operation of the complete cycles. A run holds only
//! about fifteen cycles, too few for the faster half of them to be a steady
//! choice (see `README.md`).

use crate::common::{
    self, median, ms_since, ratio, DatasetText, Ds, Outcome, PoolQuery, Timed, ALL_DS,
};
use crate::trace::{timed, Probe};
use crate::Args;
use gtpquery::{parse_twig, Gtp};
use std::time::{Duration, Instant};
use twig2stack::{evaluate_streaming, run_subscriptions, MatchOptions, SharedAutomaton};
use xmldom::Label;

/// Standing queries per dataset in the subscription operation.
pub const K: usize = 10;

/// One dataset with its queries and their reference answers.
struct Feed {
    text: DatasetText,
    /// The K standing queries, the dataset's fixed queries first.
    standing: Vec<PoolQuery>,
    /// How many of them are fixed; these are also evaluated solo, in
    /// turn.
    fixed: usize,
}

impl Feed {
    fn solo(&self) -> &[PoolQuery] {
        &self.standing[..self.fixed]
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Ingest,
    Stream,
    Subscribe,
}

const KINDS: [Kind; 3] = [Kind::Ingest, Kind::Stream, Kind::Subscribe];

fn gtps(queries: &[PoolQuery]) -> Vec<Gtp> {
    queries
        .iter()
        .map(|q| parse_twig(&q.text).expect("pool queries parse"))
        .collect()
}

/// Run one operation; returns whether its answer was right, its time in
/// the program (the calls into the layers, not the answer check), and
/// for an ingest the parse and build times. An ingest is right when the
/// document has the expected element count and every element sits in
/// exactly one label partition of the index.
fn op(
    kind: Kind,
    feed: &Feed,
    auto: &SharedAutomaton,
    turn: usize,
    probe: Option<Probe>,
    req: u64,
) -> (bool, f64, Option<(f64, f64)>) {
    let tr = probe.map(|p| p.tracer);
    let root = tr.map(|t| t.open("request", None, req));
    let out = match kind {
        Kind::Ingest => {
            let ing = common::ingest(&feed.text.xml, probe, root, req);
            let labels = ing.doc.labels().len();
            let indexed: usize = (0..labels)
                .map(|l| ing.index.count(Label::from_index(l)))
                .sum();
            let ok = ing.doc.len() == feed.text.elements && indexed == ing.doc.len();
            let pb = (ing.parse_ms, ing.build_ms);
            (ok, pb.0 + pb.1, Some(pb))
        }
        Kind::Stream => {
            let q = &feed.solo()[turn % feed.fixed];
            let gtp = parse_twig(&q.text).expect("pool queries parse");
            let (res, ms) = timed(tr, "twig2stack.stream", root, req, || {
                evaluate_streaming(&feed.text.xml, &gtp, MatchOptions::default())
            });
            if let Some(p) = probe {
                p.layers.add("twig2stack.stream_ms", ms);
            }
            (
                matches!(res, Ok((rs, _)) if common::fingerprint(&rs) == q.fp),
                ms,
                None,
            )
        }
        Kind::Subscribe => {
            let (res, ms) = timed(tr, "twig2stack.subscribe", root, req, || {
                run_subscriptions(&feed.text.xml, auto, MatchOptions::default())
            });
            let ok = match res {
                Ok((results, stats)) => {
                    if let Some(p) = probe {
                        p.layers.add("twig2stack.subscribe_ms", ms);
                        p.layers
                            .add("twig2stack.sub_feeds", stats.matcher_feeds as f64);
                        p.layers
                            .add("twig2stack.sub_elements", stats.elements as f64);
                    }
                    results.len() == feed.standing.len()
                        && results
                            .iter()
                            .zip(&feed.standing)
                            .all(|(rs, q)| common::fingerprint(rs) == q.fp)
                }
                Err(_) => false,
            };
            (ok, ms, None)
        }
    };
    if let (Some(t), Some(r)) = (tr, root) {
        t.close(r);
    }
    out
}

/// What one phase measured.
#[derive(Default)]
struct Log {
    lat: Vec<f64>,
    cycles: usize,
    /// Latencies per (kind, dataset) pair, kind-major.
    by_pair: Vec<Vec<f64>>,
    /// Parse and build times of each dataset's ingests.
    parse_build: Vec<Vec<(f64, f64)>>,
}

/// Run whole cycles until `secs` have passed. Operations of a cycle cut
/// short by the deadline are counted and checked but not timed.
fn phase(
    feeds: &[Feed],
    autos: &[SharedAutomaton],
    seed: u64,
    secs: f64,
    probe: Option<Probe>,
    out: &mut Outcome,
) -> Log {
    let mut rng = common::rng(seed, 0x1465 + probe.is_some() as u64);
    let mut pairs: Vec<(usize, usize)> = (0..KINDS.len())
        .flat_map(|k| (0..feeds.len()).map(move |d| (k, d)))
        .collect();
    let mut log = Log {
        by_pair: vec![Vec::new(); pairs.len()],
        parse_build: vec![Vec::new(); feeds.len()],
        ..Log::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut req = 1_000;
    for cycle in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rand::Rng::gen_range(&mut rng, 0..=i));
        }
        let mut done = Vec::new();
        for &(k, d) in &pairs {
            if Instant::now() >= deadline {
                break;
            }
            let (ok, ms, pb) = op(KINDS[k], &feeds[d], &autos[d], cycle, probe, req);
            req += 1;
            out.attempted += 1;
            if !ok {
                out.failed += 1;
                out.wrong += 1;
            }
            done.push((k, d, ms, ok, pb));
        }
        if done.len() < pairs.len() {
            break;
        }
        log.cycles += 1;
        for (k, d, ms, ok, pb) in done {
            if ok {
                log.lat.push(ms);
                log.by_pair[k * feeds.len() + d].push(ms);
                log.parse_build[d].extend(pb);
            }
        }
    }
    log
}

pub fn run(args: &Args, probe: Option<Probe>) -> Outcome {
    let mut out = Outcome {
        gated_class: "ingest, stream and subscribe passes over a dataset text",
        ..Outcome::default()
    };
    let feeds: Vec<Feed> = ALL_DS
        .iter()
        .map(|&ds: &Ds| {
            let text = common::dataset(ds);
            let doc = xmldom::parse(&text.xml).expect("generated XML parses");
            let pool = common::build_pool(&doc, ds, K, true);
            let fixed = common::fixed_queries(ds).len().min(pool.queries.len());
            Feed {
                text,
                standing: pool.queries,
                fixed,
            }
        })
        .collect();
    let mut autos = Vec::new();
    for rep in 0..common::SETUP_REPS {
        autos.clear();
        let t = Instant::now();
        for feed in &feeds {
            let root = probe.map(|p| p.tracer.open("setup", None, rep as u64));
            common::ingest(&feed.text.xml, probe, root, rep as u64);
            autos.push(SharedAutomaton::build(gtps(&feed.standing)));
            if let (Some(p), Some(r)) = (probe, root) {
                p.tracer.close(r);
            }
        }
        out.setup_s.push(ms_since(t) / 1e3);
    }
    let untraced_secs = if probe.is_some() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let log = phase(&feeds, &autos, args.seed, untraced_secs, None, &mut out);
    let n = feeds.len();
    for (d, feed) in feeds.iter().enumerate() {
        let p50 = |k: usize| median(&log.by_pair[k * n + d]);
        let parse = median(&log.parse_build[d].iter().map(|x| x.0).collect::<Vec<_>>());
        let build = median(&log.parse_build[d].iter().map(|x| x.1).collect::<Vec<_>>());
        out.notes.push(format!(
            "{}: {:.2} MB, {} elements; {} solo queries, K={}; medians: ingest {:.1} ms (parse {:.1} ms = \
             {:.1} MB/s, build {:.1} ms), stream {:.1} ms, subscribe {:.1} ms",
            feed.text.name,
            feed.text.mb(),
            feed.text.elements,
            feed.fixed,
            feed.standing.len(),
            p50(0),
            parse,
            ratio(feed.text.mb(), parse / 1e3),
            build,
            p50(1),
            p50(2),
        ));
    }
    // MB of text per second of each kind, over every timed operation.
    let mb_s = |k: usize| {
        let mb: f64 = (0..n)
            .map(|d| feeds[d].text.mb() * log.by_pair[k * n + d].len() as f64)
            .sum();
        let secs: f64 = (0..n)
            .map(|d| log.by_pair[k * n + d].iter().sum::<f64>() / 1e3)
            .sum();
        ratio(mb, secs)
    };
    out.detail = vec![
        common::metric("ingest_mb_s", mb_s(0), "MB/s"),
        common::metric("stream_mb_s", mb_s(1), "MB/s"),
        common::metric("subscribe_mb_s", mb_s(2), "MB/s"),
    ];
    out.notes.push(format!(
        "{} complete cycles of {} operations",
        log.cycles,
        KINDS.len() * n
    ));
    out.ops = Timed::serial(log.lat);
    if probe.is_some() {
        let log = phase(
            &feeds,
            &autos,
            args.seed,
            args.seconds / 2.0,
            probe,
            &mut out,
        );
        out.traced_ops = Some(Timed::serial(log.lat));
    }
    out
}
