//! `query-mix`: read-only traffic from two closed-loop clients against
//! three `QueryService`s (DBLP, TreeBank, XMark at `Profile::Full`).
//!
//! Each dataset's pool holds its fixed queries plus generated ones, more
//! than the default 128-entry plan cache, and requests follow a skewed
//! popularity over it: plan-cache hits, misses and evictions all occur.
//! Parsing happens only in set-up, so the timed phase is plan lookup,
//! admission, match and enumerate.

use crate::common::{
    self, ms_since, ratio, zipf_weights, Ds, Outcome, Pool, PoolQuery, Schedule, Timed, ALL_DS,
};
use crate::trace::{timed, Probe};
use crate::Args;
use gtpquery::{parse_twig, CancelToken};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use twig2stack::{enumerate, try_match_indexed, IndexedPlan, MatchOptions};
use twigserve::{QueryService, ServeIndex, ServiceConfig, ServiceStats};

/// Queries per dataset pool: above the default plan-cache capacity (128)
/// so the cache evicts.
pub const POOL_SIZE: usize = 160;
/// Zipf exponent of query popularity within a pool.
pub const ZIPF_S: f64 = 0.5;
/// Target requests per schedule cycle (the window the gated numbers are
/// taken over). Every pool query appears at least once per cycle, so
/// each service sees more distinct queries per cycle than its plan
/// cache holds; a twenty-second run holds about seven cycles.
pub const CYCLE_LEN: usize = 480;
const CLIENTS: u64 = 2;

/// Parse, index and wrap one dataset text in a `QueryService`.
pub fn serve(xml: &str, probe: Option<Probe>, req: u64) -> QueryService {
    let root = probe.map(|p| p.tracer.open("setup", None, req));
    let ingested = common::ingest(xml, probe, root, req);
    let svc = QueryService::new(ingested.doc, ingested.index, ServiceConfig::default());
    if let (Some(p), Some(r)) = (probe, root) {
        p.tracer.close(r);
    }
    svc
}

/// Build the pool of `ds` over the service's document (popularity
/// follows pool order: the paper's queries are the most popular, the
/// generated ones form the tail), then run every query once so the
/// timed phase starts with a filled plan cache and context pool.
pub fn warm_pool(svc: &QueryService, ds: Ds) -> Pool {
    let pool = common::build_pool(svc.snapshot().doc(), ds, POOL_SIZE, false);
    for q in pool.queries.iter().rev() {
        svc.execute(&q.text).expect("warm-up read succeeds");
    }
    pool
}

/// How one request ended.
pub enum Answer {
    Right,
    Wrong,
    Failed,
}

/// Milliseconds of one traced read: execute, plan lookup, match,
/// enumerate.
pub type ReadLayers = [f64; 4];

/// One read through `QueryService::execute`, checked against the pool's
/// reference when `check` is set. When tracing, the read is followed by
/// the same request's layers called one by one (plan lookup, indexed
/// match, enumerate), each in its own span, so their times add up
/// against `execute`; their times are also returned.
pub fn read(
    svc: &QueryService,
    q: &PoolQuery,
    check: bool,
    probe: Option<Probe>,
    req: u64,
) -> (Answer, f64, Option<ReadLayers>) {
    let root = probe.map(|p| p.tracer.open("request", None, req));
    let (res, ms) = timed(
        probe.map(|p| p.tracer),
        "twigserve.execute",
        root,
        req,
        || svc.execute(&q.text),
    );
    let answer = match res {
        Ok(rs) if !check || common::fingerprint(&rs) == q.fp => Answer::Right,
        Ok(_) => Answer::Wrong,
        Err(_) => Answer::Failed,
    };
    let mut layers = None;
    if let (Some(p), Some(root)) = (probe, root) {
        let tr = Some(p.tracer);
        p.layers.add("twigserve.execute_ms", ms);
        let (decision, plan_ms) = timed(tr, "twigserve.plan", Some(root), req, || {
            svc.planned(&q.text)
        });
        p.layers.add("twigserve.plan_ms", plan_ms);
        let snap = svc.snapshot();
        if let (Ok(decision), ServeIndex::Heap(ix)) = (decision, snap.index()) {
            let gtp = parse_twig(&q.text).expect("pool queries parse");
            let (plan, _) = timed(tr, "bench.analysis", Some(root), req, || {
                IndexedPlan::compute(&gtp, ix, snap.doc().labels(), decision.policy)
            });
            let (matched, match_ms) = timed(tr, "twig2stack.match", Some(root), req, || {
                try_match_indexed(
                    snap.doc(),
                    ix,
                    &gtp,
                    MatchOptions::default(),
                    &plan,
                    None,
                    &CancelToken::never(),
                )
            });
            if let Ok((tm, stats)) = matched {
                let (rs, enum_ms) = timed(tr, "twig2stack.enumerate", Some(root), req, || {
                    enumerate(&tm)
                });
                p.layers.add("twig2stack.match_ms", match_ms);
                p.layers.add("twig2stack.enumerate_ms", enum_ms);
                p.layers.add(
                    "twig2stack.elements_scanned",
                    stats.elements_considered as f64,
                );
                p.layers.add("twig2stack.rows", rs.len() as f64);
                layers = Some([ms, plan_ms, match_ms, enum_ms]);
            }
        }
        p.tracer.close(root);
    }
    (answer, ms, layers)
}

/// Tallies of one timed phase.
#[derive(Default)]
pub struct Tally {
    /// Latency (ms) and completion time (s into the phase) of each
    /// successful operation.
    pub lat: Vec<f64>,
    pub window: Vec<usize>,
    pub done_at: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// One finished operation of a closed loop: how it ended, its latency
/// (ms) and its window (schedule cycle).
pub type Done = (Answer, f64, usize);

impl Tally {
    pub fn record(&mut self, (answer, ms, window): Done, done_at: f64) {
        self.attempted += 1;
        match answer {
            Answer::Right => {
                self.lat.push(ms);
                self.window.push(window);
                self.done_at.push(done_at);
            }
            Answer::Wrong => {
                self.failed += 1;
                self.wrong += 1;
            }
            Answer::Failed => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.lat.extend(other.lat);
        self.window.extend(other.window);
        self.done_at.extend(other.done_at);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Count this phase's operations into `out` and keep its timings.
    pub fn add_to(self, out: &mut Outcome) -> Timed {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.wrong += self.wrong;
        Timed::by_window(self.lat, self.window, &self.done_at)
    }
}

/// Run `clients` closed-loop clients for `secs`; each calls `op` with a
/// fresh request id until the deadline.
pub fn closed_loop(clients: u64, secs: f64, op: impl Fn(u64) -> Done + Sync) -> Tally {
    let total = Mutex::new(Tally::default());
    let next_req = AtomicU64::new(1_000);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for _ in 0..clients {
            let (total, next_req, op) = (&total, &next_req, &op);
            s.spawn(move || {
                let mut tally = Tally::default();
                while Instant::now() < deadline {
                    let done = op(next_req.fetch_add(1, Ordering::Relaxed));
                    tally.record(done, start.elapsed().as_secs_f64());
                }
                total.lock().expect("tally poisoned").merge(tally);
            });
        }
    });
    total.into_inner().expect("tally poisoned")
}

fn stats_sum(svcs: &[QueryService]) -> ServiceStats {
    svcs.iter().fold(ServiceStats::default(), |mut acc, s| {
        let st = s.stats();
        acc.plan_cache_hits += st.plan_cache_hits;
        acc.plan_cache_misses += st.plan_cache_misses;
        acc.plan_cache_evictions += st.plan_cache_evictions;
        acc.queries_rejected += st.queries_rejected;
        acc
    })
}

pub fn run(args: &Args, probe: Option<Probe>) -> Outcome {
    let texts: Vec<_> = ALL_DS.iter().map(|&ds| common::dataset(ds)).collect();
    let mut out = Outcome {
        gated_class: "reads (QueryService::execute)",
        ..Outcome::default()
    };
    let mut svcs = Vec::new();
    for rep in 0..common::SETUP_REPS {
        svcs.clear();
        let t = Instant::now();
        svcs = texts
            .iter()
            .map(|d| serve(&d.xml, probe, rep as u64))
            .collect();
        out.setup_s.push(ms_since(t) / 1e3);
    }
    let t = Instant::now();
    let pools: Vec<Pool> = std::thread::scope(|s| {
        let handles: Vec<_> = ALL_DS
            .iter()
            .zip(&svcs)
            .map(|(&ds, svc)| s.spawn(move || warm_pool(svc, ds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool builder panicked"))
            .collect()
    });
    out.notes.push(format!(
        "reference answers and warm-up: {:.1} s",
        ms_since(t) / 1e3
    ));
    for (d, pool) in texts.iter().zip(&pools) {
        out.notes.push(format!(
            "{}: {:.2} MB, {} elements; pool {} queries ({} generated candidates, {} over the {}-row cap), \
             largest answer {} rows, Zipf s={}",
            d.name,
            d.mb(),
            d.elements,
            pool.queries.len(),
            pool.candidates,
            pool.over_cap,
            common::ROW_CAP,
            pool.queries.iter().map(|q| q.rows).max().unwrap_or(0),
            ZIPF_S,
        ));
    }
    // Datasets get equal shares; within one, Zipf over pool order.
    let items: Vec<((usize, usize), f64)> = pools
        .iter()
        .enumerate()
        .flat_map(|(d, pool)| {
            zipf_weights(pool.queries.len(), ZIPF_S)
                .into_iter()
                .enumerate()
                .map(move |(q, w)| ((d, q), w / ALL_DS.len() as f64))
        })
        .collect();
    // Requests for DBLP-Q1 (the first DBLP query), kept apart so the
    // layer numbers can be set against ROADMAP item 1's table.
    let q1: Mutex<Vec<(f64, Option<ReadLayers>)>> = Mutex::new(Vec::new());
    let phase = |secs: f64, probe: Option<Probe>, stream: u64| {
        let schedule = Schedule::new(&items, CYCLE_LEN, &mut common::rng(args.seed, stream));
        closed_loop(CLIENTS, secs, |req| {
            let ((d, q), cycle) = schedule.next();
            let (answer, ms, layers) = read(&svcs[d], &pools[d].queries[q], true, probe, req);
            if (d, q) == (0, 0) {
                q1.lock().expect("sample list poisoned").push((ms, layers));
            }
            (answer, ms, cycle)
        })
    };
    let q1_note = |traced: bool| {
        let samples = std::mem::take(&mut *q1.lock().expect("sample list poisoned"));
        let col = |i: usize| {
            let v: Vec<f64> = samples
                .iter()
                .filter_map(|(_, l)| l.map(|l| l[i]))
                .collect();
            common::median(&v)
        };
        let exec = common::median(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
        if traced {
            format!(
                "DBLP-Q1 ({} rows), traced medians over {}: execute {exec:.2} ms, plan {:.3} ms, \
                 match {:.2} ms, enumerate {:.2} ms",
                pools[0].queries[0].rows,
                samples.len(),
                col(1),
                col(2),
                col(3)
            )
        } else {
            format!(
                "DBLP-Q1 execute median over {} requests: {exec:.2} ms",
                samples.len()
            )
        }
    };
    let untraced_secs = if probe.is_some() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = stats_sum(&svcs);
    let tally = phase(untraced_secs, None, 1);
    let after = stats_sum(&svcs);
    out.notes.push(q1_note(false));
    let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
    let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;
    let evictions = (after.plan_cache_evictions - before.plan_cache_evictions) as f64;
    out.notes.push(format!(
        "plan cache over the untraced phase: {hits} hits, {misses} misses, {evictions} evictions; \
         {} requests shed",
        after.queries_rejected
    ));
    out.ops = tally.add_to(&mut out);
    out.detail = vec![
        common::metric("read_p50_ms", out.ops.p50(), "ms"),
        common::metric("read_p99_ms", out.ops.p99(), "ms"),
        common::metric("read_qps", out.ops.per_s(), "1/s"),
    ];
    if let Some(p) = probe {
        p.layers
            .set("twigserve.plan_cache_hit_rate", ratio(hits, hits + misses));
        p.layers.set("twigserve.plan_cache_evictions", evictions);
        let tally = phase(args.seconds / 2.0, probe, 2);
        out.traced_ops = Some(tally.add_to(&mut out));
        out.notes.push(q1_note(true));
    }
    out
}
