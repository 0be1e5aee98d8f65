//! Pieces every workload shares: timing and percentiles, answer
//! fingerprints, the Figure 14 datasets as XML text, the seeded query
//! pools, and the result a run prints.

use crate::trace::{timed, Probe, SpanId};
use gtpquery::{parse_twig, ResultSet};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use twigbench::workload::{self, Profile};
use twigfuzz::{generate_query, GenConfig, Vocabulary};
use xmldom::{Document, Indent};
use xmlindex::ElementIndex;

/// Every service is set up this many times per run; `setup_s` is the
/// median, so one slow set-up does not move the gated number.
pub const SETUP_REPS: usize = 5;

/// Generated queries whose `count_results` at set-up reaches this many
/// rows are not admitted to a pool. Without a cap a single generated
/// query can ask for ~2e9 rows: the service has no row budget and would
/// abort the process on the allocation (ROADMAP item 4).
pub const ROW_CAP: u64 = 50_000;

/// Generated-query candidates tried per dataset before a pool is closed
/// short of its target size.
const MAX_CANDIDATES: usize = 1_200;

/// Seed of the query generator behind every pool (see [`build_pool`]).
const POOL_SEED: u64 = 7;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Order-sensitive 64-bit fingerprint of a result set: schema and every
/// row. Answers are compared by fingerprint so the references of a
/// whole pool stay small.
pub fn fingerprint(rs: &ResultSet) -> u64 {
    let mut h = DefaultHasher::new();
    rs.columns.len().hash(&mut h);
    for c in &rs.columns {
        c.index().hash(&mut h);
    }
    rs.rows.hash(&mut h);
    h.finish()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// A seeded generator for one purpose of one run: the same seed and
/// stream id give the same sequence.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Uniform float in [0, 1).
pub fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf popularity over ranks `0..n`, normalized: rank `r` has weight
/// proportional to `1 / (r + 1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    w.into_iter().map(|x| x / total).collect()
}

/// A request order shared by every client of a phase: clients take the
/// next entry in turn. The order repeats one cycle in which each item
/// appears `max(1, round(weight × len))` times, its appearances spread
/// evenly over the cycle from a seeded starting phase.
///
/// Every cycle thus holds exactly the same mix, and a cycle is the
/// window the gated numbers are taken over ([`Timed`]). Drawing requests
/// independently at random instead let the share of the few expensive
/// queries vary from window to window and run to run, and the latency
/// and throughput with it. Seeds give different orders of the same mix.
pub struct Schedule<T> {
    cycle: Vec<T>,
    cursor: AtomicUsize,
}

impl<T: Copy> Schedule<T> {
    pub fn new(items: &[(T, f64)], len: usize, rng: &mut SmallRng) -> Self {
        let mut slots: Vec<(f64, usize)> = Vec::new();
        for (i, &(_, w)) in items.iter().enumerate() {
            let count = ((w * len as f64).round() as usize).max(1);
            let phase = unit(rng);
            slots.extend((0..count).map(|k| ((k as f64 + phase) / count as f64, i)));
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cycle = slots.into_iter().map(|(_, i)| items[i].0).collect();
        Schedule {
            cycle,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The next request and the cycle it belongs to.
    pub fn next(&self) -> (T, usize) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (self.cycle[i % self.cycle.len()], i / self.cycle.len())
    }
}

/// One Figure 14 dataset at `Profile::Full`, as the XML text a client
/// would send.
pub struct DatasetText {
    pub name: &'static str,
    pub xml: String,
    pub elements: usize,
}

impl DatasetText {
    pub fn mb(&self) -> f64 {
        self.xml.len() as f64 / 1e6
    }
}

/// Which of the three datasets.
#[derive(Clone, Copy)]
pub enum Ds {
    Dblp,
    TreeBank,
    XMark,
}

pub const ALL_DS: [Ds; 3] = [Ds::Dblp, Ds::TreeBank, Ds::XMark];

/// Generate a dataset's document and serialize it. The generators'
/// own seeds are the `Profile::Full` ones, so every run serves the same
/// documents (and the sizes in `perfbench/README.md` hold); the run seed
/// drives queries, popularity, edits and request order.
pub fn dataset(ds: Ds) -> DatasetText {
    let (name, doc): (&'static str, Document) = match ds {
        Ds::Dblp => (
            "DBLP",
            xmlgen::generate_dblp(&workload::dblp_config(Profile::Full)),
        ),
        Ds::TreeBank => (
            "TreeBank",
            xmlgen::generate_treebank(&workload::treebank_config(Profile::Full)),
        ),
        Ds::XMark => (
            "XMark",
            xmlgen::generate_xmark(&workload::xmark_config(Profile::Full, 1)),
        ),
    };
    DatasetText {
        name,
        xml: xmldom::write(&doc, Indent::None),
        elements: doc.len(),
    }
}

/// The dataset's fixed queries: its three Figure 15 queries plus the
/// Figure 18 (DBLP) or Figure 19 (XMark) GTP variants, without repeats
/// (18(a) is DBLP-Q1, 19(a) is XMark-Q2).
pub fn fixed_queries(ds: Ds) -> Vec<&'static str> {
    let named = match ds {
        Ds::Dblp => [workload::dblp_queries(), workload::fig18_variants()].concat(),
        Ds::TreeBank => workload::treebank_queries(),
        Ds::XMark => [workload::xmark_queries(), workload::fig19_variants()].concat(),
    };
    let mut texts: Vec<&'static str> = Vec::new();
    for q in named {
        if !texts.contains(&q.text) {
            texts.push(q.text);
        }
    }
    texts
}

/// One query of a pool with its reference answer.
pub struct PoolQuery {
    pub text: String,
    pub fp: u64,
    pub rows: usize,
}

/// A dataset's query pool and what building it rejected.
pub struct Pool {
    pub queries: Vec<PoolQuery>,
    pub candidates: usize,
    pub over_cap: usize,
}

/// Reference answer of `text` over `doc` by the DOM path
/// (`twig2stack::match_document` + `enumerate`), or `None` when the
/// query would produce `cap` rows or more.
fn reference(doc: &Document, text: &str, cap: u64) -> Option<(u64, usize)> {
    let gtp = parse_twig(text).expect("pool queries parse");
    let (tm, _) = twig2stack::match_document(doc, &gtp, twig2stack::MatchOptions::default());
    if twig2stack::count_results(&tm) >= cap {
        return None;
    }
    let rs = twig2stack::enumerate(&tm);
    Some((fingerprint(&rs), rs.len()))
}

/// The fixed queries followed by `twigfuzz` queries over the document's
/// own vocabulary, `target` in all (fewer if the candidates run out).
/// Only the generated queries are held to `ROW_CAP`. Every answer is
/// computed here, by a different path than the service's indexed one.
/// With `structure_only`, no query has a value predicate (the streaming
/// paths cannot evaluate them).
///
/// The generator seed is fixed, not the run's: a pool is part of the
/// workload's definition like its documents, so runs with different
/// seeds differ in the traffic drawn from the pool, not in the pool.
/// Pools drawn per run seed made the mix's median latency swing by 5×
/// between seeds.
pub fn build_pool(doc: &Document, ds: Ds, target: usize, structure_only: bool) -> Pool {
    let mut queries = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for text in fixed_queries(ds) {
        seen.insert(text.to_string());
        let (fp, rows) = reference(doc, text, u64::MAX).expect("no cap");
        queries.push(PoolQuery {
            text: text.to_string(),
            fp,
            rows,
        });
    }
    let vocab = Vocabulary::from_document(doc);
    // Fewer wildcards and value predicates than the fuzzing default: a
    // `//*` step pushes every element, which makes the set-up reference
    // pass (a full DOM walk per candidate) slow without adding variety.
    let cfg = GenConfig {
        wildcard_prob: 0.05,
        value_pred_prob: if structure_only { 0.0 } else { 0.1 },
        ..GenConfig::default()
    };
    let mut rng = rng(POOL_SEED, ds as u64);
    let (mut candidates, mut over_cap) = (0, 0);
    while queries.len() < target && candidates < MAX_CANDIDATES {
        let text = gtpquery::serialize(&generate_query(&mut rng, &vocab, &cfg));
        if !seen.insert(text.clone()) {
            continue;
        }
        candidates += 1;
        match reference(doc, &text, ROW_CAP) {
            Some((fp, rows)) => queries.push(PoolQuery { text, fp, rows }),
            None => over_cap += 1,
        }
    }
    Pool {
        queries,
        candidates,
        over_cap,
    }
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The successful operations of one timed phase, grouped into windows
/// that each hold the same mix of operations (one schedule cycle).
///
/// The gated numbers come from the faster half of the windows: on a
/// shared host, other tenants' load slowed a plain CPU loop by up to
/// 1.6× for seconds at a time and never sped it up, and the half of the
/// run it disturbed least is what repeats from run to run. Every
/// operation still counts toward `attempted`, `failed` and the
/// correctness check.
#[derive(Default)]
pub struct Timed {
    /// Latency (ms) of each operation.
    pub lat: Vec<f64>,
    /// Window of each operation.
    window: Vec<usize>,
    /// Length of each window in seconds.
    window_secs: Vec<f64>,
}

impl Timed {
    /// One client's operations, all of which count, in one window as
    /// long as their summed time in the program (the client's own work
    /// between them is left out). For a phase with too few windows for
    /// the faster half to be a steady choice.
    pub fn serial(lat: Vec<f64>) -> Self {
        let secs = lat.iter().sum::<f64>() / 1e3;
        Timed {
            window: vec![0; lat.len()],
            lat,
            window_secs: vec![secs],
        }
    }

    /// Operations of a closed loop, each with its window (a schedule
    /// cycle) and its completion time in seconds into the phase. A window
    /// lasts from the previous window's last completion to its own. The
    /// last window, cut short by the deadline, is left out when there
    /// are others.
    pub fn by_window(lat: Vec<f64>, window: Vec<usize>, done_at: &[f64]) -> Self {
        let windows = window.iter().max().map_or(0, |&w| w + 1);
        let mut end = vec![0.0f64; windows];
        for (&w, &at) in window.iter().zip(done_at) {
            end[w] = end[w].max(at);
        }
        let kept = if windows > 1 { windows - 1 } else { windows };
        let mut window_secs = Vec::with_capacity(kept);
        let mut prev_end = 0.0;
        for &e in &end[..kept] {
            let e = e.max(prev_end);
            window_secs.push(e - prev_end);
            prev_end = e;
        }
        let (lat, window) = lat
            .into_iter()
            .zip(window)
            .filter(|&(_, w)| w < kept)
            .unzip();
        Timed {
            lat,
            window,
            window_secs,
        }
    }

    /// Wall time of the windows.
    pub fn secs(&self) -> f64 {
        self.window_secs.iter().sum()
    }

    /// The faster half of the windows (by operations per second): their
    /// latencies pooled, and their total length in seconds.
    fn steady(&self) -> (Vec<f64>, f64) {
        let mut count = vec![0usize; self.window_secs.len()];
        for &w in &self.window {
            count[w] += 1;
        }
        let rate = |w: usize| ratio(count[w] as f64, self.window_secs[w]);
        let mut order: Vec<usize> = (0..self.window_secs.len()).collect();
        order.sort_by(|&a, &b| rate(b).total_cmp(&rate(a)));
        let keep = &order[..order.len().div_ceil(2)];
        let lat = self
            .window
            .iter()
            .zip(&self.lat)
            .filter(|(w, _)| keep.contains(w))
            .map(|(_, &ms)| ms)
            .collect();
        (lat, keep.iter().map(|&w| self.window_secs[w]).sum())
    }

    /// Median latency over the faster half of the windows.
    pub fn p50(&self) -> f64 {
        percentile(&self.steady().0, 50.0)
    }

    /// 99th-percentile latency over the faster half of the windows.
    pub fn p99(&self) -> f64 {
        percentile(&self.steady().0, 99.0)
    }

    /// Operations completed per second over the faster half of the
    /// windows.
    pub fn per_s(&self) -> f64 {
        let (lat, secs) = self.steady();
        ratio(lat.len() as f64, secs)
    }

    pub fn count(&self) -> usize {
        self.lat.len()
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Seconds from XML text in memory to services ready, per repetition.
    pub setup_s: Vec<f64>,
    /// The gated operation class of the untraced phase.
    pub ops: Timed,
    /// The same class in the traced phase (traced runs only).
    pub traced_ops: Option<Timed>,
    /// What the gated operations are, for the printed summary.
    pub gated_class: &'static str,
    /// Operations issued in the timed phase(s).
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// Wrong answers among `failed`; any makes the run incorrect.
    pub wrong: u64,
    /// Workload-specific end-to-end metrics of the untraced phase,
    /// printed for reading.
    pub detail: Vec<Metric>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

/// A parsed and indexed document with the time each step took.
pub struct Ingested {
    pub doc: Document,
    pub index: ElementIndex,
    pub parse_ms: f64,
    pub build_ms: f64,
}

/// The ingest path: parse `xml` and build its element index, each call
/// in its own span when tracing.
pub fn ingest(xml: &str, probe: Option<Probe>, parent: Option<SpanId>, req: u64) -> Ingested {
    let tr = probe.map(|p| p.tracer);
    let (doc, parse_ms) = timed(tr, "xmldom.parse", parent, req, || {
        xmldom::parse(xml).expect("generated XML parses")
    });
    let (index, build_ms) = timed(tr, "xmlindex.build", parent, req, || {
        ElementIndex::build(&doc)
    });
    if let Some(p) = probe {
        p.layers.add("xmldom.parse_ms", parse_ms);
        p.layers.add("xmldom.parse_mb", xml.len() as f64 / 1e6);
        p.layers.add("xmlindex.build_ms", build_ms);
        p.layers.add("xmlindex.elements_indexed", doc.len() as f64);
    }
    Ingested {
        doc,
        index,
        parse_ms,
        build_ms,
    }
}
