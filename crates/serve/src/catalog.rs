//! Sharded multi-document catalog: Bloom-routed, scatter-gather serving
//! over N immutable [`Snapshot`]s (DESIGN.md §16).
//!
//! A [`CatalogService`] owns a fixed set of documents partitioned
//! round-robin into shards (doc id modulo shard count), each shard with
//! its own admission `Gate` and a persistent worker thread pool behind
//! an `mpsc` job queue. A query goes through three stages:
//!
//! 1. **Routing** — every document carries a 256-bit [`LabelBloom`] over
//!    its label *names* (names, not interned ids: each document has its
//!    own [`LabelTable`](xmldom::LabelTable), so numeric labels do not
//!    transfer across documents). A query visits only documents whose
//!    Bloom filter may contain **all** of the query's required labels
//!    ([`Gtp::required_label_names`]): labels on the all-mandatory path
//!    from the query root — no optional edge, no OR-group choice point
//!    above them. A document that lacks a required label cannot produce
//!    a match, and a Bloom filter has no false negatives, so routing
//!    never drops a matching document (**zero-false-negative
//!    guarantee**, pinned by `tests/catalog_routing.rs` and the
//!    `catalog_vs_serial` fuzz invariant). False positives only waste a
//!    scan that returns no rows.
//!
//! 2. **Execution** — one job per shard holding routed documents is
//!    submitted to the pool; each job admits itself through the shard's
//!    gate (the PR 5 admission policy, per shard), evaluates its routed
//!    documents in ascending doc-id order, and sends its hits back over
//!    a channel. The gather side merges in `(doc id, document order)` —
//!    byte-equal to serial iteration over all documents
//!    ([`CatalogService::execute_serial`] is the oracle).
//!
//! 3. **Batching** — documents sharing a *schema* (equal
//!    [`SummaryRef::fingerprint`](xmlindex::SummaryRef::fingerprint),
//!    i.e. identical path-summary structure under the same sid
//!    numbering) share one planner run: the cost-based [`PlanDecision`]
//!    and the satisfiability verdict are computed against the first
//!    document of the schema the query meets and reused for every
//!    sibling — the planner runs once per schema, not once per document.
//!    (Feasibility depends only on summary structure and label names, so
//!    the *satisfiability* verdict transfers exactly; per-sid counts and
//!    hulls vary within a schema, so the pruning choice is a
//!    shape-representative approximation — a performance knob, never a
//!    correctness one.) [`CatalogService::execute_batch`] additionally
//!    extends the PR 5 same-label-set shared scans across the batch: on
//!    every document, queries whose plans read the same label set share
//!    one merged stream scan.
//!
//! Per-document stream plans ([`IndexedPlan`]) are still computed per
//! document — their root covers and filters are built from that
//! document's region hulls, and reusing them across documents would be
//! unsound. The catalog's throughput win over serial iteration is the
//! routing skip-rate plus the once-per-schema planning, measured by
//! EXPERIMENTS.md Fig U.

use crate::planner::{self, PlanDecision, PlannerMode};
use crate::{Gate, ServeError, ServeIndex, Snapshot};
use gtpquery::{parse_twig, serialize, CancelToken, Gtp, ResultSet};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use twig2stack::{
    enumerate, try_match_indexed, try_match_indexed_group, IndexedPlan, MatchOptions,
};
use xmldom::{Document, Label};
use xmlindex::{ElementIndex, IndexView, MappedIndex, MappedOpenError};

/// A 256-bit Bloom filter over label *names*, k = 4 probes by double
/// hashing from one FNV-1a pass. Sized for real-world XML vocabularies
/// (tens of distinct labels per document): at 64 labels the
/// false-positive rate is ≈ (1 − e^(−4·64/256))⁴ ≈ 13% per probed name,
/// and `tests/catalog_routing.rs` pins a ceiling on the measured rate.
/// False negatives are impossible by construction — the routing
/// guarantee rests on exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelBloom {
    bits: [u64; 4],
}

impl LabelBloom {
    fn hash(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn probes(name: &str) -> [u32; 4] {
        let h = Self::hash(name);
        let h1 = h;
        // Odd second hash so the probe stride cycles the whole table.
        let h2 = (h >> 32) | 1;
        std::array::from_fn(|k| (h1.wrapping_add((k as u64).wrapping_mul(h2)) % 256) as u32)
    }

    /// Add a label name to the set.
    pub fn insert(&mut self, name: &str) {
        for bit in Self::probes(name) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// True if `name` *may* have been inserted (false positives
    /// possible); false only if it definitely was not (never wrong).
    pub fn maybe_contains(&self, name: &str) -> bool {
        Self::probes(name)
            .iter()
            .all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }
}

/// One document for [`CatalogService::build`]: served from a heap-built
/// index or from a mapped v3 index file (same results, byte for byte).
pub enum CatalogDoc {
    /// Build an [`ElementIndex`] for the document at catalog build time.
    Heap(Document),
    /// Serve the document from the mapped v3 index at the path (written
    /// by [`xmlindex::write_mapped_index`] from the same parse).
    Mapped(Document, PathBuf),
}

/// Tuning knobs for a [`CatalogService`].
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Shards the documents are partitioned into (doc id modulo shards;
    /// ≥ 1). One worker thread per shard unless `workers` overrides it.
    pub shards: usize,
    /// Worker threads in the scatter-gather pool; 0 means one per shard.
    pub workers: usize,
    /// Shard jobs allowed to evaluate concurrently per shard (the PR 5
    /// admission gate, applied per shard).
    pub per_shard_concurrency: usize,
    /// Shard jobs allowed to queue per shard before the overload policy
    /// sheds the whole query with [`ServeError::Overloaded`].
    pub per_shard_waiting: usize,
    /// Cached catalog plans (routing label sets + per-schema decisions);
    /// the cache is cleared wholesale when it reaches capacity.
    pub plan_cache_capacity: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            shards: 4,
            workers: 0,
            per_shard_concurrency: 2,
            per_shard_waiting: 16,
            plan_cache_capacity: 64,
        }
    }
}

/// One non-empty per-document result: the document's catalog id and its
/// result rows in document order. [`CatalogService::execute`] returns
/// hits sorted by `doc` — the serial iteration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocHit {
    /// Catalog document id (position in the `build` input).
    pub doc: u32,
    /// The document's result rows, in document order.
    pub rows: ResultSet,
}

/// Point-in-time catalog counters (plain atomics, mirrored into the
/// matching [`twigobs`] counters; assertions use these because worker
/// threads record `twigobs` metrics into their own thread-local sinks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Queries accepted (parse succeeded; routing ran).
    pub queries: u64,
    /// (query, document) pairs the router sent to a shard.
    pub docs_routed: u64,
    /// (query, document) pairs the router skipped on the Bloom probe.
    pub docs_skipped: u64,
    /// Shard jobs dispatched (one per shard holding routed documents).
    pub shard_queries: u64,
    /// Shared-scan groups formed by [`CatalogService::execute_batch`].
    pub batches: u64,
    /// Per-schema planner runs (one per distinct fingerprint a query
    /// met — the quantity once-per-schema planning amortizes).
    pub schema_plans: u64,
}

#[derive(Debug, Default)]
struct CatalogStatsCell {
    queries: AtomicU64,
    routed: AtomicU64,
    skipped: AtomicU64,
    shard_queries: AtomicU64,
    batches: AtomicU64,
    schema_plans: AtomicU64,
}

/// The planner's per-schema verdict for one catalog plan.
#[derive(Debug, Clone, Copy)]
struct SchemaPlan {
    decision: PlanDecision,
    unsatisfiable: bool,
}

/// A cached catalog query: the parsed GTP (document-independent — label
/// names resolve per document at dispatch), its required routing labels,
/// and the per-schema planner verdicts accumulated so far.
struct CatalogPlan {
    gtp: Gtp,
    required: Vec<String>,
    schemas: Mutex<HashMap<u64, SchemaPlan>>,
}

struct DocEntry {
    id: u32,
    snap: Arc<Snapshot>,
    bloom: LabelBloom,
    fingerprint: u64,
}

struct Shard {
    docs: Vec<DocEntry>,
    gate: Gate,
}

struct CatalogInner {
    shards: Vec<Shard>,
    doc_count: usize,
    plans: Mutex<HashMap<String, Arc<CatalogPlan>>>,
    plan_capacity: usize,
    stats: CatalogStatsCell,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Persistent worker threads draining a shared job queue. Dropping the
/// pool closes the queue and joins every worker.
struct WorkerPool {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn new(size: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..size.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("catalog-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue,
                        // never across a job.
                        let job = rx.lock().expect("job queue poisoned").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn catalog worker")
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        self.tx
            .lock()
            .expect("job queue poisoned")
            .as_ref()
            .expect("pool is alive while the service exists")
            .send(job)
            .expect("catalog workers outlive the service");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        *self.tx.lock().expect("job queue poisoned") = None;
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

/// A multi-document query service: Bloom routing, per-shard admission,
/// scatter-gather execution, once-per-schema planning. See the module
/// docs for the architecture and guarantees.
pub struct CatalogService {
    inner: Arc<CatalogInner>,
    pool: WorkerPool,
}

impl CatalogService {
    /// Build a catalog over `docs` (heap or mapped members). Document
    /// ids are the input positions; shard assignment is `id % shards`.
    pub fn build(docs: Vec<CatalogDoc>, config: CatalogConfig) -> Result<Self, MappedOpenError> {
        let shard_count = config.shards.max(1);
        let mut shards: Vec<Vec<DocEntry>> = (0..shard_count).map(|_| Vec::new()).collect();
        let doc_count = docs.len();
        for (i, member) in docs.into_iter().enumerate() {
            let (doc, index) = match member {
                CatalogDoc::Heap(doc) => {
                    let ix = ElementIndex::build(&doc);
                    (doc, ServeIndex::Heap(ix))
                }
                CatalogDoc::Mapped(doc, path) => {
                    (doc, ServeIndex::Mapped(MappedIndex::open(&path)?))
                }
            };
            let mut bloom = LabelBloom::default();
            for (_, name) in doc.labels().iter() {
                bloom.insert(name);
            }
            let fingerprint = index.summary().fingerprint(doc.labels());
            let snap = Arc::new(Snapshot {
                doc,
                index,
                version: 0,
            });
            shards[i % shard_count].push(DocEntry {
                id: i as u32,
                snap,
                bloom,
                fingerprint,
            });
        }
        let workers = if config.workers == 0 {
            shard_count
        } else {
            config.workers
        };
        let inner = Arc::new(CatalogInner {
            shards: shards
                .into_iter()
                .map(|docs| Shard {
                    docs,
                    gate: Gate::new(config.per_shard_concurrency, config.per_shard_waiting),
                })
                .collect(),
            doc_count,
            plans: Mutex::new(HashMap::new()),
            plan_capacity: config.plan_cache_capacity,
            stats: CatalogStatsCell::default(),
        });
        Ok(CatalogService {
            inner,
            pool: WorkerPool::new(workers),
        })
    }

    /// Build a catalog of heap-indexed documents (the common case).
    pub fn build_heap(docs: Vec<Document>, config: CatalogConfig) -> Self {
        CatalogService::build(docs.into_iter().map(CatalogDoc::Heap).collect(), config)
            .expect("heap members cannot fail to open")
    }

    /// Documents in the catalog.
    pub fn doc_count(&self) -> usize {
        self.inner.doc_count
    }

    /// Shards the catalog is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Snapshot the catalog counters.
    pub fn stats(&self) -> CatalogStats {
        let s = &self.inner.stats;
        CatalogStats {
            queries: s.queries.load(Ordering::Relaxed),
            docs_routed: s.routed.load(Ordering::Relaxed),
            docs_skipped: s.skipped.load(Ordering::Relaxed),
            shard_queries: s.shard_queries.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            schema_plans: s.schema_plans.load(Ordering::Relaxed),
        }
    }

    /// The doc ids `query` routes to (Bloom pass), without executing —
    /// the introspection hook the routing tests probe.
    pub fn routed_docs(&self, query: &str) -> Result<Vec<u32>, ServeError> {
        let plan = self.inner.plan_for(query)?;
        let mut ids: Vec<u32> = self
            .inner
            .shards
            .iter()
            .flat_map(|s| s.docs.iter())
            .filter(|e| plan.routes_to(e))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Evaluate `query` against every routed document; hits are merged
    /// in ascending doc-id order, rows within a hit in document order.
    pub fn execute(&self, query: &str) -> Result<Vec<DocHit>, ServeError> {
        self.execute_with(query, CancelToken::never())
    }

    /// [`execute`](CatalogService::execute) under an explicit
    /// cancellation token, shared by every shard job: a deadline cuts
    /// the whole scatter at stream-advance granularity.
    pub fn execute_with(
        &self,
        query: &str,
        cancel: CancelToken,
    ) -> Result<Vec<DocHit>, ServeError> {
        let _span = twigobs::span(twigobs::Phase::Serve);
        let plan = self.inner.plan_for(query)?;
        self.inner.stats.queries.fetch_add(1, Ordering::Relaxed);
        let work = self.inner.route(&plan);
        let gathered = self.scatter(work, move |inner, si, positions| {
            inner.run_shard(si, &positions, &plan, &cancel)
        })?;
        let mut hits = Vec::new();
        for shard_hits in gathered {
            hits.extend(shard_hits?);
        }
        // Shards interleave doc ids (id % shards); restore serial order.
        hits.sort_by_key(|h| h.doc);
        Ok(hits)
    }

    /// Evaluate a batch against the catalog, sharing one merged stream
    /// scan per document among queries whose plans read the same label
    /// set (the PR 5 shared scan, extended across the catalog). Returns
    /// one result per input query, in input order; each query fails
    /// independently.
    pub fn execute_batch(&self, queries: &[&str]) -> Vec<Result<Vec<DocHit>, ServeError>> {
        let _span = twigobs::span(twigobs::Phase::Serve);
        let mut out: Vec<Option<Result<Vec<DocHit>, ServeError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut members: Vec<(usize, Arc<CatalogPlan>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match self.inner.plan_for(q) {
                Ok(p) => {
                    self.inner.stats.queries.fetch_add(1, Ordering::Relaxed);
                    members.push((i, p));
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        // Scatter once: each shard job evaluates every member over its
        // routed documents, sharing scans where label sets coincide.
        let mut work: Vec<(usize, Vec<u32>)> = Vec::new();
        for si in 0..self.inner.shards.len() {
            let positions: Vec<u32> = (0..self.inner.shards[si].docs.len() as u32)
                .filter(|&p| {
                    let e = &self.inner.shards[si].docs[p as usize];
                    members.iter().any(|(_, plan)| plan.routes_to(e))
                })
                .collect();
            if !positions.is_empty() {
                work.push((si, positions));
            }
        }
        // Per-member routing counters (the scatter above unions them).
        for (_, plan) in &members {
            let _ = self.inner.route(plan);
        }
        let members = Arc::new(members);
        let gathered = {
            let members = Arc::clone(&members);
            self.scatter(work, move |inner, si, positions| {
                Ok(inner.run_shard_batch(si, &positions, &members))
            })
        };
        let mut per_query: Vec<Result<Vec<DocHit>, ServeError>> =
            members.iter().map(|_| Ok(Vec::new())).collect();
        match gathered {
            Ok(shard_outputs) => {
                for shard_out in shard_outputs {
                    for (m, result) in shard_out
                        .expect("batch shard jobs return Ok")
                        .into_iter()
                        .enumerate()
                    {
                        match (result, &mut per_query[m]) {
                            (Ok(hits), Ok(acc)) => acc.extend(hits),
                            (Err(e), slot @ Ok(_)) => *slot = Err(e),
                            (_, Err(_)) => {}
                        }
                    }
                }
            }
            Err(e) => {
                // The scatter itself failed (a worker died): every
                // member shares the failure.
                let msg = e.to_string();
                for slot in &mut per_query {
                    *slot = Err(ServeError::Panicked(msg.clone()));
                }
            }
        }
        for ((i, _), result) in members.iter().zip(per_query) {
            out[*i] = Some(result.map(|mut hits| {
                hits.sort_by_key(|h| h.doc);
                hits
            }));
        }
        out.into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// The serial oracle and throughput baseline: iterate every document
    /// in doc-id order with a fresh per-document analysis — no routing,
    /// no schema reuse, no shard pool. [`execute`](CatalogService::execute)
    /// must return exactly this (Fig U asserts it catalog-wide).
    pub fn execute_serial(&self, query: &str) -> Result<Vec<DocHit>, ServeError> {
        let gtp = parse_twig(query)?;
        let shard_count = self.inner.shards.len();
        let mut hits = Vec::new();
        for id in 0..self.inner.doc_count {
            let entry = &self.inner.shards[id % shard_count].docs[id / shard_count];
            let snap = &entry.snap;
            let labels = snap.doc.labels();
            // The full per-document pipeline, every time: plan decision,
            // feasibility analysis, stream scan.
            let decision = planner::decide(&gtp, snap.index(), labels, PlannerMode::Adaptive);
            let plan = IndexedPlan::compute(&gtp, snap.index(), labels, decision.policy);
            let rows = eval_entry(snap, &gtp, &plan)?;
            if !rows.is_empty() {
                hits.push(DocHit {
                    doc: entry.id,
                    rows,
                });
            }
        }
        Ok(hits)
    }

    /// Submit one job per `(shard, routed positions)` pair and gather
    /// the per-shard outputs, in shard order. A job that dies without
    /// reporting (a panicking worker) surfaces as
    /// [`ServeError::Panicked`] instead of a silent truncation.
    fn scatter<T, F>(
        &self,
        work: Vec<(usize, Vec<u32>)>,
        run: F,
    ) -> Result<Vec<Result<T, ServeError>>, ServeError>
    where
        T: Send + 'static,
        F: Fn(&CatalogInner, usize, Vec<u32>) -> Result<T, ServeError>
            + Send
            + Sync
            + Clone
            + 'static,
    {
        let jobs = work.len();
        let (tx, rx) = mpsc::channel();
        for (si, positions) in work {
            self.inner
                .stats
                .shard_queries
                .fetch_add(1, Ordering::Relaxed);
            twigobs::bump(twigobs::Counter::ShardQueries);
            let inner = Arc::clone(&self.inner);
            let run = run.clone();
            let tx = tx.clone();
            self.pool.submit(Box::new(move || {
                let outcome = run(&inner, si, positions);
                let _ = tx.send((si, outcome));
            }));
        }
        drop(tx);
        let mut gathered: Vec<(usize, Result<T, ServeError>)> = rx.iter().collect();
        if gathered.len() != jobs {
            return Err(ServeError::Panicked("a catalog shard job died".into()));
        }
        gathered.sort_by_key(|&(si, _)| si);
        Ok(gathered.into_iter().map(|(_, r)| r).collect())
    }
}

impl CatalogInner {
    /// Look up (or build) the catalog plan for `query`. The cache key is
    /// the canonical serialization, so every spelling of one GTP shares
    /// a plan; at capacity the cache is cleared wholesale (catalog plans
    /// are cheap to rebuild — parse + required-label extraction).
    fn plan_for(&self, query: &str) -> Result<Arc<CatalogPlan>, ServeError> {
        let gtp = parse_twig(query)?;
        let key = serialize(&gtp);
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        if let Some(p) = plans.get(&key) {
            return Ok(Arc::clone(p));
        }
        let required = gtp
            .required_label_names()
            .into_iter()
            .map(String::from)
            .collect();
        let plan = Arc::new(CatalogPlan {
            gtp,
            required,
            schemas: Mutex::new(HashMap::new()),
        });
        if plans.len() >= self.plan_capacity.max(1) {
            plans.clear();
        }
        plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Bloom-route `plan` over every shard: returns the shards holding
    /// routed documents with the routed *positions* within each shard
    /// (ascending — doc-id order within the shard), and counts the
    /// routed/skipped split.
    fn route(&self, plan: &CatalogPlan) -> Vec<(usize, Vec<u32>)> {
        let mut work = Vec::new();
        let mut routed = 0u64;
        let mut skipped = 0u64;
        for (si, shard) in self.shards.iter().enumerate() {
            let positions: Vec<u32> = (0..shard.docs.len() as u32)
                .filter(|&p| plan.routes_to(&shard.docs[p as usize]))
                .collect();
            routed += positions.len() as u64;
            skipped += shard.docs.len() as u64 - positions.len() as u64;
            if !positions.is_empty() {
                work.push((si, positions));
            }
        }
        self.stats.routed.fetch_add(routed, Ordering::Relaxed);
        self.stats.skipped.fetch_add(skipped, Ordering::Relaxed);
        twigobs::add(twigobs::Counter::CatalogDocsRouted, routed);
        twigobs::add(twigobs::Counter::CatalogDocsSkipped, skipped);
        work
    }

    /// The per-schema planner verdict for (`plan`, `entry`), computed on
    /// first contact with the schema and reused for every sibling.
    /// Returns the verdict plus, on a schema miss, the probe
    /// [`IndexedPlan`] already computed against `entry`'s index (the
    /// caller reuses it instead of analyzing twice).
    fn schema_for(
        &self,
        plan: &CatalogPlan,
        entry: &DocEntry,
    ) -> (SchemaPlan, Option<IndexedPlan>) {
        let mut schemas = plan.schemas.lock().expect("schema map poisoned");
        if let Some(s) = schemas.get(&entry.fingerprint) {
            return (*s, None);
        }
        let snap = &entry.snap;
        let decision =
            planner::decide(&plan.gtp, snap.index(), snap.doc.labels(), PlannerMode::Adaptive);
        let probe =
            IndexedPlan::compute(&plan.gtp, snap.index(), snap.doc.labels(), decision.policy);
        let verdict = SchemaPlan {
            decision,
            unsatisfiable: probe.is_unsatisfiable(),
        };
        schemas.insert(entry.fingerprint, verdict);
        self.stats.schema_plans.fetch_add(1, Ordering::Relaxed);
        (verdict, Some(probe))
    }

    /// Evaluate one shard's routed documents for one query, in ascending
    /// doc-id order, under the shard's admission gate.
    fn run_shard(
        &self,
        si: usize,
        positions: &[u32],
        plan: &CatalogPlan,
        cancel: &CancelToken,
    ) -> Result<Vec<DocHit>, ServeError> {
        let shard = &self.shards[si];
        let _permit = shard.gate.admit()?;
        let mut out = Vec::new();
        for &p in positions {
            let entry = &shard.docs[p as usize];
            let (schema, probe) = self.schema_for(plan, entry);
            if schema.unsatisfiable {
                // The verdict transfers across the schema: no stream is
                // touched for any sibling document.
                continue;
            }
            let iplan = probe.unwrap_or_else(|| {
                IndexedPlan::compute(
                    &plan.gtp,
                    entry.snap.index(),
                    entry.snap.doc.labels(),
                    schema.decision.policy,
                )
            });
            let rows = eval_entry_cancellable(&entry.snap, &plan.gtp, &iplan, cancel)?;
            if !rows.is_empty() {
                out.push(DocHit {
                    doc: entry.id,
                    rows,
                });
            }
        }
        Ok(out)
    }

    /// Evaluate every batch member over one shard's routed documents.
    /// Per document, members whose stream plans read the same label set
    /// share one merged scan ([`try_match_indexed_group`]); the rest
    /// evaluate alone. Returns one result per member, in member order.
    fn run_shard_batch(
        &self,
        si: usize,
        positions: &[u32],
        members: &[(usize, Arc<CatalogPlan>)],
    ) -> Vec<Result<Vec<DocHit>, ServeError>> {
        let shard = &self.shards[si];
        let _permit = match shard.gate.admit() {
            Ok(p) => p,
            Err(e) => {
                let msg = e.to_string();
                return members
                    .iter()
                    .map(|_| Err(ServeError::Panicked(msg.clone())))
                    .collect();
            }
        };
        let mut out: Vec<Result<Vec<DocHit>, ServeError>> =
            members.iter().map(|_| Ok(Vec::new())).collect();
        for &p in positions {
            let entry = &shard.docs[p as usize];
            // Members routed to this document, with their per-document
            // stream plans (schema verdicts shared as in run_shard).
            let mut ready: Vec<(usize, IndexedPlan)> = Vec::new();
            for (m, (_, plan)) in members.iter().enumerate() {
                if out[m].is_err() || !plan.routes_to(entry) {
                    continue;
                }
                let (schema, probe) = self.schema_for(plan, entry);
                if schema.unsatisfiable {
                    continue;
                }
                let iplan = probe.unwrap_or_else(|| {
                    IndexedPlan::compute(
                        &plan.gtp,
                        entry.snap.index(),
                        entry.snap.doc.labels(),
                        schema.decision.policy,
                    )
                });
                ready.push((m, iplan));
            }
            // Group by scanned label set: equal sets share one scan.
            let mut groups: Vec<(Vec<Label>, Vec<usize>)> = Vec::new();
            for (ri, (_, iplan)) in ready.iter().enumerate() {
                let mut labels: Vec<Label> = iplan.labels().to_vec();
                labels.sort_unstable();
                match groups.iter_mut().find(|(l, _)| *l == labels) {
                    Some((_, g)) => g.push(ri),
                    None => groups.push((labels, vec![ri])),
                }
            }
            for (_, group) in groups {
                if group.len() > 1 {
                    self.stats.batches.fetch_add(1, Ordering::Relaxed);
                    twigobs::bump(twigobs::Counter::CatalogBatches);
                    let refs: Vec<(&Gtp, &IndexedPlan)> = group
                        .iter()
                        .map(|&ri| (&members[ready[ri].0].1.gtp, &ready[ri].1))
                        .collect();
                    let shared = catch_unwind(AssertUnwindSafe(|| {
                        try_match_indexed_group(
                            &entry.snap.doc,
                            entry.snap.index(),
                            &refs,
                            MatchOptions::default(),
                            &CancelToken::never(),
                        )
                        .map(|v| {
                            v.into_iter()
                                .map(|(tm, _)| enumerate(&tm))
                                .collect::<Vec<_>>()
                        })
                    }));
                    if let Ok(Ok(results)) = shared {
                        for (&ri, rows) in group.iter().zip(results) {
                            let m = ready[ri].0;
                            if !rows.is_empty() {
                                if let Ok(acc) = &mut out[m] {
                                    acc.push(DocHit {
                                        doc: entry.id,
                                        rows,
                                    });
                                }
                            }
                        }
                        continue;
                    }
                    // Shared scan failed: fall through to per-member
                    // evaluation for accurate per-query errors.
                }
                for &ri in &group {
                    let (m, iplan) = (&ready[ri].0, &ready[ri].1);
                    let rows = eval_entry(&entry.snap, &members[*m].1.gtp, iplan);
                    match (rows, &mut out[*m]) {
                        (Ok(rows), Ok(acc)) => {
                            if !rows.is_empty() {
                                acc.push(DocHit {
                                    doc: entry.id,
                                    rows,
                                });
                            }
                        }
                        (Err(e), slot @ Ok(_)) => *slot = Err(e),
                        (_, Err(_)) => {}
                    }
                }
            }
        }
        out
    }
}

impl CatalogPlan {
    /// The routing predicate: every required label may be present.
    ///
    /// A label-free plan (all wildcards / every named step optional or
    /// OR-grouped — `required_label_names()` came back empty) carries
    /// no routing evidence, so it must route to **every** document,
    /// never zero. The explicit early return pins that contract even if
    /// the loop below ever changes quantifier shape; the wildcard-root
    /// test in `tests/catalog_routing.rs` pins it end to end.
    fn routes_to(&self, entry: &DocEntry) -> bool {
        if self.required.is_empty() {
            return true;
        }
        self.required
            .iter()
            .all(|name| entry.bloom.maybe_contains(name))
    }
}

fn eval_entry(snap: &Snapshot, gtp: &Gtp, plan: &IndexedPlan) -> Result<ResultSet, ServeError> {
    eval_entry_cancellable(snap, gtp, plan, &CancelToken::never())
}

/// One document's indexed Twig²Stack evaluation, panic-contained so an
/// engine bug in one document cannot take down a shard worker.
fn eval_entry_cancellable(
    snap: &Snapshot,
    gtp: &Gtp,
    plan: &IndexedPlan,
    cancel: &CancelToken,
) -> Result<ResultSet, ServeError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        try_match_indexed(
            &snap.doc,
            snap.index(),
            gtp,
            MatchOptions::default(),
            plan,
            None,
            cancel,
        )
        .map(|(tm, _stats)| enumerate(&tm))
    }));
    match outcome {
        Ok(Ok(rows)) => Ok(rows),
        Ok(Err(e)) => Err(ServeError::Query(e)),
        Err(payload) => Err(ServeError::Panicked(crate::panic_message(payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Document> {
        [
            "<a><b><c/></b><b/></a>",
            "<x><y/><y><z/></y></x>",
            "<a><d/><b><c/><c/></b></a>",
            "<x><y/></x>",
            "<a><b/></a>",
        ]
        .iter()
        .map(|x| xmldom::parse(x).unwrap())
        .collect()
    }

    fn catalog(shards: usize) -> CatalogService {
        CatalogService::build_heap(
            docs(),
            CatalogConfig {
                shards,
                ..CatalogConfig::default()
            },
        )
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bloom = LabelBloom::default();
        let names: Vec<String> = (0..64).map(|i| format!("label{i}")).collect();
        for n in &names {
            bloom.insert(n);
        }
        for n in &names {
            assert!(bloom.maybe_contains(n), "{n} was inserted");
        }
    }

    #[test]
    fn execute_equals_serial_iteration() {
        for shards in [1, 2, 4, 7] {
            let cat = catalog(shards);
            for q in ["//a/b[c]", "//y", "//a//c", "//b", "//x/y/z", "//q"] {
                assert_eq!(
                    cat.execute(q).unwrap(),
                    cat.execute_serial(q).unwrap(),
                    "shards={shards} {q}"
                );
            }
        }
    }

    #[test]
    fn routing_skips_label_disjoint_documents() {
        let cat = catalog(2);
        assert_eq!(cat.routed_docs("//x/y").unwrap(), vec![1, 3]);
        cat.execute("//x/y").unwrap();
        let s = cat.stats();
        assert_eq!(s.docs_routed, 2);
        assert_eq!(s.docs_skipped, 3, "the three a-family docs never scan");
        assert!(s.shard_queries <= 2, "only shards holding routed docs run");
    }

    #[test]
    fn routing_never_drops_a_matching_document() {
        let cat = catalog(3);
        for q in ["//a/b", "//c", "//y[z]", "//x//z", "//d"] {
            let routed = cat.routed_docs(q).unwrap();
            for hit in cat.execute_serial(q).unwrap() {
                assert!(
                    routed.contains(&hit.doc),
                    "{q}: doc {} matches but was not routed",
                    hit.doc
                );
            }
        }
    }

    #[test]
    fn schema_plans_run_once_per_fingerprint() {
        // Docs 0, 2, 4 share the a-family vocabulary but have three
        // distinct summary shapes; doc 1 and 3 differ too. Repeat docs
        // so sharing is observable.
        let mut many = docs();
        many.extend(docs());
        let cat = CatalogService::build_heap(many, CatalogConfig::default());
        cat.execute("//a/b").unwrap();
        let s = cat.stats();
        assert_eq!(s.docs_routed, 6, "both copies of each a-family doc route");
        assert_eq!(
            s.schema_plans, 3,
            "three distinct a-family schemas; the copies reuse the verdict"
        );
        cat.execute("//a/b").unwrap();
        assert_eq!(
            cat.stats().schema_plans,
            3,
            "verdicts persist across queries"
        );
    }

    #[test]
    fn unsatisfiable_schemas_short_circuit() {
        let cat = catalog(2);
        // Every label in `//a[b][d]/b/c` exists somewhere in the
        // a-family vocabulary, so Bloom routing admits those docs — but
        // no single document has a `d` sibling next to a `b/c` path
        // except doc 2, and doc 4's summary cannot embed the twig at
        // all: its schema verdict is unsatisfiable and transfers.
        let q = "//a[b][d]/b/c";
        assert_eq!(cat.execute(q).unwrap(), cat.execute_serial(q).unwrap());
    }

    #[test]
    fn batch_matches_per_query_execution() {
        let cat = catalog(2);
        let queries = ["//a/b", "//y", "bogus[", "//a//c", "//b[c]"];
        let batch = cat.execute_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            match *q {
                "bogus[" => assert!(matches!(r, Err(ServeError::Parse(_)))),
                q => assert_eq!(*r.as_ref().unwrap(), cat.execute(q).unwrap(), "{q}"),
            }
        }
        // //a/b and //b[c] both scan {a, b, c}? No — //a/b scans {a, b}.
        // //a//c and //b[c] scan different sets too; sharing may or may
        // not form here, but the batch path must agree regardless.
    }

    #[test]
    fn batch_shares_scans_for_same_label_sets() {
        let cat = catalog(1);
        // Two spellings with the same scanned label set {a, b, c} on the
        // a-family docs: they must share one scan per document.
        let queries = ["//a/b[c]", "//a[b/c]"];
        let batch = cat.execute_batch(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            assert_eq!(*r.as_ref().unwrap(), cat.execute(q).unwrap(), "{q}");
        }
        assert!(
            cat.stats().batches >= 1,
            "at least one shared-scan group formed"
        );
    }

    #[test]
    fn mapped_members_agree_with_heap_members() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("catalog-mapped-{}.t2s", std::process::id()));
        let xml = "<a><b><c/></b><b/></a>";
        xmlindex::write_mapped_index(&xmldom::parse(xml).unwrap(), &path).unwrap();
        let mixed = CatalogService::build(
            vec![
                CatalogDoc::Mapped(xmldom::parse(xml).unwrap(), path.clone()),
                CatalogDoc::Heap(xmldom::parse("<a><b/></a>").unwrap()),
            ],
            CatalogConfig::default(),
        )
        .unwrap();
        let heap = CatalogService::build_heap(
            vec![
                xmldom::parse(xml).unwrap(),
                xmldom::parse("<a><b/></a>").unwrap(),
            ],
            CatalogConfig::default(),
        );
        for q in ["//a/b", "//b[c]", "//c"] {
            assert_eq!(mixed.execute(q).unwrap(), heap.execute(q).unwrap(), "{q}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadlines_cut_the_scatter() {
        let cat = catalog(2);
        let err = cat
            .execute_with(
                "//a/b",
                CancelToken::with_deadline(std::time::Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(gtpquery::QueryError::DeadlineExceeded)
        ));
    }

    #[test]
    fn empty_catalog_answers_with_no_hits() {
        let cat = CatalogService::build_heap(Vec::new(), CatalogConfig::default());
        assert_eq!(cat.execute("//a").unwrap(), Vec::new());
        assert_eq!(cat.doc_count(), 0);
    }

    #[test]
    fn hits_arrive_in_ascending_doc_order() {
        // Enough same-vocabulary docs that every shard contributes.
        let many: Vec<Document> = (0..17)
            .map(|_| xmldom::parse("<a><b/></a>").unwrap())
            .collect();
        let cat = CatalogService::build_heap(
            many,
            CatalogConfig {
                shards: 4,
                ..CatalogConfig::default()
            },
        );
        let hits = cat.execute("//a/b").unwrap();
        let ids: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, (0..17).collect::<Vec<u32>>());
    }
}
