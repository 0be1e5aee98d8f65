//! Sharded LRU plan cache keyed by the canonical query text.
//!
//! The cache stores [`CachedPlan`]s — a parsed [`Gtp`] plus its
//! [`IndexedPlan`] (the summary-feasibility analysis output) — behind
//! [`gtpquery::serialize()`]'s canonical bracket-only form, so every
//! spelling of a query that parses to the same GTP shares one entry
//! (`//a/b[c]`, `//a[b/c]/b[c]`-style rewrites do not: the key is the
//! *structure*, not the text the client sent).
//!
//! Sharding bounds contention: a key hashes to one shard, each shard is
//! an independently locked map with its own LRU capacity, and recency is
//! a global atomic stamp (no per-shard clocks to reconcile). Eviction is
//! exact LRU *within a shard* — good enough for a plan cache, where the
//! win measured by Fig T is hit-vs-miss analysis cost, not eviction
//! precision.

//! Snapshot rotation (document edits) adds a second dimension: every
//! entry carries the snapshot version it was computed against, and only
//! entries whose version matches the caller's current snapshot count as
//! hits. `PlanCache::rotate` (crate-private) moves the cache from one
//! version to the
//! next: entries whose scanned label set intersects the edit's changed
//! labels are dropped (their filters, covers, and sid hulls may be
//! stale), the rest are re-stamped to the new version — the analysis
//! amortization survives edits that don't touch a plan's labels.

use crate::planner::PlanDecision;
use gtpquery::Gtp;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use twig2stack::IndexedPlan;
use xmldom::Label;

/// A cached, immutable evaluation plan: the parsed query and its
/// index-specific stream plan. Shared by `Arc` so a hit never copies and
/// an eviction never invalidates an in-flight evaluation.
///
/// The only mutable state is the misprediction strike counter feeding the
/// planner feedback loop (DESIGN.md §14): the plan itself never changes —
/// a re-plan publishes a *new* `CachedPlan` under the same cache key.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed query (node ids align with `plan`).
    pub gtp: Gtp,
    /// The summary-feasibility stream plan for the service's index,
    /// computed with the decision's [`PruningPolicy`].
    ///
    /// [`PruningPolicy`]: xmlindex::PruningPolicy
    pub plan: IndexedPlan,
    /// The planner's verdict: the pruning policy and (in adaptive mode)
    /// the predictions behind it.
    pub decision: PlanDecision,
    /// Mispredicted executions observed on this plan (adaptive only).
    mispredictions: AtomicU32,
}

impl CachedPlan {
    /// Wrap a computed plan with a zeroed feedback state.
    pub fn new(gtp: Gtp, plan: IndexedPlan, decision: PlanDecision) -> Self {
        CachedPlan { gtp, plan, decision, mispredictions: AtomicU32::new(0) }
    }

    /// Record one mispredicted execution; returns the total so far
    /// (including this one). The service re-plans when the total reaches
    /// its strike threshold — exactly once per plan object, because the
    /// replacement plan starts from zero.
    pub(crate) fn note_misprediction(&self) -> u32 {
        self.mispredictions.fetch_add(1, Ordering::Relaxed) + 1
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    stamp: u64,
    /// Snapshot version the plan was computed against; valid only while
    /// it equals the service's current snapshot version.
    version: u64,
}

/// Sharded LRU map from canonical query text to [`CachedPlan`].
///
/// A total capacity of 0 disables the cache entirely (every lookup
/// misses, nothing is stored) — the Fig T "cache off" arm.
#[derive(Debug)]
pub(crate) struct PlanCache {
    shards: Vec<Mutex<HashMap<String, Entry>>>,
    per_shard_capacity: usize,
    clock: AtomicU64,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look `key` up against snapshot `version`, refreshing its recency
    /// stamp on a hit. An entry computed against a different snapshot
    /// (it raced a rotation) is dropped and reported as a miss.
    pub(crate) fn get(&self, key: &str, version: u64) -> Option<Arc<CachedPlan>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key).lock().expect("plan cache poisoned");
        let entry = shard.get_mut(key)?;
        if entry.version != version {
            shard.remove(key);
            return None;
        }
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.plan))
    }

    /// Insert (or refresh) `key` for snapshot `version`, evicting
    /// least-recently-used entries in the key's shard while it is over
    /// capacity. Returns how many entries were evicted (0 or 1 in steady
    /// state).
    pub(crate) fn insert(&self, key: String, plan: Arc<CachedPlan>, version: u64) -> u64 {
        if self.per_shard_capacity == 0 {
            return 0;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("plan cache poisoned");
        shard.insert(key, Entry { plan, stamp, version });
        let mut evicted = 0;
        while shard.len() > self.per_shard_capacity {
            let oldest = shard
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("over-capacity shard is non-empty");
            shard.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Move the cache from the snapshot preceding `new_version` to
    /// `new_version` after an edit. Entries survive (re-stamped to the
    /// new version) only if they were valid for the previous snapshot
    /// and, when `changed` is `Some`, their scanned label set is disjoint
    /// from the edit's changed labels; `changed = None` means the index
    /// was rebuilt (sid numbering may have moved) and every entry is
    /// stale. Returns how many entries were invalidated.
    pub(crate) fn rotate(&self, changed: Option<&[Label]>, new_version: u64) -> u64 {
        let mut invalidated = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            shard.retain(|_, e| {
                let keep = e.version + 1 == new_version
                    && changed.is_some_and(|c| {
                        e.plan.plan.labels().iter().all(|l| !c.contains(l))
                    });
                if keep {
                    e.version = new_version;
                } else {
                    invalidated += 1;
                }
                keep
            });
        }
        invalidated
    }

    /// Number of cached plans across all shards (test/diagnostic aid).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtpquery::parse_twig;
    use twig2stack::IndexedPlan;
    use xmldom::parse;
    use xmlindex::{ElementIndex, PruningPolicy};

    fn plan_for(q: &str) -> Arc<CachedPlan> {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let index = ElementIndex::build(&doc);
        let gtp = parse_twig(q).unwrap();
        let plan = IndexedPlan::compute(&gtp, &index, doc.labels(), PruningPolicy::Enabled);
        Arc::new(CachedPlan::new(gtp, plan, PlanDecision::default()))
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = PlanCache::new(8, 2);
        assert!(cache.get("//a", 0).is_none());
        cache.insert("//a".into(), plan_for("//a"), 0);
        assert!(cache.get("//a", 0).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = PlanCache::new(0, 4);
        assert_eq!(cache.insert("//a".into(), plan_for("//a"), 0), 0);
        assert!(cache.get("//a", 0).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_per_shard() {
        // One shard so recency order is total and the test deterministic.
        let cache = PlanCache::new(2, 1);
        cache.insert("//a".into(), plan_for("//a"), 0);
        cache.insert("//b".into(), plan_for("//b"), 0);
        // Touch //a so //b becomes the LRU victim.
        assert!(cache.get("//a", 0).is_some());
        let evicted = cache.insert("//c".into(), plan_for("//c"), 0);
        assert_eq!(evicted, 1);
        assert!(cache.get("//a", 0).is_some(), "recently used entry survives");
        assert!(cache.get("//b", 0).is_none(), "LRU entry was evicted");
        assert!(cache.get("//c", 0).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn an_evicted_plan_stays_usable_while_referenced() {
        let cache = PlanCache::new(1, 1);
        cache.insert("//a".into(), plan_for("//a"), 0);
        let held = cache.get("//a", 0).unwrap();
        cache.insert("//b".into(), plan_for("//b"), 0);
        assert!(cache.get("//a", 0).is_none());
        // The Arc keeps the evicted plan alive for the in-flight request.
        assert!(!held.plan.is_unsatisfiable());
    }

    #[test]
    fn version_mismatch_is_a_dropping_miss() {
        let cache = PlanCache::new(8, 1);
        cache.insert("//a".into(), plan_for("//a"), 0);
        assert!(cache.get("//a", 1).is_none(), "stale-version entry is not served");
        assert_eq!(cache.len(), 0, "and it is dropped on the way out");
    }

    #[test]
    fn rotate_keeps_disjoint_plans_and_drops_touched_ones() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let b = doc.labels().get("b").unwrap();
        let cache = PlanCache::new(8, 2);
        cache.insert("//a/b".into(), plan_for("//a/b"), 0);
        cache.insert("//c".into(), plan_for("//c"), 0);
        let invalidated = cache.rotate(Some(&[b]), 1);
        assert_eq!(invalidated, 1, "only the plan scanning b is stale");
        assert!(cache.get("//a/b", 1).is_none());
        assert!(cache.get("//c", 1).is_some(), "disjoint plan re-stamped to the new version");
    }

    #[test]
    fn rotate_after_a_rebuild_clears_everything() {
        let cache = PlanCache::new(8, 2);
        cache.insert("//a/b".into(), plan_for("//a/b"), 0);
        cache.insert("//c".into(), plan_for("//c"), 0);
        assert_eq!(cache.rotate(None, 1), 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn rotate_drops_entries_that_skipped_a_version() {
        let cache = PlanCache::new(8, 1);
        // Raced insert: computed against snapshot 0, lands while the
        // service is already rotating 1 -> 2. Its validity for version 2
        // is unknown even with disjoint labels, so it must go.
        cache.insert("//c".into(), plan_for("//c"), 0);
        assert_eq!(cache.rotate(Some(&[]), 2), 1);
        assert_eq!(cache.len(), 0);
    }
}
