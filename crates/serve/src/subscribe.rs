//! Standing-query subscriptions over the edit-rotated service
//! (DESIGN.md §17): the serve-layer face of `twig2stack::subscribe`.
//!
//! A [`SubscriptionService`] wraps a [`QueryService`] and keeps a set of
//! registered GTP subscriptions. Edits applied through the wrapper
//! first rotate the snapshot exactly like
//! [`QueryService::apply_edit`] / [`QueryService::apply_edits`], then
//! drive **one** shared-automaton pass over the rotated document and
//! emit a [`SubNotification`] for every subscription whose match set
//! changed — the change-notification layer for the PR 8/9 write path.
//!
//! Notification semantics: per subscription the service remembers the
//! last published match set (the baseline is the snapshot at
//! registration time). After a rotation, `added` / `removed` are the
//! exact row-level delta against that memory, and the post-edit match
//! set always equals re-running the query solo on the rotated snapshot
//! (`tests/subscription_lifecycle.rs` pins this). Edits applied behind
//! the wrapper's back (directly on the inner [`QueryService`]) are
//! picked up by the next rotation or an explicit
//! [`poll`](SubscriptionService::poll): deltas then cover every
//! rotation since the last notification, never lost.

use crate::{BatchEditReceipt, EditReceipt, QueryService, ServeError, Snapshot};
use gtpquery::{cmp_rows, cmp_rows_by, parse_twig, Cell, Gtp, ResultSet};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex};
use twig2stack::{run_subscriptions_doc, MatchOptions, SharedAutomaton};
use xmldom::{EditDelta, EditOp, NodeId};

/// Handle for one registered subscription. Ids are never reused: an
/// unregistered id stays dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u32);

impl SubscriptionId {
    /// The id's registration ordinal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One subscription's match-set change, emitted after a rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubNotification {
    /// The subscription whose matches changed.
    pub sub: SubscriptionId,
    /// Snapshot version the delta was computed against.
    pub version: u64,
    /// Rows present now but not in the last published set; node ids
    /// resolve against the rotated snapshot.
    pub added: ResultSet,
    /// Rows present in the last published set but gone now; node ids
    /// refer to the *previous* snapshot (the elements no longer exist).
    pub removed: ResultSet,
}

/// One registered subscription's standing state.
struct Slot {
    query: String,
    gtp: Gtp,
    /// The last published match set (registration baseline, then
    /// updated by every notification pass). Node ids refer to the
    /// snapshot the set was computed on.
    last: ResultSet,
}

/// Registry + cached automaton. The automaton is invalidated by
/// register/unregister and rebuilt lazily on the next pass (build cost
/// is linear in total query size).
#[derive(Default)]
struct Registry {
    /// Index = subscription id; `None` = unregistered.
    slots: Vec<Option<Slot>>,
    /// Compiled automaton over the live slots plus the automaton-order →
    /// slot-index mapping.
    auto: Option<(SharedAutomaton, Vec<usize>)>,
}

impl Registry {
    fn live(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }

    /// The compiled automaton (rebuilding it if stale).
    fn automaton(&mut self) -> &(SharedAutomaton, Vec<usize>) {
        if self.auto.is_none() {
            let (gtps, map): (Vec<Gtp>, Vec<usize>) =
                self.live().map(|(i, s)| (s.gtp.clone(), i)).unzip();
            self.auto = Some((SharedAutomaton::build(gtps), map));
        }
        self.auto.as_ref().expect("just built")
    }
}

/// Continuous multi-query subscriptions over a [`QueryService`]
/// (DESIGN.md §17).
pub struct SubscriptionService {
    svc: Arc<QueryService>,
    registry: Mutex<Registry>,
}

impl SubscriptionService {
    /// Attach a subscription registry to `svc`. The service is shared:
    /// queries keep flowing through `svc` unchanged.
    pub fn new(svc: Arc<QueryService>) -> Self {
        SubscriptionService {
            svc,
            registry: Mutex::new(Registry::default()),
        }
    }

    /// The wrapped query service.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.svc
    }

    /// Register a standing query. The current snapshot's matches become
    /// the notification baseline: the first notification after an edit
    /// reports the delta against *this* moment.
    pub fn register(&self, query: &str) -> Result<SubscriptionId, ServeError> {
        let gtp = parse_twig(query)?;
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let snap = self.svc.snapshot();
        let last = twig2stack::evaluate(snap.doc(), &gtp);
        let id = SubscriptionId(reg.slots.len() as u32);
        reg.slots.push(Some(Slot {
            query: query.to_string(),
            gtp,
            last,
        }));
        reg.auto = None;
        Ok(id)
    }

    /// Drop a subscription. Returns false if the id was never live.
    /// Unregistering under snapshot rotation is safe: the in-flight
    /// pass holds the previous automaton and simply has no slot to
    /// publish into afterwards.
    pub fn unregister(&self, id: SubscriptionId) -> bool {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        match reg.slots.get_mut(id.index()) {
            Some(slot @ Some(_)) => {
                *slot = None;
                reg.auto = None;
                true
            }
            _ => false,
        }
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.registry
            .lock()
            .expect("subscription registry poisoned")
            .live()
            .count()
    }

    /// True iff no subscription is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last published match set of `id` (its registered-query
    /// results as of the most recent notification pass).
    pub fn matches(&self, id: SubscriptionId) -> Option<ResultSet> {
        let reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        reg.slots.get(id.index())?.as_ref().map(|s| s.last.clone())
    }

    /// The registered query text of `id`.
    pub fn query(&self, id: SubscriptionId) -> Option<String> {
        let reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        reg.slots.get(id.index())?.as_ref().map(|s| s.query.clone())
    }

    /// Apply one edit through the wrapped service, then notify: one
    /// shared-automaton pass over the rotated snapshot, one delta per
    /// changed subscription (in id order).
    pub fn apply_edit(
        &self,
        op: &EditOp,
    ) -> Result<(EditReceipt, Vec<SubNotification>), ServeError> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let receipt = self.svc.apply_edit(op)?;
        let notes = self.notify(&mut reg, std::slice::from_ref(&receipt.delta));
        Ok((receipt, notes))
    }

    /// Apply an edit batch (one rotation, like
    /// [`QueryService::apply_edits`]), then notify once: deltas span the
    /// whole batch, intermediate states are never observed.
    pub fn apply_edits(
        &self,
        ops: &[EditOp],
    ) -> Result<(BatchEditReceipt, Vec<SubNotification>), ServeError> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        let receipt = self.svc.apply_edits(ops)?;
        let notes = self.notify(&mut reg, &receipt.deltas);
        Ok((receipt, notes))
    }

    /// Recompute every subscription against the *current* snapshot and
    /// emit the deltas — catches rotations applied directly on the
    /// wrapped service. Such rotations carry no [`EditDelta`] the
    /// wrapper can observe, so old rows are diffed with their ids as-is:
    /// the match *sets* are always exact, but added/removed attribution
    /// is best-effort when a bypassing splice shifted ids of surviving
    /// rows. Apply edits through the wrapper for exact deltas.
    pub fn poll(&self) -> Vec<SubNotification> {
        let mut reg = self
            .registry
            .lock()
            .expect("subscription registry poisoned");
        self.notify(&mut reg, &[])
    }

    /// One pass: run the shared automaton over the current snapshot's
    /// document (value predicates resolve against it as the text
    /// source), diff every subscription against its last published set
    /// carried through `deltas` (the rotation just applied through the
    /// wrapper, in application order), publish.
    fn notify(&self, reg: &mut Registry, deltas: &[EditDelta]) -> Vec<SubNotification> {
        if reg.live().next().is_none() {
            return Vec::new();
        }
        let snap: Arc<Snapshot> = self.svc.snapshot();
        let version = snap.version();
        let (results, map) = {
            let (auto, map) = reg.automaton();
            let (results, _) = run_subscriptions_doc(snap.doc(), auto, MatchOptions::default());
            (results, map.clone())
        };
        let mut notes = Vec::new();
        for (slot_index, fresh) in map.into_iter().zip(results) {
            let slot = reg.slots[slot_index]
                .as_mut()
                .expect("automaton maps only live slots");
            let old = std::mem::replace(&mut slot.last, fresh);
            let (added, removed) = diff(old, deltas, &slot.last);
            if !added.is_empty() || !removed.is_empty() {
                twigobs::bump(twigobs::Counter::SubNotifications);
                notes.push(SubNotification {
                    sub: SubscriptionId(slot_index as u32),
                    version,
                    added,
                    removed,
                });
            }
        }
        notes
    }
}

/// Row-level set difference in both directions by one ordered merge.
///
/// Row identity across snapshots rides on the edit layer's own
/// bookkeeping: node ids are dense preorder indices that shift on every
/// splice, and [`EditDelta::map_id`] carries a surviving pre-edit id onto
/// its post-edit id (composed over `deltas` in application order; see
/// [`BatchEditReceipt::deltas`]). An old row with any id in a removed
/// range — a group that lost any member included — is removed. Every
/// other old row is compared, with its ids mapped on the fly, against
/// the new rows. `map_id` is strictly increasing on surviving ids, so
/// mapping keeps the old rows' [`cmp_rows`] order and one merge of the
/// two sorted sets finds every match. Both sets are duplicate-free
/// (enumeration guarantees it) and come out of enumeration already in
/// that order, so each sort is one linear pass.
///
/// `added` keeps `new`'s row order and carries the *new* snapshot's node
/// ids; `removed` keeps `old`'s row order and carries the *previous*
/// snapshot's (those elements no longer exist). Removed rows are moved
/// out of `old`, which is dropped here.
fn diff(old: ResultSet, deltas: &[EditDelta], new: &ResultSet) -> (ResultSet, ResultSet) {
    let map = |n: NodeId| {
        deltas
            .iter()
            .try_fold(n.index() as u32, |id, d| d.map_id(id))
            .map(|id| NodeId::from_index(id as usize))
    };
    let survives = |row: &[Cell]| {
        row.iter().all(|c| match c {
            Cell::Node(n) => map(*n).is_some(),
            Cell::Null => true,
            Cell::Group(g) => g.iter().all(|&n| map(n).is_some()),
        })
    };
    let mapped = |n| map(n).expect("surviving rows map every id");
    let order = |rs: &ResultSet| {
        let mut ix: Vec<u32> = (0..rs.rows.len() as u32).collect();
        ix.sort_unstable_by(|&a, &b| cmp_rows(&rs.rows[a as usize], &rs.rows[b as usize]));
        ix
    };
    let (old_order, new_order) = (order(&old), order(new));
    let mut is_removed = vec![false; old.rows.len()];
    let mut is_added = vec![true; new.rows.len()];
    let mut fresh = new_order.iter().map(|&j| j as usize).peekable();
    for i in old_order.into_iter().map(|i| i as usize) {
        let row = &old.rows[i];
        is_removed[i] = !survives(row)
            || loop {
                let Some(&j) = fresh.peek() else { break true };
                match cmp_rows_by(row, &new.rows[j], mapped) {
                    // A new row ordered before this one has no old match.
                    Ordering::Greater => _ = fresh.next(),
                    Ordering::Equal => {
                        fresh.next();
                        is_added[j] = false;
                        break false;
                    }
                    Ordering::Less => break true,
                }
            };
    }
    let mut added = ResultSet::new(new.columns.clone());
    for (row, _) in new.rows.iter().zip(&is_added).filter(|(_, &a)| a) {
        added.push(row.clone());
    }
    let mut removed = ResultSet::new(old.columns);
    for (row, _) in old.rows.into_iter().zip(is_removed).filter(|(_, r)| *r) {
        removed.push(row);
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use xmldom::parse;
    use xmlindex::ElementIndex;

    fn service(xml: &str) -> Arc<QueryService> {
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        Arc::new(QueryService::new(doc, index, ServiceConfig::default()))
    }

    #[test]
    fn register_baseline_and_matches() {
        let subs = SubscriptionService::new(service("<a><b/><b/></a>"));
        let id = subs.register("//a/b").unwrap();
        assert_eq!(subs.matches(id).unwrap().len(), 2);
        assert_eq!(subs.query(id).unwrap(), "//a/b");
        assert_eq!(subs.len(), 1);
        // No edit, no delta.
        assert!(subs.poll().is_empty());
    }

    #[test]
    fn bad_query_is_a_parse_error() {
        let subs = SubscriptionService::new(service("<a/>"));
        assert!(matches!(subs.register("//"), Err(ServeError::Parse(_))));
        assert!(subs.is_empty());
    }

    #[test]
    fn unregistered_id_stops_notifying() {
        let subs = SubscriptionService::new(service("<a><b/></a>"));
        let id = subs.register("//a/b").unwrap();
        assert!(subs.unregister(id));
        assert!(!subs.unregister(id));
        assert_eq!(subs.matches(id), None);
        let target = subs.service().snapshot().doc().root();
        let op = EditOp::DeleteSubtree { target };
        let (_, notes) = subs.apply_edit(&op).unwrap();
        assert!(notes.is_empty());
    }

    fn rows(rows: &[&[Cell]]) -> ResultSet {
        let doc = parse("<a/>").unwrap();
        let columns = twig2stack::evaluate(&doc, &parse_twig("//a/b").unwrap()).columns;
        let mut rs = ResultSet::new(columns);
        for r in rows {
            rs.push(r.to_vec());
        }
        rs
    }

    #[test]
    fn diff_merges_mapped_rows_in_any_input_order() {
        let n = |i| Cell::Node(NodeId::from_index(i));
        let g = |ids: &[usize]| Cell::Group(ids.iter().map(|&i| NodeId::from_index(i)).collect());
        // Delete ids 3..5 and insert 1 node there: ids >= 5 shift by -1.
        let delta = EditDelta {
            at: 3,
            removed: 2,
            inserted: 1,
            changed_labels: Vec::new(),
            renumbered: false,
        };
        let old = rows(&[
            &[n(7), g(&[8, 9])], // survives as (6, {7, 8})
            &[n(1), Cell::Null], // unchanged
            &[n(2), g(&[4, 6])], // loses a group member
            &[n(6), g(&[])],     // survives as (5, {}), but gone from new
        ]);
        let new = rows(&[
            &[n(6), g(&[7, 8])],
            &[n(3), Cell::Null],
            &[n(1), Cell::Null],
            &[n(2), g(&[5])],
        ]);
        let (added, removed) = diff(old.clone(), &[delta], &new);
        assert_eq!(added, rows(&[&[n(3), Cell::Null], &[n(2), g(&[5])]]));
        assert_eq!(removed, rows(&[&[n(2), g(&[4, 6])], &[n(6), g(&[])]]));
        // No deltas: plain row identity.
        let (added, removed) = diff(old.clone(), &[], &old);
        assert!(added.is_empty() && removed.is_empty());
    }
}
