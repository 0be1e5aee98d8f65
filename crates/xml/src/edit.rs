//! Subtree edit operations over immutable [`Document`]s.
//!
//! A document in this workspace is immutable once built: every index,
//! plan, and in-flight query reads it without synchronization. Edits
//! therefore never mutate in place — [`apply_op`] is a pure function
//! from `(document, op)` to a **new** document plus an [`EditDelta`]
//! describing exactly what changed, the contract the incremental index
//! maintenance in `xmlindex` patches from (DESIGN.md §15).
//!
//! ## Region encodings under edits
//!
//! Fresh builds number regions densely from one global tag counter
//! (`[1,2], [3,8], …`), which leaves **no** spare positions between
//! neighbouring tags. An inserted subtree needs `2·k` unused positions
//! strictly between its left and right neighbour boundaries, so the
//! first insert into a dense document — and any insert into an
//! exhausted gap — triggers a whole-document **renumber** with stride
//! [`RENUMBER_STRIDE`]: every tag position is re-assigned `16, 32, 48,
//! …`, buying 15 spare slots inside every gap while preserving all
//! nesting relations (the renumbering is monotone in tag order).
//! Renumbers are counted (`renumber_events`) and flagged on the delta,
//! because they invalidate every region an index has stored; gap-fitting
//! edits touch **only** the spliced subtree's regions, which is what
//! makes incremental index maintenance cheap. Deletes never renumber.
//!
//! Node ids stay dense and in preorder after every edit (the arena is
//! compacted in one pass), so a subtree edit shifts the ids of every
//! node at or after the splice point by `inserted − removed` — the
//! id-shift recorded in the delta.
//!
//! ```
//! use xmldom::edit::{apply_op, EditOp};
//!
//! let doc = xmldom::parse("<a><b/><c/></a>").unwrap();
//! let sub = xmldom::parse("<x><y/></x>").unwrap();
//! let op = EditOp::InsertSubtree {
//!     parent: Some(doc.root()),
//!     position: 1,
//!     subtree: sub,
//! };
//! let (edited, delta) = apply_op(&doc, &op).unwrap();
//! assert_eq!(edited.len(), 5);
//! assert_eq!(delta.inserted, 2);
//! assert!(delta.renumbered, "a dense document has no gaps to fit into");
//! ```

use crate::document::{Document, NodeData, NodeId, NONE};
use crate::label::Label;
use crate::region::Region;

/// Tag-position stride used when a document is renumbered: every start
/// and end tag lands on a multiple of this, leaving `RENUMBER_STRIDE - 1`
/// spare positions inside every gap for future inserts.
pub const RENUMBER_STRIDE: u32 = 16;

/// One subtree edit against a [`Document`]. Node ids refer to the
/// document the op is applied to; subtrees are standalone documents
/// (their labels are re-interned into the edited document's table).
#[derive(Debug, Clone)]
pub enum EditOp {
    /// Graft `subtree` as child number `position` (0-based, `0 ..=
    /// child count`) of `parent`. `parent: None` roots the subtree in an
    /// empty document (the only way to revive one).
    InsertSubtree {
        /// Parent under which the subtree is grafted; `None` targets the
        /// (empty) document itself.
        parent: Option<NodeId>,
        /// Child slot the subtree root takes; existing children at or
        /// after it shift right.
        position: usize,
        /// The grafted tree (must be non-empty).
        subtree: Document,
    },
    /// Remove `target` and everything below it. Deleting the root
    /// produces the empty document.
    DeleteSubtree {
        /// Root of the removed subtree.
        target: NodeId,
    },
    /// Replace the subtree rooted at `target` with `subtree` (at the
    /// same child slot).
    ReplaceSubtree {
        /// Root of the replaced subtree.
        target: NodeId,
        /// The replacement tree (must be non-empty).
        subtree: Document,
    },
}

/// A rejected [`EditOp`]. Every failure is a value; [`apply_op`] never
/// panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The op names a node the document does not have.
    InvalidNode(NodeId),
    /// Insert position past the parent's child count.
    PositionOutOfRange {
        /// The requested child slot.
        position: usize,
        /// Children the parent actually has.
        arity: usize,
    },
    /// The inserted/replacement subtree has no elements.
    EmptySubtree,
    /// `InsertSubtree { parent: None }` on a non-empty document — XML
    /// documents have exactly one root.
    SecondRoot,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::InvalidNode(n) => write!(f, "edit names nonexistent node {n}"),
            EditError::PositionOutOfRange { position, arity } => {
                write!(f, "insert position {position} exceeds child count {arity}")
            }
            EditError::EmptySubtree => write!(f, "inserted subtree is empty"),
            EditError::SecondRoot => {
                write!(f, "cannot insert a second root into a non-empty document")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// What one applied [`EditOp`] changed, in terms an index can patch
/// from: a single contiguous preorder splice plus the set of labels
/// whose element partitions it touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditDelta {
    /// Arena index where the splice starts — the first removed node's
    /// old id, and equally the first inserted node's new id.
    pub at: u32,
    /// Nodes removed at `at` (a whole subtree, contiguous in preorder).
    pub removed: u32,
    /// Nodes inserted at `at` (ditto).
    pub inserted: u32,
    /// Labels of every removed and inserted node, deduplicated and
    /// sorted — the plan-cache invalidation key.
    pub changed_labels: Vec<Label>,
    /// True iff the whole document was renumbered: every region changed,
    /// not just the spliced subtree's. Deletes never set this.
    pub renumbered: bool,
}

impl EditDelta {
    /// Signed id shift for surviving nodes at or after the splice end:
    /// old id `i ≥ at + removed` becomes `i + id_shift()`.
    pub fn id_shift(&self) -> i64 {
        self.inserted as i64 - self.removed as i64
    }

    /// Where a pre-edit node id lands after this edit: ids before the
    /// splice are unchanged, ids inside the removed range are gone
    /// (`None` — the node no longer exists), ids at or after the splice
    /// end shift by [`id_shift`](EditDelta::id_shift). Composing
    /// `map_id` across a sequence of deltas carries an id through a
    /// whole edit chain — note this tracks *ids*, which renumbering
    /// never touches, so it stays exact across a whole-document
    /// renumber (the subscription layer's cross-snapshot row identity
    /// is built on it).
    pub fn map_id(&self, id: u32) -> Option<u32> {
        if id < self.at {
            Some(id)
        } else if id < self.at + self.removed {
            None
        } else {
            Some((i64::from(id) + self.id_shift()) as u32)
        }
    }
}

/// First arena index past the subtree rooted at `n` (subtrees are
/// contiguous in preorder).
fn subtree_end(doc: &Document, n: NodeId) -> usize {
    let right = doc.region(n).right;
    let mut j = n.index() + 1;
    while j < doc.len() && doc.region(NodeId::from_index(j)).left < right {
        j += 1;
    }
    j
}

/// How the rebuilt arena assigns regions.
enum Numbering {
    /// Surviving nodes keep their regions; spliced-in nodes consume the
    /// pre-allocated tag positions (2 per node, in tag order).
    Keep(Vec<u32>),
    /// Every tag position is re-assigned on a [`RENUMBER_STRIDE`] grid.
    Renumber,
}

/// Where a node of the logical edited tree comes from.
#[derive(Clone, Copy)]
enum Src {
    /// Survivor: this node of the input document.
    Old(NodeId),
    /// Spliced in: this node of the op's subtree document.
    Sub(NodeId),
}

/// Apply one edit, returning the edited document and its delta.
///
/// The returned document is rebuilt into dense preorder ids (an O(n)
/// compaction) with the input's label table carried over — labels keep
/// their ids across edits, which is what lets `xmlindex` patch per-label
/// partitions instead of rebuilding them. Regions of surviving nodes are
/// preserved verbatim unless the delta says `renumbered`.
pub fn apply_op(doc: &Document, op: &EditOp) -> Result<(Document, EditDelta), EditError> {
    let valid = |n: NodeId| {
        if n.index() < doc.len() {
            Ok(n)
        } else {
            Err(EditError::InvalidNode(n))
        }
    };

    // Normalize the op into one contiguous preorder splice:
    // `at .. at + removed` (old ids) replaced by `subtree` (if any),
    // grafted under `splice_parent` in place of/next to `anchor`.
    let (at, removed, subtree, numbering) = match op {
        EditOp::InsertSubtree { parent: None, subtree, .. } => {
            if !doc.is_empty() {
                return Err(EditError::SecondRoot);
            }
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            (0usize, 0usize, Some(subtree), fresh_numbering(subtree.len()))
        }
        EditOp::InsertSubtree { parent: Some(p), position, subtree } => {
            let p = valid(*p)?;
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            let children: Vec<NodeId> = doc.children(p).collect();
            if *position > children.len() {
                return Err(EditError::PositionOutOfRange {
                    position: *position,
                    arity: children.len(),
                });
            }
            let at = if *position < children.len() {
                children[*position].index()
            } else {
                subtree_end(doc, p)
            };
            let lo = if *position > 0 {
                doc.region(children[*position - 1]).right
            } else {
                doc.region(p).left
            };
            let hi = if *position < children.len() {
                doc.region(children[*position]).left
            } else {
                doc.region(p).right
            };
            (at, 0, Some(subtree), gap_numbering(lo, hi, subtree.len()))
        }
        EditOp::DeleteSubtree { target } => {
            let t = valid(*target)?;
            (t.index(), subtree_end(doc, t) - t.index(), None, Numbering::Keep(Vec::new()))
        }
        EditOp::ReplaceSubtree { target, subtree } => {
            let t = valid(*target)?;
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            let at = t.index();
            let removed = subtree_end(doc, t) - at;
            let numbering = match doc.parent(t) {
                None => fresh_numbering(subtree.len()),
                Some(p) => {
                    let mut prev: Option<NodeId> = None;
                    let mut next: Option<NodeId> = None;
                    let mut seen = false;
                    for c in doc.children(p) {
                        if c == t {
                            seen = true;
                        } else if seen {
                            next = Some(c);
                            break;
                        } else {
                            prev = Some(c);
                        }
                    }
                    let lo = prev.map(|c| doc.region(c).right).unwrap_or(doc.region(p).left);
                    let hi = next.map(|c| doc.region(c).left).unwrap_or(doc.region(p).right);
                    gap_numbering(lo, hi, subtree.len())
                }
            };
            (at, removed, Some(subtree), numbering)
        }
    };

    if matches!(numbering, Numbering::Renumber) {
        twigobs::bump(twigobs::Counter::RenumberEvents);
    }
    let renumbered = matches!(numbering, Numbering::Renumber);
    let inserted = subtree.map_or(0, Document::len);

    // The op the splice came from pins where the subtree grafts.
    let splice = Splice { removed, subtree, op };
    let out = rebuild(doc, &splice, numbering);

    let mut changed_labels: Vec<Label> = (at..at + removed)
        .map(|i| doc.label(NodeId::from_index(i)))
        .chain((at..at + inserted).map(|i| out.label(NodeId::from_index(i))))
        .collect();
    changed_labels.sort_unstable();
    changed_labels.dedup();

    twigobs::bump(twigobs::Counter::EditsApplied);
    let delta = EditDelta {
        at: at as u32,
        removed: removed as u32,
        inserted: inserted as u32,
        changed_labels,
        renumbered,
    };
    Ok((out, delta))
}

/// Numbering for a splice with no surviving neighbours (empty document
/// or root replacement): a fresh [`RENUMBER_STRIDE`] grid, not counted
/// as a renumber event because no pre-existing region moves.
fn fresh_numbering(nodes: usize) -> Numbering {
    Numbering::Keep((0..2 * nodes as u32).map(|j| (j + 1) * RENUMBER_STRIDE).collect())
}

/// Allocate `2·nodes` tag positions strictly inside `(lo, hi)`, evenly
/// spread when the gap is roomy (leaving space for future inserts),
/// packed when tight, renumbering when the gap budget is exhausted.
fn gap_numbering(lo: u32, hi: u32, nodes: usize) -> Numbering {
    debug_assert!(lo < hi, "neighbour boundaries are distinct tag positions");
    let need = 2 * nodes as u64;
    let gap = (hi - lo) as u64 - 1;
    if gap < need {
        return Numbering::Renumber;
    }
    let step = ((hi - lo) as u64 / (need + 1)) as u32;
    let positions = if step >= 1 {
        (0..need as u32).map(|j| lo + (j + 1) * step).collect()
    } else {
        (0..need as u32).map(|j| lo + 1 + j).collect()
    };
    Numbering::Keep(positions)
}

struct Splice<'a> {
    removed: usize,
    subtree: Option<&'a Document>,
    op: &'a EditOp,
}

/// One-pass preorder rebuild of the logical edited tree: arena links are
/// reconstructed from scratch (so ids are dense preorder again), regions
/// come from the numbering mode, labels are carried over or re-interned,
/// and text/attrs are remapped onto the new ids.
fn rebuild(doc: &Document, splice: &Splice<'_>, numbering: Numbering) -> Document {
    let len = doc.len() - splice.removed + splice.subtree.map_or(0, |s| s.len());
    let mut out = Document {
        nodes: Vec::with_capacity(len),
        labels: doc.labels.clone(),
        text: String::with_capacity(doc.text.len() + splice.subtree.map_or(0, |s| s.text.len())),
        text_spans: Vec::with_capacity(len),
        attrs: Default::default(),
    };
    let (mut alloc, mut counter, renumber) = match numbering {
        Numbering::Keep(positions) => (positions.into_iter(), 0u32, false),
        Numbering::Renumber => (Vec::new().into_iter(), 0u32, true),
    };
    let mut next_pos = move || {
        if renumber {
            counter += RENUMBER_STRIDE;
            counter
        } else {
            alloc.next().expect("allocation covers every spliced tag")
        }
    };

    // The roots of the logical edited tree.
    let roots: Vec<Src> = match (doc.is_empty(), splice.op) {
        (true, _) => vec![Src::Sub(splice.subtree.expect("validated non-empty").root())],
        (false, EditOp::ReplaceSubtree { target, .. }) if target.index() == 0 => {
            vec![Src::Sub(splice.subtree.expect("validated non-empty").root())]
        }
        (false, EditOp::DeleteSubtree { target }) if target.index() == 0 => Vec::new(),
        (false, _) => vec![Src::Old(doc.root())],
    };

    // Children of a logical node, with the splice applied at its anchor.
    let children_of = |src: Src| -> Vec<Src> {
        match src {
            Src::Sub(m) => splice
                .subtree
                .expect("Sub nodes only exist when a subtree is spliced")
                .children(m)
                .map(Src::Sub)
                .collect(),
            Src::Old(n) => {
                let mut kids: Vec<Src> = Vec::new();
                match splice.op {
                    EditOp::InsertSubtree { parent: Some(p), position, subtree } if *p == n => {
                        for (i, c) in doc.children(n).enumerate() {
                            if i == *position {
                                kids.push(Src::Sub(subtree.root()));
                            }
                            kids.push(Src::Old(c));
                        }
                        if *position == kids.len() {
                            kids.push(Src::Sub(subtree.root()));
                        }
                    }
                    EditOp::DeleteSubtree { target } if doc.parent(*target) == Some(n) => {
                        kids.extend(doc.children(n).filter(|c| c != target).map(Src::Old));
                    }
                    EditOp::ReplaceSubtree { target, subtree }
                        if doc.parent(*target) == Some(n) =>
                    {
                        for c in doc.children(n) {
                            if c == *target {
                                kids.push(Src::Sub(subtree.root()));
                            } else {
                                kids.push(Src::Old(c));
                            }
                        }
                    }
                    _ => kids.extend(doc.children(n).map(Src::Old)),
                }
                kids
            }
        }
    };

    // Iterative preorder walk emitting start/end events, maintaining
    // arena links exactly like `DocumentBuilder`.
    let mut open: Vec<u32> = Vec::new();
    let mut iters: Vec<std::vec::IntoIter<Src>> = vec![roots.into_iter()];
    while let Some(it) = iters.last_mut() {
        if let Some(src) = it.next() {
            // Start event.
            let idx = out.nodes.len() as u32;
            let level = open.len() as u32 + 1;
            let parent = open.last().copied().unwrap_or(NONE);
            let (label, region, src_doc, src_id) = match src {
                Src::Old(n) => {
                    let region = if renumber {
                        Region::new(next_pos(), u32::MAX, level)
                    } else {
                        doc.region(n)
                    };
                    (doc.label(n), region, doc, n)
                }
                Src::Sub(m) => {
                    let sub = splice.subtree.expect("spliced");
                    let label = out.labels.intern(sub.tag_name(m));
                    (label, Region::new(next_pos(), u32::MAX, level), sub, m)
                }
            };
            out.push_text_span(src_doc.text(src_id));
            let attrs = src_doc.attributes(src_id);
            if !attrs.is_empty() {
                out.attrs.insert(idx, attrs.to_vec());
            }
            out.nodes.push(NodeData {
                label,
                region,
                parent,
                first_child: NONE,
                last_child: NONE,
                next_sibling: NONE,
            });
            if parent != NONE {
                let p = &mut out.nodes[parent as usize];
                if p.first_child == NONE {
                    p.first_child = idx;
                    p.last_child = idx;
                } else {
                    let last = p.last_child;
                    out.nodes[last as usize].next_sibling = idx;
                    out.nodes[parent as usize].last_child = idx;
                }
            }
            open.push(idx);
            // Needs a closing event even when childless.
            let kids = children_of(src);
            iters.push(kids.into_iter());
        } else {
            iters.pop();
            if let Some(idx) = open.pop() {
                // End event: patch `right` for nodes that got a fresh
                // left (spliced or renumbered); survivors already carry
                // their full region.
                if out.nodes[idx as usize].region.right == u32::MAX {
                    out.nodes[idx as usize].region.right = next_pos();
                }
            }
        }
    }
    debug_assert!(open.is_empty(), "walk closes every node it opens");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn doc(xml: &str) -> Document {
        parse(xml).unwrap()
    }

    /// Edited documents must be indistinguishable (modulo label-table
    /// ordering and exact region values) from a fresh parse: same shape,
    /// same tags, same text/attrs, dense preorder ids, well-nested
    /// regions.
    fn assert_well_formed(d: &Document) {
        for n in d.iter() {
            let r = d.region(n);
            assert!(r.left < r.right, "{n}: {r:?}");
            if let Some(p) = d.parent(n) {
                assert!(d.region(p).is_parent_of(&r), "{n} under {p}");
                assert!(p.index() < n.index(), "parent precedes child in preorder");
            } else {
                assert_eq!(n.index(), 0, "only the root lacks a parent");
                assert_eq!(r.level, 1);
            }
        }
        if !d.is_empty() {
            let pre: Vec<NodeId> = d.descendants_or_self(d.root()).collect();
            let seq: Vec<NodeId> = d.iter().collect();
            assert_eq!(pre, seq, "ids are dense preorder");
        }
        // Document order of start tags follows id order.
        for w in d.iter().collect::<Vec<_>>().windows(2) {
            assert!(d.region(w[0]).left < d.region(w[1]).left);
        }
    }

    fn shape(d: &Document) -> String {
        fn rec(d: &Document, n: NodeId, out: &mut String) {
            out.push_str(d.tag_name(n));
            out.push('(');
            for c in d.children(n) {
                rec(d, c, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        if !d.is_empty() {
            rec(d, d.root(), &mut s);
        }
        s
    }

    #[test]
    fn first_insert_into_dense_document_renumbers() {
        let base = doc("<a><b/><c/></a>");
        let (edited, delta) = apply_op(
            &base,
            &EditOp::InsertSubtree {
                parent: Some(base.root()),
                position: 1,
                subtree: doc("<x><y/></x>"),
            },
        )
        .unwrap();
        assert!(delta.renumbered, "dense regions leave no gap");
        assert_eq!((delta.at, delta.removed, delta.inserted), (2, 0, 2));
        assert_eq!(shape(&edited), "a(b()x(y())c())");
        assert_well_formed(&edited);
        // Renumbered regions sit on the stride grid.
        for n in edited.iter() {
            assert_eq!(edited.region(n).left % RENUMBER_STRIDE, 0);
        }
    }

    #[test]
    fn second_insert_fits_the_gap() {
        let base = doc("<a><b/><c/></a>");
        let sub = || doc("<x/>");
        let (once, d1) = apply_op(
            &base,
            &EditOp::InsertSubtree { parent: Some(base.root()), position: 2, subtree: sub() },
        )
        .unwrap();
        assert!(d1.renumbered);
        let before: Vec<Region> = once.iter().map(|n| once.region(n)).collect();
        let (twice, d2) = apply_op(
            &once,
            &EditOp::InsertSubtree { parent: Some(once.root()), position: 3, subtree: sub() },
        )
        .unwrap();
        assert!(!d2.renumbered, "the renumbered document has gaps");
        assert_eq!(shape(&twice), "a(b()c()x()x())");
        assert_well_formed(&twice);
        // Every surviving node kept its region verbatim.
        for (i, r) in before.iter().enumerate() {
            assert_eq!(twice.region(NodeId::from_index(i)), *r, "survivor {i}");
        }
    }

    #[test]
    fn exhausting_the_gap_between_two_siblings_renumbers_again() {
        // Keep inserting single nodes between the first two children:
        // each insert subdivides the same sibling gap until the budget
        // (RENUMBER_STRIDE - 1 spare positions after a renumber) runs
        // out and a second renumber fires.
        let mut d = doc("<a><b/><c/></a>");
        let mut renumbers = 0;
        for _ in 0..12 {
            let (next, delta) = apply_op(
                &d,
                &EditOp::InsertSubtree {
                    parent: Some(d.root()),
                    position: 1,
                    subtree: doc("<x/>"),
                },
            )
            .unwrap();
            if delta.renumbered {
                renumbers += 1;
            }
            assert_well_formed(&next);
            d = next;
        }
        assert_eq!(d.len(), 15);
        assert!(
            renumbers >= 2,
            "the first insert renumbers, and repeated same-gap inserts \
             must exhaust the stride budget and renumber again ({renumbers})"
        );
        // Correctness after every renumber: shape intact, regions nested.
        assert_eq!(shape(&d).matches("x()").count(), 12);
    }

    #[test]
    fn delete_keeps_all_surviving_regions() {
        let base = doc("<a><b><c/><d/></b><e/></a>");
        let b = base.first_child(base.root()).unwrap();
        let (edited, delta) = apply_op(&base, &EditOp::DeleteSubtree { target: b }).unwrap();
        assert!(!delta.renumbered, "deletes never renumber");
        assert_eq!((delta.at, delta.removed, delta.inserted), (1, 3, 0));
        assert_eq!(delta.id_shift(), -3);
        assert_eq!(shape(&edited), "a(e())");
        assert_well_formed(&edited);
        assert_eq!(edited.region(edited.root()), base.region(base.root()));
        let e_old = base.next_sibling(b).unwrap();
        assert_eq!(edited.region(NodeId::from_index(1)), base.region(e_old));
    }

    #[test]
    fn delete_root_yields_the_empty_document_and_insert_revives_it() {
        let base = doc("<a><b/></a>");
        let (empty, delta) = apply_op(&base, &EditOp::DeleteSubtree { target: base.root() }).unwrap();
        assert!(empty.is_empty());
        assert_eq!(delta.removed, 2);
        // The label table survives emptiness (label ids stay stable).
        assert!(empty.labels().get("a").is_some());
        let (revived, delta) = apply_op(
            &empty,
            &EditOp::InsertSubtree { parent: None, position: 0, subtree: doc("<r><s/></r>") },
        )
        .unwrap();
        assert_eq!(shape(&revived), "r(s())");
        assert!(!delta.renumbered);
        assert_well_formed(&revived);
    }

    #[test]
    fn replace_splices_at_the_same_slot() {
        let base = doc("<a><b/><c><d/></c><e/></a>");
        let c = base
            .children(base.root())
            .nth(1)
            .unwrap();
        let (edited, delta) = apply_op(
            &base,
            &EditOp::ReplaceSubtree { target: c, subtree: doc("<z/>") },
        )
        .unwrap();
        assert_eq!(shape(&edited), "a(b()z()e())");
        assert_eq!((delta.at, delta.removed, delta.inserted), (2, 2, 1));
        assert_well_formed(&edited);
        // Replacing a 2-node subtree with 1 node fits the freed gap.
        assert!(!delta.renumbered);
    }

    #[test]
    fn replace_root_rebuilds_fresh() {
        let base = doc("<a><b/></a>");
        let (edited, delta) = apply_op(
            &base,
            &EditOp::ReplaceSubtree { target: base.root(), subtree: doc("<r><s/><t/></r>") },
        )
        .unwrap();
        assert_eq!(shape(&edited), "r(s()t())");
        assert!(!delta.renumbered, "nothing outside the splice exists to move");
        assert_eq!((delta.at, delta.removed, delta.inserted), (0, 2, 3));
        assert_well_formed(&edited);
    }

    #[test]
    fn text_and_attrs_ride_along() {
        let base = doc("<a x=\"1\"><b>keep</b><c>drop</c></a>");
        let c = base.children(base.root()).nth(1).unwrap();
        let mut nb = crate::DocumentBuilder::new();
        nb.leaf("n", "new").unwrap();
        let subtree = nb.finish().unwrap();
        let (edited, _) =
            apply_op(&base, &EditOp::ReplaceSubtree { target: c, subtree }).unwrap();
        assert_eq!(edited.attribute(edited.root(), "x"), Some("1"));
        let b = edited.first_child(edited.root()).unwrap();
        assert_eq!(edited.text(b), Some("keep"));
        let n = edited.next_sibling(b).unwrap();
        assert_eq!(edited.text(n), Some("new"));
        // Pure function: the input document is untouched.
        assert_eq!(base.text(c), Some("drop"));
    }

    #[test]
    fn changed_labels_cover_removed_and_inserted() {
        let base = doc("<a><b><c/></b></a>");
        let b = base.first_child(base.root()).unwrap();
        let (edited, delta) =
            apply_op(&base, &EditOp::ReplaceSubtree { target: b, subtree: doc("<x><c/></x>") })
                .unwrap();
        let names: Vec<&str> = delta
            .changed_labels
            .iter()
            .map(|&l| edited.labels().name(l))
            .collect();
        assert_eq!(names, vec!["b", "c", "x"]);
    }

    #[test]
    fn typed_errors_for_bad_ops() {
        let base = doc("<a><b/></a>");
        let bogus = NodeId::from_index(99);
        assert_eq!(
            apply_op(&base, &EditOp::DeleteSubtree { target: bogus }).unwrap_err(),
            EditError::InvalidNode(bogus)
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree {
                    parent: Some(base.root()),
                    position: 5,
                    subtree: doc("<x/>")
                }
            )
            .unwrap_err(),
            EditError::PositionOutOfRange { position: 5, arity: 1 }
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree {
                    parent: Some(base.root()),
                    position: 0,
                    subtree: Document::default()
                }
            )
            .unwrap_err(),
            EditError::EmptySubtree
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree { parent: None, position: 0, subtree: doc("<x/>") }
            )
            .unwrap_err(),
            EditError::SecondRoot
        );
    }

    #[test]
    fn deep_edits_do_not_recurse() {
        // A pathologically deep chain exercises the iterative walker.
        let mut b = crate::DocumentBuilder::new();
        for _ in 0..4000 {
            b.start_element("d").unwrap();
        }
        for _ in 0..4000 {
            b.end_element().unwrap();
        }
        let deep = b.finish().unwrap();
        let leaf = NodeId::from_index(3999);
        let (edited, delta) = apply_op(
            &deep,
            &EditOp::InsertSubtree { parent: Some(leaf), position: 0, subtree: doc("<x/>") },
        )
        .unwrap();
        assert_eq!(edited.len(), 4001);
        assert!(delta.renumbered);
        assert_eq!(edited.region(NodeId::from_index(4000)).level, 4001);
    }

    #[test]
    fn map_id_tracks_ids_through_a_splice() {
        // Delete <b><c/></b> (ids 1..3) from <a><b><c/></b><d/></a>.
        let base = doc("<a><b><c/></b><d/></a>");
        let (edited, delta) =
            apply_op(&base, &EditOp::DeleteSubtree { target: NodeId::from_index(1) }).unwrap();
        assert_eq!(delta.at, 1);
        assert_eq!(delta.removed, 2);
        assert_eq!(delta.id_shift(), -2);
        // Before the splice: unchanged. Inside: gone. After: shifted.
        assert_eq!(delta.map_id(0), Some(0));
        assert_eq!(delta.map_id(1), None);
        assert_eq!(delta.map_id(2), None);
        assert_eq!(delta.map_id(3), Some(1));
        // The mapped id binds the same element in the edited document.
        assert_eq!(edited.labels().name(edited.label(NodeId::from_index(1))), "d");

        // Composing across a second edit stays exact: <e/> takes id 1,
        // pushing d from 1 to 2 (ids ignore tag positions throughout).
        let (_, delta2) = apply_op(
            &edited,
            &EditOp::InsertSubtree { parent: Some(edited.root()), position: 0, subtree: doc("<e/>") },
        )
        .unwrap();
        assert_eq!(delta.map_id(3).and_then(|i| delta2.map_id(i)), Some(2));
    }
}
