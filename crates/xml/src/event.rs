//! SAX-style event streams.
//!
//! Both bottom-up matching (Twig²Stack, which acts on element *closes*) and
//! top-down matching (PathStack, which acts on element *opens*) can be driven
//! by one linear pass of [`Event`]s. Events can come from an in-memory
//! [`Document`] or directly from raw XML text that is never materialized as
//! a DOM — the paper's streaming scenario (§7): start tags arrive in
//! pre-order, end tags in post-order.
//!
//! A [`Event::Start`] cannot carry the element's `right` endpoint (it is not
//! known yet in a stream); the full [`Region`] is available on
//! [`Event::End`].

use crate::document::{Document, NodeId};
use crate::label::{Label, LabelTable};
use crate::parser::{check_entities, ParseError, ParseErrorKind, Scanner, Token};
use crate::region::Region;

/// One parse event. The `elem` ids are pre-order ordinals: for events
/// generated from a [`Document`] they coincide with its [`NodeId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An element opened. `left` and `level` are final; `right` is unknown.
    Start {
        /// Pre-order ordinal of the element.
        elem: NodeId,
        /// Interned tag name.
        label: Label,
        /// Start position in the global tag counter.
        left: u32,
        /// Depth (root element = 1).
        level: u32,
    },
    /// An element closed; its complete region encoding is now known.
    End {
        /// Pre-order ordinal of the element.
        elem: NodeId,
        /// Interned tag name.
        label: Label,
        /// Complete region encoding.
        region: Region,
    },
}

impl Event {
    /// The element this event belongs to.
    pub fn elem(&self) -> NodeId {
        match *self {
            Event::Start { elem, .. } | Event::End { elem, .. } => elem,
        }
    }

    /// The element's label.
    pub fn label(&self) -> Label {
        match *self {
            Event::Start { label, .. } | Event::End { label, .. } => label,
        }
    }
}

/// Iterator of [`Event`]s over an in-memory [`Document`].
///
/// Emits `Start` in pre-order and `End` in post-order, exactly as a SAX
/// parse of the serialized document would. Allocation-free: the walk uses
/// the document's child/sibling/parent links directly.
pub struct DocEvents<'a> {
    doc: &'a Document,
    /// The next event to emit: `(node, is_end)`, or `None` when done.
    next: Option<(NodeId, bool)>,
    /// Subtree scope: the walk ends after emitting this node's `End`
    /// (`None` = whole document).
    scope: Option<NodeId>,
}

impl<'a> DocEvents<'a> {
    /// Events for the whole document.
    pub fn new(doc: &'a Document) -> Self {
        let next = if doc.is_empty() {
            None
        } else {
            Some((doc.root(), false))
        };
        DocEvents { doc, next, scope: None }
    }

    /// Events for the subtree rooted at `root` only: its `Start` first,
    /// its `End` last, nothing outside. Used by the parallel evaluator to
    /// feed one document chunk to a worker.
    pub fn subtree(doc: &'a Document, root: NodeId) -> Self {
        DocEvents { doc, next: Some((root, false)), scope: Some(root) }
    }
}

impl Iterator for DocEvents<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let (node, closing) = self.next?;
        // Compute the successor: after a Start, descend to the first
        // child (or close this node); after an End, move to the next
        // sibling (or close the parent).
        self.next = if !closing {
            match self.doc.first_child(node) {
                Some(c) => Some((c, false)),
                None => Some((node, true)),
            }
        } else if self.scope == Some(node) {
            None
        } else {
            match self.doc.next_sibling(node) {
                Some(s) => Some((s, false)),
                None => self.doc.parent(node).map(|p| (p, true)),
            }
        };
        Some(if closing {
            // One element fully delivered to the consumer: this is the
            // "elements scanned" unit of the paper's evaluation.
            twigobs::bump(twigobs::Counter::ElementsScanned);
            Event::End {
                elem: node,
                label: self.doc.label(node),
                region: self.doc.region(node),
            }
        } else {
            let r = self.doc.region(node);
            Event::Start {
                elem: node,
                label: self.doc.label(node),
                left: r.left,
                level: r.level,
            }
        })
    }
}

/// Streaming event parser over raw XML text: produces [`Event`]s without
/// ever building a DOM, interning labels into its own [`LabelTable`].
///
/// Structure only: character data, CDATA and attribute values produce no
/// event, but every entity reference in text (inside or outside the root)
/// and in attribute values is still validated: a syntax or entity error
/// fails here with the same [`ParseError`] that [`crate::parse`] returns.
/// (Only document-shape checks differ: the stream has no single-root rule,
/// and words a stray end tag as "unmatched end tag".)
pub struct EventParser<'a> {
    scanner: Scanner<'a>,
    labels: LabelTable,
    /// Open elements: (ordinal, label, left).
    open: Vec<(u32, Label, u32)>,
    counter: u32,
    next_ordinal: u32,
    /// A self-closing tag produces a Start immediately and queues its End.
    pending_end: Option<Event>,
    done: bool,
}

impl<'a> EventParser<'a> {
    /// Start streaming over `input`.
    pub fn new(input: &'a str) -> Self {
        Self::with_labels(input, LabelTable::new())
    }

    /// Start streaming over `input`, interning into `labels`: names it
    /// already holds keep their ids, and new names are appended in
    /// first-seen order. Seeding the table with a query's names lets a
    /// matcher compiled against it run in the same single pass.
    pub fn with_labels(input: &'a str, labels: LabelTable) -> Self {
        EventParser {
            scanner: Scanner::new(input),
            labels,
            open: Vec::new(),
            counter: 0,
            next_ordinal: 0,
            pending_end: None,
            done: false,
        }
    }

    /// The labels interned so far (complete once the stream is exhausted).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Pull the next event.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next_event(&mut self) -> Result<Option<Event>, ParseError> {
        if let Some(e) = self.pending_end.take() {
            twigobs::bump(twigobs::Counter::ElementsScanned);
            return Ok(Some(e));
        }
        if self.done {
            return Ok(None);
        }
        loop {
            let Some(tok) = self.scanner.next_token()? else {
                if !self.open.is_empty() {
                    return Err(ParseError {
                        offset: self.scanner.pos,
                        kind: ParseErrorKind::UnexpectedEof,
                    });
                }
                self.done = true;
                return Ok(None);
            };
            match tok {
                Token::StartTag { name, self_closing } => {
                    let label = self.labels.intern(name);
                    self.counter += 1;
                    let left = self.counter;
                    let level = self.open.len() as u32 + 1;
                    let elem = NodeId::from_index(self.next_ordinal as usize);
                    self.next_ordinal += 1;
                    let start = Event::Start { elem, label, left, level };
                    if self_closing {
                        self.counter += 1;
                        self.pending_end = Some(Event::End {
                            elem,
                            label,
                            region: Region::new(left, self.counter, level),
                        });
                    } else {
                        self.open.push((elem.index() as u32, label, left));
                    }
                    return Ok(Some(start));
                }
                Token::EndTag { name } => {
                    let (ord, label, left) = self.open.pop().ok_or_else(|| ParseError {
                        offset: self.scanner.pos,
                        kind: ParseErrorKind::Malformed("unmatched end tag".into()),
                    })?;
                    if self.labels.name(label) != name {
                        return Err(ParseError {
                            offset: self.scanner.pos,
                            kind: ParseErrorKind::MismatchedTag {
                                expected: self.labels.name(label).to_string(),
                                found: name.to_string(),
                            },
                        });
                    }
                    self.counter += 1;
                    let level = self.open.len() as u32 + 1;
                    twigobs::bump(twigobs::Counter::ElementsScanned);
                    return Ok(Some(Event::End {
                        elem: NodeId::from_index(ord as usize),
                        label,
                        region: Region::new(left, self.counter, level),
                    }));
                }
                // Structure-only stream: text is checked, not kept.
                Token::Text(t) => check_entities(t, self.scanner.pos)?,
                Token::Cdata(_) => {}
            }
        }
    }

    /// Drain the stream into a vector (convenience for tests/tools).
    pub fn collect_events(mut self) -> Result<(Vec<Event>, LabelTable), ParseError> {
        let mut events = Vec::new();
        while let Some(e) = self.next_event()? {
            events.push(e);
        }
        Ok((events, self.labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "<a><b><c/></b><d/></a>";

    #[test]
    fn doc_events_are_balanced_and_ordered() {
        let doc = parse(SRC).unwrap();
        let events: Vec<Event> = DocEvents::new(&doc).collect();
        assert_eq!(events.len(), 2 * doc.len());
        let mut depth = 0i32;
        let mut last_left = 0;
        for e in &events {
            match e {
                Event::Start { left, .. } => {
                    depth += 1;
                    assert!(*left > last_left);
                    last_left = *left;
                }
                Event::End { .. } => depth -= 1,
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn subtree_events_cover_exactly_the_subtree() {
        let doc = parse(SRC).unwrap();
        // The <b> subtree: b, c.
        let b = doc.first_child(doc.root()).unwrap();
        let events: Vec<Event> = DocEvents::subtree(&doc, b).collect();
        let names: Vec<(&str, bool)> = events
            .iter()
            .map(|e| {
                (doc.labels().name(e.label()), matches!(e, Event::End { .. }))
            })
            .collect();
        assert_eq!(
            names,
            vec![("b", false), ("c", false), ("c", true), ("b", true)]
        );
        // A leaf subtree emits exactly its own Start/End pair.
        let d = doc.next_sibling(b).unwrap();
        let leaf: Vec<Event> = DocEvents::subtree(&doc, d).collect();
        assert_eq!(leaf.len(), 2);
        assert_eq!(leaf[0].elem(), d);
        assert_eq!(leaf[1].elem(), d);
        // The root subtree equals the whole document stream.
        let whole: Vec<Event> = DocEvents::new(&doc).collect();
        let rooted: Vec<Event> = DocEvents::subtree(&doc, doc.root()).collect();
        assert_eq!(whole, rooted);
    }

    #[test]
    fn streaming_matches_dom_events() {
        let doc = parse(SRC).unwrap();
        let dom_events: Vec<Event> = DocEvents::new(&doc).collect();
        let (stream_events, labels) = EventParser::new(SRC).collect_events().unwrap();
        assert_eq!(dom_events.len(), stream_events.len());
        for (d, s) in dom_events.iter().zip(&stream_events) {
            // Label tables may intern in different orders; compare by name.
            match (d, s) {
                (
                    Event::Start { elem: e1, left: l1, level: v1, label: la1 },
                    Event::Start { elem: e2, left: l2, level: v2, label: la2 },
                ) => {
                    assert_eq!(e1, e2);
                    assert_eq!(l1, l2);
                    assert_eq!(v1, v2);
                    assert_eq!(doc.labels().name(*la1), labels.name(*la2));
                }
                (
                    Event::End { elem: e1, region: r1, .. },
                    Event::End { elem: e2, region: r2, .. },
                ) => {
                    assert_eq!(e1, e2);
                    assert_eq!(r1, r2);
                }
                _ => panic!("event kind mismatch"),
            }
        }
    }

    #[test]
    fn seeded_labels_keep_their_ids() {
        let mut seed = LabelTable::new();
        let d = seed.intern("d");
        let q = seed.intern("q"); // never occurs in the document
        let (events, labels) = EventParser::with_labels(SRC, seed).collect_events().unwrap();
        assert_eq!(labels.get("d"), Some(d));
        assert_eq!(labels.get("q"), Some(q));
        // The document's other names follow the seed, in first-seen order.
        let names: Vec<&str> = labels.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["d", "q", "a", "b", "c"]);
        assert_eq!(events.len(), 8);
    }

    #[test]
    fn end_events_arrive_in_postorder() {
        let doc = parse(SRC).unwrap();
        let ends: Vec<NodeId> = DocEvents::new(&doc)
            .filter_map(|e| match e {
                Event::End { elem, .. } => Some(elem),
                _ => None,
            })
            .collect();
        // Post-order of <a><b><c/></b><d/></a> = c, b, d, a.
        let names: Vec<&str> = ends.iter().map(|&n| doc.tag_name(n)).collect();
        assert_eq!(names, vec!["c", "b", "d", "a"]);
    }

    #[test]
    fn streaming_rejects_mismatched_tags() {
        let mut p = EventParser::new("<a><b></a></b>");
        let mut err = None;
        loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err.unwrap().kind,
            ParseErrorKind::MismatchedTag { .. }
        ));
    }

    #[test]
    fn streaming_rejects_truncated_document() {
        let mut p = EventParser::new("<a><b>");
        let mut err = None;
        loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err.unwrap().kind, ParseErrorKind::UnexpectedEof));
    }
}
