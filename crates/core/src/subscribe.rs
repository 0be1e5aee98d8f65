//! Continuous multi-query subscriptions over the event stream
//! ("twigsub"; DESIGN.md §17).
//!
//! The engines in this crate answer *one* query over *one* document.
//! This module inverts the workload: thousands of **standing** GTP
//! subscriptions evaluated in a single pass over an incoming XML event
//! stream — pub/sub, firehose filtering, and change notification for
//! the edit write path — with no index at all.
//!
//! ## Architecture
//!
//! Running N independent [`Matcher`]s would cost O(N) dispatch work per
//! event even when most subscriptions cannot possibly care about the
//! element. Instead, all registered queries are compiled into one
//! **shared prefix-merged automaton** ([`SharedAutomaton`], YFilter-style):
//!
//! 1. Every query node of every subscription contributes its *root
//!    path* — the `(axis, test)` steps from the query root down to that
//!    node — to a prefix trie. Common prefixes across subscriptions
//!    collapse into shared NFA states, so per-event transition work is
//!    amortized across all subscriptions.
//! 2. At runtime a stack of active state sets tracks the current
//!    root-to-element path. `/` steps consume exactly one level;
//!    `//` steps are armed once and *carried* down the subtree
//!    (the classic self-loop encoding of descendant axes). Wildcard
//!    (`*`) transitions fire on every label.
//! 3. A state reached at an element's start tag *accepts* the
//!    subscriptions whose query nodes end there: the element can bind
//!    to at least one query node of those subscriptions. Only those
//!    subscriptions' matchers see the element's close event.
//!
//! Per-subscription match semantics — value predicates, OR-groups,
//! optional edges, result enumeration — are resolved by the paper's
//! bottom-up [`Matcher`] itself, fed the *filtered* post-order close
//! stream. This is sound for the same reason path-summary pruning
//! (DESIGN.md §11) is: an element whose root path cannot embed a query
//! node's root-path pattern can never bind to that node, and the
//! matcher is purely region-driven, so dropping such elements leaves
//! the match encoding — and therefore the enumerated [`ResultSet`] —
//! byte-identical to a solo [`evaluate_streaming`](crate::evaluate_streaming)
//! run (the `subscribed_vs_solo` fuzz invariant and Fig V assert
//! exactly this).
//!
//! ## Quick start
//!
//! ```
//! use gtpquery::parse_twig;
//! use twig2stack::subscribe::{run_subscriptions, SharedAutomaton};
//! use twig2stack::MatchOptions;
//!
//! let auto = SharedAutomaton::build(vec![
//!     parse_twig("//dblp/article/title").unwrap(),
//!     parse_twig("//dblp//author").unwrap(),
//! ]);
//! let xml = "<dblp><article><title/><author/></article></dblp>";
//! let (results, stats) = run_subscriptions(xml, &auto, MatchOptions::default()).unwrap();
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].len(), 1); // the title
//! assert_eq!(results[1].len(), 1); // the author
//! assert!(stats.matcher_feeds <= stats.elements * auto.len() as u64);
//! ```

use crate::enumerate;
use crate::matcher::{MatchOptions, Matcher};
use gtpquery::{Axis, CancelToken, Gtp, NodeTest, QueryError, ResultSet};
use xmldom::{Document, Label, LabelTable, NodeId, Region};

/// Handle for one registered subscription; indexes the automaton's
/// query list and the per-subscription result slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u32);

impl SubscriptionId {
    /// The subscription's position in [`SharedAutomaton`] order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A label test on an automaton transition (name-keyed at build time;
/// bound to interned [`Label`] ids per stream).
#[derive(Debug, Clone, PartialEq, Eq)]
enum StepTest {
    /// Fires on every label.
    Wildcard,
    /// Fires on exactly this tag name.
    Name(String),
}

impl StepTest {
    fn of(test: &NodeTest) -> StepTest {
        match test {
            NodeTest::Wildcard => StepTest::Wildcard,
            NodeTest::Name(n) => StepTest::Name(n.clone()),
        }
    }
}

/// One prefix-trie state. Transitions are split by axis because only
/// descendant (`//`) transitions persist down a subtree.
#[derive(Debug, Default)]
struct NfaState {
    /// `/`-axis transitions: fire from the immediate parent level only.
    child: Vec<(StepTest, u32)>,
    /// `//`-axis transitions: armed here, carried down the subtree.
    desc: Vec<(StepTest, u32)>,
    /// Subscriptions with a query node whose root path ends here
    /// (deduplicated, ascending).
    accepts: Vec<u32>,
}

/// N parsed GTPs compiled into one shared prefix-merged NFA.
///
/// Immutable once built: registration changes rebuild the automaton
/// (construction is linear in total query size — microseconds for
/// thousands of subscriptions). The automaton owns its queries; the
/// runtime engines borrow them.
#[derive(Debug)]
pub struct SharedAutomaton {
    subs: Vec<Gtp>,
    states: Vec<NfaState>,
}

impl SharedAutomaton {
    /// Compile `subs` into one automaton. Subscription `i` keeps id
    /// [`SubscriptionId`]`(i)` and result slot `i` in every run.
    pub fn build(subs: Vec<Gtp>) -> SharedAutomaton {
        let mut states: Vec<NfaState> = vec![NfaState::default()];
        for (si, gtp) in subs.iter().enumerate() {
            for q in gtp.preorder() {
                // The root path of q: (axis, test) steps from the query
                // root down to q. The virtual pre-document state reaches
                // a rooted query's root only via `/` (level 1), an
                // unrooted one via `//` (any level). Edge *optionality*
                // is irrelevant here: binding an element to q always
                // requires the structural relation to hold.
                let mut chain = vec![q];
                let mut cur = q;
                while let Some(p) = gtp.parent(cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                let mut state = 0u32;
                for &n in &chain {
                    let axis = match gtp.edge(n) {
                        Some(e) => e.axis,
                        None if gtp.is_rooted() => Axis::Child,
                        None => Axis::Descendant,
                    };
                    let test = StepTest::of(gtp.test(n));
                    state = Self::step(&mut states, state, axis, test);
                }
                let acc = &mut states[state as usize].accepts;
                if acc.last() != Some(&(si as u32)) {
                    acc.push(si as u32);
                }
            }
        }
        SharedAutomaton { subs, states }
    }

    /// Follow (or create) the transition `(axis, test)` out of `from`.
    fn step(states: &mut Vec<NfaState>, from: u32, axis: Axis, test: StepTest) -> u32 {
        let edges = match axis {
            Axis::Child => &states[from as usize].child,
            Axis::Descendant => &states[from as usize].desc,
        };
        if let Some(&(_, to)) = edges.iter().find(|(t, _)| *t == test) {
            return to;
        }
        let to = states.len() as u32;
        states.push(NfaState::default());
        match axis {
            Axis::Child => states[from as usize].child.push((test, to)),
            Axis::Descendant => states[from as usize].desc.push((test, to)),
        }
        to
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True iff no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Number of NFA states (prefix merging makes this grow much slower
    /// than total query size — the Fig V amortization argument).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The registered queries, in [`SubscriptionId`] order.
    pub fn queries(&self) -> &[Gtp] {
        &self.subs
    }

    /// True iff any registered query carries a value predicate (those
    /// need a text source, i.e. the DOM-driven runtime).
    pub fn has_value_preds(&self) -> bool {
        self.subs.iter().any(Gtp::has_value_preds)
    }
}

/// [`SharedAutomaton`] transitions resolved against one stream's
/// [`LabelTable`]: per state, next-state lists indexed by label id, so the
/// per-event hot loop never touches strings or hashes. Each list is only
/// as long as the state's largest named label; labels past it (including
/// every label interned after binding) have no named transition.
struct BoundState {
    /// `/`-transitions by label index (named tests only).
    child: Vec<Vec<u32>>,
    /// `//`-transitions by label index (named tests only).
    desc: Vec<Vec<u32>>,
    /// `/`-transitions firing on any label.
    wild_child: Vec<u32>,
    /// `//`-transitions firing on any label.
    wild_desc: Vec<u32>,
    /// True iff the state has any `//` transition and must be carried
    /// down the subtree once reached.
    carries: bool,
    /// True iff the state has any transition at all. A state without one
    /// (a query leaf) only accepts; it never joins an active set, since
    /// it could not advance at the next level.
    advances: bool,
    /// Subscriptions accepting at this state.
    accepts: Vec<u32>,
}

/// Split one axis's transitions into label-indexed named lists and the
/// wildcard list. Names the table does not hold never fire.
fn bind(edges: &[(StepTest, u32)], labels: &LabelTable) -> (Vec<Vec<u32>>, Vec<u32>) {
    let mut named: Vec<Vec<u32>> = Vec::new();
    let mut wild = Vec::new();
    for (test, to) in edges {
        match test {
            StepTest::Wildcard => wild.push(*to),
            StepTest::Name(n) => {
                if let Some(l) = labels.get(n) {
                    if named.len() <= l.index() {
                        named.resize_with(l.index() + 1, Vec::new);
                    }
                    named[l.index()].push(*to);
                }
            }
        }
    }
    (named, wild)
}

/// One stack frame: the automaton state set active inside the current
/// element, plus the subscriptions its start tag accepted.
#[derive(Default)]
struct Frame {
    /// `(state, desc_only)`: a `desc_only` entry was carried for its
    /// `//` transitions and must not fire `/` transitions.
    entries: Vec<(u32, bool)>,
    /// Subscriptions whose matchers receive this element's close event.
    relevant: Vec<u32>,
}

/// Aggregate statistics of one subscription run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubRunStats {
    /// Elements the stream delivered (close events seen).
    pub elements: u64,
    /// Total `(subscription, element)` close deliveries — the
    /// amortization metric: a solo-per-query sweep would pay
    /// `len() * elements`.
    pub matcher_feeds: u64,
    /// NFA states in the shared automaton.
    pub states: usize,
}

/// The runtime: drives one [`SharedAutomaton`] over a start/end event
/// stream, feeding each subscription's [`Matcher`] only the elements
/// the automaton proves relevant to it.
///
/// Feed [`on_start`](Self::on_start) / [`on_end`](Self::on_end) in
/// document order (starts in pre-order, ends in post-order — exactly a
/// SAX parse), then [`finish`](Self::finish). The convenience drivers
/// [`run_subscriptions`] (raw XML) and [`run_subscriptions_doc`] (DOM,
/// value predicates supported) wrap this.
pub struct SubscriptionEngine<'a> {
    auto: &'a SharedAutomaton,
    bound: Vec<BoundState>,
    matchers: Vec<Matcher<'a>>,
    frames: Vec<Frame>,
    /// Popped frames kept for reuse, so a start tag allocates nothing
    /// once the stack has been this deep before.
    spare: Vec<Frame>,
    /// Per-state visit stamps for set-dedup without clearing
    /// (`stamp[s] == generation` ⇒ state `s` already in the new set).
    stamp: Vec<u32>,
    stamp_full: Vec<bool>,
    sub_stamp: Vec<u32>,
    generation: u32,
    stats: SubRunStats,
}

impl<'a> SubscriptionEngine<'a> {
    /// Bind `auto` to a stream's label table. Every name the
    /// subscriptions test must already be interned (a table seeded with
    /// them, or a complete document table); labels the stream interns
    /// later can only fire wildcard transitions. Structure-only streams
    /// cannot evaluate value predicates; chain
    /// [`with_text_source`](Self::with_text_source) when a DOM is
    /// available.
    pub fn new(auto: &'a SharedAutomaton, labels: &LabelTable, options: MatchOptions) -> Self {
        let bound = auto
            .states
            .iter()
            .map(|s| {
                let (child, wild_child) = bind(&s.child, labels);
                let (desc, wild_desc) = bind(&s.desc, labels);
                BoundState {
                    child,
                    desc,
                    wild_child,
                    wild_desc,
                    // A named `//` transition whose label the stream
                    // never interns can still never fire, but carrying
                    // the state costs one set entry; keep `carries`
                    // exact against the *bound* transitions.
                    carries: !s.desc.is_empty(),
                    advances: !s.desc.is_empty() || !s.child.is_empty(),
                    accepts: s.accepts.clone(),
                }
            })
            .collect();
        let matchers = auto
            .subs
            .iter()
            .map(|gtp| Matcher::new(gtp, labels, options))
            .collect();
        let state_count = auto.states.len();
        SubscriptionEngine {
            auto,
            bound,
            matchers,
            frames: vec![Frame {
                entries: vec![(0, false)],
                relevant: Vec::new(),
            }],
            spare: Vec::new(),
            stamp: vec![0; state_count],
            stamp_full: vec![false; state_count],
            sub_stamp: vec![0; auto.subs.len()],
            generation: 0,
            stats: SubRunStats {
                elements: 0,
                matcher_feeds: 0,
                states: state_count,
            },
        }
    }

    /// Provide the document as a text source so value predicates can be
    /// resolved during matching (DOM-driven runs only).
    pub fn with_text_source(mut self, doc: &'a Document) -> Self {
        self.matchers = self
            .matchers
            .into_iter()
            .map(|m| m.with_text_source(doc))
            .collect();
        self
    }

    /// An element opened: advance the automaton one level and record
    /// which subscriptions its close event must reach.
    pub fn on_start(&mut self, label: Label) {
        twigobs::bump(twigobs::Counter::SubEvents);
        self.generation += 1;
        let generation = self.generation;
        let Frame {
            mut entries,
            mut relevant,
        } = self.spare.pop().unwrap_or_default();
        entries.clear();
        relevant.clear();
        let top = self.frames.len() - 1;
        // Index-based iteration: `entries`/`relevant` borrow `self`
        // mutably while the top frame is read.
        for ei in 0..self.frames[top].entries.len() {
            let (state, desc_only) = self.frames[top].entries[ei];
            let bs = &self.bound[state as usize];
            if !desc_only {
                for &n in bs.child.get(label.index()).map_or(&[][..], Vec::as_slice) {
                    Self::enter(
                        &self.bound,
                        &mut self.stamp,
                        &mut self.stamp_full,
                        &mut self.sub_stamp,
                        generation,
                        &mut entries,
                        &mut relevant,
                        n,
                    );
                }
                for &n in &bs.wild_child {
                    Self::enter(
                        &self.bound,
                        &mut self.stamp,
                        &mut self.stamp_full,
                        &mut self.sub_stamp,
                        generation,
                        &mut entries,
                        &mut relevant,
                        n,
                    );
                }
            }
            for &n in bs.desc.get(label.index()).map_or(&[][..], Vec::as_slice) {
                Self::enter(
                    &self.bound,
                    &mut self.stamp,
                    &mut self.stamp_full,
                    &mut self.sub_stamp,
                    generation,
                    &mut entries,
                    &mut relevant,
                    n,
                );
            }
            for &n in &bs.wild_desc {
                Self::enter(
                    &self.bound,
                    &mut self.stamp,
                    &mut self.stamp_full,
                    &mut self.sub_stamp,
                    generation,
                    &mut entries,
                    &mut relevant,
                    n,
                );
            }
            if bs.carries && self.stamp[state as usize] != generation {
                // Carry the armed `//` state into the subtree (desc-only:
                // its `/` transitions must not fire below this level).
                self.stamp[state as usize] = generation;
                self.stamp_full[state as usize] = false;
                entries.push((state, true));
            }
        }
        relevant.sort_unstable();
        self.frames.push(Frame { entries, relevant });
    }

    /// Add `state` to the new active set as a *full* entry, collecting
    /// its accepted subscriptions once per element.
    #[allow(clippy::too_many_arguments)] // internal hot-path helper
    fn enter(
        bound: &[BoundState],
        stamp: &mut [u32],
        stamp_full: &mut [bool],
        sub_stamp: &mut [u32],
        generation: u32,
        entries: &mut Vec<(u32, bool)>,
        relevant: &mut Vec<u32>,
        state: u32,
    ) {
        let si = state as usize;
        if stamp[si] == generation {
            if stamp_full[si] {
                return;
            }
            // Upgrade a carried copy to a full entry.
            if let Some(e) = entries.iter_mut().find(|(s, _)| *s == state) {
                e.1 = false;
            }
        } else {
            stamp[si] = generation;
            if bound[si].advances {
                entries.push((state, false));
            }
        }
        stamp_full[si] = true;
        for &sub in &bound[si].accepts {
            if sub_stamp[sub as usize] != generation {
                sub_stamp[sub as usize] = generation;
                relevant.push(sub);
            }
        }
    }

    /// An element closed: deliver it to every subscription the matching
    /// start tag accepted, in registration order.
    pub fn on_end(&mut self, elem: NodeId, label: Label, region: Region) {
        twigobs::bump(twigobs::Counter::SubEvents);
        self.stats.elements += 1;
        let frame = self.frames.pop().expect("end tag without matching start");
        self.stats.matcher_feeds += frame.relevant.len() as u64;
        twigobs::add(
            twigobs::Counter::SubMatcherFeeds,
            frame.relevant.len() as u64,
        );
        for &sub in &frame.relevant {
            self.matchers[sub as usize].on_element_close(elem, label, region);
        }
        self.spare.push(frame);
    }

    /// Finish the stream: enumerate every subscription's results, in
    /// [`SubscriptionId`] order.
    pub fn finish(self) -> (Vec<ResultSet>, SubRunStats) {
        debug_assert_eq!(self.frames.len(), 1, "unbalanced event stream");
        let results = self
            .matchers
            .into_iter()
            .map(|m| {
                let (tm, _) = m.finish();
                enumerate(&tm)
            })
            .collect();
        (results, self.stats)
    }

    /// The queries driving this run (automaton order).
    pub fn queries(&self) -> &'a [Gtp] {
        self.auto.queries()
    }
}

/// Run every subscription over a raw XML string in one pass, without
/// materializing a DOM. Results are in [`SubscriptionId`] order and
/// byte-equal to running each query solo through
/// [`evaluate_streaming`](crate::evaluate_streaming).
///
/// # Panics
/// Panics if any registered query carries a value predicate — a
/// structure-only stream has no element text. Use
/// [`run_subscriptions_doc`] instead.
pub fn run_subscriptions(
    xml: &str,
    auto: &SharedAutomaton,
    options: MatchOptions,
) -> Result<(Vec<ResultSet>, SubRunStats), xmldom::ParseError> {
    match run_subscriptions_impl(xml, auto, options, &CancelToken::never()) {
        Ok(out) => Ok(out),
        Err(SubscribeAbort::Parse(e)) => Err(e),
        Err(SubscribeAbort::Query(_)) => unreachable!("never-token cannot cancel"),
    }
}

/// [`run_subscriptions`] under a cooperative [`CancelToken`], polled at
/// tag granularity. Parse failures surface as
/// [`QueryError::Stream`] (the event source died mid-scan).
pub fn try_run_subscriptions(
    xml: &str,
    auto: &SharedAutomaton,
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<(Vec<ResultSet>, SubRunStats), QueryError> {
    run_subscriptions_impl(xml, auto, options, cancel).map_err(SubscribeAbort::into_query)
}

/// Why a streaming run stopped early: the XML was malformed, or the
/// caller's token fired.
pub(crate) enum SubscribeAbort {
    /// Malformed XML.
    Parse(xmldom::ParseError),
    /// Cancellation or deadline.
    Query(QueryError),
}

impl SubscribeAbort {
    /// Collapse into [`QueryError`]: parse failures become
    /// [`QueryError::Stream`] with the parse message as context.
    pub(crate) fn into_query(self) -> QueryError {
        match self {
            SubscribeAbort::Parse(e) => QueryError::Stream(xmlindex::StreamError::new(
                "xml event stream",
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
            )),
            SubscribeAbort::Query(e) => e,
        }
    }
}

fn run_subscriptions_impl(
    xml: &str,
    auto: &SharedAutomaton,
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<(Vec<ResultSet>, SubRunStats), SubscribeAbort> {
    assert!(
        !auto.has_value_preds(),
        "value predicates need element text, which the structure-only \
         stream drops; use run_subscriptions_doc over a DOM instead"
    );
    // One pass, like `evaluate_streaming`: bind the automaton and the
    // matchers to a table seeded with every subscription's names, then
    // let the event parser intern the document's other names into it.
    let mut labels = LabelTable::new();
    for gtp in auto.queries() {
        for name in gtp.label_names() {
            labels.intern(name);
        }
    }
    let mut engine = SubscriptionEngine::new(auto, &labels, options);
    {
        let _span = twigobs::span(twigobs::Phase::Match);
        let mut events = xmldom::EventParser::with_labels(xml, labels);
        loop {
            cancel.check().map_err(SubscribeAbort::Query)?;
            match events.next_event() {
                Ok(Some(xmldom::Event::Start { label, .. })) => engine.on_start(label),
                Ok(Some(xmldom::Event::End {
                    elem,
                    label,
                    region,
                })) => engine.on_end(elem, label, region),
                Ok(None) => break,
                Err(e) => return Err(SubscribeAbort::Parse(e)),
            }
        }
    }
    Ok(engine.finish())
}

/// Run every subscription over an in-memory [`Document`] in one event
/// walk. Value predicates are supported (the document is the text
/// source). Results are in [`SubscriptionId`] order and equal to
/// [`evaluate`](crate::evaluate) per query.
pub fn run_subscriptions_doc(
    doc: &Document,
    auto: &SharedAutomaton,
    options: MatchOptions,
) -> (Vec<ResultSet>, SubRunStats) {
    let _span = twigobs::span(twigobs::Phase::Match);
    let mut engine = SubscriptionEngine::new(auto, doc.labels(), options).with_text_source(doc);
    for ev in xmldom::DocEvents::new(doc) {
        match ev {
            xmldom::Event::Start { label, .. } => engine.on_start(label),
            xmldom::Event::End {
                elem,
                label,
                region,
            } => engine.on_end(elem, label, region),
        }
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, evaluate_streaming};
    use gtpquery::parse_twig;
    use xmldom::parse;

    fn xml() -> &'static str {
        "<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d></a>"
    }

    #[test]
    fn shared_results_equal_solo_streaming() {
        let queries = [
            "//a/b[c]",
            "//a//b",
            "/a/b",
            "//*[c]",
            "//a!/b[c!]",
            "//a/b[?c@]",
            "//d//c",
        ];
        let auto = SharedAutomaton::build(queries.iter().map(|q| parse_twig(q).unwrap()).collect());
        let (results, stats) = run_subscriptions(xml(), &auto, MatchOptions::default()).unwrap();
        assert_eq!(results.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let gtp = parse_twig(q).unwrap();
            let (solo, _) = evaluate_streaming(xml(), &gtp, MatchOptions::default()).unwrap();
            assert_eq!(results[i], solo, "subscription {q} diverged from solo run");
        }
        // The filter actually filters: a 7-subscription sweep must feed
        // fewer (sub, element) pairs than the 7 * elements a solo
        // per-query sweep would.
        assert!(stats.matcher_feeds < stats.elements * queries.len() as u64);
    }

    #[test]
    fn dom_run_supports_value_predicates() {
        let doc = parse("<lib><book><year>2006</year></book><book><year>1999</year></book></lib>")
            .unwrap();
        let auto = SharedAutomaton::build(vec![
            parse_twig("//book[year='2006']").unwrap(),
            parse_twig("//book/year").unwrap(),
        ]);
        let (results, _) = run_subscriptions_doc(&doc, &auto, MatchOptions::default());
        for (i, gtp) in auto.queries().iter().enumerate() {
            assert_eq!(results[i], evaluate(&doc, gtp), "subscription {i}");
        }
        assert_eq!(results[0].len(), 1);
        assert_eq!(results[1].len(), 2);
    }

    #[test]
    fn prefix_merging_shares_states() {
        let a = SharedAutomaton::build(vec![parse_twig("//a/b/c").unwrap()]);
        let both = SharedAutomaton::build(vec![
            parse_twig("//a/b/c").unwrap(),
            parse_twig("//a/b/d").unwrap(),
        ]);
        // The second query adds exactly one state (the `d` leaf): the
        // `//a/b` prefix is shared.
        assert_eq!(both.state_count(), a.state_count() + 1);
    }

    #[test]
    fn rooted_queries_only_accept_level_one() {
        let auto = SharedAutomaton::build(vec![parse_twig("/b").unwrap()]);
        let (results, _) =
            run_subscriptions("<a><b/></a>", &auto, MatchOptions::default()).unwrap();
        assert!(results[0].is_empty(), "inner b is not the document root");
        let (results, _) =
            run_subscriptions("<b><a/></b>", &auto, MatchOptions::default()).unwrap();
        assert_eq!(results[0].len(), 1);
    }

    #[test]
    fn duplicate_registrations_are_independent() {
        let auto = SharedAutomaton::build(vec![
            parse_twig("//a//c").unwrap(),
            parse_twig("//a//c").unwrap(),
        ]);
        let (results, _) = run_subscriptions(xml(), &auto, MatchOptions::default()).unwrap();
        assert_eq!(results[0], results[1]);
        assert!(!results[0].is_empty());
    }

    #[test]
    fn empty_automaton_runs() {
        let auto = SharedAutomaton::build(Vec::new());
        assert!(auto.is_empty());
        let (results, stats) = run_subscriptions(xml(), &auto, MatchOptions::default()).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.matcher_feeds, 0);
    }

    #[test]
    fn cancellation_cuts_the_stream() {
        let auto = SharedAutomaton::build(vec![parse_twig("//a//b").unwrap()]);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err =
            try_run_subscriptions(xml(), &auto, MatchOptions::default(), &cancel).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled));
    }

    #[test]
    fn malformed_xml_surfaces_as_stream_error() {
        let auto = SharedAutomaton::build(vec![parse_twig("//a").unwrap()]);
        assert!(run_subscriptions("<a><b>", &auto, MatchOptions::default()).is_err());
        let err = try_run_subscriptions(
            "<a><b>",
            &auto,
            MatchOptions::default(),
            &CancelToken::never(),
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Stream(_)));
    }
}
