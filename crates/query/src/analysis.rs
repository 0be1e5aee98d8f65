//! Static analysis of GTP queries.
//!
//! Computes the properties the matching and enumeration algorithms need:
//!
//! * **existence-checking** nodes (paper §3.5): non-return nodes with no
//!   return node below them — their hierarchical stacks can be truncated to
//!   root-stack tops and never receive result edges;
//! * the **top branch node** (paper §4.4) that triggers early result
//!   enumeration;
//! * the **output schema** (one column per return / group-return node);
//! * validity checks (e.g. footnote 6: a non-return node may have at most
//!   one non-existence-checking child for enumeration to be well-defined);
//! * **summary feasibility** ([`SummaryFeasibility`]): the GTP evaluated
//!   against a document's path summary (strong DataGuide), yielding the
//!   set of label paths each query node can possibly match — the basis
//!   for pruned streams and the zero-read short-circuit of queries no
//!   path of the document can satisfy.

use crate::gtp::{Axis, Gtp, NodeTest, QNodeId, Role};
use xmldom::{Label, LabelTable};
use xmlindex::summary::{RegionCover, SummaryRef, SummarySet};

/// Precomputed per-node facts about a [`Gtp`].
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// `output_below[q]` — does the subtree rooted at `q` (inclusive)
    /// contain a return or group-return node?
    output_below: Vec<bool>,
    /// `existence[q]` — is `q` an existence-checking node?
    existence: Vec<bool>,
    /// Output columns in query pre-order.
    columns: Vec<QNodeId>,
    /// The node whose top-down-stack pops trigger early enumeration.
    top_branch: QNodeId,
    /// Per query node: the OR-groups of its *mandatory* children, as
    /// child-position lists (singletons for plain AND steps). Members of
    /// one group need not be adjacent in the child list.
    mandatory_groups: Vec<Vec<Vec<usize>>>,
    /// Non-fatal issues found during analysis.
    issues: Vec<ValidationIssue>,
    /// Query-side reason document-partitioned parallel evaluation must use
    /// the serial path, if any.
    parallel_fallback: Option<ParallelFallback>,
}

/// Why document-partitioned parallel evaluation of a query must fall back
/// to the serial path (see `twig2stack::parallel`).
///
/// The spine-replay merge makes partitioning sound for rooted queries,
/// root-recursive labels, and wildcards (spine elements are matched
/// serially, after the per-chunk encodings are spliced back in document
/// order), so only query shapes that leave the workers with no useful work
/// are classified here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelFallback {
    /// A rooted single-node query (e.g. `/dblp`): only level-1 elements can
    /// match, and those live on the spine — every chunk worker would be
    /// idle while the serial spine replay does all the matching.
    RootedSingleNode,
}

/// Problems that make a GTP unusual or unsupported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationIssue {
    /// A non-return node has more than one child subtree containing output
    /// nodes. XPath/XQuery cannot produce such GTPs (paper footnote 6) and
    /// result enumeration for them is not defined.
    NonReturnWithMultipleOutputBranches(QNodeId),
    /// The query produces no output columns at all (pure boolean query).
    NoOutputNodes,
    /// An output node sits below an optional edge whose upper node is
    /// *not* an output node — results may contain nulls for it.
    OptionalOutput(QNodeId),
    /// A group-return node has further output nodes below it. Grouping is a
    /// leaf-of-the-output-schema concept (XQuery `LET`/`RETURN` bind flat
    /// sequences); enumeration under such a node is not defined.
    GroupWithOutputBelow(QNodeId),
    /// A member of a multi-step OR-group carries output nodes. Disjunctive
    /// branches are existence checks (AND/OR twigs, paper §3.3.3);
    /// returning from "whichever branch happened to match" is not defined.
    OrBranchWithOutput(QNodeId),
}

impl QueryAnalysis {
    /// Analyze `gtp`.
    pub fn new(gtp: &Gtp) -> Self {
        let n = gtp.len();
        let mut output_below = vec![false; n];
        for q in gtp.postorder() {
            let mut below = gtp.role(q).is_output();
            for &c in gtp.children(q) {
                below |= output_below[c.index()];
            }
            output_below[q.index()] = below;
        }

        let mut existence = vec![false; n];
        for q in gtp.iter() {
            existence[q.index()] = !output_below[q.index()];
        }

        let columns: Vec<QNodeId> = gtp
            .preorder()
            .into_iter()
            .filter(|&q| gtp.role(q).is_output())
            .collect();

        let mut issues = Vec::new();
        if columns.is_empty() {
            issues.push(ValidationIssue::NoOutputNodes);
        }
        for q in gtp.iter() {
            if gtp.role(q) == Role::NonReturn {
                let live = gtp
                    .children(q)
                    .iter()
                    .filter(|&&c| output_below[c.index()])
                    .count();
                if live > 1 {
                    issues.push(ValidationIssue::NonReturnWithMultipleOutputBranches(q));
                }
            }
            if gtp.role(q) == Role::GroupReturn {
                let below = gtp
                    .children(q)
                    .iter()
                    .any(|&c| output_below[c.index()]);
                if below {
                    issues.push(ValidationIssue::GroupWithOutputBelow(q));
                }
            }
            if let Some(e) = gtp.edge(q) {
                if e.optional && output_below[q.index()] {
                    issues.push(ValidationIssue::OptionalOutput(q));
                }
            }
            // Members of multi-step OR-groups must be pure existence checks.
            let kids = gtp.children(q);
            for &c in kids {
                let shared = kids
                    .iter()
                    .any(|&d| d != c && gtp.or_group(d) == gtp.or_group(c));
                if shared && output_below[c.index()] {
                    issues.push(ValidationIssue::OrBranchWithOutput(c));
                }
            }
        }

        // Top branch node: the highest query node with >= 2 children;
        // if the query is a linear path, its deepest node.
        let mut top_branch = None;
        for q in gtp.preorder() {
            if gtp.children(q).len() >= 2 {
                top_branch = Some(q);
                break;
            }
        }
        let top_branch = top_branch.unwrap_or_else(|| {
            let mut q = gtp.root();
            while let Some(&c) = gtp.children(q).first() {
                q = c;
            }
            q
        });

        // Mandatory children grouped by OR-group id (first-occurrence
        // order), as positions into the child list.
        let mandatory_groups = gtp
            .iter()
            .map(|q| {
                let kids = gtp.children(q);
                let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
                for (i, &m) in kids.iter().enumerate() {
                    if gtp.edge(m).expect("child edge").optional {
                        continue;
                    }
                    let gid = gtp.or_group(m);
                    match groups.iter_mut().find(|(g, _)| *g == gid) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((gid, vec![i])),
                    }
                }
                groups.into_iter().map(|(_, m)| m).collect()
            })
            .collect();

        let parallel_fallback = if gtp.is_rooted() && gtp.len() == 1 {
            Some(ParallelFallback::RootedSingleNode)
        } else {
            None
        };

        QueryAnalysis {
            output_below,
            existence,
            columns,
            top_branch,
            mandatory_groups,
            issues,
            parallel_fallback,
        }
    }

    /// The OR-groups of `q`'s mandatory children, as positions into
    /// `gtp.children(q)`. `q` is satisfied when every group has at least
    /// one satisfied member.
    #[inline]
    pub fn mandatory_groups(&self, q: QNodeId) -> &[Vec<usize>] {
        &self.mandatory_groups[q.index()]
    }

    /// Does the subtree rooted at `q` contain any output node?
    #[inline]
    pub fn has_output_below(&self, q: QNodeId) -> bool {
        self.output_below[q.index()]
    }

    /// Is `q` an existence-checking node (paper §3.5)?
    #[inline]
    pub fn is_existence_checking(&self, q: QNodeId) -> bool {
        self.existence[q.index()]
    }

    /// Output columns (return and group-return nodes) in query pre-order.
    pub fn columns(&self) -> &[QNodeId] {
        &self.columns
    }

    /// Position of `q` in the output schema, if it is an output node.
    pub fn column_of(&self, q: QNodeId) -> Option<usize> {
        self.columns.iter().position(|&c| c == q)
    }

    /// The top branch node for early result enumeration (paper §4.4).
    #[inline]
    pub fn top_branch(&self) -> QNodeId {
        self.top_branch
    }

    /// Issues found during analysis. Empty ⇒ the query is fully supported.
    pub fn issues(&self) -> &[ValidationIssue] {
        &self.issues
    }

    /// Query-side reason partitioned parallel evaluation must run serially,
    /// or `None` when chunk workers can contribute.
    #[inline]
    pub fn parallel_fallback(&self) -> Option<ParallelFallback> {
        self.parallel_fallback
    }

    /// True iff result enumeration is well-defined for this query
    /// (no [`ValidationIssue::NonReturnWithMultipleOutputBranches`]).
    pub fn enumerable(&self) -> bool {
        !self.issues.iter().any(|i| {
            matches!(
                i,
                ValidationIssue::NonReturnWithMultipleOutputBranches(_)
                    | ValidationIssue::GroupWithOutputBelow(_)
                    | ValidationIssue::OrBranchWithOutput(_)
            )
        })
    }
}

/// The GTP evaluated against a document's path summary: for every query
/// node, the set of summary ids (label paths) whose elements could
/// participate in *some* complete match.
///
/// The sets are a sound over-approximation: an element whose summary id is
/// outside its query node's set provably cannot appear in (or witness) any
/// result row, so streams may drop it without changing results. An empty
/// set on the root means **no** document element can match the query at
/// all — callers short-circuit to an empty result with zero stream reads.
///
/// Computed in two passes over the (tiny) summary tree:
///
/// 1. **bottom-up**: `up[q]` = paths whose label matches `q`'s test and
///    that can reach, via each mandatory OR-group's axis, some path in
///    some group member's `up` set (optional edges never gate; an OR-group
///    needs one feasible member). A rooted query restricts the root to
///    depth-1 paths.
/// 2. **top-down**: `down[q]` = `up[q]` restricted to paths reachable from
///    the parent's `down` set via `q`'s axis, so infeasible context above
///    a node prunes its stream too.
#[derive(Debug, Clone)]
pub struct SummaryFeasibility {
    /// `down[q]`, indexed by `QNodeId::index()`.
    sets: Vec<SummarySet>,
    satisfiable: bool,
}

impl SummaryFeasibility {
    /// Evaluate `gtp` against `summary`. `labels` is the document's label
    /// table (summary nodes store interned labels).
    pub fn compute(gtp: &Gtp, summary: SummaryRef<'_>, labels: &LabelTable) -> Self {
        let ns = summary.len();
        let nq = gtp.len();
        let mut up: Vec<SummarySet> = vec![SummarySet::empty(ns); nq];

        for q in gtp.postorder() {
            // Candidate paths by node test (and depth for a rooted root).
            let mut set = SummarySet::empty(ns);
            let want: Option<Option<Label>> = match gtp.test(q) {
                NodeTest::Name(n) => Some(labels.get(n)),
                NodeTest::Wildcard => None,
            };
            for (sid, node) in summary.nodes().iter().enumerate() {
                let label_ok = match &want {
                    None => true,
                    Some(Some(l)) => node.label == *l,
                    Some(None) => false, // name absent from the document
                };
                let depth_ok = !(q == gtp.root() && gtp.is_rooted()) || node.depth == 1;
                if label_ok && depth_ok {
                    set.insert(sid as u32);
                }
            }
            // Every mandatory OR-group must have a reachable feasible
            // member; optional children never gate their parent.
            let kids = gtp.children(q);
            let mut groups: Vec<(u32, SummarySet)> = Vec::new();
            for &m in kids {
                let edge = gtp.edge(m).expect("child edge");
                if edge.optional {
                    continue;
                }
                let mut reach = SummarySet::empty(ns);
                for s in up[m.index()].iter() {
                    let mut cur = summary.node(s).parent();
                    while let Some(p) = cur {
                        reach.insert(p);
                        if edge.axis == Axis::Child {
                            break;
                        }
                        cur = summary.node(p).parent();
                    }
                }
                let gid = gtp.or_group(m);
                match groups.iter_mut().find(|(g, _)| *g == gid) {
                    Some((_, g)) => g.union(&reach),
                    None => groups.push((gid, reach)),
                }
            }
            for (_, g) in &groups {
                set.intersect(g);
            }
            up[q.index()] = set;
        }

        let mut down = up;
        for q in gtp.preorder() {
            let Some(parent) = gtp.parent(q) else { continue };
            let axis = gtp.edge(q).expect("child edge").axis;
            let mut reach = SummarySet::empty(ns);
            for s in down[parent.index()].iter() {
                descend(summary, s, axis, &mut reach);
            }
            down[q.index()].intersect(&reach);
        }

        let satisfiable = !down[gtp.root().index()].is_empty();
        SummaryFeasibility { sets: down, satisfiable }
    }

    /// The feasible summary-id set of `q`.
    #[inline]
    pub fn feasible(&self, q: QNodeId) -> &SummarySet {
        &self.sets[q.index()]
    }

    /// True iff no document element can match the query: callers must
    /// return an empty result without reading any stream.
    #[inline]
    pub fn is_unsatisfiable(&self) -> bool {
        !self.satisfiable
    }

    /// Cover of every document region that could contain a match: the
    /// merged region hulls of the root node's feasible paths. Built from
    /// the summary alone — no element is read.
    pub fn root_cover(&self, gtp: &Gtp, summary: SummaryRef<'_>) -> RegionCover {
        let spans = self
            .feasible(gtp.root())
            .iter()
            .map(|sid| {
                let n = summary.node(sid);
                (n.min_left, n.max_right)
            })
            .collect();
        RegionCover::from_spans(spans)
    }
}

/// Insert the summary children (or all proper descendants) of `s`.
fn descend(summary: SummaryRef<'_>, s: u32, axis: Axis, out: &mut SummarySet) {
    for &c in summary.children(s) {
        out.insert(c);
        if axis == Axis::Descendant {
            descend(summary, c, axis, out);
        }
    }
}

/// Label-indexed dispatch table: for each document label, the query nodes an
/// element with that label can match. Shared by all matchers.
#[derive(Debug, Clone)]
pub struct LabelDispatch {
    /// Indexed by `Label::index()`; each entry lists matching query nodes.
    by_label: Vec<Vec<QNodeId>>,
    /// The wildcard nodes, for labels interned after compilation: every
    /// named test's name was already in the table, so such a label can
    /// match only `*` nodes.
    wildcards: Vec<QNodeId>,
}

impl LabelDispatch {
    /// Compile the dispatch table of `gtp` against a document's `labels`.
    ///
    /// Named query nodes map to exactly the label with the same name (if the
    /// table has it); wildcard nodes map to every label, including labels
    /// the table interns later. A streaming driver can therefore compile
    /// against a table seeded with the query's names and keep interning
    /// the document's other names into it while it matches.
    pub fn compile(gtp: &Gtp, labels: &LabelTable) -> Self {
        let mut by_label: Vec<Vec<QNodeId>> = vec![Vec::new(); labels.len()];
        let mut wildcards = Vec::new();
        for q in gtp.iter() {
            match gtp.test(q) {
                NodeTest::Name(n) => {
                    if let Some(l) = labels.get(n) {
                        by_label[l.index()].push(q);
                    }
                }
                NodeTest::Wildcard => {
                    for entry in by_label.iter_mut() {
                        entry.push(q);
                    }
                    wildcards.push(q);
                }
            }
        }
        LabelDispatch { by_label, wildcards }
    }

    /// Query nodes an element labelled `label` can match.
    #[inline]
    pub fn query_nodes(&self, label: Label) -> &[QNodeId] {
        self.by_label
            .get(label.index())
            .map_or(&self.wildcards, Vec::as_slice)
    }

    /// True iff no query node matches any label, interned now or later
    /// (the query can produce no results on this document).
    pub fn is_vacuous(&self) -> bool {
        self.wildcards.is_empty() && self.by_label.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtp::{Axis, GtpBuilder};
    use crate::parse::parse_twig;
    use xmlindex::summary::PathSummary;

    #[test]
    fn existence_checking_matches_paper_figure8() {
        // //A/B[//D][/C], B the only return node: C and D are
        // existence-checking; A is NOT (it bridges to B).
        let g = parse_twig("//a!/b[//d!][c!]").unwrap();
        let an = QueryAnalysis::new(&g);
        let a = g.root();
        let b = g.find("b").unwrap();
        let c = g.find("c").unwrap();
        let d = g.find("d").unwrap();
        assert!(!an.is_existence_checking(a));
        assert!(!an.is_existence_checking(b));
        assert!(an.is_existence_checking(c));
        assert!(an.is_existence_checking(d));
        assert_eq!(an.columns(), &[b]);
        assert!(an.enumerable());
    }

    #[test]
    fn columns_in_preorder() {
        let g = parse_twig("//a/b[//d][c]").unwrap(); // all return
        let an = QueryAnalysis::new(&g);
        assert_eq!(an.columns().len(), 4);
        assert_eq!(an.columns()[0], g.root());
        assert_eq!(an.column_of(g.find("d").unwrap()), Some(2));
    }

    #[test]
    fn top_branch_of_branching_query() {
        let g = parse_twig("//dblp/inproceedings[title]/author").unwrap();
        let an = QueryAnalysis::new(&g);
        assert_eq!(an.top_branch(), g.find("inproceedings").unwrap());
    }

    #[test]
    fn top_branch_of_linear_query_is_leaf() {
        let g = parse_twig("//a/b//d").unwrap();
        let an = QueryAnalysis::new(&g);
        assert_eq!(an.top_branch(), g.find("d").unwrap());
    }

    #[test]
    fn non_return_with_two_output_branches_flagged() {
        // a is non-return but both children return: not XPath-producible.
        let mut b = GtpBuilder::new("a", false);
        let a = b.root();
        b.role(a, Role::NonReturn);
        b.child(a, "x", Axis::Child);
        b.child(a, "y", Axis::Child);
        let g = b.build();
        let an = QueryAnalysis::new(&g);
        assert!(!an.enumerable());
        assert!(an
            .issues()
            .contains(&ValidationIssue::NonReturnWithMultipleOutputBranches(a)));
    }

    #[test]
    fn boolean_query_flagged() {
        let g = parse_twig("//a!/b!").unwrap();
        let an = QueryAnalysis::new(&g);
        assert!(an.issues().contains(&ValidationIssue::NoOutputNodes));
        assert!(an.is_existence_checking(g.root()));
    }

    #[test]
    fn optional_output_flagged() {
        let g = parse_twig("//a!/b[.//?c@]").unwrap();
        let an = QueryAnalysis::new(&g);
        let c = g.find("c").unwrap();
        assert!(an.issues().contains(&ValidationIssue::OptionalOutput(c)));
        assert!(an.enumerable()); // supported, just produces nulls/empty groups
    }

    #[test]
    fn parallel_fallback_classification() {
        let rooted_single = parse_twig("/dblp").unwrap();
        assert_eq!(
            QueryAnalysis::new(&rooted_single).parallel_fallback(),
            Some(ParallelFallback::RootedSingleNode)
        );
        // Unrooted single-node and rooted multi-node queries keep workers
        // busy (chunk elements can match some query node).
        for q in ["//dblp", "/site/open_auctions[.//bidder]//reserve", "//a/b"] {
            let g = parse_twig(q).unwrap();
            assert_eq!(QueryAnalysis::new(&g).parallel_fallback(), None, "{q}");
        }
    }

    #[test]
    fn label_dispatch() {
        let mut labels = LabelTable::new();
        let la = labels.intern("a");
        let lb = labels.intern("b");
        let lz = labels.intern("z");
        let g = parse_twig("//a/b[//a]").unwrap();
        let d = LabelDispatch::compile(&g, &labels);
        assert_eq!(d.query_nodes(la).len(), 2); // root a + predicate a
        assert_eq!(d.query_nodes(lb).len(), 1);
        assert!(d.query_nodes(lz).is_empty());
        assert!(!d.is_vacuous());
    }

    #[test]
    fn wildcard_dispatch_matches_all_labels() {
        let mut labels = LabelTable::new();
        let la = labels.intern("a");
        let lx = labels.intern("x");
        let g = parse_twig("//a/*").unwrap();
        let d = LabelDispatch::compile(&g, &labels);
        assert_eq!(d.query_nodes(la).len(), 2); // 'a' node + wildcard
        assert_eq!(d.query_nodes(lx).len(), 1); // wildcard only
    }

    #[test]
    fn labels_interned_after_compile_fall_back_to_wildcards() {
        // Seed the table with the query's names, compile, then intern the
        // document's other names: they reach the `*` nodes, and only them.
        let g = parse_twig("//a/*[b]//*").unwrap();
        let mut labels = LabelTable::new();
        for n in g.label_names() {
            labels.intern(n);
        }
        let d = LabelDispatch::compile(&g, &labels);
        let late = labels.intern("zz");
        let stars: Vec<QNodeId> = g
            .iter()
            .filter(|&q| matches!(g.test(q), NodeTest::Wildcard))
            .collect();
        assert_eq!(stars.len(), 2);
        assert_eq!(d.query_nodes(late), stars.as_slice());
        // A seeded label still gets its named node plus the wildcards, in
        // query-node order, exactly as a compile over the full table.
        let la = labels.get("a").unwrap();
        assert_eq!(d.query_nodes(la), LabelDispatch::compile(&g, &labels).query_nodes(la));
        assert_eq!(d.query_nodes(la).len(), 3);
    }

    #[test]
    fn named_only_queries_have_no_fallback() {
        let g = parse_twig("//a/b").unwrap();
        let mut labels = LabelTable::new();
        labels.intern("a");
        labels.intern("b");
        let d = LabelDispatch::compile(&g, &labels);
        assert!(d.query_nodes(labels.intern("c")).is_empty());
    }

    #[test]
    fn wildcard_dispatch_is_never_vacuous() {
        // An empty table now, but any label interned later matches `*`.
        let d = LabelDispatch::compile(&parse_twig("//*").unwrap(), &LabelTable::new());
        assert!(!d.is_vacuous());
        assert_eq!(d.query_nodes(Label::from_index(7)).len(), 1);
    }

    #[test]
    fn vacuous_dispatch() {
        let mut labels = LabelTable::new();
        labels.intern("x");
        let g = parse_twig("//a/b").unwrap();
        let d = LabelDispatch::compile(&g, &labels);
        assert!(d.is_vacuous());
    }

    fn feas(xml: &str, query: &str) -> (xmldom::Document, Gtp, PathSummary, SummaryFeasibility) {
        let doc = xmldom::parse(xml).unwrap();
        let gtp = parse_twig(query).unwrap();
        let summary = PathSummary::build(&doc);
        let f = SummaryFeasibility::compute(&gtp, summary.view(), doc.labels());
        (doc, gtp, summary, f)
    }

    #[test]
    fn feasibility_separates_paths_with_same_label() {
        // b occurs under a and under x; //a/b must keep only /a/b.
        let (doc, gtp, summary, f) = feas("<r><a><b/></a><x><b/></x></r>", "//a/b");
        assert!(!f.is_unsatisfiable());
        let b = gtp.find("b").unwrap();
        let set = f.feasible(b);
        assert_eq!(set.len(), 1);
        let good = summary.sid(xmldom::NodeId::from_index(2)); // the b under a
        assert!(set.contains(good));
        assert_eq!(set.element_count(summary.view()), 1);
        drop(doc);
    }

    #[test]
    fn child_chain_can_be_unsatisfiable_where_descendant_is_not() {
        let (_, _, _, f) = feas("<a><b><c/></b></a>", "//a/c");
        assert!(f.is_unsatisfiable(), "c is never a direct child of a");
        let (_, _, _, f) = feas("<a><b><c/></b></a>", "//a//c");
        assert!(!f.is_unsatisfiable());
    }

    #[test]
    fn rooted_query_restricted_to_depth_one() {
        let (_, _, _, f) = feas("<a><b/></a>", "/b");
        assert!(f.is_unsatisfiable(), "b is not the document root");
        let (_, _, _, f) = feas("<a><b/></a>", "//b");
        assert!(!f.is_unsatisfiable());
    }

    #[test]
    fn optional_edge_never_gates() {
        let (_, gtp, _, f) = feas("<a><b/></a>", "//a[?z@]");
        assert!(!f.is_unsatisfiable());
        assert!(f.feasible(gtp.find("z").unwrap()).is_empty());
    }

    #[test]
    fn or_group_needs_one_feasible_member() {
        let build = |names: [&str; 2]| {
            let mut b = GtpBuilder::new("a", false);
            let root = b.root();
            let m1 = b.child(root, names[0], Axis::Child);
            let m2 = b.child(root, names[1], Axis::Child);
            b.role(m1, Role::NonReturn);
            b.role(m2, Role::NonReturn);
            b.same_or_group(&[m1, m2]);
            b.build()
        };
        let doc = xmldom::parse("<a><b/></a>").unwrap();
        let summary = PathSummary::build(&doc);
        let ok = SummaryFeasibility::compute(&build(["b", "z"]), summary.view(), doc.labels());
        assert!(!ok.is_unsatisfiable(), "one OR branch is enough");
        let bad = SummaryFeasibility::compute(&build(["y", "z"]), summary.view(), doc.labels());
        assert!(bad.is_unsatisfiable(), "no OR branch is feasible");
    }

    #[test]
    fn top_down_restriction_prunes_contextless_paths() {
        // c occurs under b (inside a) and under x; //a//b[c] must not keep
        // the /x/c path even though some c is below some b elsewhere.
        let (_, gtp, summary, f) =
            feas("<r><a><b><c/></b></a><x><c/></x></r>", "//a//b[c]");
        let c = gtp.find("c").unwrap();
        assert_eq!(f.feasible(c).len(), 1);
        assert_eq!(f.feasible(c).element_count(summary.view()), 1);
    }

    #[test]
    fn wildcard_feasibility_and_recursion() {
        let (_, gtp, summary, f) = feas("<s><s><np/></s></s>", "//s/*");
        assert!(!f.is_unsatisfiable());
        let star = gtp.children(gtp.root())[0];
        // The wildcard under s can be the inner s or either np path.
        assert!(f.feasible(star).len() >= 2);
        let (_, gtp2, _, f2) = feas("<s><s><np/></s></s>", "//s/s");
        assert!(!f2.is_unsatisfiable());
        assert_eq!(f2.feasible(gtp2.children(gtp2.root())[0]).len(), 1);
        drop(summary);
    }

    #[test]
    fn root_cover_spans_candidate_regions() {
        let (doc, gtp, summary, f) = feas("<r><a><b/></a><x/><a><b/></a></r>", "//a/b");
        let cover = f.root_cover(&gtp, summary.view());
        assert_eq!(cover.spans().len(), 1, "both a's share one summary path hull");
        let (l, r) = cover.spans()[0];
        let first_a = doc.region(xmldom::NodeId::from_index(1));
        assert_eq!(l, first_a.left);
        assert!(r >= first_a.right);
    }
}
