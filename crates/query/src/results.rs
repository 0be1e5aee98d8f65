//! Query result representation.
//!
//! GTP results are tuples (paper §4.3): one column per return node in query
//! pre-order. A plain return column holds a single element (or null below
//! an unmatched optional edge); a group-return column holds the document-
//! ordered list of all matches grouped under their common ancestor match.

use crate::gtp::QNodeId;
use std::cmp::Ordering;
use std::fmt;
use xmldom::NodeId;

/// One column value in a result row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A single matching element.
    Node(NodeId),
    /// No match (the column sits below an unmatched optional edge).
    Null,
    /// A grouped list of matches, in document order (possibly empty).
    Group(Vec<NodeId>),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Node(n) => write!(f, "{n}"),
            Cell::Null => f.write_str("-"),
            Cell::Group(g) => {
                f.write_str("{")?;
                for (i, n) in g.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{n}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A set of result rows with a fixed column schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResultSet {
    /// The return / group-return query nodes, in query pre-order.
    pub columns: Vec<QNodeId>,
    /// Result tuples; every row has `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl ResultSet {
    /// An empty result set with the given schema.
    pub fn new(columns: Vec<QNodeId>) -> Self {
        ResultSet { columns, rows: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row. Debug-asserts the arity matches.
    pub fn push(&mut self, row: Vec<Cell>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }

    /// A canonical, order-insensitive form for set comparison in tests:
    /// rows sorted lexicographically.
    pub fn sorted(mut self) -> Self {
        self.rows.sort_by(|a, b| cmp_rows(a, b));
        self
    }

    /// True iff the rows contain no duplicates.
    pub fn is_duplicate_free(&self) -> bool {
        let mut sorted: Vec<&Vec<Cell>> = self.rows.iter().collect();
        sorted.sort_by(|a, b| cmp_rows(a, b));
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// Total number of element references across all cells (a size measure
    /// used by experiments).
    pub fn element_refs(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|c| match c {
                Cell::Node(_) => 1,
                Cell::Null => 0,
                Cell::Group(g) => g.len(),
            })
            .sum()
    }
}

/// The canonical row order: lexicographic over cells, then by length.
/// Cells order `Null < Node < Group`; nodes by id (document order), groups
/// lexicographically by their member ids. Allocation-free. Twig²Stack's
/// enumeration emits rows in this order, which is what lets the
/// subscription layer diff two match sets by one merge.
pub fn cmp_rows(a: &[Cell], b: &[Cell]) -> Ordering {
    cmp_rows_by(a, b, |n| n)
}

/// [`cmp_rows`] of `a` with every node id read through `key` (e.g.
/// carried across an edit into `b`'s snapshot) against `b`, without
/// building the mapped row.
pub fn cmp_rows_by(a: &[Cell], b: &[Cell], key: impl Fn(NodeId) -> NodeId) -> Ordering {
    fn rank(c: &Cell) -> u8 {
        match c {
            Cell::Null => 0,
            Cell::Node(_) => 1,
            Cell::Group(_) => 2,
        }
    }
    for (x, y) in a.iter().zip(b) {
        let ord = match (x, y) {
            (Cell::Node(p), Cell::Node(q)) => key(*p).cmp(q),
            (Cell::Group(p), Cell::Group(q)) => p.iter().map(|&n| key(n)).cmp(q.iter().copied()),
            _ => rank(x).cmp(&rank(y)),
        };
        if ord.is_ne() {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn push_and_len() {
        let mut rs = ResultSet::new(vec![QNodeId(0), QNodeId(1)]);
        assert!(rs.is_empty());
        rs.push(vec![Cell::Node(n(1)), Cell::Null]);
        rs.push(vec![Cell::Node(n(2)), Cell::Group(vec![n(3), n(4)])]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.element_refs(), 4);
    }

    #[test]
    fn sorted_is_canonical() {
        let mut a = ResultSet::new(vec![QNodeId(0)]);
        a.push(vec![Cell::Node(n(2))]);
        a.push(vec![Cell::Node(n(1))]);
        let mut b = ResultSet::new(vec![QNodeId(0)]);
        b.push(vec![Cell::Node(n(1))]);
        b.push(vec![Cell::Node(n(2))]);
        assert_ne!(a, b);
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn row_order_is_null_node_group_then_length() {
        let rows = [
            vec![Cell::Null],
            vec![Cell::Null, Cell::Node(n(0))],
            vec![Cell::Node(n(1))],
            vec![Cell::Node(n(2))],
            vec![Cell::Group(vec![])],
            vec![Cell::Group(vec![n(1)])],
            vec![Cell::Group(vec![n(1), n(0)])],
            vec![Cell::Group(vec![n(2)])],
        ];
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                assert_eq!(cmp_rows(a, b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
        let shifted = |id: NodeId| NodeId::from_index(id.index() + 1);
        assert_eq!(
            cmp_rows_by(
                &[Cell::Group(vec![n(1), n(2)])],
                &[Cell::Group(vec![n(2), n(3)])],
                shifted
            ),
            Ordering::Equal
        );
    }

    #[test]
    fn duplicate_detection() {
        let mut rs = ResultSet::new(vec![QNodeId(0)]);
        rs.push(vec![Cell::Node(n(1))]);
        rs.push(vec![Cell::Node(n(1))]);
        assert!(!rs.is_duplicate_free());
        let mut rs2 = ResultSet::new(vec![QNodeId(0)]);
        rs2.push(vec![Cell::Node(n(1))]);
        rs2.push(vec![Cell::Node(n(2))]);
        assert!(rs2.is_duplicate_free());
    }

    #[test]
    fn display_forms() {
        let mut rs = ResultSet::new(vec![QNodeId(0), QNodeId(1)]);
        rs.push(vec![Cell::Node(n(1)), Cell::Group(vec![n(2), n(3)])]);
        rs.push(vec![Cell::Null, Cell::Group(vec![])]);
        let s = rs.to_string();
        assert!(s.contains("n1 | {n2,n3}"));
        assert!(s.contains("- | {}"));
    }
}
