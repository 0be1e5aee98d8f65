//! XML serialization — the inverse of [`crate::parser::parse`].

use crate::document::{Document, NodeId};
use std::fmt::Write as _;

/// Serialization style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Indent {
    /// Everything on one line, no inter-element whitespace.
    None,
    /// Newline per element, indented by this many spaces per level.
    Spaces(usize),
}

/// Serialize `doc` to an XML string.
///
/// Round-trips with [`crate::parser::parse`] for documents whose text
/// contains no leading/trailing whitespace runs (the parser drops
/// whitespace-only text). Iterative: documents of any depth the parser
/// accepts serialize without touching the call stack.
pub fn write(doc: &Document, indent: Indent) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    // Elements whose end tag is still due, innermost last.
    let mut open: Vec<NodeId> = Vec::new();
    let mut next = Some(doc.root());
    while let Some(node) = next {
        let depth = open.len();
        if depth > 0 {
            line_break(indent, depth, &mut out);
        }
        let name = doc.tag_name(node);
        out.push('<');
        out.push_str(name);
        for (k, v) in doc.attributes(node) {
            let _ = write!(out, " {}=\"{}\"", k, escape_attr(v));
        }
        let text = doc.text(node);
        let first_child = doc.first_child(node);
        if text.is_none() && first_child.is_none() {
            out.push_str("/>");
        } else {
            out.push('>');
            if let Some(t) = text {
                out.push_str(&escape_text(t));
            }
            if first_child.is_some() {
                open.push(node);
                next = first_child;
                continue;
            }
            end_tag(name, &mut out);
        }
        // `node` is complete: move to its next sibling, closing every
        // ancestor that has none left.
        next = doc.next_sibling(node);
        while next.is_none() {
            let Some(parent) = open.pop() else { break };
            line_break(indent, open.len(), &mut out);
            end_tag(doc.tag_name(parent), &mut out);
            next = doc.next_sibling(parent);
        }
    }
    out
}

/// Start a new line indented by `depth` levels (nothing under
/// [`Indent::None`]).
fn line_break(indent: Indent, depth: usize, out: &mut String) {
    if let Indent::Spaces(n) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', depth * n));
    }
}

fn end_tag(name: &str, out: &mut String) {
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Escape character data.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value (double-quote context).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentBuilder;
    use crate::parser::parse;

    #[test]
    fn writes_compact() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(write(&doc, Indent::None), "<a><b><c/></b><b/></a>");
    }

    #[test]
    fn round_trip_with_attrs_and_text() {
        let src = r#"<book year="2006"><title>T &amp; S</title><author>x</author></book>"#;
        let doc = parse(src).unwrap();
        let emitted = write(&doc, Indent::None);
        let doc2 = parse(&emitted).unwrap();
        assert_eq!(doc2.len(), doc.len());
        assert_eq!(doc2.attribute(doc2.root(), "year"), Some("2006"));
        let title = doc2.first_child(doc2.root()).unwrap();
        assert_eq!(doc2.text(title), Some("T & S"));
    }

    #[test]
    fn indented_output_parses_back() {
        let mut b = DocumentBuilder::new();
        b.element("a", |b| {
            b.element("b", |b| b.leaf("c", "hi"))?;
            b.leaf("d", "")
        })
        .unwrap();
        let doc = b.finish().unwrap();
        let pretty = write(&doc, Indent::Spaces(2));
        assert!(pretty.contains('\n'));
        let doc2 = parse(&pretty).unwrap();
        assert_eq!(doc2.len(), 4);
    }

    #[test]
    fn deep_documents_round_trip() {
        let depth = 200_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = parse(&src).unwrap();
        assert_eq!(doc.len(), depth);
        let emitted = write(&doc, Indent::None);
        assert_eq!(emitted.len(), src.len() - 3, "the innermost element is empty: <a/>");
        let doc2 = parse(&emitted).unwrap();
        assert_eq!(doc2.len(), depth);
        assert_eq!(doc2.depth_stats().0, doc.depth_stats().0);
    }

    #[test]
    fn attr_escaping() {
        let mut b = DocumentBuilder::new();
        b.start_element("a").unwrap();
        b.attr("v", "a\"b<c&d").unwrap();
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        let s = write(&doc, Indent::None);
        assert_eq!(s, r#"<a v="a&quot;b&lt;c&amp;d"/>"#);
        let doc2 = parse(&s).unwrap();
        assert_eq!(doc2.attribute(doc2.root(), "v"), Some("a\"b<c&d"));
    }
}
