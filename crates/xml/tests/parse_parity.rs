//! Parse-error goldens: the exact `ParseError { offset, kind }` that both
//! `xmldom::parse` and a drained `EventParser` return on malformed input.
//!
//! The expected values were captured from the allocating scanner the
//! borrowed-slice tokenizer replaced, so the table pins the offsets and
//! messages callers already see. It covers truncation inside every
//! construct, end-tag and attribute syntax errors, bad entities in text,
//! attribute values and text outside the root, and multi-byte UTF-8 next
//! to each delimiter (including offsets that fall inside a character).

use xmldom::{parse, BuildError, EventParser, ParseError, ParseErrorKind};

fn eof(offset: usize) -> ParseError {
    ParseError {
        offset,
        kind: ParseErrorKind::UnexpectedEof,
    }
}

fn malformed(offset: usize, msg: &str) -> ParseError {
    ParseError {
        offset,
        kind: ParseErrorKind::Malformed(msg.to_string()),
    }
}

fn mismatched(offset: usize, expected: &str, found: &str) -> ParseError {
    ParseError {
        offset,
        kind: ParseErrorKind::MismatchedTag {
            expected: expected.to_string(),
            found: found.to_string(),
        },
    }
}

fn entity(offset: usize, name: &str) -> ParseError {
    ParseError {
        offset,
        kind: ParseErrorKind::UnknownEntity(name.to_string()),
    }
}

fn build(offset: usize, e: BuildError) -> ParseError {
    ParseError {
        offset,
        kind: ParseErrorKind::Build(e),
    }
}

/// Drain an event stream; `Ok` carries the event count.
fn drain(xml: &str) -> Result<usize, ParseError> {
    let mut p = EventParser::new(xml);
    let mut n = 0;
    while p.next_event()?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// Inputs both parsers reject with the same error.
fn shared_cases() -> Vec<(&'static str, ParseError)> {
    vec![
        // Truncation inside each construct.
        ("<a><b", eof(5)),
        ("<a><b x", malformed(7, "attribute 'x' missing '='")),
        ("<a x=\"1", eof(7)),
        ("<a x='1", eof(7)),
        ("<a><!-- c", eof(9)),
        ("<a><!-- c -", eof(11)),
        ("<a><![CDATA[x", eof(13)),
        ("<a><![CDATA[x]]", eof(15)),
        ("<a><?pi", eof(7)),
        ("<a><?pi ?", eof(9)),
        ("<a><!DOCTYPE", eof(12)),
        ("<a>é", eof(5)),
        // End tags.
        ("<a></b>", mismatched(7, "a", "b")),
        ("<a><b></a></b>", mismatched(10, "b", "a")),
        ("<a></a", malformed(6, "end tag not terminated by '>'")),
        ("<a></a x>", malformed(8, "end tag not terminated by '>'")),
        // Attribute syntax.
        ("<a x=1/>", malformed(6, "attribute value must be quoted")),
        ("<a x \"1\"/>", malformed(6, "attribute 'x' missing '='")),
        ("<a x=/>", malformed(6, "attribute value must be quoted")),
        ("<a/ >", malformed(4, "expected '>' after '/'")),
        // Entities in text.
        ("<a>&bogus;</a>", entity(10, "bogus")),
        ("<a>&amp</a>", malformed(7, "unterminated entity")),
        ("<a>&#xZZ;</a>", entity(9, "#xZZ")),
        ("<a>&#12a;</a>", entity(9, "#12a")),
        ("<a>&#xD800;</a>", entity(11, "#xD800")),
        ("<a>&;</a>", entity(5, "")),
        // Entities in attribute values: reported at the closing quote.
        ("<a x=\"&bogus;\"/>", entity(13, "bogus")),
        ("<a x=\"&amp\"/>", malformed(10, "unterminated entity")),
        ("<a x=\"&#xZZ;\"/>", entity(12, "#xZZ")),
        // Entities in text outside the root element.
        ("&bogus;<a/>", entity(7, "bogus")),
        ("<a/>&amp", malformed(8, "unterminated entity")),
        ("<a/>&#xZZ;", entity(10, "#xZZ")),
        (
            "<?xml version=\"1.0\"?>&lt<a/>",
            malformed(24, "unterminated entity"),
        ),
        // Multi-byte UTF-8 next to each delimiter.
        ("<é/>", malformed(1, "expected a name")),
        ("<aé/>", malformed(2, "expected a name")),
        ("<a é=\"1\"/>", malformed(3, "expected a name")),
        // The offset lands inside the two-byte 'é'.
        (
            "<a x=é\"1\"/>",
            malformed(6, "attribute value must be quoted"),
        ),
        ("<a x=\"é&bogus;é\"/>", entity(17, "bogus")),
        ("<a>é&#xZZ;é</a>", entity(13, "#xZZ")),
        ("<a>é&é;é</a>", entity(11, "é")),
        ("<a>é</aé>", malformed(9, "end tag not terminated by '>'")),
        ("<a>é</b>é", mismatched(9, "a", "b")),
        ("<a>é<", malformed(6, "expected a name")),
        (
            "<a><![CDATA[é]]>é&amp é</a>é&",
            malformed(26, "unterminated entity"),
        ),
    ]
}

#[test]
fn malformed_inputs_fail_identically_on_both_paths() {
    let cases = shared_cases();
    assert!(cases.len() >= 20);
    for (xml, want) in cases {
        assert_eq!(
            parse(xml).map(|d| d.len()),
            Err(want.clone()),
            "parse {xml:?}"
        );
        assert_eq!(drain(xml), Err(want), "events {xml:?}");
    }
}

#[test]
fn path_specific_errors_are_pinned() {
    // An end tag with nothing open: the two paths word it differently.
    for (xml, offset) in [("</a>", 4), ("<a><b/></a></a>", 15)] {
        assert_eq!(
            parse(xml).map(|d| d.len()),
            Err(malformed(offset, "end tag with no open element")),
            "parse {xml:?}"
        );
        assert_eq!(
            drain(xml),
            Err(malformed(offset, "unmatched end tag")),
            "events {xml:?}"
        );
    }
    // Document-shape errors come from the DOM builder only; the event
    // stream has no single-root rule.
    assert_eq!(
        parse("<a/><b/>").map(|d| d.len()),
        Err(build(8, BuildError::MultipleRoots))
    );
    assert_eq!(drain("<a/><b/>"), Ok(4));
    for xml in ["", "   "] {
        assert_eq!(
            parse(xml).map(|d| d.len()),
            Err(build(xml.len(), BuildError::Unfinished)),
            "parse {xml:?}"
        );
        assert_eq!(drain(xml), Ok(0), "events {xml:?}");
    }
}

#[test]
fn well_formed_edge_cases_parse_on_both_paths() {
    for xml in [
        "<a><!--é-->é<?é?>é</a>é",
        "<a>\t</a>",
        "<a>x</a>tail",
        "<a>&#32;</a>",
    ] {
        assert_eq!(parse(xml).map(|d| d.len()), Ok(1), "parse {xml:?}");
        assert_eq!(drain(xml), Ok(2), "events {xml:?}");
    }
    // A decoded space is still whitespace-only text, so it is dropped.
    let doc = parse("<a>&#32;</a>").unwrap();
    assert_eq!(doc.text(doc.root()), None);
    // Non-whitespace text outside the root is ignored, not kept.
    let doc = parse("<a>x</a>tail").unwrap();
    assert_eq!(doc.text(doc.root()), Some("x"));
}
