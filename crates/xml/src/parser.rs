//! A from-scratch, dependency-free XML parser.
//!
//! Supports the subset of XML needed for the datasets in this workspace:
//! elements, attributes (single or double quoted), character data, CDATA
//! sections, comments, processing instructions, an XML declaration, a
//! DOCTYPE (skipped, without internal subset), and the five predefined
//! entities plus decimal/hex character references.
//!
//! One iterative, borrowed-slice tokenizer (`Scanner`) feeds both the
//! DOM builder ([`parse`]) and the SAX event path
//! ([`crate::event::EventParser`]). Its tokens are `&str` slices of the
//! input: names, raw character data, CDATA, and raw attribute values in
//! one reusable buffer. Character data and quoted values are found with a
//! word-at-a-time byte search. Entities are decoded only where a value is
//! kept (`decode_entities` copies only when the text holds a reference);
//! the structure-only event path validates them in place
//! (`check_entities`) and allocates nothing per token.

use crate::document::{BuildError, Document, DocumentBuilder};
use std::borrow::Cow;
use std::fmt;

/// Position-annotated parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// Categories of XML syntax errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A tag or construct was malformed; message describes it.
    Malformed(String),
    /// `</b>` closed `<a>`.
    MismatchedTag {
        /// Name of the element that was open.
        expected: String,
        /// Name in the offending end tag.
        found: String,
    },
    /// Structural error from the document builder.
    Build(BuildError),
    /// An unknown `&entity;`.
    UnknownEntity(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: ", self.offset)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseErrorKind::Malformed(m) => write!(f, "malformed construct: {m}"),
            ParseErrorKind::MismatchedTag { expected, found } => {
                write!(f, "mismatched end tag: expected </{expected}>, found </{found}>")
            }
            ParseErrorKind::Build(e) => write!(f, "document structure error: {e}"),
            ParseErrorKind::UnknownEntity(e) => write!(f, "unknown entity &{e};"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete XML document into a [`Document`].
///
/// The whole parse is timed as an observability span
/// ([`twigobs::Phase::Parse`]) — a no-op unless the workspace is built
/// with the `obs` feature.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let _span = twigobs::span(twigobs::Phase::Parse);
    let mut builder = DocumentBuilder::new();
    let mut open: Vec<&str> = Vec::new();
    let mut scanner = Scanner::new(input);
    while let Some(tok) = scanner.next_token()? {
        let at = scanner.pos;
        let build_err = |e| ParseError { offset: at, kind: ParseErrorKind::Build(e) };
        match tok {
            Token::StartTag { name, self_closing } => {
                builder.start_element(name).map_err(build_err)?;
                for &(k, v) in scanner.attrs() {
                    // The scanner already validated the value's entities.
                    builder.attr(k, &decode_entities(v, at)?).map_err(build_err)?;
                }
                if self_closing {
                    builder.end_element().map_err(build_err)?;
                } else {
                    open.push(name);
                }
            }
            Token::EndTag { name } => {
                let expected = open.pop().ok_or_else(|| ParseError {
                    offset: at,
                    kind: ParseErrorKind::Malformed("end tag with no open element".into()),
                })?;
                if expected != name {
                    return Err(ParseError {
                        offset: at,
                        kind: ParseErrorKind::MismatchedTag {
                            expected: expected.to_string(),
                            found: name.to_string(),
                        },
                    });
                }
                builder.end_element().map_err(build_err)?;
            }
            // Text outside the root is dropped, but its entities must
            // still be valid. Inside an element, decode before the
            // whitespace test so a `&#32;` run is dropped too.
            Token::Text(t) if open.is_empty() => check_entities(t, at)?,
            Token::Text(t) => {
                let t = decode_entities(t, at)?;
                if !t.trim().is_empty() {
                    builder.text(&t).map_err(build_err)?;
                }
            }
            Token::Cdata(t) => {
                if !open.is_empty() && !t.trim().is_empty() {
                    builder.text(t).map_err(build_err)?;
                }
            }
        }
    }
    if !open.is_empty() {
        return Err(ParseError {
            offset: scanner.pos,
            kind: ParseErrorKind::UnexpectedEof,
        });
    }
    builder.finish().map_err(|e| ParseError {
        offset: input.len(),
        kind: ParseErrorKind::Build(e),
    })
}

/// One markup token produced by the [`Scanner`], borrowed from its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token<'a> {
    /// A start tag; its raw attributes are in [`Scanner::attrs`] until
    /// the next token.
    StartTag { name: &'a str, self_closing: bool },
    EndTag { name: &'a str },
    /// Character data, entity references not yet decoded.
    Text(&'a str),
    /// A CDATA section's content, verbatim (never entity-decoded).
    Cdata(&'a str),
}

/// Low-level tokenizer shared by the DOM parser and the event parser.
///
/// Every slice it hands out starts and ends at an ASCII delimiter (or the
/// input's ends), so slicing the `&str` input never splits a character.
pub(crate) struct Scanner<'a> {
    src: &'a str,
    input: &'a [u8],
    pub(crate) pos: usize,
    /// The last start tag's `(name, raw value)` pairs, reused per tag.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Scanner { src, input: src.as_bytes(), pos: 0, attrs: Vec::new() }
    }

    /// Attributes of the last [`Token::StartTag`], values raw (entities
    /// already checked, not decoded).
    pub(crate) fn attrs(&self) -> &[(&'a str, &'a str)] {
        &self.attrs
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { offset: self.pos, kind }
    }

    fn malformed(&self, msg: impl Into<String>) -> ParseError {
        self.err(ParseErrorKind::Malformed(msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Move past the first occurrence of `pat` at or after `pos`; at end
    /// of input without one, `pos` is the input length.
    fn skip_until(&mut self, pat: &[u8]) -> Result<(), ParseError> {
        let mut at = self.pos;
        loop {
            at = find_byte(self.input, at, pat[0]);
            if at == self.input.len() {
                self.pos = at;
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
            if self.input[at..].starts_with(pat) {
                self.pos = at + pat.len();
                return Ok(());
            }
            at += 1;
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        // ASCII only, so a name never ends inside a multi-byte character.
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.malformed("expected a name"));
        }
        Ok(&self.src[start..self.pos])
    }

    /// Next markup/text token, or `None` at end of input.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        loop {
            let Some(b) = self.peek() else {
                return Ok(None);
            };
            if b != b'<' {
                // Character data run, up to the next '<'.
                let start = self.pos;
                self.pos = find_byte(self.input, start, b'<');
                return Ok(Some(Token::Text(&self.src[start..self.pos])));
            }
            let rest = &self.input[self.pos..];
            match rest.get(1) {
                Some(b'/') => {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'>') {
                        return Err(self.malformed("end tag not terminated by '>'"));
                    }
                    return Ok(Some(Token::EndTag { name }));
                }
                Some(b'!') if rest.starts_with(b"<!--") => {
                    self.pos += 4;
                    self.skip_until(b"-->")?;
                }
                Some(b'!') if rest.starts_with(b"<![CDATA[") => {
                    self.pos += 9;
                    let start = self.pos;
                    self.skip_until(b"]]>")?;
                    return Ok(Some(Token::Cdata(&self.src[start..self.pos - 3])));
                }
                Some(b'!') if rest.starts_with(b"<!DOCTYPE") || rest.starts_with(b"<!doctype") => {
                    // Skip to the matching '>' (no internal-subset support).
                    self.pos += 9;
                    self.skip_until(b">")?;
                }
                Some(b'?') => {
                    self.pos += 2;
                    self.skip_until(b"?>")?;
                }
                // Anything else, including other `<!` forms, is read as a
                // start tag (and those fail on the missing name).
                _ => return self.start_tag().map(Some),
            }
        }
    }

    /// An ordinary start tag, `pos` at its '<'.
    fn start_tag(&mut self) -> Result<Token<'a>, ParseError> {
        self.pos += 1;
        let name = self.read_name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Token::StartTag { name, self_closing: false });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bump() != Some(b'>') {
                        return Err(self.malformed("expected '>' after '/'"));
                    }
                    return Ok(Token::StartTag { name, self_closing: true });
                }
                Some(_) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return Err(self.malformed(format!("attribute '{aname}' missing '='")));
                    }
                    self.skip_ws();
                    let quote = self.bump().ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.malformed("attribute value must be quoted"));
                    }
                    let start = self.pos;
                    self.pos = find_byte(self.input, start, quote);
                    if self.pos == self.input.len() {
                        return Err(self.err(ParseErrorKind::UnexpectedEof));
                    }
                    let raw = &self.src[start..self.pos];
                    check_entities(raw, self.pos)?;
                    self.pos += 1; // closing quote
                    self.attrs.push((aname, raw));
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }
    }
}

/// Index of the first `needle` in `hay` at or after `from`, or
/// `hay.len()` if there is none. Compares eight bytes per step: a byte of
/// `word ^ needle×8` is zero exactly where the needle sits, and the
/// lowest set bit of the classic has-zero-byte mask marks the first such
/// byte (carries only corrupt bits above it).
#[inline]
fn find_byte(hay: &[u8], from: usize, needle: u8) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pattern = LO * needle as u64;
    let mut chunks = hay[from..].chunks_exact(8);
    let mut at = from;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ pattern;
        let zero = word.wrapping_sub(LO) & !word & HI;
        if zero != 0 {
            return at + (zero.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    match chunks.remainder().iter().position(|&b| b == needle) {
        Some(i) => at + i,
        None => hay.len(),
    }
}

/// Replace the predefined entities and character references in `s`.
/// Borrows `s` unchanged when it holds no `&`. Errors carry `offset`.
pub(crate) fn decode_entities(s: &str, offset: usize) -> Result<Cow<'_, str>, ParseError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    walk_entities(s, offset, Some(&mut out))?;
    Ok(Cow::Owned(out))
}

/// Validate every entity reference in `s` exactly as [`decode_entities`]
/// would, without allocating.
pub(crate) fn check_entities(s: &str, offset: usize) -> Result<(), ParseError> {
    walk_entities(s, offset, None)
}

/// Decode `s` into `out`, or only validate it when `out` is `None`.
fn walk_entities(s: &str, offset: usize, mut out: Option<&mut String>) -> Result<(), ParseError> {
    let err = |kind| ParseError { offset, kind };
    let unknown = |ent: &str| err(ParseErrorKind::UnknownEntity(ent.to_string()));
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        if let Some(o) = out.as_deref_mut() {
            o.push_str(&rest[..amp]);
        }
        rest = &rest[amp + 1..];
        let semi = rest
            .find(';')
            .ok_or_else(|| err(ParseErrorKind::Malformed("unterminated entity".into())))?;
        let ent = &rest[..semi];
        let c = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16).map_err(|_| unknown(ent))?;
                char::from_u32(cp).ok_or_else(|| unknown(ent))?
            }
            _ if ent.starts_with('#') => {
                let cp: u32 = ent[1..].parse().map_err(|_| unknown(ent))?;
                char::from_u32(cp).ok_or_else(|| unknown(ent))?
            }
            _ => return Err(unknown(ent)),
        };
        if let Some(o) = out.as_deref_mut() {
            o.push(c);
        }
        rest = &rest[semi + 1..];
    }
    if let Some(o) = out {
        o.push_str(rest);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.len(), 4);
        let root = doc.root();
        assert_eq!(doc.tag_name(root), "a");
        let kids: Vec<&str> = doc.children(root).map(|c| doc.tag_name(c)).collect();
        assert_eq!(kids, vec!["b", "b"]);
    }

    #[test]
    fn parses_attributes_and_text() {
        let doc = parse(r#"<book year="2006" lang='en'><title>Twig &amp; Stack</title></book>"#)
            .unwrap();
        let root = doc.root();
        assert_eq!(doc.attribute(root, "year"), Some("2006"));
        assert_eq!(doc.attribute(root, "lang"), Some("en"));
        let title = doc.first_child(root).unwrap();
        assert_eq!(doc.text(title), Some("Twig & Stack"));
    }

    #[test]
    fn skips_prolog_comments_pis_doctype() {
        let doc = parse(
            "<?xml version=\"1.0\"?><!DOCTYPE dblp>\n<!-- c --><dblp><?pi data?><x/><!-- d --></dblp>",
        )
        .unwrap();
        assert_eq!(doc.tag_name(doc.root()), "dblp");
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        assert_eq!(doc.text(doc.root()), Some("<not-a-tag> & raw"));
    }

    #[test]
    fn char_references() {
        let doc = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.text(doc.root()), Some("AB"));
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn truncated_input_is_an_error() {
        assert!(matches!(
            parse("<a><b>").unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            parse("<a").unwrap_err().kind,
            ParseErrorKind::Malformed(_) | ParseErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownEntity(e) if e == "nope"));
    }

    #[test]
    fn regions_match_tag_positions() {
        // <a>(1 <b>(2 </b>3) <b>(4 </b>5) </a>6)
        let doc = parse("<a><b/><b/></a>").unwrap();
        let root = doc.root();
        assert_eq!(doc.region(root).left, 1);
        assert_eq!(doc.region(root).right, 6);
        let kids: Vec<_> = doc.children(root).collect();
        assert_eq!(doc.region(kids[0]).left, 2);
        assert_eq!(doc.region(kids[0]).right, 3);
        assert_eq!(doc.region(kids[1]).left, 4);
        assert_eq!(doc.region(kids[1]).right, 5);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.text(doc.root()), None);
    }

    #[test]
    fn find_byte_agrees_with_a_linear_scan() {
        // Needles at every offset of a word and in the tail, beside
        // bytes that differ from the needle only in the high bit.
        let mut hay: Vec<u8> = (0..40u8).map(|i| 0x80 | (i % 0x3c)).collect();
        hay.extend_from_slice("é<a".as_bytes());
        for from in 0..hay.len() {
            for needle in [b'<', 0xBC, b'a', b'&', 0x80] {
                let want = hay[from..]
                    .iter()
                    .position(|&b| b == needle)
                    .map_or(hay.len(), |i| from + i);
                assert_eq!(find_byte(&hay, from, needle), want, "from {from}, {needle:#x}");
            }
        }
        assert_eq!(find_byte(b"", 0, b'<'), 0);
    }

    #[test]
    fn decoding_borrows_unless_an_entity_is_present() {
        assert!(matches!(decode_entities("plain é", 0), Ok(Cow::Borrowed("plain é"))));
        assert_eq!(decode_entities("a&lt;b&#x20AC;", 0).unwrap(), "a<b€");
        assert_eq!(check_entities("a&lt;b", 0), Ok(()));
        assert_eq!(
            check_entities("x&nope;", 9),
            Err(ParseError { offset: 9, kind: ParseErrorKind::UnknownEntity("nope".into()) })
        );
    }

    #[test]
    fn multiple_roots_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }
}
