//! Streaming pull parser and DOM builder.

use crate::escape::{text_run, unescape};
use crate::model::{Attribute, Document, Element, Node, NsScope, QName};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at line {} (byte {}): {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// The deepest element nesting a [`Reader`] accepts; a deeper start tag
/// is a parse error. Every walk over a parsed tree (building the DOM and
/// the intensional tree, validating, rewriting, serializing) recurses
/// once per level, and a stack overflow aborts the process, so the bound
/// keeps every walk well inside a 2 MiB thread stack. Peers supply the
/// documents; the bound is what makes that safe.
pub const MAX_DEPTH: usize = 128;

/// Attribute count up to which a start tag checks a new attribute's name
/// (namespace declarations included) against the earlier ones by scanning
/// them, and its resolved attributes' expanded names against each other;
/// past it, by a hash set, so a tag with many attributes costs linear
/// time, not quadratic.
const ATTRS_SCANNED: usize = 8;

/// The first attribute whose expanded name (namespace, local part) an
/// earlier one already has, as `p:b` and `q:b` do when `p` and `q` are
/// bound to one namespace.
fn duplicate_expanded_name(attributes: &[Attribute]) -> Option<&QName> {
    fn key(a: &Attribute) -> (&str, &str) {
        (&a.name.ns, &a.name.local)
    }
    if attributes.len() <= ATTRS_SCANNED {
        (1..attributes.len())
            .find(|&i| attributes[..i].iter().any(|b| key(b) == key(&attributes[i])))
            .map(|i| &attributes[i].name)
    } else {
        let mut seen = HashSet::with_capacity(attributes.len());
        attributes.iter().find(|a| !seen.insert(key(a))).map(|a| &a.name)
    }
}

/// A pull-parser event.
///
/// Character data, comments, and PI payloads borrow from the reader's input
/// where possible (`Cow::Borrowed` when no entity resolution was needed), so
/// the hot loop allocates nothing for extensional text runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">`; `self_closing` is true for `<name/>`.
    StartElement {
        /// Resolved element name.
        name: QName,
        /// Attributes (namespace declarations excluded).
        attributes: Vec<Attribute>,
        /// Namespace declarations written on this tag.
        ns_decls: Vec<(String, String)>,
        /// Whether the tag was self-closing.
        self_closing: bool,
    },
    /// `</name>` (also emitted synthetically after self-closing tags).
    EndElement {
        /// Resolved element name.
        name: QName,
    },
    /// Character data (unescaped, including CDATA content). Borrowed from
    /// the input unless entities forced a rebuild.
    Text(Cow<'a, str>),
    /// `<!-- … -->`.
    Comment(&'a str),
    /// `<?target data?>`.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data.
        data: &'a str,
    },
    /// End of input.
    Eof,
}

/// A streaming XML pull parser over a string slice.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    scope: NsScope,
    /// Stack of open element names (for matching end tags and ns scoping).
    stack: Vec<QName>,
    /// Pending synthetic end event for a self-closing tag.
    pending_end: Option<QName>,
    seen_root: bool,
    finished_root: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            scope: NsScope::new(),
            stack: Vec::new(),
            pending_end: None,
            seen_root: false,
            finished_root: false,
        }
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        let line = 1 + self.input[..self.pos.min(self.input.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count();
        XmlError {
            offset: self.pos,
            line,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start_matches([' ', '\t', '\r', '\n']);
        self.pos = self.input.len() - trimmed.len();
    }

    /// Pulls the next event.
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.scope.pop();
            if self.stack.is_empty() {
                self.finished_root = true;
            }
            return Ok(Event::EndElement { name });
        }
        if self.pos >= self.input.len() {
            if !self.stack.is_empty() {
                return Err(self.err(format!(
                    "unexpected end of input: <{}> not closed",
                    self.stack.last().expect("stack non-empty")
                )));
            }
            if !self.seen_root {
                return Err(self.err("document has no root element"));
            }
            return Ok(Event::Eof);
        }
        if self.stack.is_empty() {
            // Between top-level constructs only whitespace, comments, PIs.
            let before = self.pos;
            self.skip_ws();
            if self.pos >= self.input.len() {
                return self.next_event();
            }
            if !self.starts_with("<") {
                self.pos = before;
                return Err(self.err("character data outside the root element"));
            }
        }
        if self.starts_with("<?") {
            return self.parse_pi();
        }
        if self.starts_with("<!--") {
            return self.parse_comment();
        }
        if self.starts_with("<![CDATA[") {
            return self.parse_cdata();
        }
        if self.starts_with("<!") {
            return Err(self.err("DTD declarations are not supported"));
        }
        if self.starts_with("</") {
            return self.parse_end_tag();
        }
        if self.starts_with("<") {
            return self.parse_start_tag();
        }
        self.parse_text()
    }

    fn parse_pi(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // <?
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        let content = &self.rest()[..end];
        self.pos += end + 2;
        let (target, data) = match content.find(|c: char| c.is_whitespace()) {
            Some(i) => (&content[..i], content[i..].trim_start()),
            None => (content, ""),
        };
        if target.is_empty() {
            return Err(self.err("processing instruction without a target"));
        }
        if target.eq_ignore_ascii_case("xml") {
            // XML declaration: swallow it, it carries no tree content.
            return self.next_event();
        }
        Ok(Event::Pi { target, data })
    }

    fn parse_comment(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 4; // <!--
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        let text = &self.rest()[..end];
        self.pos += end + 3;
        Ok(Event::Comment(text))
    }

    fn parse_cdata(&mut self) -> Result<Event<'a>, XmlError> {
        if self.stack.is_empty() {
            return Err(self.err("CDATA section outside the root element"));
        }
        self.pos += 9; // <![CDATA[
        let end = self
            .rest()
            .find("]]>")
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        let text = &self.rest()[..end];
        self.pos += end + 3;
        Ok(Event::Text(Cow::Borrowed(text)))
    }

    /// Character data up to the next `<`: one scan finds its end and
    /// whether it holds an entity, and only then is it unescaped.
    fn parse_text(&mut self) -> Result<Event<'a>, XmlError> {
        let (end, amp) = text_run(self.input.as_bytes(), self.pos);
        let raw = &self.input[self.pos..end];
        let text = if amp {
            unescape(raw).map_err(|m| self.err(m))?
        } else {
            Cow::Borrowed(raw)
        };
        self.pos = end;
        Ok(Event::Text(text))
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let end = rest.find(|c: char| !is_name_char(c)).unwrap_or(rest.len());
        if end == 0 || !rest.starts_with(is_name_start) {
            return Err(self.err("expected an XML name"));
        }
        let name = &rest[..end];
        self.pos += end;
        Ok(name)
    }

    fn parse_start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        if self.finished_root {
            return Err(self.err("multiple root elements"));
        }
        if self.stack.len() >= MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1; // <
        let raw_name = self.read_name()?;
        let mut attributes_raw: Vec<(&'a str, String)> = Vec::new();
        let mut ns_decls: Vec<(String, String)> = Vec::new();
        // Raw names of the namespace declarations: `xmlns` and `xmlns:*`
        // must be unique like any other attribute name.
        let mut decl_names: Vec<&'a str> = Vec::new();
        let mut attr_names: Option<HashSet<&'a str>> = None;
        let self_closing;
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.pos += 2;
                self_closing = true;
                break;
            }
            if self.starts_with(">") {
                self.pos += 1;
                self_closing = false;
                break;
            }
            if self.pos >= self.input.len() {
                return Err(self.err(format!("unterminated start tag <{raw_name}>")));
            }
            let attr_name = self.read_name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(self.err(format!("attribute '{attr_name}' is missing '='")));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err("attribute value must be quoted")),
            };
            self.pos += 1;
            let end = self
                .rest()
                .find(quote)
                .ok_or_else(|| self.err("unterminated attribute value"))?;
            let raw_value = &self.rest()[..end];
            let value = unescape(raw_value).map_err(|m| self.err(m))?.into_owned();
            self.pos += end + 1;
            if attr_names.is_none() && attributes_raw.len() + decl_names.len() > ATTRS_SCANNED {
                let earlier = attributes_raw.iter().map(|(n, _)| *n);
                attr_names = Some(earlier.chain(decl_names.iter().copied()).collect());
            }
            let duplicate = match &mut attr_names {
                Some(names) => !names.insert(attr_name),
                None => {
                    attributes_raw.iter().any(|(n, _)| *n == attr_name)
                        || decl_names.contains(&attr_name)
                }
            };
            if duplicate {
                return Err(self.err(format!("duplicate attribute '{attr_name}'")));
            }
            if attr_name == "xmlns" {
                ns_decls.push((String::new(), value));
                decl_names.push(attr_name);
            } else if let Some(prefix) = attr_name.strip_prefix("xmlns:") {
                if prefix.is_empty() {
                    return Err(self.err("empty namespace prefix declaration"));
                }
                ns_decls.push((prefix.to_owned(), value));
                decl_names.push(attr_name);
            } else {
                attributes_raw.push((attr_name, value));
            }
        }
        // Resolve namespaces with the new declarations in scope.
        self.scope.push(&ns_decls);
        let name = self.resolve_name(raw_name, true)?;
        let mut attributes = Vec::with_capacity(attributes_raw.len());
        let mut prefixed = false;
        for (n, v) in attributes_raw {
            // Unprefixed attributes are in no namespace, per the spec.
            let qn = if n.contains(':') {
                prefixed = true;
                self.resolve_name(n, false)?
            } else {
                QName::local(n)
            };
            attributes.push(Attribute { name: qn, value: v });
        }
        // Unprefixed names are unique already; only a prefix can make two
        // attributes share an expanded name.
        if prefixed {
            if let Some(name) = duplicate_expanded_name(&attributes) {
                return Err(self.err(format!(
                    "duplicate attribute '{}' in namespace '{}'",
                    name.local, name.ns
                )));
            }
        }
        self.seen_root = true;
        if self_closing {
            self.pending_end = Some(name.clone());
        } else {
            self.stack.push(name.clone());
        }
        Ok(Event::StartElement {
            name,
            attributes,
            ns_decls,
            self_closing,
        })
    }

    fn resolve_name(&self, raw: &str, use_default: bool) -> Result<QName, XmlError> {
        match raw.split_once(':') {
            Some((prefix, local)) => {
                if local.is_empty() || local.contains(':') {
                    return Err(self.err(format!("malformed qualified name '{raw}'")));
                }
                let ns = self
                    .scope
                    .resolve(prefix)
                    .ok_or_else(|| self.err(format!("undeclared namespace prefix '{prefix}'")))?;
                Ok(QName::prefixed(prefix, local, ns))
            }
            None => {
                let ns = if use_default {
                    self.scope.resolve("").unwrap_or("")
                } else {
                    ""
                };
                Ok(QName {
                    prefix: String::new(),
                    local: raw.to_owned(),
                    ns: ns.to_owned(),
                })
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // </
        let raw_name = self.read_name()?;
        self.skip_ws();
        if !self.starts_with(">") {
            return Err(self.err(format!("malformed end tag </{raw_name}>")));
        }
        self.pos += 1;
        let open = self
            .stack
            .pop()
            .ok_or_else(|| self.err(format!("unexpected end tag </{raw_name}>")))?;
        // Compare against the written form without allocating it.
        let matches = match open.prefix.as_str() {
            "" => raw_name == open.local,
            p => raw_name
                .strip_prefix(p)
                .and_then(|r| r.strip_prefix(':'))
                .is_some_and(|l| l == open.local),
        };
        if !matches {
            return Err(self.err(format!(
                "mismatched end tag: expected </{}>, found </{raw_name}>",
                open.as_written()
            )));
        }
        self.scope.pop();
        if self.stack.is_empty() {
            self.finished_root = true;
        }
        Ok(Event::EndElement { name: open })
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Parses a complete document into a DOM tree.
///
/// Whitespace-only text between elements is dropped (element content
/// whitespace); mixed content keeps its text intact.
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut reader = Reader::new(input);
    let mut prolog = Vec::new();
    let mut root: Option<Element> = None;
    // Stack of elements under construction.
    let mut stack: Vec<Element> = Vec::new();
    loop {
        match reader.next_event()? {
            Event::StartElement {
                name,
                attributes,
                ns_decls,
                ..
            } => {
                stack.push(Element {
                    name,
                    attributes,
                    ns_decls,
                    children: Vec::new(),
                });
            }
            Event::EndElement { .. } => {
                let done = stack.pop().expect("reader guarantees balance");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => root = Some(done),
                }
            }
            Event::Text(t) => {
                if let Some(parent) = stack.last_mut() {
                    if !t.trim().is_empty() || parent.children.iter().any(|c| c.as_text().is_some())
                    {
                        // Merge adjacent text nodes.
                        if let Some(Node::Text(prev)) = parent.children.last_mut() {
                            prev.push_str(&t);
                        } else if !t.trim().is_empty() {
                            parent.children.push(Node::Text(t.into_owned()));
                        }
                    }
                }
            }
            Event::Comment(c) => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Comment(c.to_owned()));
                } else if root.is_none() {
                    prolog.push(Node::Comment(c.to_owned()));
                }
            }
            Event::Pi { target, data } => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Pi {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    });
                } else if root.is_none() {
                    prolog.push(Node::Pi {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    });
                }
            }
            Event::Eof => break,
        }
    }
    Ok(Document {
        prolog,
        root: root.expect("reader guarantees a root"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?>\n<newspaper><title>The Sun</title><date>04/10/2002</date></newspaper>",
        )
        .unwrap();
        assert_eq!(doc.root.name.local, "newspaper");
        assert_eq!(doc.root.children.len(), 2);
        assert_eq!(
            doc.root.first_child("title").unwrap().text_content(),
            "The Sun"
        );
    }

    #[test]
    fn parses_paper_intensional_document() {
        // The exact document of Sec. 7 of the paper (typo-corrected closing tags).
        let text = r#"<?xml version="1.0"?>
<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap"
           methodName="Get_Temp"
           namespaceURI="urn:xmethods-weather">
    <int:params>
      <int:param><city>Paris</city></int:param>
    </int:params>
  </int:fun>
</newspaper>"#;
        let doc = parse_document(text).unwrap();
        let fun = doc.root.child_elements().nth(2).unwrap();
        assert!(fun.name.matches("http://www.activexml.com/ns/int", "fun"));
        assert_eq!(fun.attribute("methodName"), Some("Get_Temp"));
        let city = fun
            .first_child("params")
            .unwrap()
            .first_child("param")
            .unwrap()
            .first_child("city")
            .unwrap();
        assert_eq!(city.text_content(), "Paris");
    }

    #[test]
    fn self_closing_and_attributes() {
        let doc = parse_document("<a x=\"1\" y='2'><b/><c  z = \"3\" /></a>").unwrap();
        assert_eq!(doc.root.attribute("x"), Some("1"));
        assert_eq!(doc.root.attribute("y"), Some("2"));
        assert_eq!(doc.root.child_elements().count(), 2);
        assert_eq!(doc.root.first_child("c").unwrap().attribute("z"), Some("3"));
    }

    #[test]
    fn namespace_scoping_and_shadowing() {
        let doc =
            parse_document("<a xmlns=\"urn:one\"><b xmlns=\"urn:two\"><c/></b><d/></a>").unwrap();
        assert_eq!(doc.root.name.ns, "urn:one");
        let b = doc.root.first_child("b").unwrap();
        assert_eq!(b.name.ns, "urn:two");
        assert_eq!(b.first_child("c").unwrap().name.ns, "urn:two");
        assert_eq!(doc.root.first_child("d").unwrap().name.ns, "urn:one");
    }

    #[test]
    fn entities_and_cdata() {
        let doc = parse_document("<t>a &lt; b &amp; <![CDATA[<raw> & stuff]]> c</t>").unwrap();
        assert_eq!(doc.root.text_content(), "a < b & <raw> & stuff c");
    }

    #[test]
    fn comments_and_pis() {
        let doc =
            parse_document("<!-- head --><?style css?><r><!-- in --><?p d?><x/></r>").unwrap();
        assert_eq!(doc.prolog.len(), 2);
        assert!(matches!(&doc.prolog[0], Node::Comment(c) if c.trim() == "head"));
        assert_eq!(doc.root.children.len(), 3);
    }

    #[test]
    fn error_mismatched_tags() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn error_multiple_roots_and_trailing_text() {
        assert!(parse_document("<a/><b/>").is_err());
        assert!(parse_document("<a/>junk").is_err());
        assert!(parse_document("").is_err());
        assert!(parse_document("   ").is_err());
    }

    #[test]
    fn error_undeclared_prefix() {
        let e = parse_document("<x:a/>").unwrap_err();
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn duplicate_attribute_after_many_distinct_ones_is_refused() {
        for distinct in [2, 10_000] {
            let attrs: String = (0..distinct).map(|i| format!(" a{i}=\"v\"")).collect();
            let doc = format!("<e{attrs} a0=\"v\"/>");
            let err = parse_document(&doc).unwrap_err();
            assert_eq!(err.message, "duplicate attribute 'a0'", "{distinct}: {err}");
            let end_of_repeat = doc.len() - "/>".len();
            assert_eq!(
                err.offset, end_of_repeat,
                "{distinct}: refused right after the repeat"
            );
            let unique = format!("<e{attrs}/>");
            let root = parse_document(&unique).unwrap().root;
            assert_eq!(root.attributes.len(), distinct);
        }
    }

    #[test]
    fn duplicate_namespace_declarations_are_refused() {
        for (doc, message) in [
            (
                r#"<a xmlns:p="x" xmlns:p="y"/>"#,
                "duplicate attribute 'xmlns:p'",
            ),
            (r#"<a xmlns="x" xmlns="y"/>"#, "duplicate attribute 'xmlns'"),
        ] {
            assert_eq!(parse_document(doc).unwrap_err().message, message, "{doc}");
        }
        // A flood of distinct declarations is checked by the set.
        let decls: String = (0..10_000).map(|i| format!(" xmlns:p{i}=\"u{i}\"")).collect();
        let doc = format!("<e{decls} xmlns:p0=\"u\"/>");
        let err = parse_document(&doc).unwrap_err();
        assert_eq!(err.message, "duplicate attribute 'xmlns:p0'");
        assert_eq!(err.offset, doc.len() - "/>".len(), "refused right after the repeat");
        // A declaration and a plain attribute may share nothing but text.
        parse_document(r#"<e xmlns:p="u" p="1"/>"#).unwrap();
    }

    #[test]
    fn duplicate_expanded_attribute_names_are_refused() {
        let doc = r#"<a xmlns:p="u" xmlns:q="u" p:b="1" q:b="2"/>"#;
        assert_eq!(
            parse_document(doc).unwrap_err().message,
            "duplicate attribute 'b' in namespace 'u'"
        );
        // Past the scanned count, the set finds the collision too.
        let attrs: String = (0..10).map(|i| format!(" p:a{i}=\"v\"")).collect();
        let doc = format!(r#"<e xmlns:p="u" xmlns:q="u"{attrs} q:a9="v"/>"#);
        assert_eq!(
            parse_document(&doc).unwrap_err().message,
            "duplicate attribute 'a9' in namespace 'u'"
        );
        // One local name in two namespaces, or prefixed and unprefixed, is fine.
        let ok = r#"<a xmlns:p="u" xmlns:q="w" p:b="1" q:b="2" b="3"/>"#;
        assert_eq!(parse_document(ok).unwrap().root.attributes.len(), 3);
    }

    #[test]
    fn error_duplicate_attribute() {
        assert!(parse_document("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn error_unterminated() {
        assert!(parse_document("<a><b>").is_err());
        assert!(parse_document("<a").is_err());
        assert!(parse_document("<a x=1/>").is_err());
        assert!(parse_document("<!-- never ends").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize, leaf: &str| {
            format!("{}{leaf}{}", "<r>".repeat(depth), "</r>".repeat(depth))
        };
        assert!(parse_document(&nested(MAX_DEPTH, "")).is_ok());
        assert!(parse_document(&nested(MAX_DEPTH - 1, "<r/>")).is_ok());
        for doc in [nested(MAX_DEPTH + 1, ""), nested(MAX_DEPTH, "<r/>"), nested(3_000, "")] {
            let err = parse_document(&doc).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
            assert_eq!(err.offset, 3 * MAX_DEPTH, "refused at the first level too deep");
        }
    }

    #[test]
    fn dtd_rejected() {
        let e = parse_document("<!DOCTYPE a><a/>").unwrap_err();
        assert!(e.message.contains("DTD"), "{e}");
    }

    #[test]
    fn line_numbers_in_errors() {
        let e = parse_document("<a>\n\n<b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn text_scan_across_block_edges() {
        // The text scan folds 64-byte blocks, so put each byte it must
        // stop at or step over at every offset across two block edges:
        // the next tag, an entity, a character reference and a
        // multi-byte character. The `&` after the tag falls in the block
        // that holds the tag and belongs to the next run.
        for n in 0..=130 {
            let pad = "x".repeat(n);
            for (raw, text) in [
                ("", ""),
                ("&amp;z", "&z"),
                ("&#x20AC;z", "\u{20AC}z"),
                ("\u{20AC}z", "\u{20AC}z"),
            ] {
                let doc = format!("<r>{pad}{raw}<b/>q&amp;</r>");
                let mut reader = Reader::new(&doc);
                let mut next = || reader.next_event().unwrap();
                assert!(matches!(next(), Event::StartElement { .. }));
                let want = format!("{pad}{text}");
                if !want.is_empty() {
                    match next() {
                        Event::Text(t) => {
                            assert_eq!(t, want, "{raw:?} at {n}");
                            let borrowed = matches!(t, Cow::Borrowed(_));
                            assert_eq!(borrowed, !raw.contains('&'), "{raw:?} at {n}");
                        }
                        other => panic!("{raw:?} at {n}: expected text, got {other:?}"),
                    }
                }
                match next() {
                    Event::StartElement { name, .. } => assert_eq!(name.local, "b", "at {n}"),
                    other => panic!("{raw:?} at {n}: expected <b/>, got {other:?}"),
                }
                assert!(matches!(next(), Event::EndElement { .. }));
                assert_eq!(next(), Event::Text(Cow::Borrowed("q&")), "{raw:?} at {n}");
                assert!(matches!(next(), Event::EndElement { .. }));
                assert_eq!(next(), Event::Eof);
            }
            // A bad entity is reported at the start of its run.
            let doc = format!("<r>{pad}&bad;</r>");
            let err = parse_document(&doc).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (3, "unknown entity '&bad;'")
            );
        }
    }

    #[test]
    fn whitespace_between_elements_dropped_mixed_kept() {
        let doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
        let doc = parse_document("<a>hello <b/> world</a>").unwrap();
        assert_eq!(doc.root.children.len(), 3);
    }
}
