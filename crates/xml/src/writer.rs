//! XML serialization.

use crate::escape::{escape_attr, escape_text};
use crate::model::{Document, Element, Node};

/// Serialization options.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Indentation unit; `None` writes everything on one line.
    pub indent: Option<String>,
    /// Whether to emit an `<?xml version="1.0"?>` declaration
    /// (documents only).
    pub declaration: bool,
}

impl WriteOptions {
    /// Single-line output, with declaration.
    pub fn compact() -> Self {
        WriteOptions {
            indent: None,
            declaration: true,
        }
    }

    /// Two-space indentation, with declaration.
    pub fn pretty() -> Self {
        WriteOptions {
            indent: Some("  ".to_owned()),
            declaration: true,
        }
    }
}

/// Serializes a whole document.
pub fn write_document(doc: &Document, options: &WriteOptions) -> String {
    let mut out = String::new();
    if options.declaration {
        out.push_str("<?xml version=\"1.0\"?>");
        if options.indent.is_some() {
            out.push('\n');
        }
    }
    for node in &doc.prolog {
        write_node(node, options, 0, &mut out);
        if options.indent.is_some() {
            out.push('\n');
        }
    }
    write_element(&doc.root, options, 0, &mut out);
    out
}

/// Serializes a single element (used by [`Element::to_xml`]).
pub fn element_to_string(e: &Element, options: &WriteOptions) -> String {
    let mut out = String::new();
    write_element(e, options, 0, &mut out);
    out
}

fn write_indent(options: &WriteOptions, depth: usize, out: &mut String) {
    if let Some(unit) = &options.indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_element(e: &Element, options: &WriteOptions, depth: usize, out: &mut String) {
    out.push('<');
    out.push_str(&e.name.as_written());
    for (prefix, uri) in &e.ns_decls {
        if prefix.is_empty() {
            out.push_str(" xmlns=\"");
        } else {
            out.push_str(" xmlns:");
            out.push_str(prefix);
            out.push_str("=\"");
        }
        out.push_str(&escape_attr(uri));
        out.push('"');
    }
    for attr in &e.attributes {
        out.push(' ');
        out.push_str(&attr.name.as_written());
        out.push_str("=\"");
        out.push_str(&escape_attr(&attr.value));
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    // Mixed content (any direct text child) is written inline to preserve
    // the text exactly; element-only content may be indented.
    let mixed = e.children.iter().any(|c| matches!(c, Node::Text(_)));
    for child in &e.children {
        if !mixed {
            write_indent(options, depth + 1, out);
        }
        write_node(child, options, depth + 1, out);
    }
    if !mixed {
        write_indent(options, depth, out);
    }
    out.push_str("</");
    out.push_str(&e.name.as_written());
    out.push('>');
}

fn write_node(node: &Node, options: &WriteOptions, depth: usize, out: &mut String) {
    match node {
        Node::Element(e) => write_element(e, options, depth, out),
        Node::Text(t) => out.push_str(&escape_text(t)),
        Node::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        Node::Pi { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

/// An incremental serializer for the compact single-line normal form.
///
/// Produces byte-for-byte what [`element_to_string`] with
/// [`WriteOptions::compact`] emits for attribute-free elements: tags are
/// closed lazily so childless elements collapse to `<name/>`, nothing is
/// indented, and text must arrive already escaped (callers decide between
/// zero-copy spans and re-escaped runs). Used by the streaming enforcement
/// path to splice rewritten subtree serializations between streamed regions.
#[derive(Debug, Default)]
pub struct StreamWriter {
    out: String,
    tag_open: bool,
}

impl StreamWriter {
    fn put(&mut self, s: &str) -> usize {
        self.out.push_str(s);
        s.len()
    }

    /// Closes a pending start tag, if any, with `>`.
    fn close_tag(&mut self) -> usize {
        if self.tag_open {
            self.tag_open = false;
            return self.put(">");
        }
        0
    }

    /// Opens `<name`, deferring the closing `>` until content arrives.
    /// Returns the number of bytes written.
    pub fn start(&mut self, name: &str) -> usize {
        let n = self.close_tag() + self.put("<") + self.put(name);
        self.tag_open = true;
        n
    }

    /// Closes the current element: `/>` if it had no content, `</name>`
    /// otherwise. Returns the number of bytes written.
    pub fn end(&mut self, name: &str) -> usize {
        if self.tag_open {
            self.tag_open = false;
            return self.put("/>");
        }
        self.put("</") + self.put(name) + self.put(">")
    }

    /// Writes pre-serialized content verbatim (escaped text or a spliced
    /// subtree serialization), closing any pending start tag first.
    /// Returns the number of bytes written.
    pub fn raw(&mut self, s: &str) -> usize {
        self.close_tag() + self.put(s)
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    #[test]
    fn stream_writer_matches_compact_form() {
        let mut sw = StreamWriter::default();
        sw.start("a");
        sw.start("b");
        sw.raw("text &amp; more");
        sw.end("b");
        sw.start("c");
        sw.end("c");
        sw.end("a");
        let out = sw.into_string();
        assert_eq!(out, "<a><b>text &amp; more</b><c/></a>");
        let doc = parse_document(&out).unwrap();
        assert_eq!(doc.root.to_xml(), out);
    }

    #[test]
    fn roundtrip_compact() {
        let src = "<a x=\"1\"><b>text &amp; more</b><c/></a>";
        let doc = parse_document(src).unwrap();
        let out = doc.root.to_xml();
        assert_eq!(out, src);
    }

    #[test]
    fn pretty_indents_element_content() {
        let doc = parse_document("<a><b><c/></b></a>").unwrap();
        let out = doc.root.to_pretty_xml();
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn mixed_content_not_indented() {
        let doc = parse_document("<p>hello <b>bold</b> world</p>").unwrap();
        assert_eq!(doc.root.to_pretty_xml(), "<p>hello <b>bold</b> world</p>");
    }

    #[test]
    fn namespace_declarations_serialized() {
        let doc = parse_document("<a xmlns=\"urn:d\" xmlns:i=\"urn:i\"><i:b/></a>").unwrap();
        let out = doc.root.to_xml();
        assert!(out.contains("xmlns=\"urn:d\""));
        assert!(out.contains("xmlns:i=\"urn:i\""));
        assert!(out.contains("<i:b/>"));
        // Reparse must resolve identically.
        let again = parse_document(&out).unwrap();
        assert_eq!(again.root, doc.root);
    }

    #[test]
    fn document_declaration_and_prolog() {
        let doc = parse_document("<!--hi--><r/>").unwrap();
        let out = write_document(&doc, &WriteOptions::compact());
        assert!(out.starts_with("<?xml version=\"1.0\"?>"));
        assert!(out.contains("<!--hi-->"));
        assert!(out.ends_with("<r/>"));
    }

    #[test]
    fn escaping_in_attributes_roundtrips() {
        let src = "<a v=\"x &lt; y &quot;q&quot;\"/>";
        let doc = parse_document(src).unwrap();
        assert_eq!(doc.root.attribute("v"), Some("x < y \"q\""));
        let again = parse_document(&doc.root.to_xml()).unwrap();
        assert_eq!(again.root, doc.root);
    }

    #[test]
    fn pi_and_comment_children_roundtrip() {
        let src = "<r><?t d?><!--c--><x/></r>";
        let doc = parse_document(src).unwrap();
        assert_eq!(doc.root.to_xml(), src);
    }
}
