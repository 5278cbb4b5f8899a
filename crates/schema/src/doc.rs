//! Intensional documents (Def. 1 of the paper).
//!
//! An intensional document is an ordered labeled tree with two node kinds:
//! *data* nodes (elements and text) and *function* nodes (embedded service
//! calls). Function nodes carry the call parameters as their children.
//!
//! The XML encoding follows Sec. 7 of the paper: a function node is an
//! element `int:fun` in the namespace [`INT_NS`] with `methodName`,
//! `endpointURL` and `namespaceURI` attributes, and its parameters wrapped
//! in `int:params`/`int:param`.

use axml_xml::{escape_attr, escape_text, Attribute, Element, Event, Node, QName};
use std::borrow::Cow;
use std::fmt;

/// The namespace used to mark intensional (function-call) elements.
pub const INT_NS: &str = "http://www.activexml.com/ns/int";

/// A service-call node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncNode {
    /// The operation name (identifies the Web service operation).
    pub name: String,
    /// SOAP endpoint URL, if known.
    pub endpoint: Option<String>,
    /// SOAP namespace URI, if known.
    pub namespace: Option<String>,
    /// Call parameters — themselves intensional trees.
    pub params: Vec<ITree>,
}

/// An intensional tree: element, text, or embedded function call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ITree {
    /// A data element with a label and ordered children.
    Elem {
        /// The element label.
        label: String,
        /// Ordered children.
        children: Vec<ITree>,
    },
    /// A text leaf (an atomic data value in `𝒟`).
    Text(String),
    /// A function node (a square node in the paper's figures).
    Func(FuncNode),
}

impl ITree {
    /// Creates an element node.
    pub fn elem(label: &str, children: Vec<ITree>) -> Self {
        ITree::Elem {
            label: label.to_owned(),
            children,
        }
    }

    /// Creates an element node holding a single text child.
    pub fn data(label: &str, text: &str) -> Self {
        ITree::elem(label, vec![ITree::text(text)])
    }

    /// Creates a text leaf.
    pub fn text(t: &str) -> Self {
        ITree::Text(t.to_owned())
    }

    /// Creates a function node with parameters.
    pub fn func(name: &str, params: Vec<ITree>) -> Self {
        ITree::Func(FuncNode {
            name: name.to_owned(),
            endpoint: None,
            namespace: None,
            params,
        })
    }

    /// The element label or function name, if the node has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            ITree::Elem { label, .. } => Some(label),
            ITree::Func(f) => Some(&f.name),
            ITree::Text(_) => None,
        }
    }

    /// True if this is a function node.
    pub fn is_func(&self) -> bool {
        matches!(self, ITree::Func(_))
    }

    /// Children of an element, parameters of a function, empty for text.
    pub fn children(&self) -> &[ITree] {
        match self {
            ITree::Elem { children, .. } => children,
            ITree::Func(f) => &f.params,
            ITree::Text(_) => &[],
        }
    }

    /// Mutable children/parameters.
    pub fn children_mut(&mut self) -> Option<&mut Vec<ITree>> {
        match self {
            ITree::Elem { children, .. } => Some(children),
            ITree::Func(f) => Some(&mut f.params),
            ITree::Text(_) => None,
        }
    }

    /// Total number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(ITree::size).sum::<usize>()
    }

    /// Number of function nodes in the subtree.
    pub fn num_funcs(&self) -> usize {
        let own = usize::from(self.is_func());
        own + self.children().iter().map(ITree::num_funcs).sum::<usize>()
    }

    /// Maximum nesting depth of function nodes within function parameters.
    pub fn func_nesting(&self) -> usize {
        let below = self
            .children()
            .iter()
            .map(ITree::func_nesting)
            .max()
            .unwrap_or(0);
        if self.is_func() {
            below + 1
        } else {
            below
        }
    }

    /// Depth-first pre-order visit of every node.
    pub fn visit(&self, f: &mut impl FnMut(&ITree)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Encodes the tree as XML (Sec. 7 encoding for function nodes).
    pub fn to_xml(&self) -> Element {
        match self {
            ITree::Elem { label, children } => {
                let mut e = Element::new(label);
                for c in children {
                    push_xml(&mut e, c);
                }
                e
            }
            ITree::Text(t) => {
                // A bare text tree is wrapped when used as a root; callers
                // normally encode under an element.
                Element::new("text").text(t)
            }
            ITree::Func(f) => func_to_xml(f),
        }
    }

    /// Writes the tree's compact XML (Sec. 7 encoding for function nodes)
    /// into `out`: byte for byte what
    /// `element_to_string(&self.to_xml(), &WriteOptions::compact())`
    /// returns, without building the DOM. Fails only when `out` does.
    pub fn write_xml<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            ITree::Elem { label, children } => write_elem(out, label, children),
            // A bare text tree is wrapped, as `to_xml` wraps it.
            ITree::Text(_) => write_elem(out, "text", std::slice::from_ref(self)),
            ITree::Func(f) => write_func(out, f),
        }
    }

    /// Decodes from XML, recognizing `int:fun` elements as function nodes.
    pub fn from_xml(e: &Element) -> Result<ITree, String> {
        if e.name.matches(INT_NS, "fun") {
            return Ok(ITree::Func(func_from_xml(e)?));
        }
        Ok(ITree::Elem {
            label: e.name.local.clone(),
            children: forest_from_nodes(&e.children)?,
        })
    }
}

/// Decodes a DOM child list the way [`ITree::from_xml`] treats element
/// content: elements recurse (recognizing `int:fun`), text is trimmed and
/// dropped when whitespace-only, comments and PIs vanish. Exposed so the
/// streaming enforcer can materialize a tail forest with identical
/// normalization to the DOM path.
pub fn forest_from_nodes(nodes: &[Node]) -> Result<Vec<ITree>, String> {
    let mut children = Vec::new();
    for c in nodes {
        match c {
            Node::Element(el) => children.push(ITree::from_xml(el)?),
            Node::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    children.push(ITree::text(trimmed));
                }
            }
            Node::Comment(_) | Node::Pi { .. } => {}
        }
    }
    Ok(children)
}

impl fmt::Display for ITree {
    /// Compact term-like rendering used in tests and logs:
    /// `newspaper[title["The Sun"], Get_Temp!(city["Paris"])]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ITree::Text(t) => write!(f, "{t:?}"),
            ITree::Elem { label, children } => {
                write!(f, "{label}")?;
                write_children(f, children)
            }
            ITree::Func(fun) => {
                write!(f, "{}!", fun.name)?;
                if fun.params.is_empty() {
                    Ok(())
                } else {
                    write!(f, "(")?;
                    for (i, p) in fun.params.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

fn write_children(f: &mut fmt::Formatter<'_>, children: &[ITree]) -> fmt::Result {
    if children.is_empty() {
        return Ok(());
    }
    write!(f, "[")?;
    for (i, c) in children.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, "]")
}

fn write_elem<W: fmt::Write + ?Sized>(out: &mut W, label: &str, children: &[ITree]) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(label)?;
    if children.is_empty() {
        return out.write_str("/>");
    }
    out.write_char('>')?;
    for c in children {
        write_child(out, c)?;
    }
    out.write_str("</")?;
    out.write_str(label)?;
    out.write_char('>')
}

fn write_child<W: fmt::Write + ?Sized>(out: &mut W, tree: &ITree) -> fmt::Result {
    match tree {
        ITree::Text(t) => out.write_str(&escape_text(t)),
        other => other.write_xml(out),
    }
}

fn write_attr<W: fmt::Write + ?Sized>(out: &mut W, name: &str, value: &str) -> fmt::Result {
    out.write_char(' ')?;
    out.write_str(name)?;
    out.write_str("=\"")?;
    out.write_str(&escape_attr(value))?;
    out.write_char('"')
}

fn write_func<W: fmt::Write + ?Sized>(out: &mut W, f: &FuncNode) -> fmt::Result {
    out.write_str("<int:fun")?;
    write_attr(out, "xmlns:int", INT_NS)?;
    write_attr(out, "methodName", &f.name)?;
    if let Some(url) = &f.endpoint {
        write_attr(out, "endpointURL", url)?;
    }
    if let Some(ns) = &f.namespace {
        write_attr(out, "namespaceURI", ns)?;
    }
    if f.params.is_empty() {
        return out.write_str("/>");
    }
    out.write_str("><int:params>")?;
    for p in &f.params {
        out.write_str("<int:param>")?;
        write_child(out, p)?;
        out.write_str("</int:param>")?;
    }
    out.write_str("</int:params></int:fun>")
}

fn push_xml(parent: &mut Element, tree: &ITree) {
    match tree {
        ITree::Text(t) => parent.children.push(Node::Text(t.clone())),
        other => parent.children.push(Node::Element(other.to_xml())),
    }
}

fn func_to_xml(f: &FuncNode) -> Element {
    let mut e = Element::with_ns("int", "fun", INT_NS)
        .xmlns("int", INT_NS)
        .attr("methodName", &f.name);
    if let Some(url) = &f.endpoint {
        e = e.attr("endpointURL", url);
    }
    if let Some(ns) = &f.namespace {
        e = e.attr("namespaceURI", ns);
    }
    if !f.params.is_empty() {
        let mut params = Element::with_ns("int", "params", INT_NS);
        for p in &f.params {
            let mut param = Element::with_ns("int", "param", INT_NS);
            push_xml(&mut param, p);
            params.children.push(Node::Element(param));
        }
        e.children.push(Node::Element(params));
    }
    e
}

fn func_from_xml(e: &Element) -> Result<FuncNode, String> {
    let name = e
        .attribute("methodName")
        .ok_or("int:fun element is missing methodName")?
        .to_owned();
    let mut params = Vec::new();
    for c in e.child_elements() {
        if c.name.matches(INT_NS, "params") {
            for p in c.child_elements() {
                if !p.name.matches(INT_NS, "param") {
                    return Err(format!("unexpected element '{}' inside int:params", p.name));
                }
                // A param holds exactly one tree: an element or bare text.
                let elems: Vec<_> = p.child_elements().collect();
                match elems.len() {
                    0 => {
                        let t = p.text_content();
                        if t.is_empty() {
                            return Err("empty int:param".to_owned());
                        }
                        params.push(ITree::Text(t));
                    }
                    1 => params.push(ITree::from_xml(elems[0])?),
                    _ => return Err("int:param must hold a single tree".to_owned()),
                }
            }
        } else {
            return Err(format!("unexpected element '{}' inside int:fun", c.name));
        }
    }
    Ok(FuncNode {
        name,
        endpoint: e.attribute("endpointURL").map(str::to_owned),
        namespace: e.attribute("namespaceURI").map(str::to_owned),
        params,
    })
}

/// Consecutive character data, borrowed from the reader's input while it
/// is one piece.
#[derive(Default)]
struct Run<'a>(Option<Cow<'a, str>>);

impl<'a> Run<'a> {
    fn push(&mut self, t: Cow<'a, str>) {
        match &mut self.0 {
            Some(run) => run.to_mut().push_str(&t),
            None => self.0 = Some(t),
        }
    }

    /// Ends the run: its trimmed text, when that is not empty.
    fn take_trimmed(&mut self) -> Option<String> {
        let run = self.0.take()?;
        let trimmed = run.trim();
        if trimmed.is_empty() {
            None
        } else if trimmed.len() == run.len() {
            Some(run.into_owned())
        } else {
            Some(trimmed.to_owned())
        }
    }
}

/// An element the [`TreeBuilder`] has open.
enum Open<'a> {
    /// A data element, with the text run after its last child.
    Elem {
        label: String,
        children: Vec<ITree>,
        run: Run<'a>,
    },
    /// An `int:fun` element: the call as decoded so far.
    Fun(FuncNode),
    /// An `int:params` element directly inside an `int:fun`.
    Params,
    /// An `int:param` element directly inside an `int:params`.
    Param {
        /// The element's pre-order number, which its errors are ranked by.
        at: usize,
        /// Child elements seen.
        elements: usize,
        /// The first child element, decoded.
        tree: Option<ITree>,
        /// The text `Element::text_content` would concatenate: the
        /// element's text nodes as `parse_document` builds them.
        text: Run<'a>,
        /// Whether the last node `parse_document` would have given the
        /// element is a text node, which further text joins.
        in_text: bool,
    },
    /// An element [`ITree::from_xml`] never decodes: it is where a
    /// decoding error was found, or below one.
    Skipped,
}

/// Builds an [`ITree`] from pull-parser events with
/// [`ITree::from_xml`]'s rules, without a DOM: the tree and the error that
/// `ITree::from_xml(&parse_document(text)?.root)` gives. Text runs are
/// merged as `parse_document` merges them and trimmed as
/// [`forest_from_nodes`] trims them, so a comment or PI splits a run; an
/// `int:param` without an element holds its trimmed text.
///
/// `ITree::from_xml` stops at the first error of a pre-order walk, and
/// checks an `int:param` for a second element before it decodes the
/// first. The builder finds that error only at the second element, so it
/// keeps decoding after an error and reports, once the root has closed,
/// the error anchored at the earliest element. The open elements are an
/// explicit stack: no recursion.
#[derive(Default)]
pub(crate) struct TreeBuilder<'a> {
    stack: Vec<Open<'a>>,
    /// Start tags seen so far: the next element's pre-order number.
    starts: usize,
    root: Option<ITree>,
    /// The first error in `ITree::from_xml`'s order, with the pre-order
    /// number of the element it is anchored at.
    error: Option<(usize, String)>,
}

/// The value of the attribute written `name`, as [`Element::attribute`]
/// finds it.
fn attribute(attributes: &[Attribute], name: &str) -> Option<String> {
    attributes
        .iter()
        .find(|a| a.name.prefix.is_empty() && a.name.local == name)
        .map(|a| a.value.clone())
}

impl<'a> TreeBuilder<'a> {
    fn fail(&mut self, at: usize, message: impl Into<String>) {
        if self.error.as_ref().is_none_or(|(first, _)| at < *first) {
            self.error = Some((at, message.into()));
        }
    }

    /// Takes the next event, up to the root's end tag.
    pub(crate) fn feed(&mut self, event: Event<'a>) {
        match event {
            Event::StartElement {
                name, attributes, ..
            } => self.start(name, &attributes),
            Event::EndElement { .. } => self.end(),
            Event::Text(t) => match self.stack.last_mut() {
                Some(Open::Elem { run, .. }) if run.0.is_some() || !t.trim().is_empty() => {
                    run.push(t);
                }
                Some(Open::Param {
                    elements: 0,
                    text,
                    in_text,
                    ..
                }) if *in_text || !t.trim().is_empty() => {
                    text.push(t);
                    *in_text = true;
                }
                _ => {}
            },
            Event::Comment(_) | Event::Pi { .. } => self.end_text(),
            Event::Eof => {}
        }
    }

    /// A node other than text starts or ends inside the top element.
    fn end_text(&mut self) {
        match self.stack.last_mut() {
            Some(Open::Elem { children, run, .. }) => {
                if let Some(t) = run.take_trimmed() {
                    children.push(ITree::Text(t));
                }
            }
            Some(Open::Param { in_text, .. }) => *in_text = false,
            _ => {}
        }
    }

    fn start(&mut self, name: QName, attributes: &[Attribute]) {
        let at = self.starts;
        self.starts += 1;
        self.end_text();
        let decoded = match self.stack.last_mut() {
            None | Some(Open::Elem { .. }) => true,
            Some(Open::Param {
                at: param,
                elements,
                ..
            }) => {
                *elements += 1;
                if *elements > 1 {
                    let param = *param;
                    self.fail(param, "int:param must hold a single tree");
                    false
                } else {
                    true
                }
            }
            Some(Open::Fun(_)) => {
                if name.matches(INT_NS, "params") {
                    self.stack.push(Open::Params);
                    return;
                }
                self.fail(at, format!("unexpected element '{name}' inside int:fun"));
                false
            }
            Some(Open::Params) => {
                if name.matches(INT_NS, "param") {
                    self.stack.push(Open::Param {
                        at,
                        elements: 0,
                        tree: None,
                        text: Run::default(),
                        in_text: false,
                    });
                    return;
                }
                self.fail(at, format!("unexpected element '{name}' inside int:params"));
                false
            }
            Some(Open::Skipped) => false,
        };
        let open = if !decoded {
            Open::Skipped
        } else if name.matches(INT_NS, "fun") {
            match attribute(attributes, "methodName") {
                Some(method) => Open::Fun(FuncNode {
                    name: method,
                    endpoint: attribute(attributes, "endpointURL"),
                    namespace: attribute(attributes, "namespaceURI"),
                    params: Vec::new(),
                }),
                None => {
                    self.fail(at, "int:fun element is missing methodName");
                    Open::Skipped
                }
            }
        } else {
            Open::Elem {
                label: name.local,
                children: Vec::new(),
                run: Run::default(),
            }
        };
        self.stack.push(open);
    }

    fn end(&mut self) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let node = match open {
            Open::Elem {
                label,
                mut children,
                mut run,
            } => {
                if let Some(t) = run.take_trimmed() {
                    children.push(ITree::Text(t));
                }
                ITree::Elem { label, children }
            }
            Open::Fun(f) => ITree::Func(f),
            Open::Param {
                at,
                elements,
                tree,
                mut text,
                ..
            } => {
                let param = match (elements, tree) {
                    (0, _) => match text.take_trimmed() {
                        Some(t) => Some(ITree::Text(t)),
                        None => {
                            self.fail(at, "empty int:param");
                            None
                        }
                    },
                    (1, tree) => tree,
                    _ => None,
                };
                // The stack now ends with the call's `int:params`.
                let call = self.stack.len() - 2;
                if let (Some(p), Open::Fun(f)) = (param, &mut self.stack[call]) {
                    f.params.push(p);
                }
                return;
            }
            Open::Params | Open::Skipped => return,
        };
        match self.stack.last_mut() {
            None => self.root = Some(node),
            Some(Open::Elem { children, .. }) => children.push(node),
            Some(Open::Param { tree, .. }) => *tree = Some(node),
            Some(_) => unreachable!("only elements and params hold decoded trees"),
        }
    }

    /// The decoded root, or the first decoding error. Call once the
    /// reader has closed the root.
    pub(crate) fn finish(self) -> Result<ITree, String> {
        match self.error {
            Some((_, message)) => Err(message),
            None => Ok(self.root.expect("the reader closed the root")),
        }
    }
}

/// Builds the paper's running example: the newspaper document of Fig. 2.a.
pub fn newspaper_example() -> ITree {
    ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::func("Get_Temp", vec![ITree::data("city", "Paris")]),
            ITree::func("TimeOut", vec![ITree::text("exhibits")]),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::parse_document;

    #[test]
    fn builders_and_accessors() {
        let doc = newspaper_example();
        assert_eq!(doc.name(), Some("newspaper"));
        assert_eq!(doc.children().len(), 4);
        assert_eq!(doc.num_funcs(), 2);
        assert_eq!(doc.func_nesting(), 1);
        assert_eq!(doc.size(), 10);
        let mut labels = Vec::new();
        doc.visit(&mut |n| {
            if let Some(n) = n.name() {
                labels.push(n.to_owned());
            }
        });
        assert_eq!(labels[0], "newspaper");
        assert!(labels.contains(&"Get_Temp".to_owned()));
    }

    #[test]
    fn display_is_compact() {
        let doc = newspaper_example();
        let s = doc.to_string();
        assert!(s.starts_with("newspaper[title["));
        assert!(s.contains("Get_Temp!(city["));
    }

    #[test]
    fn xml_roundtrip() {
        let doc = newspaper_example();
        let xml = doc.to_xml();
        let text = xml.to_pretty_xml();
        let parsed = parse_document(&text).unwrap();
        let back = ITree::from_xml(&parsed.root).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn paper_xml_decodes_to_function_nodes() {
        // Sec. 7 document (with corrected end tags).
        let text = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap" methodName="Get_Temp"
           namespaceURI="urn:xmethods-weather">
    <int:params><int:param><city>Paris</city></int:param></int:params>
  </int:fun>
  <int:fun endpointURL="http://www.timeout.com/paris" methodName="TimeOut"
           namespaceURI="urn:timeout-program">
    <int:params><int:param> exhibits </int:param></int:params>
  </int:fun>
</newspaper>"#;
        let parsed = parse_document(text).unwrap();
        let tree = ITree::from_xml(&parsed.root).unwrap();
        assert_eq!(tree.num_funcs(), 2);
        match &tree.children()[2] {
            ITree::Func(f) => {
                assert_eq!(f.name, "Get_Temp");
                assert_eq!(f.endpoint.as_deref(), Some("http://www.forecast.com/soap"));
                assert_eq!(f.params.len(), 1);
                assert_eq!(f.params[0].name(), Some("city"));
            }
            other => panic!("expected function node, got {other}"),
        }
        match &tree.children()[3] {
            ITree::Func(f) => {
                assert_eq!(f.params[0], ITree::text("exhibits"));
            }
            other => panic!("expected function node, got {other}"),
        }
    }

    #[test]
    fn nested_function_params_roundtrip() {
        let doc = ITree::elem(
            "r",
            vec![ITree::func(
                "outer",
                vec![ITree::elem(
                    "wrap",
                    vec![ITree::func("inner", vec![ITree::text("x")])],
                )],
            )],
        );
        assert_eq!(doc.func_nesting(), 2);
        let xml = doc.to_xml().to_xml();
        let back = ITree::from_xml(&parse_document(&xml).unwrap().root).unwrap();
        assert_eq!(back, doc);
    }

    /// What the builder makes of every event of `text`.
    fn build(text: &str) -> Result<ITree, String> {
        let mut reader = axml_xml::Reader::new(text);
        let mut builder = TreeBuilder::default();
        loop {
            match reader.next_event().unwrap() {
                Event::Eof => return builder.finish(),
                event => builder.feed(event),
            }
        }
    }

    #[test]
    fn builder_matches_from_xml() {
        let int = format!("xmlns:int=\"{INT_NS}\"");
        let texts = [
            "<r/>".to_owned(),
            "<r>  a &amp; b  <!-- c --> d <?p x?>e<![CDATA[ f ]]> <x/>\n </r>".to_owned(),
            "<r>\n  <x>1</x>\n  <![CDATA[  ]]>  <y/>  </r>".to_owned(),
            format!("<int:fun {int} methodName=\"f\" endpointURL=\"u\"/>"),
            format!(
                "<r {int}>text<int:fun methodName=\"f\" namespaceURI=\"n\">stray\
                 <int:params> <int:param> p <!-- c -->  <![CDATA[ q ]]> </int:param>\
                 <int:param>t<x>1</x>u</int:param></int:params>\
                 <int:params><int:param><int:fun methodName=\"g\"/></int:param></int:params>\
                 </int:fun><int:params><int:param/></int:params></r>"
            ),
            // Text a comment cuts from the next text by a blank run.
            format!(
                "<r {int}><int:fun methodName=\"f\"><int:params><int:param>a<!--c--> \
                 <![CDATA[b]]></int:param></int:params></int:fun></r>"
            ),
            // Errors, with earlier ones after them in the text.
            format!("<r {int}><int:fun/></r>"),
            format!("<r {int}><int:fun p:methodName=\"f\" xmlns:p=\"u\"/></r>"),
            format!("<r {int}><int:fun methodName=\"f\"><x/></int:fun></r>"),
            format!("<r {int}><int:fun methodName=\"f\"><int:params><x/></int:params></int:fun></r>"),
            format!("<r {int}><int:fun methodName=\"f\"><int:params><int:param> <!--c--> </int:param></int:params></int:fun></r>"),
            format!(
                "<r {int}><int:fun methodName=\"f\"><int:params><int:param>\
                 <a><int:fun/></a><b/></int:param></int:params></int:fun></r>"
            ),
            format!(
                "<r {int}><int:fun methodName=\"f\"><int:params><int:param>\
                 <a><int:fun/></a></int:param><int:param><b/><c/></int:param></int:params></int:fun></r>"
            ),
            format!("<r {int}><int:fun methodName=\"f\"><int:fun/></int:fun><int:fun/></r>"),
        ];
        for text in &texts {
            let dom = ITree::from_xml(&parse_document(text).unwrap().root);
            assert_eq!(build(text), dom, "{text}");
        }
    }

    #[test]
    fn write_xml_matches_the_dom_writer() {
        let mut odd = newspaper_example();
        odd.children_mut().unwrap().extend([
            ITree::Func(FuncNode {
                name: "a\"<&'b".to_owned(),
                endpoint: Some("http://x/?a=1&b=2".to_owned()),
                namespace: Some("urn:'q'".to_owned()),
                params: vec![ITree::text(""), ITree::func("inner", vec![])],
            }),
            ITree::elem("empty", vec![]),
            ITree::elem("blank", vec![ITree::text("")]),
            ITree::text("x < y & z > \"w\""),
        ]);
        for tree in [odd, ITree::text("bare & <text>"), ITree::func("f", vec![])] {
            let compact = axml_xml::WriteOptions::compact();
            let mut out = String::new();
            tree.write_xml(&mut out).unwrap();
            assert_eq!(out, axml_xml::element_to_string(&tree.to_xml(), &compact));
        }
    }

    #[test]
    fn malformed_int_fun_rejected() {
        let bad = r#"<r xmlns:int="http://www.activexml.com/ns/int"><int:fun/></r>"#;
        let parsed = parse_document(bad).unwrap();
        assert!(ITree::from_xml(&parsed.root).is_err());

        let bad2 = r#"<r xmlns:int="http://www.activexml.com/ns/int">
            <int:fun methodName="f"><int:params><int:param/></int:params></int:fun></r>"#;
        let parsed = parse_document(bad2).unwrap();
        assert!(ITree::from_xml(&parsed.root).is_err());
    }
}
