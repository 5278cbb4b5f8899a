//! Streaming validation: check conformance while parsing, without
//! materializing a DOM.
//!
//! The validator runs one content-model DFA per open element (and one
//! input-type DFA per open `int:fun`), advancing on child events — the
//! same single pass a SAX-based implementation of the paper's module makes
//! (the authors' own parser was SAX-based, Sec. 7).
//!
//! Its verdicts are those of [`crate::validate`] on the tree
//! [`ITree::from_xml`](crate::ITree::from_xml) decodes from
//! `parse_document`: adjacent text events (a CDATA section next to plain
//! text, say) form one text child, and a comment or PI between them
//! splits it in two; text directly inside the `int:fun` wrappers is
//! ignored, as is text beside the one element of an `int:param`.

use crate::compile::{Compiled, CompiledContent};
use crate::def::SchemaError;
use crate::doc::{attribute, ITree, TreeBuilder, INT_NS};
use axml_automata::Dfa;
use axml_xml::{Event, Reader, XmlError};
use std::fmt;

enum Frame<'c> {
    /// Inside an element with a regular content model.
    Model {
        label: String,
        dfa: &'c Dfa,
        state: u32,
    },
    /// Inside an atomic (`data`) element: text children only.
    Data { label: String },
    /// Inside wildcard content: everything below is accepted.
    Skip { depth: usize },
    /// Inside an `int:fun` element: runs the input-type DFA over params.
    Fun {
        name: String,
        dfa: &'c Dfa,
        state: u32,
    },
    /// Inside `int:params`.
    Params,
    /// Inside one `int:param`: exactly one element, or else text.
    Param { element: bool, text: bool },
}

fn malformed(e: XmlError) -> SchemaError {
    SchemaError::Malformed {
        message: e.message,
        line: e.line,
        offset: e.offset,
    }
}

/// Validates the XML text of an intensional document against `compiled`
/// in a single streaming pass. Reading goes on to the end of the text,
/// which, past the root, may hold only comments, PIs and blanks.
pub fn validate_xml_stream(text: &str, compiled: &Compiled) -> Result<(), SchemaError> {
    read(text, compiled, |_| {}).map_err(|e| match e {
        ReadError::Invalid(e) => e,
        ReadError::Trailing(e) => malformed(e),
        ReadError::Decode(_) => unreachable!("reading alone decodes nothing"),
    })
}

/// Why [`read_validated`] refused a text, in the order it reports them:
/// first what the streaming validator finds up to the root's end tag,
/// then malformed text after it, then what [`ITree::from_xml`] cannot
/// decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The text up to the root's end tag is malformed, or not an instance
    /// of the schema.
    Invalid(SchemaError),
    /// The text after the root's end tag is malformed, as
    /// `parse_document` reports it.
    Trailing(XmlError),
    /// The `int:fun` markup does not decode, as [`ITree::from_xml`]
    /// reports it.
    Decode(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Invalid(e) => write!(f, "{e}"),
            ReadError::Trailing(e) => write!(f, "{e}"),
            ReadError::Decode(message) => f.write_str(message),
        }
    }
}

/// Validates the XML text of an intensional document against `compiled`
/// and builds its tree, in one pass and without a DOM: each event goes to
/// a [`StreamValidator`] and to a tree builder. It accepts what
/// [`validate_xml_stream`] accepts and `ITree::from_xml` decodes, and
/// builds the tree `ITree::from_xml(&parse_document(text)?.root)` builds;
/// a refusal is ranked as [`ReadError`] says. A text refused late has
/// been built up to where it was refused.
pub fn read_validated(text: &str, compiled: &Compiled) -> Result<ITree, ReadError> {
    let mut builder = TreeBuilder::default();
    read(text, compiled, |event| builder.feed(event))?;
    builder.finish().map_err(ReadError::Decode)
}

/// Reads `text` to its end: each event up to the root's end tag goes to a
/// [`StreamValidator`] and then to `each`; past the root only comments,
/// PIs and blanks may follow.
fn read<'a>(
    text: &'a str,
    compiled: &Compiled,
    mut each: impl FnMut(Event<'a>),
) -> Result<(), ReadError> {
    let mut reader = Reader::new(text);
    let mut validator = StreamValidator::new(compiled);
    loop {
        let event = reader
            .next_event()
            .map_err(|e| ReadError::Invalid(malformed(e)))?;
        let open = validator.feed(&event).map_err(ReadError::Invalid)?;
        each(event);
        if !open {
            break;
        }
    }
    while reader.next_event().map_err(ReadError::Trailing)? != Event::Eof {}
    Ok(())
}

/// Incremental validator; feed it pull-parser events.
pub struct StreamValidator<'c> {
    compiled: &'c Compiled,
    stack: Vec<Frame<'c>>,
    /// The top `Model` frame holds a text run with non-blank content
    /// that still awaits its data symbol.
    run: bool,
}

impl<'c> StreamValidator<'c> {
    /// Creates a validator over a compiled schema.
    pub fn new(compiled: &'c Compiled) -> Self {
        StreamValidator {
            compiled,
            stack: Vec::new(),
            run: false,
        }
    }

    fn invalid(message: impl Into<String>) -> SchemaError {
        SchemaError::Invalid {
            message: message.into(),
        }
    }

    /// Advances the innermost word consumer by one symbol.
    fn consume_symbol(&mut self, sym: axml_automata::Symbol) -> Result<(), SchemaError> {
        match self.stack.last_mut() {
            None => Ok(()), // the root itself is not part of any word
            Some(Frame::Skip { .. }) => Ok(()),
            Some(Frame::Model { label, dfa, state }) => {
                let next = dfa.next(*state, sym);
                if next == axml_automata::NO_STATE {
                    return Err(Self::invalid(format!(
                        "unexpected '{}' in content of '{label}'",
                        self.compiled.alphabet().name(sym)
                    )));
                }
                *state = next;
                Ok(())
            }
            Some(Frame::Data { label }) => Err(Self::invalid(format!(
                "'{label}' is atomic but has structured children"
            ))),
            Some(Frame::Fun { name, .. }) => Err(Self::invalid(format!(
                "only int:params is allowed directly inside the call to '{name}'"
            ))),
            Some(Frame::Params) => {
                Err(Self::invalid("only int:param is allowed inside int:params"))
            }
            Some(Frame::Param { element, .. }) => {
                if *element {
                    return Err(Self::invalid("int:param must hold a single tree"));
                }
                *element = true;
                self.consume_param(sym)
            }
        }
    }

    /// Advances the innermost open function's input word by one parameter.
    fn consume_param(&mut self, sym: axml_automata::Symbol) -> Result<(), SchemaError> {
        let fun_pos = self
            .stack
            .iter()
            .rposition(|f| matches!(f, Frame::Fun { .. }))
            .ok_or_else(|| Self::invalid("int:param outside int:fun"))?;
        if let Frame::Fun { name, dfa, state } = &mut self.stack[fun_pos] {
            let next = dfa.next(*state, sym);
            if next == axml_automata::NO_STATE {
                return Err(Self::invalid(format!(
                    "parameters of '{name}' do not match its input type"
                )));
            }
            *state = next;
        }
        Ok(())
    }

    /// Ends the pending text run: one data symbol for the whole run.
    fn end_run(&mut self) -> Result<(), SchemaError> {
        if std::mem::take(&mut self.run) {
            self.consume_symbol(self.compiled.data_sym())?;
        }
        Ok(())
    }

    /// Processes one event; returns `false` once the document is complete
    /// and valid.
    pub fn feed(&mut self, event: &Event) -> Result<bool, SchemaError> {
        if let Event::Text(t) = event {
            if !t.trim().is_empty() {
                match self.stack.last_mut() {
                    Some(Frame::Model { .. }) => self.run = true,
                    Some(Frame::Param { text, .. }) => *text = true,
                    _ => {}
                }
            }
            return Ok(true);
        }
        self.end_run()?;
        match event {
            Event::StartElement {
                name, attributes, ..
            } => {
                // The reader emits a synthetic EndElement after
                // self-closing tags, so frames are always pushed here and
                // always popped there.
                // Inside wildcard content everything is accepted.
                if let Some(Frame::Skip { depth }) = self.stack.last_mut() {
                    *depth += 1;
                    return Ok(true);
                }
                if name.matches(INT_NS, "fun") {
                    let method = attribute(attributes, "methodName")
                        .ok_or_else(|| Self::invalid("int:fun without methodName"))?;
                    let sym = self.compiled.classify_func(&method);
                    self.consume_symbol(sym)?;
                    let sig = self
                        .compiled
                        .sig(sym)
                        .expect("function symbols carry signatures");
                    self.stack.push(Frame::Fun {
                        name: method,
                        dfa: &sig.input_dfa,
                        state: sig.input_dfa.start,
                    });
                    return Ok(true);
                }
                if name.matches(INT_NS, "params") {
                    if !matches!(self.stack.last(), Some(Frame::Fun { .. })) {
                        return Err(Self::invalid("int:params outside int:fun"));
                    }
                    self.stack.push(Frame::Params);
                    return Ok(true);
                }
                if name.matches(INT_NS, "param") {
                    if !matches!(self.stack.last(), Some(Frame::Params)) {
                        return Err(Self::invalid("int:param outside int:params"));
                    }
                    self.stack.push(Frame::Param {
                        element: false,
                        text: false,
                    });
                    return Ok(true);
                }
                // An ordinary element.
                let sym = self.compiled.classify_label(&name.local);
                self.consume_symbol(sym)?;
                let content = self
                    .compiled
                    .content(sym)
                    .ok_or_else(|| Self::invalid(format!("unknown element '{}'", name.local)))?;
                let frame = match content {
                    CompiledContent::Data => Frame::Data {
                        label: name.local.clone(),
                    },
                    CompiledContent::Any => Frame::Skip { depth: 0 },
                    CompiledContent::Model { dfa, .. } => Frame::Model {
                        label: name.local.clone(),
                        dfa,
                        state: dfa.start,
                    },
                };
                self.stack.push(frame);
                Ok(true)
            }
            Event::EndElement { .. } => {
                match self.stack.last_mut() {
                    Some(Frame::Skip { depth }) if *depth > 0 => {
                        *depth -= 1;
                        return Ok(true);
                    }
                    _ => {}
                }
                let frame = self
                    .stack
                    .pop()
                    .ok_or_else(|| Self::invalid("unbalanced end element"))?;
                match frame {
                    Frame::Model { label, dfa, state } => {
                        if !dfa.finals[state as usize] {
                            return Err(Self::invalid(format!(
                                "children of '{label}' stop before the content model is satisfied"
                            )));
                        }
                    }
                    Frame::Fun { name, dfa, state } => {
                        if !dfa.finals[state as usize] {
                            return Err(Self::invalid(format!(
                                "parameters of '{name}' stop before the input type is satisfied"
                            )));
                        }
                    }
                    Frame::Param { element, text } => {
                        if !element {
                            if !text {
                                return Err(Self::invalid("empty int:param"));
                            }
                            self.consume_param(self.compiled.data_sym())?;
                        }
                    }
                    Frame::Data { .. } | Frame::Skip { .. } | Frame::Params => {}
                }
                Ok(!self.stack.is_empty())
            }
            Event::Text(_) | Event::Comment(_) | Event::Pi { .. } => Ok(true),
            Event::Eof => {
                if self.stack.is_empty() {
                    Ok(false)
                } else {
                    Err(Self::invalid("document ended with open elements"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{NoOracle, Schema};
    use crate::doc::{newspaper_example, ITree};
    use crate::generate::{generate_instance, GenConfig};
    use crate::validate::validate;
    use axml_support::rng::SeedableRng;

    fn paper_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
                .data_element("title")
                .data_element("date")
                .data_element("temp")
                .data_element("city")
                .element("exhibit", "title.(Get_Date|date)")
                .data_element("performance")
                .function("Get_Temp", "city", "temp")
                .function("TimeOut", "data", "(exhibit|performance)*")
                .function("Get_Date", "title", "date")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    #[test]
    fn streams_the_paper_document() {
        let c = paper_compiled();
        let xml = newspaper_example().to_xml().to_pretty_xml();
        validate_xml_stream(&xml, &c).unwrap();
    }

    #[test]
    fn agrees_with_dom_validation_on_random_instances() {
        let c = paper_compiled();
        let mut rng = axml_support::rng::StdRng::seed_from_u64(77);
        for _ in 0..100 {
            let doc = generate_instance(&c, "newspaper", &mut rng, &GenConfig::default()).unwrap();
            let xml = doc.to_xml().to_pretty_xml();
            assert!(validate(&doc, &c).is_ok());
            validate_xml_stream(&xml, &c)
                .unwrap_or_else(|e| panic!("stream rejected valid doc {doc}: {e}"));
        }
    }

    #[test]
    fn rejects_what_dom_validation_rejects() {
        let c = paper_compiled();
        // Wrong order.
        let bad = "<newspaper><date>d</date><title>t</title><temp>1</temp></newspaper>";
        assert!(validate_xml_stream(bad, &c).is_err());
        // Missing mandatory children.
        assert!(validate_xml_stream("<newspaper><title>t</title></newspaper>", &c).is_err());
        // Unknown element.
        assert!(validate_xml_stream("<mystery/>", &c).is_err());
        // Structured children under data element.
        assert!(validate_xml_stream("<newspaper><title><b>t</b></title></newspaper>", &c).is_err());
        // Empty element whose model demands content.
        assert!(validate_xml_stream("<newspaper/>", &c).is_err());
        // A second root after a valid one: the text does not parse.
        let two_roots = format!("{}<newspaper/>", newspaper_example().to_xml().to_xml());
        assert!(matches!(
            validate_xml_stream(&two_roots, &c),
            Err(SchemaError::Malformed { .. })
        ));
    }

    #[test]
    fn validates_function_parameters_in_stream() {
        let c = paper_compiled();
        // Get_Temp with a date parameter instead of city.
        let bad = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date>
            <int:fun methodName="Get_Temp">
              <int:params><int:param><date>x</date></int:param></int:params>
            </int:fun>
            <int:fun methodName="TimeOut">
              <int:params><int:param>all</int:param></int:params>
            </int:fun>
        </newspaper>"#;
        let err = validate_xml_stream(bad, &c).unwrap_err();
        assert!(err.to_string().contains("Get_Temp"), "{err}");
        // Same but correct city parameter.
        let good = bad.replace("<date>x</date>", "<city>Paris</city>");
        validate_xml_stream(&good, &c).unwrap();
        // One parameter text, however the parser splits it, and text the
        // DOM decoder drops: all valid, as `validate` on the parsed tree.
        for param in [
            "<int:param>ex<![CDATA[hib]]>its</int:param>",
            "<int:param>ex<!-- c -->hibits</int:param>",
            "stray<int:param>all</int:param>",
        ] {
            let doc = good.replace("<int:param>all</int:param>", param);
            let tree = ITree::from_xml(&axml_xml::parse_document(&doc).unwrap().root).unwrap();
            validate(&tree, &c).unwrap();
            validate_xml_stream(&doc, &c).unwrap_or_else(|e| panic!("{param}: {e}"));
        }
    }

    #[test]
    fn malformed_intensional_markup_rejected() {
        let c = paper_compiled();
        let no_method = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date><int:fun/></newspaper>"#;
        assert!(validate_xml_stream(no_method, &c).is_err());
        let stray_param = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date><temp>1</temp>
            <int:param><city>x</city></int:param></newspaper>"#;
        assert!(validate_xml_stream(stray_param, &c).is_err());
        let two_trees = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date>
            <int:fun methodName="Get_Temp">
              <int:params><int:param><city>a</city><city>b</city></int:param></int:params>
            </int:fun><temp>u</temp></newspaper>"#;
        assert!(validate_xml_stream(two_trees, &c).is_err());
    }

    #[test]
    fn wildcard_subtrees_skipped() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "blob.a")
                .any_element("blob")
                .data_element("a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let xml = "<r><blob><x><y>deep</y></x><z/></blob><a>1</a></r>";
        validate_xml_stream(xml, &c).unwrap();
        let dom = ITree::from_xml(&axml_xml::parse_document(xml).unwrap().root);
        assert_eq!(read_validated(xml, &c), Ok(dom.unwrap()));
        // The wildcard does not leak: 'a' is still required after blob.
        assert!(validate_xml_stream("<r><blob><x/></blob></r>", &c).is_err());
        // The validator accepts any markup below a wildcard, but the
        // decoder still reads calls there: one without `methodName` is
        // valid and does not decode, and the one-pass reader says so in
        // the decoder's words.
        let no_method = format!("<r><blob><int:fun xmlns:int=\"{INT_NS}\"/></blob><a>1</a></r>");
        validate_xml_stream(&no_method, &c).unwrap();
        let message = "int:fun element is missing methodName";
        let dom = ITree::from_xml(&axml_xml::parse_document(&no_method).unwrap().root);
        assert_eq!(dom, Err(message.to_owned()));
        assert_eq!(
            read_validated(&no_method, &c),
            Err(ReadError::Decode(message.to_owned()))
        );
    }
}
