//! Streaming bounded-memory schema enforcement.
//!
//! The DOM enforcement path ([`enforce_dom`]) parses the whole document,
//! decodes it into an [`ITree`], rewrites, and serializes — four
//! full-document materializations. This module drives the same
//! three-stage rewrite incrementally off the pull parser
//! ([`axml_xml::Reader`]) instead:
//!
//! * **Streaming copy.** Each open element carries a frame with its
//!   content-model DFA state (exactly like
//!   [`axml_schema::StreamValidator`]). Conforming extensional regions are
//!   re-emitted to the output sink as they are parsed — in the same compact
//!   normal form `ITree::to_xml` produces — and never buffered. Borrowed
//!   text spans whose escaped form equals the raw input span are written
//!   zero-copy and counted as `bytes_copied`; everything reconstructed
//!   (tags, re-escaped runs, spliced rewrites) counts as `bytes_rewritten`.
//!   The identity `bytes_copied + bytes_rewritten == bytes_out` always
//!   holds.
//! * **Detection-based materialization.** When an `int:fun` child appears
//!   under an element `P`, `P` enters *tail mode*: the remaining children
//!   are materialized into DOM form (with the exact normalization of
//!   [`axml_schema::forest_from_nodes`]) while the already-emitted prefix
//!   stays streamed. At `P`'s close the suffix is rewritten with
//!   `Rewriter::rewrite_suffix`: the game is built over `P`'s *full*
//!   children word (prefix symbols included, so it is the same `A_w^k`
//!   the DOM path solves, warm in the shared [`SolveCache`]), the prefix
//!   is advanced through forced letter moves, and only the tail items are
//!   executed. If [`Compiled::admits_functions`] says `P`'s content model
//!   admits function symbols and the element is already valid as parsed,
//!   the tail is spliced verbatim without games or invocations — mirroring
//!   the DOM validate-short-circuit. Inside wildcard (`Any`) content, only
//!   the `int:fun` subtree itself is materialized and re-serialized; no
//!   game is played, matching the DOM rewriter's verbatim copy.
//! * **Universal fallback.** Any anomaly — parse error, unknown label, a
//!   dead DFA move, malformed intensional markup, a failing suffix
//!   rewrite — abandons streaming, drops the output so far, and re-runs
//!   the DOM pipeline on the same input, so output bytes, typed errors,
//!   and leftmost-error-wins order are identical to [`enforce_dom`] by
//!   construction. A prefix that dies in the DFA is function-free, so the
//!   DOM rewriter could not have fixed it either (rewriting only changes
//!   the word at function positions); the fallback exists to reproduce
//!   the DOM error verbatim. Note that invocations performed before the
//!   anomaly are *not* undone: a stateful invoker may see calls repeated
//!   by the fallback run.
//!
//! Memory: besides the output string it returns, the engine holds the
//! frame stack of open elements (with one recorded child-symbol word per
//! open element) plus at most one in-flight materialized region.
//! [`StreamReport::peak_buffer_bytes`] reports the largest raw-input span
//! buffered for materialization; per-frame word recording is O(children
//! of open elements) and is not included in that figure.

use crate::invoke::Invoker;
use crate::rewrite::{RewriteError, RewriteReport, Rewriter, Strategy};
use crate::solve_cache::{SolveCache, TargetSlot};
use axml_automata::{Dfa, Symbol, NO_STATE};
use axml_schema::{forest_from_nodes, validate, words_of, Compiled, CompiledContent, ITree, INT_NS};
use axml_xml::{
    element_to_string, escape_text, parse_document, Attribute, Element, Event, Node, QName, Reader,
    StreamWriter, WriteOptions,
};
use std::borrow::Cow;

/// Options for streaming enforcement.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Depth bound `k` of the rewriting (Def. 7).
    pub k: u32,
    /// Safe or possible rewriting.
    pub strategy: Strategy,
    /// Shared solver cache; `None` uses a private unpublished cache, built
    /// only if a game is solved.
    pub cache: Option<SolveCache>,
}

impl StreamOptions {
    /// A rewriter at these options' depth, through their cache.
    fn rewriter<'c>(&self, compiled: &'c Compiled) -> Rewriter<'c> {
        let rw = Rewriter::new(compiled).with_k(self.k);
        match &self.cache {
            Some(cache) => rw.with_cache(cache),
            None => rw,
        }
    }
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            k: 2,
            strategy: Strategy::Safe,
            cache: None,
        }
    }
}

/// Statistics of one streaming enforcement run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Total bytes emitted.
    pub bytes_out: u64,
    /// Bytes written zero-copy from the input (borrowed text spans whose
    /// escaped form equals the raw span).
    pub bytes_copied: u64,
    /// Bytes reconstructed: tags, re-escaped text, spliced rewrites, and
    /// the whole output on fallback. `bytes_copied + bytes_rewritten ==
    /// bytes_out` always holds.
    pub bytes_rewritten: u64,
    /// Number of subtree regions materialized into DOM form.
    pub subtrees_materialized: u64,
    /// Peak raw-input bytes buffered for an in-flight materialized region.
    pub peak_buffer_bytes: u64,
    /// Whether the engine abandoned streaming and re-ran the DOM pipeline.
    pub fell_back: bool,
    /// Invocation and game statistics of the rewriting work performed.
    pub rewrite: RewriteReport,
}

/// The engine met an anomaly: abandon streaming and re-run the DOM
/// pipeline, whose verdict the caller gets (parity fallback).
struct Fallback;

/// An invoker that may not exist yet: purely extensional documents never
/// pay for constructing one.
enum Inv<'x, 'i> {
    Ready(&'x mut dyn Invoker),
    Lazy {
        make: &'x mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
        built: Option<Box<dyn Invoker + Send + 'i>>,
    },
}

impl Inv<'_, '_> {
    fn get(&mut self) -> &mut dyn Invoker {
        match self {
            Inv::Ready(i) => &mut **i,
            Inv::Lazy { make, built } => {
                if built.is_none() {
                    *built = Some(make());
                }
                &mut **built.as_mut().expect("just built")
            }
        }
    }
}

/// A pending text run, merged across adjacent text events the way
/// `parse_document` merges adjacent text nodes. Stays borrowed as long as
/// it is a single unescaped span of the input (the zero-copy case).
enum Run<'a> {
    None,
    Borrowed(&'a str),
    Owned(String),
}

impl<'a> Run<'a> {
    fn push(&mut self, t: Cow<'a, str>) {
        *self = match std::mem::replace(self, Run::None) {
            Run::None => match t {
                Cow::Borrowed(s) => Run::Borrowed(s),
                Cow::Owned(s) => Run::Owned(s),
            },
            Run::Borrowed(p) => {
                let mut s = String::with_capacity(p.len() + t.len());
                s.push_str(p);
                s.push_str(&t);
                Run::Owned(s)
            }
            Run::Owned(mut p) => {
                p.push_str(&t);
                Run::Owned(p)
            }
        };
    }

    fn take(&mut self) -> Run<'a> {
        std::mem::replace(self, Run::None)
    }
}

/// Per-open-element state.
enum Kind<'c> {
    /// Regular content model: DFA advanced per child symbol.
    Model {
        sym: Symbol,
        dfa: &'c Dfa,
        state: u32,
    },
    /// Atomic content: text children only.
    Data,
    /// Wildcard content: children stream without validation.
    Any,
}

struct Frame<'c, 'a> {
    label: String,
    kind: Kind<'c>,
    /// Child symbols consumed so far — the streamed prefix word, needed
    /// when a later `int:fun` child forces a suffix rewrite.
    word: Vec<Symbol>,
    run: Run<'a>,
}

enum TailKind {
    /// Remaining children of the owning element (suffix rewrite at close).
    Suffix,
    /// A single `int:fun` subtree inside wildcard content.
    FunRegion,
}

/// An in-flight materialized region, built with `parse_document`'s exact
/// merge rules so `forest_from_nodes` normalizes identically to the DOM
/// path.
struct Tail {
    kind: TailKind,
    start_pos: usize,
    nodes: Vec<Node>,
    open: Vec<Element>,
}

struct Engine<'c, 'a, 'r> {
    compiled: &'c Compiled,
    reader: Reader<'a>,
    writer: StreamWriter,
    stack: Vec<Frame<'c, 'a>>,
    tail: Option<Tail>,
    report: &'r mut StreamReport,
}

impl<'c, 'a> Engine<'c, 'a, '_> {
    fn run(
        &mut self,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Fallback> {
        loop {
            let ev = self.reader.next_event().map_err(|_| Fallback)?;
            if self.tail.is_some() {
                self.feed_tail(ev, rw, strategy, inv)?;
                continue;
            }
            match ev {
                Event::StartElement {
                    name,
                    attributes,
                    ns_decls,
                    ..
                } => self.on_start(name, attributes, ns_decls)?,
                Event::EndElement { .. } => self.on_end()?,
                Event::Text(t) => {
                    if let Some(top) = self.stack.last_mut() {
                        top.run.push(t);
                    }
                }
                // Comments and PIs vanish from the normal form but break
                // text-run adjacency, exactly like the DOM builder.
                Event::Comment(_) | Event::Pi { .. } => self.finalize_run()?,
                Event::Eof => return Ok(()),
            }
        }
    }

    fn on_start(
        &mut self,
        name: QName,
        attributes: Vec<Attribute>,
        ns_decls: Vec<(String, String)>,
    ) -> Result<(), Fallback> {
        self.finalize_run()?;
        let is_fun = name.matches(INT_NS, "fun");
        enum Top {
            Root,
            Any,
            Data,
            Model,
        }
        let top = match self.stack.last() {
            None => Top::Root,
            Some(f) => match f.kind {
                Kind::Any => Top::Any,
                Kind::Data => Top::Data,
                Kind::Model { .. } => Top::Model,
            },
        };
        match top {
            // An atomic element with element children, or a call at the
            // document root.
            Top::Data => return Err(Fallback),
            Top::Root if is_fun => return Err(Fallback),
            Top::Any | Top::Model if is_fun => {
                let kind = if matches!(top, Top::Any) {
                    TailKind::FunRegion
                } else {
                    TailKind::Suffix
                };
                self.tail = Some(Tail {
                    kind,
                    start_pos: self.reader.pos(),
                    nodes: Vec::new(),
                    open: vec![Element {
                        name,
                        attributes,
                        ns_decls,
                        children: Vec::new(),
                    }],
                });
                return Ok(());
            }
            _ => {}
        }
        // An ordinary element child: advance the parent's DFA (if any),
        // then open its own frame.
        if let Some(Frame {
            kind: Kind::Model { dfa, state, .. },
            word,
            ..
        }) = self.stack.last_mut()
        {
            let sym = self.compiled.classify_label(&name.local);
            let next = dfa.next(*state, sym);
            if next == NO_STATE {
                return Err(Fallback);
            }
            *state = next;
            word.push(sym);
        }
        let frame = match top {
            // Wildcard content is copied without classification; unknown
            // labels are fine there, as in the DOM path.
            Top::Any => Frame {
                label: name.local.clone(),
                kind: Kind::Any,
                word: Vec::new(),
                run: Run::None,
            },
            _ => self.open_frame(&name.local)?,
        };
        let n = self.writer.start(&name.local);
        self.report.bytes_rewritten += n as u64;
        self.stack.push(frame);
        Ok(())
    }

    fn open_frame(&self, label: &str) -> Result<Frame<'c, 'a>, Fallback> {
        let sym = self.compiled.classify_label(label);
        let kind = match self.compiled.content(sym) {
            None => return Err(Fallback),
            Some(CompiledContent::Data) => Kind::Data,
            Some(CompiledContent::Any) => Kind::Any,
            Some(CompiledContent::Model { dfa, .. }) => Kind::Model {
                sym,
                dfa,
                state: dfa.start,
            },
        };
        Ok(Frame {
            label: label.to_owned(),
            kind,
            word: Vec::new(),
            run: Run::None,
        })
    }

    fn on_end(&mut self) -> Result<(), Fallback> {
        self.finalize_run()?;
        let frame = self.stack.pop().expect("reader guarantees balanced tags");
        if let Kind::Model { dfa, state, .. } = frame.kind {
            // The children stop before the content model is satisfied.
            if !dfa.finals[state as usize] {
                return Err(Fallback);
            }
        }
        let n = self.writer.end(&frame.label);
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }

    /// Flushes the pending text run of the top frame: trim, drop when
    /// whitespace-only, otherwise consume a data symbol and emit the
    /// escaped text (zero-copy when the span is borrowed and clean).
    fn finalize_run(&mut self) -> Result<(), Fallback> {
        let Some(top) = self.stack.last_mut() else {
            return Ok(());
        };
        let (text, borrowed): (Cow<'a, str>, bool) = match top.run.take() {
            Run::None => return Ok(()),
            Run::Borrowed(s) => (Cow::Borrowed(s), true),
            Run::Owned(s) => (Cow::Owned(s), false),
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        if let Kind::Model { dfa, state, .. } = &mut top.kind {
            let data = self.compiled.data_sym();
            let next = dfa.next(*state, data);
            if next == NO_STATE {
                return Err(Fallback);
            }
            *state = next;
            top.word.push(data);
        }
        let escaped = escape_text(trimmed);
        let zero_copy = borrowed && matches!(escaped, Cow::Borrowed(_));
        let n = self.writer.raw(&escaped);
        let text_len = escaped.len() as u64;
        if zero_copy {
            self.report.bytes_copied += text_len;
        } else {
            self.report.bytes_rewritten += text_len;
        }
        // A lazily-closed `>` may precede the span; it is reconstruction.
        self.report.bytes_rewritten += n as u64 - text_len;
        Ok(())
    }

    fn feed_tail(
        &mut self,
        ev: Event<'a>,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Fallback> {
        let tail = self.tail.as_mut().expect("in tail mode");
        match ev {
            Event::StartElement {
                name,
                attributes,
                ns_decls,
                ..
            } => {
                tail.open.push(Element {
                    name,
                    attributes,
                    ns_decls,
                    children: Vec::new(),
                });
            }
            Event::EndElement { .. } => match tail.open.pop() {
                Some(done) => match tail.open.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => {
                        tail.nodes.push(Node::Element(done));
                        if matches!(tail.kind, TailKind::FunRegion) {
                            return self.finish_fun_region();
                        }
                    }
                },
                // The owning element itself closes: rewrite the suffix.
                None => return self.finish_suffix(rw, strategy, inv),
            },
            Event::Text(t) => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                if let Some(Node::Text(prev)) = list.last_mut() {
                    prev.push_str(&t);
                } else if !t.trim().is_empty() {
                    list.push(Node::Text(t.into_owned()));
                }
            }
            Event::Comment(c) => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                list.push(Node::Comment(c.to_owned()));
            }
            Event::Pi { target, data } => {
                let list = match tail.open.last_mut() {
                    Some(e) => &mut e.children,
                    None => &mut tail.nodes,
                };
                list.push(Node::Pi {
                    target: target.to_owned(),
                    data: data.to_owned(),
                });
            }
            // The input ended inside a materialized region.
            Event::Eof => return Err(Fallback),
        }
        Ok(())
    }

    fn account_region(&mut self, start_pos: usize) {
        self.report.subtrees_materialized += 1;
        let span = self.reader.pos().saturating_sub(start_pos) as u64;
        if span > self.report.peak_buffer_bytes {
            self.report.peak_buffer_bytes = span;
        }
    }

    /// An `int:fun` inside wildcard content: decode just the call subtree
    /// and splice its canonical serialization — the DOM rewriter copies
    /// `Any` content verbatim, no game is played.
    fn finish_fun_region(&mut self) -> Result<(), Fallback> {
        let tail = self.tail.take().expect("in tail mode");
        self.account_region(tail.start_pos);
        let Some(Node::Element(e)) = tail.nodes.last() else {
            return Err(Fallback);
        };
        let t = ITree::from_xml(e).map_err(|_| Fallback)?;
        let s = serialize_item(&t);
        let n = self.writer.raw(&s);
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }

    /// The owning element of a suffix tail closes: decode the tail,
    /// short-circuit when the element is already valid and its content
    /// model admits functions, otherwise run the suffix rewrite.
    fn finish_suffix(
        &mut self,
        rw: &mut Rewriter<'c>,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(), Fallback> {
        let tail = self.tail.take().expect("in tail mode");
        self.account_region(tail.start_pos);
        let frame = self.stack.pop().expect("suffix tail has an owner frame");
        let Kind::Model { sym, dfa, state } = frame.kind else {
            return Err(Fallback);
        };
        let items = forest_from_nodes(&tail.nodes).map_err(|_| Fallback)?;
        let tail_word = words_of(&items, self.compiled).expect("words_of is total");
        // Validate-tail-first: when the content model admits function
        // symbols and the element is valid as parsed, splice the tail
        // verbatim — the DOM path would have short-circuited too.
        let mut shortcut = false;
        if self.compiled.admits_functions(sym) {
            let mut st = state;
            let mut alive = true;
            for &s in &tail_word {
                st = dfa.next(st, s);
                if st == NO_STATE {
                    alive = false;
                    break;
                }
            }
            shortcut = alive
                && dfa.finals[st as usize]
                && items.iter().all(|t| validate(t, self.compiled).is_ok());
        }
        let out: Vec<ITree> = if shortcut {
            items
        } else {
            rw.rewrite_suffix(
                &frame.word,
                &items,
                TargetSlot::Content(sym),
                &frame.label,
                strategy,
                inv.get(),
                &mut self.report.rewrite,
            )
            .map_err(|_| Fallback)?
        };
        for t in &out {
            let s = serialize_item(t);
            let n = self.writer.raw(&s);
            self.report.bytes_rewritten += n as u64;
        }
        let n = self.writer.end(&frame.label);
        self.report.bytes_rewritten += n as u64;
        Ok(())
    }
}

/// Serializes one rewritten item in the compact normal form the DOM path
/// emits (`element_to_string` of `ITree::to_xml`; bare text is escaped).
fn serialize_item(t: &ITree) -> String {
    match t {
        ITree::Text(s) => escape_text(s).into_owned(),
        other => element_to_string(&other.to_xml(), &WriteOptions::compact()),
    }
}

fn publish(report: &StreamReport) {
    let m = axml_obs::global();
    m.counter("enforce.stream.runs").inc();
    m.counter("enforce.stream.bytes_out").add(report.bytes_out);
    m.counter("enforce.stream.bytes_copied").add(report.bytes_copied);
    m.counter("enforce.stream.bytes_rewritten")
        .add(report.bytes_rewritten);
    m.counter("enforce.stream.subtrees_materialized")
        .add(report.subtrees_materialized);
    let fallbacks = m.counter("enforce.stream.fallbacks");
    if report.fell_back {
        fallbacks.inc();
    }
    m.gauge("enforce.stream.peak_buffer_bytes")
        .set(report.peak_buffer_bytes as i64);
}

/// The DOM reference pipeline: parse → decode → enforce → serialize in the
/// compact normal form. Streaming enforcement is byte-identical to this
/// (and falls back to it on any anomaly); tests, benches, and CI gates
/// compare against it directly.
pub fn enforce_dom<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, RewriteReport), RewriteError> {
    let mut inv = Inv::Lazy {
        make: make_invoker,
        built: None,
    };
    opts.rewriter(compiled).dom(input, opts.strategy, &mut inv)
}

/// Enforces the schema over the XML text of an intensional document in a
/// single streaming pass, returning the serialized result and a
/// [`StreamReport`].
///
/// Output is byte-identical to [`enforce_dom`] with the same options, and
/// error cases surface the identical typed [`RewriteError`]: the engine
/// re-runs the DOM pipeline on any anomaly (see the module docs; the
/// output buffer makes the fallback invisible to the caller).
///
/// `make_invoker` is only called when a rewrite actually needs to invoke —
/// purely extensional documents never construct an invoker (the DOM
/// fallback may call it again; stateful invokers can observe repeated
/// calls, see the module docs).
pub fn enforce_stream<'i>(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    make_invoker: &mut dyn FnMut() -> Box<dyn Invoker + Send + 'i>,
) -> Result<(String, StreamReport), RewriteError> {
    let mut inv = Inv::Lazy {
        make: make_invoker,
        built: None,
    };
    enforce_stream_buffered(compiled, input, opts, &mut inv)
}

/// Like [`enforce_stream`], but materializing calls through a borrowed
/// [`Invoker`] instead of a factory. The DOM fallback reuses that same
/// invoker (the factory form hands the fallback a fresh one).
pub fn enforce_stream_with(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    invoker: &mut dyn Invoker,
) -> Result<(String, StreamReport), RewriteError> {
    let mut inv = Inv::Ready(invoker);
    enforce_stream_buffered(compiled, input, opts, &mut inv)
}

fn enforce_stream_buffered(
    compiled: &Compiled,
    input: &str,
    opts: &StreamOptions,
    inv: &mut Inv<'_, '_>,
) -> Result<(String, StreamReport), RewriteError> {
    let mut report = StreamReport::default();
    // The streaming attempt and its DOM fallback solve through one cache.
    let mut rw = opts.rewriter(compiled);
    let mut eng = Engine {
        compiled,
        reader: Reader::new(input),
        writer: StreamWriter::default(),
        stack: Vec::new(),
        tail: None,
        report: &mut report,
    };
    let result = match eng.run(&mut rw, opts.strategy, inv) {
        Ok(()) => Ok(eng.writer.into_string()),
        Err(Fallback) => {
            report.fell_back = true;
            report.bytes_copied = 0;
            report.bytes_rewritten = 0;
            let dom = match inv {
                // The factory form hands the fallback a fresh invoker.
                Inv::Lazy { make, .. } => {
                    let mut fresh = Inv::Lazy {
                        make: &mut **make,
                        built: None,
                    };
                    rw.dom(input, opts.strategy, &mut fresh)
                }
                Inv::Ready(_) => rw.dom(input, opts.strategy, inv),
            };
            dom.map(|(out, rep)| {
                report.bytes_rewritten = out.len() as u64;
                report.rewrite = rep;
                out
            })
        }
    };
    if let Ok(out) = &result {
        report.bytes_out = out.len() as u64;
    }
    publish(&report);
    result.map(|out| (out, report))
}

impl<'c> Rewriter<'c> {
    /// The DOM pipeline with this rewriter's configuration (`k`, cache,
    /// call budget): parse, validate-or-rewrite, serialize in the compact
    /// normal form. [`enforce_dom`] runs it, and the streaming engine
    /// falls back to it.
    fn dom(
        &mut self,
        input: &str,
        strategy: Strategy,
        inv: &mut Inv<'_, '_>,
    ) -> Result<(String, RewriteReport), RewriteError> {
        let doc = parse_document(input).map_err(|e| RewriteError::Invalid(e.to_string()))?;
        let tree = ITree::from_xml(&doc.root).map_err(RewriteError::Invalid)?;
        let (out, rep) = self.enforce(&tree, strategy, inv.get())?;
        Ok((element_to_string(&out.to_xml(), &WriteOptions::compact()), rep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::ScriptedInvoker;
    use axml_schema::{NoOracle, Schema};

    fn compiled(root_model: &str) -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", root_model)
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

    /// Schema (*): calls admitted where they stand.
    fn star() -> Compiled {
        compiled("title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
    }

    /// Schema (**): temp must be materialized, TimeOut may stay.
    fn star_star() -> Compiled {
        compiled("title.date.temp.(TimeOut|exhibit*)")
    }

    fn scripted() -> Box<dyn Invoker + Send> {
        Box::new(
            ScriptedInvoker::new()
                .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
                .answer("Get_Date", vec![ITree::data("date", "04/10/2002")]),
        )
    }

    fn paper_xml() -> String {
        axml_schema::newspaper_example().to_xml().to_pretty_xml()
    }

    fn both(c: &Compiled, input: &str, opts: &StreamOptions) -> (String, StreamReport) {
        let (dom, dom_rep) = enforce_dom(c, input, opts, &mut || scripted()).unwrap();
        let (out, rep) = enforce_stream(c, input, opts, &mut || scripted()).unwrap();
        assert_eq!(out, dom, "streaming and DOM outputs differ");
        assert_eq!(
            rep.rewrite.invoked, dom_rep.invoked,
            "invocation lists differ"
        );
        assert_eq!(
            rep.bytes_copied + rep.bytes_rewritten,
            rep.bytes_out,
            "byte accounting identity broken"
        );
        (out, rep)
    }

    #[test]
    fn extensional_document_streams_zero_copy() {
        let c = star_star();
        let input =
            "<newspaper><title>The Daily Moon</title><date>04/10/2002</date><temp>15 C</temp>\
             </newspaper>";
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("<temp>15 C</temp>"));
        assert!(!rep.fell_back);
        assert_eq!(rep.subtrees_materialized, 0);
        assert_eq!(rep.peak_buffer_bytes, 0);
        assert!(rep.bytes_copied > 0, "text spans should be zero-copy");
        assert!(rep.rewrite.invoked.is_empty());
    }

    #[test]
    fn suffix_rewrite_materializes_required_call() {
        let c = star_star();
        let input = paper_xml();
        let (out, rep) = both(&c, &input, &StreamOptions { k: 1, ..StreamOptions::default() });
        assert!(out.contains("<temp>15 C</temp>"), "{out}");
        assert!(out.contains("methodName=\"TimeOut\""), "{out}");
        assert!(!rep.fell_back);
        assert_eq!(rep.rewrite.invoked, vec!["Get_Temp".to_owned()]);
        assert_eq!(rep.subtrees_materialized, 1);
        assert!(rep.peak_buffer_bytes > 0);
    }

    #[test]
    fn admitted_calls_shortcut_without_invocation() {
        let c = star();
        let input = paper_xml();
        let (out, rep) = both(&c, &input, &StreamOptions::default());
        assert!(out.contains("methodName=\"Get_Temp\""), "{out}");
        assert!(!rep.fell_back);
        assert!(rep.rewrite.invoked.is_empty());
        assert_eq!(rep.rewrite.games, 0, "shortcut must not build games");
    }

    #[test]
    fn invalid_document_falls_back_with_identical_error() {
        let c = star_star();
        let opts = StreamOptions::default();
        // Wrong child order (function-free and invalid), and an unknown
        // root that falls back before a byte is written.
        for input in [
            "<newspaper><date>d</date><title>t</title><temp>1</temp></newspaper>",
            "<mystery/>",
        ] {
            let dom_err = enforce_dom(&c, input, &opts, &mut || scripted()).unwrap_err();
            let err = enforce_stream(&c, input, &opts, &mut || scripted()).unwrap_err();
            assert_eq!(err.to_string(), dom_err.to_string());
            assert_eq!(err, dom_err);
        }
    }

    #[test]
    fn parse_error_falls_back_with_identical_error() {
        let c = star_star();
        let input = "<newspaper><title>t</title>";
        let opts = StreamOptions::default();
        let dom_err = enforce_dom(&c, input, &opts, &mut || scripted()).unwrap_err();
        let err = enforce_stream(&c, input, &opts, &mut || scripted()).unwrap_err();
        assert_eq!(err, dom_err);
    }

    #[test]
    fn possible_strategy_matches_dom() {
        let c = star_star();
        let input = paper_xml();
        let opts = StreamOptions {
            k: 1,
            strategy: Strategy::Possible,
            ..StreamOptions::default()
        };
        let (out, _rep) = both(&c, &input, &opts);
        assert!(out.contains("<temp>15 C</temp>"), "{out}");
    }

    #[test]
    fn wildcard_content_streams_and_keeps_calls() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "blob.a")
                .any_element("blob")
                .data_element("a")
                .function("F", "a", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let input = r#"<r><blob><x note="kept-nowhere"><y>deep</y></x><int:fun
            xmlns:int="http://www.activexml.com/ns/int" methodName="F"><int:params>
            <int:param><a>1</a></int:param></int:params></int:fun></blob><a>2</a></r>"#;
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("methodName=\"F\""), "{out}");
        assert!(!out.contains("note="), "attributes are normalized away");
        assert!(!rep.fell_back);
        assert_eq!(rep.subtrees_materialized, 1);
        assert!(rep.rewrite.invoked.is_empty());
    }

    #[test]
    fn mixed_runs_comments_and_cdata_normalize_like_dom() {
        let c = star_star();
        let input = "<newspaper>\n  <title>a &amp; b<!-- note --><![CDATA[ <raw> ]]></title>\n\
                     <date>d</date><temp>1</temp></newspaper>";
        let (out, rep) = both(&c, input, &StreamOptions::default());
        assert!(out.contains("a &amp; b"), "{out}");
        assert!(out.contains("&lt;raw&gt;"), "{out}");
        assert!(!rep.fell_back);
    }
}
