//! Streaming enforcement is observationally identical to the DOM pipeline.
//!
//! The streaming enforcer (`axml_core::stream`) promises byte-identical
//! output and identical typed errors for every document × schema ×
//! strategy combination — that is the contract that lets senders always
//! stream. This suite drives the promise:
//!
//! * a property sweeping random intensional newspapers (0–4 embedded
//!   calls, optional stray elements, pretty-printed or compact input)
//!   across the paper's three exchange schemas and both strategies,
//!   checking output bytes, invocation lists, typed errors, and the
//!   `bytes_copied + bytes_rewritten == bytes_out` accounting identity;
//! * a property holding the streaming validator receivers run to the
//!   verdict of DOM validation, over the same newspapers and textual
//!   mutations of them;
//! * pinned regressions for error ordering (leftmost error wins) and the
//!   error taxonomy surviving the fallback;
//! * a transport-matrix case shipping a streamed-enforced document across
//!   both network engines (blocking threads and the poll loop) and
//!   checking the receiver stores what the DOM pipeline produces.

use axml::core::invoke::{Invoker, ScriptedInvoker};
use axml::core::rewrite::{RewriteError, Strategy as RwStrategy};
use axml::core::stream::{enforce_dom, enforce_stream, enforce_stream_with, StreamOptions};
use axml::peer::{NetInvoker, NetPeer, Peer, Query, RemotePeer};
use axml::schema::{validate, validate_xml_stream, Compiled, ITree, NoOracle, Schema};
use axml::services::{Registry, ServiceDef};
use axml_support::prelude::*;
use std::sync::Arc;

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

/// The paper's three exchange schemas: (*) keeps calls where they stand,
/// (**) forces the temperature to materialize, (***) forces everything.
const MODELS: [&str; 3] = [
    "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
    "title.date.temp.(TimeOut|exhibit*)",
    "title.date.temp.(exhibit|performance)*",
];

fn scripted() -> ScriptedInvoker {
    ScriptedInvoker::new()
        .answer("Get_Temp", vec![ITree::data("temp", "15 C")])
        .answer(
            "TimeOut",
            vec![ITree::elem(
                "exhibit",
                vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
            )],
        )
        .answer("Get_Date", vec![ITree::data("date", "04/10/2002")])
}

/// Texts that exercise escaping, trimming, and whitespace-only runs.
fn text_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("The Daily Moon".to_owned()),
        Just("a & b".to_owned()),
        Just("x<y>z".to_owned()),
        Just("  padded  ".to_owned()),
        Just("04/10/2002".to_owned()),
        "[a-z]{1,8}".prop_map(|s| s),
    ]
}

fn exhibit_strategy() -> impl Strategy<Value = ITree> {
    (text_strategy(), (0u32..2).prop_map(|b| b == 1)).prop_map(|(t, lazy)| {
        let date = if lazy {
            ITree::func("Get_Date", vec![ITree::data("title", &t)])
        } else {
            ITree::data("date", "Mon")
        };
        ITree::elem("exhibit", vec![ITree::data("title", &t), date])
    })
}

/// Random newspapers: sometimes valid, sometimes missing parts, with
/// 0–4 embedded calls and (rarely) a stray element the schema does not
/// know — both error parity and success parity matter.
fn newspaper_strategy() -> impl Strategy<Value = ITree> {
    let temp = prop_oneof![
        Just(None),
        Just(Some(ITree::data("temp", "15 C"))),
        Just(Some(ITree::func(
            "Get_Temp",
            vec![ITree::data("city", "Paris")]
        ))),
    ];
    let tail = prop_oneof![
        Just(Vec::new()),
        Just(vec![ITree::func("TimeOut", vec![ITree::text("exhibits")])]),
        prop::collection::vec(exhibit_strategy(), 1..3),
    ];
    (
        text_strategy(),
        (0u32..2).prop_map(|b| b == 1),
        temp,
        tail,
        0u32..20,
    )
        .prop_map(|(title, with_date, temp, tail, stray)| {
            let mut children = vec![ITree::data("title", &title)];
            if with_date {
                children.push(ITree::data("date", "04/10/2002"));
            }
            if let Some(t) = temp {
                children.push(t);
            }
            children.extend(tail);
            if stray == 0 {
                children.push(ITree::elem("mystery", vec![]));
            }
            ITree::elem("newspaper", children)
        })
}

/// Renders a document the way a peer on the wire might: compact or
/// indented (indentation exercises whitespace-run dropping).
fn render(doc: &ITree, pretty: bool) -> String {
    let xml = doc.to_xml();
    if pretty {
        xml.to_pretty_xml()
    } else {
        axml::xml::element_to_string(&xml, &axml::xml::WriteOptions::compact())
    }
}

/// The core parity check: identical bytes on success, identical typed
/// error on failure, invocation-list parity, byte-accounting identity.
fn assert_parity(compiled: &Compiled, input: &str, strategy: RwStrategy, k: u32) {
    let opts = StreamOptions {
        k,
        strategy,
        ..StreamOptions::default()
    };
    let dom = enforce_dom(compiled, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    });
    let stream = enforce_stream(compiled, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    });
    match (dom, stream) {
        (Ok((dom_out, dom_rep)), Ok((out, rep))) => {
            assert_eq!(out, dom_out, "output bytes diverge");
            assert_eq!(
                rep.rewrite.invoked, dom_rep.invoked,
                "invocation lists diverge"
            );
            assert_eq!(
                rep.bytes_copied + rep.bytes_rewritten,
                rep.bytes_out,
                "byte accounting identity broken"
            );
            assert_eq!(rep.bytes_out, out.len() as u64, "bytes_out miscounted");
        }
        (Err(dom_err), Err(err)) => {
            assert_eq!(err, dom_err, "typed errors diverge");
            assert_eq!(err.to_string(), dom_err.to_string());
        }
        (dom, stream) => panic!(
            "verdicts diverge: dom={:?} stream={:?}",
            dom.map(|(o, _)| o),
            stream.map(|(o, _)| o)
        ),
    }
}

/// Where `xml` can be split without touching markup or an entity: one
/// cut per non-blank text run, before a literal character with non-blank
/// text on either side. Yields (cut, end of that character).
fn text_cuts(xml: &str) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut run_start = None;
    for (i, b) in xml.bytes().enumerate() {
        match b {
            b'>' => run_start = Some(i + 1),
            b'<' => {
                let Some(start) = run_start.take() else {
                    continue;
                };
                let run = &xml[start..i];
                let mut in_entity = false;
                for (j, ch) in run.char_indices() {
                    let plain = !in_entity && ch != '&';
                    in_entity = (in_entity || ch == '&') && ch != ';';
                    let end = j + ch.len_utf8();
                    if plain
                        && !ch.is_whitespace()
                        && !run[..j].trim().is_empty()
                        && !run[end..].trim().is_empty()
                    {
                        cuts.push((start + j, start + end));
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    cuts
}

/// Positions between two tags, where only blank text (if any) stands.
fn tag_gaps(xml: &str) -> Vec<usize> {
    let mut gaps = Vec::new();
    for (i, b) in xml.bytes().enumerate() {
        if b == b'>' {
            if let Some(next) = xml[i + 1..].find('<') {
                if xml[i + 1..i + 1 + next].trim().is_empty() {
                    gaps.push(i + 1);
                }
            }
        }
    }
    gaps
}

/// Byte ranges of the elements that hold no element: `<x>text</x>` or
/// `<x/>`.
fn leaf_elements(xml: &str) -> Vec<(usize, usize)> {
    let mut leaves = Vec::new();
    for (i, _) in xml.match_indices('<') {
        if !xml[i + 1..].starts_with(|c: char| c.is_alphabetic()) {
            continue;
        }
        let Some(gt) = xml[i..].find('>').map(|g| i + g) else {
            continue;
        };
        if xml[..gt].ends_with('/') {
            leaves.push((i, gt + 1));
            continue;
        }
        let name = xml[i + 1..gt].split(' ').next().unwrap_or_default();
        let close = format!("</{name}>");
        if let Some(lt) = xml[gt + 1..].find('<').map(|l| gt + 1 + l) {
            if xml[lt..].starts_with(&close) {
                leaves.push((i, lt + close.len()));
            }
        }
    }
    leaves
}

/// Textual mutations of a rendered document: each text run split by a
/// CDATA section and by a comment; blank runs, blank CDATA and an unknown
/// element between every two tags; each call without its `methodName`;
/// each leaf element dropped.
fn mutations(xml: &str) -> Vec<String> {
    let splice = |at: usize, to: usize, with: &str| format!("{}{with}{}", &xml[..at], &xml[to..]);
    let mut out = Vec::new();
    for (cut, end) in text_cuts(xml) {
        out.push(splice(cut, end, &format!("<![CDATA[{}]]>", &xml[cut..end])));
        out.push(splice(cut, cut, "<!-- split -->"));
    }
    for gap in tag_gaps(xml) {
        for filler in ["\n   ", "<![CDATA[  ]]>", "<mystery/>"] {
            out.push(splice(gap, gap, filler));
        }
    }
    for (at, attr) in xml.match_indices(" methodName=\"") {
        let value = at + attr.len();
        if let Some(quote) = xml[value..].find('"') {
            out.push(splice(at, value + quote + 1, ""));
        }
    }
    for (at, end) in leaf_elements(xml) {
        out.push(splice(at, end, ""));
    }
    out
}

/// DOM validation of the tree `parse_document` and `ITree::from_xml`
/// build: the reference for the streaming validator.
fn dom_accepts(text: &str, compiled: &Compiled) -> bool {
    axml::xml::parse_document(text)
        .ok()
        .and_then(|d| ITree::from_xml(&d.root).ok())
        .is_some_and(|t| validate(&t, compiled).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random documents × the three paper schemas × both strategies ×
    /// both renderings: streaming ≡ DOM, byte for byte, error for error.
    #[test]
    fn stream_parity(doc in newspaper_strategy(), pretty in (0u32..2).prop_map(|b| b == 1)) {
        for model in MODELS {
            let c = compiled(model);
            for strategy in [RwStrategy::Safe, RwStrategy::Possible] {
                let input = render(&doc, pretty);
                assert_parity(&c, &input, strategy, 1);
            }
        }
    }

    /// The streaming validator receivers run reaches the verdict of DOM
    /// validation, on each newspaper and on every mutation of it.
    #[test]
    fn validator_verdicts_match_dom(doc in newspaper_strategy(), pretty in (0u32..2).prop_map(|b| b == 1)) {
        let input = render(&doc, pretty);
        let mut inputs = mutations(&input);
        inputs.push(input);
        for model in MODELS {
            let c = compiled(model);
            for text in &inputs {
                let stream = validate_xml_stream(text, &c);
                prop_assert_eq!(stream.is_ok(), dom_accepts(text, &c),
                    "verdicts diverge on {}: stream says {:?}", text, stream);
            }
        }
    }
}

/// Leftmost error wins: with two schema violations in document order, the
/// streaming path reports the same (first) one the DOM path reports.
#[test]
fn regression_leftmost_error_wins() {
    let c = compiled(MODELS[1]);
    // Both the missing title (first) and the trailing stray element
    // (second) are violations; the reported error must be the DOM one.
    let input = "<newspaper><date>d</date><temp>1</temp><mystery/></newspaper>";
    assert_parity(&c, input, RwStrategy::Safe, 1);
    let opts = StreamOptions::default();
    let err = enforce_stream(&c, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    })
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        !msg.contains("mystery"),
        "second error reported before the first: {msg}"
    );
}

/// The error taxonomy survives the fallback: an unrewritable document
/// yields the same `NotSafe` the DOM rewriter produces.
#[test]
fn regression_error_taxonomy_preserved() {
    let c = compiled(MODELS[2]);
    // (***) admits no TimeOut; a TimeOut with nothing else to offer makes
    // the word unrewritable at k=0 depth... use a doc whose only plan
    // requires an invocation that the schema's word game cannot license.
    let input = "<newspaper><title>t</title><date>d</date></newspaper>";
    let opts = StreamOptions::default();
    let dom_err = enforce_dom(&c, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    })
    .unwrap_err();
    let err = enforce_stream(&c, input, &opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    })
    .unwrap_err();
    assert_eq!(err, dom_err);
    assert!(
        matches!(err, RewriteError::NotSafe { .. } | RewriteError::Exhausted { .. }),
        "expected a rewrite-taxonomy error, got: {err}"
    );
}

/// Malformed XML: the streaming reader hits the error mid-stream, the
/// fallback reproduces the DOM parser's message verbatim.
#[test]
fn regression_malformed_input_parity() {
    let c = compiled(MODELS[0]);
    for input in [
        "<newspaper><title>t</title>",
        "<newspaper><title>t</newspaper></title>",
        "not xml at all",
        "",
    ] {
        let opts = StreamOptions::default();
        let dom_err = enforce_dom(&c, input, &opts, &mut || {
            Box::new(scripted()) as Box<dyn Invoker + Send>
        })
        .unwrap_err();
        let err = enforce_stream(&c, input, &opts, &mut || {
            Box::new(scripted()) as Box<dyn Invoker + Send>
        })
        .unwrap_err();
        assert_eq!(err, dom_err, "on input {input:?}");
    }
}

// ---------------------------------------------------------------------
// Transport matrix: a streamed-enforced document over both net engines.
// ---------------------------------------------------------------------

fn exchange_vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.(Listings|exhibit*)")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        .function("Listings", "data", "exhibit*")
        .build()
        .unwrap()
}

fn strict_vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.exhibit*")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        .function("Listings", "data", "exhibit*")
        .build()
        .unwrap()
}

fn provider_daemon(io: axml::net::IoMode) -> NetPeer {
    let peer = Arc::new(Peer::new(
        "listings.example.org",
        Arc::new(Compiled::new(exchange_vocab(), &NoOracle).unwrap()),
        Arc::new(Registry::new()),
    ));
    peer.repository
        .store("program", ITree::elem("listings", program()));
    peer.declare(
        ServiceDef::new("Listings", "data", "exhibit*"),
        Query::Children("program".to_owned()),
    );
    let config = axml::net::ServerConfig {
        io,
        ..Default::default()
    };
    NetPeer::serve(peer, "127.0.0.1:0", config).unwrap()
}

/// What the provider's `Listings` service answers.
fn program() -> Vec<ITree> {
    vec![
        ITree::elem(
            "exhibit",
            vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
        ),
        ITree::elem(
            "exhibit",
            vec![ITree::data("title", "Rodin"), ITree::data("date", "Tue")],
        ),
    ]
}

fn front_page() -> ITree {
    ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::func("Listings", vec![ITree::text("exhibits")]),
        ],
    )
}

/// Ships the intensional front page under the strict exchange schema over
/// the given engine; returns the stored document.
fn ship_outcome(io: axml::net::IoMode) -> ITree {
    let provider = provider_daemon(io);
    let receiver_peer = Arc::new(Peer::new(
        "browser.example.org",
        Arc::new(Compiled::new(strict_vocab(), &NoOracle).unwrap()),
        Arc::new(Registry::new()),
    ));
    let config = axml::net::ServerConfig {
        io,
        ..Default::default()
    };
    let receiver = NetPeer::serve(Arc::clone(&receiver_peer), "127.0.0.1:0", config).unwrap();

    let sender = Peer::new(
        "newspaper.example.org",
        Arc::new(Compiled::new(exchange_vocab(), &NoOracle).unwrap()),
        Arc::new(Registry::new()),
    );

    let to_provider = RemotePeer::connect(provider.local_addr(), Default::default()).unwrap();
    let to_receiver = RemotePeer::connect(receiver.local_addr(), Default::default()).unwrap();
    let strict = Arc::new(Compiled::new(strict_vocab(), &NoOracle).unwrap());
    let mut invoker = NetInvoker {
        caller: &sender,
        remote: &to_provider,
    };
    let (sent, report) = to_receiver
        .send_document_with(&sender, "front", &front_page(), &strict, &mut invoker)
        .unwrap();
    assert_eq!(report.invoked, vec!["Listings".to_owned()]);
    assert_eq!(sent.num_funcs(), 0);
    let stored = receiver_peer.repository.load("front").unwrap();
    assert_eq!(stored, sent);

    provider.shutdown().unwrap();
    receiver.shutdown().unwrap();
    stored
}

/// The Fig. 1 exchange, streamed by the sender and validated by the
/// receiver, over both network engines: each stores the document the DOM
/// pipeline produces in-process from the provider's answers.
#[test]
fn matrix_streamed_exchange_identical_across_engines_and_modes() {
    use axml::net::IoMode;
    let strict = Compiled::new(strict_vocab(), &NoOracle).unwrap();
    let script = ScriptedInvoker::new().answer("Listings", program());
    let (dom, _) = enforce_dom(
        &strict,
        &render(&front_page(), false),
        &StreamOptions::default(),
        &mut || Box::new(script.clone()) as Box<dyn Invoker + Send>,
    )
    .unwrap();
    let baseline = ITree::from_xml(&axml::xml::parse_document(&dom).unwrap().root).unwrap();
    for io in [IoMode::Threads, IoMode::Poll] {
        let streamed = ship_outcome(io);
        assert_eq!(
            streamed, baseline,
            "streamed exchange over {io:?} differs from the DOM baseline"
        );
    }
}

/// Spot run backing the EXPERIMENTS.md B14 claim: a ~100 MB document
/// with 16 call sites streams through `enforce_stream_with` with the same
/// constant peak buffer the 1 MiB documents need. Ignored by default
/// (builds 100 MB of XML); run with
/// `cargo test --release --test stream_parity -- --ignored`.
#[test]
#[ignore = "builds a 100 MB document; run explicitly in release mode"]
fn spot_100mb_bounded_peak() {
    let compiled = Compiled::new(
        Schema::builder()
            .element("feed", "meta.chunk*.calls")
            .data_element("meta")
            .data_element("chunk")
            .element("calls", "quote*")
            .data_element("quote")
            .function("Get_Quote", "meta", "quote*")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap();

    let target = 100 * 1000 * 1000;
    let chunk_body: String = "abcdefghijklmnopqrstuvwxyz0123456789 "
        .chars()
        .cycle()
        .take(64 << 10)
        .collect();
    let mut input = String::with_capacity(target + 4096);
    input.push_str("<feed><meta>nasdaq 2026-08-08</meta>");
    while input.len() + (64 << 10) < target {
        input.push_str("<chunk>");
        input.push_str(&chunk_body);
        input.push_str("</chunk>");
    }
    input.push_str("<calls>");
    for i in 0..16 {
        input.push_str(&format!(
            "<int:fun xmlns:int=\"http://www.activexml.com/ns/int\" methodName=\"Get_Quote\">\
             <int:params><int:param><meta>site {i}</meta></int:param></int:params></int:fun>"
        ));
    }
    input.push_str("</calls></feed>");
    assert!(input.len() >= 99 * 1000 * 1000);

    let mut inv =
        ScriptedInvoker::new().answer("Get_Quote", vec![ITree::data("quote", "AXML 42.17")]);
    let opts = StreamOptions {
        k: 1,
        ..StreamOptions::default()
    };
    let (out, rep) = enforce_stream_with(&compiled, &input, &opts, &mut inv).unwrap();

    assert!(!rep.fell_back);
    assert_eq!(rep.bytes_out, out.len() as u64);
    assert_eq!(inv.calls(), 16, "each call site is invoked once");
    assert_eq!(rep.bytes_copied + rep.bytes_rewritten, rep.bytes_out);
    assert_eq!(rep.subtrees_materialized, 1);
    // The peak is the `calls` subtree's input span — independent of the
    // 100 MB of extensional chunks around it.
    assert_eq!(rep.peak_buffer_bytes, 2386, "peak buffer grew with document size");
}
