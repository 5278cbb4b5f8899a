//! The receiver's streaming validator, and the sender's text pipeline.
//!
//! Receivers validate what they are sent and never rewrite it. This suite
//! holds their streaming paths to the DOM:
//!
//! * a property holding the streaming validator (`validate_xml_stream`)
//!   to the verdict of DOM validation, over random intensional newspapers,
//!   textual mutations of them and content after their root, and the
//!   chunked receiver's one pass (`read_validated`) to the verdict,
//!   message and tree of the three passes it replaced;
//! * a pinned case where the two receive paths once named one call
//!   differently;
//! * pinned cases for the text pipeline senders enforce through
//!   (`core::stream`): leftmost error first, the rewrite-error taxonomy,
//!   and the parser's message on malformed text;
//! * a transport-matrix case shipping an enforced document across both
//!   network engines (blocking threads and the poll loop) and checking the
//!   receiver stores what the DOM pipeline produces.

use axml::core::invoke::{Invoker, ScriptedInvoker};
use axml::core::rewrite::RewriteError;
use axml::core::stream::{enforce_dom, enforce_stream_with, StreamOptions};
use axml::peer::net::receive_document_text;
use axml::peer::{NetInvoker, NetPeer, Peer, PeerError, Query, RemotePeer};
use axml::schema::{
    read_validated, validate, validate_xml_stream, Compiled, ITree, NoOracle, ReadError, Schema,
    SchemaError, StreamValidator, INT_NS,
};
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

/// The streaming validator's verdict on `text` up to the root's end tag:
/// the first of the three passes, which leaves what follows the root to
/// `parse_document`.
fn validate_root(text: &str, compiled: &Compiled) -> Result<(), SchemaError> {
    let mut reader = axml::xml::Reader::new(text);
    let mut validator = StreamValidator::new(compiled);
    loop {
        let event = reader.next_event().map_err(|e| SchemaError::Malformed {
            message: e.message,
            line: e.line,
            offset: e.offset,
        })?;
        if !validator.feed(&event)? {
            return Ok(());
        }
    }
}

/// The chunked receiver's verdict, message and tree as three passes give
/// them: the streaming validator up to the root's end tag, then
/// `parse_document` and `ITree::from_xml`, worded as
/// `receive_document_text` words each. The reference for the one-pass
/// reader.
fn three_passes(text: &str, compiled: &Compiled) -> Result<ITree, String> {
    validate_root(text, compiled).map_err(|e| e.to_string())?;
    let doc = axml::xml::parse_document(text).map_err(|e| format!("chunked document: {e}"))?;
    ITree::from_xml(&doc.root)
}

/// Holds the one-pass reader, and `receive_document_text` on a peer of
/// `compiled`, to [`three_passes`] on `text`.
fn assert_one_pass(peer: &Peer, text: &str) {
    let want = three_passes(text, &peer.compiled);
    let read = read_validated(text, &peer.compiled);
    match (&read, &want) {
        (Ok(tree), Ok(reference)) => assert_eq!(tree, reference, "trees diverge on {text}"),
        (Err(ReadError::Invalid(e)), Err(m)) => assert_eq!(&e.to_string(), m, "on {text}"),
        (Err(ReadError::Trailing(e)), Err(m)) => {
            assert_eq!(&format!("chunked document: {e}"), m, "on {text}")
        }
        (Err(ReadError::Decode(e)), Err(m)) => assert_eq!(e, m, "on {text}"),
        _ => panic!("verdicts diverge on {text}: one pass {read:?}, three passes {want:?}"),
    }
    match (receive_document_text(peer, "doc", text), want) {
        (Ok(_), Ok(reference)) => assert_eq!(peer.repository.load("doc").unwrap(), reference),
        (Err(PeerError::Enforcement(m)), Err(reference)) => assert_eq!(m, reference, "on {text}"),
        (got, want) => panic!("receiver diverges on {text}: {got:?}, three passes {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming validator receivers run reaches the verdict of DOM
    /// validation, on each newspaper, on every mutation of it and on
    /// content after its root; and the chunked receiver's one pass gives
    /// the verdict, message and tree of the three passes it replaced.
    #[test]
    fn validator_verdicts_match_dom(doc in newspaper_strategy(), pretty in (0u32..2).prop_map(|b| b == 1)) {
        let input = render(&doc, pretty);
        let mut inputs = mutations(&input);
        inputs.extend(
            ["<x/>", "trailing text", "<!-- trailing comment -->"]
                .iter()
                .map(|tail| format!("{input}{tail}")),
        );
        inputs.push(input);
        for model in MODELS {
            let c = Arc::new(compiled(model));
            let peer = Peer::new("receiver", Arc::clone(&c), Arc::new(Registry::new()));
            for text in &inputs {
                let stream = validate_xml_stream(text, &c);
                prop_assert_eq!(stream.is_ok(), dom_accepts(text, &c),
                    "verdicts diverge on {}: stream says {:?}", text, stream);
                assert_one_pass(&peer, text);
            }
        }
    }
}

/// A call is named by its unprefixed `methodName` on both receive paths.
/// Here the prefixed attribute names a `Get_Temp` that schema (*) admits
/// after the date, and the call that gets stored is a `TimeOut`, which it
/// does not admit there: the chunked receiver refuses the text as the
/// single-frame receiver refuses the tree.
#[test]
fn regression_one_method_name_on_both_receive_paths() {
    let c = Arc::new(compiled(MODELS[0]));
    let text = format!(
        "<newspaper xmlns:int=\"{INT_NS}\"><title>t</title><date>d</date>\
         <int:fun p:methodName=\"Get_Temp\" methodName=\"TimeOut\" xmlns:p=\"u\">\
         <int:params><int:param><city>Paris</city></int:param></int:params></int:fun>\
         </newspaper>"
    );
    let tree = ITree::from_xml(&axml::xml::parse_document(&text).unwrap().root).unwrap();
    assert_eq!(
        tree.children()[2],
        ITree::func("TimeOut", vec![ITree::data("city", "Paris")])
    );
    assert!(
        !dom_accepts(&text, &c),
        "the single-frame receiver accepts it"
    );
    assert!(validate_xml_stream(&text, &c).is_err());
    assert!(matches!(
        read_validated(&text, &c),
        Err(ReadError::Invalid(_))
    ));
    let peer = Peer::new("receiver", Arc::clone(&c), Arc::new(Registry::new()));
    let refused = receive_document_text(&peer, "doc", &text);
    assert!(
        matches!(&refused, Err(PeerError::Enforcement(m)) if m.contains("TimeOut")),
        "{refused:?}"
    );
    assert!(peer.repository.load("doc").is_err());
    assert_one_pass(&peer, &text);
}

/// Enforces `input` through the text pipeline with the scripted services.
fn enforce_text(c: &Compiled, input: &str, opts: &StreamOptions) -> Result<String, RewriteError> {
    let mut invoker = scripted();
    let streamed = enforce_stream_with(c, input, opts, &mut invoker).map(|(out, _)| out);
    let dom = enforce_dom(c, input, opts, &mut || {
        Box::new(scripted()) as Box<dyn Invoker + Send>
    })
    .map(|(out, _)| out);
    assert_eq!(streamed, dom, "the two entry points diverge on {input}");
    streamed
}

/// Leftmost error wins: with two schema violations in document order, the
/// text pipeline reports the first.
#[test]
fn regression_leftmost_error_wins() {
    let c = compiled(MODELS[1]);
    // Both the missing title (first) and the trailing stray element
    // (second) are violations.
    let input = "<newspaper><date>d</date><temp>1</temp><mystery/></newspaper>";
    let msg = enforce_text(&c, input, &StreamOptions::default())
        .unwrap_err()
        .to_string();
    assert!(
        !msg.contains("mystery"),
        "second error reported before the first: {msg}"
    );
}

/// A document no rewriting can fix yields an error of the rewrite
/// taxonomy, not a parse or decode error.
#[test]
fn regression_error_taxonomy_preserved() {
    // (***) needs a temp, and nothing in the document can produce one.
    let c = compiled(MODELS[2]);
    let input = "<newspaper><title>t</title><date>d</date></newspaper>";
    let err = enforce_text(&c, input, &StreamOptions::default()).unwrap_err();
    assert!(
        matches!(
            err,
            RewriteError::NotSafe { .. } | RewriteError::Exhausted { .. }
        ),
        "expected a rewrite-taxonomy error, got: {err}"
    );
}

/// Malformed XML: the text pipeline refuses it with the parser's message.
#[test]
fn regression_malformed_input_parity() {
    let c = compiled(MODELS[0]);
    for input in [
        "<newspaper><title>t</title>",
        "<newspaper><title>t</newspaper></title>",
        "not xml at all",
        "",
    ] {
        let parser = axml::xml::parse_document(input).unwrap_err();
        assert_eq!(
            enforce_text(&c, input, &StreamOptions::default()),
            Err(RewriteError::Invalid(parser.to_string())),
            "on input {input:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Transport matrix: an enforced document over both net engines.
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

/// The Fig. 1 exchange, enforced by the sender and validated by the
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
        let shipped = ship_outcome(io);
        assert_eq!(
            shipped, baseline,
            "the exchange over {io:?} differs from the DOM baseline"
        );
    }
}
