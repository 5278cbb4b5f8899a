//! Robustness: malformed inputs never panic, concurrent use is safe, and
//! hostile requests — deep nesting, attribute floods, parameters that
//! would need rewriting — get an answer from a live daemon that keeps
//! serving, without reaching its solver.

use axml::core::solve_cache::SolveCache;
use axml::net::{ClientConfig, ClientError, FaultCode, IoMode, NetClient, ServerConfig};
use axml::peer::{NetPeer, Peer, Query, RECEIVE_METHOD};
use axml::schema::{dsl::parse_schema_dsl, validate_xml_stream, Compiled, ITree, NoOracle, Schema};
use axml::services::builtin::{Adversarial, GetTemp};
use axml::services::{soap, Registry, ServiceDef};
use axml::xml::parse_document;
use axml_support::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The XML parser returns errors, never panics, on arbitrary input.
    #[test]
    fn parser_never_panics_on_garbage(input in ".{0,200}") {
        let _ = parse_document(&input);
    }

    /// Mutated well-formed documents also never panic (and reparse either
    /// succeeds or errors cleanly).
    #[test]
    fn parser_never_panics_on_mutations(pos in 0usize..200, byte in 0u8..128) {
        let base = axml::schema::newspaper_example().to_xml().to_pretty_xml();
        let mut bytes = base.into_bytes();
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_document(&text);
        }
    }

    /// The streaming validator never panics on arbitrary input either.
    #[test]
    fn stream_validator_never_panics(input in ".{0,200}") {
        let compiled = Compiled::new(
            Schema::builder()
                .element("r", "a*")
                .data_element("a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let _ = validate_xml_stream(&input, &compiled);
    }

    /// The schema DSL parser never panics.
    #[test]
    fn dsl_parser_never_panics(input in ".{0,200}") {
        let _ = axml::schema::dsl::parse_schema_dsl(&input);
    }

    /// The path parser never panics.
    #[test]
    fn path_parser_never_panics(input in ".{0,80}") {
        let _ = axml::schema::PathQuery::parse(&input);
    }
}

#[test]
fn concurrent_rewriters_share_one_registry() {
    let compiled = Arc::new(
        Compiled::new(
            Schema::builder()
                .element("newspaper", "title.date.temp.(TimeOut|exhibit*)")
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
        .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp").with_fee(1),
        Arc::new(GetTemp::with_defaults()),
    );
    registry.register(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Arc::new(Adversarial::for_function(
            Arc::clone(&compiled),
            "TimeOut",
            5,
        )),
    );
    registry.register(
        ServiceDef::new("Get_Date", "title", "date"),
        Arc::new(Adversarial::for_function(
            Arc::clone(&compiled),
            "Get_Date",
            6,
        )),
    );

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let compiled = Arc::clone(&compiled);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let mut rewriter = axml::core::rewrite::Rewriter::new(&compiled).with_k(2);
                for _ in 0..20 {
                    let mut invoker = registry.invoker(None);
                    let (out, report) = rewriter
                        .rewrite_safe(&axml::schema::newspaper_example(), &mut invoker)
                        .expect("safe rewriting");
                    assert!(axml::schema::validate(&out, &compiled).is_ok());
                    assert!(report.invoked.contains(&"Get_Temp".to_owned()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Accounting saw every call exactly once: 8 threads × 20 iterations.
    let stats = registry.stats();
    assert_eq!(stats.calls["Get_Temp"], 160);
    assert_eq!(stats.fees_cents, 160);
}

/// A document of 3 000 nested `<r>` elements under `r: r*`, about 21 KB,
/// shipped in one envelope and in chunks. The walks after parsing recurse
/// once per level, so without the reader's nesting cap it overflows the
/// 2 MiB stack of the daemon worker and aborts the daemon on either
/// engine. With it, the daemon answers a typed fault and keeps serving.
#[test]
fn deep_nesting_gets_a_typed_fault_on_both_engines() {
    const DEPTH: usize = 3_000;
    let schema = Arc::new(
        Compiled::new(Schema::builder().element("r", "r*").build().unwrap(), &NoOracle).unwrap(),
    );
    let doc = format!("{}{}", "<r>".repeat(DEPTH), "</r>".repeat(DEPTH));
    let placeholder = soap::request(RECEIVE_METHOD, &[ITree::text("deep.xml"), ITree::elem("r", vec![])]).to_xml();
    assert_eq!(placeholder.matches("<r/>").count(), 1, "{placeholder}");
    let envelope = placeholder.replacen("<r/>", &doc, 1);
    let typed = |what: &str, io: IoMode, result: Result<String, ClientError>| match result {
        Err(ClientError::Fault(fault)) => assert!(
            fault.message.contains("nested deeper"),
            "{io:?} {what}: {fault}"
        ),
        other => panic!("{io:?} {what}: expected a typed fault, got {other:?}"),
    };
    for io in [IoMode::Threads, IoMode::Poll] {
        let peer = Arc::new(Peer::new(
            "receiver.test",
            Arc::clone(&schema),
            Arc::new(Registry::new()),
        ));
        let config = ServerConfig {
            io,
            ..Default::default()
        };
        let server = NetPeer::serve(Arc::clone(&peer), "127.0.0.1:0", config).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        typed("envelope", io, client.call(&envelope));
        typed(
            "chunked document",
            io,
            client.send_document_chunked(None, "deep.xml", 4096, |sink| sink.write_all(doc.as_bytes())),
        );
        assert!(peer.repository.load("deep.xml").is_err(), "{io:?}: nothing stored");
        client.stats().unwrap_or_else(|e| panic!("{io:?}: the daemon stopped answering stats: {e}"));
        server.shutdown().unwrap();
    }
}

/// An `axml.receive` envelope whose `call` element carries 80 000
/// distinct attributes, about 800 KB. A reader that compares each
/// attribute name with every earlier one holds a daemon worker for
/// longer than the client waits; a linear check answers at once.
#[test]
fn attribute_flood_is_answered_on_both_engines() {
    const ATTRS: usize = 80_000;
    let schema = Arc::new(
        Compiled::new(
            Schema::builder().element("r", "r*").build().unwrap(),
            &NoOracle,
        )
        .unwrap(),
    );
    let plain = soap::request(
        RECEIVE_METHOD,
        &[ITree::text("flood.xml"), ITree::elem("r", vec![])],
    )
    .to_xml();
    assert_eq!(plain.matches("<call ").count(), 1, "{plain}");
    let flood: String = (0..ATTRS).map(|i| format!("a{i}=\"v\" ")).collect();
    let envelope = plain.replacen("<call ", &format!("<call {flood}"), 1);
    assert!(envelope.len() > 750_000, "{} bytes", envelope.len());
    for io in [IoMode::Threads, IoMode::Poll] {
        let peer = Peer::new(
            "receiver.test",
            Arc::clone(&schema),
            Arc::new(Registry::new()),
        );
        let config = ServerConfig {
            io,
            ..Default::default()
        };
        let server = NetPeer::serve(Arc::new(peer), "127.0.0.1:0", config).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        match client.call(&envelope) {
            Ok(_) | Err(ClientError::Fault(_)) => {}
            Err(e) => panic!("{io:?}: expected a response or a typed fault, got {e}"),
        }
        client
            .stats()
            .unwrap_or_else(|e| panic!("{io:?}: the daemon stopped answering stats: {e}"));
        server.shutdown().unwrap();
    }
}

/// The `schema_churn` vocabulary with a provider of `Feed : exhibit -> r`
/// over a stored `<r/>` and no services registered.
const FEED_SCHEMA: &str = "
element r       = exhibit*
element exhibit = title.(date.(line | note | memo | tag))*
element title   = data
element date    = data
element line    = data
element note    = data
element memo    = data
element tag     = data
function Get_Date  : title -> date | Mirror_A1 | Mirror_A2
function Mirror_A1 : () -> date
function Mirror_A2 : () -> date
function Feed      : exhibit -> r
root r
";

/// A raw `Feed` request, sent with no caller-side rewriting, whose
/// `exhibit` parameter holds 2 000 `Get_Date` calls where the schema
/// wants dates. A provider that rewrote it would solve (and cache) the
/// parameter word's game; it validates instead, refuses it with a typed
/// `Client` fault under 1 KiB (the refused word is not echoed back
/// whole) and keeps serving.
#[test]
fn hostile_parameters_reach_no_solver_on_both_engines() {
    const CALLS: usize = 2_000;
    let compiled =
        Arc::new(Compiled::new(parse_schema_dsl(FEED_SCHEMA).unwrap(), &NoOracle).unwrap());
    let labels = ["line", "note", "memo", "tag"];
    let mut children = vec![ITree::data("title", "Monet")];
    for i in 0..CALLS {
        children.push(ITree::func(
            "Get_Date",
            vec![ITree::data("title", &format!("t{i}"))],
        ));
        children.push(ITree::data(labels[i % labels.len()], "x"));
    }
    let envelope = soap::request("Feed", &[ITree::elem("exhibit", children)]).to_xml();
    for io in [IoMode::Threads, IoMode::Poll] {
        let provider = Arc::new(
            Peer::new(
                "provider.test",
                Arc::clone(&compiled),
                Arc::new(Registry::new()),
            )
            .with_solve_cache(SolveCache::unpublished(512)),
        );
        provider.repository.store("feed", ITree::elem("r", vec![]));
        provider.declare(
            ServiceDef::new("Feed", "exhibit", "r"),
            Query::Document("feed".to_owned()),
        );
        let config = ServerConfig {
            io,
            ..Default::default()
        };
        let server = NetPeer::serve(Arc::clone(&provider), "127.0.0.1:0", config).unwrap();
        let client = NetClient::new(server.local_addr(), ClientConfig::default()).unwrap();
        match client.call(&envelope) {
            Err(ClientError::Fault(fault)) => {
                assert_eq!(fault.code, FaultCode::Client, "{io:?}: {fault}");
                assert!(
                    fault.message.len() < 1024,
                    "{io:?}: a {}-byte refusal echoes the request",
                    fault.message.len()
                );
            }
            other => panic!("{io:?}: expected a typed Client fault, got {other:?}"),
        }
        assert_eq!(
            provider.solve_cache().stats().lookups,
            0,
            "{io:?}: the parameters reached the solver"
        );
        client
            .stats()
            .unwrap_or_else(|e| panic!("{io:?}: the daemon stopped answering stats: {e}"));
        server.shutdown().unwrap();
    }
}
