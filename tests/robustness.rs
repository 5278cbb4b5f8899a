//! Robustness: malformed inputs never panic, concurrent use is safe, and
//! hostile nesting gets a typed fault from a live daemon.

use axml::net::{ClientConfig, ClientError, IoMode, NetClient, ServerConfig};
use axml::peer::{NetPeer, Peer, RECEIVE_METHOD};
use axml::schema::{validate_xml_stream, Compiled, ITree, NoOracle, Schema};
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
