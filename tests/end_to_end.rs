//! Cross-crate integration tests: XML Schema_int front-end → compiled
//! schema → rewriting → simulated services → peers, end to end.

use axml::core::invoke::ScriptedInvoker;
use axml::core::mixed::rewrite_mixed;
use axml::core::rewrite::{enforce, RewriteError, Rewriter};
use axml::core::schema_rw::schema_safe_rewrites;
use axml::net::{ClientConfig, ServerConfig};
use axml::peer::{NetPeer, Peer, Query, RemotePeer, Repository};
use axml::schema::{newspaper_example, validate, xsd, Compiled, ITree, NoOracle, Schema};
use axml::services::builtin::{Adversarial, Flaky, GetDate, GetTemp, IllTyped, TimeOutGuide};
use axml::services::{Registry, ServiceDef};
use std::sync::Arc;

const PAPER_XSD: &str = r#"
<schema root="newspaper">
  <element name="newspaper">
    <complexType><sequence>
      <element ref="title"/>
      <element ref="date"/>
      <choice><function ref="Get_Temp"/><element ref="temp"/></choice>
      <choice><function ref="TimeOut"/>
              <element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/></choice>
    </sequence></complexType>
  </element>
  <element name="title" type="data"/>
  <element name="date" type="data"/>
  <element name="temp" type="data"/>
  <element name="city" type="data"/>
  <element name="exhibit">
    <complexType><sequence>
      <element ref="title"/>
      <choice><function ref="Get_Date"/><element ref="date"/></choice>
    </sequence></complexType>
  </element>
  <element name="performance" type="data"/>
  <function id="Get_Temp">
    <params><param><element ref="city"/></param></params>
    <result><element ref="temp"/></result>
  </function>
  <function id="TimeOut">
    <params><param><data/></param></params>
    <result><choice minOccurs="0" maxOccurs="unbounded">
      <element ref="exhibit"/><element ref="performance"/>
    </choice></result>
  </function>
  <function id="Get_Date">
    <params><param><element ref="title"/></param></params>
    <result><element ref="date"/></result>
  </function>
</schema>"#;

/// The exchange schema (**) in XML Schema_int syntax.
const EXCHANGE_XSD: &str = r#"
<schema root="newspaper">
  <element name="newspaper">
    <complexType><sequence>
      <element ref="title"/>
      <element ref="date"/>
      <element ref="temp"/>
      <choice><function ref="TimeOut"/>
              <element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/></choice>
    </sequence></complexType>
  </element>
  <element name="title" type="data"/>
  <element name="date" type="data"/>
  <element name="temp" type="data"/>
  <element name="city" type="data"/>
  <element name="exhibit">
    <complexType><sequence>
      <element ref="title"/>
      <choice><function ref="Get_Date"/><element ref="date"/></choice>
    </sequence></complexType>
  </element>
  <element name="performance" type="data"/>
  <function id="Get_Temp">
    <params><param><element ref="city"/></param></params>
    <result><element ref="temp"/></result>
  </function>
  <function id="TimeOut">
    <params><param><data/></param></params>
    <result><choice minOccurs="0" maxOccurs="unbounded">
      <element ref="exhibit"/><element ref="performance"/>
    </choice></result>
  </function>
  <function id="Get_Date">
    <params><param><element ref="title"/></param></params>
    <result><element ref="date"/></result>
  </function>
</schema>"#;

#[test]
fn xsd_schemas_drive_the_full_pipeline() {
    // Parse both schemas from their XML syntax.
    let s0 = xsd::parse_xml_schema(PAPER_XSD).unwrap();
    let s = xsd::parse_xml_schema(EXCHANGE_XSD).unwrap();

    // Schema-level compatibility (Sec. 6): every (*) instance fits (**).
    let report = schema_safe_rewrites(&s0, "newspaper", &s, 1, &NoOracle).unwrap();
    assert!(report.compatible(), "{:?}", report.failures);

    // Document-level: parse the Sec. 7 XML document, rewrite, serialize.
    let doc_xml = newspaper_example().to_xml().to_pretty_xml();
    let parsed = axml::xml::parse_document(&doc_xml).unwrap();
    let doc = ITree::from_xml(&parsed.root).unwrap();

    let compiled = Compiled::new(s, &NoOracle).unwrap();
    let mut rewriter = Rewriter::new(&compiled).with_k(1);
    let mut invoker = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
    let (sent, report) = rewriter.rewrite_safe(&doc, &mut invoker).unwrap();
    assert_eq!(report.invoked, vec!["Get_Temp".to_owned()]);
    validate(&sent, &compiled).unwrap();

    // The rewritten document serializes back to exchangeable XML.
    let wire = sent.to_xml().to_xml();
    let back = ITree::from_xml(&axml::xml::parse_document(&wire).unwrap().root).unwrap();
    assert_eq!(back, sent);
}

fn builder_schema(newspaper_model: &str) -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("newspaper", newspaper_model)
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
fn safe_rewriting_against_adversarial_registry() {
    // The adversary returns arbitrary type-correct answers; safe rewriting
    // must succeed on every seed.
    let target = Arc::new(builder_schema("title.date.temp.(TimeOut|exhibit*)"));
    for seed in 0..25 {
        let registry = Registry::new();
        registry.register(
            ServiceDef::new("Get_Temp", "city", "temp"),
            Arc::new(Adversarial::for_function(
                Arc::clone(&target),
                "Get_Temp",
                seed,
            )),
        );
        registry.register(
            ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
            Arc::new(Adversarial::for_function(
                Arc::clone(&target),
                "TimeOut",
                seed,
            )),
        );
        registry.register(
            ServiceDef::new("Get_Date", "title", "date"),
            Arc::new(Adversarial::for_function(
                Arc::clone(&target),
                "Get_Date",
                seed,
            )),
        );
        let mut rewriter = Rewriter::new(&target).with_k(2);
        let mut invoker = registry.invoker(None);
        let (out, _) = rewriter
            .rewrite_safe(&newspaper_example(), &mut invoker)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        validate(&out, &target).unwrap();
    }
}

#[test]
fn mixed_rewriting_with_live_services() {
    // (***) is unsafe, but TimeOut is side-effect free: pre-invoke it.
    let target = builder_schema("title.date.temp.exhibit*");
    let registry = Registry::new();
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp"),
        Arc::new(GetTemp::with_defaults()),
    );
    registry.register(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Arc::new(TimeOutGuide::exhibits_only()),
    );
    registry.register(
        ServiceDef::new("Get_Date", "title", "date"),
        Arc::new(GetDate {
            table: vec![("Monet".to_owned(), "Mon".to_owned())],
        }),
    );
    let mut rewriter = Rewriter::new(&target).with_k(1);
    let side_effect_free = |name: &str| {
        registry
            .describe(name)
            .map(|d| !d.side_effects)
            .unwrap_or(false)
    };
    let mut invoker = registry.invoker(None);
    let (out, report) = rewrite_mixed(
        &mut rewriter,
        &newspaper_example(),
        &side_effect_free,
        &mut invoker,
    )
    .unwrap();
    validate(&out, &target).unwrap();
    assert!(report.invoked.contains(&"TimeOut".to_owned()));
}

#[test]
fn ill_typed_services_are_rejected_at_the_boundary() {
    let target = builder_schema("title.date.temp.(TimeOut|exhibit*)");
    let registry = Registry::new();
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp"),
        Arc::new(IllTyped {
            forest: vec![ITree::data("performance", "not a temp")],
        }),
    );
    let mut rewriter = Rewriter::new(&target).with_k(1);
    let mut invoker = registry.invoker(None);
    let err = rewriter
        .rewrite_safe(&newspaper_example(), &mut invoker)
        .unwrap_err();
    assert!(matches!(err, RewriteError::IllTyped { .. }), "{err}");
}

#[test]
fn flaky_services_surface_as_invoke_errors() {
    let target = builder_schema("title.date.temp.(TimeOut|exhibit*)");
    let registry = Registry::new();
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp"),
        Arc::new(Flaky::every(Arc::new(GetTemp::with_defaults()), 1)),
    );
    let mut rewriter = Rewriter::new(&target).with_k(1);
    let mut invoker = registry.invoker(None);
    let err = rewriter
        .rewrite_safe(&newspaper_example(), &mut invoker)
        .unwrap_err();
    assert!(matches!(err, RewriteError::Invoke(_)), "{err}");
}

#[test]
fn repository_enrichment_chases_continuations() {
    use axml::services::builtin::SearchEngine;
    let compiled = Arc::new(
        Compiled::new(
            Schema::builder()
                .element("results", "(url|SearchMore)*")
                .data_element("url")
                .function("SearchMore", "", "url*.SearchMore?")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap(),
    );
    let registry = Registry::new();
    let urls: Vec<String> = (0..5).map(|i| format!("u{i}")).collect();
    registry.register(
        ServiceDef::new("SearchMore", "", "url*.SearchMore?"),
        Arc::new(SearchEngine::new(urls, 2, "SearchMore")),
    );
    let peer = Peer::new("p", Arc::clone(&compiled), Arc::new(Registry::new()));
    peer.repository.store(
        "hits",
        ITree::elem("results", vec![ITree::func("SearchMore", vec![])]),
    );
    // Chase the continuation handles round by round until none remain.
    let mut rounds = 0;
    loop {
        let mut invoker = registry.invoker(None);
        let n = peer
            .repository
            .enrich("hits", &compiled, &|f| f == "SearchMore", &mut invoker)
            .unwrap();
        rounds += 1;
        if n == 0 {
            break;
        }
        assert!(rounds < 10, "enrichment must terminate");
    }
    let final_doc = peer.repository.load("hits").unwrap();
    assert_eq!(final_doc.num_funcs(), 0);
    assert_eq!(final_doc.children().len(), 5);
    validate(&final_doc, &compiled).unwrap();
}

#[test]
fn selected_call_inside_a_kept_calls_parameters() {
    // `f` is not selected and stays, but its parameter holds a selected
    // `g`: mixed rewriting and repository enrichment both invoke `g`
    // alone and splice its answer inside `f`'s parameter.
    let compiled = Arc::new(
        Compiled::new(
            Schema::builder()
                .element("r", "f")
                .element("x", "a|g")
                .data_element("a")
                .function("f", "x", "a")
                .function("g", "", "a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap(),
    );
    let with_param = |param: ITree| {
        ITree::elem(
            "r",
            vec![ITree::func("f", vec![ITree::elem("x", vec![param])])],
        )
    };
    let doc = with_param(ITree::func("g", vec![]));
    let want = with_param(ITree::data("a", "1"));
    let only_g = |name: &str| name == "g";
    let script = || ScriptedInvoker::new().answer("g", vec![ITree::data("a", "1")]);
    let called = |inv: &ScriptedInvoker| -> Vec<String> {
        inv.log.iter().map(|(name, _)| name.clone()).collect()
    };

    let mut invoker = script();
    let mut rewriter = Rewriter::new(&compiled).with_k(1);
    let (out, report) = rewrite_mixed(&mut rewriter, &doc, &only_g, &mut invoker).unwrap();
    assert_eq!(out, want);
    assert_eq!(report.invoked, ["g"]);
    assert_eq!(called(&invoker), ["g"]);

    let repository = Repository::new();
    repository.store("doc", doc);
    let mut invoker = script();
    let n = repository
        .enrich("doc", &compiled, &only_g, &mut invoker)
        .unwrap();
    assert_eq!(n, 1);
    assert_eq!(repository.load("doc").unwrap(), want);
    assert_eq!(called(&invoker), ["g"]);
}

#[test]
fn two_peer_soap_exchange_with_enforcement() {
    let own = Arc::new(builder_schema(
        "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
    ));
    // Extend the vocabulary with the Front_Page operation.
    let vocab = Arc::new(
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
                .function("Front_Page", "data", "newspaper")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp"),
        Arc::new(GetTemp::with_defaults()),
    );
    registry.register(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Arc::new(TimeOutGuide::exhibits_only()),
    );
    registry.register(
        ServiceDef::new("Get_Date", "title", "date"),
        Arc::new(GetDate { table: vec![] }),
    );

    let newspaper = Arc::new(Peer::new(
        "newspaper",
        Arc::clone(&vocab),
        Arc::clone(&registry),
    ));
    newspaper.repository.store("front", newspaper_example());
    newspaper.declare(
        ServiceDef::new("Front_Page", "data", "newspaper"),
        Query::Document("front".to_owned()),
    );
    let server = NetPeer::serve(newspaper, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = RemotePeer::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let reader = Peer::new("reader", Arc::clone(&vocab), Arc::clone(&registry));
    let page = remote
        .invoke_service(&reader, "Front_Page", &[ITree::text("today")])
        .unwrap();
    assert_eq!(page.len(), 1);
    validate(&page[0], &own).unwrap();
    server.shutdown().unwrap();
}

#[test]
fn enforce_reports_failure_when_unfixable() {
    // The document contains a performance where the schema demands only
    // exhibits, and no function can produce the missing structure.
    let target = builder_schema("title.date.temp.exhibit*");
    let doc = ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "t"),
            ITree::data("date", "d"),
            ITree::data("temp", "15"),
            ITree::elem("performance", vec![ITree::text("Hamlet")]),
        ],
    );
    let mut invoker = ScriptedInvoker::new();
    let err = enforce(&target, &doc, 2, &mut invoker).unwrap_err();
    assert!(matches!(err, RewriteError::NotSafe { .. }), "{err}");
}
