//! The Fig. 1 data-exchange scenario with two Active XML peers.
//!
//! A newspaper peer holds an intensional front page and serves it as a
//! loopback TCP daemon. Three readers with different capabilities fetch
//! it:
//!
//! * another Active XML peer accepts the intensional document as-is;
//! * a reader with a *partially* intensional exchange schema receives the
//!   temperature materialized but keeps the TimeOut listings lazy;
//! * a plain browser that cannot invoke services forces the sender to
//!   materialize everything.
//!
//! Run with: `cargo run --example newspaper_exchange`

use axml::core::rewrite::enforce;
use axml::net::{ClientConfig, ServerConfig};
use axml::peer::{InboundPolicy, NetPeer, Peer, Query, RemotePeer};
use axml::schema::{newspaper_example, validate, Compiled, NoOracle, Schema, SchemaBuilder};
use axml::services::builtin::{GetDate, GetTemp, TimeOutGuide};
use axml::services::{Registry, ServiceDef};
use std::sync::Arc;

fn vocabulary(newspaper_model: &str, exhibit_model: &str) -> SchemaBuilder {
    Schema::builder()
        .element("newspaper", newspaper_model)
        .data_element("title")
        .data_element("date")
        .data_element("temp")
        .data_element("city")
        .element("exhibit", exhibit_model)
        .data_element("performance")
        .function("Get_Temp", "city", "temp")
        .function("TimeOut", "data", "(exhibit|performance)*")
        .function("Get_Date", "title", "date")
        .function("Front_Page", "data", "newspaper")
}

fn compiled(newspaper_model: &str, exhibit_model: &str) -> Arc<Compiled> {
    Arc::new(
        Compiled::new(
            vocabulary(newspaper_model, exhibit_model).build().unwrap(),
            &NoOracle,
        )
        .unwrap(),
    )
}

fn web_registry() -> Arc<Registry> {
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
            table: vec![
                ("Monet".to_owned(), "Mon".to_owned()),
                ("Rodin".to_owned(), "Tue".to_owned()),
            ],
        }),
    );
    Arc::new(registry)
}

fn main() {
    let registry = web_registry();

    // The newspaper's own schema (*): fully intensional documents allowed.
    let own = compiled(
        "title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
        "title.(Get_Date|date)",
    );
    let newspaper = Arc::new(Peer::new(
        "newspaper.example.org",
        Arc::clone(&own),
        Arc::clone(&registry),
    ));
    newspaper.repository.store("front", newspaper_example());
    newspaper.declare(
        ServiceDef::new("Front_Page", "data", "newspaper"),
        Query::Document("front".to_owned()),
    );
    let server = NetPeer::serve(
        Arc::clone(&newspaper),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind a loopback daemon");
    let remote = RemotePeer::connect(server.local_addr(), ClientConfig::default())
        .expect("loopback address");

    // Reader 1: a full Active XML peer — fetches over SOAP, accepts the
    // intensional parts.
    let peer_reader = Peer::new("reader-axml", Arc::clone(&own), Arc::clone(&registry));
    let fetched = remote
        .invoke_service(
            &peer_reader,
            "Front_Page",
            &[axml::schema::ITree::text("today")],
        )
        .expect("SOAP call");
    println!(
        "Active XML reader received ({} embedded calls):",
        fetched[0].num_funcs()
    );
    println!("  {}\n", fetched[0]);

    // Reader 2: agreed exchange schema (**) — temperature must be explicit.
    let exchange = compiled(
        "title.date.temp.(TimeOut|exhibit*)",
        "title.(Get_Date|date)",
    );
    let (sent, report) = newspaper
        .send_document(&newspaper_example(), &exchange, &InboundPolicy::AcceptAll)
        .expect("safe rewriting into (**)");
    println!(
        "Exchange under (**): sender invoked {:?}, document now:",
        report.invoked
    );
    println!("  {sent}\n");
    validate(&sent, &exchange).unwrap();

    // Reader 3: a browser that cannot handle intensional documents at all.
    // The agreed schema is fully extensional and the receiver policy
    // refuses any embedded call, so the sender must materialize everything
    // recursively (TimeOut and then each exhibit's Get_Date).
    let extensional = compiled("title.date.temp.(exhibit|performance)*", "title.date");
    let mut invoker = registry.invoker(None);
    let (flat, report) =
        enforce(&extensional, &newspaper_example(), 2, &mut invoker).expect("full materialization");
    InboundPolicy::RejectFunctions
        .check(std::slice::from_ref(&flat))
        .expect("no calls remain");
    println!(
        "Browser exchange: sender invoked {:?} — fully extensional document:",
        report.invoked
    );
    println!("  {flat}");
    println!("\nRegistry accounting: {:?}", registry.stats());

    server.shutdown().unwrap();
}
