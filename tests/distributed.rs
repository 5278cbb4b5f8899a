//! Schema negotiation before a distributed exchange: a newspaper sender
//! and a browser receiver that accepts no intensional content agree on
//! the exchange schema. The exchange itself, with the embedded call
//! materialized through a second peer daemon, is
//! `tests/net_exchange.rs::matrix_newspaper_exchange_between_daemons`.

use axml::peer::{negotiate, InboundPolicy, Negotiation, Proposal};
use axml::schema::{NoOracle, Schema};

fn vocab() -> Schema {
    Schema::builder()
        .element("newspaper", "title.date.(Listings|exhibit*)")
        .data_element("title")
        .data_element("date")
        .element("exhibit", "title.date")
        // The listings provider's operation, WSDL-described for everyone.
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

#[test]
fn negotiation_then_exchange() {
    // The sender and a browser receiver first negotiate the exchange
    // schema, then the sender ships a conforming document.
    let sender_schema = vocab();
    let proposals = vec![
        Proposal {
            name: "lazy".to_owned(),
            schema: vocab(),
        },
        Proposal {
            name: "extensional".to_owned(),
            schema: strict_vocab(),
        },
    ];
    let outcome = negotiate(
        &{
            let mut s = sender_schema.clone();
            s.root = Some("newspaper".to_owned());
            s
        },
        "newspaper",
        &proposals,
        &InboundPolicy::RejectFunctions,
        1,
        &NoOracle,
    )
    .unwrap();
    let agreed = match outcome {
        Negotiation::Agreed { index, .. } => index,
        other => panic!("negotiation should succeed: {other:?}"),
    };
    assert_eq!(agreed, 1, "the browser forces the extensional schema");
}
