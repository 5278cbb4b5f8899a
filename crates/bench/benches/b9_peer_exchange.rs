//! B9: end-to-end peer exchange — the Schema Enforcement module's
//! throughput when sending Fig. 2 documents under exchange schema (**),
//! plus one service exchange with a loopback TCP daemon: the caller's
//! parameter check, the wire round trip, the provider's dispatch and the
//! caller's check of the answer.

use axml_bench::newspaper;
use axml_core::rewrite::enforce;
use axml_net::{ClientConfig, ServerConfig};
use axml_peer::{NetPeer, Peer, Query, RemotePeer};
use axml_schema::{Compiled, ITree, NoOracle, Schema};
use axml_services::builtin::{GetDate, GetTemp, TimeOutGuide};
use axml_services::{Registry, ServiceDef};
use axml_support::bench::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn exchange_schema() -> Compiled {
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
    .unwrap()
}

fn bench(c: &mut Criterion) {
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
        Arc::new(GetDate { table: vec![] }),
    );
    let exchange = exchange_schema();
    let doc = newspaper();
    let mut group = c.benchmark_group("b9_peer_exchange");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.bench_function("enforce_fig2_into_star_star", |b| {
        b.iter(|| {
            let mut invoker = registry.invoker(None);
            let (sent, report) = enforce(&exchange, black_box(&doc), 1, &mut invoker).unwrap();
            assert_eq!(report.invoked.len(), 1);
            black_box(sent.size())
        })
    });
    // Wire-format round trip included.
    group.bench_function("enforce_plus_serialize_parse", |b| {
        b.iter(|| {
            let mut invoker = registry.invoker(None);
            let (sent, _) = enforce(&exchange, black_box(&doc), 1, &mut invoker).unwrap();
            let xml = sent.to_xml().to_xml();
            let parsed = axml_xml::parse_document(&xml).unwrap();
            black_box(axml_schema::ITree::from_xml(&parsed.root).unwrap().size())
        })
    });
    // One provider peer serving the exhibits guide, invoked through a
    // loopback TCP daemon.
    let provider = Arc::new(Peer::new(
        "guide.example.org",
        Arc::new(exchange_schema()),
        Arc::new(Registry::new()),
    ));
    provider.repository.store(
        "guide",
        ITree::elem(
            "guide",
            vec![
                ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
                ),
                ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Rodin"), ITree::data("date", "Tue")],
                ),
            ],
        ),
    );
    provider.declare(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Query::Children("guide".to_owned()),
    );
    let caller = Peer::new(
        "caller.example.org",
        Arc::new(exchange_schema()),
        Arc::new(Registry::new()),
    );
    let params = [ITree::text("exhibits")];

    let daemon = NetPeer::serve(provider, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = RemotePeer::connect(daemon.local_addr(), ClientConfig::default()).unwrap();

    let result = remote.invoke_service(&caller, "TimeOut", &params).unwrap();
    let elements: u64 = result.iter().map(|t| t.size() as u64).sum();
    group.throughput(Throughput::Elements(elements));
    group.bench_function("exchange_tcp_loopback", |b| {
        b.iter(|| {
            let out = remote
                .invoke_service(&caller, "TimeOut", black_box(&params))
                .unwrap();
            black_box(out.len())
        })
    });
    // Peer/client/server counters accumulated over the run ride along
    // with the timings (exchange counts, retries, queue pressure).
    group.attach_json("obs_snapshot", axml_obs::global().snapshot().to_json());
    group.finish();
    daemon.shutdown().unwrap();
}

criterion_group!(benches, bench);
criterion_main!(benches);
