//! Declarative construction of multi-peer sim topologies.
//!
//! Every scenario used to wire its cast by hand: build a [`Peer`], wrap
//! it in [`envelope_handler`], register it with the world under a
//! metrics registry, then build one pooled client stack per edge. A
//! [`Topology`] factors that wiring out so the Fig. 1 exchange, the
//! marketplace chain, and the soak fleet all assemble the same way:
//!
//! ```ignore
//! let topo = Topology::new(&world, compiled).with_retries(seed, 3, deadline);
//! let receiver = topo.peer("receiver.example.org");     // listening peer
//! let provider = topo.serve("provider.example.org", h); // custom handler
//! let sender   = topo.local_peer("sender.example.org"); // client-only
//! let link     = topo.remote("sender.example.org", "receiver.example.org");
//! ```
//!
//! Construction draws nothing from the world RNG, so assembling a cast
//! through a topology is transcript-identical to hand wiring with the
//! same configurations.

use crate::world::{SimServerConfig, SimWorld};
use axml_net::{ClientConfig, NetClient};
use axml_peer::{envelope_handler, Peer, RemotePeer};
use axml_schema::Compiled;
use std::sync::Arc;
use std::time::Duration;

/// A listening peer node: the real enforcement pipeline served as a sim
/// actor, plus the registry its `server.*` metrics land in.
pub struct PeerNode {
    /// The endpoint the node listens on (also its peer name).
    pub endpoint: String,
    /// The peer behind the endpoint (repository, declared services).
    pub peer: Arc<Peer>,
    /// Server-side metrics registry (accounting identity checks read it).
    pub metrics: axml_obs::Registry,
}

/// One client edge: a pooled [`RemotePeer`] stack from a named caller to
/// an endpoint, plus the registry its `client.*` metrics land in.
pub struct Link {
    /// The remote peer the edge calls into.
    pub remote: RemotePeer,
    /// Client-side metrics registry (retry-bound checks read it).
    pub metrics: axml_obs::Registry,
}

/// Builds peers, custom services, and client edges over one [`SimWorld`]
/// and one shared vocabulary.
pub struct Topology<'w> {
    world: &'w SimWorld,
    compiled: Arc<Compiled>,
    client_template: ClientConfig,
}

impl<'w> Topology<'w> {
    /// A topology over `world` with the given shared vocabulary and
    /// default client settings.
    pub fn new(world: &'w SimWorld, compiled: Arc<Compiled>) -> Topology<'w> {
        Topology {
            world,
            compiled,
            client_template: ClientConfig::default(),
        }
    }

    /// Sets the client every [`Topology::remote`] edge starts from (its
    /// `name` and `metrics` are overridden per edge): the simulator's
    /// timings — 100 ms to connect, 200 ms per read, a 10 ms base backoff
    /// with jitter seeded by `seed` — and the runner's attempt budget and
    /// total deadline.
    pub fn with_retries(mut self, seed: u64, attempts: u32, deadline: Duration) -> Topology<'w> {
        self.client_template = ClientConfig {
            connect_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(200),
            attempts,
            backoff: Duration::from_millis(10),
            deadline,
            seed,
            ..ClientConfig::default()
        };
        self
    }

    /// The shared vocabulary.
    pub fn compiled(&self) -> &Arc<Compiled> {
        &self.compiled
    }

    /// A peer that exists only as a caller: it has a repository and can
    /// enforce, but listens on no endpoint.
    pub fn local_peer(&self, name: &str) -> Arc<Peer> {
        self.local_peer_with(name, Arc::new(axml_services::Registry::new()))
    }

    /// Like [`Topology::local_peer`] but over a caller-supplied service
    /// registry (e.g. local services under ACLs, subject to churn).
    pub fn local_peer_with(
        &self,
        name: &str,
        services: Arc<axml_services::Registry>,
    ) -> Arc<Peer> {
        Arc::new(Peer::new(name, Arc::clone(&self.compiled), services))
    }

    /// A listening peer: the real [`envelope_handler`] pipeline behind
    /// `endpoint`, with a fresh service registry and metrics registry.
    pub fn peer(&self, endpoint: &str) -> PeerNode {
        self.peer_with(endpoint, Arc::new(axml_services::Registry::new()))
    }

    /// Like [`Topology::peer`] but over a caller-supplied service
    /// registry (e.g. pre-populated with declared services and ACLs).
    pub fn peer_with(&self, endpoint: &str, services: Arc<axml_services::Registry>) -> PeerNode {
        let peer = Arc::new(Peer::new(endpoint, Arc::clone(&self.compiled), services));
        let metrics = self.serve(endpoint, envelope_handler(Arc::clone(&peer)));
        PeerNode {
            endpoint: endpoint.to_owned(),
            peer,
            metrics,
        }
    }

    /// Registers an arbitrary handler (e.g. a [`crate::strategy`]
    /// provider) at `endpoint` and returns its server metrics registry.
    pub fn serve(&self, endpoint: &str, handler: Arc<dyn axml_net::Handler>) -> axml_obs::Registry {
        let metrics = axml_obs::Registry::new();
        self.world.listen(
            endpoint,
            handler,
            SimServerConfig {
                name: endpoint.to_owned(),
                metrics: metrics.clone(),
                ..SimServerConfig::default()
            },
        );
        metrics
    }

    /// A pooled client edge from the named caller to `endpoint`, built
    /// from the client template.
    pub fn remote(&self, from: &str, endpoint: &str) -> Link {
        let metrics = axml_obs::Registry::new();
        let config = ClientConfig {
            name: from.to_owned(),
            metrics: metrics.clone(),
            ..self.client_template.clone()
        };
        let remote = RemotePeer::from_client(NetClient::with_transport(
            endpoint,
            self.world.transport(from),
            self.world.clock(),
            config,
        ));
        Link { remote, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::exchange_schema;
    use crate::world::FaultPlan;
    use axml_peer::Query;
    use axml_schema::ITree;
    use axml_services::ServiceDef;

    #[test]
    fn topology_wires_a_roundtrip_exchange() {
        let world = SimWorld::new(3, FaultPlan::default());
        let topo = Topology::new(&world, exchange_schema());
        let receiver = topo.peer("r.example.org");
        let sender = topo.local_peer("s.example.org");
        let link = topo.remote("s.example.org", "r.example.org");
        let doc = ITree::elem(
            "r",
            vec![ITree::elem(
                "exhibit",
                vec![ITree::data("title", "monet"), ITree::data("date", "mon")],
            )],
        );
        link.remote
            .send_document(&sender, "program", &doc, topo.compiled())
            .unwrap();
        assert_eq!(receiver.peer.repository.load("program").unwrap(), doc);
        let snap = receiver.metrics.snapshot();
        assert_eq!(
            snap.counter("server.requests_total"),
            snap.counter("server.responses_ok_total") + snap.counter("server.faults_total"),
        );
        assert!(link.metrics.snapshot().counter("client.calls_total") >= 1);
    }

    #[test]
    fn declared_services_survive_the_peer_with_path() {
        let world = SimWorld::new(4, FaultPlan::default());
        let topo = Topology::new(&world, exchange_schema());
        let node = topo.peer("dates.example.org");
        node.peer.declare(
            ServiceDef::new("Get_Date", "title", "date"),
            Query::Const(vec![ITree::data("date", "mon")]),
        );
        let caller = topo.local_peer("caller.example.org");
        let link = topo.remote("caller.example.org", "dates.example.org");
        let out = link
            .remote
            .invoke_service(&caller, "Get_Date", &[ITree::data("title", "x")])
            .unwrap();
        assert!(!out.is_empty());
    }
}
