//! Peers as network daemons: the in-process [`Peer`] served over TCP.
//!
//! The paper's system (Sec. 7) is a daemon whose Schema Enforcement module
//! intercepts every exchange. [`NetPeer`] realizes that daemon on top of
//! `axml-net`: it plugs the peer's envelope handling in as the server's
//! request handler ([`envelope_handler`], the one server-side dispatcher,
//! driven through `axml-net`'s connection core by both network engines
//! and by the simulator). [`RemotePeer`] is the client side — invoking
//! declared services and shipping documents (the Fig. 1 scenario)
//! against a daemon across the wire — and [`NetInvoker`] materializes
//! embedded calls through it. Rewriting is the sender's burden only:
//!
//! * the **sender** rewrites parameters / documents into the agreed type
//!   before they leave ([`RemotePeer::invoke_service`] enforces
//!   parameters into the service's input type, [`RemotePeer::send_document`]
//!   a document into the exchange schema; both by safe rewriting);
//! * the **receiver** validates everything that arrives and never
//!   rewrites it: a provider checks call parameters against the
//!   service's input type ([`Peer::handle`]) and enforces only its own
//!   results, and [`RECEIVE_METHOD`] checks a shipped document against
//!   the receiving peer's own schema plus its
//!   [`InboundPolicy`](crate::InboundPolicy). No word a peer sends
//!   reaches the receiver's solver.
//!
//! Enforcement failures travel as typed wire faults; [`wire_fault`] /
//! [`soap_fault`] give the 1:1 mapping between [`soap::Fault`] envelopes
//! and `axml-net` fault frames.

use crate::peer::{Peer, PeerError};
use axml_core::invoke::{InvokeError, Invoker};
use axml_core::rewrite::{enforce_forest, enforce_with, RewriteReport, Side, Strategy};
use axml_core::stream::{enforce_stream_with, StreamOptions};
use axml_net::wire::{FaultCode, WireFault, CAP_CHUNKED};
use axml_net::{ClientConfig, ClientError, Handler, NetClient, NetServer, ServerConfig};
use axml_schema::{read_validated, validate, validate_output_instance, Compiled, ITree, ReadError};
use axml_services::soap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// Reserved method for peer-to-peer document shipping (the Fig. 1
/// exchange): parameter 1 is the document name, parameter 2 the document.
/// The receiving daemon verifies the document against its own schema and
/// inbound policy, then stores it in its repository under that name.
pub const RECEIVE_METHOD: &str = "axml.receive";

/// Maps a SOAP fault onto the typed fault frame `axml-net` puts on the
/// wire. Dotted sub-codes collapse onto the nearest wire code (e.g.
/// `Client.NoSuchService` → `Client`); the message keeps the detail.
pub fn wire_fault(f: &soap::Fault) -> WireFault {
    let wf = WireFault::new(FaultCode::from_soap_code(&f.code), f.message.clone());
    if f.retryable {
        wf.retryable()
    } else {
        wf
    }
}

/// Maps a wire fault frame back onto a SOAP fault (inverse of
/// [`wire_fault`] up to sub-code granularity).
pub fn soap_fault(f: &WireFault) -> soap::Fault {
    let sf = soap::Fault::new(f.code.as_soap_code(), f.message.clone());
    if f.retryable {
        sf.retryable()
    } else {
        sf
    }
}

fn transport(e: impl std::fmt::Display) -> PeerError {
    PeerError::Transport(e.to_string())
}

fn client_error(e: ClientError) -> PeerError {
    match e {
        ClientError::Fault(wf) => PeerError::Fault(soap_fault(&wf)),
        other => PeerError::Transport(other.to_string()),
    }
}

/// An Active XML peer served as a TCP daemon.
pub struct NetPeer {
    peer: Arc<Peer>,
    server: NetServer,
}

impl NetPeer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves the
    /// peer's declared services plus [`RECEIVE_METHOD`] over it.
    pub fn serve(
        peer: Arc<Peer>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<NetPeer, PeerError> {
        let handler = envelope_handler(Arc::clone(&peer));
        let server = NetServer::bind(addr, handler, config).map_err(transport)?;
        Ok(NetPeer { peer, server })
    }

    /// The daemon's bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The peer being served.
    pub fn peer(&self) -> &Arc<Peer> {
        &self.peer
    }

    /// Graceful shutdown: stops the listener, joins every server thread,
    /// and reports any worker panic as a [`PeerError::Transport`].
    pub fn shutdown(self) -> Result<(), PeerError> {
        self.server.shutdown().map_err(transport)
    }
}

/// The peer's full server-side envelope handling (declared services plus
/// [`RECEIVE_METHOD`]) as an `axml-net` [`Handler`], so any server — the
/// threaded TCP daemon or the simulator's single-threaded in-memory peer —
/// serves exactly the same enforcement pipeline.
pub fn envelope_handler(peer: Arc<Peer>) -> Arc<dyn Handler> {
    Arc::new(PeerHandler { peer })
}

/// The served peer as an `axml-net` [`Handler`]: SOAP envelopes through
/// [`handle_net_envelope`], chunk-shipped documents through
/// [`receive_document_text`].
struct PeerHandler {
    peer: Arc<Peer>,
}

impl Handler for PeerHandler {
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault> {
        handle_net_envelope(&self.peer, id, envelope)
    }

    fn handle_document(&self, id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        handle_net_document(&self.peer, id, name, text)
    }
}

/// The server side of one envelope: decode, dispatch, and turn peer
/// errors into typed wire faults. `rid` is the wire request id the
/// sender stamped on the frame; the receiver's `validate` span carries it
/// so one exchange can be followed across both processes.
fn handle_net_envelope(peer: &Peer, rid: u64, envelope: &str) -> Result<String, WireFault> {
    let mut sp = axml_obs::span("validate");
    sp.set("rid", rid);
    sp.set("peer", &peer.name);
    let result = handle_net_envelope_inner(peer, &mut sp, envelope);
    if let Err(fault) = &result {
        sp.fail(&fault.message);
    }
    result
}

fn handle_net_envelope_inner(
    peer: &Peer,
    sp: &mut axml_obs::SpanGuard,
    envelope: &str,
) -> Result<String, WireFault> {
    let message = soap::decode(envelope)
        .map_err(|e| WireFault::new(FaultCode::Client, format!("bad envelope: {e}")))?;
    match message {
        soap::Message::Request { method, params } if method == RECEIVE_METHOD => {
            sp.set("method", RECEIVE_METHOD);
            receive_document(peer, params)
                .map(|name| soap::response(&[ITree::text(&name)]).to_xml())
                .map_err(|e| wire_fault(&e.to_fault()))
        }
        soap::Message::Request { method, params } => {
            sp.set("method", &method);
            peer.handle(&method, &params)
                .map(|result| soap::response(&result).to_xml())
                .map_err(|e| wire_fault(&e.to_fault()))
        }
        _ => Err(WireFault::new(
            FaultCode::Client,
            "expected a call request",
        )),
    }
}

/// The server side of one chunk-shipped document, span-wrapped like
/// [`handle_net_envelope`] so sender and receiver correlate through the
/// wire request id regardless of the shipping mode.
fn handle_net_document(peer: &Peer, rid: u64, name: &str, text: &str) -> Result<String, WireFault> {
    let mut sp = axml_obs::span("validate");
    sp.set("rid", rid);
    sp.set("peer", &peer.name);
    sp.set("method", RECEIVE_METHOD);
    sp.set("doc", name);
    let result = receive_document_text(peer, name, text)
        .map(|stored| soap::response(&[ITree::text(&stored)]).to_xml())
        .map_err(|e| wire_fault(&e.to_fault()));
    if let Err(fault) = &result {
        sp.fail(&fault.message);
    }
    result
}

/// Receiver side of a *chunked* Fig. 1 exchange: the document arrives as
/// raw XML text (chunked transfers carry no SOAP envelope — the name
/// rides in the `DocChunkStart` frame). One pass, [`read_validated`],
/// checks the text against the receiver's schema and builds the
/// repository's [`ITree`] as it goes, with no DOM in between. A schema
/// violation is reported as the stream validator words it, malformed
/// text after the root as `chunked document: …`, and `int:fun` markup
/// that does not decode in [`ITree::from_xml`]'s words.
pub fn receive_document_text(peer: &Peer, name: &str, text: &str) -> Result<String, PeerError> {
    check_name(name)?;
    let doc = validated(read_validated(text, &peer.compiled).map_err(|e| match e {
        ReadError::Trailing(e) => format!("chunked document: {e}"),
        e => e.to_string(),
    }))?;
    accept(peer, name, doc)
}

/// Receiver side of the Fig. 1 exchange: validate the shipped document
/// against this peer's schema and inbound policy, then store it.
fn receive_document(peer: &Peer, params: Vec<ITree>) -> Result<String, PeerError> {
    let [name, doc]: [ITree; 2] = params.try_into().map_err(|params: Vec<ITree>| {
        PeerError::Enforcement(format!(
            "{RECEIVE_METHOD} expects (name, document), got {} parameters",
            params.len()
        ))
    })?;
    let ITree::Text(name) = name else {
        return Err(PeerError::Enforcement(format!(
            "{RECEIVE_METHOD}: document name must be text"
        )));
    };
    check_name(&name)?;
    validated(validate(&doc, &peer.compiled).map_err(|e| e.to_string()))?;
    accept(peer, &name, doc)
}

fn check_name(name: &str) -> Result<(), PeerError> {
    if name.trim().is_empty() {
        return Err(PeerError::Enforcement(format!(
            "{RECEIVE_METHOD}: document name must be non-empty"
        )));
    }
    Ok(())
}

/// Receiver-side Schema Enforcement is a membership check: the document
/// must already be an instance of the receiver's schema, because
/// rewriting is the *sender's* burden under the agreed exchange schema.
/// Counts every receipt that reaches it, accepted or refused.
fn validated<T>(verdict: Result<T, String>) -> Result<T, PeerError> {
    axml_obs::global().counter("peer.validated_total").inc();
    verdict.map_err(PeerError::Enforcement)
}

/// The step both receive paths end in: inbound policy, then storage.
fn accept(peer: &Peer, name: &str, doc: ITree) -> Result<String, PeerError> {
    peer.inbound.check(std::slice::from_ref(&doc))?;
    peer.repository.store(name, doc);
    axml_obs::global().counter("peer.received_total").inc();
    Ok(name.to_owned())
}

/// A client handle to a remote peer daemon. A chunked ship writes the
/// enforced tree's XML straight into the transfer's frames, which the
/// pooled connection keeps for its next transfer, so nothing as large as
/// the document is allocated per ship.
pub struct RemotePeer {
    client: NetClient,
}

impl RemotePeer {
    /// Creates a handle for the daemon at `addr` (connections are dialed
    /// lazily and pooled).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<RemotePeer, PeerError> {
        let client = NetClient::new(addr, config).map_err(client_error)?;
        Ok(RemotePeer::from_client(client))
    }

    /// Wraps an already-built [`NetClient`] — e.g. one dialing an
    /// in-memory transport via [`NetClient::with_transport`].
    pub fn from_client(client: NetClient) -> RemotePeer {
        RemotePeer { client }
    }

    /// The remote daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.client.remote_addr()
    }

    /// The underlying transport client.
    pub fn client(&self) -> &NetClient {
        &self.client
    }

    /// Invokes a declared service on the remote daemon on behalf of
    /// `caller`: `caller` rewrites the parameters into the service's input
    /// type before sending (the provider only validates them), and
    /// screens/validates the result against the declared output type and
    /// its inbound policy.
    pub fn invoke_service(
        &self,
        caller: &Peer,
        method: &str,
        params: &[ITree],
    ) -> Result<Vec<ITree>, PeerError> {
        let rid = axml_obs::next_request_id();
        let mut sp = axml_obs::span("invoke");
        sp.set("rid", rid);
        sp.set("method", method);
        let result = self.invoke_service_inner(caller, rid, method, params);
        if let Err(e) = &result {
            sp.fail(e);
        }
        result
    }

    fn invoke_service_inner(
        &self,
        caller: &Peer,
        rid: u64,
        method: &str,
        params: &[ITree],
    ) -> Result<Vec<ITree>, PeerError> {
        let params = enforce_forest(
            &caller.compiled,
            method,
            Side::Input,
            params,
            caller.enforce.k,
            &caller.enforce.cache,
            &mut caller.registry.invoker(None),
        )?;
        let envelope = soap::request(method, &params).to_xml();
        let reply = self.client.call_with_id(rid, &envelope).map_err(client_error)?;
        match soap::decode(&reply).map_err(PeerError::Transport)? {
            soap::Message::Response { result } => {
                let sig = caller.compiled.sig_of(method);
                validate_output_instance(&result, &sig.output_dfa, &caller.compiled)
                    .map_err(|e| PeerError::Enforcement(e.to_string()))?;
                caller.inbound.check(&result)?;
                Ok(result)
            }
            soap::Message::Fault(fault) => Err(PeerError::Fault(fault)),
            soap::Message::Request { .. } => {
                Err(PeerError::Transport("unexpected request".to_owned()))
            }
        }
    }

    /// Ships a document to the remote daemon under an agreed exchange
    /// schema — Fig. 1 over TCP. `caller` first materializes exactly what
    /// the exchange schema requires (safe rewriting through its own
    /// registry), then sends the conforming document via
    /// [`RECEIVE_METHOD`]; the receiver validates and stores it.
    /// Returns the document as sent plus the rewrite report.
    pub fn send_document(
        &self,
        caller: &Peer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        let mut invoker = caller.registry.invoker(None);
        self.send_document_with(caller, name, doc, exchange, &mut invoker)
    }

    /// Like [`RemotePeer::send_document`], but materializing embedded
    /// calls through an explicit [`Invoker`] — e.g. a [`NetInvoker`]
    /// pointed at a *third* daemon that provides the services, the full
    /// three-party Fig. 1 scenario.
    pub fn send_document_with(
        &self,
        caller: &Peer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        exchange_span(name, None, |rid| {
            self.ship_document(caller, rid, name, doc, exchange, invoker)
        })
    }

    /// Ships a document as a *chunked* wire transfer — the path for
    /// documents larger than the frame cap. `caller` enforces the document
    /// once, as [`RemotePeer::send_document`] does, before the transfer
    /// opens; the transfer then writes the enforced tree's compact XML
    /// ([`ITree::write_xml`]) straight into `DocChunk` frames of
    /// `chunk_bytes` bytes each, with no DOM or text copy in between. A
    /// retry writes the same bytes again from the tree, and no service is
    /// called while a transfer is open. Against a peer without chunked
    /// transfers this is the single-frame ship. Returns the document as
    /// sent plus the rewrite report.
    pub fn send_document_chunked(
        &self,
        caller: &Peer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        chunk_bytes: usize,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        let mut invoker = caller.registry.invoker(None);
        self.send_document_chunked_with(caller, name, doc, exchange, chunk_bytes, &mut invoker)
    }

    /// Like [`RemotePeer::send_document_chunked`], but materializing
    /// embedded calls through an explicit [`Invoker`].
    pub fn send_document_chunked_with(
        &self,
        caller: &Peer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        chunk_bytes: usize,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        exchange_span(name, Some(chunk_bytes), |rid| {
            if self.client.server_caps().map_err(client_error)? & CAP_CHUNKED == 0 {
                return self.ship_document(caller, rid, name, doc, exchange, invoker);
            }
            let (k, cache) = (caller.enforce.k, &caller.enforce.cache);
            let (sent, report) = step_span("enforce", rid, |_| {
                enforce_with(exchange, doc, k, Strategy::Safe, cache, invoker)
                    .map_err(PeerError::from)
            })?;
            let reply = step_span("ship", rid, |sp| {
                sp.set("chunk_bytes", chunk_bytes);
                let mut bytes = 0;
                let write = |sink: &mut dyn std::io::Write| {
                    bytes = write_tree(&sent, sink)?;
                    Ok(())
                };
                let reply = self
                    .client
                    .send_document_chunked(Some(rid), name, chunk_bytes, write);
                sp.set("bytes", bytes);
                reply
            });
            stored(&reply.map_err(client_error)?)?;
            Ok((sent, report))
        })
    }

    /// Sender-side whole-document enforcement for the single-frame ship:
    /// element documents stream through [`enforce_stream_with`] (warming
    /// the caller's solver cache and its `enforce.stream.*` metrics); any
    /// other root takes the DOM pipeline through the same cache.
    fn enforce_outbound(
        caller: &Peer,
        exchange: &Compiled,
        doc: &ITree,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        if !matches!(doc, ITree::Elem { .. }) {
            let (k, cache) = (caller.enforce.k, &caller.enforce.cache);
            return enforce_with(exchange, doc, k, Strategy::Safe, cache, invoker)
                .map_err(PeerError::from);
        }
        let text = axml_xml::element_to_string(&doc.to_xml(), &axml_xml::WriteOptions::compact());
        let opts = StreamOptions {
            k: caller.enforce.k,
            cache: Some(caller.enforce.cache.clone()),
            ..StreamOptions::default()
        };
        let (out, rep) =
            enforce_stream_with(exchange, &text, &opts, invoker).map_err(PeerError::from)?;
        let sent = axml_xml::parse_document(&out)
            .map_err(|e| PeerError::Enforcement(format!("re-parsing enforced output: {e}")))
            .and_then(|d| ITree::from_xml(&d.root).map_err(PeerError::Enforcement))?;
        Ok((sent, rep.rewrite))
    }

    /// The single-frame ship: enforce, then send one [`RECEIVE_METHOD`]
    /// request frame.
    fn ship_document(
        &self,
        caller: &Peer,
        rid: u64,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        let (sent, report) = step_span("enforce", rid, |_| {
            Self::enforce_outbound(caller, exchange, doc, invoker)
        })?;
        let params = [ITree::text(name), sent.clone()];
        let envelope = soap::request(RECEIVE_METHOD, &params).to_xml();
        let reply = step_span("ship", rid, |sp| {
            sp.set("bytes", envelope.len());
            self.client.call_with_id(rid, &envelope)
        })
        .map_err(client_error)?;
        stored(&reply)?;
        Ok((sent, report))
    }
}

/// Writes `tree`'s compact XML into a chunked transfer's sink and returns
/// the number of bytes written.
fn write_tree(tree: &ITree, sink: &mut dyn std::io::Write) -> std::io::Result<usize> {
    let mut out = SinkWriter {
        sink,
        bytes: 0,
        error: None,
    };
    match tree.write_xml(&mut out) {
        Ok(()) => Ok(out.bytes),
        Err(_) => Err(out
            .error
            .unwrap_or_else(|| std::io::Error::other("tree writer failed"))),
    }
}

/// [`ITree::write_xml`]'s target for a chunked transfer: passes the text
/// to the transfer's sink and counts it, keeping the sink's error.
struct SinkWriter<'a> {
    sink: &'a mut dyn std::io::Write,
    bytes: usize,
    error: Option<std::io::Error>,
}

impl std::fmt::Write for SinkWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if let Err(e) = self.sink.write_all(s.as_bytes()) {
            self.error = Some(e);
            return Err(std::fmt::Error);
        }
        self.bytes += s.len();
        Ok(())
    }
}

/// One span tree per exchange, correlated with the receiver's `validate`
/// span through the wire request id `ship` is handed.
fn exchange_span<T>(
    name: &str,
    chunk_bytes: Option<usize>,
    ship: impl FnOnce(u64) -> Result<T, PeerError>,
) -> Result<T, PeerError> {
    let rid = axml_obs::next_request_id();
    let metrics = axml_obs::global();
    metrics.counter("peer.exchanges_total").inc();
    let mut ex = axml_obs::span("exchange");
    ex.set("rid", rid);
    ex.set("doc", name);
    if let Some(chunk_bytes) = chunk_bytes {
        ex.set("chunk_bytes", chunk_bytes);
    }
    let result = ship(rid);
    if let Err(e) = &result {
        metrics.counter("peer.exchange_faults_total").inc();
        ex.fail(e);
    }
    result
}

/// Runs one step of an exchange under a span named `name`, failing the
/// span with the step's error.
fn step_span<T, E: std::fmt::Display>(
    name: &str,
    rid: u64,
    step: impl FnOnce(&mut axml_obs::SpanGuard) -> Result<T, E>,
) -> Result<T, E> {
    let mut sp = axml_obs::span(name);
    sp.set("rid", rid);
    let result = step(&mut sp);
    if let Err(e) = &result {
        sp.fail(e);
    }
    result
}

/// The receiver's answer to a shipped document: a response means it was
/// stored.
fn stored(reply: &str) -> Result<(), PeerError> {
    match soap::decode(reply).map_err(PeerError::Transport)? {
        soap::Message::Response { .. } => Ok(()),
        soap::Message::Fault(fault) => Err(PeerError::Fault(fault)),
        soap::Message::Request { .. } => Err(PeerError::Transport("unexpected request".to_owned())),
    }
}

/// An [`Invoker`] that materializes embedded calls by invoking a remote
/// daemon's declared services (used when one peer materializes calls
/// that point at another peer).
pub struct NetInvoker<'a> {
    /// The calling peer (enforcement + policy side).
    pub caller: &'a Peer,
    /// The daemon providing the services.
    pub remote: &'a RemotePeer,
}

impl Invoker for NetInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        self.remote
            .invoke_service(self.caller, function, params)
            .map_err(|e| InvokeError {
                function: function.to_owned(),
                message: e.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::{InboundPolicy, Query};
    use axml_schema::{NoOracle, Schema};
    use axml_services::{Registry, ServiceDef};

    fn vocab() -> Schema {
        Schema::builder()
            .element("listings", "exhibit*")
            .element("exhibit", "title.date")
            .data_element("title")
            .data_element("date")
            .function("Get_Exhibits", "data", "exhibit*")
            .build()
            .unwrap()
    }

    fn provider() -> Arc<Peer> {
        let compiled = Arc::new(Compiled::new(vocab(), &NoOracle).unwrap());
        let peer = Arc::new(Peer::new(
            "listings.example.org",
            compiled,
            Arc::new(Registry::new()),
        ));
        peer.repository.store(
            "program",
            ITree::elem(
                "listings",
                vec![ITree::elem(
                    "exhibit",
                    vec![ITree::data("title", "Monet"), ITree::data("date", "Mon")],
                )],
            ),
        );
        peer.declare(
            ServiceDef::new("Get_Exhibits", "data", "exhibit*"),
            Query::Children("program".to_owned()),
        );
        peer
    }

    #[test]
    fn fault_mapping_roundtrips_code_and_retryable() {
        let busy = soap::Fault::new("Server.Busy", "queue full").retryable();
        let wf = wire_fault(&busy);
        assert_eq!(wf.code, FaultCode::Busy);
        assert!(wf.retryable);
        assert_eq!(soap_fault(&wf), busy);
        // Dotted sub-codes collapse to the base wire code.
        let no_such = soap::Fault::new("Client.NoSuchService", "no service 'X'");
        assert_eq!(wire_fault(&no_such).code, FaultCode::Client);
        assert!(!wire_fault(&no_such).retryable);
    }

    #[test]
    fn serve_and_invoke_over_loopback() {
        let peer = provider();
        let daemon = NetPeer::serve(Arc::clone(&peer), "127.0.0.1:0", ServerConfig::default())
            .unwrap();
        let remote = RemotePeer::connect(daemon.local_addr(), ClientConfig::default()).unwrap();
        let result = remote
            .invoke_service(&peer, "Get_Exhibits", &[ITree::text("all")])
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].name(), Some("exhibit"));
        // An undeclared service comes back as a typed SOAP fault.
        let err = remote
            .invoke_service(&peer, "Get_Nothing", &[])
            .unwrap_err();
        assert!(
            matches!(err, PeerError::Fault(ref f) if f.code == "Client" && !f.retryable),
            "{err}"
        );
        daemon.shutdown().unwrap();
    }

    #[test]
    fn chunked_ships_on_one_handle_each_send_their_own_document() {
        // The pooled connection keeps its chunk frame buffer between
        // ships: the shorter second document must not carry the first
        // one's tail.
        let peer = provider();
        let daemon = NetPeer::serve(Arc::clone(&peer), "127.0.0.1:0", ServerConfig::default())
            .unwrap();
        let remote = RemotePeer::connect(daemon.local_addr(), ClientConfig::default()).unwrap();
        let exhibit = |i: usize| {
            let title = format!("Monet {i}");
            ITree::elem(
                "exhibit",
                vec![ITree::data("title", &title), ITree::data("date", "Mon")],
            )
        };
        let long = ITree::elem("listings", (0..200).map(exhibit).collect());
        let short = ITree::elem("listings", vec![exhibit(7)]);
        for (name, doc) in [("long", &long), ("short", &short)] {
            let (sent, _) = remote
                .send_document_chunked(&peer, name, doc, &peer.compiled, 64)
                .unwrap();
            assert_eq!(&sent, doc, "{name}");
            assert_eq!(&peer.repository.load(name).unwrap(), doc, "{name}");
        }
        daemon.shutdown().unwrap();
    }

    #[test]
    fn receive_document_verifies_then_stores() {
        let peer = provider();
        let doc = ITree::elem(
            "exhibit",
            vec![ITree::data("title", "Rodin"), ITree::data("date", "Tue")],
        );
        let name =
            receive_document(&peer, vec![ITree::text("inbox-exhibit"), doc.clone()]).unwrap();
        assert_eq!(name, "inbox-exhibit");
        assert_eq!(peer.repository.load("inbox-exhibit").unwrap(), doc);
        // A document outside the receiver's schema is refused.
        let bad = ITree::elem("exhibit", vec![ITree::data("title", "No date")]);
        let err = receive_document(&peer, vec![ITree::text("bad"), bad]).unwrap_err();
        assert!(matches!(err, PeerError::Enforcement(_)), "{err}");
        // Malformed parameter lists are refused, not panicked on.
        assert!(receive_document(&peer, vec![]).is_err());
        assert!(receive_document(&peer, vec![ITree::text(" "), ITree::text("x")]).is_err());
        // A call the schema wants materialized is refused on both paths
        // without solving a game: the receiver never rewrites.
        let lazy = ITree::elem(
            "listings",
            vec![ITree::func("Get_Exhibits", vec![ITree::text("all")])],
        );
        let err = receive_document(&peer, vec![ITree::text("lazy"), lazy.clone()]).unwrap_err();
        assert!(matches!(err, PeerError::Enforcement(_)), "{err}");
        let text = axml_xml::element_to_string(&lazy.to_xml(), &axml_xml::WriteOptions::compact());
        let err = receive_document_text(&peer, "lazy", &text).unwrap_err();
        assert!(matches!(err, PeerError::Enforcement(_)), "{err}");
        assert!(peer.repository.load("lazy").is_err());
        assert_eq!(peer.solve_cache().stats().lookups, 0);
    }

    #[test]
    fn reject_functions_caller_refuses_an_intensional_answer() {
        // Front_Page answers a newspaper whose listings are still a call.
        let schema = Schema::builder()
            .element("newspaper", "title.(Get_Exhibits|exhibit*)")
            .element("exhibit", "title.date")
            .data_element("title")
            .data_element("date")
            .function("Get_Exhibits", "data", "exhibit*")
            .function("Front_Page", "data", "newspaper")
            .build()
            .unwrap();
        let compiled = Arc::new(Compiled::new(schema, &NoOracle).unwrap());
        let provider = Arc::new(Peer::new(
            "newspaper.example.org",
            Arc::clone(&compiled),
            Arc::new(Registry::new()),
        ));
        provider.repository.store(
            "front",
            ITree::elem(
                "newspaper",
                vec![
                    ITree::data("title", "The Sun"),
                    ITree::func("Get_Exhibits", vec![ITree::text("all")]),
                ],
            ),
        );
        provider.declare(
            ServiceDef::new("Front_Page", "data", "newspaper"),
            Query::Document("front".to_owned()),
        );
        let daemon = NetPeer::serve(provider, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let remote = RemotePeer::connect(daemon.local_addr(), ClientConfig::default()).unwrap();
        let today = [ITree::text("today")];
        // A full Active XML peer takes the answer with its call intact.
        let reader = Peer::new("reader", Arc::clone(&compiled), Arc::new(Registry::new()));
        let page = remote
            .invoke_service(&reader, "Front_Page", &today)
            .unwrap();
        assert_eq!(page[0].num_funcs(), 1);
        // A browser-like caller that cannot process embedded calls refuses it.
        let browser = Peer::new("browser", compiled, Arc::new(Registry::new()))
            .with_inbound(InboundPolicy::RejectFunctions);
        let err = remote
            .invoke_service(&browser, "Front_Page", &today)
            .unwrap_err();
        assert!(
            matches!(err, PeerError::PolicyViolation { ref function } if function == "Get_Exhibits"),
            "{err}"
        );
        daemon.shutdown().unwrap();
    }
}
