//! Peers as network daemons: the in-process [`Peer`] served over TCP.
//!
//! The paper's system (Sec. 7) is a daemon whose Schema Enforcement module
//! intercepts every exchange. [`NetPeer`] realizes that daemon on top of
//! `axml-net`: it plugs the peer's envelope handling in as the TCP
//! server's request handler, and [`RemotePeer`] is the client side —
//! invoking declared services and shipping documents (the Fig. 1
//! scenario) against a daemon across the wire, with enforcement on both
//! ends:
//!
//! * the **sender** rewrites parameters / documents into the agreed type
//!   before they leave ([`Peer::enforce_input`], safe rewriting against
//!   the exchange schema);
//! * the **receiver** re-verifies everything that arrives (the service
//!   handler's input/output enforcement; [`RECEIVE_METHOD`] validation
//!   against the receiving peer's own schema plus its
//!   [`InboundPolicy`](crate::InboundPolicy)).
//!
//! Enforcement failures travel as typed wire faults; [`wire_fault`] /
//! [`soap_fault`] give the 1:1 mapping between [`soap::Fault`] envelopes
//! and `axml-net` fault frames.

use crate::peer::{Peer, PeerError};
use axml_core::invoke::{InvokeError, Invoker};
use axml_core::rewrite::RewriteReport;
use axml_core::stream::{enforce_stream_to, enforce_stream_with, StreamOptions, StreamReport};
use axml_net::wire::{FaultCode, WireFault, CAP_CHUNKED};
use axml_net::{ClientConfig, ClientError, Handler, NetClient, NetServer, ServerConfig};
use axml_schema::{
    validate, validate_output_instance, validate_xml_stream, Compiled, ITree, SchemaError,
};
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

    /// Invokes a declared service on a remote daemon on behalf of the
    /// served peer (see [`RemotePeer::invoke_service`]).
    pub fn invoke_service(
        &self,
        remote: &RemotePeer,
        method: &str,
        params: &[ITree],
    ) -> Result<Vec<ITree>, PeerError> {
        remote.invoke_service(&self.peer, method, params)
    }

    /// Ships a document to a remote daemon under an agreed exchange
    /// schema (see [`RemotePeer::send_document`]).
    pub fn send_document(
        &self,
        remote: &RemotePeer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        remote.send_document(&self.peer, name, doc, exchange)
    }

    /// Ships a document to a remote daemon as a chunked wire transfer
    /// (see [`RemotePeer::send_document_chunked`]).
    pub fn send_document_chunked(
        &self,
        remote: &RemotePeer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        chunk_bytes: usize,
    ) -> Result<StreamReport, PeerError> {
        remote.send_document_chunked(&self.peer, name, doc, exchange, chunk_bytes)
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
/// rides in the `DocChunkStart` frame). [`validate_xml_stream`] checks the
/// text against the receiver's schema before any tree is built; the parse
/// into the repository's [`ITree`] form afterwards is the storage cost.
pub fn receive_document_text(peer: &Peer, name: &str, text: &str) -> Result<String, PeerError> {
    check_name(name)?;
    validated(validate_xml_stream(text, &peer.compiled))?;
    let doc = axml_xml::parse_document(text)
        .map_err(|e| PeerError::Enforcement(format!("chunked document: {e}")))
        .and_then(|d| ITree::from_xml(&d.root).map_err(PeerError::Enforcement))?;
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
    validated(validate(&doc, &peer.compiled))?;
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
fn validated(verdict: Result<(), SchemaError>) -> Result<(), PeerError> {
    axml_obs::global().counter("peer.validated_total").inc();
    verdict.map_err(|e| PeerError::Enforcement(e.to_string()))
}

/// The step both receive paths end in: inbound policy, then storage.
fn accept(peer: &Peer, name: &str, doc: ITree) -> Result<String, PeerError> {
    peer.inbound.check(std::slice::from_ref(&doc))?;
    peer.repository.store(name, doc);
    axml_obs::global().counter("peer.received_total").inc();
    Ok(name.to_owned())
}

/// A client handle to a remote peer daemon.
pub struct RemotePeer {
    client: NetClient,
}

impl RemotePeer {
    /// Creates a handle for the daemon at `addr` (connections are dialed
    /// lazily and pooled).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<RemotePeer, PeerError> {
        Ok(RemotePeer {
            client: NetClient::new(addr, config).map_err(client_error)?,
        })
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
    /// `caller`, with enforcement on both sides of the wire: `caller`
    /// rewrites the parameters into the service's input type before
    /// sending, and screens/validates the result against the declared
    /// output type and its inbound policy.
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
        let params = caller.enforce_input(method, params)?;
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
    /// [`RECEIVE_METHOD`]; the receiver re-verifies and stores it.
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
        // One span tree per exchange, correlated with the receiver's
        // `validate` span through the wire request id.
        let rid = axml_obs::next_request_id();
        let metrics = axml_obs::global();
        metrics.counter("peer.exchanges_total").inc();
        let mut ex = axml_obs::span("exchange");
        ex.set("rid", rid);
        ex.set("doc", name);
        let result = self.ship_document(caller, rid, name, doc, exchange, invoker);
        if let Err(e) = &result {
            metrics.counter("peer.exchange_faults_total").inc();
            ex.fail(e);
        }
        result
    }

    /// Sender-side whole-document enforcement: element documents stream
    /// through [`enforce_stream_with`] (warming the caller's solver cache
    /// and its `enforce.stream.*` metrics); any other root takes the DOM
    /// pipeline.
    fn enforce_outbound(
        caller: &Peer,
        exchange: &Compiled,
        doc: &ITree,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        if !matches!(doc, ITree::Elem { .. }) {
            return axml_core::rewrite::enforce(exchange, doc, caller.enforce.k, invoker)
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

    /// Ships a document as a *chunked* wire transfer — the path for
    /// documents larger than the frame cap (or than sender RAM would
    /// allow as one enforced string). The enforced output streams from
    /// [`enforce_stream_to`] straight into `DocChunk` frames of
    /// `chunk_bytes` bytes each, so the sender's peak memory is
    /// O(`chunk_bytes` + the stream engine's `peak_buffer_bytes`) beyond
    /// the input text itself. Against a pre-capability peer this falls
    /// back transparently to the single-frame [`RemotePeer::send_document`]
    /// pipeline (the returned report has `fell_back` set and carries the
    /// DOM rewrite report).
    pub fn send_document_chunked(
        &self,
        caller: &Peer,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        chunk_bytes: usize,
    ) -> Result<StreamReport, PeerError> {
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
    ) -> Result<StreamReport, PeerError> {
        let rid = axml_obs::next_request_id();
        let metrics = axml_obs::global();
        metrics.counter("peer.exchanges_total").inc();
        let mut ex = axml_obs::span("exchange");
        ex.set("rid", rid);
        ex.set("doc", name);
        ex.set("chunk_bytes", chunk_bytes);
        let result =
            self.ship_document_chunked(caller, rid, name, doc, exchange, chunk_bytes, invoker);
        if let Err(e) = &result {
            metrics.counter("peer.exchange_faults_total").inc();
            ex.fail(e);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn ship_document_chunked(
        &self,
        caller: &Peer,
        rid: u64,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        chunk_bytes: usize,
        invoker: &mut dyn Invoker,
    ) -> Result<StreamReport, PeerError> {
        let caps = self.client.server_caps().map_err(client_error)?;
        if caps & CAP_CHUNKED == 0 {
            // An old peer: ship the enforced document as one Request
            // frame instead — same enforcement, same reply semantics.
            let (_, rewrite) = self.ship_document(caller, rid, name, doc, exchange, invoker)?;
            let mut report = StreamReport::default();
            report.fell_back = true;
            report.rewrite = rewrite;
            return Ok(report);
        }
        let text =
            axml_xml::element_to_string(&doc.to_xml(), &axml_xml::WriteOptions::compact());
        let opts = StreamOptions {
            k: caller.enforce.k,
            cache: Some(caller.enforce.cache.clone()),
            ..StreamOptions::default()
        };
        let mut report: Option<StreamReport> = None;
        let mut enforce_err: Option<PeerError> = None;
        let reply = {
            let mut sp = axml_obs::span("ship");
            sp.set("rid", rid);
            sp.set("chunk_bytes", chunk_bytes);
            let outcome =
                self.client
                    .send_document_chunked(Some(rid), name, chunk_bytes, |sink| {
                        // Enforcement streams into the chunk sink; its
                        // typed error is captured here because the wire
                        // layer only understands io errors.
                        match enforce_stream_to(exchange, &text, &opts, invoker, sink) {
                            Ok(rep) => {
                                report = Some(rep);
                                Ok(())
                            }
                            Err(e) => {
                                enforce_err = Some(PeerError::from(e));
                                Err(std::io::Error::new(
                                    std::io::ErrorKind::Other,
                                    "enforcement failed",
                                ))
                            }
                        }
                    });
            match outcome {
                Ok(reply) => reply,
                Err(e) => {
                    if let Some(pe) = enforce_err {
                        sp.fail(&pe);
                        return Err(pe);
                    }
                    sp.fail(&e);
                    return Err(client_error(e));
                }
            }
        };
        match soap::decode(&reply).map_err(PeerError::Transport)? {
            soap::Message::Response { .. } => Ok(report.unwrap_or_default()),
            soap::Message::Fault(fault) => Err(PeerError::Fault(fault)),
            soap::Message::Request { .. } => {
                Err(PeerError::Transport("unexpected request".to_owned()))
            }
        }
    }

    fn ship_document(
        &self,
        caller: &Peer,
        rid: u64,
        name: &str,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        invoker: &mut dyn Invoker,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        let (sent, report) = {
            let mut sp = axml_obs::span("enforce");
            sp.set("rid", rid);
            match Self::enforce_outbound(caller, exchange, doc, invoker) {
                Ok(v) => v,
                Err(e) => {
                    sp.fail(&e);
                    return Err(e);
                }
            }
        };
        let params = [ITree::text(name), sent.clone()];
        let envelope = soap::request(RECEIVE_METHOD, &params).to_xml();
        let reply = {
            let mut sp = axml_obs::span("ship");
            sp.set("rid", rid);
            sp.set("bytes", envelope.len());
            match self.client.call_with_id(rid, &envelope) {
                Ok(r) => r,
                Err(e) => {
                    sp.fail(&e);
                    return Err(client_error(e));
                }
            }
        };
        match soap::decode(&reply).map_err(PeerError::Transport)? {
            soap::Message::Response { .. } => Ok((sent, report)),
            soap::Message::Fault(fault) => Err(PeerError::Fault(fault)),
            soap::Message::Request { .. } => {
                Err(PeerError::Transport("unexpected request".to_owned()))
            }
        }
    }
}

/// An [`Invoker`] that materializes embedded calls by invoking a remote
/// daemon's declared services over TCP — the network analogue of
/// [`RemoteInvoker`](crate::RemoteInvoker).
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
    use crate::peer::Query;
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
}
