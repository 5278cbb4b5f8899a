//! Active XML peers and the Schema Enforcement module (Sec. 7).
//!
//! A peer stores intensional documents, declares Web services over them,
//! and talks SOAP with the rest of the world. Its **Schema Enforcement
//! module** sits on both directions of every exchange:
//!
//! * outbound call parameters are (i) verified against the callee's
//!   WSDL_int description, (ii) rewritten into the required structure when
//!   they do not conform, and (iii) rejected with an error when rewriting
//!   fails;
//! * the data a declared service is about to return goes through the same
//!   three steps against the service's declared output type;
//! * inbound results can additionally be screened by a receiver
//!   [`InboundPolicy`] (the Sec. 1 capability/security considerations —
//!   e.g. a receiver that cannot or will not invoke embedded calls).

use crate::repository::Repository;
use axml_core::invoke::{InvokeError, Invoker};
use axml_core::rewrite::{enforce_with, RewriteError, RewriteReport, Rewriter, Strategy};
use axml_core::solve_cache::SolveCache;
use axml_schema::{validate_output_instance, Compiled, ITree};
use axml_services::{soap, Registry, ServiceDef};
use axml_support::sync::channel::{bounded, unbounded, Receiver, Sender};
use axml_support::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a declared service computes, over the peer's repository.
#[derive(Debug, Clone)]
pub enum Query {
    /// Return the stored document itself.
    Document(String),
    /// Return the children forest of the stored document's root.
    Children(String),
    /// Return a fixed forest.
    Const(Vec<ITree>),
    /// Evaluate a [`axml_schema::PathQuery`] over a stored document and
    /// return the matches.
    Path {
        /// Repository document name.
        doc: String,
        /// The path expression (see `axml_schema::path`).
        path: axml_schema::PathQuery,
    },
}

/// Receiver-side screening of exchanged data (Sec. 1: capabilities and
/// security).
#[derive(Debug, Clone, Default)]
pub enum InboundPolicy {
    /// Accept anything (a full Active XML peer).
    #[default]
    AcceptAll,
    /// Refuse documents containing *any* embedded call (a plain browser).
    RejectFunctions,
    /// Refuse calls to services outside this trusted list.
    AllowOnly(Vec<String>),
}

impl InboundPolicy {
    /// Checks a forest against the policy.
    pub fn check(&self, forest: &[ITree]) -> Result<(), PeerError> {
        let mut offending: Option<String> = None;
        for t in forest {
            t.visit(&mut |n| {
                if let ITree::Func(f) = n {
                    let ok = match self {
                        InboundPolicy::AcceptAll => true,
                        InboundPolicy::RejectFunctions => false,
                        InboundPolicy::AllowOnly(list) => list.contains(&f.name),
                    };
                    if !ok && offending.is_none() {
                        offending = Some(f.name.clone());
                    }
                }
            });
        }
        match offending {
            Some(name) => Err(PeerError::PolicyViolation { function: name }),
            None => Ok(()),
        }
    }
}

/// Errors raised by peer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// The requested service is not declared by the remote peer.
    NoSuchService(String),
    /// Schema enforcement failed.
    Enforcement(String),
    /// A service invocation failed.
    Invoke(InvokeError),
    /// The inbound policy refused the data.
    PolicyViolation {
        /// The offending embedded call.
        function: String,
    },
    /// The remote peer answered with a SOAP fault.
    Fault(soap::Fault),
    /// Transport failure (peer gone).
    Transport(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::NoSuchService(s) => write!(f, "no declared service '{s}'"),
            PeerError::Enforcement(m) => write!(f, "schema enforcement failed: {m}"),
            PeerError::Invoke(e) => write!(f, "{e}"),
            PeerError::PolicyViolation { function } => {
                write!(f, "inbound policy refuses embedded call '{function}'")
            }
            PeerError::Fault(fault) => write!(f, "{fault}"),
            PeerError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<RewriteError> for PeerError {
    fn from(e: RewriteError) -> Self {
        PeerError::Enforcement(e.to_string())
    }
}

impl PeerError {
    /// The typed SOAP fault this error is reported as to remote callers.
    /// Only transport-level conditions are flagged retryable — a request
    /// the enforcement module rejected will be rejected again.
    pub fn to_fault(&self) -> soap::Fault {
        match self {
            PeerError::NoSuchService(_) => soap::Fault::new("Client.NoSuchService", self.to_string()),
            PeerError::Enforcement(_) => soap::Fault::new("Client.Enforcement", self.to_string()),
            PeerError::PolicyViolation { .. } => soap::Fault::new("Client.Policy", self.to_string()),
            PeerError::Invoke(_) => soap::Fault::new("Server.Invoke", self.to_string()),
            PeerError::Fault(f) => f.clone(),
            PeerError::Transport(_) => {
                soap::Fault::new("Server.Transport", self.to_string()).retryable()
            }
        }
    }
}

struct Exported {
    def: ServiceDef,
    query: Query,
}

/// The Schema Enforcement module's tuning knobs, grouped in one struct
/// so a new knob extends this type instead of growing [`Peer`] another
/// parallel field (rewriting depth, solver cache).
#[derive(Clone)]
pub struct EnforceOptions {
    /// Rewriting depth used by the enforcement module (Sec. 5's `k`).
    pub k: u32,
    /// The solver cache shared by every rewriter the peer creates.
    /// Cloning an [`EnforceOptions`] shares the cache (it is `Arc`ed).
    pub cache: SolveCache,
}

impl Default for EnforceOptions {
    fn default() -> Self {
        EnforceOptions {
            k: 2,
            cache: SolveCache::default(),
        }
    }
}

impl std::fmt::Debug for EnforceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnforceOptions")
            .field("k", &self.k)
            .finish()
    }
}

/// An Active XML peer.
pub struct Peer {
    /// The peer's name.
    pub name: String,
    /// Shared web vocabulary + WSDL_int of every known service, compiled.
    pub compiled: Arc<Compiled>,
    /// The services this peer can itself call.
    pub registry: Arc<Registry>,
    /// Its document repository.
    pub repository: Repository,
    /// Receiver-side screening policy.
    pub inbound: InboundPolicy,
    /// The Schema Enforcement module's knobs.
    pub enforce: EnforceOptions,
    exported: RwLock<HashMap<String, Exported>>,
}

impl Peer {
    /// Creates a peer over a shared compiled vocabulary and a registry of
    /// callable services.
    pub fn new(name: &str, compiled: Arc<Compiled>, registry: Arc<Registry>) -> Self {
        Peer {
            name: name.to_owned(),
            compiled,
            registry,
            repository: Repository::new(),
            inbound: InboundPolicy::AcceptAll,
            enforce: EnforceOptions::default(),
            exported: RwLock::new(HashMap::new()),
        }
    }

    /// Sets the enforcement module's rewriting depth.
    pub fn with_k(mut self, k: u32) -> Self {
        self.enforce.k = k;
        self
    }

    /// Replaces the enforcement module's solver cache (e.g. to bound its
    /// capacity differently, or to share one cache between peers).
    pub fn with_solve_cache(mut self, cache: SolveCache) -> Self {
        self.enforce.cache = cache;
        self
    }

    /// The solver cache shared by every rewriter this peer creates.
    pub fn solve_cache(&self) -> &SolveCache {
        &self.enforce.cache
    }

    /// Warm-starts the peer from a persistent [`Store`]: loads the
    /// solver-cache snapshot captured under this peer's schema
    /// fingerprint (if one is on disk and intact) into the enforcement
    /// module's cache. A missing, torn, or foreign-schema snapshot is a
    /// cold start, never an error.
    ///
    /// [`Store`]: axml_store::Store
    pub fn warm_start(&self, store: &axml_store::Store) -> axml_store::LoadReport {
        store.load_cache(&self.enforce.cache, self.compiled.fingerprint())
    }

    /// Persists the enforcement module's solver cache into `store`, so
    /// the next [`Peer::warm_start`] under the same schema resumes at
    /// warm hit-rates. Returns the snapshot size in bytes.
    pub fn persist_warm_state(&self, store: &axml_store::Store) -> std::io::Result<u64> {
        store.persist_cache(&self.enforce.cache, self.compiled.fingerprint())
    }

    /// Sets the inbound policy.
    pub fn with_inbound(mut self, policy: InboundPolicy) -> Self {
        self.inbound = policy;
        self
    }

    /// Declares a service over the repository. Its `def` must name a
    /// function known to the shared vocabulary (so both sides agree on the
    /// signature — the paper's common-definitions assumption).
    pub fn declare(&self, def: ServiceDef, query: Query) {
        self.exported
            .write()
            .insert(def.name.clone(), Exported { def, query });
    }

    /// Withdraws a previously declared service (registry churn: the
    /// provider stops serving mid-exchange). Later calls fail with the
    /// typed [`PeerError::NoSuchService`]; re-declaring restores it.
    /// Returns whether the service was declared.
    pub fn retract(&self, name: &str) -> bool {
        self.exported.write().remove(name).is_some()
    }

    /// WSDL_int descriptions of the peer's declared services.
    pub fn interface(&self) -> Vec<ServiceDef> {
        let mut out: Vec<ServiceDef> = self
            .exported
            .read()
            .values()
            .map(|e| e.def.clone())
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Handles one decoded request locally: evaluate the declared service
    /// and run the enforcement module on the result.
    pub fn handle(&self, method: &str, params: &[ITree]) -> Result<Vec<ITree>, PeerError> {
        let (query, def) = {
            let exported = self.exported.read();
            let e = exported
                .get(method)
                .ok_or_else(|| PeerError::NoSuchService(method.to_owned()))?;
            (e.query.clone(), e.def.clone())
        };
        // Inbound enforcement: parameters must be an input instance.
        let params = self.enforce_input(&def.name, params)?;
        let result = match query {
            Query::Document(name) => vec![self
                .repository
                .load(&name)
                .map_err(|e| PeerError::Enforcement(e.to_string()))?],
            Query::Children(name) => self
                .repository
                .load(&name)
                .map_err(|e| PeerError::Enforcement(e.to_string()))?
                .children()
                .to_vec(),
            Query::Const(forest) => forest,
            Query::Path { doc, path } => {
                let tree = self
                    .repository
                    .load(&doc)
                    .map_err(|e| PeerError::Enforcement(e.to_string()))?;
                path.select_cloned(&tree)
            }
        };
        let _ = params; // parameters select nothing in these simple queries
                        // Outbound enforcement on the returned data (Sec. 7 steps i–iii).
        self.enforce_output(&def.name, &result)
    }

    /// Enforcement of a forest against `τ_in(function)`: verify, else
    /// rewrite (materializing through this peer's registry), else error.
    pub fn enforce_input(&self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, PeerError> {
        let sig = self.compiled.sig_of(function);
        if validate_output_instance(params, &sig.input_dfa, &self.compiled).is_ok() {
            return Ok(params.to_vec());
        }
        let mut rewriter = Rewriter::new(&self.compiled)
            .with_k(self.enforce.k)
            .with_cache(&self.enforce.cache);
        let mut invoker = self.registry.invoker(None);
        let (out, _report) = rewriter.rewrite_to_input_type(function, params, &mut invoker)?;
        Ok(out)
    }

    /// Enforcement of a forest against `τ_out(function)`.
    pub fn enforce_output(
        &self,
        function: &str,
        result: &[ITree],
    ) -> Result<Vec<ITree>, PeerError> {
        let sig = self.compiled.sig_of(function);
        if validate_output_instance(result, &sig.output_dfa, &self.compiled).is_ok() {
            return Ok(result.to_vec());
        }
        let mut rewriter = Rewriter::new(&self.compiled)
            .with_k(self.enforce.k)
            .with_cache(&self.enforce.cache);
        let mut invoker = self.registry.invoker(None);
        let (out, _report) = rewriter.rewrite_to_output_type(function, result, &mut invoker)?;
        Ok(out)
    }

    /// Spawns a server thread speaking SOAP envelopes over channels.
    pub fn serve(self: &Arc<Self>) -> PeerServer {
        let (tx, rx): (Sender<(String, Sender<String>)>, Receiver<_>) = unbounded();
        let (done_tx, done_rx) = bounded(1);
        let peer = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            while let Ok((request, reply)) = rx.recv() {
                let response = peer.handle_envelope(&request);
                // A gone client is not the server's problem.
                let _ = reply.send(response);
            }
            // Signals a clean exit; a panic drops the sender instead, which
            // shutdown() observes as a disconnect.
            let _ = done_tx.send(());
        });
        PeerServer {
            requests: tx,
            interface: self.interface(),
            handle: Some(handle),
            done: Mutex::new(done_rx),
        }
    }

    /// Handles one XML request envelope, returning the XML reply envelope
    /// (response or typed fault) — the server side of every transport.
    pub fn handle_envelope(&self, request: &str) -> String {
        let message = match soap::decode(request) {
            Ok(m) => m,
            Err(e) => return soap::fault("Client", &format!("bad envelope: {e}")).to_xml(),
        };
        match message {
            soap::Message::Request { method, params } => match self.handle(&method, &params) {
                Ok(result) => soap::response(&result).to_xml(),
                Err(e) => soap::fault_envelope(&e.to_fault()).to_xml(),
            },
            _ => soap::fault("Client", "expected a call request").to_xml(),
        }
    }

    /// Calls a service on a remote peer, with client-side enforcement:
    /// parameters are rewritten to the callee's input type before sending,
    /// and the response is screened by this peer's inbound policy and
    /// validated against the declared output type.
    pub fn call_remote(
        &self,
        server: &PeerServer,
        method: &str,
        params: &[ITree],
    ) -> Result<Vec<ITree>, PeerError> {
        if !server.interface.iter().any(|d| d.name == method) {
            return Err(PeerError::NoSuchService(method.to_owned()));
        }
        // Outbound enforcement of the parameters.
        let params = self.enforce_input(method, params)?;
        let envelope = soap::request(method, &params).to_xml();
        let (reply_tx, reply_rx) = bounded(1);
        server
            .requests
            .send((envelope, reply_tx))
            .map_err(|e| PeerError::Transport(e.to_string()))?;
        let response = reply_rx
            .recv()
            .map_err(|e| PeerError::Transport(e.to_string()))?;
        match soap::decode(&response).map_err(PeerError::Transport)? {
            soap::Message::Response { result } => {
                // Receiver-side checks: type and policy.
                let sig = self.compiled.sig_of(method);
                validate_output_instance(&result, &sig.output_dfa, &self.compiled)
                    .map_err(|e| PeerError::Enforcement(e.to_string()))?;
                self.inbound.check(&result)?;
                Ok(result)
            }
            soap::Message::Fault(fault) => Err(PeerError::Fault(fault)),
            soap::Message::Request { .. } => {
                Err(PeerError::Transport("unexpected request".to_owned()))
            }
        }
    }

    /// Sends a *document* to another peer under an agreed exchange schema:
    /// the Fig. 1 scenario. The sender materializes what the exchange
    /// compiled schema requires (safe rewriting), then ships the XML.
    pub fn send_document(
        &self,
        doc: &ITree,
        exchange: &Arc<Compiled>,
        receiver_policy: &InboundPolicy,
    ) -> Result<(ITree, RewriteReport), PeerError> {
        let (sent, report) = enforce_with(
            exchange,
            doc,
            self.enforce.k,
            Strategy::Safe,
            &self.enforce.cache,
            &mut self.registry.invoker(None),
        )?;
        receiver_policy.check(std::slice::from_ref(&sent))?;
        Ok((sent, report))
    }
}

/// Handle to a running peer server.
pub struct PeerServer {
    requests: Sender<(String, Sender<String>)>,
    /// WSDL_int interface advertised by the serving peer.
    pub interface: Vec<ServiceDef>,
    handle: Option<JoinHandle<()>>,
    // Behind a Mutex only so `PeerServer` stays shareable (`Sync`).
    done: Mutex<Receiver<()>>,
}

/// How long [`PeerServer::shutdown`] waits for the server thread before
/// declaring it wedged instead of blocking forever.
const SHUTDOWN_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

impl PeerServer {
    /// Stops the server thread *deterministically*: closes the request
    /// channel, waits (bounded) for the serve loop to drain, and joins the
    /// thread. A panic inside the server surfaces as
    /// [`PeerError::Transport`] instead of being swallowed; a thread that
    /// does not stop within the bound is reported (and detached) rather
    /// than hanging the caller.
    pub fn shutdown(mut self) -> Result<(), PeerError> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), PeerError> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        // Closing the channel ends the serve loop.
        let (tx, _rx) = unbounded();
        drop(std::mem::replace(&mut self.requests, tx));
        // Bounded wait: the loop signals `done` on clean exit and drops
        // the sender on panic — either way recv_timeout returns promptly.
        use axml_support::sync::channel::RecvTimeoutError;
        match self.done.lock().recv_timeout(SHUTDOWN_WAIT) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => match handle.join() {
                Ok(()) => Ok(()),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    // A worker panic is an observable event, not just a
                    // join-error string: count it and emit an error span.
                    axml_obs::global().counter("peer.panics_total").inc();
                    axml_obs::span("peer.panic").fail(&msg);
                    Err(PeerError::Transport(format!(
                        "peer server thread panicked: {msg}"
                    )))
                }
            },
            Err(RecvTimeoutError::Timeout) => Err(PeerError::Transport(format!(
                "peer server thread did not stop within {SHUTDOWN_WAIT:?}"
            ))),
        }
    }
}

impl Drop for PeerServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// An [`Invoker`] that calls a remote peer's declared services (used when
/// one peer materializes calls that point at another peer).
pub struct RemoteInvoker<'a> {
    /// The calling peer (enforcement + policy side).
    pub caller: &'a Peer,
    /// The remote server handle.
    pub server: &'a PeerServer,
}

impl Invoker for RemoteInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        self.caller
            .call_remote(self.server, function, params)
            .map_err(|e| InvokeError {
                function: function.to_owned(),
                message: e.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::{newspaper_example, validate, NoOracle, Schema};
    use axml_services::builtin::{GetDate, GetTemp, TimeOutGuide};
    use axml_services::ServiceDef as SDef;

    /// The shared web vocabulary: every element type + every WSDL_int.
    fn web_compiled() -> Arc<Compiled> {
        Arc::new(
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
        )
    }

    fn web_registry() -> Arc<Registry> {
        let reg = Registry::new();
        reg.register(
            SDef::new("Get_Temp", "city", "temp"),
            Arc::new(GetTemp::with_defaults()),
        );
        reg.register(
            SDef::new("TimeOut", "data", "(exhibit|performance)*"),
            Arc::new(TimeOutGuide::exhibits_only()),
        );
        reg.register(
            SDef::new("Get_Date", "title", "date"),
            Arc::new(GetDate {
                table: vec![("Monet".to_owned(), "Mon".to_owned())],
            }),
        );
        Arc::new(reg)
    }

    fn newspaper_peer() -> Arc<Peer> {
        let peer = Peer::new("newspaper.example.org", web_compiled(), web_registry());
        peer.repository.store("front", newspaper_example());
        peer.declare(
            SDef::new("Front_Page", "data", "newspaper"),
            Query::Document("front".to_owned()),
        );
        Arc::new(peer)
    }

    #[test]
    fn retracted_service_fails_typed_and_redeclare_restores() {
        let peer = newspaper_peer();
        peer.handle("Front_Page", &[ITree::text("today")]).unwrap();
        assert!(peer.retract("Front_Page"));
        assert!(!peer.retract("Front_Page"), "second retract is a no-op");
        assert!(peer.interface().is_empty());
        match peer.handle("Front_Page", &[ITree::text("today")]) {
            Err(PeerError::NoSuchService(name)) => assert_eq!(name, "Front_Page"),
            other => panic!("expected NoSuchService, got {other:?}"),
        }
        peer.declare(
            SDef::new("Front_Page", "data", "newspaper"),
            Query::Document("front".to_owned()),
        );
        peer.handle("Front_Page", &[ITree::text("today")]).unwrap();
    }

    #[test]
    fn declared_service_served_over_soap() {
        let server_peer = newspaper_peer();
        let server = server_peer.serve();
        let client = Arc::new(Peer::new("reader", web_compiled(), web_registry()));
        let result = client
            .call_remote(&server, "Front_Page", &[ITree::text("today")])
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].name(), Some("newspaper"));
        // The intensional parts travelled intact.
        assert_eq!(result[0].num_funcs(), 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_reports_server_panics() {
        // A server thread that dies mid-request drops the `done` sender
        // without signalling; shutdown must join it and surface the panic
        // payload instead of swallowing it or hanging.
        let (tx, rx): (Sender<(String, Sender<String>)>, _) = unbounded();
        let (done_tx, done_rx) = bounded(1);
        let handle = std::thread::spawn(move || {
            let _signals_by_drop = done_tx;
            let (request, _reply) = rx.recv().unwrap();
            panic!("enforcement invariant violated on {}", request.len());
        });
        let server = PeerServer {
            requests: tx,
            interface: Vec::new(),
            handle: Some(handle),
            done: Mutex::new(done_rx),
        };
        let (reply_tx, reply_rx) = bounded(1);
        server
            .requests
            .send(("<boom/>".to_owned(), reply_tx))
            .unwrap();
        // The reply channel closes without an answer.
        assert!(reply_rx.recv().is_err());
        let err = server.shutdown().unwrap_err();
        assert!(
            matches!(err, PeerError::Transport(ref m) if m.contains("panicked")
                && m.contains("enforcement invariant violated")),
            "{err}"
        );
    }

    #[test]
    fn shutdown_leaks_no_threads() {
        let count_threads = || -> usize {
            #[cfg(target_os = "linux")]
            {
                if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
                    return entries.count();
                }
            }
            0
        };
        let baseline = count_threads();
        for _ in 0..32 {
            let server = newspaper_peer().serve();
            server.shutdown().unwrap();
        }
        let after = count_threads();
        // Other tests run concurrently, so allow slack — but 32 leaked
        // server threads would be unmistakable.
        assert!(
            after < baseline + 8,
            "thread count grew from {baseline} to {after}"
        );
    }

    #[test]
    fn unknown_service_faults() {
        let server_peer = newspaper_peer();
        let server = server_peer.serve();
        let client = Arc::new(Peer::new("reader", web_compiled(), web_registry()));
        let err = client.call_remote(&server, "Nope", &[]).unwrap_err();
        assert!(matches!(err, PeerError::NoSuchService(_)));
    }

    #[test]
    fn reject_functions_policy_blocks_intensional_answers() {
        // A browser-like receiver that cannot process embedded calls.
        let server_peer = newspaper_peer();
        let server = server_peer.serve();
        let client = Arc::new(
            Peer::new("browser", web_compiled(), web_registry())
                .with_inbound(InboundPolicy::RejectFunctions),
        );
        let err = client
            .call_remote(&server, "Front_Page", &[ITree::text("today")])
            .unwrap_err();
        assert!(matches!(err, PeerError::PolicyViolation { .. }), "{err}");
    }

    #[test]
    fn allow_only_policy() {
        let policy = InboundPolicy::AllowOnly(vec!["TimeOut".to_owned()]);
        let ok = vec![ITree::func("TimeOut", vec![ITree::text("x")])];
        policy.check(&ok).unwrap();
        let bad = vec![ITree::elem(
            "wrap",
            vec![ITree::func("Evil_Service", vec![])],
        )];
        let err = policy.check(&bad).unwrap_err();
        assert!(
            matches!(err, PeerError::PolicyViolation { ref function } if function == "Evil_Service")
        );
    }

    #[test]
    fn send_document_materializes_for_exchange_schema() {
        // Fig. 1: sender and receiver agreed on schema (**); the sender
        // materializes the temperature before shipping.
        let exchange = Arc::new(
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
        let sender = newspaper_peer();
        let (sent, report) = sender
            .send_document(&newspaper_example(), &exchange, &InboundPolicy::AcceptAll)
            .unwrap();
        assert_eq!(report.invoked, vec!["Get_Temp".to_owned()]);
        validate(&sent, &exchange).unwrap();
        // Receiver refusing all functions forces full materialization —
        // which this exchange schema cannot guarantee for TimeOut's
        // position; with a fully extensional exchange schema it works.
        let strict = Arc::new(
            Compiled::new(
                Schema::builder()
                    .element("newspaper", "title.date.temp.(exhibit|performance)*")
                    .data_element("title")
                    .data_element("date")
                    .data_element("temp")
                    .data_element("city")
                    .element("exhibit", "title.date")
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
        let (sent, report) = sender
            .send_document(
                &newspaper_example(),
                &strict,
                &InboundPolicy::RejectFunctions,
            )
            .unwrap();
        assert_eq!(sent.num_funcs(), 0, "fully materialized");
        assert!(report.invoked.len() >= 2);
        validate(&sent, &strict).unwrap();
    }

    #[test]
    fn enforce_input_rewrites_parameters() {
        // Calling Get_Date with an intensional title parameter is fine —
        // τ_in(Get_Date) = title accepts it only extensionally, so the
        // enforcement module must materialize nothing here (title is
        // already extensional); but an embedded call inside the parameter
        // must be resolved.
        let peer = newspaper_peer();
        let params = vec![ITree::data("title", "Monet")];
        let out = peer.enforce_input("Get_Date", &params).unwrap();
        assert_eq!(out, params);
    }

    #[test]
    fn remote_invoker_adapts_peers() {
        let server_peer = newspaper_peer();
        let server = server_peer.serve();
        let caller = Peer::new("caller", web_compiled(), web_registry());
        let mut inv = RemoteInvoker {
            caller: &caller,
            server: &server,
        };
        use axml_core::invoke::Invoker as _;
        let result = inv.invoke("Front_Page", &[ITree::text("x")]).unwrap();
        assert_eq!(result[0].name(), Some("newspaper"));
        assert!(inv.invoke("Ghost", &[]).is_err());
    }

    #[test]
    fn concurrent_clients_share_a_server() {
        let server_peer = newspaper_peer();
        let server = Arc::new(server_peer.serve());
        let mut handles = Vec::new();
        for i in 0..8 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let client = Peer::new(&format!("c{i}"), web_compiled(), web_registry());
                let result = client
                    .call_remote(&server, "Front_Page", &[ITree::text("t")])
                    .unwrap();
                assert_eq!(result[0].name(), Some("newspaper"));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod path_query_tests {
    use super::*;
    use axml_schema::{newspaper_example, NoOracle, PathQuery, Schema};

    #[test]
    fn declared_path_service() {
        let compiled = Arc::new(
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
                    .function("Get_Title", "data", "title")
                    .build()
                    .unwrap(),
                &NoOracle,
            )
            .unwrap(),
        );
        let peer = Arc::new(Peer::new(
            "p",
            Arc::clone(&compiled),
            Arc::new(axml_services::Registry::new()),
        ));
        peer.repository.store("front", newspaper_example());
        peer.declare(
            ServiceDef::new("Get_Title", "data", "title"),
            Query::Path {
                doc: "front".to_owned(),
                path: PathQuery::parse("newspaper/title").unwrap(),
            },
        );
        let result = peer.handle("Get_Title", &[ITree::text("x")]).unwrap();
        assert_eq!(result, vec![ITree::data("title", "The Sun")]);
    }
}
