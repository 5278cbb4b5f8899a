//! Active XML peers and the Schema Enforcement module (Sec. 7).
//!
//! A peer stores intensional documents, declares Web services over them,
//! and talks SOAP with the rest of the world. Its **Schema Enforcement
//! module** rewrites only what the peer itself sends:
//!
//! * outbound call parameters are (i) verified against the callee's
//!   WSDL_int description, (ii) rewritten into the required structure when
//!   they do not conform, and (iii) rejected with an error when rewriting
//!   fails ([`RemotePeer::invoke_service`](crate::RemotePeer::invoke_service));
//! * the data a declared service is about to return goes through the same
//!   three steps against the service's declared output type
//!   ([`Peer::handle`]).
//!
//! Both run [`enforce_forest`], one side of the signature each.
//!
//! What a peer *receives* is only validated, never rewritten: a provider
//! refuses parameters outside the service's input type
//! ([`Peer::handle`]), so no word a remote peer sends reaches a solver.
//! Received data can additionally be screened by an [`InboundPolicy`]
//! (the Sec. 1 capability/security considerations — e.g. a receiver that
//! cannot or will not invoke embedded calls). The peer is served over
//! the network by [`NetPeer`](crate::NetPeer).

use crate::repository::Repository;
use axml_core::invoke::InvokeError;
use axml_core::rewrite::{
    enforce_forest, enforce_with, RewriteError, RewriteReport, Side, Strategy,
};
use axml_core::solve_cache::SolveCache;
use axml_schema::{validate_output_instance, Compiled, ITree};
use axml_services::{soap, Registry, ServiceDef};
use axml_support::sync::RwLock;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

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

    /// Handles one decoded request locally: check the parameters against
    /// the service's input type, evaluate the declared service, and run
    /// the enforcement module on the result. Parameters are validated,
    /// never rewritten: rewriting them is the caller's burden
    /// ([`enforce_forest`] on [`Side::Input`] before sending), so a
    /// mismatch is refused as [`PeerError::Enforcement`] without solving
    /// a game.
    pub fn handle(&self, method: &str, params: &[ITree]) -> Result<Vec<ITree>, PeerError> {
        let (query, def) = {
            let exported = self.exported.read();
            let e = exported
                .get(method)
                .ok_or_else(|| PeerError::NoSuchService(method.to_owned()))?;
            (e.query.clone(), e.def.clone())
        };
        let sig = self.compiled.sig_of(&def.name);
        validate_output_instance(params, &sig.input_dfa, &self.compiled)
            .map_err(|e| PeerError::Enforcement(e.to_string()))?;
        // The parameters select nothing in these simple queries.
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
        // Outbound enforcement on the returned data (Sec. 7 steps i–iii).
        let enforced = enforce_forest(
            &self.compiled,
            &def.name,
            Side::Output,
            &result,
            self.enforce.k,
            &self.enforce.cache,
            &mut self.registry.invoker(None),
        )?;
        Ok(match enforced {
            Cow::Owned(rewritten) => rewritten,
            Cow::Borrowed(_) => result,
        })
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

    fn newspaper_peer() -> Peer {
        let peer = Peer::new("newspaper.example.org", web_compiled(), web_registry());
        peer.repository.store("front", newspaper_example());
        peer.declare(
            SDef::new("Front_Page", "data", "newspaper"),
            Query::Document("front".to_owned()),
        );
        peer
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
    fn handle_refuses_parameters_outside_the_input_type_without_solving() {
        // τ_in(Front_Page) = data. A call in the parameters is refused as
        // it stands: the provider validates and never rewrites, so the
        // parameter word reaches no solver.
        let peer = newspaper_peer();
        let params = [ITree::func("Get_Temp", vec![ITree::data("city", "Paris")])];
        match peer.handle("Front_Page", &params) {
            Err(e @ PeerError::Enforcement(_)) => {
                assert_eq!(e.to_fault().code, "Client.Enforcement")
            }
            other => panic!("expected an enforcement refusal, got {other:?}"),
        }
        assert_eq!(peer.solve_cache().stats().lookups, 0);
        assert_eq!(peer.registry.stats().calls.get("Get_Temp"), None);
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
