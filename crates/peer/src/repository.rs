//! The peer's document repository with "active" features.
//!
//! Each Active XML peer stores intensional documents persistently and can
//! *enrich* them by triggering the embedded service calls (Sec. 7, "The
//! ActiveXML system"). The repository here is an in-memory store with the
//! same interface shape; enrichment materializes selected calls in place,
//! validating every answer against the service's declared output type.

use axml_core::invoke::{InvokeError, Invoker};
use axml_core::mixed::materialize;
use axml_core::rewrite::RewriteError;
use axml_schema::{Compiled, ITree};
use axml_support::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named store of intensional documents.
#[derive(Default)]
pub struct Repository {
    docs: RwLock<BTreeMap<String, ITree>>,
}

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// No document under that name.
    NotFound(String),
    /// Enrichment called a service that failed.
    Invoke(InvokeError),
    /// A service answer did not match its declared output type.
    IllTyped {
        /// The function whose answer was rejected.
        function: String,
        /// Validation message.
        message: String,
    },
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::NotFound(n) => write!(f, "no document named '{n}'"),
            RepoError::Invoke(e) => write!(f, "{e}"),
            RepoError::IllTyped { function, message } => {
                write!(
                    f,
                    "enrichment of '{function}' returned ill-typed data: {message}"
                )
            }
        }
    }
}

impl std::error::Error for RepoError {}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a document.
    pub fn store(&self, name: &str, doc: ITree) {
        self.docs.write().insert(name.to_owned(), doc);
    }

    /// Fetches a copy of a document.
    pub fn load(&self, name: &str) -> Result<ITree, RepoError> {
        self.docs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RepoError::NotFound(name.to_owned()))
    }

    /// Removes a document; returns it if present.
    pub fn remove(&self, name: &str) -> Option<ITree> {
        self.docs.write().remove(name)
    }

    /// Names of all stored documents.
    pub fn names(&self) -> Vec<String> {
        self.docs.read().keys().cloned().collect()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.read().len()
    }

    /// True if the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.read().is_empty()
    }

    /// Enriches the named document: every embedded call accepted by
    /// `select` is invoked (one round; answers may contain further calls,
    /// re-run to chase them) and replaced by its validated result — one
    /// [`materialize`] pass with no call budget.
    ///
    /// Returns the number of calls materialized.
    pub fn enrich(
        &self,
        name: &str,
        compiled: &Arc<Compiled>,
        select: &dyn Fn(&str) -> bool,
        invoker: &mut dyn Invoker,
    ) -> Result<usize, RepoError> {
        let doc = self.load(name)?;
        let mut invoked = Vec::new();
        let enriched = materialize(compiled, &doc, select, None, invoker, &mut invoked).map_err(
            |e| match e {
                RewriteError::Invoke(e) => RepoError::Invoke(e),
                RewriteError::IllTyped { function, message } => {
                    RepoError::IllTyped { function, message }
                }
                other => unreachable!("an unbudgeted pass fails only on a call: {other}"),
            },
        )?;
        self.store(name, enriched);
        Ok(invoked.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::invoke::ScriptedInvoker;
    use axml_schema::{newspaper_example, NoOracle, Schema};

    fn compiled() -> Arc<Compiled> {
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
                    .build()
                    .unwrap(),
                &NoOracle,
            )
            .unwrap(),
        )
    }

    #[test]
    fn store_load_remove() {
        let repo = Repository::new();
        assert!(repo.is_empty());
        repo.store("front", newspaper_example());
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.load("front").unwrap(), newspaper_example());
        assert!(matches!(repo.load("ghost"), Err(RepoError::NotFound(_))));
        assert!(repo.remove("front").is_some());
        assert!(repo.is_empty());
    }

    #[test]
    fn enrich_materializes_selected_calls() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let c = compiled();
        let mut inv = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("temp", "15 C")]);
        let n = repo
            .enrich("front", &c, &|name| name == "Get_Temp", &mut inv)
            .unwrap();
        assert_eq!(n, 1);
        let doc = repo.load("front").unwrap();
        assert_eq!(doc.num_funcs(), 1, "TimeOut still intensional");
        assert_eq!(doc.children()[2], ITree::data("temp", "15 C"));
    }

    #[test]
    fn enrich_rejects_ill_typed_answers() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let c = compiled();
        let mut inv = ScriptedInvoker::new().answer("Get_Temp", vec![ITree::data("city", "nope")]);
        let err = repo
            .enrich("front", &c, &|n| n == "Get_Temp", &mut inv)
            .unwrap_err();
        assert!(matches!(err, RepoError::IllTyped { .. }));
    }
}

/// An update operation applied to the nodes matched by a path query.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Remove the matched nodes.
    Delete,
    /// Replace each matched node by the given forest.
    ReplaceWith(Vec<ITree>),
    /// Append the given children to each matched element/call node.
    AppendChildren(Vec<ITree>),
}

impl Repository {
    /// Applies `op` to every node of document `name` matched by `path`
    /// (descendant (`**`) steps are not supported for updates). Returns
    /// the number of nodes affected.
    pub fn update(
        &self,
        name: &str,
        path: &axml_schema::PathQuery,
        op: &UpdateOp,
    ) -> Result<usize, RepoError> {
        if path
            .steps()
            .iter()
            .any(|s| matches!(s, axml_schema::Step::Descendant))
        {
            return Err(RepoError::Invoke(InvokeError {
                function: "update".to_owned(),
                message: "descendant steps are not supported in updates".to_owned(),
            }));
        }
        let doc = self.load(name)?;
        let mut count = 0usize;
        // Align with PathQuery::select's absolute-head behaviour.
        let steps = path.steps();
        let updated = match steps.first() {
            Some(axml_schema::Step::Child(label))
                if doc.name() == Some(label) && !doc.is_func() =>
            {
                if steps.len() == 1 {
                    return Err(RepoError::Invoke(InvokeError {
                        function: "update".to_owned(),
                        message: "cannot update the document root itself".to_owned(),
                    }));
                }
                update_rec(&doc, &steps[1..], op, &mut count)
            }
            _ => update_rec(&doc, steps, op, &mut count),
        };
        self.store(name, updated);
        Ok(count)
    }
}

fn step_matches(step: &axml_schema::Step, node: &ITree) -> bool {
    use axml_schema::Step;
    match step {
        Step::Child(label) => !node.is_func() && node.name() == Some(label),
        Step::AnyChild => matches!(node, ITree::Elem { .. }),
        Step::Text => matches!(node, ITree::Text(_)),
        Step::Call(name) => match node {
            ITree::Func(f) => name.as_deref().is_none_or(|n| n == f.name),
            _ => false,
        },
        Step::Descendant => false, // rejected upfront
    }
}

fn update_rec(
    node: &ITree,
    steps: &[axml_schema::Step],
    op: &UpdateOp,
    count: &mut usize,
) -> ITree {
    let Some((head, rest)) = steps.split_first() else {
        return node.clone();
    };
    let mut transform_children = |children: &[ITree]| -> Vec<ITree> {
        let mut out = Vec::with_capacity(children.len());
        for c in children {
            if step_matches(head, c) {
                if rest.is_empty() {
                    *count += 1;
                    match op {
                        UpdateOp::Delete => {}
                        UpdateOp::ReplaceWith(forest) => out.extend(forest.iter().cloned()),
                        UpdateOp::AppendChildren(extra) => {
                            let mut updated = c.clone();
                            if let Some(cs) = updated.children_mut() {
                                cs.extend(extra.iter().cloned());
                            }
                            out.push(updated);
                        }
                    }
                } else {
                    out.push(update_rec(c, rest, op, count));
                }
            } else {
                out.push(c.clone());
            }
        }
        out
    };
    match node {
        ITree::Text(_) => node.clone(),
        ITree::Elem { label, children } => ITree::elem(label, transform_children(children)),
        ITree::Func(f) => ITree::Func(axml_schema::FuncNode {
            params: transform_children(&f.params),
            ..f.clone()
        }),
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use axml_schema::{newspaper_example, PathQuery};

    #[test]
    fn delete_matched_nodes() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let path = PathQuery::parse("newspaper/call(*)").unwrap();
        let n = repo.update("front", &path, &UpdateOp::Delete).unwrap();
        assert_eq!(n, 2);
        let doc = repo.load("front").unwrap();
        assert_eq!(doc.num_funcs(), 0);
        assert_eq!(doc.children().len(), 2);
    }

    #[test]
    fn replace_matched_nodes() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let path = PathQuery::parse("newspaper/call(Get_Temp)").unwrap();
        let n = repo
            .update(
                "front",
                &path,
                &UpdateOp::ReplaceWith(vec![ITree::data("temp", "20 C")]),
            )
            .unwrap();
        assert_eq!(n, 1);
        let doc = repo.load("front").unwrap();
        assert_eq!(doc.children()[2], ITree::data("temp", "20 C"));
        assert_eq!(doc.num_funcs(), 1, "TimeOut untouched");
    }

    #[test]
    fn append_children() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let path = PathQuery::parse("newspaper/title").unwrap();
        let n = repo
            .update(
                "front",
                &path,
                &UpdateOp::AppendChildren(vec![ITree::text(" (late edition)")]),
            )
            .unwrap();
        assert_eq!(n, 1);
        let doc = repo.load("front").unwrap();
        assert_eq!(doc.children()[0].children().len(), 2);
    }

    #[test]
    fn update_restrictions() {
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        let descendant = PathQuery::parse("**/title").unwrap();
        assert!(repo
            .update("front", &descendant, &UpdateOp::Delete)
            .is_err());
        let root = PathQuery::parse("newspaper").unwrap();
        assert!(repo.update("front", &root, &UpdateOp::Delete).is_err());
        assert!(repo
            .update(
                "ghost",
                &PathQuery::parse("a/b").unwrap(),
                &UpdateOp::Delete
            )
            .is_err());
    }
}

impl Repository {
    /// Persists every document as pretty-printed XML under `dir`
    /// (`<name>.xml`), creating the directory if needed. The paper's peers
    /// provide "persistent storage for intensional documents"; this is the
    /// storage format — plain Sec. 7 XML, readable by any peer.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let docs = self.docs.read();
        for (name, doc) in docs.iter() {
            let path = dir.join(format!("{name}.xml"));
            std::fs::write(path, doc.to_xml().to_pretty_xml())?;
        }
        Ok(docs.len())
    }

    /// Loads every `*.xml` file under `dir` into the repository (file stem
    /// becomes the document name). Returns the number loaded.
    pub fn load_from_dir(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        let mut count = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("xml") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let text = std::fs::read_to_string(&path)?;
            let parsed = axml_xml::parse_document(&text).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            })?;
            let tree = ITree::from_xml(&parsed.root)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            self.store(name, tree);
            count += 1;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use axml_schema::newspaper_example;

    #[test]
    fn save_and_reload_roundtrip() {
        let dir = std::env::temp_dir().join(format!("axml-repo-{}", std::process::id()));
        let repo = Repository::new();
        repo.store("front", newspaper_example());
        repo.store(
            "about",
            ITree::elem("about", vec![ITree::text("a newspaper")]),
        );
        assert_eq!(repo.save_to_dir(&dir).unwrap(), 2);

        let fresh = Repository::new();
        assert_eq!(fresh.load_from_dir(&dir).unwrap(), 2);
        assert_eq!(fresh.load("front").unwrap(), newspaper_example());
        assert_eq!(fresh.load("about").unwrap().name(), Some("about"));
        // The intensional parts survived the disk round trip.
        assert_eq!(fresh.load("front").unwrap().num_funcs(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_malformed_files() {
        let dir = std::env::temp_dir().join(format!("axml-repo-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.xml"), "<not closed").unwrap();
        let repo = Repository::new();
        assert!(repo.load_from_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
