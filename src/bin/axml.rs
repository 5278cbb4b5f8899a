//! `axml` — command-line front-end for the Active XML toolkit.
//!
//! ```text
//! axml validate <schema> <doc.xml> [--stream]
//! axml rewrite  <schema> <doc.xml> [--k N] [--possible] [--execute SEED]
//! axml compat   <sender-schema> <exchange-schema> --root LABEL [--k N]
//! axml plan     <schema> <doc.xml> [--k N]
//! axml serve    <schema> <addr> [--name PEER] [--doc NAME=FILE]...
//!               [--export FUNC=DOC]... [--workers N] [--requests N]
//!               [--io threads|poll] [--shards N] [--cache-capacity N]
//!               [--builtin-services] [--store-dir DIR] [--snapshot-every N]
//! axml send     <schema> <addr> <doc.xml> [--name DOCNAME] [--k N]
//!               [--chunk-bytes N]
//! axml invoke   <schema> <addr> <method> [param]... [--k N]
//! axml stats    <addr>
//! ```
//!
//! `send` enforces the document into the exchange schema before it
//! leaves, then ships it: in one frame, enforced off the pull parser
//! (DESIGN.md §13), or with `--chunk-bytes N` in `N`-byte chunks, so it
//! may exceed the frame cap (DESIGN.md §14.4). A `serve` daemon
//! never rewrites what it receives: it validates a shipped document
//! against its own schema, and the parameters of an exported service's
//! call against the service's input type, and refuses what does not
//! conform.
//!
//! `serve --store-dir DIR` gives the daemon persistent warm state
//! (DESIGN.md §11): the solver cache is loaded from `DIR` before the
//! socket opens and snapshotted back on graceful shutdown (and every N
//! answered requests with `--snapshot-every N`), so a restarted daemon
//! resumes at warm hit-rates.
//!
//! `serve --io poll` swaps the blocking reader threads for the sharded
//! epoll/kqueue readiness loop (DESIGN.md §12): same wire protocol,
//! fault taxonomy and metrics, but thousands of concurrent connections
//! on a fixed thread count. `--shards N` sets the poller shard count.
//!
//! Schemas are loaded from XML Schema_int when the file starts with `<`,
//! from the textual DSL otherwise (see `axml_schema::dsl`). Exit code 0
//! means "valid / safe / compatible"; 1 means the check failed; 2 means
//! usage or I/O errors.

use axml::core::invoke::{InvokeError, Invoker};
use axml::core::rewrite::Rewriter;
use axml::core::schema_rw::schema_safe_rewrites;
use axml::schema::{
    dsl, generate_output_instance, validate, validate_xml_stream, xsd, Compiled, GenConfig, ITree,
    NoOracle, Schema,
};
use axml_support::rng::SeedableRng;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("axml: {msg}");
    ExitCode::from(2)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  axml validate <schema> <doc.xml> [--stream]\n  axml rewrite  <schema> <doc.xml> [--k N] [--possible] [--execute SEED]\n  axml plan     <schema> <doc.xml> [--k N]\n  axml compat   <sender-schema> <exchange-schema> --root LABEL [--k N]\n  axml serve    <schema> <addr> [--name PEER] [--doc NAME=FILE]... [--export FUNC=DOC]... [--workers N] [--io threads|poll] [--shards N] [--requests N] [--cache-capacity N] [--builtin-services] [--store-dir DIR] [--snapshot-every N]\n  axml send     <schema> <addr> <doc.xml> [--name DOCNAME] [--k N] [--chunk-bytes N]\n  axml invoke   <schema> <addr> <method> [param]... [--k N]\n  axml stats    <addr>"
    );
    ExitCode::from(2)
}

fn load_schema(path: &str) -> Result<Schema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text.trim_start().starts_with('<') {
        xsd::parse_xml_schema(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        dsl::parse_schema_dsl(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_doc(path: &str) -> Result<ITree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = axml::xml::parse_document(&text).map_err(|e| format!("{path}: {e}"))?;
    ITree::from_xml(&parsed.root).map_err(|e| format!("{path}: {e}"))
}

/// Parses `--k N`, defaulting to 2; a malformed value is an error rather
/// than a silent default.
fn parse_k(args: &[String]) -> Result<u32, String> {
    match flag_value(args, "--k") {
        None => Ok(2),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--k expects a non-negative integer, got '{v}'")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

struct CliAdversary {
    compiled: std::sync::Arc<Compiled>,
    rng: axml_support::rng::StdRng,
}

impl Invoker for CliAdversary {
    fn invoke(&mut self, function: &str, _params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let output = self.compiled.sig_of(function).output.clone();
        generate_output_instance(
            &self.compiled,
            &output,
            &mut self.rng,
            &GenConfig::default(),
        )
        .map_err(|e| InvokeError {
            function: function.to_owned(),
            message: e.to_string(),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "validate" => cmd_validate(&args[1..]),
        "rewrite" => cmd_rewrite(&args[1..], true),
        "plan" => cmd_rewrite(&args[1..], false),
        "compat" => cmd_compat(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "send" => cmd_send(&args[1..]),
        "invoke" => cmd_invoke(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        _ => usage(),
    }
}

/// Every `--flag VALUE` pair for a repeatable flag, in order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

fn split_pair(spec: &str, flag: &str) -> Result<(String, String), String> {
    spec.split_once('=')
        .map(|(a, b)| (a.to_owned(), b.to_owned()))
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .ok_or_else(|| format!("{flag} expects KEY=VALUE, got '{spec}'"))
}

/// Runs a peer daemon: repository + declared services + Schema
/// Enforcement, served over TCP. Prints `listening on ADDR` once bound.
/// With `--requests N` the daemon shuts down gracefully after answering
/// `N` requests; otherwise it runs until killed.
fn cmd_serve(args: &[String]) -> ExitCode {
    use axml::peer::{NetPeer, Peer, Query};
    use axml::services::{Registry, ServiceDef};

    let (Some(schema_path), Some(addr)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let name = flag_value(args, "--name").unwrap_or_else(|| "axml-peer".to_owned());
    let mut config = axml::net::ServerConfig {
        name: name.clone(),
        ..Default::default()
    };
    if let Some(w) = flag_value(args, "--workers") {
        match w.parse::<usize>() {
            Ok(n) if n > 0 => config.workers = n,
            _ => return fail(&format!("--workers expects a positive integer, got '{w}'")),
        }
    }
    if let Some(io) = flag_value(args, "--io") {
        match io.parse::<axml::net::IoMode>() {
            Ok(mode) => config.io = mode,
            Err(e) => return fail(&format!("--io: {e}")),
        }
    }
    if let Some(s) = flag_value(args, "--shards") {
        match s.parse::<usize>() {
            Ok(n) if n > 0 => config.shards = n,
            _ => return fail(&format!("--shards expects a positive integer, got '{s}'")),
        }
    }
    // Service declarations are advertised with the schema's own WSDL_int
    // signatures, so both ends agree on the types (Sec. 7).
    let mut exports = Vec::new();
    for spec in flag_values(args, "--export") {
        let (func, doc) = match split_pair(&spec, "--export") {
            Ok(p) => p,
            Err(e) => return fail(&e),
        };
        let Some(fd) = schema.functions.get(&func) else {
            return fail(&format!("--export: function '{func}' not in the schema"));
        };
        let def = ServiceDef::new(
            &func,
            &fd.input.display(&schema.alphabet).to_string(),
            &fd.output.display(&schema.alphabet).to_string(),
        );
        exports.push((def, Query::Document(doc)));
    }
    // With --builtin-services the daemon can *materialize* embedded
    // calls itself: every schema function with a simulated built-in
    // implementation (Get_Temp, TimeOut, Get_Date) is plugged into the
    // peer's registry, so output enforcement can invoke rather than
    // fault when a stored document is more intensional than its
    // declared type.
    let registry = Registry::new();
    if args.iter().any(|a| a == "--builtin-services") {
        use axml::services::builtin::{GetDate, GetTemp, TimeOutGuide};
        use axml::services::ServiceImpl;
        let builtins: Vec<(&str, std::sync::Arc<dyn ServiceImpl>)> = vec![
            ("Get_Temp", std::sync::Arc::new(GetTemp::with_defaults())),
            ("TimeOut", std::sync::Arc::new(TimeOutGuide::exhibits_only())),
            (
                "Get_Date",
                std::sync::Arc::new(GetDate {
                    table: vec![
                        ("Monet".to_owned(), "Mon".to_owned()),
                        ("Rodin".to_owned(), "Tue".to_owned()),
                    ],
                }),
            ),
        ];
        for (func, service) in builtins {
            if let Some(fd) = schema.functions.get(func) {
                let def = ServiceDef::new(
                    func,
                    &fd.input.display(&schema.alphabet).to_string(),
                    &fd.output.display(&schema.alphabet).to_string(),
                );
                registry.register(def, service);
            }
        }
    }
    let compiled = match Compiled::new(schema, &NoOracle) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => return fail(&e.to_string()),
    };
    let mut peer = Peer::new(&name, compiled, std::sync::Arc::new(registry));
    if let Some(c) = flag_value(args, "--cache-capacity") {
        match c.parse::<usize>() {
            Ok(n) if n > 0 => {
                peer = peer.with_solve_cache(axml::core::solve_cache::SolveCache::new(n))
            }
            _ => {
                return fail(&format!(
                    "--cache-capacity expects a positive integer, got '{c}'"
                ))
            }
        }
    }
    let peer = std::sync::Arc::new(peer);
    for spec in flag_values(args, "--doc") {
        let (doc_name, file) = match split_pair(&spec, "--doc") {
            Ok(p) => p,
            Err(e) => return fail(&e),
        };
        match load_doc(&file) {
            Ok(doc) => peer.repository.store(&doc_name, doc),
            Err(e) => return fail(&e),
        }
    }
    for (def, query) in exports {
        peer.declare(def, query);
    }
    // Persistent warm state (DESIGN.md §11): load the solver-cache
    // snapshot before serving, persist it on graceful shutdown and
    // (with --snapshot-every N) every N answered requests.
    let store = match flag_value(args, "--store-dir") {
        Some(dir) => match axml::store::Store::open(&dir) {
            Ok(s) => Some(s),
            Err(e) => return fail(&format!("--store-dir {dir}: {e}")),
        },
        None => None,
    };
    let snapshot_every = match flag_value(args, "--snapshot-every") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return fail(&format!(
                    "--snapshot-every expects a positive integer, got '{v}'"
                ))
            }
        },
    };
    if snapshot_every.is_some() && store.is_none() {
        return fail("--snapshot-every requires --store-dir");
    }
    if let Some(store) = &store {
        let report = peer.warm_start(store);
        eprintln!(
            "warm start: {} cached solves loaded ({} bytes{})",
            report.entries,
            report.bytes,
            if report.discarded {
                ", corrupt snapshot discarded"
            } else {
                ""
            }
        );
    }
    // The daemon's own registry holds its request counts: every request
    // ends as a response or a fault, and Busy refusals are not answers.
    let requests = config.metrics.counter("server.requests_total");
    let busy = config.metrics.counter("server.busy_total");
    let served = config.metrics.counter("server.responses_ok_total");
    let daemon = match NetPeer::serve(peer, addr.as_str(), config) {
        Ok(d) => d,
        Err(e) => return fail(&e.to_string()),
    };
    println!("listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let quota = flag_value(args, "--requests").and_then(|v| v.parse::<u64>().ok());
    let mut last_snapshot_at: u64 = 0;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Busy is bumped before requests, so reading requests first
        // never counts a refusal as an answer.
        let answered = requests.get().saturating_sub(busy.get());
        if let (Some(store), Some(every)) = (&store, snapshot_every) {
            if answered >= last_snapshot_at + every {
                if let Err(e) = daemon.peer().persist_warm_state(store) {
                    eprintln!("axml: snapshot failed: {e}");
                }
                last_snapshot_at = answered;
            }
        }
        if let Some(n) = quota {
            if answered >= n {
                if let Some(store) = &store {
                    if let Err(e) = daemon.peer().persist_warm_state(store) {
                        eprintln!("axml: snapshot failed: {e}");
                    }
                }
                let served = served.get();
                return match daemon.shutdown() {
                    Ok(()) => {
                        println!("served {answered} requests ({served} ok)");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(&e.to_string()),
                };
            }
        }
    }
}

/// Ships a document to a remote daemon under the given exchange schema
/// (the Fig. 1 exchange): materialize what the schema requires, send,
/// and report what the receiver stored it as.
fn cmd_send(args: &[String]) -> ExitCode {
    use axml::peer::{Peer, RemotePeer};
    use axml::services::Registry;

    let (Some(schema_path), Some(addr), Some(doc_path)) =
        (args.first(), args.get(1), args.get(2))
    else {
        return usage();
    };
    let k = match parse_k(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let compiled = match Compiled::new(schema, &NoOracle) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => return fail(&e.to_string()),
    };
    let doc = match load_doc(doc_path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let name = flag_value(args, "--name").unwrap_or_else(|| {
        std::path::Path::new(doc_path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "document".to_owned())
    });
    let mut sender = Peer::new("axml-send", std::sync::Arc::clone(&compiled), std::sync::Arc::new(Registry::new()));
    sender.enforce.k = k;
    let remote = match RemotePeer::connect(addr.as_str(), axml::net::ClientConfig::default()) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    let chunk = match flag_value(args, "--chunk-bytes") {
        None => None,
        Some(cb) => match cb.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => return fail(&format!("--chunk-bytes expects a positive integer, got '{cb}'")),
        },
    };
    // Chunked shipping sends the enforced document in fixed-size wire
    // chunks instead of one Request frame, so it may exceed the frame cap;
    // a daemon without chunked transfers gets the single frame.
    let how = match chunk {
        None => String::new(),
        Some(n) => match remote.client().server_caps() {
            Ok(caps) if caps & axml::net::CAP_CHUNKED != 0 => format!(" in {n}-byte chunks"),
            _ => " as one frame (peer predates chunked transfers)".to_owned(),
        },
    };
    let shipped = match chunk {
        Some(n) => remote.send_document_chunked(&sender, &name, &doc, &compiled, n),
        None => remote.send_document(&sender, &name, &doc, &compiled),
    };
    match shipped {
        Ok((sent, report)) => {
            println!(
                "sent '{name}' to {}{how} ({} calls materialized, {} function nodes remain)",
                remote.addr(),
                report.invoked.len(),
                sent.num_funcs()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("send failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Invokes a declared service on a running daemon, with client-side
/// input enforcement and receiver-side screening — the request path
/// that exercises the *daemon's* enforcement module (its input/output
/// rewriting and solver cache), unlike `send`, which enforces on the
/// sender. Positional parameters are text, or inline XML when they
/// start with `<`.
fn cmd_invoke(args: &[String]) -> ExitCode {
    use axml::peer::{Peer, RemotePeer};
    use axml::services::Registry;

    let (Some(schema_path), Some(addr), Some(method)) = (args.first(), args.get(1), args.get(2))
    else {
        return usage();
    };
    let k = match parse_k(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let compiled = match Compiled::new(schema, &NoOracle) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => return fail(&e.to_string()),
    };
    let mut params = Vec::new();
    let mut i = 3;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            i += 2; // skip the flag and its value
            continue;
        }
        if a.trim_start().starts_with('<') {
            let tree = axml::xml::parse_document(a)
                .map_err(|e| e.to_string())
                .and_then(|d| ITree::from_xml(&d.root).map_err(|e| e.to_string()));
            match tree {
                Ok(t) => params.push(t),
                Err(e) => return fail(&format!("parameter {}: {e}", i - 2)),
            }
        } else {
            params.push(ITree::text(a));
        }
        i += 1;
    }
    let mut caller = Peer::new(
        "axml-invoke",
        std::sync::Arc::clone(&compiled),
        std::sync::Arc::new(Registry::new()),
    );
    caller.enforce.k = k;
    let remote = match RemotePeer::connect(addr.as_str(), axml::net::ClientConfig::default()) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    match remote.invoke_service(&caller, method, &params) {
        Ok(result) => {
            for tree in &result {
                println!("{}", tree.to_xml().to_pretty_xml());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("invoke failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Scrapes a running daemon's metric registry over a `StatsRequest`
/// frame and prints the JSON snapshot to stdout.
fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    let client =
        match axml::net::NetClient::new(addr.as_str(), axml::net::ClientConfig::default()) {
            Ok(c) => c,
            Err(e) => return fail(&e.to_string()),
        };
    match client.stats_json() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let (Some(schema_path), Some(doc_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let compiled = match Compiled::new(schema, &NoOracle) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let result = if args.iter().any(|a| a == "--stream") {
        match std::fs::read_to_string(doc_path) {
            Ok(text) => validate_xml_stream(&text, &compiled),
            Err(e) => return fail(&format!("{doc_path}: {e}")),
        }
    } else {
        match load_doc(doc_path) {
            Ok(doc) => validate(&doc, &compiled),
            Err(e) => return fail(&e),
        }
    };
    match result {
        Ok(()) => {
            println!("valid");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("invalid: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_rewrite(args: &[String], execute_allowed: bool) -> ExitCode {
    let (Some(schema_path), Some(doc_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let k = match parse_k(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let compiled = match Compiled::new(schema, &NoOracle) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => return fail(&e.to_string()),
    };
    let doc = match load_doc(doc_path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let mut rewriter = Rewriter::new(&compiled).with_k(k);
    let possible = args.iter().any(|a| a == "--possible");
    let analysis = if possible {
        rewriter.analyze_possible(&doc)
    } else {
        rewriter.analyze_safe(&doc)
    };
    match analysis {
        Ok(a) => {
            println!(
                "{}: yes ({} word games, {} product nodes, k = {k})",
                if possible { "possible" } else { "safe" },
                a.games,
                a.product_nodes
            );
            print_root_plan(&compiled, &doc, k, possible);
        }
        Err(e) => {
            println!("{}: no — {e}", if possible { "possible" } else { "safe" });
            return ExitCode::from(1);
        }
    }
    if execute_allowed {
        if let Some(seed) = flag_value(args, "--execute").and_then(|v| v.parse::<u64>().ok()) {
            let mut adversary = CliAdversary {
                compiled: std::sync::Arc::clone(&compiled),
                rng: axml_support::rng::StdRng::seed_from_u64(seed),
            };
            let run = if possible {
                rewriter.rewrite_possible(&doc, &mut adversary)
            } else {
                rewriter.rewrite_safe(&doc, &mut adversary)
            };
            match run {
                Ok((out, report)) => {
                    eprintln!(
                        "executed with simulated services (seed {seed}): invoked {:?}",
                        report.invoked
                    );
                    println!("{}", out.to_xml().to_pretty_xml());
                }
                Err(e) => {
                    println!("execution failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints the invoke/keep decisions for the root's children word — the
/// paper's "rewriting sequence" (Fig. 3 step 19 / Fig. 9 step 7).
fn print_root_plan(compiled: &Compiled, doc: &ITree, k: u32, possible: bool) {
    use axml::core::awk::{Awk, AwkLimits};
    use axml::core::game::{BuildMode, Game, Strategy};
    let ITree::Elem { label, children } = doc else {
        return;
    };
    let Some(axml::schema::CompiledContent::Model { regex, .. }) = compiled.content_of(label)
    else {
        return;
    };
    let Ok(word) = axml::schema::words_of(children, compiled) else {
        return;
    };
    let Ok(awk) = Awk::build(&word, compiled, k, &AwkLimits::default()) else {
        return;
    };
    let n = compiled.alphabet().len();
    let strategy = if possible {
        Strategy::Possible
    } else {
        Strategy::Safe
    };
    let plan = Game::solve(strategy, awk, strategy.dfa(regex, n), BuildMode::Lazy).plan();
    if let Some(plan) = plan {
        for d in plan {
            println!(
                "  {} {}",
                if d.invoke { "invoke" } else { "keep  " },
                compiled.alphabet().name(d.func)
            );
        }
    }
}

fn cmd_compat(args: &[String]) -> ExitCode {
    let (Some(s0_path), Some(s_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(root) = flag_value(args, "--root") else {
        return usage();
    };
    let k = match parse_k(args) {
        Ok(k) => k,
        Err(e) => return fail(&e),
    };
    let (s0, s) = match (load_schema(s0_path), load_schema(s_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    match schema_safe_rewrites(&s0, &root, &s, k, &NoOracle) {
        Ok(report) if report.compatible() => {
            println!(
                "compatible ({} element types checked, k = {k})",
                report.checked.len()
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            println!("incompatible:");
            for f in &report.failures {
                println!("  - {f}");
            }
            ExitCode::from(1)
        }
        Err(e) => fail(&e.to_string()),
    }
}
