//! The three workloads: their schemas, the services their providers
//! serve, seeded input generation, and the outcome oracle.
//!
//! * `fig1_exchange` — the paper's three-party exchange (Sec. 7, Fig. 1):
//!   Fig. 2-style newspapers from schema (\*) ship single-frame under
//!   (\*\*), `Get_Temp` materialized through a provider daemon. Small
//!   documents, every solve a cache hit: per-message cost dominates.
//! * `bulk_feed` — ~1 MiB intensional quote feeds shipped as chunked
//!   transfers: per-byte cost and memory dominate.
//! * `schema_churn` — small mirror-chain documents whose children words
//!   come from a pool four times the solver cache's capacity: the Sec. 7
//!   games dominate and the hit ratio stays below 1.

use axml_core::invoke::ScriptedInvoker;
use axml_core::rewrite::RewriteError;
use axml_core::solve_cache::SolveCache;
use axml_core::stream::{enforce_dom, StreamOptions};
use axml_peer::PeerError;
use axml_schema::dsl::parse_schema_dsl;
use axml_schema::{validate, Compiled, ITree, NoOracle};
use axml_services::ServiceDef;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use std::sync::Arc;

use crate::stats::Zipf;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 1 three-party newspaper exchange.
    Fig1,
    /// Chunked ~1 MiB quote feeds.
    Bulk,
    /// Solver-cache churn over mirror-chain exhibits.
    Churn,
}

impl Kind {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fig1_exchange" => Some(Kind::Fig1),
            "bulk_feed" => Some(Kind::Bulk),
            "schema_churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// Bring-ups, each with its warm-up pass, per untraced run; `setup_s`
    /// is their median. Fewer where the warm-up pass itself is long.
    pub fn setups(self) -> usize {
        match self {
            Kind::Fig1 | Kind::Bulk => 9,
            Kind::Churn => 3,
        }
    }

    /// The percentile `latency_tail_us` reports. `bulk_feed`'s p99 holds
    /// the chunked path's ~40 ms waits, about one transfer in twenty, and
    /// a few milliseconds of host steal barely move it. On the other two
    /// workloads a p99 is mostly host steal: where a run's steal rose
    /// from 5 % to 20 %, their p99 grew 2.5-fold and their p90 by a fifth.
    /// Their p90 still sits in the slow mode of the workload's own work
    /// (the `Get_Temp` round trip, a cold game).
    pub fn tail_pct(self) -> f64 {
        match self {
            Kind::Bulk => 99.0,
            Kind::Fig1 | Kind::Churn => 90.0,
        }
    }

    /// Whether the run keeps the vCPUs from halting with idle-priority
    /// spinners (see `spin.rs`). Not for `schema_churn`: beside spinners,
    /// its peak RSS came out 50–160 MiB higher, and its ops faster, in 14
    /// of 36 runs, against none of 30 runs without them. The cause is not
    /// known, and a bimodal peak RSS would fail its bound.
    pub fn spinners(self) -> bool {
        self != Kind::Churn
    }

    /// Rewriting depth bound `k` (Def. 7) every peer of the workload uses.
    pub fn k(self) -> u32 {
        match self {
            Kind::Fig1 | Kind::Bulk => 2,
            // B11's chain extended to five mirror levels needs k = 6; at
            // that depth the game is the larger part of a cold op.
            Kind::Churn => 6,
        }
    }
}

/// Chunk size of `bulk_feed` transfers.
pub const CHUNK_BYTES: usize = 256 << 10;

/// Schema (\*) of the paper: the sender's and the provider's vocabulary.
const STAR: &str = "
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
";

/// Schema (\*\*): the agreed exchange schema and the receiver's schema.
const STAR2: &str = "
element newspaper = title.date.temp.(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
";

/// Schema (\*\*\*): no `TimeOut`, so a `TimeOut` newspaper is not safe.
const STAR3: &str = "
element newspaper = title.date.temp.exhibit*
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
";

/// The quote feed as the receiver accepts it: calls materialized.
const FEED_STRICT: &str = "
element feed   = meta.(chunk | calls)*
element meta   = data
element chunk  = data
element quote  = data
element calls  = quote*
function Get_Quote : meta -> quote*
root feed
";

/// A lax exchange schema that lets `Get_Quote` calls through unrun.
const FEED_LAX: &str = "
element feed   = meta.(chunk | calls)*
element meta   = data
element chunk  = data
element quote  = data
element calls  = (quote | Get_Quote)*
function Get_Quote : meta -> quote*
root feed
";

/// B11's mirror chain extended by one level, over exhibits that pair
/// each date with one of four labels (shared with the `repro` binary).
const MIRROR: &str = include_str!("mirror.schema");

const MIRROR_LABELS: [&str; 4] = ["line", "note", "memo", "tag"];
/// Date/label pairs per exhibit: every children word has length 13.
const MIRROR_PAIRS: usize = 6;
/// Distinct children words in the churn pool: four times the default
/// solve-cache capacity (512), out of the 4^6 possible.
const CHURN_POOL: usize = 2048;
/// Zipf exponent of word popularity: the LRU cache then misses on about
/// one exhibit in five.
const CHURN_SKEW: f64 = 1.1;
const CHURN_DOCS: usize = 2048;
const CHURN_EXHIBITS: usize = 2;

const FIG1_DOCS: usize = 80;
const BULK_FEEDS: usize = 24;
const BULK_CHUNKS: usize = 15;
const BULK_CHUNK_TEXT: usize = 64 << 10;

/// The compiled schemas one side of a run needs.
pub struct Schemas {
    /// The sending peer's vocabulary.
    pub sender: Arc<Compiled>,
    /// The receiving daemon's schema.
    pub receiver: Arc<Compiled>,
    /// The providing daemon's vocabulary (`None`: calls run locally).
    pub provider: Option<Arc<Compiled>>,
    /// Exchange schemas, indexed by [`Input::exchange`].
    pub exchanges: Vec<Arc<Compiled>>,
}

fn compile(dsl: &str) -> Arc<Compiled> {
    let schema = parse_schema_dsl(dsl).expect("benchmark schema parses");
    Arc::new(Compiled::new(schema, &NoOracle).expect("benchmark schema compiles"))
}

impl Schemas {
    /// Compiles the workload's schemas (part of bring-up).
    pub fn compile(kind: Kind) -> Schemas {
        match kind {
            Kind::Fig1 => Schemas {
                sender: compile(STAR),
                receiver: compile(STAR2),
                provider: Some(compile(STAR)),
                exchanges: vec![compile(STAR2), compile(STAR3)],
            },
            Kind::Bulk => Schemas {
                sender: compile(FEED_LAX),
                receiver: compile(FEED_STRICT),
                provider: Some(compile(FEED_STRICT)),
                exchanges: vec![compile(FEED_STRICT), compile(FEED_LAX)],
            },
            Kind::Churn => {
                let mirror = compile(MIRROR);
                Schemas {
                    sender: Arc::clone(&mirror),
                    receiver: Arc::clone(&mirror),
                    provider: None,
                    exchanges: vec![mirror],
                }
            }
        }
    }
}

/// The answers every service of the workload gives — served by the
/// provider daemon (`Query::Const`) or the sender's local registry, and
/// scripted identically into the oracle.
pub fn answers(kind: Kind) -> Vec<(ServiceDef, Vec<ITree>)> {
    match kind {
        Kind::Fig1 => vec![(
            ServiceDef::new("Get_Temp", "city", "temp"),
            vec![ITree::data("temp", "16C")],
        )],
        Kind::Bulk => vec![(
            ServiceDef::new("Get_Quote", "meta", "quote*"),
            vec![
                ITree::data("quote", "AXML 42.17"),
                ITree::data("quote", "AXML 42.18"),
            ],
        )],
        Kind::Churn => vec![(
            ServiceDef::new("Get_Date", "title", "date | Mirror_A1 | Mirror_A2"),
            vec![ITree::data("date", "2003-06-09")],
        )],
    }
}

/// What an op must come to.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The receiver stores exactly `doc`, whose enforced XML is `bytes` long.
    Accept {
        /// The reference document.
        doc: ITree,
        /// Size of the enforced document as shipped.
        bytes: u64,
    },
    /// The sender refuses with `NotSafe` before anything ships.
    SenderNotSafe,
    /// The receiver refuses with a `Client.*` fault.
    ReceiverRefuses,
}

/// How one op ended, judged against the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Delivered and equal to the reference.
    Accepted,
    /// Refused with the expected typed fault.
    Refused,
    /// Anything else.
    Failed(String),
}

/// The oracle's verdict on one op: `result` is what the send call
/// returned, `delivered` fetches what the receiver stored.
pub fn judge(
    expect: &Expect,
    result: Result<(), PeerError>,
    delivered: impl FnOnce() -> Option<ITree>,
) -> Outcome {
    match (expect, result) {
        (Expect::Accept { doc, .. }, Ok(())) => match delivered() {
            Some(stored) if stored == *doc => Outcome::Accepted,
            Some(_) => Outcome::Failed("delivered document differs from its reference".into()),
            None => Outcome::Failed("accepted document missing at the receiver".into()),
        },
        (Expect::SenderNotSafe, Err(PeerError::Enforcement(m)))
            if m.contains("no safe rewriting") =>
        {
            Outcome::Refused
        }
        (Expect::ReceiverRefuses, Err(PeerError::Fault(f))) if f.code.starts_with("Client") => {
            Outcome::Refused
        }
        (expect, got) => {
            let wanted = match expect {
                Expect::Accept { .. } => "acceptance",
                Expect::SenderNotSafe => "a NotSafe refusal at the sender",
                Expect::ReceiverRefuses => "a Client fault from the receiver",
            };
            Outcome::Failed(format!("expected {wanted}, got {got:?}"))
        }
    }
}

/// One generated input and its reference outcome.
pub struct Input {
    /// The sender's intensional document.
    pub doc: ITree,
    /// Which of [`Schemas::exchanges`] it ships under.
    pub exchange: usize,
    /// The reference outcome.
    pub expect: Expect,
}

/// Fixed-length lowercase text drawn from `rng`.
fn word(rng: &mut StdRng, len: usize) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len)
        .map(|_| ALPHA[rng.random_range(0..ALPHA.len())] as char)
        .collect()
}

/// `count` distinct positions out of `0..n`, seeded.
fn positions(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(count);
    all
}

/// The workload's documents with the exchange each ships under, before
/// the oracle has run. The same seed gives the same documents.
pub fn generate(kind: Kind, seed: u64) -> Vec<(ITree, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA3B1_5EED);
    match kind {
        Kind::Fig1 => fig1_docs(&mut rng),
        Kind::Bulk => bulk_feeds(&mut rng),
        Kind::Churn => churn_docs(&mut rng),
    }
}

/// Newspapers in the Fig. 2 style. One in ten carries `TimeOut` and
/// ships under (\*\*\*); of the rest, 40 % still hold the `Get_Temp` call
/// (so the accepted-latency median stays inside the no-call mode), and
/// exhibit counts cycle through 3..=8.
fn fig1_docs(rng: &mut StdRng) -> Vec<(ITree, usize)> {
    let refused = positions(rng, FIG1_DOCS, FIG1_DOCS / 10);
    let accepted: Vec<usize> = (0..FIG1_DOCS).filter(|i| !refused.contains(i)).collect();
    let with_call: Vec<usize> = {
        let mut a = accepted.clone();
        rng.shuffle(&mut a);
        a.truncate(accepted.len() * 2 / 5);
        a
    };
    let mut exhibit_counts: Vec<usize> = (0..FIG1_DOCS).map(|i| 3 + i % 6).collect();
    rng.shuffle(&mut exhibit_counts);
    (0..FIG1_DOCS)
        .map(|i| {
            let mut kids = vec![
                ITree::data("title", &word(rng, 16)),
                ITree::data("date", &format!("2003-{:02}-{:02}", 1 + i % 12, 1 + i % 28)),
            ];
            let refuse = refused.contains(&i);
            if refuse || with_call.contains(&i) {
                kids.push(ITree::func(
                    "Get_Temp",
                    vec![ITree::data("city", &word(rng, 8))],
                ));
            } else {
                kids.push(ITree::data("temp", "12C"));
            }
            if refuse {
                kids.push(ITree::func("TimeOut", vec![ITree::text("exhibits")]));
            } else {
                for _ in 0..exhibit_counts[i] {
                    let title = word(rng, 12);
                    let when = if rng.random_bool(0.5) {
                        ITree::func("Get_Date", vec![ITree::data("title", &title)])
                    } else {
                        ITree::data("date", &word(rng, 10))
                    };
                    kids.push(ITree::elem(
                        "exhibit",
                        vec![ITree::data("title", &title), when],
                    ));
                }
            }
            (ITree::elem("newspaper", kids), usize::from(refuse))
        })
        .collect()
}

/// One `calls` element holding one `Get_Quote` site.
fn quote_site(rng: &mut StdRng) -> ITree {
    ITree::elem(
        "calls",
        vec![ITree::func(
            "Get_Quote",
            vec![ITree::data("meta", &word(rng, 8))],
        )],
    )
}

/// ~1 MiB quote feeds: a `meta` header and fifteen 64 KiB chunks (as
/// B14/B15 build them: chunks while the feed stays under 1 MiB), with
/// three `Get_Quote` sites between chunks mid-stream. One feed in eight
/// ships under the lax schema with a single site left in: one such feed
/// has it at the front, one in the middle and one at the end, in a seeded
/// order. The receiver's verify stops at the site, so a seed that drew
/// other positions would refuse faster or slower.
fn bulk_feeds(rng: &mut StdRng) -> Vec<(ITree, usize)> {
    let refused = positions(rng, BULK_FEEDS, BULK_FEEDS / 8);
    let mut left_in = [0, BULK_CHUNKS / 2, BULK_CHUNKS];
    rng.shuffle(&mut left_in);
    (0..BULK_FEEDS)
        .map(|i| {
            let refuse = refused.contains(&i);
            let sites: Vec<usize> = if let Some(j) = refused.iter().position(|&r| r == i) {
                vec![left_in[j]]
            } else {
                positions(rng, BULK_CHUNKS - 1, 3)
                    .iter()
                    .map(|p| p + 1)
                    .collect()
            };
            let mut kids = vec![ITree::data("meta", &format!("feed {i:04}"))];
            for c in 0..=BULK_CHUNKS {
                if sites.contains(&c) {
                    kids.push(quote_site(rng));
                }
                if c < BULK_CHUNKS {
                    kids.push(ITree::data("chunk", &word(rng, BULK_CHUNK_TEXT)));
                }
            }
            (ITree::elem("feed", kids), usize::from(refuse))
        })
        .collect()
}

/// Churn documents: two exhibits each, every exhibit's children word
/// drawn Zipf-skewed from a seeded pool of [`CHURN_POOL`] distinct words
/// of one length; one document in ten has a `Get_Far` call (a chain one
/// level deeper than `k`) in place of one `Get_Date`.
fn churn_docs(rng: &mut StdRng) -> Vec<(ITree, usize)> {
    let mut codes: Vec<usize> = (0..MIRROR_LABELS.len().pow(MIRROR_PAIRS as u32)).collect();
    rng.shuffle(&mut codes);
    codes.truncate(CHURN_POOL);
    let zipf = Zipf::new(CHURN_POOL, CHURN_SKEW);
    let refused = positions(rng, CHURN_DOCS, CHURN_DOCS / 10);
    (0..CHURN_DOCS)
        .map(|i| {
            let far_at = refused.contains(&i).then(|| {
                (
                    rng.random_range(0..CHURN_EXHIBITS),
                    rng.random_range(0..MIRROR_PAIRS),
                )
            });
            let exhibits = (0..CHURN_EXHIBITS)
                .map(|e| {
                    let code = codes[zipf.sample(rng)];
                    let title = word(rng, 8);
                    let mut kids = vec![ITree::data("title", &title)];
                    for p in 0..MIRROR_PAIRS {
                        let f = if far_at == Some((e, p)) {
                            "Get_Far"
                        } else {
                            "Get_Date"
                        };
                        kids.push(ITree::func(f, vec![ITree::data("title", &title)]));
                        let label = MIRROR_LABELS[(code >> (2 * p)) & 3];
                        kids.push(ITree::data(label, &word(rng, 6)));
                    }
                    ITree::elem("exhibit", kids)
                })
                .collect();
            (ITree::elem("r", exhibits), 0)
        })
        .collect()
}

/// The reference outcome of one input, from the DOM pipeline with
/// scripted answers identical to what the workload's services serve.
pub fn reference(
    kind: Kind,
    schemas: &Schemas,
    cache: &SolveCache,
    doc: &ITree,
    exchange: usize,
) -> Expect {
    let text = axml_xml::element_to_string(&doc.to_xml(), &axml_xml::WriteOptions::compact());
    let opts = StreamOptions {
        k: kind.k(),
        cache: Some(cache.clone()),
        ..StreamOptions::default()
    };
    let script = answers(kind)
        .into_iter()
        .fold(ScriptedInvoker::new(), |s, (def, a)| s.answer(&def.name, a));
    let mut make = || Box::new(script.clone()) as Box<dyn axml_core::invoke::Invoker + Send>;
    match enforce_dom(&schemas.exchanges[exchange], &text, &opts, &mut make) {
        Ok((out, _)) => {
            let parsed = axml_xml::parse_document(&out).expect("enforced output parses");
            let tree = ITree::from_xml(&parsed.root).expect("enforced output decodes");
            if validate(&tree, &schemas.receiver).is_ok() {
                Expect::Accept {
                    doc: tree,
                    bytes: out.len() as u64,
                }
            } else {
                Expect::ReceiverRefuses
            }
        }
        Err(RewriteError::NotSafe { .. }) => Expect::SenderNotSafe,
        Err(e) => panic!("workload input the oracle cannot judge: {e}"),
    }
}

/// Labels of a document's grandchildren: equal keys mean equal children
/// words, hence equal games.
fn shape_key(doc: &ITree) -> Vec<Vec<&str>> {
    doc.children()
        .iter()
        .map(|c| c.children().iter().filter_map(ITree::name).collect())
        .collect()
}

/// Generates the workload's inputs and their reference outcomes. The
/// oracle visits documents grouped by shape on two threads sharing one
/// small cache: repeated words stay warm without holding the working
/// set (about half a megabyte per churn game) in memory.
pub fn inputs(kind: Kind, seed: u64) -> (Vec<Input>, u64) {
    let docs = generate(kind, seed);
    let fingerprint = digest(&docs);
    let schemas = Schemas::compile(kind);
    let cache = SolveCache::unpublished(64);
    let mut order: Vec<usize> = (0..docs.len()).collect();
    order.sort_by_cached_key(|&i| shape_key(&docs[i].0));
    let half = order.len().div_ceil(2);
    let mut expects: Vec<Option<Expect>> = vec![None; docs.len()];
    std::thread::scope(|s| {
        let parts: Vec<_> = order
            .chunks(half)
            .map(|part| {
                let (schemas, cache, docs) = (&schemas, &cache, &docs);
                s.spawn(move || {
                    part.iter()
                        .map(|&i| (i, reference(kind, schemas, cache, &docs[i].0, docs[i].1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in parts {
            for (i, e) in h.join().expect("oracle thread panicked") {
                expects[i] = Some(e);
            }
        }
    });
    let inputs = docs
        .into_iter()
        .zip(expects)
        .map(|((doc, exchange), expect)| Input {
            doc,
            exchange,
            expect: expect.expect("every input judged"),
        })
        .collect();
    (inputs, fingerprint)
}

/// A 64-bit digest of the generated documents, printed in the run
/// header so two runs can be seen to have shipped the same inputs.
pub fn digest(docs: &[(ITree, usize)]) -> u64 {
    let mut h = axml_support::hash::Fnv64::new();
    for (d, x) in docs {
        h.update(
            axml_xml::element_to_string(&d.to_xml(), &axml_xml::WriteOptions::compact()).as_bytes(),
        );
        h.update(&[*x as u8]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in [Kind::Fig1, Kind::Bulk, Kind::Churn] {
            let a = digest(&generate(kind, 42));
            assert_eq!(a, digest(&generate(kind, 42)), "{kind:?}");
            assert_ne!(a, digest(&generate(kind, 43)), "{kind:?}");
        }
    }

    #[test]
    fn mixes_are_fixed_across_seeds() {
        for seed in [1, 2, 3] {
            let fig1 = generate(Kind::Fig1, seed);
            assert_eq!(fig1.iter().filter(|(_, x)| *x == 1).count(), FIG1_DOCS / 10);
            let bulk = generate(Kind::Bulk, seed);
            assert_eq!(bulk.iter().filter(|(_, x)| *x == 1).count(), BULK_FEEDS / 8);
            let mut left_in: Vec<usize> = bulk
                .iter()
                .filter(|(_, x)| *x == 1)
                .map(|(feed, _)| {
                    feed.children()
                        .iter()
                        .take_while(|c| c.name() != Some("calls"))
                        .filter(|c| c.name() == Some("chunk"))
                        .count()
                })
                .collect();
            left_in.sort_unstable();
            assert_eq!(left_in, [0, BULK_CHUNKS / 2, BULK_CHUNKS]);
            for (feed, _) in &bulk {
                let text =
                    axml_xml::element_to_string(&feed.to_xml(), &axml_xml::WriteOptions::compact());
                assert!((960 << 10..1 << 20).contains(&text.len()), "{}", text.len());
            }
            let churn = generate(Kind::Churn, seed);
            let far = churn
                .iter()
                .filter(|(d, _)| {
                    let mut n = 0;
                    d.visit(&mut |t| {
                        n += usize::from(matches!(t, ITree::Func(f) if f.name == "Get_Far"))
                    });
                    n == 1
                })
                .count();
            assert_eq!(far, CHURN_DOCS / 10);
        }
    }

    #[test]
    fn oracle_rejects_tampered_and_mistyped_outcomes() {
        let schemas = Schemas::compile(Kind::Fig1);
        let cache = SolveCache::unpublished(64);
        let (doc, x) = generate(Kind::Fig1, 3)
            .into_iter()
            .find(|(_, x)| *x == 0)
            .expect("an accepted input");
        let expect = reference(Kind::Fig1, &schemas, &cache, &doc, x);
        let Expect::Accept {
            doc: reference_doc, ..
        } = &expect
        else {
            panic!("expected acceptance, got {expect:?}");
        };
        assert_eq!(
            judge(&expect, Ok(()), || Some(reference_doc.clone())),
            Outcome::Accepted
        );
        // One data value changed in the delivered document.
        let mut tampered = reference_doc.clone();
        if let ITree::Elem { children, .. } = &mut tampered {
            children[0] = ITree::data("title", "tampered");
        }
        assert!(matches!(
            judge(&expect, Ok(()), || Some(tampered)),
            Outcome::Failed(_)
        ));
        assert!(matches!(
            judge(&expect, Ok(()), || None),
            Outcome::Failed(_)
        ));
        // A refusal where acceptance was due, and refusals of the wrong type.
        let fault = || {
            Err(PeerError::Fault(axml_services::soap::Fault::new(
                "Client.Enforcement",
                "x",
            )))
        };
        assert!(matches!(
            judge(&expect, fault(), || None),
            Outcome::Failed(_)
        ));
        assert_eq!(
            judge(&Expect::ReceiverRefuses, fault(), || None),
            Outcome::Refused
        );
        assert!(matches!(
            judge(&Expect::SenderNotSafe, fault(), || None),
            Outcome::Failed(_)
        ));
        let not_safe = || {
            Err(PeerError::Enforcement(
                "no safe rewriting for 'newspaper'".into(),
            ))
        };
        assert_eq!(
            judge(&Expect::SenderNotSafe, not_safe(), || None),
            Outcome::Refused
        );
        assert!(matches!(
            judge(&Expect::ReceiverRefuses, not_safe(), || None),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn oracle_outcomes_match_the_mix() {
        let schemas = Schemas::compile(Kind::Fig1);
        let cache = SolveCache::unpublished(64);
        let docs = generate(Kind::Fig1, 5);
        let refusals = docs
            .iter()
            .filter(|(d, x)| {
                reference(Kind::Fig1, &schemas, &cache, d, *x) == Expect::SenderNotSafe
            })
            .count();
        assert_eq!(refusals, FIG1_DOCS / 10);
        let schemas = Schemas::compile(Kind::Bulk);
        for (d, x) in generate(Kind::Bulk, 5) {
            let e = reference(Kind::Bulk, &schemas, &cache, &d, x);
            if x == 1 {
                assert_eq!(e, Expect::ReceiverRefuses);
            } else {
                assert!(matches!(e, Expect::Accept { ref doc, .. } if doc.num_funcs() == 0));
            }
        }
    }
}
