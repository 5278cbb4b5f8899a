//! Pluggable answer strategies for simulated service providers.
//!
//! The paper's Def. 4 adversary may answer a call with *any* instance of
//! the declared output type. The scenarios make that adversary a
//! first-class, swappable policy: a [`Strategy`] decides what one
//! provider answers for one decoded call, and [`strategy_provider`]
//! adapts any strategy into a sim server handler with a per-provider
//! seeded RNG stream. Three opponents ship here, interchangeable per
//! seed:
//!
//! * [`RandomStrategy`] — random type-correct answers with seeded fault
//!   injection; draw-for-draw identical to the original hard-coded
//!   adversarial provider, so existing golden transcripts are unchanged;
//! * [`CrashingStrategy`] — serves normally for a while, then answers
//!   every call with a retryable service fault (a daemon that died and
//!   never comes back — the client's retry/deadline path does the rest);
//! * [`StrategicStrategy`] — the game-playing opponent: it solves the
//!   same possible [`Game`] the rewriter will solve and answers with
//!   [`worst_answer`]'s trapping word when one exists, forcing the
//!   worst type-correct outcome instead of stumbling into a good one.

use axml_core::adversary::{worst_answer, WorstAnswer};
use axml_core::awk::{Awk, AwkLimits};
use axml_core::game::{target_of, BuildMode, Game, Strategy as Play};
use axml_net::wire::{FaultCode, WireFault};
use axml_schema::{
    generate_output_instance, generate_word_instance, Compiled, GenConfig, ITree,
};
use axml_services::soap;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use axml_support::sync::Mutex;
use axml_automata::Symbol;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One provider's answer policy. Implementations must be deterministic
/// given the call sequence and the `rng` stream they are handed.
pub trait Strategy: Send + Sync {
    /// Short name for transcripts and logs.
    fn name(&self) -> &'static str;

    /// Answers one decoded call: either a result forest (encoded as a
    /// SOAP response by the adapter) or a service fault.
    fn answer(
        &self,
        compiled: &Compiled,
        method: &str,
        params: &[ITree],
        rng: &mut StdRng,
    ) -> Result<Vec<ITree>, WireFault>;
}

/// Adapts a [`Strategy`] into a sim server handler: decodes the SOAP
/// envelope, hands the call to the strategy under a per-provider RNG
/// seeded from `seed` (same derivation the original adversarial provider
/// used), and encodes the answer.
pub fn strategy_provider(
    compiled: Arc<Compiled>,
    seed: u64,
    strategy: Arc<dyn Strategy>,
) -> Arc<dyn axml_net::Handler> {
    let rng = Mutex::new(StdRng::seed_from_u64(seed ^ 0xad7e_25a1));
    Arc::new(move |_id: u64, envelope: &str| -> Result<String, WireFault> {
        let message = soap::decode(envelope)
            .map_err(|e| WireFault::new(FaultCode::Client, format!("bad envelope: {e}")))?;
        let soap::Message::Request { method, params } = message else {
            return Err(WireFault::new(FaultCode::Client, "expected a call request"));
        };
        let mut rng = rng.lock();
        let result = strategy.answer(&compiled, &method, &params, &mut rng)?;
        Ok(soap::response(&result).to_xml())
    })
}

/// Random type-correct answers with seeded fault injection. The draw
/// order per request — fault?, retryable?, then the instance — is the
/// contract the golden transcripts pin; do not reorder.
#[derive(Debug, Clone)]
pub struct RandomStrategy {
    /// Probability a call is answered with an injected service fault
    /// (half of them retryable) instead of data.
    pub fault_prob: f64,
}

impl Strategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn answer(
        &self,
        compiled: &Compiled,
        method: &str,
        _params: &[ITree],
        rng: &mut StdRng,
    ) -> Result<Vec<ITree>, WireFault> {
        if rng.random_bool(self.fault_prob) {
            let f = WireFault::new(FaultCode::Server, "injected service failure");
            return Err(if rng.random_bool(0.5) { f.retryable() } else { f });
        }
        let output = sig_output(compiled, method)?;
        generate_output_instance(compiled, &output, rng, &GenConfig::default())
            .map_err(|e| WireFault::new(FaultCode::Server, e.to_string()))
    }
}

/// Serves like [`RandomStrategy`] (without injected faults) for the first
/// `up_for` calls, then answers everything with a retryable service
/// fault: a daemon that crashed and never restarts. Clients burn their
/// retry budget against it and must fail *typed* within their bounds.
#[derive(Debug)]
pub struct CrashingStrategy {
    /// Calls served before the crash.
    pub up_for: u64,
    served: AtomicU64,
}

impl CrashingStrategy {
    /// A provider that crashes after `up_for` served calls.
    pub fn after(up_for: u64) -> CrashingStrategy {
        CrashingStrategy {
            up_for,
            served: AtomicU64::new(0),
        }
    }
}

impl Strategy for CrashingStrategy {
    fn name(&self) -> &'static str {
        "crashing"
    }

    fn answer(
        &self,
        compiled: &Compiled,
        method: &str,
        _params: &[ITree],
        rng: &mut StdRng,
    ) -> Result<Vec<ITree>, WireFault> {
        if self.served.fetch_add(1, Ordering::Relaxed) >= self.up_for {
            return Err(
                WireFault::new(FaultCode::Server, "service crashed and will not recover")
                    .retryable(),
            );
        }
        let output = sig_output(compiled, method)?;
        generate_output_instance(compiled, &output, rng, &GenConfig::default())
            .map_err(|e| WireFault::new(FaultCode::Server, e.to_string()))
    }
}

/// The game-playing opponent. It is built over the same invocation
/// context the rewriter faces (the word containing the call and the
/// target content model) and solves the possible [`Game`] once; per
/// method it then answers with [`worst_answer`]'s word — the trapping
/// answer when the graph admits one — realized as a concrete instance.
/// Methods without a fork in the context (the game never consults the
/// adversary about them) fall back to random type-correct answers.
pub struct StrategicStrategy {
    game: Game,
    answers: Mutex<BTreeMap<Symbol, Option<WorstAnswer>>>,
}

impl StrategicStrategy {
    /// Builds the opponent for one invocation context: `context` is the
    /// word the rewriter rewrites (e.g. `["title", "Get_Quote"]`),
    /// `target` the content model it must reach (e.g. `"title.price"`),
    /// `k` the expansion depth. Fails if the context or target does not
    /// compile over the schema's alphabet.
    pub fn new(
        compiled: &Compiled,
        context: &[&str],
        target: &str,
        k: u32,
    ) -> Result<StrategicStrategy, String> {
        let word = context
            .iter()
            .map(|n| {
                compiled
                    .alphabet()
                    .lookup(n)
                    .ok_or_else(|| format!("unknown context symbol '{n}'"))
            })
            .collect::<Result<Vec<Symbol>, String>>()?;
        let awk = Awk::build(&word, compiled, k, &AwkLimits::default())
            .map_err(|e| format!("context expansion failed: {e}"))?;
        let mut alphabet = compiled.alphabet().clone();
        let regex = axml_automata::Regex::parse(target, &mut alphabet)
            .map_err(|e| format!("bad target '{target}': {e}"))?;
        if alphabet.len() != compiled.alphabet().len() {
            return Err(format!("target '{target}' uses symbols outside the schema"));
        }
        let game = Game::solve(
            Play::Possible,
            awk,
            target_of(&regex, compiled.alphabet().len()),
            BuildMode::Eager,
        );
        Ok(StrategicStrategy {
            game,
            answers: Mutex::new(BTreeMap::new()),
        })
    }

    /// The memoized worst answer for one function symbol.
    fn worst_for(&self, func: Symbol) -> Option<WorstAnswer> {
        self.answers
            .lock()
            .entry(func)
            .or_insert_with(|| worst_answer(&self.game, func))
            .clone()
    }
}

impl Strategy for StrategicStrategy {
    fn name(&self) -> &'static str {
        "strategic"
    }

    fn answer(
        &self,
        compiled: &Compiled,
        method: &str,
        _params: &[ITree],
        rng: &mut StdRng,
    ) -> Result<Vec<ITree>, WireFault> {
        let func = compiled
            .alphabet()
            .lookup(method)
            .ok_or_else(|| WireFault::new(FaultCode::Client, format!("unknown method '{method}'")))?;
        match self.worst_for(func) {
            Some(worst) => generate_word_instance(compiled, &worst.word, rng, &GenConfig::default())
                .map_err(|e| WireFault::new(FaultCode::Server, e.to_string())),
            None => {
                let output = sig_output(compiled, method)?;
                generate_output_instance(compiled, &output, rng, &GenConfig::default())
                    .map_err(|e| WireFault::new(FaultCode::Server, e.to_string()))
            }
        }
    }
}

/// The declared output type of `method`, as a typed fault when absent.
fn sig_output(
    compiled: &Compiled,
    method: &str,
) -> Result<axml_automata::Regex, WireFault> {
    let sym = compiled
        .alphabet()
        .lookup(method)
        .ok_or_else(|| WireFault::new(FaultCode::Client, format!("unknown method '{method}'")))?;
    compiled
        .sig(sym)
        .map(|s| s.output.clone())
        .ok_or_else(|| WireFault::new(FaultCode::Client, format!("'{method}' is not a function")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::{validate_output_instance, NoOracle, Schema};

    fn marketplace_compiled() -> Arc<Compiled> {
        Arc::new(
            Compiled::new(
                Schema::builder()
                    .element("offer", "title.price")
                    .data_element("title")
                    .data_element("price")
                    .data_element("apology")
                    .function("Get_Quote", "title", "price|apology|Get_Quote")
                    .build()
                    .unwrap(),
                &NoOracle,
            )
            .unwrap(),
        )
    }

    fn call(compiled: &Compiled, strategy: &dyn Strategy, seed: u64) -> Result<Vec<ITree>, WireFault> {
        let mut rng = StdRng::seed_from_u64(seed);
        strategy.answer(compiled, "Get_Quote", &[ITree::text("x")], &mut rng)
    }

    #[test]
    fn random_answers_are_type_correct_and_deterministic() {
        let c = marketplace_compiled();
        let s = RandomStrategy { fault_prob: 0.0 };
        let a = call(&c, &s, 5).unwrap();
        let b = call(&c, &s, 5).unwrap();
        assert_eq!(a, b);
        let dfa = &c.sig_of("Get_Quote").output_dfa;
        validate_output_instance(&a, dfa, &c).unwrap();
    }

    #[test]
    fn crashing_strategy_flips_to_retryable_faults() {
        let c = marketplace_compiled();
        let s = CrashingStrategy::after(2);
        assert!(call(&c, &s, 1).is_ok());
        assert!(call(&c, &s, 2).is_ok());
        let fault = call(&c, &s, 3).unwrap_err();
        assert!(fault.retryable, "a crashed daemon's fault invites retries");
        assert!(call(&c, &s, 4).is_err(), "it never recovers");
    }

    #[test]
    fn strategic_strategy_answers_the_trapping_word() {
        let c = marketplace_compiled();
        let s = StrategicStrategy::new(&c, &["title", "Get_Quote"], "title.price", 1).unwrap();
        let forest = call(&c, &s, 7).unwrap();
        // The trapping answer for this game is the single `apology`.
        assert_eq!(forest.len(), 1);
        assert!(forest[0].to_xml().to_xml().contains("apology"));
        // Still a word of the output type — the adversary is type-correct.
        validate_output_instance(&forest, &c.sig_of("Get_Quote").output_dfa, &c).unwrap();
    }

    #[test]
    fn strategic_strategy_falls_back_for_unforked_methods() {
        let c = Arc::new(
            Compiled::new(
                Schema::builder()
                    .element("exhibit", "title.date")
                    .data_element("title")
                    .data_element("date")
                    .function("Get_Date", "title", "date")
                    .build()
                    .unwrap(),
                &NoOracle,
            )
            .unwrap(),
        );
        // Context without any call: the game never consults the adversary,
        // so the strategy answers randomly (here: the only word, `date`).
        let s = StrategicStrategy::new(&c, &["title", "date"], "title.date", 1).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let forest = s.answer(&c, "Get_Date", &[], &mut rng).unwrap();
        validate_output_instance(&forest, &c.sig_of("Get_Date").output_dfa, &c).unwrap();
    }

    #[test]
    fn provider_adapter_serves_soap_roundtrips() {
        let c = marketplace_compiled();
        let handler = strategy_provider(
            Arc::clone(&c),
            11,
            Arc::new(RandomStrategy { fault_prob: 0.0 }),
        );
        let envelope = soap::request("Get_Quote", &[ITree::text("x")]).to_xml();
        let a = handler.handle(1, &envelope).unwrap();
        // Same seed, fresh adapter: byte-identical stream.
        let handler2 = strategy_provider(
            Arc::clone(&c),
            11,
            Arc::new(RandomStrategy { fault_prob: 0.0 }),
        );
        assert_eq!(a, handler2.handle(1, &envelope).unwrap());
        assert!(a.contains("result"));
    }
}
