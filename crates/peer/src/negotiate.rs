//! Exchange-schema negotiation.
//!
//! The paper's conclusion sketches an extension where the enforcement
//! module "could speak to other peers to agree with them on the intensional
//! XML Schemas that should be used to exchange data". This module
//! implements that handshake:
//!
//! 1. the sender proposes exchange schemas in preference order (most
//!    intensional first — lazier is cheaper for the sender);
//! 2. the receiver filters them through its [`InboundPolicy`] (a browser
//!    rejects any schema that *permits* embedded calls; a cautious peer
//!    only accepts schemas whose calls are all in its trusted list);
//! 3. the sender keeps the first surviving proposal it can *guarantee*:
//!    its own schema must safely rewrite into it (Sec. 6 / Def. 6).

use crate::peer::InboundPolicy;
use axml_core::schema_rw::schema_safe_rewrites;
use axml_schema::{Compiled, Content, NameKind, PatternOracle, Schema, SchemaError};
use axml_store::CompatMatrix;

/// A named exchange-schema proposal.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Human-readable name for the proposal.
    pub name: String,
    /// The proposed exchange schema.
    pub schema: Schema,
}

/// Outcome of a negotiation.
#[derive(Debug, Clone)]
pub enum Negotiation {
    /// Index of the agreed proposal.
    Agreed {
        /// Index into the proposal list.
        index: usize,
        /// Why earlier proposals were skipped.
        skipped: Vec<(usize, String)>,
    },
    /// No proposal survived both sides.
    Failed {
        /// Why each proposal was rejected.
        reasons: Vec<(usize, String)>,
    },
}

impl InboundPolicy {
    /// Checks whether this receiver policy can accept *documents of* the
    /// given schema — i.e. whether any instance could carry an embedded
    /// call the policy forbids. Conservative: a schema whose content
    /// models mention a forbidden function (or any pattern/wildcard, whose
    /// members are open-ended) is rejected.
    pub fn accepts_schema(&self, schema: &Schema) -> Result<(), String> {
        let forbidden = |name: &str| -> Option<String> {
            match schema.kind_of(name) {
                Some(NameKind::Function) => match self {
                    InboundPolicy::AcceptAll => None,
                    InboundPolicy::RejectFunctions => {
                        Some(format!("schema permits embedded call '{name}'"))
                    }
                    InboundPolicy::AllowOnly(list) => {
                        if list.iter().any(|f| f == name) {
                            None
                        } else {
                            Some(format!("'{name}' is not in the trusted list"))
                        }
                    }
                },
                Some(NameKind::Pattern) | Some(NameKind::AnyFunction) => match self {
                    InboundPolicy::AcceptAll => None,
                    _ => Some(format!("schema permits open-ended calls via '{name}'")),
                },
                _ => None,
            }
        };
        for def in schema.elements.values() {
            if let Content::Model(re) = &def.content {
                for sym in re.symbols() {
                    if let Some(reason) = forbidden(schema.alphabet.name(sym)) {
                        return Err(format!("in content of '{}': {reason}", def.name));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs the negotiation. `sender_schema`/`root` describe what the sender
/// will actually ship (Def. 6 check); `receiver` is the receiver's policy;
/// `k` is the rewriting depth the sender is willing to spend.
pub fn negotiate(
    sender_schema: &Schema,
    root: &str,
    proposals: &[Proposal],
    receiver: &InboundPolicy,
    k: u32,
    oracle: &dyn PatternOracle,
) -> Result<Negotiation, SchemaError> {
    run(sender_schema, root, proposals, receiver, k, oracle, None).map(|(n, _)| n)
}

/// How a [`negotiate_with_matrix`] run split its Sec. 6 checks between
/// the precomputed [`CompatMatrix`] and live game solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixUse {
    /// Proposals answered from the matrix (no games solved).
    pub matrix_hits: usize,
    /// Proposals that fell back to a live `schema_safe_rewrites` run
    /// (not in the matrix, stale fingerprint, or wrong `k`/root).
    pub live_checks: usize,
}

/// [`negotiate`], but consulting a precomputed schema compatibility
/// matrix before solving any game: when the matrix was built for the
/// same `root` and `k` and pins both `sender_name` and the proposal's
/// name to their *current* compiled fingerprints, its verdict is used
/// verbatim — the hot path costs a table lookup. Anything the matrix
/// cannot vouch for (unknown name, drifted schema, different `k`)
/// falls back to the live Sec. 6 check, so a stale matrix can slow a
/// negotiation down but never change its outcome.
///
/// Proposal names are matched against matrix member names, so build
/// the matrix over the same named portfolio the proposals come from.
#[allow(clippy::too_many_arguments)]
pub fn negotiate_with_matrix(
    sender_schema: &Schema,
    sender_name: &str,
    root: &str,
    proposals: &[Proposal],
    receiver: &InboundPolicy,
    k: u32,
    oracle: &dyn PatternOracle,
    matrix: &CompatMatrix,
) -> Result<(Negotiation, MatrixUse), SchemaError> {
    let matrix = Some((sender_name, matrix));
    run(sender_schema, root, proposals, receiver, k, oracle, matrix)
}

/// The one negotiation loop: the first proposal the receiver accepts and
/// the sender can guarantee wins. With a matrix, a verdict it vouches for
/// replaces the live Sec. 6 check.
fn run(
    sender_schema: &Schema,
    root: &str,
    proposals: &[Proposal],
    receiver: &InboundPolicy,
    k: u32,
    oracle: &dyn PatternOracle,
    matrix: Option<(&str, &CompatMatrix)>,
) -> Result<(Negotiation, MatrixUse), SchemaError> {
    let mut usage = MatrixUse::default();
    // The matrix is only authoritative for the same game: same root
    // element, same rewriting depth, and a sender it still pins.
    let pinned = match matrix {
        Some((sender_name, m)) if m.root() == root && m.k() == k => {
            let sender_fp = Compiled::new(sender_schema.clone(), oracle)?.fingerprint();
            Some((sender_name, sender_fp, m))
        }
        _ => None,
    };
    let mut reasons = Vec::new();
    for (i, p) in proposals.iter().enumerate() {
        if let Err(reason) = receiver.accepts_schema(&p.schema) {
            reasons.push((i, format!("receiver refuses: {reason}")));
            continue;
        }
        // `Some(None)`: the matrix vouches the sender can guarantee it;
        // `Some(Some(reason))`: it vouches the sender cannot.
        let precomputed = match pinned {
            Some((sender_name, fp, m)) if m.fingerprint_of(&p.name).is_some() => {
                let to_fp = Compiled::new(p.schema.clone(), oracle)?.fingerprint();
                m.can_send_pinned(sender_name, fp, &p.name, to_fp)
                    .map(|ok| {
                        let reason = || m.reason(sender_name, &p.name).unwrap_or("incompatible");
                        (!ok).then(|| reason().to_owned())
                    })
            }
            _ => None,
        };
        let verdict = match precomputed {
            Some(verdict) => {
                usage.matrix_hits += 1;
                verdict
            }
            None => {
                usage.live_checks += 1;
                let report = schema_safe_rewrites(sender_schema, root, &p.schema, k, oracle)?;
                (!report.compatible()).then(|| {
                    report
                        .failures
                        .first()
                        .map(|f| f.to_string())
                        .unwrap_or_else(|| "incompatible".to_owned())
                })
            }
        };
        match verdict {
            Some(detail) => reasons.push((i, format!("sender cannot guarantee it: {detail}"))),
            None => {
                let agreed = Negotiation::Agreed {
                    index: i,
                    skipped: reasons,
                };
                return Ok((agreed, usage));
            }
        }
    }
    Ok((Negotiation::Failed { reasons }, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::NoOracle;

    fn newspaper_schema(model: &str) -> Schema {
        Schema::builder()
            .element("newspaper", model)
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.date")
            .data_element("performance")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "(exhibit|performance)*")
            .root("newspaper")
            .build()
            .unwrap()
    }

    fn proposals() -> Vec<Proposal> {
        vec![
            Proposal {
                name: "fully intensional".to_owned(),
                schema: newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)"),
            },
            Proposal {
                name: "temp materialized".to_owned(),
                schema: newspaper_schema("title.date.temp.(TimeOut|exhibit*)"),
            },
            Proposal {
                name: "fully extensional".to_owned(),
                schema: newspaper_schema("title.date.temp.(exhibit|performance)*"),
            },
        ]
    }

    #[test]
    fn axml_receiver_gets_the_laziest_schema() {
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        let n = negotiate(
            &sender,
            "newspaper",
            &proposals(),
            &InboundPolicy::AcceptAll,
            1,
            &NoOracle,
        )
        .unwrap();
        match n {
            Negotiation::Agreed { index, skipped } => {
                assert_eq!(index, 0, "the first (laziest) proposal wins");
                assert!(skipped.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn browser_receiver_forces_the_extensional_schema() {
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        let n = negotiate(
            &sender,
            "newspaper",
            &proposals(),
            &InboundPolicy::RejectFunctions,
            1,
            &NoOracle,
        )
        .unwrap();
        match n {
            Negotiation::Agreed { index, skipped } => {
                assert_eq!(index, 2, "only the extensional schema survives");
                assert_eq!(skipped.len(), 2);
                assert!(skipped[0].1.contains("receiver refuses"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn allow_only_receiver_accepts_trusted_calls() {
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        // The receiver trusts TimeOut but not Get_Temp: proposal 0 (which
        // permits Get_Temp) is refused, proposal 1 (only TimeOut) is fine.
        let n = negotiate(
            &sender,
            "newspaper",
            &proposals(),
            &InboundPolicy::AllowOnly(vec!["TimeOut".to_owned()]),
            1,
            &NoOracle,
        )
        .unwrap();
        match n {
            Negotiation::Agreed { index, .. } => assert_eq!(index, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negotiation_fails_when_sender_cannot_guarantee() {
        // The sender's TimeOut may return performances, so it cannot
        // guarantee the exhibits-only schema; with a receiver that rejects
        // functions and only that proposal on the table, negotiation fails.
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        let only_exhibits = vec![Proposal {
            name: "exhibits only".to_owned(),
            schema: newspaper_schema("title.date.temp.exhibit*"),
        }];
        let n = negotiate(
            &sender,
            "newspaper",
            &only_exhibits,
            &InboundPolicy::RejectFunctions,
            1,
            &NoOracle,
        )
        .unwrap();
        match n {
            Negotiation::Failed { reasons } => {
                assert_eq!(reasons.len(), 1);
                assert!(reasons[0].1.contains("sender cannot guarantee"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matrix_negotiation_matches_live_and_skips_games() {
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        let proposals = proposals();
        // A portfolio covering the sender and every proposal, keyed by
        // the same names the proposals carry.
        let mut portfolio = vec![("sender".to_owned(), sender.clone())];
        portfolio.extend(proposals.iter().map(|p| (p.name.clone(), p.schema.clone())));
        let matrix = CompatMatrix::build(&portfolio, "newspaper", 1, &NoOracle).unwrap();
        for policy in [
            InboundPolicy::AcceptAll,
            InboundPolicy::RejectFunctions,
            InboundPolicy::AllowOnly(vec!["TimeOut".to_owned()]),
        ] {
            let live = negotiate(&sender, "newspaper", &proposals, &policy, 1, &NoOracle).unwrap();
            let (fast, usage) = negotiate_with_matrix(
                &sender,
                "sender",
                "newspaper",
                &proposals,
                &policy,
                1,
                &NoOracle,
                &matrix,
            )
            .unwrap();
            // Same outcome, and every Sec. 6 check the receiver let
            // through was answered from the matrix, not a game.
            match (&live, &fast) {
                (
                    Negotiation::Agreed { index: a, .. },
                    Negotiation::Agreed { index: b, .. },
                ) => assert_eq!(a, b),
                (Negotiation::Failed { .. }, Negotiation::Failed { .. }) => {}
                other => panic!("outcomes diverge: {other:?}"),
            }
            assert_eq!(usage.live_checks, 0, "matrix should answer everything");
            assert!(usage.matrix_hits >= 1);
        }
    }

    #[test]
    fn matrix_with_wrong_k_falls_back_to_live_checks() {
        let sender = newspaper_schema("title.date.(Get_Temp|temp).(TimeOut|exhibit*)");
        let proposals = proposals();
        let mut portfolio = vec![("sender".to_owned(), sender.clone())];
        portfolio.extend(proposals.iter().map(|p| (p.name.clone(), p.schema.clone())));
        // Built at k = 2, consulted at k = 1: not authoritative.
        let matrix = CompatMatrix::build(&portfolio, "newspaper", 2, &NoOracle).unwrap();
        let (fast, usage) = negotiate_with_matrix(
            &sender,
            "sender",
            "newspaper",
            &proposals,
            &InboundPolicy::AcceptAll,
            1,
            &NoOracle,
            &matrix,
        )
        .unwrap();
        assert_eq!(usage.matrix_hits, 0);
        assert!(usage.live_checks >= 1);
        assert!(matches!(fast, Negotiation::Agreed { index: 0, .. }));
    }

    #[test]
    fn patterns_are_open_ended_for_strict_receivers() {
        let with_pattern = Schema::builder()
            .element("newspaper", "title.date.(Forecast|temp).exhibit*")
            .data_element("title")
            .data_element("date")
            .data_element("temp")
            .data_element("city")
            .element("exhibit", "title.date")
            .data_element("performance")
            .pattern(
                "Forecast",
                axml_schema::Predicate::NamePrefix("Get_".to_owned()),
                "city",
                "temp",
            )
            .function("Get_Temp", "city", "temp")
            .root("newspaper")
            .build()
            .unwrap();
        assert!(InboundPolicy::AcceptAll
            .accepts_schema(&with_pattern)
            .is_ok());
        assert!(InboundPolicy::AllowOnly(vec!["Get_Temp".to_owned()])
            .accepts_schema(&with_pattern)
            .is_err());
        assert!(InboundPolicy::RejectFunctions
            .accepts_schema(&with_pattern)
            .is_err());
    }
}
