//! Serialization of [`SolveCache`](axml_core::solve_cache::SolveCache)
//! entries (DESIGN.md §11.2).
//!
//! A snapshot is the cache's [`CacheEntry`] export — full structural
//! keys plus solved values — encoded entry-by-entry in LRU order
//! (least-recently used first). Loading replays the entries through
//! [`SolveCache::preload`](axml_core::solve_cache::SolveCache::preload)
//! in the same order, reconstructing both the contents and the relative
//! eviction order of the persisted cache.
//!
//! What is persisted per value:
//!
//! * DFAs — all four fields verbatim, tagged by strategy (the safe
//!   games' complements, the possible games' targets).
//! * Solved games — the expansion automaton `A_w^k`, the DFA, and the
//!   product graph *with its solution* (node pairs, adjacency in
//!   original order, one flag per node, stats), tagged by strategy. The
//!   flag is the node's mark for safe games and its viability for
//!   possible ones, i.e. the negated and the plain allowed set. A safe
//!   game also carries a build-mode byte, always 1 (lazy, the only mode
//!   rewriters build), so snapshots keep one format across releases.
//!   The pair→node index is rebuilt on load.
//!
//! Decode goes through the validating `from_solved_parts` constructor,
//! so a payload that passed the checksum but is structurally impossible
//! (only reachable through a format bug, not disk corruption) still
//! becomes a load error, never a panic in the solver.

use crate::format::{Dec, Enc};
use axml_automata::Dfa;
use axml_core::awk::{Awk, Direction, Edge, StateKind};
use axml_core::game::{Game, GameStats, Strategy};
use axml_core::solve_cache::{CacheEntry, TargetSlot};
use std::sync::Arc;

/// Magic for solver-cache snapshot files.
pub const CACHE_MAGIC: [u8; 4] = *b"AXSC";

const TAG_COMP: u8 = 0;
const TAG_TARGET: u8 = 1;
const TAG_SAFE: u8 = 2;
const TAG_POSSIBLE: u8 = 3;
/// The build-mode byte of a safe game: lazy (Sec. 7).
const MODE_LAZY: u8 = 1;

/// Encodes exported cache entries into a snapshot payload.
pub fn encode_entries(entries: &[CacheEntry]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(entries.len() as u32);
    for entry in entries {
        match entry {
            CacheEntry::Dfa {
                strategy,
                schema,
                slot,
                dfa,
            } => {
                e.u8(match strategy {
                    Strategy::Safe => TAG_COMP,
                    Strategy::Possible => TAG_TARGET,
                });
                e.u64(*schema);
                slot_enc(&mut e, *slot);
                dfa_enc(&mut e, dfa);
            }
            CacheEntry::Game {
                strategy,
                schema,
                slot,
                word,
                k,
                max_states,
                game,
            } => {
                e.u8(match strategy {
                    Strategy::Safe => TAG_SAFE,
                    Strategy::Possible => TAG_POSSIBLE,
                });
                e.u64(*schema);
                slot_enc(&mut e, *slot);
                word_enc(&mut e, word);
                e.u32(*k);
                if *strategy == Strategy::Safe {
                    e.u8(MODE_LAZY);
                }
                e.usize(*max_states);
                game_enc(&mut e, game);
            }
        }
    }
    e.finish()
}

/// Decodes a snapshot payload back into cache entries (LRU order).
pub fn decode_entries(payload: &[u8]) -> Result<Vec<CacheEntry>, String> {
    let mut d = Dec::new(payload);
    let n = d.count(13)?; // tag + schema + slot is the minimum entry
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = d.u8()?;
        let schema = d.u64()?;
        let slot = slot_dec(&mut d)?;
        let strategy = match tag {
            TAG_COMP | TAG_SAFE => Strategy::Safe,
            TAG_TARGET | TAG_POSSIBLE => Strategy::Possible,
            t => return Err(format!("unknown entry tag {t}")),
        };
        let entry = if tag == TAG_COMP || tag == TAG_TARGET {
            CacheEntry::Dfa {
                strategy,
                schema,
                slot,
                dfa: Arc::new(dfa_dec(&mut d)?),
            }
        } else {
            let word = word_dec(&mut d)?;
            let k = d.u32()?;
            if strategy == Strategy::Safe {
                match d.u8()? {
                    MODE_LAZY => {}
                    b => return Err(format!("invalid build mode {b}")),
                }
            }
            let max_states = d.usize()?;
            CacheEntry::Game {
                strategy,
                schema,
                slot,
                word,
                k,
                max_states,
                game: Arc::new(game_dec(&mut d, strategy)?),
            }
        };
        entries.push(entry);
    }
    if !d.is_done() {
        return Err("trailing bytes after the last entry".to_owned());
    }
    Ok(entries)
}

fn slot_enc(e: &mut Enc, slot: TargetSlot) {
    match slot {
        TargetSlot::Content(s) => {
            e.u8(0);
            e.u32(s);
        }
        TargetSlot::Input(s) => {
            e.u8(1);
            e.u32(s);
        }
        TargetSlot::Output(s) => {
            e.u8(2);
            e.u32(s);
        }
    }
}

fn slot_dec(d: &mut Dec<'_>) -> Result<TargetSlot, String> {
    let tag = d.u8()?;
    let sym = d.u32()?;
    match tag {
        0 => Ok(TargetSlot::Content(sym)),
        1 => Ok(TargetSlot::Input(sym)),
        2 => Ok(TargetSlot::Output(sym)),
        t => Err(format!("invalid target slot tag {t}")),
    }
}

fn word_enc(e: &mut Enc, word: &[u32]) {
    e.u32(word.len() as u32);
    for &s in word {
        e.u32(s);
    }
}

fn word_dec(d: &mut Dec<'_>) -> Result<Box<[u32]>, String> {
    let n = d.count(4)?;
    let mut w = Vec::with_capacity(n);
    for _ in 0..n {
        w.push(d.u32()?);
    }
    Ok(w.into_boxed_slice())
}

fn dfa_enc(e: &mut Enc, dfa: &Dfa) {
    e.u32(dfa.num_symbols as u32);
    e.u32(dfa.num_states() as u32);
    e.u32(dfa.start);
    for &f in &dfa.finals {
        e.bool(f);
    }
    for &t in &dfa.table {
        e.u32(t);
    }
}

fn dfa_dec(d: &mut Dec<'_>) -> Result<Dfa, String> {
    let num_symbols = d.u32()? as usize;
    let states = d.u32()? as usize;
    let start = d.u32()?;
    let table_len = states
        .checked_mul(num_symbols)
        .ok_or("DFA dimensions overflow")?;
    if states > 0 && (start as usize) >= states {
        return Err(format!("DFA start {start} out of range ({states} states)"));
    }
    let mut finals = Vec::with_capacity(states.min(1 << 20));
    for _ in 0..states {
        finals.push(d.bool()?);
    }
    let mut table = Vec::with_capacity(table_len.min(1 << 24));
    for _ in 0..table_len {
        let t = d.u32()?;
        if t != axml_automata::NO_STATE && (t as usize) >= states {
            return Err(format!("DFA transition to unknown state {t}"));
        }
        table.push(t);
    }
    Ok(Dfa {
        num_symbols,
        table,
        start,
        finals,
    })
}

fn awk_enc(e: &mut Enc, awk: &Awk) {
    e.u32(awk.num_symbols as u32);
    e.u32(awk.k);
    e.u8(match awk.direction {
        Direction::LeftToRight => 0,
        Direction::RightToLeft => 1,
    });
    e.u32(awk.start);
    e.u32(awk.finish);
    e.u32(awk.num_states() as u32);
    for s in 0..awk.num_states() as u32 {
        match awk.kind(s) {
            StateKind::Regular => e.u8(0),
            StateKind::Fork {
                func,
                skip,
                invoke,
                depth,
            } => {
                e.u8(1);
                e.u32(func);
                e.u32(skip);
                e.u32(invoke);
                e.u32(depth);
            }
        }
    }
    e.u32(awk.num_edges() as u32);
    for id in 0..awk.num_edges() as u32 {
        let edge = awk.edge(id);
        e.u32(edge.from);
        e.u32(edge.to);
        match edge.label {
            None => e.u8(0),
            Some(sym) => {
                e.u8(1);
                e.u32(sym);
            }
        }
    }
    // The adjacency is order-significant (fork expansion reorders it in
    // place), so it is written explicitly rather than derived.
    for s in 0..awk.num_states() as u32 {
        let out = awk.out_edges(s);
        e.u32(out.len() as u32);
        for &id in out {
            e.u32(id);
        }
    }
}

fn awk_dec(d: &mut Dec<'_>) -> Result<Awk, String> {
    let num_symbols = d.u32()? as usize;
    let k = d.u32()?;
    let direction = match d.u8()? {
        0 => Direction::LeftToRight,
        1 => Direction::RightToLeft,
        b => return Err(format!("invalid direction byte {b}")),
    };
    let start = d.u32()?;
    let finish = d.u32()?;
    let states = d.count(1)?;
    let mut kinds = Vec::with_capacity(states);
    for _ in 0..states {
        kinds.push(match d.u8()? {
            0 => StateKind::Regular,
            1 => StateKind::Fork {
                func: d.u32()?,
                skip: d.u32()?,
                invoke: d.u32()?,
                depth: d.u32()?,
            },
            b => return Err(format!("invalid state kind {b}")),
        });
    }
    let num_edges = d.count(9)?;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let from = d.u32()?;
        let to = d.u32()?;
        let label = match d.u8()? {
            0 => None,
            1 => Some(d.u32()?),
            b => return Err(format!("invalid edge label flag {b}")),
        };
        edges.push(Edge { from, to, label });
    }
    let mut out = Vec::with_capacity(states);
    for _ in 0..states {
        let n = d.count(4)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(d.u32()?);
        }
        out.push(ids);
    }
    Awk::from_parts(num_symbols, kinds, edges, out, start, finish, k, direction)
}

fn stats_enc(e: &mut Enc, stats: &GameStats) {
    e.usize(stats.nodes);
    e.usize(stats.edges);
    e.usize(stats.sink_pruned);
    e.usize(stats.mark_pruned);
}

fn stats_dec(d: &mut Dec<'_>) -> Result<GameStats, String> {
    Ok(GameStats {
        nodes: d.usize()?,
        edges: d.usize()?,
        sink_pruned: d.usize()?,
        mark_pruned: d.usize()?,
    })
}

fn game_enc(e: &mut Enc, game: &Game) {
    awk_enc(e, &game.awk);
    dfa_enc(e, &game.dfa);
    let nodes = game.num_nodes() as u32;
    e.u32(nodes);
    for n in 0..nodes {
        let (s, q) = game.pair(n);
        e.u32(s);
        e.u32(q);
    }
    for n in 0..nodes {
        let out = game.successors(n);
        e.u32(out.len() as u32);
        for &(eid, m) in out {
            e.u32(eid);
            e.u32(m);
        }
    }
    // Safe games write their marks: the nodes outside the allowed set.
    let marks = game.strategy == Strategy::Safe;
    for n in 0..nodes {
        e.bool(game.allowed(n) != marks);
    }
    e.u32(game.start);
    stats_enc(e, &game.stats);
}

fn game_dec(d: &mut Dec<'_>, strategy: Strategy) -> Result<Game, String> {
    let awk = awk_dec(d)?;
    let dfa = dfa_dec(d)?;
    let nodes = d.count(8)?;
    let mut pairs = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        pairs.push((d.u32()?, d.u32()?));
    }
    let mut out = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let n = d.count(8)?;
        let mut succs = Vec::with_capacity(n);
        for _ in 0..n {
            succs.push((d.u32()?, d.u32()?));
        }
        out.push(succs);
    }
    let marks = strategy == Strategy::Safe;
    let mut allowed = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        allowed.push(d.bool()? != marks);
    }
    let start = d.u32()?;
    let stats = stats_dec(d)?;
    Game::from_solved_parts(strategy, awk, dfa, pairs, out, allowed, start, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::awk::AwkLimits;
    use axml_core::game::BuildMode;
    use axml_schema::{Compiled, NoOracle, Schema};

    fn paper_compiled() -> Compiled {
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
        .unwrap()
    }

    fn solved_entries() -> Vec<CacheEntry> {
        let c = paper_compiled();
        let names = ["title", "date", "Get_Temp", "TimeOut"];
        let w: Vec<u32> = names
            .iter()
            .map(|n| c.alphabet().lookup(n).unwrap())
            .collect();
        let mut ab = c.alphabet().clone();
        let re = axml_automata::Regex::parse("title.date.temp.(TimeOut|exhibit*)", &mut ab).unwrap();
        let n = c.alphabet().len();
        let mut entries = Vec::new();
        for strategy in [Strategy::Safe, Strategy::Possible] {
            let dfa = Arc::new(strategy.dfa(&re, n));
            let awk = Awk::build(&w, &c, 1, &AwkLimits::default()).unwrap();
            let game = Game::solve_in(
                strategy,
                awk,
                Arc::clone(&dfa),
                BuildMode::Lazy,
                &axml_obs::Registry::new(),
            );
            entries.push(CacheEntry::Dfa {
                strategy,
                schema: c.fingerprint(),
                slot: TargetSlot::Content(0),
                dfa,
            });
            entries.push(CacheEntry::Game {
                strategy,
                schema: c.fingerprint(),
                slot: TargetSlot::Content(0),
                word: w.clone().into_boxed_slice(),
                k: 1,
                max_states: 500_000,
                game: Arc::new(game),
            });
        }
        entries
    }

    #[test]
    fn entries_roundtrip_byte_identically() {
        let entries = solved_entries();
        let payload = encode_entries(&entries);
        let decoded = decode_entries(&payload).unwrap();
        // Re-encoding the decode reproduces the payload bit-for-bit —
        // the round-trip loses nothing the encoder can see.
        assert_eq!(encode_entries(&decoded), payload);
        // And the decoded games carry the same verdicts.
        for i in [1, 3] {
            match (&entries[i], &decoded[i]) {
                (CacheEntry::Game { game: a, .. }, CacheEntry::Game { game: b, .. }) => {
                    assert_eq!(a.strategy, b.strategy);
                    assert_eq!(a.wins(), b.wins());
                    assert_eq!(a.num_nodes(), b.num_nodes());
                    assert_eq!(a.plan(), b.plan());
                }
                _ => panic!("entry kind drifted through the roundtrip"),
            }
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let payload = encode_entries(&solved_entries());
        for cut in [1usize, 7, payload.len() / 2, payload.len() - 1] {
            assert!(decode_entries(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut payload = encode_entries(&solved_entries());
        payload.push(0);
        assert!(decode_entries(&payload).is_err());
    }
}
