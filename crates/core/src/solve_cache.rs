//! Cross-request solver cache.
//!
//! Section 7 of the paper makes per-node rewriting tractable (depth
//! bound `k`, lazy product construction), but a long-running peer still
//! repays the full Glushkov → Thompson → determinize → product →
//! fixpoint pipeline on every request unless someone remembers the
//! results. [`SolveCache`] is that memory: a capacity-bounded,
//! thread-safe map shared by every [`crate::rewrite::Rewriter`] a peer
//! creates, caching
//!
//! * compiled DFAs — complements for safe games, determinized targets
//!   for possible games — per strategy, schema and target slot;
//! * fully solved [`Game`] values — the verdict and the allowed set the
//!   executor walks — per strategy and children word.
//!
//! # Keys
//!
//! Entries are keyed by **full structural keys**, not hashes of them:
//! `(strategy, schema fingerprint, target slot, children word, k, state
//! limit)`. Games are always built lazily (Sec. 7), so the build mode is
//! not part of the key. The [`Compiled::fingerprint`] component is itself
//! a deterministic structural hash of the schema, so one cache safely
//! serves several compiled schemas (a peer's own vocabulary and the
//! exchange schemas it ships documents under) without aliasing. The
//! fast [`axml_support::hash::FxHasher`] only routes keys to buckets;
//! equality always compares the complete key, so a hit can never hand
//! back an artifact built for different inputs — warm results are
//! bit-identical to cold ones by construction.
//!
//! # Eviction
//!
//! Bounded LRU with a monotone touch tick: every hit or insert stamps
//! the entry with the next tick, and inserting into a full cache evicts
//! the entry with the smallest tick. Ticks are totally ordered, so
//! eviction is deterministic given the same operation sequence.
//!
//! # Concurrency
//!
//! One [`axml_support::sync::Mutex`] guards the map; it is held only
//! for lookups and inserts, never while compiling a DFA or solving a
//! game. Two threads missing the same key may both build the artifact —
//! construction is deterministic, the first insert wins, and both
//! share the winner afterwards. This trades a little duplicated work
//! for never serializing solver work across enforcement threads.

use crate::game::{Game, Strategy};
use axml_automata::{Dfa, Symbol};
use axml_obs::{Counter, Gauge, Histogram, Registry, LATENCY_NS_BOUNDS};
use axml_support::hash::FxHashMap;
use axml_support::sync::Mutex;
use std::sync::Arc;

#[allow(unused_imports)] // doc links
use axml_schema::Compiled;

/// Default entry bound for caches created without an explicit capacity.
pub const DEFAULT_CAPACITY: usize = 512;

/// Which target regex of the schema a cached artifact derives from.
/// Together with the schema fingerprint this pins down the regex itself,
/// so keys never need to serialize the expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetSlot {
    /// The content model of an element symbol.
    Content(Symbol),
    /// `τ_in` of a function-like symbol.
    Input(Symbol),
    /// `τ_out` of a function-like symbol.
    Output(Symbol),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// The DFA a strategy's games are built with (see [`Strategy::dfa`]).
    Dfa {
        strategy: Strategy,
        schema: u64,
        slot: TargetSlot,
    },
    /// A solved game for one children word.
    Game {
        strategy: Strategy,
        schema: u64,
        slot: TargetSlot,
        word: Box<[Symbol]>,
        k: u32,
        max_states: usize,
    },
}

#[derive(Clone)]
enum Value {
    Dfa(Arc<Dfa>),
    Game(Arc<Game>),
}

struct Entry {
    value: Value,
    tick: u64,
}

#[derive(Default)]
struct Table {
    map: FxHashMap<Key, Entry>,
    tick: u64,
}

struct CacheState {
    table: Mutex<Table>,
    capacity: usize,
    lookups: Counter,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    entries: Gauge,
    compile_ns: Histogram,
    solve_ns: Histogram,
}

/// A shared, thread-safe, capacity-bounded solver cache. Cloning is
/// cheap (one `Arc`); clones address the same entries.
#[derive(Clone)]
pub struct SolveCache {
    state: Arc<CacheState>,
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("capacity", &self.state.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

impl SolveCache {
    /// A cache bounded to `capacity` entries, publishing `solve_cache.*`
    /// instruments into the process-wide [`axml_obs::global`] registry.
    /// A zero capacity is promoted to one entry.
    pub fn new(capacity: usize) -> Self {
        Self::with_registry(capacity, &axml_obs::global())
    }

    /// Like [`SolveCache::new`], but publishing into the given registry
    /// (tests; or a private registry to keep metrics out of `stats`).
    pub fn with_registry(capacity: usize, registry: &Registry) -> Self {
        let capacity = capacity.max(1);
        let entries = registry.gauge("solve_cache.entries");
        entries.set(0);
        SolveCache {
            state: Arc::new(CacheState {
                table: Mutex::new(Table::default()),
                capacity,
                lookups: registry.counter("solve_cache.lookups_total"),
                hits: registry.counter("solve_cache.hits_total"),
                misses: registry.counter("solve_cache.misses_total"),
                insertions: registry.counter("solve_cache.insertions_total"),
                evictions: registry.counter("solve_cache.evictions_total"),
                entries,
                compile_ns: registry.histogram("solve_cache.compile_ns", LATENCY_NS_BOUNDS),
                solve_ns: registry.histogram("solve_cache.solve_ns", LATENCY_NS_BOUNDS),
            }),
        }
    }

    /// Like [`SolveCache::new`], but instruments go to a throwaway
    /// registry — the default for rewriters that were not handed a
    /// shared cache, so their private churn never pollutes daemon stats.
    pub fn unpublished(capacity: usize) -> Self {
        Self::with_registry(capacity, &Registry::new())
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.state.capacity
    }

    /// Current number of cached entries (all kinds).
    pub fn len(&self) -> usize {
        self.state.table.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (capacity and counters are kept).
    pub fn clear(&self) {
        let mut table = self.state.table.lock();
        table.map.clear();
        self.state.entries.set(0);
    }

    fn lookup(&self, key: &Key) -> Option<Value> {
        let mut table = self.state.table.lock();
        table.tick += 1;
        let tick = table.tick;
        let found = table.map.get_mut(key).map(|e| {
            e.tick = tick;
            e.value.clone()
        });
        self.state.lookups.inc();
        match &found {
            Some(_) => self.state.hits.inc(),
            None => self.state.misses.inc(),
        }
        found
    }

    /// Inserts `value` unless the key was raced in meanwhile; returns
    /// the cached value either way, evicting the least-recently-touched
    /// entry when full.
    fn insert(&self, key: Key, value: Value) -> Value {
        let mut table = self.state.table.lock();
        table.tick += 1;
        let tick = table.tick;
        if let Some(existing) = table.map.get_mut(&key) {
            // Lost a build race: share the first-inserted artifact so
            // every thread agrees on one instance.
            existing.tick = tick;
            return existing.value.clone();
        }
        if table.map.len() >= self.state.capacity {
            // Deterministic LRU: ticks are unique, so the minimum is.
            if let Some(victim) = table
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                table.map.remove(&victim);
                self.state.evictions.inc();
            }
        }
        table.map.insert(key, Entry { value: value.clone(), tick });
        self.state.insertions.inc();
        self.state.entries.set(table.map.len() as i64);
        value
    }

    /// The DFA `strategy`'s games are built with for `slot` of the schema
    /// fingerprinted `schema`, building (outside the lock) and caching it
    /// on first use.
    pub fn dfa(
        &self,
        strategy: Strategy,
        schema: u64,
        slot: TargetSlot,
        build: impl FnOnce() -> Dfa,
    ) -> Arc<Dfa> {
        let key = Key::Dfa {
            strategy,
            schema,
            slot,
        };
        if let Some(Value::Dfa(d)) = self.lookup(&key) {
            return d;
        }
        let started = std::time::Instant::now();
        let built = Arc::new(build());
        self.state
            .compile_ns
            .observe(started.elapsed().as_nanos() as u64);
        match self.insert(key, Value::Dfa(built)) {
            Value::Dfa(d) => d,
            _ => unreachable!("DFA keys only ever hold DFA values"),
        }
    }

    /// The solved `strategy` game for `(schema, slot, word, k,
    /// max_states)`, solving and caching on first use. `build` errors
    /// (e.g. `A_w^k` growing past its limits) are returned uncached, so
    /// a later call with a higher limit is not poisoned.
    #[allow(clippy::too_many_arguments)]
    pub fn game<E>(
        &self,
        strategy: Strategy,
        schema: u64,
        slot: TargetSlot,
        word: &[Symbol],
        k: u32,
        max_states: usize,
        build: impl FnOnce() -> Result<Game, E>,
    ) -> Result<Arc<Game>, E> {
        let key = Key::Game {
            strategy,
            schema,
            slot,
            word: word.into(),
            k,
            max_states,
        };
        if let Some(Value::Game(g)) = self.lookup(&key) {
            return Ok(g);
        }
        let started = std::time::Instant::now();
        let solved = Arc::new(build()?);
        self.state
            .solve_ns
            .observe(started.elapsed().as_nanos() as u64);
        match self.insert(key, Value::Game(solved)) {
            Value::Game(g) => Ok(g),
            _ => unreachable!("game keys only ever hold games"),
        }
    }

    /// Every cached entry with its full structural key, ordered from
    /// least- to most-recently touched.
    ///
    /// This is the snapshot surface for `axml-store`: the order is the
    /// LRU order, so a consumer that replays entries through
    /// [`SolveCache::preload`] in sequence reconstructs both the
    /// contents *and* the relative eviction order of this cache.
    /// Values are shared (`Arc`), so exporting copies no solved game.
    pub fn export_entries(&self) -> Vec<CacheEntry> {
        let table = self.state.table.lock();
        let mut entries: Vec<(&Key, &Entry)> = table.map.iter().collect();
        entries.sort_by_key(|(_, e)| e.tick);
        entries
            .into_iter()
            .map(|(key, entry)| match (key.clone(), &entry.value) {
                (
                    Key::Dfa {
                        strategy,
                        schema,
                        slot,
                    },
                    Value::Dfa(dfa),
                ) => CacheEntry::Dfa {
                    strategy,
                    schema,
                    slot,
                    dfa: Arc::clone(dfa),
                },
                (
                    Key::Game {
                        strategy,
                        schema,
                        slot,
                        word,
                        k,
                        max_states,
                    },
                    Value::Game(game),
                ) => CacheEntry::Game {
                    strategy,
                    schema,
                    slot,
                    word,
                    k,
                    max_states,
                    game: Arc::clone(game),
                },
                _ => unreachable!("cache keys always hold their own value kind"),
            })
            .collect()
    }

    /// Seeds the cache with entries exported earlier (typically decoded
    /// from a snapshot). Returns how many were actually installed.
    ///
    /// Insertions follow the normal path — they count as
    /// `solve_cache.insertions_total`, respect the capacity bound
    /// (evicting LRU entries if the snapshot is larger than this
    /// cache), and lose gracefully to already-present keys. Lookup
    /// counters are untouched: preloading is not traffic, so hit-rate
    /// metrics still measure only real requests.
    pub fn preload(&self, entries: impl IntoIterator<Item = CacheEntry>) -> usize {
        let mut installed = 0;
        for entry in entries {
            let (key, value) = match entry {
                CacheEntry::Dfa {
                    strategy,
                    schema,
                    slot,
                    dfa,
                } => (
                    Key::Dfa {
                        strategy,
                        schema,
                        slot,
                    },
                    Value::Dfa(dfa),
                ),
                CacheEntry::Game {
                    strategy,
                    schema,
                    slot,
                    word,
                    k,
                    max_states,
                    game,
                } => (
                    Key::Game {
                        strategy,
                        schema,
                        slot,
                        word,
                        k,
                        max_states,
                    },
                    Value::Game(game),
                ),
            };
            self.insert(key, value);
            installed += 1;
        }
        installed
    }

    /// Point-in-time counter values, read directly off this cache's
    /// instruments (they may be shared with a registry snapshot).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.state.lookups.get(),
            hits: self.state.hits.get(),
            misses: self.state.misses.get(),
            insertions: self.state.insertions.get(),
            evictions: self.state.evictions.get(),
            entries: self.len(),
            capacity: self.state.capacity,
        }
    }
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::new(DEFAULT_CAPACITY)
    }
}

/// One exported cache entry: the full structural key (the same
/// components [`SolveCache::dfa`] and [`SolveCache::game`] key by) plus
/// the shared value. Produced by [`SolveCache::export_entries`], consumed
/// by [`SolveCache::preload`]; `axml-store` serializes these.
#[derive(Debug, Clone)]
pub enum CacheEntry {
    /// The DFA a strategy's games are built with.
    Dfa {
        /// Safe (the complement DFA) or possible (the target DFA).
        strategy: Strategy,
        /// [`Compiled::fingerprint`] of the owning schema.
        schema: u64,
        /// Which target regex of the schema the DFA derives from.
        slot: TargetSlot,
        /// The DFA.
        dfa: Arc<Dfa>,
    },
    /// A solved game for one children word.
    Game {
        /// Which notion the game decides.
        strategy: Strategy,
        /// [`Compiled::fingerprint`] of the owning schema.
        schema: u64,
        /// Which target regex the game plays against.
        slot: TargetSlot,
        /// The children word the game was built for.
        word: Box<[Symbol]>,
        /// Rewriting depth bound.
        k: u32,
        /// The `A_w^k` state limit in force when the game was built.
        max_states: usize,
        /// The solved game.
        game: Arc<Game>,
    },
}

/// Point-in-time accounting of a [`SolveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (`hits + misses` once the cache is quiescent).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries actually inserted (misses minus lost build races).
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
    /// Configured entry bound.
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_automata::{Nfa, Regex};

    fn tiny_dfa(seed: usize) -> Dfa {
        let mut ab = axml_automata::Alphabet::new();
        let pattern = format!("a{}", "*".repeat(seed % 2));
        let re = Regex::parse(&pattern, &mut ab).unwrap();
        Dfa::determinize(&Nfa::thompson(&re, ab.len()))
    }

    #[test]
    fn dfa_hits_share_one_arc() {
        let cache = SolveCache::unpublished(8);
        let a = cache.dfa(Strategy::Safe, 1, TargetSlot::Content(0), || tiny_dfa(0));
        let b = cache.dfa(Strategy::Safe, 1, TargetSlot::Content(0), || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn strategies_do_not_alias() {
        let cache = SolveCache::unpublished(8);
        let _ = cache.dfa(Strategy::Safe, 1, TargetSlot::Content(0), || tiny_dfa(0));
        // Same schema and slot, different strategy: must rebuild.
        let mut built = false;
        let _ = cache.dfa(Strategy::Possible, 1, TargetSlot::Content(0), || {
            built = true;
            tiny_dfa(0)
        });
        assert!(built);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn schemas_do_not_alias() {
        let cache = SolveCache::unpublished(8);
        let _ = cache.dfa(Strategy::Safe, 1, TargetSlot::Content(0), || tiny_dfa(0));
        let mut built = false;
        let _ = cache.dfa(Strategy::Safe, 2, TargetSlot::Content(0), || {
            built = true;
            tiny_dfa(1)
        });
        assert!(built, "different fingerprints must not share entries");
    }

    #[test]
    fn capacity_bound_holds_with_lru_eviction() {
        let cache = SolveCache::unpublished(2);
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(0), || tiny_dfa(0));
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(1), || tiny_dfa(1));
        // Touch slot 0 so slot 1 is the LRU victim.
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(0), || panic!("hit"));
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(2), || tiny_dfa(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Slot 0 survived, slot 1 was evicted.
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(0), || panic!("hit"));
        let mut rebuilt = false;
        let _ = cache.dfa(Strategy::Safe, 0, TargetSlot::Content(1), || {
            rebuilt = true;
            tiny_dfa(1)
        });
        assert!(rebuilt);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = SolveCache::unpublished(8);
        let fail: Result<Arc<Game>, &str> = cache.game(
            Strategy::Safe,
            0,
            TargetSlot::Content(0),
            &[],
            1,
            10,
            || Err("too large"),
        );
        assert!(fail.is_err());
        assert_eq!(cache.len(), 0);
    }
}
