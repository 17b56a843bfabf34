//! LRU caches for the expensive per-design work.
//!
//! Resolving a [`DesignKey`] is the costly half of a query: generate the
//! netlist, run full STA, build the violating-endpoint pool, extract the
//! Table-I features, and compute fan-in-cone overlap masks — all of it
//! deterministic given the key. [`EnvCache`] memoizes the resulting
//! [`CcdEnv`] (shared behind an `Arc`, so concurrent batches borrow it
//! without copying) under least-recently-used eviction; a repeat query on
//! a known design skips extraction entirely.
//!
//! [`SelectionCache`] goes one step further for queries that are pure
//! functions of their request — greedy ones of (model weights, design),
//! sampled ones of (model weights, design, seed): it memoizes the finished
//! selection keyed by the model *fingerprint* (checksum of the verified
//! checkpoint bytes) plus the design key (plus the seed), so reloading a
//! re-trained checkpoint can never serve a stale selection.
//!
//! [`EncodeCache`] sits between the two for every query that *is*
//! computed: the step-0 EP-GNN encode is a pure function of (model
//! weights, design), so it is kept under the same fingerprint + design key
//! and each computed query starts from a copy instead of re-running the
//! dense pass. Its entries are megabytes, not pointers, so it is bounded
//! in bytes rather than in entries.

use crate::protocol::DesignKey;
use rl_ccd::{CcdEnv, StoredEncode};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, Library, MIN_TARGET_CELLS};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A minimal least-recently-used map: every `get`/`insert` stamps the
/// entry with a monotonically increasing tick; inserting past capacity
/// evicts the smallest stamp.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(stamp, v)| {
            *stamp = tick;
            &*v
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full. Returns the value `key` held before, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.pop_oldest();
        }
        self.entries
            .insert(key, (self.tick, value))
            .map(|(_, old)| old)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        let oldest = self
            .entries
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, _)| k.clone())?;
        let (_, value) = self.entries.remove(&oldest)?;
        Some((oldest, value))
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Builds the environment `key` names: the generator's design under the
/// default flow recipe. Serving ([`EnvCache`]), the experience sink and
/// offline retraining all resolve a design through this function, so
/// each sees the identical [`CcdEnv`].
///
/// # Errors
/// A human-readable message when the key names an unknown technology
/// node or fewer than [`MIN_TARGET_CELLS`] cells (generation is
/// otherwise deterministic and infallible).
pub fn build_env(key: &DesignKey, fanout_cap: usize) -> Result<CcdEnv, String> {
    let tech = Library::parse_tech(&key.tech)
        .ok_or_else(|| format!("unknown technology node {:?}", key.tech))?;
    if key.cells < MIN_TARGET_CELLS {
        return Err(format!(
            "{} cells is below the generator's minimum of {MIN_TARGET_CELLS}",
            key.cells
        ));
    }
    let design = generate(&DesignSpec::new(
        key.name.clone(),
        key.cells,
        tech,
        key.seed,
    ));
    Ok(CcdEnv::new(design, FlowRecipe::default(), fanout_cap))
}

/// Thread-safe memoization of fully-built design environments.
#[derive(Debug)]
pub struct EnvCache {
    inner: Mutex<LruCache<DesignKey, Arc<CcdEnv>>>,
    fanout_cap: usize,
}

impl EnvCache {
    /// A cache of at most `capacity` environments; `fanout_cap` is passed
    /// through to [`CcdEnv::new`] (message-passing fanout cap).
    pub fn new(capacity: usize, fanout_cap: usize) -> Self {
        Self {
            inner: Mutex::new(LruCache::new(capacity)),
            fanout_cap,
        }
    }

    /// Returns the environment for `key`, building it on a miss.
    ///
    /// # Errors
    /// [`build_env`]'s message when the key names no buildable design.
    pub fn get_or_build(&self, key: &DesignKey) -> Result<Arc<CcdEnv>, String> {
        if let Some(env) = self.inner.lock().expect("env cache lock").get(key) {
            rl_ccd_obs::counter!("serve.cache.env.hit", 1);
            return Ok(env.clone());
        }
        rl_ccd_obs::counter!("serve.cache.env.miss", 1);
        let _span = rl_ccd_obs::span!("serve.env.build", cells = key.cells as u64);
        let env = Arc::new(build_env(key, self.fanout_cap)?);
        // Rebuilt concurrently by two threads on a cold miss? Both get
        // identical envs (generation is deterministic); last insert wins.
        self.inner
            .lock()
            .expect("env cache lock")
            .insert(key.clone(), env.clone());
        Ok(env)
    }

    /// Number of cached environments.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("env cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cache key for a memoized selection: model fingerprint + design.
type SelectionKey = (u64, DesignKey);
/// A memoized selection, shared with every reply that hits it.
type Selection = Arc<Vec<EndpointId>>;

/// Memoized selections: greedy ones keyed by (model fingerprint, design),
/// sampled ones by that plus the seed. Two LRUs of the same capacity, so
/// a stream of one-off seeds can never evict a greedy answer.
#[derive(Debug)]
pub struct SelectionCache {
    inner: Mutex<LruCache<SelectionKey, Selection>>,
    sampled: Mutex<LruCache<(SelectionKey, u64), Selection>>,
}

impl SelectionCache {
    /// A cache of at most `capacity` greedy and `capacity` sampled
    /// selections.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruCache::new(capacity)),
            sampled: Mutex::new(LruCache::new(capacity)),
        }
    }

    /// Looks up the memoized greedy selection for `fingerprint` × `key`.
    pub fn get(&self, fingerprint: u64, key: &DesignKey) -> Option<Arc<Vec<EndpointId>>> {
        let hit = self
            .inner
            .lock()
            .expect("selection cache lock")
            .get(&(fingerprint, key.clone()))
            .cloned();
        match &hit {
            Some(_) => rl_ccd_obs::counter!("serve.cache.selection.hit", 1),
            None => rl_ccd_obs::counter!("serve.cache.selection.miss", 1),
        }
        hit
    }

    /// Memoizes a freshly computed greedy selection.
    pub fn insert(&self, fingerprint: u64, key: &DesignKey, selection: Arc<Vec<EndpointId>>) {
        self.inner
            .lock()
            .expect("selection cache lock")
            .insert((fingerprint, key.clone()), selection);
    }

    /// Looks up the memoized selection sampled with `seed` for
    /// `fingerprint` × `key`.
    pub fn get_sampled(
        &self,
        fingerprint: u64,
        key: &DesignKey,
        seed: u64,
    ) -> Option<Arc<Vec<EndpointId>>> {
        let hit = self
            .sampled
            .lock()
            .expect("selection cache lock")
            .get(&((fingerprint, key.clone()), seed))
            .cloned();
        match &hit {
            Some(_) => rl_ccd_obs::counter!("serve.cache.sampled.hit", 1),
            None => rl_ccd_obs::counter!("serve.cache.sampled.miss", 1),
        }
        hit
    }

    /// Memoizes a freshly sampled selection under its seed.
    pub fn insert_sampled(
        &self,
        fingerprint: u64,
        key: &DesignKey,
        seed: u64,
        selection: Arc<Vec<EndpointId>>,
    ) {
        self.sampled
            .lock()
            .expect("selection cache lock")
            .insert(((fingerprint, key.clone()), seed), selection);
    }
}

/// Byte budget of [`EncodeCache`]. An entry is
/// `(3·V·hidden + E·embed)·4` bytes — ≈ 390 KB at 1 000 cells, 3.9 MB at
/// 10 000 with the default widths — so this holds the working set of a
/// few dozen mid-sized designs per model.
const ENCODE_BUDGET: usize = 64 << 20;

/// The step-0 EP-GNN encodes under every computed query, keyed by (model
/// fingerprint, design) exactly as [`SelectionCache`] is — a reloaded or
/// promoted model has a new fingerprint and can never read an old encode.
/// Least-recently-used entries are evicted until the stored bytes fit the
/// budget; an encode larger than the whole budget is handed back without
/// being stored.
#[derive(Debug)]
pub struct EncodeCache {
    inner: Mutex<EncodeLru>,
    budget: usize,
}

#[derive(Debug)]
struct EncodeLru {
    entries: LruCache<SelectionKey, Arc<StoredEncode>>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl Default for EncodeCache {
    /// An empty store with the fixed 64 MiB budget.
    fn default() -> Self {
        Self::with_budget(ENCODE_BUDGET)
    }
}

impl EncodeCache {
    pub(crate) fn with_budget(budget: usize) -> Self {
        let entries = LruCache::new(usize::MAX);
        Self {
            inner: Mutex::new(EncodeLru {
                entries,
                bytes: 0,
                hits: 0,
                misses: 0,
            }),
            budget,
        }
    }

    /// The stored encode for `fingerprint` × `key`, or — on a miss —
    /// `encode()`'s result, stored for the next caller. Two threads that
    /// miss one key at once both run `encode` (outside the lock; the
    /// results are identical) and the later insert replaces the earlier.
    pub fn get_or_encode(
        &self,
        fingerprint: u64,
        key: &DesignKey,
        encode: impl FnOnce() -> StoredEncode,
    ) -> Arc<StoredEncode> {
        let key = (fingerprint, key.clone());
        let mut inner = self.inner.lock().expect("encode cache lock");
        if let Some(hit) = inner.entries.get(&key).cloned() {
            inner.hits += 1;
            rl_ccd_obs::counter!("serve.cache.encode.hit", 1);
            return hit;
        }
        inner.misses += 1;
        drop(inner);
        rl_ccd_obs::counter!("serve.cache.encode.miss", 1);
        let fresh = Arc::new(encode());
        let size = fresh.bytes();
        if size > self.budget {
            return fresh;
        }
        let mut inner = self.inner.lock().expect("encode cache lock");
        if let Some(replaced) = inner.entries.insert(key, fresh.clone()) {
            inner.bytes -= replaced.bytes();
        }
        inner.bytes += size;
        while inner.bytes > self.budget {
            let (_, evicted) = inner.entries.pop_oldest().expect("bytes > 0 has an entry");
            inner.bytes -= evicted.bytes();
        }
        rl_ccd_obs::gauge!("serve.cache.encode.bytes", inner.bytes);
        fresh
    }

    /// Lifetime `(hits, misses)` and the bytes stored now.
    pub fn stats(&self) -> (u64, u64, usize) {
        let inner = self.inner.lock().expect("encode cache lock");
        (inner.hits, inner.misses, inner.bytes)
    }

    /// Number of stored encodes.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("encode cache lock").entries.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // refresh a; b is now oldest
        lru.insert("c", 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"b"), None, "b should have been evicted");
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn lru_reinsert_refreshes_without_eviction() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh, not a new entry
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"b"), Some(&2));
        assert_eq!(lru.get(&"a"), Some(&10));
    }

    #[test]
    fn env_cache_builds_once_and_evicts_at_capacity() {
        let cache = EnvCache::new(1, 24);
        let key_a = DesignKey {
            name: "cache-a".into(),
            cells: 360,
            tech: "7nm".into(),
            seed: 3,
        };
        let key_b = DesignKey {
            name: "cache-b".into(),
            cells: 360,
            tech: "7nm".into(),
            seed: 4,
        };
        let a1 = cache.get_or_build(&key_a).expect("build a");
        let a2 = cache.get_or_build(&key_a).expect("hit a");
        assert!(Arc::ptr_eq(&a1, &a2), "second lookup must be a cache hit");
        let _b = cache.get_or_build(&key_b).expect("build b evicting a");
        assert_eq!(cache.len(), 1);
        let a3 = cache.get_or_build(&key_a).expect("rebuild a");
        assert!(!Arc::ptr_eq(&a1, &a3), "a was evicted and rebuilt");
        assert_eq!(a1.pool(), a3.pool(), "rebuild is deterministic");
    }

    #[test]
    fn env_cache_rejects_unknown_tech() {
        let cache = EnvCache::new(1, 24);
        let key = DesignKey {
            name: "x".into(),
            cells: 100,
            tech: "3nm".into(),
            seed: 1,
        };
        assert!(cache.get_or_build(&key).is_err());
    }

    #[test]
    fn a_design_below_the_generator_minimum_is_an_error_not_a_panic() {
        for cells in [0, 5, 20, MIN_TARGET_CELLS - 1] {
            let key = DesignKey {
                name: "tiny".into(),
                cells,
                tech: "7nm".into(),
                seed: 1,
            };
            let err = build_env(&key, 24).expect_err("too small to generate");
            assert!(err.contains("minimum"), "{err}");
        }
        let smallest = DesignKey {
            name: "tiny".into(),
            cells: MIN_TARGET_CELLS,
            tech: "7nm".into(),
            seed: 1,
        };
        assert!(build_env(&smallest, 24).is_ok());
    }

    fn key(name: &str) -> DesignKey {
        DesignKey {
            name: name.into(),
            cells: 360,
            tech: "7nm".into(),
            seed: 3,
        }
    }

    #[test]
    fn encode_cache_is_bounded_in_bytes_and_evicts_least_recently_used() {
        let (model, params) = rl_ccd::RlCcd::init(rl_ccd::RlConfig::fast());
        let env = EnvCache::new(1, 24).get_or_build(&key("enc")).expect("env");
        let encode = rl_ccd::InferSession::new(&model, &params).encode(&env);
        let size = encode.bytes();
        // Room for two entries and a half.
        let cache = EncodeCache::with_budget(2 * size + size / 2);
        let fill = |name: &str| {
            cache.get_or_encode(0xabc, &key(name), || encode.clone());
            assert!(cache.stats().2 <= 2 * size + size / 2);
        };
        let stored = |fp: u64, name: &str| {
            let mut missed = false;
            cache.get_or_encode(fp, &key(name), || {
                missed = true;
                encode.clone()
            });
            !missed
        };
        fill("a");
        fill("b");
        assert_eq!((cache.len(), cache.stats().2), (2, 2 * size));
        assert!(stored(0xabc, "a"), "refresh a; b is now oldest");
        fill("c");
        assert_eq!((cache.len(), cache.stats().2), (2, 2 * size));
        assert!(stored(0xabc, "a") && stored(0xabc, "c"));
        assert!(!stored(0xdef, "a"), "other weights share nothing");
        // That miss stored (0xdef, a) and evicted the oldest again.
        assert_eq!((cache.len(), cache.stats().2), (2, 2 * size));
        assert!(!stored(0xabc, "b"), "b was the least recently used");
        let (hits, misses, _) = cache.stats();
        assert_eq!((hits, misses), (3, 5));

        // An entry larger than the whole budget is handed back unstored.
        let small = EncodeCache::with_budget(size - 1);
        let got = small.get_or_encode(0xabc, &key("a"), || encode.clone());
        assert_eq!(got.bytes(), size);
        assert_eq!((small.len(), small.stats()), (0, (0, 1, 0)));
    }

    #[test]
    fn two_threads_missing_one_key_both_answer_and_one_entry_remains() {
        let (model, params) = rl_ccd::RlCcd::init(rl_ccd::RlConfig::fast());
        let design = key("race");
        let env = EnvCache::new(1, 24).get_or_build(&design).expect("env");
        let want = rl_ccd::select_endpoints(&model, &params, &env);
        let cache = EncodeCache::default();
        // Both threads are inside `encode` — so both have missed — before
        // either returns to insert.
        let both_missed = std::sync::Barrier::new(2);
        let answer = || {
            let mut session = rl_ccd::InferSession::new(&model, &params);
            let encode = cache.get_or_encode(7, &design, || {
                both_missed.wait();
                session.encode(&env)
            });
            session.hold(encode);
            session.select(&env)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(answer);
            let b = s.spawn(answer);
            (a.join().expect("a"), b.join().expect("b"))
        });
        assert_eq!((&a, &b), (&want, &want));
        let (hits, misses, bytes) = cache.stats();
        assert_eq!((hits, misses, cache.len()), (0, 2, 1));
        let mut session = rl_ccd::InferSession::new(&model, &params);
        assert_eq!(
            bytes,
            session.encode(&env).bytes(),
            "the replaced entry's bytes were returned"
        );
    }

    #[test]
    fn selection_cache_keys_on_fingerprint() {
        let cache = SelectionCache::new(4);
        let key = DesignKey {
            name: "s".into(),
            cells: 100,
            tech: "7nm".into(),
            seed: 1,
        };
        let sel = Arc::new(vec![EndpointId::new(0), EndpointId::new(2)]);
        cache.insert(0xabc, &key, sel.clone());
        assert_eq!(cache.get(0xabc, &key), Some(sel));
        assert_eq!(
            cache.get(0xdef, &key),
            None,
            "different weights must not share selections"
        );
    }

    #[test]
    fn sampled_selections_key_on_the_seed_and_never_evict_greedy_ones() {
        let cache = SelectionCache::new(2);
        let key = DesignKey {
            name: "s".into(),
            cells: 100,
            tech: "7nm".into(),
            seed: 1,
        };
        let greedy = Arc::new(vec![EndpointId::new(0)]);
        cache.insert(0xabc, &key, greedy.clone());
        for seed in 0..8u64 {
            let sel = Arc::new(vec![EndpointId::new(seed as usize)]);
            cache.insert_sampled(0xabc, &key, seed, sel);
        }
        assert_eq!(cache.get_sampled(0xabc, &key, 7).unwrap()[0].index(), 7);
        assert_eq!(cache.get_sampled(0xabc, &key, 0), None, "LRU of 2");
        assert_eq!(cache.get_sampled(0xdef, &key, 7), None);
        assert_eq!(cache.get(0xabc, &key), Some(greedy));
    }
}
