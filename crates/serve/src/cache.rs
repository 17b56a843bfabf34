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

use crate::protocol::DesignKey;
use rl_ccd::CcdEnv;
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, Library};
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
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (self.tick, value));
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
    /// A human-readable message when the key names an unknown technology
    /// node (the only non-deterministic-success part of generation).
    pub fn get_or_build(&self, key: &DesignKey) -> Result<Arc<CcdEnv>, String> {
        if let Some(env) = self.inner.lock().expect("env cache lock").get(key) {
            rl_ccd_obs::counter!("serve.cache.env.hit", 1);
            return Ok(env.clone());
        }
        rl_ccd_obs::counter!("serve.cache.env.miss", 1);
        let tech = Library::parse_tech(&key.tech)
            .ok_or_else(|| format!("unknown technology node {:?}", key.tech))?;
        let _span = rl_ccd_obs::span!("serve.env.build", cells = key.cells as u64);
        let design = generate(&DesignSpec::new(
            key.name.clone(),
            key.cells,
            tech,
            key.seed,
        ));
        let env = Arc::new(CcdEnv::new(design, FlowRecipe::default(), self.fanout_cap));
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
