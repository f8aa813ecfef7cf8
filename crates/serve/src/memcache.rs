//! Entry-capped LRU for the server's in-memory tier.
//!
//! The server keys it by canonical run-key text and stores each cell's
//! encoded [`sim::codec`] payload, `Arc`-shared, so a hit is probed with
//! the request's raw key text and served as a copy of those bytes. A
//! recency tick is bumped on every hit and insert, and eviction
//! removes the minimum-tick entry. The eviction scan is O(n), which is
//! the right trade at the server's scale (thousands of entries, each
//! guarding a multi-second simulation) — no intrusive list, no unsafe.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// An entry-capped least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Build a cache holding at most `capacity` entries (0 disables it:
    /// every get misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look `key` up (by any borrowed form of `K`, e.g. `&str` for
    /// `String` keys), refreshing its recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(t, v)| {
            *t = tick;
            v.clone()
        })
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(1)); // a is now newer than b
        lru.insert("c", 3); // evicts b
        assert_eq!(lru.get(&"a"), Some(1));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"c"), Some(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh, not a third entry
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), Some(10));
        assert_eq!(lru.get(&"b"), Some(2));
    }

    #[test]
    fn owned_keys_are_probed_by_borrowed_text() {
        let mut lru: LruCache<String, u32> = LruCache::new(2);
        lru.insert("workload:a".to_string(), 1);
        assert_eq!(lru.get("workload:a"), Some(1));
        assert_eq!(lru.get("workload:a "), None, "byte-equal text only");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut lru = LruCache::new(0);
        lru.insert("a", 1);
        assert_eq!(lru.get(&"a"), None);
        assert!(lru.is_empty());
    }
}
