//! The workspace's one LRU map, shared by the sweep engines' instance caches
//! and by `serve`'s response cache.
//!
//! A monotone tick, touch on use, evict the smallest tick while over
//! capacity. Eviction scans the map, which is cheap at the sizes it bounds
//! (an engine's ~1k instances, one shard of the response cache). It bounds
//! the per-configuration caches, which a long-running server grows without
//! limit otherwise. The engines' family maps are not bounded (see
//! [`Engine`](crate::Engine)).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// LRU map holding cheaply-clonable values (`Arc`s in practice). Not
/// synchronized: callers keep it behind their own lock.
pub struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Insert `value` under `key` unless a concurrent computation got there
    /// first (first insert wins — results are identical), then evict down to
    /// capacity. Returns the entry now cached under `key` and how many
    /// entries were evicted.
    pub fn insert(&mut self, key: K, value: V) -> (V, usize) {
        self.tick += 1;
        let tick = self.tick;
        let kept = self
            .map
            .entry(key)
            .or_insert(Entry {
                value,
                last_used: tick,
            })
            .value
            .clone();
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
            evicted += 1;
        }
        (kept, evicted)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_refreshes_recency_so_the_other_key_is_evicted() {
        let mut lru = Lru::new(2);
        lru.insert("a".to_string(), 1);
        lru.insert("b".to_string(), 2);
        assert_eq!(lru.get("a"), Some(1));
        lru.insert("c".to_string(), 3);
        assert_eq!(lru.get("b"), None, "b was least recently used");
        assert_eq!(lru.get("a"), Some(1));
        assert_eq!(lru.get("c"), Some(3));
    }

    #[test]
    fn first_insert_wins() {
        let mut lru = Lru::new(4);
        assert_eq!(lru.insert(7u128, "first"), ("first", 0));
        assert_eq!(lru.insert(7u128, "second"), ("first", 0));
        assert_eq!(lru.get(&7), Some("first"));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn insert_reports_its_eviction_count() {
        let mut lru = Lru::new(3);
        for key in 0..3u32 {
            assert_eq!(lru.insert(key, key).1, 0);
        }
        assert_eq!(lru.insert(3, 3).1, 1);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&0), None, "oldest key evicted");
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1u8, 'a');
        assert_eq!(lru.insert(2u8, 'b'), ('b', 1));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&2), Some('b'));
    }
}
