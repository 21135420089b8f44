//! Request-level LRU result cache.
//!
//! The [`ResultBroker`](crate::broker::ResultBroker) keys entries on
//! the serialized wire form of a request —
//! `(request-kind, params, seed)` — so two textually identical requests
//! share one result. Only deterministic requests are cached (every
//! request kind carries an explicit seed except `Chat { seed: None }`
//! and the stateful session requests, which bypass the cache entirely;
//! see [`cache_key`](crate::engine::cache_key)).
//!
//! The implementation is an intrusive hash-linked list: a `HashMap`
//! from key to slab index plus a doubly-linked recency list threaded
//! through the slab nodes, so `get` and `insert` are O(1) — the
//! earlier `VecDeque` recency scan was O(n) per touch, fine at a few
//! hundred entries but not at the capacities a long-running server
//! wants. Capacity 0 disables caching.
//!
//! A key is the whole serialized request — half a megabyte for a 4×
//! `Legalize` — so the index and the node share one `Arc<str>` of it
//! (and with them the broker's in-flight map and the task itself)
//! instead of holding a copy each.

use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "no neighbour" in the intrusive list.
const NIL: usize = usize::MAX;

/// One slab node: the entry plus its recency-list links.
#[derive(Debug)]
struct Node<V> {
    /// The same allocation as this node's key in the index.
    key: Arc<str>,
    value: V,
    /// Towards the LRU end (older).
    prev: usize,
    /// Towards the MRU end (newer).
    next: usize,
}

/// A least-recently-used map from serialized requests to values with
/// O(1) lookup, insertion and eviction.
#[derive(Debug)]
pub(crate) struct LruCache<V> {
    capacity: usize,
    /// Key → slab index.
    index: HashMap<Arc<str>, usize>,
    /// Slab of nodes; freed slots are recycled through `free`.
    nodes: Vec<Node<V>>,
    free: Vec<usize>,
    /// Oldest entry (evicted first); `NIL` when empty.
    head: usize,
    /// Newest entry; `NIL` when empty.
    tail: usize,
}

impl<V: Clone> LruCache<V> {
    /// Creates a cache holding up to `capacity` entries (0 = disabled).
    pub(crate) fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity,
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub(crate) fn get(&mut self, key: &str) -> Option<V> {
        let slot = *self.index.get(key)?;
        self.unlink(slot);
        self.push_tail(slot);
        Some(self.nodes[slot].value.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry when over capacity.
    pub(crate) fn insert(&mut self, key: Arc<str>, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&*key) {
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_tail(slot);
            return;
        }
        // Evict before inserting so the slab never grows past
        // capacity (the freed slot is immediately recycled).
        while self.index.len() >= self.capacity {
            let oldest = self.head;
            debug_assert_ne!(oldest, NIL, "non-empty cache has a head");
            self.unlink(oldest);
            self.index.remove(&*self.nodes[oldest].key);
            self.free.push(oldest);
        }
        let node = Node {
            key: Arc::clone(&key),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_tail(slot);
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    /// Appends `slot` at the MRU end.
    fn push_tail(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.nodes[self.tail].next = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(1)); // refresh "a"; "b" is now LRU
        cache.insert("c".into(), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None, "LRU entry evicted");
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("c"), Some(3));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("a".into(), 10); // refresh: "b" becomes LRU
        cache.insert("c".into(), 3);
        assert_eq!(cache.get("a"), Some(10));
        assert_eq!(cache.get("b"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert("a".into(), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get("a"), None);
    }

    #[test]
    fn single_entry_cache_churns_correctly() {
        let mut cache = LruCache::new(1);
        for i in 0..100 {
            cache.insert(format!("k{i}").into(), i);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&format!("k{i}")), Some(i));
            if i > 0 {
                assert_eq!(cache.get(&format!("k{}", i - 1)), None);
            }
        }
    }

    #[test]
    fn a_key_is_stored_once_and_eviction_drops_it() {
        let mut cache = LruCache::new(1);
        let key: Arc<str> = "a rather long serialized request".into();
        let watch = Arc::downgrade(&key);
        cache.insert(key, 1);
        // Index and node hold the caller's allocation, not copies.
        let (index_key, &slot) = cache
            .index
            .get_key_value("a rather long serialized request")
            .expect("indexed");
        assert!(Arc::ptr_eq(index_key, &cache.nodes[slot].key));
        assert!(std::ptr::eq(watch.as_ptr(), Arc::as_ptr(index_key)));
        assert_eq!(watch.strong_count(), 2, "index + node, nothing else");
        // A refresh keeps the stored key; the offered duplicate goes.
        cache.insert("a rather long serialized request".into(), 2);
        assert_eq!(watch.strong_count(), 2);
        assert_eq!(cache.get("a rather long serialized request"), Some(2));
        // Eviction releases both references: the key is freed.
        cache.insert("b".into(), 3);
        assert_eq!(watch.strong_count(), 0, "evicted key still allocated");
        assert!(watch.upgrade().is_none());
    }

    /// A naive reference model: same behavior, O(n) implementation.
    struct ModelLru {
        capacity: usize,
        entries: Vec<(String, i64)>, // oldest-first
    }

    impl ModelLru {
        fn get(&mut self, key: &str) -> Option<i64> {
            let pos = self.entries.iter().position(|(k, _)| k == key)?;
            let entry = self.entries.remove(pos);
            let value = entry.1;
            self.entries.push(entry);
            Some(value)
        }

        fn insert(&mut self, key: &str, value: i64) {
            if self.capacity == 0 {
                return;
            }
            if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
                self.entries.remove(pos);
            }
            self.entries.push((key.to_owned(), value));
            while self.entries.len() > self.capacity {
                self.entries.remove(0);
            }
        }
    }

    /// The large-capacity behavior test: thousands of mixed get/insert
    /// operations against the naive model, at a capacity where the old
    /// O(n) scan would have been painful and any linking bug shows up
    /// as a divergence.
    #[test]
    fn large_capacity_matches_naive_model() {
        const CAPACITY: usize = 1024;
        const OPS: u64 = 20_000;
        let mut cache = LruCache::new(CAPACITY);
        let mut model = ModelLru {
            capacity: CAPACITY,
            entries: Vec::new(),
        };
        // Deterministic mixed workload over a key space ~2× capacity,
        // with a skewed hot set so both hits and misses occur.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for op in 0..OPS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = format!("k{}", (state >> 33) % (2 * CAPACITY as u64));
            if op % 3 == 0 {
                let value = (op % 1009) as i64;
                cache.insert(key.as_str().into(), value);
                model.insert(&key, value);
            } else {
                assert_eq!(
                    cache.get(&key),
                    model.get(&key),
                    "divergence at op {op} on {key}"
                );
            }
            assert_eq!(cache.len(), model.entries.len());
            assert!(cache.len() <= CAPACITY, "capacity exceeded");
        }
        // Final state: every model entry is retrievable in the cache
        // and recency order agrees (walk by evicting).
        for (key, value) in &model.entries {
            assert!(cache.index.contains_key(key.as_str()), "missing {key}");
            assert_eq!(cache.nodes[cache.index[key.as_str()]].value, *value);
        }
        // The slab never grew past capacity: recycled slots bound it.
        assert!(cache.nodes.len() <= CAPACITY);
    }
}
