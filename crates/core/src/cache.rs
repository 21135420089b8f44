//! Request keys and the maps that hold them.
//!
//! The [`ResultBroker`](crate::broker::ResultBroker) keys its entries
//! on the serialized wire form of a request —
//! `(request-kind, params, seed)` — so two textually identical requests
//! share one result. Only deterministic requests are keyed (every
//! request kind carries an explicit seed except `Chat { seed: None }`
//! and the stateful session requests, which bypass the broker entirely;
//! see [`request_key`](crate::routing::request_key)).
//!
//! A key is the whole serialized request — half a megabyte for a 4×
//! `Legalize` — so a [`Key`] holds it behind one `Arc<str>` that the
//! broker's map, its recency order and the task share, with its keyed
//! hash, taken once before the broker locks. Maps of keys pass that
//! hash through ([`KeyHasher`]) and compare the text where two hashes
//! match.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A request key: its text, hashed once.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    hash: u64,
    text: Arc<str>,
}

impl Key {
    /// Hashes `text` with `hasher`, a per-process keyed hash, so an
    /// outsider cannot pick texts that collide.
    pub(crate) fn new(hasher: &RandomState, text: String) -> Key {
        Key {
            hash: hasher.hash_one(text.as_str()),
            text: text.into(),
        }
    }

    /// A key whose hash is `hash`, whatever its text.
    #[cfg(test)]
    pub(crate) fn with_hash(hash: u64, text: &str) -> Key {
        Key {
            hash,
            text: text.into(),
        }
    }

    /// The text's one allocation, shared by every clone of this key.
    #[cfg(test)]
    pub(crate) fn text(&self) -> &Arc<str> {
        &self.text
    }
}

/// Equal hashes are not enough: the text decides.
impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of every map of [`Key`]s: it passes the hash the key
/// carries through and refuses to hash anything else.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        panic!("a map of keys hashes a Key's hash, never text");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from [`Key`]s that hashes none of their text.
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texts_that_share_a_hash_are_different_keys() {
        let mut map = KeyMap::default();
        map.insert(Key::with_hash(7, "a"), 1);
        assert_eq!(
            map.get(&Key::with_hash(7, "b")),
            None,
            "a hit on another text"
        );
        map.insert(Key::with_hash(7, "b"), 2);
        assert_eq!(map.len(), 2, "the second text replaced the first");
        assert_eq!(map.get(&Key::with_hash(7, "a")), Some(&1));
        assert_eq!(map.get(&Key::with_hash(7, "b")), Some(&2));
    }

    #[test]
    #[should_panic(expected = "never text")]
    fn the_key_hasher_refuses_text() {
        "a request key".hash(&mut KeyHasher::default());
    }
}
