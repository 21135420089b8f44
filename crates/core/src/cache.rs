//! Request keys and the maps that hold them.
//!
//! The [`ResultBroker`](crate::broker::ResultBroker) keys its entries
//! on the decoded request itself — `(request-kind, params, seed)` — so
//! two equal requests share one result, whichever spelling each came
//! in (a topology sent `packed` is the same value as its `bits` twin).
//! Only deterministic requests are keyed (every request kind carries an
//! explicit seed except `Chat { seed: None }` and the stateful session
//! requests, which bypass the broker entirely; see
//! [`is_keyed`](crate::routing::is_keyed)).
//!
//! A keyed request is the whole topology — half a megabyte of cells for
//! a 4× `Legalize` — so a [`Key`] holds it behind one
//! `Arc<PatternRequest>` that the broker's map, its recency order and
//! the task share, with its keyed hash, taken once over the request's
//! fields before the broker locks. Nothing writes the request out as
//! text to key it. Maps of keys pass that hash through ([`KeyHasher`])
//! and compare the requests where two hashes match.

use crate::PatternRequest;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A request key: a keyed request, hashed once.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    hash: u64,
    request: Arc<PatternRequest>,
}

impl Key {
    /// Hashes `request`, a keyed one, with `hasher`, a per-process keyed
    /// hash, so an outsider cannot pick requests that collide.
    pub(crate) fn new(hasher: &RandomState, request: PatternRequest) -> Key {
        let mut state = hasher.build_hasher();
        hash_fields(&request, &mut state);
        Key {
            hash: state.finish(),
            request: Arc::new(request),
        }
    }

    /// A key whose hash is `hash`, whatever its request.
    #[cfg(test)]
    pub(crate) fn with_hash(hash: u64, request: PatternRequest) -> Key {
        Key {
            hash,
            request: Arc::new(request),
        }
    }

    /// The request, shared by every clone of this key.
    pub(crate) fn request(&self) -> &Arc<PatternRequest> {
        &self.request
    }
}

/// Feeds a keyed request's variant and fields to `state`.
fn hash_fields(request: &PatternRequest, state: &mut impl Hasher) {
    std::mem::discriminant(request).hash(state);
    match request {
        PatternRequest::Chat(params) => params.hash(state),
        PatternRequest::Generate(params) => params.hash(state),
        PatternRequest::Extend(params) => params.hash(state),
        PatternRequest::Modify(params) => params.hash(state),
        PatternRequest::Legalize(params) => params.hash(state),
        PatternRequest::Evaluate(params) => params.hash(state),
        PatternRequest::SessionOpen(_)
        | PatternRequest::SessionTurn(_)
        | PatternRequest::SessionClose(_)
        | PatternRequest::SessionSnapshot(_)
        | PatternRequest::SessionRestore(_)
        | PatternRequest::Stats => unreachable!("only a keyed request has a key"),
    }
}

/// Equal hashes are not enough: the request decides.
impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.request, &other.request) || self.request == other.request)
    }
}

/// A keyed request holds no float, so its `==` is an equivalence.
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

/// A map from [`Key`]s that hashes none of their requests.
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenerateParams;
    use cp_dataset::Style;

    fn generate(seed: u64) -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 4,
            cols: 4,
            count: 1,
            seed,
        })
    }

    #[test]
    fn texts_that_share_a_hash_are_different_keys() {
        let mut map = KeyMap::default();
        map.insert(Key::with_hash(7, generate(1)), 1);
        assert_eq!(
            map.get(&Key::with_hash(7, generate(2))),
            None,
            "a hit on another request"
        );
        map.insert(Key::with_hash(7, generate(2)), 2);
        assert_eq!(map.len(), 2, "the second request replaced the first");
        assert_eq!(map.get(&Key::with_hash(7, generate(1))), Some(&1));
        assert_eq!(map.get(&Key::with_hash(7, generate(2))), Some(&2));
    }

    #[test]
    fn equal_requests_are_one_key_and_their_fields_decide_the_hash() {
        let hasher = RandomState::new();
        let key = |request| Key::new(&hasher, request);
        assert_eq!(key(generate(1)), key(generate(1)));
        assert_eq!(key(generate(1)).hash, key(generate(1)).hash);
        assert_ne!(key(generate(1)), key(generate(2)));
        // One field apart, or one variant apart with the same fields.
        let chat = |seed| {
            PatternRequest::Chat(crate::ChatParams {
                request: "a".into(),
                seed: Some(seed),
            })
        };
        assert_ne!(key(chat(1)).hash, key(chat(2)).hash);
        assert_ne!(key(generate(1)).hash, key(chat(1)).hash);
    }

    #[test]
    #[should_panic(expected = "never text")]
    fn the_key_hasher_refuses_text() {
        "a request key".hash(&mut KeyHasher::default());
    }
}
