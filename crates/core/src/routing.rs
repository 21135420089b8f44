//! Request routing — the single source of truth for "which worker
//! does this request belong to".
//!
//! Two consumers are left, and neither is the engine (a
//! [`PatternEngine`](crate::PatternEngine) is one queue; it hashes
//! nothing):
//!
//! * the multi-process `chatpattern-router` binary, which shards client
//!   requests across a fleet of `chatpattern-serve` workers: keyed
//!   requests go by [`request_key`] hash (a repeated request finds the
//!   worker whose cache holds its result), session requests go by
//!   session-id hash (every turn of one session lands on the worker
//!   that holds it), and everything else is free to spread round-robin
//!   ([`request_route`] returns `None`);
//! * [`JsonDirPersist`](crate::JsonDirPersist), which fans a session
//!   directory out over `--persist-shards` subdirectories by
//!   [`route_hash`] of the session id.
//!
//! [`route_hash`] is a hand-rolled **FNV-1a 64** — deliberately *not*
//! [`std::collections::hash_map::DefaultHasher`], whose algorithm is
//! explicitly unspecified and may change between Rust releases. Worker
//! and directory assignment must stay stable across builds so that a
//! router restarted on a newer build, or a session directory written
//! by an older one, never disagrees; the unit test below pins exact
//! hash values to make any algorithm drift a loud test failure.

use crate::PatternRequest;

/// Stable routing hash (FNV-1a, 64-bit) for a request key or session
/// id. Identical inputs always map to the same value, on every
/// platform and every compiler release.
#[must_use]
pub fn route_hash(input: &str) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for byte in input.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Cache/coalescing key of a request: its serialized wire form, or
/// `None` when the request must execute privately every time:
///
/// * `Chat` without an explicit seed resolves to the system's master
///   seed at execution time, so its outcome is not a pure function of
///   the request value;
/// * session requests (`SessionOpen` / `SessionTurn` / `SessionClose`
///   / `SessionSnapshot` / `SessionRestore`) *mutate* session state —
///   two textually identical turns are different operations (the
///   second operates on the first's results), so replaying a cached
///   payload or attaching to an in-flight twin would silently drop a
///   turn;
/// * `Stats` reads live counters — caching a snapshot would serve
///   stale numbers forever.
///
/// Such requests bypass both the cache and the coalescer.
#[must_use]
pub fn request_key(request: &PatternRequest) -> Option<String> {
    match request {
        PatternRequest::Chat(params) if params.seed.is_none() => None,
        PatternRequest::SessionOpen(_)
        | PatternRequest::SessionTurn(_)
        | PatternRequest::SessionClose(_)
        | PatternRequest::SessionSnapshot(_)
        | PatternRequest::SessionRestore(_)
        | PatternRequest::Stats => None,
        _ => serde_json::to_string(request).ok(),
    }
}

/// The preferred route of a request, or `None` when any worker serves
/// it equally well (the caller should spread such requests
/// round-robin): key hash first (cache affinity), then session-id hash
/// (session affinity), then nothing.
#[must_use]
pub fn request_route(request: &PatternRequest) -> Option<u64> {
    if let Some(key) = request_key(request) {
        return Some(route_hash(&key));
    }
    request.session_id().map(route_hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChatParams, SessionTurnParams};

    /// The load-bearing test: these values are the published contract
    /// between the router and any persisted routing state. If this test fails, the hash algorithm changed — do NOT
    /// update the constants; fix the hash.
    #[test]
    fn route_hash_is_pinned_fnv1a() {
        assert_eq!(route_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(route_hash("session-7"), 0x1688_535d_cf49_0e1b);
        assert_eq!(route_hash("det"), 0xca9a_2c18_f462_0362);
        assert_eq!(route_hash("chatpattern"), 0x6605_c78e_e5c8_7533);
    }

    /// The key is the request's wire text, and both the result cache
    /// and the fleet's shard placement hang off it: the exact bytes —
    /// sorted keys, no whitespace, cells as bare digits — are pinned
    /// here together with the hash they route by.
    #[test]
    fn request_key_of_a_fixed_request_is_pinned() {
        let generate = PatternRequest::Generate(crate::GenerateParams {
            style: cp_dataset::Style::Layer10001,
            rows: 8,
            cols: 8,
            count: 1,
            seed: 7,
        });
        let key = request_key(&generate).expect("keyed");
        assert_eq!(
            key,
            r#"{"Generate":{"cols":8,"count":1,"rows":8,"seed":7,"style":"Layer10001"}}"#
        );
        assert_eq!(route_hash(&key), 0xc832_c584_f3ec_767c);

        let legalize = PatternRequest::Legalize(crate::LegalizeParams {
            topology: cp_squish::Topology::from_fn(2, 3, |r, c| (r + c) % 2 == 0),
            width_nm: 256,
            height_nm: -512,
            seed: u64::MAX,
        });
        let key = request_key(&legalize).expect("keyed");
        assert_eq!(
            key,
            r#"{"Legalize":{"height_nm":-512,"seed":18446744073709551615,"topology":{"bits":[1,0,1,0,1,0],"cols":3,"rows":2},"width_nm":256}}"#
        );
        assert_eq!(request_route(&legalize), Some(0x1c5a_6a60_2155_533a));
    }

    #[test]
    fn route_hash_is_deterministic_and_spreads() {
        assert_eq!(route_hash("s"), route_hash("s"));
        assert_ne!(route_hash("s"), route_hash("t"));
        // A quick sanity check that low bits vary (the worker index is
        // `hash % workers`).
        let buckets: std::collections::HashSet<u64> = (0..32)
            .map(|i| route_hash(&format!("key-{i}")) % 4)
            .collect();
        assert!(buckets.len() > 1, "all keys landed on one worker");
    }

    #[test]
    fn request_route_prefers_key_then_session() {
        let keyed = PatternRequest::Chat(ChatParams {
            request: "two patterns".into(),
            seed: Some(1),
        });
        let key = request_key(&keyed).expect("seeded chat has a key");
        assert_eq!(request_route(&keyed), Some(route_hash(&key)));

        let session = PatternRequest::SessionTurn(SessionTurnParams {
            session: "det".into(),
            utterance: "denser".into(),
        });
        assert_eq!(request_key(&session), None);
        assert_eq!(request_route(&session), Some(route_hash("det")));

        let unkeyed = PatternRequest::Chat(ChatParams {
            request: "two patterns".into(),
            seed: None,
        });
        assert_eq!(request_route(&unkeyed), None);
        assert_eq!(request_route(&PatternRequest::Stats), None);
    }
}
