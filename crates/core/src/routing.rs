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
//!   ([`request_route`] returns `None`). The router forwards a
//!   request's text without decoding it, so what it calls is
//!   [`text_route`], which reads off the text the little that placement
//!   depends on and agrees with [`request_route`] on every request as
//!   this build writes it;
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
use serde::{Deserialize, Deserializer};

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

/// Where a request belongs, read off its wire text by [`text_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextRoute {
    /// A session request: it goes where its session lives, or is to
    /// live ([`route_hash`] of the id, until a move says otherwise).
    Session {
        /// The session's id.
        id: String,
        /// What the request does to the session's existence.
        role: SessionRole,
    },
    /// A cacheable request, with the [`route_hash`] of its text: a
    /// repeat of the same bytes finds the worker whose cache has them.
    Keyed(u64),
    /// `Stats`, which a fleet answers as a whole.
    Stats,
    /// Any worker serves it equally well: a `Chat` without a seed — or
    /// a text that is no request, which any worker refuses equally well.
    Free,
}

/// What a session request does to the session's existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRole {
    /// `SessionOpen` / `SessionRestore`: the session is live afterwards.
    Creates,
    /// `SessionTurn` / `SessionSnapshot`: it has to be live already.
    Uses,
    /// `SessionClose`: it is gone afterwards.
    Closes,
}

/// As much of a [`PatternRequest`]'s text as its route depends on: the
/// variant tag, a session request's id and whether a `Chat` has a seed.
/// The derive takes tags and keys exactly as it does for the request
/// itself (any order, a repeated key's last value, one tag an object)
/// and skips every other key with the reader's validating scan.
#[derive(Deserialize)]
enum RequestHead {
    Chat(ChatHead),
    SessionOpen(SessionHead),
    SessionTurn(SessionHead),
    SessionClose(SessionHead),
    SessionSnapshot(SessionHead),
    SessionRestore(RestoreHead),
    Generate(Unread),
    Extend(Unread),
    Modify(Unread),
    Legalize(Unread),
    Evaluate(Unread),
    Stats,
}

#[derive(Deserialize)]
struct ChatHead {
    seed: Option<u64>,
}

#[derive(Deserialize)]
struct SessionHead {
    session: String,
}

#[derive(Deserialize)]
struct RestoreHead {
    snapshot: SessionHead,
}

/// Parameters the route does not depend on: scanned, not read.
struct Unread;

impl Deserialize for Unread {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Unread, serde::Error> {
        d.skip().map(|()| Unread)
    }
}

/// [`request_route`] for a request still in its wire text (the value of
/// an envelope's `request`), without decoding it. A keyed request goes
/// by the hash of the text **as sent**: for text as this build writes
/// it — compact, keys sorted, cells as `bits` — that is the
/// [`request_key`] hash, so it lands where [`request_route`] puts it;
/// another spelling of the same request (reordered keys, inner
/// whitespace, a `packed` topology) is another text and may land on
/// another worker, whose cache still knows it for the same request.
///
/// A text that cannot be read this far is one no worker can decode
/// either; it is [`TextRoute::Free`], and whichever worker gets it
/// answers with the `InvalidRequest` that says why.
#[must_use]
pub fn text_route(request: &str) -> TextRoute {
    let session = |head: SessionHead, role| TextRoute::Session {
        id: head.session,
        role,
    };
    match serde_json::from_str::<RequestHead>(request) {
        Ok(RequestHead::SessionOpen(head)) => session(head, SessionRole::Creates),
        Ok(RequestHead::SessionRestore(head)) => session(head.snapshot, SessionRole::Creates),
        Ok(RequestHead::SessionTurn(head) | RequestHead::SessionSnapshot(head)) => {
            session(head, SessionRole::Uses)
        }
        Ok(RequestHead::SessionClose(head)) => session(head, SessionRole::Closes),
        Ok(RequestHead::Stats) => TextRoute::Stats,
        Ok(RequestHead::Chat(ChatHead { seed: None })) | Err(_) => TextRoute::Free,
        Ok(_) => TextRoute::Keyed(route_hash(request)),
    }
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

    /// Which route the text reader must find for a request, taken from
    /// the typed side: `request_route` / `session_id`, and the variant
    /// for what those do not say.
    fn typed_route(request: &PatternRequest) -> TextRoute {
        let role = match request {
            PatternRequest::SessionOpen(_) | PatternRequest::SessionRestore(_) => {
                SessionRole::Creates
            }
            PatternRequest::SessionTurn(_) | PatternRequest::SessionSnapshot(_) => {
                SessionRole::Uses
            }
            PatternRequest::SessionClose(_) => SessionRole::Closes,
            PatternRequest::Stats => return TextRoute::Stats,
            // Listed, so that a thirteenth variant has to be placed.
            PatternRequest::Chat(_)
            | PatternRequest::Generate(_)
            | PatternRequest::Extend(_)
            | PatternRequest::Modify(_)
            | PatternRequest::Legalize(_)
            | PatternRequest::Evaluate(_) => {
                return request_route(request).map_or(TextRoute::Free, TextRoute::Keyed)
            }
        };
        let id = request.session_id().expect("a session request").to_owned();
        assert_eq!(request_route(request), Some(route_hash(&id)));
        TextRoute::Session { id, role }
    }

    /// The router places a request by its text, tests and movers think
    /// in typed requests: on every variant, as this build writes it,
    /// the two agree — kind, hash and the "creates the session" bit.
    #[test]
    fn the_text_route_of_every_variant_is_its_typed_route() {
        use crate::{
            EvaluateParams, ExtendParams, GenerateParams, LegalizeParams, ModifyParams,
            SessionCloseParams, SessionOpenParams, SessionRestoreParams, SessionSnapshotParams,
        };
        use cp_dataset::Style;
        use cp_squish::{Region, Topology};

        let system = crate::ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(3)
            .build()
            .expect("valid configuration");
        system
            .session_open("moved \"here\"", Some(4))
            .expect("opens");
        let turn = "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                    style Layer-10001.";
        system
            .session_turn("moved \"here\"", turn)
            .expect("turn runs");
        let snapshot = system.session_snapshot("moved \"here\"").expect("exports");
        assert!(
            !snapshot.agent.context.library.is_empty(),
            "a real snapshot"
        );

        let wide = Topology::from_fn(128, 128, |r, c| (r * 31 + c * 17) % 5 < 2);
        let small = Topology::from_fn(4, 6, |r, c| (r + c) % 2 == 0);
        let session = || "s-\u{e9}\n7".to_owned();
        let requests = [
            PatternRequest::Chat(ChatParams {
                request: "two patterns, \"dense\"".into(),
                seed: Some(u64::MAX),
            }),
            PatternRequest::Chat(ChatParams {
                request: "two patterns".into(),
                seed: None,
            }),
            PatternRequest::SessionOpen(SessionOpenParams {
                session: session(),
                seed: None,
            }),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: session(),
                utterance: "denser".into(),
            }),
            PatternRequest::SessionClose(SessionCloseParams { session: session() }),
            PatternRequest::SessionSnapshot(SessionSnapshotParams { session: session() }),
            PatternRequest::SessionRestore(SessionRestoreParams {
                snapshot: Box::new(snapshot),
            }),
            PatternRequest::Generate(GenerateParams {
                style: Style::Layer10003,
                rows: 16,
                cols: 16,
                count: 2,
                seed: 7,
            }),
            PatternRequest::Extend(ExtendParams {
                seed_topology: small.clone(),
                rows: 32,
                cols: 32,
                method: cp_extend::ExtensionMethod::InPainting,
                style: Style::Layer10001,
                seed: 1,
            }),
            PatternRequest::Modify(ModifyParams {
                known: small.clone(),
                region: Region::new(1, 1, 3, 4),
                style: Style::Layer10001,
                seed: 2,
            }),
            PatternRequest::Legalize(LegalizeParams {
                topology: wide,
                width_nm: 2048,
                height_nm: 2048,
                seed: 3,
            }),
            PatternRequest::Evaluate(EvaluateParams {
                topologies: vec![small.clone(), small],
                frame_nm: 512,
                seed: 4,
            }),
            PatternRequest::Stats,
        ];
        let mut variants = std::collections::HashSet::new();
        for request in &requests {
            let text = serde_json::to_string(request).expect("serializes");
            let route = text_route(&text);
            assert_eq!(route, typed_route(request), "{text:.120}");
            if let TextRoute::Keyed(hash) = route {
                let key = request_key(request).expect("keyed");
                assert_eq!((hash, text.as_str()), (route_hash(&key), key.as_str()));
            }
            variants.insert(std::mem::discriminant(request));
        }
        assert_eq!(variants.len(), 12, "one of each variant");
    }

    /// What the text reader does with text no build of this program
    /// writes: a key order, spacing or escape of the client's own is
    /// read through, an unreadable text is anybody's to refuse.
    #[test]
    fn the_text_route_reads_through_spellings_and_gives_up_on_what_is_no_request() {
        let turn = TextRoute::Session {
            id: "det".to_owned(),
            role: SessionRole::Uses,
        };
        for text in [
            r#"{"SessionTurn":{"session":"det","utterance":"denser"}}"#,
            r#" { "SessionTurn" : { "utterance" : "denser" , "session" : "det" } } "#,
            r#"{"SessionTurn":{"extra":[1,{"session":"no"}],"session":"no","session":"\u0064et"}}"#,
        ] {
            assert_eq!(text_route(text), turn, "{text}");
        }
        assert_eq!(text_route(r#" "Stats" "#), TextRoute::Stats);
        assert_eq!(text_route(r#""\u0053tats""#), TextRoute::Stats);
        assert_eq!(
            text_route(r#"{"Chat":{"seed":null,"request":"x"}}"#),
            TextRoute::Free
        );
        // Keyed by the bytes as sent: two spellings, two hashes.
        let compact = r#"{"Generate":{"cols":8,"count":1,"rows":8,"seed":7,"style":"Layer10001"}}"#;
        let reordered =
            r#"{"Generate":{"seed":7,"cols":8,"count":1,"rows":8,"style":"Layer10001"}}"#;
        assert_eq!(text_route(compact), TextRoute::Keyed(0xc832_c584_f3ec_767c));
        assert_eq!(
            text_route(reordered),
            TextRoute::Keyed(route_hash(reordered))
        );
        // The parameters are the worker's to check, not the route's.
        let ill_typed = r#"{"Legalize":5}"#;
        assert_eq!(
            text_route(ill_typed),
            TextRoute::Keyed(route_hash(ill_typed))
        );
        for unreadable in [
            r#"{"Nonsense":{}}"#,
            r#""Generate""#,
            r#"{"SessionTurn":{"utterance":"denser"}}"#,
            r#"{"SessionTurn":{"session":7}}"#,
            r#"{"SessionRestore":{"snapshot":"s"}}"#,
            r#"{"Chat":{"request":"x","seed":"7"}}"#,
            r#"{"Stats":{},"Chat":{}}"#,
            r#"{"Generate":{"rows":[1,,2]}}"#,
            "null",
            "5",
            "{}",
        ] {
            assert_eq!(text_route(unreadable), TextRoute::Free, "{unreadable}");
        }
    }
}
