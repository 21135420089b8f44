//! Request routing — the single source of truth for "which worker
//! does this request belong to".
//!
//! A [`PatternEngine`](crate::PatternEngine) is one queue and places
//! nothing: it asks [`is_keyed`] only to know whether its result broker
//! caches and coalesces a request, which it then keys by the decoded
//! request itself (`cache::Key`), not by any hash here. Two
//! consumers place work by this module:
//!
//! * the multi-process `chatpattern-router` binary, which shards client
//!   requests across a fleet of `chatpattern-serve` workers: keyed
//!   requests go by [`key_hash`] of their text (a repeated request
//!   finds the worker whose cache holds its result), session requests
//!   go by [`route_hash`] of the session id (every turn of one session
//!   lands on the worker that holds it), and everything else is free
//!   to spread round-robin. The router forwards a request's text
//!   without decoding it, so what it calls is [`text_route`], which
//!   reads off the text the little that placement depends on and, on
//!   every request as this build writes it, agrees with the typed
//!   side: [`is_keyed`] and the request's session id. Its protocol
//!   state is a [`Fleet`];
//! * [`JsonDirPersist`](crate::JsonDirPersist), which fans a session
//!   directory out over `--persist-shards` subdirectories by
//!   [`route_hash`] of the session id.
//!
//! Both hashes are hand-rolled and pinned by unit tests below —
//! deliberately *not* [`std::collections::hash_map::DefaultHasher`],
//! whose algorithm is explicitly unspecified and may change between
//! Rust releases:
//!
//! * [`route_hash`] is **FNV-1a 64**, and session ids keep it: their
//!   placement is persisted (a session directory's shards, a restarted
//!   router finding a session in its worker's directory), so a build
//!   that hashed them otherwise would disagree with what an older one
//!   wrote;
//! * [`key_hash`] reads a keyed request's text eight bytes at a time on
//!   four independent lanes — a 33 kB `Legalize` in about a twentieth
//!   of FNV-1a's byte-at-a-time time, on the router's one loop thread.
//!   Keyed placement only finds a worker's in-memory cache, so a build
//!   that changed it would at worst re-warm each cache once; it is
//!   pinned all the same, so that it never changes by accident.

use crate::PatternRequest;
use serde::{Deserialize, Deserializer};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Stable routing hash (FNV-1a, 64-bit) of a session id. Identical
/// inputs always map to the same value, on every platform and every
/// compiler release.
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

/// Stable placement hash of a keyed request's text: little-endian
/// 8-byte words, 32 bytes a block over four independent lanes (the
/// last block padded with zeros), one multiply a word; then the length
/// and the lanes folded into one word and a 64-bit finalising mix.
/// Identical inputs always map to the same value, on every platform
/// and every compiler release.
#[must_use]
pub fn key_hash(text: &str) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(P1).rotate_left(31);
        }
    }
    let bytes = text.as_bytes();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0; 32];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &last);
    }
    let mut hash = (bytes.len() as u64).wrapping_mul(P1);
    for lane in lanes {
        hash = (hash ^ lane.wrapping_mul(P2))
            .rotate_left(27)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// Whether a request is keyed: cached and coalesced by an engine's
/// result broker, and placed by [`key_hash`] of its text in a fleet.
/// These are not, and execute privately every time:
///
/// * `Chat` without an explicit seed resolves to the system's master
///   seed at execution time, so its outcome is not a pure function of
///   the request value;
/// * session requests (`SessionOpen` / `SessionTurn` / `SessionClose`
///   / `SessionSnapshot` / `SessionRestore`) *mutate* session state —
///   two identical turns are different operations (the second operates
///   on the first's results), so replaying a cached payload or
///   attaching to an in-flight twin would silently drop a turn;
/// * `Stats` reads live counters — caching a snapshot would serve
///   stale numbers forever.
#[must_use]
pub fn is_keyed(request: &PatternRequest) -> bool {
    match request {
        PatternRequest::Chat(params) => params.seed.is_some(),
        PatternRequest::Generate(_)
        | PatternRequest::Extend(_)
        | PatternRequest::Modify(_)
        | PatternRequest::Legalize(_)
        | PatternRequest::Evaluate(_) => true,
        PatternRequest::SessionOpen(_)
        | PatternRequest::SessionTurn(_)
        | PatternRequest::SessionClose(_)
        | PatternRequest::SessionSnapshot(_)
        | PatternRequest::SessionRestore(_)
        | PatternRequest::Stats => false,
    }
}

/// Where a request belongs, read off its wire text by [`text_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextRoute {
    /// A session request: it goes where its session lives, or is to
    /// live ([`route_hash`] of the id, until a move says otherwise).
    Session {
        /// The session's id.
        id: Arc<str>,
        /// What the request does to the session's existence.
        role: SessionRole,
    },
    /// A cacheable request, with the [`key_hash`] of its text: a repeat
    /// of the same bytes finds the worker whose cache has them.
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

/// Where a request still in its wire text (the value of an envelope's
/// `request`) belongs, without decoding it: key hash first (cache
/// affinity), then session-id hash (session affinity), then anywhere.
/// A keyed request goes by the [`key_hash`] of the text **as sent**:
/// for text as this build writes it — compact, keys sorted, cells as
/// `bits` — that is the hash of `serde_json::to_string` of the typed
/// request; another spelling of the same request (reordered keys,
/// inner whitespace, a `packed` topology) is another text and may land
/// on another worker, whose cache still knows it for the same request.
///
/// A text that cannot be read this far is one no worker can decode
/// either; it is [`TextRoute::Free`], and whichever worker gets it
/// answers with the `InvalidRequest` that says why.
#[must_use]
pub fn text_route(request: &str) -> TextRoute {
    let session = |head: SessionHead, role| TextRoute::Session {
        id: head.session.into(),
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
        Ok(_) => TextRoute::Keyed(key_hash(request)),
    }
}

/// The tag of a worker's outcome and an error's kind, the one thing of
/// a reply the router reads.
#[derive(Deserialize)]
enum OutcomeHead {
    Ok(Unread),
    Err(ErrorHead),
}

#[derive(Deserialize)]
struct ErrorHead {
    kind: Option<String>,
}

/// What a worker's answer to a session's line says of the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// An `Ok` outcome.
    Ok,
    /// An error of kind `SessionNotFound`: the worker does not hold the
    /// session (it expired or was evicted there, or never was).
    SessionNotFound,
    /// Any other error — a lost link's and the router's own refusals
    /// included — or a text that is no outcome.
    Failed,
}

/// What the text of a reply's `outcome` answers, read as any JSON is:
/// the spacing is the writer's.
#[must_use]
pub fn answer_of(outcome: &str) -> Answer {
    match serde_json::from_str(outcome) {
        Ok(OutcomeHead::Ok(_)) => Answer::Ok,
        Ok(OutcomeHead::Err(ErrorHead { kind: Some(kind) })) if kind == "SessionNotFound" => {
            Answer::SessionNotFound
        }
        _ => Answer::Failed,
    }
}

/// A router's protocol state, and no socket, thread or clock: told what
/// happened (a client's session line, the answer to one, a drain, the
/// end of a move, a drain's deadline), it answers with the [`Action`]s
/// to carry out. `L` is a client line as the caller forwards it, `R`
/// whoever asked for a drain; neither is read here.
///
/// New work goes to the *live* workers: all but the drained ones, never
/// none. A session id has an entry while it has a pin, a line in flight
/// or lines waiting, and at most one line at its worker: the others wait
/// in arrival order, at most `depth` of them, and the answer to one
/// sends the next. A drain puts a move at the head of each queue pinned
/// to the drained worker, so the move takes the session once its line
/// in flight is answered.
pub struct Fleet<L, R> {
    workers: usize,
    depth: usize,
    live: Vec<usize>,
    free: u64,
    sessions: HashMap<Arc<str>, Entry<L>>,
    drains: u64,
    drain: Option<Drain<R>>,
}

/// `hash` is the id's [`route_hash`]; a `None` waiting is a drain's move.
struct Entry<L> {
    hash: u64,
    pin: Option<usize>,
    in_flight: Option<Flight>,
    waiting: VecDeque<Option<(L, SessionRole)>>,
}

/// A client line of `role`, which made the session's pin if `pinned`,
/// or a move to `target` for the drain numbered `drain`.
enum Flight {
    Line { role: SessionRole, pinned: bool },
    Move { target: usize, drain: u64 },
}

/// The running drain: its number, its moves not yet ended, and so far
/// how many moved or the first that failed.
struct Drain<R> {
    id: u64,
    worker: usize,
    left: usize,
    outcome: Result<usize, String>,
    reply: R,
}

/// What a [`Fleet`] asks its caller to do.
pub enum Action<L, R> {
    /// Send `line` to `worker`; a session line's answer goes to
    /// [`Fleet::answered`].
    Forward { worker: usize, line: L },
    /// Answer `line` with a typed `Overloaded`, unsent: its session
    /// already has the fleet's `depth` lines waiting.
    Overloaded(L),
    /// Snapshot `session` on `source`, restore it on `target`, and tell
    /// [`Fleet::moved`] how that went; then close the source copy.
    Move {
        session: Arc<str>,
        source: usize,
        target: usize,
    },
    /// Call [`Fleet::expire`] with this drain's number once the drain
    /// has run as long as the caller lets one run.
    Deadline(u64),
    /// Answer the drain's requester: it is over, with the drained worker
    /// and how many sessions moved, or the first move that failed, or it
    /// is refused or timed out.
    Drained(R, Result<(usize, usize), String>),
}

impl<L, R> Fleet<L, R> {
    /// `workers` live workers (at least one), no sessions, and at most
    /// `depth` lines waiting a session.
    #[must_use]
    pub fn new(workers: usize, depth: usize) -> Fleet<L, R> {
        assert!(workers > 0, "a fleet has a worker");
        Fleet {
            workers,
            depth,
            live: (0..workers).collect(),
            free: 0,
            sessions: HashMap::new(),
            drains: 0,
            drain: None,
        }
    }

    /// Where a client's line goes: a keyed line by its hash, a session's
    /// line (now, or queued behind what the session has in flight, or
    /// refused past `depth` queued) by the session's entry, and any
    /// other round-robin.
    pub fn route(&mut self, route: TextRoute, line: L) -> Option<Action<L, R>> {
        let (session, role) = match route {
            TextRoute::Session { id, role } => (id, role),
            TextRoute::Keyed(hash) => return Some(self.forward(hash, line)),
            TextRoute::Stats | TextRoute::Free => {
                self.free += 1;
                return Some(self.forward(self.free - 1, line));
            }
        };
        let hash = route_hash(&session);
        let entry = self.sessions.entry(session).or_insert_with(|| Entry {
            hash,
            pin: None,
            in_flight: None,
            waiting: VecDeque::new(),
        });
        // A queued move, if any, heads the queue, and is not a line.
        let moves = usize::from(matches!(entry.waiting.front(), Some(None)));
        match entry.in_flight {
            None => Some(send(&self.live, entry, line, role)),
            Some(_) if entry.waiting.len() - moves >= self.depth => Some(Action::Overloaded(line)),
            Some(_) => {
                entry.waiting.push_back(Some((line, role)));
                None
            }
        }
    }

    /// A worker answered `session`'s line. The pin goes with a create
    /// that made it and failed, and with a use or close answered
    /// `SessionNotFound` or a close that succeeded: the worker holds no
    /// such session (one that expired or was evicted there is found so).
    /// Then the session's next line or move goes.
    pub fn answered(&mut self, session: &str, answer: Answer) -> Vec<Action<L, R>> {
        if let Some(entry) = self.sessions.get_mut(session) {
            if let Some(Flight::Line { role, pinned }) = entry.in_flight {
                entry.in_flight = None;
                let lifts = match role {
                    SessionRole::Creates => pinned && answer != Answer::Ok,
                    SessionRole::Uses => answer == Answer::SessionNotFound,
                    SessionRole::Closes => answer != Answer::Failed,
                };
                if lifts {
                    entry.pin = None;
                }
            }
        }
        self.advance(session, Vec::new())
    }

    /// Takes `worker` out of the live workers and moves each session
    /// pinned (or being moved) to it, in its turn, to the live worker its
    /// id hashes to; refused for no such worker, while a drain runs, or
    /// for the last. A drain that does not end at once asks for its
    /// [`Action::Deadline`].
    pub fn drain(&mut self, worker: usize, reply: R) -> Vec<Action<L, R>> {
        let refusal = match &self.drain {
            _ if worker >= self.workers => Some(format!("no worker {worker}")),
            Some(other) => Some(format!(
                "worker {} is still draining (one drain at a time)",
                other.worker
            )),
            None if self.live == [worker] => Some("cannot drain the last live worker".to_owned()),
            None => None,
        };
        if let Some(message) = refusal {
            return vec![Action::Drained(reply, Err(message))];
        }
        self.live.retain(|live| *live != worker);
        self.drains += 1;
        let (mut actions, mut left, id) = (Vec::new(), 0, self.drains);
        for (session, entry) in &mut self.sessions {
            // A timed-out drain's move onto `worker` may still land there.
            let landing =
                matches!(entry.in_flight, Some(Flight::Move { target, .. }) if target == worker);
            if entry.pin == Some(worker) || landing {
                left += 1;
                match entry.in_flight {
                    Some(_) => entry.waiting.push_front(None),
                    None => actions.push(start_move(&self.live, session, entry, worker, id)),
                }
            }
        }
        self.drain = Some(Drain {
            id,
            worker,
            left,
            outcome: Ok(0),
            reply,
        });
        end_move(&mut self.drain, None, &mut actions);
        if self.drain.is_some() {
            actions.push(Action::Deadline(id));
        }
        actions
    }

    /// Drain `drain`'s time is up: if it still runs, it is answered with
    /// an error and its queued moves are dropped, so the next drain can
    /// start. A move under way goes on, and re-pins its session if it
    /// restores it, but no longer counts toward a drain.
    pub fn expire(&mut self, drain: u64) -> Vec<Action<L, R>> {
        let Some(running) = self.drain.take_if(|running| running.id == drain) else {
            return Vec::new();
        };
        for entry in self.sessions.values_mut() {
            entry.waiting.retain(Option::is_some);
        }
        let (worker, left) = (running.worker, running.left);
        let message = format!("drain of worker {worker} timed out with {left} session(s) unmoved");
        vec![Action::Drained(running.reply, Err(message))]
    }

    /// `session`'s move ended: `Ok(true)` restored on the target, which
    /// it is pinned to now; `Ok(false)` the source no longer had it;
    /// `Err` kept it where it was. Then its lines go on.
    pub fn moved(&mut self, session: &str, outcome: Result<bool, String>) -> Vec<Action<L, R>> {
        let mut actions = Vec::new();
        if let Some(entry) = self.sessions.get_mut(session) {
            if let Some(Flight::Move { target, drain }) = entry.in_flight {
                entry.in_flight = None;
                match outcome {
                    Ok(true) => entry.pin = Some(target),
                    Ok(false) => entry.pin = None,
                    Err(_) => {}
                }
                if self
                    .drain
                    .as_ref()
                    .is_some_and(|running| running.id == drain)
                {
                    end_move(&mut self.drain, Some(outcome), &mut actions);
                }
            }
        }
        self.advance(session, actions)
    }

    fn forward(&self, hash: u64, line: L) -> Action<L, R> {
        let worker = hashed(&self.live, hash);
        Action::Forward { worker, line }
    }

    /// Whether `worker` takes new work (it has not been drained).
    #[must_use]
    pub fn is_live(&self, worker: usize) -> bool {
        self.live.contains(&worker)
    }

    /// Every pinned session, with the worker it is pinned to.
    pub fn pins(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        let pins = self.sessions.iter();
        pins.filter_map(|(id, entry)| Some((&**id, entry.pin?)))
    }

    /// With nothing in flight, sends `session`'s next line or starts its
    /// move (ending one with nothing left to move: a queued move is the
    /// running drain's); an entry left with no pin and nothing to send
    /// goes.
    fn advance(&mut self, session: &str, mut actions: Vec<Action<L, R>>) -> Vec<Action<L, R>> {
        let Some(entry) = self.sessions.get_mut(session) else {
            return actions;
        };
        while entry.in_flight.is_none() {
            match entry.waiting.pop_front() {
                Some(Some((line, role))) => actions.push(send(&self.live, entry, line, role)),
                Some(None) => match (&self.drain, entry.pin) {
                    (Some(drain), Some(pin)) if drain.worker == pin => {
                        actions.push(start_move(&self.live, session, entry, pin, drain.id));
                    }
                    _ => end_move(&mut self.drain, Some(Ok(false)), &mut actions),
                },
                None if entry.pin.is_none() => {
                    self.sessions.remove(session);
                    break;
                }
                None => break,
            }
        }
        actions
    }
}

fn hashed(live: &[usize], hash: u64) -> usize {
    live[(hash % live.len() as u64) as usize]
}

/// Sends a session's line to its pin, else where its id hashes; a line
/// that creates the session pins it there.
fn send<L, R>(live: &[usize], entry: &mut Entry<L>, line: L, role: SessionRole) -> Action<L, R> {
    let worker = entry.pin.unwrap_or_else(|| hashed(live, entry.hash));
    let pinned = role == SessionRole::Creates && entry.pin.is_none();
    if pinned {
        entry.pin = Some(worker);
    }
    entry.in_flight = Some(Flight::Line { role, pinned });
    Action::Forward { worker, line }
}

fn start_move<L, R>(
    live: &[usize],
    id: &str,
    entry: &mut Entry<L>,
    source: usize,
    drain: u64,
) -> Action<L, R> {
    let (session, target) = (Arc::from(id), hashed(live, entry.hash));
    entry.in_flight = Some(Flight::Move { target, drain });
    Action::Move {
        session,
        source,
        target,
    }
}

/// Counts a move's outcome (`None`: none) into the running drain, and
/// answers the drain once it has no move left.
fn end_move<L, R>(
    drain: &mut Option<Drain<R>>,
    outcome: Option<Result<bool, String>>,
    actions: &mut Vec<Action<L, R>>,
) {
    let Some(running) = drain.as_mut() else {
        return;
    };
    if let Some(outcome) = outcome {
        running.left -= 1;
        match (&mut running.outcome, outcome) {
            (Ok(moved), Ok(one)) => *moved += usize::from(one),
            (Ok(_), Err(message)) => running.outcome = Err(message),
            (Err(_), _) => {}
        }
    }
    if running.left == 0 {
        let done = drain.take().expect("a drain runs");
        let outcome = done.outcome.map(|moved| (done.worker, moved));
        actions.push(Action::Drained(done.reply, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChatParams, SessionTurnParams};

    /// The [`key_hash`] of the canonical text of a fixed `Generate`.
    const KEY_HASH_GENERATE: u64 = 0x0e1d_88a3_2cc3_db38;

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

    /// The load-bearing test of keyed placement: these values are what
    /// a repeated request's worker is found by. If this test fails, the
    /// hash changed — every worker's cache would re-warm once; do not
    /// update the constants unless that is what is meant.
    #[test]
    fn key_hash_is_pinned() {
        assert_eq!(key_hash(""), 0xcf14_fc7e_d343_3645);
        assert_eq!(key_hash("a"), 0xef21_1ee6_9b7d_c01e);
        let short = r#"{"Generate":{"cols":8}}"#;
        assert!(short.len() < 32);
        assert_eq!(key_hash(short), 0xe9da_52c8_db32_5f72);
        let block = "0123456789abcdef0123456789abcdef";
        assert_eq!(block.len(), 32);
        assert_eq!(key_hash(block), 0x40b3_463d_2ad6_7639);
        // A zero byte is a byte: padding does not hide it.
        assert_ne!(key_hash("a"), key_hash("a\0"));
        let line = serde_json::to_string(&PatternRequest::Legalize(crate::LegalizeParams {
            topology: cp_layout::squish::Topology::from_fn(128, 128, |r, c| (r * 7 + c) % 3 == 0),
            width_nm: 2048,
            height_nm: 2048,
            seed: 9,
        }))
        .expect("serializes");
        assert_eq!(
            (line.len(), key_hash(&line)),
            (32_868, 0x7723_fffd_8a74_5c65)
        );
    }

    /// Keyed texts of a fleet differ in a few digits (a seed, a
    /// cell): each worker still gets its share of them.
    #[test]
    fn key_hash_spreads_near_identical_texts_over_workers() {
        const TEXTS: u64 = 1_200;
        for workers in [2, 3, 4, 5] {
            let mut shares = vec![0u64; workers as usize];
            for seed in 0..TEXTS {
                let text = format!(
                    r#"{{"Generate":{{"cols":128,"count":1,"rows":128,"seed":{seed},"style":"Layer10001"}}}}"#
                );
                shares[(key_hash(&text) % workers) as usize] += 1;
            }
            // Four standard deviations of a fair draw either way.
            let fair = TEXTS / workers;
            let slack = 4 * ((fair as f64) * (1.0 - 1.0 / workers as f64)).sqrt() as u64;
            assert!(
                shares.iter().all(|share| share.abs_diff(fair) <= slack),
                "{workers} workers: {shares:?}"
            );
        }
    }

    /// What the engine keys and what the fleet places a keyed request
    /// by: the request is keyed, and its canonical text — sorted keys,
    /// no whitespace, cells as bare digits — and that text's hash are
    /// pinned here.
    #[test]
    fn request_key_of_a_fixed_request_is_pinned() {
        let generate = PatternRequest::Generate(crate::GenerateParams {
            style: cp_dataset::Style::Layer10001,
            rows: 8,
            cols: 8,
            count: 1,
            seed: 7,
        });
        assert!(is_keyed(&generate));
        let key = serde_json::to_string(&generate).expect("serializes");
        assert_eq!(
            key,
            r#"{"Generate":{"cols":8,"count":1,"rows":8,"seed":7,"style":"Layer10001"}}"#
        );
        assert_eq!(key_hash(&key), KEY_HASH_GENERATE);
        assert_eq!(text_route(&key), TextRoute::Keyed(KEY_HASH_GENERATE));

        let legalize = PatternRequest::Legalize(crate::LegalizeParams {
            topology: cp_layout::squish::Topology::from_fn(2, 3, |r, c| (r + c) % 2 == 0),
            width_nm: 256,
            height_nm: -512,
            seed: u64::MAX,
        });
        assert!(is_keyed(&legalize));
        let key = serde_json::to_string(&legalize).expect("serializes");
        assert_eq!(
            key,
            r#"{"Legalize":{"height_nm":-512,"seed":18446744073709551615,"topology":{"bits":[1,0,1,0,1,0],"cols":3,"rows":2},"width_nm":256}}"#
        );
        assert_eq!(key_hash(&key), 0xc814_76ac_6e4d_1086);
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
    fn text_route_prefers_key_then_session() {
        let keyed = PatternRequest::Chat(ChatParams {
            request: "two patterns".into(),
            seed: Some(1),
        });
        assert!(is_keyed(&keyed), "a seeded chat is keyed");
        let text = serde_json::to_string(&keyed).expect("serializes");
        assert_eq!(text_route(&text), TextRoute::Keyed(key_hash(&text)));

        let session = PatternRequest::SessionTurn(SessionTurnParams {
            session: "det".into(),
            utterance: "denser".into(),
        });
        assert!(!is_keyed(&session));
        let text = serde_json::to_string(&session).expect("serializes");
        assert_eq!(
            text_route(&text),
            TextRoute::Session {
                id: "det".into(),
                role: SessionRole::Uses,
            }
        );

        let unkeyed = PatternRequest::Chat(ChatParams {
            request: "two patterns".into(),
            seed: None,
        });
        let text = serde_json::to_string(&unkeyed).expect("serializes");
        assert_eq!(text_route(&text), TextRoute::Free);
    }

    /// Which route the text reader must find for a request, taken from
    /// the typed side: [`is_keyed`] and the [`key_hash`] of the text
    /// this build writes, the session id field, and the variant for
    /// what those do not say.
    fn typed_route(request: &PatternRequest) -> TextRoute {
        let (id, role) = match request {
            PatternRequest::SessionOpen(p) => (&p.session, SessionRole::Creates),
            PatternRequest::SessionRestore(p) => (&p.snapshot.session, SessionRole::Creates),
            PatternRequest::SessionTurn(p) => (&p.session, SessionRole::Uses),
            PatternRequest::SessionSnapshot(p) => (&p.session, SessionRole::Uses),
            PatternRequest::SessionClose(p) => (&p.session, SessionRole::Closes),
            PatternRequest::Stats => return TextRoute::Stats,
            // Listed, so that a thirteenth variant has to be placed.
            PatternRequest::Chat(_)
            | PatternRequest::Generate(_)
            | PatternRequest::Extend(_)
            | PatternRequest::Modify(_)
            | PatternRequest::Legalize(_)
            | PatternRequest::Evaluate(_) => {
                return if is_keyed(request) {
                    let text = serde_json::to_string(request).expect("serializes");
                    TextRoute::Keyed(key_hash(&text))
                } else {
                    TextRoute::Free
                }
            }
        };
        assert!(!is_keyed(request), "a session request is unkeyed");
        TextRoute::Session {
            id: id.as_str().into(),
            role,
        }
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
        use cp_layout::squish::{Region, Topology};

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
            variants.insert(std::mem::discriminant(request));
        }
        assert_eq!(variants.len(), 12, "one of each variant");
    }

    /// An outcome is read by its tag and an error's kind, however the
    /// worker spaced it.
    #[test]
    fn an_outcome_is_ok_by_its_tag_whatever_its_spacing() {
        for ok in [
            r#"{"Ok":{"payload":"Stats","timing":{}}}"#,
            r#" { "Ok" : { } } "#,
            "{\n\t\"Ok\":null}",
        ] {
            assert_eq!(answer_of(ok), Answer::Ok, "{ok}");
        }
        for not_found in [
            r#"{"Err":{"kind":"SessionNotFound","message":"Ok"}}"#,
            r#" { "Err" : { "message" : "x" , "kind" : "Session\u004eotFound" } } "#,
        ] {
            assert_eq!(answer_of(not_found), Answer::SessionNotFound, "{not_found}");
        }
        for failed in [
            r#"{"Err":{"kind":"Overloaded","message":"SessionNotFound"}}"#,
            r#" { "Err" : { } } "#,
            r#"{"Ok":{},"Err":{}}"#,
            r#""Ok""#,
            r#"{"Ok""#,
            "",
        ] {
            assert_eq!(answer_of(failed), Answer::Failed, "{failed}");
        }
    }

    /// A session that expired on its worker, or was evicted there, loses
    /// its pin with the first use or close its worker answers
    /// `SessionNotFound`, so the fleet's entries do not outgrow the
    /// sessions its workers hold.
    #[test]
    fn a_pin_goes_once_its_worker_answers_that_the_session_is_gone() {
        let mut fleet: Fleet<u8, u8> = Fleet::new(1, 4);
        let route = |id: &str, role| TextRoute::Session {
            id: id.into(),
            role,
        };
        // One worker: `s1` and `s2` open, expire there, and `s3` opens.
        for id in ["s1", "s2", "s3"] {
            let sent = fleet.route(route(id, SessionRole::Creates), 0);
            assert!(matches!(sent, Some(Action::Forward { worker: 0, .. })));
            assert!(fleet.answered(id, Answer::Ok).is_empty());
        }
        assert_eq!(fleet.pins().count(), 3);
        // A turn on `s1` and a close of `s2` find them gone.
        let turn = fleet.route(route("s1", SessionRole::Uses), 1);
        assert!(matches!(turn, Some(Action::Forward { worker: 0, .. })));
        assert!(fleet.answered("s1", Answer::SessionNotFound).is_empty());
        let close = fleet.route(route("s2", SessionRole::Closes), 2);
        assert!(matches!(close, Some(Action::Forward { worker: 0, .. })));
        assert!(fleet.answered("s2", Answer::SessionNotFound).is_empty());
        assert_eq!(fleet.pins().collect::<Vec<_>>(), [("s3", 0)]);
        // Any other failure leaves the pin: the session may be there.
        let turn = fleet.route(route("s3", SessionRole::Uses), 3);
        assert!(turn.is_some());
        assert!(fleet.answered("s3", Answer::Failed).is_empty());
        assert_eq!(fleet.pins().collect::<Vec<_>>(), [("s3", 0)]);
    }

    /// A drain after a timed-out one takes the session that the first
    /// one's late move brings onto its worker, once the move lands.
    #[test]
    fn a_late_move_onto_a_drained_worker_moves_on() {
        let mut fleet: Fleet<u8, u8> = Fleet::new(3, 4);
        let route = |role| TextRoute::Session {
            id: "late".into(),
            role,
        };
        let Some(Action::Forward { worker: host, .. }) =
            fleet.route(route(SessionRole::Creates), 0)
        else {
            panic!("the open goes out");
        };
        assert!(fleet.answered("late", Answer::Ok).is_empty());
        let [Action::Move { target, .. }, Action::Deadline(first)] = &fleet.drain(host, 1)[..]
        else {
            panic!("the drain moves the session");
        };
        let (target, first) = (*target, *first);
        let expired = fleet.expire(first);
        assert!(matches!(&expired[..], [Action::Drained(1, Err(_))]));
        let [Action::Deadline(second)] = fleet.drain(target, 2)[..] else {
            panic!("the second drain waits for the move under way");
        };
        assert_ne!(first, second);
        let [Action::Move {
            source,
            target: last,
            ..
        }] = fleet.moved("late", Ok(true))[..]
        else {
            panic!("the landed session moves on");
        };
        assert_eq!(source, target);
        assert!(last != host && last != target);
        let [Action::Drained(2, Ok((drained, 1)))] = fleet.moved("late", Ok(true))[..] else {
            panic!("the second drain ends with its move");
        };
        assert_eq!(drained, target);
        assert_eq!(fleet.pins().collect::<Vec<_>>(), [("late", last)]);
    }

    /// What the text reader does with text no build of this program
    /// writes: a key order, spacing or escape of the client's own is
    /// read through, an unreadable text is anybody's to refuse.
    #[test]
    fn the_text_route_reads_through_spellings_and_gives_up_on_what_is_no_request() {
        let turn = TextRoute::Session {
            id: "det".into(),
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
        assert_eq!(text_route(compact), TextRoute::Keyed(KEY_HASH_GENERATE));
        assert_eq!(text_route(reordered), TextRoute::Keyed(key_hash(reordered)));
        assert_ne!(key_hash(compact), key_hash(reordered));
        // The parameters are the worker's to check, not the route's.
        let ill_typed = r#"{"Legalize":5}"#;
        assert_eq!(text_route(ill_typed), TextRoute::Keyed(key_hash(ill_typed)));
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
