//! The session store: bounded, TTL'd, per-session-locked state for
//! multi-turn dialogs.
//!
//! A [`SessionStore`] maps client-chosen string ids to live session
//! values (the concrete value is [`ChatSession`](crate::ChatSession)
//! in production; the store is generic so invariants can be tested
//! with cheap stand-ins). It enforces the properties the rest of the
//! stack relies on:
//!
//! * **Bounded capacity, TTL + LRU, one exit.** The store never holds
//!   more than `capacity` sessions. Every store operation first retires
//!   the sessions idle past their TTL; an open that still finds the
//!   store full evicts the least-recently-used *idle* session (expiry
//!   leaves a session mid-turn to the next purge, and an open that
//!   finds every session mid-turn waits for the least recently used
//!   one). Both edges take a session out of memory by one protocol
//!   (`SessionStore::spill`): the victim stays in the map, frozen by
//!   its slot lock, until it has left. Without a persist layer it is
//!   destroyed: a later turn on it reports a typed
//!   [`SessionNotFound`](crate::Error::SessionNotFound) error, never a
//!   panic, and reopening the id starts a brand-new session.
//! * **Durability (spill/rehydrate).** With a [`SessionPersist`] layer
//!   attached ([`SessionStore::with_persist`]) the same exit *spills*
//!   the victim instead, and a later turn / snapshot / close on the
//!   spilled id transparently *rehydrates* it, until the persist
//!   layer's own TTL runs out. [`JsonDirPersist`] writes one JSON file
//!   per session (`chatpattern-serve --session-dir`), optionally fanned
//!   out over shard subdirectories, and so survives a process restart;
//!   [`MemoryPersist`] is the in-process stand-in tests use. A failed
//!   write leaves the victim live — capacity eviction surfaces the
//!   typed [`SessionPersist`](crate::Error::SessionPersist) error,
//!   expiry retries at the next purge — never a panic, never a silent
//!   drop.
//! * **Spill-ahead (zero-loss durability).** With a turn trigger
//!   (`SessionStore::with_spill_ahead_turns`) the store also
//!   snapshots *warm* sessions, synchronously after every N-th turn, so
//!   a crash loses at most the turn that was still in flight, not
//!   everything since the last eviction.
//! * **Per-session serialization, one access path.** Each session
//!   value sits behind its own lock, taken only *after* the store map
//!   lock is released, so accesses to distinct sessions run in
//!   parallel. A turn, an inspection and a close reach the value by
//!   one loop (resolve, lock, re-resolve if evicted meanwhile): a close
//!   waits behind a running turn, and its id stays "already open"
//!   until then.
//! * **Eviction never races a running turn into unsafety.** A turn
//!   already executing finishes normally (it owns an `Arc` of the
//!   slot); one *waiting* for the slot sees the evicted flag once it
//!   acquires the lock, re-resolves the id, and — with a persist
//!   layer — rehydrates the spilled session instead of failing.
//!
//! The engine layer keeps session requests out of the result cache and
//! the in-flight coalescer entirely (they mutate state, so two
//! identical turns are *different* requests); the router places them by
//! session-id hash so one session's turns reach one worker — see
//! `docs/SESSIONS.md`.

mod persist;
mod store;
#[cfg(test)]
mod tests;

pub use persist::{JsonDirPersist, MemoryPersist, PersistDecode, PersistEncode, SessionPersist};
pub use store::{SessionConfig, SessionStats, SessionStore};
