//! The store: its config and counters, the per-session slots and the one exit.

use super::persist::{encode_id, SessionPersist, MAX_ENCODED_SESSION_ID_BYTES};
use crate::Error;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Capacity and lifetime knobs of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of simultaneously open sessions (≥ 1). Opening
    /// one more evicts the least-recently-used session.
    pub capacity: usize,
    /// Idle lifetime: a session untouched for longer than this is
    /// expired (lazily, on the next store operation).
    pub ttl: Duration,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            capacity: 64,
            ttl: Duration::from_secs(900),
        }
    }
}

impl SessionConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `capacity` or `ttl` is zero (a
    /// session that expires the moment it opens can take no turn).
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if self.capacity == 0 {
            return Err(Error::config(
                "session store needs capacity for at least 1 session (got 0)",
            ));
        }
        if self.ttl.is_zero() {
            return Err(Error::config(
                "session ttl must be longer than zero (every turn would find its session expired)",
            ));
        }
        Ok(())
    }
}

/// A snapshot of session activity, surfaced through
/// [`EngineStats`](crate::EngineStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Sessions currently open (a gauge, not a counter).
    pub open: u64,
    /// Sessions destroyed: expired or evicted by the one exit with no
    /// persist layer to spill to, or lost to a panicking turn.
    pub evicted: u64,
    /// Sessions spilled to the persist layer, on capacity eviction or
    /// TTL expiry.
    pub spilled: u64,
    /// Spilled sessions rehydrated from the persist layer (by a turn,
    /// a snapshot, or a close).
    pub restored: u64,
    /// Turns executed since construction (successful or not).
    pub turns: u64,
    /// Warm sessions snapshotted ahead of need by the spill-ahead
    /// writer on the turn-count trigger (`spill_ahead_turns`). Unlike
    /// `spilled`, the session stays live in memory.
    pub spilled_ahead: u64,
}

/// One live session: the value behind its own lock, plus the eviction
/// flag a racing turn checks after acquiring it.
struct Slot<T> {
    /// Set when the session is evicted or expired while references to
    /// the slot may still be live.
    evicted: AtomicBool,
    /// Turns run since this session's last spill-ahead write; the turn
    /// trigger writes when it reaches N.
    dirty_turns: AtomicU64,
    /// `None` once closed. Guarded by this per-session mutex — holding
    /// it is what serializes turns on one session.
    value: Mutex<Option<T>>,
}

impl<T> Slot<T> {
    fn new(value: Option<T>) -> Slot<T> {
        Slot {
            evicted: AtomicBool::new(false),
            dirty_turns: AtomicU64::new(0),
            value: Mutex::new(value),
        }
    }
}

struct Entry<T> {
    slot: Arc<Slot<T>>,
    /// Wall-clock recency, for TTL expiry.
    last_used: Instant,
    /// Logical recency (a store-wide monotonic counter), for LRU victim
    /// selection — unlike `Instant`, never ties, so eviction order is
    /// deterministic.
    touched: u64,
}

/// The store map: session id → entry.
type Sessions<T> = HashMap<String, Entry<T>>;

/// Bounded map from session ids to live session values with TTL + LRU
/// eviction, per-session locking, and optional spill-on-evict
/// durability. See the [module docs](crate::session).
pub struct SessionStore<T> {
    config: SessionConfig,
    /// Spill-ahead turn trigger: snapshot a session after every N-th
    /// turn on it.
    spill_ahead_turns: Option<u64>,
    state: Mutex<Sessions<T>>,
    persist: Option<Arc<dyn SessionPersist<T>>>,
    clock: AtomicU64,
    evicted: AtomicU64,
    spilled: AtomicU64,
    restored: AtomicU64,
    turns: AtomicU64,
    spilled_ahead: AtomicU64,
}

impl<T> std::fmt::Debug for SessionStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<T> SessionStore<T> {
    /// Creates an empty store. The configuration is taken as-is;
    /// validate it first where it comes from user input
    /// (`SessionConfig::validate`).
    #[must_use]
    pub fn new(config: SessionConfig) -> SessionStore<T> {
        SessionStore {
            config,
            spill_ahead_turns: None,
            state: Mutex::new(HashMap::new()),
            persist: None,
            clock: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            turns: AtomicU64::new(0),
            spilled_ahead: AtomicU64::new(0),
        }
    }

    /// Sets the spill-ahead turn trigger (`None` turns it off): at the
    /// end of every `every_turns`-th turn on a session its snapshot is
    /// written ahead to the persist layer
    /// ([`SessionPersist::spill_ahead`]) while the session stays live.
    /// Only meaningful with a persist layer attached.
    #[must_use]
    pub(crate) fn with_spill_ahead_turns(mut self, every_turns: Option<u64>) -> SessionStore<T> {
        self.spill_ahead_turns = every_turns;
        self
    }

    /// Creates an empty store with a durability layer: capacity
    /// eviction and TTL expiry spill to `persist` instead of
    /// destroying, and accessing a spilled id transparently rehydrates
    /// it.
    #[must_use]
    pub fn with_persist(
        config: SessionConfig,
        persist: Arc<dyn SessionPersist<T>>,
    ) -> SessionStore<T> {
        SessionStore {
            persist: Some(persist),
            ..SessionStore::new(config)
        }
    }

    /// Sessions currently open.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, Sessions<T>> {
        self.state.lock().expect("session store lock")
    }

    /// References to `id`'s slot: the map's, and each thread's on it.
    #[cfg(test)]
    pub(super) fn slot_refs(&self, id: &str) -> usize {
        let state = self.lock();
        state
            .get(id)
            .map_or(0, |entry| Arc::strong_count(&entry.slot))
    }

    /// Whether no session is open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity snapshot.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            open: self.len() as u64,
            evicted: self.evicted.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            restored: self.restored.load(Ordering::Relaxed),
            turns: self.turns.load(Ordering::Relaxed),
            spilled_ahead: self.spilled_ahead.load(Ordering::Relaxed),
        }
    }

    /// Takes the map lock and retires every session idle past the TTL
    /// first, by the one exit ([`SessionStore::spill`]): destroyed
    /// without a persist layer, *spilled* with one, so a touch within
    /// the persist TTL still rehydrates. A session mid-turn, or one
    /// whose write fails, stays live and the next purge retries it.
    /// Every store operation starts here; with nothing expired it does
    /// no I/O and allocates nothing.
    fn purged(&self) -> MutexGuard<'_, Sessions<T>> {
        let mut state = self.lock();
        let now = Instant::now();
        let expired =
            |entry: &Entry<T>| now.saturating_duration_since(entry.last_used) > self.config.ttl;
        let victims: Vec<String> = state
            .iter()
            .filter(|(_, entry)| expired(entry))
            .map(|(id, _)| id.clone())
            .collect();
        for id in victims {
            // Another thread may have touched, spilled or closed it
            // while an earlier victim was leaving.
            if state.get(&id).is_some_and(expired) {
                let _ = self.spill(state, &id);
                state = self.lock();
            }
        }
        state
    }

    /// Takes the session `id` out of memory by the one protocol
    /// capacity eviction and TTL expiry share, on every store. Under
    /// the map lock (`state`) its slot is `try_lock`ed — a session
    /// mid-turn is left alone — and its value taken; the map lock is
    /// released while the value leaves, so turns on other sessions
    /// never wait behind it, while the victim stays in the map: a turn
    /// on it waits on the slot (then rehydrates or reports it gone), an
    /// open of its id is still "already open". With a persist layer
    /// the value is written there (counted in `spilled`), without one
    /// it is destroyed (counted in `evicted`). Then the slot is flagged
    /// evicted and unlinked, so the id is resolvable at every instant.
    /// Returns with the map lock released.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when the write fails; the value
    /// is put back and the session stays live.
    fn spill(&self, mut state: MutexGuard<'_, Sessions<T>>, id: &str) -> Result<(), Error> {
        let Some(entry) = state.get(id) else {
            return Ok(());
        };
        let slot = Arc::clone(&entry.slot);
        let Ok(mut guard) = slot.value.try_lock() else {
            return Ok(());
        };
        let Some(value) = guard.take() else {
            // Defensive: a value-less slot inside the map is stale
            // state; dropping the entry frees the slot.
            drop(guard);
            state.remove(id);
            return Ok(());
        };
        drop(state);
        let exits = match &self.persist {
            Some(persist) => match persist.spill(id, value) {
                Ok(()) => &self.spilled,
                Err((value, error)) => {
                    *guard = Some(value);
                    return Err(error);
                }
            },
            // Nowhere to write it: the value drops on return, outside
            // the map lock.
            None => &self.evicted,
        };
        // Flag, then unlink under the map lock (slot lock, then map
        // lock), then release the slot: a waiter wakes to the evicted
        // flag and re-resolves — to the spill, which is already
        // durable, or to a typed not-found.
        slot.evicted.store(true, Ordering::Release);
        if unlink(&mut self.lock(), id, &slot) {
            exits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Brings the store below capacity so one insertion fits: the
    /// least-recently-used *idle* session leaves by the one exit
    /// ([`SessionStore::spill`]; a session mid-turn is skipped — its
    /// slot cannot be drained without blocking). When every session is
    /// mid-turn (or reserved by a rehydration), this waits for the LRU
    /// one's slot and goes round again: a session never leaves while
    /// another thread holds it, so its persist calls never overlap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when the spill write fails;
    /// the victim stays live.
    fn make_room(&self) -> Result<(), Error> {
        let capacity = self.config.capacity.max(1);
        loop {
            let state = self.lock();
            if state.len() < capacity {
                return Ok(());
            }
            let idle_lru = state
                .iter()
                .filter(|(_, entry)| entry.slot.value.try_lock().is_ok())
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, _)| id.clone());
            if let Some(id) = idle_lru {
                // A turn that takes the slot before the spill does
                // just sends this round around again.
                self.spill(state, &id)?;
                continue;
            }
            // Every session is mid-turn: wait for the one idle the
            // longest (by logical clock, so the choice is
            // deterministic). A poisoned slot is never idle again; it
            // is destroyed as an access would.
            let (victim, slot) = state
                .iter()
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, entry)| (id.clone(), Arc::clone(&entry.slot)))
                .expect("a non-empty map has a minimum");
            drop(state);
            if slot.value.lock().is_err() {
                self.discard(&victim, &slot);
            }
        }
    }

    /// Opens a session under `id`, constructing its value with `make`.
    ///
    /// Expired sessions are purged first; if the store is still at
    /// capacity, the least-recently-used idle session is spilled to
    /// the persist layer when one is attached ([`SessionStats::spilled`])
    /// or destroyed otherwise ([`SessionStats::evicted`]). `make` runs
    /// *before* the store lock is taken, so an expensive construction
    /// (a full agent session) never stalls turns on other sessions;
    /// the freshly made value is discarded if the id turns out to be
    /// taken.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `id` is empty, longer
    /// than 239 bytes once escaped for a file name (every byte but
    /// `[A-Za-z0-9_-]` takes three), or already names a live session (in memory *or* spilled —
    /// a spilled session is still live until its TTL), and
    /// [`Error::SessionPersist`] when making room required a spill
    /// that failed.
    pub fn open(&self, id: &str, make: impl FnOnce() -> T) -> Result<(), Error> {
        if id.is_empty() {
            return Err(Error::invalid_request("session id must not be empty"));
        }
        let encoded = encode_id(id).len();
        if encoded > MAX_ENCODED_SESSION_ID_BYTES {
            // It could never be spilled: the file name would be too
            // long, so the session would neither expire nor make room.
            return Err(Error::invalid_request(format!(
                "session id is {encoded} bytes once escaped for a file name; the limit is \
                 {MAX_ENCODED_SESSION_ID_BYTES}"
            )));
        }
        let mut value = Some(make());
        loop {
            {
                let mut state = self.purged();
                if state.contains_key(id) {
                    return Err(Error::invalid_request(format!(
                        "session \"{id}\" is already open; close it first or pick another id"
                    )));
                }
                // A cheap existence probe (no I/O beyond a stat), safe
                // under the map lock.
                if self.persist.as_ref().is_some_and(|p| p.contains(id)) {
                    return Err(Error::invalid_request(format!(
                        "session \"{id}\" is spilled but still live; run a turn to \
                         rehydrate it or close it first"
                    )));
                }
                if state.len() < self.config.capacity.max(1) {
                    state.insert(
                        id.to_owned(),
                        Entry {
                            slot: Arc::new(Slot::new(value.take())),
                            last_used: Instant::now(),
                            touched: self.clock.fetch_add(1, Ordering::Relaxed),
                        },
                    );
                    return Ok(());
                }
            }
            // At capacity: free a slot with the map lock released
            // (make_room does the spill I/O off-lock), then re-check
            // everything — the world may have moved.
            self.make_room()?;
        }
    }

    /// Resolves `id` to its slot under the store lock, refreshing its
    /// recency. A map miss with a persist layer attached rehydrates
    /// the spilled session: the id is *reserved* with an empty slot
    /// whose lock this thread holds while the spill file is read and
    /// decoded with the map lock released — concurrent accesses find
    /// the reservation and wait on the slot (per-session
    /// serialization), while other sessions proceed untouched.
    fn resolve(&self, id: &str) -> Result<Arc<Slot<T>>, Error> {
        loop {
            let mut state = self.purged();
            if let Some(entry) = state.get_mut(id) {
                entry.last_used = Instant::now();
                entry.touched = self.clock.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.slot));
            }
            let Some(persist) = self.persist.as_ref().filter(|p| p.contains(id)) else {
                let reason = "no live session has this id (open one first)";
                return Err(Error::session_not_found(id, reason));
            };
            if state.len() >= self.config.capacity.max(1) {
                // Free a slot off-lock, then re-run the whole
                // resolution (another thread may have rehydrated the
                // id meanwhile).
                drop(state);
                self.make_room()?;
                continue;
            }
            // Reserve the id: an empty slot, locked by this thread
            // *before* it becomes visible in the map.
            let slot = Arc::new(Slot::new(None));
            let mut guard = slot.value.lock().expect("freshly created lock");
            state.insert(
                id.to_owned(),
                Entry {
                    slot: Arc::clone(&slot),
                    last_used: Instant::now(),
                    touched: self.clock.fetch_add(1, Ordering::Relaxed),
                },
            );
            drop(state);
            // Read + decode with the map lock released.
            let outcome = match persist.take(id) {
                Ok(Some(value)) => {
                    *guard = Some(value);
                    self.restored.fetch_add(1, Ordering::Relaxed);
                    drop(guard);
                    return Ok(slot);
                }
                Ok(None) => Err(Error::session_not_found(
                    id,
                    "the spilled session expired before this access ran",
                )),
                Err(error) => Err(error),
            };
            // Rehydration failed: withdraw the reservation. Waiters
            // blocked on the slot wake to the evicted flag, re-resolve
            // and get the error themselves.
            slot.evicted.store(true, Ordering::Release);
            unlink(&mut self.lock(), id, &slot);
            drop(guard);
            return outcome;
        }
    }

    /// The one way to a session's value, shared by
    /// [`SessionStore::turn`], [`SessionStore::inspect`] and
    /// [`SessionStore::close`]: resolve (rehydrating if spilled),
    /// serialize on the session lock, hand `f` the value. A slot that
    /// was evicted while this access waited for its lock is
    /// re-resolved — with a persist layer the spilled session
    /// rehydrates instead of failing. `f` always finds a value; a
    /// session closed while this access waited is a typed not-found.
    fn access<R>(
        &self,
        id: &str,
        mode: Access,
        f: impl FnOnce(&mut Option<T>) -> Result<R, Error>,
    ) -> Result<R, Error> {
        let mut f = Some(f);
        // Bounded retries: each round trips only when the session was
        // evicted between resolve and lock acquisition, which needs a
        // concurrent open storm to happen repeatedly.
        for _ in 0..4 {
            let slot = self.resolve(id)?;
            // The store lock is released: turns on other sessions
            // proceed. A poisoned session lock means a previous turn
            // panicked with the value in an unknown state — report it
            // as a typed error and evict the session rather than
            // poisoning every later access (a close included: it never
            // hands out the half-mutated value).
            let Ok(mut value) = slot.value.lock() else {
                self.discard(id, &slot);
                return Err(Error::internal(format!(
                    "session \"{id}\" was lost: an earlier turn panicked mid-execution"
                )));
            };
            if slot.evicted.load(Ordering::Acquire) {
                continue;
            }
            if value.is_none() {
                return Err(Error::session_not_found(
                    id,
                    "the session was closed before this turn ran",
                ));
            }
            let outcome = (f.take().expect("f is called at most once"))(&mut value);
            match mode {
                Access::Inspect => {}
                Access::Turn => {
                    self.turns.fetch_add(1, Ordering::Relaxed);
                    let dirty = slot.dirty_turns.fetch_add(1, Ordering::Relaxed) + 1;
                    // Turn-count spill-ahead trigger: write the snapshot
                    // *now*, on this thread, still holding only this
                    // session's slot lock — the map lock is long
                    // released, so turns on other sessions never block,
                    // and when the write lands the completed turn is
                    // already durable (a crash loses at most a turn
                    // still in flight).
                    if self.spill_ahead_turns.is_some_and(|n| dirty >= n) {
                        if let (Some(persist), Some(live)) = (&self.persist, value.as_ref()) {
                            if let Ok(true) = persist.spill_ahead(id, live) {
                                slot.dirty_turns.store(0, Ordering::Relaxed);
                                self.spilled_ahead.fetch_add(1, Ordering::Relaxed);
                            }
                            // Unsupported layer or write failure: the
                            // turn itself succeeded — leave the dirty
                            // count so the next turn retries.
                        }
                    }
                }
                Access::Close => {
                    // The value is out; the id stayed "already open"
                    // until now. Drop any durable copy first, so the
                    // closed session can never resurrect from a stale
                    // snapshot, then unlink (slot lock, then map lock).
                    if let Some(persist) = &self.persist {
                        persist.forget(id);
                    }
                    unlink(&mut self.lock(), id, &slot);
                }
            }
            return outcome;
        }
        Err(Error::session_not_found(
            id,
            "the session was evicted (capacity or TTL) before this turn ran",
        ))
    }

    /// Runs one turn on session `id`: resolves the slot under the
    /// store lock (refreshing its recency, rehydrating a spilled
    /// session), releases the store lock, then serializes on the
    /// session's own lock and hands the value to `f`. Turns on
    /// distinct sessions never contend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is unknown,
    /// expired, closed, or was destroyed while this turn waited for
    /// the session lock; [`Error::SessionPersist`] when rehydration or
    /// a spill it forced failed; [`Error::Internal`] when an earlier
    /// turn panicked mid-execution and left the session state
    /// unreliable; and whatever `f` reports.
    pub fn turn<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut T) -> Result<R, Error>,
    ) -> Result<R, Error> {
        self.access(id, Access::Turn, |value| f(live(value)))
    }

    /// Read-style access to session `id` — same resolution,
    /// rehydration and locking as [`SessionStore::turn`], but not
    /// counted in [`SessionStats::turns`]. Snapshot export uses this.
    ///
    /// # Errors
    ///
    /// Same as [`SessionStore::turn`].
    pub(crate) fn inspect<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut T) -> Result<R, Error>,
    ) -> Result<R, Error> {
        self.access(id, Access::Inspect, |value| f(live(value)))
    }

    /// Closes session `id` and returns its final value — the same
    /// access as a turn, so it waits for a turn in progress, and the id
    /// stays "already open" meanwhile. A *spilled* session rehydrates
    /// first (counted in [`SessionStats::restored`]) and then closes,
    /// and a closed id never resurrects: any durable copy is dropped.
    ///
    /// # Errors
    ///
    /// Same as [`SessionStore::turn`] — in particular
    /// [`Error::Internal`] when a turn panicked mid-execution: close
    /// refuses to hand out the half-mutated value it left behind.
    pub fn close(&self, id: &str) -> Result<T, Error> {
        self.access(id, Access::Close, |value| {
            Ok(value.take().expect("access found a value"))
        })
    }

    /// Flags `slot` evicted and unlinks `id` if it still points at it,
    /// counted in `evicted`: the poisoned-lock recovery path.
    fn discard(&self, id: &str, slot: &Arc<Slot<T>>) {
        slot.evicted.store(true, Ordering::Release);
        if unlink(&mut self.lock(), id, slot) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What an access does with the session value it reaches.
enum Access {
    /// Reads (or edits) it; not counted as a turn.
    Inspect,
    /// Runs a turn: counted, and written ahead on the turn trigger.
    Turn,
    /// Takes it out and unlinks the session.
    Close,
}

/// The value an access hands over: always present, for
/// [`SessionStore::access`] refuses a closed session first.
fn live<T>(value: &mut Option<T>) -> &mut T {
    value.as_mut().expect("access found a value")
}

/// Removes `id` from the map if it still points at `slot`; whether it
/// did.
fn unlink<T>(state: &mut Sessions<T>, id: &str, slot: &Arc<Slot<T>>) -> bool {
    let current = state
        .get(id)
        .is_some_and(|entry| Arc::ptr_eq(&entry.slot, slot));
    if current {
        state.remove(id);
    }
    current
}
