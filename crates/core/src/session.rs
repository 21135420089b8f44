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
//!   waits for a running turn to end, and eviction destroys a session
//!   mid-turn only when every session is mid-turn). Both edges take a
//!   session out of memory by one protocol (`SessionStore::spill`): the
//!   victim stays in the map, frozen by its slot lock, until it has
//!   left. Without a persist layer it is destroyed: a later turn on it
//!   reports a typed [`Error::SessionNotFound`], never a panic, and
//!   reopening the id starts a brand-new session.
//! * **Durability (spill/rehydrate).** With a [`SessionPersist`] layer
//!   attached ([`SessionStore::with_persist`]) the same exit *spills*
//!   the victim instead, and a later turn / snapshot / close on the
//!   spilled id transparently *rehydrates* it, until the persist
//!   layer's own TTL runs out. [`JsonDirPersist`] writes one JSON file
//!   per session (`chatpattern-serve --session-dir`), optionally fanned
//!   out over shard subdirectories, and so survives a process restart;
//!   [`MemoryPersist`] is the in-process stand-in tests use. A failed
//!   write leaves the victim live — capacity eviction surfaces the
//!   typed [`Error::SessionPersist`], expiry retries at the next purge
//!   — never a panic, never a silent drop.
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

use crate::Error;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

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
    /// persist layer to spill to, lost to a panicking turn, or evicted
    /// mid-turn because every session was mid-turn.
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

/// The session durability layer a [`SessionStore`] spills to on
/// capacity eviction and rehydrates from on the next access.
///
/// The store calls the I/O-heavy operations ([`SessionPersist::spill`],
/// [`SessionPersist::take`]) with its map lock *released* — the
/// affected session is frozen via its own slot lock instead, so slow
/// persist I/O never stalls turns on other sessions. Only the cheap
/// [`SessionPersist::contains`] probe runs under the map lock.
/// Implementations must never call back into the store.
/// [`MemoryPersist`] and [`JsonDirPersist`] are the in-repo
/// implementations.
pub trait SessionPersist<T>: Send + Sync {
    /// Writes `value` under `id`. On failure the value is handed back
    /// with the error so the caller can keep the session live — a
    /// failing persist layer must never silently drop a session.
    ///
    /// # Errors
    ///
    /// Returns the value and an [`Error::SessionPersist`] describing
    /// the write failure.
    fn spill(&self, id: &str, value: T) -> Result<(), (T, Error)>;

    /// Removes and returns the session spilled under `id`; `Ok(None)`
    /// when nothing (live) is spilled there — absent or expired.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when a spilled session exists
    /// but cannot be read back (I/O or decode failure).
    fn take(&self, id: &str) -> Result<Option<T>, Error>;

    /// Whether a live (non-expired) spilled session exists under `id`.
    fn contains(&self, id: &str) -> bool;

    /// Writes a *copy* of `value` under `id` while the session stays
    /// live in memory — the spill-ahead path. Returns `Ok(true)` when
    /// a durable copy landed, `Ok(false)` when the layer does not
    /// support write-ahead copies (the default: [`MemoryPersist`] gains
    /// nothing from one — a crash takes process memory with it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when the write fails; the
    /// live session is unaffected either way.
    fn spill_ahead(&self, id: &str, value: &T) -> Result<bool, Error> {
        let _ = (id, value);
        Ok(false)
    }

    /// Drops any durable copy stored under `id` (spilled or written
    /// ahead). Called when a session closes cleanly so the id cannot
    /// resurrect from a stale spill-ahead snapshot. Best-effort; a
    /// failure is ignored (TTL reaps the file eventually).
    fn forget(&self, id: &str) {
        let _ = id;
    }
}

/// In-memory [`SessionPersist`]: spilled sessions survive eviction but
/// not the process. The stand-in the store's tests and property tests
/// use in place of a directory; a system spills to its
/// [`JsonDirPersist`] or nowhere.
pub struct MemoryPersist<T> {
    ttl: Duration,
    slots: Mutex<HashMap<String, (Instant, T)>>,
}

impl<T> std::fmt::Debug for MemoryPersist<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryPersist")
            .field("ttl", &self.ttl)
            .field("spilled", &self.slots.lock().map(|s| s.len()).unwrap_or(0))
            .finish()
    }
}

impl<T> MemoryPersist<T> {
    /// Creates an empty layer whose spilled sessions expire after
    /// `ttl` (matching the store's idle TTL).
    #[must_use]
    pub fn new(ttl: Duration) -> MemoryPersist<T> {
        MemoryPersist {
            ttl,
            slots: Mutex::new(HashMap::new()),
        }
    }
}

impl<T: Send> SessionPersist<T> for MemoryPersist<T> {
    fn spill(&self, id: &str, value: T) -> Result<(), (T, Error)> {
        let mut slots = self.slots.lock().expect("memory persist lock");
        slots.insert(id.to_owned(), (Instant::now(), value));
        Ok(())
    }

    fn take(&self, id: &str) -> Result<Option<T>, Error> {
        let mut slots = self.slots.lock().expect("memory persist lock");
        Ok(slots
            .remove(id)
            .and_then(|(spilled_at, value)| (spilled_at.elapsed() <= self.ttl).then_some(value)))
    }

    fn contains(&self, id: &str) -> bool {
        let mut slots = self.slots.lock().expect("memory persist lock");
        match slots.get(id) {
            Some((spilled_at, _)) if spilled_at.elapsed() <= self.ttl => true,
            Some(_) => {
                slots.remove(id);
                false
            }
            None => false,
        }
    }
}

/// Filename suffix of every spilled-session file.
const SPILL_SUFFIX: &str = ".session.json";

/// Escapes a session id into a filesystem-safe filename stem:
/// alphanumerics, `_` and `-` pass through, every other byte becomes
/// `%XX`, so distinct ids never share a file.
fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for byte in id.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(byte as char),
            other => {
                out.push('%');
                out.push_str(&format!("{other:02X}"));
            }
        }
    }
    out
}

/// Longest [`encode_id`] form a session id may have: 255 (`NAME_MAX`)
/// less `.session.corrupt`, the longest name [`JsonDirPersist`] gives
/// a file. Held by every store, with a directory or without, so a
/// session the router moves is accepted on whichever worker it lands.
const MAX_ENCODED_SESSION_ID_BYTES: usize = 239;

/// Filename suffix of the temp file a spill write stages through
/// (`foo.session.json` is written as `foo.session.tmp`, then renamed).
const SPILL_TMP_SUFFIX: &str = ".session.tmp";

/// JSON-file [`SessionPersist`]: one `<escaped-id>.session.json` per
/// spilled session under a directory, so spilled sessions survive a
/// process restart (`chatpattern-serve --session-dir`). Spill writes
/// go through a temp file + rename, so a crash mid-spill never leaves
/// a half-written session file under the spill name; temp files a
/// crash *did* strand are swept on construction. Expiry uses the
/// file's modification time against the configured TTL.
///
/// With `shards > 1` (`JsonDirPersist::sharded`) the files fan out
/// over `shard-N/` subdirectories keyed by the stable routing hash of
/// the id, each shard guarded by its own lock — a 10k-session
/// directory neither serializes every spill on one directory nor
/// forces a restart to scan one giant listing. Rehydration stays lazy:
/// nothing is read until an id is actually touched. A sharded layer
/// still finds files spilled by an earlier unsharded run in the
/// directory root, so turning sharding on over an existing directory
/// loses nothing. The other way round is refused: a directory keeps
/// the shard count it was created with, since a session filed under
/// `shard-(hash % N)` cannot be found under another `N`.
///
/// The layer is generic: `encode`/`decode` close over whatever
/// dependencies reconstruction needs (for `ChatSession`, the trained
/// sampler and the legalizer — see
/// [`ChatPatternBuilder::session_dir`](crate::ChatPatternBuilder::session_dir)).
pub struct JsonDirPersist<T> {
    dir: PathBuf,
    ttl: Duration,
    shards: Vec<Shard>,
    encode: PersistEncode<T>,
    decode: PersistDecode<T>,
}

/// One spill subdirectory and the lock serializing multi-step
/// filesystem operations inside it.
struct Shard {
    dir: PathBuf,
    lock: Mutex<()>,
}

/// Serializer of a [`JsonDirPersist`]: renders a session value as the
/// JSON text of one spill file.
pub type PersistEncode<T> = Box<dyn Fn(&T) -> Result<String, Error> + Send + Sync>;

/// Deserializer of a [`JsonDirPersist`]: rebuilds a session value from
/// one spill file's JSON text, re-injecting whatever dependencies the
/// closure captured.
pub type PersistDecode<T> = Box<dyn Fn(&str) -> Result<T, Error> + Send + Sync>;

impl<T> std::fmt::Debug for JsonDirPersist<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonDirPersist")
            .field("dir", &self.dir)
            .field("ttl", &self.ttl)
            .finish_non_exhaustive()
    }
}

impl<T> JsonDirPersist<T> {
    /// Creates an unsharded layer (all files directly under `dir`),
    /// creating `dir` if needed. Equivalent to
    /// `JsonDirPersist::sharded` with one shard.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when the directory cannot be
    /// created.
    pub fn new(
        dir: impl Into<PathBuf>,
        ttl: Duration,
        encode: impl Fn(&T) -> Result<String, Error> + Send + Sync + 'static,
        decode: impl Fn(&str) -> Result<T, Error> + Send + Sync + 'static,
    ) -> Result<JsonDirPersist<T>, Error> {
        JsonDirPersist::sharded(dir, ttl, 1, encode, decode)
    }

    /// Creates the layer with `shards` spill subdirectories
    /// (`shard-0/` … `shard-N-1/`; `shards <= 1` keeps the flat
    /// layout), creating them if needed. Stale `*.session.tmp` files a
    /// crashed writer stranded are swept here — only the directory
    /// listings are read, never file contents, so construction over a
    /// 10k-session directory does not stall startup.
    ///
    /// A directory keeps the shard count it was created with: one that
    /// already holds `shard-k` subdirectories opens only with
    /// `shards` equal to one more than the largest `k`. A flat
    /// directory may be opened with any count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] when a directory cannot be
    /// created, or when `dir` was created with another shard count;
    /// then no file is touched.
    pub(crate) fn sharded(
        dir: impl Into<PathBuf>,
        ttl: Duration,
        shards: usize,
        encode: impl Fn(&T) -> Result<String, Error> + Send + Sync + 'static,
        decode: impl Fn(&str) -> Result<T, Error> + Send + Sync + 'static,
    ) -> Result<JsonDirPersist<T>, Error> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            Error::session_persist(format!("cannot create session dir {}: {e}", dir.display()))
        })?;
        let existing = Self::existing_shard_count(&dir);
        if existing != 0 && (shards <= 1 || existing != shards) {
            return Err(Error::session_persist(format!(
                "session dir {} was created with {existing} shards and cannot be opened with {}: \
                 a session directory keeps the shard count it was created with",
                dir.display(),
                shards.max(1)
            )));
        }
        let shard_dirs: Vec<PathBuf> = if shards <= 1 {
            vec![dir.clone()]
        } else {
            (0..shards)
                .map(|i| dir.join(format!("shard-{i}")))
                .collect()
        };
        let mut built = Vec::with_capacity(shard_dirs.len());
        for shard_dir in shard_dirs {
            std::fs::create_dir_all(&shard_dir).map_err(|e| {
                Error::session_persist(format!(
                    "cannot create session shard dir {}: {e}",
                    shard_dir.display()
                ))
            })?;
            Self::sweep_stale_tmp(&shard_dir);
            built.push(Shard {
                dir: shard_dir,
                lock: Mutex::new(()),
            });
        }
        // A sharded layer over a previously flat directory: the root
        // may hold legacy spills (and legacy tmp litter).
        if built.len() > 1 {
            Self::sweep_stale_tmp(&dir);
        }
        Ok(JsonDirPersist {
            dir,
            ttl,
            shards: built,
            encode: Box::new(encode),
            decode: Box::new(decode),
        })
    }

    /// One more than the largest `k` of a `shard-k` subdirectory of
    /// `dir`, or 0 when there is none: the shard count the directory
    /// was created with.
    fn existing_shard_count(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|entry| entry.file_type().is_ok_and(|kind| kind.is_dir()))
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                name.strip_prefix("shard-")?.parse::<usize>().ok()
            })
            .map(|k| k + 1)
            .max()
            .unwrap_or(0)
    }

    /// Removes `*.session.tmp` litter a crashed mid-spill writer left
    /// in `dir`. At construction time no write of ours is in flight,
    /// so every tmp file there is an orphan.
    fn sweep_stale_tmp(dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.ends_with(SPILL_TMP_SUFFIX) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The shard owning `id`, by the same stable hash the router uses
    /// to pin sessions to workers.
    fn shard(&self, id: &str) -> &Shard {
        let index = (crate::routing::route_hash(id) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    fn path(&self, id: &str) -> PathBuf {
        self.shard(id)
            .dir
            .join(format!("{}{SPILL_SUFFIX}", encode_id(id)))
    }

    /// The pre-sharding flat location of `id` — consulted as a
    /// fallback so enabling shards over an existing directory still
    /// finds (and migrates-by-consumption) old spills.
    fn legacy_path(&self, id: &str) -> Option<PathBuf> {
        (self.shards.len() > 1).then(|| self.dir.join(format!("{}{SPILL_SUFFIX}", encode_id(id))))
    }

    /// Whether the file at `path` is younger than the TTL. Unreadable
    /// metadata counts as expired.
    fn is_live(&self, path: &Path) -> bool {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age <= self.ttl)
    }

    /// Encodes `value` and lands it at `id`'s spill path via the
    /// temp-file + rename protocol, under the owning shard's lock.
    fn write(&self, id: &str, value: &T) -> Result<(), Error> {
        let text = (self.encode)(value)?;
        let path = self.path(id);
        let tmp = path.with_extension("tmp");
        let _guard = self.shard(id).lock.lock().expect("session shard lock");
        std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|error| {
                let _ = std::fs::remove_file(&tmp);
                Error::session_persist(format!(
                    "cannot spill session \"{id}\" to {}: {error}",
                    path.display()
                ))
            })
    }

    /// Resolves the live on-disk location of `id`, preferring the
    /// sharded path and falling back to the legacy flat path. Expired
    /// files are unlinked on sight. Call with the shard lock held.
    fn live_path(&self, id: &str) -> Option<PathBuf> {
        for path in std::iter::once(self.path(id)).chain(self.legacy_path(id)) {
            if !path.exists() {
                continue;
            }
            if !self.is_live(&path) {
                let _ = std::fs::remove_file(&path);
                continue;
            }
            return Some(path);
        }
        None
    }
}

impl<T: Send> SessionPersist<T> for JsonDirPersist<T> {
    fn spill(&self, id: &str, value: T) -> Result<(), (T, Error)> {
        match self.write(id, &value) {
            Ok(()) => Ok(()),
            Err(error) => Err((value, error)),
        }
    }

    fn take(&self, id: &str) -> Result<Option<T>, Error> {
        let shard = self.shard(id);
        let _guard = shard.lock.lock().expect("session shard lock");
        let Some(path) = self.live_path(id) else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(&path).map_err(|e| {
            Error::session_persist(format!(
                "cannot read spilled session \"{id}\" from {}: {e}",
                path.display()
            ))
        })?;
        let value = match (self.decode)(&text) {
            Ok(value) => value,
            Err(error) => {
                // An undecodable spill file (corrupt, or written by an
                // incompatible snapshot format) must not brick its id
                // until TTL: quarantine it aside — preserved for
                // forensics, invisible to `contains` — so the error
                // surfaces once and the id frees up for a fresh open.
                let _ = std::fs::rename(&path, path.with_extension("corrupt"));
                return Err(error);
            }
        };
        let _ = std::fs::remove_file(&path);
        Ok(Some(value))
    }

    fn contains(&self, id: &str) -> bool {
        let shard = self.shard(id);
        let _guard = shard.lock.lock().expect("session shard lock");
        self.live_path(id).is_some()
    }

    fn spill_ahead(&self, id: &str, value: &T) -> Result<bool, Error> {
        self.write(id, value)?;
        Ok(true)
    }

    fn forget(&self, id: &str) {
        let shard = self.shard(id);
        let _guard = shard.lock.lock().expect("session shard lock");
        let _ = std::fs::remove_file(self.path(id));
        if let Some(legacy) = self.legacy_path(id) {
            let _ = std::fs::remove_file(legacy);
        }
    }
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
/// durability. See the [module docs](self).
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
    /// slot cannot be drained without blocking). Only when every
    /// session is mid-turn is the LRU victim destroyed in place.
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
            // Every session is mid-turn: destroy the one idle the
            // longest (by logical clock, so the choice is
            // deterministic); its running turn finishes on the slot it
            // holds.
            let (victim, slot) = state
                .iter()
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, entry)| (id.clone(), Arc::clone(&entry.slot)))
                .expect("a non-empty map has a minimum");
            drop(state);
            self.discard(&victim, &slot);
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
    /// counted in `evicted`: the poisoned-lock recovery path, and
    /// capacity eviction when every session is mid-turn.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread;

    fn store(capacity: usize, ttl_secs: u64) -> SessionStore<Vec<u64>> {
        SessionStore::new(SessionConfig {
            capacity,
            ttl: Duration::from_secs(ttl_secs),
        })
    }

    #[test]
    fn open_turn_close_round_trips() {
        let store = store(4, 3600);
        store.open("a", Vec::new).expect("opens");
        let len = store
            .turn("a", |v| {
                v.push(7);
                Ok(v.len())
            })
            .expect("turn runs");
        assert_eq!(len, 1);
        let final_value = store.close("a").expect("closes");
        assert_eq!(final_value, vec![7]);
        assert!(matches!(
            store.turn("a", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        let stats = store.stats();
        assert_eq!((stats.open, stats.evicted, stats.turns), (0, 0, 1));
    }

    /// The id's escaped form counts, not its length: `/` is `%2F`.
    #[test]
    fn an_id_is_refused_past_239_bytes_escaped_on_every_store() {
        let store = store(4, 3600);
        store
            .open(&"a".repeat(239), Vec::new)
            .expect("239 bytes open");
        for id in ["b".repeat(240), "/".repeat(80)] {
            match store.open(&id, Vec::new) {
                Err(Error::InvalidRequest { message }) => {
                    assert!(
                        message.contains("240 bytes") && message.contains("239"),
                        "{message}"
                    );
                }
                other => panic!("a {}-byte id opened: {other:?}", id.len()),
            }
        }
        assert_eq!(store.stats().open, 1);
    }

    #[test]
    fn duplicate_and_empty_ids_are_rejected() {
        let store = store(4, 3600);
        store.open("a", Vec::new).expect("opens");
        assert!(matches!(
            store.open("a", Vec::new),
            Err(Error::InvalidRequest { .. })
        ));
        assert!(matches!(
            store.open("", Vec::new),
            Err(Error::InvalidRequest { .. })
        ));
    }

    #[test]
    fn capacity_evicts_the_least_recently_used() {
        let store = store(2, 3600);
        store.open("a", Vec::new).expect("opens");
        store.open("b", Vec::new).expect("opens");
        // Touch "a" so "b" becomes the LRU victim.
        store.turn("a", |_| Ok(())).expect("touch");
        store.open("c", Vec::new).expect("opens, evicting b");
        assert_eq!(store.len(), 2);
        assert!(matches!(
            store.turn("b", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        store.turn("a", |_| Ok(())).expect("a survived");
        store.turn("c", |_| Ok(())).expect("c is live");
        assert_eq!(store.stats().evicted, 1);
        // The evicted id can be reopened as a fresh session.
        store.open("b", || vec![99]).expect("reopens");
        let v = store.turn("b", |v| Ok(v.clone())).expect("fresh state");
        assert_eq!(v, vec![99]);
    }

    #[test]
    fn zero_ttl_expires_immediately() {
        let store = store(4, 0);
        store.open("a", Vec::new).expect("opens");
        thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            store.turn("a", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        assert_eq!(store.stats().evicted, 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn eviction_mid_turn_is_a_typed_error_not_a_panic() {
        let store = Arc::new(store(1, 3600));
        store.open("a", Vec::new).expect("opens");
        // A turn that holds the session lock while the main thread
        // evicts it by opening a new session.
        let in_turn = Arc::new(AtomicBool::new(false));
        let store2 = Arc::clone(&store);
        let flag = Arc::clone(&in_turn);
        let long_turn = thread::spawn(move || {
            store2.turn("a", |v| {
                flag.store(true, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(50));
                v.push(1);
                Ok(v.len())
            })
        });
        while !in_turn.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        // Capacity 1: this evicts "a" while its turn is running.
        store.open("b", Vec::new).expect("opens, evicting a");
        // The running turn completes cleanly — it owned the slot.
        assert_eq!(long_turn.join().expect("no panic").expect("turn ran"), 1);
        // The next turn on the evicted id is a typed error.
        match store.turn("a", |_| Ok(())) {
            Err(Error::SessionNotFound { id, .. }) => assert_eq!(id, "a"),
            other => panic!("expected SessionNotFound, got {other:?}"),
        }
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn concurrent_turns_on_one_session_serialize() {
        let store = Arc::new(store(2, 3600));
        store.open("a", Vec::new).expect("opens");
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            threads.push(thread::spawn(move || {
                for i in 0..25u64 {
                    store
                        .turn("a", |v| {
                            // Non-atomic read-modify-write: only mutual
                            // exclusion keeps the count exact.
                            let n = v.len() as u64;
                            v.push(t * 100 + i);
                            v.push(n);
                            Ok(())
                        })
                        .expect("turn runs");
                }
            }));
        }
        for t in threads {
            t.join().expect("no panic");
        }
        let v = store.close("a").expect("closes");
        assert_eq!(v.len(), 200, "no interleaved lost updates");
        // Every even index recorded the length it observed — strictly
        // increasing iff turns were serialized.
        for (i, chunk) in v.chunks(2).enumerate() {
            assert_eq!(chunk[1], (i as u64) * 2);
        }
        assert_eq!(store.stats().turns, 100);
    }

    #[test]
    fn panicking_turn_does_not_poison_the_store() {
        let store = Arc::new(store(2, 3600));
        store.open("a", Vec::new).expect("opens");
        let store2 = Arc::clone(&store);
        let _ = thread::spawn(move || {
            store2.turn("a", |_| -> Result<(), Error> { panic!("turn exploded") })
        })
        .join()
        .expect_err("the panic propagates to its own thread");
        // The session is discarded with a typed error, and the store
        // keeps working.
        let err = store.turn("a", |_| Ok(())).expect_err("session lost");
        assert!(
            matches!(err, Error::Internal { .. } | Error::SessionNotFound { .. }),
            "{err:?}"
        );
        store.open("b", Vec::new).expect("store still functional");
        store.turn("b", |_| Ok(())).expect("turn runs");
    }

    #[test]
    fn close_after_panicking_turn_refuses_the_corrupt_value() {
        let store = Arc::new(store(2, 3600));
        store.open("a", || vec![1]).expect("opens");
        let store2 = Arc::clone(&store);
        let _ = thread::spawn(move || {
            store2.turn("a", |_| -> Result<(), Error> { panic!("turn exploded") })
        })
        .join()
        .expect_err("the panic propagates to its own thread");
        // Close must not resurrect the half-mutated value as a
        // successful outcome.
        let err = store.close("a").expect_err("corrupt session not returned");
        assert!(
            matches!(err, Error::Internal { .. } | Error::SessionNotFound { .. }),
            "{err:?}"
        );
        // Either way the id is free again.
        store
            .open("a", Vec::new)
            .expect("id reusable after the loss");
    }

    #[test]
    fn config_validation_rejects_zero_capacity() {
        let err = SessionConfig {
            capacity: 0,
            ttl: Duration::from_secs(1),
        }
        .validate()
        .expect_err("zero capacity rejected");
        assert!(matches!(err, Error::Config { .. }));
        assert!(SessionConfig::default().validate().is_ok());
    }

    #[test]
    fn distinct_sessions_do_not_block_each_other() {
        let store = Arc::new(store(2, 3600));
        store.open("slow", Vec::new).expect("opens");
        store.open("fast", Vec::new).expect("opens");
        let gate = Arc::new(AtomicBool::new(false));
        let store2 = Arc::clone(&store);
        let gate2 = Arc::clone(&gate);
        let slow = thread::spawn(move || {
            store2.turn("slow", |_| {
                // Hold the slow session's lock until the fast turn ran.
                let mut spins = 0usize;
                while !gate2.load(Ordering::SeqCst) {
                    thread::yield_now();
                    spins += 1;
                    assert!(spins < 100_000_000, "fast session was blocked");
                }
                Ok(())
            })
        });
        // This turn must complete while "slow" still holds its lock.
        store.turn("fast", |_| Ok(())).expect("fast turn runs");
        gate.store(true, Ordering::SeqCst);
        slow.join().expect("no panic").expect("slow turn runs");
    }

    /// Counts drops so eviction-vs-Arc lifetimes are visible.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn spill_store(capacity: usize, ttl_secs: u64) -> SessionStore<Vec<u64>> {
        let ttl = Duration::from_secs(ttl_secs);
        SessionStore::with_persist(
            SessionConfig { capacity, ttl },
            Arc::new(MemoryPersist::new(ttl)),
        )
    }

    #[test]
    fn eviction_with_a_persist_layer_spills_instead_of_deleting() {
        let store = spill_store(1, 3600);
        store.open("a", || vec![1]).expect("opens");
        store.open("b", || vec![2]).expect("opens, spilling a");
        // "a" was spilled, not destroyed: a turn rehydrates it with
        // its value intact (and spills "b" to make room).
        let value = store.turn("a", |v| Ok(v.clone())).expect("rehydrates");
        assert_eq!(value, vec![1]);
        let value = store.turn("b", |v| Ok(v.clone())).expect("rehydrates");
        assert_eq!(value, vec![2]);
        let stats = store.stats();
        assert_eq!(stats.evicted, 0, "nothing was destroyed");
        assert_eq!(stats.spilled, 3, "a, then b, then a again");
        assert_eq!(stats.restored, 2);
        assert_eq!(stats.open, 1);
    }

    #[test]
    fn spilled_sessions_close_with_their_value() {
        let store = spill_store(1, 3600);
        store.open("a", || vec![7]).expect("opens");
        store.open("b", Vec::new).expect("opens, spilling a");
        assert_eq!(store.close("a").expect("closes from spill"), vec![7]);
        // Closed is closed: the id does not resurrect.
        assert!(matches!(
            store.turn("a", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        // And it is free to reopen as a fresh session.
        store.open("a", Vec::new).expect("reopens fresh");
        assert_eq!(store.stats().restored, 1);
    }

    #[test]
    fn reopening_a_spilled_id_is_rejected_like_a_live_one() {
        let store = spill_store(1, 3600);
        store.open("a", Vec::new).expect("opens");
        store.open("b", Vec::new).expect("opens, spilling a");
        let err = store.open("a", Vec::new).expect_err("a is still live");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
    }

    #[test]
    fn spilled_sessions_expire_at_ttl() {
        let store = spill_store(1, 0);
        store.open("a", Vec::new).expect("opens");
        // Zero TTL: "a" expires in the live map before the next access
        // runs. With a persist layer attached expiry *spills* (the
        // purge-path fix — destruction would break rehydration within
        // the persist TTL), and here the persist TTL is zero too, so
        // the spilled entry is expired by the time the turn looks.
        thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            store.turn("a", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        assert_eq!(store.stats().evicted, 0, "expiry spilled, not destroyed");
        assert_eq!(store.stats().spilled, 1);
        assert_eq!(store.stats().restored, 0);
    }

    #[test]
    fn expired_warm_sessions_spill_and_rehydrate_within_persist_ttl() {
        // Regression: `purge_locked` used to destroy expired sessions
        // outright even with a persist layer attached — an idle-past-
        // TTL session silently lost all durable state. Store TTL zero,
        // persist TTL long: the purge must spill, and the next touch
        // must rehydrate with the value intact.
        let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
            SessionConfig {
                capacity: 4,
                ttl: Duration::ZERO,
            },
            Arc::new(MemoryPersist::new(Duration::from_secs(3600))),
        );
        store.open("idle", || vec![42]).expect("opens");
        thread::sleep(Duration::from_millis(2));
        let value = store
            .turn("idle", |v| Ok(v.clone()))
            .expect("an expired-but-spilled session rehydrates");
        assert_eq!(value, vec![42], "no state was lost to the purge");
        let stats = store.stats();
        assert_eq!(stats.evicted, 0, "nothing was destroyed");
        assert!(stats.spilled >= 1, "expiry went through the spill path");
        assert!(stats.restored >= 1);
    }

    #[test]
    fn spilled_entries_expire_in_the_persist_layer() {
        // Store TTL is long, persist TTL is zero: the spill succeeds
        // but the spilled entry is expired by the time it is touched.
        let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
            SessionConfig {
                capacity: 1,
                ttl: Duration::from_secs(3600),
            },
            Arc::new(MemoryPersist::new(Duration::ZERO)),
        );
        store.open("a", Vec::new).expect("opens");
        store.open("b", Vec::new).expect("opens, spilling a");
        assert_eq!(store.stats().spilled, 1);
        thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            store.turn("a", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        assert_eq!(store.stats().restored, 0);
    }

    /// A persist layer whose writes always fail.
    struct FailingPersist;

    impl SessionPersist<Vec<u64>> for FailingPersist {
        fn spill(&self, id: &str, value: Vec<u64>) -> Result<(), (Vec<u64>, Error)> {
            Err((
                value,
                Error::session_persist(format!("disk full writing \"{id}\"")),
            ))
        }

        fn take(&self, _id: &str) -> Result<Option<Vec<u64>>, Error> {
            Ok(None)
        }

        fn contains(&self, _id: &str) -> bool {
            false
        }
    }

    #[test]
    fn spill_write_failure_is_a_typed_error_and_keeps_the_victim_live() {
        let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
            SessionConfig {
                capacity: 1,
                ttl: Duration::from_secs(3600),
            },
            Arc::new(FailingPersist),
        );
        store.open("a", || vec![5]).expect("opens");
        // The open that would spill "a" fails with the typed error…
        let err = store.open("b", Vec::new).expect_err("spill write fails");
        assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
        assert!(err.to_string().contains("disk full"), "{err}");
        // …and "a" is neither dropped nor corrupted.
        let value = store.turn("a", |v| Ok(v.clone())).expect("a is live");
        assert_eq!(value, vec![5]);
        let stats = store.stats();
        assert_eq!(
            (stats.open, stats.evicted, stats.spilled, stats.restored),
            (1, 0, 0, 0)
        );
    }

    #[test]
    fn spill_and_restore_counters_are_exact_over_a_sweep() {
        // Capacity 2, six sessions, one turn each: every open beyond
        // capacity spills one LRU victim, every turn on a spilled id
        // restores it and spills another. All deterministic.
        let store = spill_store(2, 3600);
        for i in 0..6u64 {
            store
                .open(&format!("s{i}"), move || vec![i])
                .expect("opens");
        }
        // Opens: s2..s5 each spilled the then-LRU → 4 spills.
        assert_eq!(store.stats().spilled, 4);
        for i in 0..6u64 {
            let value = store
                .turn(&format!("s{i}"), |v| Ok(v.clone()))
                .expect("every session still serves turns");
            assert_eq!(value, vec![i], "session s{i} kept its state");
        }
        let stats = store.stats();
        // Turns: s0..s3 were spilled at sweep start; each turn
        // restored one and spilled one; s4 and s5 were spilled by the
        // first two restores, so their turns restored them too.
        assert_eq!(stats.restored, 6);
        assert_eq!(stats.spilled, 4 + 6);
        assert_eq!(stats.evicted, 0, "durability means nothing is destroyed");
        assert_eq!(stats.turns, 6);
        assert_eq!(stats.open, 2);
    }

    #[test]
    fn inspect_does_not_count_as_a_turn() {
        let store = spill_store(2, 3600);
        store.open("a", || vec![9]).expect("opens");
        let seen = store.inspect("a", |v| Ok(v.clone())).expect("inspects");
        assert_eq!(seen, vec![9]);
        assert_eq!(store.stats().turns, 0);
        store.turn("a", |_| Ok(())).expect("turn runs");
        assert_eq!(store.stats().turns, 1);
    }

    #[test]
    fn json_dir_persist_round_trips_and_survives_a_new_store() {
        let dir = std::env::temp_dir().join(format!(
            "cp-session-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let ttl = Duration::from_secs(3600);
        let persist = |dir: &std::path::Path| -> Arc<dyn SessionPersist<Vec<u64>>> {
            Arc::new(
                JsonDirPersist::new(
                    dir,
                    ttl,
                    |v: &Vec<u64>| {
                        serde_json::to_string(v).map_err(|e| Error::session_persist(e.to_string()))
                    },
                    |text| {
                        serde_json::from_str(text)
                            .map_err(|e| Error::session_persist(e.to_string()))
                    },
                )
                .expect("dir created"),
            )
        };
        {
            let layer = persist(&dir);
            let store: SessionStore<Vec<u64>> =
                SessionStore::with_persist(SessionConfig { capacity: 1, ttl }, Arc::clone(&layer));
            store.open("weird id/♥", || vec![1, 2, 3]).expect("opens");
            store.open("other", Vec::new).expect("opens, spilling");
            assert_eq!(store.stats().spilled, 1);
            assert!(
                layer.contains("weird id/♥"),
                "ids round-trip through filename escaping"
            );
        }
        // A brand-new store over the same directory — the restart
        // story — rehydrates the spilled session.
        let store: SessionStore<Vec<u64>> =
            SessionStore::with_persist(SessionConfig { capacity: 4, ttl }, persist(&dir));
        let value = store
            .turn("weird id/♥", |v| Ok(v.clone()))
            .expect("rehydrates across store instances");
        assert_eq!(value, vec![1, 2, 3]);
        assert_eq!(store.stats().restored, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_spill_file_errors_once_then_frees_the_id() {
        let dir = std::env::temp_dir().join(format!(
            "cp-session-corrupt-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let ttl = Duration::from_secs(3600);
        let persist: Arc<dyn SessionPersist<Vec<u64>>> = Arc::new(
            JsonDirPersist::new(
                &dir,
                ttl,
                |v: &Vec<u64>| {
                    serde_json::to_string(v).map_err(|e| Error::session_persist(e.to_string()))
                },
                |text| {
                    serde_json::from_str(text).map_err(|e| Error::session_persist(e.to_string()))
                },
            )
            .expect("dir created"),
        );
        // A spill file that cannot decode (wrong shape / old format).
        std::fs::write(dir.join("bad.session.json"), "{not json").expect("written");
        let store: SessionStore<Vec<u64>> =
            SessionStore::with_persist(SessionConfig { capacity: 4, ttl }, persist);
        // First touch surfaces the typed error…
        let err = store
            .turn("bad", |_| Ok(()))
            .expect_err("corrupt spill file must error");
        assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
        // …and quarantines the file: the id is NOT bricked until TTL —
        // it can be reopened fresh immediately.
        store
            .open("bad", || vec![1])
            .expect("quarantine frees the id for a fresh open");
        let value = store.turn("bad", |v| Ok(v.clone())).expect("fresh session");
        assert_eq!(value, vec![1]);
        // The corrupt bytes were preserved for forensics, off to the
        // side where `contains` no longer sees them.
        assert!(dir.join("bad.session.corrupt").exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A persist layer whose spill blocks until released, so tests can
    /// observe what the store lets happen *during* spill I/O.
    struct GatedPersist {
        in_spill: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
        inner: MemoryPersist<Vec<u64>>,
    }

    impl SessionPersist<Vec<u64>> for GatedPersist {
        fn spill(&self, id: &str, value: Vec<u64>) -> Result<(), (Vec<u64>, Error)> {
            self.in_spill.store(true, Ordering::SeqCst);
            let mut spins = 0usize;
            while !self.release.load(Ordering::SeqCst) {
                thread::yield_now();
                spins += 1;
                assert!(spins < 100_000_000, "spill gate never released");
            }
            self.inner.spill(id, value)
        }

        fn take(&self, id: &str) -> Result<Option<Vec<u64>>, Error> {
            self.inner.take(id)
        }

        fn contains(&self, id: &str) -> bool {
            self.inner.contains(id)
        }
    }

    #[test]
    fn spill_io_does_not_block_turns_on_other_sessions() {
        let ttl = Duration::from_secs(3600);
        let in_spill = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let store: Arc<SessionStore<Vec<u64>>> = Arc::new(SessionStore::with_persist(
            SessionConfig { capacity: 2, ttl },
            Arc::new(GatedPersist {
                in_spill: Arc::clone(&in_spill),
                release: Arc::clone(&release),
                inner: MemoryPersist::new(ttl),
            }),
        ));
        store.open("victim", || vec![1]).expect("opens");
        store.open("bystander", Vec::new).expect("opens");
        // Make "victim" the LRU, then trigger a spill that blocks in
        // the gated persist layer.
        store.turn("bystander", |_| Ok(())).expect("touch");
        let store2 = Arc::clone(&store);
        let opener = thread::spawn(move || store2.open("new", Vec::new));
        while !in_spill.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        // The spill write is in flight. Turns on *other* sessions must
        // proceed — the store map lock is not held across persist I/O.
        store
            .turn("bystander", |v| {
                v.push(7);
                Ok(())
            })
            .expect("bystander turn runs during the spill write");
        release.store(true, Ordering::SeqCst);
        opener.join().expect("no panic").expect("open completes");
        // And the spilled victim rehydrates with its state intact.
        let value = store.turn("victim", |v| Ok(v.clone())).expect("rehydrates");
        assert_eq!(value, vec![1]);
    }

    /// References to `id`'s slot: the map's, plus one for every thread
    /// that holds it — a spiller, or a turn waiting on its lock.
    fn slot_refs(store: &SessionStore<Vec<u64>>, id: &str) -> usize {
        let state = store.lock();
        state
            .get(id)
            .map_or(0, |entry| Arc::strong_count(&entry.slot))
    }

    #[test]
    fn an_expired_session_stays_resolvable_while_its_spill_is_written() {
        // Store TTL a few ms, persist TTL long: "x" expires, and the
        // purge inside open("y") spills it through the gate.
        let in_spill = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let store: Arc<SessionStore<Vec<u64>>> = Arc::new(SessionStore::with_persist(
            SessionConfig {
                capacity: 4,
                ttl: Duration::from_millis(5),
            },
            Arc::new(GatedPersist {
                in_spill: Arc::clone(&in_spill),
                release: Arc::clone(&release),
                inner: MemoryPersist::new(Duration::from_secs(3600)),
            }),
        ));
        store.open("x", || vec![1]).expect("opens");
        thread::sleep(Duration::from_millis(10));
        let store2 = Arc::clone(&store);
        let opener = thread::spawn(move || store2.open("y", Vec::new));
        while !in_spill.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        // The write of "x" is in flight. A turn on it must wait for the
        // write and rehydrate, not miss the id: it parks on the slot
        // beside the map's reference and the spiller's.
        let store2 = Arc::clone(&store);
        let turner = thread::spawn(move || store2.turn("x", |v| Ok(v.clone())));
        while slot_refs(&store, "x") < 3 && !turner.is_finished() {
            thread::yield_now();
        }
        let reopened = store.open("x", Vec::new);
        let evicted_mid_spill = store.stats().evicted;
        release.store(true, Ordering::SeqCst);
        opener.join().expect("no panic").expect("y opens");
        let turned = turner.join().expect("no panic");
        match reopened {
            Err(Error::InvalidRequest { message }) => {
                assert!(message.contains("already open"), "{message}");
            }
            other => panic!("a second \"x\" opened while the first was spilling: {other:?}"),
        }
        assert_eq!(turned.expect("x is live throughout its spill"), vec![1]);
        assert_eq!((evicted_mid_spill, store.stats().evicted), (0, 0));
    }

    /// Starts a turn on `id`, on a thread of its own, that pushes
    /// `write` once the returned sender is dropped; returns once the
    /// turn holds the session.
    fn gated_turn(
        store: &Arc<SessionStore<Vec<u64>>>,
        id: &'static str,
        write: u64,
    ) -> (mpsc::Sender<()>, thread::JoinHandle<Result<usize, Error>>) {
        let (entered, turn_running) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let store = Arc::clone(store);
        let turn = thread::spawn(move || {
            store.turn(id, |v| {
                entered.send(()).expect("the test waits for the turn");
                let _ = gate.recv();
                v.push(write);
                Ok(v.len())
            })
        });
        turn_running.recv().expect("the gated turn runs");
        (release, turn)
    }

    #[test]
    fn without_a_directory_eviction_takes_the_idle_lru_not_a_session_mid_turn() {
        let store = Arc::new(store(2, 3600));
        store.open("a", Vec::new).expect("opens");
        store.open("b", Vec::new).expect("opens");
        let (release, a_turn) = gated_turn(&store, "a", 1);
        // B's turn makes A, held by its gate, the least recently used.
        store.turn("b", |_| Ok(())).expect("b turns");
        store.open("c", Vec::new).expect("opens, evicting b");
        let b_after = store.turn("b", |_| Ok(()));
        let evicted = store.stats().evicted;
        drop(release);
        assert_eq!(a_turn.join().expect("no panic").expect("a's turn ran"), 1);
        assert!(
            matches!(b_after, Err(Error::SessionNotFound { .. })),
            "the idle LRU session was not the one evicted: {b_after:?}"
        );
        assert_eq!(evicted, 1);
        let value = store.turn("a", |v| Ok(v.clone()));
        assert_eq!(value.expect("a takes the next turn"), vec![1]);
    }

    #[test]
    fn an_id_stays_open_while_its_close_waits_behind_a_turn() {
        let store = Arc::new(store(4, 3600));
        store.open("a", || vec![1]).expect("opens");
        let (release, a_turn) = gated_turn(&store, "a", 2);
        let store2 = Arc::clone(&store);
        let closer = thread::spawn(move || store2.close("a"));
        // The map and the gated turn hold the slot until the close
        // reaches it: then the close holds a third reference while it
        // waits (a close that unlinked before waiting leaves none).
        while slot_refs(&store, "a") == 2 {
            thread::yield_now();
        }
        let reopened = store.open("a", Vec::new);
        drop(release);
        assert_eq!(a_turn.join().expect("no panic").expect("turn ran"), 2);
        let closed = closer.join().expect("no panic");
        match reopened {
            Err(Error::InvalidRequest { message }) => {
                assert!(message.contains("already open"), "{message}");
            }
            other => panic!("a second \"a\" opened while the first was closing: {other:?}"),
        }
        assert_eq!(closed.expect("closes after the turn"), vec![1, 2]);
        assert!(store.is_empty());
    }

    #[test]
    fn without_a_directory_a_session_expired_mid_turn_leaves_at_the_next_purge() {
        let store = Arc::new(SessionStore::new(SessionConfig {
            capacity: 4,
            ttl: Duration::from_millis(5),
        }));
        store.open("a", Vec::new).expect("opens");
        let (release, a_turn) = gated_turn(&store, "a", 1);
        // "a" expires while its turn holds it; the open purges.
        thread::sleep(Duration::from_millis(10));
        store.open("b", Vec::new).expect("opens");
        let a_refs = slot_refs(&store, "a");
        let evicted_mid_turn = store.stats().evicted;
        drop(release);
        assert_eq!(a_turn.join().expect("no panic").expect("turn ran"), 1);
        // The first purge after the turn ended retires "a" (and "b"
        // too, should it have expired by then).
        let a_after = store.turn("a", |_| Ok(()));
        let stats = store.stats();
        assert_eq!(
            a_refs, 2,
            "the purge left \"a\" in the map while its turn ran"
        );
        assert_eq!(evicted_mid_turn, 0);
        assert!(
            matches!(a_after, Err(Error::SessionNotFound { .. })),
            "{a_after:?}"
        );
        assert_eq!(
            stats.evicted,
            2 - stats.open,
            "every session gone is counted once"
        );
    }

    #[test]
    fn a_failed_expiry_spill_leaves_the_session_live() {
        let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
            SessionConfig {
                capacity: 4,
                ttl: Duration::from_millis(5),
            },
            Arc::new(FailingPersist),
        );
        store.open("a", || vec![5]).expect("opens");
        thread::sleep(Duration::from_millis(10));
        // The purge inside this open cannot write "a": it absorbs the
        // failure instead of refusing an unrelated open…
        store.open("b", Vec::new).expect("opens");
        // …and "a" is neither dropped nor corrupted.
        let value = store.turn("a", |v| Ok(v.clone())).expect("a is live");
        assert_eq!(value, vec![5]);
        assert_eq!(store.stats().evicted, 0, "nothing was destroyed");
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cp-session-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn json_persist(dir: &Path, ttl: Duration, shards: usize) -> Arc<JsonDirPersist<Vec<u64>>> {
        Arc::new(
            JsonDirPersist::sharded(
                dir,
                ttl,
                shards,
                |v: &Vec<u64>| {
                    serde_json::to_string(v).map_err(|e| Error::session_persist(e.to_string()))
                },
                |text| {
                    serde_json::from_str(text).map_err(|e| Error::session_persist(e.to_string()))
                },
            )
            .expect("dir created"),
        )
    }

    #[test]
    fn stale_tmp_litter_is_swept_at_construction() {
        let dir = scratch_dir("tmp-sweep");
        // Litter a crashed mid-spill writer would leave behind, in the
        // root and in a shard subdirectory, plus a real spill file and
        // a quarantined corpse that must both survive the sweep.
        std::fs::create_dir_all(dir.join("shard-1")).expect("shard dir");
        std::fs::write(dir.join("orphan.session.tmp"), "half-written").expect("written");
        std::fs::write(dir.join("shard-1/orphan2.session.tmp"), "half").expect("written");
        std::fs::write(dir.join("keep.session.json"), "[7]").expect("written");
        std::fs::write(dir.join("old.session.corrupt"), "{broken").expect("written");
        let persist = json_persist(&dir, Duration::from_secs(3600), 2);
        assert!(
            !dir.join("orphan.session.tmp").exists(),
            "root litter swept"
        );
        assert!(
            !dir.join("shard-1/orphan2.session.tmp").exists(),
            "shard litter swept"
        );
        assert!(
            dir.join("keep.session.json").exists(),
            "real spill files are untouched"
        );
        assert!(
            dir.join("old.session.corrupt").exists(),
            "quarantined corpses are kept for forensics"
        );
        assert!(persist.contains("keep"), "the legacy flat spill is found");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn sharded_persist_fans_out_and_round_trips() {
        let dir = scratch_dir("shards");
        let ttl = Duration::from_secs(3600);
        let persist = json_persist(&dir, ttl, 4);
        for i in 0..16u64 {
            persist
                .spill(&format!("s{i}"), vec![i])
                .expect("spill lands");
        }
        // The files really fanned out: no shard dir holds all of them,
        // and the root holds none.
        let census = |path: &Path| {
            std::fs::read_dir(path)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .filter(|e| e.file_name().to_string_lossy().ends_with(SPILL_SUFFIX))
                        .count()
                })
                .unwrap_or(0)
        };
        assert_eq!(census(&dir), 0, "sharded spills never land in the root");
        let per_shard: Vec<usize> = (0..4)
            .map(|i| census(&dir.join(format!("shard-{i}"))))
            .collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 16);
        assert!(
            per_shard.iter().all(|&n| n < 16),
            "fan-out used more than one shard: {per_shard:?}"
        );
        // Every shard is found by id; take() round-trips values.
        assert!((0..16).all(|i| persist.contains(&format!("s{i}"))));
        for i in 0..16u64 {
            let value = persist
                .take(&format!("s{i}"))
                .expect("reads back")
                .expect("present");
            assert_eq!(value, vec![i]);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn sharded_persist_still_finds_legacy_flat_spills() {
        let dir = scratch_dir("legacy");
        let ttl = Duration::from_secs(3600);
        // An unsharded run spills a session…
        json_persist(&dir, ttl, 1)
            .spill("old-timer", vec![1, 2])
            .expect("flat spill lands");
        // …then the operator turns sharding on over the same dir.
        let sharded = json_persist(&dir, ttl, 4);
        assert!(sharded.contains("old-timer"));
        let value = sharded
            .take("old-timer")
            .expect("reads back")
            .expect("found in the flat root");
        assert_eq!(value, vec![1, 2]);
        assert!(
            !sharded.contains("old-timer"),
            "take consumed the legacy file"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_sharded_dir_refuses_another_shard_count() {
        let dir = scratch_dir("shard-count");
        let ttl = Duration::from_secs(3600);
        let persist = json_persist(&dir, ttl, 4);
        for i in 0..8u64 {
            persist
                .spill(&format!("s{i}"), vec![i])
                .expect("spill lands");
        }
        drop(persist);
        // Every path under the dir with its bytes (None for a directory).
        fn census(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
            let mut found = Vec::new();
            for entry in std::fs::read_dir(dir)
                .expect("listed")
                .filter_map(Result::ok)
            {
                let path = entry.path();
                if path.is_dir() {
                    found.extend(census(&path));
                    found.push((path, None));
                } else {
                    let bytes = std::fs::read(&path).expect("read");
                    found.push((path, Some(bytes)));
                }
            }
            found.sort();
            found
        }
        let before = census(&dir);
        for shards in [8, 1] {
            let refused = JsonDirPersist::<Vec<u64>>::sharded(
                &dir,
                ttl,
                shards,
                |_| unreachable!("a refused layer encodes nothing"),
                |_| unreachable!("a refused layer decodes nothing"),
            )
            .expect_err("another shard count is refused");
            let text = refused.to_string();
            assert!(
                matches!(refused, Error::SessionPersist { .. })
                    && text.contains("created with 4 shards")
                    && text.contains(&format!("opened with {shards}")),
                "{text}"
            );
            assert_eq!(census(&dir), before, "a refusal touches no file");
        }
        let reopened = json_persist(&dir, ttl, 4);
        for i in 0..8u64 {
            let value = reopened
                .take(&format!("s{i}"))
                .expect("reads back")
                .expect("present");
            assert_eq!(value, vec![i]);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn turn_trigger_spill_ahead_keeps_warm_sessions_durable() {
        let dir = scratch_dir("spill-ahead");
        let ttl = Duration::from_secs(3600);
        {
            let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
                SessionConfig { capacity: 4, ttl },
                json_persist(&dir, ttl, 1),
            )
            .with_spill_ahead_turns(Some(1));
            store.open("warm", Vec::new).expect("opens");
            for i in 0..3u64 {
                store
                    .turn("warm", |v| {
                        v.push(i);
                        Ok(())
                    })
                    .expect("turn runs");
            }
            // The session never left memory, yet every turn landed a
            // durable copy.
            let stats = store.stats();
            assert_eq!(stats.open, 1, "the session is still warm");
            assert_eq!(stats.spilled, 0, "no eviction happened");
            assert_eq!(stats.spilled_ahead, 3, "one write per turn");
            assert!(dir.join("warm.session.json").exists());
            // The store "crashes" here: dropped without close, taking
            // the warm value with it.
        }
        let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
            SessionConfig { capacity: 4, ttl },
            json_persist(&dir, ttl, 1),
        );
        let value = store
            .turn("warm", |v| Ok(v.clone()))
            .expect("the spill-ahead copy survives the crash");
        assert_eq!(value, vec![0, 1, 2], "no completed turn was lost");
        assert_eq!(
            store.stats().restored,
            1,
            "rehydrated from its spill-ahead copy, not reopened"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn clean_close_forgets_the_spill_ahead_copy() {
        let dir = scratch_dir("forget");
        let ttl = Duration::from_secs(3600);
        let make_store = || -> SessionStore<Vec<u64>> {
            SessionStore::with_persist(
                SessionConfig { capacity: 4, ttl },
                json_persist(&dir, ttl, 1),
            )
            .with_spill_ahead_turns(Some(1))
        };
        let store = make_store();
        store.open("done", || vec![9]).expect("opens");
        store.turn("done", |_| Ok(())).expect("turn runs");
        assert!(dir.join("done.session.json").exists());
        assert_eq!(store.close("done").expect("closes"), vec![9]);
        assert!(
            !dir.join("done.session.json").exists(),
            "close removed the write-ahead copy"
        );
        // A restart cannot resurrect the closed session.
        let store = make_store();
        assert!(matches!(
            store.turn("done", |_| Ok(())),
            Err(Error::SessionNotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn memory_persist_declines_spill_ahead() {
        // MemoryPersist cannot outlive the process, so write-ahead
        // copies are pointless — the default trait impl declines.
        let store = spill_store(4, 3600);
        let store = store.with_spill_ahead_turns(Some(1));
        store.open("a", Vec::new).expect("opens");
        store.turn("a", |_| Ok(())).expect("turn runs");
        assert_eq!(store.stats().spilled_ahead, 0);
    }

    #[test]
    fn evicted_sessions_are_dropped() {
        let drops = Arc::new(AtomicUsize::new(0));
        let store: SessionStore<DropCounter> = SessionStore::new(SessionConfig {
            capacity: 1,
            ttl: Duration::from_secs(3600),
        });
        store
            .open("a", || DropCounter(Arc::clone(&drops)))
            .expect("opens");
        store
            .open("b", || DropCounter(Arc::clone(&drops)))
            .expect("opens, evicting a");
        assert_eq!(drops.load(Ordering::SeqCst), 1, "evicted value dropped");
        drop(store.close("b").expect("closes"));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }
}
