//! The [`SessionPersist`] layers a session spills to: memory, or a JSON file in a directory.

use crate::Error;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

/// The session durability layer a [store](crate::session::SessionStore)
/// spills to on capacity eviction and rehydrates from on the next
/// access.
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
pub(super) const SPILL_SUFFIX: &str = ".session.json";

/// Escapes a session id into a filesystem-safe filename stem:
/// alphanumerics, `_` and `-` pass through, every other byte becomes
/// `%XX`, so distinct ids never share a file.
pub(super) fn encode_id(id: &str) -> String {
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
pub(super) const MAX_ENCODED_SESSION_ID_BYTES: usize = 239;

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
/// the id, so a restart over a 10k-session directory never scans one
/// giant listing. Rehydration stays lazy:
/// nothing is read until an id is actually touched. A sharded layer
/// still finds files spilled by an earlier unsharded run in the
/// directory root, so turning sharding on over an existing directory
/// loses nothing. The other way round is refused: a directory keeps
/// the shard count it was created with, since a session filed under
/// `shard-(hash % N)` cannot be found under another `N`.
///
/// The layer holds no lock, so calls for one id must not overlap: a
/// [store](crate::session::SessionStore) makes each from the thread
/// that holds the id's slot, or under its map lock while the id is
/// absent. Calls for distinct ids may run at once.
///
/// The layer is generic: `encode`/`decode` close over whatever
/// dependencies reconstruction needs (for `ChatSession`, the trained
/// sampler and the legalizer — see
/// [`ChatPatternBuilder::session_dir`](crate::ChatPatternBuilder::session_dir)).
pub struct JsonDirPersist<T> {
    dir: PathBuf,
    ttl: Duration,
    /// The spill subdirectories (the one `dir` when unsharded).
    shards: Vec<PathBuf>,
    encode: PersistEncode<T>,
    decode: PersistDecode<T>,
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
            built.push(shard_dir);
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

    /// The shard directory owning `id`, by the same stable hash the
    /// router uses to pin sessions to workers.
    fn shard(&self, id: &str) -> &Path {
        let index = (crate::routing::route_hash(id) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    fn path(&self, id: &str) -> PathBuf {
        self.shard(id)
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
    /// temp-file + rename protocol.
    fn write(&self, id: &str, value: &T) -> Result<(), Error> {
        let text = (self.encode)(value)?;
        let path = self.path(id);
        let tmp = path.with_extension("tmp");
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
    /// files are unlinked on sight.
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
        self.live_path(id).is_some()
    }

    fn spill_ahead(&self, id: &str, value: &T) -> Result<bool, Error> {
        self.write(id, value)?;
        Ok(true)
    }

    fn forget(&self, id: &str) {
        let _ = std::fs::remove_file(self.path(id));
        if let Some(legacy) = self.legacy_path(id) {
            let _ = std::fs::remove_file(legacy);
        }
    }
}
