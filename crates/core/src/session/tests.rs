use super::persist::SPILL_SUFFIX;
use super::*;
use crate::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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
    // Capacity 1: this open waits for "a"'s turn, then evicts it.
    store.open("b", Vec::new).expect("opens, evicting a");
    // The running turn completed cleanly — it owned the slot.
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
        Arc::new(JsonDirPersist::new(dir, ttl, encode, decode).expect("dir created"))
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
    let persist: Arc<dyn SessionPersist<Vec<u64>>> =
        Arc::new(JsonDirPersist::new(&dir, ttl, encode, decode).expect("dir created"));
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
    while store.slot_refs("x") < 3 && !turner.is_finished() {
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
    while store.slot_refs("a") == 2 {
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
    let a_refs = store.slot_refs("a");
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

/// The spill text of a test value.
fn encode<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    serde_json::to_string(value).map_err(|e| Error::session_persist(e.to_string()))
}

fn decode(text: &str) -> Result<Vec<u64>, Error> {
    serde_json::from_str(text).map_err(|e| Error::session_persist(e.to_string()))
}

fn json_persist(dir: &Path, ttl: Duration, shards: usize) -> Arc<JsonDirPersist<Vec<u64>>> {
    Arc::new(JsonDirPersist::sharded(dir, ttl, shards, encode, decode).expect("dir created"))
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

#[test]
fn a_directory_store_keeps_every_turn_under_concurrent_traffic_on_shared_ids() {
    const IDS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let dir = scratch_dir("concurrent");
    let ttl = Duration::from_secs(3600);
    // Two of six sessions fit: nearly every turn spills one and
    // rehydrates another, on four threads that share every id.
    let store = Arc::new(
        SessionStore::with_persist(
            SessionConfig { capacity: 2, ttl },
            json_persist(&dir, ttl, 4),
        )
        .with_spill_ahead_turns(Some(1)),
    );
    for id in IDS {
        store.open(id, Vec::new).expect("opens");
    }
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut ran = [0u64; IDS.len()];
                for i in 0..75u64 {
                    let k = ((t * 7 + i * 5) % 6) as usize;
                    match store.turn(IDS[k], |v| {
                        v.push(t);
                        Ok(())
                    }) {
                        Ok(()) => ran[k] += 1,
                        // The bounded re-resolve gave up: the turn
                        // never ran.
                        Err(Error::SessionNotFound { message, .. })
                            if message.contains("evicted") => {}
                        Err(error) => panic!("turn on {} failed: {error:?}", IDS[k]),
                    }
                }
                ran
            })
        })
        .collect();
    let mut ran = [0u64; IDS.len()];
    for thread in threads {
        for (total, n) in ran.iter_mut().zip(thread.join().expect("no panic")) {
            *total += n;
        }
    }
    let stats = store.stats();
    assert_eq!(stats.evicted, 0, "nothing was destroyed: {stats:?}");
    for (id, ran) in IDS.iter().zip(ran) {
        let value = store.close(id).expect("closes");
        assert_eq!(
            value.len() as u64,
            ran,
            "{id} kept every turn it ran: {stats:?}"
        );
    }
    let mut litter = Vec::new();
    for shard in std::fs::read_dir(&dir).expect("dir lists") {
        for file in std::fs::read_dir(shard.expect("entry").path()).expect("shard lists") {
            let name = file
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            if name.ends_with(".tmp") || name.ends_with(".corrupt") {
                litter.push(name);
            }
        }
    }
    assert!(litter.is_empty(), "left behind: {litter:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
