//! Engine semantics against the real system: parallel execution is
//! payload-identical to the bare service called serially, the result
//! cache replays payloads with fresh timing, and identical in-flight
//! requests coalesce onto exactly one execution whose result reaches
//! every handle on it.

use chatpattern::dataset::Style;
use chatpattern::extend::ExtensionMethod;
use chatpattern::squish::Region;
use chatpattern::{
    ChatParams, ChatPattern, EngineConfig, Error, EvaluateParams, ExtendParams, GenerateParams,
    LegalizeParams, ModifyParams, PatternEngine, PatternRequest, PatternResponse, PatternService,
    ResponsePayload, SessionOpenParams, SessionTurnParams, TurnOutcome,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn small_system() -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration")
}

fn generate(seed: u64) -> PatternRequest {
    PatternRequest::Generate(GenerateParams {
        style: if seed.is_multiple_of(2) {
            Style::Layer10001
        } else {
            Style::Layer10003
        },
        rows: 16,
        cols: 16,
        count: 1,
        seed,
    })
}

/// A 32-request batch cycling through every request kind (the
/// acceptance-criteria batch).
fn mixed_batch(system: &ChatPattern) -> Vec<PatternRequest> {
    let topology = system
        .generate(Style::Layer10001, 16, 16, 1, 99)
        .expect("generates")
        .remove(0);
    (0..32u64)
        .map(|i| match i % 6 {
            0 => generate(i),
            1 => PatternRequest::Chat(ChatParams {
                request: "Generate 1 pattern, topology size 16*16, physical size \
                          512nm x 512nm, style Layer-10001."
                    .into(),
                seed: Some(i),
            }),
            2 => PatternRequest::Extend(ExtendParams {
                seed_topology: topology.clone(),
                rows: 32,
                cols: 32,
                method: ExtensionMethod::OutPainting,
                style: Style::Layer10003,
                seed: i,
            }),
            3 => PatternRequest::Modify(ModifyParams {
                known: topology.clone(),
                region: Region::new(4, 4, 12, 12),
                style: Style::Layer10001,
                seed: i,
            }),
            4 => PatternRequest::Legalize(LegalizeParams {
                topology: topology.clone(),
                width_nm: 512,
                height_nm: 512,
                seed: i,
            }),
            _ => PatternRequest::Evaluate(EvaluateParams {
                topologies: vec![topology.clone()],
                frame_nm: 512,
                seed: i,
            }),
        })
        .collect()
}

#[test]
fn parallel_execute_many_matches_serial_across_all_kinds() {
    let system = small_system();
    let batch = mixed_batch(&system);
    assert_eq!(batch.len(), 32);

    // Serial reference: the bare service, one request at a time.
    let serial: Vec<_> = batch
        .iter()
        .cloned()
        .map(|r| PatternService::execute(&system, r))
        .collect();

    // Parallel: the same system behind a 4-worker engine, every request
    // submitted before any handle is waited on. The cache is disabled
    // so every request truly executes on a worker.
    let engine = PatternEngine::with_config(
        system,
        EngineConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 0,
        },
    )
    .expect("valid config");
    let handles: Vec<_> = batch
        .into_iter()
        .map(|request| engine.submit_blocking(request))
        .collect();
    let parallel: Vec<_> = handles.into_iter().map(|handle| handle.wait()).collect();

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        match (s, p) {
            (Ok(a), Ok(b)) => {
                // Byte-identical payloads: compare the wire form.
                let a = serde_json::to_string(&a.payload).expect("serializes");
                let b = serde_json::to_string(&b.payload).expect("serializes");
                assert_eq!(a, b, "request {i} diverged between serial and parallel");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "request {i} failed differently"),
            other => panic!("request {i}: serial/parallel outcome mismatch: {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.queue_depths.len(), 1, "four workers, one queue");
    assert_eq!(stats.submitted, 32);
    assert_eq!(stats.completed + stats.failed, 32);
    assert_eq!(stats.cache_hits, 0, "cache was disabled");
}

#[test]
fn cache_hit_replays_payload_with_fresh_timing() {
    let engine = PatternEngine::with_config(
        small_system(),
        EngineConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    let request = generate(7);
    let first = PatternService::execute(&engine, request.clone()).expect("executes");
    assert!(!first.timing.cached);
    assert!(first.timing.exec_micros > 0, "diffusion takes time");
    let second = PatternService::execute(&engine, request).expect("replays");
    assert!(second.timing.cached, "second identical request hits");
    assert_eq!(second.payload, first.payload, "payload replayed exactly");
    assert_eq!(second.timing.queue_micros, 0, "hits skip the queue");
    assert!(
        second.timing.exec_micros < first.timing.exec_micros,
        "lookup ({} µs) should be cheaper than sampling ({} µs)",
        second.timing.exec_micros,
        first.timing.exec_micros
    );
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn unseeded_chat_bypasses_the_cache() {
    let engine = PatternEngine::with_config(
        small_system(),
        EngineConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    let request = PatternRequest::Chat(ChatParams {
        request: "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                  style Layer-10003."
            .into(),
        seed: None,
    });
    for _ in 0..2 {
        let response = PatternService::execute(&engine, request.clone()).expect("chats");
        assert!(!response.timing.cached);
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(
        stats.cache_misses, 0,
        "unseeded chat never consults the cache"
    );
}

/// A service that counts executions and holds every call at a gate
/// until the test opens it — the deterministic way to keep identical
/// requests in flight together so they must coalesce.
struct GatedService {
    inner: ChatPattern,
    calls: AtomicUsize,
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedService {
    fn new(inner: ChatPattern) -> GatedService {
        GatedService {
            inner,
            calls: AtomicUsize::new(0),
            open: Mutex::new(false),
            opened: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl PatternService for GatedService {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.opened.wait(open).expect("gate lock");
        }
        drop(open);
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.execute(request)
    }
}

fn gated_engine() -> (Arc<GatedService>, PatternEngine<Arc<GatedService>>) {
    let service = Arc::new(GatedService::new(small_system()));
    let engine = PatternEngine::with_config(
        Arc::clone(&service),
        EngineConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    (service, engine)
}

/// The ISSUE acceptance criterion: N identical concurrent submits
/// perform exactly one backend execution, `EngineStats.coalesced` is
/// N-1, and all N payloads are byte-identical to what the bare service
/// answers.
#[test]
fn identical_concurrent_submits_coalesce_on_the_thread_pool() {
    const N: usize = 8;
    let (service, engine) = gated_engine();
    let request = generate(42);
    let handles: Vec<_> = (0..N)
        .map(|_| engine.submit(request.clone()).expect("queue has room"))
        .collect();
    service.open();
    let reference = PatternService::execute(&small_system(), request).expect("executes");
    let reference = serde_json::to_string(&reference.payload).expect("serializes");
    for handle in handles {
        let response = handle.wait().expect("shared execution succeeds");
        let payload = serde_json::to_string(&response.payload).expect("serializes");
        assert_eq!(
            payload, reference,
            "payload diverged from the serial result"
        );
    }
    assert_eq!(service.calls(), 1, "exactly one backend execution");
    let stats = engine.stats();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(stats.coalesced, (N - 1) as u64);
    assert_eq!(stats.completed, N as u64);
    assert_eq!(stats.cache_misses, 1, "only the leader executed");
    assert_eq!(stats.cache_hits, 0, "nothing completed before the burst");
}

fn open_session(engine: &impl PatternService, id: &str, seed: u64) {
    let response = engine
        .execute(PatternRequest::SessionOpen(SessionOpenParams {
            session: id.into(),
            seed: Some(seed),
        }))
        .expect("session opens");
    assert!(matches!(response.payload, ResponsePayload::SessionOpen(_)));
}

fn turn_request(id: &str) -> PatternRequest {
    PatternRequest::SessionTurn(SessionTurnParams {
        session: id.into(),
        utterance: "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                    style Layer-10001."
            .into(),
    })
}

fn unwrap_turn(response: PatternResponse) -> TurnOutcome {
    match response.payload {
        ResponsePayload::SessionTurn(turn) => turn,
        other => panic!("expected a SessionTurn payload, got {other:?}"),
    }
}

/// The ISSUE acceptance criterion: session turns are stateful, so they
/// are never cached and never coalesced — a duplicate turn re-executes
/// (the turn counter advances) and leaves `cache_hits`/`coalesced`
/// untouched.
#[test]
fn session_turns_are_never_cached_or_coalesced() {
    let engine = PatternEngine::with_config(
        small_system(),
        EngineConfig {
            workers: 2,
            queue_depth: 32,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    open_session(&engine, "nc", 1);
    let before = engine.stats();

    // Sequential duplicates: the second identical turn must execute,
    // not replay.
    let t1 = unwrap_turn(engine.execute(turn_request("nc")).expect("turn 1"));
    let t2 = unwrap_turn(engine.execute(turn_request("nc")).expect("turn 2"));
    assert_eq!((t1.turn, t2.turn), (1, 2), "both turns executed");
    assert_eq!(t2.library.len(), 2, "the duplicate added a pattern");

    // Concurrent duplicates: both execute (serialized by the session
    // lock), neither attaches to the other.
    let a = engine.submit(turn_request("nc")).expect("submits");
    let b = engine.submit(turn_request("nc")).expect("submits");
    let ra = a.wait().expect("turn completes");
    let rb = b.wait().expect("turn completes");
    assert!(!ra.timing.cached && !ra.timing.coalesced);
    assert!(!rb.timing.cached && !rb.timing.coalesced);
    let turns: BTreeSet<usize> = [unwrap_turn(ra).turn, unwrap_turn(rb).turn].into();
    assert_eq!(turns, BTreeSet::from([3, 4]), "four distinct executions");

    let stats = engine.stats();
    assert_eq!(stats.cache_hits, before.cache_hits, "no cache hit");
    assert_eq!(stats.coalesced, before.coalesced, "no coalescing");
    assert_eq!(stats.cache_misses, before.cache_misses, "never keyed");
    assert_eq!(stats.turns, 4);
    assert_eq!(stats.sessions_open, 1);
}

/// What `workers: 1` still promises (and more workers no longer do,
/// `docs/SESSIONS.md`, "Turn order"): turns submitted without waiting
/// for each reply execute in submission order — one thread drains the
/// queue, and one tenant's queue is FIFO.
#[test]
fn turns_on_one_worker_execute_in_submission_order() {
    const SESSIONS: usize = 6;
    const TURNS: usize = 3;
    let engine = PatternEngine::with_config(
        small_system(),
        EngineConfig {
            workers: 1,
            queue_depth: 64,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    let ids: Vec<String> = (0..SESSIONS).map(|s| format!("ord-{s}")).collect();
    for (s, id) in ids.iter().enumerate() {
        open_session(&engine, id, s as u64);
    }
    // Interleave submissions round-robin: turn j of every session is
    // in flight before turn j+1 of any session is submitted.
    let mut handles: Vec<(usize, chatpattern::JobHandle)> = Vec::new();
    for _ in 0..TURNS {
        for (s, id) in ids.iter().enumerate() {
            handles.push((s, engine.submit(turn_request(id)).expect("queue has room")));
        }
    }
    // Per session, results arrive with strictly increasing turn
    // indices in submission order.
    let mut next_turn = [1usize; SESSIONS];
    for (s, handle) in handles {
        let turn = unwrap_turn(handle.wait().expect("turn completes"));
        assert_eq!(
            turn.turn, next_turn[s],
            "session {s}: turns must serialize in submission order"
        );
        next_turn[s] += 1;
    }
    let stats = engine.stats();
    assert_eq!(stats.turns as usize, SESSIONS * TURNS);
    assert_eq!(stats.sessions_open as usize, SESSIONS);
    assert_eq!(stats.coalesced, 0, "session turns never coalesce");
    assert_eq!(stats.cache_hits, 0, "session turns never hit the cache");
}

/// The ISSUE acceptance criterion: evicting a session yields a clean
/// typed error for later turns — no panic, no poisoned lock — and the
/// engine stats surface the eviction.
#[test]
fn evicted_session_turn_is_a_typed_error_through_the_engine() {
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .max_sessions(1)
        .build()
        .expect("valid configuration");
    let engine = PatternEngine::with_config(
        system,
        EngineConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 0,
        },
    )
    .expect("valid config");
    open_session(&engine, "victim", 1);
    unwrap_turn(engine.execute(turn_request("victim")).expect("turn runs"));
    // Capacity 1: this open evicts "victim".
    open_session(&engine, "usurper", 2);
    let err = engine
        .execute(turn_request("victim"))
        .expect_err("evicted session is gone");
    assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
    // The store is not poisoned: the survivor keeps working.
    let turn = unwrap_turn(engine.execute(turn_request("usurper")).expect("turn runs"));
    assert_eq!(turn.turn, 1);
    let stats = engine.stats();
    assert_eq!(stats.sessions_open, 1);
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(stats.failed, 1, "the dead turn failed cleanly");
}
