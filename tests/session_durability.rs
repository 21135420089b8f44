//! Crash-recovery acceptance suite for durable sessions (ISSUE 5).
//!
//! Pins the tentpole guarantees end to end:
//!
//! * **Snapshot/restore equivalence** — open a session, run two turns,
//!   snapshot, *drop the engine* (simulated crash), restore into a
//!   fresh engine, run a context-inheriting follow-up turn: the final
//!   library (and full transcript) is byte-identical to the same three
//!   turns run uninterrupted. Asserted in-process through
//!   `PatternEngine` and across two real `chatpattern-serve` processes
//!   through the `SessionSnapshot` / `SessionRestore` wire envelopes.
//! * **Spill/rehydrate** — an over-capacity store with `--session-dir`
//!   serves turns on every opened session (eviction spills, access
//!   rehydrates) with zero `SessionNotFound` errors before TTL.
//! * **Restart recovery** — sessions spilled to `--session-dir`
//!   survive a `kill`ed serve process: a new process over the same
//!   directory resumes them mid-dialog, while sessions that were only
//!   live in the crashed process's memory are gone.
//! * **Fleet restart recovery** (ISSUE 6) — the same guarantee holds
//!   behind the `chatpattern-router`: SIGKILL a spawned worker and the
//!   router respawns it over its per-worker `--session-dir`, so the
//!   worker's spilled sessions resume mid-dialog through the same
//!   client connection, with only its warm-in-memory session lost.
//! * **SIGKILL crash matrix** (ISSUE 10) — a serve process with
//!   `--spill-ahead-turns 1` is SIGKILLed after every prefix of a
//!   multi-turn dialog, and once mid-turn with a request already on
//!   the wire; a respawn over the same `--session-dir` resumes the
//!   session losing at most the in-flight turn, every surviving turn
//!   byte-identical to the uninterrupted run. So every completed turn
//!   was written ahead before its reply, and every restarted session
//!   came back from that copy.
//! * **Lazy restart** — a restart over a 10 000-session directory
//!   sharded eight ways reads exactly the snapshots that are touched.
//!
//! CI runs this suite once, inside `cargo test`; to see a durability
//! or crash-edge regression by name, run `cargo test --test
//! session_durability`.

use chatpattern::{
    ChatPattern, EngineConfig, Error, PatternEngine, PatternRequest, PatternService,
    RequestEnvelope, ResponseEnvelope, ResponsePayload, SessionCloseParams, SessionOpenParams,
    SessionRestoreParams, SessionSnapshot, SessionSnapshotParams, SessionTurnParams, WireOutcome,
};
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const TURNS: [&str; 3] = [
    "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10003.",
    "Now make them denser.",
    "1 more pattern.",
];
const SEED: u64 = 9;

fn build_system() -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration")
}

/// The reference: all three turns on one uninterrupted session, the
/// final outcome serialized the way it crosses the wire.
fn uninterrupted_close_payload(id: &str) -> String {
    let system = build_system();
    system.session_open(id, Some(SEED)).expect("opens");
    for (i, utterance) in TURNS.iter().enumerate() {
        let turn = system.session_turn(id, utterance).expect("turn runs");
        assert_eq!(turn.turn, i + 1);
    }
    let outcome = system.session_close(id).expect("closes");
    serde_json::to_string(&ResponsePayload::SessionClose(outcome)).expect("serializes")
}

fn engine(system: ChatPattern) -> PatternEngine<ChatPattern> {
    PatternEngine::with_config(
        system,
        EngineConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 16,
        },
    )
    .expect("valid engine config")
}

#[test]
fn in_process_crash_recovery_is_byte_identical() {
    // Engine A hosts the first two turns, exports a snapshot, and is
    // dropped — the simulated crash takes its whole system with it.
    let engine_a = engine(build_system());
    engine_a
        .execute(PatternRequest::SessionOpen(SessionOpenParams {
            session: "crash".into(),
            seed: Some(SEED),
        }))
        .expect("opens");
    for utterance in &TURNS[..2] {
        engine_a
            .execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: "crash".into(),
                utterance: (*utterance).to_owned(),
            }))
            .expect("turn runs");
    }
    let exported = engine_a
        .execute(PatternRequest::SessionSnapshot(SessionSnapshotParams {
            session: "crash".into(),
        }))
        .expect("exports");
    let ResponsePayload::SessionSnapshot(snapshot) = exported.payload else {
        panic!("wrong payload {:?}", exported.payload);
    };
    drop(engine_a);

    // The snapshot round-trips through its JSON persistence form.
    let text = serde_json::to_string(&snapshot).expect("serializes");
    let snapshot: SessionSnapshot = serde_json::from_str(&text).expect("parses");

    // Engine B — a fresh engine over a fresh (equivalently built)
    // system — resumes the dialog with the context-inheriting turn.
    let engine_b = engine(build_system());
    engine_b
        .execute(PatternRequest::SessionRestore(SessionRestoreParams {
            snapshot: Box::new(snapshot),
        }))
        .expect("restores");
    let resumed = engine_b
        .execute(PatternRequest::SessionTurn(SessionTurnParams {
            session: "crash".into(),
            utterance: TURNS[2].to_owned(),
        }))
        .expect("restored session serves the follow-up turn");
    let ResponsePayload::SessionTurn(turn) = resumed.payload else {
        panic!("wrong payload {:?}", resumed.payload);
    };
    assert_eq!(turn.turn, 3, "turn numbering continues across the crash");
    let closed = engine_b
        .execute(PatternRequest::SessionClose(SessionCloseParams {
            session: "crash".into(),
        }))
        .expect("closes");
    let recovered = serde_json::to_string(&closed.payload).expect("serializes");

    assert_eq!(
        recovered,
        uninterrupted_close_payload("crash"),
        "snapshot → crash → restore must be byte-identical to the uninterrupted run"
    );
}

/// A strict request-then-response client over a serve child's pipes.
struct ServeClient {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Lines<BufReader<ChildStdout>>,
}

impl ServeClient {
    fn spawn(extra_args: &[&str]) -> ServeClient {
        // The builder seed must match `build_system` — snapshots carry
        // session state, not the trained model, so equivalence across
        // processes requires equivalently trained back-ends.
        let mut args = vec![
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
            "--seed",
            "3",
        ];
        args.extend_from_slice(extra_args);
        let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve binary starts");
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        ServeClient {
            child,
            stdin: Some(stdin),
            lines: BufReader::new(stdout).lines(),
        }
    }

    fn exchange(&mut self, id: &str, request: PatternRequest) -> ResponseEnvelope {
        let envelope = RequestEnvelope {
            id: serde_json::to_value(&id),
            tenant: None,
            request,
        };
        let line = serde_json::to_string(&envelope).expect("serializes");
        let stdin = self.stdin.as_mut().expect("stdin open");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        let reply = self
            .lines
            .next()
            .expect("a reply line arrives")
            .expect("reply reads");
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparsable reply {reply:?}: {e}"))
    }

    fn expect_ok(&mut self, id: &str, request: PatternRequest) -> ResponsePayload {
        let reply = self.exchange(id, request);
        match reply.outcome {
            WireOutcome::Ok(response) => response.payload,
            WireOutcome::Err(error) => panic!("request {id} failed: {error:?}"),
        }
    }

    /// Simulated crash: SIGKILL, no flushing, no goodbyes.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        let _ = self.child.wait();
    }

    /// Graceful shutdown (EOF on stdin, zero exit).
    fn shutdown(mut self) {
        drop(self.stdin.take());
        assert!(self.child.wait().expect("serve exits").success());
    }
}

#[test]
fn wire_handoff_across_two_serve_processes_is_byte_identical() {
    // Process A: open, two turns, export the snapshot — then crash.
    let mut serve_a = ServeClient::spawn(&[]);
    serve_a.expect_ok(
        "o",
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "hand".into(),
            seed: Some(SEED),
        }),
    );
    for (i, utterance) in TURNS[..2].iter().enumerate() {
        let payload = serve_a.expect_ok(
            &format!("t{i}"),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: "hand".into(),
                utterance: (*utterance).to_owned(),
            }),
        );
        let ResponsePayload::SessionTurn(turn) = payload else {
            panic!("wrong payload");
        };
        assert_eq!(turn.turn, i + 1);
    }
    let ResponsePayload::SessionSnapshot(snapshot) = serve_a.expect_ok(
        "snap",
        PatternRequest::SessionSnapshot(SessionSnapshotParams {
            session: "hand".into(),
        }),
    ) else {
        panic!("wrong payload");
    };
    serve_a.kill();

    // Process B: import, continue the conversation, close.
    let mut serve_b = ServeClient::spawn(&[]);
    let ResponsePayload::SessionRestore(info) = serve_b.expect_ok(
        "restore",
        PatternRequest::SessionRestore(SessionRestoreParams { snapshot }),
    ) else {
        panic!("wrong payload");
    };
    assert_eq!(info.session, "hand");
    assert_eq!(info.seed, SEED);
    let ResponsePayload::SessionTurn(turn) = serve_b.expect_ok(
        "t2",
        PatternRequest::SessionTurn(SessionTurnParams {
            session: "hand".into(),
            utterance: TURNS[2].to_owned(),
        }),
    ) else {
        panic!("wrong payload");
    };
    assert_eq!(turn.turn, 3, "turn numbering continues across processes");
    let closed = serve_b.expect_ok(
        "c",
        PatternRequest::SessionClose(SessionCloseParams {
            session: "hand".into(),
        }),
    );
    let recovered = serde_json::to_string(&closed).expect("serializes");
    serve_b.shutdown();

    assert_eq!(
        recovered,
        uninterrupted_close_payload("hand"),
        "the two-process handoff must be byte-identical to the uninterrupted run"
    );
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cp-durability-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn over_capacity_session_dir_store_never_reports_not_found() {
    let dir = temp_dir("sweep");
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .max_sessions(2)
        .session_dir(&dir)
        .build()
        .expect("valid configuration");
    const SESSIONS: usize = 5;
    for s in 0..SESSIONS {
        system
            .session_open(&format!("sweep-{s}"), Some(s as u64))
            .expect("opens");
    }
    // Two rounds of turns over every session: each touch of a spilled
    // id must rehydrate, never error.
    for round in 0..2 {
        for s in 0..SESSIONS {
            let id = format!("sweep-{s}");
            let utterance = if round == 0 {
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001."
                    .to_owned()
            } else {
                "1 more pattern.".to_owned()
            };
            let turn = system
                .session_turn(&id, &utterance)
                .unwrap_or_else(|e| panic!("round {round}, session {id}: unexpected error {e:?}"));
            assert_eq!(turn.turn, round + 1);
            assert_eq!(
                turn.library.len(),
                round + 1,
                "session {id} kept its library across spills (summary: {})",
                turn.summary
            );
        }
    }
    for s in 0..SESSIONS {
        let outcome = system
            .session_close(&format!("sweep-{s}"))
            .expect("every session closes cleanly");
        assert_eq!(outcome.library.len(), 2);
    }
    let stats = system.session_stats();
    assert_eq!(stats.evicted, 0, "durability means nothing was destroyed");
    assert!(stats.spilled >= 3, "the sweep exercised spilling");
    assert_eq!(stats.open, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn killed_serve_process_leaves_spilled_sessions_recoverable() {
    let dir = temp_dir("restart");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    // Process A, capacity 1: opening "b" spills "a" to disk; "b" then
    // lives only in memory.
    let mut serve_a = ServeClient::spawn(&["--max-sessions", "1", "--session-dir", dir_arg]);
    serve_a.expect_ok(
        "o1",
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "a".into(),
            seed: Some(5),
        }),
    );
    let ResponsePayload::SessionTurn(turn) = serve_a.expect_ok(
        "t1",
        PatternRequest::SessionTurn(SessionTurnParams {
            session: "a".into(),
            utterance: TURNS[0].to_owned(),
        }),
    ) else {
        panic!("wrong payload");
    };
    assert_eq!(turn.turn, 1);
    serve_a.expect_ok(
        "o2",
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "b".into(),
            seed: Some(6),
        }),
    );
    serve_a.kill();

    // Process B over the same directory: the spilled session resumes
    // mid-dialog; the one that was only in memory died with A.
    let mut serve_b = ServeClient::spawn(&["--max-sessions", "1", "--session-dir", dir_arg]);
    let ResponsePayload::SessionTurn(turn) = serve_b.expect_ok(
        "t2",
        PatternRequest::SessionTurn(SessionTurnParams {
            session: "a".into(),
            utterance: "1 more pattern.".into(),
        }),
    ) else {
        panic!("wrong payload");
    };
    assert_eq!(turn.turn, 2, "the restarted process resumed mid-dialog");
    assert_eq!(turn.library.len(), 3, "library carried across the restart");
    let reply = serve_b.exchange(
        "dead",
        PatternRequest::SessionTurn(SessionTurnParams {
            session: "b".into(),
            utterance: "anything".into(),
        }),
    );
    match reply.outcome {
        WireOutcome::Err(error) => assert_eq!(
            error.kind, "SessionNotFound",
            "a session that was only in the crashed process's memory is gone"
        ),
        WireOutcome::Ok(_) => panic!("session b cannot have survived the crash"),
    }
    serve_b.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A strict request-then-response client over TCP to a spawned
/// router fleet (mirrors `ServeClient`, but for `chatpattern-router`).
struct RouterClient {
    child: Child,
    client: cp_net::NdjsonClient,
    addr: String,
}

impl RouterClient {
    fn spawn(workers: usize, session_dir: &str, extra_serve_args: &[&str]) -> RouterClient {
        let mut command = Command::new(env!("CARGO_BIN_EXE_chatpattern-router"));
        command.args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--serve-bin",
            env!("CARGO_BIN_EXE_chatpattern-serve"),
            "--session-dir",
            session_dir,
        ]);
        // The worker model configuration must match `build_system`.
        for arg in [
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
            "--seed",
            "3",
        ]
        .iter()
        .chain(extra_serve_args)
        {
            command.args(["--serve-arg", arg]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("router binary starts");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("router announces its address before EOF")
                .expect("router stderr reads");
            if let Some(addr) = line.strip_prefix("chatpattern-router: listening on ") {
                break addr.trim().to_owned();
            }
        };
        std::thread::spawn(move || for _ in lines.by_ref() {});
        let client = cp_net::NdjsonClient::connect(
            &addr,
            cp_net::ClientConfig {
                read_timeout: Some(std::time::Duration::from_secs(120)),
                ..cp_net::ClientConfig::default()
            },
        )
        .expect("router accepts the test client");
        RouterClient {
            child,
            client,
            addr,
        }
    }

    fn exchange(&mut self, id: &str, request: PatternRequest) -> ResponseEnvelope {
        self.client
            .call(&RequestEnvelope {
                id: serde_json::to_value(&id),
                tenant: None,
                request,
            })
            .expect("router answers")
    }

    fn expect_ok(&mut self, id: &str, request: PatternRequest) -> ResponsePayload {
        let reply = self.exchange(id, request);
        match reply.outcome {
            WireOutcome::Ok(response) => response.payload,
            WireOutcome::Err(error) => panic!("request {id} failed: {error:?}"),
        }
    }

    /// Worker pids from the Fleet control view.
    fn worker_pids(&mut self) -> Vec<Option<u32>> {
        self.client
            .send_line(r#"{"id":"fleet","control":"Fleet"}"#)
            .expect("control line sent");
        let reply = self
            .client
            .recv_line()
            .expect("control reply reads")
            .expect("control reply arrives");
        let fleet: serde_json::Value =
            serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparsable {reply:?}: {e}"));
        fleet
            .get("control")
            .and_then(|c| c.get("Fleet"))
            .and_then(|f| f.get("workers"))
            .and_then(|w| w.as_array())
            .unwrap_or_else(|| panic!("malformed fleet view: {fleet:?}"))
            .iter()
            .map(|worker| worker.get("pid").and_then(|p| p.as_u64()).map(|p| p as u32))
            .collect()
    }

    fn shutdown(mut self) {
        self.client
            .send_line(r#"{"id":"bye","control":"Shutdown"}"#)
            .expect("control line sent");
        let _ = self.client.recv_line();
        assert!(self.child.wait().expect("router exits").success());
    }
}

impl Drop for RouterClient {
    fn drop(&mut self) {
        // Best-effort cleanup on panic: Shutdown takes the spawned
        // workers down with the router; a bare SIGKILL would orphan
        // them.
        if self.child.try_wait().ok().flatten().is_none() {
            let config = cp_net::ClientConfig {
                attempts: 1,
                read_timeout: Some(std::time::Duration::from_secs(5)),
                ..cp_net::ClientConfig::default()
            };
            if let Ok(mut client) = cp_net::NdjsonClient::connect(&self.addr, config) {
                let _ = client.send_line(r#"{"id":"drop","control":"Shutdown"}"#);
                let _ = client.recv_line();
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[test]
fn sigkilled_router_worker_rehydrates_its_spilled_sessions() {
    const SESSIONS: usize = 4;
    let dir = temp_dir("fleet");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    // Two workers, each with session capacity 1 over its own spill
    // directory: on every worker, only the most recently touched
    // session is warm in memory — every earlier one has been evicted
    // to disk.
    let mut fleet = RouterClient::spawn(2, dir_arg, &["--max-sessions", "1"]);

    // Sessions are pinned by the stable routing hash, so the test can
    // compute each one's worker the same way the router does.
    let assigned: Vec<usize> = (0..SESSIONS)
        .map(|s| (chatpattern::core::routing::route_hash(&format!("rt-{s}")) % 2) as usize)
        .collect();
    for s in 0..SESSIONS {
        let sid = format!("rt-{s}");
        fleet.expect_ok(
            &format!("open-{s}"),
            PatternRequest::SessionOpen(SessionOpenParams {
                session: sid.clone(),
                seed: Some(60 + s as u64),
            }),
        );
        let ResponsePayload::SessionTurn(turn) = fleet.expect_ok(
            &format!("turn-{s}"),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: sid,
                utterance: TURNS[0].to_owned(),
            }),
        ) else {
            panic!("wrong payload");
        };
        assert_eq!(turn.turn, 1);
    }

    // SIGKILL the worker hosting the most sessions (pigeonhole: at
    // least 2 of the 4). Its last-touched session is warm-only and
    // dies with it; the earlier ones are already spilled.
    let victim = (0..2)
        .max_by_key(|w| assigned.iter().filter(|a| *a == w).count())
        .expect("two workers");
    assert!(
        assigned.iter().filter(|a| **a == victim).count() >= 2,
        "victim worker must host a warm and a spilled session: {assigned:?}"
    );
    let warm = (0..SESSIONS)
        .rev()
        .find(|s| assigned[*s] == victim)
        .expect("victim hosts sessions");
    let pid = fleet.worker_pids()[victim].expect("spawned worker has a pid");
    assert!(
        Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .expect("kill runs")
            .success(),
        "SIGKILL delivered"
    );
    // Delivered is not dead: until the worker's last thread has exited
    // its sockets are open, and a turn written to one is an in-flight
    // loss, not what is tested here. The Fleet view's own Stats poll
    // is a forward, so it respawns the worker once the death shows.
    while fleet.worker_pids()[victim] == Some(pid) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Every spilled session — on the victim (after the router
    // respawns it over the same --session-dir) and on the survivor —
    // resumes mid-dialog; only the victim's warm session is gone.
    for s in 0..SESSIONS {
        let sid = format!("rt-{s}");
        let reply = fleet.exchange(
            &format!("resume-{s}"),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: sid.clone(),
                utterance: "1 more pattern.".into(),
            }),
        );
        if s == warm {
            match reply.outcome {
                WireOutcome::Err(error) => assert_eq!(
                    error.kind, "SessionNotFound",
                    "the warm session lived only in the killed worker's memory"
                ),
                WireOutcome::Ok(_) => panic!("session {sid} cannot have survived the kill"),
            }
        } else {
            match reply.outcome {
                WireOutcome::Ok(response) => {
                    let ResponsePayload::SessionTurn(turn) = response.payload else {
                        panic!("wrong payload for {sid}");
                    };
                    assert_eq!(turn.turn, 2, "{sid} resumed mid-dialog");
                    assert_eq!(turn.library.len(), 3, "{sid} kept its library");
                }
                WireOutcome::Err(error) => {
                    panic!("spilled session {sid} must rehydrate, got {error:?}")
                }
            }
        }
    }
    fleet.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Serialized `SessionTurn` payloads of the uninterrupted reference
/// run — what each turn must look like on the wire, crash or no crash.
fn uninterrupted_turn_payloads(id: &str) -> Vec<String> {
    let system = build_system();
    system.session_open(id, Some(SEED)).expect("opens");
    TURNS
        .iter()
        .map(|utterance| {
            let turn = system.session_turn(id, utterance).expect("turn runs");
            serde_json::to_string(&ResponsePayload::SessionTurn(turn)).expect("serializes")
        })
        .collect()
}

#[test]
fn sigkill_at_any_point_loses_at_most_the_inflight_turn() {
    let reference = uninterrupted_turn_payloads("sk");

    // Between-turns kills: SIGKILL after every prefix of completed
    // turns. With --spill-ahead-turns 1 each completed turn is durable
    // before its reply, so the restarted process resumes exactly where
    // the dialog stopped and every remaining turn is byte-identical.
    for kill_after in 1..TURNS.len() {
        let dir = temp_dir(&format!("sigkill-{kill_after}"));
        let dir_arg = dir.to_str().expect("utf-8 temp path");
        let durability = ["--session-dir", dir_arg, "--spill-ahead-turns", "1"];
        let mut serve_a = ServeClient::spawn(&durability);
        serve_a.expect_ok(
            "open",
            PatternRequest::SessionOpen(SessionOpenParams {
                session: "sk".into(),
                seed: Some(SEED),
            }),
        );
        for (i, utterance) in TURNS[..kill_after].iter().enumerate() {
            let payload = serve_a.expect_ok(
                &format!("a-{i}"),
                PatternRequest::SessionTurn(SessionTurnParams {
                    session: "sk".into(),
                    utterance: (*utterance).to_owned(),
                }),
            );
            assert_eq!(
                serde_json::to_string(&payload).expect("serializes"),
                reference[i]
            );
        }
        serve_a.kill();

        let mut serve_b = ServeClient::spawn(&durability);
        for (i, utterance) in TURNS.iter().enumerate().skip(kill_after) {
            let payload = serve_b.expect_ok(
                &format!("b-{i}"),
                PatternRequest::SessionTurn(SessionTurnParams {
                    session: "sk".into(),
                    utterance: (*utterance).to_owned(),
                }),
            );
            assert_eq!(
                serde_json::to_string(&payload).expect("serializes"),
                reference[i],
                "turn {} after SIGKILL at {kill_after} must be byte-identical",
                i + 1
            );
        }
        serve_b.shutdown();
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn sigkill_mid_turn_loses_only_the_inflight_turn() {
    let reference = uninterrupted_turn_payloads("mid");
    let dir = temp_dir("sigkill-mid");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let durability = ["--session-dir", dir_arg, "--spill-ahead-turns", "1"];

    let mut serve_a = ServeClient::spawn(&durability);
    serve_a.expect_ok(
        "open",
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "mid".into(),
            seed: Some(SEED),
        }),
    );
    let payload = serve_a.expect_ok(
        "t0",
        PatternRequest::SessionTurn(SessionTurnParams {
            session: "mid".into(),
            utterance: TURNS[0].to_owned(),
        }),
    );
    assert_eq!(
        serde_json::to_string(&payload).expect("serializes"),
        reference[0]
    );
    // Fire the second turn and SIGKILL without reading the reply: the
    // kill lands at an arbitrary point of the in-flight turn.
    let envelope = RequestEnvelope {
        id: serde_json::to_value(&"t1"),
        tenant: None,
        request: PatternRequest::SessionTurn(SessionTurnParams {
            session: "mid".into(),
            utterance: TURNS[1].to_owned(),
        }),
    };
    let line = serde_json::to_string(&envelope).expect("serializes");
    {
        let stdin = serve_a.stdin.as_mut().expect("stdin open");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
    }
    serve_a.kill();

    // Restart: the session is at turn 1 (the in-flight turn was lost)
    // or at turn 2 (it completed and spilled just before the kill) —
    // never anything less or more. Resume from whichever point
    // survived; the remaining turns stay byte-identical.
    let mut serve_b = ServeClient::spawn(&durability);
    let ResponsePayload::SessionSnapshot(peek) = serve_b.expect_ok(
        "peek",
        PatternRequest::SessionSnapshot(SessionSnapshotParams {
            session: "mid".into(),
        }),
    ) else {
        panic!("wrong payload");
    };
    let completed = peek.agent.turns;
    assert!(
        completed == 1 || completed == 2,
        "at most the in-flight turn is lost, never a completed one: {completed}"
    );
    for (i, utterance) in TURNS.iter().enumerate().skip(completed) {
        let payload = serve_b.expect_ok(
            &format!("r-{i}"),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: "mid".into(),
                utterance: (*utterance).to_owned(),
            }),
        );
        assert_eq!(
            serde_json::to_string(&payload).expect("serializes"),
            reference[i],
            "turn {} after the mid-turn SIGKILL must be byte-identical",
            i + 1
        );
    }
    serve_b.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn restart_over_ten_thousand_session_sharded_dir_rehydrates_lazily() {
    const SESSIONS: usize = 10_000;
    const SHARDS: usize = 8;
    let dir = temp_dir("tenk");
    for shard in 0..SHARDS {
        std::fs::create_dir_all(dir.join(format!("shard-{shard}"))).expect("shard dir");
    }
    // One real snapshot, re-identified for every seeded session and
    // written straight into its shard (the same route hash the store
    // uses picks the subdirectory).
    let system = build_system();
    system.session_open("proto", Some(SEED)).expect("opens");
    let mut snapshot = system.session_snapshot("proto").expect("exports");
    for s in 0..SESSIONS {
        let id = format!("bulk-{s}");
        snapshot.session = id.clone();
        let shard = (chatpattern::core::routing::route_hash(&id) % SHARDS as u64) as usize;
        let path = dir
            .join(format!("shard-{shard}"))
            .join(format!("{id}.session.json"));
        std::fs::write(path, serde_json::to_string(&snapshot).expect("serializes"))
            .expect("snapshot seeded");
    }
    let census = |dir: &std::path::Path| -> usize {
        (0..SHARDS)
            .map(|shard| {
                std::fs::read_dir(dir.join(format!("shard-{shard}")))
                    .expect("shard dir reads")
                    .count()
            })
            .sum()
    };
    assert_eq!(census(&dir), SESSIONS);

    // Restart over the full directory. Rehydration is strictly
    // on-demand (a touched id is read, decoded and consumed; nothing
    // else is opened), so startup cost is independent of the 10k
    // spilled sessions sitting on disk.
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let mut serve = ServeClient::spawn(&["--session-dir", dir_arg, "--persist-shards", "8"]);
    for s in [17usize, 9_301] {
        let id = format!("bulk-{s}");
        let ResponsePayload::SessionTurn(turn) = serve.expect_ok(
            &format!("touch-{s}"),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: id.clone(),
                utterance: TURNS[0].to_owned(),
            }),
        ) else {
            panic!("wrong payload");
        };
        assert_eq!(turn.turn, 1, "{id} resumed from its seeded snapshot");
    }
    // Exactly the two touched snapshots were consumed; the other 9,998
    // were never read, let alone decoded, by the restart.
    assert_eq!(census(&dir), SESSIONS - 2);
    serve.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn snapshot_restore_errors_are_typed() {
    let system = build_system();
    // Snapshot of an unknown id.
    let err = system
        .session_snapshot("ghost")
        .expect_err("unknown id cannot be exported");
    assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
    // Restore of a tampered snapshot.
    system.session_open("t", Some(1)).expect("opens");
    let mut snapshot = system.session_snapshot("t").expect("exports");
    let _ = system.session_close("t").expect("closes");
    snapshot.agent.context.rng.truncate(2);
    let err = system
        .session_restore(snapshot)
        .expect_err("corrupt RNG state must be rejected");
    assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
    // Restore of a snapshot from a build that does not exist yet.
    system.session_open("t", Some(1)).expect("opens");
    let mut snapshot = system.session_snapshot("t").expect("exports");
    let _ = system.session_close("t").expect("closes");
    assert_eq!(snapshot.format, 3);
    snapshot.format = 4;
    let err = system
        .session_restore(snapshot)
        .expect_err("a format this build has not heard of is refused, not guessed at");
    assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
    assert!(
        err.to_string()
            .contains("unknown session snapshot format 4 (this build reads formats 1..=3)"),
        "{err}"
    );
}

/// A snapshot a format-2 build's `chatpattern-serve` spilled
/// (`--window 16 --training-patterns 8 --diffusion-steps 6 --seed 7
/// --spill-ahead-turns 1`, session seed 21, two turns, the second with
/// quotes and a non-ASCII letter in it) — written by the value-tree
/// codec, before the streaming one existed, every topology spelled as
/// `bits`.
const PARENT_SPILLED: &str = include_str!("data/parent_spilled.session.json");

/// Old files keep working: the format-2 file reads back, and the
/// session resumes here exactly as it resumed in the build that wrote
/// it — turn 3's outcome is the one that build produced over the same
/// file (FNV-1a of its reply line's payload, recorded when the fixture
/// was made). What spill-ahead then leaves in its place is a format-3
/// file: the same session, every topology packed.
#[test]
fn snapshot_spilled_by_a_previous_build_restores_and_respills_as_format_3() {
    use chatpattern::core::routing::route_hash;

    let snapshot: SessionSnapshot = serde_json::from_str(PARENT_SPILLED).expect("old file reads");
    assert_eq!((snapshot.format, snapshot.session.as_str()), (2, "handoff"));
    assert_eq!(PARENT_SPILLED.matches(r#""bits""#).count(), 3);

    let dir = temp_dir("parent-spill");
    let file = dir.join("handoff.session.json");
    std::fs::write(&file, PARENT_SPILLED).expect("fixture copied");
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(7)
        .session_dir(&dir)
        .spill_ahead_turns(1)
        .build()
        .expect("valid configuration");
    let turn = system
        .session_turn("handoff", "1 more pattern.")
        .expect("the spilled session resumes");
    assert_eq!((turn.turn, turn.library.len()), (3, 4));
    assert_eq!(
        route_hash(&serde_json::to_string(&turn).expect("serializes")),
        0x7dbf_10a9_461e_f37c,
        "turn 3 differs from the previous build's"
    );
    let respilled = std::fs::read_to_string(&file).expect("spill-ahead rewrote the file");
    assert!(respilled.contains(r#""format":3"#), "{respilled}");
    assert_eq!(respilled.matches(r#""packed":""#).count(), 4, "{respilled}");
    assert!(!respilled.contains(r#""bits""#), "{respilled}");
    assert_eq!(
        (respilled.len(), route_hash(&respilled)),
        (6397, 0x3128_2d39_70ca_8219),
        "the file after turn 3 moved"
    );
    // The file is the live session's state, as the persist path
    // compacts it.
    let mut live = system.session_snapshot("handoff").expect("exports");
    live.compact(chatpattern::core::SNAPSHOT_TRANSCRIPT_TAIL);
    let read: SessionSnapshot = serde_json::from_str(&respilled).expect("new file reads");
    assert_eq!(read, live);
    drop(system);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What format 3 is for, at a size where it shows: an 8-pattern library
/// of 64 x 64 topologies. The whole session — transcript, policy,
/// knowledge, RNG, library — rests in under a third of the bytes the
/// library alone takes in a reply, and the snapshot one serve process
/// exports resumes in another byte-identically to the uninterrupted
/// dialog, as the `bits` snapshots did.
#[test]
fn a_window_64_session_rests_at_a_third_of_its_library_and_hands_off() {
    const OPENING: &str = "Generate 8 patterns, topology size 64*64, physical size \
                           2048nm x 2048nm, style Layer-10003.";
    let turn = |session: &str, utterance: &str| {
        PatternRequest::SessionTurn(SessionTurnParams {
            session: session.into(),
            utterance: utterance.into(),
        })
    };
    let mut serve_a = ServeClient::spawn(&["--window", "64"]);
    serve_a.expect_ok(
        "o",
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "wide".into(),
            seed: Some(SEED),
        }),
    );
    let ResponsePayload::SessionTurn(opening) = serve_a.expect_ok("t0", turn("wide", OPENING))
    else {
        panic!("wrong payload");
    };
    assert_eq!(opening.library.len(), 8);
    let ResponsePayload::SessionSnapshot(snapshot) = serve_a.expect_ok(
        "snap",
        PatternRequest::SessionSnapshot(SessionSnapshotParams {
            session: "wide".into(),
        }),
    ) else {
        panic!("wrong payload");
    };
    serve_a.kill();

    let at_rest = serde_json::to_string(&snapshot).expect("serializes");
    let in_a_reply = serde_json::to_string(&opening.library).expect("serializes");
    assert!(!at_rest.contains(r#""bits""#));
    assert!(
        3 * at_rest.len() < in_a_reply.len(),
        "a {} B snapshot of a {} B library",
        at_rest.len(),
        in_a_reply.len()
    );

    let mut serve_b = ServeClient::spawn(&["--window", "64"]);
    serve_b.expect_ok(
        "restore",
        PatternRequest::SessionRestore(SessionRestoreParams { snapshot }),
    );
    serve_b.expect_ok("t1", turn("wide", TURNS[2]));
    let closed = serve_b.expect_ok(
        "c",
        PatternRequest::SessionClose(SessionCloseParams {
            session: "wide".into(),
        }),
    );
    serve_b.shutdown();

    let system = ChatPattern::builder()
        .window(64)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration");
    system.session_open("wide", Some(SEED)).expect("opens");
    for utterance in [OPENING, TURNS[2]] {
        system.session_turn("wide", utterance).expect("turn runs");
    }
    let uninterrupted =
        ResponsePayload::SessionClose(system.session_close("wide").expect("closes"));
    assert_eq!(
        serde_json::to_string(&closed).expect("serializes"),
        serde_json::to_string(&uninterrupted).expect("serializes"),
    );
}
