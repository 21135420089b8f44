//! Fleet acceptance suite for the `chatpattern-router` (ISSUE 6).
//!
//! Spawns the real router binary, which itself spawns real
//! `chatpattern-serve --listen` workers, and drives it over TCP with
//! the `cp_net` client:
//!
//! * **Shard affinity** — a mixed generate/session workload across a
//!   3-worker fleet keeps every session worker-local (per-worker turn
//!   counters stay multiples of the per-session turn count) and
//!   cache-hot keys worker-local (a repeated Generate is a fleet-wide
//!   cache hit).
//! * **Live rebalancing** — draining the busiest worker
//!   mid-conversation moves its sessions (snapshot → restore →
//!   re-route) with zero `SessionNotFound` errors, and every
//!   continued conversation closes byte-identical to the same turns
//!   run uninterrupted in-process.
//! * **Transport equivalence** — the same scripted session produces
//!   byte-identical payloads over stdio serve, TCP serve and the
//!   router (asserted against the in-process reference here; the
//!   stdio/TCP diff also runs in `scripts/wire_smoke.sh`).
//! * **One line cap, both directions** — a request line over the
//!   workers' cap once re-framed is refused by the router under the
//!   client's own id (a worker could only refuse it under `null`, which
//!   the router cannot route back), a line well over the former 1 MiB
//!   cap is served, directly and through the router, and a client line
//!   over the cap is discarded as it streams in, answered under `null`.
//! * **One validator** — a value serve refuses for a flag forwarded
//!   with `--serve-arg` stops the router before it listens.
//! * **Auto-rebalance** — with `--rebalance-threshold 1`, a fleet
//!   whose sessions all hash onto one worker is evened out by the
//!   background rebalancer without any drain command, and every moved
//!   conversation still closes byte-identical to the uninterrupted
//!   reference.

use chatpattern::{
    ChatPattern, GenerateParams, PatternRequest, RequestEnvelope, ResponseEnvelope,
    ResponsePayload, SessionCloseParams, SessionOpenParams, SessionTurnParams, WireOutcome,
};
use cp_dataset::Style;
use cp_net::{ClientConfig, NdjsonClient, DEFAULT_MAX_LINE_BYTES};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const TURNS: [&str; 3] = [
    "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10003.",
    "Now make them denser.",
    "1 more pattern.",
];

/// The model configuration every worker runs — must match
/// [`build_system`] for the byte-identical assertions.
const SERVE_ARGS: [&str; 10] = [
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

fn build_system() -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration")
}

/// The reference: all three turns on one uninterrupted in-process
/// session, the close outcome serialized the way it crosses the wire.
fn uninterrupted_close_payload(id: &str, seed: u64) -> String {
    let system = build_system();
    system.session_open(id, Some(seed)).expect("opens");
    for utterance in &TURNS {
        system.session_turn(id, utterance).expect("turn runs");
    }
    let outcome = system.session_close(id).expect("closes");
    serde_json::to_string(&ResponsePayload::SessionClose(outcome)).expect("serializes")
}

/// A spawned router fleet plus a strict request-then-response client
/// connection to it.
struct RouterFleet {
    child: Child,
    client: NdjsonClient,
    addr: String,
}

impl RouterFleet {
    fn spawn(workers: usize, extra_router_args: &[&str]) -> RouterFleet {
        let mut command = Command::new(env!("CARGO_BIN_EXE_chatpattern-router"));
        command.args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--serve-bin",
            env!("CARGO_BIN_EXE_chatpattern-serve"),
        ]);
        for arg in SERVE_ARGS {
            command.args(["--serve-arg", arg]);
        }
        command.args(extra_router_args);
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("router binary starts");

        // The router announces its client address once the whole
        // fleet is up; keep draining its stderr afterwards.
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

        let client = NdjsonClient::connect(
            &addr,
            ClientConfig {
                read_timeout: Some(Duration::from_secs(120)),
                ..ClientConfig::default()
            },
        )
        .expect("router accepts the test client");
        RouterFleet {
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

    /// Sends a raw control line and parses the reply as JSON.
    fn control(&mut self, line: &str) -> serde_json::Value {
        self.client.send_line(line).expect("control line sent");
        let reply = self
            .client
            .recv_line()
            .expect("control reply reads")
            .expect("control reply arrives");
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparsable control {reply:?}: {e}"))
    }

    /// Per-worker (sessions, turns, pid) from the Fleet control view.
    fn fleet_view(&mut self) -> Vec<(usize, u64, Option<u32>)> {
        let fleet = self.control(r#"{"id":"fleet","control":"Fleet"}"#);
        let workers = fleet
            .get("control")
            .and_then(|c| c.get("Fleet"))
            .and_then(|f| f.get("workers"))
            .and_then(|w| w.as_array())
            .unwrap_or_else(|| panic!("malformed fleet view: {fleet:?}"));
        workers
            .iter()
            .map(|worker| {
                let sessions = worker
                    .get("sessions")
                    .and_then(|s| s.as_u64())
                    .expect("sessions count") as usize;
                let turns = worker
                    .get("stats")
                    .and_then(|s| s.get("turns"))
                    .and_then(|t| t.as_u64())
                    .unwrap_or(0);
                let pid = worker.get("pid").and_then(|p| p.as_u64()).map(|p| p as u32);
                (sessions, turns, pid)
            })
            .collect()
    }

    /// Graceful teardown: the Shutdown control kills the spawned
    /// workers, then the router exits 0.
    fn shutdown(mut self) {
        let reply = self.control(r#"{"id":"bye","control":"Shutdown"}"#);
        assert_eq!(
            reply.get("control").and_then(|c| c.as_str()),
            Some("ShuttingDown"),
            "{reply:?}"
        );
        assert!(self.child.wait().expect("router exits").success());
    }
}

impl Drop for RouterFleet {
    fn drop(&mut self) {
        // Best-effort cleanup on panic: ask the router to take its
        // workers down with it; only then resort to SIGKILL (which
        // would orphan them).
        if self.child.try_wait().ok().flatten().is_none() {
            let config = ClientConfig {
                attempts: 1,
                read_timeout: Some(Duration::from_secs(5)),
                ..ClientConfig::default()
            };
            if let Ok(mut client) = NdjsonClient::connect(&self.addr, config) {
                let _ = client.send_line(r#"{"id":"drop","control":"Shutdown"}"#);
                let _ = client.recv_line();
            }
            std::thread::sleep(Duration::from_millis(200));
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn open(fleet: &mut RouterFleet, sid: &str, seed: u64) {
    let payload = fleet.expect_ok(
        &format!("open-{sid}"),
        PatternRequest::SessionOpen(SessionOpenParams {
            session: sid.to_owned(),
            seed: Some(seed),
        }),
    );
    assert!(matches!(payload, ResponsePayload::SessionOpen(_)));
}

fn turn(fleet: &mut RouterFleet, sid: &str, index: usize) {
    let payload = fleet.expect_ok(
        &format!("turn-{sid}-{index}"),
        PatternRequest::SessionTurn(SessionTurnParams {
            session: sid.to_owned(),
            utterance: TURNS[index].to_owned(),
        }),
    );
    let ResponsePayload::SessionTurn(outcome) = payload else {
        panic!("wrong payload for turn {index} of {sid}");
    };
    assert_eq!(outcome.turn, index + 1, "turn numbering for {sid}");
}

#[test]
fn three_worker_fleet_keeps_sessions_and_keys_worker_local() {
    const SESSIONS: usize = 4;
    let mut fleet = RouterFleet::spawn(3, &[]);

    // Mixed workload: sessions interleaved with direct generates.
    for s in 0..SESSIONS {
        open(&mut fleet, &format!("aff-{s}"), 20 + s as u64);
    }
    let generate = PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: 16,
        cols: 16,
        count: 1,
        seed: 77,
    });
    let first = fleet.expect_ok("g1", generate.clone());
    assert!(matches!(first, ResponsePayload::Generate(_)));
    for s in 0..SESSIONS {
        turn(&mut fleet, &format!("aff-{s}"), 0);
    }
    for s in 0..SESSIONS {
        turn(&mut fleet, &format!("aff-{s}"), 1);
    }
    // The identical Generate again: key-hash routing must land it on
    // the same worker, where it is now a cache hit.
    let second = fleet.expect_ok("g2", generate);
    assert!(matches!(second, ResponsePayload::Generate(_)));

    // Shard affinity, observed through per-worker counters: every
    // session ran exactly 2 turns, all on one worker — so each
    // worker's turn counter is a multiple of 2, they sum to the total,
    // and the session gauges sum to every session opened.
    let view = fleet.fleet_view();
    assert_eq!(view.len(), 3);
    let total_turns: u64 = view.iter().map(|(_, turns, _)| *turns).sum();
    assert_eq!(total_turns, (SESSIONS * 2) as u64);
    for (index, (_, turns, _)) in view.iter().enumerate() {
        assert_eq!(
            turns % 2,
            0,
            "worker {index} served a partial session: {view:?}"
        );
    }
    let total_sessions: usize = view.iter().map(|(sessions, _, _)| *sessions).sum();
    assert_eq!(total_sessions, SESSIONS);

    // The fleet Stats view over the normal wire: same totals, plus
    // the repeated Generate surfaced as a cache hit somewhere.
    let ResponsePayload::Stats(stats) = fleet.expect_ok("stats", PatternRequest::Stats) else {
        panic!("wrong payload for Stats");
    };
    assert_eq!(stats.turns, (SESSIONS * 2) as u64);
    assert_eq!(stats.sessions_open, SESSIONS as u64);
    assert!(
        stats.cache_hits >= 1,
        "the repeated Generate must hit the same worker's cache: {stats:?}"
    );
    assert_eq!(stats.queue_depths.len(), 3, "one queue per worker");

    for s in 0..SESSIONS {
        let payload = fleet.expect_ok(
            &format!("close-{s}"),
            PatternRequest::SessionClose(SessionCloseParams {
                session: format!("aff-{s}"),
            }),
        );
        assert!(matches!(payload, ResponsePayload::SessionClose(_)));
    }
    fleet.shutdown();
}

#[test]
fn the_line_cap_is_answered_under_the_clients_id_and_sits_above_the_old_one() {
    let mut fleet = RouterFleet::spawn(1, &[]);

    // Exactly the 8 MiB cap as the client frames it, so it passes the
    // router's front door; over it once the router has re-framed it
    // for the worker (an explicit `"tenant":null` outweighs the
    // shorter internal id). The client must hear about it.
    let envelope = |utterance: &str| {
        format!(r#"{{"id":"over","request":{{"Chat":{{"request":"{utterance}","seed":1}}}}}}"#)
    };
    let over = envelope(&"x".repeat(DEFAULT_MAX_LINE_BYTES - envelope("").len()));
    assert_eq!(over.len(), DEFAULT_MAX_LINE_BYTES);
    fleet.client.send_line(&over).expect("oversize line sent");
    let refused = fleet.client.recv().expect("the router answers");
    assert_eq!(refused.id.as_str(), Some("over"), "under the client's id");
    let WireOutcome::Err(error) = refused.outcome else {
        panic!("a line over the cap must be refused");
    };
    assert_eq!(error.kind, "Config");
    assert!(error.message.contains("exceeds 8388608 bytes"), "{error:?}");

    // A valid request padded with JSON whitespace to 1.5 MB — over the
    // former 1 MiB request cap, under the one cap there is now — is
    // served through the router and by a worker directly.
    let padded = |id: &str| {
        let line = serde_json::to_string(&RequestEnvelope {
            id: serde_json::to_value(&id),
            tenant: None,
            request: PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 9,
            }),
        })
        .expect("serializes");
        let body = line.strip_suffix('}').expect("an object");
        format!("{body}{}}}", " ".repeat(1_500_000 - line.len()))
    };
    fleet.client.send_line(&padded("routed")).expect("sent");
    let routed = fleet.client.recv().expect("the router answers");
    assert_eq!(routed.id.as_str(), Some("routed"));
    assert!(matches!(routed.outcome, WireOutcome::Ok(_)), "{routed:?}");

    let view = fleet.control(r#"{"id":"fleet","control":"Fleet"}"#);
    let worker_addr = view
        .get("control")
        .and_then(|c| c.get("Fleet"))
        .and_then(|f| f.get("workers"))
        .and_then(|w| w.as_array())
        .and_then(|w| w.first())
        .and_then(|w| w.get("addr"))
        .and_then(|a| a.as_str())
        .unwrap_or_else(|| panic!("no worker address in {view:?}"))
        .to_owned();
    let mut direct = NdjsonClient::connect(
        &worker_addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(120)),
            ..ClientConfig::default()
        },
    )
    .expect("the worker accepts the test client");
    direct.send_line(&padded("direct")).expect("sent");
    let served = direct.recv().expect("the worker answers");
    assert_eq!(served.id.as_str(), Some("direct"));
    assert!(matches!(served.outcome, WireOutcome::Ok(_)), "{served:?}");
    drop(direct);

    fleet.shutdown();
}

/// Peak resident set of a live process in KiB, from `/proc/PID/status`.
fn peak_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status reads");
    let peak = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    let kib = peak.and_then(|rest| rest.trim().strip_suffix("kB"));
    kib.and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in {status}"))
}

#[test]
fn an_unterminated_line_over_the_cap_is_refused_without_being_buffered_whole() {
    let mut fleet = RouterFleet::spawn(1, &[]);
    let before = peak_rss_kib(fleet.child.id());

    // Eight caps' worth of bytes go by before the router sees the
    // newline: a reader that waits for it before it measures has to
    // hold them all.
    const STREAMED: usize = 8 * DEFAULT_MAX_LINE_BYTES + 1;
    fleet
        .client
        .send_line(&"x".repeat(STREAMED))
        .expect("bytes streamed");
    let refused = fleet.client.recv().expect("the router answers");
    assert!(refused.id.is_null(), "nothing to recover an id from");
    let WireOutcome::Err(error) = refused.outcome else {
        panic!("a line over the cap must be refused");
    };
    let expected = format!(
        "exceeds {DEFAULT_MAX_LINE_BYTES} bytes ({} bytes discarded)",
        STREAMED + 1
    );
    assert!(error.message.contains(&expected), "{error:?}");

    // The connection survived and framing resumed at the newline.
    let payload = fleet.expect_ok("after", PatternRequest::Stats);
    assert!(matches!(payload, ResponsePayload::Stats(_)));

    // The framer buffers up to the cap before it switches to
    // discarding, so the router held one cap's worth of the line at
    // most, not the 64 MiB that went by.
    let grown = peak_rss_kib(fleet.child.id()).saturating_sub(before);
    assert!(
        grown < 3 * (DEFAULT_MAX_LINE_BYTES as u64 / 1024),
        "router peak RSS grew by {grown} KiB for a {STREAMED}-byte line"
    );
    fleet.shutdown();
}

/// The router has no copy of serve's flag syntax: `--serve-arg` hands
/// the words over, the serve child checks them, and a value it refuses
/// ends the router's start-up — before any address is announced, with
/// the child's own complaint on stderr.
#[test]
fn a_forwarded_serve_flag_is_validated_by_serve_before_the_router_listens() {
    for (flag, value) in [("--tenant-quota", "bogus=1"), ("--lane-weights", "1,2")] {
        let output = Command::new(env!("CARGO_BIN_EXE_chatpattern-router"))
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--serve-bin"])
            .arg(env!("CARGO_BIN_EXE_chatpattern-serve"))
            .args(["--serve-arg", flag, "--serve-arg", value])
            .stdin(Stdio::null())
            .output()
            .expect("router binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("listening on"), "{stderr}");
        let complaint = format!("[worker 0] chatpattern-serve: {flag}:");
        assert!(stderr.contains(&complaint), "{stderr}");
    }
}

#[test]
fn auto_rebalance_evens_out_a_skewed_fleet_losslessly() {
    const BASE_SEED: u64 = 60;
    let mut fleet = RouterFleet::spawn(
        2,
        &[
            "--rebalance-threshold",
            "1",
            "--rebalance-interval-ms",
            "200",
        ],
    );

    // Four session ids that all hash onto worker 0 of a two-worker
    // fleet — the maximal skew the rebalancer exists to fix.
    let sids: Vec<String> = (0..64)
        .map(|i| format!("rb-{i}"))
        .filter(|sid| chatpattern_core::routing::route_hash(sid).is_multiple_of(2))
        .take(4)
        .collect();
    assert_eq!(sids.len(), 4, "hash collisions exist among 64 candidates");
    for (k, sid) in sids.iter().enumerate() {
        open(&mut fleet, sid, BASE_SEED + k as u64);
    }
    for sid in &sids {
        turn(&mut fleet, sid, 0);
        turn(&mut fleet, sid, 1);
    }

    // No drain command: the background rebalancer alone must bring the
    // per-worker session counts within the threshold (2/2 here).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let view = fleet.fleet_view();
        let counts: Vec<usize> = view.iter().map(|(sessions, _, _)| *sessions).collect();
        let (max, min) = (
            counts.iter().copied().max().unwrap_or(0),
            counts.iter().copied().min().unwrap_or(0),
        );
        assert_eq!(counts.iter().sum::<usize>(), sids.len(), "{view:?}");
        if max - min <= 1 {
            assert_eq!((max, min), (2, 2), "balanced means 2/2 here: {view:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "auto-rebalance never evened out the fleet: {view:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Every conversation — two of them freshly moved — continues and
    // closes byte-identical to the uninterrupted in-process reference.
    for sid in &sids {
        turn(&mut fleet, sid, 2);
    }
    for (k, sid) in sids.iter().enumerate() {
        let payload = fleet.expect_ok(
            &format!("close-{sid}"),
            PatternRequest::SessionClose(SessionCloseParams {
                session: sid.clone(),
            }),
        );
        let routed = serde_json::to_string(&payload).expect("serializes");
        assert_eq!(
            routed,
            uninterrupted_close_payload(sid, BASE_SEED + k as u64),
            "session {sid} diverged after an auto-rebalance"
        );
    }
    fleet.shutdown();
}

#[test]
fn draining_a_worker_mid_conversation_is_lossless_and_byte_identical() {
    const SESSIONS: usize = 4;
    const BASE_SEED: u64 = 40;
    let mut fleet = RouterFleet::spawn(3, &[]);

    // Two turns into every conversation...
    for s in 0..SESSIONS {
        open(&mut fleet, &format!("mv-{s}"), BASE_SEED + s as u64);
    }
    for s in 0..SESSIONS {
        turn(&mut fleet, &format!("mv-{s}"), 0);
        turn(&mut fleet, &format!("mv-{s}"), 1);
    }

    // ...drain the busiest worker (pigeonhole: it hosts >= 2 of the 4
    // sessions), moving its live sessions elsewhere.
    let view = fleet.fleet_view();
    let (busiest, hosted) = view
        .iter()
        .enumerate()
        .map(|(index, (sessions, _, _))| (index, *sessions))
        .max_by_key(|(_, sessions)| *sessions)
        .expect("three workers");
    assert!(hosted >= 1, "no worker hosts a session: {view:?}");
    let drained = fleet.control(&format!(
        r#"{{"id":"drain","control":{{"Drain":{{"worker":{busiest}}}}}}}"#
    ));
    let moved = drained
        .get("control")
        .and_then(|c| c.get("Drained"))
        .and_then(|d| d.get("moved"))
        .and_then(|m| m.as_u64())
        .unwrap_or_else(|| panic!("drain failed: {drained:?}"));
    assert_eq!(moved as usize, hosted, "every hosted session moved");
    let after = fleet.fleet_view();
    assert_eq!(
        after[busiest].0, 0,
        "the drained worker hosts nothing: {after:?}"
    );

    // Zero SessionNotFound: every conversation continues...
    for s in 0..SESSIONS {
        turn(&mut fleet, &format!("mv-{s}"), 2);
    }
    // ...and every close — moved or not — is byte-identical to the
    // same three turns run uninterrupted on one in-process session.
    for s in 0..SESSIONS {
        let sid = format!("mv-{s}");
        let payload = fleet.expect_ok(
            &format!("close-{sid}"),
            PatternRequest::SessionClose(SessionCloseParams {
                session: sid.clone(),
            }),
        );
        let routed = serde_json::to_string(&payload).expect("serializes");
        assert_eq!(
            routed,
            uninterrupted_close_payload(&sid, BASE_SEED + s as u64),
            "session {sid} diverged after the rebalance"
        );
    }
    fleet.shutdown();
}
