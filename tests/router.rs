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
//! * **The front door is `cp_net`'s event loop** (ISSUE 18) — a client
//!   that stops reading is cut off at the outbound high-water mark and
//!   costs no other client a reply; a client that half-closes hears
//!   every answer it is owed (forwarded, fan-in, control) before the
//!   EOF; a hundred idle clients cost no thread and keep nobody out;
//!   one client's lines reach each worker in the order it sent them,
//!   parked behind a live session move or not; and an attached worker
//!   that died fails its own lines after the redial while the lines
//!   for every other worker are served meanwhile.
//! * **Quotas through a fleet** (ISSUE 21) — three tenants replay a skewed mixed load against a
//!   2-worker fleet with a per-tenant in-flight quota, re-sending what
//!   is refused with typed back-pressure after its `retry_after_ms`:
//!   every operation completes, and the fleet-merged ledger agrees with
//!   what the clients saw on the wire.
//!
//! The other half of the fleet guarantee — a SIGKILLed spawned worker
//! respawned over its `--session-dir` — is
//! `tests/session_durability.rs::sigkilled_router_worker_rehydrates_its_spilled_sessions`.
//! CI runs this suite once, inside `cargo test`; `cargo test --test
//! router` names a routing regression.

use chatpattern::qos::{DEFAULT_RETRY_AFTER_MS, DEFAULT_TENANT};
use chatpattern::{
    ChatPattern, EvaluateParams, ExtendParams, GenerateParams, LegalizeParams, PatternRequest,
    RequestEnvelope, ResponseEnvelope, ResponsePayload, SessionCloseParams, SessionOpenParams,
    SessionTurnParams, WireOutcome,
};
use cp_dataset::Style;
use cp_extend::ExtensionMethod;
use cp_net::{ClientConfig, NdjsonClient, DEFAULT_MAX_LINE_BYTES};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// Starts a product binary that announces `NAME: listening on ADDR` on
/// its stderr — the router once its whole fleet is up, a serve worker
/// once its model is built — and keeps draining that stderr afterwards.
fn spawn_listening(command: &mut Command, name: &str) -> (Child, String) {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"));
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let marker = format!("{name}: listening on ");
    let addr = loop {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("{name} announces its address before EOF"))
            .expect("stderr reads");
        if let Some(addr) = line.strip_prefix(&marker) {
            break addr.trim().to_owned();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

/// A strict request-then-response client; a reply that takes longer
/// than two minutes fails the test instead of hanging it.
fn connect(addr: &str) -> NdjsonClient {
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(120)),
        ..ClientConfig::default()
    };
    NdjsonClient::connect(addr, config).expect("the test client is accepted")
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
        let mut args = vec!["--workers".to_owned(), workers.to_string()];
        args.extend(["--serve-bin", env!("CARGO_BIN_EXE_chatpattern-serve")].map(String::from));
        for arg in SERVE_ARGS {
            args.extend(["--serve-arg", arg].map(String::from));
        }
        args.extend(extra_router_args.iter().map(|arg| (*arg).to_owned()));
        RouterFleet::start(&args)
    }

    /// A router in front of whatever `args` describe.
    fn start(args: &[String]) -> RouterFleet {
        let mut command = Command::new(env!("CARGO_BIN_EXE_chatpattern-router"));
        command.args(["--listen", "127.0.0.1:0"]).args(args);
        let (child, addr) = spawn_listening(&mut command, "chatpattern-router");
        let client = connect(&addr);
        RouterFleet {
            child,
            client,
            addr,
        }
    }

    fn exchange(&mut self, id: &str, request: PatternRequest) -> ResponseEnvelope {
        self.client
            .call(&envelope(id, request))
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

/// The fleet half of `tests/wire.rs::
/// a_packed_request_and_its_bits_twin_are_one_execution`, as far as a
/// fleet still promises it: the router places a keyed request by the
/// bytes the client sent, so a packed line and its `bits` twin are two
/// texts and may reach different workers — but each spelling sent again
/// finds the worker that has it cached, and wherever the two land they
/// are one request with one payload.
#[test]
fn a_packed_request_and_its_bits_twin_each_find_their_workers_cache() {
    let mut fleet = RouterFleet::spawn(2, &[]);
    let mut payloads = Vec::new();
    for (id, topology) in [
        ("packed", r#"{"rows":3,"cols":6,"packed":"f8cc84"}"#),
        (
            "bits",
            r#"{"rows":3,"cols":6,"bits":[1,1,1,1,1,0,1,1,0,0,1,1,1,0,0,0,0,1]}"#,
        ),
    ] {
        for round in 0..2 {
            let reply = fleet.control(&format!(
                r#"{{"id":"{id}-{round}","request":{{"Legalize":{{"topology":{topology},"width_nm":2048,"height_nm":2048,"seed":1}}}}}}"#
            ));
            let payload = &reply["outcome"]["Ok"]["payload"];
            assert!(payload.get("Legalize").is_some(), "{id}: {reply}");
            payloads.push(payload.to_string());
        }
    }
    assert!(payloads.iter().all(|payload| *payload == payloads[0]));
    // Two workers' caches: the two spellings missed once where they
    // shared a worker and once each where they did not — and no more,
    // so each repeat was a hit.
    let ResponsePayload::Stats(stats) = fleet.expect_ok("stats", PatternRequest::Stats) else {
        panic!("wrong payload for Stats");
    };
    assert_eq!(stats.cache_misses + stats.cache_hits, 4, "{stats:?}");
    assert!((1..=2).contains(&stats.cache_misses), "{stats:?}");
    fleet.shutdown();
}

/// The address of a spawned worker, for talking to it directly.
fn worker_addr(fleet: &mut RouterFleet, index: usize) -> String {
    let view = fleet.control(r#"{"id":"fleet","control":"Fleet"}"#);
    let addr = view["control"]["Fleet"]["workers"][index]["addr"].as_str();
    addr.unwrap_or_else(|| panic!("no worker {index} address in {view:?}"))
        .to_owned()
}

/// Sends `lines` down one connection, half-closes and reads to EOF.
fn replies_to(addr: &str, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    let batch: String = lines.iter().map(|line| format!("{line}\n")).collect();
    stream.write_all(batch.as_bytes()).expect("batch written");
    stream.shutdown(Shutdown::Write).expect("write side closes");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let replies = BufReader::new(stream).lines();
    replies.map(|line| line.expect("reply reads")).collect()
}

/// The router forwards a request's text without decoding it, so the
/// worker is the one that refuses what is no request — and the client
/// must not be able to tell: every line that a serve process refuses is
/// answered through the router exactly once, under the same id and with
/// the same `kind`, whether the router saw the problem (no id, not
/// JSON) or passed the line on (anything wrong inside `request`). A
/// line the router lets through and its worker cannot answer under the
/// internal id would be a reply nobody is waiting on and a client that
/// hangs: the `Generate` behind the refusals is served, and the
/// half-closed connection ends, only if nothing was left pending.
#[test]
fn what_serve_refuses_the_fleet_refuses_once_under_the_same_id_and_kind() {
    const REFUSED: [&str; 11] = [
        r#"{"id":"variant","request":{"Nonsense":{}}}"#,
        r#"{"id":"payload","request":{"Legalize":5}}"#,
        r#"{"id":"short","request":{"Legalize":{"topology":{"rows":4,"cols":4,"bits":[1,1,0]},"width_nm":2048,"height_nm":2048,"seed":1}}}"#,
        r#"{"id":"cell","request":{"Legalize":{"topology":{"rows":1,"cols":3,"bits":[1,2,0]},"width_nm":2048,"height_nm":2048,"seed":1}}}"#,
        r#"{"id":"no-session","request":{"SessionTurn":{"utterance":"denser"}}}"#,
        r#"{"id":"two-tags","request":{"Stats":{},"Chat":{}}}"#,
        r#"{"id":"null-request","request":null}"#,
        r#"{"id":"tenant","tenant":5,"request":"Stats"}"#,
        r#"{"request":"Stats"}"#,
        r#"{"id":null,"request":"Stats"}"#,
        r#"{"id":"broken","request":{"Generate":{"rows":[1,,2]}}}"#,
    ];
    let served = request_line("served", generate(1, 9));
    let mut lines = REFUSED.to_vec();
    lines.extend(["{oops", served.trim_end()]);

    let mut fleet = RouterFleet::spawn(2, &[]);
    let direct = replies_to(&worker_addr(&mut fleet, 0), &lines);
    let routed = replies_to(&fleet.addr, &lines);

    let id_and_kind = |replies: &[String]| {
        let mut seen: Vec<(String, String)> = replies
            .iter()
            .map(|line| {
                let reply: serde_json::Value = serde_json::from_str(line).expect("reply parses");
                let kind = match reply["outcome"].get("Err") {
                    Some(error) => error["kind"].as_str().expect("a kind").to_owned(),
                    None => "Ok".to_owned(),
                };
                (reply["id"].to_string(), kind)
            })
            .collect();
        seen.sort();
        seen
    };
    let expected = id_and_kind(&direct);
    assert_eq!(
        expected.len(),
        lines.len(),
        "serve answers each: {direct:?}"
    );
    let invalid = expected.iter().filter(|(_, kind)| kind == "InvalidRequest");
    assert_eq!(invalid.count(), REFUSED.len() + 1, "{direct:?}");
    assert!(expected.contains(&("\"served\"".to_owned(), "Ok".to_owned())));
    assert_eq!(id_and_kind(&routed), expected, "{routed:?}");
    // Four lines have no id to answer under; every other id is there.
    let anonymous = expected.iter().filter(|(id, _)| id == "null").count();
    assert_eq!(anonymous, 4, "{direct:?}");
    fleet.shutdown();
}

/// What the router reads of an envelope it reads as serve does: any
/// scalar id comes back as serve prints it, and a client's own key
/// order and spacing — in the envelope and inside the request, which
/// goes to the worker as sent — are served.
#[test]
fn ids_echo_and_a_clients_own_spelling_is_served() {
    let mut fleet = RouterFleet::spawn(2, &[]);
    let request = r#"{"Generate":{"cols":16,"count":1,"rows":16,"seed":9,"style":"Layer10001"}}"#;
    let ids = [r#""s""#, "7", "-7", "1.5", "true", "1e3", r#""\u0041""#];
    let lines: Vec<String> = ids
        .iter()
        .map(|id| format!(r#"{{"id":{id},"request":{request}}}"#))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    let echoed = |replies: Vec<String>| {
        let mut heads: Vec<String> = replies
            .iter()
            .map(|line| {
                assert!(line.contains(r#""outcome":{"Ok":"#), "{line}");
                line.split(r#","outcome""#)
                    .next()
                    .expect("a head")
                    .to_owned()
            })
            .collect();
        heads.sort();
        heads
    };
    let direct = echoed(replies_to(&worker_addr(&mut fleet, 0), &lines));
    let mut expected = vec![
        r#"{"id":"s""#,
        r#"{"id":7"#,
        r#"{"id":-7"#,
        r#"{"id":1.5"#,
        r#"{"id":true"#,
        r#"{"id":1000"#,
        r#"{"id":"A""#,
    ];
    expected.sort_unstable();
    assert_eq!(direct, expected);
    assert_eq!(echoed(replies_to(&fleet.addr, &lines)), expected);

    let spelled = [
        r#"{"request":{"Generate":{"cols":16,"count":1,"rows":16,"seed":9,"style":"Layer10001"}},"tenant":null,"id":"reversed"}"#,
        "{ \"id\" : \"spaced\" ,\t\"request\" : { \"Generate\" : { \"style\" : \"Layer10001\" , \
         \"seed\" : 9 , \"rows\" : 16 , \"cols\" : 16 , \"count\" : 1 , \"later\" : [ 1 , { } ] } } }",
    ];
    let mut payloads = Vec::new();
    for line in spelled {
        let reply = fleet.control(line);
        let payload = &reply["outcome"]["Ok"]["payload"];
        assert!(payload.get("Generate").is_some(), "{line}: {reply}");
        payloads.push(payload.to_string());
    }
    assert_eq!(payloads[0], payloads[1], "one request, two spellings");
    fleet.shutdown();
}

/// The router hands a client the worker's outcome text under the
/// client's id without reading it. The path this replaced decoded every
/// reply into a `ResponseEnvelope` and wrote it out again; it lives on
/// here as the reference: for every payload kind, and for an error, the
/// spliced line is byte for byte what `to_line` makes of its own typed
/// decode.
#[test]
fn a_spliced_reply_is_the_line_the_typed_path_would_write() {
    let mut fleet = RouterFleet::spawn(2, &[]);
    let spliced = |fleet: &mut RouterFleet, id: &str, request: PatternRequest| {
        let line = request_line(id, request);
        fleet.client.send_line(line.trim_end()).expect("sent");
        let reply = fleet.client.recv_line().expect("reply reads");
        let reply = reply.expect("reply arrives");
        let typed: ResponseEnvelope = serde_json::from_str(&reply).expect("reply decodes");
        assert_eq!(typed.id.as_str(), Some(id));
        assert_eq!(typed.to_line(), reply, "{id}");
        typed.outcome
    };
    let payload = |outcome: WireOutcome| match outcome {
        WireOutcome::Ok(response) => response.payload,
        WireOutcome::Err(error) => panic!("request failed: {error:?}"),
    };
    let session = || "spliced".to_owned();
    let mut kinds = std::collections::HashSet::new();
    let mut record = |payload: &ResponsePayload| kinds.insert(std::mem::discriminant(payload));

    let chat = chatpattern::ChatParams {
        request: TURNS[0].to_owned(),
        seed: Some(5),
    };
    record(&payload(spliced(
        &mut fleet,
        "chat",
        PatternRequest::Chat(chat),
    )));
    let open = SessionOpenParams {
        session: session(),
        seed: Some(6),
    };
    let turn = SessionTurnParams {
        session: session(),
        utterance: TURNS[0].to_owned(),
    };
    let snapshot = chatpattern::SessionSnapshotParams { session: session() };
    let close = SessionCloseParams { session: session() };
    record(&payload(spliced(
        &mut fleet,
        "open",
        PatternRequest::SessionOpen(open),
    )));
    record(&payload(spliced(
        &mut fleet,
        "turn",
        PatternRequest::SessionTurn(turn.clone()),
    )));
    let exported = payload(spliced(
        &mut fleet,
        "snapshot",
        PatternRequest::SessionSnapshot(snapshot),
    ));
    record(&exported);
    let ResponsePayload::SessionSnapshot(exported) = exported else {
        panic!("wrong payload for SessionSnapshot");
    };
    record(&payload(spliced(
        &mut fleet,
        "close",
        PatternRequest::SessionClose(close),
    )));
    let restore = chatpattern::SessionRestoreParams { snapshot: exported };
    record(&payload(spliced(
        &mut fleet,
        "restore",
        PatternRequest::SessionRestore(restore),
    )));

    let generated = payload(spliced(&mut fleet, "generate", generate(2, 11)));
    record(&generated);
    let ResponsePayload::Generate(topologies) = generated else {
        panic!("wrong payload for Generate");
    };
    let extend = ExtendParams {
        seed_topology: topologies[0].clone(),
        rows: 24,
        cols: 24,
        method: ExtensionMethod::InPainting,
        style: Style::Layer10001,
        seed: 12,
    };
    let modify = chatpattern::ModifyParams {
        known: topologies[0].clone(),
        region: cp_squish::Region::new(2, 2, 9, 9),
        style: Style::Layer10001,
        seed: 13,
    };
    let legalize = LegalizeParams {
        topology: topologies[1].clone(),
        width_nm: 512,
        height_nm: 512,
        seed: 14,
    };
    let evaluate = EvaluateParams {
        topologies,
        frame_nm: 512,
        seed: 15,
    };
    for (id, request) in [
        ("extend", PatternRequest::Extend(extend)),
        ("modify", PatternRequest::Modify(modify)),
        ("legalize", PatternRequest::Legalize(legalize)),
        ("evaluate", PatternRequest::Evaluate(evaluate)),
        ("stats", PatternRequest::Stats),
    ] {
        record(&payload(spliced(&mut fleet, id, request)));
    }
    assert_eq!(kinds.len(), 12, "one of each payload kind");

    // The restored session is live again; a turn on one that is not is
    // the worker's error, passed on as it stands.
    let missing = SessionTurnParams {
        session: "nobody".to_owned(),
        ..turn
    };
    let WireOutcome::Err(error) =
        spliced(&mut fleet, "missing", PatternRequest::SessionTurn(missing))
    else {
        panic!("a turn on an unknown session must fail");
    };
    assert_eq!(error.kind, "SessionNotFound");
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
    let mut direct = connect(&worker_addr);
    direct.send_line(&padded("direct")).expect("sent");
    let served = direct.recv().expect("the worker answers");
    assert_eq!(served.id.as_str(), Some("direct"));
    assert!(matches!(served.outcome, WireOutcome::Ok(_)), "{served:?}");
    drop(direct);

    fleet.shutdown();
}

/// One numeric field of a live process's `/proc/PID/status`: `VmHWM:`
/// (peak resident set, KiB) or `Threads:`.
fn status_field(pid: u32, key: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status reads");
    let field = status.lines().find_map(|line| line.strip_prefix(key));
    field
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {status}"))
}

#[test]
fn an_unterminated_line_over_the_cap_is_refused_without_being_buffered_whole() {
    let mut fleet = RouterFleet::spawn(1, &[]);
    let before = status_field(fleet.child.id(), "VmHWM:");

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
    let grown = status_field(fleet.child.id(), "VmHWM:").saturating_sub(before);
    assert!(
        grown < 3 * (DEFAULT_MAX_LINE_BYTES as u64 / 1024),
        "router peak RSS grew by {grown} KiB for a {STREAMED}-byte line"
    );
    fleet.shutdown();
}

/// The router has no copy of serve's flag syntax: `--serve-arg` hands
/// the words over, the serve child checks them, and a value it refuses
/// ends the router's start-up — before any address is announced, with
/// the child's own complaint on stderr. A flag serve no longer has (the
/// in-process shard count) is refused the same way.
#[test]
fn a_forwarded_serve_flag_is_validated_by_serve_before_the_router_listens() {
    for (flag, value, complaint) in [
        ("--tenant-quota", "bogus=1", "--tenant-quota:"),
        ("--lane-weights", "1,2", "--lane-weights:"),
        ("--shards", "2", "unknown flag --shards (try --help)"),
    ] {
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
        let complaint = format!("[worker 0] chatpattern-serve: {complaint}");
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

// ---------------------------------------------------------- the front door

fn generate(count: usize, seed: u64) -> PatternRequest {
    PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: 16,
        cols: 16,
        count,
        seed,
    })
}

fn envelope(id: &str, request: PatternRequest) -> RequestEnvelope {
    RequestEnvelope {
        id: serde_json::to_value(&id),
        tenant: None,
        request,
    }
}

fn request_line(id: &str, request: PatternRequest) -> String {
    serde_json::to_string(&envelope(id, request)).expect("serializes") + "\n"
}

/// The first `Generate` (by seed) that a fleet of `workers` live workers
/// routes to `worker`, by the hash the router itself uses.
fn generate_keyed_to(worker: u64, workers: u64) -> PatternRequest {
    (0..64)
        .map(|seed| generate(1, seed))
        .find(|request| {
            let route = chatpattern_core::routing::request_route(request);
            route.expect("a Generate routes by its key") % workers == worker
        })
        .expect("64 keys reach every worker")
}

/// Reads NDJSON lines up to EOF, keyed by their `id`.
fn replies_until_eof(stream: TcpStream) -> Vec<(String, String)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    BufReader::new(stream)
        .lines()
        .map(|line| {
            let line = line.expect("reply line reads");
            let value: serde_json::Value = serde_json::from_str(&line).expect("reply parses");
            let id = value.get("id").and_then(|id| id.as_str());
            (id.expect("a string id").to_owned(), line)
        })
        .collect()
}

/// Every client's replies from one worker come through that worker's
/// one reader thread, so that reader may not wait for any client: a
/// client that asks for far more than it reads is dropped once it is
/// the outbound high-water mark behind, as it is by a serve process,
/// and a client served meanwhile never notices. (While the reader
/// wrote to a blocking socket, it stopped behind the first client that
/// did, and with it every reply from that worker.)
///
/// The flood comes in batches with a round trip of the calm client
/// between them, not as one burst: a serve process answers cached
/// requests as it reads them and writes only once it has read them
/// all, so a single burst of these — 240 is enough — has 8 MiB queued
/// for the router's link before the first byte is written and gets the
/// link itself dropped, whoever reads what (ROADMAP, open item 3).
#[test]
fn a_client_that_stops_reading_is_cut_off_and_costs_no_other_client_a_reply() {
    // ≈ 35 kB a reply and cached after the first, so the volume costs
    // no compute: ≈ 70 MB in all, past the 8 MiB mark plus anything the
    // kernel can buffer for a socket nobody reads (4 MiB to send, 32 MiB
    // to receive at most).
    const BATCHES: usize = 50;
    const BATCH: usize = 40;
    let mut fleet = RouterFleet::spawn(1, &[]);
    let hot = generate(64, 5);
    let ResponsePayload::Generate(library) = fleet.expect_ok("warm", hot.clone()) else {
        panic!("wrong payload for Generate");
    };
    assert_eq!(library.len(), 64);
    let before = status_field(fleet.child.id(), "VmHWM:");

    let mut stalled = TcpStream::connect(&fleet.addr).expect("connects");
    let batch = request_line("flood", hot).repeat(BATCH);
    let mut cut_off = false;
    for i in 0..BATCHES {
        // A write fails once the router has dropped the connection.
        cut_off = cut_off || stalled.write_all(batch.as_bytes()).is_err();
        // Same worker, so the same link and the same reader.
        let payload = fleet.expect_ok(&format!("calm-{i}"), generate(1, 100 + i as u64));
        assert!(matches!(payload, ResponsePayload::Generate(_)));
    }
    assert!(cut_off, "the router served all of a flood nobody read");

    // The stalled client reads at last: what the kernel had buffered
    // for it, then the router's close.
    stalled
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut scratch = vec![0u8; 1 << 16];
    loop {
        match stalled.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(error) if error.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(error) => panic!("the stalled client's connection is still open: {error}"),
        }
    }

    // The router held that one queue up to its mark, not the flood.
    let grown = status_field(fleet.child.id(), "VmHWM:").saturating_sub(before);
    assert!(
        grown < 4 * (DEFAULT_MAX_LINE_BYTES as u64 / 1024),
        "router peak RSS grew by {grown} KiB beside a client that does not read"
    );
    let payload = fleet.expect_ok("after", PatternRequest::Stats);
    assert!(matches!(payload, ResponsePayload::Stats(_)));
    fleet.shutdown();
}

/// A peer that half-closes has said "no more requests", nothing else
/// (`docs/ROUTER.md`, "Transport"): every line it sent is answered —
/// the ones forwarded to a worker, the `Stats` fan-in and the control
/// line alike — and only then does the router close.
#[test]
fn a_half_closed_client_hears_every_reply_it_is_owed() {
    let fleet = RouterFleet::spawn(2, &[]);
    let mut batch = String::new();
    for worker in 0..2 {
        batch += &request_line(&format!("to-{worker}"), generate_keyed_to(worker, 2));
    }
    batch += &request_line("stats", PatternRequest::Stats);
    batch += "{\"id\":\"fleet\",\"control\":\"Fleet\"}\n";

    let mut stream = TcpStream::connect(&fleet.addr).expect("connects");
    stream.write_all(batch.as_bytes()).expect("batch written");
    stream.shutdown(Shutdown::Write).expect("write side closes");
    let mut replies = replies_until_eof(stream);
    replies.sort();
    let ids: Vec<&str> = replies.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids, ["fleet", "stats", "to-0", "to-1"], "{replies:?}");
    for (id, line) in &replies {
        let answered = if id == "fleet" {
            line.contains("\"Fleet\":{")
        } else {
            line.contains("\"outcome\":{\"Ok\":")
        };
        assert!(answered, "{id} was answered with {line}");
    }
    fleet.shutdown();
}

/// Connections are two buffers on one readiness loop, not a thread
/// behind a 64-slot gate: a hundred clients that say nothing keep the
/// next one neither out nor waiting, and leave the router's thread
/// count where it was.
#[test]
fn idle_clients_cost_no_thread_and_keep_nobody_out() {
    let mut fleet = RouterFleet::spawn(1, &[]);
    let payload = fleet.expect_ok("before", PatternRequest::Stats);
    assert!(matches!(payload, ResponsePayload::Stats(_)));
    let before = status_field(fleet.child.id(), "Threads:");

    let idle: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&fleet.addr).expect("connects"))
        .collect();
    // Accepted in the order they connected: once this one is served,
    // the hundred before it are connections of the router's too.
    let mut late = connect(&fleet.addr);
    let reply = late
        .call(&envelope("late", PatternRequest::Stats))
        .expect("the 101st client is served");
    assert_eq!(reply.id.as_str(), Some("late"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)), "{reply:?}");

    let during = status_field(fleet.child.id(), "Threads:");
    assert_eq!(
        during, before,
        "a hundred idle clients changed the router's thread count"
    );
    drop(idle);
    fleet.shutdown();
}

/// One client's lines reach a worker's socket in the order the client
/// sent them — and a session's worker takes them one at a time here
/// (`--workers 1`) — so a conversation pipelined without waiting for
/// any reply, with a drain of its host thrown in after the first turn,
/// runs as if each line had waited for the last: whichever lines the
/// move catches are parked on the session and follow it in order.
#[test]
fn pipelined_turns_keep_their_order_across_a_live_move() {
    const SID: &str = "piped";
    const SEED: u64 = 80;
    let one_engine_thread = ["--serve-arg", "--workers", "--serve-arg", "1"];
    let fleet = RouterFleet::spawn(3, &one_engine_thread);
    let host = chatpattern_core::routing::route_hash(SID) % 3;

    let turn_line = |index: usize| {
        let params = SessionTurnParams {
            session: SID.to_owned(),
            utterance: TURNS[index].to_owned(),
        };
        request_line(
            &format!("turn-{index}"),
            PatternRequest::SessionTurn(params),
        )
    };
    let open = SessionOpenParams {
        session: SID.to_owned(),
        seed: Some(SEED),
    };
    let close = SessionCloseParams {
        session: SID.to_owned(),
    };
    let mut batch = request_line("open", PatternRequest::SessionOpen(open));
    batch += &turn_line(0);
    batch += &format!("{{\"id\":\"drain\",\"control\":{{\"Drain\":{{\"worker\":{host}}}}}}}\n");
    batch += &turn_line(1);
    batch += &turn_line(2);
    batch += &request_line("close", PatternRequest::SessionClose(close));

    let mut stream = TcpStream::connect(&fleet.addr).expect("connects");
    stream.write_all(batch.as_bytes()).expect("batch written");
    stream.shutdown(Shutdown::Write).expect("write side closes");
    let replies = replies_until_eof(stream);
    assert_eq!(replies.len(), 6, "one reply a line: {replies:?}");
    let payload = |id: &str| {
        let (_, line) = replies
            .iter()
            .find(|(reply, _)| reply == id)
            .unwrap_or_else(|| panic!("no reply to {id}: {replies:?}"));
        let reply: ResponseEnvelope = serde_json::from_str(line).expect("reply parses");
        match reply.outcome {
            WireOutcome::Ok(response) => response.payload,
            WireOutcome::Err(error) => panic!("{id} failed: {error:?}"),
        }
    };
    assert!(matches!(payload("open"), ResponsePayload::SessionOpen(_)));
    for index in 0..TURNS.len() {
        let ResponsePayload::SessionTurn(outcome) = payload(&format!("turn-{index}")) else {
            panic!("wrong payload for turn {index}");
        };
        assert_eq!(outcome.turn, index + 1, "a turn overtook another");
    }
    let (_, drained) = replies
        .iter()
        .find(|(id, _)| id == "drain")
        .expect("the drain is answered");
    assert!(drained.contains("\"Drained\":{\"moved\":1,"), "{drained}");
    assert_eq!(
        serde_json::to_string(&payload("close")).expect("serializes"),
        uninterrupted_close_payload(SID, SEED),
        "the pipelined conversation diverged from the one that waits"
    );
    fleet.shutdown();
}

/// Redialling a dead worker takes seconds of backoff, and the thread
/// that serves every client may not spend them: the line for the dead
/// worker is parked on its link for a reviver thread to fail, under the
/// line's own id, and lines for a live worker are answered meanwhile.
#[test]
fn a_dead_attached_worker_fails_its_own_lines_and_delays_no_others() {
    let serve = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"));
        command.args(["--listen", "127.0.0.1:0"]).args(SERVE_ARGS);
        spawn_listening(&mut command, "chatpattern-serve")
    };
    let (mut alive, alive_addr) = serve();
    let (mut dead, dead_addr) = serve();
    let attach = ["--worker", &alive_addr, "--worker", &dead_addr].map(String::from);
    let mut fleet = RouterFleet::start(&attach);
    let (for_alive, for_dead) = (generate_keyed_to(0, 2), generate_keyed_to(1, 2));
    for request in [&for_alive, &for_dead] {
        let payload = fleet.expect_ok("warm", request.clone());
        assert!(matches!(payload, ResponsePayload::Generate(_)));
    }

    dead.kill().expect("SIGKILL delivered");
    dead.wait().expect("worker reaped");
    // The router has noticed once its view shows the link gone (the
    // view's own poll of the dead worker is what a redial costs).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let view = fleet.control(r#"{"id":"fleet","control":"Fleet"}"#);
        let links = view["control"]["Fleet"]["workers"][1]["links"].as_u64();
        if links == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the dead link stays up: {view:?}"
        );
    }

    let mut doomed = connect(&fleet.addr);
    doomed.send(&envelope("doomed", for_dead)).expect("sent");
    let failing = std::thread::spawn(move || {
        let reply = doomed
            .recv()
            .expect("the router answers for the dead worker");
        (reply, Instant::now())
    });
    for i in 0..20 {
        let payload = fleet.expect_ok(&format!("alive-{i}"), for_alive.clone());
        assert!(matches!(payload, ResponsePayload::Generate(_)));
    }
    let served = Instant::now();
    let (reply, failed) = failing.join().expect("reader thread");
    assert!(
        served < failed,
        "20 round trips to a live worker waited out the redial of a dead one"
    );
    assert_eq!(reply.id.as_str(), Some("doomed"), "under its own id");
    let WireOutcome::Err(error) = reply.outcome else {
        panic!("nobody can have served the dead worker's line");
    };
    assert_eq!(error.kind, "Internal", "{error:?}");

    fleet.shutdown();
    alive.kill().expect("attached workers outlive their router");
    alive.wait().expect("worker reaped");
}

// ------------------------------------------------- quotas through a fleet

/// One tenant's connection and what it saw.
struct Tenant {
    client: NdjsonClient,
    name: String,
    /// Requests sent, re-sends included (the next id).
    sent: usize,
    /// Operations completed.
    completed: usize,
    /// Typed `Overloaded` replies received.
    overloaded: u64,
}

impl Tenant {
    /// Puts every request in flight at once and re-sends those refused
    /// with typed back-pressure, after the longest `retry_after_ms` of
    /// the round, until each has completed. A quota that never frees is
    /// a bug, not back-pressure: the rounds are capped.
    fn complete(&mut self, requests: Vec<PatternRequest>) -> Vec<ResponsePayload> {
        const ROUNDS: usize = 1000;
        let mut payloads = Vec::with_capacity(requests.len());
        let mut pending = requests;
        for _ in 0..ROUNDS {
            let mut outstanding = HashMap::new();
            for request in pending.drain(..) {
                let id = format!("{}-{}", self.name, self.sent);
                self.sent += 1;
                let envelope = RequestEnvelope {
                    id: serde_json::to_value(&id),
                    tenant: Some(self.name.clone()),
                    request: request.clone(),
                };
                self.client.send(&envelope).expect("request sent");
                outstanding.insert(id, request);
            }
            let mut hint = 0;
            while !outstanding.is_empty() {
                let reply = self.client.recv().expect("the fleet answers");
                let id = reply.id.as_str().expect("a string id");
                let request = outstanding
                    .remove(id)
                    .unwrap_or_else(|| panic!("reply {id} answers nothing outstanding"));
                match reply.outcome {
                    WireOutcome::Ok(response) => {
                        self.completed += 1;
                        payloads.push(response.payload);
                    }
                    WireOutcome::Err(error) => {
                        match error.kind.as_str() {
                            "Overloaded" => self.overloaded += 1,
                            "QueueFull" => {}
                            _ => panic!("{id} failed with something else than load: {error:?}"),
                        }
                        hint = hint.max(error.retry_after_ms.unwrap_or(DEFAULT_RETRY_AFTER_MS));
                        pending.push(request);
                    }
                }
            }
            if pending.is_empty() {
                return payloads;
            }
            std::thread::sleep(Duration::from_millis(hint));
        }
        panic!(
            "tenant {}: {} request(s) still refused after {ROUNDS} rounds",
            self.name,
            pending.len()
        );
    }
}

/// One tenant's replay: a two-turn session (interactive lane), a seed
/// topology, `burst_ops` mixed operations pipelined six at a time
/// (standard lane; distinct seeds keep them out of cache and coalescer,
/// so the load is real executions) and a closing library evaluation
/// (batch lane).
fn replay_tenant(addr: &str, index: usize, burst_ops: usize) -> Tenant {
    const FRAME_NM: i64 = 16 * 16;
    let mut tenant = Tenant {
        client: connect(addr),
        name: format!("t{index}"),
        sent: 0,
        completed: 0,
        overloaded: 0,
    };
    let session = format!("load-{}", tenant.name);
    let turn = PatternRequest::SessionTurn(SessionTurnParams {
        session: session.clone(),
        utterance: format!(
            "Generate 1 pattern, topology size 16*16, physical size {FRAME_NM}nm x \
             {FRAME_NM}nm, style Layer-10001."
        ),
    });
    let seed_base = (index as u64) << 20;
    for request in [
        PatternRequest::SessionOpen(SessionOpenParams {
            session: session.clone(),
            seed: Some(index as u64),
        }),
        turn.clone(),
        turn,
        PatternRequest::SessionClose(SessionCloseParams { session }),
    ] {
        tenant.complete(vec![request]);
    }
    let mut seeded = tenant.complete(vec![generate(1, seed_base)]);
    let Some(ResponsePayload::Generate(mut topologies)) = seeded.pop() else {
        panic!("a Generate is answered with topologies");
    };
    let seed_topology = topologies.pop().expect("one topology asked for");

    let operations: Vec<PatternRequest> = (1..=burst_ops as u64)
        .map(|op| match op % 5 {
            0 => PatternRequest::Extend(ExtendParams {
                seed_topology: seed_topology.clone(),
                rows: 24,
                cols: 24,
                method: ExtensionMethod::OutPainting,
                style: Style::Layer10001,
                seed: seed_base + op,
            }),
            1 => PatternRequest::Legalize(LegalizeParams {
                topology: seed_topology.clone(),
                width_nm: FRAME_NM,
                height_nm: FRAME_NM,
                seed: seed_base + op,
            }),
            _ => generate(1, seed_base + op),
        })
        .collect();
    for burst in operations.chunks(6) {
        tenant.complete(burst.to_vec());
    }
    tenant.complete(vec![PatternRequest::Evaluate(EvaluateParams {
        topologies: vec![seed_topology],
        frame_nm: FRAME_NM,
        seed: seed_base,
    })]);
    assert_eq!(tenant.completed, 4 + 1 + burst_ops + 1, "{}", tenant.name);
    tenant
}

/// The quota-retry loop through a real fleet: the budget of 18 burst
/// operations is split 1/(i+1) over three tenants, so the heavy one
/// overruns `inflight=3` while the light one stays inside it. Nothing
/// here depends on timing — how many requests are refused does, and
/// only the two ledgers' agreement on it is asserted.
#[test]
fn tenants_over_quota_retry_to_completion_and_the_fleet_ledger_agrees() {
    let qos = ["--tenant-quota", "inflight=3", "--lane-weights", "4,2,1"];
    let args: Vec<&str> = qos.iter().flat_map(|arg| ["--serve-arg", arg]).collect();
    let mut fleet = RouterFleet::spawn(2, &args);

    let addr = fleet.addr.as_str();
    let tenants: Vec<Tenant> = std::thread::scope(|scope| {
        let threads: Vec<_> = [10usize, 5, 3]
            .into_iter()
            .enumerate()
            .map(|(index, ops)| scope.spawn(move || replay_tenant(addr, index, ops)))
            .collect();
        let joined = threads.into_iter().map(|thread| thread.join());
        joined
            .map(|tenant| tenant.expect("tenant thread"))
            .collect()
    });

    let ResponsePayload::Stats(stats) = fleet.expect_ok("stats", PatternRequest::Stats) else {
        panic!("wrong payload for Stats");
    };
    for tenant in &tenants {
        let rows = stats.tenants.iter().filter(|row| row.tenant == tenant.name);
        let admitted: u64 = rows.map(|row| row.admitted).sum();
        assert!(
            admitted >= tenant.completed as u64,
            "the fleet's rows must account tenant {}: {admitted} admitted, {} completed",
            tenant.name,
            tenant.completed
        );
    }
    let named = stats
        .tenants
        .iter()
        .filter(|row| row.tenant != DEFAULT_TENANT);
    let rejected: u64 = named.map(|row| row.rejected).sum();
    let overloaded: u64 = tenants.iter().map(|tenant| tenant.overloaded).sum();
    assert_eq!(
        rejected, overloaded,
        "the fleet ledger's rejections are the typed Overloaded replies the clients counted"
    );
    fleet.shutdown();
}
