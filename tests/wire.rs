//! End-to-end wire test: run the real `chatpattern-serve` binary over
//! the checked-in smoke JSONL file (the same one CI pipes through it)
//! and verify the protocol contract — every line parses as a
//! [`ResponseEnvelope`], ids match the requests exactly, and the two
//! deliberately invalid requests (`r9`, a zero-row Generate, and `r11`,
//! a Legalize whose `bits` is short of `rows × cols`) come back as
//! `Err` outcomes instead of killing the stream.

use chatpattern::{ChatPattern, ResponseEnvelope, ResponsePayload, WireOutcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const SMOKE_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/smoke_requests.jsonl"
);

/// Regression: responses must be written the moment a job finishes,
/// not when the next stdin line (or EOF) arrives. An interactive
/// client sends one request, keeps the pipe open, and must receive the
/// reply — the original loop only flushed finished jobs on the next
/// input line, deadlocking strict request-then-response clients.
#[test]
fn serve_answers_while_stdin_stays_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");

    let (sender, receiver) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        if let Some(Ok(line)) = lines.next() {
            let _ = sender.send(line);
        }
    });

    stdin
        .write_all(
            b"{\"id\":\"live\",\"request\":{\"Generate\":{\"style\":\"Layer10001\",\
              \"rows\":16,\"cols\":16,\"count\":1,\"seed\":1}}}\n",
        )
        .expect("request written");
    stdin.flush().expect("request flushed");

    // Stdin is still open here; the reply must arrive anyway.
    let line = receiver
        .recv_timeout(Duration::from_secs(60))
        .expect("response arrives while stdin is open");
    let envelope: ResponseEnvelope = serde_json::from_str(&line).expect("parses");
    assert_eq!(envelope.id.as_str(), Some("live"));
    assert!(matches!(envelope.outcome, WireOutcome::Ok(_)));

    drop(stdin);
    reader.join().expect("reader finishes");
    assert!(child.wait().expect("serve exits").success());
}

/// A strict request-then-response client over the child's pipes.
struct InteractiveClient {
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
}

impl InteractiveClient {
    fn exchange(&mut self, line: &str) -> ResponseEnvelope {
        writeln!(self.stdin, "{line}").expect("request written");
        self.stdin.flush().expect("request flushed");
        let reply = self
            .lines
            .next()
            .expect("a reply line arrives")
            .expect("reply reads");
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparsable reply {reply:?}: {e}"))
    }
}

/// The ISSUE acceptance criterion — determinism across transports: a
/// scripted multi-turn session driven through `chatpattern-serve` wire
/// envelopes produces a final outcome byte-identical to the same turns
/// run in-process through the system's `SessionStore` directly.
#[test]
fn scripted_session_via_wire_matches_in_process_session_store() {
    const TURNS: [&str; 3] = [
        "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
         style Layer-10003.",
        "Now make them denser.",
        "1 more pattern.",
    ];
    const SEED: u64 = 5;

    // Wire transport: open → three turns → close, strictly pipelined
    // (each turn waits for the previous reply, the documented way to
    // order turns over the async wire).
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    let mut client = InteractiveClient {
        stdin: child.stdin.take().expect("stdin piped"),
        lines: BufReader::new(child.stdout.take().expect("stdout piped")).lines(),
    };

    let opened = client.exchange(&format!(
        r#"{{"id":"o","request":{{"SessionOpen":{{"session":"det","seed":{SEED}}}}}}}"#
    ));
    assert!(matches!(opened.outcome, WireOutcome::Ok(_)), "{opened:?}");
    for (i, utterance) in TURNS.iter().enumerate() {
        let reply = client.exchange(&format!(
            r#"{{"id":"t{i}","request":{{"SessionTurn":{{"session":"det","utterance":"{utterance}"}}}}}}"#
        ));
        let WireOutcome::Ok(response) = reply.outcome else {
            panic!("turn {i} failed: {reply:?}");
        };
        let ResponsePayload::SessionTurn(turn) = response.payload else {
            panic!("turn {i}: wrong payload");
        };
        assert_eq!(turn.turn, i + 1, "wire turns arrive in pipeline order");
    }
    let closed = client.exchange(r#"{"id":"c","request":{"SessionClose":{"session":"det"}}}"#);
    let WireOutcome::Ok(response) = closed.outcome else {
        panic!("close failed: {closed:?}");
    };
    let wire_payload = serde_json::to_string(&response.payload).expect("serializes");

    // A turn on the closed id reports the typed error envelope.
    let late = client.exchange(
        r#"{"id":"late","request":{"SessionTurn":{"session":"det","utterance":"more"}}}"#,
    );
    match late.outcome {
        WireOutcome::Err(error) => assert_eq!(error.kind, "SessionNotFound"),
        WireOutcome::Ok(_) => panic!("turn on a closed session must fail"),
    }
    drop(client);
    assert!(child.wait().expect("serve exits").success());

    // In-process transport: the same turns through the SessionStore
    // directly, on an identically configured system.
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .build()
        .expect("valid configuration");
    system.session_open("det", Some(SEED)).expect("opens");
    for (i, utterance) in TURNS.iter().enumerate() {
        let turn = system.session_turn("det", utterance).expect("turn runs");
        assert_eq!(turn.turn, i + 1);
    }
    let outcome = system.session_close("det").expect("closes");
    let local_payload =
        serde_json::to_string(&ResponsePayload::SessionClose(outcome)).expect("serializes");

    assert_eq!(
        wire_payload, local_payload,
        "the final session outcome must be byte-identical across transports"
    );
}

#[test]
fn serve_round_trips_the_smoke_file_with_matching_ids() {
    let input = std::fs::read_to_string(SMOKE_FILE).expect("smoke file exists");
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "4",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve binary starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let output = child.wait_with_output().expect("serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut outcomes: BTreeMap<String, bool> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let envelope: ResponseEnvelope =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("unparsable line {line:?}: {e}"));
        let id = envelope
            .id
            .as_str()
            .unwrap_or_else(|| panic!("non-string id in {line:?}"))
            .to_owned();
        let ok = matches!(envelope.outcome, WireOutcome::Ok(_));
        assert!(
            outcomes.insert(id.clone(), ok).is_none(),
            "duplicate response for id {id}"
        );
    }

    let want: Vec<String> = input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str::<serde_json::Value>(l)
                .expect("smoke line is valid JSON")
                .get("id")
                .and_then(|v| v.as_str().map(str::to_owned))
                .expect("smoke line has a string id")
        })
        .collect();
    assert_eq!(
        outcomes.keys().cloned().collect::<Vec<_>>(),
        {
            let mut sorted = want.clone();
            sorted.sort();
            sorted
        },
        "every request id answered exactly once"
    );

    // The deliberate bad requests fail gracefully; everything else
    // succeeds.
    for (id, ok) in &outcomes {
        if id == "r9" || id == "r11" {
            assert!(
                !ok,
                "{id} is a zero-row Generate or a short Legalize and must fail"
            );
        } else {
            assert!(ok, "request {id} unexpectedly failed");
        }
    }
}

/// The stdio face of the nesting bound: 200 000 open brackets on one
/// line used to abort the process with a stack overflow; now the line
/// gets the bad-JSON envelope and the next request is served.
#[test]
fn deeply_nested_line_is_refused_on_stdio_and_serve_keeps_answering() {
    let (mut child, mut client) = small_serve(Stdio::null());
    for bomb in ["[".repeat(200_000), "{\"request\":".repeat(20_000)] {
        let refused = client.exchange(&bomb);
        assert!(refused.id.is_null());
        let WireOutcome::Err(error) = refused.outcome else {
            panic!("a bomb must error");
        };
        assert_eq!(error.kind, "InvalidRequest");
        assert!(
            error.message.contains("bad JSON") && error.message.contains("nesting deeper"),
            "{error:?}"
        );
    }
    let served = client.exchange(r#"{"id":"after","request":"Stats"}"#);
    assert_eq!(served.id.as_str(), Some("after"));
    assert!(matches!(served.outcome, WireOutcome::Ok(_)));
    drop(client);
    assert!(child.wait().expect("serve exits").success());
}

/// Sizes come off the wire: a `Generate` or `Extend` asking for
/// 3 000 000 × 3 000 000 cells used to end the process (and every live
/// session with it) in a failed 9 TB allocation, and 2³² × 2³² wrapped
/// `rows * cols` and never answered. Each is refused under its own id
/// and the connection keeps serving.
#[test]
fn oversize_targets_are_refused_under_their_id_and_serve_keeps_answering() {
    let (mut child, mut client) = small_serve(Stdio::null());
    let generate = |id: &str, side: &str, count: usize| {
        format!(
            r#"{{"id":"{id}","request":{{"Generate":{{"style":"Layer10001","rows":{side},"cols":{side},"count":{count},"seed":1}}}}}}"#
        )
    };
    let seed_bits = vec!["0"; 16 * 16].join(",");
    let extend = |id: &str, side: &str| {
        format!(
            r#"{{"id":"{id}","request":{{"Extend":{{"seed_topology":{{"rows":16,"cols":16,"bits":[{seed_bits}]}},"rows":{side},"cols":{side},"method":"OutPainting","style":"Layer10001","seed":1}}}}}}"#
        )
    };
    for (id, line) in [
        ("g-huge", generate("g-huge", "3000000", 1)),
        ("g-wraps", generate("g-wraps", "4294967296", 1)),
        // One 2048 × 2048 topology is the most a reply line can carry.
        ("g-two", generate("g-two", "2048", 2)),
        ("e-huge", extend("e-huge", "3000000")),
        ("e-wraps", extend("e-wraps", "4294967296")),
    ] {
        let refused = client.exchange(&line);
        assert_eq!(refused.id.as_str(), Some(id));
        let WireOutcome::Err(error) = refused.outcome else {
            panic!("{id} must be refused");
        };
        assert_eq!(error.kind, "InvalidRequest", "{id}: {error:?}");
        assert!(error.message.contains("exceeds"), "{id}: {error:?}");
    }
    let served = client.exchange(
        r#"{"id":"after","request":{"Generate":{"style":"Layer10001","rows":16,"cols":16,"count":2,"seed":1}}}"#,
    );
    assert_eq!(served.id.as_str(), Some("after"));
    assert!(matches!(served.outcome, WireOutcome::Ok(_)));
    drop(client);
    assert!(child.wait().expect("serve exits").success());
}

/// A small single-worker serve child and a strict client on its pipes.
fn small_serve(stderr: Stdio) -> (std::process::Child, InteractiveClient) {
    let mut child = Command::new(SERVE)
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("serve binary starts");
    let client = InteractiveClient {
        stdin: child.stdin.take().expect("stdin piped"),
        lines: BufReader::new(child.stdout.take().expect("stdout piped")).lines(),
    };
    (child, client)
}

fn legalize_line(id: &str, topology: &str) -> String {
    format!(
        r#"{{"id":"{id}","request":{{"Legalize":{{"topology":{topology},"width_nm":2048,"height_nm":2048,"seed":1}}}}}}"#
    )
}

fn stats(client: &mut InteractiveClient) -> chatpattern::EngineStats {
    let reply = client.exchange(r#"{"id":"stats","request":"Stats"}"#);
    match reply.outcome {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::Stats(stats) => stats,
            other => panic!("Stats answered with {other:?}"),
        },
        WireOutcome::Err(error) => panic!("Stats failed: {error:?}"),
    }
}

/// A topology is checked by the reader that builds it. The derived
/// reader believed whatever `rows`, `cols` and `bits` a line gave: a
/// short `bits` panicked an engine worker three layers down (`Legalize`
/// in the solver, `Evaluate` in the library statistics), cells of 2 and
/// 7 were legalized, echoed back and cached, a 0 x 0 matrix answered
/// `Ok`, and a restored snapshot put a pattern with 3 `dx` for 16
/// columns into a live session's library. Each is now the line
/// decoder's typed refusal under the line's own id: nothing reaches the
/// engine, and the session id of a refused restore stays free.
#[test]
fn a_malformed_topology_is_refused_where_it_is_parsed() {
    const TURN: &str = "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                        style Layer-10001.";
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .build()
        .expect("valid configuration");
    system.session_open("corrupt", Some(1)).expect("opens");
    system.session_turn("corrupt", TURN).expect("turn runs");
    let mut snapshot = system.session_snapshot("corrupt").expect("exports");
    snapshot.agent.context.library.clear();
    let snapshot = serde_json::to_string(&snapshot).expect("serializes");
    let restore = |id: &str, dx: usize, dy: i64, cells: usize| {
        let pattern = format!(
            r#"{{"dx":[{}],"dy":[{}],"topology":{{"rows":16,"cols":16,"bits":[{}]}}}}"#,
            vec!["32"; dx].join(","),
            vec![dy.to_string(); 16].join(","),
            vec!["1"; cells].join(","),
        );
        let snapshot = snapshot.replace(r#""library":[]"#, &format!(r#""library":[{pattern}]"#));
        assert!(snapshot.contains(&pattern));
        format!(r#"{{"id":"{id}","request":{{"SessionRestore":{{"snapshot":{snapshot}}}}}}}"#)
    };

    let (child, mut client) = small_serve(Stdio::piped());
    let before = stats(&mut client);
    let short = r#"{"rows":4,"cols":4,"bits":[1,1,0]}"#;
    for (id, line, complaint) in [
        (
            "short",
            legalize_line("short", short),
            "bits is not rows x cols long",
        ),
        (
            "short-evaluate",
            format!(
                r#"{{"id":"short-evaluate","request":{{"Evaluate":{{"topologies":[{short}],"frame_nm":2048,"seed":1}}}}}}"#
            ),
            "bits is not rows x cols long",
        ),
        (
            "not-cells",
            legalize_line("not-cells", r#"{"rows":2,"cols":2,"bits":[1,2,7,0]}"#),
            "neither 0 nor 1",
        ),
        (
            "empty",
            legalize_line("empty", r#"{"rows":0,"cols":0,"bits":[]}"#),
            "at least 1",
        ),
        (
            "corrupt",
            restore("corrupt", 3, -32, 7),
            "topology: bits is not",
        ),
        (
            "three-dx",
            restore("three-dx", 3, 32, 256),
            "dx is not cols long",
        ),
        (
            "negative-dy",
            restore("negative-dy", 16, -32, 256),
            "not positive",
        ),
        (
            "huge",
            legalize_line("huge", r#"{"rows":3000000,"cols":3000000,"packed":""}"#),
            "digits long",
        ),
        (
            "both",
            legalize_line(
                "both",
                r#"{"rows":1,"cols":4,"bits":[1,0,1,0],"packed":"a"}"#,
            ),
            "both bits and packed",
        ),
        (
            "neither",
            legalize_line("neither", r#"{"rows":1,"cols":4}"#),
            "neither bits nor packed",
        ),
        (
            "upper-case",
            legalize_line("upper-case", r#"{"rows":1,"cols":4,"packed":"A"}"#),
            "other than 0-9 and a-f",
        ),
        (
            "pad-bit",
            legalize_line("pad-bit", r#"{"rows":1,"cols":3,"packed":"1"}"#),
            "past the last column",
        ),
    ] {
        let refused = client.exchange(&line);
        assert_eq!(refused.id.as_str(), Some(id));
        let WireOutcome::Err(error) = refused.outcome else {
            panic!("{id} must be refused");
        };
        assert_eq!(error.kind, "InvalidRequest", "{id}: {error:?}");
        assert!(error.message.contains(complaint), "{id}: {error:?}");
    }
    assert_eq!(stats(&mut client), before, "nothing reached the engine");
    // The refused restore left nothing behind under its id, and the
    // same snapshot with a sound library is welcome.
    let restored = client.exchange(&restore("sound", 16, 32, 256));
    assert!(
        matches!(restored.outcome, WireOutcome::Ok(_)),
        "{restored:?}"
    );
    let turn = client.exchange(
        r#"{"id":"turn","request":{"SessionTurn":{"session":"corrupt","utterance":"1 more pattern."}}}"#,
    );
    assert!(matches!(turn.outcome, WireOutcome::Ok(_)), "{turn:?}");
    let after = stats(&mut client);
    assert_eq!((after.failed, after.cancelled), (0, 0));

    drop(client);
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// How a client spells a topology is not part of the request: the
/// packed line and its `bits` twin are one cache entry (and so one
/// shard — `tests/router.rs` sends the pair through a fleet), and the
/// reply is spelled as replies are, `bits`, either way.
#[test]
fn a_packed_request_and_its_bits_twin_are_one_execution() {
    let (mut child, mut client) = small_serve(Stdio::null());
    let mut payloads = Vec::new();
    for (id, topology) in [
        ("packed", r#"{"rows":3,"cols":6,"packed":"f8cc84"}"#),
        (
            "bits",
            r#"{"rows":3,"cols":6,"bits":[1,1,1,1,1,0, 1,1,0,0,1,1, 1,0,0,0,0,1]}"#,
        ),
    ] {
        let reply = client.exchange(&legalize_line(id, topology));
        let WireOutcome::Ok(response) = reply.outcome else {
            panic!("{id} failed: {reply:?}");
        };
        assert_eq!(response.timing.cached, id == "bits");
        payloads.push(serde_json::to_string(&response.payload).expect("serializes"));
    }
    assert_eq!(payloads[0], payloads[1]);
    assert!(
        payloads[0].contains(r#""bits":[1,1,1,1,1,0,1,1,0,0,1,1,1,0,0,0,0,1]"#),
        "{}",
        payloads[0]
    );
    let stats = stats(&mut client);
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1), "{stats:?}");
    drop(client);
    assert!(child.wait().expect("serve exits").success());
}

/// A pre-removal worker behind a newer router still stamps the retired
/// microbatching keys (`timing.batched`, `Stats.batched`,
/// `Stats.batch_sizes`) on its replies; they must decode, ignored.
#[test]
fn reply_from_a_microbatching_era_peer_still_decodes() {
    let line = r#"{"id":"old-1","outcome":{"Ok":{"payload":{"Stats":{"batch_sizes":[1,0,1],"batched":3,"cache_hits":0,"cache_misses":4,"cancelled":0,"coalesced":0,"completed":4,"connections_live":0,"connections_peak":0,"disconnects_backpressure":0,"disconnects_clean":0,"failed":0,"queue_depths":[0],"sessions_evicted":0,"sessions_open":0,"sessions_restored":0,"sessions_spilled":0,"sessions_spilled_ahead":0,"snapshot_bytes_saved":0,"submitted":4,"tenants":[],"turns":0}},"timing":{"batched":true,"cached":false,"coalesced":false,"exec_micros":4,"micros":7,"queue_micros":3}}}}"#;
    let envelope: ResponseEnvelope = serde_json::from_str(line).expect("old reply decodes");
    assert_eq!(envelope.id.as_str(), Some("old-1"));
    let WireOutcome::Ok(response) = envelope.outcome else {
        panic!("old reply is an Ok outcome");
    };
    assert_eq!(response.timing.micros, 7);
    let ResponsePayload::Stats(stats) = response.payload else {
        panic!("old reply carries Stats");
    };
    assert_eq!((stats.submitted, stats.completed), (4, 4));
}

const SERVE: &str = env!("CARGO_BIN_EXE_chatpattern-serve");
const ROUTER: &str = env!("CARGO_BIN_EXE_chatpattern-router");

/// Runs a product binary with flags it must refuse: a non-zero exit,
/// nothing served, and a stderr that names the complaint.
fn refused(binary: &str, args: &[&str], complaint: &str) {
    let output = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{binary} {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "a refused start serves nothing");
    assert!(stderr.contains(complaint), "{binary} {args:?}: {stderr}");
}

/// A flag that used to choose between two mechanisms is gone with the
/// second mechanism, not ignored: the TCP transport, the execution
/// backend, the shard count, the router's copies of five serve flags
/// (which ride `--serve-arg` like every other serve flag), and its link
/// pool (one link a worker now that no reader of one can block).
#[test]
fn the_transport_flag_is_an_unknown_flag() {
    for (binary, flag) in [
        (SERVE, "--transport"),
        (SERVE, "--backend"),
        (SERVE, "--shards"),
        (ROUTER, "--tenant-quota"),
        (ROUTER, "--lane-weights"),
        (ROUTER, "--spill-ahead-turns"),
        (ROUTER, "--spill-ahead-secs"),
        (ROUTER, "--persist-shards"),
        (ROUTER, "--pool"),
    ] {
        let args = ["--listen", "127.0.0.1:0", flag, "1"];
        refused(binary, &args, &format!("unknown flag {flag} "));
    }
}

/// A count of zero is a server that accepts nobody, a fleet of none,
/// a timer that never sleeps, an engine with no worker or a session
/// that expires as it opens: both binaries refuse it at start-up, by
/// the flag's name, instead of listening in silence or clamping it.
#[test]
fn a_connection_cap_of_zero_is_refused_at_start_up() {
    for (binary, flag) in [
        (SERVE, "--max-connections"),
        (SERVE, "--workers"),
        (SERVE, "--session-ttl-secs"),
        (SERVE, "--spill-ahead-secs"),
        (SERVE, "--spill-ahead-turns"),
        (ROUTER, "--max-connections"),
        (ROUTER, "--workers"),
        (ROUTER, "--rebalance-interval-ms"),
    ] {
        let args = ["--listen", "127.0.0.1:0", flag, "0"];
        refused(
            binary,
            &args,
            &format!("{flag} needs at least 1, got \"0\""),
        );
    }
}

/// A flag that cannot take effect is refused rather than accepted and
/// dropped: attach mode spawns nothing, so configuration for spawned
/// workers is refused with it; so is a cadence for an auto-rebalancer
/// that is off, in either flag order.
#[test]
fn attach_mode_refuses_configuration_for_spawned_workers() {
    for (flag, value) in [
        ("--serve-arg", "--stats"),
        ("--serve-bin", "/bin/true"),
        ("--session-dir", "/tmp/never-created"),
    ] {
        let args = [
            "--listen",
            "127.0.0.1:0",
            flag,
            value,
            "--worker",
            "127.0.0.1:1",
        ];
        refused(
            ROUTER,
            &args,
            &format!("{flag} only applies to spawned workers"),
        );
    }
    let complaint = "--rebalance-interval-ms needs --rebalance-threshold";
    let listen = ["--listen", "127.0.0.1:0"];
    let interval = ["--rebalance-interval-ms", "5"];
    let off = ["--rebalance-threshold", "0"];
    refused(ROUTER, &[listen, interval].concat(), complaint);
    refused(ROUTER, &[listen, off, interval].concat(), complaint);
    refused(ROUTER, &[listen, interval, off].concat(), complaint);
}

/// The flags `--help` lists: every line of the form `  --flag …`.
fn help_flags(binary: &str) -> Vec<String> {
    let output = Command::new(binary)
        .arg("--help")
        .output()
        .expect("binary starts");
    String::from_utf8(output.stdout)
        .expect("utf-8 help")
        .lines()
        .filter_map(|line| line.strip_prefix("  --"))
        .map(|rest| format!("--{}", rest.split(' ').next().expect("a flag name")))
        .collect()
}

/// The `--flag` a word of documentation holds, if any (`--` alone is
/// cargo's separator and `---` a table rule, not flags).
fn flag_in(word: &str) -> Option<&str> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '-';
    let word = &word[word.find("--")?..];
    let flag = &word[..word.find(|c| !is_name(c)).unwrap_or(word.len())];
    flag[2..]
        .starts_with(|c: char| c.is_ascii_lowercase())
        .then_some(flag)
}

fn docs() -> impl Iterator<Item = String> {
    ["ENGINE", "ROUTER", "SESSIONS", "WIRE_PROTOCOL"]
        .into_iter()
        .map(|name| {
            let path = format!("{}/docs/{name}.md", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        })
}

/// Help, parser and docs agree about one binary: the parser takes
/// every flag `--help` lists, and `--help` lists every flag the docs
/// put on one of its command lines — what follows the binary's name
/// up to the end of the code span or of the command (a trailing `\`
/// continues it). The word after `--serve-arg` is the serve child's.
fn help_parser_and_docs_agree(binary: &str, name: &str) {
    let listed = help_flags(binary);
    assert!(listed.len() > 5, "{name} --help lists flags: {listed:?}");
    for flag in &listed {
        // The parser reads left to right and stops at its first
        // complaint: about this flag's value or about the flag after
        // it, but not about this flag's name.
        let output = Command::new(binary)
            .args([flag.as_str(), "1", "--no-such-flag", "1"])
            .stdin(Stdio::null())
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains(&format!("unknown flag {flag} ")),
            "{name} --help lists {flag}, the parser refuses it: {stderr}"
        );
    }
    for doc in docs() {
        for segment in doc.replace("\\\n", " ").split(['`', '\n']) {
            let Some((_, command)) = segment.split_once(name) else {
                continue;
            };
            let mut words = command.split_whitespace();
            while let Some(flag) = words.next().map(flag_in) {
                let Some(flag) = flag else { continue };
                assert!(
                    listed.iter().any(|l| l == flag),
                    "the docs show `{name} … {flag}`, which its --help does not list"
                );
                if flag == "--serve-arg" {
                    words.next();
                }
            }
        }
    }
}

#[test]
fn serve_help_parser_and_docs_list_the_same_flags() {
    help_parser_and_docs_agree(SERVE, "chatpattern-serve");
}

#[test]
fn router_help_parser_and_docs_list_the_same_flags() {
    help_parser_and_docs_agree(ROUTER, "chatpattern-router");
}

/// No doc mentions a flag that nothing takes: every `--flag` in
/// `docs/*.md` is in one of the two `--help` texts, or belongs to
/// `cargo`, to `engine_scaling --check` or to `benchmark/run.sh`.
#[test]
fn every_flag_the_docs_mention_exists() {
    let mut known = help_flags(SERVE);
    known.extend(help_flags(ROUTER));
    let elsewhere = [
        "--release",
        "--bin",
        "--check",
        "--threshold",
        "--baseline",
        "--workload",
        "--seconds",
        "--trace",
    ];
    known.extend(elsewhere.map(String::from));
    for doc in docs() {
        for flag in doc.split([' ', '\n', '/', '`']).filter_map(flag_in) {
            assert!(
                known.iter().any(|k| k == flag),
                "the docs mention {flag}, which neither binary lists"
            );
        }
    }
}
