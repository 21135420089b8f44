//! TCP transport acceptance suite (ISSUE 9, ISSUE 15).
//!
//! Everything here runs a real engine behind an in-process
//! [`EventLoopServer`] and drives it over real sockets:
//!
//! * **Incremental framing** — a request dribbled in byte-sized chunks
//!   and two requests coalesced into one `write` both produce exactly
//!   the right replies (the loop's framer reassembles and splits lines
//!   independently of read-boundary luck).
//! * **Oversize rejection** — a line past `max_line_bytes` earns one
//!   error envelope and the connection keeps working.
//! * **Byte-identical to in-process** — requests served over the loop
//!   carry byte-identical payloads to the same requests executed on
//!   the engine directly (only `timing` may differ — that is the wire
//!   contract).
//! * **Portable fallback** — the same round trip with
//!   `force_poll_fallback`, proving the `poll(2)` backend serves too.
//! * **Backpressure** — a client that requests far more than it reads
//!   is killed once its outbound queue passes the high-water mark, and
//!   the disconnect is accounted as a backpressure kill, not a clean
//!   close.
//! * **Half-close** — a client that pipelines requests and shuts its
//!   write side down still receives every reply, then a clean EOF.
//! * **No thread per request** — requests in flight are held by the
//!   engine's queue and the jobs' completion callbacks, not by parked
//!   threads.
//! * **Stop is not lost** — a `shutdown()` that lands while the loop is
//!   mid-pass (a handler's own line asked for it, as the router's
//!   `Shutdown` does) still stops the loop.
//! * **Hundreds of connections at once** (ISSUE 21) — 256 clients each pipeline their requests
//!   before anyone reads: every id is answered once, nobody is killed
//!   for back-pressure, and the connection counters account every
//!   client, up and down.

#![cfg(unix)]

use chatpattern::ChatPattern;
use chatpattern_core::wire::{RequestEnvelope, ResponseEnvelope, WireOutcome};
use chatpattern_core::{
    EngineConfig, GenerateParams, PatternEngine, PatternRequest, PatternService,
};
use cp_dataset::Style;
use cp_net::{ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_engine() -> Arc<PatternEngine<Arc<ChatPattern>>> {
    let system = Arc::new(
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(7)
            .build()
            .expect("valid configuration"),
    );
    Arc::new(
        PatternEngine::with_config(
            system,
            EngineConfig {
                workers: 2,
                queue_depth: 512,
                cache_capacity: 0,
            },
        )
        .expect("valid engine config"),
    )
}

fn spawn_event_loop(
    engine: &Arc<PatternEngine<Arc<ChatPattern>>>,
    config: EventLoopConfig,
) -> cp_net::EventLoopHandle {
    EventLoopServer::bind("127.0.0.1:0", config)
        .expect("loopback bind")
        .conn_counters(engine.conn_counters())
        .spawn(Arc::new(EngineHandler::new(Arc::clone(engine))))
        .expect("event loop spawns")
}

fn generate_line(id: &str, seed: u64) -> String {
    let envelope = RequestEnvelope {
        id: serde_json::to_value(&id),
        tenant: None,
        request: PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: 1,
            seed,
        }),
    };
    serde_json::to_string(&envelope).expect("serializes")
}

/// Reads one NDJSON reply off a raw socket.
fn read_reply(reader: &mut BufReader<TcpStream>) -> ResponseEnvelope {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line reads");
    serde_json::from_str(line.trim_end()).expect("reply parses")
}

#[test]
fn framer_reassembles_split_and_coalesced_writes() {
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Split: the first request arrives one byte at a time, flushed
    // after every byte — dozens of partial reads, one framed line.
    let split = format!("{}\n", generate_line("split", 1));
    for byte in split.as_bytes() {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("byte written");
        stream.flush().expect("byte flushed");
    }
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_str(), Some("split"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));

    // Coalesced: two complete requests (CRLF and LF mixed) in a single
    // write call — one read, two framed lines, two replies.
    let coalesced = format!(
        "{}\r\n{}\n",
        generate_line("co-1", 2),
        generate_line("co-2", 3)
    );
    stream
        .write_all(coalesced.as_bytes())
        .expect("pair written");
    let mut seen: Vec<String> = (0..2)
        .map(|_| {
            let reply = read_reply(&mut reader);
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
            reply.id.as_str().expect("string id").to_owned()
        })
        .collect();
    seen.sort();
    assert_eq!(seen, ["co-1", "co-2"]);

    drop(stream);
    handle.shutdown();
}

#[test]
fn oversize_line_is_rejected_and_the_connection_survives() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            max_line_bytes: 1024,
            ..EventLoopConfig::default()
        },
    );

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 4 KiB of non-newline garbage, then the terminator: one error
    // envelope (null id — the line never parsed), stream still open.
    let mut oversize = vec![b'x'; 4096];
    oversize.push(b'\n');
    stream.write_all(&oversize).expect("oversize written");
    let reply = read_reply(&mut reader);
    assert!(
        reply.id.is_null(),
        "oversize rejection has no id: {reply:?}"
    );
    let WireOutcome::Err(error) = &reply.outcome else {
        panic!("oversize line must error: {reply:?}");
    };
    assert!(
        error.message.contains("exceeds"),
        "error names the limit: {error:?}"
    );

    // The same connection still serves normal requests afterwards.
    let valid = format!("{}\n", generate_line("after", 4));
    stream.write_all(valid.as_bytes()).expect("valid written");
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_str(), Some("after"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));

    drop(stream);
    handle.shutdown();
}

/// Serializes a reply with its `timing` blanked — the only field the
/// wire contract allows to differ between two runs of one request.
fn normalized(reply: &ResponseEnvelope) -> String {
    let mut value = serde_json::to_value(reply);
    if let serde_json::Value::Object(envelope) = &mut value {
        if let Some(serde_json::Value::Object(outcome)) = envelope.get_mut("outcome") {
            if let Some(serde_json::Value::Object(ok)) = outcome.get_mut("Ok") {
                let removed = ok.remove("timing");
                assert!(removed.is_some(), "replies carry timing");
            }
        }
    }
    serde_json::to_string(&value).expect("serializes")
}

#[test]
fn event_loop_payloads_are_byte_identical_to_in_process_execution() {
    // Two deterministic systems (identical seed): one behind the loop,
    // one executed directly; the same requests, byte-compared after
    // timing removal.
    let requests: Vec<(String, PatternRequest)> = (0..4)
        .map(|i| {
            let request = PatternRequest::Generate(GenerateParams {
                style: Style::Layer10003,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 100 + i,
            });
            (format!("eq-{i}"), request)
        })
        .collect();

    let loop_engine = build_engine();
    let event_loop = spawn_event_loop(&loop_engine, EventLoopConfig::default());
    let mut client = NdjsonClient::connect(
        &event_loop.local_addr().to_string(),
        ClientConfig::default(),
    )
    .expect("dial");
    let over_loop: Vec<String> = requests
        .iter()
        .map(|(id, request)| {
            let reply = client
                .call(&RequestEnvelope {
                    id: serde_json::to_value(id),
                    tenant: None,
                    request: request.clone(),
                })
                .expect("call round-trips");
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
            normalized(&reply)
        })
        .collect();
    drop(client);
    event_loop.shutdown();

    let local_engine = build_engine();
    let in_process: Vec<String> = requests
        .into_iter()
        .map(|(id, request)| {
            let response = local_engine.execute(request).expect("executes");
            normalized(&ResponseEnvelope::ok(serde_json::to_value(&id), response))
        })
        .collect();

    assert_eq!(
        over_loop, in_process,
        "the wire must carry what the engine produced, byte for byte, after timing removal"
    );
}

#[test]
fn poll_fallback_backend_serves_round_trips() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            force_poll_fallback: true,
            ..EventLoopConfig::default()
        },
    );
    let mut client =
        NdjsonClient::connect(&handle.local_addr().to_string(), ClientConfig::default())
            .expect("dial");
    let reply = client
        .call(&RequestEnvelope {
            id: serde_json::to_value(&"fallback"),
            tenant: None,
            request: PatternRequest::Stats,
        })
        .expect("round trip over poll(2)");
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_drains_replies_queued_before_close() {
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());

    // Send a batch of requests and read NOTHING: every reply lands in
    // the connection's outbound queue (and whatever slice of it the
    // loop already pushed into the kernel buffer).
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    const REQUESTS: u64 = 8;
    for i in 0..REQUESTS {
        let line = format!("{}\n", generate_line(&format!("drain-{i}"), 200 + i));
        stream.write_all(line.as_bytes()).expect("request written");
    }

    // Wait until every reply has been accepted into the outbound path,
    // then shut the server down with all of them still unread.
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.stats().completed < REQUESTS {
        assert!(
            Instant::now() < deadline,
            "engine stalled: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();

    // Accepted replies must not vanish: the teardown write pass drains
    // queued bytes before the close, so all eight replies arrive,
    // followed by a clean EOF.
    let mut seen: Vec<String> = (0..REQUESTS)
        .map(|_| {
            let reply = read_reply(&mut reader);
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)), "{reply:?}");
            reply.id.as_str().expect("string id").to_owned()
        })
        .collect();
    seen.sort();
    let expected: Vec<String> = (0..REQUESTS).map(|i| format!("drain-{i}")).collect();
    assert_eq!(seen, expected);
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("EOF reads");
    assert!(
        rest.is_empty(),
        "nothing after the drained replies: {rest:?}"
    );
}

#[test]
fn slow_reader_is_killed_at_the_high_water_mark() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            outbound_high_water: 4096,
            ..EventLoopConfig::default()
        },
    );

    // Request plenty, read nothing: once the kernel's socket buffers
    // fill, replies pile into the outbound queue until the 4 KiB
    // high-water mark kills the connection.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = engine.stats();
        if stats.disconnects_backpressure >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no backpressure kill after {sent} unread replies: {stats:?}"
        );
        let line = format!("{}\n", generate_line(&format!("bp-{sent}"), sent));
        if stream.write_all(line.as_bytes()).is_err() {
            // The kill closed the socket under us — the counter flip
            // is what the loop above is waiting for.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        sent += 1;
    }
    let stats = engine.stats();
    assert_eq!(stats.disconnects_backpressure, 1, "{stats:?}");
    assert_eq!(stats.connections_live, 0, "{stats:?}");
    handle.shutdown();
}

/// A line of 200 000 `[` fits the default line limit, and reading it
/// used to recurse once per bracket until the stack ran out — one
/// such line took the whole server down. It now earns the ordinary
/// bad-JSON envelope and the same connection goes on serving (the
/// stdio face of this is in `tests/wire.rs`).
#[test]
fn deeply_nested_line_is_refused_over_tcp_and_the_connection_survives() {
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for open in ["[", "{\"id\":"] {
        let mut bomb = open.repeat(200_000 / open.len());
        bomb.push('\n');
        stream.write_all(bomb.as_bytes()).expect("bomb written");
        let reply = read_reply(&mut reader);
        assert!(reply.id.is_null(), "{reply:?}");
        let WireOutcome::Err(error) = &reply.outcome else {
            panic!("a bomb must error: {reply:?}");
        };
        assert_eq!(error.kind, "InvalidRequest");
        assert!(
            error.message.contains("bad JSON") && error.message.contains("nesting deeper"),
            "{error:?}"
        );
    }
    let valid = format!("{}\n", generate_line("after", 4));
    stream.write_all(valid.as_bytes()).expect("valid written");
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_str(), Some("after"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));

    drop(stream);
    handle.shutdown();
}

/// EOF on the server's read side means "no more requests", not "go
/// away": `printf … | nc -N host port` pipelines its lines, shuts its
/// write side down and then reads. Every reply owed for the lines
/// already sent must arrive before the server closes — clean, and
/// counted only then.
#[test]
fn half_closed_client_still_receives_every_owed_reply() {
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    const REQUESTS: u64 = 6;
    let mut batch = String::new();
    for i in 0..REQUESTS {
        batch.push_str(&generate_line(&format!("half-{i}"), 300 + i));
        batch.push('\n');
    }
    stream
        .write_all(batch.as_bytes())
        .expect("requests written");
    stream.shutdown(Shutdown::Write).expect("write side closes");

    let mut seen: Vec<String> = (0..REQUESTS)
        .map(|_| {
            let reply = read_reply(&mut reader);
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)), "{reply:?}");
            reply.id.as_str().expect("string id").to_owned()
        })
        .collect();
    seen.sort();
    let expected: Vec<String> = (0..REQUESTS).map(|i| format!("half-{i}")).collect();
    assert_eq!(seen, expected);
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("EOF reads");
    assert!(rest.is_empty(), "nothing after the owed replies: {rest:?}");

    // The server closed its socket after counting the disconnect, so
    // the EOF above already implies the counters below.
    let stats = engine.stats();
    assert_eq!(stats.connections_live, 0, "{stats:?}");
    assert_eq!(stats.disconnects_clean, 1, "{stats:?}");
    assert_eq!(stats.disconnects_backpressure, 0, "{stats:?}");
    handle.shutdown();
}

/// Threads of this process that carry the calling thread's name. A
/// thread spawned without a name of its own inherits its spawner's, so
/// this counts the test thread and its unnamed descendants — the loop
/// thread, and whatever the loop thread spawns — and is blind to the
/// threads that tests running in parallel start and stop.
#[cfg(target_os = "linux")]
fn threads_sharing_my_name() -> usize {
    let mine = std::fs::read_to_string("/proc/thread-self/comm").expect("own comm reads");
    std::fs::read_dir("/proc/self/task")
        .expect("task directory reads")
        .filter_map(Result::ok)
        // A thread may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| *comm == mine)
        .count()
}

/// A request in flight is a queue entry and a callback, not a parked
/// thread: 64 requests accepted against a service that is holding
/// every job leave the thread count where it was.
#[cfg(target_os = "linux")]
#[test]
fn in_flight_requests_hold_no_threads() {
    use chatpattern_core::{Error, PatternResponse, ResponsePayload, Timing};
    use std::sync::{Condvar, Mutex};

    /// Holds every job until the test opens the gate.
    struct Gated(Arc<(Mutex<bool>, Condvar)>);

    impl PatternService for Gated {
        fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
            let (open, opened) = &*self.0;
            let mut open = open.lock().expect("gate lock");
            while !*open {
                open = opened.wait(open).expect("gate wait");
            }
            Ok(PatternResponse {
                payload: ResponsePayload::Generate(Vec::new()),
                timing: Timing::direct(0),
            })
        }
    }

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = Arc::new(
        PatternEngine::with_config(
            Gated(Arc::clone(&gate)),
            EngineConfig {
                workers: 2,
                queue_depth: 512,
                cache_capacity: 0,
            },
        )
        .expect("valid engine config"),
    );
    let handle = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
        .expect("loopback bind")
        .spawn(Arc::new(EngineHandler::new(Arc::clone(&engine))))
        .expect("event loop spawns");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    const REQUESTS: u64 = 64;
    let before = threads_sharing_my_name();
    for i in 0..REQUESTS {
        let line = format!("{}\n", generate_line(&format!("held-{i}"), i));
        stream.write_all(line.as_bytes()).expect("request written");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.stats().submitted < REQUESTS {
        assert!(Instant::now() < deadline, "stalled: {:?}", engine.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    let during = threads_sharing_my_name();
    assert!(
        during <= before,
        "{REQUESTS} requests in flight grew the thread count from {before} to {during}"
    );

    *gate.0.lock().expect("gate lock") = true;
    gate.1.notify_all();
    for _ in 0..REQUESTS {
        let reply = read_reply(&mut reader);
        assert!(matches!(reply.outcome, WireOutcome::Ok(_)), "{reply:?}");
    }
    drop(stream);
    handle.shutdown();
}

/// `shutdown()` raises the stop flag and pokes the wake pipe. A loop
/// that asks for the flag only right after it wakes loses a stop raised
/// while the same pass goes on to drain the pipe — it then waits with
/// the flag up and nothing left to wake it (the router's `Shutdown`
/// line, answered on the loop and carried out by `main`, hung there).
/// The handler below holds the loop inside exactly that pass.
#[test]
fn a_stop_raised_while_the_loop_drains_its_wake_pipe_is_not_lost() {
    use cp_net::{ConnectionHandler, LineSink};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    struct Staller {
        /// To the test: the loop is handling the first, the second line.
        reached: Sender<&'static str>,
        /// From the test: the second line is in the socket; from
        /// `quiesce`: `shutdown()` has started.
        go: Mutex<Receiver<()>>,
        stopping: Sender<()>,
    }

    impl ConnectionHandler for Staller {
        fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
            let go = self.go.lock().expect("go lock");
            if line == "first" {
                // This pass has read all there was to read. It ends
                // with the reply's wake byte in the pipe and the second
                // line in the socket, so the next pass handles that
                // line and then drains the pipe.
                sink.send_line("one");
                self.reached.send("first").expect("test listens");
                go.recv().expect("the second line was written");
            } else {
                self.reached.send("second").expect("test listens");
                go.recv().expect("shutdown started");
                // `shutdown()` raises the flag and writes its byte
                // right after `quiesce` returns.
                std::thread::sleep(Duration::from_millis(100));
            }
        }

        fn quiesce(&self) {
            self.stopping.send(()).expect("the loop is held");
        }
    }

    let (reached, has_reached) = channel();
    let (go, may_go) = channel();
    let handle = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
        .expect("loopback bind")
        .spawn(Arc::new(Staller {
            reached,
            go: Mutex::new(may_go),
            stopping: go.clone(),
        }))
        .expect("event loop spawns");
    let patience = Duration::from_secs(60);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(b"first\n").expect("first line written");
    assert_eq!(has_reached.recv_timeout(patience), Ok("first"));
    stream.write_all(b"second\n").expect("second line written");
    go.send(()).expect("the loop is held");
    assert_eq!(has_reached.recv_timeout(patience), Ok("second"));

    let (stopped, has_stopped) = channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = stopped.send(());
    });
    has_stopped
        .recv_timeout(patience)
        .expect("the loop saw the stop that was raised mid-pass");
}

/// Every client writes its whole pipeline before any reply is read, so
/// the loop holds outstanding replies for hundreds of connections in
/// its outbound queues at once. Any dropped, repeated or mis-correlated
/// reply fails, and the engine's connection counters must agree with
/// what the clients did.
#[test]
fn hundreds_of_pipelining_clients_are_each_answered_exactly_once() {
    const CLIENTS: usize = 256;
    /// Stats pipelined per client; every 32nd client also runs one real
    /// Generate, so diffusion work is in flight too, not just framing.
    const STATS_EACH: usize = 4;
    cp_net::raise_nofile_limit();
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());
    let addr = handle.local_addr().to_string();
    let mut clients: Vec<NdjsonClient> = (0..CLIENTS)
        .map(|i| {
            NdjsonClient::connect(&addr, ClientConfig::default())
                .unwrap_or_else(|e| panic!("client {i} connects: {e}"))
        })
        .collect();

    let mut expected: Vec<HashSet<u64>> = Vec::with_capacity(CLIENTS);
    for (i, client) in clients.iter_mut().enumerate() {
        let mut requests = vec![PatternRequest::Stats; STATS_EACH];
        if i % 32 == 0 {
            requests.push(PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 1,
                seed: i as u64,
            }));
        }
        let mut ids = HashSet::new();
        for (seq, request) in requests.into_iter().enumerate() {
            let id = (i * 16 + seq) as u64;
            let envelope = RequestEnvelope {
                id: serde_json::to_value(&id),
                tenant: None,
                request,
            };
            client.send(&envelope).expect("request sent");
            ids.insert(id);
        }
        expected.push(ids);
    }
    for (i, (client, want)) in clients.iter_mut().zip(&mut expected).enumerate() {
        while !want.is_empty() {
            let reply = client.recv().expect("reply reads");
            assert!(
                matches!(reply.outcome, WireOutcome::Ok(_)),
                "client {i}: a request errored"
            );
            let id = reply.id.as_u64().expect("a numeric id");
            assert!(
                want.remove(&id),
                "client {i}: reply {id} is not owed (twice?)"
            );
        }
    }

    let stats = engine.stats();
    assert_eq!(stats.connections_live as usize, CLIENTS);
    assert!(stats.connections_peak as usize >= CLIENTS, "{stats:?}");
    assert_eq!(stats.disconnects_backpressure, 0, "a well-behaved crowd");

    // Hang up everything and wait for the loop to observe each EOF.
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = engine.stats();
        if stats.connections_live == 0 && stats.disconnects_clean as usize >= CLIENTS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnects not all observed: {} live, {} clean",
            stats.connections_live,
            stats.disconnects_clean
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}
