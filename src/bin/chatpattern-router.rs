//! `chatpattern-router` — the multi-process shard front-end.
//!
//! Serves NDJSON wire-protocol connections from `cp_net`'s event loop
//! (serve's: same line cap, half-close and slow-reader rules) and
//! forwards each request, over one TCP link a worker, to one of a fleet
//! of `chatpattern-serve --listen` workers — spawned as children, or
//! attached by address. Where each line goes, and when, is
//! `chatpattern_core::routing::Fleet`'s to say: key hash for a
//! cacheable request, the session's pin or id hash for a session's
//! (one line of a session at its worker at a time), round-robin for the
//! rest. This file does the I/O. A `Stats` request is answered with one
//! [`EngineStats`] merged across all workers.
//!
//! The data plane is textual: the router reads the envelope (`id`,
//! `tenant`) and, off the request's text, what placement depends on
//! (`routing::text_route`); the worker gets the bytes the client sent,
//! and the client the bytes the worker sent. The worker is the one
//! validator, and the tenant reaches its QoS gate as given.
//!
//! A `Drain` moves a worker's sessions live — snapshot, restore, re-pin,
//! close the source copy — each once its line in flight is answered. A
//! dead worker is respawned over its per-worker `--session-dir`, where
//! spilled sessions wait. Control lines are in `docs/ROUTER.md`.
//!
//! Threads, whatever the number of clients: main (parked until
//! `Shutdown`), the event loop, a reader per connected worker, a stderr
//! drain per spawned child, and a reviver per link that is down. The
//! loop thread never waits: a line that cannot go on at once waits — in
//! its session's queue, on its worker's link while that is down — and
//! is sent in arrival order by the thread that ends the wait.

use chatpattern_core::routing::{answer_of, text_route, Action, Fleet, TextRoute};
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope, WireError};
use chatpattern_core::{
    EngineConfig, EngineStats, Error, PatternRequest, PatternResponse, ResponsePayload,
    SessionCloseParams, SessionRestoreParams, SessionSnapshotParams, Timing, WireOutcome,
};
use cp_net::{
    connect_with_backoff, ClientConfig, ConnectionHandler, EventLoopConfig, EventLoopServer,
    LineSink, DEFAULT_EVENT_LOOP_CONNECTIONS, DEFAULT_MAX_LINE_BYTES,
};
use serde::{Deserialize, Serialize};
use serde_json::value::{to_raw_value, RawValue};
use serde_json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const USAGE: &str = "\
chatpattern-router: shard a chatpattern-serve fleet behind one address

Clients speak the normal wire protocol (docs/WIRE_PROTOCOL.md); every
request is routed to one worker by its request-key/session-id hash,
Stats requests return the merged fleet view, and control lines
({\"id\":..,\"control\":..}, see docs/ROUTER.md) expose Fleet / Drain /
Shutdown.

Options:
  --listen ADDR          address to accept clients on (required; port 0
                         for OS-assigned, announced on stderr as
                         'listening on HOST:PORT')
  --workers N            spawn N chatpattern-serve children, at least 1
                         (default 2)
  --worker ADDR          attach to an already-running serve --listen
                         worker instead of spawning (repeatable;
                         overrides --workers). It keeps the
                         configuration it was started with: the next
                         three options only apply to spawned workers
                         and are refused together with --worker
  --serve-bin PATH       serve binary to spawn (default: the
                         chatpattern-serve next to this executable)
  --serve-arg ARG        one word handed to every spawned worker as is
                         (repeatable), for whatever chatpattern-serve
                         --help lists, e.g. --serve-arg --tenant-quota
                         --serve-arg inflight=4; the worker checks it,
                         and a refusal stops the router's start-up
  --session-dir PATH     give worker i the spill directory
                         PATH/worker-i — this is what lets a respawned
                         worker rehydrate its sessions after a crash
  --max-connections N    concurrently served client connections, at
                         least 1 (default 4096); excess connects wait
                         in the OS backlog
  --drain-timeout SECS   how long a Drain may run, at least 1 (default
                         300); then it answers with an error and the
                         next Drain may start
  --help                 this text";

struct Options {
    listen: String,
    workers: usize,
    attach: Vec<String>,
    serve_bin: Option<String>,
    serve_args: Vec<String>,
    session_dir: Option<String>,
    max_connections: usize,
    drain_timeout: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        listen: String::new(),
        workers: 2,
        attach: Vec::new(),
        serve_bin: None,
        serve_args: Vec::new(),
        session_dir: None,
        max_connections: DEFAULT_EVENT_LOOP_CONNECTIONS,
        drain_timeout: 300,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |name: &str| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{name} needs an unsigned integer, got {value:?}"))
        };
        let positive = |name: &str| match number(name)? {
            0 => Err(format!("{name} needs at least 1, got {value:?}")),
            n => Ok(n),
        };
        match flag.as_str() {
            "--listen" => options.listen = value.clone(),
            "--workers" => options.workers = positive("--workers")?,
            "--worker" => options.attach.push(value.clone()),
            "--serve-bin" => options.serve_bin = Some(value.clone()),
            "--serve-arg" => options.serve_args.push(value.clone()),
            "--session-dir" => options.session_dir = Some(value.clone()),
            "--max-connections" => options.max_connections = positive("--max-connections")?,
            "--drain-timeout" => options.drain_timeout = positive("--drain-timeout")? as u64,
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if options.listen.is_empty() {
        return Err("--listen ADDR is required".to_owned());
    }
    if !options.attach.is_empty() {
        // An attached worker was configured by whoever started it;
        // taking these would promise what the router cannot deliver
        // (crash rehydration from --session-dir, say).
        let spawn_only = [
            ("--serve-bin", options.serve_bin.is_some()),
            ("--serve-arg", !options.serve_args.is_empty()),
            ("--session-dir", options.session_dir.is_some()),
        ];
        if let Some((flag, _)) = spawn_only.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} only applies to spawned workers, not with --worker"
            ));
        }
    }
    Ok(options)
}

// ----------------------------------------------------------------- frames

/// A client's request line, as far as the router reads it: a line
/// without a `request` (a control line), with a `null` id or with
/// anything that is not JSON in it does not frame.
#[derive(Deserialize)]
struct ClientFrame {
    id: Value,
    tenant: Option<String>,
    request: Box<RawValue>,
}

/// The line a worker gets: the request's text under a router-internal
/// id, `"tenant":null` spelled out — the wire envelope's own text.
#[derive(Serialize)]
struct WorkerFrame {
    id: u64,
    request: Box<RawValue>,
    tenant: Option<String>,
}

/// A worker's reply line, and — under the client's id — the line the
/// client gets: the outcome's text passes through as the worker, which
/// is the canonical writer, wrote it.
#[derive(Serialize, Deserialize)]
struct ReplyFrame {
    id: Value,
    outcome: Box<RawValue>,
}

// ---------------------------------------------------------------- control

/// A router-only control line: `{"id":…,"control":…}`.
#[derive(Deserialize)]
struct ControlEnvelope {
    id: Value,
    control: RouterControl,
}

#[derive(Serialize, Deserialize)]
enum RouterControl {
    /// Report every worker (address, pid, stats) plus the merged
    /// fleet stats.
    Fleet,
    /// Move every session off this worker and stop routing to it.
    Drain { worker: usize },
    /// Kill spawned workers and exit the router.
    Shutdown,
}

#[derive(Serialize)]
struct ControlReply {
    id: Value,
    control: ControlOutcome,
}

#[derive(Serialize)]
enum ControlOutcome {
    Fleet(Box<FleetView>),
    Drained { worker: usize, moved: usize },
    ShuttingDown,
    Error { message: String },
}

#[derive(Serialize)]
struct FleetView {
    workers: Vec<WorkerView>,
    fleet: EngineStats,
}

#[derive(Serialize)]
struct WorkerView {
    index: usize,
    addr: Option<String>,
    pid: Option<u32>,
    draining: bool,
    sessions: usize,
    /// Established links to this worker: 1, or 0 while it is down.
    links: usize,
    stats: Option<EngineStats>,
}

// ---------------------------------------------------------------- workers

/// How to (re)create a spawned worker.
struct SpawnSpec {
    bin: String,
    args: Vec<String>,
}

/// Who hears the answer to a forwarded line. Answering may take router
/// locks (the last step of a fan-in does), so it is always done with no
/// link or router lock held.
enum Pending {
    /// A client request, owed to its connection until this answers it
    /// under its original id, and the session whose next line the
    /// answer lets go.
    Client {
        id: Value,
        sink: Arc<LineSink>,
        session: Option<Arc<str>>,
    },
    /// A router-internal call (stats fan-in, snapshot/restore during a
    /// move), the one kind of reply the router decodes: runs once, on
    /// the thread that has the answer.
    Internal(Box<dyn FnOnce(WireOutcome) + Send>),
}

impl Pending {
    /// Hands the outcome a worker answered with to the requester.
    fn deliver(self, router: &Arc<Router>, outcome: Box<RawValue>) {
        match self {
            Pending::Client { id, sink, session } => {
                let answer = session.as_ref().map(|_| answer_of(outcome.get()));
                let reply = ReplyFrame { id, outcome };
                sink.send(&serde_json::to_string(&reply).expect("replies serialize"));
                if let Some((session, answer)) = session.zip(answer) {
                    let actions = router.fleet().answered(&session, answer);
                    run(router, actions);
                }
            }
            Pending::Internal(done) => {
                done(serde_json::from_str(outcome.get()).unwrap_or_else(|e| {
                    let unread = Error::internal(format!("unreadable worker reply: {e}"));
                    WireOutcome::Err(WireError::from(&unread))
                }));
            }
        }
    }

    /// Answers the requester with `error` in place of a worker's reply.
    fn fail(self, router: &Arc<Router>, error: WireError) {
        let outcome = WireOutcome::Err(error);
        self.deliver(router, to_raw_value(&outcome).expect("outcomes serialize"));
    }
}

/// The router's own typed refusal of a line it will not send.
fn overloaded(message: &str) -> WireError {
    WireError {
        kind: "Overloaded".to_owned(),
        message: message.to_owned(),
        retry_after_ms: Some(chatpattern_core::qos::DEFAULT_RETRY_AFTER_MS),
    }
}

/// A request for a worker: tenant, text as sent, and who hears back.
type Outbound = (Option<String>, Box<RawValue>, Pending);

/// Who asked for a drain: the control line's id and connection.
type Requester = (Value, Arc<LineSink>);

/// A line as framed for a worker's socket, under its router-internal id.
type Framed = (u64, String, Pending);

/// The worker's process-level state: its current address, and (spawn
/// mode) the live child. Present once the worker has been brought up.
struct WorkerProc {
    addr: String,
    child: Option<Child>,
}

/// The one TCP connection to a worker. Every client's lines for the
/// worker share it in arrival order, each under a router-internal id
/// that `pending` maps back to its requester, so the link dying fails
/// exactly what was in flight on it.
#[derive(Default)]
struct Wire {
    /// Write half while connected (the reader thread has the other).
    stream: Option<TcpStream>,
    /// Bumped per connect and per teardown so a stale reader thread can
    /// tell it no longer owns the link.
    generation: u64,
    /// `Some` while a reviver thread is bringing the link back up: the
    /// lines that arrived for the worker meanwhile, in arrival order,
    /// at most `Router::depth` of them.
    parked: Option<Vec<Framed>>,
    pending: HashMap<u64, Pending>,
}

struct Worker {
    index: usize,
    spawn: Option<SpawnSpec>,
    /// Attach-mode address (fixed); spawn mode learns the address
    /// from the child's announcement line each (re)spawn.
    attach_addr: Option<String>,
    proc: Mutex<Option<WorkerProc>>,
    wire: Mutex<Wire>,
}

// ----------------------------------------------------------------- router

struct Router {
    workers: Vec<Worker>,
    fleet: Mutex<Fleet<Outbound, Requester>>,
    /// How many lines a session's queue, or a link that is down, holds:
    /// what a worker's queue holds by default.
    depth: usize,
    next_internal: AtomicU64,
    connect: ClientConfig,
    drain_timeout: Duration,
}

impl Router {
    /// The protocol state, held only to call it: `run` does the rest.
    fn fleet(&self) -> MutexGuard<'_, Fleet<Outbound, Requester>> {
        self.fleet.lock().expect("fleet lock")
    }
}

/// Carries out what the fleet asked for.
fn run(router: &Arc<Router>, actions: impl IntoIterator<Item = Action<Outbound, Requester>>) {
    for action in actions {
        match action {
            Action::Forward { worker, line } => forward(router, worker, line),
            Action::Move {
                session,
                source,
                target,
            } => move_session(Arc::clone(router), session, source, target),
            Action::Overloaded((_, _, mut entry)) => {
                // Answered here, not by its session's worker: no answer
                // of its may send the session's next line.
                if let Pending::Client { session, .. } = &mut entry {
                    *session = None;
                }
                let full = overloaded("the router's queue for this session is full");
                entry.fail(router, full);
            }
            Action::Deadline(drain) => {
                let router = Arc::clone(router);
                std::thread::spawn(move || {
                    std::thread::sleep(router.drain_timeout);
                    let actions = router.fleet().expire(drain);
                    run(&router, actions);
                });
            }
            Action::Drained((id, sink), outcome) => {
                let outcome = outcome.map_or_else(
                    |message| ControlOutcome::Error { message },
                    |(worker, moved)| ControlOutcome::Drained { worker, moved },
                );
                sink.send(&control_line(id, outcome));
            }
        }
    }
}

/// Ensures the worker *process* is alive (spawning or respawning as
/// needed) and returns its address. Liveness is `try_wait` on the
/// child: a dropped connection alone never triggers a respawn. No lock
/// is held across the spawn (a model build): only one thread at a time
/// brings a worker up — `main`, then its link's one reviver.
fn ensure_worker_process(router: &Router, index: usize) -> Result<String, String> {
    let worker = &router.workers[index];
    {
        let mut proc = worker.proc.lock().expect("proc lock");
        if let Some(live) = proc.as_mut() {
            let child_exited = live
                .child
                .as_mut()
                .is_some_and(|c| c.try_wait().ok().flatten().is_some());
            if !child_exited {
                return Ok(live.addr.clone());
            }
            *proc = None;
        }
    }
    let (addr, child) = match (&worker.spawn, &worker.attach_addr) {
        (Some(spec), _) => spawn_worker(spec, index)?,
        (None, Some(addr)) => (addr.clone(), None),
        (None, None) => unreachable!("a worker is spawned or attached"),
    };
    *worker.proc.lock().expect("proc lock") = Some(WorkerProc {
        addr: addr.clone(),
        child,
    });
    Ok(addr)
}

/// (Re)spawns the worker's process as needed, dials it with backoff,
/// installs the link's stream and starts its reader: for `main` and
/// revivers, never the event loop, as it spawns, connects and sleeps.
fn connect_worker(router: &Arc<Router>, index: usize) -> Result<(), String> {
    let addr = ensure_worker_process(router, index)?;
    let conn = connect_with_backoff(addr.as_str(), &router.connect)
        .map_err(|e| format!("worker {index}: cannot connect to {addr}: {e}"))?;
    let read_half = conn
        .try_clone()
        .map_err(|e| format!("worker {index}: clone failed: {e}"))?;
    let mut wire = router.workers[index].wire.lock().expect("wire lock");
    wire.generation += 1;
    wire.stream = Some(conn);
    let generation = wire.generation;
    drop(wire);

    let router = Arc::clone(router);
    std::thread::spawn(move || read_worker(&router, index, generation, read_half));
    Ok(())
}

/// Spawns one serve child and parses its announcement line for the
/// bound address.
fn spawn_worker(spec: &SpawnSpec, index: usize) -> Result<(String, Option<Child>), String> {
    let mut child = Command::new(&spec.bin)
        .args(&spec.args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("worker {index}: cannot spawn {}: {e}", spec.bin))?;
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("chatpattern-serve: listening on ") {
                    break addr.trim().to_owned();
                }
                eprintln!("[worker {index}] {line}");
            }
            Some(Err(_)) | None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "worker {index}: exited before announcing its address"
                ));
            }
        }
    };
    // Keep draining the child's stderr (prefixed) so its pipe never
    // fills up and its diagnostics stay visible.
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            eprintln!("[worker {index}] {line}");
        }
    });
    eprintln!("chatpattern-router: worker {index} up at {addr}");
    Ok((addr, Some(child)))
}

/// The link's reader: hands each response line to whoever is waiting
/// on it — a push into a client's bounded outbound queue (and the send
/// of its session's next line) or an internal callback; when the
/// connection ends, takes the link down and fails what was in flight.
fn read_worker(router: &Arc<Router>, index: usize, generation: u64, stream: TcpStream) {
    let link = &router.workers[index].wire;
    let mut reader = BufReader::new(stream);
    // One buffer for every line: it grows to the longest reply once.
    let mut line = String::new();
    loop {
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(read) if read > 0) {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let Ok(reply) = serde_json::from_str::<ReplyFrame>(&line) else {
            eprintln!("chatpattern-router: worker {index} sent an unparsable line");
            continue;
        };
        let pending = |id| link.lock().expect("wire lock").pending.remove(&id);
        if let Some(entry) = reply.id.as_u64().and_then(pending) {
            entry.deliver(router, reply.outcome);
        }
    }

    // Only the reader that still owns the link tears it down: a failed
    // write or a reconnect since has bumped the generation under the
    // wire lock, and a stale reader must not touch entries registered
    // for the fresh connection. The worker process is *not* killed
    // here; `try_wait` in `ensure_worker_process` detects real death.
    let orphans = {
        let mut wire = link.lock().expect("wire lock");
        if wire.generation != generation {
            return;
        }
        take_down(&mut wire)
    };
    fail_all(router, orphans, &format!("worker {index} connection lost"));
}

/// Marks the link down under its wire lock and returns what was in
/// flight on it, for the caller to fail once it has let go of the lock.
fn take_down(wire: &mut Wire) -> Vec<Pending> {
    if let Some(stream) = wire.stream.take() {
        // Wakes the reader this strands; the generation tells it to
        // stand down.
        let _ = stream.shutdown(Shutdown::Both);
    }
    wire.generation += 1;
    wire.pending.drain().map(|(_, entry)| entry).collect()
}

/// Answers every entry with `reason` as a typed `Internal` error.
fn fail_all(router: &Arc<Router>, entries: Vec<Pending>, reason: &str) {
    if entries.is_empty() {
        return;
    }
    let lost = entries.len();
    eprintln!("chatpattern-router: {reason}, failing {lost} request(s)");
    let error = Error::internal(reason.to_owned());
    for entry in entries {
        entry.fail(router, WireError::from(&error));
    }
}

/// Registers `entry`, then writes its line, both under the wire lock
/// the reader takes to look the entry up, so it never sees a reply
/// before the entry it is for. A failed write — or no stream — gives
/// the entry back: nothing answers a line that was not sent whole.
fn send(wire: &mut Wire, internal: u64, framed: &str, entry: Pending) -> Result<(), Pending> {
    let Some(stream) = wire.stream.as_mut() else {
        return Err(entry);
    };
    wire.pending.insert(internal, entry);
    if stream.write_all(framed.as_bytes()).is_ok() {
        return Ok(());
    }
    wire.pending.remove(&internal).map_or(Ok(()), Err)
}

/// Forwards one request line to a worker over its link, behind every
/// line forwarded to it before. The write is the one socket operation
/// the event loop makes outside its own connections: a worker is that
/// same loop and never stops reading. Anything slower is handed over —
/// a line for a link that is down is parked on it, behind a reviver
/// thread, and a failed write takes the link down and does the same.
/// Past `Router::depth` parked lines, a line is refused at once, and
/// answered as a worker's error would be: its session's next line goes.
fn forward(router: &Arc<Router>, index: usize, (tenant, request, mut entry): Outbound) {
    let internal = router.next_internal.fetch_add(1, Ordering::Relaxed);
    let frame = WorkerFrame {
        id: internal,
        request,
        tenant,
    };
    let mut framed = serde_json::to_string(&frame).expect("frames serialize");
    if framed.len() > DEFAULT_MAX_LINE_BYTES {
        // The worker would refuse this line under a `null` id, which
        // matches no pending entry: the requester would never hear.
        // Refuse it here, under the id the requester is waiting on.
        let error = Error::config(format!(
            "request line exceeds {DEFAULT_MAX_LINE_BYTES} bytes as framed for worker {index} \
             ({} bytes)",
            framed.len()
        ));
        return entry.fail(router, WireError::from(&error));
    }
    framed.push('\n');

    let mut wire = router.workers[index].wire.lock().expect("wire lock");
    if let Some(parked) = wire.parked.as_mut() {
        if parked.len() < router.depth {
            parked.push((internal, framed, entry));
            return;
        }
        drop(wire);
        let message = format!("worker {index} is down with {} lines waiting", router.depth);
        return entry.fail(router, overloaded(&message));
    }
    let orphans = match send(&mut wire, internal, &framed, entry) {
        Ok(()) => return,
        Err(unsent) => {
            entry = unsent;
            take_down(&mut wire)
        }
    };
    wire.parked = Some(vec![(internal, framed, entry)]);
    drop(wire);
    let reviver = Arc::clone(router);
    std::thread::spawn(move || revive(&reviver, index));
    fail_all(router, orphans, &format!("worker {index} connection lost"));
}

/// Brings a down link back up on a thread of its own, then sends what
/// was parked on it meanwhile in arrival order — or, when the worker
/// cannot be reached or is gone again mid-way, fails it under each
/// line's own id. Lines park until the list is taken, so none overtakes.
fn revive(router: &Arc<Router>, index: usize) {
    if let Err(message) = connect_worker(router, index) {
        eprintln!("chatpattern-router: {message}");
    }
    let mut wire = router.workers[index].wire.lock().expect("wire lock");
    let mut parked = wire.parked.take().unwrap_or_default().into_iter();
    let mut unsent = Vec::new();
    for (internal, framed, entry) in parked.by_ref() {
        if let Err(entry) = send(&mut wire, internal, &framed, entry) {
            unsent.push(entry);
            break;
        }
    }
    unsent.extend(parked.map(|(_, _, entry)| entry));
    if !unsent.is_empty() {
        unsent.extend(take_down(&mut wire));
    }
    drop(wire);
    fail_all(router, unsent, &format!("worker {index} unavailable"));
}

/// A router-internal request to one worker, whose answer `done` gets on
/// the thread that has it. Internal calls run as the default tenant:
/// fleet plumbing (stats polls, a move's snapshot) must never be
/// throttled by a client quota.
fn ask(
    router: &Arc<Router>,
    index: usize,
    request: &PatternRequest,
    done: impl FnOnce(WireOutcome) + Send + 'static,
) {
    let request = to_raw_value(request).expect("requests serialize");
    let entry = Pending::Internal(Box::new(done));
    forward(router, index, (None, request, entry));
}

/// Asks every worker for its `Stats` at once and hands `done` one entry
/// a worker — `None` where the link failed or the answer was an error —
/// on the thread that brings the last of them. A worker that hangs with
/// its link up holds this as it holds a client request routed to it.
fn fleet_stats(router: &Arc<Router>, done: impl FnOnce(Vec<Option<EngineStats>>) + Send + 'static) {
    let count = router.workers.len();
    let gather = Arc::new(Mutex::new((vec![None; count], count, Some(done))));
    for index in 0..count {
        let gather = Arc::clone(&gather);
        ask(router, index, &PatternRequest::Stats, move |outcome| {
            let mut gather = gather.lock().expect("gather lock");
            if let WireOutcome::Ok(response) = outcome {
                if let ResponsePayload::Stats(stats) = response.payload {
                    gather.0[index] = Some(stats);
                }
            }
            gather.1 -= 1;
            let last = (gather.1 == 0).then(|| (std::mem::take(&mut gather.0), gather.2.take()));
            drop(gather);
            if let Some((per_worker, Some(done))) = last {
                done(per_worker);
            }
        });
    }
}

/// One `EngineStats` merged across the workers that answered.
fn merged(per_worker: &[Option<EngineStats>]) -> EngineStats {
    let mut fleet = EngineStats::default();
    for stats in per_worker.iter().flatten() {
        fleet.merge(stats);
    }
    fleet
}

// ---------------------------------------------------------- session moves

/// Runs a move the fleet started — snapshot on `source`, restore on
/// `target`, re-pin, close the source copy — each step sent by the
/// thread that has the last one's answer, so nothing waits.
fn move_session(router: Arc<Router>, sid: Arc<str>, source: usize, target: usize) {
    let session = sid.to_string();
    let snapshot = PatternRequest::SessionSnapshot(SessionSnapshotParams { session });
    ask(&Arc::clone(&router), source, &snapshot, move |answer| {
        let answer = match answer {
            WireOutcome::Ok(response) => Ok(response.payload),
            WireOutcome::Err(error) => Err(error),
        };
        let snapshot = match answer {
            Ok(ResponsePayload::SessionSnapshot(snapshot)) => snapshot,
            // Expired (or closed concurrently): nothing to move.
            Err(error) if error.kind == "SessionNotFound" => {
                return moved(&router, &sid, Ok(false));
            }
            other => {
                return moved(
                    &router,
                    &sid,
                    Err(format!("snapshot of {sid} failed: {other:?}")),
                )
            }
        };
        let restore = PatternRequest::SessionRestore(SessionRestoreParams { snapshot });
        ask(&Arc::clone(&router), target, &restore, move |answer| {
            if let WireOutcome::Err(error) = answer {
                let message = format!(
                    "restore of {sid} on worker {target} failed: {}",
                    error.message
                );
                return moved(&router, &sid, Err(message));
            }
            moved(&router, &sid, Ok(true));
            eprintln!("chatpattern-router: moved session {sid} {source} -> {target}");
            // The target is the session's one home now: the close's
            // outcome is deliberately discarded.
            let session = sid.to_string();
            let close = PatternRequest::SessionClose(SessionCloseParams { session });
            ask(&router, source, &close, drop);
        });
    });
}

/// Tells the fleet how `sid`'s move went, and sends what that lets go.
fn moved(router: &Arc<Router>, sid: &str, outcome: Result<bool, String>) {
    if let Err(message) = &outcome {
        eprintln!("chatpattern-router: drain of {sid} failed: {message}");
    }
    let actions = router.fleet().moved(sid, outcome);
    run(router, actions);
}

// -------------------------------------------------------- client frontend

/// The router's side of `cp_net`'s event loop, which serves every
/// client connection from its one thread.
struct RouterHandler {
    router: Arc<Router>,
    /// Tells `main`, which owns the loop's handle, of a `Shutdown`.
    shutdown: mpsc::Sender<()>,
}

fn control_line(id: Value, control: ControlOutcome) -> String {
    serde_json::to_string(&ControlReply { id, control }).expect("control replies serialize")
}

/// The `Fleet` reply: every worker as the router sees it now, next to
/// the stats it just answered with, plus the merged fleet stats.
fn fleet_view(router: &Router, per_worker: Vec<Option<EngineStats>>) -> FleetView {
    let fleet = merged(&per_worker);
    let placement = router.fleet();
    let workers = router
        .workers
        .iter()
        .zip(per_worker)
        .map(|(worker, stats)| {
            let proc = worker.proc.lock().expect("proc lock");
            let wire = worker.wire.lock().expect("wire lock");
            let pins = placement.pins().filter(|(_, pin)| *pin == worker.index);
            WorkerView {
                index: worker.index,
                addr: proc.as_ref().map(|p| p.addr.clone()),
                pid: proc.as_ref().and_then(|p| p.child.as_ref().map(Child::id)),
                draining: !placement.is_live(worker.index),
                sessions: pins.count(),
                links: usize::from(wire.stream.is_some()),
                stats,
            }
        })
        .collect();
    FleetView { workers, fleet }
}

impl RouterHandler {
    /// A control line. `Fleet` is the stats fan-in with a wider reply,
    /// `Drain` is the fleet's to start (or refuse) and answer once its
    /// last move has ended, and `Shutdown` is answered here and carried
    /// out by `main`.
    fn on_control(&self, ControlEnvelope { id, control }: ControlEnvelope, sink: &Arc<LineSink>) {
        let router = Arc::clone(&self.router);
        let sink = Arc::clone(sink);
        match control {
            RouterControl::Fleet => fleet_stats(&self.router, move |per_worker| {
                let view = fleet_view(&router, per_worker);
                sink.send(&control_line(id, ControlOutcome::Fleet(Box::new(view))));
            }),
            RouterControl::Drain { worker } => {
                let actions = router.fleet().drain(worker, (id, sink));
                run(&router, actions);
            }
            RouterControl::Shutdown => {
                sink.send(&control_line(id, ControlOutcome::ShuttingDown));
                // `main` stops the loop once every connection has been
                // answered what it is owed, this line included.
                let _ = self.shutdown.send(());
            }
        }
    }
}

impl ConnectionHandler for RouterHandler {
    /// One client line, on the event loop's one thread — so nothing in
    /// here waits: no connect, child process, sleep or receive, and no
    /// lock held across one. Each line gets one `send`: at once, or
    /// later by the thread that has the answer — the loop keeps a client
    /// that half-closed, and a `Shutdown`, waiting until then.
    fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
        let frame = match serde_json::from_str::<ClientFrame>(line) {
            Ok(frame) if !frame.id.is_null() => frame,
            // A line that is no request is read again: as a control
            // line (which has no `request` and so never frames as one),
            // else by serve's own reader, for the refusal serve would
            // give it — that reader takes no line this one did not (it
            // reads the same envelope, and of `request` more).
            _ => {
                return match serde_json::from_str::<ControlEnvelope>(line) {
                    Ok(control) => self.on_control(control, sink),
                    Err(_) => {
                        let (id, error) = decode_request_line(line).err().unwrap_or_else(|| {
                            let unframed = "request line decodes but does not frame";
                            (Value::Null, Error::internal(unframed))
                        });
                        sink.send(&ResponseEnvelope::error(id, &error).to_line());
                    }
                };
            }
        };
        let id = frame.id;
        let sink = Arc::clone(sink);
        let placement = text_route(frame.request.get());
        if placement == TextRoute::Stats {
            // The fleet view, answered by the router itself.
            let started = Instant::now();
            return fleet_stats(&self.router, move |per_worker| {
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                let response = PatternResponse {
                    payload: ResponsePayload::Stats(merged(&per_worker)),
                    timing: Timing::direct(micros),
                };
                sink.send(&ResponseEnvelope::ok(id, response).to_line());
            });
        }
        let session = match &placement {
            TextRoute::Session { id, .. } => Some(Arc::clone(id)),
            _ => None,
        };
        let line = (frame.tenant, frame.request);
        let entry = Pending::Client { id, sink, session };
        let action = self
            .router
            .fleet()
            .route(placement, (line.0, line.1, entry));
        run(&self.router, action);
    }
}

// ------------------------------------------------------------------- main

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("chatpattern-router: {message}");
            return ExitCode::FAILURE;
        }
    };

    let worker = |index: usize, spawn: Option<SpawnSpec>, attach_addr: Option<String>| Worker {
        index,
        spawn,
        attach_addr,
        proc: Mutex::new(None),
        wire: Mutex::default(),
    };
    let workers: Vec<Worker> = if options.attach.is_empty() {
        let bin = options.serve_bin.clone().unwrap_or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|exe| {
                    exe.parent()
                        .map(|dir| dir.join("chatpattern-serve").to_string_lossy().into_owned())
                })
                .unwrap_or_else(|| "chatpattern-serve".to_owned())
        });
        (0..options.workers)
            .map(|index| {
                let mut args = vec!["--listen".to_owned(), "127.0.0.1:0".to_owned()];
                args.extend(options.serve_args.iter().cloned());
                if let Some(base) = &options.session_dir {
                    args.push("--session-dir".to_owned());
                    args.push(format!("{base}/worker-{index}"));
                }
                let bin = bin.clone();
                worker(index, Some(SpawnSpec { bin, args }), None)
            })
            .collect()
    } else {
        let attached = options.attach.iter().enumerate();
        attached
            .map(|(index, addr)| worker(index, None, Some(addr.clone())))
            .collect()
    };

    let depth = EngineConfig::default().queue_depth;
    let router = Arc::new(Router {
        fleet: Mutex::new(Fleet::new(workers.len(), depth)),
        depth,
        workers,
        next_internal: AtomicU64::new(1),
        connect: ClientConfig {
            // Worker reads block until the worker answers or dies —
            // a read timeout would misread a long diffusion job as a
            // dead worker.
            read_timeout: None,
            ..ClientConfig::default()
        },
        drain_timeout: Duration::from_secs(options.drain_timeout),
    });

    // Bring the whole fleet up before accepting clients, so the first
    // request does not pay every worker's model-build latency at once.
    for index in 0..router.workers.len() {
        if let Err(message) = connect_worker(&router, index) {
            eprintln!("chatpattern-router: {message}");
            return ExitCode::FAILURE;
        }
    }

    // Thousands of sockets need fd headroom beyond the usual shell
    // default of 1024.
    cp_net::raise_nofile_limit();
    let config = EventLoopConfig {
        max_connections: options.max_connections,
        ..EventLoopConfig::default()
    };
    let server = match EventLoopServer::bind(options.listen.as_str(), config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!(
                "chatpattern-router: cannot listen on {}: {error}",
                options.listen
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!("chatpattern-router: listening on {}", server.local_addr());
    let (shutdown, asked_to_stop) = mpsc::channel();
    let handler = RouterHandler {
        router: Arc::clone(&router),
        shutdown,
    };
    let handle = match server.spawn(Arc::new(handler)) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("chatpattern-router: cannot start event loop: {error}");
            return ExitCode::FAILURE;
        }
    };

    // Parked until a client's `Shutdown`, answered by the handler;
    // the loop stops once it has flushed that answer and every other
    // reply a live client is owed, so no worker is reaped mid-request.
    let _ = asked_to_stop.recv();
    handle.shutdown();
    for worker in &router.workers {
        if let Some(mut proc) = worker.proc.lock().expect("proc lock").take() {
            if let Some(child) = proc.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    eprintln!("chatpattern-router: shutting down");
    ExitCode::SUCCESS
}
