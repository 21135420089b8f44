//! `chatpattern-router` — the multi-process shard front-end.
//!
//! Serves NDJSON wire-protocol connections from `cp_net`'s event loop
//! (what `chatpattern-serve --listen` runs: same line cap, half-close
//! and slow-reader rules) and fans every request out, over one TCP
//! link a worker, across a fleet of `chatpattern-serve --listen`
//! workers — spawned as children, or attached by address — sharding by
//! request-key / session-id hash (`chatpattern_core::routing` is the
//! single source of truth; a serve process is one queue, so this is the
//! only shard layer there is), so cache-hot keys and every turn of one
//! session stay worker-local. A `Stats` request is answered with the
//! *fleet* view: one
//! [`EngineStats`] merged across all workers — including the
//! per-(tenant, lane) QoS rows, summed fleet-wide.
//!
//! The data plane is textual: of a client's line the router reads the
//! envelope (`id`, `tenant`) and, off the request's text, the little its
//! placement depends on (`routing::text_route`); the request goes to its
//! worker as the bytes the client sent, under a router-internal id, and
//! the worker's outcome goes back to the client as the bytes the worker
//! sent, under the client's id. The worker is the one validator: a
//! request it cannot decode comes back as its `InvalidRequest`. Only
//! what the router itself asks a worker (`Stats` fan-in, the snapshot /
//! restore / close of a move) is built and read as typed values.
//!
//! The envelope's `tenant` field is forwarded as given, so each
//! worker's QoS gate (configured like everything else about a spawned
//! worker, `--serve-arg --tenant-quota --serve-arg SPEC`, and checked
//! by the worker: a value it refuses stops the router's start-up) sees
//! the same tenant identity the client presented to the router, and
//! an over-quota tenant gets the same typed `Overloaded` +
//! `retry_after_ms` answer it would get from a single serve process.
//!
//! The headline capability is **live session rebalancing**: draining
//! a worker issues `SessionSnapshot` on the source, `SessionRestore`
//! on the target, re-routes the session id and closes the source copy
//! — mid-conversation, with the continued turns byte-identical to a
//! never-moved session (PR 5's snapshot determinism guarantee).
//! Worker death is survived the same way sessions survive a serve
//! restart: the child is respawned over its per-worker
//! `--session-dir`, and spilled sessions rehydrate on their next
//! turn.
//!
//! Router-only *control* lines share the connection with wire
//! envelopes (`{"id":…,"control":…}` instead of `"request"`; see
//! `docs/ROUTER.md`):
//!
//! ```text
//! {"id":1,"control":"Fleet"}                 per-worker + merged stats
//! {"id":2,"control":{"Drain":{"worker":0}}}  move its sessions, stop routing to it
//! {"id":3,"control":"Shutdown"}              kill spawned workers and exit
//! ```
//!
//! Threads, whatever the number of clients: main (parked until
//! `Shutdown`), the event loop, a reader per connected worker, a stderr
//! drain per spawned child, the auto-rebalancer when it is on, and a
//! mover (`Drain`) or reviver (a link that is down) while one runs. The
//! loop thread never waits: a line that cannot go on at once is parked
//! — on its session while that moves, on its worker's link while that
//! is down — and forwarded in arrival order by the thread that ends the
//! wait.

use chatpattern_core::routing::{route_hash, text_route, SessionRole, TextRoute};
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope, WireError};
use chatpattern_core::{
    EngineStats, Error, PatternRequest, PatternResponse, ResponsePayload, SessionCloseParams,
    SessionRestoreParams, SessionSnapshotParams, Timing, WireOutcome,
};
use cp_net::{
    connect_with_backoff, ClientConfig, ConnectionHandler, EventLoopConfig, EventLoopServer,
    LineSink, DEFAULT_EVENT_LOOP_CONNECTIONS, DEFAULT_MAX_LINE_BYTES,
};
use serde::{Deserialize, Serialize};
use serde_json::value::{to_raw_value, RawValue};
use serde_json::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
  --rebalance-threshold N  auto-rebalance: when the per-worker session
                         or queue-depth skew (max minus min across live
                         workers) exceeds N, move sessions from the
                         busiest to the least-loaded worker through the
                         same drain machinery, one at a time, until the
                         skew closes (default 0 = off)
  --rebalance-interval-ms MS  how often the auto-rebalancer inspects
                         fleet stats, at least 1 (default 1000; needs
                         --rebalance-threshold)
  --help                 this text";

struct Options {
    listen: String,
    workers: usize,
    attach: Vec<String>,
    serve_bin: Option<String>,
    serve_args: Vec<String>,
    session_dir: Option<String>,
    max_connections: usize,
    rebalance_threshold: usize,
    rebalance_interval: Duration,
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
        rebalance_threshold: 0,
        rebalance_interval: Duration::from_millis(1000),
    };
    let mut interval_given = false;
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
            "--rebalance-threshold" => {
                options.rebalance_threshold = number("--rebalance-threshold")?;
            }
            "--rebalance-interval-ms" => {
                options.rebalance_interval =
                    Duration::from_millis(positive("--rebalance-interval-ms")? as u64);
                interval_given = true;
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if options.listen.is_empty() {
        return Err("--listen ADDR is required".to_owned());
    }
    // Checked after the loop so the two flags work in either order.
    if interval_given && options.rebalance_threshold == 0 {
        return Err("--rebalance-interval-ms needs --rebalance-threshold \
                    (the auto-rebalancer is off without it)"
            .to_owned());
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
    /// A client request, promised to its connection with
    /// [`LineSink::owe`]: answered under its original id; when this was
    /// a successful `SessionClose`, the routing entry is forgotten too.
    Client {
        id: Value,
        sink: Arc<LineSink>,
        closes_session: Option<String>,
    },
    /// A router-internal call (stats fan-in, snapshot/restore during a
    /// move), the one kind of reply the router decodes: runs once, on
    /// the thread that has the answer.
    Internal(Box<dyn FnOnce(WireOutcome) + Send>),
}

impl Pending {
    /// Hands the outcome a worker answered with to the requester.
    fn deliver(self, router: &Router, outcome: Box<RawValue>) {
        match self {
            Pending::Client {
                id,
                sink,
                closes_session,
            } => {
                // The one client reply that is read: did the close succeed?
                if let Some(sid) = closes_session {
                    if let Ok(WireOutcome::Ok(_)) = serde_json::from_str(outcome.get()) {
                        router.sessions.lock().expect("session lock").remove(&sid);
                    }
                }
                let reply = ReplyFrame { id, outcome };
                sink.send_owed(&serde_json::to_string(&reply).expect("replies serialize"));
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
    fn fail(self, router: &Router, error: &Error) {
        let outcome = WireOutcome::Err(WireError::from(error));
        self.deliver(router, to_raw_value(&outcome).expect("outcomes serialize"));
    }
}

/// A client's request on its way to a worker: its text as sent, and
/// where that text says it belongs.
struct Outbound {
    tenant: Option<String>,
    request: Box<RawValue>,
    route: TextRoute,
    entry: Pending,
}

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
struct Link {
    wire: Mutex<Wire>,
    pending: Mutex<HashMap<u64, Pending>>,
}

#[derive(Default)]
struct Wire {
    /// Write half while connected (the reader thread has the other).
    stream: Option<TcpStream>,
    /// Bumped per connect and per teardown so a stale reader thread can
    /// tell it no longer owns the link.
    generation: u64,
    /// `Some` while a reviver thread is bringing the link back up: the
    /// lines that arrived for the worker meanwhile, in arrival order.
    parked: Option<Vec<Framed>>,
}

struct Worker {
    index: usize,
    spawn: Option<SpawnSpec>,
    /// Attach-mode address (fixed); spawn mode learns the address
    /// from the child's announcement line each (re)spawn.
    attach_addr: Option<String>,
    proc: Mutex<Option<WorkerProc>>,
    link: Link,
    draining: AtomicBool,
}

// ----------------------------------------------------------------- router

struct Router {
    workers: Vec<Worker>,
    /// session id → worker index currently hosting it.
    sessions: Mutex<HashMap<String, usize>>,
    /// Sessions mid-rebalance, each with the lines that arrived for it
    /// meanwhile: they are forwarded, in arrival order, once the move
    /// completes, so a turn can never slip in between snapshot and
    /// restore (which would fork the session's history).
    moving: Mutex<HashMap<String, Vec<Outbound>>>,
    next_internal: AtomicU64,
    round_robin: AtomicU64,
    connect: ClientConfig,
}

/// How long a mover waits for one worker's answer.
const INTERNAL_CALL_TIMEOUT: Duration = Duration::from_secs(300);

impl Router {
    /// Non-draining worker indices — the routing domain.
    fn live_workers(&self) -> Vec<usize> {
        self.workers
            .iter()
            .filter(|w| !w.draining.load(Ordering::Relaxed))
            .map(|w| w.index)
            .collect()
    }

    /// Picks the worker for a request: pinned session placement
    /// first, then key/session hash over the live workers, then
    /// round-robin.
    fn place(&self, route: &TextRoute) -> Result<usize, Error> {
        let live = self.live_workers();
        if live.is_empty() {
            return Err(Error::internal("no live workers to route to"));
        }
        let hash = match route {
            TextRoute::Session { id, role } => {
                let mut sessions = self.sessions.lock().expect("session lock");
                if let Some(worker) = sessions.get(id) {
                    return Ok(*worker);
                }
                let worker = live[(route_hash(id) % live.len() as u64) as usize];
                // Only requests that create the session pin it; a turn on
                // an unknown id is the worker's SessionNotFound to report.
                if *role == SessionRole::Creates {
                    sessions.insert(id.clone(), worker);
                }
                return Ok(worker);
            }
            TextRoute::Keyed(hash) => *hash,
            TextRoute::Stats | TextRoute::Free => self.round_robin.fetch_add(1, Ordering::Relaxed),
        };
        Ok(live[(hash % live.len() as u64) as usize])
    }
}

/// Places one line and forwards it; with nowhere to go it is answered
/// with the reason under its own id.
fn route(router: &Arc<Router>, line: Outbound) {
    match router.place(&line.route) {
        Ok(worker) => forward(router, worker, line.tenant, line.request, line.entry),
        Err(error) => line.entry.fail(router, &error),
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
/// installs the connection as the link's stream and starts its reader.
/// For `main` and reviver threads, never the event loop: it spawns,
/// connects and sleeps, and takes the wire lock only once it has.
fn connect_worker(router: &Arc<Router>, index: usize) -> Result<(), String> {
    let addr = ensure_worker_process(router, index)?;
    let conn = connect_with_backoff(addr.as_str(), &router.connect)
        .map_err(|e| format!("worker {index}: cannot connect to {addr}: {e}"))?;
    let read_half = conn
        .try_clone()
        .map_err(|e| format!("worker {index}: clone failed: {e}"))?;
    let mut wire = router.workers[index].link.wire.lock().expect("wire lock");
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
/// on it — a push into a client's bounded outbound queue or an internal
/// callback, so no requester can hold it up; when the connection ends,
/// takes the link down and fails what was in flight on it.
fn read_worker(router: &Arc<Router>, index: usize, generation: u64, stream: TcpStream) {
    let link = &router.workers[index].link;
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
        let Some(internal) = reply.id.as_u64() else {
            continue;
        };
        let entry = link.pending.lock().expect("pending lock").remove(&internal);
        if let Some(entry) = entry {
            entry.deliver(router, reply.outcome);
        }
    }

    // Only the reader that still owns the link tears it down: a failed
    // write or a reconnect since has bumped the generation under the
    // wire lock, and a stale reader must not touch entries registered
    // for the fresh connection. The worker process is *not* killed
    // here; `try_wait` in `ensure_worker_process` detects real death.
    let orphans = {
        let mut wire = link.wire.lock().expect("wire lock");
        if wire.generation != generation {
            return;
        }
        take_down(link, &mut wire)
    };
    fail_all(router, orphans, &format!("worker {index} connection lost"));
}

/// Marks the link down under its wire lock and returns what was in
/// flight on it, for the caller to fail once it has let go of the lock.
fn take_down(link: &Link, wire: &mut Wire) -> Vec<Pending> {
    if let Some(stream) = wire.stream.take() {
        // Wakes the reader this strands; the generation tells it to
        // stand down.
        let _ = stream.shutdown(Shutdown::Both);
    }
    wire.generation += 1;
    let mut pending = link.pending.lock().expect("pending lock");
    pending.drain().map(|(_, entry)| entry).collect()
}

/// Answers every entry with `reason` as a typed `Internal` error.
fn fail_all(router: &Router, entries: Vec<Pending>, reason: &str) {
    if entries.is_empty() {
        return;
    }
    let lost = entries.len();
    eprintln!("chatpattern-router: {reason}, failing {lost} request(s)");
    let error = Error::internal(reason.to_owned());
    for entry in entries {
        entry.fail(router, &error);
    }
}

/// Registers `entry`, then writes its line, so the reader never sees a
/// reply before the entry it is for. A failed write gives the entry
/// back: nothing answers a line that was not sent whole, and a teardown
/// needs the wire lock the caller holds.
fn send(
    link: &Link,
    stream: &mut TcpStream,
    internal: u64,
    framed: &str,
    entry: Pending,
) -> Result<(), Pending> {
    let mut pending = link.pending.lock().expect("pending lock");
    pending.insert(internal, entry);
    drop(pending);
    if stream.write_all(framed.as_bytes()).is_ok() {
        return Ok(());
    }
    let mut pending = link.pending.lock().expect("pending lock");
    pending.remove(&internal).map_or(Ok(()), Err)
}

/// Forwards one request line to a worker over its link, behind every
/// line forwarded to it before. The write is the one socket operation
/// the event loop makes outside its own connections: a worker is that
/// same loop and never stops reading. Anything slower is handed over —
/// a line for a link that is down is parked on it, behind a reviver
/// thread, and a failed write takes the link down and does the same.
fn forward(
    router: &Arc<Router>,
    index: usize,
    tenant: Option<String>,
    request: Box<RawValue>,
    mut entry: Pending,
) {
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
        return entry.fail(router, &error);
    }
    framed.push('\n');

    let link = &router.workers[index].link;
    let mut wire = link.wire.lock().expect("wire lock");
    if let Some(parked) = wire.parked.as_mut() {
        parked.push((internal, framed, entry));
        return;
    }
    let mut orphans = Vec::new();
    if let Some(stream) = wire.stream.as_mut() {
        match send(link, stream, internal, &framed, entry) {
            Ok(()) => return,
            Err(unsent) => {
                entry = unsent;
                orphans = take_down(link, &mut wire);
            }
        }
    }
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
    let link = &router.workers[index].link;
    let mut wire = link.wire.lock().expect("wire lock");
    let mut parked = wire.parked.take().unwrap_or_default().into_iter();
    let mut unsent = Vec::new();
    if let Some(stream) = wire.stream.as_mut() {
        for (internal, framed, entry) in parked.by_ref() {
            if let Err(entry) = send(link, stream, internal, &framed, entry) {
                unsent.push(entry);
                break;
            }
        }
    }
    unsent.extend(parked.map(|(_, _, entry)| entry));
    if !unsent.is_empty() {
        unsent.extend(take_down(link, &mut wire));
    }
    drop(wire);
    fail_all(router, unsent, &format!("worker {index} unavailable"));
}

/// A synchronous router-internal request to one worker, for mover
/// threads. Internal calls run as the default tenant: fleet plumbing
/// (stats polls, rebalancing snapshots) must never be throttled by a
/// client quota.
fn call_worker(
    router: &Arc<Router>,
    index: usize,
    request: &PatternRequest,
) -> Result<WireOutcome, String> {
    let (answer, answered) = mpsc::channel();
    // The caller may have timed out and gone when the answer comes.
    let entry = Pending::Internal(Box::new(move |outcome| drop(answer.send(outcome))));
    let request = to_raw_value(request).expect("requests serialize");
    forward(router, index, None, request, entry);
    answered
        .recv_timeout(INTERNAL_CALL_TIMEOUT)
        .map_err(|_| format!("worker {index}: internal call timed out"))
}

/// The `Stats` a worker answered with, if that is what it did.
fn stats_of(outcome: WireOutcome) -> Option<EngineStats> {
    match outcome {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::Stats(stats) => Some(stats),
            _ => None,
        },
        WireOutcome::Err(_) => None,
    }
}

/// Asks every worker for its `Stats` at once and hands `done` one entry
/// a worker — `None` where the link failed or the answer was an error —
/// on the thread that brings the last of them. A worker that hangs with
/// its link up holds this as it holds a client request routed to it.
fn fleet_stats(router: &Arc<Router>, done: impl FnOnce(Vec<Option<EngineStats>>) + Send + 'static) {
    let count = router.workers.len();
    let unanswered: Vec<Option<EngineStats>> = (0..count).map(|_| None).collect();
    let gather = Arc::new(Mutex::new((unanswered, count, Some(done))));
    let stats = to_raw_value(&PatternRequest::Stats).expect("requests serialize");
    for index in 0..count {
        let gather = Arc::clone(&gather);
        let entry = Pending::Internal(Box::new(move |outcome| {
            let last = {
                let mut gather = gather.lock().expect("gather lock");
                let (per_worker, outstanding, done) = &mut *gather;
                per_worker[index] = stats_of(outcome);
                *outstanding -= 1;
                (*outstanding == 0).then(|| (std::mem::take(per_worker), done.take()))
            };
            if let Some((per_worker, Some(done))) = last {
                done(per_worker);
            }
        }));
        forward(router, index, None, stats.clone(), entry);
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

// ------------------------------------------------------------- rebalancing

/// Moves one session from `source` to `target`: snapshot → restore →
/// re-route → close the source copy. Callers claim the session in
/// `moving` first, choose the target (drain hashes over the remaining
/// live workers; the auto-rebalancer picks the least-loaded one) and
/// `release` the session afterwards.
fn move_session(
    router: &Arc<Router>,
    sid: &str,
    source: usize,
    target: usize,
) -> Result<Option<usize>, String> {
    let snapshot = call_worker(
        router,
        source,
        &PatternRequest::SessionSnapshot(SessionSnapshotParams {
            session: sid.to_owned(),
        }),
    )?;
    let snapshot = match snapshot {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::SessionSnapshot(snapshot) => snapshot,
            other => return Err(format!("snapshot of {sid} returned {other:?}")),
        },
        WireOutcome::Err(error) if error.kind == "SessionNotFound" => {
            // Expired (or closed concurrently): nothing to move.
            router.sessions.lock().expect("session lock").remove(sid);
            return Ok(None);
        }
        WireOutcome::Err(error) => {
            return Err(format!("snapshot of {sid} failed: {}", error.message))
        }
    };

    let restored = call_worker(
        router,
        target,
        &PatternRequest::SessionRestore(SessionRestoreParams { snapshot }),
    )?;
    if let WireOutcome::Err(error) = restored {
        return Err(format!(
            "restore of {sid} on worker {target} failed: {}",
            error.message
        ));
    }
    router
        .sessions
        .lock()
        .expect("session lock")
        .insert(sid.to_owned(), target);
    // Free the source copy; the session's one true home is now the
    // target, so the close outcome is deliberately discarded.
    let _ = call_worker(
        router,
        source,
        &PatternRequest::SessionClose(SessionCloseParams {
            session: sid.to_owned(),
        }),
    );
    Ok(Some(target))
}

/// Ends a session's move, successful or not: forwards the lines parked
/// on it to wherever it lives now, in arrival order. Its `moving` entry
/// goes only once it is seen empty under the lock, so a line arriving
/// during the flush queues behind the parked ones, never ahead.
fn release(router: &Arc<Router>, sid: &str) {
    loop {
        let batch = {
            let mut moving = router.moving.lock().expect("moving lock");
            match moving.get_mut(sid) {
                Some(parked) if !parked.is_empty() => std::mem::take(parked),
                _ => {
                    moving.remove(sid);
                    return;
                }
            }
        };
        for line in batch {
            route(router, line);
        }
    }
}

/// The first half of a drain, on the event loop: marks the worker out
/// of the routing domain and claims its sessions, so every line the
/// loop reads after the `Drain` line already finds them moving. One
/// already in `moving` is left to the mover (the auto-rebalancer) that
/// has it.
fn start_drain(router: &Router, index: usize) -> Result<Vec<String>, String> {
    if index >= router.workers.len() {
        return Err(format!("no worker {index}"));
    }
    let draining = &router.workers[index].draining;
    draining.store(true, Ordering::Relaxed);
    if router.live_workers().is_empty() {
        draining.store(false, Ordering::Relaxed);
        return Err("cannot drain the last live worker".to_owned());
    }
    let mut resident: Vec<String> = {
        let sessions = router.sessions.lock().expect("session lock");
        sessions
            .iter()
            .filter(|(_, w)| **w == index)
            .map(|(sid, _)| sid.clone())
            .collect()
    };
    let mut moving = router.moving.lock().expect("moving lock");
    resident.retain(|sid| match moving.entry(sid.clone()) {
        Entry::Vacant(unclaimed) => {
            unclaimed.insert(Vec::new());
            true
        }
        Entry::Occupied(_) => false,
    });
    Ok(resident)
}

/// The second half, on a mover thread: moves each claimed session and
/// returns how many moved.
fn finish_drain(router: &Arc<Router>, index: usize, claimed: &[String]) -> Result<usize, String> {
    let mut moved = 0;
    let mut first_error = None;
    for sid in claimed {
        let targets = router.live_workers();
        let outcome = if targets.is_empty() {
            Err("no live workers left to move sessions to".to_owned())
        } else {
            let target = targets[(route_hash(sid) % targets.len() as u64) as usize];
            move_session(router, sid, index, target)
        };
        match outcome {
            Ok(Some(target)) => {
                moved += 1;
                eprintln!("chatpattern-router: moved session {sid} {index} -> {target}");
            }
            Ok(None) => {}
            Err(message) => {
                eprintln!("chatpattern-router: drain of {sid} failed: {message}");
                first_error.get_or_insert(message);
            }
        }
        release(router, sid);
    }
    first_error.map_or(Ok(moved), Err)
}

/// One auto-rebalance pass: measure per-live-worker load (sessions
/// hosted from the routing table, queued jobs from each worker's
/// `Stats`), and while either skew (max − min) exceeds the threshold,
/// move one session at a time from the busiest worker to the
/// least-loaded one through the same snapshot → restore machinery a
/// manual drain uses. Returns the number of sessions moved.
fn auto_rebalance(router: &Arc<Router>, threshold: usize) -> usize {
    let mut moved = 0;
    loop {
        let live = router.live_workers();
        if live.len() < 2 {
            return moved;
        }
        let queued: HashMap<usize, usize> = live
            .iter()
            .map(|&index| {
                let stats = call_worker(router, index, &PatternRequest::Stats)
                    .ok()
                    .and_then(stats_of);
                (index, stats.map_or(0, |s| s.queue_depths.iter().sum()))
            })
            .collect();
        let counts: HashMap<usize, usize> = {
            let sessions = router.sessions.lock().expect("session lock");
            live.iter()
                .map(|&index| (index, sessions.values().filter(|w| **w == index).count()))
                .collect()
        };
        let load = |index: usize| (counts[&index], queued[&index]);
        let &busiest = live.iter().max_by_key(|&&w| load(w)).expect("live workers");
        let &calmest = live.iter().min_by_key(|&&w| load(w)).expect("live workers");
        let session_skew = counts[&busiest].saturating_sub(counts[&calmest]);
        let queue_skew = queued.values().max().unwrap_or(&0) - queued.values().min().unwrap_or(&0);
        if session_skew <= threshold && queue_skew <= threshold {
            return moved;
        }
        if session_skew == 0 {
            // Skewed by queue depth alone with nothing movable:
            // sessions are the only load the router can shift.
            return moved;
        }
        // Claim one resident session of the busiest worker that no
        // concurrent mover owns, re-checking placement under the lock.
        let sid = {
            let mut moving = router.moving.lock().expect("moving lock");
            let sessions = router.sessions.lock().expect("session lock");
            let candidate = sessions
                .iter()
                .find(|(sid, w)| **w == busiest && !moving.contains_key(*sid))
                .map(|(sid, _)| sid.clone());
            match candidate {
                Some(sid) => {
                    moving.insert(sid.clone(), Vec::new());
                    sid
                }
                None => return moved,
            }
        };
        let outcome = move_session(router, &sid, busiest, calmest);
        release(router, &sid);
        match outcome {
            Ok(Some(target)) => {
                moved += 1;
                eprintln!(
                    "chatpattern-router: auto-rebalance moved session {sid} {busiest} -> {target} \
                     (session skew {session_skew}, queue skew {queue_skew})"
                );
            }
            Ok(None) => {}
            Err(message) => {
                eprintln!("chatpattern-router: auto-rebalance of {sid} failed: {message}");
                return moved;
            }
        }
    }
}

/// The background skew watcher behind `--rebalance-threshold`.
fn spawn_rebalancer(router: Arc<Router>, threshold: usize, interval: Duration) {
    std::thread::spawn(move || loop {
        std::thread::sleep(interval);
        auto_rebalance(&router, threshold);
    });
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
    let sessions = router.sessions.lock().expect("session lock");
    let workers = router
        .workers
        .iter()
        .zip(per_worker)
        .map(|(worker, stats)| {
            let proc = worker.proc.lock().expect("proc lock");
            let wire = worker.link.wire.lock().expect("wire lock");
            WorkerView {
                index: worker.index,
                addr: proc.as_ref().map(|p| p.addr.clone()),
                pid: proc.as_ref().and_then(|p| p.child.as_ref().map(Child::id)),
                draining: worker.draining.load(Ordering::Relaxed),
                sessions: sessions.values().filter(|w| **w == worker.index).count(),
                links: usize::from(wire.stream.is_some()),
                stats,
            }
        })
        .collect();
    FleetView { workers, fleet }
}

impl RouterHandler {
    /// A control line. `Fleet` is the stats fan-in with a wider reply,
    /// `Drain` claims on the loop and moves on a thread of its own (as
    /// the auto-rebalancer it shares `move_session` with has), and
    /// `Shutdown` is answered here and carried out by `main`.
    fn on_control(&self, envelope: ControlEnvelope, sink: &Arc<LineSink>) {
        let ControlEnvelope { id, control } = envelope;
        let router = Arc::clone(&self.router);
        let owed = Arc::clone(sink);
        match control {
            RouterControl::Fleet => {
                sink.owe();
                fleet_stats(&self.router, move |per_worker| {
                    let view = fleet_view(&router, per_worker);
                    owed.send_owed(&control_line(id, ControlOutcome::Fleet(Box::new(view))));
                });
            }
            RouterControl::Drain { worker } => match start_drain(&router, worker) {
                Ok(claimed) => {
                    sink.owe();
                    std::thread::spawn(move || {
                        let outcome = match finish_drain(&router, worker, &claimed) {
                            Ok(moved) => ControlOutcome::Drained { worker, moved },
                            Err(message) => ControlOutcome::Error { message },
                        };
                        owed.send_owed(&control_line(id, outcome));
                    });
                }
                Err(message) => {
                    sink.send_line(&control_line(id, ControlOutcome::Error { message }));
                }
            },
            RouterControl::Shutdown => {
                sink.send_line(&control_line(id, ControlOutcome::ShuttingDown));
                // `main` stops the loop, which flushes the line above.
                let _ = self.shutdown.send(());
            }
        }
    }
}

impl ConnectionHandler for RouterHandler {
    /// One client line, on the event loop's one thread — so nothing in
    /// here waits: no connect, no child process, no sleep, no receive,
    /// and no lock that another thread holds across one of those. A
    /// line answered later (forwarded, parked, a fan-in, a drain) is
    /// announced with `owe` and answered with `send_owed` by the thread
    /// that has the answer, so a client that half-closed is kept until
    /// it has heard; `send_line` is for what is answered at once (a line
    /// that does not decode, a refused drain, `Shutdown`).
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
                        sink.send_line(&ResponseEnvelope::error(id, &error).to_line());
                    }
                };
            }
        };
        sink.owe();
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
                sink.send_owed(&ResponseEnvelope::ok(id, response).to_line());
            });
        }
        let closes_session = match &placement {
            TextRoute::Session { id, role } if *role == SessionRole::Closes => Some(id.clone()),
            _ => None,
        };
        let line = Outbound {
            tenant: frame.tenant,
            request: frame.request,
            route: placement,
            entry: Pending::Client {
                id,
                sink,
                closes_session,
            },
        };
        if let TextRoute::Session { id, .. } = &line.route {
            let mut moving = self.router.moving.lock().expect("moving lock");
            if let Some(parked) = moving.get_mut(id) {
                return parked.push(line);
            }
        }
        route(&self.router, line);
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
        link: Link::default(),
        draining: AtomicBool::new(false),
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

    let router = Arc::new(Router {
        workers,
        sessions: Mutex::new(HashMap::new()),
        moving: Mutex::new(HashMap::new()),
        next_internal: AtomicU64::new(1),
        round_robin: AtomicU64::new(0),
        connect: ClientConfig {
            // Worker reads block until the worker answers or dies —
            // a read timeout would misread a long diffusion job as a
            // dead worker.
            read_timeout: None,
            ..ClientConfig::default()
        },
    });

    // Bring the whole fleet up before accepting clients, so the first
    // request does not pay every worker's model-build latency at once.
    for index in 0..router.workers.len() {
        if let Err(message) = connect_worker(&router, index) {
            eprintln!("chatpattern-router: {message}");
            return ExitCode::FAILURE;
        }
    }

    if options.rebalance_threshold > 0 {
        eprintln!(
            "chatpattern-router: auto-rebalance on (threshold {}, every {:?})",
            options.rebalance_threshold, options.rebalance_interval
        );
        spawn_rebalancer(
            Arc::clone(&router),
            options.rebalance_threshold,
            options.rebalance_interval,
        );
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
    // stopping the loop flushes that answer.
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
