//! `chatpattern-router` — the multi-process shard front-end.
//!
//! Accepts NDJSON wire-protocol connections and fans every
//! request out across a fleet of `chatpattern-serve --listen` workers
//! — spawned as children, or attached by address — sharding by the
//! exact same request-key / session-id hash as the in-process engine's
//! shards ([`chatpattern_core::BackendKind::Sharded`];
//! `chatpattern_core::routing` is the single source of truth), so
//! cache-hot keys and every turn of one session stay worker-local. A
//! `Stats` request is answered with the *fleet* view: one
//! [`EngineStats`] merged across all workers — including the
//! per-(tenant, lane) QoS rows, summed fleet-wide.
//!
//! The envelope's `tenant` field is forwarded verbatim, so each
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

use chatpattern_core::routing::route_hash;
use chatpattern_core::wire::{decode_request_line, ResponseEnvelope};
use chatpattern_core::{
    EngineStats, Error, PatternRequest, PatternResponse, RequestEnvelope, ResponsePayload,
    SessionCloseParams, SessionRestoreParams, SessionSnapshotParams, Timing, WireOutcome,
};
use cp_net::{
    connect_with_backoff, ClientConfig, Framed, LineFramer, LineSink, DEFAULT_MAX_LINE_BYTES,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Read};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "\
chatpattern-router: shard a chatpattern-serve fleet behind one address

Clients speak the normal wire protocol (docs/WIRE_PROTOCOL.md); every
request is routed to one worker by the same request-key/session-id
hash the in-process engine shards by, Stats requests return the
merged fleet view, and control lines ({\"id\":..,\"control\":..}, see
docs/ROUTER.md) expose Fleet / Drain / Shutdown.

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
                         least 1 (default 64); excess connects wait
  --pool N               TCP connections per worker, at least 1 (default
                         2): each forwarded request round-robins over
                         the pool, so one slow reply cannot
                         head-of-line-block every other to that shard
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

/// Default TCP connections per worker.
const DEFAULT_POOL: usize = 2;

/// Default cap on concurrently served clients (a thread each).
const DEFAULT_MAX_CLIENTS: usize = 64;

struct Options {
    listen: String,
    workers: usize,
    attach: Vec<String>,
    serve_bin: Option<String>,
    serve_args: Vec<String>,
    session_dir: Option<String>,
    max_connections: usize,
    pool: usize,
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
        max_connections: DEFAULT_MAX_CLIENTS,
        pool: DEFAULT_POOL,
        rebalance_threshold: 0,
        rebalance_interval: Duration::from_millis(1000),
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
            "--pool" => options.pool = positive("--pool")?,
            "--rebalance-threshold" => {
                options.rebalance_threshold = number("--rebalance-threshold")?;
            }
            "--rebalance-interval-ms" => {
                options.rebalance_interval =
                    Duration::from_millis(positive("--rebalance-interval-ms")? as u64);
            }
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
    /// Connection-pool size configured for this worker.
    pool: usize,
    /// Pool connections currently established.
    links: usize,
    stats: Option<EngineStats>,
}

// ---------------------------------------------------------------- workers

/// How to (re)create a spawned worker.
struct SpawnSpec {
    bin: String,
    args: Vec<String>,
}

/// What a reply to a forwarded line is for.
enum Pending {
    /// A client request: deliver under its original id; when this was
    /// a successful `SessionClose`, also forget the routing entry.
    Client {
        id: Value,
        sink: Arc<LineSink>,
        closes_session: Option<String>,
    },
    /// A router-internal call (stats, snapshot/restore during drain).
    Internal(Arc<ReplySlot>),
}

impl Pending {
    /// Answers the requester with `error` in place of a worker's reply.
    fn fail(self, error: &Error) {
        match self {
            Pending::Client { id, sink, .. } => {
                sink.send_line(&ResponseEnvelope::error(id, error).to_line());
            }
            Pending::Internal(slot) => slot.fill(ResponseEnvelope::error(Value::Null, error)),
        }
    }
}

/// Rendezvous for a synchronous internal call.
struct ReplySlot {
    reply: Mutex<Option<ResponseEnvelope>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            reply: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, envelope: ResponseEnvelope) {
        *self.reply.lock().expect("slot lock") = Some(envelope);
        self.ready.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<ResponseEnvelope> {
        let mut reply = self.reply.lock().expect("slot lock");
        let deadline = Instant::now() + timeout;
        while reply.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (next, timed_out) = self.ready.wait_timeout(reply, left).expect("slot wait");
            reply = next;
            if timed_out.timed_out() && reply.is_none() {
                return None;
            }
        }
        reply.take()
    }
}

/// The worker's process-level state: its current address, and (spawn
/// mode) the live child. Present once the worker has been brought up.
struct WorkerProc {
    addr: String,
    child: Option<Child>,
}

/// One pooled TCP connection to a worker. Requests round-robin over a
/// worker's links, and each link keeps its own in-flight map — a reply
/// always comes back on the connection its request went out on, so one
/// link dying fails exactly its own requests.
struct Link {
    /// Write half while connected (reads happen on the link's
    /// dedicated reader thread).
    stream: Mutex<Option<TcpStream>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Bumped per (re)connect so a stale reader thread can tell it no
    /// longer owns the link.
    generation: AtomicU64,
}

impl Link {
    fn new() -> Link {
        Link {
            stream: Mutex::new(None),
            pending: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
        }
    }
}

struct Worker {
    index: usize,
    spawn: Option<SpawnSpec>,
    /// Attach-mode address (fixed); spawn mode learns the address
    /// from the child's announcement line each (re)spawn.
    attach_addr: Option<String>,
    proc: Mutex<Option<WorkerProc>>,
    /// The connection pool (`--pool` entries).
    links: Vec<Link>,
    /// Round-robin cursor over `links`.
    next_link: AtomicU64,
    draining: AtomicBool,
}

// ----------------------------------------------------------------- router

struct Router {
    workers: Vec<Worker>,
    /// session id → worker index currently hosting it.
    sessions: Mutex<HashMap<String, usize>>,
    /// Sessions mid-rebalance: requests for them wait until the move
    /// completes, so a turn can never slip in between snapshot and
    /// restore (which would fork the session's history).
    moving: Mutex<HashSet<String>>,
    moved: Condvar,
    next_internal: AtomicU64,
    round_robin: AtomicU64,
    connect: ClientConfig,
}

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
    /// round-robin. Blocks while the addressed session is
    /// mid-rebalance.
    fn route(&self, request: &PatternRequest) -> Result<usize, Error> {
        let live = self.live_workers();
        if live.is_empty() {
            return Err(Error::internal("no live workers to route to"));
        }
        if let Some(sid) = request.session_id() {
            let mut moving = self.moving.lock().expect("moving lock");
            while moving.contains(sid) {
                moving = self.moved.wait(moving).expect("moving wait");
            }
            let mut sessions = self.sessions.lock().expect("session lock");
            if let Some(worker) = sessions.get(sid) {
                return Ok(*worker);
            }
            let worker = live[(route_hash(sid) % live.len() as u64) as usize];
            // Only requests that create the session pin it; a turn on
            // an unknown id is the worker's SessionNotFound to report.
            if matches!(
                request,
                PatternRequest::SessionOpen(_) | PatternRequest::SessionRestore(_)
            ) {
                sessions.insert(sid.to_owned(), worker);
            }
            return Ok(worker);
        }
        match chatpattern_core::routing::request_route(request) {
            Some(hash) => Ok(live[(hash % live.len() as u64) as usize]),
            None => {
                let next = self.round_robin.fetch_add(1, Ordering::Relaxed);
                Ok(live[(next % live.len() as u64) as usize])
            }
        }
    }
}

/// Ensures the worker *process* is alive (spawning or respawning as
/// needed) and returns its address. A spawned child that exited
/// invalidates every pool link even if the sockets have not reported
/// the death yet — their in-flight entries fail now instead of
/// lingering, and the generation bumps tell stale readers to stand
/// down.
fn ensure_worker_process(router: &Arc<Router>, index: usize) -> Result<String, String> {
    let worker = &router.workers[index];
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
        for link in &worker.links {
            let mut stream = link.stream.lock().expect("link lock");
            if stream.take().is_some() {
                link.generation.fetch_add(1, Ordering::Relaxed);
            }
            drop(stream);
            fail_pending(link, &format!("worker {index} exited"));
        }
    }
    let (addr, child) = match (&worker.spawn, &worker.attach_addr) {
        (Some(spec), _) => spawn_worker(spec, index)?,
        (None, Some(addr)) => (addr.clone(), None),
        (None, None) => unreachable!("a worker is spawned or attached"),
    };
    *proc = Some(WorkerProc {
        addr: addr.clone(),
        child,
    });
    Ok(addr)
}

/// Ensures one pool link of the worker has a live connection,
/// (re)spawning the process and (re)connecting with backoff as needed.
/// Returns the error message when the worker cannot be revived.
fn ensure_connected(router: &Arc<Router>, index: usize, slot: usize) -> Result<(), String> {
    let addr = ensure_worker_process(router, index)?;
    let worker = &router.workers[index];
    let link = &worker.links[slot];
    let mut stream = link.stream.lock().expect("link lock");
    if stream.is_some() {
        return Ok(());
    }
    let conn = connect_with_backoff(addr.as_str(), &router.connect)
        .map_err(|e| format!("worker {index}: cannot connect to {addr}: {e}"))?;
    let read_half = conn
        .try_clone()
        .map_err(|e| format!("worker {index}: clone failed: {e}"))?;
    let generation = link.generation.fetch_add(1, Ordering::Relaxed) + 1;
    *stream = Some(conn);
    drop(stream);

    let router = Arc::clone(router);
    std::thread::spawn(move || read_worker(&router, index, slot, generation, read_half));
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

/// The per-link reader: pumps response lines back to whoever is
/// waiting on them; on connection loss, fails the link's own pending
/// entries and releases the slot (the next forward reconnects it — or,
/// when the whole process died, respawns it).
fn read_worker(
    router: &Arc<Router>,
    index: usize,
    slot: usize,
    generation: u64,
    stream: TcpStream,
) {
    let link = &router.workers[index].links[slot];
    let mut reader = std::io::BufReader::new(stream).lines();
    while let Some(Ok(line)) = reader.next() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(envelope) = serde_json::from_str::<ResponseEnvelope>(&line) else {
            eprintln!("chatpattern-router: worker {index} sent an unparsable line");
            continue;
        };
        let Some(internal) = envelope.id.as_u64() else {
            continue;
        };
        let entry = link.pending.lock().expect("pending lock").remove(&internal);
        match entry {
            Some(Pending::Client {
                id,
                sink,
                closes_session,
            }) => {
                if let (Some(sid), WireOutcome::Ok(_)) = (&closes_session, &envelope.outcome) {
                    router.sessions.lock().expect("session lock").remove(sid);
                }
                let reply = ResponseEnvelope {
                    id,
                    outcome: envelope.outcome,
                };
                sink.send_line(&reply.to_line());
            }
            Some(Pending::Internal(slot)) => slot.fill(envelope),
            None => {}
        }
    }

    // Only the reader that still owns the slot tears it down (and
    // fails the in-flight entries): a reconnect bumps the generation,
    // and a stale reader must not touch entries registered for the
    // fresh connection. Both the check and the teardown happen under
    // the slot's stream lock, which `ensure_connected` also holds
    // while it bumps the generation. The worker process is *not*
    // killed here: a single pool socket dying says nothing about its
    // siblings, and real process death is detected by `try_wait` in
    // `ensure_worker_process` on the next forward.
    {
        let mut stream = link.stream.lock().expect("link lock");
        if link.generation.load(Ordering::Relaxed) != generation {
            return;
        }
        *stream = None;
        fail_pending(link, &format!("worker {index} connection lost"));
    }
}

/// Fails every in-flight entry of a pool link whose connection is
/// gone. Callers must own the teardown (hold the slot's stream lock as
/// the current generation's reader, or as `ensure_worker_process`
/// discovering a dead child).
fn fail_pending(link: &Link, reason: &str) {
    let orphans: Vec<Pending> = {
        let mut pending = link.pending.lock().expect("pending lock");
        pending.drain().map(|(_, entry)| entry).collect()
    };
    if orphans.is_empty() {
        return;
    }
    eprintln!(
        "chatpattern-router: {reason}, failing {} in-flight request(s)",
        orphans.len()
    );
    let error = Error::internal(reason.to_owned());
    for entry in orphans {
        entry.fail(&error);
    }
}

/// Forwards one request line to a worker over the next pool link
/// (round-robin), reviving process and connection first when they are
/// down. Registration happens before the send — on the same link the
/// send uses — so the reader can never race the reply past us.
fn forward(
    router: &Arc<Router>,
    index: usize,
    tenant: Option<&str>,
    request: &PatternRequest,
    entry: Pending,
) {
    let internal = router.next_internal.fetch_add(1, Ordering::Relaxed);
    let mut framed = serde_json::to_string(&RequestEnvelope {
        id: serde_json::to_value(&internal),
        tenant: tenant.map(str::to_owned),
        request: request.clone(),
    })
    .expect("requests serialize");
    if framed.len() > DEFAULT_MAX_LINE_BYTES {
        // The worker would refuse this line under a `null` id, which
        // matches no pending entry: the requester would never hear.
        // Refuse it here, under the id the requester is waiting on.
        entry.fail(&Error::config(format!(
            "request line exceeds {DEFAULT_MAX_LINE_BYTES} bytes as framed for worker {index} \
             ({} bytes)",
            framed.len()
        )));
        return;
    }
    framed.push('\n');
    let worker = &router.workers[index];

    let mut entry = Some(entry);
    for _attempt in 0..2 {
        // Each attempt advances the cursor, so a retry lands on a
        // different pool slot when there is more than one.
        let slot =
            (worker.next_link.fetch_add(1, Ordering::Relaxed) % worker.links.len() as u64) as usize;
        if let Err(message) = ensure_connected(router, index, slot) {
            eprintln!("chatpattern-router: {message}");
            continue;
        }
        let link = &worker.links[slot];
        link.pending
            .lock()
            .expect("pending lock")
            .insert(internal, entry.take().expect("entry available"));
        let sent = {
            let mut stream = link.stream.lock().expect("link lock");
            match stream.as_mut() {
                Some(live) => {
                    use std::io::Write;
                    live.write_all(framed.as_bytes()).is_ok()
                }
                None => false,
            }
        };
        if sent {
            return;
        }
        // Reclaim the entry (when the reader has not already failed
        // it) and retry on a fresh connection.
        match link.pending.lock().expect("pending lock").remove(&internal) {
            Some(reclaimed) => entry = Some(reclaimed),
            None => return,
        }
    }

    entry
        .take()
        .expect("entry still ours")
        .fail(&Error::internal(format!("worker {index} unavailable")));
}

/// A synchronous router-internal request to one worker. Internal
/// calls run as the default tenant: fleet plumbing (stats polls,
/// rebalancing snapshots) must never be throttled by a client quota.
fn call_worker(
    router: &Arc<Router>,
    index: usize,
    request: &PatternRequest,
) -> Result<ResponseEnvelope, String> {
    let slot = ReplySlot::new();
    forward(
        router,
        index,
        None,
        request,
        Pending::Internal(Arc::clone(&slot)),
    );
    slot.wait(INTERNAL_CALL_TIMEOUT)
        .ok_or_else(|| format!("worker {index}: internal call timed out"))
}

/// One worker's `Stats`, or `None` when it cannot be had right now.
fn worker_stats(router: &Arc<Router>, index: usize) -> Option<EngineStats> {
    let reply = call_worker(router, index, &PatternRequest::Stats).ok()?;
    match reply.outcome {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::Stats(stats) => Some(stats),
            _ => None,
        },
        WireOutcome::Err(_) => None,
    }
}

// ------------------------------------------------------------- rebalancing

/// Moves one session from `source` to `target`: snapshot → restore →
/// re-route → close the source copy. Callers choose the target (drain
/// hashes over the remaining live workers; the auto-rebalancer picks
/// the least-loaded one).
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
    let snapshot = match snapshot.outcome {
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
    if let WireOutcome::Err(error) = restored.outcome {
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

/// Drains a worker: mark it out of the routing domain, then move each
/// of its sessions. Requests addressed to a mid-move session wait on
/// the `moving` set instead of racing the handoff.
fn drain_worker(router: &Arc<Router>, index: usize) -> Result<usize, String> {
    if index >= router.workers.len() {
        return Err(format!("no worker {index}"));
    }
    router.workers[index]
        .draining
        .store(true, Ordering::Relaxed);
    if router.live_workers().is_empty() {
        router.workers[index]
            .draining
            .store(false, Ordering::Relaxed);
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
    {
        // Claim each session for this drain; one already in the moving
        // set is being handled by a concurrent mover (the
        // auto-rebalancer) and is left to it.
        let mut moving = router.moving.lock().expect("moving lock");
        resident.retain(|sid| moving.insert(sid.clone()));
    }
    let mut moved = 0;
    let mut first_error = None;
    for sid in &resident {
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
        let mut moving = router.moving.lock().expect("moving lock");
        moving.remove(sid);
        drop(moving);
        router.moved.notify_all();
    }
    match first_error {
        None => Ok(moved),
        Some(message) => Err(message),
    }
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
                let stats = worker_stats(router, index);
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
                .find(|(sid, w)| **w == busiest && !moving.contains(*sid))
                .map(|(sid, _)| sid.clone());
            match candidate {
                Some(sid) => {
                    moving.insert(sid.clone());
                    sid
                }
                None => return moved,
            }
        };
        let outcome = move_session(router, &sid, busiest, calmest);
        router.moving.lock().expect("moving lock").remove(&sid);
        router.moved.notify_all();
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

struct RouterHandler {
    router: Arc<Router>,
}

impl RouterHandler {
    /// Fan-out `Stats` and merge: the fleet view, answered by the
    /// router itself under normal wire framing.
    fn fleet_stats(&self) -> (EngineStats, Vec<Option<EngineStats>>) {
        let mut merged = EngineStats::default();
        let mut per_worker = Vec::with_capacity(self.router.workers.len());
        for worker in &self.router.workers {
            let stats = worker_stats(&self.router, worker.index);
            if let Some(stats) = &stats {
                merged.merge(stats);
            }
            per_worker.push(stats);
        }
        (merged, per_worker)
    }

    fn handle_control(&self, envelope: ControlEnvelope, sink: &Arc<LineSink>) {
        let outcome = match envelope.control {
            RouterControl::Fleet => {
                let (fleet, per_worker) = self.fleet_stats();
                let sessions = self.router.sessions.lock().expect("session lock");
                let workers = self
                    .router
                    .workers
                    .iter()
                    .zip(per_worker)
                    .map(|(worker, stats)| {
                        let proc = worker.proc.lock().expect("proc lock");
                        WorkerView {
                            index: worker.index,
                            addr: proc.as_ref().map(|p| p.addr.clone()),
                            pid: proc.as_ref().and_then(|p| p.child.as_ref().map(Child::id)),
                            draining: worker.draining.load(Ordering::Relaxed),
                            sessions: sessions.values().filter(|w| **w == worker.index).count(),
                            pool: worker.links.len(),
                            links: worker
                                .links
                                .iter()
                                .filter(|l| l.stream.lock().expect("link lock").is_some())
                                .count(),
                            stats,
                        }
                    })
                    .collect();
                ControlOutcome::Fleet(Box::new(FleetView { workers, fleet }))
            }
            RouterControl::Drain { worker } => match drain_worker(&self.router, worker) {
                Ok(moved) => ControlOutcome::Drained { worker, moved },
                Err(message) => ControlOutcome::Error { message },
            },
            RouterControl::Shutdown => ControlOutcome::ShuttingDown,
        };
        let shutting_down = matches!(outcome, ControlOutcome::ShuttingDown);
        let reply = ControlReply {
            id: envelope.id,
            control: outcome,
        };
        sink.send_line(&serde_json::to_string(&reply).expect("control replies serialize"));
        if shutting_down {
            for worker in &self.router.workers {
                if let Some(mut proc) = worker.proc.lock().expect("proc lock").take() {
                    if let Some(child) = proc.child.as_mut() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
            }
            eprintln!("chatpattern-router: shutting down");
            std::process::exit(0);
        }
    }

    /// One client line. Blocks by design — a request for a session that
    /// is mid-move waits for the move, `Stats` / `Fleet` / `Drain` are
    /// synchronous fan-ins, a forward may respawn a worker — which is
    /// why each client has a reader thread of its own (`serve_clients`)
    /// instead of sharing `cp_net`'s event loop.
    fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
        match decode_request_line(line) {
            Ok(envelope) => {
                if matches!(envelope.request, PatternRequest::Stats) {
                    let started = Instant::now();
                    let (fleet, _) = self.fleet_stats();
                    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let reply = ResponseEnvelope::ok(
                        envelope.id,
                        PatternResponse {
                            payload: ResponsePayload::Stats(fleet),
                            timing: Timing::direct(micros),
                        },
                    );
                    sink.send_line(&reply.to_line());
                    return;
                }
                let closes_session = match &envelope.request {
                    PatternRequest::SessionClose(params) => Some(params.session.clone()),
                    _ => None,
                };
                match self.router.route(&envelope.request) {
                    Ok(worker) => forward(
                        &self.router,
                        worker,
                        envelope.tenant.as_deref(),
                        &envelope.request,
                        Pending::Client {
                            id: envelope.id,
                            sink: Arc::clone(sink),
                            closes_session,
                        },
                    ),
                    Err(error) => {
                        sink.send_line(&ResponseEnvelope::error(envelope.id, &error).to_line());
                    }
                }
            }
            // Only a line that is no request is read again, as a
            // control line (which has no `request` and so never
            // decodes as one).
            Err((id, error)) => match serde_json::from_str::<ControlEnvelope>(line) {
                Ok(control) => self.handle_control(control, sink),
                Err(_) => {
                    sink.send_line(&ResponseEnvelope::error(id, &error).to_line());
                }
            },
        }
    }
}

/// The client front end: accepts on this thread, one reader thread per
/// client, and a counting gate that stops serving beyond
/// `max_connections` (the excess waits, accepted, until a slot frees).
/// Never returns; the `Shutdown` control exits the process.
fn serve_clients(listener: &TcpListener, max_connections: usize, handler: &Arc<RouterHandler>) {
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        {
            let (count, freed) = &*gate;
            let mut active = count.lock().expect("gate lock");
            while *active >= max_connections {
                active = freed.wait(active).expect("gate wait");
            }
            *active += 1;
        }
        let handler = Arc::clone(handler);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            serve_client(stream, &handler);
            let (count, freed) = &*gate;
            *count.lock().expect("gate lock") -= 1;
            freed.notify_one();
        });
    }
}

/// Reads one client's lines until EOF or a failed write, through the
/// same bounded framer as `cp_net`'s event loop: a line over the cap is
/// discarded as it streams in and answered under `id: null`, and the
/// connection carries on at the next newline. The sink
/// outlives the reader in the pending entries of `read_worker`
/// threads, so a client that half-closed its write side keeps
/// receiving answers until the last of them is delivered.
fn serve_client(mut stream: TcpStream, handler: &RouterHandler) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Replies are small writes to a peer that may only be reading (a
    // pipelined batch): with Nagle on, the second one waits out the
    // peer's delayed ACK (~40 ms) — `cp_net`'s loop turns it off too.
    let _ = stream.set_nodelay(true);
    let sink = Arc::new(LineSink::new(Box::new(write_half)));
    let mut framer = LineFramer::new(DEFAULT_MAX_LINE_BYTES);
    let mut scratch = [0u8; 16 * 1024];
    let mut products = Vec::new();
    loop {
        let read = match stream.read(&mut scratch) {
            Ok(read) => read,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // At EOF a last line still counts without its newline.
        let chunk: &[u8] = if read == 0 { b"\n" } else { &scratch[..read] };
        framer.push(chunk, &mut products);
        for product in products.drain(..) {
            match product {
                Framed::Line(line) => {
                    if !line.trim().is_empty() {
                        handler.on_line(&line, &sink);
                    }
                }
                Framed::Oversize { bytes } => {
                    let error = Error::config(format!(
                        "request line exceeds {DEFAULT_MAX_LINE_BYTES} bytes \
                         ({bytes} bytes discarded)"
                    ));
                    sink.send_line(&ResponseEnvelope::error(Value::Null, &error).to_line());
                }
            }
            if sink.is_closed() || sink.has_failed() {
                return;
            }
        }
        if read == 0 {
            return;
        }
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
        links: (0..options.pool).map(|_| Link::new()).collect(),
        next_link: AtomicU64::new(0),
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
        moving: Mutex::new(HashSet::new()),
        moved: Condvar::new(),
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
        if let Err(message) = ensure_connected(&router, index, 0) {
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

    let listener = match TcpListener::bind(options.listen.as_str()) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!(
                "chatpattern-router: cannot listen on {}: {error}",
                options.listen
            );
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("chatpattern-router: listening on {addr}"),
        Err(error) => {
            eprintln!("chatpattern-router: cannot read the bound address: {error}");
            return ExitCode::FAILURE;
        }
    }
    serve_clients(
        &listener,
        options.max_connections,
        &Arc::new(RouterHandler { router }),
    );
    ExitCode::SUCCESS
}
