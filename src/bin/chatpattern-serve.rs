//! `chatpattern-serve` — the JSON-lines wire front-end.
//!
//! Listens on `--listen ADDR` (`cp_net`'s event loop); every TCP
//! connection is its own request stream over one shared engine. Reads
//! one [`RequestEnvelope`](chatpattern_core::RequestEnvelope) per
//! line, executes it on a [`PatternEngine`], and writes one
//! [`ResponseEnvelope`](chatpattern_core::ResponseEnvelope) per line,
//! echoing the client-chosen `id`. The engine worker that finishes a
//! job hands over its reply, so responses go out the moment the job
//! finishes — an interactive client can hold its connection open and
//! still receive every reply immediately — and may arrive out of
//! submission order; the `id` is the correlation key. A client that
//! half-closes still gets every reply it is owed, and one that stops
//! reading is disconnected, not buffered for without bound. The
//! format is documented with worked examples in
//! `docs/WIRE_PROTOCOL.md`. `--help` lists the flags. `--workers`
//! threads drain one bounded queue (see `docs/ENGINE.md`; the router
//! is what spreads load over more); duplicate in-flight requests
//! coalesce onto one execution. Stateful multi-turn sessions (`SessionOpen`
//! / `SessionTurn` / `SessionClose`, see `docs/SESSIONS.md`) are
//! bounded by `--max-sessions` and `--session-ttl-secs`; with
//! `--session-dir`, capacity eviction and TTL expiry *spill* sessions
//! to disk, and the `SessionSnapshot` / `SessionRestore` request kinds
//! export a live session from one serve process and import it into another
//! (what the `chatpattern-router` uses to rebalance a fleet). The
//! `Stats` request kind answers the engine's
//! [`EngineStats`](chatpattern_core::EngineStats) counters over the
//! wire mid-stream; it is the one way counters leave the process.
//! Malformed lines produce an error envelope immediately (with the
//! line's `id` when one is recoverable, `null` otherwise) and never
//! abort the stream.

use chatpattern_core::qos::QosConfig;
use chatpattern_core::{ChatPattern, ChatPatternBuilder, EngineConfig, PatternEngine};
use cp_net::{EngineHandler, EventLoopConfig, EventLoopServer};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Everything the command line can configure. The model and session
/// flags go straight to the builder, which holds their defaults.
struct Options {
    engine: EngineConfig,
    qos: QosConfig,
    system: ChatPatternBuilder,
    listen: String,
    max_connections: usize,
}

const USAGE: &str = "\
chatpattern-serve: JSON-lines PatternRequest server over TCP

Each input line: {\"id\": <scalar>, \"request\": <PatternRequest>}
Each output line: {\"id\": <same>, \"outcome\": {\"Ok\": ...} | {\"Err\": ...}}
(see docs/WIRE_PROTOCOL.md). Engine counters are read in-band: send
{\"id\": <scalar>, \"request\": \"Stats\"}

Options:
  --listen ADDR          address to accept clients on (required; use
                         port 0 for an OS-assigned port; the bound
                         address is announced on stderr as 'listening
                         on HOST:PORT'); every
                         connection is an independent NDJSON stream
                         over one shared engine, multiplexed on one
                         readiness-driven loop thread. A client that
                         half-closes is answered in full before the
                         close; one that falls 8 MiB of unread replies
                         behind is disconnected; a request line over
                         8 MiB is refused with an error envelope
  --max-connections N    concurrently served TCP connections, at least
                         1 (default 4096); excess connects wait in the
                         OS backlog
  --workers N            engine worker threads (default: CPU count)
  --queue-depth N        bounded submission queue (default 256)
  --cache-capacity N     LRU result-cache entries, 0 disables (default 128)
  --tenant-quota SPEC    per-tenant admission limits; SPEC is
                         comma-separated name=value with names
                         inflight, tps, burst (0/omitted = unlimited),
                         e.g. inflight=4,tps=2.
                         Prefix TENANT: to limit one tenant, bare SPEC
                         sets the default quota; repeatable. Over-quota
                         requests answer an Overloaded error envelope
                         with retry_after_ms instead of queuing
  --max-sessions N       open chat sessions held at once; opening more
                         evicts the least-recently-used (default 64)
  --session-ttl-secs N   idle seconds before a session expires, at least
                         1 (default 900; also bounds spilled sessions in
                         --session-dir)
  --session-dir PATH     spill evicted and expired sessions to one JSON
                         file per session under PATH instead of
                         destroying them (a failed write keeps the
                         session live); a turn on a spilled id
                         rehydrates it transparently, and spilled
                         sessions survive a serve restart over the same
                         PATH (default: off — eviction and expiry
                         destroy). Cross-process handoff without a
                         shared directory uses the SessionSnapshot /
                         SessionRestore request kinds (docs/SESSIONS.md)
  --spill-ahead-turns N  with --session-dir: snapshot a warm session to
                         disk after every N completed turns, at least
                         1, so a crash loses at most the in-flight turn
                         (default: off)
  --persist-shards N     fan the --session-dir store out over N
                         shard-{i} subdirectories, so no one directory
                         listing holds every file; spilled sessions
                         rehydrate lazily on first touch, so restarting
                         over a huge directory does not stall startup
                         (default 1 = flat layout; flat files from
                         earlier runs are still found and migrated on
                         touch). A directory
                         keeps the shard count it was created with:
                         serve refuses to start over shard-{i}
                         subdirectories made with another N
  --window N             model window L (default 64)
  --diffusion-steps N    diffusion chain length K (default 12)
  --training-patterns N  training patterns per style (default 64)
  --seed N               master seed (default 0)
  --help                 this text";

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        engine: EngineConfig::default(),
        qos: QosConfig::default(),
        system: ChatPattern::builder(),
        listen: String::new(),
        max_connections: cp_net::DEFAULT_EVENT_LOOP_CONNECTIONS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        // Every flag takes a value; an unknown one is refused by its
        // name even when nothing follows it.
        let value = args.next();
        let text = || value.clone().ok_or_else(|| format!("{flag} needs a value"));
        let number = |name: &str| {
            let value = text()?;
            value
                .parse::<usize>()
                .map_err(|_| format!("{name} needs an unsigned integer, got {value:?}"))
        };
        let positive = |name: &str| match number(name)? {
            0 => Err(format!("{name} needs at least 1, got {:?}", text()?)),
            n => Ok(n),
        };
        match flag.as_str() {
            "--workers" => options.engine.workers = positive("--workers")?,
            "--queue-depth" => options.engine.queue_depth = positive("--queue-depth")?,
            "--cache-capacity" => options.engine.cache_capacity = number("--cache-capacity")?,
            "--tenant-quota" => {
                options
                    .qos
                    .apply_quota_flag(&text()?)
                    .map_err(|e| format!("--tenant-quota: {e}"))?;
            }
            "--max-sessions" => {
                options.system = options.system.max_sessions(positive("--max-sessions")?);
            }
            "--session-ttl-secs" => {
                let ttl = Duration::from_secs(positive("--session-ttl-secs")? as u64);
                options.system = options.system.session_ttl(ttl);
            }
            "--session-dir" => options.system = options.system.session_dir(text()?),
            "--spill-ahead-turns" => {
                let turns = positive("--spill-ahead-turns")? as u64;
                options.system = options.system.spill_ahead_turns(turns);
            }
            "--persist-shards" => {
                options.system = options.system.persist_shards(positive("--persist-shards")?);
            }
            "--window" => options.system = options.system.window(number("--window")?),
            "--diffusion-steps" => {
                let steps = positive("--diffusion-steps")?;
                options.system = options.system.diffusion_steps(steps);
            }
            "--training-patterns" => {
                let count = positive("--training-patterns")?;
                options.system = options.system.training_patterns(count);
            }
            "--seed" => options.system = options.system.seed(number("--seed")? as u64),
            "--listen" => options.listen = text()?,
            "--max-connections" => options.max_connections = positive("--max-connections")?,
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if options.listen.is_empty() {
        return Err("--listen ADDR is required".to_owned());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("chatpattern-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    let system = match options.system.build() {
        Ok(system) => system,
        Err(error) => {
            eprintln!("chatpattern-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match PatternEngine::with_qos(system, options.engine, options.qos.clone()) {
        Ok(engine) => Arc::new(engine),
        Err(error) => {
            eprintln!("chatpattern-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    let counters = engine.conn_counters();
    let handler = Arc::new(EngineHandler::new(engine));
    // Thousands of sockets need fd headroom beyond the usual shell
    // default of 1024.
    cp_net::raise_nofile_limit();
    let config = EventLoopConfig {
        max_connections: options.max_connections,
        ..EventLoopConfig::default()
    };
    let server = match EventLoopServer::bind(options.listen.as_str(), config) {
        Ok(server) => server.conn_counters(counters),
        Err(error) => {
            eprintln!(
                "chatpattern-serve: cannot listen on {}: {error}",
                options.listen
            );
            return ExitCode::FAILURE;
        }
    };
    // The announcement line is part of the CLI contract: the router and
    // the smoke scripts parse it to learn the OS-assigned port under
    // `--listen 127.0.0.1:0`.
    eprintln!("chatpattern-serve: listening on {}", server.local_addr());
    match server.spawn(handler) {
        Ok(handle) => handle.join(),
        Err(error) => {
            eprintln!("chatpattern-serve: cannot start event loop: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
