//! Engine scaling: serial `execute_many` vs. every execution backend
//! (inline, one queue at several worker counts, several shards) on a
//! 32-request Generate batch, plus a duplicate-request burst measuring
//! the in-flight coalescing hit rate, a `session_turns` sweep (N
//! concurrent chat sessions × M turns each, one queue vs.
//! session-affine shards), and a `session_spill_rehydrate` sweep (N
//! sessions over a smaller store capacity with an in-memory
//! durability layer, so every turn pays a spill + rehydrate — the
//! steady-state cost of durable over-capacity operation), a
//! `session_durability` sweep (the spill-ahead writer firing on every
//! turn over a sharded on-disk store — the per-turn durable-write tax
//! — followed by a restart over the same directory with one lazy
//! rehydrate turn per session), a
//! `tcp_round_trip` sweep (the same Generate batch through an
//! in-process `cp_net` NDJSON-over-TCP loopback server, pipelined and
//! strictly sequential — the transport tax relative to the in-process
//! backends above), a `router_fanout` sweep (the batch through a
//! real spawned `chatpattern-router` fleet at several worker counts;
//! skipped with a note when the release binaries are not built), a
//! `connection_scaling` sweep (C idle + K active connections against
//! an in-process loopback serve, up to 1024 connections, with
//! active-request p50/p99 and a sustained-idle-connection proof;
//! shape it with `CP_CONN_IDLE` / `CP_CONN_ACTIVE` / `CP_CONN_CALLS`),
//! and a
//! `hot_loops` sweep (`Layout::union_area`,
//! `SquishPattern::from_layout` and the legalizer solve in isolation
//! on a dense synthetic layout, plus one 128×128 denoise step and one
//! 128×128 sample of the diffusion model, and the decode / cache-key /
//! encode passes of one ≈ 33 kB wire line — the surgically-tuned loops).
//! Prints a table and writes `BENCH_ENGINE.json` (in the working
//! directory) so the perf trajectory captures the backend dimension,
//! coalescing, the stateful session workloads and the network path.
//!
//! Scale with the usual `CP_*` variables; `CP_ENGINE_WORKERS` is a
//! comma-separated list of worker counts to sweep over one queue
//! (default `2,4,8`) and `CP_ENGINE_SHARDS` the shard counts to sweep
//! at the largest of them (default `2,4`). `CP_ENGINE_SESSIONS` /
//! `CP_ENGINE_TURNS` shape the session sweep (default `4` × `4`);
//! `CP_ROUTER_WORKERS` the router fleet sizes (default `1,2`).
//!
//! With `--check` the binary becomes a regression gate: it runs the
//! same sweeps but, instead of overwriting `BENCH_ENGINE.json`,
//! compares every `*millis` metric against the committed baseline
//! (`--baseline PATH`, default `BENCH_ENGINE.json`) and exits
//! non-zero when any is slower than `--threshold` times its baseline
//! (default `1.5`). The run also fails when the baseline lacks a
//! metric this bench emits (a stale baseline leaves new series
//! unguarded). When the baseline was recorded at a different config
//! (window / steps / train / CPU count) the comparison is advisory:
//! ratios and staleness are printed but never fail the run.

use chatpattern_core::{
    BackendKind, ChatPattern, EngineConfig, GenerateParams, JobHandle, PatternEngine,
    PatternRequest, PatternService, SessionCloseParams, SessionOpenParams, SessionTurnParams,
};
use cp_bench::BenchConfig;
use cp_dataset::Style;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 32;
/// Distinct requests inside the coalescing burst: 32 submits spread
/// over 4 unique keys → up to 28 coalesced attachments.
const UNIQUE: u64 = 4;

fn batch(cfg: &BenchConfig) -> Vec<PatternRequest> {
    (0..BATCH as u64)
        .map(|seed| {
            PatternRequest::Generate(GenerateParams {
                style: if seed.is_multiple_of(2) {
                    Style::Layer10001
                } else {
                    Style::Layer10003
                },
                rows: cfg.window,
                cols: cfg.window,
                count: 1,
                seed,
            })
        })
        .collect()
}

fn run_serial(system: &ChatPattern, cfg: &BenchConfig) -> f64 {
    let started = Instant::now();
    let results = system.execute_many(batch(cfg));
    assert!(results.iter().all(Result::is_ok), "serial batch failed");
    started.elapsed().as_secs_f64() * 1e3
}

/// The default backend: one queue feeding every worker.
const ONE_QUEUE: BackendKind = BackendKind::Sharded { shards: 1 };

fn engine(
    system: &Arc<ChatPattern>,
    backend: BackendKind,
    workers: usize,
) -> PatternEngine<Arc<ChatPattern>> {
    PatternEngine::with_config(
        Arc::clone(system),
        EngineConfig {
            backend,
            workers,
            queue_depth: BATCH,
            // Disabled: scaling numbers must measure sampling, not
            // cache replay (in-flight coalescing stays active but the
            // batch has distinct seeds, so it never triggers here).
            cache_capacity: 0,
        },
    )
    .expect("valid engine config")
}

fn run_backend(
    system: &Arc<ChatPattern>,
    cfg: &BenchConfig,
    backend: BackendKind,
    workers: usize,
) -> f64 {
    let engine = engine(system, backend, workers);
    let started = Instant::now();
    let results = engine.execute_many(batch(cfg));
    assert!(results.iter().all(Result::is_ok), "pooled batch failed");
    started.elapsed().as_secs_f64() * 1e3
}

/// Submits `BATCH` requests cycling through `UNIQUE` distinct seeds,
/// all in flight at once, and reports `(millis, coalesced)`.
fn run_coalescing(system: &Arc<ChatPattern>, cfg: &BenchConfig, workers: usize) -> (f64, u64) {
    let engine = engine(system, ONE_QUEUE, workers);
    let started = Instant::now();
    let handles: Vec<JobHandle> = (0..BATCH as u64)
        .map(|i| {
            engine.submit_blocking(PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: cfg.window,
                cols: cfg.window,
                count: 1,
                seed: i % UNIQUE,
            }))
        })
        .collect();
    for handle in handles {
        handle.wait().expect("burst request completes");
    }
    let millis = started.elapsed().as_secs_f64() * 1e3;
    (millis, engine.stats().coalesced)
}

/// Timings of [`run_hot_loops`], each over its `reps` repetitions.
struct HotLoops {
    union_ms: f64,
    encode_ms: f64,
    legalize_ms: f64,
    /// Scan-grid size the three layout loops ran over.
    grid: (usize, usize),
    denoise_step_ms: f64,
    sample_128_ms: f64,
    /// The three codec passes a wire request pays, each over
    /// [`WIRE_REPS`] repetitions, and the size of the request line.
    wire_decode_ms: f64,
    wire_encode_ms: f64,
    request_key_ms: f64,
    wire_line_bytes: usize,
}

/// Side of the window the two diffusion rows run at: the paper's,
/// whatever `CP_WINDOW` the rest of the bench uses (the denoiser is
/// size-agnostic).
const HOT_WINDOW: usize = 128;

/// Repetitions of the three wire-codec rows (each pass is tens of
/// microseconds, so they take more than the other rows' `reps`).
const WIRE_REPS: usize = 100;

/// The surgically-optimised inner loops, isolated from the engine:
/// `Layout::union_area` (row-band sweep over one reused coverage
/// mask), `SquishPattern::from_layout` (per-rect block fill) and the
/// legalizer solve (flat bound collection plus buffer-reusing area
/// repair), all on one dense synthetic layout; then `denoise_step`
/// (one table-driven `predict_x0` of a 128×128 window at the middle
/// step `k = K/2`) and `sample_128` (the whole K-step reverse chain of
/// one 128×128 window, draws included) on the system's own model; and
/// the codec passes of one wire request, on the ≈ 33 kB line that asks
/// to legalize that sample: `wire_decode_33k` (`decode_request_line`),
/// `request_key_33k` (the engine's cache key) and `wire_encode_33k`
/// (`ResponseEnvelope::to_line` of the legalized reply).
fn run_hot_loops(system: &ChatPattern, cfg: &BenchConfig, rects: usize, reps: usize) -> HotLoops {
    use chatpattern_core::routing::request_key;
    use chatpattern_core::wire::{decode_request_line, RequestEnvelope, ResponseEnvelope};
    use chatpattern_core::LegalizeParams;
    use cp_diffusion::Denoiser;
    use cp_drc::DesignRules;
    use cp_geom::{Layout, Rect};
    use cp_legalize::Legalizer;
    use cp_squish::SquishPattern;
    use rand::{Rng, SeedableRng};

    let frame = 4096i64;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut layout = Layout::new(Rect::new(0, 0, frame, frame));
    for _ in 0..rects {
        let x0 = rng.gen_range(0..frame - 256);
        let y0 = rng.gen_range(0..frame - 256);
        let w = rng.gen_range(16..256);
        let h = rng.gen_range(16..256);
        layout.push(Rect::new(x0, y0, x0 + w, y0 + h));
    }

    let started = Instant::now();
    let mut area = 0;
    for _ in 0..reps {
        area = std::hint::black_box(&layout).union_area();
    }
    let union_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(area > 0, "synthetic layout draws something");

    let started = Instant::now();
    let mut pattern = SquishPattern::from_layout(&layout);
    for _ in 1..reps {
        pattern = SquishPattern::from_layout(std::hint::black_box(&layout));
    }
    let encode_ms = started.elapsed().as_secs_f64() * 1e3;

    let topology = pattern.topology().clone();
    let (rows, cols) = topology.shape();
    // 64 nm per interval against 20 nm rule minimums: the solve always
    // succeeds, so the timing measures the solver, not failure paths.
    let legal_w = 64 * (cols as i64 + 1);
    let legal_h = 64 * (rows as i64 + 1);
    let legalizer = Legalizer::new(DesignRules::new(20, 20, 400));
    let started = Instant::now();
    for i in 0..reps {
        let mut legalize_rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed + i as u64);
        let legalized = legalizer
            .legalize(&topology, legal_w, legal_h, &mut legalize_rng)
            .expect("synthetic topology legalizes in a generous frame");
        std::hint::black_box(legalized);
    }
    let legalize_ms = started.elapsed().as_secs_f64() * 1e3;

    let model = system.model();
    let style = Some(Style::Layer10001.id());
    let mut sample_rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let started = Instant::now();
    let mut sample = model.sample(HOT_WINDOW, HOT_WINDOW, style, &mut sample_rng);
    for _ in 1..reps {
        sample = model.sample(HOT_WINDOW, HOT_WINDOW, style, &mut sample_rng);
    }
    let sample_128_ms = started.elapsed().as_secs_f64() * 1e3;

    let steps = model.schedule().len();
    let k = (steps / 2).max(1);
    let noisy = model.forward_noised(&sample, k, &mut sample_rng);
    let started = Instant::now();
    for _ in 0..reps {
        let prediction = model
            .denoiser()
            .predict_x0(std::hint::black_box(&noisy), k, steps, style);
        std::hint::black_box(prediction);
    }
    let denoise_step_ms = started.elapsed().as_secs_f64() * 1e3;

    let frame_nm = 64 * (HOT_WINDOW as i64 + 1);
    let line = serde_json::to_string(&RequestEnvelope {
        id: serde_json::to_value(&1u64),
        tenant: None,
        request: PatternRequest::Legalize(LegalizeParams {
            topology: sample,
            width_nm: frame_nm,
            height_nm: frame_nm,
            seed: cfg.seed,
        }),
    })
    .expect("requests serialize");
    let started = Instant::now();
    let mut envelope = decode_request_line(&line).expect("own line decodes");
    for _ in 1..WIRE_REPS {
        envelope = decode_request_line(std::hint::black_box(&line)).expect("own line decodes");
    }
    let wire_decode_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    for _ in 0..WIRE_REPS {
        std::hint::black_box(request_key(std::hint::black_box(&envelope.request)));
    }
    let request_key_ms = started.elapsed().as_secs_f64() * 1e3;
    let response = system
        .execute(envelope.request)
        .expect("the model's own sample legalizes in a generous frame");
    let reply = ResponseEnvelope::ok(envelope.id, response);
    let started = Instant::now();
    for _ in 0..WIRE_REPS {
        std::hint::black_box(std::hint::black_box(&reply).to_line());
    }
    let wire_encode_ms = started.elapsed().as_secs_f64() * 1e3;

    HotLoops {
        union_ms,
        encode_ms,
        legalize_ms,
        grid: (rows, cols),
        denoise_step_ms,
        sample_128_ms,
        wire_decode_ms,
        wire_encode_ms,
        request_key_ms,
        wire_line_bytes: line.len(),
    }
}

/// N concurrent sessions × M turns each through one engine: opens the
/// sessions, submits every turn (turns on one session serialize on its
/// session lock; distinct sessions run in parallel — shard-local when
/// sharded), waits for all, closes. Returns elapsed milliseconds.
fn run_session_turns(
    system: &Arc<ChatPattern>,
    cfg: &BenchConfig,
    backend: BackendKind,
    workers: usize,
    sessions: usize,
    turns: usize,
) -> f64 {
    let engine = engine(system, backend, workers);
    let utterance = format!(
        "Generate 1 pattern, topology size {w}*{w}, physical size {f}nm x {f}nm, \
         style Layer-10001.",
        w = cfg.window,
        f = cfg.frame_nm(cfg.window),
    );
    // The turn counter lives in the shared system, so measure a delta
    // (this sweep runs once per backend on one system).
    let turns_before = system.session_stats().turns;
    let started = Instant::now();
    for s in 0..sessions {
        engine
            .execute(PatternRequest::SessionOpen(SessionOpenParams {
                session: format!("bench-{s}"),
                seed: Some(s as u64),
            }))
            .expect("session opens");
    }
    let handles: Vec<JobHandle> = (0..turns)
        .flat_map(|_| 0..sessions)
        .map(|s| {
            engine.submit_blocking(PatternRequest::SessionTurn(SessionTurnParams {
                session: format!("bench-{s}"),
                utterance: utterance.clone(),
            }))
        })
        .collect();
    for handle in handles {
        handle.wait().expect("turn completes");
    }
    for s in 0..sessions {
        engine
            .execute(PatternRequest::SessionClose(SessionCloseParams {
                session: format!("bench-{s}"),
            }))
            .expect("session closes");
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.turns - turns_before) as usize,
        sessions * turns,
        "every submitted turn executed"
    );
    assert_eq!(stats.coalesced, 0, "session turns never coalesce");
    assert_eq!(stats.cache_hits, 0, "session turns never hit the cache");
    started.elapsed().as_secs_f64() * 1e3
}

/// N sessions over a capacity-limited durable store, M rounds of
/// round-robin turns: with `sessions > capacity` every turn rehydrates
/// a spilled session (and spills another), so the measured time is the
/// steady-state spill+rehydrate overhead. Returns
/// `(millis, spilled, restored)`.
fn run_session_spill(
    cfg: &BenchConfig,
    capacity: usize,
    sessions: usize,
    turns: usize,
    workers: usize,
) -> (f64, u64, u64) {
    // A dedicated system: the spill sweep needs its own (small)
    // session capacity and an in-memory durability layer.
    let system = Arc::new(
        ChatPattern::builder()
            .window(cfg.window)
            .training_patterns(cfg.train)
            .diffusion_steps(cfg.steps)
            .seed(cfg.seed)
            .max_sessions(capacity)
            .session_spill_memory()
            .build()
            .expect("valid spill-sweep configuration"),
    );
    let engine = engine(&system, ONE_QUEUE, workers);
    let utterance = format!(
        "Generate 1 pattern, topology size {w}*{w}, physical size {f}nm x {f}nm, \
         style Layer-10001.",
        w = cfg.window,
        f = cfg.frame_nm(cfg.window),
    );
    let started = Instant::now();
    for s in 0..sessions {
        engine
            .execute(PatternRequest::SessionOpen(SessionOpenParams {
                session: format!("spill-{s}"),
                seed: Some(s as u64),
            }))
            .expect("session opens");
    }
    for _ in 0..turns {
        for s in 0..sessions {
            engine
                .execute(PatternRequest::SessionTurn(SessionTurnParams {
                    session: format!("spill-{s}"),
                    utterance: utterance.clone(),
                }))
                .expect("turn on a (possibly spilled) session succeeds");
        }
    }
    for s in 0..sessions {
        engine
            .execute(PatternRequest::SessionClose(SessionCloseParams {
                session: format!("spill-{s}"),
            }))
            .expect("session closes");
    }
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let stats = engine.stats();
    assert_eq!(
        stats.sessions_evicted, 0,
        "durability must spill, never destroy"
    );
    assert!(
        stats.sessions_spilled > 0 && stats.sessions_restored > 0,
        "an over-capacity sweep must exercise spill + rehydrate"
    );
    (millis, stats.sessions_spilled, stats.sessions_restored)
}

/// N sessions in a sharded on-disk store with the spill-ahead writer
/// firing on every turn: the measured time is real durable-write
/// overhead (snapshot + compaction + tmp-write + rename per turn). A
/// second system over the same directory then serves one turn per
/// session — the restart path, every turn a lazy rehydrate. Returns
/// `(turn_millis, restart_millis, spilled_ahead, bytes_saved)`.
fn run_session_durability(
    cfg: &BenchConfig,
    sessions: usize,
    turns: usize,
    shards: usize,
    workers: usize,
) -> (f64, f64, u64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "cp-bench-durability-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("bench spill dir");
    let build = || {
        Arc::new(
            ChatPattern::builder()
                .window(cfg.window)
                .training_patterns(cfg.train)
                .diffusion_steps(cfg.steps)
                .seed(cfg.seed)
                .max_sessions(sessions.max(1))
                .session_dir(&dir)
                .persist_shards(shards)
                .spill_ahead_turns(1)
                .build()
                .expect("valid durability configuration"),
        )
    };
    let utterance = format!(
        "Generate 1 pattern, topology size {w}*{w}, physical size {f}nm x {f}nm, \
         style Layer-10001.",
        w = cfg.window,
        f = cfg.frame_nm(cfg.window),
    );

    let system = build();
    let live = engine(&system, ONE_QUEUE, workers);
    for s in 0..sessions {
        live.execute(PatternRequest::SessionOpen(SessionOpenParams {
            session: format!("durable-{s}"),
            seed: Some(s as u64),
        }))
        .expect("session opens");
    }
    let started = Instant::now();
    for _ in 0..turns {
        for s in 0..sessions {
            live.execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: format!("durable-{s}"),
                utterance: utterance.clone(),
            }))
            .expect("durable turn succeeds");
        }
    }
    let turn_millis = started.elapsed().as_secs_f64() * 1e3;
    let stats = live.stats();
    let spilled_ahead = stats.sessions_spilled_ahead;
    let bytes_saved = stats.snapshot_bytes_saved;
    assert_eq!(
        spilled_ahead as usize,
        sessions * turns,
        "spill-ahead every turn must write every turn"
    );
    // Simulated stop: drop the engine without closing sessions — the
    // spill-ahead snapshots on disk are what the restart finds.
    drop(live);
    drop(system);

    let system = build();
    let engine = engine(&system, ONE_QUEUE, workers);
    let started = Instant::now();
    for s in 0..sessions {
        engine
            .execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: format!("durable-{s}"),
                utterance: utterance.clone(),
            }))
            .expect("restarted turn rehydrates");
    }
    let restart_millis = started.elapsed().as_secs_f64() * 1e3;
    let stats = engine.stats();
    assert_eq!(
        stats.sessions_restored as usize, sessions,
        "every session rehydrated from its spill-ahead snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (turn_millis, restart_millis, spilled_ahead, bytes_saved)
}

/// The Generate batch through an in-process TCP loopback
/// (`EventLoopServer` + `EngineHandler`): pipelined (all requests in
/// flight, then collect) and strictly sequential (one call at a
/// time). Returns `(pipelined_millis, sequential_millis)`.
fn run_tcp_round_trip(system: &Arc<ChatPattern>, cfg: &BenchConfig, workers: usize) -> (f64, f64) {
    use chatpattern_core::wire::{RequestEnvelope, WireOutcome};
    use cp_net::{ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient};

    let engine = Arc::new(engine(system, ONE_QUEUE, workers));
    let server =
        EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default()).expect("loopback bind");
    let addr = server.local_addr().to_string();
    let handle = server
        .spawn(Arc::new(EngineHandler::new(engine)))
        .expect("event loop spawns");

    let mut client = NdjsonClient::connect(&addr, ClientConfig::default()).expect("loopback dial");
    // Pipelined: write every envelope, then drain every reply (ids
    // correlate; order is not asserted — that is the protocol).
    let started = Instant::now();
    for (i, request) in batch(cfg).into_iter().enumerate() {
        client
            .send(&RequestEnvelope {
                id: serde_json::to_value(&(i as u64)),
                tenant: None,
                request,
            })
            .expect("request sent");
    }
    for _ in 0..BATCH {
        let reply = client.recv().expect("reply received");
        assert!(
            matches!(reply.outcome, WireOutcome::Ok(_)),
            "pipelined TCP request failed"
        );
    }
    let pipelined_ms = started.elapsed().as_secs_f64() * 1e3;

    // Sequential: a strict request→response loop, the per-call
    // latency floor including serialization both ways.
    let started = Instant::now();
    for (i, request) in batch(cfg).into_iter().enumerate() {
        let reply = client
            .call(&RequestEnvelope {
                id: serde_json::to_value(&(i as u64)),
                tenant: None,
                request,
            })
            .expect("call round-trips");
        assert!(
            matches!(reply.outcome, WireOutcome::Ok(_)),
            "sequential TCP request failed"
        );
    }
    let sequential_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(client);
    handle.shutdown();
    (pipelined_ms, sequential_ms)
}

/// Locates a workspace binary next to this bench executable (they
/// share a target directory) so the router sweep can run real
/// processes; `None` skips the sweep gracefully.
fn sibling_binary(name: &str) -> Option<std::path::PathBuf> {
    if let Ok(path) = std::env::var(format!(
        "CHATPATTERN_{}_BIN",
        name.replace('-', "_").to_uppercase()
    )) {
        let path = std::path::PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let path = std::env::current_exe().ok()?.with_file_name(name);
    path.is_file().then_some(path)
}

/// The Generate batch pipelined through a real spawned router fleet
/// (`workers` serve processes). Measures only the request phase —
/// worker spawn + model training happen before the clock starts.
/// Returns the elapsed milliseconds, or an error string to report.
fn run_router_fanout(cfg: &BenchConfig, workers: usize) -> Result<f64, String> {
    use chatpattern_core::wire::{RequestEnvelope, WireOutcome};
    use cp_net::{ClientConfig, NdjsonClient};
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let router = sibling_binary("chatpattern-router").ok_or("chatpattern-router not built")?;
    let serve = sibling_binary("chatpattern-serve").ok_or("chatpattern-serve not built")?;
    let mut command = Command::new(router);
    command.args([
        "--listen",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--serve-bin",
    ]);
    command.arg(serve);
    for arg in [
        "--window",
        &cfg.window.to_string(),
        "--training-patterns",
        &cfg.train.to_string(),
        "--diffusion-steps",
        &cfg.steps.to_string(),
        "--workers",
        "2",
        "--seed",
        &cfg.seed.to_string(),
    ] {
        command.args(["--serve-arg", arg]);
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("router spawn failed: {e}"))?;
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("chatpattern-router: listening on ") {
                    break addr.trim().to_owned();
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("router exited before announcing its address".to_owned());
            }
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});

    let result = (|| {
        let mut client = NdjsonClient::connect(&addr, ClientConfig::default())
            .map_err(|e| format!("router dial failed: {e}"))?;
        let started = Instant::now();
        for (i, request) in batch(cfg).into_iter().enumerate() {
            client
                .send(&RequestEnvelope {
                    id: serde_json::to_value(&(i as u64)),
                    tenant: None,
                    request,
                })
                .map_err(|e| format!("router send failed: {e}"))?;
        }
        for _ in 0..BATCH {
            let reply = client
                .recv()
                .map_err(|e| format!("router recv failed: {e}"))?;
            if !matches!(reply.outcome, WireOutcome::Ok(_)) {
                return Err("router request errored".to_owned());
            }
        }
        let millis = started.elapsed().as_secs_f64() * 1e3;
        // Graceful teardown takes the spawned workers down too.
        let _ = client.send_line(r#"{"id":"bench-bye","control":"Shutdown"}"#);
        let _ = client.recv_line();
        Ok(millis)
    })();
    if result.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    result
}

/// One `connection_scaling` measurement.
#[cfg(unix)]
struct ConnScale {
    p50_ms: f64,
    p99_ms: f64,
    /// Idle connections that still answered a request after the
    /// active burst (the "sustained" proof).
    sustained: usize,
    /// The engine's peak concurrent-connection counter for the run.
    peak: u64,
}

/// C idle + K active connections against an in-process loopback serve:
/// open `idle` connections that sit silent through the measurement,
/// then run `active` connections each doing `calls` strictly
/// sequential Stats round-trips (cheap engine work, so the latency is
/// transport + submit-path overhead — exactly what grows with the
/// connection count). Afterwards every idle connection is pinged once;
/// the count that still answers is the sustained-connection proof.
#[cfg(unix)]
fn run_connection_scaling(
    system: &Arc<ChatPattern>,
    workers: usize,
    idle: usize,
    active: usize,
    calls: usize,
) -> Result<ConnScale, String> {
    use chatpattern_core::wire::{RequestEnvelope, WireOutcome};
    use cp_net::{ClientConfig, EngineHandler, NdjsonClient};

    let engine = Arc::new(engine(system, ONE_QUEUE, workers));
    let counters = engine.conn_counters();
    let handler = Arc::new(EngineHandler::new(Arc::clone(&engine)));
    let server = cp_net::EventLoopServer::bind("127.0.0.1:0", cp_net::EventLoopConfig::default())
        .map_err(|e| format!("event-loop bind failed: {e}"))?
        .conn_counters(counters);
    let addr = server.local_addr().to_string();
    let server = server
        .spawn(handler)
        .map_err(|e| format!("event-loop spawn failed: {e}"))?;

    let config = ClientConfig::default();
    let mut idle_conns = Vec::with_capacity(idle);
    for i in 0..idle {
        idle_conns.push(
            NdjsonClient::connect(&addr, config.clone())
                .map_err(|e| format!("idle connect {i} failed: {e}"))?,
        );
    }

    let threads: Vec<_> = (0..active)
        .map(|conn| {
            let addr = addr.clone();
            let config = config.clone();
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut client = NdjsonClient::connect(&addr, config)
                    .map_err(|e| format!("active connect failed: {e}"))?;
                let mut samples = Vec::with_capacity(calls);
                for call in 0..calls {
                    let started = Instant::now();
                    let reply = client
                        .call(&RequestEnvelope {
                            id: serde_json::to_value(&((conn * calls + call) as u64)),
                            tenant: None,
                            request: PatternRequest::Stats,
                        })
                        .map_err(|e| format!("active call failed: {e}"))?;
                    if !matches!(reply.outcome, WireOutcome::Ok(_)) {
                        return Err("active request errored".to_owned());
                    }
                    samples.push(started.elapsed().as_secs_f64() * 1e3);
                }
                Ok(samples)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(active * calls);
    for thread in threads {
        latencies.extend(thread.join().expect("active connection thread")?);
    }
    latencies.sort_by(f64::total_cmp);
    let p50_ms = latencies[latencies.len() / 2];
    let p99_ms = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];

    let mut sustained = 0usize;
    for (i, client) in idle_conns.iter_mut().enumerate() {
        let answered = client
            .call(&RequestEnvelope {
                id: serde_json::to_value(&(1_000_000 + i as u64)),
                tenant: None,
                request: PatternRequest::Stats,
            })
            .map(|reply| matches!(reply.outcome, WireOutcome::Ok(_)))
            .unwrap_or(false);
        sustained += usize::from(answered);
    }
    let peak = engine.stats().connections_peak;
    drop(idle_conns);
    server.shutdown();
    Ok(ConnScale {
        p50_ms,
        p99_ms,
        sustained,
        peak,
    })
}

fn sweep(var: &str, default: &str) -> Vec<usize> {
    std::env::var(var)
        .unwrap_or_else(|_| default.to_owned())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .filter(|&w| w > 0)
        .collect()
}

/// `--check` mode options.
struct CheckMode {
    threshold: f64,
    baseline: String,
}

fn parse_check_args() -> Option<CheckMode> {
    let mut args = std::env::args().skip(1);
    let mut check = false;
    let mut threshold = 1.5;
    let mut baseline = "BENCH_ENGINE.json".to_owned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--threshold" => {
                threshold = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threshold needs a number");
                    std::process::exit(2);
                });
            }
            "--baseline" => {
                baseline = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: engine_scaling \
                     [--check [--threshold FACTOR] [--baseline PATH]]"
                );
                std::process::exit(2);
            }
        }
    }
    check.then_some(CheckMode {
        threshold,
        baseline,
    })
}

/// Flattens every `*millis` number in a result tree into
/// `(path, value)` pairs; array elements are identified by their
/// descriptive fields (backend, workers, …) so rows match across runs
/// even when their order changes.
fn collect_millis(prefix: &str, value: &serde_json::Value, out: &mut Vec<(String, f64)>) {
    const IDENTITY_KEYS: [&str; 7] = [
        "backend",
        "workers",
        "shards",
        "sessions",
        "turns_per_session",
        "tenant",
        "connections",
    ];
    match value {
        serde_json::Value::Object(map) => {
            for (key, field) in map {
                if let Some(number) = field.as_f64() {
                    if key.ends_with("millis") {
                        out.push((format!("{prefix}{key}"), number));
                    }
                } else {
                    collect_millis(&format!("{prefix}{key}."), field, out);
                }
            }
        }
        serde_json::Value::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                let label = item
                    .as_object()
                    .map(|map| {
                        IDENTITY_KEYS
                            .iter()
                            .filter_map(|k| {
                                map.get(*k).map(|v| {
                                    let text = v
                                        .as_str()
                                        .map(str::to_owned)
                                        .or_else(|| v.as_f64().map(|n| n.to_string()))
                                        .unwrap_or_default();
                                    format!("{k}={text}")
                                })
                            })
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .filter(|label| !label.is_empty())
                    .unwrap_or_else(|| index.to_string());
                collect_millis(&format!("{prefix}[{label}]."), item, out);
            }
        }
        _ => {}
    }
}

/// Compares the freshly-measured results against the committed
/// baseline. Returns `true` when the run passes (no metric slower
/// than `threshold ×` its baseline, or config-mismatch advisory).
fn check_against_baseline(current_json: &str, mode: &CheckMode) -> bool {
    let baseline_text = match std::fs::read_to_string(&mode.baseline) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "check FAILED: cannot read baseline {}: {error}",
                mode.baseline
            );
            return false;
        }
    };
    let baseline: serde_json::Value = match serde_json::from_str(&baseline_text) {
        Ok(value) => value,
        Err(_) => {
            eprintln!("check FAILED: baseline {} is not valid JSON", mode.baseline);
            return false;
        }
    };
    let current: serde_json::Value =
        serde_json::from_str(current_json).expect("own results are valid JSON");

    // A baseline recorded at another scale (or host) still prints the
    // ratios, but only a same-config comparison can fail the build.
    let config_matches = ["batch", "window", "steps", "train", "cpus"]
        .iter()
        .all(|key| {
            baseline.get(key).and_then(|v| v.as_u64()) == current.get(key).and_then(|v| v.as_u64())
        });
    if !config_matches {
        println!(
            "check: baseline config differs from this run — ratios are advisory, \
             the check cannot fail"
        );
    }

    let mut baseline_metrics = Vec::new();
    collect_millis("", &baseline, &mut baseline_metrics);
    let mut current_metrics = Vec::new();
    collect_millis("", &current, &mut current_metrics);
    let current_by_path: std::collections::HashMap<&str, f64> = current_metrics
        .iter()
        .map(|(path, value)| (path.as_str(), *value))
        .collect();

    println!(
        "\nregression check vs {} (threshold {:.2}x):",
        mode.baseline, mode.threshold
    );
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (path, base) in &baseline_metrics {
        let Some(now) = current_by_path.get(path.as_str()) else {
            println!("  {path:<60} skipped (not measured in this run)");
            continue;
        };
        compared += 1;
        let ratio = if *base > 0.0 { now / base } else { 1.0 };
        let verdict = if ratio <= mode.threshold {
            "ok"
        } else {
            regressions += 1;
            "REGRESSION"
        };
        println!("  {path:<60} {now:9.1} ms vs {base:9.1} ms  {ratio:5.2}x  {verdict}");
    }
    println!(
        "check: {compared} metrics compared, {regressions} over {:.2}x",
        mode.threshold
    );

    // Staleness: a series this bench emits but the baseline lacks is
    // unguarded — new sweeps would silently escape the gate forever.
    // Only a same-config baseline can be declared stale (a skipped
    // sweep on another host is not staleness).
    let baseline_paths: std::collections::HashSet<&str> = baseline_metrics
        .iter()
        .map(|(path, _)| path.as_str())
        .collect();
    let mut stale = 0usize;
    for (path, _) in &current_metrics {
        if !baseline_paths.contains(path.as_str()) {
            println!("  {path:<60} MISSING from baseline");
            stale += 1;
        }
    }
    if stale > 0 {
        eprintln!(
            "check: STALE baseline — {stale} metric(s) measured by this bench are \
             absent from {}; regenerate it by running engine_scaling without --check \
             and committing the new file",
            mode.baseline
        );
    }
    (regressions == 0 && stale == 0) || !config_matches
}

fn main() {
    let check = parse_check_args();
    let cfg = BenchConfig::from_env();
    cfg.print_banner("Engine scaling: serial vs. inline/sharded backends");
    let worker_sweep = sweep("CP_ENGINE_WORKERS", "2,4,8");
    let shard_sweep = sweep("CP_ENGINE_SHARDS", "2,4");
    let max_workers = worker_sweep.iter().copied().max().unwrap_or(4);

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let system = Arc::new(cfg.build_system());
    // Warm-up pass so page faults and lazy init don't bias `serial`.
    let _ = system.execute_many(batch(&cfg));
    let serial_ms = run_serial(&system, &cfg);
    println!(
        "{BATCH}-request Generate batch, window {}, {cpus} CPU(s):",
        cfg.window
    );
    println!("  serial                    {serial_ms:9.1} ms   1.00x");

    let mut rows = String::new();
    let mut record = |label: &str, backend: &str, workers: usize, shards: usize, millis: f64| {
        // A scaling series run on fewer CPUs than workers measures
        // engine overhead, not scaling: no speedup is reported for it.
        let speedup = (cpus >= workers).then_some(serial_ms / millis);
        let shown = speedup.map_or(format!("n/a (cpus={cpus})"), |s| format!("{s:.2}x"));
        println!("  {label:<25} {millis:9.1} ms   {shown}");
        let speedup_field = speedup.map_or(String::new(), |s| format!(",\"speedup\":{s:.3}"));
        let _ = write!(
            rows,
            "{}{{\"backend\":\"{backend}\",\"workers\":{workers},\"shards\":{shards},\
             \"millis\":{millis:.3}{speedup_field}}}",
            if rows.is_empty() { "" } else { "," }
        );
    };

    let inline_ms = run_backend(&system, &cfg, BackendKind::Inline, 1);
    record("inline", "inline", 0, 0, inline_ms);
    let one_queue = worker_sweep.iter().map(|&workers| (1, workers));
    let sharded = shard_sweep.iter().map(|&shards| (shards, max_workers));
    for (shards, workers) in one_queue.chain(sharded) {
        let ms = run_backend(&system, &cfg, BackendKind::Sharded { shards }, workers);
        record(
            &format!("sharded {shards} shards/{workers} wrk"),
            "sharded",
            workers,
            shards,
            ms,
        );
    }

    let (burst_ms, coalesced) = run_coalescing(&system, &cfg, max_workers);
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = coalesced as f64 / BATCH as f64;
    println!(
        "  coalescing burst ({UNIQUE} unique) {burst_ms:7.1} ms   \
         {coalesced}/{BATCH} coalesced ({:.0}%)",
        hit_rate * 100.0
    );

    // Session sweep: the stateful multi-turn workload, one queue vs.
    // session-affine shards.
    let n_sessions = sweep("CP_ENGINE_SESSIONS", "4")
        .first()
        .copied()
        .unwrap_or(4);
    let n_turns = sweep("CP_ENGINE_TURNS", "4").first().copied().unwrap_or(4);
    let session_workers = max_workers.max(n_sessions.min(4));
    let session_shards = n_sessions.min(session_workers).max(1);
    let mut session_rows = String::new();
    let mut session_sweep = vec![1, session_shards];
    session_sweep.dedup();
    for shards in session_sweep {
        let backend = BackendKind::Sharded { shards };
        let label = backend.name();
        let millis =
            run_session_turns(&system, &cfg, backend, session_workers, n_sessions, n_turns);
        #[allow(clippy::cast_precision_loss)]
        let turns_per_sec = (n_sessions * n_turns) as f64 / (millis / 1e3);
        println!(
            "  session_turns {label}/{shards:<2} {millis:9.1} ms   \
             {n_sessions} sessions x {n_turns} turns, {turns_per_sec:.1} turns/s"
        );
        let _ = write!(
            session_rows,
            "{}{{\"backend\":\"{label}\",\"workers\":{session_workers},\"shards\":{shards},\
             \"sessions\":{n_sessions},\"turns_per_session\":{n_turns},\
             \"millis\":{millis:.3},\"turns_per_sec\":{turns_per_sec:.3}}}",
            if session_rows.is_empty() { "" } else { "," }
        );
    }

    // Spill/rehydrate sweep: twice the sessions, half the capacity —
    // every round-robin turn lands on a spilled session, so the delta
    // vs. `session_turns` is the durability overhead itself.
    let spill_sessions = (n_sessions * 2).max(4);
    let spill_capacity = (spill_sessions / 2).max(1);
    let (spill_ms, spilled, restored) = run_session_spill(
        &cfg,
        spill_capacity,
        spill_sessions,
        n_turns,
        session_workers,
    );
    #[allow(clippy::cast_precision_loss)]
    let spill_turns_per_sec = (spill_sessions * n_turns) as f64 / (spill_ms / 1e3);
    println!(
        "  session_spill_rehydrate   {spill_ms:9.1} ms   \
         {spill_sessions} sessions over capacity {spill_capacity}, {n_turns} turns each, \
         {spill_turns_per_sec:.1} turns/s ({spilled} spilled, {restored} restored)"
    );

    // Durability sweep: spill-ahead on every turn over a sharded
    // on-disk store (per-turn durable-write cost), then the restart
    // path — one lazy rehydrate turn per session over the same
    // directory.
    let durability_shards = 4usize;
    let (durable_turn_ms, restart_ms, spilled_ahead, bytes_saved) = run_session_durability(
        &cfg,
        spill_sessions,
        n_turns,
        durability_shards,
        session_workers,
    );
    #[allow(clippy::cast_precision_loss)]
    let durable_turns_per_sec = (spill_sessions * n_turns) as f64 / (durable_turn_ms / 1e3);
    println!(
        "  session_durability turns  {durable_turn_ms:9.1} ms   \
         {spill_sessions} sessions x {n_turns} turns, spill-ahead every turn over \
         {durability_shards} shards, {durable_turns_per_sec:.1} turns/s \
         ({spilled_ahead} spilled ahead, {bytes_saved} B compacted away)"
    );
    println!(
        "  session_durability restart{restart_ms:9.1} ms   \
         {spill_sessions} sessions rehydrated lazily after the restart"
    );

    // TCP loopback: same batch, same engine backend, plus the wire.
    let (tcp_pipelined_ms, tcp_sequential_ms) = run_tcp_round_trip(&system, &cfg, max_workers);
    #[allow(clippy::cast_precision_loss)]
    let tcp_pipelined_rps = BATCH as f64 / (tcp_pipelined_ms / 1e3);
    #[allow(clippy::cast_precision_loss)]
    let tcp_sequential_rps = BATCH as f64 / (tcp_sequential_ms / 1e3);
    println!(
        "  tcp_round_trip pipelined  {tcp_pipelined_ms:9.1} ms   {tcp_pipelined_rps:.1} req/s"
    );
    println!(
        "  tcp_round_trip sequential {tcp_sequential_ms:9.1} ms   {tcp_sequential_rps:.1} req/s"
    );

    // Router fan-out: real processes; skipped when the binaries are
    // not in this target directory.
    let mut router_rows = String::new();
    for &fleet in &sweep("CP_ROUTER_WORKERS", "1,2") {
        match run_router_fanout(&cfg, fleet) {
            Ok(millis) => {
                #[allow(clippy::cast_precision_loss)]
                let rps = BATCH as f64 / (millis / 1e3);
                println!(
                    "  router_fanout {fleet} worker(s) {millis:8.1} ms   {rps:.1} req/s \
                     (spawned fleet)"
                );
                let _ = write!(
                    router_rows,
                    "{}{{\"workers\":{fleet},\"millis\":{millis:.3},\
                     \"requests_per_sec\":{rps:.3}}}",
                    if router_rows.is_empty() { "" } else { "," }
                );
            }
            Err(reason) => {
                println!("  router_fanout {fleet} worker(s)   skipped: {reason}");
            }
        }
    }

    // Connection scaling: C idle + K active connections, up to 1024.
    // The sustained count proves every idle connection still answers
    // after the active burst.
    let mut conn_rows = String::new();
    let conn_active = sweep("CP_CONN_ACTIVE", "4").first().copied().unwrap_or(4);
    let conn_calls = sweep("CP_CONN_CALLS", "25").first().copied().unwrap_or(25);
    #[cfg(unix)]
    {
        cp_net::raise_nofile_limit();
        for idle in sweep("CP_CONN_IDLE", "32,256,512,1024") {
            let total = idle + conn_active;
            match run_connection_scaling(&system, max_workers, idle, conn_active, conn_calls) {
                Ok(scale) => {
                    println!(
                        "  connection_scaling {total:5} conns   \
                         p50 {:7.2} ms  p99 {:7.2} ms  ({}/{idle} idle sustained)",
                        scale.p50_ms, scale.p99_ms, scale.sustained
                    );
                    let _ = write!(
                        conn_rows,
                        "{}{{\"connections\":{total},\
                         \"idle\":{idle},\"active\":{conn_active},\
                         \"sustained\":{},\"peak_connections\":{},\
                         \"p50_millis\":{:.3},\"p99_millis\":{:.3}}}",
                        if conn_rows.is_empty() { "" } else { "," },
                        scale.sustained,
                        scale.peak,
                        scale.p50_ms,
                        scale.p99_ms,
                    );
                }
                Err(reason) => {
                    println!("  connection_scaling {total:5} conns   skipped: {reason}");
                }
            }
        }
    }

    // Hot loops: the measured inner loops on their own, no engine in
    // the way — regressions here are what the surgery fixed.
    const HOT_RECTS: usize = 192;
    const HOT_REPS: usize = 10;
    let HotLoops {
        union_ms,
        encode_ms,
        legalize_ms,
        grid: (hot_rows, hot_cols),
        denoise_step_ms,
        sample_128_ms,
        wire_decode_ms,
        wire_encode_ms,
        request_key_ms,
        wire_line_bytes,
    } = run_hot_loops(&system, &cfg, HOT_RECTS, HOT_REPS);
    println!(
        "  hot_loops union_area      {union_ms:9.1} ms   \
         {HOT_REPS} reps, {HOT_RECTS} rects, {hot_rows}x{hot_cols} grid"
    );
    println!("  hot_loops squish_encode   {encode_ms:9.1} ms   {HOT_REPS} reps");
    println!("  hot_loops legalize        {legalize_ms:9.1} ms   {HOT_REPS} reps");
    println!(
        "  hot_loops denoise_step    {denoise_step_ms:9.1} ms   \
         {HOT_REPS} reps, {HOT_WINDOW}x{HOT_WINDOW}, k = K/2"
    );
    println!(
        "  hot_loops sample_128      {sample_128_ms:9.1} ms   \
         {HOT_REPS} reps, {HOT_WINDOW}x{HOT_WINDOW}, {} steps",
        cfg.steps
    );
    println!(
        "  hot_loops wire_decode_33k {wire_decode_ms:9.1} ms   \
         {WIRE_REPS} reps, {wire_line_bytes}-byte Legalize line"
    );
    println!("  hot_loops request_key_33k {request_key_ms:9.1} ms   {WIRE_REPS} reps");
    println!("  hot_loops wire_encode_33k {wire_encode_ms:9.1} ms   {WIRE_REPS} reps, its reply");

    if cpus == 1 {
        println!(
            "\nnote: this host exposes a single CPU, so the threaded numbers measure\n\
             per-job engine overhead (serial/backend delta ÷ {BATCH}), not scaling;\n\
             speedups > 1 require a multi-core host."
        );
    }

    let json = format!(
        "{{\"bench\":\"engine_scaling\",\"batch\":{BATCH},\"window\":{},\"steps\":{},\
         \"train\":{},\"cpus\":{cpus},\"serial_millis\":{serial_ms:.3},\"backends\":[{rows}],\
         \"coalescing\":{{\"submitted\":{BATCH},\"unique\":{UNIQUE},\"coalesced\":{coalesced},\
         \"hit_rate\":{hit_rate:.3},\"millis\":{burst_ms:.3}}},\
         \"session_turns\":[{session_rows}],\
         \"session_spill_rehydrate\":{{\"sessions\":{spill_sessions},\
         \"capacity\":{spill_capacity},\"turns_per_session\":{n_turns},\
         \"workers\":{session_workers},\"spilled\":{spilled},\"restored\":{restored},\
         \"millis\":{spill_ms:.3},\"turns_per_sec\":{spill_turns_per_sec:.3}}},\
         \"session_durability\":{{\"sessions\":{spill_sessions},\
         \"turns_per_session\":{n_turns},\"shards\":{durability_shards},\
         \"workers\":{session_workers},\"spilled_ahead\":{spilled_ahead},\
         \"snapshot_bytes_saved\":{bytes_saved},\
         \"turn_millis\":{durable_turn_ms:.3},\
         \"turns_per_sec\":{durable_turns_per_sec:.3},\
         \"restart_rehydrate_millis\":{restart_ms:.3}}},\
         \"tcp_round_trip\":{{\"requests\":{BATCH},\"workers\":{max_workers},\
         \"pipelined_millis\":{tcp_pipelined_ms:.3},\
         \"pipelined_requests_per_sec\":{tcp_pipelined_rps:.3},\
         \"sequential_millis\":{tcp_sequential_ms:.3},\
         \"sequential_requests_per_sec\":{tcp_sequential_rps:.3}}},\
         \"router_fanout\":[{router_rows}],\
         \"connection_scaling\":{{\"active\":{conn_active},\
         \"calls_per_conn\":{conn_calls},\"rows\":[{conn_rows}]}},\
         \"hot_loops\":{{\"rects\":{HOT_RECTS},\"reps\":{HOT_REPS},\
         \"grid_rows\":{hot_rows},\"grid_cols\":{hot_cols},\
         \"union_area_millis\":{union_ms:.3},\
         \"squish_encode_millis\":{encode_ms:.3},\
         \"legalize_millis\":{legalize_ms:.3},\
         \"denoise_step_millis\":{denoise_step_ms:.3},\
         \"sample_128_millis\":{sample_128_ms:.3},\
         \"wire_reps\":{WIRE_REPS},\"wire_line_bytes\":{wire_line_bytes},\
         \"wire_decode_33k_millis\":{wire_decode_ms:.3},\
         \"request_key_33k_millis\":{request_key_ms:.3},\
         \"wire_encode_33k_millis\":{wire_encode_ms:.3}}}}}\n",
        cfg.window, cfg.steps, cfg.train
    );
    match check {
        None => {
            std::fs::write("BENCH_ENGINE.json", &json).expect("write BENCH_ENGINE.json");
            println!("\nwrote BENCH_ENGINE.json");
        }
        Some(mode) => {
            if !check_against_baseline(&json, &mode) {
                std::process::exit(1);
            }
        }
    }
}
