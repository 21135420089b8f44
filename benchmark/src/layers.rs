//! The traced pass: after the (traced) loaded phase, the workload's
//! operation is issued one at a time at successive depths — direct
//! layer function → `ChatPattern::execute` → `PatternEngine` submit +
//! wait → in-process wire decode/encode → TCP to serve → TCP through
//! the router — each call wrapped in a span. A layer's self time is
//! the median at its depth minus the median one depth below.
//!
//! Every number comes from timing calls into public functions from
//! the outside; spans inside the product are a later issue.

use crate::common::{Env, Loaded};
use crate::inproc::{
    extend_windows, generate_request, session_builder, utterance, PATTERNS_PER_TURN,
    TURNS_PER_DIALOG,
};
use crate::procs::{LineClient, Server};
use crate::rounds::Timings;
use crate::stats::{median, mix};
use crate::tcp::{serve_args, spawn_server, Kind, Mix, STATS_LINE};
use chatpattern::agent::auto_format;
use chatpattern::core::wire::decode_request_line;
use chatpattern::dataset::Style;
use chatpattern::diffusion::Mask;
use chatpattern::drc::check_pattern;
use chatpattern::extend::{extend, ExtensionMethod};
use chatpattern::legalize::Legalizer;
use chatpattern::metrics::{diversity, legality};
use chatpattern::qos::{AdmitClass, FairQueue, Lane, LaneWeights, QosConfig, QosGate};
use chatpattern::squish::{SquishPattern, Topology};
use chatpattern::{
    ChatPattern, JsonDirPersist, LegalizeParams, PatternEngine, PatternRequest, PatternService,
    ResponseEnvelope, SessionOpenParams, SessionPersist, SessionSnapshot, SessionTurnParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Metrics = BTreeMap<&'static str, f64>;

/// Timed, span-recording repetition within a share of the budget.
struct Probes<'a> {
    env: &'a Env,
    budget: Duration,
    out: Metrics,
    next_op: u64,
}

impl Probes<'_> {
    /// Calls `f` (one span each) for `share` of the budget and at
    /// least `min` times; returns the median in milliseconds.
    fn time(&mut self, span: &'static str, share: f64, min: usize, mut f: impl FnMut(u64)) -> f64 {
        let slice = self.budget.mul_f64(share);
        let started = Instant::now();
        let mut ms = Vec::new();
        while ms.len() < min || (started.elapsed() < slice && ms.len() < 2_000) {
            // Traced operations are numbered apart from the loaded
            // phase's, which count from zero.
            let op = 1_000_000_000 + self.next_op;
            self.next_op += 1;
            let ((), elapsed) = self.env.tracer.span(span, op, None, || f(op));
            ms.push(elapsed);
        }
        median(&ms)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }
}

fn build(env: &Env) -> Result<Arc<ChatPattern>, String> {
    env.scale
        .builder()
        .build()
        .map(Arc::new)
        .map_err(|e| format!("build failed: {e}"))
}

fn style_of(op: u64) -> Style {
    Style::ALL[(op % 2) as usize]
}

/// `model().sample` of one window; fills the `cp_diffusion` rows and
/// returns the median with the topologies it produced.
fn probe_sample(p: &mut Probes, system: &ChatPattern, share: f64) -> (f64, Vec<Topology>) {
    let w = p.env.scale.window;
    let seed = p.env.seed;
    let mut produced = Vec::new();
    let sample_ms = p.time("ladder.cp_diffusion.sample", share, 3, |op| {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, op));
        let topology = system
            .model()
            .sample(w, w, Some(style_of(op).id()), &mut rng);
        if produced.len() < 16 {
            produced.push(topology);
        }
    });
    p.set("cp_diffusion.sample_ms", sample_ms);
    p.set(
        "cp_diffusion.step_us",
        sample_ms * 1e3 / p.env.scale.steps as f64,
    );
    (sample_ms, produced)
}

/// `Legalizer::legalize` over `topologies` into `frame_nm`; returns
/// the median, the legal patterns and `(failures, attempts)`.
fn probe_legalize(
    p: &mut Probes,
    system: &ChatPattern,
    topologies: &[Topology],
    frame_nm: i64,
    share: f64,
) -> (f64, Vec<SquishPattern>, (u64, u64)) {
    let legalizer = Legalizer::new(*system.rules());
    let seed = p.env.seed;
    let mut patterns = Vec::new();
    let (mut failures, mut attempts) = (0u64, 0u64);
    let ms = p.time("ladder.cp_legalize.legalize", share, 3, |op| {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, op));
        let topology = &topologies[op as usize % topologies.len()];
        attempts += 1;
        match legalizer.legalize(topology, frame_nm, frame_nm, &mut rng) {
            Ok(pattern) if patterns.len() < topologies.len() => patterns.push(pattern),
            Ok(_) => {}
            Err(_) => failures += 1,
        }
    });
    (ms, patterns, (failures, attempts))
}

/// The squish / DRC probes on one legal pattern.
fn probe_pattern(p: &mut Probes, system: &ChatPattern, pattern: &SquishPattern) {
    let layout = pattern.to_layout();
    let encode = p.time("ladder.cp_squish.from_layout", 0.04, 3, |_| {
        black_box(SquishPattern::from_layout(black_box(&layout)));
    });
    let minimize = p.time("ladder.cp_squish.minimized", 0.04, 3, |_| {
        black_box(black_box(pattern).minimized());
    });
    let check = p.time("ladder.cp_drc.check_pattern", 0.04, 3, |_| {
        black_box(check_pattern(black_box(pattern), system.rules()));
    });
    p.set("cp_squish.encode_ms", encode);
    p.set("cp_squish.minimize_ms", minimize);
    p.set("cp_drc.check_ms", check);
}

/// One request at the service and engine depths; returns
/// `(execute ms, submit+wait ms)` and fills the two self-time rows
/// against `direct_ms`, the layer-call depth below.
fn probe_service_engine(
    p: &mut Probes,
    system: &Arc<ChatPattern>,
    engine: &PatternEngine<Arc<ChatPattern>>,
    direct_ms: f64,
    share: f64,
    min: usize,
    request: impl Fn(u64) -> PatternRequest,
) -> (f64, f64) {
    let service_ms = p.time("ladder.core.service.execute", share, min, |op| {
        black_box(system.execute(request(op)).is_ok());
    });
    let engine_ms = p.time("ladder.core.engine.submit_wait", share, min, |op| {
        black_box(engine.submit_blocking(request(op)).wait().is_ok());
    });
    p.set("core.service.self_us", (service_ms - direct_ms) * 1e3);
    p.set("core.engine.self_us", (engine_ms - service_ms) * 1e3);
    (service_ms, engine_ms)
}

/// `submit().wait()` of a request the cache already holds.
fn probe_cache_hit(
    p: &mut Probes,
    engine: &PatternEngine<Arc<ChatPattern>>,
    request: &PatternRequest,
) {
    let _ = engine.submit_blocking(request.clone()).wait();
    let hit_ms = p.time("ladder.core.engine.cache_hit", 0.02, 5, |_| {
        black_box(engine.submit_blocking(request.clone()).wait().is_ok());
    });
    p.set("core.engine.cache_hit_us", hit_ms * 1e3);
}

// ------------------------------------------------------------- in-process

fn fixed_generate(p: &mut Probes) -> Result<f64, String> {
    let env = p.env;
    let frame_nm = env.scale.frame_nm(1);
    let system = build(env)?;
    let engine = PatternEngine::new(Arc::clone(&system));

    let (_, topologies) = probe_sample(p, &system, 0.2);
    let (legalize_ms, patterns, (failures, attempts)) =
        probe_legalize(p, &system, &topologies, frame_nm, 0.05);
    p.set("cp_legalize.fixed_ms", legalize_ms);
    p.set(
        "cp_legalize.fail_share",
        failures as f64 / attempts.max(1) as f64,
    );
    if let Some(pattern) = patterns.first() {
        probe_pattern(p, &system, pattern);
    }
    let seed = env.seed;
    let evaluate_ms = p.time("ladder.cp_metrics.evaluate", 0.05, 2, |op| {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, op));
        let report = legality(topologies.iter(), frame_nm, system.rules(), &mut rng);
        black_box(diversity(report.legal_topologies()));
    });
    p.set(
        "cp_metrics.evaluate_ms",
        evaluate_ms * 100.0 / topologies.len().max(1) as f64,
    );

    // The wrappers' self times are read on the cheap Legalize: on a
    // 25 ms Generate they would drown in run-to-run noise.
    let legalize_request = |op: u64| {
        PatternRequest::Legalize(LegalizeParams {
            topology: topologies[op as usize % topologies.len()].clone(),
            width_nm: frame_nm,
            height_nm: frame_nm,
            seed: mix(seed, op),
        })
    };
    let (_, legalize_engine_ms) =
        probe_service_engine(p, &system, &engine, legalize_ms, 0.08, 5, legalize_request);
    probe_cache_hit(
        p,
        &engine,
        &PatternRequest::Generate(generate_request(env, 1 << 40)),
    );
    let generate_ms = p.time("ladder.core.engine.submit_wait_generate", 0.2, 3, |op| {
        let request = PatternRequest::Generate(generate_request(env, op));
        black_box(engine.submit_blocking(request).wait().is_ok());
    });
    // A delivered pattern is a Generate then a Legalize job.
    Ok(generate_ms + legalize_engine_ms)
}

fn free_size_extend(p: &mut Probes) -> Result<f64, String> {
    let env = p.env;
    let w = env.scale.window;
    let system = build(env)?;
    let engine = PatternEngine::new(Arc::clone(&system));

    let (sample_ms, bases) = probe_sample(p, &system, 0.03);
    let seed = env.seed;
    let mut big = Vec::new();
    let mut direct = |p: &mut Probes,
                      span: &'static str,
                      method: ExtensionMethod,
                      factor: usize,
                      share: f64,
                      min: usize| {
        p.time(span, share, min, |op| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, op));
            let base = &bases[op as usize % bases.len()];
            let side = w * factor;
            let out = extend(
                system.model(),
                base,
                side,
                side,
                method,
                Some(style_of(op).id()),
                &mut rng,
            );
            if factor == 4 {
                big.push(out);
            }
        })
    };
    // The 4x calls are ~1.7 s each at full scale: one repetition.
    let out_4x = direct(
        p,
        "ladder.cp_extend.out_4x",
        ExtensionMethod::OutPainting,
        4,
        0.0,
        1,
    );
    let in_4x = direct(
        p,
        "ladder.cp_extend.in_4x",
        ExtensionMethod::InPainting,
        4,
        0.0,
        1,
    );
    let out_2x = direct(
        p,
        "ladder.cp_extend.out_2x",
        ExtensionMethod::OutPainting,
        2,
        0.08,
        2,
    );
    let in_2x = direct(
        p,
        "ladder.cp_extend.in_2x",
        ExtensionMethod::InPainting,
        2,
        0.08,
        2,
    );
    for (row, ms) in [
        ("cp_extend.out_4x_ms", out_4x),
        ("cp_extend.in_4x_ms", in_4x),
        ("cp_extend.out_2x_ms", out_2x),
        ("cp_extend.in_2x_ms", in_2x),
    ] {
        p.set(row, ms);
    }
    let windows = extend_windows(ExtensionMethod::OutPainting, 4, w) as f64;
    p.set("cp_extend.self_ms", out_4x - windows * sample_ms);

    let (legalize_ms, patterns, (failures, attempts)) =
        probe_legalize(p, &system, &big, env.scale.frame_nm(4), 0.02);
    p.set("cp_legalize.x4_ms", legalize_ms);
    p.set(
        "cp_legalize.fail_share",
        failures as f64 / attempts.max(1) as f64,
    );
    if let Some(pattern) = patterns.first() {
        probe_pattern(p, &system, pattern);
    }

    // The wrappers' self times are read on the 4x Legalize (the
    // engine keys and copies the 16x-cell topology it carries): on a
    // 1.7 s Extend, affordable once or twice, they would drown.
    let frame_nm = env.scale.frame_nm(4);
    let (_, legalize_engine_ms) =
        probe_service_engine(p, &system, &engine, legalize_ms, 0.1, 3, |op| {
            PatternRequest::Legalize(LegalizeParams {
                topology: big[op as usize % big.len()].clone(),
                width_nm: frame_nm,
                height_nm: frame_nm,
                seed: mix(seed, op),
            })
        });
    // The latency metrics are over 4x operations — half Out-, half
    // In-Painting — each followed by its Legalize through the engine.
    Ok((out_4x + in_4x) / 2.0 + legalize_engine_ms)
}

/// Dialogs every depth of the chat ladder replays: the same seeds
/// and utterances at every depth (under fresh session ids), so two
/// depths differ by their layer alone. Numbered past the quality
/// prefix, so they follow `--seed`.
const LADDER_DIALOGS: std::ops::Range<u64> = 1_000..1_004;

/// Replays the ladder dialogs: `open(session, seed)` then
/// `turn(session, utterance)` eight times each, one span per turn.
/// Returns the median turn time in milliseconds.
fn replay(
    env: &Env,
    span: &'static str,
    open: impl Fn(&str, u64) -> Result<(), String>,
    turn: impl Fn(&str, &str) -> Result<(), String>,
) -> Result<f64, String> {
    let mut ms = Vec::new();
    for dialog in LADDER_DIALOGS {
        let session = format!("{span}-{dialog}");
        open(&session, mix(env.seed, dialog))?;
        for t in 0..TURNS_PER_DIALOG {
            let text = utterance(env, dialog, t);
            let op = 2_000_000_000 + dialog * 16 + t as u64;
            let (result, elapsed) = env.tracer.span(span, op, None, || turn(&session, &text));
            result?;
            ms.push(elapsed);
        }
    }
    Ok(median(&ms))
}

fn open_request(session: &str, seed: u64) -> PatternRequest {
    PatternRequest::SessionOpen(SessionOpenParams {
        session: session.to_owned(),
        seed: Some(seed),
    })
}

fn turn_request(session: &str, text: &str) -> PatternRequest {
    PatternRequest::SessionTurn(SessionTurnParams {
        session: session.to_owned(),
        utterance: text.to_owned(),
    })
}

fn chat_sessions(p: &mut Probes) -> Result<f64, String> {
    let env = p.env;
    let frame_nm = env.scale.frame_nm(1);
    // Utterance parsing, over the corpus of one dialog.
    let corpus: Vec<String> = (0..TURNS_PER_DIALOG)
        .map(|t| utterance(env, LADDER_DIALOGS.start, t))
        .collect();
    let parse_ms = p.time("ladder.cp_agent.auto_format", 0.02, 3, |_| {
        for text in &corpus {
            black_box(auto_format(black_box(text)));
        }
    });
    p.set(
        "cp_agent.auto_format_us",
        parse_ms * 1e3 / corpus.len() as f64,
    );

    let memory = build(env)?;
    let (sample_ms, topologies) = probe_sample(p, &memory, 0.1);
    let (legalize_ms, _, _) = probe_legalize(p, &memory, &topologies, frame_nm, 0.02);
    p.set("cp_legalize.fixed_ms", legalize_ms);

    // Depth 0: the session calls on a store with no persist layer.
    let turn_mem = replay(
        env,
        "ladder.core.session.turn_mem",
        |id, seed| {
            memory
                .session_open(id, Some(seed))
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        |id, text| {
            memory
                .session_turn(id, text)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    )?;
    p.set("core.session.turn_mem_ms", turn_mem);
    p.set(
        "cp_agent.turn_self_ms",
        turn_mem - PATTERNS_PER_TURN as f64 * (sample_ms + legalize_ms),
    );

    // The 8-turn snapshot of a replayed dialog, written and read back
    // through the directory persist layer.
    let snapshot = memory
        .session_snapshot(&format!(
            "ladder.core.session.turn_mem-{}",
            LADDER_DIALOGS.start
        ))
        .map_err(|e| format!("snapshot: {e}"))?;
    let encoded = serde_json::to_string(&snapshot).map_err(|e| e.to_string())?;
    p.set("core.session.snapshot_kb", encoded.len() as f64 / 1024.0);
    let dir = env.temp_dir("persist")?;
    let persist: JsonDirPersist<SessionSnapshot> = JsonDirPersist::new(
        &dir.0,
        Duration::from_secs(900),
        |s: &SessionSnapshot| {
            serde_json::to_string(s).map_err(|e| chatpattern::Error::invalid_request(e.to_string()))
        },
        |text: &str| {
            serde_json::from_str(text)
                .map_err(|e| chatpattern::Error::invalid_request(e.to_string()))
        },
    )
    .map_err(|e| format!("persist dir: {e}"))?;
    const COPIES: usize = 5;
    let mut copies = vec![snapshot; COPIES];
    let spill_ms = p.time("ladder.core.session.spill", 0.0, COPIES, |_| {
        if let Some(copy) = copies.pop() {
            black_box(persist.spill(&format!("s{}", copies.len()), copy).is_ok());
        }
    });
    p.set("core.session.spill_ms", spill_ms);
    let mut read = 0;
    let rehydrate_ms = p.time("ladder.core.session.rehydrate", 0.0, COPIES, |_| {
        black_box(persist.take(&format!("s{read}")).is_ok());
        read += 1;
    });
    p.set("core.session.rehydrate_ms", rehydrate_ms);
    drop(persist);

    // Depths 1 and 2 on the in-memory system; depth 3 is the workload's
    // own configuration (directory persist, spill-ahead after every
    // turn) through the engine: the blocking path of a turn.
    let through = |service: &dyn Fn(PatternRequest) -> Result<(), String>, span: &'static str| {
        replay(
            env,
            span,
            |id, seed| service(open_request(id, seed)),
            |id, text| service(turn_request(id, text)),
        )
    };
    let service_ms = through(
        &|request| {
            memory
                .execute(request)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        "ladder.core.service.execute",
    )?;
    let engine = PatternEngine::new(Arc::clone(&memory));
    let engine_ms = through(
        &|request| {
            engine
                .submit_blocking(request)
                .wait()
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        "ladder.core.engine.submit_wait",
    )?;
    let sessions = env.temp_dir("trace-sessions")?;
    let durable = session_builder(env, &sessions.0)
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let durable_engine = PatternEngine::new(Arc::new(durable));
    let persist_ms = through(
        &|request| {
            durable_engine
                .submit_blocking(request)
                .wait()
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        "ladder.core.session.turn_persist",
    )?;
    p.set("core.service.self_us", (service_ms - turn_mem) * 1e3);
    p.set("core.engine.self_us", (engine_ms - service_ms) * 1e3);
    p.set("core.session.spill_ahead_ms", persist_ms - engine_ms);
    Ok(persist_ms)
}

// -------------------------------------------------------------------- wire

fn round_trip_ms(p: &mut Probes, span: &'static str, client: &mut LineClient, line: &str) -> f64 {
    p.time(span, 0.03, 5, |_| {
        black_box(client.round_trip(line).is_ok());
    })
}

/// The next `n` stream positions of `kind` after `*cursor`: fresh
/// seeds, far beyond what a loaded phase reaches.
fn take_kind(stream: &Mix, cursor: &mut u64, kind: Kind, n: usize) -> Vec<u64> {
    let mut found = Vec::with_capacity(n);
    while found.len() < n {
        *cursor += 1;
        if stream.kind(*cursor) == kind {
            found.push(*cursor);
        }
    }
    found
}

/// Distinct requests per ladder depth: more than the result cache
/// holds, so a depth that cycles through them never reads a hit.
const DISTINCT: usize = 256;

fn tcp_mixed(p: &mut Probes, via_router: bool) -> Result<f64, String> {
    let env = p.env;
    let seed = env.seed;
    let reference = build(env)?;
    let stream = Mix::new(env, &reference)?;
    let engine = PatternEngine::new(Arc::clone(&reference));
    let mut cursor = 10_000_000u64;
    let legalize_lines = |cursor: &mut u64| -> Vec<String> {
        take_kind(&stream, cursor, Kind::Legalize, DISTINCT)
            .into_iter()
            .map(|index| stream.line(index))
            .collect()
    };

    // Model-bound members of the mix, called directly.
    let (_, topologies) = probe_sample(p, &reference, 0.08);
    let mask = Mask::keep_outside(env.scale.window, env.scale.window, stream.modify_region());
    let modify_ms = p.time("ladder.cp_diffusion.modify", 0.08, 3, |op| {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, op));
        let known = &topologies[op as usize % topologies.len()];
        black_box(
            reference
                .model()
                .modify(known, &mask, Some(style_of(op).id()), 1, &mut rng),
        );
    });
    p.set("cp_diffusion.modify_ms", modify_ms);

    // Admission and queueing primitives: too short for a span each,
    // so one span times a batch.
    const BATCH: u64 = 20_000;
    let gate = QosGate::new(QosConfig::default());
    let admit_ms = p.time("ladder.cp_qos.admit_release_batch", 0.0, 3, |_| {
        for _ in 0..BATCH {
            black_box(gate.try_admit("default", AdmitClass::default()).is_ok());
            gate.release("default");
        }
    });
    p.set("cp_qos.admit_release_ns", admit_ms * 1e6 / BATCH as f64);
    let mut queue: FairQueue<u64> = FairQueue::new(256, LaneWeights::default());
    let queue_ms = p.time("ladder.cp_qos.push_pop_batch", 0.0, 3, |_| {
        for i in 0..BATCH {
            black_box(queue.push(Lane::Standard, "default", i).is_ok());
            black_box(queue.pop());
        }
    });
    p.set("cp_qos.push_pop_ns", queue_ms * 1e6 / BATCH as f64);

    // The ladder proper, on the mix's most frequent request: Legalize
    // of an uploaded topology (33 KB each way at full scale).
    let legalizer = Legalizer::new(*reference.rules());
    let requests: Vec<PatternRequest> = take_kind(&stream, &mut cursor, Kind::Legalize, DISTINCT)
        .into_iter()
        .map(|index| stream.request(index))
        .collect();
    let direct_ms = p.time("ladder.cp_legalize.legalize", 0.04, 5, |op| {
        if let PatternRequest::Legalize(params) = &requests[op as usize % DISTINCT] {
            let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
            black_box(
                legalizer
                    .legalize(
                        &params.topology,
                        params.width_nm,
                        params.height_nm,
                        &mut rng,
                    )
                    .is_ok(),
            );
        }
    });
    p.set("cp_legalize.fixed_ms", direct_ms);
    let (_, engine_ms) = probe_service_engine(p, &reference, &engine, direct_ms, 0.04, 5, |op| {
        requests[op as usize % DISTINCT].clone()
    });
    let hot = take_kind(&stream, &mut cursor, Kind::HotGenerate, 1)[0];
    probe_cache_hit(p, &engine, &stream.request(hot));

    let wire_lines = legalize_lines(&mut cursor);
    let decode_ms = p.time("ladder.core.wire.decode_request_line", 0.03, 5, |op| {
        let line = &wire_lines[op as usize % DISTINCT];
        black_box(decode_request_line(black_box(line.trim_end())).is_ok());
    });
    p.set("core.wire.decode_us", decode_ms * 1e3);
    let reply = decode_request_line(wire_lines[0].trim_end())
        .map_err(|(_, e)| format!("own line does not decode: {e}"))
        .and_then(|envelope| {
            let response = reference
                .execute(envelope.request)
                .map_err(|e| e.to_string())?;
            Ok(ResponseEnvelope::ok(envelope.id, response))
        })?;
    let encode_ms = p.time("ladder.core.wire.to_line", 0.03, 5, |_| {
        black_box(black_box(&reply).to_line());
    });
    p.set("core.wire.encode_us", encode_ms * 1e3);
    let wire_ms = p.time("ladder.core.wire.round_trip", 0.05, 5, |op| {
        let line = &wire_lines[op as usize % DISTINCT];
        if let Ok(envelope) = decode_request_line(line.trim_end()) {
            let id = envelope.id.clone();
            if let Ok(response) = engine.submit_blocking(envelope.request).wait() {
                black_box(ResponseEnvelope::ok(id, response).to_line());
            }
        }
    });
    p.set("core.wire.self_us", (wire_ms - engine_ms) * 1e3);

    // Over TCP to a real serve child, then — for the router workload —
    // through a real router in front of children of that same shape.
    let workers = if via_router { 1 } else { env.cpus };
    let serve = Server::spawn("chatpattern-serve", &serve_args(env, workers), None)?;
    let mut client = LineClient::connect(&serve.addr)?;
    let serve_lines = legalize_lines(&mut cursor);
    let serve_ms = p.time("ladder.serve.tcp_round_trip", 0.08, 5, |op| {
        black_box(
            client
                .round_trip(&serve_lines[op as usize % DISTINCT])
                .is_ok(),
        );
    });
    p.set("cp_net.self_us", (serve_ms - wire_ms) * 1e3);
    let stats_ms = round_trip_ms(p, "ladder.cp_net.stats_round_trip", &mut client, STATS_LINE);
    p.set("cp_net.stats_rtt_us", stats_ms * 1e3);
    let hot_line = stream.line(hot);
    client.round_trip(&hot_line)?;
    let cached_ms = round_trip_ms(p, "ladder.cp_net.cached_round_trip", &mut client, &hot_line);
    p.set("cp_net.cached_rtt_us", cached_ms * 1e3);
    if !via_router {
        return Ok(serve_ms);
    }

    let router = spawn_server(env, true)?;
    let mut through = LineClient::connect(&router.addr)?;
    let router_lines = legalize_lines(&mut cursor);
    let router_ms = p.time("ladder.router.tcp_round_trip", 0.08, 5, |op| {
        black_box(
            through
                .round_trip(&router_lines[op as usize % DISTINCT])
                .is_ok(),
        );
    });
    p.set("router.hop_ms", router_ms - serve_ms);
    let fleet_ms = round_trip_ms(
        p,
        "ladder.router.stats_round_trip",
        &mut through,
        STATS_LINE,
    );
    p.set("router.stats_rtt_us", fleet_ms * 1e3);
    Ok(router_ms)
}

/// Runs the traced pass of `workload` within `budget` and returns
/// every per-layer value it and the loaded phase measured.
pub fn traced_pass(
    env: &Env,
    workload: &str,
    loaded: &Loaded,
    budget: Duration,
) -> Result<Metrics, String> {
    let mut probes = Probes {
        env,
        budget,
        out: loaded.layer.clone(),
        next_op: 0,
    };
    let timings = Timings::of(&loaded.rounds);
    // Per-layer rows are raw times, like the ladder's own.
    let setup_ms = median(
        &loaded
            .rounds
            .iter()
            .map(|r| r.setup_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let blocking_path_ms = match workload {
        "fixed_generate" => fixed_generate(&mut probes),
        "free_size_extend" => free_size_extend(&mut probes),
        "chat_sessions" => chat_sessions(&mut probes),
        "serve_tcp_mixed" => tcp_mixed(&mut probes, false),
        "router_tcp_mixed" => tcp_mixed(&mut probes, true),
        other => Err(format!("unknown workload {other}")),
    }?;
    let setup_row = match workload {
        "serve_tcp_mixed" => "serve.listen_ms",
        "router_tcp_mixed" => "router.listen_ms",
        _ => "core.build_ms",
    };
    probes.set(setup_row, setup_ms);
    let loaded_p50 = timings.raw_op_ms_p50;
    probes.set("trace.blocking_path_ms", blocking_path_ms);
    probes.set(
        "trace.unattributed_share",
        (loaded_p50 - blocking_path_ms) / loaded_p50.max(f64::MIN_POSITIVE),
    );
    // Defined as the untraced `ops_per_s` is, so the two compare.
    probes.set("trace.loaded_ops_per_s", timings.ops_per_s);
    probes.set("host.slowdown", timings.slowdown);
    probes.set("host.raw_ops_per_s", timings.raw_ops_per_s);
    probes.set("trace.spans", env.tracer.len() as f64);

    // The attribution summary of this workload, for a human reader.
    const SELF_ROWS: [&str; 8] = [
        "cp_extend.self_ms",
        "cp_agent.turn_self_ms",
        "core.session.spill_ahead_ms",
        "core.service.self_us",
        "core.engine.self_us",
        "core.wire.self_us",
        "cp_net.self_us",
        "router.hop_ms",
    ];
    let selves: Vec<String> = SELF_ROWS
        .iter()
        .filter_map(|row| probes.out.get(row).map(|v| format!("{row} {v:.3}")))
        .collect();
    eprintln!(
        "{workload}: self times along the blocking path: {}; one at a time the path takes \
         {blocking_path_ms:.3} ms, under load op_ms_p50 is {loaded_p50:.3} ms, unattributed share \
         {:.4}",
        selves.join(", "),
        probes.out["trace.unattributed_share"],
    );
    Ok(probes.out)
}
