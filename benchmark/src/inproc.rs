//! The three in-process workloads: they call `PatternEngine` over a
//! `ChatPattern` directly — no wire, no child process.

use crate::common::{
    build_timed, check_delivered, digest_pattern, digest_topology, Env, Loaded, Tally, QUALITY_SEED,
};
use crate::procs::own_peak_rss_mb;
use crate::rounds::{run_rounds, Pace, Slice};
use crate::stats::{median, mix, Fnv, Zipf};
use chatpattern::dataset::Style;
use chatpattern::extend::{in_painting_samples, out_painting_samples, ExtensionMethod};
use chatpattern::squish::Topology;
use chatpattern::{
    ChatPattern, Error, EvaluateParams, ExtendParams, GenerateParams, JobHandle, LegalizeParams,
    PatternEngine, PatternRequest, PatternResponse, ResponsePayload, SessionCloseParams,
    SessionOpenParams, SessionTurnParams, Timing,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Engine = PatternEngine<Arc<ChatPattern>>;

/// Jobs the single `fixed_generate` submitter keeps outstanding: four
/// per engine worker at the baseline, so no worker ever waits for the
/// submitter, and few enough that a slice is not mostly ramp-up.
const OUTSTANDING: usize = 8;

/// Reply `Timing`s of the workload's primary request kind seen under
/// load, for the engine's per-layer split.
#[derive(Default)]
pub struct EngineTimes {
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

impl EngineTimes {
    pub fn push(&mut self, timing: &Timing) {
        self.queue_ms.push(timing.queue_micros as f64 / 1e3);
        self.exec_ms.push(timing.exec_micros as f64 / 1e3);
    }

    pub fn merge(&mut self, other: EngineTimes) {
        self.queue_ms.extend(other.queue_ms);
        self.exec_ms.extend(other.exec_ms);
    }

    /// Fills the engine rows of the per-layer table.
    pub fn fill(&self, stats: &chatpattern::EngineStats, loaded: &mut Loaded) {
        let lookups = stats.cache_hits + stats.cache_misses;
        loaded.layer.extend([
            ("core.engine.queue_ms_p50", median(&self.queue_ms)),
            ("core.engine.exec_ms_p50", median(&self.exec_ms)),
            (
                "core.engine.cache_hit_share",
                stats.cache_hits as f64 / lookups.max(1) as f64,
            ),
            ("core.engine.coalesced", stats.coalesced as f64),
        ]);
    }
}

pub fn generate_request(env: &Env, index: u64) -> GenerateParams {
    GenerateParams {
        style: Style::ALL[(index % 2) as usize],
        rows: env.scale.window,
        cols: env.scale.window,
        count: 1,
        seed: mix(env.master(index, env.scale.prefix_patterns), index),
    }
}

fn run_job(
    engine: &Engine,
    tally: &mut Tally,
    request: PatternRequest,
) -> Result<PatternResponse, Error> {
    tally.attempted += 1;
    engine.submit_blocking(request).wait()
}

/// Legality and diversity of topology groups as the product's own
/// `Evaluate` reports them: legal over total across the groups, and
/// the mean of the groups' diversities.
fn evaluate_quality(
    engine: &Engine,
    tally: &mut Tally,
    groups: Vec<(Vec<Topology>, i64)>,
) -> (f64, f64) {
    let (mut legal, mut total, mut bits, mut evaluated) = (0usize, 0usize, 0.0, 0usize);
    for (topologies, frame_nm) in groups.into_iter().filter(|(t, _)| !t.is_empty()) {
        let request = PatternRequest::Evaluate(EvaluateParams {
            topologies,
            frame_nm,
            seed: QUALITY_SEED,
        });
        match run_job(engine, tally, request) {
            Ok(PatternResponse {
                payload: ResponsePayload::Evaluate(stats),
                ..
            }) => {
                legal += stats.legal;
                total += stats.total;
                bits += stats.diversity;
                evaluated += 1;
            }
            Ok(other) => tally.fail(format!("Evaluate answered {:?}", other.payload)),
            Err(error) => tally.fail(format!("Evaluate failed: {error}")),
        }
    }
    (
        legal as f64 / total.max(1) as f64,
        bits / evaluated.max(1) as f64,
    )
}

/// The digest of a fixed prefix: per-operation digests in stream
/// order, or 0 when the run ended before the prefix completed.
fn prefix_digest(parts: &[Option<u64>]) -> u64 {
    let mut fnv = Fnv::new();
    for part in parts {
        match part {
            Some(digest) => fnv.u64(*digest),
            None => return 0,
        };
    }
    fnv.0
}

// ---------------------------------------------------------- fixed_generate

enum Stage {
    Generate,
    Legalize,
}

struct Job {
    index: u64,
    stage: Stage,
    submitted: Instant,
    op_started: Instant,
    root: Option<usize>,
    handle: JobHandle,
}

pub fn fixed_generate(env: &Env) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    let system = Arc::new(build_timed(env.scale.builder())?.0);
    let engine: Engine = PatternEngine::new(Arc::clone(&system));
    let window = env.scale.window;
    let frame_nm = env.scale.frame_nm(1);
    let prefix = env.scale.prefix_patterns;
    let mut prefix_topologies: Vec<Option<Topology>> = vec![None; prefix];
    let mut prefix_digests: Vec<Option<u64>> = vec![None; prefix];
    let mut times = EngineTimes::default();
    let mut tally = Tally::default();
    let mut next = 0u64;

    let slice = |_round: usize, deadline: Instant| {
        let mut slice = Slice::default();
        let mut pending: VecDeque<Job> = VecDeque::with_capacity(OUTSTANDING);
        let started = Instant::now();
        let mut last_done = started;
        loop {
            while pending.len() < OUTSTANDING && Instant::now() < deadline {
                let index = next;
                next += 1;
                tally.attempted += 1;
                let now = Instant::now();
                pending.push_back(Job {
                    index,
                    stage: Stage::Generate,
                    submitted: now,
                    op_started: now,
                    root: env.tracer.begin("op.pattern", index, None, now),
                    handle: engine
                        .submit_blocking(PatternRequest::Generate(generate_request(env, index))),
                });
            }
            let Some(job) = pending.pop_front() else {
                break;
            };
            let result = job.handle.wait();
            let now = Instant::now();
            last_done = now;
            let in_prefix = (job.index as usize) < prefix;
            match (job.stage, result) {
                (Stage::Generate, Ok(response)) => {
                    env.tracer.record(
                        "core.engine.generate",
                        job.index,
                        job.root,
                        job.submitted,
                        now,
                    );
                    times.push(&response.timing);
                    let topology = match response.payload {
                        ResponsePayload::Generate(mut t)
                            if t.len() == 1 && t[0].shape() == (window, window) =>
                        {
                            t.remove(0)
                        }
                        other => {
                            tally.fail(format!("Generate {} answered {other:?}", job.index));
                            continue;
                        }
                    };
                    if in_prefix {
                        prefix_topologies[job.index as usize] = Some(topology.clone());
                    }
                    tally.attempted += 1;
                    pending.push_back(Job {
                        stage: Stage::Legalize,
                        submitted: now,
                        handle: engine.submit_blocking(PatternRequest::Legalize(LegalizeParams {
                            topology,
                            width_nm: frame_nm,
                            height_nm: frame_nm,
                            seed: mix(env.master(job.index, prefix), job.index),
                        })),
                        ..job
                    });
                }
                (Stage::Legalize, Ok(response)) => {
                    env.tracer.record(
                        "core.engine.legalize",
                        job.index,
                        job.root,
                        job.submitted,
                        now,
                    );
                    env.tracer.finish(job.root, now);
                    let ResponsePayload::Legalize(pattern) = response.payload else {
                        tally.fail(format!("Legalize {} answered another kind", job.index));
                        continue;
                    };
                    if let Err(reason) =
                        check_delivered(&pattern, (window, window), frame_nm, system.rules())
                    {
                        tally.fail(format!("pattern {}: {reason}", job.index));
                        continue;
                    }
                    if in_prefix {
                        let mut fnv = Fnv::new();
                        digest_pattern(&mut fnv, &pattern);
                        prefix_digests[job.index as usize] = Some(fnv.0);
                    }
                    slice.ops += 1;
                    slice
                        .latencies_ms
                        .push((now - job.op_started).as_secs_f64() * 1e3);
                }
                // An illegal topology is a quality outcome (it lowers
                // legality_rate), not a failed operation.
                (Stage::Legalize, Err(Error::Legalize(_))) => {
                    env.tracer.finish(job.root, now);
                    if in_prefix {
                        prefix_digests[job.index as usize] = Some(0);
                    }
                }
                (_, Err(error)) => tally.fail(format!("job {}: {error}", job.index)),
            }
        }
        slice.wall_s = (last_done - started).as_secs_f64();
        Ok(slice)
    };
    loaded.rounds = run_rounds(
        env,
        Pace::Timed,
        || Ok(build_timed(env.scale.builder())?.1),
        slice,
    )?;

    // One Evaluate per style over the prefix, off the clock.
    let groups = Style::ALL
        .iter()
        .enumerate()
        .map(|(s, _)| {
            let of_style = prefix_topologies
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == s)
                .filter_map(|(_, t)| t.clone())
                .collect();
            (of_style, frame_nm)
        })
        .collect();
    (loaded.legality_rate, loaded.diversity_bits) = evaluate_quality(&engine, &mut tally, groups);
    loaded.payload_digest = prefix_digest(&prefix_digests);
    times.fill(&engine.stats(), &mut loaded);
    loaded.layer.insert("cp_diffusion.samples", next as f64);
    loaded.peak_rss_mb = own_peak_rss_mb();
    loaded.tally = tally;
    Ok(loaded)
}

// -------------------------------------------------------- free_size_extend

/// One group of the free-size stream: a base topology extended by
/// both methods at both factors.
pub const EXTEND_GROUP: [(ExtensionMethod, usize); 4] = [
    (ExtensionMethod::OutPainting, 4),
    (ExtensionMethod::InPainting, 4),
    (ExtensionMethod::OutPainting, 2),
    (ExtensionMethod::InPainting, 2),
];

/// Base topologies the groups cycle over.
const EXTEND_BASES: usize = 8;

/// Model calls of one extension (the paper's N_out / N_in).
pub fn extend_windows(method: ExtensionMethod, factor: usize, window: usize) -> usize {
    let side = window * factor;
    match method {
        ExtensionMethod::OutPainting => {
            out_painting_samples(side, side, window, (window / 2).max(1))
        }
        ExtensionMethod::InPainting => in_painting_samples(side, side, window),
    }
}

#[derive(Default)]
struct UserResult {
    tally: Tally,
    times: EngineTimes,
    /// `(stream index, latency ms)` of validated operations.
    done: Vec<(u64, f64)>,
    /// When this user's last operation completed.
    last_done: Option<Instant>,
    /// Prefix bookkeeping: `(stream index, digest, topology)`.
    prefix: Vec<(u64, u64, Option<Topology>)>,
    samples: u64,
}

/// The stream indices of round `round`: one group per CPU, the long
/// operations of all its groups first, so the users stay busy side by
/// side until the round's last, short operations. Every round is the
/// same work, so the rounds compare.
fn round_indices(round: usize, cpus: usize) -> Vec<u64> {
    let per_group = EXTEND_GROUP.len();
    (0..per_group)
        .flat_map(|kind| (0..cpus).map(move |g| ((round * cpus + g) * per_group + kind) as u64))
        .collect()
}

pub fn free_size_extend(env: &Env) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    let system = Arc::new(build_timed(env.scale.builder())?.0);
    let engine: Engine = PatternEngine::new(Arc::clone(&system));
    let window = env.scale.window;
    let mut tally = Tally::default();

    // Base topologies come from the system itself, off the clock.
    let mut bases = Vec::with_capacity(EXTEND_BASES);
    for b in 0..EXTEND_BASES as u64 {
        // The bases are the same for every `--seed`: the prefix
        // operations extend them, and the prefix must repeat exactly.
        let request = PatternRequest::Generate(GenerateParams {
            seed: mix(QUALITY_SEED, 5_000_000 + b),
            ..generate_request(env, b)
        });
        match run_job(&engine, &mut tally, request) {
            Ok(PatternResponse {
                payload: ResponsePayload::Generate(mut t),
                ..
            }) if t.len() == 1 => bases.push(t.remove(0)),
            other => return Err(format!("cannot generate base topology {b}: {other:?}")),
        }
    }

    let prefix = env.scale.prefix_extends as u64;
    let mut users: Vec<UserResult> = (0..env.cpus).map(|_| UserResult::default()).collect();
    let slice = |round: usize, _deadline: Instant| {
        let indices = round_indices(round, env.cpus);
        let claimed = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for user in users.iter_mut() {
                let (indices, claimed, system, engine, bases) =
                    (&indices, &claimed, &system, &engine, &bases);
                scope.spawn(move || {
                    while let Some(&index) =
                        indices.get(claimed.fetch_add(1, Ordering::Relaxed) as usize)
                    {
                        extend_op(env, system, engine, bases, index, index < prefix, user);
                        user.last_done = Some(Instant::now());
                    }
                });
            }
        });
        let mut slice = Slice::default();
        let mut last_done = started;
        for user in users.iter_mut() {
            last_done = last_done.max(user.last_done.unwrap_or(started));
            for (index, latency_ms) in user.done.drain(..) {
                slice.ops += 1;
                // Latency is reported over the 4x operations alone: mixing
                // 0.3 s and 1.7 s populations would make the median flip
                // between them. The 2x operations count in ops_per_s.
                if EXTEND_GROUP[(index % 4) as usize].1 == 4 {
                    slice.latencies_ms.push(latency_ms);
                }
            }
        }
        slice.wall_s = (last_done - started).as_secs_f64();
        Ok(slice)
    };
    loaded.rounds = run_rounds(
        env,
        Pace::Work,
        || Ok(build_timed(env.scale.builder())?.1),
        slice,
    )?;

    let mut times = EngineTimes::default();
    let mut prefix_parts: Vec<Option<(u64, Option<Topology>)>> = vec![None; prefix as usize];
    let mut samples = 0;
    for user in users {
        tally.merge(user.tally);
        times.merge(user.times);
        samples += user.samples;
        for (index, digest, topology) in user.prefix {
            prefix_parts[index as usize] = Some((digest, topology));
        }
    }

    // One Evaluate per factor over the prefix, off the clock.
    let groups = [4usize, 2]
        .iter()
        .map(|&factor| {
            let of_factor = prefix_parts
                .iter()
                .enumerate()
                .filter(|(i, _)| EXTEND_GROUP[i % 4].1 == factor)
                .filter_map(|(_, part)| part.as_ref().and_then(|(_, t)| t.clone()))
                .collect();
            (of_factor, env.scale.frame_nm(factor))
        })
        .collect();
    (loaded.legality_rate, loaded.diversity_bits) = evaluate_quality(&engine, &mut tally, groups);
    let digests: Vec<Option<u64>> = prefix_parts
        .iter()
        .map(|part| part.as_ref().map(|(d, _)| *d))
        .collect();
    loaded.payload_digest = prefix_digest(&digests);
    times.fill(&engine.stats(), &mut loaded);
    loaded.layer.insert("cp_diffusion.samples", samples as f64);
    loaded.layer.insert(
        "cp_extend.windows_4x",
        (extend_windows(ExtensionMethod::OutPainting, 4, window)
            + extend_windows(ExtensionMethod::InPainting, 4, window)) as f64,
    );
    loaded.peak_rss_mb = own_peak_rss_mb();
    loaded.tally = tally;
    Ok(loaded)
}

pub fn extend_request(env: &Env, bases: &[Topology], index: u64) -> ExtendParams {
    let group = index / EXTEND_GROUP.len() as u64;
    let (method, factor) = EXTEND_GROUP[(index % 4) as usize];
    ExtendParams {
        seed_topology: bases[(group as usize) % bases.len()].clone(),
        rows: env.scale.window * factor,
        cols: env.scale.window * factor,
        method,
        style: Style::ALL[(group % 2) as usize],
        seed: mix(env.master(index, env.scale.prefix_extends), index),
    }
}

/// One free-size operation: Extend, then Legalize into the scaled
/// frame, both through the engine, validated on the spot.
fn extend_op(
    env: &Env,
    system: &ChatPattern,
    engine: &Engine,
    bases: &[Topology],
    index: u64,
    in_prefix: bool,
    user: &mut UserResult,
) {
    let params = extend_request(env, bases, index);
    let (method, factor) = EXTEND_GROUP[(index % 4) as usize];
    let shape = (params.rows, params.cols);
    let frame_nm = env.scale.frame_nm(factor);
    user.samples += extend_windows(method, factor, env.scale.window) as u64;

    let started = Instant::now();
    let root = env.tracer.begin("op.extend", index, None, started);
    let extended = run_job(engine, &mut user.tally, PatternRequest::Extend(params));
    let mid = Instant::now();
    env.tracer
        .record("core.engine.extend", index, root, started, mid);
    let topology = match extended {
        Ok(response) => {
            user.times.push(&response.timing);
            match response.payload {
                ResponsePayload::Extend(t) if t.shape() == shape => t,
                other => {
                    user.tally.fail(format!(
                        "Extend {index} answered {other:?}, wanted {shape:?}"
                    ));
                    return;
                }
            }
        }
        Err(error) => {
            user.tally.fail(format!("Extend {index}: {error}"));
            return;
        }
    };
    let legalized = run_job(
        engine,
        &mut user.tally,
        PatternRequest::Legalize(LegalizeParams {
            topology: topology.clone(),
            width_nm: frame_nm,
            height_nm: frame_nm,
            seed: mix(env.master(index, env.scale.prefix_extends), index),
        }),
    );
    let finished = Instant::now();
    env.tracer
        .record("core.engine.legalize", index, root, mid, finished);
    env.tracer.finish(root, finished);
    let mut fnv = Fnv::new();
    digest_topology(&mut fnv, &topology);
    match legalized {
        Ok(response) => {
            let ResponsePayload::Legalize(pattern) = response.payload else {
                user.tally
                    .fail(format!("Legalize {index} answered another kind"));
                return;
            };
            if let Err(reason) = check_delivered(&pattern, shape, frame_nm, system.rules()) {
                user.tally.fail(format!("extend {index}: {reason}"));
                return;
            }
            digest_pattern(&mut fnv, &pattern);
        }
        // Illegal at this frame: a quality outcome, not a failure.
        Err(Error::Legalize(_)) => {}
        Err(error) => {
            user.tally.fail(format!("Legalize {index}: {error}"));
            return;
        }
    }
    user.done
        .push((index, (finished - started).as_secs_f64() * 1e3));
    if in_prefix {
        user.prefix.push((index, fnv.0, Some(topology)));
    }
}

// ------------------------------------------------------------ chat_sessions

pub const TURNS_PER_DIALOG: usize = 8;
/// Dialogs live at once — more than the store's capacity, so cold
/// ones are evicted (spilled) and rehydrated.
const LIVE_DIALOGS: usize = 12;
pub const MAX_SESSIONS: usize = 8;
/// Patterns every utterance of the corpus asks for.
pub const PATTERNS_PER_TURN: usize = 2;

/// The fixed utterance corpus: the opening requirement, then
/// follow-ups that inherit it (each keeps the count at two patterns,
/// so turn cost stays one population).
pub fn utterance(env: &Env, dialog: u64, turn: usize) -> String {
    const FOLLOW_UPS: [&str; 5] = [
        "now make them denser",
        "now make them sparser",
        "generate 2 more patterns",
        "2 more patterns in style Layer-10003",
        "2 more patterns in style Layer-10001",
    ];
    if turn == 0 {
        let w = env.scale.window;
        let nm = env.scale.frame_nm(1);
        let style = Style::ALL[(dialog % 2) as usize].name();
        format!(
            "Generate {PATTERNS_PER_TURN} patterns, topology size {w}*{w}, physical size \
             {nm}nm x {nm}nm, style {style}."
        )
    } else {
        let master = env.master(dialog, env.scale.prefix_dialogs);
        let pick = mix(master, dialog * 16 + turn as u64) % FOLLOW_UPS.len() as u64;
        FOLLOW_UPS[pick as usize].to_owned()
    }
}

pub fn session_builder(env: &Env, dir: &std::path::Path) -> chatpattern::ChatPatternBuilder {
    env.scale
        .builder()
        .max_sessions(MAX_SESSIONS)
        .session_dir(dir)
        .persist_shards(4)
        .spill_ahead_turns(1)
}

struct Slot {
    dialog: u64,
    turns_done: usize,
    library_len: usize,
}

#[derive(Default)]
struct ChatUser {
    tally: Tally,
    times: EngineTimes,
    /// Latency (ms) of validated turns.
    turns_ms: Vec<f64>,
    /// When this user's last turn completed.
    last_done: Option<Instant>,
    tool_calls: u64,
    /// Closed prefix dialogs: `(dialog, digest, library topologies)`.
    closed: Vec<(u64, u64, Vec<Topology>)>,
}

pub fn chat_sessions(env: &Env) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    let dir = env.temp_dir("sessions")?;
    let system = Arc::new(build_timed(session_builder(env, &dir.0))?.0);
    let engine: Engine = PatternEngine::new(Arc::clone(&system));
    let slots: Vec<Mutex<Slot>> = (0..LIVE_DIALOGS as u64)
        .map(|dialog| {
            Mutex::new(Slot {
                dialog,
                turns_done: 0,
                library_len: 0,
            })
        })
        .collect();
    let next_dialog = AtomicU64::new(LIVE_DIALOGS as u64);
    let popularity = Zipf::new(LIVE_DIALOGS);
    // One closed-loop user per CPU; each keeps its seeded choices and
    // its tallies across the rounds.
    let mut users: Vec<(ChatUser, ChaCha8Rng)> = (0..env.cpus as u64)
        .map(|u| {
            (
                ChatUser::default(),
                ChaCha8Rng::seed_from_u64(mix(env.seed, 7_000_000 + u)),
            )
        })
        .collect();

    let slice = |_round: usize, deadline: Instant| {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (user, rng) in users.iter_mut() {
                let (slots, next_dialog, engine, system, popularity) =
                    (&slots, &next_dialog, &engine, &system, &popularity);
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        // A dialog another user is mid-turn on is
                        // skipped: turns of one dialog never overlap.
                        let Ok(mut slot) = slots[popularity.rank(rng.gen())].try_lock() else {
                            continue;
                        };
                        chat_turn(env, system, engine, &mut slot, next_dialog, user);
                        user.last_done = Some(Instant::now());
                    }
                });
            }
        });
        let mut slice = Slice::default();
        let mut last_done = started;
        for (user, _) in users.iter_mut() {
            last_done = last_done.max(user.last_done.unwrap_or(started));
            slice.latencies_ms.append(&mut user.turns_ms);
        }
        slice.ops = slice.latencies_ms.len() as u64;
        slice.wall_s = (last_done - started).as_secs_f64();
        Ok(slice)
    };
    // A set-up builds a whole second system over a session directory
    // of its own, while the first one idles.
    let setup = || {
        let fresh = env.temp_dir("sessions-setup")?;
        Ok(build_timed(session_builder(env, &fresh.0))?.1)
    };
    loaded.rounds = run_rounds(env, Pace::Timed, setup, slice)?;

    let mut tally = Tally::default();
    let mut times = EngineTimes::default();
    let prefix = env.scale.prefix_dialogs;
    let mut closed: Vec<Option<(u64, Vec<Topology>)>> = vec![None; prefix];
    let mut tool_calls = 0;
    for (user, _) in users {
        tally.merge(user.tally);
        times.merge(user.times);
        tool_calls += user.tool_calls;
        for (dialog, digest, library) in user.closed {
            closed[dialog as usize] = Some((digest, library));
        }
    }
    let ops = loaded.ops();

    // Off the clock: prefix dialogs that sat in a cold slot and are
    // still open get their remaining turns now, so the quality prefix
    // is complete on every run.
    let mut finisher = ChatUser::default();
    for slot in &slots {
        let mut slot = slot.lock().expect("no chat user panicked");
        while (slot.dialog as usize) < prefix {
            chat_turn(
                env,
                &system,
                &engine,
                &mut slot,
                &next_dialog,
                &mut finisher,
            );
        }
    }
    tally.merge(finisher.tally);
    for (dialog, digest, library) in finisher.closed {
        closed[dialog as usize] = Some((digest, library));
    }

    let library: Vec<&Topology> = closed
        .iter()
        .flatten()
        .flat_map(|(_, topologies)| topologies)
        .collect();
    let requested = closed.iter().flatten().count() * TURNS_PER_DIALOG * PATTERNS_PER_TURN;
    loaded.legality_rate = library.len() as f64 / requested.max(1) as f64;
    loaded.diversity_bits = chatpattern::metrics::diversity(library.into_iter());
    let digests: Vec<Option<u64>> = closed.iter().map(|c| c.as_ref().map(|(d, _)| *d)).collect();
    loaded.payload_digest = prefix_digest(&digests);

    let sessions = system.session_stats();
    times.fill(&engine.stats(), &mut loaded);
    loaded.layer.extend([
        ("core.session.spilled", sessions.spilled as f64),
        ("core.session.restored", sessions.restored as f64),
        ("core.session.spilled_ahead", sessions.spilled_ahead as f64),
        (
            "cp_agent.tool_calls_per_turn",
            tool_calls as f64 / ops.max(1) as f64,
        ),
        (
            "cp_diffusion.samples",
            (ops as usize * PATTERNS_PER_TURN) as f64,
        ),
    ]);
    loaded.peak_rss_mb = own_peak_rss_mb();
    loaded.tally = tally;
    Ok(loaded)
}

/// One turn on the dialog in `slot` (opening it first when new,
/// closing and replacing it after its last turn).
fn chat_turn(
    env: &Env,
    system: &ChatPattern,
    engine: &Engine,
    slot: &mut Slot,
    next_dialog: &AtomicU64,
    user: &mut ChatUser,
) {
    let session = format!("d{}", slot.dialog);
    let window = env.scale.window;
    if slot.turns_done == 0 {
        let open = PatternRequest::SessionOpen(SessionOpenParams {
            session: session.clone(),
            seed: Some(mix(
                env.master(slot.dialog, env.scale.prefix_dialogs),
                slot.dialog,
            )),
        });
        if let Err(error) = run_job(engine, &mut user.tally, open) {
            user.tally.fail(format!("open {session}: {error}"));
        }
    }
    let request = PatternRequest::SessionTurn(SessionTurnParams {
        session: session.clone(),
        utterance: utterance(env, slot.dialog, slot.turns_done),
    });
    let op_id = slot.dialog * 16 + slot.turns_done as u64;
    let started = Instant::now();
    let result = run_job(engine, &mut user.tally, request);
    let finished = Instant::now();
    env.tracer.record("op.turn", op_id, None, started, finished);
    slot.turns_done += 1;
    match result {
        Ok(PatternResponse {
            payload: ResponsePayload::SessionTurn(outcome),
            timing,
        }) => {
            user.times.push(&timing);
            user.tool_calls += outcome.tool_calls as u64;
            let fresh = outcome.library.get(slot.library_len..).unwrap_or(&[]);
            let bad = fresh.iter().find_map(|p| {
                check_delivered(p, (window, window), env.scale.frame_nm(1), system.rules()).err()
            });
            if outcome.turn != slot.turns_done {
                user.tally.fail(format!(
                    "{session}: turn {} answered as turn {}",
                    slot.turns_done, outcome.turn
                ));
            } else if let Some(reason) = bad {
                user.tally.fail(format!("{session}: {reason}"));
            } else {
                slot.library_len = outcome.library.len();
                user.turns_ms.push((finished - started).as_secs_f64() * 1e3);
            }
        }
        Ok(other) => user
            .tally
            .fail(format!("{session}: turn answered {:?}", other.payload)),
        Err(error) => user.tally.fail(format!("{session}: {error}")),
    }
    if slot.turns_done < TURNS_PER_DIALOG {
        return;
    }
    let close = PatternRequest::SessionClose(SessionCloseParams {
        session: session.clone(),
    });
    match run_job(engine, &mut user.tally, close) {
        Ok(PatternResponse {
            payload: ResponsePayload::SessionClose(outcome),
            ..
        }) => {
            if (slot.dialog as usize) < env.scale.prefix_dialogs {
                let mut fnv = Fnv::new();
                for pattern in &outcome.library {
                    digest_pattern(&mut fnv, pattern);
                }
                let topologies = outcome
                    .library
                    .iter()
                    .map(|p| p.topology().clone())
                    .collect();
                user.closed.push((slot.dialog, fnv.0, topologies));
            }
        }
        Ok(other) => user
            .tally
            .fail(format!("{session}: close answered {:?}", other.payload)),
        Err(error) => user.tally.fail(format!("close {session}: {error}")),
    }
    *slot = Slot {
        dialog: next_dialog.fetch_add(1, Ordering::Relaxed),
        turns_done: 0,
        library_len: 0,
    };
}
