//! The two sweeps no `benchmark/` workload carries yet, and the CI
//! regression gate over them. (The name dates from when this binary
//! swept engine backends; throughput, latency, sessions, the wire and
//! the router are measured at the paper's scale by `benchmark/`'s five
//! workloads — `docs/ENGINE.md`, "Benchmarks", says which metric took
//! over from which sweep.)
//!
//! * `hot_loops` — the surgically-tuned loops in isolation:
//!   `Layout::union_area`, `SquishPattern::from_layout` and the
//!   legalizer solve on a dense synthetic layout, one 128×128 denoise
//!   step and one 128×128 sample of the diffusion model, and the
//!   decode / cache-key / encode passes of one ≈ 33 kB wire line.
//! * `connection_scaling` — [`CONN_IDLE`] idle + [`CONN_ACTIVE`] active
//!   connections against an in-process loopback serve, up to 1024
//!   idle, with the active requests' round-trip latency and a
//!   sustained-idle-connection proof.
//!
//! Every gated number rests on [`ROUNDS`] measurements: the two sweeps
//! take turns, a whole round of each at a time, so the measurements
//! behind a number are spread over the run's two seconds and not over
//! one burst of a neighbour's. A single shot of these rows bounces
//! 1.5–4× between two runs of one tree on a shared host.
//!
//! * A `hot_loops` row is the smallest of its rounds: the loops are
//!   CPU-bound, a neighbour can only add time, so the quietest round
//!   is the one that measures the code (1.3× between runs).
//! * A `connection_scaling` row is the middle one of its rounds by
//!   median round trip, each round from scratch (new server,
//!   connections and threads — where the scheduler puts them moves the
//!   median by 1.7×, and only a fresh set draws again). Not the
//!   smallest: a round reads low when its active threads happened not
//!   to overlap, one client ping-ponging alone at 0.02 ms against 0.07
//!   for four — another measurement, not a quieter one. Over 12 runs
//!   of 40 rounds the smallest of nine spanned 2.7×, the middle of nine
//!   1.5×.
//!
//! What no repetition steadies is a tail: the p99 of a round's hundred
//! sub-millisecond calls is its second-slowest, i.e. whichever call a
//! neighbour landed on, so the middle round's is printed and recorded
//! as `p99_ungated_ms`, outside the `*millis` keys the gate reads.
//!
//! Prints a table and writes `BENCH_ENGINE.json` (in the working
//! directory); the model is scaled by the usual `CP_*` variables.
//!
//! With `--check` the binary becomes a regression gate: it runs the
//! same sweeps but, instead of overwriting `BENCH_ENGINE.json`,
//! compares every `*millis` metric against the committed baseline
//! (`--baseline PATH`, default `BENCH_ENGINE.json`) and exits
//! non-zero when any is slower than `--threshold` times its baseline
//! (default `1.5`). The run also fails when the baseline lacks a
//! metric this bench emits (a stale baseline leaves new series
//! unguarded). When the baseline was recorded at a different config
//! (window / steps / train / CPU count / vector instruction set — a
//! baseline that does not say which counts as different) the
//! comparison is advisory: ratios and staleness are printed but never
//! fail the run.

use chatpattern_core::{ChatPattern, PatternRequest, PatternService};
use cp_bench::BenchConfig;
use cp_dataset::Style;
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Rounds behind every gated number; a round of both sweeps takes
/// about a quarter of a second.
const ROUNDS: usize = 9;

/// Idle connections of the `connection_scaling` rows, one row each.
const CONN_IDLE: [usize; 4] = [32, 256, 512, 1024];

/// Connections that make calls while the idle ones are held open.
const CONN_ACTIVE: usize = 4;

/// Calls each active connection makes in one round.
const CONN_CALLS: usize = 25;

/// The widest vector instruction set this CPU offers the keystream and
/// draw-compare kernels, which pick theirs the same way (`rand_chacha`,
/// `cp_diffusion`): `sample_128_millis` differs 2× between an SSE2 and
/// an AVX-512 host that agree on everything else a baseline records.
fn simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    return if is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    };
    #[cfg(not(target_arch = "x86_64"))]
    "portable"
}

/// Milliseconds one call of `work` takes.
fn time_ms(work: impl FnOnce()) -> f64 {
    let started = Instant::now();
    work();
    started.elapsed().as_secs_f64() * 1e3
}

/// The rows of `hot_loops`, in the order a round times them.
const HOT_ROWS: [&str; 8] = [
    "union_area",
    "squish_encode",
    "legalize",
    "denoise_step",
    "sample_128",
    "wire_decode_33k",
    "request_key_33k",
    "wire_encode_33k",
];

/// What [`hot_loops`] set up.
struct HotLoops<R> {
    /// Scan-grid size the three layout loops run over.
    grid: (usize, usize),
    /// Size of the request line the wire rows handle.
    wire_line_bytes: usize,
    /// Times each of [`HOT_ROWS`] once, in milliseconds: the first
    /// five over [`HOT_REPS`] calls, the wire rows over [`WIRE_REPS`].
    round: R,
}

/// Rectangles in the synthetic layout of the three layout rows.
const HOT_RECTS: usize = 192;

/// Calls behind one timing of the layout and diffusion rows.
const HOT_REPS: usize = 10;

/// Side of the window the two diffusion rows run at: the paper's,
/// whatever `CP_WINDOW` the rest of the bench uses (the denoiser is
/// size-agnostic).
const HOT_WINDOW: usize = 128;

/// Calls behind one timing of the three wire-codec rows (each pass is
/// tens of microseconds, so they take more than [`HOT_REPS`]).
const WIRE_REPS: usize = 100;

/// The surgically-optimised inner loops, isolated from the engine:
/// `Layout::union_area` (row-band sweep over one reused coverage
/// mask), `SquishPattern::from_layout` (per-rect block fill) and the
/// legalizer solve (flat bound collection plus buffer-reusing area
/// repair), all on one dense synthetic layout; then `denoise_step`
/// (one table-driven `predict_x0` of a 128×128 window, averaged over
/// every step `k` of one K-step reverse chain — the final third of the
/// steps also runs the top-k quantile and the regularization, which a
/// single mid-chain step never does) and `sample_128` (the whole K-step
/// reverse chain of one 128×128 window, draws included) on the
/// system's own model; and the codec passes of one wire request, on the
/// ≈ 33 kB line that asks to legalize such a sample: `wire_decode_33k`
/// (`decode_request_line`),
/// `request_key_33k` (the engine's cache key) and `wire_encode_33k`
/// (`ResponseEnvelope::to_line` of the legalized reply). Builds the
/// inputs once; every call of the returned `round` times each row once.
fn hot_loops<'a>(
    system: &'a ChatPattern,
    cfg: &BenchConfig,
) -> HotLoops<impl FnMut() -> [f64; HOT_ROWS.len()] + 'a> {
    use chatpattern_core::routing::request_key;
    use chatpattern_core::wire::{decode_request_line, RequestEnvelope, ResponseEnvelope};
    use chatpattern_core::LegalizeParams;
    use cp_diffusion::Denoiser;
    use cp_layout::drc::DesignRules;
    use cp_layout::geom::{Layout, Rect};
    use cp_layout::legalize::Legalizer;
    use cp_layout::squish::SquishPattern;
    use rand::{Rng, SeedableRng};
    use std::hint::black_box;

    let frame = 4096i64;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut layout = Layout::new(Rect::new(0, 0, frame, frame));
    for _ in 0..HOT_RECTS {
        let x0 = rng.gen_range(0..frame - 256);
        let y0 = rng.gen_range(0..frame - 256);
        let w = rng.gen_range(16..256);
        let h = rng.gen_range(16..256);
        layout.push(Rect::new(x0, y0, x0 + w, y0 + h));
    }
    assert!(layout.union_area() > 0, "synthetic layout draws something");
    let topology = SquishPattern::from_layout(&layout).topology().clone();
    let (rows, cols) = topology.shape();
    // 64 nm per interval against 20 nm rule minimums: the solve always
    // succeeds, so the timing measures the solver, not failure paths.
    let legal_w = 64 * (cols as i64 + 1);
    let legal_h = 64 * (rows as i64 + 1);
    let legalizer = Legalizer::new(DesignRules::new(20, 20, 400));

    let model = system.model();
    let style = Some(Style::Layer10001.id());
    let mut sample_rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let sample = model.sample(HOT_WINDOW, HOT_WINDOW, style, &mut sample_rng);
    let steps = model.schedule().len();
    // The input of every step of one reverse chain, from the fully
    // noised window down to `k = 1`.
    let mut chain = Vec::with_capacity(steps);
    let mut x = model.forward_noised(&sample, steps, &mut sample_rng);
    for k in (1..=steps).rev() {
        let next = model.reverse_step(&x, k, style, &mut sample_rng);
        chain.push((x, k));
        x = next;
    }

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
    let envelope = decode_request_line(&line).expect("own line decodes");
    let response = system
        .execute(envelope.request.clone())
        .expect("the model's own sample legalizes in a generous frame");
    let reply = ResponseEnvelope::ok(envelope.id, response);

    let seed = cfg.seed;
    let wire_line_bytes = line.len();
    let round = move || {
        [
            time_ms(|| {
                for _ in 0..HOT_REPS {
                    black_box(black_box(&layout).union_area());
                }
            }),
            time_ms(|| {
                for _ in 0..HOT_REPS {
                    black_box(SquishPattern::from_layout(black_box(&layout)));
                }
            }),
            time_ms(|| {
                for i in 0..HOT_REPS {
                    let mut legalize_rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed + i as u64);
                    let legalized = legalizer
                        .legalize(&topology, legal_w, legal_h, &mut legalize_rng)
                        .expect("synthetic topology legalizes in a generous frame");
                    black_box(legalized);
                }
            }),
            time_ms(|| {
                for _ in 0..HOT_REPS {
                    for (x, k) in &chain {
                        black_box(model.denoiser().predict_x0(black_box(x), *k, steps, style));
                    }
                }
            }) / chain.len() as f64,
            time_ms(|| {
                for _ in 0..HOT_REPS {
                    black_box(model.sample(HOT_WINDOW, HOT_WINDOW, style, &mut sample_rng));
                }
            }),
            time_ms(|| {
                for _ in 0..WIRE_REPS {
                    black_box(decode_request_line(black_box(&line)).expect("own line decodes"));
                }
            }),
            time_ms(|| {
                for _ in 0..WIRE_REPS {
                    black_box(request_key(black_box(&envelope.request)));
                }
            }),
            time_ms(|| {
                for _ in 0..WIRE_REPS {
                    black_box(black_box(&reply).to_line());
                }
            }),
        ]
    };
    HotLoops {
        grid: (rows, cols),
        wire_line_bytes,
        round,
    }
}

/// One `connection_scaling` measurement.
struct ConnScale {
    p50_ms: f64,
    /// Reported, not gated (see the module doc).
    p99_ms: f64,
    /// Idle connections that still answered a request after the
    /// active burst (the "sustained" proof).
    sustained: usize,
    /// The engine's peak concurrent-connection counter for the run.
    peak: u64,
}

/// One Stats round trip (cheap engine work, so its latency is
/// transport + submit-path overhead); whether it was answered `Ok`.
#[cfg(unix)]
fn stats_answered(client: &mut cp_net::NdjsonClient, id: usize) -> bool {
    use chatpattern_core::wire::{RequestEnvelope, WireOutcome};
    client
        .call(&RequestEnvelope {
            id: serde_json::to_value(&(id as u64)),
            tenant: None,
            request: PatternRequest::Stats,
        })
        .is_ok_and(|reply| matches!(reply.outcome, WireOutcome::Ok(_)))
}

/// C idle + K active connections against an in-process loopback serve:
/// open `idle` connections that say hello once (so the next connect
/// finds the last one accepted — a tight loop of a thousand connects
/// overruns the listen backlog and waits seconds on SYN retries) and
/// then sit silent through the measurement, then run `active`
/// connections each doing `calls` strictly sequential Stats
/// round-trips — what grows with the connection count is exactly their
/// latency. Afterwards every idle connection is pinged once; the count
/// that still answers is the sustained-connection proof.
#[cfg(unix)]
fn run_connection_scaling(
    system: &Arc<ChatPattern>,
    idle: usize,
    active: usize,
    calls: usize,
) -> Result<ConnScale, String> {
    use chatpattern_core::PatternEngine;
    use cp_net::{ClientConfig, EngineHandler, NdjsonClient};

    let engine = Arc::new(PatternEngine::new(Arc::clone(system)));
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
        let mut client = NdjsonClient::connect(&addr, config.clone())
            .map_err(|e| format!("idle connect {i} failed: {e}"))?;
        if !stats_answered(&mut client, i) {
            return Err(format!("idle connection {i} got no answer to its hello"));
        }
        idle_conns.push(client);
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
                    if !stats_answered(&mut client, conn * calls + call) {
                        return Err("active request failed".to_owned());
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

    let sustained = idle_conns
        .iter_mut()
        .enumerate()
        .map(|(i, client)| usize::from(stats_answered(client, 1_000_000 + i)))
        .sum();
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

/// A row's rounds as one measurement: the middle round by median
/// round trip (see the module doc for why not the smallest). The
/// sustained proof has to hold in every round, so the fewest sustained
/// and the highest peak of any round are reported; a round that failed
/// fails the row.
fn middle_round(rounds: Vec<Result<ConnScale, String>>) -> Result<ConnScale, String> {
    let mut rounds = rounds.into_iter().collect::<Result<Vec<_>, _>>()?;
    let sustained = rounds.iter().map(|round| round.sustained).min();
    let peak = rounds.iter().map(|round| round.peak).max();
    rounds.sort_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms));
    let middle = rounds.len() / 2;
    Ok(ConnScale {
        sustained: sustained.ok_or("no round ran")?,
        peak: peak.ok_or("no round ran")?,
        ..rounds.swap_remove(middle)
    })
}

/// `--check` mode options.
#[derive(Debug, PartialEq)]
struct CheckMode {
    threshold: f64,
    baseline: String,
}

const USAGE: &str = "usage: engine_scaling [--check [--threshold FACTOR] [--baseline PATH]]";

/// `None` records a baseline, `Some` checks against one. `--threshold`
/// and `--baseline` only mean something to a check, so without
/// `--check` they are refused rather than dropped on the way to
/// overwriting the file they were meant to be compared with.
fn parse_check_args(mut args: impl Iterator<Item = String>) -> Result<Option<CheckMode>, String> {
    let mut check = false;
    let mut threshold = None;
    let mut baseline = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--threshold" => {
                let factor = args.next().and_then(|v| v.parse().ok());
                threshold = Some(factor.ok_or("--threshold needs a number")?);
            }
            "--baseline" => baseline = Some(args.next().ok_or("--baseline needs a path")?),
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    if !check {
        return match (threshold, baseline) {
            (None, None) => Ok(None),
            (Some(_), _) => Err(format!("--threshold needs --check; {USAGE}")),
            (None, Some(_)) => Err(format!("--baseline needs --check; {USAGE}")),
        };
    }
    Ok(Some(CheckMode {
        threshold: threshold.unwrap_or(1.5),
        baseline: baseline.unwrap_or_else(|| "BENCH_ENGINE.json".to_owned()),
    }))
}

/// Flattens every `*millis` number in a result tree into
/// `(path, value)` pairs; a `connection_scaling` row is identified by
/// its `connections` count, so rows match across runs even when their
/// order changes.
fn collect_millis(prefix: &str, value: &Value, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(map) => {
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
        Value::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                let label = item
                    .get("connections")
                    .and_then(Value::as_u64)
                    .map_or(index.to_string(), |n| format!("connections={n}"));
                collect_millis(&format!("{prefix}[{label}]."), item, out);
            }
        }
        _ => {}
    }
}

/// Compares freshly-measured results against a baseline's. Returns
/// whether the run passes (no metric slower than `threshold ×` its
/// baseline and none missing from it, or a config mismatch that makes
/// both advisory) and the report to print.
fn check_against_baseline(current: &Value, baseline: &Value, threshold: f64) -> (bool, String) {
    let mut report = String::new();
    // A baseline recorded at another scale (or host) still prints the
    // ratios, but only a same-config comparison can fail the build.
    let config_matches = ["window", "steps", "train", "cpus", "simd"]
        .iter()
        .all(|key| baseline.get(key) == current.get(key));
    if !config_matches {
        let _ = writeln!(
            report,
            "check: baseline config differs from this run — ratios are advisory, \
             the check cannot fail"
        );
    }

    let mut baseline_metrics = Vec::new();
    collect_millis("", baseline, &mut baseline_metrics);
    let mut current_metrics = Vec::new();
    collect_millis("", current, &mut current_metrics);
    let current_by_path: std::collections::HashMap<&str, f64> = current_metrics
        .iter()
        .map(|(path, value)| (path.as_str(), *value))
        .collect();

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut worst = 0.0f64;
    for (path, base) in &baseline_metrics {
        let Some(now) = current_by_path.get(path.as_str()) else {
            let _ = writeln!(report, "  {path:<60} skipped (not measured in this run)");
            continue;
        };
        compared += 1;
        let ratio = if *base > 0.0 { now / base } else { 1.0 };
        worst = worst.max(ratio);
        let verdict = if ratio <= threshold {
            "ok"
        } else {
            regressions += 1;
            "REGRESSION"
        };
        let _ = writeln!(
            report,
            "  {path:<60} {now:9.3} ms vs {base:9.3} ms  {ratio:5.2}x  {verdict}"
        );
    }
    let _ = writeln!(
        report,
        "check: {compared} metrics compared, worst {worst:.2}x, {regressions} over {threshold:.2}x"
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
            let _ = writeln!(report, "  {path:<60} MISSING from baseline");
            stale += 1;
        }
    }
    if stale > 0 {
        let _ = writeln!(
            report,
            "check: STALE baseline — {stale} metric(s) measured by this bench are absent \
             from it; regenerate it by running engine_scaling without --check and \
             committing the new file"
        );
    }
    ((regressions == 0 && stale == 0) || !config_matches, report)
}

fn main() {
    let check = parse_check_args(std::env::args().skip(1)).unwrap_or_else(|complaint| {
        eprintln!("{complaint}");
        std::process::exit(2);
    });
    let cfg = BenchConfig::from_env().unwrap_or_else(|complaint| {
        eprintln!("{complaint}");
        std::process::exit(2);
    });
    cfg.print_banner("Engine scaling: hot loops and connection scaling");

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let simd = simd();
    let system = Arc::new(cfg.build_system());
    println!(
        "window {}, {cpus} CPU(s), {simd} vectors, {ROUNDS} rounds (connection_scaling: the \
         middle one, hot_loops: the fastest):",
        cfg.window
    );

    #[cfg(unix)]
    cp_net::raise_nofile_limit();
    let mut hot = hot_loops(&system, &cfg);

    // Whole sweeps take turns, so the rounds behind each number are
    // spread over the run — seconds — and not over one burst of a
    // neighbour's; every connection round starts from scratch (new
    // server, connections and threads), so it draws its own placement
    // on the CPUs.
    let mut conn_rounds: Vec<Vec<_>> = CONN_IDLE.iter().map(|_| Vec::new()).collect();
    let mut hot_best = [f64::INFINITY; HOT_ROWS.len()];
    for _ in 0..ROUNDS {
        #[cfg(unix)]
        for (rounds, &idle) in conn_rounds.iter_mut().zip(&CONN_IDLE) {
            rounds.push(run_connection_scaling(
                &system,
                idle,
                CONN_ACTIVE,
                CONN_CALLS,
            ));
        }
        for (best, ms) in hot_best.iter_mut().zip((hot.round)()) {
            *best = best.min(ms);
        }
    }

    // Connection scaling: C idle + K active connections, up to 1024.
    // The sustained count proves every idle connection still answers
    // after the active burst.
    let mut conn_rows = String::new();
    for (rounds, idle) in conn_rounds.into_iter().zip(&CONN_IDLE) {
        let total = idle + CONN_ACTIVE;
        match middle_round(rounds) {
            Ok(scale) => {
                println!(
                    "  connection_scaling {total:5} conns   \
                     p50 {:7.3} ms  p99 {:7.3} ms (not gated)  \
                     ({}/{idle} idle sustained)",
                    scale.p50_ms, scale.p99_ms, scale.sustained
                );
                let _ = write!(
                    conn_rows,
                    "{}{{\"connections\":{total},\
                     \"idle\":{idle},\"active\":{CONN_ACTIVE},\
                     \"sustained\":{},\"peak_connections\":{},\
                     \"p50_millis\":{:.3},\"p99_ungated_ms\":{:.3}}}",
                    if conn_rows.is_empty() { "" } else { "," },
                    scale.sustained,
                    scale.peak,
                    scale.p50_ms,
                    scale.p99_ms,
                );
            }
            Err(reason) => println!("  connection_scaling {total:5} conns   skipped: {reason}"),
        }
    }

    // Hot loops: the measured inner loops on their own, no engine in
    // the way — regressions here are what the surgery fixed.
    let (hot_rows, hot_cols) = hot.grid;
    println!(
        "  hot_loops: {HOT_REPS} reps a row ({WIRE_REPS} for the wire rows), {HOT_RECTS} rects \
         on a {hot_rows}x{hot_cols} grid, {HOT_WINDOW}x{HOT_WINDOW} window at {} steps, \
         {}-byte Legalize line",
        cfg.steps, hot.wire_line_bytes
    );
    let mut hot_fields = String::new();
    for (row, ms) in HOT_ROWS.iter().zip(hot_best) {
        println!("  hot_loops {row:<15} {ms:9.3} ms");
        let _ = write!(hot_fields, ",\"{row}_millis\":{ms:.3}");
    }

    let json = format!(
        "{{\"bench\":\"engine_scaling\",\"window\":{},\"steps\":{},\"train\":{},\"cpus\":{cpus},\
         \"simd\":\"{simd}\",\
         \"connection_scaling\":{{\"active\":{CONN_ACTIVE},\"calls_per_conn\":{CONN_CALLS},\
         \"rounds\":{ROUNDS},\"rows\":[{conn_rows}]}},\
         \"hot_loops\":{{\"rects\":{HOT_RECTS},\"reps\":{HOT_REPS},\"wire_reps\":{WIRE_REPS},\
         \"rounds\":{ROUNDS},\"grid_rows\":{hot_rows},\"grid_cols\":{hot_cols},\
         \"wire_line_bytes\":{}{hot_fields}}}}}\n",
        cfg.window, cfg.steps, cfg.train, hot.wire_line_bytes
    );
    match check {
        None => {
            std::fs::write("BENCH_ENGINE.json", &json).expect("write BENCH_ENGINE.json");
            println!("\nwrote BENCH_ENGINE.json");
        }
        Some(mode) => {
            let current: Value = serde_json::from_str(&json).expect("own results are valid JSON");
            let baseline: Value = match std::fs::read_to_string(&mode.baseline) {
                Ok(text) => serde_json::from_str(&text).unwrap_or_else(|_| {
                    eprintln!("check FAILED: baseline {} is not valid JSON", mode.baseline);
                    std::process::exit(1);
                }),
                Err(error) => {
                    eprintln!(
                        "check FAILED: cannot read baseline {}: {error}",
                        mode.baseline
                    );
                    std::process::exit(1);
                }
            };
            println!(
                "\nregression check vs {} (threshold {:.2}x):",
                mode.baseline, mode.threshold
            );
            let (passed, report) = check_against_baseline(&current, &baseline, mode.threshold);
            print!("{report}");
            if !passed {
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file with two `connection_scaling` rows and one
    /// `hot_loops` row: three gated metrics.
    const RESULTS: &str = r#"{
        "bench": "engine_scaling", "window": 64, "steps": 10, "train": 48, "cpus": 2,
        "simd": "avx2",
        "connection_scaling": {"active": 4, "rows": [
            {"connections": 36, "p50_millis": 0.06, "p99_ungated_ms": 0.4},
            {"connections": 260, "p50_millis": 0.07, "p99_ungated_ms": 0.5}]},
        "hot_loops": {"reps": 10, "legalize_millis": 20.0}}"#;

    fn check(current: &str, baseline: &str) -> (bool, String) {
        let parse = |text| serde_json::from_str::<Value>(text).expect("literal JSON");
        check_against_baseline(&parse(current), &parse(baseline), 2.0)
    }

    #[test]
    fn identical_results_pass() {
        let (passed, report) = check(RESULTS, RESULTS);
        assert!(passed, "{report}");
        assert!(report.contains("3 metrics compared, worst 1.00x, 0 over 2.00x"));
    }

    #[test]
    fn a_metric_over_the_threshold_fails_and_is_named() {
        let (passed, report) = check(&RESULTS.replace("20.0", "41.0"), RESULTS);
        assert!(!passed, "{report}");
        let line = report.lines().find(|line| line.contains("REGRESSION"));
        let line = line.expect("the regression is reported");
        assert!(line.contains("hot_loops.legalize_millis"), "{line}");
        // The p99 is twice its baseline too, and nobody minds.
        let slow_tail = RESULTS.replace("0.4", "0.9");
        let (passed, report) = check(&slow_tail, RESULTS);
        assert!(passed, "{report}");
    }

    #[test]
    fn a_metric_the_baseline_lacks_fails_as_stale() {
        let without = RESULTS.replace(r#", "legalize_millis": 20.0"#, "");
        let (passed, report) = check(RESULTS, &without);
        assert!(!passed, "{report}");
        assert!(report.contains("STALE baseline — 1 metric(s)"), "{report}");
        let missing = report.lines().find(|line| line.contains("MISSING"));
        assert!(missing.is_some_and(|line| line.contains("hot_loops.legalize_millis")));
        // The other way round — the baseline has a row this run did
        // not measure — is reported and passes.
        let (passed, report) = check(&without, RESULTS);
        assert!(passed, "{report}");
        assert!(report.contains("skipped (not measured in this run)"));
    }

    #[test]
    fn a_baseline_from_another_config_is_advisory() {
        // Slower than 2x and stale at once: either would fail.
        let current = RESULTS.replace("20.0", "90.0");
        let stale = RESULTS.replace("0.07", "0.01").replace("legalize", "solve");
        assert!(!check(&current, &stale).0);
        for key in ["cpus", "window", "steps", "train"] {
            // `"cpus": 2` becomes `"cpus": 12`, and so on.
            let other = stale.replace(&format!("\"{key}\": "), &format!("\"{key}\": 1"));
            let (passed, report) = check(&current, &other);
            assert!(passed, "{key}: {report}");
            assert!(report.contains("ratios are advisory"), "{key}: {report}");
            assert!(report.contains("REGRESSION"), "{key}: {report}");
            assert!(report.contains("MISSING from baseline"), "{key}: {report}");
        }
        // Same four numbers on a host with other vector units, and a
        // baseline from before the key existed: neither can fail.
        let without_key = stale.replace(r#""simd": "avx2","#, "");
        assert!(!without_key.contains("simd"));
        for other in [stale.replace("avx2", "avx512f"), without_key] {
            let (passed, report) = check(&current, &other);
            assert!(passed, "{other}: {report}");
            assert!(report.contains("ratios are advisory"), "{report}");
            assert!(report.contains("REGRESSION"), "{report}");
        }
    }

    #[test]
    fn a_connection_row_is_matched_by_its_count_not_its_position() {
        // The rows the other way round, the 36-connection one three
        // times faster than this run's: matched by position it would
        // be compared with the 260-connection row and pass.
        let reversed = r#"{
            "window": 64, "steps": 10, "train": 48, "cpus": 2, "simd": "avx2",
            "connection_scaling": {"active": 4, "rows": [
                {"connections": 260, "p50_millis": 0.07},
                {"connections": 36, "p50_millis": 0.02}]},
            "hot_loops": {"legalize_millis": 20.0}}"#;
        let (passed, report) = check(RESULTS, reversed);
        assert!(!passed, "{report}");
        let row = |needle| report.lines().find(|line| line.contains(needle));
        let slow = row("REGRESSION").expect("0.06 against 0.02 is over 2x");
        assert!(
            slow.contains("connection_scaling.rows.[connections=36].p50_millis"),
            "{slow}"
        );
        let same = row("[connections=260]").expect("the other row is compared");
        assert!(same.contains("1.00x  ok"), "{same}");
    }

    #[test]
    fn threshold_and_baseline_need_check() {
        let parse = |args: &[&str]| parse_check_args(args.iter().map(|a| (*a).to_owned()));
        assert_eq!(parse(&[]), Ok(None));
        let mode = |threshold, baseline: &str| {
            Ok(Some(CheckMode {
                threshold,
                baseline: baseline.to_owned(),
            }))
        };
        assert_eq!(parse(&["--check"]), mode(1.5, "BENCH_ENGINE.json"));
        assert_eq!(
            parse(&["--baseline", "b.json", "--threshold", "2.0", "--check"]),
            mode(2.0, "b.json")
        );
        for args in [&["--threshold", "2.0"][..], &["--baseline", "b.json"]] {
            let complaint = parse(args).expect_err("refused without --check");
            let expected = format!("{} needs --check; {USAGE}", args[0]);
            assert_eq!(complaint, expected);
        }
        assert!(parse(&["--chek"]).is_err_and(|c| c.contains("unknown argument")));
        assert!(parse(&["--check", "--threshold"]).is_err_and(|c| c.contains("needs a number")));
    }
}
