//! `cp-benchmark` — the repo benchmark harness (see `README.md`).
//!
//! ```text
//! cp-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (driver contract)
//! cp-benchmark [--seed N] [--seconds S] [--smoke] [--trace-only|--no-trace]
//! cp-benchmark --selfcheck [--runs N] [--seconds S] [--smoke]
//! cp-benchmark --print-manifest | --print-catalogue
//! ```
//!
//! One run prints, as its last stdout line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Everything else it has to say goes to stderr.

mod catalogue;
mod common;
mod inproc;
mod layers;
mod orchestrate;
mod procs;
mod rounds;
mod stats;
mod tcp;
mod trace;

use common::{Env, Loaded, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
    pub runs: usize,
    pub trace_only: bool,
    pub no_trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: catalogue::RUN_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
        runs: 10,
        trace_only: false,
        no_trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .and_then(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("{name} needs an unsigned integer, got {v:?}"))
                })
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(argv.next().ok_or("--workload needs a name")?);
            }
            "--seed" => args.seed = value("--seed")?,
            "--seconds" => args.seconds = value("--seconds")?.max(1),
            "--trace" => args.trace = value("--trace")? != 0,
            "--runs" => args.runs = value("--runs")?.max(2) as usize,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--trace-only" => args.trace_only = true,
            "--no-trace" => args.no_trace = true,
            "--print-manifest" => {
                print!("{}", catalogue::manifest());
                std::process::exit(0);
            }
            "--print-catalogue" => {
                print!("{}", catalogue::catalogue_markdown());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `benchmark/out` next to this package's sources, inside the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join("benchmark")
        .join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn loaded_phase(env: &Env, workload: &str) -> Result<Loaded, String> {
    match workload {
        "fixed_generate" => inproc::fixed_generate(env),
        "free_size_extend" => inproc::free_size_extend(env),
        "chat_sessions" => inproc::chat_sessions(env),
        "serve_tcp_mixed" => tcp::tcp_mixed(env, false),
        "router_tcp_mixed" => tcp::tcp_mixed(env, true),
        other => Err(format!(
            "unknown workload {other}; known: {}",
            catalogue::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// The result line of the driver's contract.
fn result_line(loaded: &Loaded, metrics: &BTreeMap<&str, (f64, &str)>) -> String {
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            // JSON has no NaN or infinity; a metric that is neither a
            // number nor finite reads as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        loaded.tally.failed == 0,
        loaded.tally.attempted.max(1),
        loaded.tally.failed,
        rendered.join(", ")
    )
}

/// One run of one workload.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let cpus = common::cpus();
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let seconds = Duration::from_secs(args.seconds);
    let env = Env {
        scale,
        seed: args.seed,
        // A traced run splits its time between the loaded phase and
        // the one-at-a-time pass over the layers.
        duration: if args.trace { seconds / 2 } else { seconds },
        cpus,
        tracer: trace::Tracer::new(args.trace),
        out_dir: out_dir()?,
    };
    let loaded = loaded_phase(&env, workload)?;
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if args.trace {
        let measured = layers::traced_pass(&env, workload, &loaded, seconds / 2)?;
        for m in &catalogue::PER_LAYER {
            metrics.insert(
                m.name,
                (measured.get(m.name).copied().unwrap_or(0.0), m.unit),
            );
        }
        let path = env.out_dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, env.tracer.to_json(workload, args.seed, cpus))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        let measured = loaded.end_to_end();
        for m in &catalogue::END_TO_END {
            metrics.insert(m.name, (measured[m.name], m.unit));
        }
    }
    let timings = rounds::Timings::of(&loaded.rounds);
    eprintln!(
        "{workload}: seed {} cpus {cpus} attempted {} failed {} ops {} rounds {} payload_digest \
         {:016x}; as the clock read it: ops_per_s {:.4} op_ms_p50 {:.4}, host slowdown {:.4} \
         (per round: {})",
        args.seed,
        loaded.tally.attempted,
        loaded.tally.failed,
        loaded.ops(),
        loaded.rounds.len(),
        loaded.payload_digest,
        timings.raw_ops_per_s,
        timings.raw_op_ms_p50,
        timings.slowdown,
        loaded
            .rounds
            .iter()
            .map(|r| format!("{:.3}", r.slowdown))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for reason in &loaded.tally.reasons {
        eprintln!("{workload}: FAILED: {reason}");
    }
    println!("{}", result_line(&loaded, &metrics));
    Ok(loaded.tally.failed == 0)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.selfcheck {
            orchestrate::selfcheck(&args)
        } else if let Some(workload) = args.workload.clone() {
            run_one(&args, &workload)
        } else {
            orchestrate::run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
