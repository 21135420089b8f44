//! The multi-run modes: every workload untraced then traced (one OS
//! process per run, so `peak_rss_mb` is per workload), and the
//! self-check that applies the driver's acceptance rule to this build.

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::common::cpus;
use crate::stats::{median, quartile_spread};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The parsed result line of one child run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this same executable.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result (exit {})", output.status))?;
    let value: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = value["metrics"]
        .as_object()
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: value["correct"].as_bool().unwrap_or(false) && output.status.success(),
        attempted: value["attempted"].as_u64().unwrap_or(0),
        failed: value["failed"].as_u64().unwrap_or(0),
        metrics,
    })
}

/// Every workload untraced, then traced; prints every metric as
/// `workload name unit value`, the per-workload attribution summary,
/// and writes `benchmark/out/latest.json`.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut latest = format!(
        "{{\"cpus\": {}, \"seed\": {}, \"workloads\": {{",
        cpus(),
        args.seed
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut rows: Vec<(&str, &str, f64)> = Vec::new();
        let mut untraced_ops = None;
        if !args.trace_only {
            let run = run_child(args, workload.name, args.seed, false)?;
            all_correct &= run.correct;
            println!(
                "{} failed_share share {}",
                workload.name,
                run.failed as f64 / run.attempted.max(1) as f64
            );
            untraced_ops = run.metrics.get("ops_per_s").copied();
            for m in &END_TO_END {
                rows.push((
                    m.name,
                    m.unit,
                    run.metrics.get(m.name).copied().unwrap_or(0.0),
                ));
            }
        }
        if !args.no_trace {
            let run = run_child(args, workload.name, args.seed, true)?;
            all_correct &= run.correct;
            for m in &PER_LAYER {
                rows.push((
                    m.name,
                    m.unit,
                    run.metrics.get(m.name).copied().unwrap_or(0.0),
                ));
            }
            if let (Some(untraced), Some(traced)) =
                (untraced_ops, run.metrics.get("trace.loaded_ops_per_s"))
            {
                rows.push(("trace_overhead_share", "share", 1.0 - traced / untraced));
            }
        }
        let json: Vec<String> = rows
            .iter()
            .map(|(name, unit, value)| {
                println!("{} {name} {unit} {value}", workload.name);
                format!("\"{name}\": {value}")
            })
            .collect();
        latest.push_str(&format!(
            "{}\n  \"{}\": {{{}}}",
            if w == 0 { "" } else { "," },
            workload.name,
            json.join(", ")
        ));
    }
    latest.push_str("\n}}\n");
    let path = crate::out_dir()?.join("latest.json");
    std::fs::write(&path, latest).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let delta = if better == "higher" {
        first - second
    } else {
        second - first
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// The driver's acceptance rule applied to this build: two sets of
/// `--runs` untraced runs per workload, every run on another seed.
/// A metric passes when it is never 0, each set's quartile spread
/// stays within its bound and the second set's median is not worse
/// than the first's by more than the bound. (The driver lets
/// `setup_s` off the spread test; this check does not.)
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "cpus {} runs {} seconds {}",
        cpus(),
        args.runs,
        args.seconds
    );
    println!(
        "{:<17} {:<15} {:>6} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "bound", "median_a", "median_b", "spread_a", "spread_b", "worse_by"
    );
    for workload in &WORKLOADS {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..args.runs {
                let seed = args.seed + (s * 100 + r + 1) as u64;
                let run = run_child(args, workload.name, seed, false)?;
                if !run.correct {
                    println!("{} seed {seed}: run not correct", workload.name);
                    ok = false;
                }
                for m in &END_TO_END {
                    set.entry(m.name)
                        .or_default()
                        .push(run.metrics.get(m.name).copied().unwrap_or(0.0));
                }
            }
        }
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            let worse_by = worsening(median(a), median(b), m.better);
            let spread = spread_a.max(spread_b);
            let zero = a.iter().chain(b).any(|v| *v == 0.0);
            let verdict = if zero || spread > m.bound || worse_by > m.bound {
                ok = false;
                "FAIL"
            } else if spread > m.bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<17} {:<15} {:>6} {:>12.5} {:>12.5} {:>8.4} {:>8.4} {:>8.4}  {verdict}",
                workload.name,
                m.name,
                m.bound,
                median(a),
                median(b),
                spread_a,
                spread_b,
                worse_by
            );
        }
    }
    Ok(ok)
}
