//! What every workload shares: the scale, the run environment, the
//! system builder, output validation and the result record.

use crate::rounds::{Round, Timings};
use crate::stats::Fnv;
use crate::trace::Tracer;
use chatpattern::drc::{check_pattern, DesignRules};
use chatpattern::squish::{SquishPattern, Topology};
use chatpattern::{ChatPattern, ChatPatternBuilder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seed of the *model* (training data synthesis). It is a setting of
/// the program under test, like `--window`; `--seed` varies only the
/// inputs sent to it.
pub const MODEL_SEED: u64 = 11;

/// Seed of the fixed *quality prefix*: the operations at the head of
/// every workload's stream are derived from this seed instead of
/// `--seed`, so `legality_rate`, `diversity_bits` and the payload
/// digest repeat exactly from run to run and move only when the
/// program's output moves. Everything timed after the prefix follows
/// `--seed`.
pub const QUALITY_SEED: u64 = 11;

/// Model scale. `FULL` is the paper's window; `SMOKE` is for a CI step.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub window: usize,
    pub steps: usize,
    pub training: usize,
    /// Operations at the head of each workload's seeded stream whose
    /// payloads feed `legality_rate`, `diversity_bits` and the payload
    /// digest. Fixed and derived from [`QUALITY_SEED`], so the three
    /// depend neither on `--seed` nor on how far a faster or slower
    /// build gets in the run; sized to complete with about 3x margin
    /// at the baseline's speed (the chat prefix — the first dialog of
    /// every live slot — is finished off the clock where needed).
    pub prefix_patterns: usize,
    pub prefix_extends: usize,
    pub prefix_dialogs: usize,
    pub prefix_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        window: 128,
        steps: 24,
        training: 96,
        prefix_patterns: 256,
        prefix_extends: 8,
        prefix_dialogs: 12,
        prefix_requests: 512,
    };
    pub const SMOKE: Scale = Scale {
        window: 32,
        steps: 8,
        training: 16,
        prefix_patterns: 32,
        prefix_extends: 4,
        prefix_dialogs: 12,
        prefix_requests: 64,
    };

    /// Physical frame of a `factor`-times extended pattern: 16 nm per
    /// cell, the paper's 2048 nm / 128 cells.
    pub fn frame_nm(self, factor: usize) -> i64 {
        (self.window * factor * 16) as i64
    }

    pub fn builder(self) -> ChatPatternBuilder {
        ChatPattern::builder()
            .window(self.window)
            .diffusion_steps(self.steps)
            .training_patterns(self.training)
            .seed(MODEL_SEED)
    }

    /// The model-scale flags of `chatpattern-serve`.
    pub fn serve_flags(self) -> Vec<String> {
        [
            ("--window", self.window as u64),
            ("--diffusion-steps", self.steps as u64),
            ("--training-patterns", self.training as u64),
            ("--seed", MODEL_SEED),
        ]
        .iter()
        .flat_map(|(flag, value)| [(*flag).to_owned(), value.to_string()])
        .collect()
    }
}

/// `nproc` as the harness sees it: engine workers, load threads and
/// connections all equal it, and it is recorded with every result.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Everything one run is parameterised by.
pub struct Env {
    pub scale: Scale,
    pub seed: u64,
    pub duration: Duration,
    /// `nproc`: engine workers, client threads and connections.
    pub cpus: usize,
    pub tracer: Tracer,
    /// `benchmark/out`: traces, temp session dirs.
    pub out_dir: PathBuf,
}

impl Env {
    /// The master seed operation `index` of a stream is derived from:
    /// [`QUALITY_SEED`] inside the `prefix`, `--seed` after it.
    pub fn master(&self, index: u64, prefix: usize) -> u64 {
        if index < prefix as u64 {
            QUALITY_SEED
        } else {
            self.seed
        }
    }

    /// A scratch directory inside the checkout, removed on drop.
    pub fn temp_dir(&self, label: &str) -> Result<TempDir, String> {
        let path = self
            .out_dir
            .join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One set-up: builds a system and returns it with the seconds
/// `build()` took.
pub fn build_timed(builder: ChatPatternBuilder) -> Result<(ChatPattern, f64), String> {
    let started = Instant::now();
    let system = builder.build().map_err(|e| format!("build failed: {e}"))?;
    Ok((system, started.elapsed().as_secs_f64()))
}

/// Failure accounting: every attempted request and every validation
/// failure, with the first few reasons kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

/// A delivered physical pattern must have the requested topology
/// shape, fill the requested frame and pass the independent DRC.
pub fn check_delivered(
    pattern: &SquishPattern,
    shape: (usize, usize),
    frame_nm: i64,
    rules: &DesignRules,
) -> Result<(), String> {
    if pattern.topology().shape() != shape {
        return Err(format!(
            "pattern shape {:?}, requested {shape:?}",
            pattern.topology().shape()
        ));
    }
    if (pattern.physical_width(), pattern.physical_height()) != (frame_nm, frame_nm) {
        return Err(format!(
            "pattern frame {}x{} nm, requested {frame_nm}",
            pattern.physical_width(),
            pattern.physical_height()
        ));
    }
    let report = check_pattern(pattern, rules);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "DRC: {} violation(s) in a delivered pattern",
            report.violations().len()
        ))
    }
}

pub fn digest_topology(fnv: &mut Fnv, topology: &Topology) {
    fnv.u64(topology.rows() as u64)
        .u64(topology.cols() as u64)
        .bytes(topology.as_bytes());
}

pub fn digest_pattern(fnv: &mut Fnv, pattern: &SquishPattern) {
    digest_topology(fnv, pattern.topology());
    for &d in pattern.dx().iter().chain(pattern.dy()) {
        fnv.u64(d as u64);
    }
}

/// What a loaded phase produced.
#[derive(Debug, Default)]
pub struct Loaded {
    pub tally: Tally,
    /// The rounds of the timed phase, raw (see `rounds.rs`).
    pub rounds: Vec<Round>,
    pub peak_rss_mb: f64,
    pub legality_rate: f64,
    pub diversity_bits: f64,
    /// FNV-1a over the payloads of the fixed operation prefix, in
    /// stream order; 0 when the prefix did not complete.
    pub payload_digest: u64,
    /// Per-layer values only a loaded phase can give.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Loaded {
    /// Validated primary operations of all rounds.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.slice.ops).sum()
    }

    /// The end-to-end metrics, by catalogue name. One throughput
    /// definition for every workload: validated operations over the
    /// slice interval (first submission to last completion; failed,
    /// refused and idle time all sit in the denominator), per round,
    /// at nominal host speed, median round.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let timings = Timings::of(&self.rounds);
        BTreeMap::from([
            ("setup_s", timings.setup_s),
            ("ops_per_s", timings.ops_per_s),
            ("op_ms_p50", timings.op_ms_p50),
            ("op_ms_p95", timings.op_ms_p95),
            ("legality_rate", self.legality_rate),
            ("diversity_bits", self.diversity_bits),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }
}
