//! Rounds and the host-speed calibration.
//!
//! The machine this benchmark runs on is a few cores of a shared
//! host: for seconds to minutes at a time a neighbour takes part of
//! them and everything here runs 1.2 to 1.5 times slower. A run that
//! met such an episode read 10 to 40 % worse than one that did not, on
//! the same code — more than any bound this benchmark may set. Two
//! things keep a run's numbers steady:
//!
//! * **Rounds.** The timed phase is a sequence of rounds; each is one
//!   set-up, then one slice of load, then a pause in which everything
//!   outstanding has drained. Set-up time and throughput are taken
//!   per round and the run reports the *median round*: a disturbance
//!   has to cover half the run to move it.
//! * **Calibration.** In every pause one thread per CPU spins a fixed
//!   kernel of the harness's own (integer mixing and a pass over
//!   1 MiB; no product code) and the CPU time it took is read. A round's
//!   *slowdown* is the mean of the readings before and after it over
//!   [`KERNEL_NOMINAL_MS`]; its durations are divided by it. What is
//!   reported is therefore time at the nominal speed of this
//!   container, whatever the neighbours did. The raw numbers and the
//!   slowdown go to stderr and to the per-layer rows `host.*`.
//!
//! Nothing is dropped or selected: every round and every validated
//! operation counts, a product stall inside a slice stays in that
//! slice's numbers, and a product that gets slower gets slower against
//! a kernel that did not change.

use crate::common::Env;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`calibrate`] reads on the container this benchmark was
/// defined on while the host is quiet (the median over fifty runs).
/// Only a scale: it makes the reported numbers read as plain
/// milliseconds of that container.
pub const KERNEL_NOMINAL_MS: f64 = 0.2780;

/// A calibration spins, on every CPU at once, through this many
/// windows of this length.
const CALIBRATION_WINDOWS: usize = 6;
const CALIBRATION_WINDOW: Duration = Duration::from_millis(10);

/// Slice length aimed at; a run has `--seconds` / this many rounds,
/// between [`MIN_ROUNDS`] and [`MAX_ROUNDS`].
const ROUND_TARGET_S: f64 = 2.2;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 10;

/// The calibration kernel: eight independent chains of integer
/// mixes, then a read-modify-write pass over the 1 MiB buffer, about
/// half the time each. What a busy neighbour on the same physical core
/// takes away grows with how many instructions a program retires per
/// cycle, so the kernel has to be dense: against a single dependent
/// chain (which hardly notices a neighbour) the product's `Generate`,
/// `Legalize`, `Extend` and `build()` slowed 2.8 to 4 times as much in
/// the logarithm; against this kernel 0.9 to 1.4 times (22 s windows of
/// a single-threaded probe over seven noisy minutes).
fn kernel(buf: &mut [u32]) -> u64 {
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..40_000u64 {
        for (k, z) in chains.iter_mut().enumerate() {
            *z = (*z ^ (*z >> 29))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(i + k as u64);
        }
    }
    let mut sum = chains.iter().fold(0, |a, z| a ^ z);
    for x in buf.iter_mut() {
        *x = x.wrapping_mul(2_654_435_761).wrapping_add(1);
        sum = sum.wrapping_add(u64::from(*x));
    }
    sum
}

/// CPU time this thread has run, in nanoseconds, from the scheduler's
/// own account of it. The yield makes the kernel bring the account up
/// to date first; without it the figure lags by up to a timer tick.
fn thread_cpu_ns() -> Result<u64, String> {
    std::thread::yield_now();
    let path = "/proc/thread-self/schedstat";
    std::fs::read_to_string(path)
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("cannot read this thread's CPU time from {path}"))
}

/// One reading: one thread per CPU calls the kernel through
/// [`CALIBRATION_WINDOWS`] windows of [`CALIBRATION_WINDOW`] each and
/// keeps its median window (CPU time per call); the reading is the
/// time per call at the mean *speed* of the threads, in milliseconds.
/// The median within a thread, because the host's disturbances come in
/// two kinds — episodes of seconds to minutes, which every window
/// sees, and spikes of a few tens of milliseconds, which a mean over so
/// short a reading would catch by chance and then charge to a whole
/// round. The mean speed across threads, because a neighbour may slow
/// one CPU and not the other, and what the load gets is the sum of
/// what the CPUs give.
///
/// It is CPU time, not elapsed time, that is read: what a neighbour on
/// the host takes away (a shared core, a lower clock) makes the
/// kernel's CPU time longer, while another thread *inside* this
/// machine — the product's own housekeeping between slices, say —
/// only makes the calibration wait and is not mistaken for a slow
/// host. Called only while no load is outstanding.
pub fn calibrate(cpus: usize) -> Result<f64, String> {
    let per_thread: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cpus)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf = vec![1u32; 1 << 18];
                    (0..CALIBRATION_WINDOWS)
                        .map(|_| {
                            let cpu_before = thread_cpu_ns()?;
                            let started = Instant::now();
                            let mut calls = 0u64;
                            while started.elapsed() < CALIBRATION_WINDOW {
                                black_box(kernel(black_box(&mut buf)));
                                calls += 1;
                            }
                            Ok((thread_cpu_ns()? - cpu_before) as f64 / 1e6 / calls as f64)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    let mut speed = 0.0;
    for windows in per_thread {
        speed += 1.0 / median(&windows?);
    }
    Ok(cpus as f64 / speed)
}

/// What one slice of load delivered, as its workload measured it.
#[derive(Debug, Default)]
pub struct Slice {
    /// Validated primary operations.
    pub ops: u64,
    /// First submission to last completion, seconds.
    pub wall_s: f64,
    /// Latency (ms) of every validated primary operation.
    pub latencies_ms: Vec<f64>,
}

/// One round, raw: nothing in it is divided by the slowdown yet.
#[derive(Debug)]
pub struct Round<T = Slice> {
    /// Host slowdown over this round (1 = nominal speed).
    pub slowdown: f64,
    /// This round's set-up, seconds.
    pub setup_s: f64,
    pub slice: T,
}

/// How a workload's rounds end.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// A fixed number of rounds whose slices issue load until a
    /// deadline: `--seconds` split evenly.
    Timed,
    /// Every slice is the same fixed work; rounds are added while the
    /// longest one so far still fits into `--seconds`.
    Work,
}

/// Runs the timed phase: per round `setup()` (returning its duration
/// in seconds) then `slice(round, deadline)`, a calibration before the
/// first round and after every round. `slice` returns only when
/// nothing it issued is outstanding.
pub fn run_rounds<T>(
    env: &Env,
    pace: Pace,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut slice: impl FnMut(usize, Instant) -> Result<T, String>,
) -> Result<Vec<Round<T>>, String> {
    let planned = ((env.duration.as_secs_f64() / ROUND_TARGET_S).round() as usize)
        .clamp(MIN_ROUNDS, MAX_ROUNDS);
    // The calibrations are part of the measured `--seconds`.
    let budget = env
        .duration
        .saturating_sub(CALIBRATION_WINDOW * (CALIBRATION_WINDOWS * (planned + 1)) as u32)
        / planned as u32;
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut reading = calibrate(env.cpus)?;
    let mut rounds = Vec::with_capacity(planned);
    loop {
        let round_started = Instant::now();
        let more = match pace {
            Pace::Timed => rounds.len() < planned,
            Pace::Work => rounds.len() < 2 || round_started + longest <= started + env.duration,
        };
        if !more {
            return Ok(rounds);
        }
        let setup_s = setup()?;
        let slice = slice(rounds.len(), round_started + budget)?;
        let next_reading = calibrate(env.cpus)?;
        longest = longest.max(round_started.elapsed());
        rounds.push(Round {
            slowdown: (reading + next_reading) / 2.0 / KERNEL_NOMINAL_MS,
            setup_s,
            slice,
        });
        reading = next_reading;
    }
}

/// The run's end-to-end timings from its rounds: each round's numbers
/// are brought to nominal speed by its own slowdown, then the median
/// round is reported; the percentiles are over every validated
/// operation of the run, each brought to nominal speed by its round.
pub struct Timings {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_p95: f64,
    /// Median slowdown of the rounds.
    pub slowdown: f64,
    /// The same throughput before the division: validated operations
    /// over the summed slice intervals.
    pub raw_ops_per_s: f64,
    /// Median latency before the division.
    pub raw_op_ms_p50: f64,
}

impl Timings {
    pub fn of(rounds: &[Round]) -> Timings {
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let nominal: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.slice.latencies_ms.iter().map(move |ms| ms / r.slowdown))
            .collect();
        let raw: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.slice.latencies_ms.iter().copied())
            .collect();
        let ops: u64 = rounds.iter().map(|r| r.slice.ops).sum();
        let wall_s: f64 = rounds.iter().map(|r| r.slice.wall_s).sum();
        Timings {
            setup_s: per_round(&|r| r.setup_s / r.slowdown),
            ops_per_s: per_round(&|r| {
                r.slice.ops as f64 * r.slowdown / r.slice.wall_s.max(f64::MIN_POSITIVE)
            }),
            op_ms_p50: median(&nominal),
            op_ms_p95: crate::stats::percentile(&nominal, 95.0),
            slowdown: per_round(&|r| r.slowdown),
            raw_ops_per_s: ops as f64 / wall_s.max(f64::MIN_POSITIVE),
            raw_op_ms_p50: median(&raw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(slowdown: f64, setup_s: f64, ops: u64, wall_s: f64, ms: &[f64]) -> Round {
        Round {
            slowdown,
            setup_s,
            slice: Slice {
                ops,
                wall_s,
                latencies_ms: ms.to_vec(),
            },
        }
    }

    #[test]
    fn a_slow_round_reads_like_a_nominal_one() {
        // The middle round ran on a host twice as slow: everything in
        // it took twice as long, and nothing in the result shows it.
        let rounds = [
            round(1.0, 0.05, 100, 2.0, &[10.0, 20.0]),
            round(2.0, 0.10, 50, 2.0, &[20.0, 40.0]),
            round(1.0, 0.05, 100, 2.0, &[10.0, 20.0]),
        ];
        let t = Timings::of(&rounds);
        assert!((t.setup_s - 0.05).abs() < 1e-12);
        assert!((t.ops_per_s - 50.0).abs() < 1e-9);
        assert!((t.op_ms_p50 - 15.0).abs() < 1e-9);
        assert!((t.op_ms_p95 - 20.0).abs() < 1e-9);
        assert!((t.raw_ops_per_s - 250.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_slower_product_reads_slower() {
        // Same host speed, half the work done per second.
        let t = Timings::of(&[
            round(1.0, 0.05, 50, 2.0, &[20.0]),
            round(1.0, 0.05, 50, 2.0, &[20.0]),
            round(1.0, 0.05, 50, 2.0, &[20.0]),
        ]);
        assert!((t.ops_per_s - 25.0).abs() < 1e-9);
        assert!((t.op_ms_p50 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_takes_time_in_proportion_to_its_calls() {
        let mut buf = vec![1u32; 1 << 18];
        let time = |calls: u32, buf: &mut [u32]| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(kernel(black_box(buf)));
            }
            started.elapsed().as_secs_f64()
        };
        time(20, &mut buf);
        let (few, many) = (time(50, &mut buf), time(200, &mut buf));
        assert!(
            many > 2.0 * few,
            "the kernel was optimised away: {few} {many}"
        );
    }
}
