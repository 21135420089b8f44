//! What is left of the experiment harness: [`quality`], the paper's
//! legality / diversity tables as recorded and gated data, and the
//! scale the `quality` binary runs at.
//!
//! It scales with one [`BenchConfig`], read from the environment so
//! paper-scale runs are a matter of exporting variables:
//!
//! | variable | default | paper value | meaning |
//! |---|---|---|---|
//! | `CP_WINDOW` | 64 | 128 | model window `L` (fixed-size topology) |
//! | `CP_SAMPLES` | 40 | 10000 | samples per method per style |
//! | `CP_STEPS` | 10 | 1000 | diffusion chain length `K` |
//! | `CP_TRAIN` | 48 | ~10k patches | training patterns per style |
//! | `CP_SEED` | 0 | — | master seed |
//!
//! A value that does not parse is refused by name, never replaced by
//! the default: a recorded file is compared by scale, and a silent
//! fall-back would turn a typo into a mismatch nobody can explain.
//!
//! The physical frame is `16 nm × topology size` (see
//! `BenchConfig::frame_nm`), and free-size experiments run at
//! 2×/4×/8× the window (the paper's 256²/512²/1024²).

pub mod quality;

use chatpattern_core::ChatPattern;
use serde::{Deserialize, Serialize};

/// Scale knobs of the `quality` binary, and the header of a recorded
/// `BENCH_QUALITY.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchConfig {
    /// Model window `L` (the paper's 128).
    pub window: usize,
    /// Samples per method per style (the paper's 10,000).
    pub samples: usize,
    /// Diffusion steps `K` (the paper's 1000).
    pub steps: usize,
    /// Training patterns per style.
    pub train: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            window: 64,
            samples: 40,
            steps: 10,
            train: 48,
            seed: 0,
        }
    }
}

impl BenchConfig {
    /// Reads the configuration from the `CP_*` environment variables.
    ///
    /// # Errors
    ///
    /// Names the variable whose value is not a non-negative integer.
    pub fn from_env() -> Result<BenchConfig, String> {
        BenchConfig::from_vars(|name| std::env::var(name).ok())
    }

    /// [`BenchConfig::from_env`] over any source of variables.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<BenchConfig, String> {
        let get = |name: &str, default: usize| match var(name) {
            None => Ok(default),
            Some(text) => text.parse::<usize>().map_err(|_| {
                format!("{name}={text:?} is not a non-negative integer; unset it for {default}")
            }),
        };
        let d = BenchConfig::default();
        Ok(BenchConfig {
            window: get("CP_WINDOW", d.window)?,
            samples: get("CP_SAMPLES", d.samples)?,
            steps: get("CP_STEPS", d.steps)?,
            train: get("CP_TRAIN", d.train)?,
            seed: get("CP_SEED", d.seed as usize)? as u64,
        })
    }

    /// Physical frame (nm) for a topology of `size` cells: 16 nm/cell,
    /// the paper's 2048 nm / 128-cell ratio. Every [`quality::Row`]
    /// held against a frame carries the largest minimal legal extent of
    /// its topologies beside it, for re-tuning at other scales.
    #[must_use]
    pub(crate) fn frame_nm(&self, size: usize) -> i64 {
        (size as i64) * 16
    }

    /// Builds the ChatPattern system at this scale.
    ///
    /// # Panics
    ///
    /// Panics when the `CP_*` environment variables describe an invalid
    /// configuration — the binary wants the loud failure.
    #[must_use]
    pub(crate) fn build_system(&self) -> ChatPattern {
        ChatPattern::builder()
            .window(self.window)
            .diffusion_steps(self.steps)
            .training_patterns(self.train)
            .seed(self.seed)
            .build()
            .unwrap_or_else(|e| panic!("invalid CP_* bench configuration: {e}"))
    }

    /// Prints the configuration banner the `quality` binary starts with.
    pub fn print_banner(&self, experiment: &str) {
        println!("=== {experiment} ===");
        println!(
            "config: window={} (paper 128), samples={} (paper 10000), steps={} \
             (paper 1000), train={} per style, seed={}",
            self.window, self.samples, self.steps, self.train, self.seed
        );
        println!(
            "frames: fixed {} nm; free sizes {}/{}/{} cells (16 nm/cell)\n",
            self.frame_nm(self.window),
            self.window * 2,
            self.window * 4,
            self.window * 8,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unparsable_scale_variable_is_refused_by_name() {
        let vars = |name: &str| match name {
            "CP_WINDOW" => Some("12x".to_owned()),
            "CP_SEED" => Some("7".to_owned()),
            _ => None,
        };
        let complaint = BenchConfig::from_vars(vars).expect_err("12x is not a window");
        assert!(complaint.starts_with("CP_WINDOW=\"12x\""), "{complaint}");
        let only_seed = |name: &str| vars(name).filter(|_| name == "CP_SEED");
        let expected = BenchConfig {
            seed: 7,
            ..BenchConfig::default()
        };
        assert_eq!(BenchConfig::from_vars(only_seed), Ok(expected));
        assert!(BenchConfig::from_vars(|_| Some("-1".to_owned())).is_err());
    }
}
