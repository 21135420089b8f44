//! LegalGAN: the learned legalization post-processor of Zhang et al.
//!
//! Reimplemented as a *fitted* morphological cleanup network proxy: the
//! minimum horizontal/vertical run lengths are measured from training
//! data, then generation output is (a) smoothed with iterated 3×3
//! majority filtering and (b) pruned of runs shorter than the fitted
//! minima — the two operations a learned legalizer converges to on
//! Manhattan layout data.

use cp_layout::squish::Topology;

/// A fitted topology cleanup operator.
#[derive(Debug, Clone)]
pub struct LegalGan {
    min_run_x: usize,
    min_run_y: usize,
    majority_iters: usize,
}

impl LegalGan {
    /// Fits the minimum run-length statistics from clean training data.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[must_use]
    pub fn fit(data: &[Topology]) -> LegalGan {
        assert!(!data.is_empty(), "LegalGAN needs training data");
        let mut min_run_x = usize::MAX;
        let mut min_run_y = usize::MAX;
        for t in data {
            for r in 0..t.rows() {
                for (s, e) in t.row_runs(r) {
                    min_run_x = min_run_x.min(e - s + 1);
                }
            }
            for c in 0..t.cols() {
                for (s, e) in t.col_runs(c) {
                    min_run_y = min_run_y.min(e - s + 1);
                }
            }
        }
        LegalGan {
            min_run_x: min_run_x.clamp(1, 8),
            min_run_y: min_run_y.clamp(1, 8),
            majority_iters: 2,
        }
    }

    /// Cleans a generated topology: majority smoothing, then pruning of
    /// sub-minimum runs along both axes.
    #[must_use]
    pub fn legalize_topology(&self, t: &Topology) -> Topology {
        let mut out = t.clone();
        for _ in 0..self.majority_iters {
            out = majority_filter(&out);
        }
        out = prune_short_runs(&out, self.min_run_x, true);
        prune_short_runs(&out, self.min_run_y, false)
    }
}

/// 3×3 majority vote (out-of-bounds counts as empty).
fn majority_filter(t: &Topology) -> Topology {
    Topology::from_fn(t.rows(), t.cols(), |r, c| {
        let mut ones = 0;
        for dr in -1i32..=1 {
            for dc in -1i32..=1 {
                let rr = r as i32 + dr;
                let cc = c as i32 + dc;
                if rr >= 0
                    && cc >= 0
                    && (rr as usize) < t.rows()
                    && (cc as usize) < t.cols()
                    && t.get(rr as usize, cc as usize)
                {
                    ones += 1;
                }
            }
        }
        ones >= 5
    })
}

/// Clears drawn runs shorter than `min_len` along rows (`horizontal`) or
/// columns.
fn prune_short_runs(t: &Topology, min_len: usize, horizontal: bool) -> Topology {
    let mut out = t.clone();
    if horizontal {
        for r in 0..t.rows() {
            for (s, e) in t.row_runs(r) {
                if e - s + 1 < min_len {
                    for c in s..=e {
                        out.set(r, c, false);
                    }
                }
            }
        }
    } else {
        for c in 0..t.cols() {
            for (s, e) in t.col_runs(c) {
                if e - s + 1 < min_len {
                    for r in s..=e {
                        out.set(r, c, false);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_data() -> Vec<Topology> {
        // 4-wide stripes: min run x = 4 (y runs full height).
        (0..4)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + 4 * i) % 8 < 4))
            .collect()
    }

    #[test]
    fn fit_learns_run_minima() {
        let gan = LegalGan::fit(&clean_data());
        assert_eq!(gan.min_run_x, 4);
        assert!(gan.min_run_y >= 8); // capped at 8
    }

    #[test]
    fn isolated_noise_pixels_are_removed() {
        let gan = LegalGan::fit(&clean_data());
        let mut noisy = Topology::filled(16, 16, false);
        noisy.set(3, 3, true);
        noisy.set(10, 12, true);
        let cleaned = gan.legalize_topology(&noisy);
        assert_eq!(cleaned.count_ones(), 0);
    }

    #[test]
    fn solid_blocks_survive_cleanup() {
        let gan = LegalGan::fit(&clean_data());
        let block = Topology::from_fn(16, 16, |r, c| (4..12).contains(&r) && (4..12).contains(&c));
        let cleaned = gan.legalize_topology(&block);
        // The 8×8 interior survives majority filtering (corners may erode).
        assert!(cleaned.count_ones() >= 36, "{}", cleaned.count_ones());
        assert!(cleaned.get(8, 8));
    }

    #[test]
    fn cleanup_reduces_scanline_complexity_of_noise() {
        use cp_layout::squish::complexity;
        let gan = LegalGan::fit(&clean_data());
        let noisy = Topology::from_fn(16, 16, |r, c| (r * 7 + c * 13) % 5 == 0);
        let cleaned = gan.legalize_topology(&noisy);
        let before = complexity(&noisy);
        let after = complexity(&cleaned);
        assert!(after.cx <= before.cx && after.cy <= before.cy);
    }
}
