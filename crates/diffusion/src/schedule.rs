//! The discrete-diffusion noise schedule (paper Eqs. 1–4).
//!
//! For binary states the per-step transition matrix is the symmetric
//! channel `Q_k = [[1−β_k, β_k], [β_k, 1−β_k]]` and products of symmetric
//! channels stay symmetric, so the cumulative transition `Q̄_k` is fully
//! described by one *cumulative flip probability*
//! `b̄_k = (1 − Π_{j≤k} (1 − 2 β_j)) / 2`.

use serde::{Deserialize, Serialize};

/// Linear β schedule with precomputed cumulative flip probabilities.
///
/// Index convention: step `k` runs from 1 to `len()`; `flip_bar(0) == 0`
/// (no noise), `flip_bar(len())` is the flip probability of the fully
/// noised state (≈ 0.5 for the default endpoints).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseSchedule {
    betas: Vec<f64>,
    flip_bar: Vec<f64>,
}

impl NoiseSchedule {
    /// Builds a linear schedule `β_k = (k−1)(β_K − β_1)/(K−1) + β_1`
    /// (paper Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics unless `steps >= 1` and `0 < β ≤ 0.5` at both endpoints.
    #[must_use]
    pub(crate) fn linear(steps: usize, beta1: f64, beta_k: f64) -> NoiseSchedule {
        assert!(steps >= 1, "schedule needs at least one step");
        assert!(
            beta1 > 0.0 && beta1 <= 0.5 && beta_k > 0.0 && beta_k <= 0.5,
            "betas must lie in (0, 0.5]"
        );
        let betas: Vec<f64> = (1..=steps)
            .map(|k| {
                if steps == 1 {
                    beta1
                } else {
                    (k - 1) as f64 * (beta_k - beta1) / (steps - 1) as f64 + beta1
                }
            })
            .collect();
        let mut flip_bar = Vec::with_capacity(steps + 1);
        flip_bar.push(0.0);
        let mut keep = 1.0f64; // Π (1 − 2β_j)
        for &b in &betas {
            keep *= 1.0 - 2.0 * b;
            flip_bar.push((1.0 - keep) / 2.0);
        }
        NoiseSchedule { betas, flip_bar }
    }

    /// The paper's configuration: `K = 1000`, β from 0.01 to 0.5.
    #[must_use]
    pub fn paper_default() -> NoiseSchedule {
        NoiseSchedule::linear(1000, 0.01, 0.5)
    }

    /// The paper's β endpoints at a reduced step count — the CPU-scale
    /// setting used throughout the reproduction's experiments.
    #[must_use]
    pub fn scaled_default(steps: usize) -> NoiseSchedule {
        NoiseSchedule::linear(steps, 0.01, 0.5)
    }

    /// Number of diffusion steps `K`.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.betas.len()
    }

    /// Per-step flip probability `β_k` (1-based `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than `len()`.
    #[must_use]
    pub(crate) fn beta(&self, k: usize) -> f64 {
        assert!((1..=self.len()).contains(&k), "step {k} out of range");
        self.betas[k - 1]
    }

    /// Cumulative flip probability `b̄_k` for `0 <= k <= len()`.
    ///
    /// # Panics
    ///
    /// Panics if `k > len()`.
    #[must_use]
    pub(crate) fn flip_bar(&self, k: usize) -> f64 {
        assert!(k <= self.len(), "step {k} out of range");
        self.flip_bar[k]
    }

    /// Posterior probability `q(x_{k-1} = 1 | x_k, x_0)` of the binary
    /// chain (the exact two-state form of the D3PM posterior).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than `len()`.
    #[must_use]
    pub(crate) fn posterior_one(&self, k: usize, x_k: bool, x_0: bool) -> f64 {
        let beta = self.beta(k);
        let bar_prev = self.flip_bar(k - 1);
        // q(x_k | x_{k-1} = v) · q(x_{k-1} = v | x_0), v ∈ {0, 1}
        let like = |v: bool| -> f64 {
            let channel = if v == x_k { 1.0 - beta } else { beta };
            let prior = if v == x_0 { 1.0 - bar_prev } else { bar_prev };
            channel * prior
        };
        let p1 = like(true);
        let p0 = like(false);
        p1 / (p1 + p0)
    }

    /// Likelihood `q(x_k | x_0)` of observing `x_k` given clean bit `x_0`.
    #[must_use]
    pub(crate) fn channel_likelihood(&self, k: usize, x_k: bool, x_0: bool) -> f64 {
        let bar = self.flip_bar(k);
        if x_k == x_0 {
            1.0 - bar
        } else {
            bar
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolates_endpoints() {
        let s = NoiseSchedule::linear(5, 0.01, 0.5);
        assert!((s.beta(1) - 0.01).abs() < 1e-12);
        assert!((s.beta(5) - 0.5).abs() < 1e-12);
        assert!(s.beta(3) > s.beta(2));
    }

    #[test]
    fn flip_bar_monotone_and_saturates() {
        let s = NoiseSchedule::scaled_default(16);
        for k in 1..=16 {
            assert!(s.flip_bar(k) >= s.flip_bar(k - 1));
            assert!(s.flip_bar(k) <= 0.5 + 1e-12);
        }
        // Final β = 0.5 erases everything in one step.
        assert!((s.flip_bar(16) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn posterior_at_k1_recovers_x0() {
        let s = NoiseSchedule::scaled_default(8);
        // b̄_0 = 0 ⇒ posterior puts all mass on x_0.
        assert!((s.posterior_one(1, true, true) - 1.0).abs() < 1e-12);
        assert!(s.posterior_one(1, false, false) < 1e-12);
        // Even when x_k disagrees with x_0.
        assert!((s.posterior_one(1, false, true) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_is_a_probability() {
        let s = NoiseSchedule::scaled_default(12);
        for k in 1..=12 {
            for &xk in &[false, true] {
                for &x0 in &[false, true] {
                    let p = s.posterior_one(k, xk, x0);
                    assert!((0.0..=1.0).contains(&p), "p={p} at k={k}");
                }
            }
        }
    }

    #[test]
    fn posterior_prefers_agreement() {
        let s = NoiseSchedule::linear(10, 0.01, 0.2);
        // Mid-chain: x_k = 1 and x_0 = 1 should strongly favour 1.
        let p = s.posterior_one(5, true, true);
        assert!(p > 0.9, "p={p}");
    }

    #[test]
    fn channel_likelihood_is_symmetric() {
        let s = NoiseSchedule::scaled_default(6);
        for k in 0..=6 {
            let agree = s.channel_likelihood(k.max(1), true, true);
            let agree0 = s.channel_likelihood(k.max(1), false, false);
            assert!((agree - agree0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_default_shape() {
        let s = NoiseSchedule::paper_default();
        assert_eq!(s.len(), 1000);
        assert!((s.beta(1000) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn beta_zero_panics() {
        let s = NoiseSchedule::scaled_default(4);
        let _ = s.beta(0);
    }
}
