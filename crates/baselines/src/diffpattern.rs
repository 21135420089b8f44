//! DiffPattern baseline: unconditional per-style discrete diffusion.
//!
//! The prior SOTA the paper re-implements for comparison: the same
//! diffusion machinery as ChatPattern's back-end but trained *per style*
//! with no condition input (mixing styles in one unconditional model
//! "can easily lead to a conflict", §4.1 — reproducible here by passing
//! [`DiffPattern::fit`] the union dataset).

use crate::Generator;
use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
use cp_layout::squish::Topology;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An unconditional diffusion generator for one style.
#[derive(Debug, Clone)]
pub struct DiffPattern {
    model: DiffusionModel<MrfDenoiser>,
}

impl DiffPattern {
    /// Fits on a single-style dataset (the paper trains one DiffPattern
    /// per layer).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[must_use]
    pub fn fit(data: &[Topology], steps: usize, native_size: usize) -> DiffPattern {
        let denoiser = MrfDenoiser::fit(&[(0, data)], 1.0);
        DiffPattern {
            model: DiffusionModel::new(NoiseSchedule::scaled_default(steps), denoiser, native_size),
        }
    }
}

impl Generator for DiffPattern {
    fn name(&self) -> &str {
        "DiffPattern"
    }

    /// A sample seeded by one `u64` of `rng`: the model's chain seeks
    /// in its own stream.
    fn generate(&self, rows: usize, cols: usize, rng: &mut dyn RngCore) -> Topology {
        let mut stream = ChaCha8Rng::seed_from_u64(rng.next_u64());
        self.model.sample(rows, cols, None, &mut stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn striped() -> Vec<Topology> {
        // 4-wide features at 25% density: comfortably above the denoiser's
        // two-cell minimum-feature regularization, and at a realistic
        // layout density (50%-marginal data is adversarial for the
        // fill-biased regularizer).
        (0..8)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 16 < 4))
            .collect()
    }

    #[test]
    fn generates_requested_shape() {
        let dp = DiffPattern::fit(&striped(), 8, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(dp.generate(16, 16, &mut rng).shape(), (16, 16));
    }

    #[test]
    fn density_tracks_training_distribution() {
        // Localized island data (~10% density); full-frame periodic
        // stripes are degenerate for a local neighbourhood model (see the
        // cp-diffusion MRF tests). Real-dataset tracking is covered by
        // the Table-1 integration tests.
        let islands: Vec<Topology> = (0..8)
            .map(|i| {
                Topology::from_fn(16, 16, move |r, c| {
                    let r0 = 2 + (i * 2) % 8;
                    let c0 = 2 + (i * 3) % 8;
                    (r0..r0 + 5).contains(&r) && (c0..c0 + 5).contains(&c)
                })
            })
            .collect();
        let expected: f64 =
            islands.iter().map(Topology::density).sum::<f64>() / islands.len() as f64;
        let dp = DiffPattern::fit(&islands, 10, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mean: f64 = (0..4)
            .map(|_| dp.generate(16, 16, &mut rng).density())
            .sum::<f64>()
            / 4.0;
        assert!(
            (mean - expected).abs() < 0.2,
            "density {mean} vs {expected}"
        );
    }

    #[test]
    fn mixed_fit_pools_datasets() {
        let dense = striped();
        let sparse: Vec<Topology> = (0..8)
            .map(|i| Topology::from_fn(16, 16, move |r, c| r % 8 == i && c % 8 == 0))
            .collect();
        let pooled: Vec<Topology> = dense.into_iter().chain(sparse).collect();
        let mixed = DiffPattern::fit(&pooled, 8, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = mixed.generate(16, 16, &mut rng);
        assert_eq!(t.shape(), (16, 16));
    }
}
