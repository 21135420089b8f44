//! Object-safe sampling interface consumed by extension and agent tools.

use crate::{Denoiser, DiffusionModel, Mask};
use cp_squish::Topology;
use rand_chacha::ChaCha8Rng;

/// The generation capabilities the rest of the system needs: fixed-window
/// conditional generation and masked modification.
///
/// Both draw from the workspace's one generator, by name: masked
/// modification seeks past the draws its mask leaves unused (see
/// [`DiffusionModel::modify`]), and a call of either kind advances the
/// stream by a word count that depends on the shape alone.
///
/// [`DiffusionModel`] implements this for any denoiser back-end; tests
/// use lightweight fakes. `Send + Sync` is a supertrait because samplers
/// are held inside long-lived chat sessions that migrate between engine
/// worker threads; every implementation in this workspace is plain data
/// (or an `Arc` of it), so the bound is free.
pub trait PatternSampler: Send + Sync {
    /// Native window size `L` (the model's training resolution).
    fn window(&self) -> usize;

    /// Generates one `rows × cols` topology under `condition`.
    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology;

    /// Regenerates the non-kept cells of `known` under `condition`.
    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology;
}

impl<D: Denoiser + Send + Sync> PatternSampler for DiffusionModel<D> {
    fn window(&self) -> usize {
        self.native_size()
    }

    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        self.sample(rows, cols, condition, rng)
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        DiffusionModel::modify(self, known, mask, condition, 1, rng)
    }
}

impl<S: PatternSampler + ?Sized> PatternSampler for &S {
    fn window(&self) -> usize {
        (**self).window()
    }

    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        (**self).generate(rows, cols, condition, rng)
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        (**self).modify(known, mask, condition, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denoiser::test_support::ConstantDenoiser;
    use crate::NoiseSchedule;
    use rand::SeedableRng;

    #[test]
    fn diffusion_model_implements_sampler() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(4),
            ConstantDenoiser {
                probability: 1.0,
                size: 8,
            },
            8,
        );
        let sampler: &dyn PatternSampler = &model;
        assert_eq!(sampler.window(), 8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = sampler.generate(8, 8, None, &mut rng);
        assert_eq!(t.count_ones(), 64);
    }

    #[test]
    fn sampler_modify_respects_mask_through_trait() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(4),
            ConstantDenoiser {
                probability: 1.0,
                size: 4,
            },
            4,
        );
        let sampler: &dyn PatternSampler = &model;
        let known = Topology::filled(4, 4, false);
        let mask = Mask::keep_inside(4, 4, cp_squish::Region::new(0, 0, 2, 4));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = sampler.modify(&known, &mask, None, &mut rng);
        assert!(!out.get(0, 0)); // kept
        assert!(out.get(3, 3)); // regenerated toward ones
    }
}
