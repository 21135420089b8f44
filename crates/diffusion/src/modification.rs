//! RePaint-style pattern modification (paper Eq. 12, Figure 6).
//!
//! Every reverse step combines two sources:
//!
//! * kept pixels — forward-noised from the given clean topology:
//!   `T^known_{k-1} ~ q(T_{k-1} | T^known_0)`;
//! * masked pixels — generated by the model:
//!   `T^unknown_{k-1} ~ p_θ(T_{k-1} | T_k, c)`;
//!
//! combined as `T_{k-1} = M ⊙ T^known_{k-1} + (1 − M) ⊙ T^unknown_{k-1}`.
//! Because `b̄_0 = 0`, the final step reproduces the kept pixels exactly.
//!
//! The chain runs on the reduced grid the mask and the kept content
//! draw (`Grid::fitted`): a reduced cell is kept when half its block is,
//! and stands for the majority of its kept cells. The kept cells of the
//! result are written back from `known`, bit for bit.

use std::ops::Range;

use crate::grid::Grid;
use crate::model::{call_words, forward_cells, initial_noise, threshold, Chain};
use crate::{Denoiser, DiffusionModel, Mask};
use cp_layout::squish::Topology;
use cp_layout::stage::{self, Stage};
use rand_chacha::ChaCha8Rng;

impl<D: Denoiser> DiffusionModel<D> {
    /// Regenerates the masked-out region of `known` under `condition`,
    /// keeping `mask` cells bit-exact.
    ///
    /// `resample_rounds` repeats the full reverse pass RePaint-style,
    /// re-noising the previous result, which improves boundary harmony at
    /// linear cost; 1 is the plain single-pass variant.
    ///
    /// On the reduced grid, the stream has a draw for every cell from
    /// both sources, every step — the `n` reverse-process draws, then the
    /// `n` forward-noise draws, `n` words of initial noise before the
    /// first step: `n + 4·K·n` words a round for `n` reduced cells. Each
    /// cell uses one of its two draws; the generator is moved past the
    /// other. The call then seeks to `rows + cols` words plus
    /// `resample_rounds · (1 + 4K)` words a fine cell on from where it
    /// started, so where it leaves the generator depends on the shape
    /// alone. Both are why this takes the generator by name.
    ///
    /// # Panics
    ///
    /// Panics if `mask` and `known` shapes differ or `resample_rounds`
    /// is 0.
    #[must_use]
    pub fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        resample_rounds: usize,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        assert_eq!(mask.shape(), known.shape(), "mask/pattern shape mismatch");
        assert!(resample_rounds >= 1, "at least one resample round");
        let _scope = stage::scope(Stage::Grid);
        let (rows, cols) = known.shape();
        let steps = self.schedule().len();
        let per_cell = resample_rounds * (1 + 4 * steps);
        let end = rng.get_word_pos() + call_words((rows, cols), per_cell);
        let grid = Grid::fitted(self.denoiser().scan_lines(condition), known, mask, rng);
        let (reduced_known, reduced_mask) =
            grid.reduce(known.as_bytes(), mask.as_topology().as_bytes());
        let n = reduced_known.len();
        // The runs of cells the mask treats alike, in the order a step
        // reads their draws: the reverse-process draws of every
        // regenerated run, then the forward-noise draws of every kept
        // run (the sort is stable, so each kind stays in cell order).
        let mut start = 0;
        let mut reads: Vec<(Range<usize>, bool)> = reduced_mask
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let cells = start..start + run.len();
                start = cells.end;
                (cells, run[0] != 0)
            })
            .collect();
        reads.sort_by_key(|&(_, kept)| kept);
        let mut result = reduced_known;
        let mut chain = Chain::new(grid.rows(), grid.cols());
        for _ in 0..resample_rounds {
            // Start from fully-noised state.
            stage::enter(Stage::Noise);
            initial_noise(&mut chain.cells, rng);
            let first_step = rng.get_word_pos();
            for (step, k) in (1..=steps).rev().enumerate() {
                chain.predict(self, grid.runs(), k, condition);
                stage::enter(Stage::Draws);
                let flip = threshold(self.schedule().flip_bar(k - 1));
                for (run, kept) in &reads {
                    let (run, kept) = (run.clone(), *kept);
                    // Of the step's 2n draws, the n reverse ones come first.
                    let draw = 2 * n * step + if kept { n + run.start } else { run.start };
                    rng.set_word_pos(first_step + WORDS_PER_DRAW * draw as u128);
                    if kept {
                        // Ground-truth forward noise for the kept region...
                        forward_cells(&result[run.clone()], flip, rng, &mut chain.cells[run]);
                    } else {
                        // ...and the model's proposal for the rest.
                        chain.reverse(run, rng);
                    }
                }
            }
            rng.set_word_pos(first_step + WORDS_PER_DRAW * (2 * n * steps) as u128);
            // The next round starts from fresh noise, written over all of
            // what this swaps in.
            std::mem::swap(&mut result, &mut chain.cells);
        }
        rng.set_word_pos(end);
        stage::enter(Stage::WriteBack);
        let mut cells = grid.expand(&result);
        for ((cell, &bit), &kept) in cells
            .iter_mut()
            .zip(known.as_bytes())
            .zip(mask.as_topology().as_bytes())
        {
            if kept != 0 {
                *cell = bit;
            }
        }
        Topology::from_bytes(rows, cols, cells)
    }
}

/// A draw is one `u64` of the stream.
const WORDS_PER_DRAW: u128 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denoiser::test_support::ConstantDenoiser;
    use crate::NoiseSchedule;
    use cp_layout::squish::Region;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model(p: f32) -> DiffusionModel<ConstantDenoiser> {
        DiffusionModel::new(
            NoiseSchedule::scaled_default(8),
            ConstantDenoiser { probability: p },
            8,
        )
    }

    #[test]
    fn kept_region_is_bit_exact() {
        let known = Topology::from_fn(8, 8, |r, c| (r * 3 + c) % 4 == 0);
        let mask = Mask::keep_outside(8, 8, Region::new(2, 2, 6, 6));
        let out = model(0.5).modify(&known, &mask, None, 1, &mut ChaCha8Rng::seed_from_u64(1));
        for r in 0..8 {
            for c in 0..8 {
                if mask.keeps(r, c) {
                    assert_eq!(
                        out.get(r, c),
                        known.get(r, c),
                        "kept cell ({r},{c}) changed"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_region_follows_model() {
        // A denoiser certain of "all ones" must fill the hole with ones.
        let known = Topology::filled(8, 8, false);
        let mask = Mask::keep_outside(8, 8, Region::new(0, 0, 4, 4));
        let out = model(1.0).modify(&known, &mask, None, 1, &mut ChaCha8Rng::seed_from_u64(2));
        for (r, c) in Region::new(0, 0, 4, 4).cells() {
            assert!(out.get(r, c), "regenerated cell ({r},{c}) should be 1");
        }
        // Kept cells still zero.
        assert!(!out.get(7, 7));
    }

    #[test]
    fn keep_all_mask_is_identity() {
        let known = Topology::from_fn(6, 6, |r, c| r == c);
        let mask = Mask::keep_all(6, 6);
        let out = model(0.5).modify(&known, &mask, None, 1, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(out, known);
    }

    #[test]
    fn multiple_resample_rounds_still_respect_mask() {
        let known = Topology::from_fn(8, 8, |r, _| r % 2 == 0);
        let mask = Mask::keep_outside(8, 8, Region::new(3, 3, 5, 5));
        let out = model(0.3).modify(&known, &mask, None, 3, &mut ChaCha8Rng::seed_from_u64(4));
        for r in 0..8 {
            for c in 0..8 {
                if mask.keeps(r, c) {
                    assert_eq!(out.get(r, c), known.get(r, c));
                }
            }
        }
    }

    #[test]
    fn a_checkerboard_kept_ring_comes_back_bit_exact_on_a_bounded_grid() {
        use crate::grid::Grid;
        use crate::MrfDenoiser;
        // A style of few lines: blocks of 8 × 8 on a 32 × 32 window.
        let data: Vec<Topology> = (0..4)
            .map(|i| Topology::from_fn(32, 32, move |r, c| (r / 8 + c / 8 + i) % 2 == 0))
            .collect();
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(6),
            MrfDenoiser::fit(&[(0, &data)], 1.0),
            32,
        );
        // Every line of the kept ring changes from the next.
        let known = Topology::from_fn(32, 32, |r, c| (r + c) % 2 == 0);
        let mask = Mask::keep_outside(32, 32, Region::new(6, 6, 26, 26));
        let lines = model.denoiser().scan_lines(Some(0));
        for seed in 0..4 {
            let grid = Grid::fitted(lines, &known, &mask, &mut ChaCha8Rng::seed_from_u64(seed));
            assert!(grid.rows() <= lines.bound(0, 32) && grid.cols() <= lines.bound(1, 32));
            assert!(grid.rows() < 32 && grid.cols() < 32, "the grid is reduced");
            let out = model.modify(
                &known,
                &mask,
                Some(0),
                1,
                &mut ChaCha8Rng::seed_from_u64(seed),
            );
            for (r, c) in Region::new(0, 0, 32, 32).cells() {
                if mask.keeps(r, c) {
                    assert_eq!(out.get(r, c), known.get(r, c), "kept cell ({r},{c})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let known = Topology::filled(4, 4, false);
        let mask = Mask::keep_all(5, 5);
        let _ = model(0.5).modify(&known, &mask, None, 1, &mut ChaCha8Rng::seed_from_u64(5));
    }
}
