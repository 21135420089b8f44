//! Out-Painting extension: grow a pattern by generating new borders.

use crate::Canvas;
use cp_diffusion::PatternSampler;
use cp_layout::squish::{Region, Topology};
use rand_chacha::ChaCha8Rng;

/// Extends `seed` to `rows × cols` by walking `window × window` frames
/// over the canvas with the given stride, regenerating the not-yet
/// generated cells of each frame conditioned on the generated ones.
///
/// The walk is row-major; window positions step by `stride` and the last
/// position per axis clamps to the canvas edge, so coverage is complete.
///
/// # Panics
///
/// Panics if the seed is larger than the target, the target is smaller
/// than the sampler window, or `stride` is 0 or larger than the window.
#[must_use]
pub(crate) fn out_paint<S: PatternSampler + ?Sized>(
    sampler: &S,
    seed: &Topology,
    rows: usize,
    cols: usize,
    stride: usize,
    condition: Option<u32>,
    rng: &mut ChaCha8Rng,
) -> Topology {
    let l = sampler.window();
    assert!(
        seed.rows() <= rows && seed.cols() <= cols,
        "seed exceeds target"
    );
    assert!(rows >= l && cols >= l, "target smaller than sampler window");
    assert!(stride > 0 && stride <= l, "stride must be in 1..=window");
    let mut canvas = Canvas::new(rows, cols);
    canvas.place(seed, 0, 0);
    for row0 in axis_positions(rows, l, stride) {
        for col0 in axis_positions(cols, l, stride) {
            let region = Region::new(row0, col0, row0 + l, col0 + l);
            let mask = canvas.keep_mask(region);
            if mask.regenerate_count() == 0 {
                continue; // fully generated already (e.g. the seed tile)
            }
            let known = canvas.window(region);
            let content = sampler.modify(&known, &mask, condition, rng);
            canvas.commit(region, &content);
        }
    }
    canvas.into_topology()
}

/// Window origins along one axis: `0, s, 2s, …` with the last clamped to
/// `len − l` (deduplicated).
pub(crate) fn axis_positions(len: usize, l: usize, stride: usize) -> Vec<usize> {
    let mut positions = Vec::new();
    let mut p = 0;
    loop {
        if p + l >= len {
            positions.push(len - l);
            break;
        }
        positions.push(p);
        p += stride;
    }
    positions.dedup();
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{striped_model, Counting};
    use rand::SeedableRng;

    #[test]
    fn axis_positions_cover_with_clamp() {
        assert_eq!(axis_positions(32, 16, 8), vec![0, 8, 16]);
        assert_eq!(axis_positions(16, 16, 8), vec![0]);
        assert_eq!(axis_positions(20, 16, 8), vec![0, 4]);
    }

    #[test]
    fn out_paint_grows_seed_and_keeps_it() {
        let model = striped_model();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let seed = Topology::from_fn(16, 16, |_, c| c % 4 < 2);
        let big = out_paint(&model, &seed, 32, 32, 8, Some(0), &mut rng);
        assert_eq!(big.shape(), (32, 32));
        // Seed cells are preserved bit-exact (first window keeps them).
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(big.get(r, c), seed.get(r, c), "seed cell ({r},{c})");
            }
        }
        // Extended area actually contains drawn shapes.
        let extended_ones = (0..32)
            .flat_map(|r| (0..32).map(move |c| (r, c)))
            .filter(|&(r, c)| (r >= 16 || c >= 16) && big.get(r, c))
            .count();
        assert!(extended_ones > 0, "out-painting generated nothing");
    }

    #[test]
    fn out_paint_matches_sample_count_formula() {
        use crate::out_painting_samples;
        let model = striped_model();
        let counting = Counting::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let seed = model.generate(16, 16, Some(0), &mut rng);
        let _ = out_paint(&counting, &seed, 32, 32, 8, Some(0), &mut rng);
        // N_out = (⌈16/8⌉+1)² = 9, minus the seed window which needs no
        // regeneration.
        assert_eq!(
            counting.calls().len(),
            out_painting_samples(32, 32, 16, 8) - 1
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let model = striped_model();
        let seed = Topology::from_fn(16, 16, |_, c| c % 4 < 2);
        let a = out_paint(
            &model,
            &seed,
            24,
            24,
            8,
            Some(0),
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let b = out_paint(
            &model,
            &seed,
            24,
            24,
            8,
            Some(0),
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "seed exceeds target")]
    fn oversized_seed_rejected() {
        let model = striped_model();
        let seed = Topology::filled(64, 64, false);
        let _ = out_paint(
            &model,
            &seed,
            32,
            32,
            8,
            None,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
    }
}
