//! In-Painting extension: concatenate tiles, then repair the seams.

use crate::out_painting::axis_positions;
use crate::Canvas;
use cp_diffusion::PatternSampler;
use cp_layout::squish::{Region, Topology};
use rand_chacha::ChaCha8Rng;

/// Builds a `rows × cols` topology by tiling independently generated
/// `L × L` patches (the first one may be a given `seed`), then
/// regenerating a band of width `L/2` across every vertical seam, every
/// horizontal seam, and an `L/2 × L/2` block at every seam corner —
/// merging the shapes from both sides (paper Figure 7, left).
///
/// Model-call count equals `(2⌈W/L⌉−1)(2⌈H/L⌉−1)` as in §3.2.
///
/// # Panics
///
/// Panics if the target is smaller than the sampler window or `seed` is
/// not exactly window-sized.
#[must_use]
pub(crate) fn in_paint<S: PatternSampler + ?Sized>(
    sampler: &S,
    seed: Option<&Topology>,
    rows: usize,
    cols: usize,
    condition: Option<u32>,
    rng: &mut ChaCha8Rng,
) -> Topology {
    let l = sampler.window();
    assert!(rows >= l && cols >= l, "target smaller than sampler window");
    if let Some(seed) = seed {
        assert_eq!(
            seed.shape(),
            (l, l),
            "in-painting seed must be window-sized"
        );
    }
    let mut canvas = Canvas::new(rows, cols);
    // Tile pass: stride = window (tiles abut; last tile clamps/overlaps).
    let row_tiles = axis_positions(rows, l, l);
    let col_tiles = axis_positions(cols, l, l);
    let mut first = true;
    for &r0 in &row_tiles {
        for &c0 in &col_tiles {
            let tile = if first {
                first = false;
                match seed {
                    Some(s) => s.clone(),
                    None => sampler.generate(l, l, condition, rng),
                }
            } else {
                sampler.generate(l, l, condition, rng)
            };
            canvas.place(&tile, r0, c0);
        }
    }
    let band = l / 2;
    // Vertical seams: windows straddling each internal tile boundary.
    for &seam_x in col_tiles.iter().skip(1) {
        // `seam_x` is the boundary column of the tile.
        let col0 = seam_x.saturating_sub(band).min(cols - l);
        for &r0 in &row_tiles {
            let region = Region::new(r0, col0, r0 + l, col0 + l);
            // Repaint band centred on the seam, window-local coordinates.
            let local = seam_x - col0;
            let repaint = Region::new(
                0,
                local.saturating_sub(band / 2),
                l,
                (local + band / 2).min(l),
            );
            repaint_window(sampler, &mut canvas, region, repaint, condition, rng);
        }
    }
    // Horizontal seams.
    for &seam_y in row_tiles.iter().skip(1) {
        let row0 = seam_y.saturating_sub(band).min(rows - l);
        for &c0 in &col_tiles {
            let region = Region::new(row0, c0, row0 + l, c0 + l);
            let local = seam_y - row0;
            let repaint = Region::new(
                local.saturating_sub(band / 2),
                0,
                (local + band / 2).min(l),
                l,
            );
            repaint_window(sampler, &mut canvas, region, repaint, condition, rng);
        }
    }
    // Seam corners: central block at every internal boundary crossing.
    for &seam_y in row_tiles.iter().skip(1) {
        for &seam_x in col_tiles.iter().skip(1) {
            let row0 = seam_y.saturating_sub(band).min(rows - l);
            let col0 = seam_x.saturating_sub(band).min(cols - l);
            let region = Region::new(row0, col0, row0 + l, col0 + l);
            let ly = seam_y - row0;
            let lx = seam_x - col0;
            let repaint = Region::new(
                ly.saturating_sub(band / 2),
                lx.saturating_sub(band / 2),
                (ly + band / 2).min(l),
                (lx + band / 2).min(l),
            );
            repaint_window(sampler, &mut canvas, region, repaint, condition, rng);
        }
    }
    canvas.into_topology()
}

fn repaint_window<S: PatternSampler + ?Sized>(
    sampler: &S,
    canvas: &mut Canvas,
    region: Region,
    repaint: Region,
    condition: Option<u32>,
    rng: &mut ChaCha8Rng,
) {
    let mask = canvas.keep_mask_excluding(region, repaint);
    let known = canvas.window(region);
    let content = sampler.modify(&known, &mask, condition, rng);
    canvas.commit(region, &content);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{striped_model, Counting};
    use rand::SeedableRng;

    #[test]
    fn in_paint_produces_target_shape() {
        let model = striped_model();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let big = in_paint(&model, None, 32, 32, Some(0), &mut rng);
        assert_eq!(big.shape(), (32, 32));
        assert!(big.count_ones() > 0);
    }

    #[test]
    fn in_paint_respects_given_seed_far_from_seams() {
        let model = striped_model();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let seed = Topology::from_fn(16, 16, |_, c| c % 4 < 2);
        let big = in_paint(&model, Some(&seed), 32, 32, Some(0), &mut rng);
        // Cells of the first tile outside any seam band survive: the
        // vertical seam band covers local cols 12..20, horizontal rows
        // 12..20 — so the top-left 12×12 corner is untouched.
        for r in 0..12 {
            for c in 0..12 {
                assert_eq!(big.get(r, c), seed.get(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn in_paint_call_count_matches_formula() {
        use crate::in_painting_samples;
        let model = striped_model();
        let counting = Counting::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let _ = in_paint(&counting, None, 32, 32, Some(0), &mut rng);
        // (2·2−1)² = 9 model calls: 4 tiles + 4 seams + 1 corner.
        assert_eq!(counting.calls().len(), in_painting_samples(32, 32, 16));
    }

    #[test]
    fn non_multiple_targets_are_covered() {
        let model = striped_model();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let big = in_paint(&model, None, 24, 40, Some(0), &mut rng);
        assert_eq!(big.shape(), (24, 40));
    }

    #[test]
    #[should_panic(expected = "window-sized")]
    fn wrong_seed_shape_rejected() {
        let model = striped_model();
        let seed = Topology::filled(8, 8, false);
        let _ = in_paint(
            &model,
            Some(&seed),
            32,
            32,
            None,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
    }
}
