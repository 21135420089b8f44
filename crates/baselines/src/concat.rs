//! DiffPattern w/ Concatenation: the free-size baseline.
//!
//! Larger patterns are produced by stitching *already-legalized* tiles
//! edge to edge. Each tile is DRC-clean on its own, but its geometry is
//! frozen: shapes from adjacent tiles land arbitrarily close across the
//! boundary, and nothing can repair the seam afterwards. This is why the
//! baseline's legality collapses as the target grows (Table 1: 0.29% at
//! 512² and ~0% at 1024² for the dense layer) while ChatPattern — which
//! extends the *topology* and legalizes the assembled pattern globally —
//! keeps producing legal patterns.

use crate::Generator;
use cp_layout::geom::{Layout, Rect};
use cp_layout::legalize::Legalizer;
use rand::RngCore;

/// Builds a `tiles_x × tiles_y` assembly of independently generated and
/// legalized `tile_cells²` patterns, each in a `tile_frame_nm²` frame.
///
/// Returns `None` when some tile fails to legalize after `retries`
/// attempts (tile selection, as every squish-based method may apply).
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the paper's experiment knobs one-to-one
pub fn concat_extend(
    generator: &dyn Generator,
    tile_cells: usize,
    tiles_x: usize,
    tiles_y: usize,
    tile_frame_nm: i64,
    legalizer: &Legalizer,
    retries: usize,
    rng: &mut dyn RngCore,
) -> Option<Layout> {
    let frame = Rect::new(
        0,
        0,
        tile_frame_nm * tiles_x as i64,
        tile_frame_nm * tiles_y as i64,
    );
    let mut assembled = Layout::new(frame);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let mut tile = None;
            for _ in 0..retries.max(1) {
                let topology = generator.generate(tile_cells, tile_cells, rng);
                let mut local = {
                    use rand::SeedableRng;
                    rand_chacha::ChaCha8Rng::seed_from_u64(rng.next_u64())
                };
                if let Ok(pattern) =
                    legalizer.legalize(&topology, tile_frame_nm, tile_frame_nm, &mut local)
                {
                    tile = Some(pattern);
                    break;
                }
            }
            let tile = tile?;
            let layout = tile.to_layout();
            let dx = tile_frame_nm * tx as i64;
            let dy = tile_frame_nm * ty as i64;
            for r in layout.rects() {
                assembled.push(r.translated(dx, dy));
            }
        }
    }
    Some(assembled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_layout::drc::{check_pattern, DesignRules};
    use cp_layout::squish::{SquishPattern, Topology};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Shapes hug the right edge: concatenation must create seam
    /// violations.
    struct EdgeHugger;

    impl Generator for EdgeHugger {
        fn name(&self) -> &str {
            "EdgeHugger"
        }
        fn generate(&self, rows: usize, cols: usize, _rng: &mut dyn RngCore) -> Topology {
            // Bars one cell away from the left/right edges: after
            // legalization in a tight frame the border columns stay a few
            // nm wide, so the seam gap is far below the space rule.
            Topology::from_fn(rows, cols, |_, c| c == 1 || c == cols - 2)
        }
    }

    /// Shapes comfortably inside: concatenation is safe.
    struct Interior;

    impl Generator for Interior {
        fn name(&self) -> &str {
            "Interior"
        }
        fn generate(&self, rows: usize, cols: usize, _rng: &mut dyn RngCore) -> Topology {
            Topology::from_fn(rows, cols, |r, c| {
                (rows / 4..3 * rows / 4).contains(&r) && (cols / 4..3 * cols / 4).contains(&c)
            })
        }
    }

    fn rules() -> DesignRules {
        DesignRules::new(40, 40, 3200)
    }

    #[test]
    fn assembly_covers_full_frame() {
        let legalizer = Legalizer::new(rules());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layout = concat_extend(&Interior, 8, 2, 3, 512, &legalizer, 3, &mut rng)
            .expect("tiles legalize");
        assert_eq!(layout.frame(), Rect::new(0, 0, 1024, 1536));
        assert!(!layout.is_empty());
    }

    #[test]
    fn interior_tiles_stay_clean_after_concat() {
        let legalizer = Legalizer::new(rules());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layout = concat_extend(&Interior, 8, 2, 2, 512, &legalizer, 3, &mut rng)
            .expect("tiles legalize");
        let squish = SquishPattern::from_layout(&layout);
        assert!(check_pattern(&squish, &rules()).is_clean());
    }

    #[test]
    fn edge_hugging_tiles_violate_at_seams() {
        let legalizer = Legalizer::new(rules());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let layout = concat_extend(&EdgeHugger, 8, 2, 1, 160, &legalizer, 3, &mut rng)
            .expect("tiles legalize");
        let squish = SquishPattern::from_layout(&layout);
        let report = check_pattern(&squish, &rules());
        assert!(
            !report.is_clean(),
            "edge-hugging tiles must violate across the frozen seam"
        );
    }
}
