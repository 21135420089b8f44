//! LayouTransformer baseline: sequential (autoregressive) generation.
//!
//! Wen et al. model squish patterns as token sequences with a
//! transformer. The mechanism that matters for Table 1 is *causal
//! sequential* generation — each cell conditioned only on already-emitted
//! cells — so the reimplementation fits an autoregressive raster model
//! `P(bit | 6 causal neighbours)` by counting and samples row-major.
//! Single-pass generation has no global repair step, which is exactly
//! why its legality lands below diffusion in the paper.

use crate::Generator;
use cp_layout::squish::Topology;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CONTEXT_BITS: usize = 6;
const CONTEXTS: usize = 1 << CONTEXT_BITS;

/// A fitted autoregressive raster model.
#[derive(Debug, Clone)]
pub struct LayouTransformer {
    /// `P(bit = 1 | causal context)`.
    table: [f64; CONTEXTS],
}

impl LayouTransformer {
    /// Fits the causal context table with Laplace smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[must_use]
    pub fn fit(data: &[Topology], smoothing: f64) -> LayouTransformer {
        assert!(!data.is_empty(), "LayouTransformer needs data");
        let mut ones = [smoothing; CONTEXTS];
        let mut total = [2.0 * smoothing; CONTEXTS];
        for t in data {
            for r in 0..t.rows() {
                for c in 0..t.cols() {
                    let ctx = causal_context(|rr, cc| t.get(rr, cc), t.rows(), t.cols(), r, c);
                    total[ctx] += 1.0;
                    if t.get(r, c) {
                        ones[ctx] += 1.0;
                    }
                }
            }
        }
        let mut table = [0.5f64; CONTEXTS];
        for ctx in 0..CONTEXTS {
            table[ctx] = ones[ctx] / total[ctx];
        }
        LayouTransformer { table }
    }
}

/// Causal context: (left, left−2, up, up−2, up-left, up-right), bits in
/// that order; out-of-raster reads as 0.
fn causal_context(
    get: impl Fn(usize, usize) -> bool,
    rows: usize,
    cols: usize,
    r: usize,
    c: usize,
) -> usize {
    let probe = |rr: i64, cc: i64| -> bool {
        rr >= 0
            && cc >= 0
            && (rr as usize) < rows
            && (cc as usize) < cols
            && get(rr as usize, cc as usize)
    };
    let r = r as i64;
    let c = c as i64;
    let neighbours = [
        probe(r, c - 1),
        probe(r, c - 2),
        probe(r - 1, c),
        probe(r - 2, c),
        probe(r - 1, c - 1),
        probe(r - 1, c + 1),
    ];
    neighbours
        .iter()
        .enumerate()
        .fold(0usize, |acc, (i, &b)| acc | (usize::from(b) << i))
}

impl Generator for LayouTransformer {
    fn name(&self) -> &str {
        "LayouTransformer"
    }

    fn generate(&self, rows: usize, cols: usize, rng: &mut dyn RngCore) -> Topology {
        let mut local = ChaCha8Rng::seed_from_u64(rng.next_u64());
        let mut t = Topology::filled(rows, cols, false);
        for r in 0..rows {
            for c in 0..cols {
                let ctx = causal_context(|rr, cc| t.get(rr, cc), rows, cols, r, c);
                let p = self.table[ctx];
                t.set(r, c, local.gen::<f64>() < p);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn striped() -> Vec<Topology> {
        (0..8)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 4 < 2))
            .collect()
    }

    #[test]
    fn table_learns_continuation() {
        let lt = LayouTransformer::fit(&striped(), 1.0);
        // Context "up set, up-left set, left set" (bits 0,2,4) strongly
        // predicts continuation of a solid region in stripe data.
        let ctx = 0b010101;
        assert!(lt.table[ctx] > 0.5, "p = {}", lt.table[ctx]);
    }

    #[test]
    fn generated_density_is_plausible() {
        let lt = LayouTransformer::fit(&striped(), 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mean: f64 = (0..6)
            .map(|_| lt.generate(16, 16, &mut rng).density())
            .sum::<f64>()
            / 6.0;
        assert!((mean - 0.5).abs() < 0.2, "density {mean}");
    }

    #[test]
    fn generation_is_free_size() {
        // Autoregressive models can emit any raster size (though quality
        // drifts — the motivation for ChatPattern's extension tools).
        let lt = LayouTransformer::fit(&striped(), 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let t = lt.generate(8, 24, &mut rng);
        assert_eq!(t.shape(), (8, 24));
    }

    #[test]
    fn causal_context_ignores_future_cells() {
        // The context of cell (0,0) is empty by construction.
        let t = Topology::filled(4, 4, true);
        let ctx = causal_context(|r, c| t.get(r, c), 4, 4, 0, 0);
        assert_eq!(ctx, 0);
    }
}
