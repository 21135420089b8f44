//! The denoiser abstraction: `p_θ(x₀ | x_k, c)`.

use crate::mrf::Scratch;

/// Entries of a step's [`Prediction`] table: a regularized-map bit over
/// the MRF's 512 cell keys.
pub(crate) const INDICES: usize = 1024;

/// One reverse step's `P(x₀ = 1)`, on the denoiser's coarse grid: each
/// coarse cell holds an index into a table of at most 1 024 values and
/// stands for the `factor × factor` block of fine cells under it (cut
/// at the right and bottom edges). A chain makes one and hands it to
/// every step, so a step reuses its buffers.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Fine cells per coarse cell, each way.
    pub(crate) factor: usize,
    /// Coarse cells per row.
    pub(crate) cols: usize,
    /// Per coarse cell, row-major: its entry of `table`.
    pub(crate) index: Vec<u16>,
    /// The entries `index` may hold; the others are stale.
    pub(crate) present: Vec<u16>,
    /// `P(x₀ = 1)` per entry.
    pub(crate) table: [f32; INDICES],
    /// The buffers the MRF builds the prediction in.
    pub(crate) scratch: Scratch,
}

impl Default for Prediction {
    fn default() -> Prediction {
        Prediction {
            factor: 1,
            cols: 0,
            index: Vec::new(),
            present: Vec::with_capacity(INDICES),
            table: [0.0; INDICES],
            scratch: Scratch::default(),
        }
    }
}

/// A learned estimator of the clean-topology posterior.
///
/// Given the noisy topology `x_k`, the step index `k` and an optional
/// style condition `c`, produce the probability that the clean bit `x₀`
/// is 1, as a [`Prediction`].
///
/// The diffusion machinery (reverse step, RePaint modification, painting
/// walks) is written once against this trait. The fitted statistical
/// [`MrfDenoiser`](crate::MrfDenoiser) is the implementation the system
/// runs; the test fake is the other.
pub trait Denoiser {
    /// Predicts `P(x₀ = 1)` for the `rows × cols` row-major 0/1 cells
    /// of `x_k` at diffusion step `k`, into `out`.
    ///
    /// `total_steps` is the schedule length `K`, so implementations can
    /// normalize `k` into a time embedding.
    fn predict_x0(
        &self,
        x_k: &[u8],
        shape: (usize, usize),
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
        out: &mut Prediction,
    );
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use cp_layout::squish::Topology;

    /// A denoiser that always predicts a fixed constant probability —
    /// used to unit-test the sampling machinery in isolation.
    #[derive(Debug, Clone)]
    pub struct ConstantDenoiser {
        pub probability: f32,
    }

    impl Denoiser for ConstantDenoiser {
        fn predict_x0(
            &self,
            _x_k: &[u8],
            (rows, cols): (usize, usize),
            _k: usize,
            _total_steps: usize,
            _condition: Option<u32>,
            out: &mut Prediction,
        ) {
            out.factor = 1;
            out.cols = cols;
            out.index.clear();
            out.index.resize(rows * cols, 0);
            out.present.clear();
            out.present.push(0);
            out.table[0] = self.probability;
        }
    }

    /// `denoiser`'s prediction for `x_k` at full resolution, one value
    /// a cell: what the per-cell reference loops read.
    pub(crate) fn predict_fine(
        denoiser: &impl Denoiser,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        let mut p = Prediction::default();
        let (rows, cols) = x_k.shape();
        denoiser.predict_x0(
            x_k.as_bytes(),
            (rows, cols),
            k,
            total_steps,
            condition,
            &mut p,
        );
        let coarse_rows = p.index.len() / p.cols;
        (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let at =
                    (r / p.factor).min(coarse_rows - 1) * p.cols + (c / p.factor).min(p.cols - 1);
                p.table[usize::from(p.index[at])]
            })
            .collect()
    }
}
