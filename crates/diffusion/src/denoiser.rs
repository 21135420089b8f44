//! The denoiser abstraction: `p_θ(x₀ | x_k, c)`.

use crate::grid::{Runs, ScanLines};
use crate::mrf::Scratch;
use crate::NoiseSchedule;

/// Entries of a step's [`Prediction`] table: a regularized-map bit over
/// the MRF's 512 cell keys.
pub(crate) const INDICES: usize = 1024;

/// One reverse step's `P(x₀ = 1)`, a cell of the chain's grid at a
/// time: each cell holds an index into a table of at most 1 024 values.
/// A chain makes one and hands it to every step, so a step reuses its
/// buffers.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Cells per row.
    pub(crate) cols: usize,
    /// Per cell, row-major: its entry of `table`.
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
/// is 1, as a [`Prediction`]; and say what scan lines the style's
/// topologies have, which is the grid a model call samples on.
///
/// The diffusion machinery (reverse step, RePaint modification, painting
/// walks) is written once against this trait. The fitted statistical
/// [`MrfDenoiser`](crate::MrfDenoiser) is the implementation the system
/// runs; the test fake is the other.
pub trait Denoiser {
    /// Takes the schedule of the model the denoiser is built into: what
    /// depends only on the condition, the step and the schedule is made
    /// here, once a model
    /// ([`DiffusionModel::new`](crate::DiffusionModel::new) calls this).
    fn prepare(&mut self, schedule: &NoiseSchedule);

    /// Predicts `P(x₀ = 1)` for the row-major 0/1 cells of `x_k` at step
    /// `k` (1 to `K`) of the schedule [`Denoiser::prepare`] took, into
    /// `out`. `x_k` is a reduced grid whose cells stand for the blocks
    /// `runs` gives.
    fn predict_x0(
        &self,
        x_k: &[u8],
        runs: Runs<'_>,
        k: usize,
        condition: Option<u32>,
        out: &mut Prediction,
    );

    /// The scan lines of `condition`'s training topologies, from which a
    /// model call draws the reduced grid it samples on.
    fn scan_lines(&self, condition: Option<u32>) -> &ScanLines;
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
        fn prepare(&mut self, _schedule: &NoiseSchedule) {}

        fn predict_x0(
            &self,
            _x_k: &[u8],
            runs: Runs<'_>,
            _k: usize,
            _condition: Option<u32>,
            out: &mut Prediction,
        ) {
            let (rows, cols) = runs.shape();
            out.cols = cols;
            out.index.clear();
            out.index.resize(rows * cols, 0);
            out.present.clear();
            out.present.push(0);
            out.table[0] = self.probability;
        }

        fn scan_lines(&self, _condition: Option<u32>) -> &ScanLines {
            &crate::grid::ONE_LINE_RUNS
        }
    }

    /// `denoiser`'s prediction for `x_k` on a grid of runs `runs`, one
    /// value a cell: what the per-cell reference loops read.
    pub(crate) fn predict_fine(
        denoiser: &impl Denoiser,
        x_k: &Topology,
        runs: Runs<'_>,
        k: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        let mut p = Prediction::default();
        let (rows, cols) = x_k.shape();
        assert_eq!(runs.shape(), (rows, cols));
        denoiser.predict_x0(x_k.as_bytes(), runs, k, condition, &mut p);
        assert_eq!((p.index.len(), p.cols), (rows * cols, cols));
        p.index
            .iter()
            .map(|&entry| p.table[usize::from(entry)])
            .collect()
    }
}
