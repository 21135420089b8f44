//! The straight-line per-cell inference kernels the table-driven
//! passes in `mrf.rs` replaced, kept verbatim as the test oracle:
//! `predict_x0` must return the same `f32` bits as [`predict_x0`] here
//! for every input (see the equivalence tests in `mrf.rs`).

use super::{GridContext, MrfDenoiser};
use crate::grid::Runs;
use crate::NoiseSchedule;
use cp_layout::squish::Topology;

/// Thresholds beliefs at the top-k quantile and drops connected
/// fragments covering fewer than `MIN_COMPONENT_AREA` fine cells (cell
/// `(r, c)` covers `runs.area(r, c)`) — the minimum-area analogue on the
/// reduced grid.
pub(super) fn regularize(beliefs: &[f64], runs: Runs<'_>, target_density: f64) -> Vec<bool> {
    // Quantile threshold: the binary map starts at exactly the training
    // density, so thresholding artefacts cannot inflate or deflate it.
    // Exactly the top-k cells are kept (ties broken by index) — a plain
    // `>= threshold` comparison would keep every tied cell and saturate
    // degenerate belief maps.
    let keep = ((beliefs.len() as f64) * target_density).round() as usize;
    let mut order: Vec<usize> = (0..beliefs.len()).collect();
    order.sort_by(|&a, &b| beliefs[b].partial_cmp(&beliefs[a]).expect("finite beliefs"));
    let mut bits = vec![false; beliefs.len()];
    for &i in order.iter().take(keep.min(beliefs.len())) {
        bits[i] = true;
    }
    drop_small_components(&mut bits, runs, super::MIN_COMPONENT_AREA);
    bits
}

/// Clears 4-connected components covering fewer than `min_area` fine
/// cells.
fn drop_small_components(bits: &mut [bool], runs: Runs<'_>, min_area: usize) {
    let (rows, cols) = runs.shape();
    let mut labels = vec![usize::MAX; bits.len()];
    let mut component = 0usize;
    let mut stack = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    for start in 0..bits.len() {
        if !bits[start] || labels[start] != usize::MAX {
            continue;
        }
        members.clear();
        stack.push(start);
        labels[start] = component;
        while let Some(i) = stack.pop() {
            members.push(i);
            let (r, c) = (i / cols, i % cols);
            let mut visit = |j: usize| {
                if bits[j] && labels[j] == usize::MAX {
                    labels[j] = component;
                    stack.push(j);
                }
            };
            if r > 0 {
                visit(i - cols);
            }
            if r + 1 < rows {
                visit(i + cols);
            }
            if c > 0 {
                visit(i - 1);
            }
            if c + 1 < cols {
                visit(i + 1);
            }
        }
        let area: usize = members.iter().map(|&i| runs.area(i / cols, i % cols)).sum();
        if area < min_area {
            for &i in &members {
                bits[i] = false;
            }
        }
        component += 1;
    }
}

/// Context from a float belief map (threshold 0.5), used inside sweeps.
fn context_of_beliefs(beliefs: &[f64], rows: usize, cols: usize, r: usize, c: usize) -> usize {
    let mut ctx = 0usize;
    let mut bit = 0;
    for dr in -1i32..=1 {
        for dc in -1i32..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            let rr = r as i32 + dr;
            let cc = c as i32 + dc;
            let set = rr >= 0
                && cc >= 0
                && (rr as usize) < rows
                && (cc as usize) < cols
                && beliefs[rr as usize * cols + cc as usize] > 0.5;
            if set {
                ctx |= 1 << bit;
            }
            bit += 1;
        }
    }
    ctx
}

/// The mean-field sweeps at the table's own grid resolution, then
/// [`finish_grid`].
fn predict_grid_with(
    mrf: &MrfDenoiser,
    x_k: &Topology,
    runs: Runs<'_>,
    gc: &GridContext<'_>,
) -> Vec<f32> {
    let (rows, cols) = x_k.shape();
    // Initial beliefs: channel posterior under a flat prior.
    let mut beliefs: Vec<f64> = x_k
        .as_bytes()
        .iter()
        .map(|&b| gc.init[usize::from(b != 0)])
        .collect();
    // Mean-field sweeps: local fitted prior × channel likelihood.
    for _ in 0..mrf.sweeps {
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                let ctx = context_of_beliefs(&beliefs, rows, cols, r, c);
                let prior = gc.table[ctx].clamp(1e-6, 1.0 - 1e-6);
                let bit = usize::from(x_k.as_bytes()[i] != 0);
                let numerator = prior * gc.like[bit][1];
                let denominator = numerator + (1.0 - prior) * gc.like[bit][0];
                beliefs[i] = numerator / denominator;
            }
        }
    }
    finish_grid(beliefs, runs, gc)
}

/// Calibration + regularization tail of a grid prediction.
fn finish_grid(mut beliefs: Vec<f64>, runs: Runs<'_>, gc: &GridContext<'_>) -> Vec<f32> {
    // Marginal calibration: mean-field on dense tables can run away
    // toward saturation; shift the belief odds so the mean prediction
    // matches the style's training density (a denoiser trained to
    // convergence is calibrated by construction).
    let target = gc.target;
    let mean: f64 = beliefs.iter().sum::<f64>() / beliefs.len() as f64;
    if mean > 1e-6 && mean < 1.0 - 1e-6 {
        let ratio = (target / (1.0 - target)) / (mean / (1.0 - mean));
        for b in &mut beliefs {
            let clamped = b.clamp(1e-9, 1.0 - 1e-9);
            let odds = clamped / (1.0 - clamped) * ratio;
            *b = odds / (1.0 + odds);
        }
    }
    // Regularization over the final third of the chain: the top-k
    // map without its smallest fragments, the shapes a denoiser trained
    // on layout data predicts near the end of the chain. Earlier steps keep the raw
    // beliefs — blending the regularized map into mid-chain feedback
    // ratchets density upward, so the weight stays zero there.
    let binary = regularize(&beliefs, runs, target);
    let w = gc.w;
    beliefs
        .iter()
        .zip(&binary)
        .map(|(&b, &bit)| {
            let target = if bit { 1.0 } else { 0.0 };
            (b * (1.0 - w) + target * w) as f32
        })
        .collect()
}

/// The whole of the old `MrfDenoiser::predict_x0`, at step `k` of
/// `schedule`.
pub(super) fn predict_x0(
    mrf: &MrfDenoiser,
    schedule: &NoiseSchedule,
    x_k: &Topology,
    runs: Runs<'_>,
    k: usize,
    condition: Option<u32>,
) -> Vec<f32> {
    let gc = &mrf.grid_context(schedule, k, condition);
    predict_grid_with(mrf, x_k, runs, gc)
}
