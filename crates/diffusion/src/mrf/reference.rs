//! The straight-line per-cell inference kernels the table-driven
//! passes in `mrf.rs` replaced, kept verbatim as the test oracle:
//! `predict_x0` must return the same `f32` bits as [`predict_x0`] here
//! for every input (see the equivalence tests in `mrf.rs`).

use super::{GridContext, MrfDenoiser};
use cp_squish::Topology;

/// Thresholds beliefs and enforces the minimum-feature structure of
/// Manhattan layout data: single-cell gaps inside runs are filled,
/// single-cell runs removed (first along rows, then along columns), and
/// connected fragments below six cells are dropped — the minimum-area
/// analogue. This is what keeps the scan-line complexity and fragment
/// count of samples in the legalizable range, mirroring what the paper's
/// U-Net learns from DRC-clean training data.
pub(super) fn regularize_min_feature(
    beliefs: &[f64],
    rows: usize,
    cols: usize,
    target_density: f64,
) -> Vec<bool> {
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
    // Iterate the fill/remove passes to a (bounded) fixpoint so collinear
    // fragments consolidate into long runs instead of oscillating.
    for _ in 0..3 {
        let before = bits.clone();
        regularize_once(&mut bits, rows, cols);
        if bits == before {
            break;
        }
    }
    drop_small_components(&mut bits, rows, cols, 6);
    bits
}

fn regularize_once(bits: &mut [bool], rows: usize, cols: usize) {
    for pass in 0..2 {
        let horizontal = pass == 0;
        let (outer, inner) = if horizontal {
            (rows, cols)
        } else {
            (cols, rows)
        };
        for o in 0..outer {
            let idx = |i: usize| {
                if horizontal {
                    o * cols + i
                } else {
                    i * cols + o
                }
            };
            // Fill single-cell gaps (1 0 1 → 1 1 1).
            for i in 1..inner.saturating_sub(1) {
                if !bits[idx(i)] && bits[idx(i - 1)] && bits[idx(i + 1)] {
                    bits[idx(i)] = true;
                }
            }
            // Remove single-cell runs (0 1 0 → 0 0 0) unless the cell
            // continues a perpendicular run (part of a thin wire the
            // perpendicular pass is responsible for).
            for i in 0..inner {
                let prev = i > 0 && bits[idx(i - 1)];
                let next = i + 1 < inner && bits[idx(i + 1)];
                if !bits[idx(i)] || prev || next {
                    continue;
                }
                let (r, c) = if horizontal { (o, i) } else { (i, o) };
                let perpendicular_run = if horizontal {
                    (r > 0 && bits[(r - 1) * cols + c])
                        || (r + 1 < rows && bits[(r + 1) * cols + c])
                } else {
                    (c > 0 && bits[r * cols + c - 1]) || (c + 1 < cols && bits[r * cols + c + 1])
                };
                if !perpendicular_run {
                    bits[idx(i)] = false;
                }
            }
        }
    }
}

/// Clears 4-connected components with fewer than `min_cells` cells.
fn drop_small_components(bits: &mut [bool], rows: usize, cols: usize, min_cells: usize) {
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
        if members.len() < min_cells {
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
fn predict_grid_with(mrf: &MrfDenoiser, x_k: &Topology, gc: &GridContext<'_>) -> Vec<f32> {
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
    finish_grid(beliefs, rows, cols, gc)
}

/// Calibration + regularization tail of a grid prediction.
fn finish_grid(mut beliefs: Vec<f64>, rows: usize, cols: usize, gc: &GridContext<'_>) -> Vec<f32> {
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
    // Feature-size regularization over the final third of the chain:
    // Manhattan layout data has no single-cell features, and a
    // denoiser trained on it predicts clean minimum-width-respecting
    // shapes near the end of the chain. Earlier steps keep the raw
    // beliefs — blending the regularized map into mid-chain feedback
    // ratchets density upward, so the weight stays zero there.
    let binary = regularize_min_feature(&beliefs, rows, cols, target);
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

/// The whole of the old `MrfDenoiser::predict_x0`.
pub(super) fn predict_x0(
    mrf: &MrfDenoiser,
    x_k: &Topology,
    k: usize,
    total_steps: usize,
    condition: Option<u32>,
) -> Vec<f32> {
    let gc = &mrf.grid_context(k, total_steps, condition);
    if mrf.coarse <= 1 {
        return predict_grid_with(mrf, x_k, gc);
    }
    // Coarse path: majority-downsample the noisy input, predict on
    // the table's grid, replicate probabilities back up.
    let (rows, cols) = x_k.shape();
    let down = downsample_majority(x_k, mrf.coarse);
    let coarse_p = predict_grid_with(mrf, &down, gc);
    let ccols = down.cols();
    (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            coarse_p
                [(r / mrf.coarse).min(down.rows() - 1) * ccols + (c / mrf.coarse).min(ccols - 1)]
        })
        .collect()
}

/// Majority vote over `factor × factor` blocks (ties round up to drawn).
pub(super) fn downsample_majority(t: &Topology, factor: usize) -> Topology {
    if factor <= 1 {
        return t.clone();
    }
    let rows = t.rows().div_ceil(factor).max(1);
    let cols = t.cols().div_ceil(factor).max(1);
    Topology::from_fn(rows, cols, |r, c| {
        let mut ones = 0usize;
        let mut total = 0usize;
        for rr in r * factor..((r + 1) * factor).min(t.rows()) {
            for cc in c * factor..((c + 1) * factor).min(t.cols()) {
                ones += usize::from(t.get(rr, cc));
                total += 1;
            }
        }
        2 * ones >= total.max(1) && ones > 0
    })
}
