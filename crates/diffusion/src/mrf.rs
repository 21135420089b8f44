//! The statistical (Markov-random-field) denoiser back-end.
//!
//! Stands in for the paper's 250-GPU-hour U-Net (the crate
//! documentation says what became of the CPU U-Net once carried beside
//! it). Per style, it fits the table `P(x₀ = 1 | 8-neighbour context)` over all
//! 3×3 windows of the training topologies (256 contexts). At inference it
//! runs a few mean-field sweeps that combine the fitted local prior with
//! the exact diffusion-channel likelihood of the observed noisy bit:
//!
//! `P(x₀ | x_k, ctx) ∝ P(x₀ | ctx) · q(x_k | x₀)`
//!
//! which is precisely the `p_θ(x₀ | x_k, c)` interface the reverse
//! process needs. Conditioning: one table per style id; `None` uses the
//! pooled (union-dataset) table — the "mixed training without
//! conditions" configuration whose style conflict the paper warns about.

use crate::{Denoiser, NoiseSchedule};
use cp_squish::Topology;

const CONTEXTS: usize = 256;

/// A fitted neighbourhood-statistics denoiser.
#[derive(Debug, Clone)]
pub struct MrfDenoiser {
    /// One table per condition id, `tables[cond][ctx] = P(x0=1 | ctx)`.
    tables: Vec<[f64; CONTEXTS]>,
    /// Condition ids aligned with `tables`.
    condition_ids: Vec<u32>,
    /// Pooled table used when sampling unconditionally.
    pooled: [f64; CONTEXTS],
    /// Training marginal density per condition (aligned with `tables`).
    marginals: Vec<f64>,
    /// Pooled marginal density.
    pooled_marginal: f64,
    /// Mean-field sweeps per prediction.
    sweeps: usize,
    /// Coarse-grid factor (1 = full resolution). Mimics the U-Net's
    /// downsampling path: structure is predicted on a `factor`-times
    /// coarser grid and replicated back up, which keeps the per-scan-line
    /// shape count of samples at training-data levels.
    coarse: usize,
    native_size: usize,
}

impl MrfDenoiser {
    /// Fits per-style neighbourhood tables with `smoothing` pseudo-counts.
    ///
    /// Unseen contexts are smoothed toward the *style's marginal density*
    /// rather than 0.5 — during early reverse steps most contexts come
    /// from near-uniform noise and have never been observed, and pulling
    /// them toward the marginal is what makes generated density track the
    /// training distribution per style.
    ///
    /// `datasets` pairs each condition id with its training topologies.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty or any dataset has no topologies.
    #[must_use]
    pub fn fit(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        MrfDenoiser::fit_coarse(datasets, smoothing, 2)
    }

    /// [`MrfDenoiser::fit`] with an explicit coarse-grid factor
    /// (`coarse = 1` disables the coarse path; the default is 2).
    ///
    /// Tables are fitted on majority-downsampled training topologies and
    /// predictions are made on the coarse grid, then replicated back up.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty, any dataset has no topologies, or
    /// `coarse == 0`.
    #[must_use]
    pub fn fit_coarse(
        datasets: &[(u32, &[Topology])],
        smoothing: f64,
        coarse: usize,
    ) -> MrfDenoiser {
        assert!(!datasets.is_empty(), "need at least one dataset");
        assert!(coarse >= 1, "coarse factor must be at least 1");
        let downsampled: Vec<(u32, Vec<Topology>)> = datasets
            .iter()
            .map(|(cond, topos)| {
                (
                    *cond,
                    topos
                        .iter()
                        .map(|t| downsample_majority(t, coarse))
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<(u32, &[Topology])> = downsampled
            .iter()
            .map(|(cond, v)| (*cond, v.as_slice()))
            .collect();
        let mut fitted = MrfDenoiser::fit_full_resolution(&refs, smoothing);
        fitted.coarse = coarse;
        // Native size refers to the full-resolution window.
        fitted.native_size *= coarse;
        fitted
    }

    /// Fits tables at the given resolution with no coarse path.
    fn fit_full_resolution(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        assert!(!datasets.is_empty(), "need at least one dataset");
        let mut tables = Vec::with_capacity(datasets.len());
        let mut condition_ids = Vec::with_capacity(datasets.len());
        let mut marginals = Vec::with_capacity(datasets.len());
        let mut pooled_ones = [0.0f64; CONTEXTS];
        let mut pooled_total = [0.0f64; CONTEXTS];
        let mut pooled_set_cells = 0.0f64;
        let mut pooled_cells = 0.0f64;
        let mut native_size = 0usize;
        for &(cond, topologies) in datasets {
            assert!(
                !topologies.is_empty(),
                "dataset for condition {cond} is empty"
            );
            let mut ones = [0.0f64; CONTEXTS];
            let mut total = [0.0f64; CONTEXTS];
            let mut set_cells = 0.0f64;
            let mut cells = 0.0f64;
            for t in topologies {
                native_size = native_size.max(t.rows().min(t.cols()));
                for r in 0..t.rows() {
                    for c in 0..t.cols() {
                        let ctx = context_of(t, r, c);
                        let bit = t.get(r, c);
                        total[ctx] += 1.0;
                        pooled_total[ctx] += 1.0;
                        cells += 1.0;
                        pooled_cells += 1.0;
                        if bit {
                            ones[ctx] += 1.0;
                            pooled_ones[ctx] += 1.0;
                            set_cells += 1.0;
                            pooled_set_cells += 1.0;
                        }
                    }
                }
            }
            let marginal = set_cells / cells.max(1.0);
            marginals.push(marginal);
            let mut table = [0.5f64; CONTEXTS];
            for ctx in 0..CONTEXTS {
                table[ctx] = (ones[ctx] + smoothing * marginal) / (total[ctx] + smoothing);
            }
            tables.push(table);
            condition_ids.push(cond);
        }
        let pooled_marginal = pooled_set_cells / pooled_cells.max(1.0);
        let mut pooled = [0.5f64; CONTEXTS];
        for ctx in 0..CONTEXTS {
            pooled[ctx] =
                (pooled_ones[ctx] + smoothing * pooled_marginal) / (pooled_total[ctx] + smoothing);
        }
        MrfDenoiser {
            tables,
            condition_ids,
            pooled,
            marginals,
            pooled_marginal,
            sweeps: 3,
            coarse: 1,
            native_size,
        }
    }

    /// Training marginal density for a condition (`None` = pooled).
    #[must_use]
    pub fn marginal(&self, condition: Option<u32>) -> f64 {
        match condition {
            Some(cond) => self
                .condition_ids
                .iter()
                .position(|&c| c == cond)
                .map_or(self.pooled_marginal, |i| self.marginals[i]),
            None => self.pooled_marginal,
        }
    }

    /// Overrides the number of mean-field sweeps (default 3).
    #[must_use]
    pub fn with_sweeps(mut self, sweeps: usize) -> MrfDenoiser {
        assert!(sweeps >= 1, "at least one sweep");
        self.sweeps = sweeps;
        self
    }

    /// Condition ids the denoiser was fitted for.
    #[must_use]
    pub fn condition_ids(&self) -> &[u32] {
        &self.condition_ids
    }

    /// The fitted `P(x₀=1 | ctx)` for a condition (`None` = pooled).
    #[must_use]
    pub fn table(&self, condition: Option<u32>) -> &[f64; CONTEXTS] {
        match condition {
            Some(cond) => self
                .condition_ids
                .iter()
                .position(|&c| c == cond)
                .map_or(&self.pooled, |i| &self.tables[i]),
            None => &self.pooled,
        }
    }
}

/// 8-neighbour context byte of cell `(r, c)`; out-of-bounds neighbours
/// read as 0 (patterns sit in empty surroundings).
fn context_of(t: &Topology, r: usize, c: usize) -> usize {
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
                && (rr as usize) < t.rows()
                && (cc as usize) < t.cols()
                && t.get(rr as usize, cc as usize);
            if set {
                ctx |= 1 << bit;
            }
            bit += 1;
        }
    }
    ctx
}

/// Per-(step, condition) constants of one [`MrfDenoiser`] prediction.
///
/// The noise schedule and the channel likelihoods depend only on
/// `(k, total_steps)` and the observed bit — never on the cell — so
/// they are computed once per prediction, outside the sweeps.
struct GridContext<'a> {
    /// The fitted `P(x₀=1 | ctx)` table for the condition.
    table: &'a [f64; CONTEXTS],
    /// `channel_likelihood(k, bit, x₀)` indexed `[bit][x₀]`.
    like: [[f64; 2]; 2],
    /// Initial belief per observed bit (channel posterior, flat prior).
    init: [f64; 2],
    /// Calibration target: the style's training marginal density.
    target: f64,
    /// Regularization blend weight for this step.
    w: f64,
}

impl MrfDenoiser {
    /// Builds the per-step constants for a prediction at step `k` of a
    /// `total_steps` chain under `condition`.
    fn grid_context(
        &self,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> GridContext<'_> {
        // Channel likelihoods from the schedule position: reconstruct the
        // cumulative flip probability for step k of a K-step default
        // schedule (the schedule endpoints are fixed project-wide).
        let schedule = NoiseSchedule::scaled_default(total_steps.max(1));
        let k = k.min(total_steps.max(1));
        let mut like = [[0.0f64; 2]; 2];
        let mut init = [0.0f64; 2];
        for (index, bit) in [false, true].into_iter().enumerate() {
            let like_one = schedule.channel_likelihood(k.max(1), bit, true);
            let like_zero = schedule.channel_likelihood(k.max(1), bit, false);
            like[index] = [like_zero, like_one];
            init[index] = like_one / (like_one + like_zero);
        }
        let target = self.marginal(condition).clamp(1e-4, 1.0 - 1e-4);
        let total = total_steps.max(1) as f64;
        let w = (1.0 - 3.0 * (k as f64 - 1.0) / total).clamp(0.0, 1.0);
        GridContext {
            table: self.table(condition),
            like,
            init,
            target,
            w,
        }
    }
}

/// Majority vote over `factor × factor` blocks (ties round up to drawn;
/// edge blocks are clipped to the matrix), as row-major 0/1 bytes with
/// the coarse shape.
fn downsample_majority_bytes(
    cells: &[u8],
    rows: usize,
    cols: usize,
    factor: usize,
) -> (Vec<u8>, usize, usize) {
    let (coarse_rows, coarse_cols) = (rows.div_ceil(factor), cols.div_ceil(factor));
    let mut out = Vec::with_capacity(coarse_rows * coarse_cols);
    let mut column_ones = vec![0u32; cols];
    for block in cells.chunks(factor * cols) {
        column_ones.fill(0);
        for row in block.chunks_exact(cols) {
            for (ones, &cell) in column_ones.iter_mut().zip(row) {
                *ones += u32::from(cell != 0);
            }
        }
        let height = block.len() / cols;
        out.extend(column_ones.chunks(factor).map(|columns| {
            let ones = columns.iter().sum::<u32>() as usize;
            u8::from(2 * ones >= height * columns.len() && ones > 0)
        }));
    }
    (out, coarse_rows, coarse_cols)
}

/// [`downsample_majority_bytes`] of a topology (`factor <= 1` is the
/// identity) — what the tables are fitted on.
fn downsample_majority(t: &Topology, factor: usize) -> Topology {
    if factor <= 1 {
        return t.clone();
    }
    let (cells, rows, cols) = downsample_majority_bytes(t.as_bytes(), t.rows(), t.cols(), factor);
    Topology::from_fn(rows, cols, |r, c| cells[r * cols + c] != 0)
}

/// Number of distinct cell keys: the observed bit (bit 8) over the
/// 8-neighbour context byte (bits 0..8) the cell was last updated
/// under. After one sweep a cell's belief is a pure function of its
/// key, so every per-cell float of a prediction is one of `KEYS` table
/// values — the sweeps, the calibration, the top-k quantile and the
/// final blend all work on keys and look the floats up.
const KEYS: usize = 2 * CONTEXTS;

/// Context bit of the left neighbour `(0, -1)`: the one neighbour a
/// Gauss-Seidel row pass rewrites immediately before the cell itself.
const LEFT: usize = 1 << 3;

/// Connected fragments with fewer cells than this are dropped from the
/// regularized map — the minimum-area analogue.
const MIN_COMPONENT_CELLS: usize = 6;

/// A binary map as row bitboards: cell `c` of a row is bit `c % 64` of
/// the row's word `c / 64`. Rows are padded with one all-clear row
/// above and one below (row `r` of the map is padded row `r + 1`), and
/// the bits past `cols` in a row's last word stay clear, so neighbour
/// reads need no bounds checks.
struct BitGrid {
    rows: usize,
    cols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl BitGrid {
    fn new(rows: usize, cols: usize) -> BitGrid {
        let stride = cols.div_ceil(64);
        BitGrid {
            rows,
            cols,
            stride,
            words: vec![0; (rows + 2) * stride],
        }
    }

    /// Padded row `r` (`0` and `rows + 1` are the clear borders).
    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Cell `c` of padded row `r`; columns past the map read as clear.
    fn get(&self, r: usize, c: usize) -> bool {
        c < self.cols && self.words[r * self.stride + c / 64] >> (c % 64) & 1 == 1
    }

    fn clear(&mut self, r: usize, c: usize) {
        self.words[r * self.stride + c / 64] &= !(1 << (c % 64));
    }
}

/// Word `w` of `row` moved one cell right: bit `c` is cell `c - 1`.
#[inline]
fn left_neighbours(row: &[u64], w: usize) -> u64 {
    row[w] << 1 | if w > 0 { row[w - 1] >> 63 } else { 0 }
}

/// Word `w` of `row` moved one cell left: bit `c` is cell `c + 1`.
#[inline]
fn right_neighbours(row: &[u64], w: usize) -> u64 {
    row[w] >> 1
        | if w + 1 < row.len() {
            row[w + 1] << 63
        } else {
            0
        }
}

/// Enforces the minimum-feature structure of Manhattan layout data on
/// a thresholded belief map: single-cell gaps inside runs are filled,
/// single-cell runs removed (first along rows, then along columns), and
/// connected fragments below [`MIN_COMPONENT_CELLS`] (six) cells are
/// dropped — the minimum-area analogue. This is what keeps the
/// scan-line complexity and fragment count of samples in the
/// legalizable range, mirroring what the paper's U-Net learns from
/// DRC-clean training data.
fn regularize_min_feature(grid: &mut BitGrid) {
    // Iterate the fill/remove passes to a (bounded) fixpoint so collinear
    // fragments consolidate into long runs instead of oscillating.
    let mut scratch = vec![0u64; grid.words.len() + grid.stride];
    for _ in 0..3 {
        if !regularize_once(grid, &mut scratch) {
            break;
        }
    }
    drop_small_components(grid);
}

/// One fill/remove pass along rows, then one along columns; returns
/// whether any cell changed. The pass is defined cell by cell (see the
/// oracle in `mrf/reference.rs`): lines are walked in order and edited
/// in place, so a line sees its predecessor finished and its successor
/// untouched; within a line neither edit can feed the next cell's test
/// (a filled gap has set neighbours, a removed cell clear ones), which
/// is what makes whole-word evaluation exact.
/// `scratch` holds one padded grid plus one row.
fn regularize_once(grid: &mut BitGrid, scratch: &mut [u64]) -> bool {
    let (rows, stride) = (grid.rows, grid.stride);
    let (filled_grid, filled_row) = scratch.split_at_mut(grid.words.len());
    let mut changed = false;
    // Along rows, top to bottom: fill single-cell gaps (1 0 1 → 1 1 1),
    // then remove single-cell runs (0 1 0 → 0 0 0) unless the cell
    // continues a run in the finished row above or the untouched row
    // below (part of a thin wire the column pass is responsible for).
    for r in 1..=rows {
        let (above, rest) = grid.words.split_at_mut(r * stride);
        let (row, below) = rest.split_at_mut(stride);
        let (up, down) = (&above[(r - 1) * stride..], &below[..stride]);
        for w in 0..stride {
            filled_row[w] = row[w] | left_neighbours(row, w) & right_neighbours(row, w);
        }
        for w in 0..stride {
            let filled = filled_row[w];
            let lone = filled & !left_neighbours(filled_row, w) & !right_neighbours(filled_row, w);
            let kept = filled & !(lone & !(up[w] | down[w]));
            changed |= kept != row[w];
            row[w] = kept;
        }
    }
    // Along columns, left to right. Filling is per column, so all
    // columns fill at once; a lone cell survives when its left
    // neighbour survived (a chain along the row, walked over the few
    // lone cells) or its right neighbour was set before that column
    // filled.
    for r in 1..=rows {
        let (up, row, down) = (grid.row(r - 1), grid.row(r), grid.row(r + 1));
        for w in 0..stride {
            filled_grid[r * stride + w] = row[w] | up[w] & down[w];
        }
    }
    for r in 1..=rows {
        let row = &mut grid.words[r * stride..(r + 1) * stride];
        let mut left_kept = false;
        for w in 0..stride {
            let at = r * stride + w;
            let filled = filled_grid[at];
            let mut lone = filled
                & !filled_grid[at - stride]
                & !filled_grid[at + stride]
                & !right_neighbours(row, w);
            let mut kept = filled;
            while lone != 0 {
                let bit = lone.trailing_zeros();
                lone &= lone - 1;
                let left = if bit == 0 {
                    left_kept
                } else {
                    kept >> (bit - 1) & 1 == 1
                };
                if !left {
                    kept &= !(1 << bit);
                }
            }
            left_kept = kept >> 63 == 1;
            changed |= kept != row[w];
            row[w] = kept;
        }
    }
    changed
}

/// Clears 4-connected components with fewer than
/// [`MIN_COMPONENT_CELLS`] cells. A component's first cell in raster
/// order starts a run and has nothing above it, so a search bounded at
/// `MIN_COMPONENT_CELLS` cells from every such cell finds each small
/// component whole (and gives up on a large one after six cells).
fn drop_small_components(grid: &mut BitGrid) {
    let mut found = [(0usize, 0usize); MIN_COMPONENT_CELLS];
    for r in 1..=grid.rows {
        for w in 0..grid.stride {
            let row = grid.row(r);
            let mut starts = row[w] & !left_neighbours(row, w) & !grid.row(r - 1)[w];
            while starts != 0 {
                let c = w * 64 + starts.trailing_zeros() as usize;
                starts &= starts - 1;
                // An earlier search in this row may have cleared it.
                if !grid.get(r, c) {
                    continue;
                }
                found[0] = (r, c);
                let (mut len, mut next) = (1, 0);
                while next < len && len < MIN_COMPONENT_CELLS {
                    let (r, c) = found[next];
                    next += 1;
                    for cell in [(r - 1, c), (r + 1, c), (r, c.wrapping_sub(1)), (r, c + 1)] {
                        if len < MIN_COMPONENT_CELLS
                            && grid.get(cell.0, cell.1)
                            && !found[..len].contains(&cell)
                        {
                            found[len] = cell;
                            len += 1;
                        }
                    }
                }
                if len < MIN_COMPONENT_CELLS {
                    for &(r, c) in &found[..len] {
                        grid.clear(r, c);
                    }
                }
            }
        }
    }
}

impl MrfDenoiser {
    /// Prediction for the 0/1 `cells` of a `rows × cols` grid at the
    /// table's own resolution, written out as `out_rows × out_cols`
    /// with every cell replicated `self.coarse` times each way.
    ///
    /// The per-cell mean-field update is `belief = f(observed bit,
    /// context)`, so the 512 possible beliefs are computed once and the
    /// sweeps, the calibration mean, the top-k quantile, the
    /// regularization and the final blend run on small integers; every
    /// float that reaches the output is produced by the same expression
    /// on the same operands, in the same order where order matters (the
    /// calibration sum), as a cell-by-cell evaluation would.
    fn predict_grid(
        &self,
        cells: &[u8],
        (rows, cols): (usize, usize),
        (out_rows, out_cols): (usize, usize),
        gc: &GridContext<'_>,
    ) -> Vec<f32> {
        // Mean-field update per key: local fitted prior × channel
        // likelihood.
        let mut beliefs = [0.0f64; KEYS];
        for (key, belief) in beliefs.iter_mut().enumerate() {
            let bit = key >> 8;
            let prior = gc.table[key & (CONTEXTS - 1)].clamp(1e-6, 1.0 - 1e-6);
            let numerator = prior * gc.like[bit][1];
            let denominator = numerator + (1.0 - prior) * gc.like[bit][0];
            *belief = numerator / denominator;
        }
        let keys = self.sweep(cells, rows, cols, gc, &beliefs);
        // Marginal calibration: mean-field on dense tables can run away
        // toward saturation; shift the belief odds so the mean prediction
        // matches the style's training density (a denoiser trained to
        // convergence is calibrated by construction). The mean is summed
        // cell by cell — float addition does not reorder.
        let mut counts = [0usize; KEYS];
        let mut sum = 0.0f64;
        for &key in &keys {
            counts[usize::from(key)] += 1;
            sum += beliefs[usize::from(key)];
        }
        let target = gc.target;
        let mean = sum / keys.len() as f64;
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
        // (With the weight at zero neither blend target changes a
        // belief, so the map is not computed.)
        let w = gc.w;
        let binary = if w > 0.0 {
            let mut binary = top_cells(&keys, rows, cols, &counts, &beliefs, target);
            regularize_min_feature(&mut binary);
            binary
        } else {
            BitGrid::new(rows, cols)
        };
        let mut blended = [[0.0f32; KEYS]; 2];
        for (target, row) in [0.0, 1.0].into_iter().zip(&mut blended) {
            for (out, &b) in row.iter_mut().zip(&beliefs) {
                *out = (b * (1.0 - w) + target * w) as f32;
            }
        }
        // Look every cell up and replicate it back to full resolution.
        let factor = self.coarse.max(1);
        let mut out = Vec::with_capacity(out_rows * out_cols);
        let mut out_row = vec![0.0f32; out_cols];
        for (r, key_row) in keys.chunks_exact(cols).enumerate() {
            let bits = binary.row(r + 1);
            for (c, (&key, block)) in key_row.iter().zip(out_row.chunks_mut(factor)).enumerate() {
                let bit = (bits[c / 64] >> (c % 64) & 1) as usize;
                block.fill(blended[bit][usize::from(key)]);
            }
            for _ in r * factor..out_rows.min((r + 1) * factor) {
                out.extend_from_slice(&out_row);
            }
        }
        out
    }

    /// The Gauss-Seidel mean-field sweeps, on the "belief > 0.5" map
    /// alone (a context only ever reads that bit of its neighbours);
    /// returns each cell's key at its last update.
    fn sweep(
        &self,
        cells: &[u8],
        rows: usize,
        cols: usize,
        gc: &GridContext<'_>,
        beliefs: &[f64; KEYS],
    ) -> Vec<u16> {
        // `set[key]` for a key with LEFT clear: bit 0 is "belief > 0.5"
        // as is, bit 1 the same with the left neighbour set — so the
        // only step of a row pass that waits for the previous cell is
        // one shift.
        let mut set = [0u8; KEYS];
        for key in (0..KEYS).filter(|key| key & LEFT == 0) {
            set[key] = u8::from(beliefs[key] > 0.5) | u8::from(beliefs[key | LEFT] > 0.5) << 1;
        }
        // The map, zero-padded by one cell all round: out-of-bounds
        // neighbours read as 0 (patterns sit in empty surroundings).
        // Initial beliefs are the channel posterior under a flat prior.
        let padded = cols + 2;
        let mut map = vec![0u8; (rows + 2) * padded];
        for (row, cells) in map
            .chunks_exact_mut(padded)
            .skip(1)
            .zip(cells.chunks_exact(cols))
        {
            for (m, &cell) in row[1..].iter_mut().zip(cells) {
                *m = u8::from(gc.init[usize::from(cell != 0)] > 0.5);
            }
        }
        let mut keys = vec![0u16; rows * cols];
        for sweep in 0..self.sweeps {
            for (r, keys) in keys.chunks_exact_mut(cols).enumerate() {
                // Everything of the key but LEFT: the finished row
                // above, the previous sweep's row below and right
                // neighbour, the observed bit.
                let (up, rest) = map[r * padded..(r + 3) * padded].split_at(padded);
                let (mid, down) = rest.split_at(padded);
                let observed = &cells[r * cols..(r + 1) * cols];
                let (up, right, down) = (shifts(up, cols), &mid[2..cols + 2], shifts(down, cols));
                let keys = &mut keys[..cols];
                for c in 0..cols {
                    let context = up[0][c]
                        | up[1][c] << 1
                        | up[2][c] << 2
                        | right[c] << 4
                        | down[0][c] << 5
                        | down[1][c] << 6
                        | down[2][c] << 7;
                    keys[c] = u16::from(context) | u16::from(observed[c] != 0) << 8;
                }
                // The row pass proper: each cell under its finished
                // left neighbour.
                let mid = &mut map[(r + 1) * padded..(r + 2) * padded];
                let mut left = 0u8;
                for (&key, cell) in keys.iter().zip(&mut mid[1..]) {
                    left = set[usize::from(key) % KEYS] >> left & 1;
                    *cell = left;
                }
                // Only the last sweep's keys are read: complete them
                // with the left neighbours the pass just wrote.
                if sweep + 1 == self.sweeps {
                    for (key, &left) in keys.iter_mut().zip(&mid[..cols]) {
                        *key |= u16::from(left) << 3;
                    }
                }
            }
        }
        keys
    }
}

/// The `cols` cells of a padded row as seen from one cell to the right,
/// in place, and one cell to the left: `shifts(row, cols)[i][c]` is the
/// map cell `c - 1 + i`. Three slices of one length, so a loop over
/// `0..cols` reads them without bounds checks.
fn shifts(padded_row: &[u8], cols: usize) -> [&[u8]; 3] {
    [
        &padded_row[..cols],
        &padded_row[1..cols + 1],
        &padded_row[2..cols + 2],
    ]
}

/// The top-k quantile threshold: the binary map starts at exactly the
/// training density, so thresholding artefacts cannot inflate or
/// deflate it. Exactly the `round(cells · target_density)` cells of
/// highest belief are kept, ties broken by index — a plain `>=
/// threshold` comparison would keep every tied cell and saturate
/// degenerate belief maps. Cells sharing a belief value share a rank,
/// so the ranking is over the distinct values present (at most `KEYS`):
/// ranks above the boundary are kept whole and the boundary rank's
/// lowest-index cells fill what is left, as a stable descending sort of
/// all cells would have it.
fn top_cells(
    keys: &[u16],
    rows: usize,
    cols: usize,
    counts: &[usize; KEYS],
    beliefs: &[f64; KEYS],
    target_density: f64,
) -> BitGrid {
    const DROP: u8 = 0;
    const BOUNDARY: u8 = 1;
    const KEEP: u8 = 2;
    let mut left = (((keys.len() as f64) * target_density).round() as usize).min(keys.len());
    let mut ranked: Vec<usize> = (0..KEYS).filter(|&key| counts[key] > 0).collect();
    ranked.sort_by(|&a, &b| beliefs[b].partial_cmp(&beliefs[a]).expect("finite beliefs"));
    let mut class = [DROP; KEYS];
    for tied in ranked.chunk_by(|&a, &b| beliefs[a] == beliefs[b]) {
        let cells: usize = tied.iter().map(|&key| counts[key]).sum();
        let all = cells <= left;
        for &key in tied {
            class[key] = if all { KEEP } else { BOUNDARY };
        }
        if !all {
            break;
        }
        left -= cells;
    }
    let mut grid = BitGrid::new(rows, cols);
    let stride = grid.stride;
    for (r, key_row) in keys.chunks_exact(cols).enumerate() {
        for (w, chunk) in key_row.chunks(64).enumerate() {
            let mut word = 0u64;
            for (bit, &key) in chunk.iter().enumerate() {
                // Branch-free: the classes are bit patterns.
                let class = class[usize::from(key) % KEYS];
                let from_boundary = class & BOUNDARY & u8::from(left > 0);
                left -= usize::from(from_boundary);
                word |= u64::from(class >> 1 | from_boundary) << bit;
            }
            grid.words[(r + 1) * stride + w] = word;
        }
    }
    grid
}

impl Denoiser for MrfDenoiser {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        let gc = &self.grid_context(k, total_steps, condition);
        let shape = x_k.shape();
        if self.coarse <= 1 {
            return self.predict_grid(x_k.as_bytes(), shape, shape, gc);
        }
        // Coarse path: majority-downsample the noisy input, predict on
        // the table's grid, replicate probabilities back up.
        let (down, rows, cols) =
            downsample_majority_bytes(x_k.as_bytes(), shape.0, shape.1, self.coarse);
        self.predict_grid(&down, (rows, cols), shape, gc)
    }

    fn native_size(&self) -> usize {
        self.native_size
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiffusionModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn striped_dataset(period: usize) -> Vec<Topology> {
        (0..6)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % period < period / 2))
            .collect()
    }

    #[test]
    fn fit_learns_solid_interior_contexts() {
        let data = striped_dataset(8);
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        // Context "all 8 neighbours set" → centre almost surely set.
        assert!(mrf.table(Some(0))[255] > 0.9);
        // Context "no neighbour set" → centre almost surely clear.
        assert!(mrf.table(Some(0))[0] < 0.1);
    }

    #[test]
    fn unknown_condition_falls_back_to_pooled() {
        let data = striped_dataset(8);
        let mrf = MrfDenoiser::fit(&[(7, &data)], 1.0);
        assert_eq!(mrf.table(Some(42)), mrf.table(None));
    }

    #[test]
    fn prediction_denoises_toward_clean_pattern() {
        let data = striped_dataset(8);
        // Full-resolution fit: this test measures the raw table mechanism.
        let mrf = MrfDenoiser::fit_coarse(&[(0, &data)], 1.0, 1);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(10), mrf, 16);
        let clean = &data[0];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Light noise (k = 2 of 10): prediction should mostly match clean.
        let noisy = model.forward_noised(clean, 2, &mut rng);
        let p0 = model.denoiser().predict_x0(&noisy, 2, 10, Some(0));
        let mut correct = 0usize;
        for (i, &p) in p0.iter().enumerate() {
            let predicted = p > 0.5;
            let truth = clean.as_bytes()[i] != 0;
            correct += usize::from(predicted == truth);
        }
        let accuracy = correct as f64 / p0.len() as f64;
        assert!(accuracy > 0.85, "denoiser accuracy {accuracy}");
    }

    #[test]
    fn conditional_tables_differ_between_styles() {
        // 4-wide stripes have solid interiors; isolated pixels never see a
        // fully-set neighbourhood.
        let dense = striped_dataset(8);
        let sparse: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(16, 16, move |r, c| r % 8 == i && c % 8 == 0))
            .collect();
        let mrf = MrfDenoiser::fit(&[(0, &dense), (1, &sparse)], 1.0);
        // Fully-surrounded context: confidently "on" for dense, unseen
        // (smoothed toward the tiny sparse marginal) for sparse.
        assert!(mrf.table(Some(0))[255] > 0.9);
        assert!(mrf.table(Some(0))[255] > mrf.table(Some(1))[255] + 0.3);
    }

    #[test]
    fn generation_with_mrf_produces_plausible_density() {
        // Localized island data (~10% density). Full-frame periodic
        // stripes are degenerate for a local neighbourhood model — the
        // vertical context self-reinforces and over-generates lines — so
        // the distribution-tracking assertion uses island-style data;
        // real-dataset tracking is additionally covered by the
        // chatpattern-core tests.
        let data: Vec<Topology> = (0..6)
            .map(|i| {
                Topology::from_fn(16, 16, move |r, c| {
                    let r0 = 2 + (i * 2) % 8;
                    let c0 = 2 + (i * 3) % 8;
                    (r0..r0 + 5).contains(&r) && (c0..c0 + 5).contains(&c)
                })
            })
            .collect();
        let expected: f64 = data.iter().map(Topology::density).sum::<f64>() / data.len() as f64;
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(12), mrf, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut densities = 0.0;
        for _ in 0..4 {
            densities += model.sample(16, 16, Some(0), &mut rng).density();
        }
        let mean = densities / 4.0;
        assert!(
            (mean - expected).abs() < 0.3,
            "generated density {mean:.3} vs training {expected:.3}"
        );
    }

    /// Two styles of training data: stripes and sparse islands.
    fn two_style_denoiser(coarse: usize, sweeps: usize) -> MrfDenoiser {
        let stripes = striped_dataset(8);
        let islands: Vec<Topology> = (0..6)
            .map(|i| {
                Topology::from_fn(16, 16, move |r, c| {
                    let (r0, c0) = (1 + (i * 2) % 8, 2 + (i * 3) % 8);
                    (r0..r0 + 6).contains(&r) && (c0..c0 + 4).contains(&c)
                })
            })
            .collect();
        MrfDenoiser::fit_coarse(&[(0, &stripes), (1, &islands)], 1.0, coarse).with_sweeps(sweeps)
    }

    /// Noisy inputs of one shape: uniform noise, sparse noise, a clean
    /// block pattern with a few flipped cells (what late steps see),
    /// and the two constant maps (every belief tied).
    fn inputs(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Vec<Topology> {
        use rand::Rng;
        vec![
            Topology::from_fn(rows, cols, |_, _| rng.gen::<bool>()),
            Topology::from_fn(rows, cols, |_, _| rng.gen::<f64>() < 0.15),
            Topology::from_fn(rows, cols, |r, c| {
                ((r / 5 + c / 7) % 3 == 0) != (rng.gen::<f64>() < 0.04)
            }),
            Topology::filled(rows, cols, false),
            Topology::filled(rows, cols, true),
        ]
    }

    fn assert_same_bits(
        mrf: &MrfDenoiser,
        x: &Topology,
        k: usize,
        steps: usize,
        cond: Option<u32>,
    ) {
        let got = mrf.predict_x0(x, k, steps, cond);
        let want = reference::predict_x0(mrf, x, k, steps, cond);
        assert_eq!(got.len(), want.len());
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!(
                "{:?} coarse {} sweeps {} k {k}/{steps} {cond:?}: cell {i} is {} not {}",
                x.shape(),
                mrf.coarse,
                mrf.sweeps,
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn predict_x0_matches_the_reference_bit_for_bit_at_every_step() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let shapes = [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (3, 3),
            (5, 7),
            (16, 16),
            (13, 22),
        ];
        for coarse in 1..=3 {
            for sweeps in [1, 3] {
                let mrf = two_style_denoiser(coarse, sweeps);
                for (rows, cols) in shapes {
                    for x in inputs(rows, cols, &mut rng) {
                        for steps in [1, 8, 24] {
                            for k in 1..=steps {
                                // Known style, unknown style (pooled
                                // table, pooled marginal), no style.
                                for cond in [Some((k % 2) as u32), Some(9), None] {
                                    assert_same_bits(&mrf, &x, k, steps, cond);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predict_x0_matches_the_reference_on_wide_and_ragged_grids() {
        // More than one bitboard word per row, sizes that are not a
        // multiple of the coarse factor, and the paper's window.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let shapes = [
            (130, 67),
            (67, 130),
            (1, 131),
            (129, 1),
            (64, 64),
            (65, 128),
        ];
        for (coarse, sweeps) in [(1, 3), (2, 3), (3, 1), (2, 1)] {
            let mrf = two_style_denoiser(coarse, sweeps);
            for (rows, cols) in shapes {
                for (i, x) in inputs(rows, cols, &mut rng).iter().enumerate() {
                    for (k, steps) in [(1, 1), (1, 8), (5, 8), (2, 24), (9, 24), (24, 24)] {
                        let cond = [Some(0), Some(1), Some(9), None][(i + k) % 4];
                        assert_same_bits(&mrf, x, k, steps, cond);
                    }
                }
            }
        }
    }

    #[test]
    fn quantile_and_regularization_match_the_reference_under_heavy_ties() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for (rows, cols) in [
            (1, 1),
            (1, 70),
            (70, 1),
            (7, 5),
            (24, 64),
            (31, 65),
            (40, 130),
        ] {
            for distinct in [1usize, 2, 3, 40] {
                for density in [0.0, 0.07, 0.3, 0.5, 0.93, 1.0] {
                    // A belief table with few distinct values, so ranks
                    // are shared and the boundary rank is split by index.
                    let mut beliefs = [0.0f64; KEYS];
                    for b in &mut beliefs {
                        *b = rng.gen_range(0..distinct) as f64 / distinct as f64;
                    }
                    let keys: Vec<u16> = (0..rows * cols)
                        .map(|_| rng.gen_range(0..KEYS as u16))
                        .collect();
                    let mut counts = [0usize; KEYS];
                    for &key in &keys {
                        counts[usize::from(key)] += 1;
                    }
                    let mut grid = top_cells(&keys, rows, cols, &counts, &beliefs, density);
                    regularize_min_feature(&mut grid);
                    let per_cell: Vec<f64> =
                        keys.iter().map(|&k| beliefs[usize::from(k)]).collect();
                    let want = reference::regularize_min_feature(&per_cell, rows, cols, density);
                    for (i, &bit) in want.iter().enumerate() {
                        assert_eq!(
                            grid.get(i / cols + 1, i % cols),
                            bit,
                            "{rows}x{cols}, {distinct} values, density {density}: cell {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn downsample_matches_the_reference() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for (rows, cols) in [
            (1, 1),
            (1, 8),
            (7, 1),
            (5, 7),
            (16, 16),
            (33, 20),
            (130, 67),
        ] {
            for density in [0.1, 0.5, 0.9] {
                let t = Topology::from_fn(rows, cols, |_, _| rng.gen::<f64>() < density);
                for factor in 1..=4 {
                    assert_eq!(
                        downsample_majority(&t, factor),
                        reference::downsample_majority(&t, factor),
                        "{rows}x{cols} by {factor}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one dataset")]
    fn empty_fit_panics() {
        let _ = MrfDenoiser::fit(&[], 1.0);
    }
}
