//! The statistical (Markov-random-field) denoiser back-end.
//!
//! Stands in for the paper's 250-GPU-hour U-Net (the crate
//! documentation says what became of the CPU U-Net once carried beside
//! it). Per style, it fits the table `P(x₀ = 1 | 8-neighbour context)` over all
//! 3×3 windows of the minimal forms of the training topologies (256
//! contexts), and how many fine lines a minimal line covers (the
//! [`ScanLines`] a model call draws its reduced grid from). At inference it
//! runs a few mean-field sweeps that combine the fitted local prior with
//! the exact diffusion-channel likelihood of the observed noisy bit:
//!
//! `P(x₀ | x_k, ctx) ∝ P(x₀ | ctx) · q(x_k | x₀)`
//!
//! which is precisely the `p_θ(x₀ | x_k, c)` interface the reverse
//! process needs. Conditioning: one table per style id; `None` uses the
//! pooled (union-dataset) table — the "mixed training without
//! conditions" configuration whose style conflict the paper warns about.

use crate::denoiser::Prediction;
use crate::grid::{Runs, ScanLines};
use crate::model::Compare;
use crate::{Denoiser, NoiseSchedule};
use cp_layout::squish::Topology;

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
    /// Scan-line statistics per condition (aligned with `tables`).
    lines: Vec<ScanLines>,
    /// Pooled scan-line statistics.
    pooled_lines: ScanLines,
    /// The constants of a prediction per step of the model's schedule
    /// and condition slot, `steps[(k - 1) * slots + slot]`: the slots
    /// are the conditions in `condition_ids`' order, then the pooled
    /// one. Empty until [`Denoiser::prepare`].
    steps: Vec<StepTable>,
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
    /// The tables are fitted on each topology's minimal form — its
    /// stretches of equal adjacent rows and columns merged into one line
    /// each, undoing the stretch to the window — and the lengths of those
    /// stretches are the [`ScanLines`] a model call draws its grid from.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty or any dataset has no topologies.
    #[must_use]
    pub fn fit(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        assert!(!datasets.is_empty(), "need at least one dataset");
        let (lines, minimal): (Vec<ScanLines>, Vec<(u32, Vec<Topology>)>) = datasets
            .iter()
            .map(|&(cond, topologies)| {
                assert!(
                    !topologies.is_empty(),
                    "dataset for condition {cond} is empty"
                );
                let (lines, minimal) = ScanLines::fit(topologies);
                (lines, (cond, minimal))
            })
            .unzip();
        let refs: Vec<(u32, &[Topology])> = minimal
            .iter()
            .map(|(cond, v)| (*cond, v.as_slice()))
            .collect();
        let mut fitted = MrfDenoiser::fit_tables(&refs, smoothing);
        fitted.pooled_lines = ScanLines::pooled(lines.iter());
        fitted.lines = lines;
        fitted
    }

    /// Fits the tables on `datasets` as given.
    fn fit_tables(datasets: &[(u32, &[Topology])], smoothing: f64) -> MrfDenoiser {
        let mut tables = Vec::with_capacity(datasets.len());
        let mut condition_ids = Vec::with_capacity(datasets.len());
        let mut marginals = Vec::with_capacity(datasets.len());
        let mut pooled_ones = [0.0f64; CONTEXTS];
        let mut pooled_total = [0.0f64; CONTEXTS];
        let mut pooled_set_cells = 0.0f64;
        let mut pooled_cells = 0.0f64;
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
            lines: Vec::new(),
            pooled_lines: crate::grid::ONE_LINE_RUNS.clone(),
            steps: Vec::new(),
        }
    }

    /// Training marginal density for a condition (`None` = pooled).
    #[must_use]
    pub(crate) fn marginal(&self, condition: Option<u32>) -> f64 {
        self.index_of(condition)
            .map_or(self.pooled_marginal, |i| self.marginals[i])
    }

    /// Overrides the number of mean-field sweeps (default 3).
    #[must_use]
    pub fn with_sweeps(mut self, sweeps: usize) -> MrfDenoiser {
        assert!(sweeps >= 1, "at least one sweep");
        self.sweeps = sweeps;
        self
    }

    /// The fitted `P(x₀=1 | ctx)` for a condition (`None` = pooled).
    #[must_use]
    pub(crate) fn table(&self, condition: Option<u32>) -> &[f64; CONTEXTS] {
        match self.index_of(condition) {
            Some(i) => &self.tables[i],
            None => &self.pooled,
        }
    }

    /// Where a condition's tables are (`None`: pooled, also for a
    /// condition not fitted).
    fn index_of(&self, condition: Option<u32>) -> Option<usize> {
        let cond = condition?;
        self.condition_ids.iter().position(|&c| c == cond)
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

/// Per-(step, condition) constants of one [`MrfDenoiser`] prediction,
/// read from the model's schedule.
///
/// The channel likelihoods depend only on `(k, K)` and the observed bit
/// — never on the cell — and the rest only on the condition and the
/// step, so a [`StepTable`] is made from them once a model.
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
    /// The constants of a prediction at step `k` of `schedule` under
    /// `condition` (`k` is held to `1..=K`).
    fn grid_context(
        &self,
        schedule: &NoiseSchedule,
        k: usize,
        condition: Option<u32>,
    ) -> GridContext<'_> {
        let steps = schedule.len();
        let k = k.min(steps);
        let mut like = [[0.0f64; 2]; 2];
        let mut init = [0.0f64; 2];
        for (index, bit) in [false, true].into_iter().enumerate() {
            let like_one = schedule.channel_likelihood(k.max(1), bit, true);
            let like_zero = schedule.channel_likelihood(k.max(1), bit, false);
            like[index] = [like_zero, like_one];
            init[index] = like_one / (like_one + like_zero);
        }
        let target = self.marginal(condition).clamp(1e-4, 1.0 - 1e-4);
        let total = steps as f64;
        let w = (1.0 - 3.0 * (k as f64 - 1.0) / total).clamp(0.0, 1.0);
        GridContext {
            table: self.table(condition),
            like,
            init,
            target,
            w,
        }
    }

    /// The [`StepTable`] of step `k` under `condition`.
    ///
    /// # Panics
    ///
    /// Panics if no model has prepared this denoiser.
    fn step_table(&self, k: usize, condition: Option<u32>) -> &StepTable {
        let slots = self.condition_ids.len() + 1;
        let steps = self.steps.len() / slots;
        assert!(steps > 0, "a DiffusionModel prepares its denoiser");
        let slot = self.index_of(condition).unwrap_or(slots - 1);
        &self.steps[(k.clamp(1, steps) - 1) * slots + slot]
    }
}

/// What a prediction at one step under one condition reads besides its
/// cells, made once a model ([`Denoiser::prepare`]): about 9 KiB.
#[derive(Clone)]
struct StepTable {
    /// The mean-field belief of each cell key: local fitted prior ×
    /// channel likelihood.
    beliefs: [f64; KEYS],
    /// The sweeps' `(a, p)` per cell index, from `beliefs`.
    sets: SetTable,
    /// Each belief's odds `c / (1 − c)`, `c` the belief held to `[1e-9,
    /// 1 − 1e-9]`: what the calibration multiplies ([`calibrated`]).
    odds: [f64; KEYS],
    /// The keys by belief, highest first.
    order: [u16; KEYS],
    /// The sweeps' initial map bit per observed bit: the channel
    /// posterior under a flat prior above one half.
    initial: [u8; 2],
    /// Calibration target: the style's training marginal density.
    target: f64,
    /// Regularization blend weight for this step.
    w: f64,
}

impl StepTable {
    fn new(gc: &GridContext<'_>) -> StepTable {
        let beliefs: [f64; KEYS] = std::array::from_fn(|key| {
            let bit = key >> 8;
            let prior = gc.table[key & (CONTEXTS - 1)].clamp(1e-6, 1.0 - 1e-6);
            let numerator = prior * gc.like[bit][1];
            let denominator = numerator + (1.0 - prior) * gc.like[bit][0];
            numerator / denominator
        });
        // Keys of one belief may come in any order: they form one rank.
        let mut order: [u16; KEYS] = std::array::from_fn(|key| key as u16);
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (usize::from(a), usize::from(b));
            beliefs[b].partial_cmp(&beliefs[a]).expect("finite beliefs")
        });
        StepTable {
            sets: SetTable::new(&beliefs),
            odds: beliefs.map(|b| {
                let clamped = b.clamp(1e-9, 1.0 - 1e-9);
                clamped / (1.0 - clamped)
            }),
            order,
            initial: gc.init.map(|init| u8::from(init > 0.5)),
            target: gc.target,
            w: gc.w,
            beliefs,
        }
    }
}

impl std::fmt::Debug for StepTable {
    /// The scalars only: the tables are 1 538 numbers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepTable")
            .field("target", &self.target)
            .field("w", &self.w)
            .finish_non_exhaustive()
    }
}

/// A belief after the calibration's odds shift by `ratio`, from its
/// [`StepTable::odds`].
fn calibrated(odds: f64, ratio: f64) -> f64 {
    let odds = odds * ratio;
    odds / (1.0 + odds)
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

/// Connected fragments covering fewer fine cells than this are dropped
/// from the regularized map — the minimum-area analogue. Measured in
/// the fine cells the reduced cells stand for: a reduced cell is a whole
/// minimal scan-line interval, as large as its runs make it, and a count
/// of reduced cells would drop the islands a style is made of on a small
/// window, where every island is one cell. 24 is what the quality rows
/// chose among 6, 12, 24 and 48 (`docs/ENGINE.md`, "Denoise step
/// budget"): below it the 4× and 8× extensions stop fitting their frames,
/// above it Layer-10003 samples lose lines (19.6 × 19.3 at 48 against
/// 24.0 × 23.4 real).
pub(crate) const MIN_COMPONENT_AREA: usize = 24;

/// A binary map as row bitboards: cell `c` of a row is bit `c % 64` of
/// the row's word `c / 64`. Rows are padded with one all-clear row
/// above and one below (row `r` of the map is padded row `r + 1`), and
/// the bits past `cols` in a row's last word stay clear, so neighbour
/// reads need no bounds checks.
#[derive(Debug, Clone, Default)]
struct BitGrid {
    rows: usize,
    cols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl BitGrid {
    /// Makes this an all-clear `rows × cols` map, in the buffer it has.
    fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.stride = cols.div_ceil(64);
        self.words.clear();
        self.words.resize((rows + 2) * self.stride, 0);
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

/// The regularization of the final third of the chain: clears
/// 4-connected components covering fewer than [`MIN_COMPONENT_AREA`]
/// fine cells (cell `(r, c)` covers `runs.area(r, c)`) from the top-k
/// map. A component's first cell in raster order starts a run and has
/// nothing above it, so a search from every such cell that stops once
/// it has found that much area finds each small component whole.
///
/// There is no pass that fills one-cell gaps and removes one-cell runs:
/// on the reduced grid a cell is a minimal scan-line interval, where a
/// one-cell gap or wire is an ordinary line end or track. With that pass
/// Layer-10001 samples had 63.8 column lines against 76.6 real, without
/// it 70.8.
fn drop_small_components(grid: &mut BitGrid, runs: Runs<'_>) {
    // Every cell covers at least one fine cell, so a search stops within
    // this many.
    let mut found = [(0usize, 0usize); MIN_COMPONENT_AREA];
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
                // Padded row `r` is row `r - 1` of the runs.
                let area = |(r, c): (usize, usize)| runs.area(r - 1, c);
                found[0] = (r, c);
                let (mut len, mut next, mut covered) = (1, 0, area((r, c)));
                while next < len && covered < MIN_COMPONENT_AREA {
                    let (r, c) = found[next];
                    next += 1;
                    for cell in [(r - 1, c), (r + 1, c), (r, c.wrapping_sub(1)), (r, c + 1)] {
                        if covered < MIN_COMPONENT_AREA
                            && grid.get(cell.0, cell.1)
                            && !found[..len].contains(&cell)
                        {
                            found[len] = cell;
                            len += 1;
                            covered += area(cell);
                        }
                    }
                }
                if covered < MIN_COMPONENT_AREA {
                    for &(r, c) in &found[..len] {
                        grid.clear(r, c);
                    }
                }
            }
        }
    }
}

/// The buffers a prediction is made in, kept by its [`Prediction`] from
/// one step of a chain to the next.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// The sweeps' "belief > 0.5" map, zero-padded all round.
    map: Vec<u8>,
    /// One row's cell indices for the sweeps' look-up, padded to whole
    /// words.
    indices: Vec<u8>,
    /// The regularized map.
    grid: BitGrid,
    /// The calibrated beliefs of the keys present (the others are
    /// stale).
    calibrated: [f64; KEYS],
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            map: Vec::new(),
            indices: Vec::new(),
            grid: BitGrid::default(),
            calibrated: [0.0; KEYS],
        }
    }
}

/// The bit of a [`Prediction`] index that says the cell is drawn in the
/// regularized map; the key is below it.
const REGULARIZED: u16 = KEYS as u16;

impl MrfDenoiser {
    /// Prediction for the 0/1 `cells` of a `rows × cols` grid at the
    /// table's own resolution, into `out`: per cell an index (its bit of
    /// the regularized map over its key) into the step's table.
    ///
    /// The per-cell mean-field update is `belief = f(observed bit,
    /// context)`, so the 512 possible beliefs are the step's
    /// [`StepTable`], and the sweeps, the calibration mean, the top-k
    /// quantile, the regularization and the final blend run on small
    /// integers; every float that reaches the output is produced by the
    /// same expression on the same operands, in the same order where
    /// order matters (the calibration sum), as a cell-by-cell evaluation
    /// would. Past the sweeps only the keys present are worked on: they
    /// are the only entries the step's thresholds read.
    fn predict_grid(&self, cells: &[u8], runs: Runs<'_>, step: &StepTable, out: &mut Prediction) {
        let (rows, cols) = runs.shape();
        let Prediction {
            cols: out_cols,
            index: keys,
            present,
            table,
            scratch:
                Scratch {
                    map,
                    indices,
                    grid,
                    calibrated: calibrated_beliefs,
                },
        } = out;
        self.sweep(cells, (rows, cols), step, (map, indices), keys);
        // Marginal calibration: mean-field on dense tables can run away
        // toward saturation; shift the belief odds so the mean prediction
        // matches the style's training density (a denoiser trained to
        // convergence is calibrated by construction). The mean is summed
        // cell by cell — float addition does not reorder.
        // (Counted in four tables by cell, so that a run of one key does
        // not chain every count on the one before.)
        let mut tallies = [[0usize; KEYS]; 4];
        let mut sum = 0.0f64;
        for (i, &key) in keys.iter().enumerate() {
            tallies[i % 4][usize::from(key) % KEYS] += 1;
            sum += step.beliefs[usize::from(key) % KEYS];
        }
        let counts: [usize; KEYS] = std::array::from_fn(|key| tallies.iter().map(|t| t[key]).sum());
        // The keys present, in key order: every key is written, and the
        // next one written over it unless it was counted.
        present.clear();
        present.resize(KEYS, 0);
        let mut len = 0;
        for (key, &count) in counts.iter().enumerate() {
            present[len] = key as u16;
            len += usize::from(count > 0);
        }
        present.truncate(len);
        let target = step.target;
        let mean = sum / keys.len() as f64;
        let beliefs = if mean > 1e-6 && mean < 1.0 - 1e-6 {
            let ratio = (target / (1.0 - target)) / (mean / (1.0 - mean));
            for &key in present.iter() {
                let key = usize::from(key) % KEYS;
                calibrated_beliefs[key] = calibrated(step.odds[key], ratio);
            }
            &*calibrated_beliefs
        } else {
            &step.beliefs
        };
        // Regularization over the final third of the chain: the top-k
        // map without its smallest fragments, the shapes a denoiser trained
        // on layout data predicts near the end of the chain. Earlier steps keep the raw
        // beliefs — blending the regularized map into mid-chain feedback
        // ratchets density upward, so the weight stays zero there.
        // (With the weight at zero neither blend target changes a
        // belief, so the map is not computed and no index has the bit.)
        let w = step.w;
        if w > 0.0 {
            top_cells(
                keys,
                (rows, cols),
                &counts,
                beliefs,
                &step.order,
                target,
                grid,
            );
            drop_small_components(grid, runs);
            for (r, keys) in keys.chunks_exact_mut(cols).enumerate() {
                for (keys, &bits) in keys.chunks_mut(64).zip(grid.row(r + 1)) {
                    for (c, key) in keys.iter_mut().enumerate() {
                        *key |= (bits >> c & 1) as u16 * REGULARIZED;
                    }
                }
            }
        }
        for &key in present.iter() {
            let key = usize::from(key) % KEYS;
            for (target, at) in [(0.0, key), (1.0, KEYS + key)] {
                table[at] = (beliefs[key] * (1.0 - w) + target * w) as f32;
            }
        }
        if w > 0.0 {
            present.extend_from_within(..);
            for key in &mut present[len..] {
                *key |= REGULARIZED;
            }
        }
        *out_cols = cols;
    }

    /// The Gauss-Seidel mean-field sweeps, on the "belief > 0.5" map
    /// alone (a context only ever reads that bit of its neighbours);
    /// leaves each cell's key at its last update in `keys`.
    ///
    /// A row pass is a prefix over 64-cell words. Under a fixed rest of
    /// its context, a cell's new bit is one of four functions of its
    /// left neighbour's (clear, set, copy, negate): `x_c = a_c ⊕ (p_c ∧
    /// x_{c−1})`, with `a_c` the bit under a clear left neighbour and
    /// `p_c` whether a set one changes it. Both are read from a
    /// [`SetTable`] by the cell's index — its key without LEFT, the
    /// observed bit moved into LEFT's place, one byte — a word at a time
    /// ([`pass_row`]); [`row_pass`] composes a word's functions in six
    /// shift steps and applies them to the bit carried in from the word
    /// before.
    fn sweep(
        &self,
        cells: &[u8],
        (rows, cols): (usize, usize),
        step: &StepTable,
        (map, indices): (&mut Vec<u8>, &mut Vec<u8>),
        keys: &mut Vec<u16>,
    ) {
        let table = &step.sets;
        // The map, zero-padded by one cell all round and to whole words
        // on the right: out-of-bounds neighbours read as 0 (patterns sit
        // in empty surroundings), and a row pass writes whole words.
        // Initial beliefs are the channel posterior under a flat prior.
        let words = cols.div_ceil(64);
        let padded = 64 * words + 2;
        map.clear();
        map.resize((rows + 2) * padded, 0);
        let [off, on] = step.initial;
        for (row, cells) in map
            .chunks_exact_mut(padded)
            .skip(1)
            .zip(cells.chunks_exact(cols))
        {
            for (m, &cell) in row[1..].iter_mut().zip(cells) {
                *m = off ^ (off ^ on) & u8::from(cell != 0);
            }
        }
        indices.clear();
        indices.resize(64 * words, 0);
        keys.clear();
        keys.resize(rows * cols, 0);
        let sweeps = self.sweeps;
        match Compare::detect() {
            Compare::Baseline => sweep_rows(sweeps, cells, cols, map, indices, keys, |indices| {
                look_up(indices, &table.bytes)
            }),
            // SAFETY: `supported` makes `Avx2` only where
            // `is_x86_feature_detected!("avx2")`, and `Avx512` only where
            // `avx512f` is, which includes AVX2.
            #[cfg(target_arch = "x86_64")]
            Compare::Avx2 | Compare::Avx512 => unsafe {
                sweep_rows_avx2(sweeps, cells, cols, map, indices, keys, table);
            },
        }
    }
}

/// The row passes of [`MrfDenoiser::sweep`] over the padded `map`,
/// `look_up` giving a word's `(a, p)` from its cell indices. One body,
/// compiled for the build's baseline with a scalar look-up and once
/// more under AVX2 with a vector one.
#[inline(always)]
fn sweep_rows(
    sweeps: usize,
    cells: &[u8],
    cols: usize,
    map: &mut [u8],
    indices: &mut [u8],
    keys: &mut [u16],
    look_up: impl Fn(&[u8]) -> (u64, u64),
) {
    let padded = indices.len() + 2;
    for sweep in 0..sweeps {
        for (r, keys) in keys.chunks_exact_mut(cols).enumerate() {
            // Everything of the key but LEFT: the finished row above,
            // the previous sweep's row below and right neighbour, the
            // observed bit.
            let (up, rest) = map[r * padded..(r + 3) * padded].split_at(padded);
            let (mid, down) = rest.split_at(padded);
            let observed = &cells[r * cols..(r + 1) * cols];
            let (up, right, down) = (shifts(up, cols), &mid[2..cols + 2], shifts(down, cols));
            let row_indices = &mut indices[..cols];
            for c in 0..cols {
                row_indices[c] = up[0][c]
                    | up[1][c] << 1
                    | up[2][c] << 2
                    | u8::from(observed[c] != 0) << 3
                    | right[c] << 4
                    | down[0][c] << 5
                    | down[1][c] << 6
                    | down[2][c] << 7;
            }
            let mid = &mut map[(r + 1) * padded..(r + 2) * padded];
            pass_row(indices, cols, &mut mid[1..], &look_up);
            // Only the last sweep's keys are read: each cell's index
            // with the observed bit back in bit 8 and the left neighbour
            // the pass just wrote in LEFT.
            if sweep + 1 == sweeps {
                for ((key, &index), &left) in keys.iter_mut().zip(&*indices).zip(&mid[..cols]) {
                    *key = u16::from(index & !OBSERVED)
                        | u16::from(left) << 3
                        | u16::from(index & OBSERVED) << 5;
                }
            }
        }
    }
}

/// [`sweep_rows`] with the vector look-up.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_rows_avx2(
    sweeps: usize,
    cells: &[u8],
    cols: usize,
    map: &mut [u8],
    indices: &mut [u8],
    keys: &mut [u16],
    table: &SetTable,
) {
    sweep_rows(sweeps, cells, cols, map, indices, keys, |indices| {
        look_up_avx2(indices, &table.sets)
    });
}

/// Where a sweep's cell index holds the observed bit: LEFT's place in
/// the key, which the index does not need.
const OBSERVED: u8 = LEFT as u8;

/// The `(a, p)` of every cell index, for one step's sweeps (see
/// [`MrfDenoiser::sweep`]): as a byte an index, `a` in bit 0 and `p` in
/// bit 1, for the scalar look-up, and as two 256-bit sets, `[a, p]`,
/// for the vector one.
#[derive(Clone)]
struct SetTable {
    bytes: [u8; CONTEXTS],
    sets: [[u8; CONTEXTS / 8]; 2],
}

impl SetTable {
    fn new(beliefs: &[f64; KEYS]) -> SetTable {
        let bytes: [u8; CONTEXTS] = std::array::from_fn(|index| {
            let key = index & !LEFT | (index & LEFT) << 5;
            let (clear, left_set) = (beliefs[key] > 0.5, beliefs[key | LEFT] > 0.5);
            u8::from(clear) | u8::from(clear != left_set) << 1
        });
        let mut sets = [[0; CONTEXTS / 8]; 2];
        for (j, bytes) in bytes.chunks_exact(8).enumerate() {
            let bytes = u64::from_le_bytes(bytes.try_into().expect("eight indices"));
            sets[0][j] = pack_bytes(bytes) as u8;
            sets[1][j] = pack_bytes(bytes >> 1) as u8;
        }
        SetTable { bytes, sets }
    }
}

/// The row pass proper: each cell under its finished left neighbour,
/// 64 cells a word. `indices` holds the row's cell indices, a whole
/// number of words of them (what lies past `cols` is looked up but not
/// used); the cells' new bits, one byte a cell, go to the start of
/// `row`, as many words of them, 0 past `cols`. `look_up` gives a
/// word's `(a, p)` from its 64 indices.
#[inline(always)]
fn pass_row(indices: &[u8], cols: usize, row: &mut [u8], look_up: impl Fn(&[u8]) -> (u64, u64)) {
    let mut left = 0;
    for (w, (indices, row)) in indices
        .chunks_exact(64)
        .zip(row.chunks_exact_mut(64))
        .enumerate()
    {
        // Cells past `cols` are "clear", so the pass writes 0 there.
        let valid = match cols - 64 * w {
            64.. => u64::MAX,
            cells => (1 << cells) - 1,
        };
        let (a, p) = look_up(indices);
        let x = row_pass(a & valid, p & valid, left);
        left = x >> 63;
        for (j, row) in row.chunks_exact_mut(8).enumerate() {
            row.copy_from_slice(&spread_bits(x >> (8 * j)).to_le_bytes());
        }
    }
}

/// The `(a, p)` of a word of cell indices, eight at a time: their
/// table bytes gathered and bits 0 and 1 of each packed by a multiply.
#[inline(always)]
fn look_up(indices: &[u8], bytes: &[u8; CONTEXTS]) -> (u64, u64) {
    let (mut a, mut p) = (0, 0);
    for (j, indices) in indices.chunks_exact(8).enumerate() {
        let gathered = u64::from_le_bytes(std::array::from_fn(|i| bytes[usize::from(indices[i])]));
        a |= pack_bytes(gathered) << (8 * j);
        p |= pack_bytes(gathered >> 1) << (8 * j);
    }
    (a, p)
}

/// The `(a, p)` of 64 cell indices, 32 a vector: an index's byte of a
/// 32-byte set is looked up by its top five bits (two 16-byte shuffles,
/// each zeroing the lanes the other serves), its bit by the low three,
/// and the bits packed by a byte mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn look_up_avx2(indices: &[u8], sets: &[[u8; CONTEXTS / 8]; 2]) -> (u64, u64) {
    use std::arch::x86_64::*;
    assert!(indices.len() >= 64, "a word of indices");
    // SAFETY: each load reads 16 or 32 bytes within the slice it is
    // given (the assert above; a set is 32 bytes).
    let load = |bytes: &[u8]| unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
    let halves = |set: &[u8; 32]| {
        // SAFETY: as above.
        let half = |at: usize| unsafe { _mm_loadu_si128(set[at..].as_ptr().cast()) };
        (
            _mm256_broadcastsi128_si256(half(0)),
            _mm256_broadcastsi128_si256(half(16)),
        )
    };
    let [a_set, p_set] = [halves(&sets[0]), halves(&sets[1])];
    let bits = _mm256_setr_epi8(
        1, 2, 4, 8, 16, 32, 64, -128, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 4, 8, 16, 32, 64, -128, 0, 0,
        0, 0, 0, 0, 0, 0,
    );
    let (mut a, mut p) = (0, 0);
    for half in 0..2 {
        let index = load(&indices[32 * half..]);
        let byte = _mm256_and_si256(_mm256_srli_epi16(index, 3), _mm256_set1_epi8(0x1F));
        // Bit 7 of a shuffle index zeroes its lane: set from 16 up in
        // the first, below 16 in the second.
        let low = _mm256_add_epi8(byte, _mm256_set1_epi8(0x70));
        let high = _mm256_sub_epi8(byte, _mm256_set1_epi8(0x10));
        let bit = _mm256_shuffle_epi8(bits, _mm256_and_si256(index, _mm256_set1_epi8(7)));
        for (word, (set_low, set_high)) in [(&mut a, a_set), (&mut p, p_set)] {
            let bytes = _mm256_or_si256(
                _mm256_shuffle_epi8(set_low, low),
                _mm256_shuffle_epi8(set_high, high),
            );
            let on = _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bit), bit);
            *word |= u64::from(_mm256_movemask_epi8(on) as u32) << (32 * half);
        }
    }
    (a, p)
}

/// Bit 0 of each of the eight bytes of `bytes`, little-endian, as the
/// eight low bits of the result: the multiply moves byte `i`'s bit to
/// bit `56 + i`, and no two partial products meet.
#[inline(always)]
fn pack_bytes(bytes: u64) -> u64 {
    (bytes & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The low eight bits of `bits` as eight 0/1 bytes, little-endian — the
/// inverse of [`pack_bytes`].
#[inline(always)]
fn spread_bits(bits: u64) -> u64 {
    let picked = (bits & 0xFF).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    // A byte is 0 or one power of two; adding 0x7F sets its top bit
    // exactly when it is not 0, and never carries out of it.
    (picked + 0x7F7F_7F7F_7F7F_7F7F) >> 7 & 0x0101_0101_0101_0101
}

/// The word-wide row pass: `x_c = a_c ⊕ (p_c ∧ x_{c−1})` for the 64
/// cells of a word, cell `c` bit `c`, with `x_{−1}` the bit `carry`.
/// Each step composes every cell's function with the one `shift`
/// cells before it, the identity (`a` 0, `p` 1) shifted in at the
/// word's start; after six, bit `c` of `(a, p)` is cells `0..=c`
/// composed, applied to `carry`.
#[inline(always)]
fn row_pass(mut a: u64, mut p: u64, carry: u64) -> u64 {
    for shift in [1, 2, 4, 8, 16, 32] {
        a ^= p & (a << shift);
        p &= (p << shift) | ((1 << shift) - 1);
    }
    a ^ (p & carry.wrapping_neg())
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
/// all cells would have it. (Keys of one value form one group, so the
/// order of the keys within it does not matter.) The map is written
/// into `grid`.
///
/// The keys are ranked by walking `order`, the step's keys by
/// uncalibrated belief, highest first. The calibration's odds shift is
/// monotone, but its rounding can make two neighbours tie or swap, so
/// an insertion pass restores the exact descending order of `beliefs`:
/// each key moves past the few it swapped with, not through a sort.
fn top_cells(
    keys: &[u16],
    (rows, cols): (usize, usize),
    counts: &[usize; KEYS],
    beliefs: &[f64; KEYS],
    order: &[u16; KEYS],
    target_density: f64,
    grid: &mut BitGrid,
) {
    const DROP: u8 = 0;
    const BOUNDARY: u8 = 1;
    const KEEP: u8 = 2;
    let mut left = (((keys.len() as f64) * target_density).round() as usize).min(keys.len());
    // The keys present, in `order`: every key is written, and the next
    // one written over it unless it was counted.
    let mut ranked = [0usize; KEYS];
    let mut present = 0;
    for &key in order {
        let key = usize::from(key) % KEYS;
        ranked[present] = key;
        present += usize::from(counts[key] > 0);
    }
    let ranked = &mut ranked[..present];
    for at in 1..ranked.len() {
        let key = ranked[at];
        let mut to = at;
        while to > 0 && beliefs[ranked[to - 1]] < beliefs[key] {
            ranked[to] = ranked[to - 1];
            to -= 1;
        }
        ranked[to] = key;
    }
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
    grid.reset(rows, cols);
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
}

impl Denoiser for MrfDenoiser {
    /// Makes the `StepTable` of every step of `schedule` under every
    /// condition and the pooled one: 3 × 24 tables (≈ 0.66 MiB) for two
    /// styles at 24 steps.
    fn prepare(&mut self, schedule: &NoiseSchedule) {
        let slots: Vec<Option<u32>> = self
            .condition_ids
            .iter()
            .map(|&cond| Some(cond))
            .chain([None])
            .collect();
        let mut steps = Vec::with_capacity(schedule.len() * slots.len());
        for k in 1..=schedule.len() {
            for &cond in &slots {
                steps.push(StepTable::new(&self.grid_context(schedule, k, cond)));
            }
        }
        self.steps = steps;
    }

    fn predict_x0(
        &self,
        x_k: &[u8],
        runs: Runs<'_>,
        k: usize,
        condition: Option<u32>,
        out: &mut Prediction,
    ) {
        self.predict_grid(x_k, runs, self.step_table(k, condition), out);
    }

    fn scan_lines(&self, condition: Option<u32>) -> &ScanLines {
        match self.index_of(condition) {
            Some(i) => &self.lines[i],
            None => &self.pooled_lines,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denoiser::test_support::predict_fine;
    use crate::DiffusionModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Diagonal bands: minimal as they are (no two adjacent lines
    /// equal), so the tables see these cells and their solid interiors.
    fn striped_dataset(period: usize) -> Vec<Topology> {
        (0..6)
            .map(|i| Topology::from_fn(16, 16, move |r, c| (r + c + i) % period < period / 2))
            .collect()
    }

    #[test]
    fn fit_learns_solid_interior_contexts() {
        let data = striped_dataset(16);
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        // Context "all 8 neighbours set" → centre almost surely set.
        assert!(mrf.table(Some(0))[255] > 0.9);
        // Context "no neighbour set" → centre almost surely clear.
        assert!(mrf.table(Some(0))[0] < 0.1);
    }

    #[test]
    fn unknown_condition_falls_back_to_pooled() {
        let data = striped_dataset(16);
        let mrf = MrfDenoiser::fit(&[(7, &data)], 1.0);
        assert_eq!(mrf.table(Some(42)), mrf.table(None));
    }

    #[test]
    fn prediction_denoises_toward_clean_pattern() {
        // Minimal already (no two adjacent lines equal), so the tables
        // are fitted on these cells as they are; bands wide enough that
        // the pieces the window cuts off are not dropped as fragments.
        let data: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(32, 32, move |r, c| (r + c + i) % 16 < 8))
            .collect();
        let mrf = MrfDenoiser::fit(&[(0, &data)], 1.0);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(10), mrf, 32);
        let clean = &data[0];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Light noise (k = 2 of 10): prediction should mostly match clean.
        let mut cells = vec![0u8; clean.len()];
        let flip = crate::model::threshold(model.schedule().flip_bar(2));
        crate::model::forward_cells(clean.as_bytes(), flip, &mut rng, &mut cells);
        let noisy = Topology::from_bytes(clean.rows(), clean.cols(), cells);
        let ones = [1; 32];
        let runs = Runs::new(&ones, &ones);
        let p0 = predict_fine(model.denoiser(), &noisy, runs, 2, Some(0));
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
        let dense = striped_dataset(16);
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
    fn two_style_denoiser(sweeps: usize) -> MrfDenoiser {
        let stripes = striped_dataset(16);
        let islands: Vec<Topology> = (0..6)
            .map(|i| {
                Topology::from_fn(16, 16, move |r, c| {
                    let (r0, c0) = (1 + (i * 2) % 8, 2 + (i * 3) % 8);
                    (r0..r0 + 6).contains(&r) && (c0..c0 + 4).contains(&c)
                })
            })
            .collect();
        MrfDenoiser::fit(&[(0, &stripes), (1, &islands)], 1.0).with_sweeps(sweeps)
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

    /// Run lengths for an `x`, varied so the component drop weighs
    /// cells by more than one fine cell: 1–5 a row, 1–4 a column.
    fn varied_runs(x: &Topology) -> [Vec<u32>; 2] {
        let (rows, cols) = x.shape();
        [
            (0..rows).map(|r| 1 + (r * 7 % 5) as u32).collect(),
            (0..cols).map(|c| 1 + (c * 3 % 4) as u32).collect(),
        ]
    }

    /// `mrf` prepared for `schedule`, as a model built on it has it.
    fn prepared(mrf: &MrfDenoiser, schedule: &NoiseSchedule) -> MrfDenoiser {
        let mut mrf = mrf.clone();
        mrf.prepare(schedule);
        mrf
    }

    /// Asserts that `mrf`, prepared for `schedule`, predicts what the
    /// reference computes from `schedule`, bit for bit.
    fn assert_same_bits(
        mrf: &MrfDenoiser,
        schedule: &NoiseSchedule,
        x: &Topology,
        k: usize,
        cond: Option<u32>,
    ) {
        let [rows, cols] = varied_runs(x);
        let runs = Runs::new(&rows, &cols);
        let got = predict_fine(mrf, x, runs, k, cond);
        let want = reference::predict_x0(mrf, schedule, x, runs, k, cond);
        assert_eq!(got.len(), want.len());
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!(
                "{:?} sweeps {} k {k}/{} {cond:?}: cell {i} is {} not {}",
                x.shape(),
                mrf.sweeps,
                schedule.len(),
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
        for sweeps in [1, 3] {
            let mrf = two_style_denoiser(sweeps);
            let grids: Vec<Topology> = shapes
                .iter()
                .flat_map(|&(rows, cols)| inputs(rows, cols, &mut rng))
                .collect();
            for steps in [1, 8, 24] {
                let schedule = NoiseSchedule::scaled_default(steps);
                let mrf = prepared(&mrf, &schedule);
                for x in &grids {
                    for k in 1..=steps {
                        // Known style, unknown style (pooled table, pooled
                        // marginal), no style.
                        for cond in [Some((k % 2) as u32), Some(9), None] {
                            assert_same_bits(&mrf, &schedule, x, k, cond);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predict_x0_matches_the_reference_on_wide_and_ragged_grids() {
        // More than one bitboard word per row, odd sizes, and the
        // paper's window.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let shapes = [
            (130, 67),
            (67, 130),
            (1, 131),
            (129, 1),
            (64, 64),
            (65, 128),
        ];
        let schedules = [1, 8, 24].map(NoiseSchedule::scaled_default);
        for sweeps in [3, 1] {
            let mrf = two_style_denoiser(sweeps);
            let prepared = schedules
                .each_ref()
                .map(|schedule| prepared(&mrf, schedule));
            for (rows, cols) in shapes {
                for (i, x) in inputs(rows, cols, &mut rng).iter().enumerate() {
                    for (k, steps) in [(1, 0), (1, 1), (5, 1), (2, 2), (9, 2), (24, 2)] {
                        let cond = [Some(0), Some(1), Some(9), None][(i + k) % 4];
                        assert_same_bits(&prepared[steps], &schedules[steps], x, k, cond);
                    }
                }
            }
        }
        // The reduced grids of the two styles at the product's window
        // (a Layer-10001 grid at its most lines, and a Layer-10003 one)
        // at the model's sweeps, on both sides of a 24-step chain's
        // blend-weight boundary (the weight is positive up to k = 8, so 8
        // regularizes and 9 does not).
        let mrf = prepared(&two_style_denoiser(3), &schedules[2]);
        for (rows, cols) in [(25, 91), (24, 24)] {
            for (i, x) in inputs(rows, cols, &mut rng).iter().enumerate() {
                for k in [1, 8, 9, 24] {
                    let cond = [Some(0), Some(1), Some(9), None][(i + k) % 4];
                    assert_same_bits(&mrf, &schedules[2], x, k, cond);
                }
            }
        }
    }

    #[test]
    fn a_model_on_its_own_schedule_denoises_against_its_own_likelihoods() {
        // Endpoints other than the default 0.01 and 0.5, so the channel
        // likelihoods of no step are the default schedule's.
        let schedule = NoiseSchedule::linear(10, 0.04, 0.3);
        let model = DiffusionModel::new(schedule.clone(), two_style_denoiser(3), 16);
        let mrf = model.denoiser();
        let default = NoiseSchedule::scaled_default(10);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let mut differs = false;
        for (i, x) in inputs(13, 22, &mut rng).iter().enumerate() {
            for k in 1..=10 {
                let cond = [Some(0), Some(1), None][(i + k) % 3];
                assert_same_bits(mrf, model.schedule(), x, k, cond);
                let [rows, cols] = varied_runs(x);
                let runs = Runs::new(&rows, &cols);
                differs |= reference::predict_x0(mrf, &schedule, x, runs, k, cond)
                    != reference::predict_x0(mrf, &default, x, runs, k, cond);
            }
        }
        // The default schedule's likelihoods would have predicted
        // otherwise, so the match above is the model's own schedule.
        assert!(differs);
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
            // 0 distinct values: a run of neighbours an ulp apart.
            for distinct in [0usize, 1, 2, 3, 40] {
                for density in [0.0, 0.07, 0.3, 0.5, 0.93, 1.0] {
                    // A belief table with few distinct values, so ranks
                    // are shared and the boundary rank is split by index,
                    // each with neighbours a few ulps above it.
                    let mut beliefs = [0.0f64; KEYS];
                    for (key, b) in beliefs.iter_mut().enumerate() {
                        let (value, ulps) = match distinct {
                            0 => (0.1, key % 64),
                            _ => (
                                rng.gen_range(0..distinct) as f64 / distinct as f64,
                                rng.gen_range(0..4),
                            ),
                        };
                        *b = (0..ulps).fold(value, |b, _| b.next_up());
                    }
                    // The step's rank order: the keys shuffled, then by
                    // belief, highest first, ties left shuffled.
                    let mut order: [u16; KEYS] = std::array::from_fn(|key| key as u16);
                    for at in (1..KEYS).rev() {
                        order.swap(at, rng.gen_range(0..=at));
                    }
                    order.sort_by(|&a, &b| {
                        beliefs[usize::from(b)].total_cmp(&beliefs[usize::from(a)])
                    });
                    let keys: Vec<u16> = (0..rows * cols)
                        .map(|_| rng.gen_range(0..KEYS as u16))
                        .collect();
                    let mut counts = [0usize; KEYS];
                    for &key in &keys {
                        counts[usize::from(key)] += 1;
                    }
                    // Unit runs on even sizes, varied ones on odd.
                    let unit = [vec![1; rows], vec![1; cols]];
                    let varied = varied_runs(&Topology::filled(rows, cols, false));
                    let [run_rows, run_cols] = if (rows + cols) % 2 == 0 {
                        &unit
                    } else {
                        &varied
                    };
                    let runs = Runs::new(run_rows, run_cols);
                    // Uncalibrated, and shifted by odds ratios under which
                    // the rounding ties and swaps neighbours.
                    for ratio in [None, Some(0.5), Some(0.7), Some(1.7), Some(2.0)] {
                        let values = match ratio {
                            None => beliefs,
                            Some(ratio) => beliefs.map(|b| {
                                let clamped = b.clamp(1e-9, 1.0 - 1e-9);
                                calibrated(clamped / (1.0 - clamped), ratio)
                            }),
                        };
                        let mut grid = BitGrid::default();
                        top_cells(
                            &keys,
                            (rows, cols),
                            &counts,
                            &values,
                            &order,
                            density,
                            &mut grid,
                        );
                        drop_small_components(&mut grid, runs);
                        let per_cell: Vec<f64> =
                            keys.iter().map(|&k| values[usize::from(k)]).collect();
                        let want = reference::regularize(&per_cell, runs, density);
                        for (i, &bit) in want.iter().enumerate() {
                            assert_eq!(
                                grid.get(i / cols + 1, i % cols),
                                bit,
                                "{rows}x{cols}, {distinct} values, density {density}, \
                                 ratio {ratio:?}: cell {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`pass_row`] with the vector look-up, as [`sweep_rows_avx2`] has
    /// it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn pass_row_with_avx2(indices: &[u8], cols: usize, row: &mut [u8], table: &SetTable) {
        pass_row(indices, cols, row, |i| look_up_avx2(i, &table.sets));
    }

    #[test]
    fn the_word_wide_row_pass_is_the_serial_one() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        // An index's two bits: what the cell becomes under a clear left
        // neighbour, and under a set one. Random tables, then every
        // index one function: clear, set, copy, negate.
        let mut tables: Vec<[(bool, bool); CONTEXTS]> = (0..8)
            .map(|_| std::array::from_fn(|_| (rng.gen(), rng.gen())))
            .collect();
        for function in [(false, false), (true, true), (false, true), (true, false)] {
            tables.push([function; CONTEXTS]);
        }
        let rows: Vec<(Vec<u8>, Vec<u8>)> = (1..=130)
            .map(|cols: usize| {
                let indices: Vec<u8> = (0..64 * cols.div_ceil(64))
                    .map(|_| rng.gen_range(0..=255))
                    .collect();
                (indices, vec![9; 64 * cols.div_ceil(64)])
            })
            .collect();
        crate::model::tests::for_each_unit(|unit| {
            for (t, functions) in tables.iter().enumerate() {
                // The beliefs that make these the functions (an index is
                // a key without LEFT, the observed bit moved there).
                let mut beliefs = [0.0; KEYS];
                for (index, &(clear, set)) in functions.iter().enumerate() {
                    let key = index & !LEFT | (index & LEFT) << 5;
                    beliefs[key] = if clear { 0.9 } else { 0.1 };
                    beliefs[key | LEFT] = if set { 0.9 } else { 0.1 };
                }
                let table = SetTable::new(&beliefs);
                for (cols, (indices, row)) in (1..).zip(&rows) {
                    let mut want = Vec::with_capacity(cols);
                    let mut left = false;
                    for &index in &indices[..cols] {
                        let (clear, set) = functions[usize::from(index)];
                        left = if left { set } else { clear };
                        want.push(u8::from(left));
                    }
                    let mut row = row.clone();
                    match unit {
                        Compare::Baseline => {
                            pass_row(indices, cols, &mut row, |i| look_up(i, &table.bytes));
                        }
                        // SAFETY: the unit is one this CPU supports.
                        #[cfg(target_arch = "x86_64")]
                        _ => unsafe { pass_row_with_avx2(indices, cols, &mut row, &table) },
                    }
                    let what = format!("{unit:?}, table {t}, {cols} cells");
                    assert_eq!(row[..cols], want, "{what}");
                    assert!(row[cols..].iter().all(|&cell| cell == 0), "{what}: padding");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one dataset")]
    fn empty_fit_panics() {
        let _ = MrfDenoiser::fit(&[], 1.0);
    }
}
