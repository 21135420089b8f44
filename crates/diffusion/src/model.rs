//! The conditional reverse diffusion process (paper Eqs. 9 and 11).

use std::ops::Range;

use crate::denoiser::{Prediction, INDICES};
use crate::grid::{Grid, Runs};
use crate::{Denoiser, NoiseSchedule};
use cp_layout::squish::Topology;
use cp_layout::stage::{self, Stage};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A discrete diffusion model: schedule + denoiser + native window size.
///
/// `sample` runs the full `K`-step ancestral reverse process from uniform
/// noise, one step of Eq. (9) at a time, on a reduced grid of the
/// style's scan lines, and writes each reduced cell back over the fine
/// cells it stands for.
#[derive(Debug, Clone)]
pub struct DiffusionModel<D> {
    schedule: NoiseSchedule,
    denoiser: D,
    native_size: usize,
}

impl<D: Denoiser> DiffusionModel<D> {
    /// Assembles a model. `native_size` is the window size `L` the
    /// denoiser was trained at; the denoiser is prepared for `schedule`
    /// ([`Denoiser::prepare`]).
    #[must_use]
    pub fn new(schedule: NoiseSchedule, mut denoiser: D, native_size: usize) -> DiffusionModel<D> {
        denoiser.prepare(&schedule);
        DiffusionModel {
            schedule,
            denoiser,
            native_size,
        }
    }

    /// The noise schedule.
    #[must_use]
    pub(crate) fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The denoiser back-end.
    pub(crate) fn denoiser(&self) -> &D {
        &self.denoiser
    }

    /// Native window size `L`.
    #[must_use]
    pub fn native_size(&self) -> usize {
        self.native_size
    }

    /// The four posterior values of step `k`, indexed
    /// `[x_k bit][x̃₀ bit]`. `posterior_one` is a pure function of
    /// `(k, x_k, x̃₀)`, so the categorical draw of every cell reads
    /// these four precomputed values instead of re-deriving them —
    /// byte-identical, since the draw evaluates the same expression on
    /// the same f64s.
    pub(crate) fn posterior_table(&self, k: usize) -> [[f64; 2]; 2] {
        let mut post = [[0.0f64; 2]; 2];
        for (xi, xk_bit) in [false, true].into_iter().enumerate() {
            for (oi, x0_bit) in [false, true].into_iter().enumerate() {
                post[xi][oi] = self.schedule.posterior_one(k, xk_bit, x0_bit);
            }
        }
        post
    }

    /// Full ancestral sampling (Eq. 11) of a `rows × cols` topology:
    /// draw the run lengths of each axis from the style's scan lines
    /// (the reduced grid), start from the uniform stationary distribution
    /// on that grid, run all `K` reverse steps, and write each reduced
    /// cell over its block.
    ///
    /// The generator ends `rows + cols + n·(1 + 2K)` words on for `n`
    /// cells — a word a line for the runs, then a word of noise and `K`
    /// 64-bit draws a cell, as if every fine cell were sampled —
    /// whatever grid was drawn: the chain draws what its grid needs and
    /// seeks to that end, which is why this takes the generator by name.
    #[must_use]
    pub fn sample(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        let _scope = stage::scope(Stage::Grid);
        let steps = self.schedule.len();
        let end = rng.get_word_pos() + call_words((rows, cols), 1 + 2 * steps);
        let grid = Grid::drawn(self.denoiser.scan_lines(condition), rows, cols, rng);
        let mut chain = Chain::new(grid.rows(), grid.cols());
        stage::enter(Stage::Noise);
        initial_noise(&mut chain.cells, rng);
        for k in (1..=steps).rev() {
            chain.predict(self, grid.runs(), k, condition);
            stage::enter(Stage::Draws);
            chain.reverse(0..chain.cells.len(), rng);
        }
        rng.set_word_pos(end);
        stage::enter(Stage::WriteBack);
        Topology::from_bytes(rows, cols, grid.expand(&chain.cells))
    }
}

/// Where a model call on a `rows × cols` window leaves the generator,
/// in 32-bit words from where it found it: one word a fine line for
/// drawing runs, and `per_cell` words a fine cell for the chain. The
/// shape alone decides it, so every window's place in the stream is
/// known before any window runs.
pub(crate) fn call_words((rows, cols): (usize, usize), per_cell: usize) -> u128 {
    (rows + cols) as u128 + (rows * cols) as u128 * per_cell as u128
}

/// The buffers of one reverse chain, made once and reused by every
/// step: the state `x_k`, updated in place, the denoiser's prediction,
/// and the step's draw thresholds.
pub(crate) struct Chain {
    rows: usize,
    cols: usize,
    /// `x_k`, row-major 0/1 cells.
    pub(crate) cells: Vec<u8>,
    step: Step,
}

/// What one step reads besides `x_k`.
struct Step {
    prediction: Prediction,
    /// [`threshold`] of `P(x_{k-1} = 1)` per `[prediction entry][x_k
    /// bit]`, for the entries the prediction holds.
    thresholds: Box<[[u64; 2]; INDICES]>,
    /// The thresholds of a run of one row's cells, per `x_k` bit.
    row: [Vec<u64>; 2],
}

impl Chain {
    pub(crate) fn new(rows: usize, cols: usize) -> Chain {
        Chain {
            rows,
            cols,
            cells: vec![0; rows * cols],
            step: Step {
                prediction: Prediction::default(),
                thresholds: Box::new([[0; 2]; INDICES]),
                row: [vec![0; cols], vec![0; cols]],
            },
        }
    }

    /// The denoiser's prediction for `x_k` at step `k`, and from it the
    /// step's thresholds: `P(x_{k-1} = 1) = P(x̃₀ = 1) · post[x][1] +
    /// P(x̃₀ = 0) · post[x][0]` (Eq. 9) per `x_k` bit `x` and entry
    /// present, the prediction clamped to `[0, 1]` first — the same f64
    /// expression the per-cell draw evaluated.
    pub(crate) fn predict<D: Denoiser>(
        &mut self,
        model: &DiffusionModel<D>,
        runs: Runs<'_>,
        k: usize,
        condition: Option<u32>,
    ) {
        debug_assert_eq!(runs.shape(), (self.rows, self.cols));
        let step = &mut self.step;
        let p = &mut step.prediction;
        stage::enter(Stage::PredictX0);
        model
            .denoiser
            .predict_x0(&self.cells, runs, k, condition, p);
        stage::enter(Stage::Thresholds);
        step.thresholds(&model.posterior_table(k));
    }

    /// The categorical draw of one reverse step over the cells of
    /// `run`, in place (`x_k` in, `x_{k-1}` out), one draw a cell in cell
    /// order, against the thresholds [`Chain::predict`] made.
    pub(crate) fn reverse(&mut self, run: Range<usize>, rng: &mut impl Rng) {
        let unit = Compare::detect();
        let mut draws = [0u8; 8 * DRAW_BLOCK];
        let mut block = run.start;
        while block < run.end {
            let end = run.end.min(block + DRAW_BLOCK);
            rng.fill_bytes(&mut draws[..8 * (end - block)]);
            // A row's cells at a time: their thresholds are gathered
            // into two rows, `off` and `on`.
            let mut at = block;
            while at < end {
                let len = (end - at).min(self.cols - at % self.cols);
                let [off, on] = self.step.row(at..at + len);
                let drawn = 8 * (at - block);
                unit.reverse(
                    &mut self.cells[at..at + len],
                    (off, on),
                    &draws[drawn..drawn + 8 * len],
                );
                at += len;
            }
            block = end;
        }
    }

    /// `x_k` as a topology.
    #[cfg(test)]
    pub(crate) fn into_topology(self) -> Topology {
        Topology::from_bytes(self.rows, self.cols, self.cells)
    }
}

impl Step {
    /// The step's thresholds from its prediction and posterior table
    /// (see [`Chain::predict`]).
    fn thresholds(&mut self, post: &[[f64; 2]; 2]) {
        let p = &self.prediction;
        for &entry in &p.present {
            let entry = usize::from(entry) % INDICES;
            let p_x0_one = f64::from(p.table[entry]).clamp(0.0, 1.0);
            for (threshold_of, &[post_zero, post_one]) in
                self.thresholds[entry].iter_mut().zip(post)
            {
                *threshold_of = threshold(p_x0_one * post_one + (1.0 - p_x0_one) * post_zero);
            }
        }
    }

    /// The thresholds of the cells `cells` (within one row), per `x_k`
    /// bit: each cell's entry's, gathered.
    fn row(&mut self, cells: Range<usize>) -> [&[u64]; 2] {
        let len = cells.len();
        let index = &self.prediction.index[cells];
        let [off, on] = &mut self.row;
        for ((off, on), &entry) in off.iter_mut().zip(on.iter_mut()).zip(index) {
            [*off, *on] = self.thresholds[usize::from(entry) % INDICES];
        }
        [&self.row[0][..len], &self.row[1][..len]]
    }
}

/// Cells whose uniform draws are fetched from the generator in one
/// `fill_bytes` call (eight bytes a draw, on the stack).
const DRAW_BLOCK: usize = 512;

/// The fully-noised state a reverse chain starts from, written over
/// `cells`: one `rng.gen::<bool>()` a cell in cell order — the low bit
/// of one `next_u32` — fetched a block of cells a `fill_bytes` call,
/// which hands out the same words, little-endian, two to a `next_u64`.
/// An odd cell count draws its last word on its own: `fill_bytes` would
/// take a whole `u64` for it and leave the generator a word further on.
pub(crate) fn initial_noise(cells: &mut [u8], rng: &mut impl Rng) {
    let mut words = [0u8; 8 * DRAW_BLOCK];
    let pairs = cells.len() & !1;
    let (pairs, odd) = cells.split_at_mut(pairs);
    for cells in pairs.chunks_mut(2 * DRAW_BLOCK) {
        let words = &mut words[..4 * cells.len()];
        rng.fill_bytes(words);
        for (cell, word) in cells.iter_mut().zip(words.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("four bytes a word"));
            *cell = (word & 1) as u8;
        }
    }
    if let [cell] = odd {
        *cell = u8::from(rng.gen::<bool>());
    }
}

/// The threshold `T` with `m < T` exactly when `m · 2⁻⁵³ < p`, for
/// every 53-bit `m`: the draw compare on integers. A draw
/// `rng.gen::<f64>()` is its word's top 53 bits `m` times 2⁻⁵³, exact,
/// and `p · 2⁵³` is exact too, so `m · 2⁻⁵³ < p` is `m < p · 2⁵³`, which
/// for an integer `m` is `m < ⌈p · 2⁵³⌉`. The conversion truncates, so
/// the ceiling is the floor plus one when the two differ; a NaN or a
/// negative `p` saturates to 0 (nothing fires), and anything past 1 is
/// held at 2⁵³ + 1 (everything fires).
pub(crate) fn threshold(p: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    let scaled = p * ONE as f64;
    let floor = (scaled as u64).min(ONE);
    floor + u64::from((floor as f64) < scaled)
}

/// One instantiation of the sampler's vector loops — the draw compares
/// ([`forward_compare`], [`reverse_compare`]) and the sweeps' row passes
/// (`mrf.rs`'s `sweep_rows`): the build's baseline, or the same bodies compiled
/// once more under AVX2 or under AVX-512. Holding a wide unit
/// is proof that the CPU has every feature its instantiation is
/// compiled for: [`Compare::supported`] is the only place that makes
/// one, and nothing can ask for a unit — [`Compare::detect`] takes the
/// widest there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Compare {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Compare {
    /// The units this CPU can run, narrowest first — the one place in
    /// this crate that asks the CPU what it has.
    fn supported() -> impl Iterator<Item = Compare> {
        #[cfg(target_arch = "x86_64")]
        let units = [
            (Compare::Baseline, true),
            (Compare::Avx2, is_x86_feature_detected!("avx2")),
            (
                Compare::Avx512,
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl"),
            ),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let units = [(Compare::Baseline, true)];
        units
            .into_iter()
            .filter(|&(_, supported)| supported)
            .map(|(unit, _)| unit)
    }

    /// The widest unit this CPU can run (under `cfg(test)`, the one a
    /// test pinned for its thread, if it did).
    pub(crate) fn detect() -> Compare {
        #[cfg(test)]
        if let Some(unit) = tests::PINNED.with(std::cell::Cell::get) {
            return unit;
        }
        Compare::supported()
            .last()
            .expect("the baseline runs everywhere")
    }

    /// [`forward_compare`] as this unit compiles it.
    fn forward(self, x0: &[u8], flip: u64, draws: &[u8], noised: &mut [u8]) {
        match self {
            Compare::Baseline => forward_compare(x0, flip, draws, noised),
            // SAFETY: `supported` makes `Avx2` only where
            // `is_x86_feature_detected!("avx2")`, the one feature the
            // callee enables.
            #[cfg(target_arch = "x86_64")]
            Compare::Avx2 => unsafe { forward_compare_avx2(x0, flip, draws, noised) },
            // SAFETY: `supported` makes `Avx512` only where
            // `is_x86_feature_detected!` found each of `avx512f`,
            // `avx512bw`, `avx512dq` and `avx512vl`, the four features
            // the callee enables.
            #[cfg(target_arch = "x86_64")]
            Compare::Avx512 => unsafe { forward_compare_avx512(x0, flip, draws, noised) },
        }
    }

    /// [`reverse_compare`] as this unit compiles it.
    fn reverse(self, cells: &mut [u8], thresholds: (&[u64], &[u64]), draws: &[u8]) {
        match self {
            Compare::Baseline => reverse_compare(cells, thresholds, draws),
            // SAFETY: `supported` makes `Avx2` only where
            // `is_x86_feature_detected!("avx2")`, the one feature the
            // callee enables.
            #[cfg(target_arch = "x86_64")]
            Compare::Avx2 => unsafe { reverse_compare_avx2(cells, thresholds, draws) },
            // SAFETY: `supported` makes `Avx512` only where
            // `is_x86_feature_detected!` found each of `avx512f`,
            // `avx512bw`, `avx512dq` and `avx512vl`, the four features
            // the callee enables.
            #[cfg(target_arch = "x86_64")]
            Compare::Avx512 => unsafe { reverse_compare_avx512(cells, thresholds, draws) },
        }
    }
}

/// A draw's 53-bit `m`, as a signed integer: it and every [`threshold`]
/// are below 2⁶³, so a signed compare (the one AVX2 has) is exact.
#[inline(always)]
fn draw_bits(draw: &[u8]) -> i64 {
    (u64::from_le_bytes(draw.try_into().expect("eight bytes a draw")) >> 11) as i64
}

/// The forward process over a run of cells: `noised[i]` is `x0[i]`
/// flipped where its draw is below `flip`, a [`threshold`]; one draw a
/// cell in cell order.
pub(crate) fn forward_cells(x0: &[u8], flip: u64, rng: &mut impl Rng, noised: &mut [u8]) {
    debug_assert_eq!(x0.len(), noised.len());
    let unit = Compare::detect();
    let mut draws = [0u8; 8 * DRAW_BLOCK];
    for (x0, noised) in x0.chunks(DRAW_BLOCK).zip(noised.chunks_mut(DRAW_BLOCK)) {
        let draws = &mut draws[..8 * x0.len()];
        rng.fill_bytes(draws);
        unit.forward(x0, flip, draws, noised);
    }
}

/// The compare of [`forward_cells`] over one block of draws. This and
/// [`reverse_compare`] are written for the compiler to vectorise —
/// selects for branches, no table look-up, integers only — and each is
/// compiled three times ([`Compare`]): for the build's baseline, once
/// more with AVX2's 256-bit vectors and once more with AVX-512's
/// 512-bit ones; the widest the CPU has is what runs. One source for
/// all three, on integers, so every instance computes the same bits.
#[inline(always)]
fn forward_compare(x0: &[u8], flip: u64, draws: &[u8], noised: &mut [u8]) {
    let flip = flip as i64;
    for ((noised, &bit), draw) in noised.iter_mut().zip(x0).zip(draws.chunks_exact(8)) {
        *noised = u8::from((bit != 0) != (draw_bits(draw) < flip));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_compare_avx2(x0: &[u8], flip: u64, draws: &[u8], noised: &mut [u8]) {
    forward_compare(x0, flip, draws, noised);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn forward_compare_avx512(x0: &[u8], flip: u64, draws: &[u8], noised: &mut [u8]) {
    forward_compare(x0, flip, draws, noised);
}

/// The compare of [`Chain::reverse`] over one block of draws, in place:
/// a cell becomes 1 where its draw is below its threshold for its
/// `x_k` bit — `off` for 0, `on` for 1. See [`forward_compare`].
#[inline(always)]
fn reverse_compare(cells: &mut [u8], (off, on): (&[u64], &[u64]), draws: &[u8]) {
    for (((cell, &off), &on), draw) in cells.iter_mut().zip(off).zip(on).zip(draws.chunks_exact(8))
    {
        // A mask, not an `if`: the compiler would turn a choice between
        // two loads into a load from a chosen address — a gather.
        let pick = u64::from(*cell != 0).wrapping_neg();
        let threshold = off & !pick | on & pick;
        *cell = u8::from(draw_bits(draw) < threshold as i64);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn reverse_compare_avx2(cells: &mut [u8], thresholds: (&[u64], &[u64]), draws: &[u8]) {
    reverse_compare(cells, thresholds, draws);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn reverse_compare_avx512(cells: &mut [u8], thresholds: (&[u64], &[u64]), draws: &[u8]) {
    reverse_compare(cells, thresholds, draws);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::denoiser::test_support::ConstantDenoiser;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    thread_local! {
        /// The unit [`Compare::detect`] hands this test's thread, once
        /// [`for_each_unit`] has pinned one.
        pub(super) static PINNED: std::cell::Cell<Option<Compare>> =
            const { std::cell::Cell::new(None) };
    }

    /// Every unit there is, supported here or not.
    #[cfg(target_arch = "x86_64")]
    const ALL_UNITS: [Compare; 3] = [Compare::Baseline, Compare::Avx2, Compare::Avx512];
    #[cfg(not(target_arch = "x86_64"))]
    const ALL_UNITS: [Compare; 1] = [Compare::Baseline];

    /// Runs `test` once for every unit this CPU supports, each pinned
    /// for the run, and returns their names: called by name, a unit the
    /// CPU has cannot go untested because detection prefers a wider
    /// one.
    pub(crate) fn for_each_unit(mut test: impl FnMut(Compare)) -> Vec<Compare> {
        let units: Vec<Compare> = Compare::supported().collect();
        for &unit in &units {
            PINNED.with(|pinned| pinned.set(Some(unit)));
            test(unit);
        }
        PINNED.with(|pinned| pinned.set(None));
        units
    }

    /// The per-cell loops the flat passes replaced, verbatim — one
    /// `rng.gen()` per cell inside `Topology::from_fn` — run on the
    /// reduced grid a call draws, then written back over the window and
    /// seeked to the call's end as the sampler does. The sampler must
    /// produce the same topologies and leave the generator at the same
    /// position.
    mod reference {
        use crate::denoiser::test_support::predict_fine;
        use crate::grid::{Grid, Runs};
        use crate::model::call_words;
        use crate::{Denoiser, DiffusionModel, Mask};
        use cp_layout::squish::Topology;
        use rand::Rng;
        use rand_chacha::ChaCha8Rng;

        pub(crate) fn forward_noised<D: Denoiser>(
            model: &DiffusionModel<D>,
            x0: &Topology,
            k: usize,
            rng: &mut impl Rng,
        ) -> Topology {
            let flip = model.schedule().flip_bar(k);
            Topology::from_fn(x0.rows(), x0.cols(), |r, c| {
                let bit = x0.get(r, c);
                if rng.gen::<f64>() < flip {
                    !bit
                } else {
                    bit
                }
            })
        }

        pub(crate) fn reverse_step<D: Denoiser>(
            model: &DiffusionModel<D>,
            x_k: &Topology,
            runs: Runs<'_>,
            k: usize,
            condition: Option<u32>,
            rng: &mut impl Rng,
        ) -> Topology {
            let p0 = predict_fine(model.denoiser(), x_k, runs, k, condition);
            let post = model.posterior_table(k);
            let cols = x_k.cols();
            Topology::from_fn(x_k.rows(), cols, |r, c| {
                let xk = usize::from(x_k.get(r, c));
                let p_x0_one = f64::from(p0[r * cols + c]).clamp(0.0, 1.0);
                // Marginalize the posterior over x̃0 ∈ {0, 1}.
                let p_one = p_x0_one * post[xk][1] + (1.0 - p_x0_one) * post[xk][0];
                rng.gen::<f64>() < p_one
            })
        }

        pub(crate) fn sample<D: Denoiser>(
            model: &DiffusionModel<D>,
            rows: usize,
            cols: usize,
            condition: Option<u32>,
            rng: &mut ChaCha8Rng,
        ) -> Topology {
            let steps = model.schedule().len();
            let end = rng.get_word_pos() + call_words((rows, cols), 1 + 2 * steps);
            let grid = Grid::drawn(model.denoiser().scan_lines(condition), rows, cols, rng);
            let mut x = Topology::from_fn(grid.rows(), grid.cols(), |_, _| rng.gen::<bool>());
            for k in (1..=steps).rev() {
                x = reverse_step(model, &x, grid.runs(), k, condition, rng);
            }
            rng.set_word_pos(end);
            Topology::from_bytes(rows, cols, grid.expand(x.as_bytes()))
        }

        pub(crate) fn modify<D: Denoiser>(
            model: &DiffusionModel<D>,
            known: &Topology,
            mask: &Mask,
            condition: Option<u32>,
            resample_rounds: usize,
            rng: &mut ChaCha8Rng,
        ) -> Topology {
            let (fine_rows, fine_cols) = known.shape();
            let steps = model.schedule().len();
            let per_cell = resample_rounds * (1 + 4 * steps);
            let end = rng.get_word_pos() + call_words((fine_rows, fine_cols), per_cell);
            let lines = model.denoiser().scan_lines(condition);
            let grid = Grid::fitted(lines, known, mask, rng);
            let fine_mask = mask.as_topology().as_bytes();
            let (reduced_known, reduced_mask) = grid.reduce(known.as_bytes(), fine_mask);
            let (rows, cols) = (grid.rows(), grid.cols());
            let mask = Mask::from_fn(rows, cols, |r, c| reduced_mask[r * cols + c] != 0);
            let mut result = Topology::from_bytes(rows, cols, reduced_known);
            for _ in 0..resample_rounds {
                // Start from fully-noised state.
                let mut x = Topology::from_fn(rows, cols, |_, _| rng.gen::<bool>());
                for k in (1..=steps).rev() {
                    // Model proposal for everything...
                    let unknown = reverse_step(model, &x, grid.runs(), k, condition, rng);
                    // ...and ground-truth forward noise for the kept region.
                    let known_noised = forward_noised(model, &result, k - 1, rng);
                    x = Topology::from_fn(rows, cols, |r, c| {
                        if mask.keeps(r, c) {
                            known_noised.get(r, c)
                        } else {
                            unknown.get(r, c)
                        }
                    });
                }
                result = x;
            }
            rng.set_word_pos(end);
            let cells = grid.expand(result.as_bytes());
            Topology::from_fn(fine_rows, fine_cols, |r, c| {
                if fine_mask[r * fine_cols + c] != 0 {
                    known.get(r, c)
                } else {
                    cells[r * fine_cols + c] != 0
                }
            })
        }
    }

    /// Shapes on both sides of the draw block: one cell, an odd count
    /// below a block, just past one block, several blocks.
    const SHAPES: [(usize, usize); 5] = [(1, 1), (5, 7), (33, 17), (19, 27), (64, 40)];

    fn mrf_model(steps: usize) -> DiffusionModel<crate::MrfDenoiser> {
        let data: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(16, 16, move |r, c| (c + i) % 8 < 4 && r % 7 != i))
            .collect();
        let mrf = crate::MrfDenoiser::fit(&[(0, &data)], 1.0);
        DiffusionModel::new(NoiseSchedule::scaled_default(steps), mrf, 16)
    }

    /// Runs `flat` and `per_cell` from the same generator state — also
    /// from the middle of a keystream block — and expects the same
    /// topology and the same generator state afterwards.
    fn assert_same_draws(
        what: &str,
        flat: impl Fn(&mut ChaCha8Rng) -> Topology,
        per_cell: impl Fn(&mut ChaCha8Rng) -> Topology,
    ) {
        for skip in [0, 1, 7] {
            let mut start = ChaCha8Rng::seed_from_u64(29);
            for _ in 0..skip {
                rand::RngCore::next_u32(&mut start);
            }
            let (mut a, mut b) = (start.clone(), start);
            let (got, want) = (flat(&mut a), per_cell(&mut b));
            assert_eq!(got, want, "{what}: topology (after {skip} words)");
            assert_eq!(
                a.state_words(),
                b.state_words(),
                "{what}: generator position (after {skip} words)"
            );
        }
    }

    /// The draw `rng.gen::<f64>()` makes of a word, which the integer
    /// compare stands for.
    fn unit_draw(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// [`Chain::reverse`] over one row of `cells`, with `p0[i]` the
    /// prediction for cell `i` (at most [`INDICES`] distinct values)
    /// and `post` the posterior table.
    fn reverse_cells(cells: &mut [u8], p0: &[f32], post: &[[f64; 2]; 2], rng: &mut impl Rng) {
        let mut chain = Chain::new(1, cells.len());
        chain.cells.copy_from_slice(cells);
        let p = &mut chain.step.prediction;
        p.cols = cells.len();
        p.present.clear();
        for &p0 in p0 {
            let entry = match p
                .present
                .iter()
                .find(|&&e| p.table[usize::from(e)].to_bits() == p0.to_bits())
            {
                Some(&entry) => entry,
                None => {
                    let entry = p.present.len() as u16;
                    p.table[usize::from(entry)] = p0;
                    p.present.push(entry);
                    entry
                }
            };
            p.index.push(entry);
        }
        chain.step.thresholds(post);
        chain.reverse(0..cells.len(), rng);
        cells.copy_from_slice(&chain.cells);
    }

    #[test]
    fn the_integer_compare_is_the_float_compare() {
        const ONE: u64 = 1 << 53;
        let probabilities = [0.0, 1.0 / ONE as f64, 0.5, 1.0 - 1.0 / ONE as f64, 1.0];
        // Each probability with the draws at its threshold and around
        // it, and at both ends of the range, the eleven bits a draw
        // ignores set on every other one; then seeded pairs.
        let mut pairs: Vec<(f64, u64)> = Vec::new();
        for p in probabilities {
            let t = threshold(p);
            for m in [0, t.wrapping_sub(1), t, t + 1, ONE - 1] {
                if m < ONE {
                    pairs.push((p, m << 11));
                    pairs.push((p, m << 11 | 0x7ff));
                }
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        pairs.extend((0..10_000).map(|_| (rng.gen::<f64>(), rng.gen::<u64>())));
        for_each_unit(|unit| {
            for &(p, word) in &pairs {
                let mut noised = [0u8];
                forward_cells(&[0], threshold(p), &mut Scripted::new(&[word]), &mut noised);
                let want = unit_draw(word) < p;
                assert_eq!(noised[0] != 0, want, "{unit:?}: p {p:e}, word {word:#x}");
            }
        });
    }

    /// A generator that hands out the given `u64`s over and over, and
    /// only through `fill_bytes`, eight bytes a draw: what the compare
    /// loops ask for.
    struct Scripted<'a> {
        words: std::iter::Cycle<std::slice::Iter<'a, u64>>,
    }

    impl Scripted<'_> {
        fn new(words: &[u64]) -> Scripted<'_> {
            Scripted {
                words: words.iter().cycle(),
            }
        }
    }

    impl rand::RngCore for Scripted<'_> {
        fn next_u32(&mut self) -> u32 {
            unreachable!("the compare loops draw in bulk")
        }

        fn next_u64(&mut self) -> u64 {
            *self.words.next().expect("a script is not empty")
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            assert_eq!(dest.len() % 8, 0, "whole draws only");
            for draw in dest.chunks_exact_mut(8) {
                draw.copy_from_slice(&self.next_u64().to_le_bytes());
            }
        }
    }

    /// Run lengths around the width of a vector (the remainder loop)
    /// and around [`DRAW_BLOCK`].
    const RUNS: [usize; 7] = [1, 3, 4, 5, 511, 512, 513];

    /// `m · 2⁻⁵³` and the two draws around it: the word whose draw is
    /// exactly that (which must not fire: the compare is strict) and
    /// the one whose draw is one step below (which must), each with the
    /// eleven bits a draw ignores set.
    fn draw_threshold(m: u64) -> (f64, [u64; 2]) {
        assert!(0 < m && m < 1 << 53);
        let at = unit_draw(m << 11);
        (at, [m << 11 | 0x7ff, (m - 1) << 11 | 0x7ff])
    }

    #[test]
    fn a_draw_equal_to_its_threshold_does_not_fire() {
        use std::io::Write;
        let ran = for_each_unit(|unit| {
            let (flip, at_then_below) = draw_threshold(0x0012_3456_789a_bcde);
            for len in RUNS {
                let x0: Vec<u8> = (0..len).map(|i| (i % 3 == 0).into()).collect();
                let mut noised = vec![9u8; len];
                let mut rng = Scripted::new(&at_then_below);
                forward_cells(&x0, threshold(flip), &mut rng, &mut noised);
                for (i, (&bit, &got)) in x0.iter().zip(&noised).enumerate() {
                    let flipped = i % 2 == 1;
                    let what = format!("{unit:?} forward, cell {i} of {len}");
                    assert_eq!(got, bit ^ u8::from(flipped), "{what}");
                }
            }
            // With `p0` 1 the marginal is `1 · post[x][1] + 0 ·
            // post[x][0]`, the table entry itself; with `p0` 0 it is
            // `post[x][0]`. Cells alternate off / on, so each row of the
            // table is read with a draw equal to its entry and with one
            // a step below it.
            let (off, off_draws) = draw_threshold(0x0000_0000_0000_0001);
            let (on, on_draws) = draw_threshold(0x001f_ffff_ffff_ffff);
            let script = [off_draws[0], on_draws[0], off_draws[1], on_draws[1]];
            for (p0, post) in [
                (1.0, [[0.25, off], [0.75, on]]),
                (0.0, [[off, 0.25], [on, 0.75]]),
            ] {
                for len in RUNS {
                    let mut cells: Vec<u8> = (0..len).map(|i| (i % 2) as u8).collect();
                    let mut rng = Scripted::new(&script);
                    reverse_cells(&mut cells, &vec![p0; len], &post, &mut rng);
                    for (i, &got) in cells.iter().enumerate() {
                        let below = i % 4 >= 2;
                        let what = format!("{unit:?} reverse p0={p0}, cell {i} of {len}");
                        assert_eq!(got, u8::from(below), "{what}");
                    }
                }
            }
        });
        // Straight to the descriptor: the harness swallows what a
        // passing test prints, and a green log must not hide a unit
        // that did not run.
        let lacking: Vec<Compare> = ALL_UNITS
            .into_iter()
            .filter(|unit| !ran.contains(unit))
            .collect();
        let _ = writeln!(
            std::io::stderr(),
            "cp_diffusion: draw-compare units tested by name: {ran:?}; this CPU lacks: {lacking:?}"
        );
    }

    #[test]
    fn out_of_range_predictions_clamp_like_the_per_cell_expression() {
        for_each_unit(out_of_range_predictions_clamp_under);
    }

    fn out_of_range_predictions_clamp_under(unit: Compare) {
        // `clamp` keeps a NaN (the marginal is then NaN and no draw is
        // below it) and a negative zero; `max(0.0).min(1.0)` would turn
        // the NaN into 0.
        let p0s = [
            0.0,
            1.0,
            -0.0,
            1.0 + f32::EPSILON,
            -f32::EPSILON,
            f32::from_bits(1),
            f32::NAN,
            0.5,
            7.0,
            f32::NEG_INFINITY,
        ];
        let post = [[0.125, 0.875], [0.25, 0.625]];
        let draws: Vec<u64> = [0.0, 0.1249, 0.125, 0.2, 0.25, 0.5, 0.625, 0.87, 0.875, 0.99]
            .iter()
            .map(|unit: &f64| ((unit * (1u64 << 53) as f64) as u64) << 11)
            .collect();
        for len in RUNS.into_iter().chain([3 * DRAW_BLOCK + 71]) {
            // (Periods 2, 10 and 11: every combination within 220 cells.)
            let start: Vec<u8> = (0..len).map(|i| (i % 2) as u8).collect();
            let p0: Vec<f32> = (0..len).map(|i| p0s[i % p0s.len()]).collect();
            let script: Vec<u64> = (0..11).map(|i| draws[i % draws.len()] | i as u64).collect();
            let mut cells = start.clone();
            reverse_cells(&mut cells, &p0, &post, &mut Scripted::new(&script));
            for (i, &got) in cells.iter().enumerate() {
                let post = &post[usize::from(start[i] != 0)];
                let p_x0_one = f64::from(p0[i]).clamp(0.0, 1.0);
                let p_one = p_x0_one * post[1] + (1.0 - p_x0_one) * post[0];
                let want = unit_draw(script[i % script.len()]) < p_one;
                let what = format!("{unit:?} cell {i} of {len}: p0 {}", p0[i]);
                assert_eq!(got, u8::from(want), "{what}");
            }
        }
    }

    #[test]
    fn sample_draws_exactly_like_the_per_cell_loop() {
        let constant = DiffusionModel::new(
            NoiseSchedule::scaled_default(5),
            ConstantDenoiser { probability: 0.3 },
            8,
        );
        let mrf = mrf_model(6);
        for_each_unit(|unit| {
            for (rows, cols) in SHAPES {
                assert_same_draws(
                    &format!("{unit:?} constant sample {rows}x{cols}"),
                    |rng| constant.sample(rows, cols, None, rng),
                    |rng| reference::sample(&constant, rows, cols, None, rng),
                );
                assert_same_draws(
                    &format!("{unit:?} mrf sample {rows}x{cols}"),
                    |rng| mrf.sample(rows, cols, Some(0), rng),
                    |rng| reference::sample(&mrf, rows, cols, Some(0), rng),
                );
            }
        });
    }

    /// The masks extension builds (Out-Painting's halves and its
    /// L-shaped keep, In-Painting's seam bands and corner block), the
    /// two trivial ones, and masks whose runs are one cell long.
    fn extension_masks(rows: usize, cols: usize) -> Vec<(&'static str, crate::Mask)> {
        use crate::Mask;
        let (mid_r, mid_c) = (rows / 2, cols / 2);
        let (band_r, band_c) = ((rows / 8).max(1), (cols / 8).max(1));
        let mut coin = ChaCha8Rng::seed_from_u64(31);
        vec![
            ("right half", Mask::from_fn(rows, cols, |_, c| c < mid_c)),
            ("bottom half", Mask::from_fn(rows, cols, |r, _| r < mid_r)),
            (
                "bottom-right quarter",
                Mask::from_fn(rows, cols, |r, c| r < mid_r || c < mid_c),
            ),
            (
                "vertical seam band",
                Mask::from_fn(rows, cols, |_, c| c.abs_diff(mid_c) >= band_c),
            ),
            (
                "horizontal seam band",
                Mask::from_fn(rows, cols, |r, _| r.abs_diff(mid_r) >= band_r),
            ),
            (
                "corner block",
                Mask::from_fn(rows, cols, |r, c| {
                    r.abs_diff(mid_r) >= band_r || c.abs_diff(mid_c) >= band_c
                }),
            ),
            ("keep_none", Mask::from_fn(rows, cols, |_, _| false)),
            ("keep_all", Mask::keep_all(rows, cols)),
            (
                "checkerboard",
                Mask::from_fn(rows, cols, |r, c| (r + c) % 2 == 0),
            ),
            (
                "random",
                Mask::from_fn(rows, cols, |_, _| coin.gen::<bool>()),
            ),
        ]
    }

    #[test]
    fn modify_draws_exactly_like_the_per_cell_loop() {
        type Model = DiffusionModel<crate::MrfDenoiser>;
        let check = |mrf: &Model, what: &str, known: &Topology, mask: &crate::Mask| {
            for rounds in [1, 2] {
                assert_same_draws(
                    &format!("modify {what} x{rounds}"),
                    |rng| mrf.modify(known, mask, Some(0), rounds, rng),
                    |rng| reference::modify(mrf, known, mask, Some(0), rounds, rng),
                );
            }
        };
        let known = |rows, cols| Topology::from_fn(rows, cols, |r, c| (r / 2 + c / 3) % 2 == 0);
        for_each_unit(|unit| {
            let mrf = mrf_model(6);
            for (rows, cols) in SHAPES {
                let mask = crate::Mask::from_fn(rows, cols, |r, c| r < rows / 2 || c % 4 == 0);
                check(
                    &mrf,
                    &format!("{unit:?} {rows}x{cols}"),
                    &known(rows, cols),
                    &mask,
                );
            }
            // (Two steps at the benchmark's window: what a debug build
            // affords.)
            for (rows, cols, steps) in [(16, 16, 6), (33, 17, 6), (128, 128, 2)] {
                let mrf = mrf_model(steps);
                for (name, mask) in extension_masks(rows, cols) {
                    let what = format!("{unit:?} {name} {rows}x{cols}");
                    check(&mrf, &what, &known(rows, cols), &mask);
                }
            }
        });
    }

    #[test]
    fn calls_that_draw_different_grids_end_at_the_same_word() {
        let mrf = mrf_model(4);
        let lines = mrf.denoiser().scan_lines(Some(0));
        let (rows, cols) = (40, 56);
        let known = mrf.sample(rows, cols, Some(0), &mut ChaCha8Rng::seed_from_u64(1));
        let mask = crate::Mask::from_fn(rows, cols, |_, c| c < cols / 2);
        let grids = [3, 4].map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (
                Grid::drawn(lines, rows, cols, &mut rng.clone()),
                Grid::fitted(lines, &known, &mask, &mut rng),
            )
        });
        assert_ne!(grids[0].0, grids[1].0, "the seeds draw different grids");
        assert_ne!(grids[0].1, grids[1].1, "and different modify grids");
        for seed in [3, 4] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let _ = mrf.sample(rows, cols, Some(0), &mut rng);
            assert_eq!(rng.get_word_pos(), call_words((rows, cols), 1 + 2 * 4));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let _ = mrf.modify(&known, &mask, Some(0), 2, &mut rng);
            assert_eq!(
                rng.get_word_pos(),
                call_words((rows, cols), 2 * (1 + 4 * 4))
            );
        }
    }

    #[test]
    fn confident_denoiser_drives_sample_to_all_ones() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(10),
            ConstantDenoiser { probability: 1.0 },
            16,
        );
        let x = model.sample(16, 16, None, &mut rng());
        // The last reverse step (k=1) collapses exactly onto x0 = 1.
        assert_eq!(x.count_ones(), 16 * 16);
    }

    #[test]
    fn confident_zero_denoiser_drives_sample_to_empty() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(10),
            ConstantDenoiser { probability: 0.0 },
            16,
        );
        let x = model.sample(16, 16, None, &mut rng());
        assert_eq!(x.count_ones(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(6),
            ConstantDenoiser { probability: 0.5 },
            8,
        );
        let a = model.sample(8, 8, None, &mut ChaCha8Rng::seed_from_u64(3));
        let b = model.sample(8, 8, None, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_step_shape_matches_input() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(4),
            ConstantDenoiser { probability: 0.5 },
            4,
        );
        let mut chain = Chain::new(4, 6);
        chain.predict(&model, Runs::new(&[1; 4], &[1; 6]), 4, None);
        chain.reverse(0..24, &mut rng());
        assert_eq!(chain.into_topology().shape(), (4, 6));
    }
}
