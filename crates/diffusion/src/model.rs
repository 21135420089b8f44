//! The conditional reverse diffusion process (paper Eqs. 9 and 11).

use crate::{Denoiser, NoiseSchedule};
use cp_squish::Topology;
use rand::Rng;

/// A discrete diffusion model: schedule + denoiser + native window size.
///
/// `sample` runs the full `K`-step ancestral reverse process from uniform
/// noise; `forward_noised` applies the closed-form forward process
/// (Eq. 2); `reverse_step` is one step of Eq. (9).
#[derive(Debug, Clone)]
pub struct DiffusionModel<D> {
    schedule: NoiseSchedule,
    denoiser: D,
    native_size: usize,
}

impl<D: Denoiser> DiffusionModel<D> {
    /// Assembles a model. `native_size` is the window size `L` the
    /// denoiser was trained at.
    #[must_use]
    pub fn new(schedule: NoiseSchedule, denoiser: D, native_size: usize) -> DiffusionModel<D> {
        DiffusionModel {
            schedule,
            denoiser,
            native_size,
        }
    }

    /// The noise schedule.
    #[must_use]
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The denoiser back-end.
    #[must_use]
    pub fn denoiser(&self) -> &D {
        &self.denoiser
    }

    /// Native window size `L`.
    #[must_use]
    pub fn native_size(&self) -> usize {
        self.native_size
    }

    /// Forward process `q(x_k | x_0)`: flips each bit with the cumulative
    /// probability `b̄_k` (Eq. 2 in its closed two-state form).
    #[must_use]
    pub fn forward_noised(&self, x0: &Topology, k: usize, rng: &mut impl Rng) -> Topology {
        let mut cells = vec![0u8; x0.len()];
        forward_cells(x0.as_bytes(), self.schedule.flip_bar(k), rng, &mut cells);
        Topology::from_bytes(x0.rows(), x0.cols(), cells)
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

    /// One reverse step: samples `x_{k-1}` given `x_k` (Eq. 9):
    /// `p_θ(x_{k-1}|x_k, c) = Σ_{x̃0} q(x_{k-1}|x_k, x̃0) · p_θ(x̃0|x_k, c)`.
    #[must_use]
    pub fn reverse_step(
        &self,
        x_k: &Topology,
        k: usize,
        condition: Option<u32>,
        rng: &mut impl Rng,
    ) -> Topology {
        let p0 = self
            .denoiser
            .predict_x0(x_k, k, self.schedule.len(), condition);
        let mut cells = x_k.as_bytes().to_vec();
        reverse_cells(&mut cells, &p0, &self.posterior_table(k), rng);
        Topology::from_bytes(x_k.rows(), x_k.cols(), cells)
    }

    /// Full ancestral sampling (Eq. 11): start from the uniform stationary
    /// distribution and run all `K` reverse steps.
    #[must_use]
    pub fn sample(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut impl Rng,
    ) -> Topology {
        let mut x = initial_noise(rows, cols, rng);
        for k in (1..=self.schedule.len()).rev() {
            x = self.reverse_step(&x, k, condition, rng);
        }
        x
    }
}

/// Cells whose uniform draws are fetched from the generator in one
/// `fill_bytes` call (eight bytes a draw, on the stack).
const DRAW_BLOCK: usize = 512;

/// The fully-noised state a reverse chain starts from: one
/// `rng.gen::<bool>()` a cell in cell order — the low bit of one
/// `next_u32` — fetched a block of cells a `fill_bytes` call, which
/// hands out the same words, little-endian, two to a `next_u64`. An
/// odd cell count draws its last word on its own: `fill_bytes` would
/// take a whole `u64` for it and leave the generator a word further on.
pub(crate) fn initial_noise(rows: usize, cols: usize, rng: &mut impl Rng) -> Topology {
    let mut cells = vec![0u8; rows * cols];
    let mut words = [0u8; 8 * DRAW_BLOCK];
    let (pairs, odd) = cells.split_at_mut((rows * cols) & !1);
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
    Topology::from_bytes(rows, cols, cells)
}

/// 2⁵² and 2⁸⁴: floats whose low mantissa bits count in units of 1 and
/// of 2³².
const TWO_52: u64 = 0x4330_0000_0000_0000;
const TWO_84: u64 = 0x4530_0000_0000_0000;

/// The `rng.gen::<f64>()` in `[0, 1)` that the eight bytes
/// `rng.fill_bytes` wrote stand for: one `next_u64`, little-endian,
/// its top 53 bits `m` as a float, times 2⁻⁵³. A block of per-cell
/// draws is therefore one call into the generator — which matters
/// behind `&mut dyn RngCore` — for the same values in the same order.
///
/// `m as f64` has no packed form below AVX-512DQ, which would keep the
/// loops around this scalar. So `m` goes into the mantissas of two
/// floats, its low 32 bits under 2⁵² and its high 21 under 2⁸⁴;
/// taking the two powers off again leaves `m mod 2³²` and `m − m mod
/// 2³²`, both exact, and their sum is `m`, exact because `m < 2⁵³`.
#[inline(always)]
fn unit_draw(bytes: &[u8]) -> f64 {
    let word = u64::from_le_bytes(bytes.try_into().expect("eight bytes a draw"));
    let m = word >> 11;
    let low = f64::from_bits(TWO_52 | (m & 0xFFFF_FFFF)) - f64::from_bits(TWO_52);
    let high = f64::from_bits(TWO_84 | (m >> 32)) - f64::from_bits(TWO_84);
    (high + low) * (1.0 / (1u64 << 53) as f64)
}

/// The forward process over a run of cells: `noised[i]` is `x0[i]`
/// flipped with probability `flip`, one draw a cell in cell order.
pub(crate) fn forward_cells(x0: &[u8], flip: f64, rng: &mut impl Rng, noised: &mut [u8]) {
    debug_assert_eq!(x0.len(), noised.len());
    let mut draws = [0u8; 8 * DRAW_BLOCK];
    for (x0, noised) in x0.chunks(DRAW_BLOCK).zip(noised.chunks_mut(DRAW_BLOCK)) {
        let draws = &mut draws[..8 * x0.len()];
        rng.fill_bytes(draws);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` just found the
            // feature the callee is compiled for.
            unsafe { forward_compare_avx2(x0, flip, draws, noised) };
            continue;
        }
        forward_compare(x0, flip, draws, noised);
    }
}

/// The compare of [`forward_cells`] over one block of draws. This and
/// [`reverse_compare`] are written for the compiler to vectorise —
/// selects for branches, no table look-up, [`unit_draw`] — and each is
/// compiled twice, for the build's baseline and once more with AVX2's
/// 256-bit integer vectors, which is what runs where the CPU has them.
/// One source either way, and the float semantics are the compiler's
/// (Rust neither contracts `a * b + c` nor reorders float operations),
/// so every instance computes the same values.
#[inline(always)]
fn forward_compare(x0: &[u8], flip: f64, draws: &[u8], noised: &mut [u8]) {
    for ((noised, &bit), draw) in noised.iter_mut().zip(x0).zip(draws.chunks_exact(8)) {
        *noised = u8::from((bit != 0) != (unit_draw(draw) < flip));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_compare_avx2(x0: &[u8], flip: f64, draws: &[u8], noised: &mut [u8]) {
    forward_compare(x0, flip, draws, noised);
}

/// The categorical draw of one reverse step over a run of cells, in
/// place: `cells` holds `x_k` going in and `x_{k-1}` coming out, given
/// the denoiser prediction `p0` for the same cells and the step's
/// posterior table; one draw a cell in cell order.
pub(crate) fn reverse_cells(
    cells: &mut [u8],
    p0: &[f32],
    post: &[[f64; 2]; 2],
    rng: &mut impl Rng,
) {
    debug_assert_eq!(p0.len(), cells.len(), "denoiser output length mismatch");
    let mut draws = [0u8; 8 * DRAW_BLOCK];
    for (cells, p0) in cells.chunks_mut(DRAW_BLOCK).zip(p0.chunks(DRAW_BLOCK)) {
        let draws = &mut draws[..8 * cells.len()];
        rng.fill_bytes(draws);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` just found the
            // feature the callee is compiled for.
            unsafe { reverse_compare_avx2(cells, p0, post, draws) };
            continue;
        }
        reverse_compare(cells, p0, post, draws);
    }
}

/// The compare of [`reverse_cells`] over one block of draws; see
/// [`forward_compare`].
#[inline(always)]
fn reverse_compare(cells: &mut [u8], p0: &[f32], post: &[[f64; 2]; 2], draws: &[u8]) {
    let [[off_zero, off_one], [on_zero, on_one]] = *post;
    for ((cell, &p0), draw) in cells.iter_mut().zip(p0).zip(draws.chunks_exact(8)) {
        // The posterior row of this cell's `x_k` bit, by value.
        let on = *cell != 0;
        let post_zero = if on { on_zero } else { off_zero };
        let post_one = if on { on_one } else { off_one };
        let p_x0_one = f64::from(p0).clamp(0.0, 1.0);
        // Marginalize the posterior over x̃0 ∈ {0, 1}.
        let p_one = p_x0_one * post_one + (1.0 - p_x0_one) * post_zero;
        *cell = u8::from(unit_draw(draw) < p_one);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn reverse_compare_avx2(cells: &mut [u8], p0: &[f32], post: &[[f64; 2]; 2], draws: &[u8]) {
    reverse_compare(cells, p0, post, draws);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denoiser::test_support::{ConstantDenoiser, IdentityDenoiser};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    /// The per-cell loops the flat passes replaced, verbatim: one
    /// `rng.gen()` per cell inside `Topology::from_fn`. The sampler
    /// must produce the same topologies and leave the generator at the
    /// same position.
    mod reference {
        use crate::{Denoiser, DiffusionModel, Mask};
        use cp_squish::Topology;
        use rand::Rng;

        pub fn forward_noised<D: Denoiser>(
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

        pub fn reverse_step<D: Denoiser>(
            model: &DiffusionModel<D>,
            x_k: &Topology,
            k: usize,
            condition: Option<u32>,
            rng: &mut impl Rng,
        ) -> Topology {
            let p0 = model
                .denoiser()
                .predict_x0(x_k, k, model.schedule().len(), condition);
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

        pub fn sample<D: Denoiser>(
            model: &DiffusionModel<D>,
            rows: usize,
            cols: usize,
            condition: Option<u32>,
            rng: &mut impl Rng,
        ) -> Topology {
            let mut x = Topology::from_fn(rows, cols, |_, _| rng.gen::<bool>());
            for k in (1..=model.schedule().len()).rev() {
                x = reverse_step(model, &x, k, condition, rng);
            }
            x
        }

        pub fn modify<D: Denoiser>(
            model: &DiffusionModel<D>,
            known: &Topology,
            mask: &Mask,
            condition: Option<u32>,
            resample_rounds: usize,
            rng: &mut impl Rng,
        ) -> Topology {
            let (rows, cols) = known.shape();
            let steps = model.schedule().len();
            let mut result = known.clone();
            for _ in 0..resample_rounds {
                // Start from fully-noised state.
                let mut x = Topology::from_fn(rows, cols, |_, _| rng.gen::<bool>());
                for k in (1..=steps).rev() {
                    // Model proposal for everything...
                    let unknown = reverse_step(model, &x, k, condition, rng);
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
            result
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

    /// The generator as `PatternSampler::generate` hands it on.
    fn erased(rng: &mut ChaCha8Rng) -> &mut dyn rand::RngCore {
        rng
    }

    /// The conversion [`unit_draw`] replaced.
    fn integer_unit_draw(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn unit_draw_is_the_integer_conversion_bit_for_bit() {
        let mut words = vec![0, u64::MAX];
        words.extend((0..64).map(|k| 1u64 << k));
        words.extend((0..64).map(|k| (1u64 << k) - 1));
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        words.extend((0..1_000_000).map(|_| rand::RngCore::next_u64(&mut rng)));
        for word in words {
            assert_eq!(
                unit_draw(&word.to_le_bytes()).to_bits(),
                integer_unit_draw(word).to_bits(),
                "{word:#x}"
            );
        }
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
    fn threshold(m: u64) -> (f64, [u64; 2]) {
        assert!(0 < m && m < 1 << 53);
        let at = integer_unit_draw(m << 11);
        (at, [m << 11 | 0x7ff, (m - 1) << 11 | 0x7ff])
    }

    #[test]
    fn a_draw_equal_to_its_threshold_does_not_fire() {
        let (flip, at_then_below) = threshold(0x0012_3456_789a_bcde);
        for len in RUNS {
            let x0: Vec<u8> = (0..len).map(|i| (i % 3 == 0).into()).collect();
            let mut noised = vec![9u8; len];
            let mut rng = Scripted::new(&at_then_below);
            forward_cells(&x0, flip, &mut rng, &mut noised);
            for (i, (&bit, &got)) in x0.iter().zip(&noised).enumerate() {
                let flipped = i % 2 == 1;
                assert_eq!(got, bit ^ u8::from(flipped), "forward, cell {i} of {len}");
            }
        }
        // With `p0` 1 the marginal is `1 · post[x][1] + 0 · post[x][0]`,
        // the table entry itself; with `p0` 0 it is `post[x][0]`. Cells
        // alternate off / on, so each row of the table is read with a
        // draw equal to its entry and with one a step below it.
        let (off, off_draws) = threshold(0x0000_0000_0000_0001);
        let (on, on_draws) = threshold(0x001f_ffff_ffff_ffff);
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
                    assert_eq!(got, u8::from(below), "reverse p0={p0}, cell {i} of {len}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_predictions_clamp_like_the_per_cell_expression() {
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
                let want = integer_unit_draw(script[i % script.len()]) < p_one;
                assert_eq!(got, u8::from(want), "cell {i} of {len}: p0 {}", p0[i]);
            }
        }
    }

    #[test]
    fn forward_noised_draws_exactly_like_the_per_cell_loop() {
        let model = mrf_model(8);
        for (rows, cols) in SHAPES {
            let x0 = Topology::from_fn(rows, cols, |r, c| (r * 3 + c) % 5 < 2);
            for k in [0, 1, 4, 8] {
                assert_same_draws(
                    &format!("forward_noised {rows}x{cols} k={k}"),
                    |rng| model.forward_noised(&x0, k, &mut erased(rng)),
                    |rng| reference::forward_noised(&model, &x0, k, rng),
                );
            }
        }
    }

    #[test]
    fn sample_draws_exactly_like_the_per_cell_loop() {
        let constant = DiffusionModel::new(
            NoiseSchedule::scaled_default(5),
            ConstantDenoiser {
                probability: 0.3,
                size: 8,
            },
            8,
        );
        let mrf = mrf_model(6);
        for (rows, cols) in SHAPES {
            assert_same_draws(
                &format!("constant sample {rows}x{cols}"),
                |rng| constant.sample(rows, cols, None, &mut erased(rng)),
                |rng| reference::sample(&constant, rows, cols, None, rng),
            );
            assert_same_draws(
                &format!("mrf sample {rows}x{cols}"),
                |rng| mrf.sample(rows, cols, Some(0), &mut erased(rng)),
                |rng| reference::sample(&mrf, rows, cols, Some(0), rng),
            );
        }
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
            ("keep_none", Mask::keep_none(rows, cols)),
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
        let mrf = mrf_model(6);
        for (rows, cols) in SHAPES {
            let mask = crate::Mask::from_fn(rows, cols, |r, c| r < rows / 2 || c % 4 == 0);
            check(&mrf, &format!("{rows}x{cols}"), &known(rows, cols), &mask);
        }
        // (Two steps at the benchmark's window: what a debug build affords.)
        for (rows, cols, steps) in [(16, 16, 6), (33, 17, 6), (128, 128, 2)] {
            let mrf = mrf_model(steps);
            for (name, mask) in extension_masks(rows, cols) {
                let what = format!("{name} {rows}x{cols}");
                check(&mrf, &what, &known(rows, cols), &mask);
            }
        }
    }

    #[test]
    fn forward_at_zero_is_identity() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(8),
            IdentityDenoiser { size: 8 },
            8,
        );
        let x0 = Topology::from_fn(8, 8, |r, c| (r + c) % 3 == 0);
        let x = model.forward_noised(&x0, 0, &mut rng());
        assert_eq!(x, x0);
    }

    #[test]
    fn forward_at_final_step_is_uniform() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(8),
            IdentityDenoiser { size: 32 },
            32,
        );
        let x0 = Topology::filled(32, 32, true);
        let x = model.forward_noised(&x0, 8, &mut rng());
        let density = x.density();
        assert!((density - 0.5).abs() < 0.1, "density {density}");
    }

    #[test]
    fn confident_denoiser_drives_sample_to_all_ones() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(10),
            ConstantDenoiser {
                probability: 1.0,
                size: 16,
            },
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
            ConstantDenoiser {
                probability: 0.0,
                size: 16,
            },
            16,
        );
        let x = model.sample(16, 16, None, &mut rng());
        assert_eq!(x.count_ones(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(6),
            ConstantDenoiser {
                probability: 0.5,
                size: 8,
            },
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
            ConstantDenoiser {
                probability: 0.5,
                size: 4,
            },
            4,
        );
        let x = Topology::filled(4, 6, false);
        let y = model.reverse_step(&x, 4, None, &mut rng());
        assert_eq!(y.shape(), (4, 6));
    }
}
