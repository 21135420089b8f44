//! What this crate's tests paint with.

use cp_diffusion::{DiffusionModel, Mask, MrfDenoiser, NoiseSchedule, PatternSampler};
use cp_layout::squish::Topology;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Diffusion steps of [`striped_model`].
pub const STEPS: usize = 8;

/// A window-16 model fitted on vertical stripes.
pub(crate) fn striped_model() -> DiffusionModel<MrfDenoiser> {
    let data: Vec<Topology> = (0..6)
        .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 4 < 2))
        .collect();
    DiffusionModel::new(
        NoiseSchedule::scaled_default(STEPS),
        MrfDenoiser::fit(&[(0, &data)], 1.0),
        16,
    )
}

/// One model call seen by [`Counting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// `modify` (else `generate`).
    pub modify: bool,
    /// Shape of the window handed to the model.
    pub shape: (usize, usize),
    /// 32-bit words the call advanced the generator by.
    pub words: u128,
}

/// A sampler that passes every call on to `inner` and records it.
pub struct Counting<'a, S> {
    inner: &'a S,
    calls: Mutex<Vec<Call>>,
}

impl<'a, S: PatternSampler> Counting<'a, S> {
    pub(crate) fn new(inner: &'a S) -> Counting<'a, S> {
        Counting {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("no call panicked").clone()
    }

    fn record(
        &self,
        modify: bool,
        rng: &mut ChaCha8Rng,
        call: impl FnOnce(&mut ChaCha8Rng) -> Topology,
    ) -> Topology {
        let before = rng.get_word_pos();
        let out = call(rng);
        self.calls.lock().expect("no call panicked").push(Call {
            modify,
            shape: out.shape(),
            words: rng.get_word_pos() - before,
        });
        out
    }
}

impl<S: PatternSampler> PatternSampler for Counting<'_, S> {
    fn window(&self) -> usize {
        self.inner.window()
    }

    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        self.record(false, rng, |rng| {
            self.inner.generate(rows, cols, condition, rng)
        })
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        self.record(true, rng, |rng| {
            self.inner.modify(known, mask, condition, rng)
        })
    }
}
