//! Method-dispatching extension entry point.

use crate::{in_paint, out_paint};
use cp_diffusion::PatternSampler;
use cp_squish::Topology;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which extension algorithm to use — the choice the LLM agent makes from
/// its experience documents (out-painting favours legality, in-painting
/// favours diversity; paper Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExtensionMethod {
    /// Grow borders with a sliding window at stride `L/2` (default).
    #[default]
    OutPainting,
    /// Concatenate independent tiles and repair the seams.
    InPainting,
}

impl ExtensionMethod {
    /// Parses the names used in requirement lists (`"Out"`, `"In"`,
    /// `"out-painting"`, `"In-Painting"` …).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ExtensionMethod> {
        let lower = name.to_ascii_lowercase();
        if lower.starts_with("out") {
            Some(ExtensionMethod::OutPainting)
        } else if lower.starts_with("in") {
            Some(ExtensionMethod::InPainting)
        } else {
            None
        }
    }

    /// Canonical requirement-list name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExtensionMethod::OutPainting => "Out",
            ExtensionMethod::InPainting => "In",
        }
    }
}

impl std::fmt::Display for ExtensionMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtensionMethod::OutPainting => f.write_str("Out-Painting"),
            ExtensionMethod::InPainting => f.write_str("In-Painting"),
        }
    }
}

/// Extends `seed` to `rows × cols` with the chosen method.
///
/// For [`ExtensionMethod::OutPainting`] the stride is `L/2`. If the
/// target equals the seed shape, the seed is returned unchanged.
///
/// # Panics
///
/// Panics if the target is smaller than the seed or the sampler window.
#[must_use]
pub fn extend<S: PatternSampler + ?Sized>(
    sampler: &S,
    seed: &Topology,
    rows: usize,
    cols: usize,
    method: ExtensionMethod,
    condition: Option<u32>,
    rng: &mut ChaCha8Rng,
) -> Topology {
    if seed.shape() == (rows, cols) {
        return seed.clone();
    }
    let l = sampler.window();
    match method {
        ExtensionMethod::OutPainting => {
            out_paint(sampler, seed, rows, cols, (l / 2).max(1), condition, rng)
        }
        ExtensionMethod::InPainting => in_paint(sampler, Some(seed), rows, cols, condition, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{striped_model, Counting, STEPS};
    use rand::SeedableRng;

    #[test]
    fn parses_method_names() {
        assert_eq!(
            ExtensionMethod::from_name("Out"),
            Some(ExtensionMethod::OutPainting)
        );
        assert_eq!(
            ExtensionMethod::from_name("out-painting"),
            Some(ExtensionMethod::OutPainting)
        );
        assert_eq!(
            ExtensionMethod::from_name("In-Painting"),
            Some(ExtensionMethod::InPainting)
        );
        assert_eq!(ExtensionMethod::from_name("sideways"), None);
    }

    #[test]
    fn same_size_is_identity() {
        let m = striped_model();
        let seed = Topology::from_fn(16, 16, |r, _| r % 2 == 0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = extend(
            &m,
            &seed,
            16,
            16,
            ExtensionMethod::OutPainting,
            None,
            &mut rng,
        );
        assert_eq!(out, seed);
    }

    #[test]
    fn both_methods_reach_target_size() {
        let m = striped_model();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let seed = m.sample(16, 16, Some(0), &mut rng);
        for method in [ExtensionMethod::OutPainting, ExtensionMethod::InPainting] {
            let out = extend(&m, &seed, 48, 32, method, Some(0), &mut rng);
            assert_eq!(out.shape(), (48, 32), "{method}");
        }
    }

    #[test]
    fn a_model_call_advances_the_stream_by_what_its_window_shape_says() {
        // `n` words of initial noise, then per step `n` 64-bit draws
        // for `generate` and `2n` for `modify` — whatever the mask keeps.
        // So every window's place in the stream is known before any
        // window runs (what scheduling them, ROADMAP 1(c), stands on).
        let model = striped_model();
        for method in [ExtensionMethod::OutPainting, ExtensionMethod::InPainting] {
            let counting = Counting::new(&model);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let seed = model.sample(16, 16, Some(0), &mut rng);
            let start = rng.get_word_pos();
            let out = extend(&counting, &seed, 40, 56, method, Some(0), &mut rng);
            assert_eq!(out.shape(), (40, 56));
            let calls = counting.calls();
            for call in &calls {
                let draws_per_cell = if call.modify { 2 } else { 1 };
                let expected = call.cells + 2 * draws_per_cell * STEPS * call.cells;
                assert_eq!(call.words, expected as u128, "{method}: {call:?}");
            }
            assert!(calls.iter().any(|call| call.modify), "{method}");
            if method == ExtensionMethod::InPainting {
                assert!(calls.iter().any(|call| !call.modify), "tiles are generated");
            }
            // ...and nothing but the model draws.
            let total: u128 = calls.iter().map(|call| call.words).sum();
            assert_eq!(rng.get_word_pos() - start, total, "{method}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ExtensionMethod::OutPainting.to_string(), "Out-Painting");
        assert_eq!(ExtensionMethod::InPainting.name(), "In");
    }
}
