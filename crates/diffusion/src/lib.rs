//! Conditional binary-state discrete diffusion (D3PM) for layout
//! topology generation.
//!
//! Implements the paper's generative back-end:
//!
//! * [`NoiseSchedule`] — the linear β schedule and 2×2 transition
//!   matrices `Q_k` of Eqs. (1)–(4), with closed-form cumulative flip
//!   probabilities;
//! * [`Denoiser`] — the `p_θ(x₀ | x_k, c)` estimator. **The paper's is
//!   a trained U-Net; this repository's is [`MrfDenoiser`]**, a
//!   mean-field Markov random field over fitted 3×3 neighbourhood
//!   tables, which every binary, bench and test samples through. The
//!   CPU U-Net and tensor crate once carried beside it, reached by none
//!   of them, end at commit `a19dcb9` (`crates/diffusion/src/unet.rs`);
//! * [`DiffusionModel`] — the conditional reverse process of Eqs. (9)
//!   and (11), ancestral sampling from uniform noise;
//! * [`modification`] — RePaint-style masked modification (Eq. 12):
//!   known pixels are forward-noised from the given topology, unknown
//!   pixels come from the model, every step;
//! * [`PatternSampler`] — the object-safe sampling interface the
//!   extension algorithms and the LLM agent tools consume.
//!
//! # Example
//!
//! ```
//! use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
//! use cp_squish::Topology;
//! use rand::SeedableRng;
//!
//! // Fit the statistical denoiser on a toy striped dataset.
//! let data: Vec<Topology> =
//!     (0..8).map(|i| Topology::from_fn(16, 16, |_, c| (c + i) % 4 < 2)).collect();
//! let denoiser = MrfDenoiser::fit(&[(0, &data)], 1.0);
//! let model = DiffusionModel::new(NoiseSchedule::scaled_default(12), denoiser, 16);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let sample = model.sample(16, 16, Some(0), &mut rng);
//! assert_eq!(sample.shape(), (16, 16));
//! ```

pub mod denoiser;
pub mod mask;
pub mod model;
pub mod modification;
pub mod mrf;
pub mod sampler;
pub mod schedule;

pub use denoiser::Denoiser;
pub use mask::Mask;
pub use model::DiffusionModel;
pub use mrf::MrfDenoiser;
pub use sampler::PatternSampler;
pub use schedule::NoiseSchedule;
