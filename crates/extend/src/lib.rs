//! Free-size pattern extension (paper §3.2 "Pattern Extension", Figure 7).
//!
//! A fixed-window generative model (window `L × L`) is turned into a
//! free-size generator by sliding its RePaint-style modification over a
//! larger canvas:
//!
//! * **Out-Painting** ([`out_paint`]) — grow an existing pattern by
//!   generating new borders: windows walk the canvas with stride `S`,
//!   each keeping the already-generated cells and sampling the rest;
//! * **In-Painting** ([`in_paint`]) — concatenate independently generated
//!   tiles, then regenerate the bands across every tile seam and the
//!   blocks at every seam corner so the shapes merge;
//! * [`cost`] — the paper's sampling-count formulas
//!   `N_in = (2⌈W/L⌉−1)(2⌈H/L⌉−1)` and
//!   `N_out = (⌈(W−L)/S⌉+1)(⌈(H−L)/S⌉+1)`;
//! * [`extend`] — method-dispatching entry point used by the agent's
//!   `topology_extension` tool.
//!
//! Only the working window is ever handed to the model, so memory stays
//! bounded by `L²` regardless of target size.
//!
//! # Example
//!
//! ```
//! use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule, PatternSampler};
//! use cp_extend::{extend, ExtensionMethod};
//! use cp_squish::Topology;
//! use rand::SeedableRng;
//!
//! let data: Vec<Topology> =
//!     (0..6).map(|i| Topology::from_fn(16, 16, |_, c| (c + i) % 4 < 2)).collect();
//! let model = DiffusionModel::new(
//!     NoiseSchedule::scaled_default(8),
//!     MrfDenoiser::fit(&[(0, &data)], 1.0),
//!     16,
//! );
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
//! let seed = model.generate(16, 16, Some(0), &mut rng);
//! let big = extend(&model, &seed, 32, 32, ExtensionMethod::OutPainting, Some(0), &mut rng);
//! assert_eq!(big.shape(), (32, 32));
//! ```

pub mod canvas;
pub mod cost;
pub mod in_painting;
pub mod method;
pub mod out_painting;
#[cfg(test)]
mod test_support;

pub use canvas::Canvas;
pub use cost::{in_painting_samples, out_painting_samples};
pub use in_painting::in_paint;
pub use method::{extend, ExtensionMethod};
pub use out_painting::out_paint;
