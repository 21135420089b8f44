//! Reimplementations of the baselines ChatPattern is compared against in
//! Table 1 of the paper.
//!
//! Each baseline is a *scaled but mechanistically faithful*
//! reimplementation — none of the originals' weights or training code
//! are available offline, so each item names the mechanism kept and
//! what stands in for the network:
//!
//! * [`Cae`] — convolutional auto-encoder proxy: a PCA (linear
//!   auto-encoder) decoder over topology matrices, sampled in latent
//!   space and thresholded. Reconstruction-style decoding produces the
//!   ragged, rule-violating edges that give CAE its very low legality;
//! * [`Vcae`] — the variational variant: latent sampling calibrated to
//!   the empirical latent moments plus density-matched thresholding;
//! * [`LegalGan`] — the learned legalization post-processor: iterated
//!   majority filtering plus pruning of sub-minimum runs, with the
//!   minimum run lengths *fitted from data* rather than hand-coded;
//! * [`LayouTransformer`] — sequential (autoregressive) pattern model
//!   over the topology raster with a fitted neighbourhood context table;
//! * [`DiffPattern`] — the prior-SOTA unconditional discrete diffusion
//!   (one model per style), re-using `cp-diffusion` without conditions;
//! * [`concat_extend`] — DiffPattern w/ Concatenation: the free-size
//!   baseline that stitches independent fixed-size samples with no seam
//!   repair (the configuration whose legality collapses in Table 1).
//!
//! # Example
//!
//! ```
//! use cp_baselines::{Cae, Generator};
//! use cp_squish::Topology;
//! use rand::SeedableRng;
//! let data: Vec<Topology> =
//!     (0..8).map(|i| Topology::from_fn(16, 16, |_, c| (c + i) % 4 < 2)).collect();
//! let cae = Cae::fit(&data, 4);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let sample = cae.generate(16, 16, &mut rng);
//! assert_eq!(sample.shape(), (16, 16));
//! ```

pub mod cae;
pub mod concat;
pub mod diffpattern;
pub mod generator;
pub mod layout_transformer;
pub mod legal_gan;
pub mod pca;
pub mod vcae;

pub use cae::Cae;
pub use concat::concat_extend;
pub use diffpattern::DiffPattern;
pub use generator::Generator;
pub use layout_transformer::LayouTransformer;
pub use legal_gan::LegalGan;
pub use pca::PcaModel;
pub use vcae::Vcae;
