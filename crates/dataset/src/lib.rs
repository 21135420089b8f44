//! Synthetic layout-map generation and squish dataset building.
//!
//! The paper trains on patches split from the ICCAD-2014 contest layout
//! map in two styles (Layer-10001, Layer-10003). That data is not
//! redistributable, so this crate generates *synthetic* layout maps whose
//! styles are calibrated the same way the two ICCAD layers differ:
//!
//! * [`Style::Layer10001`] — dense routing-metal: horizontal wire tracks
//!   with segment breaks and vertical jogs (high scan-line complexity,
//!   hard to extend);
//! * [`Style::Layer10003`] — sparse island/via-array shapes (low
//!   complexity, easy to extend).
//!
//! Maps are split into `patch × patch` nm² windows with overlap, squished
//! ([`cp_layout::squish::SquishPattern::from_layout`]) and normalized to a fixed
//! topology size, exactly mirroring the paper's dataset pipeline
//! (2048×2048 nm² → 128×128 topologies, with 4×/16×/64× larger windows
//! for the 256²/512²/1024² free-size references).
//!
//! # Example
//!
//! ```
//! use cp_dataset::{DatasetBuilder, Style};
//! let dataset = DatasetBuilder::new(Style::Layer10001)
//!     .patch_nm(1024)
//!     .topology_size(64)
//!     .count(8)
//!     .seed(1)
//!     .build();
//! assert_eq!(dataset.patterns().len(), 8);
//! assert!(dataset.patterns()[0].topology().density() > 0.05);
//! ```

pub mod builder;
mod map;
pub mod style;

pub use builder::{Dataset, DatasetBuilder};
pub(crate) use map::{generate_map, MapParams};
pub use style::Style;
