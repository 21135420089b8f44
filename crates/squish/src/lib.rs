//! Squish pattern representation (Gennari & Lai, US 8,832,621).
//!
//! A layout pattern — a set of non-overlapping rectilinear polygons — is
//! encoded as a compact **squish pattern**: a binary topology matrix `T`
//! plus geometry vectors `Δx`, `Δy`. Scan lines along every polygon edge
//! divide the patch into a non-uniform grid; `T[i][j]` says whether grid
//! cell `(i, j)` is drawn, and the Δ vectors store the interval lengths.
//!
//! This crate provides:
//!
//! * [`Topology`] — the binary matrix, with the paste/window/flip
//!   operations the diffusion model and the extension algorithms need;
//! * [`SquishPattern`] — topology + deltas, with lossless
//!   [`SquishPattern::from_layout`] / [`SquishPattern::to_layout`]
//!   round-trips;
//! * [`normalize`] — fixed-size normalization (split the largest interval
//!   until the matrix is `N × N`, as in adaptive squish datasets);
//! * [`complexity()`] — the `(cx, cy)` scan-line complexity used by the
//!   diversity metric;
//! * [`Region`] — rectangular grid regions (masks for modification,
//!   failure reporting).
//!
//! # Example
//!
//! ```
//! use cp_geom::{Layout, Rect};
//! use cp_squish::SquishPattern;
//!
//! let mut layout = Layout::new(Rect::new(0, 0, 100, 100));
//! layout.push(Rect::new(10, 20, 40, 60));
//! let squish = SquishPattern::from_layout(&layout);
//! let back = squish.to_layout();
//! assert_eq!(back.union_area(), layout.union_area());
//! ```

pub mod complexity;
pub mod normalize;
pub mod pattern;
pub mod region;
pub mod render;
pub mod topology;

pub use complexity::{complexity, Complexity};
pub use normalize::{normalize_to, uniform_deltas, with_uniform_geometry};
pub use pattern::SquishPattern;
pub use region::Region;
pub use topology::{fits_one_request, Packed, Topology, MAX_REQUEST_CELLS};
