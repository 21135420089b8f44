//! The layout core of ChatPattern: one pipeline stage from a topology
//! matrix to a DRC-clean physical pattern (the paper's §3.2 and §4.2).
//!
//! * [`geom`] — rectilinear geometry: rects, layouts, scan lines and
//!   connected-component labelling;
//! * [`squish`] — the squish pattern representation: topology matrices,
//!   regions, normalization and complexity;
//! * [`drc`] — the design rules and the DRC engine;
//! * [`legalize`] — the explainable legalizer, which assigns Δx/Δy to a
//!   topology or names the region that cannot fit;
//! * [`stage`] — the stages a request's time is charged to, and the
//!   per-thread clock that charges it.

pub mod drc;
pub mod geom;
pub mod legalize;
pub mod squish;
pub mod stage;

// `drc`, `geom`, `legalize` and `squish` re-export what they hold from
// these, which sit at the crate root so that each keeps the module path
// it had when the four were separate crates.
mod check;
mod complexity;
mod component;
mod failure;
mod layout;
mod normalize;
mod pattern;
mod rect;
mod region;
mod rules;
mod scanline;
mod solver;
mod topology;
mod violation;
