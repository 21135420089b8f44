//! Design rules and DRC checking for layout patterns.
//!
//! The paper evaluates generated patterns against three rule families
//! (its Figure 3): **Space** (distance between adjacent polygons),
//! **Width** (shape size in one direction) and **Area** (polygon area).
//! A pattern is *legal* when it is DRC-clean under a given rule set.
//!
//! Checks run on the squish grid, where they are exact: every maximal run
//! of drawn cells in a row is a width slice, every run of empty cells
//! strictly between drawn cells is a spacing slice, and 4-connected
//! components weighted by the Δ vectors give polygon areas.
//!
//! Diagonal (corner-to-corner) spacing is intentionally not checked,
//! matching the axis-aligned rule illustrations in the paper.
//!
//! # Example
//!
//! ```
//! use cp_layout::drc::{DesignRules, check_pattern};
//! use cp_layout::squish::{SquishPattern, Topology};
//!
//! let rules = DesignRules::new(20, 20, 400);
//! let t = Topology::from_ascii("11.\n...");
//! let sq = SquishPattern::new(t, vec![15, 15, 40], vec![30, 40]);
//! let report = check_pattern(&sq, &rules);
//! assert!(report.is_clean()); // one 30x30 shape: width 30, area 900
//! ```

pub use crate::check::{check_pattern, DrcReport};
pub use crate::rules::DesignRules;
pub use crate::violation::{Violation, ViolationKind};
