//! Rectilinear geometry substrate for ChatPattern.
//!
//! Layout patterns in DFM flows are collections of axis-aligned rectilinear
//! shapes on an integer (nanometre) grid. This module provides the small set
//! of geometric primitives everything else is built on:
//!
//! * [`Rect`] — half-open rectangles in integer-nm coordinates;
//! * [`Layout`] — a frame plus a bag of rectangles (possibly overlapping;
//!   the union of the rectangles is the drawn metal);
//! * `scanline` — scan-line coordinate extraction used by squish encoding;
//! * `component` — connected-component labelling on boolean grids.
//!
//! # Example
//!
//! ```
//! use cp_layout::geom::{Layout, Rect};
//!
//! let frame = Rect::new(0, 0, 2048, 2048);
//! let mut layout = Layout::new(frame);
//! layout.push(Rect::new(100, 100, 500, 180));
//! layout.push(Rect::new(100, 300, 900, 380));
//! assert_eq!(layout.rects().len(), 2);
//! assert!(layout.union_area() > 0);
//! ```

pub(crate) use crate::component::{label_components, line_edges, CellRun, ComponentLabels};
pub use crate::layout::Layout;
pub use crate::rect::Rect;
pub(crate) use crate::scanline::ScanLines;

/// Axis selector used by design-rule measurements and legalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Axis {
    /// Horizontal direction (widths/spaces measured along x).
    X,
    /// Vertical direction (widths/spaces measured along y).
    Y,
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::X => f.write_str("x"),
            Axis::Y => f.write_str("y"),
        }
    }
}
