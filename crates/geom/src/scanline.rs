//! Scan-line grids induced by polygon edges.
//!
//! The squish representation divides a layout into a non-uniform grid
//! using scan lines along every polygon edge (plus the frame borders).
//! [`ScanLines`] holds the sorted unique coordinates along each axis and
//! the derived interval (delta) lengths.

use crate::Layout;
use serde::{Deserialize, Serialize};

/// The scan-line grid of a layout: sorted unique x and y coordinates.
///
/// # Example
///
/// ```
/// use cp_geom::{Layout, Rect, ScanLines};
/// let mut l = Layout::new(Rect::new(0, 0, 100, 100));
/// l.push(Rect::new(10, 20, 40, 60));
/// let scan = ScanLines::from_layout(&l);
/// assert_eq!(scan.xs(), &[0, 10, 40, 100]);
/// assert_eq!(scan.ys(), &[0, 20, 60, 100]);
/// assert_eq!(scan.x_intervals(), &[10, 30, 60]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanLines {
    xs: Vec<i64>,
    ys: Vec<i64>,
}

impl ScanLines {
    /// Builds the scan-line grid of a layout: one line per distinct shape
    /// edge coordinate plus the frame borders.
    #[must_use]
    pub fn from_layout(layout: &Layout) -> ScanLines {
        let frame = layout.frame();
        let mut xs = Vec::with_capacity(layout.rects().len() * 2 + 2);
        let mut ys = Vec::with_capacity(layout.rects().len() * 2 + 2);
        xs.push(frame.x0());
        xs.push(frame.x1());
        ys.push(frame.y0());
        ys.push(frame.y1());
        for r in layout.rects() {
            xs.push(r.x0());
            xs.push(r.x1());
            ys.push(r.y0());
            ys.push(r.y1());
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        ScanLines { xs, ys }
    }

    /// Sorted unique x scan-line coordinates.
    #[must_use]
    pub fn xs(&self) -> &[i64] {
        &self.xs
    }

    /// Sorted unique y scan-line coordinates.
    #[must_use]
    pub fn ys(&self) -> &[i64] {
        &self.ys
    }

    /// Interval lengths between consecutive x lines (the Δx vector).
    #[must_use]
    pub fn x_intervals(&self) -> Vec<i64> {
        self.xs.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Interval lengths between consecutive y lines (the Δy vector).
    #[must_use]
    pub fn y_intervals(&self) -> Vec<i64> {
        self.ys.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.xs.len() - 1
    }

    /// Number of grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ys.len() - 1
    }

    /// Index of the x interval containing coordinate `x`, or `None` when
    /// outside the grid.
    #[must_use]
    pub fn x_interval_of(&self, x: i64) -> Option<usize> {
        if x < self.xs[0] || x >= *self.xs.last().expect("non-empty") {
            return None;
        }
        Some(match self.xs.binary_search(&x) {
            Ok(i) => i.min(self.cols() - 1),
            Err(i) => i - 1,
        })
    }

    /// Index of the y interval containing coordinate `y`, or `None` when
    /// outside the grid.
    #[must_use]
    pub fn y_interval_of(&self, y: i64) -> Option<usize> {
        if y < self.ys[0] || y >= *self.ys.last().expect("non-empty") {
            return None;
        }
        Some(match self.ys.binary_search(&y) {
            Ok(i) => i.min(self.rows() - 1),
            Err(i) => i - 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn grid() -> ScanLines {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.push(Rect::new(10, 20, 40, 60));
        ScanLines::from_layout(&l)
    }

    #[test]
    fn intervals_are_diffs() {
        let g = grid();
        assert_eq!(g.x_intervals(), vec![10, 30, 60]);
        assert_eq!(g.y_intervals(), vec![20, 40, 40]);
        assert_eq!(g.cols(), 3);
        assert_eq!(g.rows(), 3);
    }

    #[test]
    fn interval_lookup() {
        let g = grid();
        assert_eq!(g.x_interval_of(0), Some(0));
        assert_eq!(g.x_interval_of(9), Some(0));
        assert_eq!(g.x_interval_of(10), Some(1));
        assert_eq!(g.x_interval_of(99), Some(2));
        assert_eq!(g.x_interval_of(100), None);
        assert_eq!(g.x_interval_of(-1), None);
    }

    #[test]
    fn from_layout_includes_frame_and_edges() {
        let mut l = Layout::new(Rect::new(0, 0, 50, 50));
        l.push(Rect::new(5, 5, 10, 10));
        l.push(Rect::new(5, 20, 10, 30)); // shares x edges
        let g = ScanLines::from_layout(&l);
        assert_eq!(g.xs(), &[0, 5, 10, 50]);
        assert_eq!(g.ys(), &[0, 5, 10, 20, 30, 50]);
    }
}
