//! Layout patterns: a frame plus drawn rectangles.

use crate::{Rect, ScanLines};
use serde::{Deserialize, Serialize};

/// A layout pattern patch.
///
/// The `frame` is the physical extent of the patch (e.g. 2048×2048 nm²);
/// `rects` are the drawn shapes. Rectangles may overlap — the drawn metal
/// is their union, exactly as in mask layout formats where overlapping
/// shapes on one layer merge.
///
/// # Example
///
/// ```
/// use cp_geom::{Layout, Rect};
/// let mut l = Layout::new(Rect::new(0, 0, 100, 100));
/// l.push(Rect::new(10, 10, 40, 20));
/// l.push(Rect::new(30, 10, 60, 20)); // overlaps the first
/// assert_eq!(l.union_area(), 50 * 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    frame: Rect,
    rects: Vec<Rect>,
}

impl Layout {
    /// Creates an empty layout with the given physical frame.
    #[must_use]
    pub fn new(frame: Rect) -> Layout {
        Layout {
            frame,
            rects: Vec::new(),
        }
    }

    /// Creates a layout from a frame and existing shapes, clipping each
    /// shape to the frame and dropping the ones that fall fully outside.
    #[must_use]
    pub fn with_rects(frame: Rect, rects: impl IntoIterator<Item = Rect>) -> Layout {
        let mut layout = Layout::new(frame);
        for r in rects {
            layout.push(r);
        }
        layout
    }

    /// Physical extent of the patch.
    #[must_use]
    pub fn frame(&self) -> Rect {
        self.frame
    }

    /// Drawn shapes (possibly overlapping).
    #[must_use]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Adds a shape, clipped to the frame. Shapes fully outside the frame
    /// and empty shapes are silently dropped.
    pub fn push(&mut self, rect: Rect) {
        if let Some(clipped) = rect.intersection(&self.frame) {
            if !clipped.is_empty() {
                self.rects.push(clipped);
            }
        }
    }

    /// True when nothing is drawn.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Number of drawn rectangles (not merged shapes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Area of the union of all drawn shapes, in nm².
    ///
    /// Computed on the scan-line grid so overlaps are counted once.
    /// Sweeps row bands with one reused coverage mask instead of
    /// testing every `(cell, rect)` pair: each rect's edges are scan
    /// lines, so its covered cells form the contiguous index block
    /// `[r0, r1) × [c0, c1)` found by binary search once per rect.
    #[must_use]
    pub fn union_area(&self) -> i64 {
        let scan = ScanLines::from_layout(self);
        let xs = scan.xs();
        let ys = scan.ys();
        let spans: Vec<(usize, usize, usize, usize)> = self
            .rects
            .iter()
            .map(|r| {
                let c0 = xs.binary_search(&r.x0()).expect("rect edge is a scan line");
                let c1 = xs.binary_search(&r.x1()).expect("rect edge is a scan line");
                let r0 = ys.binary_search(&r.y0()).expect("rect edge is a scan line");
                let r1 = ys.binary_search(&r.y1()).expect("rect edge is a scan line");
                (r0, r1, c0, c1)
            })
            .collect();
        let mut covered = vec![false; scan.cols()];
        let mut area = 0;
        for row in 0..scan.rows() {
            covered.fill(false);
            let mut any = false;
            for &(r0, r1, c0, c1) in &spans {
                if r0 <= row && row < r1 {
                    covered[c0..c1].fill(true);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let mut row_len = 0;
            for (col, &hit) in covered.iter().enumerate() {
                if hit {
                    row_len += xs[col + 1] - xs[col];
                }
            }
            area += row_len * (ys[row + 1] - ys[row]);
        }
        area
    }

    /// Returns a new layout translated by `(dx, dy)` (frame and shapes).
    #[must_use]
    pub fn translated(&self, dx: i64, dy: i64) -> Layout {
        Layout {
            frame: self.frame.translated(dx, dy),
            rects: self.rects.iter().map(|r| r.translated(dx, dy)).collect(),
        }
    }

    /// Extracts the sub-layout inside `window` re-anchored at the origin.
    #[must_use]
    pub fn window(&self, window: Rect) -> Layout {
        let mut out = Layout::new(Rect::new(0, 0, window.width(), window.height()));
        for r in &self.rects {
            if let Some(clip) = r.intersection(&window) {
                out.push(clip.translated(-window.x0(), -window.y0()));
            }
        }
        out
    }
}

impl Extend<Rect> for Layout {
    fn extend<T: IntoIterator<Item = Rect>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_clips_to_frame() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.push(Rect::new(90, 90, 150, 150));
        assert_eq!(l.rects(), &[Rect::new(90, 90, 100, 100)]);
        l.push(Rect::new(200, 200, 300, 300));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn union_area_counts_overlap_once() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.push(Rect::new(0, 0, 60, 10));
        l.push(Rect::new(40, 0, 100, 10));
        assert_eq!(l.union_area(), 100 * 10);
    }

    #[test]
    fn union_area_disjoint_sums() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.push(Rect::new(0, 0, 10, 10));
        l.push(Rect::new(20, 20, 30, 40));
        assert_eq!(l.union_area(), 100 + 200);
    }

    #[test]
    fn window_extraction_reanchors() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.push(Rect::new(10, 10, 50, 20));
        let w = l.window(Rect::new(20, 0, 60, 40));
        assert_eq!(w.frame(), Rect::new(0, 0, 40, 40));
        assert_eq!(w.rects(), &[Rect::new(0, 10, 30, 20)]);
    }
}
