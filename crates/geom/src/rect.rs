//! Half-open axis-aligned rectangles.

use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle covering `[x0, x1) × [y0, y1)` in nanometres.
///
/// Rectangles are always stored normalized (`x0 <= x1`, `y0 <= y1`).
/// Degenerate (zero-area) rectangles are allowed and behave as empty.
///
/// # Example
///
/// ```
/// use cp_geom::Rect;
/// let a = Rect::new(0, 0, 10, 10);
/// let b = Rect::new(5, 5, 20, 20);
/// assert!(a.intersects(&b));
/// assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
/// assert_eq!(a.area(), 100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so min/max order
    /// of the arguments does not matter.
    #[must_use]
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from origin and size. `w` and `h` must be >= 0.
    ///
    /// # Panics
    ///
    /// Panics if `w < 0` or `h < 0`.
    #[must_use]
    pub fn from_origin_size(x: i64, y: i64, w: i64, h: i64) -> Rect {
        assert!(w >= 0 && h >= 0, "negative rectangle size {w}x{h}");
        Rect::new(x, y, x + w, y + h)
    }

    /// Left edge.
    #[must_use]
    pub fn x0(&self) -> i64 {
        self.x0
    }

    /// Bottom edge.
    #[must_use]
    pub fn y0(&self) -> i64 {
        self.y0
    }

    /// Right edge (exclusive).
    #[must_use]
    pub fn x1(&self) -> i64 {
        self.x1
    }

    /// Top edge (exclusive).
    #[must_use]
    pub fn y1(&self) -> i64 {
        self.y1
    }

    /// Width in nanometres.
    #[must_use]
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nanometres.
    #[must_use]
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    #[must_use]
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// True if the rectangle covers no area.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// True if `other` lies entirely inside `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1)
    }

    /// True if the two rectangles share interior area.
    #[must_use]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Intersection area, or `None` when disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        ))
    }

    /// Returns this rectangle moved by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: i64, dy: i64) -> Rect {
        Rect::new(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})x[{}, {})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_on_construction() {
        let r = Rect::new(10, 10, 0, 0);
        assert_eq!(r, Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn area_and_empty() {
        assert_eq!(Rect::new(0, 0, 4, 5).area(), 20);
        assert!(Rect::new(3, 3, 3, 9).is_empty());
        assert_eq!(Rect::new(3, 3, 3, 9).area(), 0);
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, -5, 15, 5);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 0, 10, 5)));
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
    }
}
