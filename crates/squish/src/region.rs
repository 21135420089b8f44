//! Rectangular regions in topology-grid coordinates.

use serde::{Deserialize, Serialize};

/// A half-open rectangular region `[row0, row1) × [col0, col1)` of a
/// topology matrix.
///
/// Regions address grid cells (not physical nanometres); they are the
/// language in which legalization failures are reported and pattern
/// modification masks are expressed.
///
/// # Example
///
/// ```
/// use cp_squish::Region;
/// let r = Region::new(2, 3, 6, 9);
/// assert_eq!(r.height(), 4);
/// assert_eq!(r.width(), 6);
/// assert!(r.contains(3, 5));
/// assert!(!r.contains(6, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    row0: usize,
    col0: usize,
    row1: usize,
    col1: usize,
}

impl Region {
    /// Creates a region; bounds are normalized so argument order per axis
    /// does not matter.
    #[must_use]
    pub fn new(row0: usize, col0: usize, row1: usize, col1: usize) -> Region {
        Region {
            row0: row0.min(row1),
            col0: col0.min(col1),
            row1: row0.max(row1),
            col1: col0.max(col1),
        }
    }

    /// The full extent of an `rows × cols` matrix.
    #[must_use]
    pub fn full(rows: usize, cols: usize) -> Region {
        Region::new(0, 0, rows, cols)
    }

    /// First row.
    #[must_use]
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// First column.
    #[must_use]
    pub fn col0(&self) -> usize {
        self.col0
    }

    /// Past-the-end row.
    #[must_use]
    pub fn row1(&self) -> usize {
        self.row1
    }

    /// Past-the-end column.
    #[must_use]
    pub fn col1(&self) -> usize {
        self.col1
    }

    /// Number of rows covered.
    #[must_use]
    pub fn height(&self) -> usize {
        self.row1 - self.row0
    }

    /// Number of columns covered.
    #[must_use]
    pub fn width(&self) -> usize {
        self.col1 - self.col0
    }

    /// Number of cells covered.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.height() * self.width()
    }

    /// True when the region covers no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row0 == self.row1 || self.col0 == self.col1
    }

    /// True when cell `(row, col)` lies inside.
    #[must_use]
    pub fn contains(&self, row: usize, col: usize) -> bool {
        row >= self.row0 && row < self.row1 && col >= self.col0 && col < self.col1
    }

    /// Intersection with another region, or `None` when disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        let row0 = self.row0.max(other.row0);
        let col0 = self.col0.max(other.col0);
        let row1 = self.row1.min(other.row1);
        let col1 = self.col1.min(other.col1);
        if row0 < row1 && col0 < col1 {
            Some(Region::new(row0, col0, row1, col1))
        } else {
            None
        }
    }

    /// Shifts the region by the given cell offsets.
    #[must_use]
    pub fn translated(&self, drow: usize, dcol: usize) -> Region {
        Region::new(
            self.row0 + drow,
            self.col0 + dcol,
            self.row1 + drow,
            self.col1 + dcol,
        )
    }

    /// Iterates all `(row, col)` cells inside.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (c0, c1) = (self.col0, self.col1);
        (self.row0..self.row1).flat_map(move |r| (c0..c1).map(move |c| (r, c)))
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows {}..{}, cols {}..{}",
            self.row0, self.row1, self.col0, self.col1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_orders_bounds() {
        assert_eq!(Region::new(5, 6, 1, 2), Region::new(1, 2, 5, 6));
    }

    #[test]
    fn intersection_cases() {
        let a = Region::new(0, 0, 4, 4);
        let b = Region::new(2, 2, 6, 6);
        assert_eq!(a.intersection(&b), Some(Region::new(2, 2, 4, 4)));
        let c = Region::new(4, 0, 8, 4); // touching rows → disjoint
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn cells_iterates_row_major() {
        let r = Region::new(1, 2, 2, 4);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells, vec![(1, 2), (1, 3)]);
    }
}
