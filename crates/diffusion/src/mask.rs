//! Modification masks (the `M` of paper Eq. 12).

use cp_layout::squish::{Region, Topology};

/// A binary mask over a topology matrix: `keep` cells come from the
/// existing pattern, the rest are regenerated by the model.
///
/// # Example
///
/// ```
/// use cp_diffusion::Mask;
/// use cp_layout::squish::Region;
/// // Keep everything except a 2×2 hole.
/// let mask = Mask::keep_outside(4, 4, Region::new(1, 1, 3, 3));
/// assert!(mask.keeps(0, 0));
/// assert!(!mask.keeps(1, 1));
/// assert_eq!(mask.regenerate_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    keep: Topology,
}

impl Mask {
    /// Keeps every cell (no regeneration).
    #[must_use]
    pub fn keep_all(rows: usize, cols: usize) -> Mask {
        Mask {
            keep: Topology::filled(rows, cols, true),
        }
    }

    /// Keeps everything *outside* `region`; the region is regenerated.
    /// This is the in-painting mask of the paper's §4.2 recovery example.
    #[must_use]
    pub fn keep_outside(rows: usize, cols: usize, region: Region) -> Mask {
        Mask {
            keep: Topology::from_fn(rows, cols, |r, c| !region.contains(r, c)),
        }
    }

    /// Builds a mask from a predicate (`true` = keep).
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> bool) -> Mask {
        Mask {
            keep: Topology::from_fn(rows, cols, f),
        }
    }

    /// Matrix shape `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        self.keep.shape()
    }

    /// Whether cell `(row, col)` is kept from the existing pattern.
    #[must_use]
    pub fn keeps(&self, row: usize, col: usize) -> bool {
        self.keep.get(row, col)
    }

    /// Number of cells the model will regenerate.
    #[must_use]
    pub fn regenerate_count(&self) -> usize {
        self.keep.len() - self.keep.count_ones()
    }

    /// Number of kept cells.
    #[must_use]
    pub fn keep_count(&self) -> usize {
        self.keep.count_ones()
    }

    /// The underlying keep matrix.
    #[must_use]
    pub(crate) fn as_topology(&self) -> &Topology {
        &self.keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_all_and_none_counts() {
        assert_eq!(Mask::keep_all(3, 4).regenerate_count(), 0);
        let none = Mask::from_fn(3, 4, |_, _| false);
        assert_eq!(none.regenerate_count(), 12);
        assert_eq!(none.keep_count(), 0);
    }

    #[test]
    fn keep_outside_regenerates_exactly_the_region() {
        let region = Region::new(0, 1, 2, 3);
        let outside = Mask::keep_outside(3, 3, region);
        for r in 0..3 {
            for c in 0..3 {
                assert_ne!(region.contains(r, c), outside.keeps(r, c));
            }
        }
    }

    #[test]
    fn from_fn_matches_predicate() {
        let m = Mask::from_fn(2, 2, |r, c| r == c);
        assert!(m.keeps(0, 0) && m.keeps(1, 1));
        assert!(!m.keeps(0, 1) && !m.keeps(1, 0));
    }
}
