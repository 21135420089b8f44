//! The extension working canvas.

use cp_diffusion::Mask;
use cp_squish::{Region, Topology};

/// A target-size topology canvas that tracks which cells have already
/// been generated.
///
/// The painting walks read a window, build the keep-mask from the
/// generated flags, hand both to the model, and paste the result back —
/// the model only ever sees `L × L` working space.
#[derive(Debug, Clone)]
pub struct Canvas {
    topology: Topology,
    generated: Topology,
}

impl Canvas {
    /// Creates an empty, fully-ungenerated canvas.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Canvas {
        Canvas {
            topology: Topology::filled(rows, cols, false),
            generated: Topology::filled(rows, cols, false),
        }
    }

    /// Canvas shape `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        self.topology.shape()
    }

    /// The topology accumulated so far.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Consumes the canvas, returning the final topology.
    ///
    /// # Panics
    ///
    /// Panics if any cell was never generated — that would mean the
    /// painting walk failed to cover the canvas.
    #[must_use]
    pub fn into_topology(self) -> Topology {
        assert!(self.fully_generated(), "canvas has ungenerated cells left");
        self.topology
    }

    /// True when every cell has been generated.
    #[must_use]
    pub fn fully_generated(&self) -> bool {
        self.generated.count_ones() == self.generated.len()
    }

    /// Number of cells already generated.
    #[must_use]
    pub fn generated_count(&self) -> usize {
        self.generated.count_ones()
    }

    /// Pastes externally produced content and marks it generated.
    pub fn place(&mut self, content: &Topology, row0: usize, col0: usize) {
        self.topology.paste(content, row0, col0);
        self.generated.fill_block(
            row0,
            row0 + content.rows(),
            col0,
            col0 + content.cols(),
            true,
        );
    }

    /// The window content under `region`.
    #[must_use]
    pub fn window(&self, region: Region) -> Topology {
        self.topology.window(region)
    }

    /// Keep-mask of a window: cells already generated are kept.
    #[must_use]
    pub fn keep_mask(&self, region: Region) -> Mask {
        let mut generated = self.generated_under(region);
        Mask::from_fn(region.height(), region.width(), |_, _| {
            generated.next().expect("window inside the canvas")
        })
    }

    /// Keep-mask of a window that keeps generated cells *outside*
    /// `repaint` (window-local coordinates) but regenerates everything
    /// inside `repaint` even if previously generated — the seam-repair
    /// mask of in-painting.
    #[must_use]
    pub fn keep_mask_excluding(&self, region: Region, repaint: Region) -> Mask {
        let mut generated = self.generated_under(region);
        Mask::from_fn(region.height(), region.width(), |r, c| {
            let generated = generated.next().expect("window inside the canvas");
            generated && !repaint.contains(r, c)
        })
    }

    /// The generated flags under `region`, row-major, read off the
    /// flag matrix a row slice at a time.
    fn generated_under(&self, region: Region) -> impl Iterator<Item = bool> + '_ {
        self.generated
            .as_bytes()
            .chunks_exact(self.generated.cols())
            .skip(region.row0())
            .take(region.height())
            .flat_map(move |row| &row[region.col0()..region.col1()])
            .map(|&flag| flag != 0)
    }

    /// Writes back a window produced by the model and marks the whole
    /// window generated.
    pub fn commit(&mut self, region: Region, content: &Topology) {
        assert_eq!(
            (region.height(), region.width()),
            content.shape(),
            "window content shape mismatch"
        );
        self.topology.paste(content, region.row0(), region.col0());
        self.generated.fill_block(
            region.row0(),
            region.row1(),
            region.col0(),
            region.col1(),
            true,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_marks_generated() {
        let mut canvas = Canvas::new(8, 8);
        let seed = Topology::filled(4, 4, true);
        canvas.place(&seed, 0, 0);
        assert_eq!(canvas.generated_count(), 16);
        assert!(!canvas.fully_generated());
        assert!(canvas.topology().get(3, 3));
        assert!(!canvas.topology().get(4, 4));
    }

    #[test]
    fn keep_mask_reflects_generated_cells() {
        let mut canvas = Canvas::new(8, 8);
        canvas.place(&Topology::filled(4, 4, true), 0, 0);
        let mask = canvas.keep_mask(Region::new(0, 0, 8, 8));
        assert!(mask.keeps(0, 0));
        assert!(!mask.keeps(7, 7));
        assert_eq!(mask.keep_count(), 16);
    }

    #[test]
    fn keep_mask_excluding_forces_repaint() {
        let mut canvas = Canvas::new(4, 4);
        canvas.place(&Topology::filled(4, 4, true), 0, 0);
        let mask = canvas.keep_mask_excluding(Region::new(0, 0, 4, 4), Region::new(1, 1, 3, 3));
        assert!(mask.keeps(0, 0));
        assert!(!mask.keeps(1, 1)); // generated but inside repaint band
        assert_eq!(mask.regenerate_count(), 4);
    }

    #[test]
    fn into_topology_requires_full_coverage() {
        let mut canvas = Canvas::new(4, 4);
        canvas.place(&Topology::filled(4, 4, false), 0, 0);
        let t = canvas.into_topology();
        assert_eq!(t.shape(), (4, 4));
    }

    #[test]
    #[should_panic(expected = "ungenerated")]
    fn into_topology_panics_when_incomplete() {
        let canvas = Canvas::new(4, 4);
        let _ = canvas.into_topology();
    }
}
