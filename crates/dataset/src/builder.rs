//! Patch extraction and dataset assembly.

use crate::{generate_map, MapParams, Style};
use cp_layout::geom::Rect;
use cp_layout::squish::{normalize_to, SquishPattern, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A library of normalized squish patterns of one style.
#[derive(Debug, Clone)]
pub struct Dataset {
    style: Style,
    patterns: Vec<SquishPattern>,
}

impl Dataset {
    /// The style the patterns were generated in.
    #[must_use]
    pub fn style(&self) -> Style {
        self.style
    }

    /// The normalized patterns.
    #[must_use]
    pub fn patterns(&self) -> &[SquishPattern] {
        &self.patterns
    }

    /// Iterates the bare topology matrices (model training input).
    pub fn topologies(&self) -> impl Iterator<Item = &Topology> + '_ {
        self.patterns.iter().map(SquishPattern::topology)
    }
}

/// Builder producing a [`Dataset`] by windowing synthetic layout maps.
///
/// # Example
///
/// ```
/// use cp_dataset::{DatasetBuilder, Style};
/// let ds = DatasetBuilder::new(Style::Layer10003)
///     .patch_nm(2048)
///     .topology_size(32)
///     .count(4)
///     .seed(7)
///     .build();
/// assert_eq!(ds.patterns().len(), 4);
/// assert_eq!(ds.patterns()[0].topology().shape(), (32, 32));
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    style: Style,
    patch_nm: i64,
    topo_size: usize,
    count: usize,
    seed: u64,
}

impl DatasetBuilder {
    /// Starts a builder with the paper's defaults: 2048 nm patches
    /// normalized to 128×128 topologies, 256 patterns, seed 0.
    #[must_use]
    pub fn new(style: Style) -> DatasetBuilder {
        DatasetBuilder {
            style,
            patch_nm: 2048,
            topo_size: 128,
            count: 256,
            seed: 0,
        }
    }

    /// Physical patch window (nm). The paper uses 2048 for 128² and
    /// 4096/8192/16384 for the 256²/512²/1024² references.
    #[must_use]
    pub fn patch_nm(mut self, nm: i64) -> DatasetBuilder {
        self.patch_nm = nm;
        self
    }

    /// Normalized topology matrix size.
    #[must_use]
    pub fn topology_size(mut self, size: usize) -> DatasetBuilder {
        self.topo_size = size;
        self
    }

    /// Number of patterns to extract.
    #[must_use]
    pub fn count(mut self, count: usize) -> DatasetBuilder {
        self.count = count;
        self
    }

    /// RNG seed (datasets are fully reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> DatasetBuilder {
        self.seed = seed;
        self
    }

    /// Generates maps and extracts patches until `count` normalized
    /// patterns are collected. Patches whose minimal squish matrix is
    /// more complex than the target size are dropped (as real dataset
    /// pipelines do).
    #[must_use]
    pub fn build(self) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut patterns = Vec::with_capacity(self.count);
        let mut map_round = 0u64;
        while patterns.len() < self.count {
            // Map big enough for a grid of overlapping windows.
            let span = (self.patch_nm * 4).max(8192);
            let map = generate_map(
                self.style,
                MapParams {
                    width_nm: span,
                    height_nm: span,
                },
                &mut rng,
            );
            let stride = self.patch_nm / 2;
            let mut offsets = Vec::new();
            let mut y = 0;
            while y + self.patch_nm <= span {
                let mut x = 0;
                while x + self.patch_nm <= span {
                    offsets.push((x, y));
                    x += stride;
                }
                y += stride;
            }
            // Shuffle offsets so truncation at `count` is unbiased.
            for i in (1..offsets.len()).rev() {
                let j = rng.gen_range(0..=i);
                offsets.swap(i, j);
            }
            for (x, y) in offsets {
                if patterns.len() >= self.count {
                    break;
                }
                let window = map.window(Rect::new(x, y, x + self.patch_nm, y + self.patch_nm));
                if window.is_empty() {
                    continue;
                }
                let squish = SquishPattern::from_layout(&window).minimized();
                if let Some(normalized) = normalize_to(&squish, self.topo_size, self.topo_size) {
                    patterns.push(normalized);
                }
            }
            map_round += 1;
            assert!(
                map_round < 64,
                "dataset generation stalled: {} of {} patterns after {map_round} maps",
                patterns.len(),
                self.count
            );
        }
        Dataset {
            style: self.style,
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_count_and_shape() {
        let ds = DatasetBuilder::new(Style::Layer10001)
            .patch_nm(1024)
            .topology_size(64)
            .count(6)
            .seed(3)
            .build();
        assert_eq!(ds.patterns().len(), 6);
        for p in ds.patterns() {
            assert_eq!(p.topology().shape(), (64, 64));
            assert_eq!(p.physical_width(), 1024);
            assert_eq!(p.physical_height(), 1024);
        }
    }

    #[test]
    fn datasets_are_reproducible() {
        let a = DatasetBuilder::new(Style::Layer10003)
            .topology_size(32)
            .count(4)
            .seed(5)
            .build();
        let b = DatasetBuilder::new(Style::Layer10003)
            .topology_size(32)
            .count(4)
            .seed(5)
            .build();
        assert_eq!(a.patterns(), b.patterns());
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetBuilder::new(Style::Layer10001)
            .patch_nm(1024)
            .topology_size(64)
            .count(4)
            .seed(1)
            .build();
        let b = DatasetBuilder::new(Style::Layer10001)
            .patch_nm(1024)
            .topology_size(64)
            .count(4)
            .seed(2)
            .build();
        assert_ne!(a.patterns(), b.patterns());
    }

    #[test]
    fn styles_produce_distinct_density_statistics() {
        let dense = DatasetBuilder::new(Style::Layer10001)
            .patch_nm(1024)
            .topology_size(64)
            .count(8)
            .seed(9)
            .build();
        let sparse = DatasetBuilder::new(Style::Layer10003)
            .topology_size(64)
            .count(8)
            .seed(9)
            .build();
        let d: f64 = dense.topologies().map(Topology::density).sum::<f64>() / 8.0;
        let s: f64 = sparse.topologies().map(Topology::density).sum::<f64>() / 8.0;
        assert!(d > s, "dense {d:.3} vs sparse {s:.3}");
    }
}
