//! The common fixed-size generator interface.

use cp_layout::squish::Topology;
use rand::RngCore;

/// A fixed-size topology generator (one Table-1 contender).
pub trait Generator {
    /// Human-readable method name as it appears in Table 1.
    fn name(&self) -> &str;

    /// Generates one `rows × cols` topology.
    fn generate(&self, rows: usize, cols: usize, rng: &mut dyn RngCore) -> Topology;

    /// Generates a library of `count` topologies.
    fn generate_library(
        &self,
        count: usize,
        rows: usize,
        cols: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<Topology> {
        (0..count).map(|_| self.generate(rows, cols, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct Empty;

    impl Generator for Empty {
        fn name(&self) -> &str {
            "Empty"
        }
        fn generate(&self, rows: usize, cols: usize, _rng: &mut dyn RngCore) -> Topology {
            Topology::filled(rows, cols, false)
        }
    }

    #[test]
    fn library_generation_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lib = Empty.generate_library(5, 4, 4, &mut rng);
        assert_eq!(lib.len(), 5);
        assert!(lib.iter().all(|t| t.shape() == (4, 4)));
    }
}
