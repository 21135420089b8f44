//! Library summary statistics (the agent's experience documents).

use crate::{diversity, legality, LegalityReport};
use cp_layout::drc::DesignRules;
use cp_layout::squish::Topology;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Joint legality/diversity summary of a pattern library — one row of
/// Table 1, and the payload of the Figure-10 experience documents the
/// LLM agent learns extension-method selection from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LibraryStats {
    /// Number of topologies evaluated.
    pub total: usize,
    /// Number that legalized DRC-clean.
    pub legal: usize,
    /// Legality ratio (Eq. 7).
    pub legality: f64,
    /// Diversity of the legal patterns in bits (Eq. 8).
    pub diversity: f64,
    /// Mean topology density of the legal patterns.
    pub mean_density: f64,
}

impl LibraryStats {
    /// Evaluates a library end to end: legalize every topology once,
    /// then measure diversity over the legal survivors.
    #[must_use]
    pub fn evaluate<'a>(
        topologies: impl Iterator<Item = &'a Topology>,
        frame_nm: i64,
        rules: &DesignRules,
        rng: &mut impl Rng,
    ) -> LibraryStats {
        let report = legality(topologies, frame_nm, rules, rng);
        LibraryStats::from_report(&report)
    }

    /// Summarizes an existing legality report.
    #[must_use]
    pub(crate) fn from_report(report: &LegalityReport) -> LibraryStats {
        let legal = report.legal_count();
        let diversity = diversity(report.legal_topologies());
        let mean_density = if legal == 0 {
            0.0
        } else {
            report
                .legal_topologies()
                .map(Topology::density)
                .sum::<f64>()
                / legal as f64
        };
        LibraryStats {
            total: report.total(),
            legal,
            legality: report.ratio(),
            diversity,
            mean_density,
        }
    }
}

impl std::fmt::Display for LibraryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.legality.is_nan() {
            write!(
                f,
                "legality: n/a, diversity: {:.3} ({} patterns)",
                self.diversity, self.total
            )
        } else {
            write!(
                f,
                "legality: {:.2}%, diversity: {:.3} ({}/{} legal)",
                self.legality * 100.0,
                self.diversity,
                self.legal,
                self.total
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn evaluate_combines_legality_and_diversity() {
        let rules = DesignRules::new(20, 20, 400);
        let lib = [
            Topology::from_ascii("11..\n11..\n....\n...."),
            Topology::from_ascii("....\n.11.\n.11.\n...."),
            Topology::from_ascii("1.1.1.1.1.1"), // will fail in 100 nm
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let stats = LibraryStats::evaluate(lib.iter(), 100, &rules, &mut rng);
        assert_eq!(stats.total, 3);
        assert_eq!(stats.legal, 2);
        assert!(stats.mean_density > 0.0);
    }

    #[test]
    fn nan_legality_displays_as_n_a() {
        let stats = LibraryStats {
            total: 1,
            legal: 1,
            legality: f64::NAN,
            diversity: 0.0,
            mean_density: 0.25,
        };
        assert!(stats.to_string().contains("n/a"));
    }

    #[test]
    fn display_formats_percentages() {
        let rules = DesignRules::new(20, 20, 400);
        let lib = [Topology::from_ascii("11\n11")];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stats = LibraryStats::evaluate(lib.iter(), 100, &rules, &mut rng);
        assert!(stats.to_string().contains("100.00%"));
    }
}
