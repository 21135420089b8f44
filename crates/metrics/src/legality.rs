//! Legality: the fraction of topologies that legalize DRC-clean (Eq. 7).

use cp_layout::drc::{check_pattern, DesignRules};
use cp_layout::legalize::Legalizer;
use cp_layout::squish::{SquishPattern, Topology};
use rand::Rng;

/// Per-library legality evaluation result.
#[derive(Debug, Clone)]
pub struct LegalityReport {
    /// Each topology's legal pattern, `None` where legalization failed.
    outcomes: Vec<Option<SquishPattern>>,
}

impl LegalityReport {
    /// Number of topologies evaluated.
    #[must_use]
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of legal patterns.
    #[must_use]
    pub(crate) fn legal_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_some()).count()
    }

    /// Legality ratio in `0.0..=1.0` (Eq. 7); `0.0` for an empty library.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.legal_count() as f64 / self.total() as f64
        }
    }

    /// The legal patterns (for downstream diversity evaluation).
    pub(crate) fn legal_patterns(&self) -> impl Iterator<Item = &SquishPattern> + '_ {
        self.outcomes.iter().flatten()
    }

    /// The legal topologies.
    pub fn legal_topologies(&self) -> impl Iterator<Item = &Topology> + '_ {
        self.legal_patterns().map(SquishPattern::topology)
    }
}

/// Legalizes every topology once (no selection, no retry — the paper's
/// fair-comparison protocol) and verifies the results with the DRC
/// engine.
///
/// `frame_nm` is the requested physical pattern size.
///
/// # Panics
///
/// Panics (debug builds only) if a pattern that legalized successfully
/// fails the independent DRC check — that would be a legalizer bug.
#[must_use]
pub fn legality<'a>(
    topologies: impl Iterator<Item = &'a Topology>,
    frame_nm: i64,
    rules: &DesignRules,
    rng: &mut impl Rng,
) -> LegalityReport {
    let legalizer = Legalizer::new(*rules);
    let outcomes = topologies
        .map(|t| match legalizer.legalize(t, frame_nm, frame_nm, rng) {
            Ok(pattern) => {
                debug_assert!(
                    check_pattern(&pattern, rules).is_clean(),
                    "legalizer produced a DRC-dirty pattern"
                );
                Some(pattern)
            }
            Err(_) => None,
        })
        .collect();
    LegalityReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn all_simple_topologies_are_legal() {
        let rules = DesignRules::new(20, 20, 400);
        let lib = [
            Topology::from_ascii("11..\n11..\n....\n...."),
            Topology::from_ascii("....\n.11.\n.11.\n...."),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = legality(lib.iter(), 500, &rules, &mut rng);
        assert_eq!(report.legal_count(), 2);
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overcomplex_topology_fails() {
        let rules = DesignRules::new(20, 20, 400);
        // 1-px checkerboard row at tiny frame: infeasible.
        let lib = [Topology::from_ascii("1.1.1.1.1.1")];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = legality(lib.iter(), 100, &rules, &mut rng);
        assert_eq!(report.legal_count(), 0);
        assert_eq!(report.total(), 1);
    }

    #[test]
    fn mixed_library_ratio() {
        let rules = DesignRules::new(20, 20, 400);
        let lib = [
            Topology::from_ascii("11\n11"),
            Topology::from_ascii("1.1.1.1.1.1"),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = legality(lib.iter(), 100, &rules, &mut rng);
        assert!((report.ratio() - 0.5).abs() < 1e-12);
        assert_eq!(report.legal_patterns().count(), 1);
    }

    #[test]
    fn empty_library_ratio_is_zero() {
        let rules = DesignRules::new(20, 20, 400);
        let lib: Vec<Topology> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(legality(lib.iter(), 100, &rules, &mut rng).ratio(), 0.0);
    }
}
