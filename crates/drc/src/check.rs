//! The DRC engine.

use crate::{DesignRules, Violation, ViolationKind};
use cp_geom::{label_components, Axis, Rect};
use cp_squish::{Region, SquishPattern};

/// Result of checking one pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrcReport {
    violations: Vec<Violation>,
}

impl DrcReport {
    /// All recorded violations.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no rule is violated (the pattern is *legal*).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a squish pattern against the design rules.
///
/// The pattern is checked in its *minimal* grid (adjacent equal
/// rows/columns merged) so that run boundaries coincide with real shape
/// edges regardless of normalization padding.
#[must_use]
pub fn check_pattern(pattern: &SquishPattern, rules: &DesignRules) -> DrcReport {
    let min = pattern.minimized();
    let t = min.topology();
    let xs = min.x_lines();
    let ys = min.y_lines();
    let mut violations = Vec::new();

    // Row-wise width and space slices (along x).
    for row in 0..t.rows() {
        scan_line_slices(
            (0..t.cols()).map(|c| t.get(row, c)),
            &xs,
            rules.min_width(),
            rules.min_space(),
            |start, end, kind, measured, required| {
                violations.push(Violation {
                    kind,
                    axis: Some(Axis::X),
                    measured,
                    required,
                    location: Rect::new(xs[start], ys[row], xs[end + 1], ys[row + 1]),
                    region: Region::new(row, start, row + 1, end + 1),
                });
            },
        );
    }

    // Column-wise width and space slices (along y).
    for col in 0..t.cols() {
        scan_line_slices(
            (0..t.rows()).map(|r| t.get(r, col)),
            &ys,
            rules.min_width(),
            rules.min_space(),
            |start, end, kind, measured, required| {
                violations.push(Violation {
                    kind,
                    axis: Some(Axis::Y),
                    measured,
                    required,
                    location: Rect::new(xs[col], ys[start], xs[col + 1], ys[end + 1]),
                    region: Region::new(start, col, end + 1, col + 1),
                });
            },
        );
    }

    // Polygon areas over 4-connected components, a row run at a time.
    let labels = label_components(t.rows(), t.cols(), t.as_bytes());
    let dy = min.dy();
    for id in 0..labels.count() {
        let area: i64 = labels
            .runs_of(id)
            .iter()
            .map(|run| dy[run.row] * (xs[run.end] - xs[run.start]))
            .sum();
        if area < rules.min_area() {
            let (r0, c0, r1, c1) = labels.bbox_of(id).expect("a component has cells");
            violations.push(Violation {
                kind: ViolationKind::Area,
                axis: None,
                measured: area,
                required: rules.min_area(),
                location: Rect::new(xs[c0], ys[r0], xs[c1 + 1], ys[r1 + 1]),
                region: Region::new(r0, c0, r1 + 1, c1 + 1),
            });
        }
    }

    DrcReport { violations }
}

/// Walks one scan line, reporting too-narrow drawn runs (width) and
/// too-narrow empty runs strictly between drawn cells (space).
///
/// `lines` are the physical scan-line coordinates for this axis, so run
/// `[a, b]` spans `lines[b + 1] - lines[a]` nanometres.
fn scan_line_slices(
    cells: impl Iterator<Item = bool>,
    lines: &[i64],
    min_width: i64,
    min_space: i64,
    mut report: impl FnMut(usize, usize, ViolationKind, i64, i64),
) {
    let values: Vec<bool> = cells.collect();
    let n = values.len();
    let mut i = 0;
    while i < n {
        let v = values[i];
        let start = i;
        while i < n && values[i] == v {
            i += 1;
        }
        let end = i - 1;
        let span = lines[end + 1] - lines[start];
        if v {
            if span < min_width {
                report(start, end, ViolationKind::Width, span, min_width);
            }
        } else {
            // Interior empty run only: both sides must be drawn.
            let interior = start > 0 && i < n;
            if interior && span < min_space {
                report(start, end, ViolationKind::Space, span, min_space);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_squish::{SquishPattern, Topology};

    fn rules() -> DesignRules {
        DesignRules::new(20, 20, 400)
    }

    fn pattern(art: &str, dx: Vec<i64>, dy: Vec<i64>) -> SquishPattern {
        SquishPattern::new(Topology::from_ascii(art), dx, dy)
    }

    fn count_of(report: &DrcReport, kind: ViolationKind) -> usize {
        report
            .violations()
            .iter()
            .filter(|v| v.kind == kind)
            .count()
    }

    #[test]
    fn clean_single_shape() {
        let sq = pattern("1..", vec![30, 10, 10], vec![30]);
        let report = check_pattern(&sq, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }

    #[test]
    fn narrow_width_flagged() {
        // 10 nm wide, 50 nm tall bar: x width violation + fine y width.
        let sq = pattern(
            "1.
             1.",
            vec![10, 40],
            vec![25, 25],
        );
        let report = check_pattern(&sq, &rules());
        assert_eq!(count_of(&report, ViolationKind::Width), 1);
        let v = report.violations()[0];
        assert_eq!(v.axis, Some(Axis::X));
        assert_eq!(v.measured, 10);
    }

    #[test]
    fn narrow_space_flagged() {
        // Two 30 nm bars separated by 10 nm.
        let sq = pattern("1.1", vec![30, 10, 30], vec![30]);
        let report = check_pattern(&sq, &rules());
        assert_eq!(count_of(&report, ViolationKind::Space), 1);
        assert_eq!(report.violations()[0].measured, 10);
        // Area of each 30x30=900 >= 400, widths fine.
        assert_eq!(report.violations().len(), 1);
    }

    #[test]
    fn border_gap_is_not_space_violation() {
        // Empty run touching the pattern border is not an internal space.
        let sq = pattern(".1.", vec![5, 30, 5], vec![30]);
        let report = check_pattern(&sq, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }

    #[test]
    fn small_area_flagged() {
        // 15x20 = 300 nm² < 400 but width along y is 20 (ok) and x is 15 (<20).
        let sq = pattern("1", vec![15], vec![20]);
        let report = check_pattern(&sq, &rules());
        assert_eq!(count_of(&report, ViolationKind::Area), 1);
        assert_eq!(count_of(&report, ViolationKind::Width), 1);
    }

    #[test]
    fn l_shape_area_is_summed_over_component() {
        // L-shape: vertical 20x40 plus horizontal 40x20 sharing a 20x20
        // corner → area = 20*40 + 40*20 - 20*20 = 1200.
        let sq = pattern(
            "1.
             11",
            vec![20, 20],
            vec![20, 20],
        );
        let report = check_pattern(&sq, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }

    #[test]
    fn diagonal_components_checked_separately() {
        // Two 20x20 squares touching only at a corner: each 400 nm² area
        // (legal), diagonal spacing intentionally unchecked.
        let sq = pattern(
            "1.
             .1",
            vec![20, 20],
            vec![20, 20],
        );
        let report = check_pattern(&sq, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }

    #[test]
    fn normalized_padding_does_not_create_false_width_violations() {
        // A 40 nm bar split into two 20 nm grid columns by normalization
        // is still one 40 nm shape after minimization.
        let sq = pattern("11", vec![20, 20], vec![40]);
        let report = check_pattern(&sq, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }
}
