//! Squish patterns: topology + geometry vectors.

use crate::{Packed, Topology};
use cp_geom::{Layout, Rect, ScanLines};
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

/// A full squish pattern: binary topology matrix `T` plus the Δx/Δy
/// interval vectors that restore physical geometry.
///
/// Invariants (enforced at construction, and by the reader when the
/// value comes from text):
/// * `dx.len() == topology.cols()`, `dy.len() == topology.rows()`;
/// * every delta is strictly positive.
///
/// # Example
///
/// ```
/// use cp_geom::{Layout, Rect};
/// use cp_squish::SquishPattern;
/// let mut layout = Layout::new(Rect::new(0, 0, 100, 80));
/// layout.push(Rect::new(10, 10, 60, 40));
/// let sq = SquishPattern::from_layout(&layout);
/// assert_eq!(sq.physical_width(), 100);
/// assert_eq!(sq.physical_height(), 80);
/// assert_eq!(sq.to_layout().union_area(), 50 * 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SquishPattern {
    topology: Topology,
    dx: Vec<i64>,
    dy: Vec<i64>,
}

impl Serialize for Packed<'_, SquishPattern> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.map_begin();
        s.map_key("dx");
        self.0.dx.serialize(s);
        s.map_key("dy");
        self.0.dy.serialize(s);
        s.map_key("topology");
        Packed(&self.0.topology).serialize(s);
        s.map_end();
    }
}

/// The fields as text spells them, before they are held against each
/// other.
#[derive(Deserialize)]
struct SquishPatternText {
    topology: Topology,
    dx: Vec<i64>,
    dy: Vec<i64>,
}

impl Deserialize for SquishPattern {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<SquishPattern, Error> {
        let SquishPatternText { topology, dx, dy } = SquishPatternText::deserialize(d)?;
        let refuse = |what: &str| Err(Error::custom(format!("squish pattern: {what}")));
        if dx.len() != topology.cols() {
            return refuse("dx is not cols long");
        }
        if dy.len() != topology.rows() {
            return refuse("dy is not rows long");
        }
        if dx.iter().chain(&dy).any(|&delta| delta <= 0) {
            return refuse("a delta is not positive");
        }
        Ok(SquishPattern { topology, dx, dy })
    }
}

impl SquishPattern {
    /// Assembles a squish pattern from parts.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths do not match the topology shape or any
    /// delta is non-positive.
    #[must_use]
    pub fn new(topology: Topology, dx: Vec<i64>, dy: Vec<i64>) -> SquishPattern {
        assert_eq!(dx.len(), topology.cols(), "dx length must equal cols");
        assert_eq!(dy.len(), topology.rows(), "dy length must equal rows");
        assert!(
            dx.iter().chain(dy.iter()).all(|&d| d > 0),
            "deltas must be strictly positive"
        );
        SquishPattern { topology, dx, dy }
    }

    /// Encodes a layout into its (minimal) squish pattern: scan lines at
    /// every shape edge plus the frame borders.
    #[must_use]
    pub fn from_layout(layout: &Layout) -> SquishPattern {
        let scan = ScanLines::from_layout(layout);
        let rows = scan.rows();
        let cols = scan.cols();
        // Fill cells by rect stabbing on the scan grid: every rect covers
        // a contiguous block of whole cells.
        let mut topology = Topology::filled(rows, cols, false);
        for r in layout.rects() {
            let c0 = scan.x_interval_of(r.x0()).expect("edge inside frame");
            let r0 = scan.y_interval_of(r.y0()).expect("edge inside frame");
            // x1/y1 are exclusive: the covered cells end at the interval
            // that starts at x1 (i.e. the previous interval index + 1).
            let c1 = match scan.x_interval_of(r.x1()) {
                Some(i) => i,
                None => cols, // r.x1 == frame right edge
            };
            let r1 = match scan.y_interval_of(r.y1()) {
                Some(i) => i,
                None => rows,
            };
            topology.fill_block(r0, r1, c0, c1, true);
        }
        SquishPattern {
            topology,
            dx: scan.x_intervals(),
            dy: scan.y_intervals(),
        }
    }

    /// The topology matrix.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Δx interval vector (one entry per column).
    #[must_use]
    pub fn dx(&self) -> &[i64] {
        &self.dx
    }

    /// Δy interval vector (one entry per row).
    #[must_use]
    pub fn dy(&self) -> &[i64] {
        &self.dy
    }

    /// Physical width in nanometres (sum of Δx).
    #[must_use]
    pub fn physical_width(&self) -> i64 {
        self.dx.iter().sum()
    }

    /// Physical height in nanometres (sum of Δy).
    #[must_use]
    pub fn physical_height(&self) -> i64 {
        self.dy.iter().sum()
    }

    /// X coordinates of the scan lines (prefix sums of Δx, starting at 0).
    #[must_use]
    pub fn x_lines(&self) -> Vec<i64> {
        prefix_sums(&self.dx)
    }

    /// Y coordinates of the scan lines (prefix sums of Δy, starting at 0).
    #[must_use]
    pub fn y_lines(&self) -> Vec<i64> {
        prefix_sums(&self.dy)
    }

    /// Decodes the squish pattern back into a physical layout.
    ///
    /// Set cells are merged into maximal horizontal-then-vertical
    /// rectangles (greedy row-major cover), so the produced rectangles do
    /// not overlap.
    #[must_use]
    pub fn to_layout(&self) -> Layout {
        let xs = self.x_lines();
        let ys = self.y_lines();
        let rows = self.topology.rows();
        let cols = self.topology.cols();
        let mut covered = vec![false; rows * cols];
        let mut layout = Layout::new(Rect::new(
            0,
            0,
            self.physical_width(),
            self.physical_height(),
        ));
        for r in 0..rows {
            for c in 0..cols {
                if covered[r * cols + c] || !self.topology.get(r, c) {
                    continue;
                }
                // Extend right.
                let mut c_end = c;
                while c_end + 1 < cols
                    && self.topology.get(r, c_end + 1)
                    && !covered[r * cols + c_end + 1]
                {
                    c_end += 1;
                }
                // Extend down while the whole strip is set and uncovered.
                let mut r_end = r;
                'down: while r_end + 1 < rows {
                    for cc in c..=c_end {
                        if !self.topology.get(r_end + 1, cc) || covered[(r_end + 1) * cols + cc] {
                            break 'down;
                        }
                    }
                    r_end += 1;
                }
                for rr in r..=r_end {
                    for cc in c..=c_end {
                        covered[rr * cols + cc] = true;
                    }
                }
                layout.push(Rect::new(xs[c], ys[r], xs[c_end + 1], ys[r_end + 1]));
            }
        }
        layout
    }

    /// Physical area of the drawn cells in nm² (without polygon merging).
    #[must_use]
    pub fn drawn_area(&self) -> i64 {
        let mut area = 0;
        for (r, c, set) in self.topology.iter() {
            if set {
                area += self.dx[c] * self.dy[r];
            }
        }
        area
    }

    /// Re-squishes to the *minimal* representation: merges adjacent equal
    /// columns/rows, summing their deltas. The physical geometry is
    /// unchanged; the matrix shrinks to one column per distinct interval.
    #[must_use]
    pub fn minimized(&self) -> SquishPattern {
        let t = &self.topology;
        // Column groups.
        let mut col_keep: Vec<usize> = vec![0];
        for c in 1..t.cols() {
            if !t.cols_equal(c - 1, c) {
                col_keep.push(c);
            }
        }
        let mut row_keep: Vec<usize> = vec![0];
        for r in 1..t.rows() {
            if !t.rows_equal(r - 1, r) {
                row_keep.push(r);
            }
        }
        let mut dx = vec![0i64; col_keep.len()];
        {
            let mut g = 0usize;
            for c in 0..t.cols() {
                if g + 1 < col_keep.len() && c == col_keep[g + 1] {
                    g += 1;
                }
                dx[g] += self.dx[c];
            }
        }
        let mut dy = vec![0i64; row_keep.len()];
        {
            let mut g = 0usize;
            for r in 0..t.rows() {
                if g + 1 < row_keep.len() && r == row_keep[g + 1] {
                    g += 1;
                }
                dy[g] += self.dy[r];
            }
        }
        let topo = Topology::from_fn(row_keep.len(), col_keep.len(), |r, c| {
            t.get(row_keep[r], col_keep[c])
        });
        SquishPattern::new(topo, dx, dy)
    }
}

fn prefix_sums(deltas: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(deltas.len() + 1);
    let mut acc = 0;
    out.push(0);
    for &d in deltas {
        acc += d;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 200, 120));
        l.push(Rect::new(20, 20, 80, 50));
        l.push(Rect::new(120, 20, 180, 50));
        l.push(Rect::new(20, 80, 180, 100));
        l
    }

    #[test]
    fn squish_produces_expected_grid() {
        let sq = SquishPattern::from_layout(&sample_layout());
        // xs: 0,20,80,120,180,200 → 5 cols; ys: 0,20,50,80,100,120 → 5 rows
        assert_eq!(sq.topology().shape(), (5, 5));
        assert_eq!(sq.dx(), &[20, 60, 40, 60, 20]);
        assert_eq!(sq.dy(), &[20, 30, 30, 20, 20]);
        assert!(sq.topology().get(1, 1)); // first island
        assert!(!sq.topology().get(1, 2)); // the gap between islands
        assert!(sq.topology().get(3, 1) && sq.topology().get(3, 2) && sq.topology().get(3, 3));
    }

    #[test]
    fn round_trip_preserves_union_area() {
        let layout = sample_layout();
        let sq = SquishPattern::from_layout(&layout);
        let back = sq.to_layout();
        assert_eq!(back.union_area(), layout.union_area());
        assert_eq!(back.frame(), layout.frame());
    }

    #[test]
    fn to_layout_rects_do_not_overlap() {
        let sq = SquishPattern::from_layout(&sample_layout());
        let rects = sq.to_layout();
        let rs = rects.rects();
        for i in 0..rs.len() {
            for j in i + 1..rs.len() {
                assert!(!rs[i].intersects(&rs[j]), "{} overlaps {}", rs[i], rs[j]);
            }
        }
    }

    #[test]
    fn overlapping_input_rects_merge() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 40));
        l.push(Rect::new(0, 10, 60, 30));
        l.push(Rect::new(40, 10, 100, 30));
        let sq = SquishPattern::from_layout(&l);
        assert_eq!(sq.to_layout().union_area(), 100 * 20);
    }

    #[test]
    fn drawn_area_matches_union_for_nonoverlapping() {
        let sq = SquishPattern::from_layout(&sample_layout());
        assert_eq!(sq.drawn_area(), sample_layout().union_area());
    }

    #[test]
    fn minimized_merges_duplicate_columns() {
        let t = Topology::from_ascii(
            "##.
             ##.",
        );
        let sq = SquishPattern::new(t, vec![10, 10, 5], vec![4, 6]);
        let min = sq.minimized();
        assert_eq!(min.topology().shape(), (1, 2));
        assert_eq!(min.dx(), &[20, 5]);
        assert_eq!(min.dy(), &[10]);
        assert_eq!(min.drawn_area(), sq.drawn_area());
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_delta_rejected() {
        let t = Topology::filled(1, 2, true);
        let _ = SquishPattern::new(t, vec![5, 0], vec![3]);
    }

    /// What `new` asserts, the reader refuses: text is not a caller.
    #[test]
    fn the_reader_holds_the_deltas_against_the_topology() {
        let text = |dx: &str, dy: &str| {
            format!(r#"{{"dx":[{dx}],"dy":[{dy}],"topology":{{"rows":1,"cols":2,"packed":"c"}}}}"#)
        };
        for (text, why) in [
            (text("5", "3"), "dx is not cols long"),
            (text("5,5", "3,3"), "dy is not rows long"),
            (text("5,0", "3"), "a delta is not positive"),
            (text("5,5", "-3"), "a delta is not positive"),
        ] {
            let refusal = serde_json::from_str::<SquishPattern>(&text).expect_err(&text);
            assert!(refusal.to_string().contains(why), "{text}: {refusal}");
        }
        let sound = SquishPattern::new(Topology::filled(1, 2, true), vec![5, 5], vec![3]);
        assert_eq!(
            serde_json::from_str::<SquishPattern>(&text("5,5", "3")).expect("reads"),
            sound
        );
        assert_eq!(
            serde_json::to_string(&Packed(&sound)).expect("serializes"),
            text("5,5", "3").replace(
                r#""rows":1,"cols":2,"packed":"c""#,
                r#""cols":2,"packed":"c","rows":1"#
            )
        );
    }

    #[test]
    fn full_frame_shape() {
        let mut l = Layout::new(Rect::new(0, 0, 64, 64));
        l.push(Rect::new(0, 0, 64, 64));
        let sq = SquishPattern::from_layout(&l);
        assert_eq!(sq.topology().shape(), (1, 1));
        assert!(sq.topology().get(0, 0));
        assert_eq!(sq.dx(), &[64]);
    }

    #[test]
    fn empty_layout_squishes_to_single_empty_cell() {
        let l = Layout::new(Rect::new(0, 0, 64, 32));
        let sq = SquishPattern::from_layout(&l);
        assert_eq!(sq.topology().shape(), (1, 1));
        assert!(!sq.topology().get(0, 0));
        assert_eq!(sq.physical_width(), 64);
        assert_eq!(sq.physical_height(), 32);
    }
}
