//! The per-axis difference-constraint solver and area repair loop.

use crate::drc::DesignRules;
use crate::geom::{label_components, line_edges, Axis, CellRun, ComponentLabels};
use crate::legalize::{FailureKind, LegalizeFailure};
use crate::squish::{Region, SquishPattern, Topology};
use crate::stage::{self, Stage};
use rand::Rng;

/// Most area-repair passes one call makes. A pass only ever adds slack,
/// so the loop converges or runs dry long before this: 40 of the model's
/// 128 × 128 samples take 1.95 passes a call on average, and 512 × 512
/// extensions 1.75.
const AREA_REPAIR_PASSES: usize = 64;

/// Minimal solution of one axis, kept for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSolution {
    /// Minimal delta per interval (satisfies every width/space bound).
    pub minimal: Vec<i64>,
    /// Sum of the minimal deltas.
    pub total: i64,
}

/// One width/space lower bound over an inclusive interval of deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IntervalBound {
    start: usize,
    end: usize,
    bound: i64,
    /// Exemplar perpendicular index (a row for x constraints) used for
    /// failure-region reporting.
    witness: usize,
}

/// Topology legalizer: assigns geometry vectors satisfying a rule set.
///
/// See the crate docs for the algorithm; construct one per rule set and
/// reuse it across patterns (it is cheap and `Copy`-free but stateless).
#[derive(Debug, Clone)]
pub struct Legalizer {
    rules: DesignRules,
}

impl Legalizer {
    /// Creates a legalizer for the given design rules.
    #[must_use]
    pub fn new(rules: DesignRules) -> Legalizer {
        Legalizer { rules }
    }

    /// The rule set this legalizer enforces.
    #[cfg(test)]
    pub(crate) fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Legalizes `topology` into a `width × height` nm squish pattern.
    ///
    /// # Errors
    ///
    /// Returns an explainable [`LegalizeFailure`] when the topology is too
    /// complex for the frame (infeasible width/space constraints) or a
    /// polygon cannot reach the minimum area.
    pub fn legalize(
        &self,
        topology: &Topology,
        width: i64,
        height: i64,
        rng: &mut impl Rng,
    ) -> Result<SquishPattern, LegalizeFailure> {
        let _scope = stage::scope(Stage::Bounds);
        let x = self.solve_axis(topology, Axis::X, width)?;
        let y = self.solve_axis(topology, Axis::Y, height)?;
        // Reserve area-repair budget from the slack first (minting shares
        // for deficient polygons), then scatter the remainder randomly —
        // random additions can only grow polygons, never break the repair.
        let mut dx_share = vec![0i64; x.minimal.len()];
        let mut dy_share = vec![0i64; y.minimal.len()];
        let mut slack_x = width - x.total;
        let mut slack_y = height - y.total;
        self.repair_areas(
            topology,
            &x.minimal,
            &mut dx_share,
            &y.minimal,
            &mut dy_share,
            &mut slack_x,
            &mut slack_y,
        )?;
        stage::enter(Stage::Slack);
        for (share, extra) in
            dx_share
                .iter_mut()
                .zip(distribute_slack(slack_x, x.minimal.len(), rng))
        {
            *share += extra;
        }
        for (share, extra) in
            dy_share
                .iter_mut()
                .zip(distribute_slack(slack_y, y.minimal.len(), rng))
        {
            *share += extra;
        }
        let dx: Vec<i64> = x
            .minimal
            .iter()
            .zip(&dx_share)
            .map(|(m, s)| m + s)
            .collect();
        let dy: Vec<i64> = y
            .minimal
            .iter()
            .zip(&dy_share)
            .map(|(m, s)| m + s)
            .collect();
        stage::enter(Stage::SquishEncode);
        Ok(SquishPattern::new(topology.clone(), dx, dy))
    }

    /// Computes the minimal deltas of one axis, or the infeasibility proof.
    ///
    /// # Errors
    ///
    /// Returns [`FailureKind::Infeasible`] with the binding-chain region
    /// when the minimal extent exceeds `target`.
    pub fn solve_axis(
        &self,
        topology: &Topology,
        axis: Axis,
        target: i64,
    ) -> Result<AxisSolution, LegalizeFailure> {
        stage::enter(Stage::Bounds);
        let bounds = self.collect_bounds(topology, axis);
        stage::enter(Stage::Sweep);
        let n = match axis {
            Axis::X => topology.cols(),
            Axis::Y => topology.rows(),
        };
        // Minimal prefix sums with provenance for the binding chain;
        // the bounds arrive grouped by end, so one cursor walks them.
        let mut s = vec![0i64; n + 1];
        let mut binding: Vec<Option<IntervalBound>> = vec![None; n + 1];
        let mut next = 0;
        for j in 1..=n {
            s[j] = s[j - 1] + 1; // every delta is at least 1 nm
            while let Some(&b) = bounds.get(next).filter(|b| b.end + 1 == j) {
                next += 1;
                let candidate = s[b.start] + b.bound;
                if candidate > s[j] {
                    s[j] = candidate;
                    binding[j] = Some(b);
                }
            }
        }
        if s[n] > target {
            // Walk the binding chain back from the end, pick the largest
            // single bound as the reported unreasonable region.
            let mut j = n;
            let mut worst: Option<IntervalBound> = None;
            while j > 0 {
                match binding[j] {
                    Some(b) => {
                        if worst.is_none_or(|w| b.bound > w.bound) {
                            worst = Some(b);
                        }
                        j = b.start;
                    }
                    None => j -= 1,
                }
            }
            let region = match (worst, axis) {
                (Some(b), Axis::X) => Region::new(b.witness, b.start, b.witness + 1, b.end + 1),
                (Some(b), Axis::Y) => Region::new(b.start, b.witness, b.end + 1, b.witness + 1),
                (None, _) => Region::full(topology.rows(), topology.cols()),
            };
            return Err(LegalizeFailure {
                kind: FailureKind::Infeasible { axis },
                region,
                needed: s[n],
                available: target,
                log: format!(
                    "axis {axis}: minimal extent {} nm exceeds frame {} nm; \
                     binding region {region} (bound {} nm)",
                    s[n],
                    target,
                    worst.map_or(0, |b| b.bound),
                ),
            });
        }
        let minimal: Vec<i64> = (0..n).map(|j| s[j + 1] - s[j]).collect();
        let total = s[n];
        Ok(AxisSolution { minimal, total })
    }

    /// Gathers deduplicated width/space interval bounds along `axis`,
    /// in ascending `end` order and ascending `start` within one end —
    /// the order `solve_axis` visits them in.
    ///
    /// Each line across `axis` (a row for X, a column for Y, read from
    /// one transposed copy) is a contiguous byte slice whose
    /// [`line_edges`] give its runs: a drawn run carries the width rule,
    /// an empty run with drawn cells on both sides the space rule. A line
    /// equal to the one before it is skipped: it has the same runs, and a
    /// later witness never displaces an equal bound. Two stable counting
    /// sorts, by start and then by end, bring the raw runs of one
    /// `(start, end)` key together in scan order, and the merge keeps the
    /// first witness unless a later run carries a strictly greater bound.
    /// Determinism matters here: the bound order and the witness choice
    /// on ties decide the binding chain a failure reports, so the output
    /// must stay a pure function of the topology.
    fn collect_bounds(&self, topology: &Topology, axis: Axis) -> Vec<IntervalBound> {
        let (rows, cols) = topology.shape();
        let transposed;
        let (cells, len) = match axis {
            Axis::X => (topology.as_bytes(), cols),
            Axis::Y => {
                transposed = transpose(topology.as_bytes(), rows, cols);
                (transposed.as_slice(), rows)
            }
        };
        let mut raw: Vec<IntervalBound> = Vec::new();
        let mut edges = Vec::new();
        let mut previous: &[u8] = &[];
        for (witness, line) in cells.chunks_exact(len.max(1)).enumerate() {
            if line == previous {
                continue;
            }
            previous = line;
            edges.clear();
            line_edges(line, &mut edges);
            // Edges alternate on, off, on, …: a drawn run from each `on`
            // to the next `off`, an interior gap from each `off` to the
            // next `on`.
            for (k, pair) in edges.windows(2).enumerate() {
                raw.push(IntervalBound {
                    start: pair[0],
                    end: pair[1] - 1,
                    bound: if k % 2 == 0 {
                        self.rules.min_width()
                    } else {
                        self.rules.min_space()
                    },
                    witness,
                });
            }
        }
        let raw = counting_sort(&raw, len, |b| b.start);
        let raw = counting_sort(&raw, len, |b| b.end);
        let mut bounds: Vec<IntervalBound> = Vec::with_capacity(raw.len());
        for b in raw {
            match bounds.last_mut() {
                Some(e) if e.start == b.start && e.end == b.end => {
                    if b.bound > e.bound {
                        e.bound = b.bound;
                        e.witness = b.witness;
                    }
                }
                _ => bounds.push(b),
            }
        }
        bounds
    }

    /// Mints slack into polygons below the minimum area.
    ///
    /// Growth is taken from the per-axis slack budget (`slack_x`,
    /// `slack_y`), which only ever *adds* width/height to columns/rows of
    /// deficient components — monotone, so a few passes converge or prove
    /// the budget insufficient.
    #[allow(clippy::too_many_arguments)]
    fn repair_areas(
        &self,
        topology: &Topology,
        dx_min: &[i64],
        dx_share: &mut [i64],
        dy_min: &[i64],
        dy_share: &mut [i64],
        slack_x: &mut i64,
        slack_y: &mut i64,
    ) -> Result<(), LegalizeFailure> {
        stage::enter(Stage::Labels);
        let labels = label_components(topology.rows(), topology.cols(), topology.as_bytes());
        stage::enter(Stage::AreaRepair);
        if labels.count() == 0 {
            return Ok(());
        }
        let min_area = self.rules.min_area();
        // Everything a pass needs is allocated once and reused, so the
        // repair loop itself runs allocation-free.
        let mut geometry = Geometry {
            dx: vec![0; dx_min.len()],
            dy: vec![0; dy_min.len()],
            x_lines: vec![0; dx_min.len() + 1],
            areas: vec![0; labels.count() as usize],
        };
        let mut col_height = vec![0i64; dx_min.len()];
        let mut row_width = vec![0i64; dy_min.len()];
        let mut deficient: Vec<u32> = Vec::new();
        for _pass in 0..AREA_REPAIR_PASSES {
            geometry.measure(&labels, dx_min, dx_share, dy_min, dy_share);
            let areas = &geometry.areas;
            deficient.clear();
            deficient.extend((0..labels.count()).filter(|&id| areas[id as usize] < min_area));
            if deficient.is_empty() {
                return Ok(());
            }
            let mut minted = false;
            for &id in &deficient {
                let deficit = min_area - areas[id as usize];
                // Column heights and row widths over the component's
                // bounding box. Zero marks a column or row it does not
                // reach, since every live delta is at least 1 nm, and the
                // ascending last-max scan reproduces the old BTreeMap
                // tie-break exactly (ties pick the largest index).
                let (r0, c0, r1, c1) = labels.bbox_of(id).expect("a component has cells");
                col_height[c0..=c1].fill(0);
                row_width[r0..=r1].fill(0);
                for run in labels.runs_of(id) {
                    let height = geometry.dy[run.row];
                    for h in &mut col_height[run.start..run.end] {
                        *h += height;
                    }
                    row_width[run.row] += geometry.run_width(run);
                }
                let (col, height) = last_max(&col_height[c0..=c1]).expect("component has cells");
                let need_cols = (deficit + height - 1) / height;
                let take_x = need_cols.min(*slack_x);
                dx_share[c0 + col] += take_x;
                *slack_x -= take_x;
                minted |= take_x > 0;
                if take_x < need_cols {
                    // X budget dry: grow the widest row from the Y budget.
                    let (row, width) = last_max(&row_width[r0..=r1]).expect("component has cells");
                    let residual = (need_cols - take_x) * height;
                    let need_rows = (residual + width - 1) / width;
                    let take_y = need_rows.min(*slack_y);
                    dy_share[r0 + row] += take_y;
                    *slack_y -= take_y;
                    minted |= take_y > 0;
                }
            }
            if !minted {
                let worst = *deficient
                    .iter()
                    .min_by_key(|&&id| areas[id as usize])
                    .expect("non-empty");
                let area = areas[worst as usize];
                return Err(self.area_failure(
                    &labels,
                    worst,
                    area,
                    format!(
                        "component {worst} area {area} nm\u{b2} < minimum {min_area} nm\u{b2} \
                         and the slack budget is exhausted"
                    ),
                ));
            }
        }
        // Final verification after the last pass.
        geometry.measure(&labels, dx_min, dx_share, dy_min, dy_share);
        if let Some((worst, &area)) = geometry
            .areas
            .iter()
            .enumerate()
            .filter(|(_, &a)| a < min_area)
            .min_by_key(|(_, &a)| a)
        {
            return Err(self.area_failure(
                &labels,
                worst as u32,
                area,
                format!("area repair did not converge for component {worst}"),
            ));
        }
        Ok(())
    }

    /// The failure naming component `id`'s bounding box.
    fn area_failure(
        &self,
        labels: &ComponentLabels,
        id: u32,
        area: i64,
        log: String,
    ) -> LegalizeFailure {
        let (r0, c0, r1, c1) = labels.bbox_of(id).expect("a component has cells");
        LegalizeFailure {
            kind: FailureKind::AreaUnsatisfiable,
            region: Region::new(r0, c0, r1 + 1, c1 + 1),
            needed: self.rules.min_area(),
            available: area,
            log,
        }
    }
}

/// What an area-repair pass reads: the effective deltas (minimal plus
/// share), the x scan lines and every component's area.
struct Geometry {
    dx: Vec<i64>,
    dy: Vec<i64>,
    x_lines: Vec<i64>,
    areas: Vec<i64>,
}

impl Geometry {
    fn measure(
        &mut self,
        labels: &ComponentLabels,
        dx_min: &[i64],
        dx_share: &[i64],
        dy_min: &[i64],
        dy_share: &[i64],
    ) {
        for ((d, m), s) in self.dx.iter_mut().zip(dx_min).zip(dx_share) {
            *d = m + s;
        }
        for ((d, m), s) in self.dy.iter_mut().zip(dy_min).zip(dy_share) {
            *d = m + s;
        }
        for (c, d) in self.dx.iter().enumerate() {
            self.x_lines[c + 1] = self.x_lines[c] + d;
        }
        for (id, area) in self.areas.iter_mut().enumerate() {
            *area = labels
                .runs_of(id as u32)
                .iter()
                .map(|run| self.dy[run.row] * (self.x_lines[run.end] - self.x_lines[run.start]))
                .sum();
        }
    }

    fn run_width(&self, run: &CellRun) -> i64 {
        self.x_lines[run.end] - self.x_lines[run.start]
    }
}

/// `cells` (`rows × cols`, row-major) with rows and columns swapped:
/// 8 × 8 blocks as eight words, the ragged strips a cell at a time.
fn transpose(cells: &[u8], rows: usize, cols: usize) -> Vec<u8> {
    let mut out = vec![0u8; cells.len()];
    let (rows8, cols8) = (rows - rows % 8, cols - cols % 8);
    for r0 in (0..rows8).step_by(8) {
        for c0 in (0..cols8).step_by(8) {
            let mut block = [0u64; 8];
            for (i, word) in block.iter_mut().enumerate() {
                let at = (r0 + i) * cols + c0;
                *word = u64::from_le_bytes(cells[at..at + 8].try_into().expect("8 bytes"));
            }
            transpose_block(&mut block);
            for (i, word) in block.iter().enumerate() {
                let at = (c0 + i) * rows + r0;
                out[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
        }
    }
    for r in 0..rows {
        for c in cols8..cols {
            out[c * rows + r] = cells[r * cols + c];
        }
    }
    for r in rows8..rows {
        for c in 0..cols8 {
            out[c * rows + r] = cells[r * cols + c];
        }
    }
    out
}

/// Transposes an 8 × 8 byte block held as eight little-endian words
/// (byte `k` of word `i` is cell `(i, k)`): swaps the off-diagonal
/// 1 × 1, then 2 × 2, then 4 × 4 sub-blocks.
fn transpose_block(block: &mut [u64; 8]) {
    for (shift, mask, pairs) in [
        (
            8,
            0x00ff_00ff_00ff_00ff_u64,
            [(0, 1), (2, 3), (4, 5), (6, 7)],
        ),
        (16, 0x0000_ffff_0000_ffff, [(0, 2), (1, 3), (4, 6), (5, 7)]),
        (32, 0x0000_0000_ffff_ffff, [(0, 4), (1, 5), (2, 6), (3, 7)]),
    ] {
        for (i, j) in pairs {
            let t = ((block[i] >> shift) ^ block[j]) & mask;
            block[j] ^= t;
            block[i] ^= t << shift;
        }
    }
}

/// `items` stably sorted by `key`, every key below `keys`.
fn counting_sort(
    items: &[IntervalBound],
    keys: usize,
    key: impl Fn(&IntervalBound) -> usize,
) -> Vec<IntervalBound> {
    let Some(&first) = items.first() else {
        return Vec::new();
    };
    let mut next = vec![0usize; keys + 1];
    for item in items {
        next[key(item) + 1] += 1;
    }
    for k in 1..=keys {
        next[k] += next[k - 1];
    }
    let mut sorted = vec![first; items.len()];
    for item in items {
        let slot = &mut next[key(item)];
        sorted[*slot] = *item;
        *slot += 1;
    }
    sorted
}

/// Index and value of the last maximum positive entry (ascending scan,
/// ties keep the larger index — the same choice a BTreeMap keyed by
/// index feeds `max_by_key`). `None` when every entry is zero.
fn last_max(values: &[i64]) -> Option<(usize, i64)> {
    let mut best: Option<(usize, i64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v > 0 && best.is_none_or(|(_, b)| v >= b) {
            best = Some((i, v));
        }
    }
    best
}

/// Randomly splits `slack` nanometres over `n` intervals (non-negative
/// integer shares summing to exactly `slack`).
fn distribute_slack(slack: i64, n: usize, rng: &mut impl Rng) -> Vec<i64> {
    assert!(slack >= 0, "negative slack reached distribution");
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-9).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| (w / total) * slack as f64).collect();
    let mut shares: Vec<i64> = exact.iter().map(|e| e.floor() as i64).collect();
    let fractions: Vec<f64> = exact
        .iter()
        .zip(&shares)
        .map(|(e, &s)| e - s as f64)
        .collect();
    let mut assigned: i64 = shares.iter().sum();
    // Hand out the remainder one nm at a time by largest fractional part.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        fractions[b]
            .partial_cmp(&fractions[a])
            .expect("finite fractions")
    });
    let mut i = 0;
    while assigned < slack {
        shares[order[i % n]] += 1;
        assigned += 1;
        i += 1;
    }
    shares
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc::check_pattern;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    fn rules() -> DesignRules {
        DesignRules::new(20, 20, 400)
    }

    #[test]
    fn simple_topology_legalizes_clean() {
        let t = Topology::from_ascii(
            "11..
             11..
             ..11
             ..11",
        );
        let legalizer = Legalizer::new(rules());
        let sq = legalizer.legalize(&t, 300, 300, &mut rng()).expect("legal");
        assert_eq!(sq.physical_width(), 300);
        assert_eq!(sq.physical_height(), 300);
        assert!(check_pattern(&sq, &rules()).is_clean());
    }

    #[test]
    fn empty_topology_is_trivially_legal() {
        let t = Topology::filled(8, 8, false);
        let sq = Legalizer::new(rules())
            .legalize(&t, 100, 100, &mut rng())
            .expect("legal");
        assert!(check_pattern(&sq, &rules()).is_clean());
        assert_eq!(sq.physical_width(), 100);
    }

    #[test]
    fn legalization_is_deterministic_across_calls_and_threads() {
        // Regression: interval bounds and area-repair tie-breaks used
        // to flow through HashMap iteration order, which varies per map
        // instance and per thread — slack landed in different columns
        // run to run. The output must be a pure function of
        // `(topology, frame, seed)`.
        let t = Topology::from_ascii(
            "1111..
             1111..
             ..1111
             ..1111
             11..11
             11..11",
        );
        let legalizer = Legalizer::new(rules());
        let reference = legalizer.legalize(&t, 400, 400, &mut rng()).expect("legal");
        let again = legalizer.legalize(&t, 400, 400, &mut rng()).expect("legal");
        assert_eq!(again, reference, "same thread, same call order");
        let from_thread = std::thread::spawn({
            let t = t.clone();
            let legalizer = legalizer.clone();
            move || legalizer.legalize(&t, 400, 400, &mut rng()).expect("legal")
        })
        .join()
        .expect("thread runs");
        assert_eq!(from_thread, reference, "worker thread matches");
    }

    #[test]
    fn infeasible_when_frame_too_small() {
        // Alternating columns: 4 width + 3 space constraints of 20 nm each
        // over 7 intervals = 140 nm minimum, frame only 100 nm.
        let t = Topology::from_ascii("1.1.1.1");
        let err = Legalizer::new(rules())
            .legalize(&t, 100, 100, &mut rng())
            .expect_err("infeasible");
        assert!(matches!(
            err.kind,
            FailureKind::Infeasible { axis: Axis::X }
        ));
        assert!(err.needed >= 140);
        assert_eq!(err.available, 100);
        assert!(!err.log.is_empty());
    }

    #[test]
    fn failure_region_points_at_binding_constraint() {
        let t = Topology::from_ascii(
            "........
             .1.1.1..
             ........",
        );
        let err = Legalizer::new(rules())
            .legalize(&t, 80, 200, &mut rng())
            .expect_err("infeasible");
        // The witness row must be the busy row 1.
        assert_eq!(err.region.row0(), 1);
        assert!(err.region.width() >= 1);
    }

    #[test]
    fn area_repair_grows_small_polygons() {
        // Single 1-cell shape: width bounds force 20x20 = 400 nm²;
        // with min_area 900 the repair loop must stretch it.
        let strict = DesignRules::new(20, 20, 900);
        let t = Topology::from_ascii(
            "...
             .1.
             ...",
        );
        let sq = Legalizer::new(strict)
            .legalize(&t, 300, 300, &mut rng())
            .expect("repairable");
        assert!(check_pattern(&sq, &strict).is_clean());
    }

    #[test]
    fn area_failure_when_no_slack() {
        // Frame exactly the minimal solution: no slack for area repair.
        // 3 intervals, minimal = [1, 20, 1] (width bound on centre) = 22.
        let strict = DesignRules::new(20, 20, 2000);
        let t = Topology::from_ascii(
            "...
             .1.
             ...",
        );
        let err = Legalizer::new(strict)
            .legalize(&t, 22, 22, &mut rng())
            .expect_err("area unsatisfiable");
        assert_eq!(err.kind, FailureKind::AreaUnsatisfiable);
        assert_eq!(err.region, Region::new(1, 1, 2, 2));
    }

    #[test]
    fn minimal_solution_is_tight() {
        let t = Topology::from_ascii("1.1");
        let legalizer = Legalizer::new(rules());
        let sol = legalizer.solve_axis(&t, Axis::X, 1000).expect("feasible");
        assert_eq!(sol.minimal, vec![20, 20, 20]);
        assert_eq!(sol.total, 60);
    }

    #[test]
    fn dense_128_topology_legalizes_in_2048_frame() {
        // Stripes of width 4 cells with 4-cell gaps at 128 resolution:
        // 16 wires → 16*40 + 15*40 = 1240 nm minimal < 2048.
        let t = Topology::from_fn(128, 128, |_, c| (c / 4) % 2 == 0);
        let reference = DesignRules::reference();
        let sq = Legalizer::new(reference)
            .legalize(&t, 2048, 2048, &mut rng())
            .expect("legal");
        assert!(check_pattern(&sq, &reference).is_clean());
        assert_eq!(sq.physical_width(), 2048);
    }

    #[test]
    fn slack_distribution_sums_exactly() {
        let mut r = rng();
        for slack in [0i64, 1, 7, 1000] {
            for n in [1usize, 3, 17] {
                let shares = distribute_slack(slack, n, &mut r);
                assert_eq!(shares.len(), n);
                assert_eq!(shares.iter().sum::<i64>(), slack);
                assert!(shares.iter().all(|&s| s >= 0));
            }
        }
    }

    /// Random grids: every shape class the run scan has edges for.
    fn random_grids() -> Vec<Topology> {
        let mut r = ChaCha8Rng::seed_from_u64(29);
        let mut grids = Vec::new();
        for (rows, cols) in [
            (1, 1),
            (1, 9),
            (1, 70),
            (9, 1),
            (70, 1),
            (7, 13),
            (13, 7),
            (17, 65),
            (65, 17),
            (40, 40),
            (128, 128),
        ] {
            for density in [0.1, 0.3, 0.5, 0.7, 0.9] {
                grids.push(Topology::from_fn(rows, cols, |_, _| {
                    r.gen::<f64>() < density
                }));
            }
            // Blocky grids repeat lines, which the scan skips.
            let (bh, bw) = (1 + r.gen_range(0..4), 1 + r.gen_range(0..4));
            let cells: Vec<bool> = (0..rows.div_ceil(bh) * cols.div_ceil(bw))
                .map(|_| r.gen::<bool>())
                .collect();
            grids.push(Topology::from_fn(rows, cols, |y, x| {
                cells[(y / bh) * cols.div_ceil(bw) + x / bw]
            }));
            grids.push(Topology::filled(rows, cols, false));
            grids.push(Topology::filled(rows, cols, true));
        }
        grids
    }

    #[test]
    fn bounds_match_the_sort_based_scan() {
        let legalizer = Legalizer::new(DesignRules::new(20, 30, 400));
        for t in random_grids() {
            for axis in [Axis::X, Axis::Y] {
                let mut got = legalizer.collect_bounds(&t, axis);
                let ends: Vec<(usize, usize)> = got.iter().map(|b| (b.end, b.start)).collect();
                assert!(ends.is_sorted(), "{axis} bounds come grouped by end");
                got.sort_by_key(|b| (b.start, b.end));
                let want = reference::collect_bounds(legalizer.rules(), &t, axis);
                assert_eq!(got, want, "{axis} bounds of a {:?} grid", t.shape());
            }
        }
    }

    /// Asserts `legalize` returns what the reference returns, for every
    /// frame in `frames` and two seeds, and notes each outcome in `seen`.
    fn assert_legalize_matches(
        legalizer: &Legalizer,
        t: &Topology,
        frames: &[(i64, i64)],
        seen: &mut std::collections::BTreeSet<String>,
    ) {
        for &(w, h) in frames {
            for seed in [3, 4] {
                let got = legalizer.legalize(t, w, h, &mut ChaCha8Rng::seed_from_u64(seed));
                let want = reference::legalize(
                    legalizer.rules(),
                    t,
                    w,
                    h,
                    &mut ChaCha8Rng::seed_from_u64(seed),
                );
                assert_eq!(got, want, "{:?} grid in {w}x{h} nm", t.shape());
                seen.insert(got.map_or_else(|e| format!("{:?}", e.kind), |_| "legal".into()));
            }
        }
    }

    #[test]
    fn legalize_matches_the_reference_on_random_grids() {
        // Spaces wider than widths and a large minimum area, so the
        // frames below reach every outcome: legal, repaired, area
        // failure and infeasible on either axis.
        let legalizer = Legalizer::new(DesignRules::new(20, 30, 2500));
        let mut seen = std::collections::BTreeSet::new();
        for t in random_grids() {
            let (rows, cols) = (t.rows() as i64, t.cols() as i64);
            let frames = [
                (60 * cols, 60 * rows),
                (30 * cols, 45 * rows),
                (22 * cols, 22 * rows),
                (10 * cols, 60 * rows),
                (60 * cols, 10 * rows),
            ];
            assert_legalize_matches(&legalizer, &t, &frames, &mut seen);
        }
        assert_eq!(seen.len(), 4, "every outcome is reached: {seen:?}");
    }

    #[test]
    fn legalize_matches_the_reference_on_model_samples() {
        use cp_dataset::{DatasetBuilder, Style};
        use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
        let fitted: Vec<(u32, Vec<_>)> = Style::ALL
            .iter()
            .map(|&style| {
                let data = DatasetBuilder::new(style)
                    .patch_nm(2048)
                    .topology_size(128)
                    .count(4)
                    .seed(11)
                    .build();
                (style.id(), data.topologies().cloned().collect())
            })
            .collect();
        let refs: Vec<(u32, &[_])> = fitted.iter().map(|(id, t)| (*id, t.as_slice())).collect();
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(6),
            MrfDenoiser::fit(&refs, 1.0),
            128,
        );
        let legalizer = Legalizer::new(DesignRules::reference());
        let mut r = ChaCha8Rng::seed_from_u64(41);
        let mut seen = std::collections::BTreeSet::new();
        for n in [128, 512] {
            for style in Style::ALL {
                let t = model.sample(n, n, Some(style.id()), &mut r);
                // The model links this crate's library build, whose
                // `Topology` is another type than this test build's.
                let t = Topology::from_bytes(t.rows(), t.cols(), t.as_bytes().to_vec());
                // The frame the product uses, frames a little above and
                // at the minimal extents (little or no slack for area
                // repair), and one nm short of each.
                let frame = 16 * n as i64;
                let x = legalizer
                    .solve_axis(&t, Axis::X, i64::MAX)
                    .expect("no limit");
                let y = legalizer
                    .solve_axis(&t, Axis::Y, i64::MAX)
                    .expect("no limit");
                let frames = [
                    (frame, frame),
                    (x.total + 37, y.total + 23),
                    (x.total, y.total),
                    (x.total - 1, frame),
                    (frame, y.total - 1),
                ];
                assert_legalize_matches(&legalizer, &t, &frames, &mut seen);
            }
        }
        assert_eq!(seen.len(), 4, "every outcome is reached: {seen:?}");
    }

    #[test]
    fn legalization_is_deterministic_per_seed() {
        let t = Topology::from_ascii(
            "11..
             ..11",
        );
        let legalizer = Legalizer::new(rules());
        let a = legalizer
            .legalize(&t, 200, 200, &mut ChaCha8Rng::seed_from_u64(5))
            .expect("legal");
        let b = legalizer
            .legalize(&t, 200, 200, &mut ChaCha8Rng::seed_from_u64(5))
            .expect("legal");
        assert_eq!(a, b);
    }
}
