//! The legalizer the row-run stages in `solver.rs` replaced, kept as
//! the test oracle: the per-cell run scan with its strided column walk
//! and `sort_by_key`, the per-end bound lists, the per-component cell
//! lists and the slack split that recomputes fractions per comparison.
//! `Legalizer::legalize` must return exactly what [`legalize`] here
//! returns, and `collect_bounds` the same bounds (see the equivalence
//! tests in `solver.rs`). Only the components come from
//! `cp_geom::label_components`, whose own oracle is the flood fill; the
//! cell lists are gathered from them in the raster order the old
//! per-cell scan pushed them in.

use super::{last_max, IntervalBound};
use crate::{FailureKind, LegalizeFailure};
use cp_drc::DesignRules;
use cp_geom::{label_components, Axis};
use cp_squish::{Region, SquishPattern, Topology};
use rand::Rng;

const AREA_REPAIR_ITERS: usize = 64;

pub(super) fn legalize(
    rules: &DesignRules,
    topology: &Topology,
    width: i64,
    height: i64,
    rng: &mut impl Rng,
) -> Result<SquishPattern, LegalizeFailure> {
    let (x_min, x_total) = solve_axis(rules, topology, Axis::X, width)?;
    let (y_min, y_total) = solve_axis(rules, topology, Axis::Y, height)?;
    let mut dx_share = vec![0i64; x_min.len()];
    let mut dy_share = vec![0i64; y_min.len()];
    let mut slack_x = width - x_total;
    let mut slack_y = height - y_total;
    repair_areas(
        rules,
        topology,
        &x_min,
        &mut dx_share,
        &y_min,
        &mut dy_share,
        &mut slack_x,
        &mut slack_y,
    )?;
    for (share, extra) in dx_share
        .iter_mut()
        .zip(distribute_slack(slack_x, x_min.len(), rng))
    {
        *share += extra;
    }
    for (share, extra) in dy_share
        .iter_mut()
        .zip(distribute_slack(slack_y, y_min.len(), rng))
    {
        *share += extra;
    }
    let dx: Vec<i64> = x_min.iter().zip(&dx_share).map(|(m, s)| m + s).collect();
    let dy: Vec<i64> = y_min.iter().zip(&dy_share).map(|(m, s)| m + s).collect();
    Ok(SquishPattern::new(topology.clone(), dx, dy))
}

fn solve_axis(
    rules: &DesignRules,
    topology: &Topology,
    axis: Axis,
    target: i64,
) -> Result<(Vec<i64>, i64), LegalizeFailure> {
    let bounds = collect_bounds(rules, topology, axis);
    let n = match axis {
        Axis::X => topology.cols(),
        Axis::Y => topology.rows(),
    };
    let mut by_end: Vec<Vec<IntervalBound>> = vec![Vec::new(); n + 1];
    for b in bounds {
        by_end[b.end + 1].push(b);
    }
    let mut s = vec![0i64; n + 1];
    let mut binding: Vec<Option<IntervalBound>> = vec![None; n + 1];
    for j in 1..=n {
        s[j] = s[j - 1] + 1;
        for &b in &by_end[j] {
            let candidate = s[b.start] + b.bound;
            if candidate > s[j] {
                s[j] = candidate;
                binding[j] = Some(b);
            }
        }
    }
    if s[n] > target {
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
    Ok((minimal, s[n]))
}

/// Bounds in ascending `(start, end)` order, first witness kept unless a
/// later run carries a strictly greater bound.
pub(super) fn collect_bounds(
    rules: &DesignRules,
    topology: &Topology,
    axis: Axis,
) -> Vec<IntervalBound> {
    let (lines, perpendicular) = match axis {
        Axis::X => (topology.cols(), topology.rows()),
        Axis::Y => (topology.rows(), topology.cols()),
    };
    let bytes = topology.as_bytes();
    let cols = topology.cols();
    let mut raw: Vec<IntervalBound> = Vec::new();
    for p in 0..perpendicular {
        let at = |line: usize| match axis {
            Axis::X => bytes[p * cols + line] != 0,
            Axis::Y => bytes[line * cols + p] != 0,
        };
        let mut i = 0;
        while i < lines {
            let v = at(i);
            let start = i;
            while i < lines && at(i) == v {
                i += 1;
            }
            let end = i - 1;
            let bound = if v {
                rules.min_width()
            } else if start > 0 && i < lines {
                rules.min_space()
            } else {
                continue;
            };
            raw.push(IntervalBound {
                start,
                end,
                bound,
                witness: p,
            });
        }
    }
    raw.sort_by_key(|b| (b.start, b.end));
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

#[allow(clippy::too_many_arguments)]
fn repair_areas(
    rules: &DesignRules,
    topology: &Topology,
    dx_min: &[i64],
    dx_share: &mut [i64],
    dy_min: &[i64],
    dy_share: &mut [i64],
    slack_x: &mut i64,
    slack_y: &mut i64,
) -> Result<(), LegalizeFailure> {
    let labels = label_components(topology.rows(), topology.cols(), topology.as_bytes());
    if labels.count() == 0 {
        return Ok(());
    }
    let comp_count = labels.count() as usize;
    let cells: Vec<Vec<(usize, usize)>> = (0..labels.count())
        .map(|id| labels.cells_of(id).collect())
        .collect();
    let mut dx = vec![0i64; dx_min.len()];
    let mut dy = vec![0i64; dy_min.len()];
    let mut areas = vec![0i64; comp_count];
    let mut col_height = vec![0i64; dx_min.len()];
    let mut row_width = vec![0i64; dy_min.len()];
    let compute_areas =
        |dx: &mut [i64], dy: &mut [i64], areas: &mut [i64], dx_share: &[i64], dy_share: &[i64]| {
            for ((d, m), s) in dx.iter_mut().zip(dx_min).zip(dx_share) {
                *d = m + s;
            }
            for ((d, m), s) in dy.iter_mut().zip(dy_min).zip(dy_share) {
                *d = m + s;
            }
            areas.fill(0);
            for (id, comp) in cells.iter().enumerate() {
                for &(r, c) in comp {
                    areas[id] += dx[c] * dy[r];
                }
            }
        };
    for _pass in 0..AREA_REPAIR_ITERS {
        compute_areas(&mut dx, &mut dy, &mut areas, dx_share, dy_share);
        let deficient: Vec<usize> = (0..comp_count)
            .filter(|&id| areas[id] < rules.min_area())
            .collect();
        if deficient.is_empty() {
            return Ok(());
        }
        let mut minted = false;
        for &id in &deficient {
            let deficit = rules.min_area() - areas[id];
            col_height.fill(0);
            row_width.fill(0);
            for &(r, c) in &cells[id] {
                col_height[c] += dy[r];
                row_width[r] += dx[c];
            }
            let (grow_col, height) = last_max(&col_height).expect("component has cells");
            let need_cols = (deficit + height - 1) / height;
            let take_x = need_cols.min(*slack_x);
            dx_share[grow_col] += take_x;
            *slack_x -= take_x;
            minted |= take_x > 0;
            if take_x < need_cols {
                let (grow_row, width) = last_max(&row_width).expect("component has cells");
                if width > 0 {
                    let residual = (need_cols - take_x) * height;
                    let need_rows = (residual + width - 1) / width;
                    let take_y = need_rows.min(*slack_y);
                    dy_share[grow_row] += take_y;
                    *slack_y -= take_y;
                    minted |= take_y > 0;
                }
            }
        }
        if !minted {
            let worst = *deficient
                .iter()
                .min_by_key(|&&id| areas[id])
                .expect("non-empty");
            let (r0, c0, r1, c1) = labels.bbox_of(worst as u32).expect("component has cells");
            return Err(LegalizeFailure {
                kind: FailureKind::AreaUnsatisfiable,
                region: Region::new(r0, c0, r1 + 1, c1 + 1),
                needed: rules.min_area(),
                available: areas[worst],
                log: format!(
                    "component {worst} area {} nm\u{b2} < minimum {} nm\u{b2} and the \
                     slack budget is exhausted",
                    areas[worst],
                    rules.min_area()
                ),
            });
        }
    }
    compute_areas(&mut dx, &mut dy, &mut areas, dx_share, dy_share);
    if let Some((worst, &area)) = areas
        .iter()
        .enumerate()
        .filter(|(_, &a)| a < rules.min_area())
        .min_by_key(|(_, &a)| a)
    {
        let (r0, c0, r1, c1) = labels.bbox_of(worst as u32).expect("cells");
        return Err(LegalizeFailure {
            kind: FailureKind::AreaUnsatisfiable,
            region: Region::new(r0, c0, r1 + 1, c1 + 1),
            needed: rules.min_area(),
            available: area,
            log: format!("area repair did not converge for component {worst}"),
        });
    }
    Ok(())
}

fn distribute_slack(slack: i64, n: usize, rng: &mut impl Rng) -> Vec<i64> {
    assert!(slack >= 0, "negative slack reached distribution");
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-9).collect();
    let total: f64 = weights.iter().sum();
    let mut shares: Vec<i64> = weights
        .iter()
        .map(|w| ((w / total) * slack as f64).floor() as i64)
        .collect();
    let mut assigned: i64 = shares.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = (weights[a] / total) * slack as f64 - shares[a] as f64;
        let fb = (weights[b] / total) * slack as f64 - shares[b] as f64;
        fb.partial_cmp(&fa).expect("finite fractions")
    });
    let mut i = 0;
    while assigned < slack {
        shares[order[i % n]] += 1;
        assigned += 1;
        i += 1;
    }
    shares
}
