//! Rule-based synthetic layout-map generation.
//!
//! These generators stand in for the ICCAD-2014 contest layout maps,
//! which cannot ship with an offline build. They emit large [`Layout`]s that the dataset builder
//! windows into patches. Both follow the reference design rules with
//! margin, so the *local statistics* the generative models learn are
//! those of DRC-plausible metal.

use crate::Style;
use cp_layout::geom::{Layout, Rect};
use rand::Rng;

/// The size of a generated map; everything else is calibrated per
/// style inside `generate_map`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MapParams {
    /// Map width in nm.
    pub width_nm: i64,
    /// Map height in nm.
    pub height_nm: i64,
}

/// Snap grid (nm): every shape edge lands on a multiple of this, like
/// real mask data on a manufacturing grid. Starts round down, ends round
/// up, so rule minimums are preserved (gaps shrink by at most one grid
/// step and the generators keep a one-step margin).
const SNAP_NM: i64 = 16;

fn snapped(r: Rect) -> Rect {
    let f = |v: i64| v.div_euclid(SNAP_NM) * SNAP_NM;
    let c = |v: i64| -> i64 { (v + SNAP_NM - 1).div_euclid(SNAP_NM) * SNAP_NM };
    Rect::new(f(r.x0()), f(r.y0()), c(r.x1()), c(r.y1()))
}

/// Generates a synthetic layout map in the given style.
#[must_use]
pub(crate) fn generate_map(style: Style, params: MapParams, rng: &mut impl Rng) -> Layout {
    match style {
        Style::Layer10001 => dense_routing_map(params, rng),
        Style::Layer10003 => sparse_island_map(params, rng),
    }
}

/// Layer-10001: horizontal wire tracks with segment breaks and vertical
/// jogs between adjacent tracks.
fn dense_routing_map(params: MapParams, rng: &mut impl Rng) -> Layout {
    let frame = Rect::new(0, 0, params.width_nm, params.height_nm);
    let mut layout = Layout::new(frame);
    // Track bands: y-position plus wire height, advancing by pitch.
    let mut bands: Vec<(i64, i64)> = Vec::new();
    let mut y = rng.gen_range(0..120);
    while y < params.height_nm {
        let height = rng.gen_range(40..=96);
        if y + height > params.height_nm {
            break;
        }
        bands.push((y, height));
        let pitch = height + rng.gen_range(56..=180);
        y += pitch;
    }
    // Segments per band, remembering them for jog placement.
    let mut band_segments: Vec<Vec<(i64, i64)>> = Vec::with_capacity(bands.len());
    for &(by, bh) in &bands {
        let mut segments = Vec::new();
        let mut x = rng.gen_range(0..260);
        while x < params.width_nm {
            let len = rng.gen_range(160..=700).min(params.width_nm - x);
            if len < 120 {
                break;
            }
            layout.push(snapped(Rect::new(x, by, x + len, by + bh)));
            segments.push((x, x + len));
            x += len + rng.gen_range(56..=220);
        }
        band_segments.push(segments);
    }
    // Vertical jogs between adjacent bands where both have metal, spaced
    // well apart so jog-to-jog spacing is comfortable.
    for i in 0..bands.len().saturating_sub(1) {
        let (y0, h0) = bands[i];
        let (y1, _h1) = bands[i + 1];
        let mut last_jog_end = i64::MIN / 2;
        for &(a0, a1) in &band_segments[i] {
            for &(b0, b1) in &band_segments[i + 1] {
                let lo = a0.max(b0) + 64;
                let hi = a1.min(b1) - 64;
                if hi - lo < 48 || rng.gen::<f64>() > 0.45 {
                    continue;
                }
                let w = rng.gen_range(40..=72).min(hi - lo);
                let x = rng.gen_range(lo..=hi - w);
                if x < last_jog_end + 160 {
                    continue;
                }
                layout.push(snapped(Rect::new(x, y0 + h0, x + w, y1)));
                // Jogs connect through the band gap; include overlap into
                // both wires so the union is a single polygon.
                layout.push(snapped(Rect::new(x, y0, x + w, y1 + 1)));
                last_jog_end = x + w;
            }
        }
    }
    layout
}

/// Layer-10003: sparse rectangular islands and small via arrays placed on
/// a jittered coarse grid (placement margins guarantee spacing).
fn sparse_island_map(params: MapParams, rng: &mut impl Rng) -> Layout {
    let frame = Rect::new(0, 0, params.width_nm, params.height_nm);
    let mut layout = Layout::new(frame);
    let cell = 420i64;
    let cols = params.width_nm / cell;
    let rows = params.height_nm / cell;
    for gy in 0..rows {
        for gx in 0..cols {
            let roll: f64 = rng.gen();
            if roll > 0.40 {
                continue; // empty cell
            }
            let cx = gx * cell;
            let cy = gy * cell;
            if roll < 0.10 {
                // 2×2 via array: 64 nm squares at 128 nm pitch.
                let side = 64;
                let pitch = 128;
                let ox = cx + rng.gen_range(40..=cell - (pitch + side) - 40);
                let oy = cy + rng.gen_range(40..=cell - (pitch + side) - 40);
                for vy in 0..2 {
                    for vx in 0..2 {
                        layout.push(snapped(Rect::from_origin_size(
                            ox + vx * pitch,
                            oy + vy * pitch,
                            side,
                            side,
                        )));
                    }
                }
            } else if roll < 0.34 {
                // Single island.
                let w = rng.gen_range(72..=260);
                let h = rng.gen_range(72..=260);
                let ox = cx + rng.gen_range(40..=(cell - w - 40).max(41));
                let oy = cy + rng.gen_range(40..=(cell - h - 40).max(41));
                layout.push(snapped(Rect::from_origin_size(ox, oy, w, h)));
            } else {
                // L-shaped island from two overlapping bars.
                let w = rng.gen_range(150..=300);
                let arm = rng.gen_range(56..=96);
                let ox = cx + rng.gen_range(40..=(cell - w - 40).max(41));
                let oy = cy + rng.gen_range(40..=(cell - w - 40).max(41));
                layout.push(snapped(Rect::from_origin_size(ox, oy, w, arm)));
                layout.push(snapped(Rect::from_origin_size(ox, oy, arm, w)));
            }
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_layout::squish::SquishPattern;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small() -> MapParams {
        MapParams {
            width_nm: 4096,
            height_nm: 4096,
        }
    }

    #[test]
    fn dense_map_is_denser_than_sparse_map() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let dense = generate_map(Style::Layer10001, small(), &mut rng);
        let sparse = generate_map(Style::Layer10003, small(), &mut rng);
        let d = dense.union_area() as f64 / (4096.0 * 4096.0);
        let s = sparse.union_area() as f64 / (4096.0 * 4096.0);
        assert!(d > s, "dense {d:.3} should exceed sparse {s:.3}");
        assert!(d > 0.15, "dense density {d:.3} too low");
        assert!(s > 0.01, "sparse density {s:.3} too low");
    }

    #[test]
    fn styles_differ_in_complexity() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dense = generate_map(Style::Layer10001, small(), &mut rng);
        let sparse = generate_map(Style::Layer10003, small(), &mut rng);
        let cd = cp_layout::squish::complexity(SquishPattern::from_layout(&dense).topology());
        let cs = cp_layout::squish::complexity(SquishPattern::from_layout(&sparse).topology());
        assert!(
            cd.cx > cs.cx,
            "dense map {:?} should have more x scan lines than sparse {:?}",
            cd,
            cs
        );
    }

    #[test]
    fn maps_are_reproducible_per_seed() {
        let a = generate_map(
            Style::Layer10001,
            small(),
            &mut ChaCha8Rng::seed_from_u64(9),
        );
        let b = generate_map(
            Style::Layer10001,
            small(),
            &mut ChaCha8Rng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn all_shapes_inside_frame() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for style in Style::ALL {
            let map = generate_map(style, small(), &mut rng);
            let frame = map.frame();
            assert!(map.rects().iter().all(|r| frame.contains_rect(r)));
        }
    }
}
