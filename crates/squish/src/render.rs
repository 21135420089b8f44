//! Rendering topologies for inspection (ASCII art).

use crate::Topology;

/// Renders a topology as ASCII art (`#` drawn, `.` empty), optionally
/// downsampling so the output fits in `max_cols` columns.
///
/// # Example
///
/// ```
/// use cp_squish::{render::to_ascii, Topology};
/// let t = Topology::from_ascii("#.\n.#");
/// assert_eq!(to_ascii(&t, 80), "#.\n.#\n");
/// ```
#[must_use]
pub fn to_ascii(topology: &Topology, max_cols: usize) -> String {
    let step = topology.cols().div_ceil(max_cols.max(1)).max(1);
    let mut out = String::new();
    let mut r = 0;
    while r < topology.rows() {
        let mut c = 0;
        while c < topology.cols() {
            // Majority vote over the step×step block.
            let mut ones = 0usize;
            let mut total = 0usize;
            for rr in r..(r + step).min(topology.rows()) {
                for cc in c..(c + step).min(topology.cols()) {
                    ones += usize::from(topology.get(rr, cc));
                    total += 1;
                }
            }
            out.push(if ones * 2 >= total.max(1) && ones > 0 {
                '#'
            } else {
                '.'
            });
            c += step;
        }
        out.push('\n');
        r += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_no_downsample() {
        let t = Topology::from_ascii(
            "##.
             ..#",
        );
        assert_eq!(to_ascii(&t, 10), "##.\n..#\n");
    }

    #[test]
    fn ascii_downsamples_to_fit() {
        let t = Topology::filled(8, 8, true);
        let art = to_ascii(&t, 4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines
            .iter()
            .all(|l| l.len() == 4 && l.chars().all(|ch| ch == '#')));
    }
}
