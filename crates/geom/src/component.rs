//! Connected-component labelling on boolean grids.
//!
//! Used to identify polygons in a topology matrix (for area rules,
//! failure-region reporting, and polygon reconstruction). Labelling
//! works on row runs: each row's runs of set cells come from its edges
//! ([`line_edges`], eight cells a word), runs that overlap a run of the
//! row above are joined by union-find, and every run and bounding box is
//! then written once.

/// A maximal run of set cells in one row: columns `start..end` of `row`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellRun {
    /// Grid row of the run.
    pub row: usize,
    /// First column of the run.
    pub start: usize,
    /// One past the last column of the run.
    pub end: usize,
}

/// The 4-connected components of a `rows × cols` boolean grid, labelled
/// `0..count` in the raster order of each component's first cell; each
/// is held as its row runs and its bounding box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    rows: usize,
    cols: usize,
    count: u32,
    /// Every run, component by component, in raster order within one.
    runs: Vec<CellRun>,
    /// Component `id` owns `runs[first_run[id]..first_run[id + 1]]`.
    first_run: Vec<usize>,
    /// Inclusive `(row0, col0, row1, col1)` of each component.
    bboxes: Vec<(usize, usize, usize, usize)>,
}

impl ComponentLabels {
    /// Number of grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of connected components found.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The row runs of component `id` in raster order; empty when `id`
    /// is not a component.
    #[must_use]
    pub fn runs_of(&self, id: u32) -> &[CellRun] {
        let id = id as usize;
        if id >= self.bboxes.len() {
            return &[];
        }
        &self.runs[self.first_run[id]..self.first_run[id + 1]]
    }

    /// Iterates over `(row, col)` cells belonging to component `id`, in
    /// raster order.
    pub fn cells_of(&self, id: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs_of(id)
            .iter()
            .flat_map(|run| (run.start..run.end).map(move |c| (run.row, c)))
    }

    /// Grid-space bounding box `(row0, col0, row1, col1)` (inclusive) of
    /// component `id`, or `None` if the component has no cells.
    #[must_use]
    pub fn bbox_of(&self, id: u32) -> Option<(usize, usize, usize, usize)> {
        self.bboxes.get(id as usize).copied()
    }
}

/// Appends to `edges` the positions where `line` changes between unset
/// (a zero byte) and set (any other byte), reading it as if unset
/// before its first cell and after its last.
///
/// The edges come in pairs: each pair `(on, off)` is a run `on..off` of
/// set cells, and the cells between one pair's `off` and the next
/// pair's `on` are a run of unset cells with set cells on both sides.
/// The line is read eight cells a word.
///
/// # Example
///
/// ```
/// let mut edges = Vec::new();
/// cp_geom::component::line_edges(&[1, 1, 0, 0, 1, 0, 1], &mut edges);
/// assert_eq!(edges, [0, 2, 4, 5, 6, 7]);
/// ```
pub fn line_edges(line: &[u8], edges: &mut Vec<usize>) {
    // Bit 7 of a byte of `set_mask(w)` is set when that cell is set, so
    // `set ^ (set << 8 | carry)` has bit 7 of byte `k` set exactly where
    // cell `k` differs from the cell before it.
    fn set_mask(w: u64) -> u64 {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        (((w & LOW7) + LOW7) | w) & !LOW7
    }
    fn push_word(set: u64, carry: u64, base: usize, edges: &mut Vec<usize>) {
        let mut changes = set ^ (set << 8 | carry);
        while changes != 0 {
            edges.push(base + (changes.trailing_zeros() / 8) as usize);
            changes &= changes - 1;
        }
    }
    let mut chunks = line.chunks_exact(8);
    let mut carry = 0;
    let mut base = 0;
    for chunk in &mut chunks {
        let set = set_mask(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        push_word(set, carry, base, edges);
        carry = set >> 56;
        base += 8;
    }
    // The zero padding past the last cell closes a run that reaches it.
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    push_word(set_mask(u64::from_le_bytes(tail)), carry, base, edges);
}

/// Labels 4-connected components of a row-major `rows × cols` grid of
/// cells, a zero byte unset and any other set.
///
/// # Panics
///
/// Panics if `cells` is not `rows × cols` long.
///
/// # Example
///
/// ```
/// use cp_geom::label_components;
/// // two diagonal cells are NOT 4-connected
/// let labels = label_components(2, 2, &[1, 0, 0, 1]);
/// assert_eq!(labels.count(), 2);
/// ```
#[must_use]
pub fn label_components(rows: usize, cols: usize, cells: &[u8]) -> ComponentLabels {
    assert_eq!(cells.len(), rows * cols, "cells are rows × cols");
    // Union-find over the runs in raster order. A set's root is its
    // lowest run (`parent[i] <= i` throughout), which is the run holding
    // the component's first cell in raster order.
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut runs: Vec<CellRun> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut edges = Vec::new();
    let mut previous: &[u8] = &[];
    let mut above = 0..0;
    for (row, line) in cells.chunks_exact(cols.max(1)).enumerate() {
        // A row equal to the one above has the same edges.
        if line != previous {
            edges.clear();
            line_edges(line, &mut edges);
            previous = line;
        }
        let first = runs.len();
        for pair in edges.chunks_exact(2) {
            parent.push(runs.len());
            runs.push(CellRun {
                row,
                start: pair[0],
                end: pair[1],
            });
        }
        // Join each run with the runs above it that share a column.
        let (mut a, mut b) = (above.start, first);
        while a < above.end && b < runs.len() {
            let (up, here) = (runs[a], runs[b]);
            if up.start < here.end && here.start < up.end {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra.max(rb)] = ra.min(rb);
            }
            if up.end <= here.end {
                a += 1;
            } else {
                b += 1;
            }
        }
        above = first..runs.len();
    }
    // Number the roots in raster order; every other run's parent is
    // lower, so one forward pass flattens the forest as it goes.
    let mut ids = vec![0u32; runs.len()];
    let mut count = 0u32;
    for i in 0..runs.len() {
        let root = parent[parent[i]];
        parent[i] = root;
        if root == i {
            ids[i] = count;
            count += 1;
        } else {
            ids[i] = ids[root];
        }
    }
    let mut first_run = vec![0usize; count as usize + 1];
    let mut bboxes = vec![(usize::MAX, usize::MAX, 0, 0); count as usize];
    for (run, &id) in runs.iter().zip(&ids) {
        first_run[id as usize + 1] += 1;
        let b = &mut bboxes[id as usize];
        *b = (
            b.0.min(run.row),
            b.1.min(run.start),
            run.row,
            b.3.max(run.end - 1),
        );
    }
    for id in 0..count as usize {
        first_run[id + 1] += first_run[id];
    }
    // Component-major by a stable counting sort on the ids.
    let mut next = first_run.clone();
    let mut by_component = vec![CellRun::default(); runs.len()];
    for (run, &id) in runs.iter().zip(&ids) {
        by_component[next[id as usize]] = *run;
        next[id as usize] += 1;
    }
    ComponentLabels {
        rows,
        cols,
        count,
        runs: by_component,
        first_run,
        bboxes,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn grid<const C: usize>(rows: &[[u8; C]]) -> Vec<u8> {
        rows.concat()
    }

    #[test]
    fn empty_grid_has_no_components() {
        let l = label_components(3, 3, &[0; 9]);
        assert_eq!(l.count(), 0);
        assert_eq!(l.cells_of(0).count(), 0);
    }

    #[test]
    fn full_grid_is_one_component() {
        let l = label_components(4, 5, &[1; 20]);
        assert_eq!(l.count(), 1);
        assert_eq!(l.cells_of(0).count(), 20);
        assert_eq!(l.runs_of(0).len(), 4);
        assert_eq!(l.bbox_of(0), Some((0, 0, 3, 4)));
    }

    #[test]
    fn diagonal_cells_are_separate() {
        let l = label_components(3, 3, &grid(&[[1, 0, 0], [0, 1, 0], [0, 0, 1]]));
        assert_eq!(l.count(), 3);
    }

    #[test]
    fn l_shape_is_single_component() {
        // ##.
        // #..
        // ###
        let l = label_components(3, 3, &grid(&[[1, 1, 0], [1, 0, 0], [1, 1, 1]]));
        assert_eq!(l.count(), 1);
        assert_eq!(l.bbox_of(0), Some((0, 0, 2, 2)));
    }

    #[test]
    fn bbox_of_missing_component_is_none() {
        let l = label_components(2, 2, &[0; 4]);
        assert_eq!(l.bbox_of(0), None);
        assert!(l.runs_of(0).is_empty());
        assert!(l.runs_of(u32::MAX).is_empty());
    }

    #[test]
    fn a_late_join_keeps_the_lower_id() {
        // The arm from (0, 2) meets the one from (0, 0) only in the
        // last row, so the dot at (0, 4) is component 1, not 2.
        // #.#.#
        // #.#..
        // #.#..
        // ###..
        let l = label_components(
            4,
            5,
            &grid(&[
                [1, 0, 1, 0, 1],
                [1, 0, 1, 0, 0],
                [1, 0, 1, 0, 0],
                [1, 1, 1, 0, 0],
            ]),
        );
        assert_eq!(l.count(), 2);
        assert!(l.cells_of(0).any(|cell| cell == (0, 2)));
        assert_eq!(l.cells_of(1).collect::<Vec<_>>(), [(0, 4)]);
        assert_eq!(l.bbox_of(0), Some((0, 0, 3, 2)));
        assert_eq!(l.bbox_of(1), Some((0, 4, 0, 4)));
    }

    /// SplitMix64, enough randomness for test grids without a crate.
    struct Grids(u64);

    impl Grids {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Cells set with probability `density`; a set cell is any
        /// non-zero byte, not only 1.
        fn random(&mut self, rows: usize, cols: usize, density: f64) -> Vec<u8> {
            (0..rows * cols)
                .map(|_| {
                    let v = self.next();
                    if (v >> 11) as f64 / (1u64 << 53) as f64 >= density {
                        0
                    } else if v & 7 == 0 {
                        (v >> 3) as u8 | 1
                    } else {
                        1
                    }
                })
                .collect()
        }
    }

    /// Teeth hanging from row 0 that reach a spine only at the bottom,
    /// every tooth `pitch` columns apart, with a dot between teeth.
    fn comb(rows: usize, cols: usize, pitch: usize) -> Vec<u8> {
        let mut cells = vec![0u8; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let tooth = c % pitch == 0;
                let spine = r + 1 == rows;
                let dot = c % pitch == pitch / 2 && r == rows / 2;
                cells[r * cols + c] = u8::from(tooth || spine || dot);
            }
        }
        cells
    }

    /// A square spiral of 1-cell walls and 1-cell gaps, one turtle
    /// path walked inwards from the top-left corner: its arms meet rows
    /// far below where they start.
    fn spiral(n: usize) -> Vec<u8> {
        let n = n as isize;
        let mut cells = vec![0u8; (n * n) as usize];
        let set = |cells: &[u8], r: isize, c: isize| {
            !(0..n).contains(&r) || !(0..n).contains(&c) || cells[(r * n + c) as usize] != 0
        };
        let (mut r, mut c, mut heading, mut stuck) = (0, 0, 0, 0);
        cells[0] = 1;
        while stuck < 2 {
            let (dr, dc) = [(0, 1), (1, 0), (0, -1), (-1, 0)][heading];
            let ahead_free = !set(&cells, r + dr, c + dc);
            let beyond = (r + 2 * dr, c + 2 * dc);
            let beyond_free = !(0..n).contains(&beyond.0)
                || !(0..n).contains(&beyond.1)
                || !set(&cells, beyond.0, beyond.1);
            if ahead_free && beyond_free {
                (r, c, stuck) = (r + dr, c + dc, 0);
                cells[(r * n + c) as usize] = 1;
            } else {
                (heading, stuck) = ((heading + 1) % 4, stuck + 1);
            }
        }
        cells
    }

    fn assert_matches_reference(rows: usize, cols: usize, cells: &[u8]) {
        let got = label_components(rows, cols, cells);
        let (labels, count) =
            reference::label_components(rows, cols, |r, c| cells[r * cols + c] != 0);
        let shape = format!("{rows}x{cols}");
        assert_eq!(got.count, count, "{shape}: count");
        let bboxes = reference::bboxes(&labels, cols, count);
        let mut cells = vec![Vec::new(); count as usize + 1];
        for (i, &id) in labels.iter().enumerate() {
            if id != reference::EMPTY {
                cells[id as usize].push(i);
            }
        }
        for id in 0..=count {
            assert_eq!(
                got.bbox_of(id),
                bboxes[id as usize],
                "{shape}: bbox of {id}"
            );
            let got_cells: Vec<usize> = got.cells_of(id).map(|(r, c)| r * cols + c).collect();
            assert_eq!(got_cells, cells[id as usize], "{shape}: cells of {id}");
        }
    }

    #[test]
    fn labels_match_the_flood_fill_on_random_grids() {
        let mut grids = Grids(17);
        let shapes = [
            (1, 1),
            (1, 7),
            (1, 64),
            (1, 131),
            (7, 1),
            (64, 1),
            (131, 1),
            (7, 13),
            (13, 7),
            (9, 65),
            (65, 9),
            (33, 47),
            (128, 128),
        ];
        for (rows, cols) in shapes {
            for density in [0.1, 0.3, 0.5, 0.7, 0.9] {
                assert_matches_reference(rows, cols, &grids.random(rows, cols, density));
            }
            assert_matches_reference(rows, cols, &vec![0; rows * cols]);
            assert_matches_reference(rows, cols, &vec![1; rows * cols]);
        }
        assert_matches_reference(0, 5, &[]);
        assert_matches_reference(5, 0, &[]);
    }

    #[test]
    fn labels_match_the_flood_fill_on_combs_and_spirals() {
        for (rows, cols, pitch) in [(5, 9, 2), (12, 40, 4), (9, 67, 6), (64, 64, 8)] {
            assert_matches_reference(rows, cols, &comb(rows, cols, pitch));
            // Upside down: the spine on top, every tooth joined at once.
            let flipped: Vec<u8> = comb(rows, cols, pitch)
                .chunks_exact(cols)
                .rev()
                .flatten()
                .copied()
                .collect();
            assert_matches_reference(rows, cols, &flipped);
        }
        for n in [3, 5, 8, 11, 16, 33, 64] {
            let cells = spiral(n);
            assert_matches_reference(n, n, &cells);
            assert_eq!(
                label_components(n, n, &cells).count(),
                1,
                "spiral {n} is one arm"
            );
        }
    }

    #[test]
    fn line_edges_pair_up_around_set_runs() {
        let mut grids = Grids(5);
        for len in [0, 1, 7, 8, 9, 16, 63, 64, 65, 130] {
            for density in [0.0, 0.2, 0.5, 0.8, 1.0] {
                let line = grids.random(1, len, density);
                let mut edges = Vec::new();
                line_edges(&line, &mut edges);
                let want: Vec<usize> = (0..=len)
                    .filter(|&i| {
                        let here = i < len && line[i] != 0;
                        let before = i > 0 && line[i - 1] != 0;
                        here != before
                    })
                    .collect();
                assert_eq!(edges, want, "line of {len} at {density}");
            }
        }
    }
}
