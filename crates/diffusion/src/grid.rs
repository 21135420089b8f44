//! The reduced grid every model call samples on.
//!
//! A training topology is a minimal squish topology stretched to the
//! window by `normalize_to`, which repeats whole rows and columns. The
//! denoiser's tables are fitted on the minimal topologies themselves
//! ([`ScanLines::fit`]), and a model call samples on a grid of the same
//! kind: one partition of the fine rows and one of the fine columns into
//! runs, a reduced cell standing for the block of fine cells its row run
//! and column run cross. The call then writes each reduced cell back
//! over its block ([`Grid::expand`]), so callers see the shapes they
//! asked for.
//!
//! * `generate` draws the run lengths of each axis from the style's
//!   fitted distribution: how many fine lines a minimal line of a
//!   training topology covers ([`Grid::drawn`]).
//! * `modify` splits wherever the mask or the kept content changes along
//!   an axis, and draws runs inside a span of lines it regenerates whole
//!   ([`Grid::fitted`]).
//!
//! Either way an axis has at most as many runs as the most minimal lines
//! any training topology of the style had, scaled to the call's size
//! ([`ScanLines::bound`]).

use std::ops::Range;

use crate::Mask;
use cp_layout::squish::{SquishPattern, Topology};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// What a style's training topologies say about their scan lines, per
/// axis (`0` rows, `1` columns).
#[derive(Debug, Clone)]
pub struct ScanLines {
    /// Fine lines each minimal line covered, one entry a minimal line of
    /// every training topology; empty: every run is one line.
    runs: [Vec<u32>; 2],
    /// The most minimal lines of any training topology, as a fraction
    /// `(lines, fine lines)` of its size.
    most: [(usize, usize); 2],
}

/// Runs of one line each, as many as a call has: the grid of the cells
/// themselves (what a denoiser fitted on no topologies samples on).
pub(crate) static ONE_LINE_RUNS: ScanLines = ScanLines {
    runs: [Vec::new(), Vec::new()],
    most: [(1, 1); 2],
};

impl ScanLines {
    /// Fits on `topologies`, returning their minimal topologies too: a
    /// topology's runs along an axis are its stretches of equal adjacent
    /// lines, and merging each into one line gives its minimal topology.
    pub(crate) fn fit(topologies: &[Topology]) -> (ScanLines, Vec<Topology>) {
        let mut lines = ScanLines {
            runs: [Vec::new(), Vec::new()],
            most: [(0, 1); 2],
        };
        let minimal = topologies
            .iter()
            .map(|t| {
                let (rows, cols) = t.shape();
                let unit = SquishPattern::new(t.clone(), vec![1; cols], vec![1; rows]);
                let minimal = unit.minimized();
                for (axis, (runs, fine)) in [(minimal.dy(), rows), (minimal.dx(), cols)]
                    .into_iter()
                    .enumerate()
                {
                    lines.runs[axis].extend(runs.iter().map(|&run| run as u32));
                    let (most, of) = lines.most[axis];
                    if runs.len() * of > most * fine {
                        lines.most[axis] = (runs.len(), fine);
                    }
                }
                minimal.topology().clone()
            })
            .collect();
        (lines, minimal)
    }

    /// Several styles' lines as one (the pooled condition's).
    pub(crate) fn pooled<'a>(all: impl Iterator<Item = &'a ScanLines>) -> ScanLines {
        let mut pooled = ScanLines {
            runs: [Vec::new(), Vec::new()],
            most: [(0, 1); 2],
        };
        for lines in all {
            for axis in 0..2 {
                pooled.runs[axis].extend(&lines.runs[axis]);
                let ((most, of), (other, fine)) = (pooled.most[axis], lines.most[axis]);
                if other * of > most * fine {
                    pooled.most[axis] = (other, fine);
                }
            }
        }
        pooled
    }

    /// The most runs a call of `len` fine lines may have along `axis`:
    /// the most minimal lines of any training topology, scaled from its
    /// size to `len` and rounded up (at least one, at most `len`).
    pub(crate) fn bound(&self, axis: usize, len: usize) -> usize {
        let (lines, fine) = self.most[axis];
        (lines * len).div_ceil(fine).clamp(1, len.max(1))
    }

    /// One run length along `axis`, drawn from the fitted ones by one
    /// word of `rng` (none when every run is one line).
    fn draw(&self, axis: usize, rng: &mut ChaCha8Rng) -> usize {
        let runs = &self.runs[axis];
        if runs.is_empty() {
            return 1;
        }
        let pick = (u64::from(rng.next_u32()) * runs.len() as u64) >> 32;
        runs[pick as usize] as usize
    }

    /// Marks where drawn runs start in `span` of `starts`, the first at
    /// the span's start, until `budget` runs are placed (the last then
    /// takes the rest of the span); returns the runs placed. At most one
    /// word of `rng` a run.
    fn draw_runs(
        &self,
        axis: usize,
        span: Range<usize>,
        budget: usize,
        rng: &mut ChaCha8Rng,
        starts: &mut [bool],
    ) -> usize {
        if span.is_empty() {
            return 0;
        }
        starts[span.start] = true;
        let (mut at, mut placed) = (span.start, 1);
        while placed < budget {
            at += self.draw(axis, rng);
            if at >= span.end {
                break;
            }
            starts[at] = true;
            placed += 1;
        }
        placed
    }
}

/// The run lengths of a reduced grid: reduced cell `(r, c)` stands for
/// `rows[r] × cols[c]` fine cells. A prediction measures the area of
/// what it draws by them.
#[derive(Debug, Clone, Copy)]
pub struct Runs<'a> {
    rows: &'a [u32],
    cols: &'a [u32],
}

impl<'a> Runs<'a> {
    /// Runs of `rows` and of `cols` fine lines a reduced line.
    pub(crate) fn new(rows: &'a [u32], cols: &'a [u32]) -> Runs<'a> {
        Runs { rows, cols }
    }

    /// Reduced rows and columns.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows.len(), self.cols.len())
    }

    /// The fine cells reduced cell `(r, c)` stands for.
    pub(crate) fn area(&self, r: usize, c: usize) -> usize {
        self.rows[r] as usize * self.cols[c] as usize
    }
}

/// A reduced grid: per fine line of each axis, the reduced line it
/// belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Grid {
    /// Per fine row, its reduced row.
    row_of: Vec<u32>,
    /// Per fine column, its reduced column.
    col_of: Vec<u32>,
    rows: usize,
    cols: usize,
    /// Fine lines per reduced row, and per reduced column.
    runs: [Vec<u32>; 2],
}

impl Grid {
    /// The grid whose runs start where `row_starts` and `col_starts` say
    /// (each true at 0).
    fn new(row_starts: &[bool], col_starts: &[bool]) -> Grid {
        let line_of = |starts: &[bool]| {
            let mut line = 0u32;
            let of: Vec<u32> = (starts.iter())
                .map(|&start| {
                    line += u32::from(start);
                    line - 1
                })
                .collect();
            (of, line as usize)
        };
        let ((row_of, rows), (col_of, cols)) = (line_of(row_starts), line_of(col_starts));
        let runs = [(&row_of, rows), (&col_of, cols)].map(|(of, lines)| {
            let mut runs = vec![0u32; lines];
            for &line in of {
                runs[line as usize] += 1;
            }
            runs
        });
        Grid {
            row_of,
            col_of,
            rows,
            cols,
            runs,
        }
    }

    /// The run lengths of this grid.
    pub(crate) fn runs(&self) -> Runs<'_> {
        Runs::new(&self.runs[0], &self.runs[1])
    }

    /// A `generate` call's grid: on each axis, runs drawn from `lines`
    /// until the axis is covered or its [`ScanLines::bound`] is reached.
    /// Draws at most one word of `rng` a fine line.
    pub(crate) fn drawn(lines: &ScanLines, rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Grid {
        let [row_starts, col_starts] = [(0, rows), (1, cols)].map(|(axis, len)| {
            let mut starts = vec![false; len];
            lines.draw_runs(axis, 0..len, lines.bound(axis, len), rng, &mut starts);
            starts
        });
        Grid::new(&row_starts, &col_starts)
    }

    /// A `modify` call's grid. Along each axis a run starts wherever the
    /// mask changes from one line to the next or the kept content does,
    /// and runs drawn from `lines` split each span of lines that have a
    /// cell to regenerate. Past the axis's [`ScanLines::bound`], starts
    /// are thinned evenly: the mask's changes are kept first, then the
    /// kept content's, then the drawn ones. Draws at most one word of
    /// `rng` a fine line.
    pub(crate) fn fitted(
        lines: &ScanLines,
        known: &Topology,
        mask: &Mask,
        rng: &mut ChaCha8Rng,
    ) -> Grid {
        let (rows, cols) = known.shape();
        // Per cell: KEPT, and SET where a kept cell is drawn.
        let keep = mask.as_topology().as_bytes();
        let cells: Vec<u8> = (keep.iter().zip(known.as_bytes()))
            .map(|(&kept, &bit)| u8::from(kept != 0) * (KEPT | (u8::from(bit != 0) * SET)))
            .collect();
        // Per line of each axis, as a row pass computes them: whether the
        // mask changes from the line before, whether anything does, and
        // whether the line has a cell to regenerate.
        let mut row_lines = vec![Line::default(); rows];
        let mut col_lines = vec![Line::default(); cols];
        for (r, row) in cells.chunks_exact(cols).enumerate() {
            row_lines[r].regenerated = row.iter().any(|&cell| cell & KEPT == 0);
            if r > 0 {
                let above = &cells[(r - 1) * cols..r * cols];
                row_lines[r].changes = row != above;
                row_lines[r].mask_changes =
                    (row.iter().zip(above)).any(|(a, b)| (a ^ b) & KEPT != 0);
            }
            for (c, col) in col_lines.iter_mut().enumerate() {
                col.regenerated |= row[c] & KEPT == 0;
                if c > 0 {
                    col.changes |= row[c] != row[c - 1];
                    col.mask_changes |= (row[c] ^ row[c - 1]) & KEPT != 0;
                }
            }
        }
        let row_starts = axis_starts(lines, 0, &row_lines, rng);
        let col_starts = axis_starts(lines, 1, &col_lines, rng);
        Grid::new(&row_starts, &col_starts)
    }

    /// Reduced rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Reduced columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `known` and `mask` (row-major 0/1 fine cells) on this grid: a
    /// reduced cell is kept when at least half its fine cells are, and
    /// holds the majority of its kept cells' bits, ties drawn.
    pub(crate) fn reduce(&self, known: &[u8], mask: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut counts = vec![[0u32; 3]; self.rows * self.cols];
        let fine_cols = self.col_of.len();
        for (r, &row) in self.row_of.iter().enumerate() {
            let counts = &mut counts[row as usize * self.cols..][..self.cols];
            let cells = (known[r * fine_cols..][..fine_cols].iter())
                .zip(&mask[r * fine_cols..][..fine_cols]);
            for ((&bit, &kept), &col) in cells.zip(&self.col_of) {
                let [cells, kept_cells, ones] = &mut counts[col as usize];
                *cells += 1;
                *kept_cells += u32::from(kept != 0);
                *ones += u32::from(kept != 0 && bit != 0);
            }
        }
        (counts.iter())
            .map(|&[cells, kept, ones]| {
                (
                    u8::from(kept > 0 && 2 * ones >= kept),
                    u8::from(2 * kept >= cells),
                )
            })
            .unzip()
    }

    /// The fine cells of `reduced` (row-major 0/1, this grid's shape):
    /// each reduced cell written over the block it stands for.
    pub(crate) fn expand(&self, reduced: &[u8]) -> Vec<u8> {
        let fine_cols = self.col_of.len();
        let mut fine = Vec::with_capacity(self.row_of.len() * fine_cols);
        for (r, &row) in self.row_of.iter().enumerate() {
            if r > 0 && self.row_of[r - 1] == row {
                fine.extend_from_within((r - 1) * fine_cols..r * fine_cols);
            } else {
                let reduced = &reduced[row as usize * self.cols..][..self.cols];
                fine.extend(self.col_of.iter().map(|&col| reduced[col as usize]));
            }
        }
        fine
    }
}

/// A [`Grid::fitted`] cell's bit: the mask keeps it.
const KEPT: u8 = 1;
/// A [`Grid::fitted`] cell's bit: the mask keeps it and it is drawn.
const SET: u8 = 2;

/// What [`Grid::fitted`] reads of one line of an axis.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// The mask differs from the line before.
    mask_changes: bool,
    /// The mask or the kept content differs from the line before.
    changes: bool,
    /// The line has a cell the mask regenerates.
    regenerated: bool,
}

/// The run starts of one axis of [`Grid::fitted`], from its lines.
fn axis_starts(lines: &ScanLines, axis: usize, of: &[Line], rng: &mut ChaCha8Rng) -> Vec<bool> {
    const DRAWN: u8 = 1;
    const CONTENT: u8 = 2;
    const MASK: u8 = 3;
    let len = of.len();
    // Per line, why a run starts there (0: it does not).
    let mut starts: Vec<u8> = (of.iter().enumerate())
        .map(|(i, line)| match line {
            _ if i == 0 || line.mask_changes => MASK,
            Line { changes: true, .. } => CONTENT,
            _ => 0,
        })
        .collect();
    let regenerated: Vec<bool> = of.iter().map(|line| line.regenerated).collect();
    // Runs drawn inside every span of lines with cells to regenerate.
    let mut drawn = vec![false; len];
    let mut i = 0;
    while i < len {
        let end = (i..len).find(|&e| !regenerated[e]).unwrap_or(len);
        if end > i {
            lines.draw_runs(axis, i..end, usize::MAX, rng, &mut drawn);
        }
        i = end + 1;
    }
    for (start, drawn) in starts.iter_mut().zip(drawn) {
        if *start == 0 && drawn {
            *start = DRAWN;
        }
    }
    let bound = lines.bound(axis, len);
    let count = starts.iter().filter(|&&start| start != 0).count();
    if count > bound {
        // Keep the first line's start, then as many of each kind as
        // fit, most important first, each kind thinned evenly.
        let mut budget = bound - 1;
        let mut kept = Vec::with_capacity(budget);
        for kind in [MASK, CONTENT, DRAWN] {
            let of_kind: Vec<usize> = (1..len).filter(|&i| starts[i] == kind).collect();
            let take = budget.min(of_kind.len());
            kept.extend(evenly(&of_kind, take));
            budget -= take;
        }
        starts.fill(0);
        starts[0] = MASK;
        for i in kept {
            starts[i] = MASK;
        }
    }
    starts.into_iter().map(|start| start != 0).collect()
}

/// `k` of `items` (`k ≤ items.len()`), spread evenly: the middle item of
/// each of `k` equal shares.
fn evenly(items: &[usize], k: usize) -> Vec<usize> {
    let n = items.len();
    (0..k).map(|j| items[(2 * j + 1) * n / (2 * k)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn lines_of(topologies: &[Topology]) -> ScanLines {
        ScanLines::fit(topologies).0
    }

    #[test]
    fn fitting_reads_the_runs_normalization_repeated() {
        // Two minimal lines a row: `#.` stretched to 2 + 3 columns, and
        // rows 1 + 3.
        let t = Topology::from_fn(4, 5, |r, c| r == 0 && c < 2);
        let (lines, minimal) = ScanLines::fit(&[t]);
        assert_eq!(minimal, [Topology::from_ascii("#.\n..")]);
        assert_eq!(lines.runs, [vec![1, 3], vec![2, 3]]);
        assert_eq!(lines.most, [(2, 4), (2, 5)]);
        assert_eq!((lines.bound(0, 4), lines.bound(1, 5)), (2, 2));
        // Scaled to the call's size, rounded up.
        assert_eq!(
            (lines.bound(0, 8), lines.bound(0, 9), lines.bound(0, 1)),
            (4, 5, 1)
        );
    }

    #[test]
    fn a_drawn_grid_covers_the_call_and_respects_the_bound() {
        let data: Vec<Topology> = (1..5)
            .map(|k| Topology::from_fn(32, 32, move |r, c| (r / k + c / (k + 1)) % 2 == 0))
            .collect();
        let lines = lines_of(&data);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (rows, cols) in [(1, 1), (32, 32), (7, 90), (64, 17)] {
            let grid = Grid::drawn(&lines, rows, cols, &mut rng);
            assert_eq!((grid.row_of.len(), grid.col_of.len()), (rows, cols));
            assert!(grid.rows <= lines.bound(0, rows) && grid.cols <= lines.bound(1, cols));
            assert_eq!(grid.row_of.last().map(|&r| r as usize + 1), Some(grid.rows));
            let reduced: Vec<u8> = (0..grid.rows * grid.cols)
                .map(|i| (i % 3 == 0).into())
                .collect();
            let fine = grid.expand(&reduced);
            for (i, &bit) in fine.iter().enumerate() {
                let (r, c) = (
                    grid.row_of[i / cols] as usize,
                    grid.col_of[i % cols] as usize,
                );
                assert_eq!(bit, reduced[r * grid.cols + c]);
            }
        }
        // No fitted runs: one line a run.
        let grid = Grid::drawn(&ONE_LINE_RUNS, 5, 3, &mut rng);
        assert_eq!((grid.rows, grid.cols), (5, 3));
    }

    #[test]
    fn a_fitted_grid_splits_at_the_mask_and_the_kept_content() {
        // 12 × 12: rows 0..6 kept, their content changing at row 3; the
        // rest regenerated.
        let known = Topology::from_fn(12, 12, |r, c| r >= 3 && c < 4);
        let mask = Mask::from_fn(12, 12, |r, _| r < 6);
        let lines = lines_of(&[Topology::from_fn(12, 12, |r, c| (r + c) % 2 == 0)]);
        let grid = Grid::fitted(&lines, &known, &mask, &mut ChaCha8Rng::seed_from_u64(1));
        let row_starts: Vec<usize> = (1..12)
            .filter(|&r| grid.row_of[r] != grid.row_of[r - 1])
            .collect();
        // The kept span's two runs, then the regenerated span in runs of
        // one (the checkerboard's only run length).
        assert_eq!(row_starts, [3, 6, 7, 8, 9, 10, 11]);
        // Columns: the kept content changes at column 4, and every
        // column has cells to regenerate, so runs of one are drawn too.
        assert_eq!(grid.cols, 12);
        let (known, kept) = grid.reduce(known.as_bytes(), mask.as_topology().as_bytes());
        let kept_rows: Vec<u8> = kept.chunks(12).map(|row| row[0]).collect();
        assert_eq!(kept_rows, [1, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(&known[12..16], [1, 1, 1, 1]);
    }

    #[test]
    fn past_the_bound_starts_are_thinned_mask_changes_first() {
        // Every line differs from the next, but the style had two rows
        // and one column.
        let lines = lines_of(&[Topology::from_fn(8, 8, |r, _| r < 4)]);
        let known = Topology::from_fn(8, 8, |r, c| (r + c) % 2 == 0);
        let mask = Mask::from_fn(8, 8, |r, _| r != 5);
        let grid = Grid::fitted(&lines, &known, &mask, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!((grid.rows, grid.cols), (2, 1));
        // The one start the bound leaves is a mask change (row 5 or 6).
        let start = (1..8).find(|&r| grid.row_of[r] == 1);
        assert!(matches!(start, Some(5 | 6)), "{start:?}");
    }

    #[test]
    fn reduction_keeps_a_cell_with_half_its_block_and_carries_the_majority() {
        let grid = Grid::new(&[true, false], &[true, false, false, false]);
        // One reduced cell over 2 × 4: kept on 5 cells, 3 of them drawn.
        let mask = [1, 1, 1, 0, 1, 1, 0, 0];
        let known = [1, 0, 1, 1, 1, 0, 0, 0];
        assert_eq!(grid.reduce(&known, &mask), (vec![1], vec![1]));
        // Kept on 4 of 8 (still kept), 2 of them drawn: a tie, drawn.
        let mask = [1, 1, 0, 0, 1, 1, 0, 0];
        let known = [1, 0, 1, 1, 0, 1, 1, 1];
        assert_eq!(grid.reduce(&known, &mask), (vec![1], vec![1]));
        // Kept on 3 of 8: regenerated.
        let mask = [1, 1, 0, 0, 1, 0, 0, 0];
        assert_eq!(grid.reduce(&known, &mask).1, [0]);
    }
}
