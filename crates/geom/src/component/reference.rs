//! The flood fill that [`label_components`](super::label_components)
//! replaced, kept verbatim as the test oracle: the run-based labeller
//! must return the same label of every cell, the same count and the
//! same bounding boxes as the scan here (see the equivalence tests in
//! `component.rs`).

/// The label of an unset cell.
pub(super) const EMPTY: u32 = u32::MAX;

/// Labels 4-connected components of the grid defined by `is_set`:
/// the row-major label grid ([`EMPTY`] for unset cells) and the number
/// of components.
pub(super) fn label_components(
    rows: usize,
    cols: usize,
    is_set: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, u32) {
    let mut labels = vec![EMPTY; rows * cols];
    let mut count = 0u32;
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for r0 in 0..rows {
        for c0 in 0..cols {
            if !is_set(r0, c0) || labels[r0 * cols + c0] != EMPTY {
                continue;
            }
            let id = count;
            count += 1;
            stack.push((r0, c0));
            labels[r0 * cols + c0] = id;
            while let Some((r, c)) = stack.pop() {
                let mut visit = |nr: usize, nc: usize| {
                    if is_set(nr, nc) && labels[nr * cols + nc] == EMPTY {
                        labels[nr * cols + nc] = id;
                        stack.push((nr, nc));
                    }
                };
                if r > 0 {
                    visit(r - 1, c);
                }
                if r + 1 < rows {
                    visit(r + 1, c);
                }
                if c > 0 {
                    visit(r, c - 1);
                }
                if c + 1 < cols {
                    visit(r, c + 1);
                }
            }
        }
    }
    (labels, count)
}

/// Grid-space bounding boxes `(row0, col0, row1, col1)` (inclusive) of
/// components `0..=count`, from one scan of the whole label grid; `None`
/// for a label no cell carries.
pub(super) fn bboxes(
    labels: &[u32],
    cols: usize,
    count: u32,
) -> Vec<Option<(usize, usize, usize, usize)>> {
    let mut bboxes: Vec<Option<(usize, usize, usize, usize)>> = vec![None; count as usize + 1];
    for (i, &id) in labels.iter().enumerate() {
        let (r, c) = (i / cols, i % cols);
        if let Some(bbox) = bboxes.get_mut(id as usize) {
            *bbox = Some(match *bbox {
                None => (r, c, r, c),
                Some((r0, c0, r1, c1)) => (r0.min(r), c0.min(c), r1.max(r), c1.max(c)),
            });
        }
    }
    bboxes
}
