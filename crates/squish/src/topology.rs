//! Binary topology matrices.

use crate::Region;
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

/// The most cells the topologies one request asks for may total, 4 Mi.
/// A reply carries a topology as `{"bits":[…]}`, two bytes a cell, and
/// a reply line is capped at 8 MiB (`cp_net::DEFAULT_MAX_LINE_BYTES`),
/// so more could not be delivered at all — a request may spell its own
/// topologies packed, a quarter of a byte a cell, but what it asks for
/// comes back as `bits`. Sizes arrive off the wire and out of natural
/// language: whoever receives one holds it against this before
/// `rows × cols` is computed unchecked, let alone allocated. The
/// paper's largest target, an 8× extension to 1024 × 1024, is a
/// quarter of it.
pub const MAX_REQUEST_CELLS: usize = 4 << 20;

/// Whether `count` topologies of `rows × cols` total no more than
/// [`MAX_REQUEST_CELLS`] cells, worked out without overflow.
#[must_use]
pub fn fits_one_request(rows: usize, cols: usize, count: usize) -> bool {
    rows.checked_mul(cols)
        .and_then(|cells| cells.checked_mul(count))
        .is_some_and(|cells| cells <= MAX_REQUEST_CELLS)
}

/// A binary topology matrix `T` of a squish pattern.
///
/// Stored row-major, one byte per cell (cheap, simple, and the sizes in
/// play — up to a few 1024×1024 matrices — stay in the megabyte range).
///
/// # Example
///
/// ```
/// use cp_squish::Topology;
/// let mut t = Topology::filled(4, 4, false);
/// t.set(1, 2, true);
/// assert!(t.get(1, 2));
/// assert_eq!(t.count_ones(), 1);
/// ```
///
/// # Text forms
///
/// A topology is written as `{"bits":[0,1,…],"cols":C,"rows":R}`, one
/// number a cell, row-major: the form of every request key, reply and
/// pinned digest. It is read from that or from the packed form
/// [`Packed`] writes, `{"cols":C,"packed":"…","rows":R}`: `R·⌈C/4⌉`
/// lower-case hex digits, row-major, every row starting on a digit, a
/// digit's most significant bit its leftmost cell, the unused low bits
/// of a row's last digit zero. Whichever it reads, the reader refuses
/// what the constructors would (an empty matrix, cells that are not
/// `rows × cols` many or not 0 or 1) and what only text can get wrong
/// (both forms or neither, a digit that is not one, a set pad bit).
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Topology {
    rows: usize,
    cols: usize,
    bits: Vec<u8>,
}

impl Topology {
    /// Creates a matrix with every cell set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: bool) -> Topology {
        assert!(rows > 0 && cols > 0, "topology must be non-empty");
        Topology {
            rows,
            cols,
            bits: vec![u8::from(value); rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every cell.
    ///
    /// Cells are evaluated row-major, each exactly once — `f` may be a
    /// stateful generator (a random draw per cell, an iterator's next
    /// item).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Topology {
        assert!(rows > 0 && cols > 0, "topology must be non-empty");
        let mut bits = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            bits.extend((0..cols).map(|c| u8::from(f(r, c))));
        }
        Topology { rows, cols, bits }
    }

    /// Creates a matrix from its row-major cell bytes, the form
    /// [`Topology::as_bytes`] returns — for producers that compute
    /// cells a slice at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, `bits` is not `rows × cols`
    /// long, or a byte is neither 0 nor 1.
    #[must_use]
    pub fn from_bytes(rows: usize, cols: usize, bits: Vec<u8>) -> Topology {
        assert!(rows > 0 && cols > 0, "topology must be non-empty");
        assert_eq!(
            Some(bits.len()),
            rows.checked_mul(cols),
            "one byte per cell"
        );
        assert!(cells_are_binary(&bits), "cell bytes are 0 or 1");
        Topology { rows, cols, bits }
    }

    /// Creates a matrix from rows of `0`/`1` characters (`#` also counts
    /// as set; spaces/`.`/`0` count as clear). Handy in tests.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    #[must_use]
    pub fn from_ascii(art: &str) -> Topology {
        let lines: Vec<&str> = art
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        assert!(!lines.is_empty(), "empty topology art");
        let cols = lines[0].chars().count();
        assert!(
            lines.iter().all(|l| l.chars().count() == cols),
            "ragged topology art"
        );
        Topology::from_fn(lines.len(), cols, |r, c| {
            matches!(lines[r].chars().nth(c), Some('1') | Some('#'))
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false: topology matrices are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.rows && col < self.cols,
            "topology index out of bounds"
        );
        self.bits[row * self.cols + col] != 0
    }

    /// Sets cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            row < self.rows && col < self.cols,
            "topology index out of bounds"
        );
        self.bits[row * self.cols + col] = u8::from(value);
    }

    /// Sets every cell in the half-open block `[row0, row1) × [col0,
    /// col1)` — one contiguous slice fill per row instead of a bounds
    /// check per cell, which is what the squish encoder's rect-stabbing
    /// loop wants.
    ///
    /// # Panics
    ///
    /// Panics when the block is inverted or reaches out of bounds.
    pub fn fill_block(&mut self, row0: usize, row1: usize, col0: usize, col1: usize, value: bool) {
        assert!(
            row0 <= row1 && row1 <= self.rows && col0 <= col1 && col1 <= self.cols,
            "topology block out of bounds"
        );
        let byte = u8::from(value);
        for row in row0..row1 {
            let start = row * self.cols;
            self.bits[start + col0..start + col1].fill(byte);
        }
    }

    /// Raw row-major cell bytes (0 or 1).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Number of set cells.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b != 0).count()
    }

    /// Fraction of set cells in `0.0..=1.0`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.len() as f64
    }

    /// Iterates cells row-major as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        let cols = self.cols;
        self.bits
            .iter()
            .enumerate()
            .map(move |(i, &b)| (i / cols, i % cols, b != 0))
    }

    /// Extracts the sub-matrix covered by `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` exceeds the matrix bounds.
    #[must_use]
    pub fn window(&self, region: Region) -> Topology {
        assert!(
            region.row1() <= self.rows && region.col1() <= self.cols,
            "window {region:?} outside {}x{}",
            self.rows,
            self.cols
        );
        assert!(
            region.height() > 0 && region.width() > 0,
            "topology must be non-empty"
        );
        let mut bits = Vec::with_capacity(region.height() * region.width());
        for row in region.row0()..region.row1() {
            let start = row * self.cols;
            bits.extend_from_slice(&self.bits[start + region.col0()..start + region.col1()]);
        }
        Topology {
            rows: region.height(),
            cols: region.width(),
            bits,
        }
    }

    /// Pastes `src` with its top-left corner at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit.
    pub fn paste(&mut self, src: &Topology, row0: usize, col0: usize) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "paste of {}x{} at ({row0},{col0}) outside {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for r in 0..src.rows {
            let dst_off = (row0 + r) * self.cols + col0;
            let src_off = r * src.cols;
            self.bits[dst_off..dst_off + src.cols]
                .copy_from_slice(&src.bits[src_off..src_off + src.cols]);
        }
    }

    /// Horizontal mirror (left-right flip).
    #[must_use]
    pub fn flipped_horizontal(&self) -> Topology {
        Topology::from_fn(self.rows, self.cols, |r, c| self.get(r, self.cols - 1 - c))
    }

    /// Vertical mirror (top-bottom flip).
    #[must_use]
    pub fn flipped_vertical(&self) -> Topology {
        Topology::from_fn(self.rows, self.cols, |r, c| self.get(self.rows - 1 - r, c))
    }

    /// Quarter-turn clockwise rotation.
    #[must_use]
    pub fn rotated_cw(&self) -> Topology {
        Topology::from_fn(self.cols, self.rows, |r, c| self.get(self.rows - 1 - c, r))
    }

    /// True when two adjacent columns hold identical bits.
    #[must_use]
    pub fn cols_equal(&self, a: usize, b: usize) -> bool {
        (0..self.rows).all(|r| self.get(r, a) == self.get(r, b))
    }

    /// True when two adjacent rows hold identical bits.
    #[must_use]
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        let (a0, b0) = (a * self.cols, b * self.cols);
        self.bits[a0..a0 + self.cols] == self.bits[b0..b0 + self.cols]
    }

    /// Duplicates column `col`, increasing `cols` by one. The duplicate is
    /// inserted immediately after the original, preserving topology
    /// (used by fixed-size normalization: splitting a Δx interval).
    pub fn duplicate_col(&mut self, col: usize) {
        assert!(col < self.cols, "column out of bounds");
        let mut bits = Vec::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            let off = r * self.cols;
            bits.extend_from_slice(&self.bits[off..=off + col]);
            bits.push(self.bits[off + col]);
            bits.extend_from_slice(&self.bits[off + col + 1..off + self.cols]);
        }
        self.cols += 1;
        self.bits = bits;
    }

    /// Duplicates row `row`, increasing `rows` by one.
    pub fn duplicate_row(&mut self, row: usize) {
        assert!(row < self.rows, "row out of bounds");
        let off = row * self.cols;
        let dup: Vec<u8> = self.bits[off..off + self.cols].to_vec();
        let insert_at = off + self.cols;
        self.bits.splice(insert_at..insert_at, dup);
        self.rows += 1;
    }

    /// Counts maximal runs of set cells in row `row` (shape slices).
    #[must_use]
    pub fn row_runs(&self, row: usize) -> Vec<(usize, usize)> {
        runs((0..self.cols).map(|c| self.get(row, c)))
    }

    /// Counts maximal runs of set cells in column `col`.
    #[must_use]
    pub fn col_runs(&self, col: usize) -> Vec<(usize, usize)> {
        runs((0..self.rows).map(|r| self.get(r, col)))
    }
}

/// Whether every byte is 0 or 1. An OR over the whole slice, not a
/// search for the first offender: this runs on every cell a sampler
/// step or a request line produces, and only a loop that cannot stop
/// early vectorises.
fn cells_are_binary(bits: &[u8]) -> bool {
    bits.iter().fold(0, |seen, &bit| seen | bit) <= 1
}

/// Writes the topology it borrows — a [`Topology`], or the one inside a
/// [`crate::SquishPattern`] — in the packed form (one bit a cell; the
/// grammar is in [`Topology`]'s docs) and everything else about the
/// value as the value itself would. Session snapshots are written
/// through it; requests may be.
///
/// ```
/// use cp_squish::{Packed, Topology};
/// let t = Topology::from_ascii("#.#.#\n.....");
/// let text = serde_json::to_string(&Packed(&t)).unwrap();
/// assert_eq!(text, r#"{"cols":5,"packed":"a800","rows":2}"#);
/// assert_eq!(serde_json::from_str::<Topology>(&text).unwrap(), t);
/// ```
#[derive(Debug)]
pub struct Packed<'a, T>(pub &'a T);

impl Serialize for Packed<'_, Topology> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let Topology { rows, cols, bits } = self.0;
        let mut digits = Vec::with_capacity(rows * cols.div_ceil(4));
        for row in bits.chunks_exact(*cols) {
            let quads = row.chunks_exact(4);
            let tail = quads.remainder();
            digits.extend(quads.map(|quad| {
                HEX[usize::from(quad[0] << 3 | quad[1] << 2 | quad[2] << 1 | quad[3])]
            }));
            if !tail.is_empty() {
                let cells = tail.iter().fold(0, |cells, &cell| cells << 1 | cell);
                digits.push(HEX[usize::from(cells << (4 - tail.len()))]);
            }
        }
        s.map_begin();
        s.map_key("cols");
        cols.serialize(s);
        s.map_key("packed");
        s.str(std::str::from_utf8(&digits).expect("hex digits are ASCII"));
        s.map_key("rows");
        rows.serialize(s);
        s.map_end();
    }
}

/// What a topology's text may hold, before any of it is believed:
/// the shape and the cells in one of the two forms.
#[derive(Deserialize)]
struct TopologyText {
    rows: usize,
    cols: usize,
    bits: Option<Vec<u8>>,
    packed: Option<String>,
}

/// The one reader of both forms. Text comes from outside the program,
/// so nothing is allocated from `rows` or `cols` until the cells that
/// came with them have been counted against them.
impl Deserialize for Topology {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Topology, Error> {
        let refuse = |what: &str| Err(Error::custom(format!("topology: {what}")));
        let TopologyText {
            rows,
            cols,
            bits,
            packed,
        } = TopologyText::deserialize(d)?;
        if rows == 0 || cols == 0 {
            return refuse("rows and cols are at least 1");
        }
        let Some(cells) = rows.checked_mul(cols) else {
            return refuse("rows x cols overflows");
        };
        let bits = match (bits, packed) {
            (Some(bits), None) => {
                if bits.len() != cells {
                    return refuse("bits is not rows x cols long");
                }
                if !cells_are_binary(&bits) {
                    return refuse("a bits entry is neither 0 nor 1");
                }
                bits
            }
            (None, Some(packed)) => {
                if packed.len() != rows * cols.div_ceil(4) {
                    return refuse("packed is not rows x ceil(cols / 4) digits long");
                }
                let mut bits = vec![0; cells];
                // Every digit's value ORed together (0xff for what is
                // not a digit), and every pad bit.
                let (mut seen, mut pad) = (0u8, 0u8);
                let digit_rows = packed.as_bytes().chunks_exact(cols.div_ceil(4));
                for (row, digits) in bits.chunks_exact_mut(cols).zip(digit_rows) {
                    let mut quads = row.chunks_exact_mut(4);
                    for (quad, &digit) in quads.by_ref().zip(digits) {
                        let value = hex_value(digit);
                        seen |= value;
                        quad.copy_from_slice(&[
                            value >> 3 & 1,
                            value >> 2 & 1,
                            value >> 1 & 1,
                            value & 1,
                        ]);
                    }
                    let tail = quads.into_remainder();
                    if !tail.is_empty() {
                        let value = hex_value(digits[cols / 4]);
                        seen |= value;
                        pad |= value & (0xf >> tail.len());
                        for (at, cell) in tail.iter_mut().enumerate() {
                            *cell = value >> (3 - at) & 1;
                        }
                    }
                }
                if seen > 0xf {
                    return refuse("packed holds something other than 0-9 and a-f");
                }
                if pad != 0 {
                    return refuse("packed has a bit set past the last column of a row");
                }
                bits
            }
            (Some(_), Some(_)) => return refuse("both bits and packed are given"),
            (None, None) => return refuse("neither bits nor packed is given"),
        };
        Ok(Topology { rows, cols, bits })
    }
}

/// The value of a lower-case hex digit; 0xff for any other byte.
fn hex_value(digit: u8) -> u8 {
    match digit {
        b'0'..=b'9' => digit - b'0',
        b'a'..=b'f' => digit - b'a' + 10,
        _ => 0xff,
    }
}

/// Maximal runs of `true` over a boolean sequence: `(start, end)` inclusive.
fn runs(seq: impl Iterator<Item = bool>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    let mut last = 0usize;
    for (i, v) in seq.enumerate() {
        last = i;
        match (v, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push((s, i - 1));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, last));
    }
    out
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Topology({}x{}):", self.rows, self.cols)?;
        // Cap debug output for huge matrices.
        let max = 32usize;
        for r in 0..self.rows.min(max) {
            for c in 0..self.cols.min(max) {
                f.write_str(if self.get(r, c) { "#" } else { "." })?;
            }
            if self.cols > max {
                f.write_str("…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ascii_round_trip() {
        let t = Topology::from_ascii(
            "##..
             .#..
             ...#",
        );
        assert_eq!(t.shape(), (3, 4));
        assert!(t.get(0, 0) && t.get(0, 1) && t.get(1, 1) && t.get(2, 3));
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    fn from_bytes_is_the_inverse_of_as_bytes() {
        let t = Topology::from_ascii(
            "##.
             ..#",
        );
        assert_eq!(Topology::from_bytes(2, 3, t.as_bytes().to_vec()), t);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn from_bytes_refuses_a_byte_that_is_not_a_cell() {
        let _ = Topology::from_bytes(1, 2, vec![1, 2]);
    }

    /// The check is an OR over the slice: it has to see an offender
    /// wherever it sits, whatever it is (0x80 and 0xff have the bit a
    /// signed compare would miss), in the scalar tail as in the vector
    /// body.
    #[test]
    fn from_bytes_refuses_a_bad_byte_wherever_it_sits() {
        for len in [1, 31, 32, 33, 16_384] {
            for at in [0, len / 2, len - 1] {
                for bad in [2, 0x80, 0xff] {
                    let mut bits = vec![1; len];
                    bits[at] = bad;
                    let panic = std::panic::catch_unwind(|| Topology::from_bytes(1, len, bits))
                        .expect_err("refused");
                    let message = panic.downcast_ref::<&str>().expect("a literal message");
                    assert_eq!(*message, "cell bytes are 0 or 1", "{bad} at {at} of {len}");
                }
            }
            let _ = Topology::from_bytes(len, 1, vec![1; len]);
        }
    }

    #[test]
    fn the_reader_refuses_what_the_constructors_would() {
        for (text, why) in [
            (
                r#"{"rows":4,"cols":4,"bits":[1,1,0]}"#,
                "bits is not rows x cols long",
            ),
            (r#"{"rows":2,"cols":2,"bits":[1,2,7,0]}"#, "neither 0 nor 1"),
            (r#"{"rows":0,"cols":0,"bits":[]}"#, "at least 1"),
            (r#"{"rows":1,"cols":0,"packed":""}"#, "at least 1"),
            (
                r#"{"rows":3000000,"cols":3000000,"packed":""}"#,
                "digits long",
            ),
            (
                r#"{"rows":3000000,"cols":3000000,"bits":[]}"#,
                "bits is not rows x cols long",
            ),
            (
                r#"{"rows":4294967296,"cols":4294967296,"packed":""}"#,
                "overflows",
            ),
            (r#"{"rows":1,"cols":5,"packed":"a"}"#, "digits long"),
            (
                r#"{"rows":1,"cols":4,"packed":"a","bits":[1,0,1,0]}"#,
                "both bits and packed",
            ),
            (r#"{"rows":1,"cols":4}"#, "neither bits nor packed"),
            (
                r#"{"rows":1,"cols":4,"packed":"A"}"#,
                "other than 0-9 and a-f",
            ),
            (
                r#"{"rows":2,"cols":4,"packed":"a "}"#,
                "other than 0-9 and a-f",
            ),
            (
                r#"{"rows":1,"cols":3,"packed":"1"}"#,
                "past the last column",
            ),
            (
                r#"{"rows":2,"cols":5,"packed":"00f4"}"#,
                "past the last column",
            ),
            (r#"{"cols":4,"packed":"a"}"#, "expected number, found null"),
        ] {
            let refusal = serde_json::from_str::<Topology>(text).expect_err(text);
            assert!(refusal.to_string().contains(why), "{text}: {refusal}");
        }
        // Keys in any order, unknown ones skipped, as the derive read.
        let read: Topology =
            serde_json::from_str(r#"{"packed":"a8f8","note":7,"rows":2,"cols":5}"#).expect("reads");
        assert_eq!(read, Topology::from_ascii("#.#.#\n#####"));
    }

    #[test]
    #[should_panic(expected = "one byte per cell")]
    fn from_bytes_refuses_the_wrong_length() {
        let _ = Topology::from_bytes(2, 2, vec![0; 3]);
    }

    #[test]
    fn window_and_paste_round_trip() {
        let t = Topology::from_ascii(
            "####
             #..#
             ####",
        );
        let w = t.window(Region::new(1, 1, 3, 3));
        assert_eq!(w.shape(), (2, 2));
        assert!(!w.get(0, 0) && !w.get(0, 1));
        let mut big = Topology::filled(5, 5, false);
        big.paste(&t, 1, 1);
        assert!(big.get(1, 1) && big.get(3, 4) && !big.get(0, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn paste_out_of_bounds_panics() {
        let mut t = Topology::filled(3, 3, false);
        let s = Topology::filled(2, 2, true);
        t.paste(&s, 2, 2);
    }

    #[test]
    fn flips_and_rotation() {
        let t = Topology::from_ascii(
            "#.
             ..",
        );
        assert!(t.flipped_horizontal().get(0, 1));
        assert!(t.flipped_vertical().get(1, 0));
        let r = t.rotated_cw();
        assert_eq!(r.shape(), (2, 2));
        assert!(r.get(0, 1));
    }

    #[test]
    fn rotation_four_times_is_identity() {
        let t = Topology::from_ascii(
            "##.
             ..#",
        );
        let r4 = t.rotated_cw().rotated_cw().rotated_cw().rotated_cw();
        assert_eq!(t, r4);
    }

    #[test]
    fn duplicate_col_preserves_pattern_shape() {
        let mut t = Topology::from_ascii(
            "#.#
             .#.",
        );
        t.duplicate_col(1);
        assert_eq!(t.cols(), 4);
        assert!(t.cols_equal(1, 2));
        assert!(t.get(1, 1) && t.get(1, 2) && !t.get(0, 1));
    }

    #[test]
    fn duplicate_row_preserves_pattern_shape() {
        let mut t = Topology::from_ascii(
            "#.
             .#",
        );
        t.duplicate_row(0);
        assert_eq!(t.rows(), 3);
        assert!(t.rows_equal(0, 1));
        assert!(t.get(2, 1));
    }

    #[test]
    fn row_and_col_runs() {
        let t = Topology::from_ascii(
            "##.##
             .....
             #####",
        );
        assert_eq!(t.row_runs(0), vec![(0, 1), (3, 4)]);
        assert_eq!(t.row_runs(1), vec![]);
        assert_eq!(t.row_runs(2), vec![(0, 4)]);
        assert_eq!(t.col_runs(0), vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn density_of_half_filled() {
        let t = Topology::from_fn(2, 2, |r, _| r == 0);
        assert!((t.density() - 0.5).abs() < 1e-12);
    }
}
