//! The one-pass reader and writer of byte arrays (`u8_seq`, which a
//! topology's `bits` goes through) against the element loop they stand
//! in for: the same bytes read or the same error text, the same reader
//! position after, and the same text written. Runs of one-digit members
//! of every length up to 200 carry one anomaly at every offset, so on
//! both sides of every 64-byte chunk edge of the reader's fast path.
//! Seeded loops, no clock: a failure names the text it failed on.

use serde::text::{TextReader, TextWriter};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// SplitMix64: enough of a generator for picking digits and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn digits(&mut self, length: usize) -> Vec<String> {
        (0..length)
            .map(|_| (self.next() % 10).to_string())
            .collect()
    }
}

/// What reading `text` in one pass, or by the element loop, makes of
/// it: the bytes, or the error's text, and then what the reader says
/// of the rest (a trailing byte's offset).
fn outcome(text: &str, one_pass: bool) -> Result<(Vec<u8>, Result<(), String>), String> {
    let mut reader = TextReader::new(text);
    let bytes = if one_pass {
        reader.u8_seq()
    } else {
        Vec::<u8>::deserialize(&mut reader)
    };
    let bytes = bytes.map_err(|error| error.to_string())?;
    Ok((bytes, reader.finish().map_err(|error| error.to_string())))
}

/// Reads `text` both ways and insists they agree.
fn agrees(text: &str) {
    assert_eq!(outcome(text, true), outcome(text, false), "{text}");
}

/// Member spellings that are not one digit: some a byte all the same,
/// the rest refused, each in its own words.
const ODD_MEMBERS: [&str; 8] = ["10", "255", "256", "-1", "1.0", "1e0", "01", "x"];

/// Every offset on the optimised build, where the chunk loop is
/// vector code; a seeded fifth of them on a debug build, which reads
/// forty times slower.
const STRIDE: usize = if cfg!(debug_assertions) { 5 } else { 1 };

#[test]
fn one_anomaly_at_every_offset_reads_as_the_element_loop_does() {
    let mut rng = Rng(0x5eed_0036);
    for length in 0..=200usize {
        let members = rng.digits(length);
        let plain = format!("[{}]", members.join(","));
        agrees(&plain);
        agrees(&format!("{plain} 7"));
        let phase = (rng.next() % STRIDE as u64) as usize;
        for at in (phase..=length).step_by(STRIDE) {
            for odd in ODD_MEMBERS {
                let mut spelled = members.clone();
                spelled.insert(at, odd.to_owned());
                agrees(&format!("[{}]", spelled.join(",")));
            }
            // Whitespace beside the comma after member `at`.
            if at + 1 < length {
                let (head, tail) = members.split_at(at + 1);
                let comma = [" ,", ", ", "\n,\t"][at % 3];
                agrees(&format!("[{}{comma}{}]", head.join(","), tail.join(",")));
            }
            // Cut short after `at` members: a trailing comma, or no `]`.
            let head = members[..at].join(",");
            agrees(&format!("[{head},]"));
            agrees(&format!("[{head}"));
        }
    }
}

/// A chunk's last pair is left to the element loop because the next
/// byte may still belong to its member: here the 32nd pair after the
/// first member is `,1`, and the `0` behind it makes it ten. A reader
/// that took that pair with the chunk would read a 1 and then refuse
/// the `0`.
#[test]
fn a_ten_across_a_chunk_edge_is_read_as_ten() {
    let text = format!("[0{}{}{}]", ",0".repeat(31), ",10", ",1".repeat(40));
    let mut expected = vec![0; 32];
    expected.push(10);
    expected.extend([1; 40]);
    assert_eq!(outcome(&text, true), Ok((expected, Ok(()))));
    agrees(&text);
}

/// What the one-pass writer and the element loop write for `bytes`.
fn written(bytes: &[u8]) -> (String, String) {
    let mut one_pass = TextWriter::default();
    one_pass.u8_seq(bytes);
    let mut element_loop = TextWriter::default();
    bytes.serialize(&mut element_loop);
    (one_pass.finish(), element_loop.finish())
}

#[test]
fn the_writer_writes_what_the_element_loop_writes() {
    let mut rng = Rng(0x5eed_0037);
    let mut cases: Vec<Vec<u8>> = vec![Vec::new(), vec![0], vec![1], vec![9], vec![10]];
    for length in 0..=200usize {
        cases.push((0..length).map(|_| (rng.next() % 2) as u8).collect());
        cases.push((0..length).map(|_| (rng.next() % 10) as u8).collect());
        cases.push((0..length).map(|_| rng.next() as u8).collect());
        if length > 0 {
            let mut one_wide = vec![1; length];
            one_wide[rng.next() as usize % length] = [10, 99, 100, 255][length % 4];
            cases.push(one_wide);
        }
    }
    for bytes in cases {
        let (one_pass, element_loop) = written(&bytes);
        assert_eq!(one_pass, element_loop, "{bytes:?}");
        assert_eq!(outcome(&one_pass, true), Ok((bytes, Ok(()))));
    }
}

/// As a member and as a field, where the writer's separators depend
/// on what was written before.
#[test]
fn the_writer_separates_as_the_element_loop_does() {
    let mut one_pass = TextWriter::default();
    one_pass.seq_begin();
    for bytes in [&[][..], &[1, 0], &[12]] {
        one_pass.seq_element();
        one_pass.u8_seq(bytes);
    }
    one_pass.seq_end();
    assert_eq!(one_pass.finish(), "[[],[1,0],[12]]");
    let mut one_pass = TextWriter::default();
    one_pass.map_begin();
    one_pass.map_key("a");
    one_pass.u8_seq(&[]);
    one_pass.map_key("b");
    one_pass.u8_seq(&[0, 1]);
    one_pass.map_end();
    assert_eq!(one_pass.finish(), r#"{"a":[],"b":[0,1]}"#);
}
