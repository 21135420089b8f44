//! `RawValue` and the validating scan behind it (`Deserializer::raw`,
//! `TextReader::skip`): a program that forwards a value's text unread
//! promises the next reader that it *is* a value, so the scan has to
//! accept exactly what reading the text as a `Value` accepts — on
//! generated texts, on texts with a byte knocked out of place, at the
//! nesting bound, and wherever the edge of a fast-path chunk falls.
//! Seeded loops, no clock: a failure names the text it failed on.

use serde::text::MAX_DEPTH;
use serde::{Deserialize, Serialize};
use serde_json::value::{to_raw_value, RawValue};
use serde_json::{from_str, from_value, json, to_string, to_value, Value};

/// SplitMix64: enough of a generator for picking shapes and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Whitespace as a client may put it between any two tokens.
fn gap(rng: &mut Rng, out: &mut String) {
    if rng.below(4) == 0 {
        out.push_str(rng.pick(&[" ", "\t", "\r", "  ", " \t "]));
    }
}

/// One well-formed value, in every spelling the reader takes.
fn value_text(rng: &mut Rng, depth: usize, out: &mut String) {
    let scalar = depth == 0 || rng.below(3) > 0;
    if scalar {
        match rng.below(3) {
            0 => out.push_str(rng.pick(&["null", "true", "false"])),
            1 => out.push_str(rng.pick(&[
                "0",
                "1",
                "7",
                "10",
                "-1",
                "-0",
                "1.5",
                "1e3",
                "2E-2",
                "01",
                "+1",
                "1.",
                ".5",
                "18446744073709551615",
                "18446744073709551616",
                "-9223372036854775809",
                "1e400",
            ])),
            _ => {
                out.push('"');
                for _ in 0..rng.below(6) {
                    out.push_str(rng.pick(&[
                        "a",
                        "é",
                        "😀",
                        " ",
                        "\\n",
                        "\\\"",
                        "\\\\",
                        "\\/",
                        "\\u0041",
                        "\\ud83d",
                        "\\ud83d\\ude00",
                        "\u{1}",
                        "{",
                        "]",
                        ",",
                    ]));
                }
                out.push('"');
            }
        }
        return;
    }
    if rng.below(2) == 0 {
        out.push('[');
        gap(rng, out);
        // Long enough, now and then, to reach past a fast-path chunk.
        let members = if rng.below(3) == 0 {
            rng.below(90)
        } else {
            rng.below(4)
        };
        let bits = rng.below(2) == 0;
        for member in 0..members {
            if member > 0 {
                out.push(',');
                gap(rng, out);
            }
            if bits && rng.below(40) > 0 {
                out.push_str(rng.pick(&["0", "1"]));
            } else {
                value_text(rng, depth - 1, out);
            }
            if !bits {
                gap(rng, out);
            }
        }
        out.push(']');
    } else {
        out.push('{');
        gap(rng, out);
        for member in 0..rng.below(4) {
            if member > 0 {
                out.push(',');
                gap(rng, out);
            }
            // The same key twice is read, as the last one.
            out.push_str(rng.pick(&["\"k\"", "\"bits\"", "\"\"", "\"\\u006b\"", "\"k\""]));
            gap(rng, out);
            out.push(':');
            gap(rng, out);
            value_text(rng, depth - 1, out);
            gap(rng, out);
        }
        out.push('}');
    }
}

/// A text with one byte replaced, inserted or removed — by a byte that
/// means something to the grammar more often than not.
fn mutated(rng: &mut Rng, text: &str) -> String {
    const BYTES: &[u8] = b",,[]{}:\"\\ 019-.e+ntfx\x01";
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len().max(1));
    let byte = BYTES[rng.below(BYTES.len())];
    match rng.below(3) {
        0 if !bytes.is_empty() => bytes[at] = byte,
        1 if !bytes.is_empty() => drop(bytes.remove(at)),
        _ => bytes.insert(at, byte),
    }
    // A mutation inside a multi-byte character leaves no text at all.
    String::from_utf8(bytes).unwrap_or_else(|_| text.to_owned())
}

/// What a forwarding program reads of a line.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Frame {
    id: Value,
    request: Box<RawValue>,
}

fn is_gap(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\n' | '\r')
}

/// The property, on one text: the raw reader and the `Value` reader
/// agree on whether it is a value — and on why not — and what the raw
/// reader keeps is the text itself, bare and framed.
fn raw_agrees_with_value(text: &str) {
    let tree = from_str::<Value>(text);
    let raw = from_str::<Box<RawValue>>(text);
    match (&tree, &raw) {
        (Ok(tree), Ok(raw)) => {
            assert_eq!(raw.get(), text.trim_matches(is_gap), "{text:?}");
            assert_eq!(from_str::<Value>(raw.get()).as_ref(), Ok(tree), "{text:?}");
        }
        (Err(tree), Err(raw)) => assert_eq!(raw, tree, "{text:?}"),
        _ => panic!("{text:?}: as a Value {tree:?}, raw {raw:?}"),
    }
    let framed = format!("{{\"id\":1,\"request\":{text}}}");
    let tree = from_str::<Value>(&framed);
    let frame = from_str::<Frame>(&framed);
    assert_eq!(frame.is_ok(), tree.is_ok(), "{framed:?}: {frame:?}");
    if let (Ok(frame), Ok(tree)) = (frame, tree) {
        // (Not always `text`: `1,"request":[2]` frames too.)
        assert_eq!(
            from_str::<Value>(frame.request.get()).as_ref(),
            Ok(&tree["request"]),
            "{framed:?}"
        );
    }
}

#[test]
fn the_raw_reader_accepts_exactly_what_the_value_reader_accepts() {
    let mut rng = Rng(24);
    let (mut taken, mut refused) = (0, 0);
    for _ in 0..4000 {
        let mut text = String::new();
        gap(&mut rng, &mut text);
        value_text(&mut rng, 4, &mut text);
        gap(&mut rng, &mut text);
        raw_agrees_with_value(&text);
        assert!(from_str::<Value>(&text).is_ok(), "the generator: {text:?}");
        for _ in 0..4 {
            let broken = mutated(&mut rng, &text);
            raw_agrees_with_value(&broken);
            match from_str::<Value>(&broken) {
                Ok(_) => taken += 1,
                Err(_) => refused += 1,
            }
        }
    }
    // Both sides of the property were exercised.
    assert!(
        taken > 1000 && refused > 1000,
        "{taken} taken, {refused} refused"
    );
}

#[test]
fn the_listed_malformations_are_refused_as_the_value_reader_refuses_them() {
    for text in [
        "[1,,2]",
        "[}",
        "[1 2]",
        "[1,]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "\"a\u{1}b\"",
        "\"a\\\"",
        "\"a\\",
        "\"\\x\"",
        "\"\\u12g4\"",
        "nul",
        "nulll",
        "tru",
        "1 2",
        "{} x",
        "[1],",
        "",
        " ",
        "-",
        "1e",
        "é",
    ] {
        raw_agrees_with_value(text);
    }
    for refused in ["[1,,2]", "[}", "[1 2]", "\"a\\", "nul", "{} x", "1 2"] {
        assert!(from_str::<Box<RawValue>>(refused).is_err(), "{refused}");
    }
    // This reader lets a raw control byte stand in a string; so does
    // the scan, or a forwarded line would be one its worker refuses.
    assert!(from_str::<Box<RawValue>>("\"a\u{1}b\"").is_ok());
}

#[test]
fn the_nesting_bound_is_the_value_readers_bare_and_framed() {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    let objects = |levels: usize| format!("{}1{}", "{\"k\":".repeat(levels), "}".repeat(levels));
    for deepest in [nested(MAX_DEPTH), objects(MAX_DEPTH)] {
        assert_eq!(
            from_str::<Box<RawValue>>(&deepest)
                .expect("128 levels")
                .get(),
            deepest
        );
        raw_agrees_with_value(&deepest);
    }
    for too_deep in [
        nested(MAX_DEPTH + 1),
        objects(MAX_DEPTH + 1),
        "[".repeat(200_000),
    ] {
        let error = from_str::<Box<RawValue>>(&too_deep).expect_err("129 levels");
        assert!(
            error.to_string().contains("nesting deeper than 128"),
            "{error}"
        );
        raw_agrees_with_value(&too_deep);
    }
    // Framed, the envelope is a level of its own: what the next reader
    // — which reads the frame and the request in one go — would refuse
    // is refused here.
    for (inner, fits) in [(MAX_DEPTH - 1, true), (MAX_DEPTH, false)] {
        for request in [nested(inner), objects(inner)] {
            let framed = format!("{{\"id\":1,\"request\":{request}}}");
            assert_eq!(from_str::<Frame>(&framed).is_ok(), fits, "{inner}");
            assert_eq!(from_str::<Value>(&framed).is_ok(), fits, "{inner}");
        }
    }
}

/// Runs of one-digit members of every length up to past a chunk, alone
/// and with one member spelled another way at every position: whichever
/// offset a chunk's edge falls on, the fast path takes what the slow
/// one takes and leaves it the rest.
#[test]
fn digit_runs_of_every_length_scan_as_they_read() {
    const ODD: [&str; 12] = [
        "10", "-1", "1.5", "1e3", "01", " 1", "1 ", "", "x", "[1,0]", "1]", "\"1\"",
    ];
    for length in 0..=70usize {
        let digits: Vec<String> = (0..length).map(|i| ((i * 7) % 10).to_string()).collect();
        let plain = format!("[{}]", digits.join(","));
        assert_eq!(
            from_str::<Box<RawValue>>(&plain)
                .expect("a run of digits")
                .get(),
            plain
        );
        raw_agrees_with_value(&plain);
        for at in 0..=length {
            for odd in ODD {
                let mut members = digits.clone();
                members.insert(at, odd.to_owned());
                let run = members.join(",");
                raw_agrees_with_value(&format!("[{run}]"));
                // Behind a first member that is no digit, and as a
                // field skipped on the way to another.
                raw_agrees_with_value(&format!("[[],{run}]"));
                let skipped = format!("{{\"bits\":[{run}],\"id\":7}}");
                assert_eq!(
                    from_str::<Id>(&skipped).map(|read| read.id).ok(),
                    from_str::<Value>(&skipped).ok().map(|_| 7),
                    "{skipped}"
                );
            }
        }
    }
}

#[derive(Debug, Deserialize)]
struct Id {
    id: u8,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Optional {
    id: Value,
    request: Option<Box<RawValue>>,
}

#[test]
fn an_absent_raw_field_is_an_error_and_an_absent_optional_one_is_none() {
    // `{"id":1,"control":"Fleet"}` is not a request.
    let error = from_str::<Frame>(r#"{"id":1,"control":"Fleet"}"#).expect_err("no request");
    assert!(error.to_string().contains("found none"), "{error}");
    assert!(from_value::<Frame>(&json!({"id": 1})).is_err());
    // A `null` that is there is a value like any other.
    let null = from_str::<Frame>(r#"{"id":1,"request": null }"#).expect("null is a value");
    assert_eq!(null.request.get(), "null");

    for text in [r#"{"id":1}"#, r#"{"id":1,"request":null}"#] {
        let read = from_str::<Optional>(text).expect("optional");
        assert_eq!(read.request, None, "{text}");
        let tree = from_str::<Value>(text).expect("JSON");
        assert_eq!(
            from_value::<Optional>(&tree).expect("optional").request,
            None
        );
    }
    let some = from_str::<Optional>(r#"{"id":1,"request":[ 1 ]}"#).expect("optional");
    assert_eq!(some.request.expect("present").get(), "[ 1 ]");
}

#[test]
fn raw_text_is_written_back_verbatim_and_printed_from_a_tree() {
    let line = r#" { "request" : {"b" : [1, 2],"a":"\u0041"} , "id" : "x" } "#;
    let frame = from_str::<Frame>(line).expect("frames");
    assert_eq!(frame.request.get(), r#"{"b" : [1, 2],"a":"\u0041"}"#);
    assert_eq!(
        to_string(&frame).expect("serializes"),
        r#"{"id":"x","request":{"b" : [1, 2],"a":"\u0041"}}"#
    );
    // Into a tree it goes as the value it spells; out of one, as the
    // canonical print.
    let tree = to_value(&frame);
    assert_eq!(tree, json!({"id": "x", "request": {"a": "A", "b": [1, 2]}}));
    let reprinted = from_value::<Frame>(&tree).expect("frames");
    assert_eq!(reprinted.request.get(), r#"{"a":"A","b":[1,2]}"#);
    assert_eq!(
        to_raw_value(&json!({"k": [true, null]}))
            .expect("serializes")
            .get(),
        r#"{"k":[true,null]}"#
    );
}
