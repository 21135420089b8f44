//! The requirement corpus (`tests/data/requirements/corpus.jsonl`)
//! through `cp_agent::parse`, the one parse every chat turn goes
//! through.
//!
//! Each line holds an utterance, alone (a first turn) or after a
//! `context` requirement (a follow-up), and either the requirement
//! list it must parse to (`expect`) or the exact text it must be
//! refused with (`refusal`). Its `set` says how it is scored:
//!
//! * `unambiguous` — first turns with one reading: exact-match rate;
//! * `followup` — follow-ups: carry-over rate, exact match again;
//! * `pinned` — under-specified or contradictory requests, pinned as
//!   they parse today, every one (a change to one is a corpus edit);
//! * `refusal` — every one refused with its text. A line without a
//!   context is refused with the same text as a first turn and as a
//!   follow-up on the defaults, and refused at all after any context.
//!
//! `defaults` lists the fields a line leaves to the parse's defaults;
//! together the lines pin every default. The rates are printed on
//! stderr, with every miss, and the test fails below the floors.

use chatpattern::agent::{parse, Requirement};
use chatpattern::dataset::Style;
use serde_json::Value;

const CORPUS: &str = include_str!("data/requirements/corpus.jsonl");

/// Exact-match floor on the unambiguous set: every line.
const UNAMBIGUOUS_FLOOR: f64 = 1.0;
const FOLLOWUP_FLOOR: f64 = 1.0;
const PINNED_FLOOR: f64 = 1.0;
const REFUSAL_FLOOR: f64 = 1.0;

/// What a first turn fills in for a field it does not mention.
fn defaults() -> Requirement {
    Requirement {
        topology_size: (128, 128),
        physical_size_nm: (2048, 2048),
        style: Style::Layer10001,
        count: 10,
        extension_method: None,
        drop_allowed: true,
        time_limit: None,
    }
}

/// A context unlike the defaults in every field.
fn other_context() -> Requirement {
    Requirement {
        topology_size: (48, 96),
        physical_size_nm: (768, 1536),
        style: Style::Layer10003,
        count: 3,
        extension_method: Some(chatpattern::extend::ExtensionMethod::InPainting),
        drop_allowed: false,
        time_limit: Some("1 hour".to_owned()),
    }
}

struct Line {
    number: usize,
    set: String,
    context: Option<Requirement>,
    utterance: String,
    expect: Result<Vec<Requirement>, String>,
    defaults: Vec<String>,
}

fn corpus() -> Vec<Line> {
    CORPUS
        .lines()
        .enumerate()
        .map(|(i, text)| {
            let value: Value = serde_json::from_str(text).expect("a corpus line is JSON");
            let field = |name: &str| value.get(name).cloned().unwrap_or(Value::Null);
            let expect = match field("refusal").as_str() {
                Some(text) => Err(text.to_owned()),
                None => Ok(serde_json::from_value(&field("expect")).expect("expect is a list")),
            };
            let set = field("set").as_str().expect("set").to_owned();
            assert!(
                ["unambiguous", "followup", "pinned"].contains(&set.as_str()) && expect.is_ok()
                    || set == "refusal" && expect.is_err(),
                "line {}: a refusal line and only it expects a refusal",
                i + 1
            );
            Line {
                number: i + 1,
                set,
                context: serde_json::from_value(&field("context")).expect("context"),
                utterance: field("utterance").as_str().expect("utterance").to_owned(),
                expect,
                defaults: serde_json::from_value(&field("defaults")).unwrap_or_default(),
            }
        })
        .collect()
}

fn parsed(utterance: &str, context: Option<&Requirement>) -> Result<Vec<Requirement>, String> {
    parse(utterance, context).map_err(|e| e.to_string())
}

/// Whether `line` scores; a miss is printed.
fn scores(line: &Line) -> bool {
    let got = parsed(&line.utterance, line.context.as_ref());
    let mut hit = got == line.expect;
    if line.set == "refusal" && line.context.is_none() {
        // The same refusal on a follow-up over the defaults, and a
        // refusal over any context.
        hit &= parsed(&line.utterance, Some(&defaults())) == line.expect;
        hit &= parse(&line.utterance, Some(&other_context())).is_err();
    }
    if !hit {
        eprintln!(
            "corpus line {} ({}): {:?}\n  expected {:?}\n  got      {:?}",
            line.number, line.set, line.utterance, line.expect, got
        );
    }
    hit
}

#[test]
fn the_requirement_corpus_parses_above_its_floors() {
    let lines = corpus();
    assert!(lines.len() >= 200, "{} lines", lines.len());
    let mut report = Vec::new();
    for (set, floor) in [
        ("unambiguous", UNAMBIGUOUS_FLOOR),
        ("followup", FOLLOWUP_FLOOR),
        ("pinned", PINNED_FLOOR),
        ("refusal", REFUSAL_FLOOR),
    ] {
        let of_set: Vec<&Line> = lines.iter().filter(|l| l.set == set).collect();
        assert!(!of_set.is_empty(), "no {set} lines");
        let hits = of_set.iter().filter(|l| scores(l)).count();
        let rate = hits as f64 / of_set.len() as f64;
        eprintln!(
            "requirement corpus: {set} {hits}/{} = {rate:.3}",
            of_set.len()
        );
        report.push((set, rate, floor));
    }
    for (set, rate, floor) in report {
        assert!(rate >= floor, "{set}: {rate:.3} is below the floor {floor}");
    }
}

#[test]
fn every_default_is_pinned_by_a_line() {
    let lines = corpus();
    let defaults = serde_json::to_value(&defaults());
    let Value::Object(fields) = &defaults else {
        panic!("a requirement is a JSON object");
    };
    for (name, default) in fields {
        let pinning: Vec<&Line> = lines.iter().filter(|l| l.defaults.contains(name)).collect();
        assert!(!pinning.is_empty(), "no line pins the default {name}");
        for line in pinning {
            assert!(
                line.context.is_none(),
                "line {}: defaults fill first turns",
                line.number
            );
            let expect = line
                .expect
                .as_ref()
                .expect("a line that pins a default parses");
            for requirement in expect {
                let value = serde_json::to_value(requirement);
                assert_eq!(
                    value.get(name),
                    Some(default),
                    "line {}: {name} is not the default",
                    line.number
                );
            }
        }
    }
}
