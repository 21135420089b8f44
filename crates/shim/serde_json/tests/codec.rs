//! The reading rules of the text codec, pinned one by one. Most of
//! them were implicit while every `from_str` went through a `Value`
//! tree (a map cannot hold a key twice, a tree has no key order, …);
//! the streaming reader has to keep each on purpose.

use serde::text::MAX_DEPTH;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, from_value, json, to_string, to_value, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Job {
    name: String,
    retries: u8,
    offset: i16,
    note: Option<String>,
    #[serde(default)]
    weight: u32,
    #[serde(default)]
    tags: Vec<String>,
    state: State,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum State {
    Idle,
    Running { since: u64 },
    Done(Vec<u8>),
}

fn job() -> Job {
    Job {
        name: "j".into(),
        retries: 3,
        offset: -2,
        note: None,
        weight: 7,
        tags: vec!["a".into()],
        state: State::Running { since: 9 },
    }
}

const JOB_TEXT: &str = r#"{"name":"j","note":null,"offset":-2,"retries":3,"state":{"Running":{"since":9}},"tags":["a"],"weight":7}"#;

#[test]
fn keys_are_written_sorted_whatever_the_declaration_order() {
    assert_eq!(to_string(&job()).expect("serializes"), JOB_TEXT);
    assert_eq!(to_value(&job()).to_string(), JOB_TEXT);
    assert_eq!(from_str::<Job>(JOB_TEXT), Ok(job()));
}

#[test]
fn keys_are_read_in_any_order() {
    let shuffled = r#"{"weight":7,"state":{"Running":{"since":9}},"retries":3,"tags":["a"],"offset":-2,"note":null,"name":"j"}"#;
    assert_eq!(from_str::<Job>(shuffled), Ok(job()));
}

#[test]
fn unknown_keys_are_skipped_whatever_they_hold() {
    let text = r#"{"later":{"deep":[1,{"x":"\u00e9\n"},null,true,-1.5e3]},"name":"j","offset":-2,"retries":3,"state":{"Running":{"since":9,"extra":[]}},"tags":["a"],"weight":7,"zz":"s"}"#;
    assert_eq!(from_str::<Job>(text), Ok(job()));
    // What is skipped is still checked to be JSON.
    assert!(from_str::<Job>(&text.replace("-1.5e3", "-1.5e3,")).is_err());
    assert!(from_str::<Job>(&text.replace("null,true", "nul,true")).is_err());
}

#[test]
fn an_absent_key_reads_as_null() {
    let without_note = JOB_TEXT.replace(r#""note":null,"#, "");
    assert_eq!(from_str::<Job>(&without_note), Ok(job()));
    // … which only an Option (or a Value) accepts.
    let without_name = JOB_TEXT.replace(r#""name":"j","#, "");
    let error = from_str::<Job>(&without_name).expect_err("name is required");
    assert!(error.to_string().contains("found null"), "{error}");
    assert_eq!(from_str::<Job>(&without_name).err(), {
        let tree: Value = from_str(&without_name).expect("still JSON");
        from_value::<Job>(&tree).err()
    });
}

#[test]
fn a_defaulted_field_falls_back_when_absent_or_null() {
    let defaults = Job {
        weight: 0,
        tags: Vec::new(),
        ..job()
    };
    let absent = JOB_TEXT.replace(r#","tags":["a"],"weight":7"#, "");
    assert_eq!(from_str::<Job>(&absent), Ok(defaults.clone()));
    let null = JOB_TEXT.replace(r#""tags":["a"],"weight":7"#, r#""tags":null,"weight":null"#);
    assert_eq!(from_str::<Job>(&null), Ok(defaults));
    // Present and non-null, it must still be well-shaped.
    assert!(from_str::<Job>(&JOB_TEXT.replace(r#""weight":7"#, r#""weight":"7""#)).is_err());
}

#[test]
fn a_repeated_key_keeps_its_last_value() {
    let twice = JOB_TEXT.replace(r#""retries":3"#, r#""retries":1,"retries":3"#);
    assert_eq!(from_str::<Job>(&twice), Ok(job()));
    let defaulted_then_null = JOB_TEXT.replace(r#""weight":7"#, r#""weight":7,"weight":null"#);
    assert_eq!(
        from_str::<Job>(&defaulted_then_null),
        Ok(Job { weight: 0, ..job() })
    );
    let tree: Value = from_str(r#"{"a":1,"a":{"b":2},"a":3}"#).expect("parses");
    assert_eq!(tree, json!({"a": 3}));
}

#[test]
fn an_enum_takes_exactly_one_variant_tag() {
    assert_eq!(from_str::<State>(r#""Idle""#), Ok(State::Idle));
    assert_eq!(
        from_str::<State>(r#"{"Done":[1,2]}"#),
        Ok(State::Done(vec![1, 2]))
    );
    for refused in [
        r#"{}"#,
        r#"{"Done":[1],"Running":{"since":1}}"#,
        r#"{"Done":[1],"Done":[2]}"#,
        r#"{"Done":[1],"unknown":0}"#,
        r#"{"Idle":null}"#,
        r#"{"Nope":1}"#,
        r#""Done""#,
        r#""Nope""#,
        "7",
        "null",
    ] {
        assert!(from_str::<State>(refused).is_err(), "{refused}");
        // So does `from_value` (bar the repeated tag, which a tree
        // cannot even represent).
        if !refused.contains(r#"],"Done""#) {
            let tree: Value = from_str(refused).expect("still JSON");
            assert!(from_value::<State>(&tree).is_err(), "{refused} as a tree");
        }
    }
}

#[test]
fn integers_are_range_checked() {
    assert_eq!(from_str::<u8>("255"), Ok(255));
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u8>("-1").is_err());
    assert!(from_str::<u8>("1.0").is_err());
    assert!(from_str::<u8>("1e0").is_err());
    assert_eq!(from_str::<i8>("-128"), Ok(-128));
    assert!(from_str::<i8>("-129").is_err());
    assert!(from_str::<i8>("128").is_err());
    assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert_eq!(from_str::<i64>("-9223372036854775808"), Ok(i64::MIN));
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert_eq!(from_str::<u32>("007"), Ok(7));
    assert!(from_str::<u32>("").is_err());
    assert!(from_str::<u32>("-").is_err());
    assert!(from_str::<u32>("1-2").is_err());
    // Past u64 an integer spelling reads as a float, as it always has.
    assert_eq!(
        from_str::<f64>("18446744073709551616"),
        Ok(18_446_744_073_709_551_616.0)
    );
    assert_eq!(from_str::<f64>("3"), Ok(3.0));
    assert_eq!(from_str::<f32>("0.1"), Ok(0.1));
    assert_eq!(from_str::<Value>("-0"), Ok(json!(0)));
}

#[test]
fn surrounding_whitespace_is_accepted_and_trailing_text_is_not() {
    let spaced = " \n\t{ \"name\" : \"j\" , \"offset\" : -2 ,\r\n \"retries\" : 3 , \
                  \"state\" : { \"Done\" : [ 1 , 2 ] } } \n";
    let read = from_str::<Job>(spaced).expect("whitespace anywhere between tokens");
    assert_eq!(read.state, State::Done(vec![1, 2]));
    for trailing in ["1 2", "{} x", "[1],", "\"a\"b", "nullnull", "1}"] {
        let error = from_str::<Value>(trailing).expect_err(trailing);
        assert!(
            error.to_string().contains("trailing characters"),
            "{trailing}: {error}"
        );
    }
    assert!(from_str::<Job>(&format!("{JOB_TEXT}}}")).is_err());
    assert!(from_str::<Value>("").is_err());
    assert!(from_str::<Value>("  ").is_err());
}

#[test]
fn malformed_members_are_refused() {
    for refused in [
        "[1,]",
        "[,1]",
        "[1 2]",
        "[1",
        "{\"a\":1,}",
        "{,\"a\":1}",
        "{\"a\" 1}",
        "{\"a\":}",
        "{a:1}",
        "{1:2}",
        "{\"a\":1",
        "\"open",
        "\"bad \\x escape\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "tru",
        "+",
        ".",
    ] {
        assert!(from_str::<Value>(refused).is_err(), "{refused}");
    }
}

#[test]
fn a_surrogate_pair_is_one_scalar_and_a_lone_surrogate_is_replaced() {
    // What a standard client makes of U+1F600.
    assert_eq!(from_str::<String>(r#""\ud83d\ude00""#), Ok("😀".to_owned()));
    assert_eq!(
        from_str::<String>(r#""a\uD83D\uDE00b""#),
        Ok("a😀b".to_owned())
    );
    assert_eq!(
        from_str::<Value>(r#"{"\ud83d\ude00":1}"#),
        Ok(json!({"😀": 1}))
    );
    // Lone halves, in every position, become U+FFFD; what follows a
    // lone high half is read on its own.
    assert_eq!(from_str::<String>(r#""\ud83d""#), Ok("\u{fffd}".to_owned()));
    assert_eq!(from_str::<String>(r#""\ude00""#), Ok("\u{fffd}".to_owned()));
    assert_eq!(
        from_str::<String>(r#""\ud83dx""#),
        Ok("\u{fffd}x".to_owned())
    );
    assert_eq!(
        from_str::<String>(r#""\ud83d\u0041""#),
        Ok("\u{fffd}A".to_owned())
    );
    assert_eq!(
        from_str::<String>(r#""\ud83d\n""#),
        Ok("\u{fffd}\n".to_owned())
    );
    assert_eq!(
        from_str::<String>(r#""\ud83d\ud83d\ude00""#),
        Ok("\u{fffd}😀".to_owned())
    );
    assert!(from_str::<String>(r#""\ud83d\u12""#).is_err());
    // Written back, the scalar goes out verbatim.
    assert_eq!(to_string("😀").expect("serializes"), "\"😀\"");
}

#[test]
fn strings_round_trip_through_their_escapes() {
    let awkward = "q\"b\\s/ \n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f} αβ 😀";
    let text = to_string(awkward).expect("serializes");
    assert_eq!(
        text,
        "\"q\\\"b\\\\s/ \\n\\r\\t\\u0008\\u000c\\u0000\\u001f\u{7f} αβ 😀\""
    );
    assert_eq!(from_str::<String>(&text), Ok(awkward.to_owned()));
    assert_eq!(
        from_str::<String>(r#""\/\b\f""#),
        Ok("/\u{8}\u{c}".to_owned())
    );
    assert_eq!(to_string("").expect("serializes"), "\"\"");
}

#[test]
fn nesting_is_bounded() {
    let nested = |open: &str, close: &str, levels: usize| {
        format!("{}{}", open.repeat(levels), close.repeat(levels))
    };
    assert!(from_str::<Value>(&nested("[", "]", MAX_DEPTH)).is_ok());
    let deepest_object = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    assert!(from_str::<Value>(&deepest_object).is_ok());
    for too_deep in [
        nested("[", "]", MAX_DEPTH + 1),
        format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ),
        // The line that used to overflow the stack: never closed.
        "[".repeat(200_000),
        "{\"k\":".repeat(200_000),
    ] {
        let error = from_str::<Value>(&too_deep).expect_err("too deep");
        assert!(
            error.to_string().contains("nesting deeper than 128"),
            "{error}"
        );
        // A typed read meets the same bound, in a field of its own or
        // in one it skips.
        assert!(from_str::<Job>(&too_deep).is_err());
        assert!(from_str::<Job>(&JOB_TEXT.replace("\"j\"", &too_deep)).is_err());
        let skipped = JOB_TEXT.replacen('{', &format!("{{\"aside\":{too_deep},"), 1);
        let error = from_str::<Job>(&skipped).expect_err("too deep to skip");
        assert!(
            error.to_string().contains("nesting deeper than 128"),
            "{error}"
        );
    }
    // Depth counts what is open, not what has been seen.
    let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 50].join(","));
    assert!(from_str::<Value>(&wide).is_ok());
}

/// `to_value` and `from_value` go through the text, so a tree is held
/// to the reader's depth too.
fn nested_tree(depth: usize) -> Value {
    (0..depth).fold(Value::Null, |inner, _| Value::Array(vec![inner]))
}

#[test]
fn a_tree_nested_past_the_depth_bound_is_refused() {
    let deepest = nested_tree(MAX_DEPTH);
    assert_eq!(to_value(&deepest), deepest);
    assert_eq!(from_value::<Value>(&deepest), Ok(deepest));
    let error = from_value::<Value>(&nested_tree(MAX_DEPTH + 1)).expect_err("too deep");
    assert!(
        error.to_string().contains("nesting deeper than 128"),
        "{error}"
    );
}

#[test]
#[should_panic(expected = "to_value: nesting deeper than 128 levels")]
fn to_value_panics_past_the_depth_bound() {
    to_value(&nested_tree(MAX_DEPTH + 1));
}

#[test]
fn non_finite_floats_are_null_in_a_value() {
    assert_eq!(to_value(&f64::NAN), Value::Null);
    assert_eq!(Value::from(f64::INFINITY), Value::Null);
    assert_eq!(json!({"x": f64::NAN})["x"], Value::Null);
    assert_eq!(json!([f64::NEG_INFINITY]), json!([null]));
}

#[test]
fn floats_print_as_before() {
    for (value, text) in [
        (1.0f64, "1"),
        (-0.0, "-0"),
        (0.1, "0.1"),
        (1e21, "1000000000000000000000"),
        (1e-7, "0.0000001"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ] {
        assert_eq!(to_string(&value).expect("serializes"), text);
        assert_eq!(to_value(&value).to_string(), text);
    }
    assert_eq!(
        to_string(&0.1f32).expect("serializes"),
        format!("{}", f64::from(0.1f32))
    );
    assert_eq!(
        to_string(&[i64::MIN, -1, 0, 9, 10, i64::MAX]).expect("serializes"),
        "[-9223372036854775808,-1,0,9,10,9223372036854775807]"
    );
    assert_eq!(
        to_string(&u64::MAX).expect("serializes"),
        "18446744073709551615"
    );
}
