//! Derive-level contract tests for the shapes the wire envelopes rely
//! on. Each test pins a behavior the real serde also has, so swapping
//! the real crates back in (a `[workspace.dependencies]` edit) cannot
//! silently change the wire format.

use serde::value::{from_value, to_value};
use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    id: Value,
    flag: Option<u64>,
    body: Outcome,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Outcome {
    Ok(Payload),
    Err { kind: String, message: String },
    Pending,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    items: Vec<u64>,
    label: String,
}

fn sample() -> Envelope {
    Envelope {
        id: Value::String("job-1".into()),
        flag: Some(3),
        body: Outcome::Ok(Payload {
            items: vec![1, 2, 3],
            label: "x".into(),
        }),
    }
}

#[test]
fn struct_with_value_field_round_trips() {
    let envelope = sample();
    let back = from_value::<Envelope>(&to_value(&envelope)).expect("round-trips");
    assert_eq!(back, envelope);
}

#[test]
fn newtype_variant_is_externally_tagged() {
    let value = to_value(&sample().body);
    let object = value.as_object().expect("tagged object");
    assert_eq!(object.len(), 1);
    assert!(object.contains_key("Ok"));
    let back = from_value::<Outcome>(&value).expect("parses");
    assert_eq!(back, sample().body);
}

#[test]
fn named_field_variant_round_trips() {
    let err = Outcome::Err {
        kind: "InvalidRequest".into(),
        message: "nope".into(),
    };
    let value = to_value(&err);
    assert!(value.get("Err").is_some());
    assert_eq!(from_value::<Outcome>(&value).expect("parses"), err);
}

#[test]
fn unit_variant_serializes_as_string() {
    let value = to_value(&Outcome::Pending);
    assert_eq!(value, "Pending");
    assert_eq!(
        from_value::<Outcome>(&value).expect("parses"),
        Outcome::Pending
    );
}

#[test]
fn multiple_variant_tags_are_rejected() {
    // {"Ok": ..., "Err": ...} is ambiguous; real serde rejects it and
    // so must the shim (no first-match-wins).
    let ok = to_value(&sample().body);
    let err = to_value(&Outcome::Err {
        kind: "k".into(),
        message: "m".into(),
    });
    let mut merged = serde::Map::new();
    merged.insert("Ok".to_owned(), ok.get("Ok").expect("tag present").clone());
    merged.insert(
        "Err".to_owned(),
        err.get("Err").expect("tag present").clone(),
    );
    let error = from_value::<Outcome>(&Value::Object(merged)).expect_err("ambiguous tag");
    assert!(error.to_string().contains("exactly one variant tag"));
}

#[test]
fn empty_object_is_rejected_for_enums() {
    let error =
        from_value::<Outcome>(&Value::Object(serde::Map::new())).expect_err("no variant tag");
    assert!(error.to_string().contains("exactly one"));
}

#[test]
fn unknown_variants_are_rejected() {
    let error = from_value::<Outcome>(&Value::String("Bogus".into())).expect_err("unknown unit");
    assert!(error.to_string().contains("unknown variant"));
    let mut object = serde::Map::new();
    object.insert("Bogus".to_owned(), Value::Null);
    assert!(from_value::<Outcome>(&Value::Object(object)).is_err());
}

#[test]
fn missing_option_field_reads_as_none() {
    // The derive treats an absent key as null; Option absorbs it —
    // matching real serde's implicit-default for Option fields.
    let mut object = to_value(&sample()).as_object().expect("object").clone();
    object.remove("flag");
    let back = from_value::<Envelope>(&Value::Object(object)).expect("parses");
    assert_eq!(back.flag, None);
}

#[test]
fn missing_required_field_errors() {
    let mut object = to_value(&sample()).as_object().expect("object").clone();
    object.remove("body");
    assert!(from_value::<Envelope>(&Value::Object(object)).is_err());
}
