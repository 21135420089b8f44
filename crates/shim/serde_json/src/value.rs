//! The value types: the [`Value`] tree, and [`RawValue`] — a value kept
//! as the JSON text it came in.

pub use serde::value::{from_value, to_value, Map, Number, Value};

use crate::Error;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// One JSON value held as its text, checked to be well formed but not
/// otherwise read: what a program that passes a value on, rather than
/// using it, keeps of it. Reading one from text yields the input's own
/// bytes (surrounding whitespace left out); writing one puts them back
/// verbatim.
///
/// As in the real crate it is used boxed — a `Box<RawValue>` field
/// whose key is absent is an error, an `Option<Box<RawValue>>` one is
/// `None` when absent or `null`. (Unlike there the type is sized and
/// owns its text: the unsized original needs `unsafe` to build.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawValue {
    json: Box<str>,
}

impl RawValue {
    /// The value's JSON text.
    #[must_use]
    pub fn get(&self) -> &str {
        &self.json
    }
}

impl std::fmt::Display for RawValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.json)
    }
}

impl Serialize for RawValue {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.raw(&self.json);
    }
}

impl Deserialize for RawValue {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<RawValue, Error> {
        d.raw().map(|json| RawValue { json: json.into() })
    }
}

/// Serializes a value to its compact JSON text, kept as a [`RawValue`].
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_raw_value<T: Serialize + ?Sized>(value: &T) -> Result<Box<RawValue>, Error> {
    let json = crate::to_string(value)?.into_boxed_str();
    Ok(Box::new(RawValue { json }))
}
