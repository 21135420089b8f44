//! The JSON-shaped value tree: a type like any other to the codec (it
//! serializes into and deserializes from whatever it is given), built
//! and read through the JSON text.

use crate::text::{TextReader, TextWriter};
use crate::{Deserialize, Deserializer, Error, Kind, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;

/// Object representation: sorted keys give deterministic output.
pub type Map = BTreeMap<String, Value>;

/// A JSON number, preserving integer-ness where possible.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integers.
    PosInt(u64),
    /// Negative integers.
    NegInt(i64),
    /// Everything else.
    Float(f64),
}

impl Number {
    /// Value as `u64`, if representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// Value as `i64`, if representable.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }

    /// Value as `f64` (always representable, possibly lossily).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::PosInt(v) => Some(v as f64),
            Number::NegInt(v) => Some(v as f64),
            Number::Float(v) => Some(v),
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(v) => write!(f, "{v}"),
            Number::NegInt(v) => write!(f, "{v}"),
            Number::Float(v) if v.is_finite() => write!(f, "{v}"),
            // JSON has no NaN/Inf; emit null like serde_json does.
            Number::Float(_) => f.write_str("null"),
        }
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with string keys.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// `true` when the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if any.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if any.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if any.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if any.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects; `None` on other kinds.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        self.as_array().and_then(|a| a.get(index)).unwrap_or(&NULL)
    }
}

macro_rules! impl_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                #[allow(unused_comparisons)]
                match self {
                    Value::Number(n) => {
                        if *other >= 0 {
                            n.as_u64() == Some(*other as u64)
                        } else {
                            n.as_i64() == Some(*other as i64)
                        }
                    }
                    _ => false,
                }
            }
        }

        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_eq_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl fmt::Display for Value {
    /// Compact JSON encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut writer = TextWriter::default();
        self.serialize(&mut writer);
        f.write_str(&writer.finish())
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                #[allow(unused_comparisons)]
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v as i64))
                }
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// NaN and the infinities have no JSON form: they become `null`.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(Number::Float(v))
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------------
// The tree as a serializable type
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.null(),
            Value::Bool(v) => s.bool(*v),
            Value::Number(Number::PosInt(v)) => s.u64(*v),
            Value::Number(Number::NegInt(v)) => s.i64(*v),
            Value::Number(Number::Float(v)) => s.f64(*v),
            Value::String(v) => s.str(v),
            Value::Array(items) => items.serialize(s),
            Value::Object(map) => {
                s.map_begin();
                for (key, value) in map {
                    s.map_key(key);
                    value.serialize(s);
                }
                s.map_end();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Value, Error> {
        Ok(match d.kind()? {
            Kind::Null => {
                d.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(d.bool()?),
            // `-0` is negative zero, which only a float holds (an
            // integer reader takes it as 0).
            Kind::Number => Value::Number(match d.number()? {
                Number::NegInt(0) => Number::Float(-0.0),
                number => number,
            }),
            Kind::String => Value::String(d.str()?.to_owned()),
            Kind::Seq => Value::Array(Vec::deserialize(d)?),
            Kind::Map => {
                d.map_begin()?;
                let mut map = Map::new();
                while let Some(key) = d.map_key()? {
                    let key = key.to_owned();
                    // A repeated key keeps its last value.
                    map.insert(key, Value::deserialize(d)?);
                }
                Value::Object(map)
            }
        })
    }
}

/// Renders any serializable value into a [`Value`] tree: its JSON
/// text, read back as a tree.
///
/// # Panics
///
/// When `value` nests arrays and objects deeper than
/// [`MAX_DEPTH`](crate::text::MAX_DEPTH): the reader refuses that text
/// (no workspace type nests that deep).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut writer = TextWriter::default();
    value.serialize(&mut writer);
    let text = writer.finish();
    Value::deserialize(&mut TextReader::new(&text))
        .unwrap_or_else(|error| panic!("to_value: {error}"))
}

/// Rebuilds a typed value from a [`Value`] tree by reading its text.
///
/// # Errors
///
/// Returns an [`Error`] when the tree has the wrong shape, or nests
/// deeper than [`MAX_DEPTH`](crate::text::MAX_DEPTH).
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(&mut TextReader::new(&value.to_string()))
}
