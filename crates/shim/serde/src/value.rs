//! The JSON-shaped value tree: a type like any other to the codec
//! (it serializes into and deserializes from whatever it is given),
//! plus the [`Serializer`] that builds one and the [`Deserializer`]
//! that walks one.

use crate::text::{TextReader, TextWriter};
use crate::{Deserialize, Deserializer, Error, Kind, Serialize, Serializer};
use std::collections::{btree_map, BTreeMap};
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

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
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
            Kind::Number => Value::Number(d.number()?),
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

/// Renders any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut builder = ValueSerializer::default();
    value.serialize(&mut builder);
    builder.root
}

/// Rebuilds a typed value from a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] when the tree has the wrong shape.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(&mut ValueDeserializer::new(value))
}

/// What `T` makes of a struct field whose key never came: of `null`,
/// with no text to show for it.
pub(crate) fn from_absent<T: Deserialize>() -> Result<T, Error> {
    let mut walker = ValueDeserializer::new(&NULL);
    walker.absent = true;
    T::deserialize(&mut walker)
}

// ---------------------------------------------------------------------
// Building a tree from events
// ---------------------------------------------------------------------

/// An array or object still receiving its members.
enum Open {
    Seq(Vec<Value>),
    /// The entries so far and the key whose value is due next.
    Map(Map, String),
}

/// A [`Serializer`] that builds the [`Value`] the events describe.
#[derive(Default)]
struct ValueSerializer {
    open: Vec<Open>,
    root: Value,
}

impl ValueSerializer {
    /// A finished value goes into the innermost open container, or is
    /// the result.
    fn put(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.root = value,
            Some(Open::Seq(items)) => items.push(value),
            Some(Open::Map(map, key)) => {
                map.insert(std::mem::take(key), value);
            }
        }
    }
}

impl Serializer for ValueSerializer {
    fn null(&mut self) {
        self.put(Value::Null);
    }

    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }

    fn u64(&mut self, v: u64) {
        self.put(Value::from(v));
    }

    fn i64(&mut self, v: i64) {
        self.put(Value::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.put(Value::from(v));
    }

    fn str(&mut self, v: &str) {
        self.put(Value::from(v));
    }

    fn seq_begin(&mut self) {
        self.open.push(Open::Seq(Vec::new()));
    }

    fn seq_element(&mut self) {}

    fn seq_end(&mut self) {
        if let Some(Open::Seq(items)) = self.open.pop() {
            self.put(Value::Array(items));
        }
    }

    fn map_begin(&mut self) {
        self.open.push(Open::Map(Map::new(), String::new()));
    }

    fn map_key(&mut self, key: &str) {
        if let Some(Open::Map(_, next)) = self.open.last_mut() {
            key.clone_into(next);
        }
    }

    fn map_end(&mut self) {
        if let Some(Open::Map(map, _)) = self.open.pop() {
            self.put(Value::Object(map));
        }
    }

    fn raw(&mut self, json: &str) {
        let value = Value::deserialize(&mut TextReader::new(json));
        self.put(value.expect("raw text is one well-formed value"));
    }
}

// ---------------------------------------------------------------------
// Walking a tree as events
// ---------------------------------------------------------------------

/// An array or object being walked.
enum Walk<'a> {
    Seq(std::slice::Iter<'a, Value>),
    Map(btree_map::Iter<'a, String, Value>),
}

/// A [`Deserializer`] that yields the events of an existing [`Value`].
struct ValueDeserializer<'a> {
    /// The value the next accessor reads: the root, then whichever
    /// member `seq_next` / `map_key` last stepped to.
    pending: &'a Value,
    walks: Vec<Walk<'a>>,
    /// The last value asked for as text.
    printed: String,
    /// The value stands in for a field whose key never came.
    absent: bool,
}

impl<'a> ValueDeserializer<'a> {
    fn new(value: &'a Value) -> ValueDeserializer<'a> {
        ValueDeserializer {
            pending: value,
            walks: Vec::new(),
            printed: String::new(),
            absent: false,
        }
    }
}

impl Deserializer for ValueDeserializer<'_> {
    fn kind(&mut self) -> Result<Kind, Error> {
        Ok(match self.pending {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Number(_) => Kind::Number,
            Value::String(_) => Kind::String,
            Value::Array(_) => Kind::Seq,
            Value::Object(_) => Kind::Map,
        })
    }

    fn null(&mut self) -> Result<(), Error> {
        match self.pending {
            Value::Null => Ok(()),
            _ => Err(self.unexpected("null")),
        }
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.pending {
            Value::Bool(v) => Ok(*v),
            _ => Err(self.unexpected("bool")),
        }
    }

    fn number(&mut self) -> Result<Number, Error> {
        match self.pending {
            Value::Number(v) => Ok(*v),
            _ => Err(self.unexpected("number")),
        }
    }

    fn str(&mut self) -> Result<&str, Error> {
        match self.pending {
            Value::String(v) => Ok(v),
            _ => Err(self.unexpected("string")),
        }
    }

    fn seq_begin(&mut self) -> Result<(), Error> {
        match self.pending {
            Value::Array(items) => {
                self.walks.push(Walk::Seq(items.iter()));
                Ok(())
            }
            _ => Err(self.unexpected("array")),
        }
    }

    fn seq_next(&mut self) -> Result<bool, Error> {
        let Some(Walk::Seq(items)) = self.walks.last_mut() else {
            return Err(Error::custom("not inside an array"));
        };
        match items.next() {
            Some(item) => {
                self.pending = item;
                Ok(true)
            }
            None => {
                self.walks.pop();
                Ok(false)
            }
        }
    }

    fn map_begin(&mut self) -> Result<(), Error> {
        match self.pending {
            Value::Object(map) => {
                self.walks.push(Walk::Map(map.iter()));
                Ok(())
            }
            _ => Err(self.unexpected("object")),
        }
    }

    fn map_key(&mut self) -> Result<Option<&str>, Error> {
        let Some(Walk::Map(entries)) = self.walks.last_mut() else {
            return Err(Error::custom("not inside an object"));
        };
        match entries.next() {
            Some((key, value)) => {
                self.pending = value;
                Ok(Some(key))
            }
            None => {
                self.walks.pop();
                Ok(None)
            }
        }
    }

    fn unexpected(&mut self, expected: &str) -> Error {
        Error::custom(format!("expected {expected}, found {}", self.pending))
    }

    fn raw(&mut self) -> Result<&str, Error> {
        if self.absent {
            return Err(Error::custom("expected a value, found none"));
        }
        self.printed = self.pending.to_string();
        Ok(&self.printed)
    }
}
