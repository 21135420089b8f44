//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! Like the real crate, this shim is a streaming design: a type's
//! [`Serialize`] impl emits JSON-shaped events into a [`Serializer`],
//! and its [`Deserialize`] impl pulls them from a [`Deserializer`].
//! There is one of each, [`text::TextWriter`] and [`text::TextReader`]:
//! the JSON text itself, so `serde_json::to_string` / `from_str` go
//! straight between typed values and text without building anything in
//! between.
//!
//! Every type has exactly one `serialize` and one `deserialize`
//! (hand-written here for the std types, generated by the sibling
//! `serde_derive` proc-macro crate for everything else). [`Value`] is
//! just another type with both impls, so parsing text into a tree is
//! `Value::deserialize` from a `TextReader`, printing a tree is
//! `Value::serialize` into a `TextWriter`, and `serde_json::to_value` /
//! `from_value` are those two steps joined through the text.
//!
//! The derive generates the same externally-tagged representation
//! serde would: structs become objects, unit enum variants become
//! strings, data-carrying variants become `{"Variant": {...}}` objects.
//! Object keys are always emitted in ascending byte order (the derive
//! sorts a type's fields when it expands; a [`Value`] object is a
//! `BTreeMap`), so the text for a value is the same whichever way it
//! is produced.

pub mod text;
pub mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a message.
    #[must_use]
    pub fn custom(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }

    /// The error message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Receives the JSON-shaped events of one value.
///
/// A well-formed event stream is one scalar, or `seq_begin`, then
/// `seq_element` before each element's own events, then `seq_end`, or
/// `map_begin`, then `map_key` before each entry's value events, then
/// `map_end`. Keys of one map must arrive in ascending byte order.
pub trait Serializer: Sized {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, v: bool);
    /// A non-negative integer.
    fn u64(&mut self, v: u64);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// A float; non-finite values have no JSON form and print as `null`.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens an array.
    fn seq_begin(&mut self);
    /// Announces the next element of the innermost open array.
    fn seq_element(&mut self);
    /// Closes the innermost open array.
    fn seq_end(&mut self);
    /// Opens an object.
    fn map_begin(&mut self);
    /// Announces the next entry of the innermost open object; the
    /// entry's value follows.
    fn map_key(&mut self, key: &str);
    /// Closes the innermost open object.
    fn map_end(&mut self);
    /// One whole value given as its JSON text, which must be well
    /// formed (`serde_json::value::RawValue` holds nothing else).
    fn raw(&mut self, json: &str);

    /// An array of bytes, each a number: what the events of
    /// `v.serialize` write, in one pass where it can (a topology's
    /// cells are 16 384 of them).
    fn u8_seq(&mut self, v: &[u8]);
}

/// The JSON kind of the value a [`Deserializer`] is about to yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Seq,
    /// An object.
    Map,
}

/// Yields the JSON-shaped events of one value on request.
///
/// Each typed accessor consumes the pending value, or fails with an
/// "expected …, found …" error when the pending value is of another
/// kind. After any error the deserializer's position is unspecified.
pub trait Deserializer: Sized {
    /// The kind of the pending value, without consuming it.
    fn kind(&mut self) -> Result<Kind, Error>;
    /// Consumes a `null`.
    fn null(&mut self) -> Result<(), Error>;
    /// Consumes a boolean.
    fn bool(&mut self) -> Result<bool, Error>;
    /// Consumes a number.
    fn number(&mut self) -> Result<Number, Error>;
    /// Consumes a string; the slice is valid until the next call.
    fn str(&mut self) -> Result<&str, Error>;
    /// Enters an array.
    fn seq_begin(&mut self) -> Result<(), Error>;
    /// `true` when another element of the innermost array is pending;
    /// `false` once the array is finished (and left).
    fn seq_next(&mut self) -> Result<bool, Error>;
    /// Enters an object.
    fn map_begin(&mut self) -> Result<(), Error>;
    /// The next key of the innermost object, its value then pending;
    /// `None` once the object is finished (and left). A key that occurs
    /// twice is yielded twice.
    fn map_key(&mut self) -> Result<Option<&str>, Error>;
    /// Consumes the pending value, whatever it is, and says that
    /// `expected` was wanted in its place.
    fn unexpected(&mut self, expected: &str) -> Error;
    /// Consumes the pending value, whatever it is, and yields its JSON
    /// text: the input's own bytes, surrounding whitespace left out. The
    /// slice is valid until the next call.
    fn raw(&mut self) -> Result<&str, Error>;

    /// Consumes an array of bytes: what `Vec::<u8>::deserialize`
    /// yields and refuses, to the letter of its errors, in one pass
    /// where it can (a topology's cells are 16 384 of them).
    fn u8_seq(&mut self) -> Result<Vec<u8>, Error>;

    /// Consumes the pending value, whatever it is (an unknown key's).
    fn skip(&mut self) -> Result<(), Error>;
}

/// Types that can emit themselves into a [`Serializer`].
pub trait Serialize {
    /// Emits `self` as one value's events.
    fn serialize<S: Serializer>(&self, s: &mut S);
}

/// Types that can rebuild themselves from a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Consumes one value and rebuilds `Self` from it.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the value has the wrong shape (or the
    /// underlying text is malformed).
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, Error>;
}

/// What a struct field whose key never occurred decodes to: whatever
/// its type makes of `null` (`None` for an `Option`, an error for most
/// others) — except that no text stands behind it, so a type that asks
/// for the value's text ([`Deserializer::raw`]) is refused rather than
/// handed `null`. Called by derive-generated code.
///
/// # Errors
///
/// Returns the type's own "expected …, found null" error.
pub fn missing_field<T: Deserialize>() -> Result<T, Error> {
    T::deserialize(&mut text::TextReader::absent())
}

/// A `#[serde(default)]` field's value: `None` (use the default) when
/// it is `null`, else the parsed value. Called by derive-generated code.
///
/// # Errors
///
/// Returns the type's error for a present, non-null, ill-shaped value.
pub fn defaulted_field<T: Deserialize, D: Deserializer>(d: &mut D) -> Result<Option<T>, Error> {
    if d.kind()? == Kind::Null {
        d.null()?;
        Ok(None)
    } else {
        T::deserialize(d).map(Some)
    }
}

// ---------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

macro_rules! impl_serialize_int {
    ($method:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                // Lossless: every listed type fits the wide one.
                s.$method(*self as $wide);
            }
        }
    )*};
}

impl_serialize_int!(u64 as u64: u8, u16, u32, u64, usize);
impl_serialize_int!(i64 as i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(f64::from(*self));
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.bool(*self);
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.seq_begin();
        for item in self {
            s.seq_element();
            item.serialize(s);
        }
        s.seq_end();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.seq_begin();
        s.seq_element();
        self.0.serialize(s);
        s.seq_element();
        self.1.serialize(s);
        s.seq_end();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.seq_begin();
        s.seq_element();
        self.0.serialize(s);
        s.seq_element();
        self.1.serialize(s);
        s.seq_element();
        self.2.serialize(s);
        s.seq_end();
    }
}

fn serialize_entries<'a, K, V, S>(entries: impl Iterator<Item = (&'a K, &'a V)>, s: &mut S)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
{
    s.seq_begin();
    for entry in entries {
        s.seq_element();
        entry.serialize(s);
    }
    s.seq_end();
}

/// Maps serialize as arrays of `[key, value]` pairs: unlike JSON
/// objects this supports non-string keys (the workspace keys maps by
/// tuples), and round-trips losslessly through `Deserialize`.
impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(self.iter(), s);
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_entries(self.iter(), s);
    }
}

// ---------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------

macro_rules! impl_deserialize_int {
    ($accessor:ident: $($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<$t, Error> {
                let number = d.number()?;
                number
                    .$accessor()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| {
                        Error::custom(format!(
                            "expected {}, found {number}",
                            stringify!($t)
                        ))
                    })
            }
        }
    )*};
}

impl_deserialize_int!(as_u64: u8, u16, u32, u64, usize);
impl_deserialize_int!(as_i64: i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<f64, Error> {
        let number = d.number()?;
        number
            .as_f64()
            .ok_or_else(|| Error::custom(format!("expected f64, found {number}")))
    }
}

impl Deserialize for f32 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<f32, Error> {
        f64::deserialize(d).map(|v| v as f32)
    }
}

impl Deserialize for bool {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<bool, Error> {
        d.bool()
    }
}

impl Deserialize for String {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<String, Error> {
        d.str().map(str::to_owned)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Box<T>, Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Option<T>, Error> {
        defaulted_field(d)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Vec<T>, Error> {
        d.seq_begin()?;
        let mut items = Vec::new();
        while d.seq_next()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<[T; N], Error> {
        let wrong = || Error::custom(format!("expected {N}-element array"));
        d.seq_begin()?;
        let mut items = [T::default(); N];
        for item in &mut items {
            if !d.seq_next()? {
                return Err(wrong());
            }
            *item = T::deserialize(d)?;
        }
        if d.seq_next()? {
            return Err(wrong());
        }
        Ok(items)
    }
}

/// Steps to the next element of a fixed-length array, or reports that
/// the array is not `arity` long when `more` says otherwise.
fn tuple_step<D: Deserializer>(d: &mut D, more: bool, arity: &str) -> Result<(), Error> {
    if d.seq_next()? == more {
        Ok(())
    } else {
        Err(Error::custom(format!("expected {arity}-element array")))
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<(A, B), Error> {
        d.seq_begin()?;
        tuple_step(d, true, "two")?;
        let a = A::deserialize(d)?;
        tuple_step(d, true, "two")?;
        let b = B::deserialize(d)?;
        tuple_step(d, false, "two")?;
        Ok((a, b))
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<(A, B, C), Error> {
        d.seq_begin()?;
        tuple_step(d, true, "three")?;
        let a = A::deserialize(d)?;
        tuple_step(d, true, "three")?;
        let b = B::deserialize(d)?;
        tuple_step(d, true, "three")?;
        let c = C::deserialize(d)?;
        tuple_step(d, false, "three")?;
        Ok((a, b, c))
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<BTreeMap<K, V>, Error> {
        Vec::<(K, V)>::deserialize(d).map(|entries| entries.into_iter().collect())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<HashMap<K, V>, Error> {
        Vec::<(K, V)>::deserialize(d).map(|entries| entries.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::value::{from_value, to_value};
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(from_value::<u32>(&to_value(&42u32)), Ok(42));
        assert_eq!(from_value::<i64>(&to_value(&-3i64)), Ok(-3));
        assert_eq!(from_value::<bool>(&to_value(&true)), Ok(true));
        assert_eq!(
            from_value::<String>(&to_value("hi")),
            Ok(String::from("hi"))
        );
    }

    #[test]
    fn options_and_vectors_round_trip() {
        let v: Option<u64> = None;
        assert!(to_value(&v).is_null());
        assert_eq!(from_value::<Option<u64>>(&Value::Null), Ok(None));
        let xs = vec![1u64, 2, 3];
        assert_eq!(from_value::<Vec<u64>>(&to_value(&xs)), Ok(xs));
    }

    #[test]
    fn tuple_keyed_maps_round_trip() {
        let mut m: HashMap<(u32, String), u64> = HashMap::new();
        m.insert((1, "a".into()), 10);
        m.insert((2, "b".into()), 20);
        let back = from_value::<HashMap<(u32, String), u64>>(&to_value(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn wrong_shapes_error() {
        assert!(from_value::<u32>(&Value::String("x".into())).is_err());
        assert!(from_value::<Vec<u64>>(&Value::Bool(true)).is_err());
        assert!(from_value::<(u8, u8)>(&to_value(&[1u8, 2, 3])).is_err());
        assert!(from_value::<(u8, u8, u8)>(&to_value(&[1u8, 2])).is_err());
        assert!(from_value::<u8>(&to_value(&300u32)).is_err());
        assert!(from_value::<u32>(&to_value(&-1i32)).is_err());
    }

    #[test]
    fn a_missing_field_is_a_null_field() {
        assert_eq!(missing_field::<Option<u8>>(), Ok(None));
        assert_eq!(missing_field::<Value>(), Ok(Value::Null));
        assert!(missing_field::<u8>().is_err());
        assert!(missing_field::<Vec<u8>>().is_err());
    }
}
