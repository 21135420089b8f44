//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! the [`Value`] tree, [`value::RawValue`], the [`json!`] macro, and the
//! `to_string` / `from_str` / `to_value` / `from_value` entry points.
//!
//! This crate is the facade; the codec itself — the JSON text writer
//! and reader — lives in the serde shim. `to_string` and `from_str` run
//! a typed value straight to and from text; no [`Value`] is built
//! unless a `Value` is what the caller asked for, and then it is read
//! from the text too: `to_value` writes the value and reads the text
//! back as a tree, `from_value` writes the tree and reads the text as
//! the type.
//!
//! The text format is standard JSON, compact, object keys in ascending
//! byte order. Reading accepts any key order and surrounding
//! whitespace, at most [`MAX_DEPTH`](serde::text::MAX_DEPTH) open
//! arrays and objects, and decodes `\uXXXX` surrogate pairs (a lone
//! surrogate becomes U+FFFD). One deliberate divergence from the real
//! crate: maps serialize as `[key, value]` entry arrays (see the serde
//! shim), which lets tuple-keyed maps round-trip.

pub mod value;

pub use serde::Error;
pub use value::{from_value, to_value, Map, Number, Value};

use serde::text::{TextReader, TextWriter};
use serde::{Deserialize, Serialize};

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut writer = TextWriter::default();
    value.serialize(&mut writer);
    Ok(writer.finish())
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or mismatched shape.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = TextReader::new(text);
    let value = T::deserialize(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Builds a [`Value`] with JSON-like syntax.
///
/// Supports `null`, `true`/`false`, nested `[...]` arrays and
/// `{"key": value}` objects, and arbitrary serializable Rust
/// expressions in value position — a tt-muncher in the style of the
/// real `serde_json::json!`.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ----- array element munching: @array [built elements] rest...
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ----- object entry munching: @object map (partial key) (rest) (copy)
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // ----- entry points
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let ids = vec![1u64, 2, 3];
        let v = json!({"ids": ids, "size": [16usize, 32usize], "ok": true, "name": "x"});
        assert_eq!(v["ids"][1], 2);
        assert_eq!(v["size"], json!([16, 32]));
        assert_eq!(v["ok"], true);
        assert_eq!(v["name"], "x");
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(7i64), Value::Number(Number::PosInt(7)));
    }

    #[test]
    fn text_round_trip() {
        let v = json!({"a": [1, 2], "b": {"c": "hi \"quoted\"\n"}, "d": null, "e": -4, "f": 1.5});
        let text = v.to_string();
        let back: Value = from_str(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nulL").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = json!({"s": "αβ\t\"x\""});
        let back: Value = from_str(&v.to_string()).expect("parses");
        assert_eq!(back, v);
        let unicode: Value = from_str("\"\\u0041\"").expect("parses");
        assert_eq!(unicode, "A");
    }
}
