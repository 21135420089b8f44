//! JSON text as a [`Serializer`] ([`TextWriter`]) and as a
//! [`Deserializer`] ([`TextReader`]) — the only place in the workspace
//! that knows JSON's syntax.

use crate::{Deserialize, Deserializer, Error, Kind, Number, Serialize, Serializer, Value};
use std::io::Write;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// A [`Serializer`] that writes compact JSON text.
///
/// Its per-member methods are `#[inline]`: a 128×128 topology is
/// 16 384 one-digit members, and a call per comma and per digit (these
/// methods are not generic, so without the attribute they are calls
/// into this crate) is most of what writing one costs.
#[derive(Default)]
pub struct TextWriter {
    /// UTF-8 by construction: whole `&str`s and ASCII bytes only.
    out: Vec<u8>,
}

impl TextWriter {
    /// The text written so far.
    ///
    /// # Panics
    ///
    /// Never: see the field's invariant.
    #[must_use]
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends whole strs and ASCII bytes")
    }

    /// Separates a member from the one before it. The text ends with
    /// the container's opening bracket exactly when there is none: no
    /// value's text ends with `[` or `{`.
    #[inline]
    fn separate(&mut self, open: u8) {
        if self.out.last() != Some(&open) {
            self.out.push(b',');
        }
    }

    fn push_str(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
    }

    /// Decimal digits of a number of two or more digits.
    fn long_u64(&mut self, mut v: u64) {
        // Least significant first, into the tail of a buffer long
        // enough for `u64::MAX` (20 digits).
        let mut digits = [b'0'; 20];
        let mut at = digits.len();
        while v > 0 {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// Appends `s` as a JSON string literal: `"`, `\` and the control
    /// characters escaped, everything else (non-ASCII too) verbatim.
    fn quoted(&mut self, s: &str) {
        self.out.push(b'"');
        let mut clean = 0;
        for (at, byte) in s.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.extend_from_slice(&s.as_bytes()[clean..at]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.push_str(escape);
            }
            clean = at + 1;
        }
        self.out.extend_from_slice(&s.as_bytes()[clean..]);
        self.out.push(b'"');
    }
}

impl Serializer for TextWriter {
    fn null(&mut self) {
        self.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.push_str(if v { "true" } else { "false" });
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        if v < 10 {
            self.out.push(b'0' + v as u8);
        } else {
            self.long_u64(v);
        }
    }

    #[inline]
    fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.push_str("null");
        }
    }

    fn str(&mut self, v: &str) {
        self.quoted(v);
    }

    #[inline]
    fn seq_begin(&mut self) {
        self.out.push(b'[');
    }

    #[inline]
    fn seq_element(&mut self) {
        self.separate(b'[');
    }

    #[inline]
    fn seq_end(&mut self) {
        self.out.push(b']');
    }

    fn map_begin(&mut self) {
        self.out.push(b'{');
    }

    fn map_key(&mut self, key: &str) {
        self.separate(b'{');
        self.quoted(key);
        self.out.push(b':');
    }

    fn map_end(&mut self) {
        self.out.push(b'}');
    }

    fn raw(&mut self, json: &str) {
        self.push_str(json);
    }

    /// The whole array at once when every byte is one digit — a
    /// comma, then the digit, written two bytes a cell into one
    /// resized buffer — and the element loop otherwise.
    fn u8_seq(&mut self, v: &[u8]) {
        if v.iter().fold(0, |max, &byte| max.max(byte)) > 9 {
            return v.serialize(self);
        }
        self.out.push(b'[');
        if let Some((&first, rest)) = v.split_first() {
            self.out.push(b'0' + first);
            let start = self.out.len();
            self.out.resize(start + 2 * rest.len(), b',');
            for (pair, &digit) in self.out[start..].chunks_exact_mut(2).zip(rest) {
                pair[1] = b'0' + digit;
            }
        }
        self.out.push(b']');
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// How many arrays and objects may be open at once. Input is read by
/// recursive descent (the typed readers', [`Value`]'s and
/// [`Deserializer::skip`]'s), so unbounded nesting would be an
/// unbounded stack; a line of 200 000 `[` is an error, not a crash.
pub const MAX_DEPTH: usize = 128;

/// A [`Deserializer`] that parses JSON text as it is asked for values.
/// What one array member costs is `#[inline]`, as in [`TextWriter`].
pub struct TextReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The innermost container was entered and no member read yet.
    fresh: bool,
    /// The last string that needed unescaping.
    unescaped: String,
    /// The text is the `null` a struct field whose key never came
    /// stands for, and no text stands behind it.
    absent: bool,
}

/// Where a just-read string lives: a range of the input when it held
/// no escapes, else the reader's `unescaped` buffer.
type Span = Option<(usize, usize)>;

impl<'a> TextReader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> TextReader<'a> {
        TextReader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
            unescaped: String::new(),
            absent: false,
        }
    }

    /// A reader of what a struct field whose key never came decodes
    /// from: `null`, except that [`raw`](Deserializer::raw) has no text
    /// to yield and refuses.
    pub(crate) fn absent() -> TextReader<'static> {
        TextReader {
            absent: true,
            ..TextReader::new("null")
        }
    }

    /// Accepts trailing whitespace, and nothing else, after the value.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the first trailing character's offset.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_whitespace();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error::custom(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes().get(self.pos).copied().ok_or_else(end_of_text)
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Consumes `open` and enters the container it starts.
    fn enter(&mut self, open: u8, expected: &str) -> Result<(), Error> {
        if self.peek()? != open {
            return Err(self.unexpected(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the innermost container's next member: `false` at its
    /// `close` bracket (consumed), `true` after the `,` that must
    /// precede every member but the first.
    #[inline]
    fn next_member(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::take(&mut self.fresh);
        let byte = self.peek()?;
        if byte == b',' && !first {
            self.pos += 1;
            Ok(true)
        } else if byte == close {
            self.pos += 1;
            self.depth -= 1;
            Ok(false)
        } else if first {
            Ok(true)
        } else {
            Err(self.expected_separator(close))
        }
    }

    /// Steps over the `,d` members — a comma, then one digit — that
    /// follow a member of the innermost array, 31 a step, for as long
    /// as the text is nothing else, and hands `take` each step's 62
    /// bytes: a 128×128 topology's `bits` is 32 kB of them. Each pair
    /// stepped over is followed by the next one's comma, so
    /// [`next_member`](Self::next_member) and
    /// [`number`](Deserializer::number) would have taken it as it
    /// stands; the last pair of a chunk, and whatever is spelled any
    /// other way (`10`, `-1`, ` 1`), is left to them.
    #[inline]
    fn digit_members(&mut self, mut take: impl FnMut(&[u8])) {
        const CHUNK: usize = 64;
        while let Some(chunk) = self.bytes().get(self.pos..self.pos + CHUNK) {
            // No early exit and no `&&`: a loop the compiler turns
            // into a few vector compares.
            let mut other = 0u8;
            for pair in chunk.chunks_exact(2) {
                other |= (pair[0] ^ b',') | u8::from(pair[1].wrapping_sub(b'0') > 9);
            }
            if other != 0 {
                return;
            }
            take(&chunk[..CHUNK - 2]);
            self.pos += CHUNK - 2;
        }
    }

    #[cold]
    fn expected_separator(&self, close: u8) -> Error {
        Error::custom(format!(
            "expected ',' or '{}' at byte {}",
            char::from(close),
            self.pos
        ))
    }

    fn resolve(&self, span: Span) -> &str {
        match span {
            Some((start, end)) => &self.text[start..end],
            None => &self.unescaped,
        }
    }

    /// The offset of the next `"` or `\` at or after `from`.
    fn string_stop(&self, from: usize) -> Result<usize, Error> {
        self.bytes()[from..]
            .iter()
            .position(|byte| matches!(byte, b'"' | b'\\'))
            .map(|offset| from + offset)
            .ok_or_else(|| Error::custom("unterminated string"))
    }

    /// Consumes a string literal (the opening quote is pending).
    fn string(&mut self) -> Result<Span, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut stop = self.string_stop(start)?;
        if self.bytes()[stop] == b'"' {
            self.pos = stop + 1;
            return Ok(Some((start, stop)));
        }
        // Stops sit on ASCII bytes, so every slice below starts and
        // ends on a char boundary.
        self.unescaped.clear();
        let mut clean = start;
        loop {
            self.unescaped.push_str(&self.text[clean..stop]);
            self.pos = stop + 1;
            if self.bytes()[stop] == b'"' {
                return Ok(None);
            }
            let unescaped = self.escape()?;
            self.unescaped.push(unescaped);
            clean = self.pos;
            stop = self.string_stop(clean)?;
        }
    }

    /// The character an escape stands for (the backslash is consumed).
    fn escape(&mut self) -> Result<char, Error> {
        let escape = *self
            .bytes()
            .get(self.pos)
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let unit = self.hex4()?;
                let scalar = match unit {
                    // A high surrogate and the low one escaped right
                    // after it are one scalar.
                    0xd800..=0xdbff if self.bytes()[self.pos..].starts_with(b"\\u") => {
                        let resume = self.pos;
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x1_0000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => {
                                self.pos = resume;
                                unit
                            }
                        }
                    }
                    _ => unit,
                };
                // What is still a surrogate here stands alone.
                char::from_u32(scalar).unwrap_or('\u{fffd}')
            }
            other => {
                return Err(Error::custom(format!(
                    "invalid escape '\\{}'",
                    char::from(other)
                )))
            }
        })
    }

    /// A number of any other spelling than [`Deserializer::number`]'s
    /// common case: every byte a number can hold is taken, and what
    /// they spell is a `u64`, else an `i64`, else an `f64`, else wrong.
    fn number_in_full(&mut self) -> Result<Number, Error> {
        if self.kind()? != Kind::Number {
            return Err(self.unexpected("number"));
        }
        let start = self.pos;
        let length = self.bytes()[start..]
            .iter()
            .take_while(|byte| is_number_byte(byte))
            .count();
        let text = &self.text[start..start + length];
        self.pos += length;
        let magnitude = text.strip_prefix('-').unwrap_or(text);
        let is_float = !magnitude.bytes().all(|byte| byte.is_ascii_digit());
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid number at byte {start}")));
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::PosInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Number::NegInt(v));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::custom(format!("invalid number '{text}'")))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.iter().all(u8::is_ascii_hexdigit))
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }
}

#[cold]
fn end_of_text() -> Error {
    Error::custom("unexpected end of JSON")
}

/// The bytes a number's text may hold (in any order, as far as
/// finding its end goes).
#[inline]
fn is_number_byte(byte: &u8) -> bool {
    matches!(byte, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

impl Deserializer for TextReader<'_> {
    #[inline]
    fn kind(&mut self) -> Result<Kind, Error> {
        Ok(match self.peek()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::String,
            b'[' => Kind::Seq,
            b'{' => Kind::Map,
            // Anything else has to be a number to be anything.
            _ => Kind::Number,
        })
    }

    fn null(&mut self) -> Result<(), Error> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            _ => Err(self.unexpected("null")),
        }
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    #[inline]
    fn number(&mut self) -> Result<Number, Error> {
        self.skip_whitespace();
        let bytes = self.bytes();
        let start = self.pos;
        // The common case: a short run of digits and nothing more.
        let mut end = start;
        let mut value = 0u64;
        while let Some(digit @ b'0'..=b'9') = bytes.get(end) {
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            end += 1;
        }
        // 19 digits cannot overflow a u64.
        if (1..=19).contains(&(end - start)) && !bytes.get(end).is_some_and(is_number_byte) {
            self.pos = end;
            return Ok(Number::PosInt(value));
        }
        self.number_in_full()
    }

    fn str(&mut self) -> Result<&str, Error> {
        if self.kind()? != Kind::String {
            return Err(self.unexpected("string"));
        }
        let span = self.string()?;
        Ok(self.resolve(span))
    }

    fn seq_begin(&mut self) -> Result<(), Error> {
        self.enter(b'[', "array")
    }

    #[inline]
    fn seq_next(&mut self) -> Result<bool, Error> {
        self.next_member(b']')
    }

    fn map_begin(&mut self) -> Result<(), Error> {
        self.enter(b'{', "object")
    }

    fn map_key(&mut self) -> Result<Option<&str>, Error> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let span = self.string()?;
        self.expect(b':')?;
        Ok(Some(self.resolve(span)))
    }

    fn unexpected(&mut self, expected: &str) -> Error {
        match Value::deserialize(self) {
            Ok(found) => Error::custom(format!("expected {expected}, found {found}")),
            Err(malformed) => malformed,
        }
    }

    fn raw(&mut self) -> Result<&str, Error> {
        if self.absent {
            return Err(Error::custom("expected a value, found none"));
        }
        self.skip_whitespace();
        let start = self.pos;
        self.skip()?;
        Ok(&self.text[start..self.pos])
    }

    /// A walk of the value's events, so what it accepts is what reading
    /// the value as a [`Value`] accepts, nesting included — plus the
    /// fast path over an array's one-digit members.
    fn skip(&mut self) -> Result<(), Error> {
        match self.kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Seq => {
                self.seq_begin()?;
                while self.seq_next()? {
                    self.skip()?;
                    self.digit_members(|_| ());
                }
                Ok(())
            }
            Kind::Map => {
                self.map_begin()?;
                while self.map_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// The element loop, plus the chunk loop [`skip`](Deserializer::skip)
    /// runs after every element: what it steps over, the element loop
    /// would have read as one digit each.
    fn u8_seq(&mut self) -> Result<Vec<u8>, Error> {
        self.seq_begin()?;
        let mut items = Vec::new();
        while self.seq_next()? {
            items.push(u8::deserialize(self)?);
            self.digit_members(|pairs| {
                items.extend(pairs.chunks_exact(2).map(|pair| pair[1] - b'0'));
            });
        }
        Ok(items)
    }
}
