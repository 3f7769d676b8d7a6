//! Offline stand-in for `serde_json`.
//!
//! Renders the workspace serde shim's [`Value`] model to JSON text and
//! parses JSON text back. Covers the surface the workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], plus [`Value`] and
//! [`Error`] re-exports. Numbers are parsed as `f64`; floats print with
//! Rust's shortest round-trip formatting so persisted trees reload
//! bit-for-bit.
//!
//! Beyond the `serde_json` surface, the shim exposes its one JSON
//! grammar as the pull [`Reader`] and its scalar writers as
//! [`write_number`] and [`write_string`], so that a hot codec (the
//! serving protocol's) can go straight between text and typed values
//! with the same grammar and the same bytes as [`from_str`] and
//! [`to_string`].

pub use serde::Value;

use std::borrow::Cow;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// JSON serialization/parsing error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }

    /// Line number of the error. The shim does not track positions, so
    /// this is always 0; provided for API compatibility.
    pub fn line(&self) -> usize {
        0
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into any deserializable value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.end()?;
    Ok(T::deserialize(&value)?)
}

// -------------------------------------------------------------- printing

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => write_container(
            items.iter(),
            '[',
            ']',
            indent,
            depth,
            out,
            |item, out, d| write_value(item, indent, d, out),
        ),
        Value::Map(entries) => write_container(
            entries.iter(),
            '{',
            '}',
            indent,
            depth,
            out,
            |(k, item), out, d| {
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, d, out);
            },
        ),
    }
}

fn write_container<I: ExactSizeIterator>(
    items: I,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut write_item: impl FnMut(I::Item, &mut String, usize),
) {
    if items.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(item, out, depth + 1);
        if i + 1 != len {
            out.push(',');
        }
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

/// Appends the JSON text of a number: an integral value below 2^53 in
/// magnitude without a fraction, any other finite value in Rust's
/// shortest round-trip form, and `null` for NaN and infinities.
pub fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; serde_json writes null.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        write!(out, "{n:?}").expect("writing to a String cannot fail");
    }
}

/// Appends a JSON string literal: `s` quoted, with `"`, `\` and control
/// characters escaped.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --------------------------------------------------------------- parsing

/// A pull reader over JSON text: the one JSON grammar of the workspace.
///
/// [`from_str`] builds its [`Value`] with it, and typed decoders walk
/// text with it directly, without a [`Value`] in between. Every method
/// skips the whitespace before its token. Objects and arrays are read
/// as loops:
///
/// ```
/// let mut r = serde_json::Reader::new(r#"{"xs": [1, 2.5], "skip": {"a": null}}"#);
/// let mut xs = Vec::new();
/// r.begin_object()?;
/// while let Some(key) = r.next_key()? {
///     match &*key {
///         "xs" => {
///             r.begin_array()?;
///             while r.next_element()? {
///                 xs.push(r.f64()?);
///             }
///         }
///         _ => r.skip_value()?,
///     }
/// }
/// r.end()?;
/// assert_eq!(xs, [1.0, 2.5]);
/// # Ok::<(), serde_json::Error>(())
/// ```
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The last token read opened an object or an array, so the next
    /// key or element takes no separating comma.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            opened: false,
        }
    }

    /// Reads the `{` that opens an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect(b'{')?;
        self.opened = true;
        Ok(())
    }

    /// Reads the next key of the object being read, with its `:`, or
    /// the closing `}` (`None`). The key's value must be read (or
    /// skipped) before the next call.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_item(b'}', "object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the `[` that opens an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect(b'[')?;
        self.opened = true;
        Ok(())
    }

    /// Steps to the next element of the array being read (`true`), or
    /// reads its closing `]` (`false`). The element must be read (or
    /// skipped) before the next call.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_item(b']', "array")
    }

    /// Reads a number.
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.unexpected(other)),
        }
    }

    /// Reads a string, borrowed from the text unless it holds escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::new();
        let mut run = start;
        loop {
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
            run = self.pos;
            self.skip_plain();
        }
    }

    /// Reads a value of any kind and discards it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            other => {
                self.literal(other)?;
            }
        }
        Ok(())
    }

    /// Reads a value of any kind and returns its text, without the
    /// whitespace around it.
    pub fn raw_value(&mut self) -> Result<&'a str, Error> {
        self.skip_ws();
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.text[start..self.pos])
    }

    /// Reads a value of any kind into the [`Value`] data model.
    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    entries.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Map(entries))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            other => self.literal(other),
        }
    }

    /// Checks that only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// Steps past the `,` before the next item of an object or array
    /// (`true`), or past its `close` (`false`).
    fn next_item(&mut self, close: u8, what: &str) -> Result<bool, Error> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.peek() == Some(close) {
                self.pos += 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(Error::new(format!("bad {what} at byte {}", self.pos))),
        }
    }

    /// Steps to the next `"` or `\\` (or the end of the text).
    fn skip_plain(&mut self) {
        self.pos += self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - self.pos);
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn unexpected(&self, found: Option<u8>) -> Error {
        Error::new(format!("unexpected input {found:?} at byte {}", self.pos))
    }

    /// Reads `null`, `true` or `false`, whose first byte is `first`.
    fn literal(&mut self, first: Option<u8>) -> Result<Value, Error> {
        for (literal, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                return Ok(value);
            }
        }
        Err(self.unexpected(first))
    }

    /// Reads the character of the escape whose `\` was just read.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(esc) = self.peek() else {
            return Err(Error::new("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| Error::new("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| Error::new("invalid \\u code point"))?
            }
            other => return Err(Error::new(format!("bad escape `\\{}`", other as char))),
        })
    }

    /// Reads the number starting here: the longest run of number
    /// characters, parsed as an `f64`.
    fn number(&mut self) -> Result<f64, Error> {
        let start = self.pos;
        self.pos += self.bytes[start..]
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(self.bytes.len() - start);
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("tree \"x\"\n".into())),
            ("score".into(), Value::Num(0.1 + 0.2)),
            ("count".into(), Value::Num(42.0)),
            (
                "flags".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed, v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for x in [1.0e-300, std::f64::consts::PI, -0.000123456789, 1e20, 0.3] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{broken").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn reader_borrows_plain_strings_and_decodes_escapes() {
        let mut r = Reader::new(r#" "plain" "a\"b\u00e9\n" "#);
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        assert_eq!(r.string().unwrap(), "a\"bé\n");
        r.end().unwrap();
        for bad in [r#""open"#, r#""\x""#, r#""\ud800""#, r#""\u12""#] {
            assert!(Reader::new(bad).string().is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_walks_objects_and_arrays_with_the_value_grammar() {
        let text = r#"{"a": [1, {"b": null}], "c": "x", "a": true}"#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.raw_value().unwrap(), r#"[1, {"b": null}]"#);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.end().unwrap();
        // A separator needs an item after it, and items need one between.
        for bad in [
            "{,}",
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":1 "b":2}"#,
            "[1 2]",
            "[,1]",
            "nul",
        ] {
            assert!(Reader::new(bad).skip_value().is_err(), "{bad}");
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
        assert!(Reader::new("[] x").value().is_ok());
        assert!(from_str::<Value>("[] x").is_err());
    }

    #[test]
    fn numbers_read_as_parse_reads_them() {
        let texts = [
            "0",
            "-0",
            "007",
            "-0.0",
            "0.5",
            "1.",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
            "0.1234567890123456789012",
            "1.00000000000000000000001",
            "123456789012345",
            "-999999999999999",
            "1234567890123456",
            "5.771273696480501",
            "10.105306679154626",
            "1e22",
            "1E-7",
            "2.5e+3",
        ];
        for text in texts {
            let read = Reader::new(text).f64().unwrap();
            assert_eq!(
                read.to_bits(),
                text.parse::<f64>().unwrap().to_bits(),
                "{text}"
            );
        }
        for bad in ["-", "1-2", "1e", "--1", "1.2.3"] {
            assert!(Reader::new(bad).f64().is_err(), "{bad}");
        }
        assert_eq!(Reader::new("1e999").f64().unwrap(), f64::INFINITY);
    }
}
