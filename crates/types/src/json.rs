//! The workspace's one JSON codec: a streaming writer and a pull reader,
//! both dependency-free.
//!
//! Every JSON document the workspace produces (journal payloads, plan
//! snapshots, diagnostics, traces, WAR payloads, every `cornetd` body) is
//! written through [`JsonWriter`] and every document it consumes is read
//! by a [`Cursor`] — directly by the hot decoders (journal records, ingest
//! samples), as a [`JsonValue`] tree through [`parse`] everywhere else; no
//! other module knows the text format. There is one string escaper
//! ([`JsonWriter::str`]), one unescaper ([`Cursor::string`]) and one float
//! formatter ([`JsonWriter::float`]).
//!
//! The writer appends to a caller-owned `String` as values are written —
//! no [`JsonValue`] tree is built on an emit path — and is deterministic.
//! A non-finite float is written as `null`, so no emitted document can
//! fail [`parse`]. The reader makes one pass over its input and refuses
//! nesting deeper than [`MAX_DEPTH`] with a positioned
//! [`CornetError::Parse`], so outside input cannot exhaust the stack.

use crate::{CornetError, Result};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Object keys keep their source order so downstream
/// consumers (e.g. frozen-element selectors) see deterministic iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; the intent API never exceeds 2^53).
    Number(f64),
    /// String with escapes resolved.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object entries, if it is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Parse a JSON document into a tree. The whole input must be consumed
/// (trailing whitespace aside) — garbage after the document is an error.
pub fn parse(input: &str) -> Result<JsonValue> {
    let mut cursor = Cursor::new(input);
    let value = cursor.value()?;
    cursor.end()?;
    Ok(value)
}

/// Deepest container nesting the reader accepts. Each `begin_*` counts
/// one level, so [`parse`] and every recursive decoder on a [`Cursor`]
/// are bounded the same way on hostile input; documents the workspace
/// itself writes nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// The one JSON reader: a pull cursor over a document, one value at a
/// time and in document order. [`parse`] is this cursor building a
/// [`JsonValue`]; a decoder that knows its schema walks the cursor
/// itself and builds no tree.
///
/// Inside an object, [`next_key`](Self::next_key) yields each key and the
/// caller then reads (or [`value`](Self::value)s away) exactly one value;
/// inside an array, [`next_item`](Self::next_item) says whether another
/// value follows. Both answer "no more" by consuming the closing bracket.
/// Every error is a [`CornetError::Parse`] carrying the byte offset.
///
/// ```
/// use cornet_types::json::Cursor;
///
/// let mut c = Cursor::new(r#"{"id":"c1","slots":[1,2]}"#);
/// c.begin_object().unwrap();
/// let mut slots = Vec::new();
/// while let Some(key) = c.next_key().unwrap() {
///     match &*key {
///         "slots" => {
///             c.begin_array().unwrap();
///             while c.next_item().unwrap() {
///                 slots.push(c.number().unwrap());
///             }
///         }
///         _ => drop(c.value().unwrap()),
///     }
/// }
/// c.end().unwrap();
/// assert_eq!(slots, [1.0, 2.0]);
/// ```
pub struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the position.
    depth: usize,
    /// The innermost container was just opened: no `,` before its first
    /// item.
    first: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor before the first value of `input`.
    pub fn new(input: &'a str) -> Self {
        Cursor {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn error(&self, msg: &str) -> CornetError {
        CornetError::Parse(format!("JSON at byte {}: {msg}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    /// Open a container; the depth cap is checked before the bracket.
    #[inline]
    fn open(&mut self, bracket: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Step to the next item of the open container: `Ok(false)` once its
    /// closing bracket is consumed.
    #[inline]
    fn next(&mut self, close: u8, malformed: &str) -> Result<bool> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.error(malformed)),
        }
    }

    /// Open an object: `{`.
    #[inline]
    pub fn begin_object(&mut self) -> Result<()> {
        self.open(b'{')
    }

    /// The next key of the open object, positioned before its value, or
    /// `None` once the closing `}` is consumed. A key without escapes is
    /// borrowed from the input.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.next(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Open an array: `[`.
    #[inline]
    pub fn begin_array(&mut self) -> Result<()> {
        self.open(b'[')
    }

    /// Whether another value of the open array follows; `false` once the
    /// closing `]` is consumed.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool> {
        self.next(b']', "expected ',' or ']' in array")
    }

    /// A string value with its escapes resolved: borrowed from the input
    /// when it has none.
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        // Runs end at the next quote or backslash. Both are ASCII, so they
        // never occur inside a multi-byte sequence and every run is cut on
        // char boundaries.
        self.skip_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.input[start..self.pos - 1]));
        }
        let mut out = self.input[start..self.pos].to_owned();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDC00..\uDFFF`.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_run();
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    #[inline]
    fn skip_run(&mut self) {
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    /// A number value.
    pub fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        // Only ASCII was stepped over, so the slice is on char boundaries.
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.error("malformed number"))
    }

    #[inline]
    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A `true` or `false` value.
    pub fn boolean(&mut self) -> Result<bool> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            _ => self.literal("false").map(|()| false),
        }
    }

    /// Consume a `null` if one is next: `Ok(false)`, with nothing
    /// consumed, when the next value is anything else.
    pub fn null(&mut self) -> Result<bool> {
        self.skip_ws();
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// The next value, whatever it is, as a tree — for a field a decoder
    /// does not model, or to skip one.
    pub fn value(&mut self) -> Result<JsonValue> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    entries.push((key.into_owned(), value));
                }
                Ok(JsonValue::Object(entries))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't' | b'f') => self.boolean().map(JsonValue::Bool),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// End of document: only whitespace may follow the value read.
    pub fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after JSON document"));
        }
        Ok(())
    }
}

/// How [`JsonWriter::float`] renders a finite `f64`. Each variant is one
/// of Rust's own float formats, so a call site keeps the precision it has
/// always written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloatFmt {
    /// `{}`: shortest digits that round-trip; whole values print bare (`2`).
    Display,
    /// `{:?}`: shortest digits that round-trip; always float-shaped
    /// (`2.0`, `1e21`), so the reader gets back the same bits.
    Debug,
    /// `{:.N}`: exactly `N` decimals.
    Fixed(usize),
    /// `{:e}`: scientific notation.
    Exp,
}

/// Streaming JSON writer: a cursor that appends to a caller-owned
/// `String`.
///
/// Scalars and `begin_*`/`end_*` scopes are written in document order;
/// the writer places the commas and escapes every string. Inside an
/// object each value is preceded by its [`key`](Self::key). The caller
/// balances the scopes, as it balances braces in source text.
///
/// ```
/// use cornet_types::json::{FloatFmt, JsonWriter};
///
/// let mut out = String::new();
/// let mut w = JsonWriter::compact(&mut out);
/// w.begin_object();
/// w.key("id").str("c\"1");
/// w.key("slots").begin_array().int(1).int(2).end_array();
/// w.key("rate").float(f64::NAN, FloatFmt::Display);
/// w.end_object();
/// assert_eq!(out, r#"{"id":"c\"1","slots":[1,2],"rate":null}"#);
/// ```
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// A space follows each `,` and `:`.
    spaced: bool,
    /// The open scope already holds an item: the next one needs a comma.
    comma: bool,
    /// Indentation of a pending [`line`](Self::line) break.
    line: Option<usize>,
}

impl<'a> JsonWriter<'a> {
    /// Writer with no insignificant whitespace (`{"a":1,"b":2}`) — the
    /// form of journal payloads and every `cornetd` body.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            spaced: false,
            comma: false,
            line: None,
        }
    }

    /// Writer that puts a space after `,` and `:` (`{"a": 1, "b": 2}`) —
    /// the form of traces, plan snapshots and bench reports.
    pub fn spaced(out: &'a mut String) -> Self {
        JsonWriter {
            spaced: true,
            ..JsonWriter::compact(out)
        }
    }

    /// Layout only: start the next key, value or closing bracket on a new
    /// line indented by `indent` spaces.
    pub fn line(&mut self, indent: usize) -> &mut Self {
        self.line = Some(indent);
        self
    }

    #[inline]
    fn break_line(&mut self) -> bool {
        let Some(indent) = self.line.take() else {
            return false;
        };
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
        true
    }

    /// Separator before a key or a value; afterwards the scope holds an item.
    #[inline]
    fn item(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        if !self.break_line() && self.comma && self.spaced {
            self.out.push(' ');
        }
        self.comma = true;
    }

    #[inline]
    fn open(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    #[inline]
    fn close(&mut self, bracket: char) -> &mut Self {
        self.break_line();
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Open an object: `{`.
    #[inline]
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost object: `}`.
    #[inline]
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array: `[`.
    #[inline]
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array: `]`.
    #[inline]
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Write an object key; the next value written belongs to it.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        if self.spaced {
            self.out.push(' ');
        }
        self.comma = false;
        self
    }

    /// Write a string value, escaped.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
        self
    }

    /// Write a string value holding `v`'s `Display` text, escaped — for
    /// numbers carried as strings (`"duration_ns":"42"`), hex
    /// fingerprints and enum labels, without an intermediate `String`.
    pub fn display(&mut self, v: impl fmt::Display) -> &mut Self {
        self.item();
        self.out.push('"');
        let _ = write!(Escaped(self.out), "{v}");
        self.out.push('"');
        self
    }

    /// Write an integer of any primitive type up to 64 bits.
    pub fn int(&mut self, v: impl TryInto<i128>) -> &mut Self {
        self.item();
        let v: i128 = v.try_into().ok().expect("a primitive integer");
        let mut magnitude = u64::try_from(v.unsigned_abs()).expect("at most 64 bits");
        // Decimal digits, least significant first, into the tail of a
        // buffer that fits `-` and the 20 digits of `u64::MAX`.
        let mut buf = [b'0'; 21];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        if v < 0 {
            start -= 1;
            buf[start] = b'-';
        }
        self.out
            .push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
        self
    }

    /// Write a float in the given format; `null` when it is not finite
    /// (JSON has no NaN or infinity).
    pub fn float(&mut self, v: f64, fmt: FloatFmt) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.item();
        let _ = match fmt {
            FloatFmt::Display => write!(self.out, "{v}"),
            FloatFmt::Debug => write!(self.out, "{v:?}"),
            FloatFmt::Fixed(decimals) => write!(self.out, "{v:.decimals$}"),
            FloatFmt::Exp => write!(self.out, "{v:e}"),
        };
        self
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splice in a value that is already JSON text — a document another
    /// `JsonWriter` rendered, or a decimal literal held as a string.
    #[inline]
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.item();
        self.out.push_str(json);
        self
    }
}

/// The string escaper: `"` and `\` get a backslash, `\n` `\r` `\t` their
/// short forms, every other C0 control `\u00XX`; all else is copied.
#[inline]
fn escape_into(out: &mut String, s: &str) {
    let plain = |b: u8| b >= 0x20 && b != b'"' && b != b'\\';
    let Some(first) = s.bytes().position(|b| !plain(b)) else {
        return out.push_str(s);
    };
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate().skip(first) {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "",
        };
        // Escaped bytes are ASCII, so the slices fall on char boundaries.
        out.push_str(&s[copied..i]);
        out.push_str(short);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// `fmt::Write` adapter that escapes whatever is formatted into it.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), JsonValue::Number(-25.0));
        assert_eq!(
            parse(r#""a\n\"bé""#).unwrap(),
            JsonValue::String("a\n\"bé".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d").unwrap().entries(), Some(&[][..]));
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<_> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{ not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").is_err(), "trailing tokens");
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            JsonValue::String("😀".into())
        );
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            JsonValue::String("😀".into()),
            "raw multi-byte UTF-8 passes through"
        );
    }

    #[test]
    fn hostile_nesting_is_a_positioned_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let Err(CornetError::Parse(msg)) = parse(&open.repeat(300_000)) else {
                panic!("300 KB of {open:?} must be refused");
            };
            assert!(msg.contains("nesting deeper than 128 levels"), "{msg}");
            assert!(
                msg.starts_with(&format!("JSON at byte {}:", 128 * open.len())),
                "{msg}"
            );
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert!(parse(&format!("[{deepest}]")).is_err());
        // Depth is nesting, not container count.
        assert!(parse(&format!("[{}]", "[],".repeat(1000) + "[]")).is_ok());
    }

    #[test]
    fn parse_errors_keep_their_texts_and_positions() {
        for (doc, want) in [
            ("", "JSON at byte 0: expected a JSON value"),
            (" {\"a\" 1}", "JSON at byte 6: expected ':'"),
            ("{\"a\":1,}", "JSON at byte 7: expected '\"'"),
            ("{,}", "JSON at byte 1: expected '\"'"),
            (
                "{\"a\":1 \"b\":2}",
                "JSON at byte 7: expected ',' or '}' in object",
            ),
            ("[1 2]", "JSON at byte 3: expected ',' or ']' in array"),
            ("[1,]", "JSON at byte 3: expected a JSON value"),
            ("[tru]", "JSON at byte 1: expected \"true\""),
            ("nul", "JSON at byte 0: expected \"null\""),
            ("-", "JSON at byte 1: malformed number"),
            ("\"ab", "JSON at byte 3: unterminated string"),
            ("\"a\\", "JSON at byte 3: bad escape"),
            ("\"\\x\"", "JSON at byte 3: unknown escape"),
            ("\"\\u12\"", "JSON at byte 3: truncated \\u escape"),
            ("\"\\u12g4\"", "JSON at byte 3: bad \\u escape"),
            ("\"\\uD800x\"", "JSON at byte 7: invalid \\u escape"),
            (
                "{} x",
                "JSON at byte 3: trailing characters after JSON document",
            ),
        ] {
            match parse(doc) {
                Err(CornetError::Parse(msg)) => assert_eq!(msg, want, "{doc:?}"),
                other => panic!("{doc:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn cursor_borrows_what_needs_no_unescaping() {
        let mut c = Cursor::new(r#" {"plain": "abc", "esc\"aped": "a\nb", "n": null} "#);
        c.begin_object().unwrap();
        assert!(matches!(
            c.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        assert!(matches!(c.string().unwrap(), Cow::Borrowed("abc")));
        let key = c.next_key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(k) if k == "esc\"aped"), "{key:?}");
        assert!(matches!(c.string().unwrap(), Cow::Owned(s) if s == "a\nb"));
        assert_eq!(c.next_key().unwrap().as_deref(), Some("n"));
        assert!(c.null().unwrap());
        assert!(c.next_key().unwrap().is_none());
        c.end().unwrap();
    }

    #[test]
    fn cursor_reads_scalars_in_arrays() {
        let mut c = Cursor::new("[ 1.5e1 , true,false,null,\"x\", [], {\"k\": [2]} ]");
        c.begin_array().unwrap();
        assert!(c.next_item().unwrap());
        assert!(!c.null().unwrap(), "a number is not null, and stays unread");
        assert_eq!(c.number().unwrap(), 15.0);
        assert!(c.next_item().unwrap());
        assert!(c.boolean().unwrap());
        assert!(c.next_item().unwrap());
        assert!(!c.boolean().unwrap());
        assert!(c.next_item().unwrap());
        assert!(c.boolean().is_err(), "null is not a boolean");
        // A failed read leaves the cursor where it was.
        assert!(c.null().unwrap());
        assert!(c.next_item().unwrap());
        assert!(c.number().is_err());
        assert_eq!(c.string().unwrap(), "x");
        for not_a_number in [".5", "+1", "Infinity", "NaN"] {
            assert!(
                Cursor::new(not_a_number).number().is_err(),
                "{not_a_number}"
            );
            assert!(parse(not_a_number).is_err(), "{not_a_number}");
        }
        assert!(c.next_item().unwrap());
        c.begin_array().unwrap();
        assert!(!c.next_item().unwrap());
        assert!(c.next_item().unwrap());
        let tree = c.value().unwrap();
        assert_eq!(tree, parse("{\"k\": [2]}").unwrap());
        assert!(!c.next_item().unwrap());
        c.end().unwrap();
    }

    #[test]
    fn cursor_depth_bounds_a_recursive_decoder() {
        // One frame per nested array, as a decoder of nested tags recurses.
        fn deepest(c: &mut Cursor<'_>) -> Result<usize> {
            c.begin_array()?;
            let mut below = 0;
            while c.next_item()? {
                below = below.max(deepest(c)?);
            }
            Ok(below + 1)
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(deepest(&mut Cursor::new(&ok)).unwrap(), MAX_DEPTH);
        let Err(CornetError::Parse(msg)) = deepest(&mut Cursor::new(&"[".repeat(300_000))) else {
            panic!("300 KB of '[' must be refused");
        };
        assert_eq!(msg, "JSON at byte 128: nesting deeper than 128 levels");
        assert!(deepest(&mut Cursor::new(&format!("[{ok}]"))).is_err());
        // Closing a container gives its level back.
        let inner = &ok[1..ok.len() - 1];
        let twins = format!("[{inner},{inner}]");
        assert_eq!(deepest(&mut Cursor::new(&twins)).unwrap(), MAX_DEPTH);
        let siblings = format!("[{}]", "[[]],".repeat(1000) + "[]");
        assert_eq!(deepest(&mut Cursor::new(&siblings)).unwrap(), 3);
    }

    #[test]
    fn cursor_misuse_is_an_error_not_a_panic() {
        for doc in ["}", "]", "", ",", ":", "\"", "{", "["] {
            let mut c = Cursor::new(doc);
            let _ = c.next_key();
            let _ = c.next_item();
            let _ = c.next_item();
            let _ = c.boolean();
            let _ = c.null();
            let _ = c.value();
            let _ = c.end();
        }
    }

    #[test]
    fn string_heavy_8_mib_document_parses_in_linear_time() {
        // MAX_BODY of the daemon. The per-character re-validation this
        // replaces was quadratic: minutes for a body this size.
        let item = r#"{"name": "enb-0001 – Zürich 😀", "note": "a\tb\\c\"d"}"#;
        let mut doc = String::with_capacity(8 << 20);
        doc.push('[');
        while doc.len() + item.len() + 2 < 8 << 20 {
            doc.push_str(item);
            doc.push(',');
        }
        doc.push_str(item);
        doc.push(']');
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(20));
        let items = v.as_array().unwrap();
        assert!(items.len() > 100_000);
        let last = items.last().unwrap();
        assert_eq!(
            last.get("name").unwrap().as_str(),
            Some("enb-0001 – Zürich 😀")
        );
        assert_eq!(last.get("note").unwrap().as_str(), Some("a\tb\\c\"d"));
    }

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("s").str("a\"b\\c\nd\re\tf\u{1}\u{1f}é😀");
        w.key("n").int(-3i64).key("u").int(u64::MAX);
        w.key("t").bool(true).key("z").null();
        w.key("hex").display(format_args!("{:016x}", 255));
        w.key("empty").begin_array().end_array();
        w.key("nested").begin_array();
        w.begin_object().end_object();
        w.begin_array().int(1u8).int(2u8).end_array();
        w.raw("{\"pre\":1}");
        w.end_array();
        w.end_object();
        assert_eq!(
            out,
            "{\"s\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001fé😀\",\"n\":-3,\
             \"u\":18446744073709551615,\"t\":true,\"z\":null,\
             \"hex\":\"00000000000000ff\",\"empty\":[],\
             \"nested\":[{},[1,2],{\"pre\":1}]}"
        );
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn ints_match_their_display_form() {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_array();
        w.int(0u8).int(i8::MIN).int(i64::MIN).int(i64::MAX);
        w.int(u64::MAX)
            .int(usize::MAX)
            .int(-10isize)
            .int(1_000_000u32);
        w.end_array();
        assert_eq!(
            out,
            format!(
                "[0,{},{},{},{},{},-10,1000000]",
                i8::MIN,
                i64::MIN,
                i64::MAX,
                u64::MAX,
                usize::MAX
            )
        );
    }

    #[test]
    fn writer_spacing_and_line_layout() {
        let mut out = String::new();
        let mut w = JsonWriter::spaced(&mut out);
        w.begin_object();
        w.line(2).key("a").begin_array().int(1).int(2).end_array();
        w.line(2).key("rows").begin_array();
        for i in 0..2 {
            w.line(4).begin_object().key("i").int(i).end_object();
        }
        w.line(2).end_array();
        w.line(2).key("none").begin_array().end_array();
        w.line(0).end_object();
        assert_eq!(
            out,
            "{\n  \"a\": [1, 2],\n  \"rows\": [\n    {\"i\": 0},\n    {\"i\": 1}\n  ],\n  \
             \"none\": []\n}"
        );
    }

    #[test]
    fn float_formats_match_rust_and_never_emit_non_finite() {
        let render = |v: f64, fmt: FloatFmt| {
            let mut out = String::new();
            JsonWriter::compact(&mut out).float(v, fmt);
            out
        };
        assert_eq!(render(2.0, FloatFmt::Display), "2");
        assert_eq!(render(2.0, FloatFmt::Debug), "2.0");
        assert_eq!(render(1e21, FloatFmt::Debug), "1e21");
        assert_eq!(render(1.23456, FloatFmt::Fixed(3)), "1.235");
        assert_eq!(render(-0.0001, FloatFmt::Fixed(3)), "-0.000");
        assert_eq!(render(0.00012, FloatFmt::Exp), "1.2e-4");
        assert_eq!(render(0.0, FloatFmt::Exp), "0e0");
        for fmt in [
            FloatFmt::Display,
            FloatFmt::Debug,
            FloatFmt::Fixed(6),
            FloatFmt::Exp,
        ] {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(render(v, fmt), "null");
            }
            for v in [0.0, -0.0, 1.5, -2.5e-300, f64::MAX, f64::MIN_POSITIVE] {
                assert!(parse(&render(v, fmt)).is_ok(), "{v:?} as {fmt:?}");
            }
        }
    }
}
