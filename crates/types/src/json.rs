//! The workspace's one JSON codec: a streaming writer and a
//! recursive-descent reader, both dependency-free.
//!
//! Every JSON document the workspace produces (journal payloads, plan
//! snapshots, diagnostics, traces, WAR payloads, every `cornetd` body) is
//! written through [`JsonWriter`] and every document it consumes is read
//! by [`parse`]; no other module knows the text format. There is one string
//! escaper ([`JsonWriter::str`]) and one float formatter
//! ([`JsonWriter::float`]).
//!
//! The writer appends to a caller-owned `String` as values are written —
//! no [`JsonValue`] tree is built on an emit path — and is deterministic.
//! A non-finite float is written as `null`, so no emitted document can
//! fail [`parse`]. The reader makes one pass over its input and refuses
//! nesting deeper than `MAX_DEPTH` with a positioned
//! [`CornetError::Parse`], so outside input cannot exhaust the stack.

use crate::{CornetError, Result};
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

/// Parse a JSON document. The whole input must be consumed (trailing
/// whitespace aside) — garbage after the document is an error.
pub fn parse(input: &str) -> Result<JsonValue> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON document"));
    }
    Ok(value)
}

/// Deepest container nesting [`parse`] accepts. The reader recurses once
/// per open `[` or `{`, so this bounds its stack use on hostile input;
/// documents the workspace itself writes nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> CornetError {
        CornetError::Parse(format!("JSON at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<JsonValue>) -> Result<JsonValue> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
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
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so they never occur inside a multi-byte
                    // sequence and the run is cut on char boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
            }
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

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("malformed number"))
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
