//! Minimal JSON support: an escape/append writer used by the event sinks
//! and a strict recursive-descent parser used by the trace checker and
//! the test suite.
//!
//! The workspace's vendored `serde` stand-in carries no (de)serialization
//! machinery (see `vendor/README.md`), so the telemetry crate encodes and
//! decodes its JSONL event stream by hand. The dialect is deliberately
//! small but standard: objects, arrays, strings with the usual escapes
//! (including `\uXXXX` with surrogate pairs), numbers with optional
//! fraction/exponent, `true`/`false`/`null`.

use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their source order so tests
/// can assert on deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the event schema only emits values
    /// that round-trip exactly at `f64` precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Keys and most values need no escaping: copy those whole.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number. Non-finite values (which valid
/// JSON cannot represent) are emitted as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for one JSON object, the one emitter behind daemon
/// replies, the status snapshot and trace events: members appear in call
/// order with escaped keys, and [`ObjectWriter::finish`] closes the object.
#[must_use]
#[derive(Debug)]
pub struct ObjectWriter(String);

impl ObjectWriter {
    /// An open, empty object with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = String::with_capacity(capacity);
        buf.push('{');
        ObjectWriter(buf)
    }

    /// Starts member `k` and hands out the buffer for its value. No value
    /// ends in `{`, so a buffer that does is an object — nested ones
    /// included — still waiting for its first member.
    fn value_of(&mut self, k: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        write_escaped(&mut self.0, k);
        self.0.push(':');
        &mut self.0
    }

    /// A string member.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        write_escaped(self.value_of(k), v);
        self
    }

    /// A float member (see [`write_f64`]: non-finite becomes `null`).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        write_f64(self.value_of(k), v);
        self
    }

    /// An unsigned integer member, written exactly (never through `f64`).
    pub fn uint(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.value_of(k), "{v}");
        self
    }

    /// A signed integer member, written exactly.
    pub fn int(mut self, k: &str, v: i64) -> Self {
        let _ = write!(self.value_of(k), "{v}");
        self
    }

    /// A boolean member.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.value_of(k), "{v}");
        self
    }

    /// A nested object member; `fill` appends its members.
    pub fn object(mut self, k: &str, fill: impl FnOnce(Self) -> Self) -> Self {
        self.value_of(k).push('{');
        let mut filled = fill(self);
        filled.0.push('}');
        filled
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Parses a complete JSON document from `text`.
///
/// # Errors
/// Returns a human-readable message (with a byte offset) on any syntax
/// error or trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slices
                    // at char boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed, Json::Str("a\"b\\c\nd\te\u{1}".into()));
    }

    #[test]
    fn parses_an_event_line() {
        let line = r#"{"v":1,"ev":"span_open","t_us":12,"id":3,"parent":0,"name":"tune_session"}"#;
        let j = parse(line).unwrap();
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("span_open"));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("tune_session"));
        assert_eq!(j.get("parent").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn parses_nested_structures_and_numbers() {
        let j = parse(r#"{"a":[1,-2.5,1e-3,true,null],"b":{"c":"é"}}"#).unwrap();
        let arr = match j.get("a") {
            Some(Json::Arr(v)) => v,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-2.5));
        assert_eq!(arr[2], Json::Num(1e-3));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("é")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn object_writer_places_commas_escapes_and_nests() {
        let line = ObjectWriter::with_capacity(64)
            .str("s", "a\"b")
            .num("n", 0.5)
            .num("nan", f64::NAN)
            .uint("u", u64::MAX)
            .int("i", -3)
            .bool("b", true)
            .object("empty", |o| o)
            .object("o", |o| o.uint("x", 1).object("deep", |o| o.str("{", "{")))
            .uint("after", 2)
            .finish();
        assert_eq!(
            line,
            concat!(
                r#"{"s":"a\"b","n":0.5,"nan":null,"u":18446744073709551615,"i":-3,"b":true,"#,
                r#""empty":{},"o":{"x":1,"deep":{"{":"{"}},"after":2}"#
            )
        );
        assert!(parse(&line).is_ok());
        assert_eq!(ObjectWriter::with_capacity(0).finish(), "{}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, 0.001);
        assert_eq!(out, "0.001");
    }
}
