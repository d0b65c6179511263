//! Minimal JSON value parser and writer (both sides of the workspace's
//! hand-rolled JSON).
//!
//! The reader is a strict-enough recursive descent parser over the subset
//! the workspace produces (full JSON minus exotic number forms), with
//! byte offsets in errors and a depth limit; `harpd` reads request bodies
//! with it, `harp_trace` the committed reports and flight dumps. The writer
//! side is [`JsonBuf`] — an append-only assembly buffer over a reusable
//! `Vec<u8>` — plus the shared string-escaping helpers
//! ([`escape_json`], [`escape_json_into`]) every producer in the
//! workspace funnels through, so escaping rules live in exactly one
//! place.

use core::fmt;

/// Appends the JSON string-escape of `s` (no surrounding quotes) to a
/// byte buffer: `\\`, `\"`, the whitespace escapes, `\u00XX` for other
/// control characters; non-ASCII passes through as UTF-8.
pub fn escape_json_into(out: &mut Vec<u8>, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.extend_from_slice(b"\\\\"),
            '"' => out.extend_from_slice(b"\\\""),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if c.is_control() => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let v = c as u32;
                out.extend_from_slice(b"\\u");
                out.push(HEX[((v >> 12) & 0xf) as usize]);
                out.push(HEX[((v >> 8) & 0xf) as usize]);
                out.push(HEX[((v >> 4) & 0xf) as usize]);
                out.push(HEX[(v & 0xf) as usize]);
            }
            c => {
                let mut utf8 = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
            }
        }
    }
}

/// The JSON string-escape of `s` as an owned `String` (no quotes) — the
/// convenience form of [`escape_json_into`] for one-off callers.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    escape_json_into(&mut out, s);
    String::from_utf8(out).expect("escaping valid UTF-8 yields valid UTF-8")
}

/// An append-only JSON assembly buffer over a reusable allocation.
///
/// Response builders that used to chain `format!` (one fresh `String` per
/// fragment) instead write straight into a pooled `Vec<u8>`: take a
/// buffer with [`JsonBuf::reuse`], append raw structure and escaped
/// values, and hand the bytes back with [`JsonBuf::into_bytes`]. The type
/// adds no structural validation — it is a typed cursor, and the emitters
/// stay responsible for balanced braces, exactly like the workspace's
/// other hand-rolled writers.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: Vec<u8>,
}

impl JsonBuf {
    /// An empty buffer with a fresh allocation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a recycled allocation: contents are cleared, capacity kept.
    #[must_use]
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { out: buf }
    }

    /// Appends a raw fragment verbatim (structure: braces, keys you know
    /// are escape-free, separators).
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.out.extend_from_slice(fragment.as_bytes());
        self
    }

    /// Appends `s` as a quoted, escaped JSON string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.out.push(b'"');
        escape_json_into(&mut self.out, s);
        self.out.push(b'"');
        self
    }

    /// Appends an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = v;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[i..]);
        self
    }

    /// Appends a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs())
    }

    /// Appends `true`/`false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// Appends a float with `decimals` fractional digits (the fixed-point
    /// form every report in the workspace uses).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        use std::io::Write as _;
        let _ = write!(&mut self.out, "{v:.decimals$}");
        self
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The assembled document, surrendering the allocation (return it to
    /// the pool after the response is written).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// A parsed JSON value.
///
/// Numbers are kept as `f64` — every number the benchmark reports emit fits
/// (counters stay far below 2^53) and the gate compares percentages anyway.
/// Objects preserve insertion order; lookup is linear, which is fine at
/// report sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants or missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: decode when paired, replace
                            // when lone (benchmark reports never emit them).
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(code) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(u32::from(code)).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are guaranteed valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        core::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = (code << 4) | u16::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"benchmarks": [{"name": "sim", "mean_ns": 132130.0}],
                      "metrics": {"dense_speedup_vs_reference": 6.867}}"#;
        let v = parse(doc).unwrap();
        let benches = v.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(benches[0].get("name").and_then(Json::as_str), Some("sim"));
        assert_eq!(
            benches[0].get("mean_ns").and_then(Json::as_f64),
            Some(132130.0)
        );
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("dense_speedup_vs_reference"))
                .and_then(Json::as_f64),
            Some(6.867)
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"abc", "1 2", "{,}", "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = parse("[1,]").unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_return_none_on_wrong_variant() {
        let v = parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_f64().is_none());
        assert!(v.as_str().is_none());
        assert_eq!(v.as_arr().map(<[Json]>::len), Some(1));
    }

    #[test]
    fn escape_covers_controls_quotes_and_non_ascii() {
        // Backslash, quote and the named whitespace escapes.
        assert_eq!(escape_json(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(
            escape_json("line\nfeed\ttab\rret"),
            "line\\nfeed\\ttab\\rret"
        );
        // Other control characters take the \u00xx form.
        assert_eq!(escape_json("\u{0}\u{1f}\u{7f}"), "\\u0000\\u001f\\u007f");
        // Non-ASCII passes through as UTF-8, unescaped.
        assert_eq!(escape_json("köln→東京"), "köln→東京");
        // Everything escape_json emits must round-trip through our own
        // parser back to the original string.
        for original in [
            "plain",
            "with \"quotes\" and \\slashes\\",
            "ctrl \u{1} \u{8} \u{b} mixed \t\n\r",
            "émoji 🦀 and \u{9f} control",
            "",
        ] {
            let doc = format!("\"{}\"", escape_json(original));
            assert_eq!(
                parse(&doc).unwrap(),
                Json::Str(original.to_owned()),
                "round-trip failed for {original:?}"
            );
        }
    }

    #[test]
    fn json_buf_assembles_and_reuses_allocations() {
        let mut b = JsonBuf::new();
        assert!(b.is_empty());
        b.raw("{\"name\": ")
            .string("a \"b\"\n")
            .raw(", \"n\": ")
            .u64(12345)
            .raw(", \"neg\": ")
            .i64(-7)
            .raw(", \"ok\": ")
            .bool(true)
            .raw(", \"f\": ")
            .fixed(1.5, 3)
            .raw("}");
        let bytes = b.into_bytes();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert_eq!(
            text,
            "{\"name\": \"a \\\"b\\\"\\n\", \"n\": 12345, \"neg\": -7, \"ok\": true, \"f\": 1.500}"
        );
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(12345.0));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-7.0));

        // Reuse keeps the allocation, drops the contents.
        let cap = bytes.capacity();
        let mut reused = JsonBuf::reuse(bytes);
        assert!(reused.is_empty());
        reused.u64(0).u64(u64::MAX);
        let out = reused.into_bytes();
        assert_eq!(out, b"018446744073709551615");
        assert!(out.capacity() >= cap.min(out.len()));

        assert_eq!(
            {
                let mut b = JsonBuf::new();
                b.i64(i64::MIN);
                String::from_utf8(b.into_bytes()).unwrap()
            },
            i64::MIN.to_string()
        );
    }
}
