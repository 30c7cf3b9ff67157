//! The workspace's one JSON codec.
//!
//! The workspace builds fully offline (no serde), so every crate that
//! speaks JSON — the server's wire protocol, the bench reports, this
//! crate's snapshots, Chrome traces and NDJSON logs — goes through this
//! module. It has three halves:
//!
//! - a strict RFC 8259 recursive-descent parser ([`Json::parse`]) for
//!   untrusted input: it never panics, bounds nesting at 64 levels so a
//!   hostile line cannot blow the stack, and runs in time linear in the
//!   input;
//! - two renderers whose object key order is exactly insertion order:
//!   [`Json::render`], compact and single-line, for the wire (the golden
//!   protocol tests pin response bytes), and [`Json::pretty`], two-space
//!   indented, for reports;
//! - the string escaper [`escape_into`], for producers that stream JSON
//!   straight into a `String` instead of building a tree first.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; non-finite values render as
    /// `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub position: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer below 2^64, if it
    /// is one.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to exactly 2^64, the first value
        // that no longer fits.
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly on one line (no spaces, insertion-order keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => render_object(pairs.iter().map(|(k, v)| (k.as_str(), v)), out),
        }
    }

    /// Render an object whose values are borrowed, compactly — the same
    /// bytes as `Json::obj(fields).render()` without cloning the values
    /// into a tree first.
    pub fn render_fields(fields: &[(&str, &Json)]) -> String {
        let mut out = String::new();
        render_object(fields.iter().copied(), &mut out);
        out
    }

    /// Render with two-space indentation, `": "` after keys, and a
    /// trailing newline; empty arrays and objects stay `[]` / `{}`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.pretty_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

fn render_object<'a>(pairs: impl Iterator<Item = (&'a str, &'a Json)>, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(k, out);
        out.push(':');
        v.render_into(out);
    }
    out.push('}');
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Append `s` to `out` as a JSON string literal, quotes included.
///
/// `"` and `\` are backslash-escaped, `\n` `\r` `\t` use their short
/// forms, other control characters become `\u00XX`, and everything
/// else (astral characters included) is copied through as UTF-8.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth bound: a hostile request cannot blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one step. The input
            // is a `&str` and the run ends at an ASCII byte, so both
            // ends sit on character boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                if !(0xD800..0xDC00).contains(&first) {
                    // A lone low surrogate is not a scalar value either.
                    return Ok(char::from_u32(first).unwrap_or('\u{FFFD}'));
                }
                // A high surrogate pairs only with an immediately
                // following low-surrogate escape. Anything else leaves
                // it unpaired (U+FFFD), and the caller decodes what
                // follows on its own.
                let low = match self.bytes.get(self.pos..self.pos + 2) {
                    Some(b"\\u") => self.hex4_at(self.pos + 2),
                    _ => None,
                };
                return Ok(match low {
                    Some(low @ 0xDC00..=0xDFFF) => {
                        self.pos += 6;
                        char::from_u32(0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00))
                            .expect("a surrogate pair encodes a scalar value")
                    }
                    _ => '\u{FFFD}',
                });
            }
            _ => return Err(self.error("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let value = self
            .hex4_at(self.pos)
            .ok_or_else(|| self.error("\\u must be followed by four hex digits"))?;
        self.pos += 4;
        Ok(value)
    }

    fn hex4_at(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
    }

    /// RFC 8259 numbers only: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("invalid number: leading zero"));
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("invalid number: expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.required_digits("invalid number: expected a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits("invalid number: expected a digit in the exponent")?;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn required_digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error(what));
        }
        self.digits();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"{"id":1,"cmd":"query","kb":"office","q":"b"}"#,
            r#"[1,2.5,-3,true,false,null,"x"]"#,
            r#"{"nested":{"a":[{"b":[]}]},"s":"\"quoted\"\n"}"#,
            "{}",
            "[]",
        ] {
            let parsed = Json::parse(text).unwrap();
            let rendered = parsed.render();
            assert_eq!(Json::parse(&rendered).unwrap(), parsed, "{text}");
            assert_eq!(Json::parse(&parsed.pretty()).unwrap(), parsed, "{text}");
        }
    }

    #[test]
    fn accepts_valid() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-0",
            "-12.5e3",
            "1E+2",
            "0.5e-1",
            "\"hi\\n\\u00e9\"",
            "[1,2,3]",
            "{\"a\":{\"b\":[1,null,\"x\"]},\"c\":-0.5}",
            "  { \"k\" : [ true , false ] }  ",
        ] {
            assert!(Json::parse(text).is_ok(), "rejected {text:?}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            "{a:1}",
            "[1,",
            "[1,]",
            "nul",
            r#""unterminated"#,
            r#""bad\q""#,
            "\"ctrl\u{0}\"",
            r#""\u12""#,
            "1 2",
            "\u{1}",
            r#"{"a":1} trailing"#,
            "NaN",
            "+1",
            "-",
            "1e",
            "1e+",
            ".5",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        // Leading zeros, a bare '.', and a '.' without fraction digits
        // before an exponent are not JSON numbers.
        for text in [
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-1.",
            "[01]",
            r#"{"id":1.}"#,
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
        assert_eq!(Json::parse("10").unwrap(), Json::Num(10.0));
        assert_eq!(Json::parse("1.0e5").unwrap(), Json::Num(1.0e5));
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());
        let at_bound = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&at_bound).is_ok());
        let past_bound = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&past_bound).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One MiB of string payload: a parser that rescans the rest of
        // the input per character is quadratic and blows the bound.
        let payload = "ab\u{e9}\u{1F600}".repeat(1 << 17);
        let text = format!("{{\"t\":\"{payload}\"}}");
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("t").and_then(Json::as_str),
            Some(payload.as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "1 MiB string took {elapsed:?}"
        );
    }

    /// A JSON string literal made of `\u` escapes of the given hex
    /// code units.
    fn escapes(units: &[&str]) -> String {
        let body: String = units.iter().map(|u| format!("\\u{u}")).collect();
        format!("\"{body}\"")
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse(&escapes(&["0041", "00e9"])).unwrap(),
            Json::Str("A\u{e9}".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(&escapes(&["d83d", "de00"])).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // A lone high surrogate degrades to U+FFFD instead of failing.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".to_string())
        );
        // ...and so does a lone low surrogate.
        assert_eq!(
            Json::parse(r#""\udc00""#).unwrap(),
            Json::Str("\u{FFFD}".to_string())
        );
        // Raw multi-byte characters pass through.
        assert_eq!(
            Json::parse("\"\u{65e5}\u{672c}\"").unwrap(),
            Json::Str("\u{65e5}\u{672c}".into())
        );
    }

    #[test]
    fn unpaired_high_surrogate_keeps_the_next_escape() {
        assert_eq!(
            Json::parse(&escapes(&["D800", "0041"])).unwrap(),
            Json::Str("\u{FFFD}A".to_string())
        );
        assert_eq!(
            Json::parse(&escapes(&["D800", "d83d", "de00"])).unwrap(),
            Json::Str("\u{FFFD}\u{1F600}".to_string())
        );
        assert_eq!(
            Json::parse(&escapes(&["D800", "D800"])).unwrap(),
            Json::Str("\u{FFFD}\u{FFFD}".to_string())
        );
        assert_eq!(
            Json::parse(r#""\uD800\n""#).unwrap(),
            Json::Str("\u{FFFD}\n".to_string())
        );
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1],"neg":-1,"f":1.5}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(j.get("neg").and_then(Json::as_u64), None);
        assert_eq!(j.get("f").and_then(Json::as_u64), None);
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn as_u64_accepts_only_values_below_2_pow_64() {
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e20").unwrap().as_u64(), None);
        // The largest f64 below 2^64 still fits.
        let below = 18446744073709549568.0;
        assert_eq!(Json::Num(below).as_u64(), Some(below as u64));
    }

    #[test]
    fn control_chars_escaped_on_render() {
        let s = Json::Str("a\u{1}b\"c\\d\ne\u{1F600}".to_string());
        assert_eq!(s.render(), "\"a\\u0001b\\\"c\\\\d\\ne\u{1F600}\"");
    }

    #[test]
    fn pretty_layout() {
        let v = Json::obj([
            ("n", Json::Num(1.5)),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"n\": 1.5,\n  \"xs\": [\n    1,\n    null\n  ],\n  \"empty\": [],\n  \"none\": {}\n}\n"
        );
    }

    #[test]
    fn borrowed_fields_render_like_an_object() {
        let result = Json::obj([("pong", Json::Bool(true))]);
        let id = Json::Num(7.0);
        assert_eq!(
            Json::render_fields(&[("id", &id), ("result", &result)]),
            Json::obj([("id", id.clone()), ("result", result.clone())]).render()
        );
    }

    #[test]
    fn non_finite_numbers_are_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null\n");
    }
}
