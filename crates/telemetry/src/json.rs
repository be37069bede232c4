//! The workspace's one JSON codec: a value type, a compact writer, and
//! a strict parser, with zero dependencies.
//!
//! Every JSON document the workspace reads or writes goes through here:
//! the serve protocol's frames, trace exports, lint reports, metrics
//! renders, Table 1, and the bench run histories. Object keys keep
//! insertion order, so encodings are deterministic, and a parsed number
//! keeps its source text, so `parse(s)?.encode()` reproduces any compact
//! document byte for byte. The parser accepts standard JSON with unique
//! object keys and rejects everything else (leading zeros, trailing
//! commas, raw control characters, duplicate keys) with a positioned
//! error.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in 64 bits: every count, port and
    /// millisecond quantity in the serve protocol.
    U64(u64),
    /// Any other number: negative, fractional, exponent or beyond `u64`.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys rejected at parse.
    Obj(Vec<(String, Json)>),
}

/// A number outside [`Json::U64`], held as its validated JSON text so it
/// re-encodes exactly as it was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Json {
    /// `x` rendered with exactly `places` decimals, as `format!("{x:.3}")`
    /// does for `places == 3`; `null` when `x` is not finite, since JSON
    /// has no NaN or infinity.
    pub fn fixed(x: f64, places: usize) -> Json {
        if x.is_finite() {
            Json::Num(Number(format!("{x:.places$}")))
        } else {
            Json::Null
        }
    }

    /// Look up a key in an object (`None` for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number of either shape.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => out.push_str(&n.0),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A convenience constructor for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so a frame of nothing but `[` would otherwise overflow a serve
/// worker's stack and abort the whole daemon; the deepest document
/// the workspace writes (`BENCH_OPT.json`) nests eight levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected 'null'"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("expected 'true'"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected 'false'"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and objects nest too deeply"));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// One number per the JSON grammar. A non-negative integer within
    /// `u64` parses straight to [`Json::U64`]; anything else keeps its
    /// text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("numbers may not have leading zeros"));
            }
        } else {
            self.digits()?;
        }
        let mut integer = !negative;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integer = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            integer = false;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<u64>() {
            Ok(n) if integer => Ok(Json::U64(n)),
            _ => Ok(Json::Num(Number(text.to_string()))),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: the writer escapes only
                            // control characters, but a conforming peer
                            // may send any string.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // step off the high escape's last digit
                                if !self.eat("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos -= 1; // hex4 wants pos on the 'u'
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control character in one step.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(rest.len());
                    if run == 0 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Parse the 4 hex digits of a `\uXXXX` escape. On entry `pos` is on
    /// the `u`; on exit it is on the final hex digit (the caller's shared
    /// `pos += 1` then steps past it).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            cp = (cp << 4) | d;
        }
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        let v = obj(vec![
            ("kind", Json::Str("optimize".into())),
            ("deadline_ms", Json::U64(5000)),
            ("stream", Json::Bool(true)),
            ("nothing", Json::Null),
            ("frames", Json::Arr(vec![Json::U64(1), Json::Str("x".into())])),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"kind":"optimize","deadline_ms":5000,"stream":true,"nothing":null,"frames":[1,"x"]}"#
        );
    }

    #[test]
    fn escapes_and_unescapes_module_text() {
        let module = "function tri(n)\n\tinteger n\nbegin\nreturn n \"quoted\" \\ end\n";
        let v = Json::Str(module.to_string());
        let parsed = parse(&v.encode()).unwrap();
        assert_eq!(parsed.as_str(), Some(module));
    }

    #[test]
    fn parses_unicode_escapes_including_surrogate_pairs() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate is rejected");
    }

    #[test]
    fn rejects_out_of_subset_documents() {
        for bad in ["01", "-01", "-", "1.", ".5", "1e", "1e+", "+1", "{\"a\":1,\"a\":2}", "[1,]", "\"\u{1}\"", "x", "{\"a\" 1}", "[1 2]", "\"abc"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Unescaped raw control characters are rejected too.
        assert!(parse("\"a\u{2}b\"").is_err());
    }

    #[test]
    fn accessors_are_typed() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").and_then(Json::as_str), None);
    }

    #[test]
    fn big_u64_roundtrips() {
        let v = Json::U64(u64::MAX);
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(parse(&"[".repeat(1 << 20)).is_err(), "refused before the stack runs out");
        assert!(parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn every_number_shape_roundtrips_byte_for_byte() {
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None, "a fraction is not a u64");
        for text in ["-1", "-0", "0.960", "1.5", "1e3", "1E+3", "-2.5e-7", "18446744073709551616"] {
            let v = parse(text).unwrap();
            assert!(matches!(v, Json::Num(_)), "{text}");
            assert_eq!(v.encode(), text);
        }
        assert_eq!(parse("0.960").unwrap().as_f64(), Some(0.96));
        assert_eq!(parse("-2.5e-7").unwrap().as_f64(), Some(-2.5e-7));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(parse("\"7\"").unwrap().as_f64(), None);
        let doc = r#"{"a":[0.001,-3,1e9,12],"b":{"c":null}}"#;
        assert_eq!(parse(doc).unwrap().encode(), doc);
    }

    #[test]
    fn fixed_renders_like_the_format_macro() {
        for x in [0.0, 0.0005, 2.0 / 3.0, 1999.999, 12.3456, -0.25, 1e20] {
            assert_eq!(Json::fixed(x, 3).encode(), format!("{x:.3}"));
            assert_eq!(parse(&format!("{x:.3}")).unwrap(), Json::fixed(x, 3));
        }
        assert_eq!(Json::fixed(f64::NAN, 3), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 3), Json::Null);
    }
}
