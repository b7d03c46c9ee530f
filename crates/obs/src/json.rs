//! Minimal JSON document model: parse and emit, dependency-free.
//!
//! The observatory's checkpoint/resume path needs to *read back* what it
//! wrote (the telemetry layer so far only ever emitted JSON), and this
//! crate deliberately has no dependencies — so here is the smallest JSON
//! that round-trips exactly:
//!
//! * Numbers are kept as their **raw token** (`JsonValue::Num(String)`),
//!   never eagerly converted to `f64`. Callers pick the interpretation
//!   (`as_u64`, `as_u128`, `as_f64`), so a `u64` run digest or a `u128`
//!   histogram sum survives the trip bit for bit — the property the
//!   checkpoint-equals-single-shot digest guarantee rests on.
//! * Object key order is preserved as parsed/built; the writers in this
//!   workspace always emit sorted or fixed-order keys, so emission is
//!   deterministic.
//!
//! `f64` round-tripping: Rust's `Display` for floats prints the shortest
//! string that parses back to the identical bits, and [`write_f64`] uses
//! exactly that, so `parse(emit(x)).as_f64() == x` for every finite `x`.

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of `[`s
/// from a trace file or a checkpoint overflow the stack, which aborts the
/// process instead of returning an error. Every document this workspace
/// writes nests only a few levels, far below the bound.
pub const MAX_JSON_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token so integer precision is never lost.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in parse/build order.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one JSON document; trailing non-whitespace, or arrays and
    /// objects nested more than [`MAX_JSON_DEPTH`] levels deep, are an
    /// error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, or `None` for non-objects.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, or `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String content, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, or `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, exact (`None` for non-numbers or non-`u64`s).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u128`, exact.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i128`, exact.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (round-trip exact for shortest-form tokens).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Serializes back to compact JSON (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends this value's compact JSON to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(tok) => out.push_str(tok),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends a finite `f64` in shortest round-trip form (`null` when not
/// finite, mirroring the telemetry writer's convention).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_owned(),
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

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static str, msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => {
                self.literal("true", "expected 'true'")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected 'false'")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null", "expected 'null'")?;
                Ok(JsonValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, at most [`MAX_JSON_DEPTH`] levels deep.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err("arrays and objects nested too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.literal("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos just past the 4 digits and the
                            // shared increment below expects one pending byte.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing at
                    // char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected hex digit")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            saw_digit = true;
            self.pos += 1;
        }
        if !saw_digit {
            return Err(self.err("expected digit"));
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
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        Ok(JsonValue::Num(tok.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1, "b": [true, null, -2.5e3], "c": "x\ny", "d": {"e": 0}}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn big_integers_survive_exactly() {
        let doc = format!("{{\"u\":{},\"w\":{}}}", u64::MAX, u128::MAX);
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("u").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("w").unwrap().as_u128(), Some(u128::MAX));
        // f64 interpretation would have lost bits; the raw token did not.
        assert_eq!(v.to_json(), doc);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX, 0.0] {
            let mut s = String::new();
            write_f64(&mut s, x);
            let v = JsonValue::parse(&s).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "token {s}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f — π 🚗";
        let mut s = String::new();
        write_json_string(&mut s, original);
        let v = JsonValue::parse(&s).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = JsonValue::parse(r#""🚗""#).unwrap();
        assert_eq!(v.as_str(), Some("🚗"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "- 1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let err = JsonValue::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.at, MAX_JSON_DEPTH, "{err}");
        let err = JsonValue::parse(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert_eq!(err.at, MAX_JSON_DEPTH * 5, "{err}");
        // Balanced, so well-formed but for its depth.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&deep(MAX_JSON_DEPTH)).is_ok());
        assert_eq!(
            JsonValue::parse(&deep(MAX_JSON_DEPTH + 1)).unwrap_err().at,
            MAX_JSON_DEPTH
        );
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}0]", "[[]],".repeat(MAX_JSON_DEPTH * 2));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn emission_is_compact_and_reparses() {
        let v = JsonValue::Obj(vec![
            ("k".into(), JsonValue::Arr(vec![JsonValue::Num("7".into())])),
            ("s".into(), JsonValue::Str("v".into())),
        ]);
        let json = v.to_json();
        assert_eq!(json, r#"{"k":[7],"s":"v"}"#);
        assert_eq!(JsonValue::parse(&json).unwrap(), v);
    }
}
