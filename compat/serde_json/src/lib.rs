//! Offline stand-in for `serde_json`.
//!
//! The JSON text form of the stand-in `serde` crate's [`Value`] model —
//! and nothing more: no derived type has a JSON form, so [`to_string`]
//! and [`to_vec`] render a `&Value` and [`from_str`] / [`from_slice`]
//! parse back to one. Its users are `crates/bench`'s figure tables and
//! the deployment benchmark's tests.

pub use serde::{Map, Value};

/// Error raised by parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as a JSON string. Infallible in practice; the
/// `Result` keeps the real crate's signature.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    render(value, &mut out);
    Ok(out)
}

/// Renders `value` as JSON bytes.
pub fn to_vec(value: &Value) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parses a JSON string.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error("trailing characters".into()));
    }
    Ok(value)
}

/// Parses JSON bytes.
pub fn from_slice(bytes: &[u8]) -> Result<Value, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error("invalid utf-8".into()))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn render(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{:?}` prints the shortest representation that
                // round-trips, and always includes a `.` or exponent.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(key, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs are not produced by our renderer;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error("unpaired surrogate".into()))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every escape the renderer emits, `\u0001` included.
    const ESCAPES: &str = "q\" b\\ n\n r\r t\t ctl\u{1}";

    fn string(s: &str) -> Value {
        Value::String(s.to_string())
    }

    /// A value holding every variant, the integer extremes, floats that
    /// need the shortest-round-trip form, every escape the renderer
    /// emits, and nesting whose object key order must survive.
    fn every_variant() -> Value {
        let inner: Map = [("z", Value::Null), ("a", Value::Bool(false))]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let top: Map = [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("u64_max", Value::U64(u64::MAX)),
            ("i64_min", Value::I64(i64::MIN)),
            (
                "floats",
                Value::Array(vec![Value::F64(0.1), Value::F64(-3.25), Value::F64(1e300)]),
            ),
            ("escapes", string(ESCAPES)),
            ("unicode", string("√ ü 日本 🦀")),
            (
                "nested",
                Value::Array(vec![
                    Value::Array(vec![Value::U64(1), Value::Array(vec![])]),
                    Value::Object(inner),
                    Value::Object(Map::new()),
                ]),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        Value::Object(top)
    }

    #[test]
    fn every_variant_roundtrips_and_rerenders_identically() {
        let v = every_variant();
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(to_string(&back).unwrap(), text);
        assert_eq!(from_slice(&to_vec(&v).unwrap()).unwrap(), v);
        // Object key order is insertion order, not sorted.
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["null", "true", "u64_max", "i64_min", "floats", "escapes", "unicode", "nested"]
        );
    }

    #[test]
    fn escapes_render_as_json_escapes() {
        let text = to_string(&string(ESCAPES)).unwrap();
        assert_eq!(text, r#""q\" b\\ n\n r\r t\t ctl\u0001""#);
        assert_eq!(from_str(r#""\u0001\u00e9\/""#).unwrap(), string("\u{1}é/"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&Value::F64(x)).unwrap(), "null");
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"",
            "nul",
            "{\"a\"1}",
            "[}",
            "\"\\u12\"",
            "1 2",
        ] {
            assert!(from_str(bad).is_err(), "{bad}");
        }
    }
}
