//! Minimal RFC 8259 JSON tree: recursive-descent parser and serializer.
//!
//! The build environment has no registry access, so the wire format is
//! hand-rolled: a recursive-descent parser that builds a [`Value`] tree and
//! returns typed errors instead of panicking, since the decoder faces
//! untrusted bytes off a socket.  The same parser validates the trace
//! exporters' output (`tests/trace_observability.rs`) and reads the
//! committed `BENCH_parprim.json` back (`bench_json --smoke`).
//!
//! Deliberate limits (each is a typed error, never a panic):
//!
//! * nesting deeper than [`MAX_DEPTH`] is rejected (a 1 MiB `[[[[…` frame
//!   must not overflow the parser stack);
//! * numbers must be finite; integers outside `i64` fall back to `f64`;
//! * only complete, single values parse — trailing bytes are an error.

use std::fmt;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits `i64` exactly (no fraction, no exponent).
    Int(i64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` on other variants or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as a `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64`, when it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                // RFC 8259 has no NaN/Inf; the serializer never receives
                // them (responses carry only counters and latencies).
                debug_assert!(v.is_finite());
                out.push_str(&format!("{v}"));
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

/// A JSON syntax error: byte position and a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value from `bytes`.
///
/// # Errors
/// [`JsonError`] on any syntax violation, non-UTF-8 string content, depth
/// beyond [`MAX_DEPTH`], or trailing bytes after the value.
pub fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { b: bytes, i: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing bytes after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.i, msg }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Result<u8, JsonError> {
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek()? != c {
            return Err(self.err("unexpected character"));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek()? {
            b'{' => {
                self.eat(b'{')?;
                self.ws();
                let mut members = Vec::new();
                if self.peek()? != b'}' {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        let v = self.value(depth + 1)?;
                        members.push((key, v));
                        self.ws();
                        if self.peek()? == b',' {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.ws();
                self.eat(b'}')?;
                Ok(Value::Object(members))
            }
            b'[' => {
                self.eat(b'[')?;
                self.ws();
                let mut items = Vec::new();
                if self.peek()? != b']' {
                    loop {
                        items.push(self.value(depth + 1)?);
                        self.ws();
                        if self.peek()? == b',' {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.ws();
                self.eat(b']')?;
                Ok(Value::Array(items))
            }
            b'"' => self.string().map(Value::Str),
            b't' => self.lit(b"true").map(|()| Value::Bool(true)),
            b'f' => self.lit(b"false").map(|()| Value::Bool(false)),
            b'n' => self.lit(b"null").map(|()| Value::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, lit: &'static [u8]) -> Result<(), JsonError> {
        if !self.b[self.i..].starts_with(lit) {
            return Err(self.err("bad literal"));
        }
        self.i += lit.len();
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = self.peek()?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let esc = self.peek()?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined; the protocol's strings are ASCII
                            // field names and hex digests.
                            let c = char::from_u32(u32::from(cp))
                                .ok_or_else(|| self.err("unpaired surrogate escape"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let c = self.peek()?;
            self.i += 1;
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(self.err("bad \\u escape digit")),
            };
            v = (v << 4) | u16::from(d);
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        if self.peek()? == b'-' {
            self.i += 1;
        }
        let mut is_int = true;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_int = false;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| JsonError {
            pos: start,
            msg: "bad number",
        })?;
        if is_int {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            _ => Err(JsonError {
                pos: start,
                msg: "bad number",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Value::Object(vec![
            ("id".into(), Value::Int(7)),
            ("ok".into(), Value::Bool(true)),
            (
                "labels".into(),
                Value::Array(vec![Value::Int(0), Value::Int(1)]),
            ),
            ("note".into(), Value::Str("a\"b\\c\nd".into())),
            ("null".into(), Value::Null),
        ]);
        let text = v.to_json();
        assert_eq!(parse(text.as_bytes()).unwrap(), v);
    }

    #[test]
    fn depth_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        let err = parse(deep.as_bytes()).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
    }

    #[test]
    fn garbage_is_typed() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":}",
            b"\x00",
            b"tru",
            b"\"\\q\"",
            b"1 2",
            b"--3",
            b"\"\xff\xfe\"",
            b"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers() {
        assert_eq!(parse(b"-42").unwrap(), Value::Int(-42));
        assert_eq!(parse(b"1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse(b"1e3").unwrap(), Value::Float(1000.0));
        assert!(parse(b"1e999").is_err(), "infinite numbers are rejected");
    }
}
