//! Minimal RFC 8259 JSON: one lexer, the [`Value`] tree built on it, and
//! the writer primitives every encoder appends with.
//!
//! The build environment has no registry access, so the wire format is
//! hand-rolled.  The lexer faces untrusted bytes off a socket, so it
//! returns typed errors instead of panicking.  Two readers share it:
//!
//! * [`parse`] builds a [`Value`] tree.  It validates the trace exporters'
//!   output (`tests/trace_observability.rs`), reads the committed
//!   `BENCH_parprim.json` back (`bench_json --smoke`), parses perfbench's
//!   records, and re-serializes the `trace` member of a traced reply.
//! * The wire codec in [`crate::proto`] walks an object's members straight
//!   off the bytes and reads each into its own type: a request's arrays
//!   land in `Vec<u32>` without one `Value` per element.
//!
//! Deliberate limits, enforced by the lexer for both readers (each is a
//! typed error, never a panic):
//!
//! * nesting deeper than [`MAX_DEPTH`] is rejected (a 1 MiB `[[[[…` frame
//!   must not overflow the stack);
//! * numbers must be finite.  A token of digits with an optional leading
//!   `-` is an integer when it fits `i64` (so `01` and `-0` are integers);
//!   any other number, `1.5`, `1e2` or an integer past `i64`, is a float;
//! * only complete, single values parse — trailing bytes are an error.
//!
//! Writing appends to a `Vec<u8>`: [`Value::to_json`] and the protocol
//! encoders share the string escaper, and the encoders write array
//! elements with a digit writer that converts eight digits at a time.

use std::fmt;
use std::io::Write;

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
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writer emits UTF-8 only")
    }

    /// Append the compact JSON text of this value to `out`.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::Int(v) => write_i64(out, *v),
            Value::Float(v) => {
                // RFC 8259 has no NaN/Inf; the serializer never receives
                // them (responses carry only counters and latencies).
                debug_assert!(v.is_finite());
                write!(out, "{v}").expect("writing to a Vec cannot fail");
            }
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Value::Object(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// Append `s` as a JSON string literal.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &c in s.as_bytes() {
        match c {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            c if c < 0x20 => write!(out, "\\u{c:04x}").expect("writing to a Vec cannot fail"),
            c => out.push(c),
        }
    }
    out.push(b'"');
}

/// Append `true` or `false`.
pub(crate) fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Append `v` in decimal, eight digits at a time below 10^8.
pub(crate) fn write_u32(out: &mut Vec<u8>, v: u32) {
    const ONES: u64 = 0x0101_0101_0101_0101;
    if v >= 100_000_000 {
        return write!(out, "{v}").expect("writing to a Vec cannot fail");
    }
    // Split v into 4 + 4 digits in two 32-bit lanes, each lane into 2 + 2
    // in 16-bit lanes, and each of those into 1 + 1 in bytes, dividing by
    // multiply-and-shift (exact below 43,699 and 179).  The first digit
    // lands in the lowest byte, so the leading zeros are the trailing zero
    // bytes.
    let x = u64::from(v / 10_000) | (u64::from(v % 10_000) << 32);
    let hundreds = ((x * 5243) >> 19) & 0x0000_007f_0000_007f;
    let x = hundreds | ((x - hundreds * 100) << 16);
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | ((x - tens * 10) << 8);
    let lead = (x.trailing_zeros() / 8).min(7) as usize;
    let len = out.len();
    out.extend_from_slice(&((x >> (8 * lead)) + 0x30 * ONES).to_le_bytes());
    out.truncate(len + 8 - lead);
}

/// Append `v` in decimal.
pub(crate) fn write_i64(out: &mut Vec<u8>, v: i64) {
    write!(out, "{v}").expect("writing to a Vec cannot fail");
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
    let mut lx = Lexer::new(bytes);
    let v = lx.value(0)?;
    lx.finish()?;
    Ok(v)
}

/// The one JSON lexer: a cursor over untrusted bytes.
///
/// Every reader consumes exactly one value at a given nesting depth, so
/// the depth limit, the string escapes and the number grammar are checked
/// in one place, and a document that [`parse`] rejects fails every reader
/// with the same error at the same byte.  A typed reader (`uint`, `bool`,
/// `str`, `u32s`) returns `None` for a well-formed value of another type,
/// which it has consumed all the same.
pub(crate) struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `b`.
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Lexer { b, i: 0 }
    }

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

    /// End the document: only whitespace may follow its value.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.ws();
        if self.i != self.b.len() {
            return Err(self.err("trailing bytes after JSON value"));
        }
        Ok(())
    }

    /// Start the value at `depth`: check the depth limit, skip whitespace
    /// and return the value's first byte.
    fn enter(&mut self, depth: usize) -> Result<u8, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        self.peek()
    }

    /// One value at `depth`, as a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        Ok(match self.enter(depth)? {
            b'{' => {
                let mut members = Vec::new();
                self.members(depth, |lx, key| {
                    members.push((key, lx.value(depth + 1)?));
                    Ok(())
                })?;
                Value::Object(members)
            }
            b'[' => {
                let mut items = Vec::new();
                self.elements(depth, |lx| {
                    items.push(lx.value(depth + 1)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            b'"' => Value::Str(self.string()?),
            b't' => self.lit(b"true").map(|()| Value::Bool(true))?,
            b'f' => self.lit(b"false").map(|()| Value::Bool(false))?,
            b'n' => self.lit(b"null").map(|()| Value::Null)?,
            _ => self.number()?,
        })
    }

    /// Lex one value at `depth` and drop it.
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.enter(depth)? {
            b'{' => self.members(depth, |lx, _| lx.skip(depth + 1)).map(drop),
            b'[' => self.elements(depth, |lx| lx.skip(depth + 1)).map(drop),
            b'"' => self.string().map(drop),
            b't' => self.lit(b"true"),
            b'f' => self.lit(b"false"),
            b'n' => self.lit(b"null"),
            _ => self.number().map(drop),
        }
    }

    /// Walk the object at `depth`, calling `member(lexer, key)` with the
    /// lexer at each member's value, which `member` must consume at
    /// `depth + 1`.  Any other value is skipped.  Returns whether the value
    /// was an object.
    pub(crate) fn members(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.enter(depth)? != b'{' {
            return self.skip(depth).map(|()| false);
        }
        self.i += 1;
        self.ws();
        if self.peek()? != b'}' {
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.eat(b':')?;
                member(self, key)?;
                self.ws();
                if self.peek()? == b',' {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.ws();
        self.eat(b'}').map(|()| true)
    }

    /// Walk the array at `depth`, calling `element(lexer)` at each element,
    /// which `element` must consume at `depth + 1`.  Any other value is
    /// skipped.  Returns whether the value was an array.
    pub(crate) fn elements(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.enter(depth)? != b'[' {
            return self.skip(depth).map(|()| false);
        }
        self.i += 1;
        self.ws();
        if self.peek()? != b']' {
            loop {
                element(self)?;
                self.ws();
                if self.peek()? == b',' {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.ws();
        self.eat(b']').map(|()| true)
    }

    /// The value at `depth` as [`Value::as_u64`] reads it.
    pub(crate) fn uint(&mut self, depth: usize) -> Result<Option<u64>, JsonError> {
        match self.enter(depth)? {
            b'{' | b'[' | b'"' | b't' | b'f' | b'n' => self.skip(depth).map(|()| None),
            _ => Ok(self.number()?.as_u64()),
        }
    }

    /// The value at `depth` as [`Value::as_bool`] reads it.
    pub(crate) fn bool(&mut self, depth: usize) -> Result<Option<bool>, JsonError> {
        match self.enter(depth)? {
            b't' => self.lit(b"true").map(|()| Some(true)),
            b'f' => self.lit(b"false").map(|()| Some(false)),
            _ => self.skip(depth).map(|()| None),
        }
    }

    /// The value at `depth` as [`Value::as_str`] reads it.
    pub(crate) fn str(&mut self, depth: usize) -> Result<Option<String>, JsonError> {
        if self.enter(depth)? == b'"' {
            self.string().map(Some)
        } else {
            self.skip(depth).map(|()| None)
        }
    }

    /// The value at `depth` when it is an array of integers in `u32`
    /// range, read straight into a `Vec<u32>`.
    pub(crate) fn u32s(&mut self, depth: usize) -> Result<Option<Vec<u32>>, JsonError> {
        let mut out = Vec::new();
        let mut all_u32 = true;
        let is_array = self.elements(depth, |lx| {
            let v = match lx.short_uint(depth + 1) {
                Some(v) => Some(v),
                None => lx.uint(depth + 1)?.and_then(|v| u32::try_from(v).ok()),
            };
            match v {
                Some(v) => out.push(v),
                None => all_u32 = false,
            }
            Ok(())
        })?;
        Ok((is_array && all_u32).then_some(out))
    }

    /// The fast path of [`Lexer::uint`] for an array element: one to seven
    /// digits right at the cursor that end the number token, converted
    /// eight bytes at a time.  Anything else — whitespace first, a longer
    /// or non-integer token, the last eight bytes of the input — returns
    /// `None` with the cursor unmoved, for [`Lexer::uint`] to read.
    fn short_uint(&mut self, depth: usize) -> Option<u32> {
        const ONES: u64 = 0x0101_0101_0101_0101;
        if depth > MAX_DEPTH {
            return None;
        }
        let word: [u8; 8] = self.b.get(self.i..self.i + 8)?.try_into().ok()?;
        // Digit bytes become their values 0..=9; every other byte becomes
        // a value of 10 or more, flagged by bit 7 of its lane (adding 0x76
        // to the low seven bits cannot carry out of a lane).
        let t = u64::from_le_bytes(word) ^ (0x30 * ONES);
        let non_digit = (((t & (0x7f * ONES)) + 0x76 * ONES) | t) & (0x80 * ONES);
        let k = (non_digit.trailing_zeros() / 8) as usize;
        if k == 0 || k == 8 || matches!(word[k], b'.' | b'e' | b'E' | b'+' | b'-') {
            return None;
        }
        self.i += k;
        // The k digits move to the top lanes (the first digit is the most
        // significant; the zeroed lanes below are leading zeros), then
        // adjacent lanes merge pairwise: 8 → 4 → 2 → 1.
        let v = t << (8 * (8 - k));
        let v = (v & (0x0f * ONES)).wrapping_mul(10 * 256 + 1) >> 8;
        let v = (v & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 * 65_536 + 1) >> 16;
        let v = (v & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
        Some(v as u32)
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

    /// A number token: `Value::Int` or `Value::Float`.
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
        let bad = JsonError {
            pos: start,
            msg: "bad number",
        };
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| bad)?;
        if is_int {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            _ => Err(bad),
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

    /// Digits after an optional `-` are an integer while they fit `i64`;
    /// everything else the number grammar takes is a float.
    #[test]
    fn integers_and_floats_split_where_i64_ends() {
        for (text, want) in [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("01", Value::Int(1)),
            ("-007", Value::Int(-7)),
            ("999999999999999999", Value::Int(999_999_999_999_999_999)),
            ("9223372036854775807", Value::Int(i64::MAX)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            (
                "9223372036854775808",
                Value::Float(9_223_372_036_854_775_808.0),
            ),
            ("4294967296", Value::Int(1 << 32)),
            ("+1", Value::Float(1.0)),
            (".5", Value::Float(0.5)),
            ("1E2", Value::Float(100.0)),
        ] {
            assert_eq!(parse(text.as_bytes()), Ok(want), "{text}");
        }
        for bad in ["-", "1-2", "1.5.5", "0x10", "1e"] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn typed_readers_consume_values_of_other_types() {
        let mut lx = Lexer::new(br#"[{"a":[1]},-1,1.5,"s",true,7,[1,2,4294967295],[1,-2]]"#);
        let mut got = Vec::new();
        assert!(lx
            .elements(0, |lx| {
                got.push(format!("{:?}", lx.uint(1)?));
                Ok(())
            })
            .unwrap());
        assert_eq!(
            got[..6],
            ["None", "None", "None", "None", "None", "Some(7)"]
        );
        let mut lx = Lexer::new(b"[1,2,4294967295] [1,-2] 3");
        assert_eq!(lx.u32s(0).unwrap(), Some(vec![1, 2, u32::MAX]));
        assert_eq!(lx.u32s(0).unwrap(), None);
        assert_eq!(lx.u32s(0).unwrap(), None);
        lx.finish().unwrap();
        // The depth limit holds on the fast path too.
        let element = b"[12345, 6789012]       ";
        assert!(Lexer::new(element).u32s(MAX_DEPTH - 1).is_ok());
        let err = Lexer::new(element).u32s(MAX_DEPTH).unwrap_err();
        assert_eq!((err.pos, err.msg), (1, "nesting too deep"));
        assert!(Lexer::new(b"[]").u32s(MAX_DEPTH).is_ok());
    }

    #[test]
    fn digit_writer_matches_display() {
        let mut edges = vec![0, 1, 9, 10, 99, 100, 9_999, 10_000, 10_001, u32::MAX];
        for p in 1..=9 {
            let p10 = 10u32.pow(p);
            edges.extend([p10 - 1, p10, p10 + 1, p10 / 3 * 7]);
        }
        let mut x = 1u64;
        edges.extend((0..10_000).map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as u32 >> (x % 32)
        }));
        for v in edges {
            let mut out = Vec::new();
            write_u32(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes(), "{v}");
        }
    }
}
