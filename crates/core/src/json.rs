//! Direct JSON writing and reading for the hot paths.
//!
//! The generic path (`serde_json::to_string` / `from_str`) builds a whole
//! `Value` tree — one boxed node and one key `String` per field — before it
//! writes a byte or after it reads the last one. The store's record encoder
//! and the wire codec of [`protocol`](crate::server::protocol) instead write
//! and read their fixed shapes straight from and into the typed values,
//! with the helpers here. The writer's output is byte-identical to
//! `serde_json::to_string` of the same value; the reader accepts only that
//! canonical spelling and returns `None` on anything else, so callers fall
//! back to the generic parser, which stays the reference.

use crate::space::Configuration;
use crate::value::ParamValue;
use std::fmt::Write as _;
use std::sync::Arc;

/// A buffer the direct writer appends to: the store builds `String` lines,
/// the wire codec fills byte buffers bound for a socket.
pub(crate) trait JsonOut {
    /// Append `s` verbatim.
    fn put(&mut self, s: &str);
}

impl JsonOut for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl JsonOut for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// Append `s` as a JSON string literal, escaped exactly as serde_json does.
pub(crate) fn push_str<W: JsonOut>(out: &mut W, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.put("\"");
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.put(&s[run..i]);
        if escape.is_empty() {
            let code = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 15)],
            ];
            out.put(std::str::from_utf8(&code).expect("ASCII escape"));
        } else {
            out.put(escape);
        }
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// Formats into a [`JsonOut`], noting whether the text marks a float
/// (a decimal point or an exponent).
struct FloatOut<'a, W> {
    out: &'a mut W,
    marked: bool,
}

impl<W: JsonOut> std::fmt::Write for FloatOut<'_, W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.marked |= s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
        self.out.put(s);
        Ok(())
    }
}

/// Append an `f64` as serde_json writes it: shortest round-trip decimal,
/// always with a decimal point or exponent, and `null` when not finite.
pub(crate) fn push_f64<W: JsonOut>(out: &mut W, f: f64) {
    if !f.is_finite() {
        out.put("null");
        return;
    }
    let mut w = FloatOut { out, marked: false };
    let _ = write!(w, "{f}");
    if !w.marked {
        out.put(".0");
    }
}

/// Append an unsigned integer in decimal.
pub(crate) fn push_u64<W: JsonOut>(out: &mut W, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append a signed integer in decimal.
pub(crate) fn push_i64<W: JsonOut>(out: &mut W, v: i64) {
    if v < 0 {
        out.put("-");
    }
    push_u64(out, v.unsigned_abs());
}

/// Append a `bool` literal.
pub(crate) fn push_bool<W: JsonOut>(out: &mut W, b: bool) {
    out.put(if b { "true" } else { "false" });
}

/// Append a [`Configuration`] in its serde form,
/// `{"names":[..],"values":[..]}`, each value externally tagged.
pub(crate) fn push_config<W: JsonOut>(out: &mut W, config: &Configuration) {
    out.put("{\"names\":[");
    for (i, name) in config.names().iter().enumerate() {
        if i > 0 {
            out.put(",");
        }
        push_str(out, name);
    }
    out.put("],\"values\":[");
    for (i, value) in config.values().iter().enumerate() {
        if i > 0 {
            out.put(",");
        }
        match value {
            ParamValue::Int(x) => {
                out.put("{\"Int\":");
                push_i64(out, *x);
                out.put("}");
            }
            ParamValue::Real(x) => {
                out.put("{\"Real\":");
                push_f64(out, *x);
                out.put("}");
            }
            ParamValue::Enum { index, label } => {
                out.put("{\"Enum\":{\"index\":");
                push_u64(out, u64::from(*index));
                out.put(",\"label\":");
                push_str(out, label);
                out.put("}}");
            }
        }
    }
    out.put("]}");
}

/// Reads the canonical spelling the direct writer produces: no whitespace,
/// keys in declaration order, strings without escapes. Every method returns
/// `None` on anything else — not an error, a request to fall back to the
/// generic parser. Numbers are tokenized and converted exactly as that
/// parser does, so whatever the cursor accepts, it reads to the same value.
pub(crate) struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        JsonCursor { text, pos: 0 }
    }

    /// Consume `lit` if the input continues with it.
    pub(crate) fn eat(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Consume `lit`, or give up.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// Succeed only when the whole input has been read.
    pub(crate) fn end(&self) -> Option<()> {
        (self.pos == self.text.len()).then_some(())
    }

    /// A string literal without escapes.
    pub(crate) fn str(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        self.pos += len;
        self.lit("\"")?;
        // Quote and backslash are ASCII, so both ends are char boundaries.
        Some(&self.text[start..start + len])
    }

    /// A `bool` literal.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        if self.eat("true") {
            Some(true)
        } else if self.eat("false") {
            Some(false)
        } else {
            None
        }
    }

    /// The generic parser's number token at the cursor: an optional `-`,
    /// then every following digit or `.eE+-`. Returns the token and
    /// whether it reads as a float.
    fn number_token(&mut self) -> Option<(&'a str, bool)> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        match bytes.get(start) {
            Some(b) if *b == b'-' || b.is_ascii_digit() => {}
            _ => return None,
        }
        let mut end = start + usize::from(bytes[start] == b'-');
        let mut is_float = false;
        while let Some(&b) = bytes.get(end) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        Some((&self.text[start..end], is_float))
    }

    /// An integer token, widened the way the generic parser reads it
    /// (`i64` first, `u64` above `i64::MAX`).
    fn integer(&mut self) -> Option<i128> {
        let (token, is_float) = self.number_token()?;
        if is_float {
            return None;
        }
        match token.parse::<i64>() {
            Ok(v) => Some(i128::from(v)),
            Err(_) if !token.starts_with('-') => token.parse::<u64>().ok().map(i128::from),
            Err(_) => None,
        }
    }

    /// A `usize`.
    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.integer()?).ok()
    }

    /// A `u32`.
    pub(crate) fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.integer()?).ok()
    }

    /// An `i64`.
    pub(crate) fn i64(&mut self) -> Option<i64> {
        i64::try_from(self.integer()?).ok()
    }

    /// An `f64`. Integer tokens convert as the generic path's `as f64`;
    /// `null` (a non-finite float on the wire) is left to the generic path,
    /// which refuses it.
    pub(crate) fn f64(&mut self) -> Option<f64> {
        let (token, is_float) = self.number_token()?;
        if is_float {
            token.parse::<f64>().ok()
        } else {
            match token.parse::<i64>() {
                Ok(v) => Some(v as f64),
                Err(_) if !token.starts_with('-') => token.parse::<u64>().ok().map(|v| v as f64),
                Err(_) => None,
            }
        }
    }

    /// A JSON array whose elements `item` reads.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.lit("[")?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat("]") {
                return Some(items);
            }
            self.lit(",")?;
        }
    }

    /// A [`Configuration`] in the form [`push_config`] writes.
    pub(crate) fn config(&mut self) -> Option<Configuration> {
        self.lit("{\"names\":")?;
        let names = self.list(|c| c.str().map(str::to_string))?;
        self.lit(",\"values\":")?;
        let values = self.list(|c| {
            let value = if c.eat("{\"Int\":") {
                ParamValue::Int(c.i64()?)
            } else if c.eat("{\"Real\":") {
                ParamValue::Real(c.f64()?)
            } else if c.eat("{\"Enum\":{\"index\":") {
                let index = c.u32()?;
                c.lit(",\"label\":")?;
                let label = Arc::new(c.str()?.to_string());
                c.lit("}")?;
                ParamValue::Enum { index, label }
            } else {
                return None;
            };
            c.lit("}")?;
            Some(value)
        })?;
        self.lit("}")?;
        // The generic path does not check the lengths match; leave such a
        // frame to it rather than assert on it here.
        (names.len() == values.len()).then(|| Configuration::new(names, values))
    }
}
