//! Offline stand-in for `serde_json`.
//!
//! Implements JSON text <-> [`serde::Value`] with a recursive-descent parser
//! and a compact printer. Numbers are carried as their literal text inside
//! `Value::Number`, so `to_string`/`from_str` round trips are lossless for
//! every finite float (Rust's float `Display` is shortest-round-trip) and
//! for the full `u64`/`i64` ranges — the `float_roundtrip` behaviour of the
//! real crate, always on.

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Printer.

fn print_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(text) => out.push_str(text),
        Value::String(s) => print_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_string(key, out);
                out.push(':');
                print_value(val, out);
            }
            out.push('}');
        }
    }
}

fn print_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser.

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::String),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}, found `{}`",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::custom("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::custom("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always well-formed).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(b);
                    let chunk = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| Error::custom("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid number at byte {start}")));
        }
        Ok(Value::Number(text.to_string()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e-7", "\"hi\\nthere\""] {
            let v = parse(text).unwrap();
            let mut out = String::new();
            print_value(&v, &mut out);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn round_trips_extreme_numbers() {
        let cases = [
            u64::MAX.to_string(),
            i64::MIN.to_string(),
            f64::MAX.to_string(),
            f64::MIN_POSITIVE.to_string(),
            (1.0f64 / 3.0).to_string(),
        ];
        for text in &cases {
            let v = parse(text).unwrap();
            assert_eq!(v, Value::Number(text.clone()));
        }
        // And through typed endpoints: every bit pattern survives.
        let x = 1.0f64 / 3.0;
        let s = to_string(&x).unwrap();
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back.to_bits(), x.to_bits());
        let u = u64::MAX;
        let s = to_string(&u).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, {"b": null}], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::String("x".into())));
        match v.get("a") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b"), Some(&Value::Null));
            }
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "01x", "tru", "1 2"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let s = "line1\nline2\tx\u{0001}".to_string();
        let text = to_string(&s).unwrap();
        assert_eq!(text, "\"line1\\nline2\\tx\\u0001\"");
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let back: String = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(back, "\u{1F600}");
    }
}
