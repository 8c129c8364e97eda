//! Offline stand-in for `serde_json`.
//!
//! Text layer over the `serde` shim's [`Value`] data model: a pretty /
//! compact JSON renderer and a recursive-descent parser. Floats print
//! via Rust's shortest-round-trip `Display`, which matches serde_json's
//! `float_roundtrip` behavior closely enough for this workspace's
//! bit-identical round-trip tests (every emitted float re-parses to the
//! same bits). Non-finite floats render as `null`, as real serde_json
//! does. Like real serde_json, the parser refuses input nested deeper
//! than 128 arrays/objects with an error instead of exhausting the
//! stack.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize to pretty JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Deepest nesting of arrays and objects [`from_str`] accepts (real
/// serde_json's default).
const RECURSION_LIMIT: usize = 128;

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {} in JSON input",
            p.pos
        )));
    }
    Ok(T::from_value(&v)?)
}

// ---- renderer ----

fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{}` on f64 is shortest round-trip; make integral floats
                // unambiguous (`1.0`, not `1`) the way serde_json does.
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error(format!(
                "unexpected `{}` at offset {}",
                b as char, self.pos
            ))),
            None => Err(Error("unexpected end of JSON input".to_string())),
        }
    }

    /// Parse one array or object, refusing to open more than
    /// [`RECURSION_LIMIT`] at once.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".to_string()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".to_string()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // Consume a whole run of plain ASCII at once; the
                    // common case for identifier-heavy payloads.
                    let start = self.pos;
                    while matches!(self.bytes.get(self.pos), Some(&b) if b < 0x80 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("ASCII bytes are valid UTF-8"),
                    );
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 code point (at most
                    // 4 bytes — never validate the whole remainder).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()])
                                .expect("validated prefix")
                        }
                        Err(_) => return Err(Error("invalid UTF-8 in JSON string".to_string())),
                    };
                    let c = valid.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".to_string())),
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
            .map_err(|_| Error("invalid number".to_string()))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_renders_nested() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::UInt(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let mut out = String::new();
        render(&v, Some(2), 0, &mut out);
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [0.1, 1.0, -2.5e-8, f64::MAX, 1.0 / 3.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
        // Non-finite floats become null and come back NaN.
        let s = to_string(&f64::INFINITY).unwrap();
        assert_eq!(s, "null");
        let back: f64 = from_str(&s).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "quote\" back\\slash\nnewline\ttab\u{1}ctl";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<u32>("1 trailing").is_err());
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        #[derive(Debug)]
        struct Any;
        impl Deserialize for Any {
            fn from_value(_: &Value) -> Result<Self, DeError> {
                Ok(Any)
            }
        }
        let nest =
            |depth: usize, open: &str, close: &str| open.repeat(depth) + &close.repeat(depth);
        assert!(from_str::<Any>(&nest(RECURSION_LIMIT, "[", "]")).is_ok());
        assert!(
            from_str::<Any>(&nest(RECURSION_LIMIT, "{\"k\":", "}").replace(":}", ":0}")).is_ok()
        );
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let err = from_str::<Any>(&nest(RECURSION_LIMIT + 1, open, close)).unwrap_err();
            let offset = open.len() * RECURSION_LIMIT;
            assert_eq!(
                err.to_string(),
                format!("recursion limit exceeded at offset {offset}")
            );
        }
        // Far past the limit, and unterminated: an error, not a stack
        // overflow.
        let err = from_str::<Any>(&"[".repeat(100_000)).unwrap_err();
        assert!(
            err.to_string().starts_with("recursion limit exceeded"),
            "{err}"
        );
    }
}
