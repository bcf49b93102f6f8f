//! Offline stand-in for `serde_json`: renders and parses JSON text against
//! the content-tree `serde` shim.
//!
//! Formatting follows serde_json's observable conventions where they matter
//! to this workspace: floats always render with a decimal point or exponent
//! (so they re-parse as floats), integer map keys are quoted, `None` is
//! `null`, and `to_string` is deterministic for deterministic inputs — which
//! is what the telemetry determinism tests assert byte-for-byte.
//!
//! Float round-tripping relies on Rust's `{}` formatting of `f64`, which
//! prints the shortest string that parses back to the same bits (the same
//! guarantee serde_json's `float_roundtrip` feature provides).

#![forbid(unsafe_code)]

use serde::de::DeserializeOwned;
use serde::{Content, DeError, Serialize};
use std::fmt;

/// A JSON serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

/// A parse/serialize result.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out)?;
    Ok(out)
}

/// Serializes a value to human-indented JSON (2-space indent, like serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content_pretty(&value.to_content(), &mut out, 0)?;
    Ok(out)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let content = parse(s)?;
    Ok(T::from_content(&content)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_content(c: &Content, out: &mut String) -> Result<()> {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(n) => out.push_str(&n.to_string()),
        Content::I64(n) => out.push_str(&n.to_string()),
        Content::U128(n) => out.push_str(&n.to_string()),
        Content::I128(n) => out.push_str(&n.to_string()),
        Content::F64(f) => write_f64(*f, out)?,
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(item, out)?;
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_key(k, out)?;
                out.push(':');
                write_content(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_content_pretty(c: &Content, out: &mut String, depth: usize) -> Result<()> {
    match c {
        Content::Seq(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                push_indent(out, depth + 1);
                write_content_pretty(item, out, depth + 1)?;
            }
            out.push('\n');
            push_indent(out, depth);
            out.push(']');
            Ok(())
        }
        Content::Map(entries) if !entries.is_empty() => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                push_indent(out, depth + 1);
                write_key(k, out)?;
                out.push_str(": ");
                write_content_pretty(v, out, depth + 1)?;
            }
            out.push('\n');
            push_indent(out, depth);
            out.push('}');
            Ok(())
        }
        other => write_content(other, out),
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_key(k: &Content, out: &mut String) -> Result<()> {
    match k {
        Content::Str(s) => {
            write_escaped(s, out);
            Ok(())
        }
        // serde_json quotes integer map keys.
        Content::U64(n) => {
            out.push('"');
            out.push_str(&n.to_string());
            out.push('"');
            Ok(())
        }
        Content::I64(n) => {
            out.push('"');
            out.push_str(&n.to_string());
            out.push('"');
            Ok(())
        }
        other => Err(Error::new(format!(
            "JSON map keys must be strings or integers, got {}",
            other.kind()
        ))),
    }
}

fn write_f64(f: f64, out: &mut String) -> Result<()> {
    if !f.is_finite() {
        return Err(Error::new("JSON cannot represent NaN or infinity"));
    }
    let s = f.to_string();
    out.push_str(&s);
    // Keep the float/integer distinction visible in the text, as serde_json
    // does, so values re-parse with the same type.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    Ok(())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
// Parser
// ---------------------------------------------------------------------------

/// Arrays and objects may nest this deep, as in upstream `serde_json`;
/// the parser recurses once per level, so text from outside the program
/// must not choose the depth of the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse(s: &str) -> Result<Content> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Content> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Content> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((Content::Str(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
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
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| Error::new("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|e| Error::new(format!("bad float {text:?}: {e}")))
        } else if text.starts_with('-') {
            if let Ok(n) = text.parse::<i64>() {
                Ok(Content::I64(n))
            } else {
                text.parse::<i128>()
                    .map(Content::I128)
                    .map_err(|e| Error::new(format!("bad integer {text:?}: {e}")))
            }
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Content::U64(n))
        } else {
            text.parse::<u128>()
                .map(Content::U128)
                .map_err(|e| Error::new(format!("bad integer {text:?}: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nest(open: &[&str], close: &[&str], levels: usize) -> String {
        let opens: String = (0..levels).map(|i| open[i % open.len()]).collect();
        let closes: String = (0..levels).rev().map(|i| close[i % close.len()]).collect();
        format!("{opens}1{closes}")
    }

    #[test]
    fn nesting_is_bounded_at_128_levels() {
        let shapes: [(&[&str], &[&str]); 3] = [
            (&["["], &["]"]),
            (&["{\"a\":"], &["}"]),
            (&["[", "{\"a\":"], &["]", "}"]),
        ];
        for (open, close) in shapes {
            assert!(parse(&nest(open, close, MAX_DEPTH)).is_ok(), "{open:?}");
            let refused = parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(
                refused
                    .to_string()
                    .starts_with("recursion limit exceeded at offset"),
                "{open:?}: {refused}"
            );
            // Unclosed, and far past any stack: refused at the same level.
            assert_eq!(parse(&open.concat().repeat(100_000)).unwrap_err(), refused);
        }
    }
}
