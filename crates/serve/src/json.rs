//! A deliberately tiny JSON reader/writer for the gateway.
//!
//! The job API exchanges small, flat documents; pulling in a real JSON
//! crate is not an option in this workspace (vendored deps only), so this
//! module implements just enough of RFC 8259 for the gateway: parsing of
//! nested values (objects, arrays, strings with escapes, integers/floats,
//! booleans, null) up to [`MAX_DEPTH`] levels deep, and escaping for the
//! writer side.
//! Writers build documents with `format!` + [`escape`] — the documents
//! are flat enough that a serializer would be ceremony.

use std::collections::BTreeMap;

/// The deepest nesting of arrays and objects a document may have: the
/// parser recurses once per level, and gateway documents are flat, so a
/// few KiB of `[` must not run a gateway thread off its stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers survive exactly up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    /// Object member lookup (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// A value inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_object(b, pos, depth + 1),
        b'[' => parse_array(b, pos, depth + 1),
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, b"true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, b"false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, b"null", Json::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(b, pos, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        eat(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        m.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(m));
            }
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(v));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogate pairs are out of scope for the job
                        // API's ASCII-leaning payloads; lone surrogates
                        // become the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or backslash whole.
                // Both are ASCII, so the run ends on a character boundary
                // (multi-byte sequences pass through untouched).
                let run = &b[*pos..];
                let n = run
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..n]).ok()?);
                *pos += n;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

/// Escape a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_submit_body() {
        let j = Json::parse(r#"{"patternlet": "broadcast", "np": 4, "on": true}"#).unwrap();
        assert_eq!(j.get("patternlet").unwrap().as_str(), Some("broadcast"));
        assert_eq!(j.get("np").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("on").unwrap().as_bool(), Some(true));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and \ttabs";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{\"a\": 1} x").is_none());
        assert!(Json::parse("{\"a\": ").is_none());
        assert!(Json::parse("[1, 2").is_none());
    }

    #[test]
    fn nested_documents_parse() {
        let j = Json::parse(r#"{"jobs": [{"id": 1}, {"id": 2}], "n": 2}"#).unwrap();
        let Json::Arr(jobs) = j.get("jobs").unwrap() else {
            panic!()
        };
        assert_eq!(jobs[1].get("id").unwrap().as_u64(), Some(2));
    }
}
