//! Hostile input for the gateway's JSON reader, which parses every
//! `POST /jobs` body. Whatever the text — arbitrary, cut short, nested
//! past [`MAX_DEPTH`] or one long string — `Json::parse` returns without
//! panicking, without running off its thread's stack, and in time linear
//! in the input.

use std::time::{Duration, Instant};

use patternlets_serve::json::{escape, Json, MAX_DEPTH};
use proptest::prelude::*;

/// `levels` arrays, each the only element of the one outside it.
fn nested(levels: usize) -> String {
    "[".repeat(levels) + &"]".repeat(levels)
}

#[test]
fn nesting_past_the_cap_is_refused() {
    assert!(Json::parse(&nested(MAX_DEPTH)).is_some());
    assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_none());
    let objects = "{\"a\": ".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
    assert!(Json::parse(&objects).is_none());
}

#[test]
fn a_deeply_nested_body_does_not_overflow_the_stack() {
    assert!(Json::parse(&"[".repeat(100_000)).is_none());
    assert!(Json::parse(&nested(100_000)).is_none());
}

#[test]
fn a_long_string_parses_in_linear_time() {
    let text = "é".repeat(512 << 10);
    let doc = format!("{{\"patternlet\": \"{text}\"}}");
    let start = Instant::now();
    let parsed = Json::parse(&doc).expect("valid document");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "took {:?}",
        start.elapsed()
    );
    assert_eq!(
        parsed.get("patternlet").and_then(Json::as_str),
        Some(&*text)
    );
}

/// Write `v` as JSON text.
fn write(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(write).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Obj(members) => {
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), write(v)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
    }
}

/// Characters for strings: ASCII, multi-byte, and every kind the writer
/// escapes.
const CHARS: [char; 8] = ['a', 'é', '€', '😀', '"', '\\', '\n', '\u{1}'];

/// A document built from `ops`, one byte per choice: each value's kind,
/// and each container's length and string's characters. Containers nest
/// at most four deep.
fn build(ops: &mut impl Iterator<Item = u8>, depth: usize) -> Json {
    let op = ops.next().unwrap_or(0);
    let len = (op / 8 % 4) as usize;
    match op % 8 {
        1 => Json::Bool(op & 8 != 0),
        2 => Json::Num(f64::from(op) - 128.0),
        3 => Json::Str(text(ops)),
        4 | 5 if depth < 4 => Json::Arr((0..len).map(|_| build(ops, depth + 1)).collect()),
        6 | 7 if depth < 4 => Json::Obj(
            (0..len)
                .map(|_| (text(ops), build(ops, depth + 1)))
                .collect(),
        ),
        _ => Json::Null,
    }
}

fn text(ops: &mut impl Iterator<Item = u8>) -> String {
    let len = ops.next().unwrap_or(0) % 6;
    (0..len)
        .map(|_| CHARS[ops.next().unwrap_or(0) as usize % CHARS.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any text at all.
    #[test]
    fn arbitrary_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A valid document reads back as written, and the document cut
    /// anywhere parses or is refused without a panic.
    #[test]
    fn truncated_documents_never_panic(
        ops in proptest::collection::vec(any::<u8>(), 1..128),
        cut in 0.0f64..1.0,
    ) {
        let v = build(&mut ops.into_iter(), 0);
        let text = write(&v);
        prop_assert_eq!(Json::parse(&text), Some(v));
        let mut end = (text.len() as f64 * cut) as usize;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = Json::parse(&text[..end]);
    }
}
