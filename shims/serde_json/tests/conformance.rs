//! The parser against upstream serde_json's documented behaviour, one
//! case per rule: what upstream refuses is refused here, and the nearest
//! text upstream accepts still reads.

use serde::Deserialize;

#[derive(Debug, PartialEq, Deserialize)]
struct Pair {
    a: u32,
    b: f64,
}

fn read(text: &str) -> Result<Pair, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn refused(text: &str, says: &str) {
    let err = read(text).expect_err(text);
    assert!(err.contains(says), "{text}: {err:?} does not say {says:?}");
}

#[test]
fn a_duplicate_key_is_refused() {
    refused(r#"{"a":1,"a":2,"b":0.5}"#, "duplicate field `a`");
    refused(r#"{"a":1,"b":0.5,"b":0.5}"#, "duplicate field `b`");
    // Nested objects are checked too; one key in two objects is no
    // duplicate.
    let nested: Result<Vec<Pair>, _> =
        serde_json::from_str(r#"[{"a":1,"b":0.5},{"a":2,"b":1.5,"a":3}]"#);
    assert!(nested
        .unwrap_err()
        .to_string()
        .contains("duplicate field `a`"));
    assert_eq!(read(r#"{"a":1,"b":0.5}"#), Ok(Pair { a: 1, b: 0.5 }));
    // A large object is checked as well as a small one.
    let many: String = (0..100).map(|i| format!(r#""k{i}":{i},"#)).collect();
    refused(
        &format!(r#"{{{many}"a":1,"b":0.5,"k57":0}}"#),
        "duplicate field `k57`",
    );
}

#[test]
fn a_number_out_of_range_is_refused() {
    refused(r#"{"a":1,"b":1e400}"#, "number out of range");
    refused(r#"{"a":1,"b":-1e400}"#, "number out of range");
    // Underflow is no error: the nearest double is zero.
    assert_eq!(read(r#"{"a":1,"b":1e-400}"#), Ok(Pair { a: 1, b: 0.0 }));
    assert_eq!(
        read(r#"{"a":1,"b":1.7e308}"#),
        Ok(Pair { a: 1, b: 1.7e308 })
    );
}

#[test]
fn a_leading_zero_is_refused() {
    for text in [
        r#"{"a":01,"b":0.5}"#,
        r#"{"a":1,"b":00.5}"#,
        r#"{"a":1,"b":-01.5}"#,
    ] {
        refused(text, "invalid number");
    }
    assert_eq!(read(r#"{"a":0,"b":-0.5}"#), Ok(Pair { a: 0, b: -0.5 }));
    assert_eq!(read(r#"{"a":0,"b":0e1}"#), Ok(Pair { a: 0, b: 0.0 }));
}

#[test]
fn a_number_outside_the_grammar_is_refused() {
    for b in ["1.", ".5", "-", "1e", "1e+", "+1", "1.e5", "--1", "1-2"] {
        let text = format!(r#"{{"a":1,"b":{b}}}"#);
        assert!(read(&text).is_err(), "{text}");
    }
    assert_eq!(read(r#"{"a":1,"b":1E+2}"#), Ok(Pair { a: 1, b: 100.0 }));
    assert_eq!(read(r#"{"a":1,"b":-2.5e-1}"#), Ok(Pair { a: 1, b: -0.25 }));
}

#[test]
fn a_raw_control_character_in_a_string_is_refused() {
    for c in ['\u{0}', '\u{1}', '\n', '\t', '\u{1f}'] {
        let text = format!("\"x{c}y\"");
        let err = serde_json::from_str::<String>(&text).expect_err(&text);
        assert!(
            err.to_string().contains("control character"),
            "{text:?}: {err}"
        );
    }
    // Escaped it reads, and so does a raw DEL, which JSON does not count
    // as a control character.
    let s: String = serde_json::from_str(r#""x\u0001\ny\u007f""#).unwrap();
    assert_eq!(s, "x\u{1}\ny\u{7f}");
    let s: String = serde_json::from_str("\"x\u{7f}y\"").unwrap();
    assert_eq!(s, "x\u{7f}y");
}

#[test]
fn a_unicode_escape_is_four_hex_digits() {
    for text in [r#""\u+041""#, r#""\u-041""#, r#""\u04g1""#, r#""\u041""#] {
        assert!(serde_json::from_str::<String>(text).is_err(), "{text}");
    }
    let s: String = serde_json::from_str(r#""\u0041\u00E9é""#).unwrap();
    assert_eq!(s, "A\u{e9}\u{e9}");
}

#[test]
fn a_surrogate_pair_escape_is_one_character() {
    let s: String = serde_json::from_str(r#""\ud83d\ude00!""#).unwrap();
    assert_eq!(s, "\u{1f600}!");
    let s: String = serde_json::from_str(r#""\uD800\uDC00\uDBFF\uDFFF""#).unwrap();
    assert_eq!(s, "\u{10000}\u{10ffff}");
}

#[test]
fn a_lone_surrogate_escape_is_refused() {
    for text in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
    ] {
        let err = serde_json::from_str::<String>(text).expect_err(text);
        assert!(err.to_string().contains("surrogate"), "{text}: {err}");
    }
}

#[test]
fn a_negative_or_too_large_integer_says_what_was_expected() {
    refused(
        r#"{"a":-1,"b":0.5}"#,
        "invalid value: integer `-1`, expected u32",
    );
    refused(
        r#"{"a":4294967296,"b":0.5}"#,
        "invalid value: integer `4294967296`, expected u32",
    );
    let err = serde_json::from_str::<i64>("9223372036854775808").unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid value: integer `9223372036854775808`, expected i64"
    );
    let err = serde_json::from_str::<u64>("-1").unwrap_err();
    assert_eq!(err.to_string(), "invalid value: integer `-1`, expected u64");
}
