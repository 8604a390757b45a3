//! A small, dependency-free JSON value type with a strict parser and a
//! float-round-tripping writer.
//!
//! Used for artifacts that must survive a process boundary (persisted
//! models, cached campaign metadata). Numbers are written with Rust's
//! shortest-round-trip `f64` formatting, so `parse(write(v)) == v` holds
//! bit-for-bit for finite floats; non-finite floats are rejected at write
//! time rather than silently corrupted.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum container nesting the parser accepts.
///
/// The parser is recursive, so without a limit a hostile document of the
/// form `[[[[…` could exhaust the stack and abort the process. Servers
/// parse client-supplied bytes with this parser, so overly deep input is
/// a [`JsonError`], never a crash. 64 is far beyond any artifact or
/// request body this workspace produces.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted), which is fine for
    /// machine-read artifacts.
    Obj(BTreeMap<String, JsonValue>),
}

/// Parse or access error with a short human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Build an error (also used by typed accessors in consumers).
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Compact serialization. Panics on non-finite numbers — persisted
/// artifacts must never contain NaN/∞.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of numbers.
    pub fn nums<'a>(xs: impl IntoIterator<Item = &'a f64>) -> JsonValue {
        JsonValue::Arr(xs.into_iter().map(|&x| JsonValue::Num(x)).collect())
    }

    /// Typed accessor: object field.
    pub fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        match self {
            JsonValue::Obj(m) => {
                m.get(key).ok_or_else(|| JsonError::new(format!("missing field '{key}'")))
            }
            _ => Err(JsonError::new(format!("expected object with field '{key}'"))),
        }
    }

    /// Typed accessor: number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            _ => Err(JsonError::new("expected number")),
        }
    }

    /// Typed accessor: non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Ok(n as usize)
        } else {
            Err(JsonError::new(format!("expected unsigned integer, got {n}")))
        }
    }

    /// Typed accessor: string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err(JsonError::new("expected string")),
        }
    }

    /// Typed accessor: array.
    pub fn as_arr(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Arr(v) => Ok(v),
            _ => Err(JsonError::new("expected array")),
        }
    }

    /// Typed accessor: array of numbers.
    pub fn as_f64_vec(&self) -> Result<Vec<f64>, JsonError> {
        self.as_arr()?.iter().map(|v| v.as_f64()).collect()
    }

    /// Typed accessor: array of non-negative integers.
    pub fn as_usize_vec(&self) -> Result<Vec<usize>, JsonError> {
        self.as_arr()?.iter().map(|v| v.as_usize()).collect()
    }

    /// Typed accessor: array of strings.
    pub fn as_string_vec(&self) -> Result<Vec<String>, JsonError> {
        self.as_arr()?.iter().map(|v| v.as_str().map(str::to_string)).collect()
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => format_f64(*n, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    ///
    /// Safe on untrusted input: malformed documents (unterminated
    /// strings/objects, truncated escapes, bad numbers) and documents
    /// nested deeper than [`MAX_DEPTH`] return a [`JsonError`]; no input
    /// can panic the parser or exhaust the stack.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(format!("trailing input at byte {pos}")));
        }
        Ok(value)
    }
}

/// Append the canonical JSON spelling of a finite `f64` to `out`.
///
/// This is THE number formatter for the whole workspace: [`JsonValue`]'s
/// writer and the serving stack's zero-allocation response renderer both
/// call it, so a served prediction and an offline-serialized artifact
/// spell the same `f64` identically — Rust's shortest-round-trip
/// formatting, with integral values printed without a fraction (both
/// reparse to the same bit pattern). Negative zero must keep its sign
/// bit, so it skips the integer path. Panics on non-finite input —
/// persisted artifacts and responses must never contain NaN/∞.
pub fn format_f64(n: f64, out: &mut String) {
    use fmt::Write;
    assert!(n.is_finite(), "cannot serialize non-finite number {n}");
    if n.fract() == 0.0 && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a JSON string literal (quotes + escapes) to `out`.
///
/// Public for the same reason as [`format_f64`]: the serving stack
/// renders response bodies without building a [`JsonValue`] tree and
/// must escape exactly the way the tree writer does.
pub fn escape_into(s: &str, out: &mut String) {
    write_escaped(s, out);
}

/// Scan one JSON number token starting at `pos`, advancing `pos` past
/// it, and parse it as `f64`.
///
/// Exposed for schema-aware scanners that parse feature bodies without
/// building a value tree: the token grammar (optional `-`, required
/// digit, then a greedy `[0-9.eE+-]*` sweep handed to Rust's `f64`
/// parser) is exactly what [`JsonValue::parse`] applies, so both paths
/// accept the same spellings and produce bit-identical values.
pub fn scan_number(b: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    parse_number(b, pos)
}

fn write_escaped(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(format!("expected '{}' at byte {}", c as char, *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::new(format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonError::new("unexpected end of input")),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected ',' or ']' at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(map));
                    }
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected ',' or '}}' at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(_) => parse_number(b, pos).map(JsonValue::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError::new(format!("invalid literal at byte {pos}", pos = *pos)))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // JSON requires a digit here; without this check Rust's f64 parser
    // would accept non-JSON spellings like "+1", "inf", or "NaN".
    if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
        return Err(JsonError::new(format!("invalid number at byte {start}")));
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| JsonError::new("invalid utf8 in number"))?;
    text.parse::<f64>()
        .map_err(|_| JsonError::new(format!("invalid number '{text}' at byte {start}")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(JsonError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::new("invalid \\u codepoint"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new("invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. Both are ASCII, so the run ends on a character
                // boundary and validating it costs its own length only.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| JsonError::new("invalid utf8 in string"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("wdt \"quoted\" \\ path\nline".into())),
            ("coeffs", JsonValue::nums(&[1.5, -2.25e-8, 0.0, 1e9])),
            ("kept", JsonValue::Arr(vec![JsonValue::Num(0.0), JsonValue::Num(3.0)])),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
        ]);
        let text = v.to_string();
        let back = JsonValue::parse(&text).expect("parse");
        assert_eq!(v, back);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.234_567_890_123_456_7e300,
            -9.87e-305,
            123456789.123456,
        ] {
            let text = JsonValue::Num(x).to_string();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("not json").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn typed_accessors() {
        let v = JsonValue::parse(r#"{"a": [1, 2, 3], "s": "x", "n": 2.5}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_usize_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert_eq!(v.field("n").unwrap().as_f64().unwrap(), 2.5);
        assert!(v.field("missing").is_err());
        assert!(v.field("n").unwrap().as_usize().is_err());
        assert!(v.field("s").unwrap().as_f64().is_err());
    }

    #[test]
    fn unicode_and_escapes_parse() {
        let v = JsonValue::parse(r#""café – ☃""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "café – ☃");
    }

    /// String parsing is linear in the string's length. Re-validating the
    /// rest of the document as UTF-8 once per character made this input
    /// take many minutes.
    #[test]
    fn multi_megabyte_string_round_trips() {
        let chunk = "plain ascii, café – ☃ 𝄞 中, \"quoted\" \\ tab\t nl\n ctl\u{1} end/";
        let s = chunk.repeat(65_536);
        assert!(s.len() > 4_000_000, "{}", s.len());
        let text = JsonValue::Str(s.clone()).to_string();
        assert_eq!(JsonValue::parse(&text).unwrap().as_str().unwrap(), s);
    }

    /// Untrusted-input hardening: every malformed shape a client can send
    /// must come back as `Err`, not a panic or an abort.
    #[test]
    fn malformed_untrusted_input_errors_cleanly() {
        let cases: &[&str] = &[
            "",
            "   ",
            "{",
            "}",
            "[",
            "]",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\" 1}",
            "{1:2}",
            "[1",
            "[1,",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"truncated escape \\",
            "\"truncated unicode \\u00",
            "\"surrogate \\ud834\"",
            "nul",
            "tru",
            "falsy",
            "-",
            "+1",
            "1e",
            "0x10",
            "1.2.3",
            "--5",
        ];
        for c in cases {
            assert!(JsonValue::parse(c).is_err(), "accepted malformed input {c:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        // One past the limit errors; an abort/stack overflow would fail
        // the whole test binary, which is exactly what this guards.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}0{}", open.repeat(MAX_DEPTH + 1), close.repeat(MAX_DEPTH + 1));
            let err = JsonValue::parse(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
            // ... and a *much* deeper doc must still error, not crash.
            let hostile = "[".repeat(1_000_000);
            assert!(JsonValue::parse(&hostile).is_err());
        }
        // At the limit still parses.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Strings exercising escapes, unicode, and embedded quotes.
    fn arb_string() -> BoxedStrategy<String> {
        let alphabet: Vec<char> = ('a'..='f')
            .chain(['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}'])
            .chain(['é', '☃', '𝄞', '–', '中'])
            .collect();
        vec(0usize..alphabet.len(), 0..12)
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect())
            .boxed()
    }

    /// Numbers spanning sign, magnitude, and exponent extremes — every
    /// finite f64 must survive the writer/parser round trip bit-for-bit.
    fn arb_number() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            Just(-f64::MAX),
            Just(1e308),
            Just(-9.87e-305),
            -1.0e15..1.0e15,
            -1.0..1.0,
            (0u64..u64::MAX).prop_map(|b| {
                // Arbitrary bit patterns, squashed to finite.
                let x = f64::from_bits(b);
                if x.is_finite() {
                    x
                } else {
                    b as f64
                }
            }),
        ]
        .boxed()
    }

    fn arb_json(depth: usize) -> BoxedStrategy<JsonValue> {
        let leaf = prop_oneof![
            Just(JsonValue::Null),
            Just(JsonValue::Bool(true)),
            Just(JsonValue::Bool(false)),
            arb_number().prop_map(JsonValue::Num),
            arb_string().prop_map(JsonValue::Str),
        ]
        .boxed();
        if depth == 0 {
            return leaf;
        }
        prop_oneof![
            leaf,
            vec(arb_json(depth - 1), 0..4).prop_map(JsonValue::Arr),
            vec((arb_string(), arb_json(depth - 1)), 0..4)
                .prop_map(|kvs| JsonValue::Obj(kvs.into_iter().collect())),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// write → parse is the identity on any finite document, including
        /// escape-heavy strings, unicode, extreme numbers, and nesting.
        #[test]
        fn round_trips_arbitrary_documents(v in arb_json(4)) {
            let text = v.to_string();
            let back = JsonValue::parse(&text).expect("reparse own output");
            prop_assert_eq!(&v, &back, "document {} did not round-trip", text);
        }

        /// Number round-trips are bitwise, not approximate.
        #[test]
        fn numbers_round_trip_bitwise(x in arb_number()) {
            let text = JsonValue::Num(x).to_string();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            prop_assert_eq!(x.to_bits(), back.to_bits(), "{} -> {} -> {}", x, text, back);
        }

        /// The parser never panics on arbitrary byte soup: truncations and
        /// mutations of valid documents either parse or error cleanly.
        #[test]
        fn parser_total_on_mutated_input(
            v in arb_json(3),
            cut in 0usize..64,
            flip in 0usize..64,
            byte in 0u8..128,
        ) {
            let text = v.to_string();
            let truncated: String =
                text.chars().take(cut.min(text.chars().count())).collect();
            let _ = JsonValue::parse(&truncated);
            let mut mutated: Vec<char> = text.chars().collect();
            if !mutated.is_empty() {
                let i = flip % mutated.len();
                mutated[i] = byte as char;
            }
            let mutated: String = mutated.into_iter().collect();
            let _ = JsonValue::parse(&mutated);
        }
    }
}
