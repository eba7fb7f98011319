//! A minimal, dependency-free JSON value: parse, build, serialize.
//!
//! The `samplecfd` protocol is line-delimited JSON, and the workspace builds
//! offline (no serde), so the server carries its own small JSON kernel.
//! Three properties matter here and are guaranteed:
//!
//! * **Deterministic serialization** — objects keep insertion order and
//!   numbers print in Rust's shortest-roundtrip form, so identical protocol
//!   results serialize to identical bytes (the property the concurrency
//!   tests assert response-for-response).
//! * **Lossless numbers** — an `f64` survives a serialize → parse round
//!   trip exactly; integers up to 2⁵³ print without an exponent or a
//!   fractional part.
//! * **Single-line output** — [`Json::to_line`] never emits a newline, so
//!   one protocol message is always exactly one line ([`Json::pretty`] is
//!   for humans: the `samplecf client` reply printer).

use std::fmt::Write as _;

/// A JSON value.  Object members keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; non-finite values serialize as
    /// `null`, which JSON has no token for).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// The JSON form of the scalars responses are built from.
macro_rules! json_from {
    ($($from:ty => |$v:ident| $json:expr;)*) => {
        $(impl From<$from> for Json {
            fn from($v: $from) -> Json {
                $json
            }
        })*
    };
}

json_from! {
    u64 => |n| Json::uint(n);
    usize => |n| Json::uint(n as u64);
    f64 => |n| Json::Num(n);
    bool => |b| Json::Bool(b);
    &str => |s| Json::str(s);
    &String => |s| Json::str(s);
    Option<f64> => |n| n.map_or(Json::Null, Json::Num);
}

impl Json {
    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value (exact for anything a page/row count can
    /// reach in this system).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An object builder seed: `Json::obj().field("a", ...).field("b", ...)`.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (panics when `self` is not an object —
    /// a builder misuse, not a data error).  The value is anything with a
    /// JSON form: a `Json`, a count, a float, a flag, a string.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.into(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on an object; `None` on a missing key or a non-object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Serialize to one line (no newline character anywhere in the output).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation, for human eyes.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (key, value) = &members[i];
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Shared layout for arrays and objects: delimiters, commas, optional
/// indentation.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

#[allow(clippy::cast_possible_truncation)]
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-roundtrip float formatting: `parse` gives the
        // exact same f64 back.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting the parser accepts.  The recursive-descent
/// parser uses the thread stack, so untrusted input (the daemon feeds
/// request lines here verbatim) must hit a structured error long before
/// it can hit a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// The byte at the cursor as an error names it: `'x'` (escaped if need be) or `end of input`.
    fn found(&self) -> String {
        let byte = self.bytes.get(self.pos);
        byte.map_or("end of input".to_string(), |&b| format!("{:?}", b as char))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {}",
                b as char,
                self.pos,
                self.found()
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Run one container parse one level deeper, bounding total nesting.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at offset {start}"))
    }

    /// Parse the four hex digits starting at `at` into a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Accumulate raw bytes and decode once, so multi-byte UTF-8
        // sequences in the input survive intact.
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate must be followed by an
                            // escaped low surrogate (RFC 8259 §7): combine
                            // the pair into one code point, as standard
                            // encoders (e.g. ensure_ascii JSON) emit for
                            // characters outside the BMP.
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err("high surrogate without a \\u pair".to_string());
                                }
                                let low = self.hex4(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate \\u{low:04x}"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                self.pos += 6;
                            }
                            let c = char::from_u32(code).ok_or("invalid \\u escape")?;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        _ => return Err(format!("invalid escape: {}", self.found())),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected , or }} in object, got {}", self.found())),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] in array, got {}", self.found())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_preserve_structure_and_order() {
        let doc = Json::obj()
            .field("b", Json::uint(2))
            .field("a", Json::Num(0.052_345_678_901_234_56))
            .field("s", Json::str("he said \"hi\"\n\ttab"))
            .field(
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("x")]),
            )
            .field("empty", Json::obj())
            .field("nested", Json::obj().field("k", Json::Arr(vec![])));
        let line = doc.to_line();
        assert!(!line.contains('\n'), "to_line must stay on one line");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed, doc, "serialize → parse is lossless");
        // Insertion order survives: "b" serializes before "a".
        assert!(line.find("\"b\"").unwrap() < line.find("\"a\"").unwrap());
        // Pretty output parses back to the same value too.
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn numbers_are_lossless_and_integers_stay_integral() {
        for n in [
            0.0,
            1.0,
            -3.5,
            0.1 + 0.2,
            1e-12,
            9_007_199_254_740_992.0, // 2^53
            123_456_789.0,
        ] {
            let line = Json::Num(n).to_line();
            assert_eq!(Json::parse(&line).unwrap().as_f64(), Some(n), "{line}");
        }
        assert_eq!(Json::uint(42).to_line(), "42");
        assert_eq!(Json::Num(42.5).to_line(), "42.5");
        assert_eq!(Json::Num(f64::INFINITY).to_line(), "null");
        assert_eq!(Json::uint(7).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn accessors_navigate_and_reject_gracefully() {
        let doc = Json::parse(r#"{"op":"estimate","n":3,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("estimate"));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(doc.get("op").and_then(Json::as_u64), None);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} garbage",
            "nan",
            "{\"a\":\\x}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn an_expected_byte_error_names_the_byte_found_or_the_end_of_input() {
        assert_eq!(
            Json::parse("{\"a\":1,").unwrap_err(),
            "expected '\"' at offset 7, found end of input"
        );
        assert_eq!(
            Json::parse("{\"a\" 1}").unwrap_err(),
            "expected ':' at offset 5, found '1'"
        );
    }

    #[test]
    fn an_object_error_names_the_byte_found_not_its_number() {
        assert_eq!(
            Json::parse("{\"a\":1 x}").unwrap_err(),
            "expected , or } in object, got 'x'"
        );
        assert_eq!(
            Json::parse("{\"a\":1").unwrap_err(),
            "expected , or } in object, got end of input"
        );
    }

    #[test]
    fn an_array_error_names_the_byte_found_not_its_number() {
        assert_eq!(
            Json::parse("[1\n2]").unwrap_err(),
            "expected , or ] in array, got '2'"
        );
        assert_eq!(
            Json::parse("[1").unwrap_err(),
            "expected , or ] in array, got end of input"
        );
    }

    #[test]
    fn an_escape_error_names_the_byte_after_the_backslash() {
        assert_eq!(Json::parse("\"a\\q\"").unwrap_err(), "invalid escape: 'q'");
        assert_eq!(
            Json::parse("\"a\\").unwrap_err(),
            "invalid escape: end of input"
        );
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_a_structured_error_not_a_crash() {
        // Just inside the limit parses...
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        // ...one level past it is refused with an error, and a pathological
        // million-deep bomb (untrusted daemon input) cannot smash the stack.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        let bomb = "[".repeat(1_000_000);
        assert!(Json::parse(&bomb).is_err());
        let obj_bomb = "{\"k\":".repeat(500_000);
        assert!(Json::parse(&obj_bomb).is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let parsed = Json::parse(r#""caf\u00e9 – naïve""#).unwrap();
        assert_eq!(parsed.as_str(), Some("café – naïve"));
        let control = Json::str("\u{1}");
        assert_eq!(control.to_line(), "\"\\u0001\"");
        assert_eq!(Json::parse(&control.to_line()).unwrap(), control);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // What ensure_ascii encoders emit for non-BMP characters.
        let parsed = Json::parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀 ok"));
        // A lone high surrogate, or a high one followed by a non-low unit,
        // is not a valid JSON string.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83d\u0041""#).is_err());
        assert!(Json::parse(r#""\ud83dx""#).is_err());
    }
}
