//! A minimal, serde-free JSON value type with parser and writer.
//!
//! The service layer speaks JSON-lines: one request object per line, one
//! response object per line. The build environment is offline, so
//! instead of `serde_json` this module implements the small subset of
//! JSON the protocol needs — objects, arrays, strings (with standard
//! escapes), `f64` numbers, booleans, and `null` — in plain std Rust.
//!
//! Numbers are kept as `f64` (the protocol's integers all fit in the
//! 53-bit mantissa exactly). Duplicate object keys keep the last value,
//! matching common JSON implementations.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` so serialization order is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        // Numbers travel as f64, so any integer ≥ 2^53 may already have
        // been silently rounded during parsing — reject those instead
        // of returning lost precision (matters for RNG seeds, where a
        // rounded seed reproduces different noise than requested).
        const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_LIMIT => Some(*n as u64),
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

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl fmt::Display for Json {
    /// Compact single-line serialization (newline-free, as JSON-lines
    /// requires: the only newline in a frame is the terminator).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        write_into(self, &mut buf);
        f.write_str(&buf)
    }
}

fn write_into(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if n.is_finite() {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            } else {
                // JSON has no Inf/NaN; degrade to null like serde_json.
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_into(val, out);
            }
            out.push('}');
        }
    }
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound one short line of `[`s overflows
/// the parsing thread's stack and aborts the process. The deepest
/// document the server or client writes is about 5 levels.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error,
/// and so is nesting deeper than 128 arrays/objects.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        // PANIC: `pos` only ever advances by the length of bytes already
        // peeked, so `pos <= bytes.len()` and the open range is valid.
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        // PANIC: every byte in `start..pos` matched the ASCII digit/sign
        // classes above, so the range is in bounds and valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // An overflow to infinity is refused: JSON has no infinity, and
        // the writer would turn it into `null`.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => {
                Err(ParseError { message: format!("number {text:?} out of range"), at: start })
            }
            Err(_) => Err(ParseError { message: format!("bad number {text:?}"), at: start }),
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // PANIC: `pos + 4 <= bytes.len()` was checked two lines up.
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    // A second half outside the low range would
                                    // underflow the subtraction below.
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad surrogate pair"));
                                    }
                                    let code = 0x10000
                                        + ((hi as u32 - 0xD800) << 10)
                                        + (lo as u32 - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("bad \\u code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // PANIC: `pos` only ever advances past ASCII bytes or
                    // past whole runs like this one (which end before an
                    // ASCII byte), so it is an in-bounds char boundary.
                    let rest = &self.text[self.pos..];
                    // Copy the whole run up to the next quote or backslash
                    // at once: the input is already a `&str`, so no byte
                    // needs re-validating.
                    let run = rest.split(['"', '\\']).next().unwrap_or_default();
                    out.push_str(run);
                    self.pos += run.len();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} control:\u{1}";
        let v = Json::Str(original.to_string());
        let text = v.to_string();
        assert!(!text.contains('\n'), "serialized form must be single-line");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn multibyte_utf8_runs_between_escapes() {
        let text = "\"na\u{ef}ve caf\u{e9} \\u00e9\\n\u{4e2d}\u{6587}\\t\u{1F600}\\\"\u{1F600}\\\\end\u{e9}\"";
        assert_eq!(
            parse(text).unwrap(),
            Json::Str(
                "na\u{ef}ve caf\u{e9} \u{e9}\n\u{4e2d}\u{6587}\t\u{1F600}\"\u{1F600}\\end\u{e9}"
                    .into()
            )
        );
        // A key with multi-byte runs, and an escape right after one.
        let v = parse("{\"\u{e9}t\u{e9}\":\"\u{1F600}\\u0041\"}").unwrap();
        assert_eq!(v.get("\u{e9}t\u{e9}"), Some(&Json::Str("\u{1F600}A".into())));
    }

    #[test]
    fn string_parse_is_linear_in_length() {
        // Parse time of a string literal must grow linearly in its length.
        crate::assert_linear(
            64 * 1024,
            |n| (n / 5 * 5 + 1, format!("\"{}\\n\"", "abc\u{e9}".repeat(n / 5))),
            |(len, line)| assert!(matches!(parse(line).unwrap(), Json::Str(s) if s.len() == *len)),
        );
    }

    #[test]
    fn array_and_object_parse_is_linear_in_members() {
        let members = |n: usize, member: fn(usize) -> String| {
            (0..n).map(member).collect::<Vec<_>>().join(",")
        };
        let array =
            |n| (n, format!("[{}]", members(n, |i| ["1.5", "\"ab\"", "null"][i % 3].into())));
        crate::assert_linear(16 * 1024, array, |(n, line)| {
            assert!(matches!(parse(line).unwrap(), Json::Arr(a) if a.len() == *n))
        });
        let object = |n| (n, format!("{{{}}}", members(n, |i| format!("\"k{i}\":[{i}]"))));
        crate::assert_linear(16 * 1024, object, |(n, line)| {
            assert!(matches!(parse(line).unwrap(), Json::Obj(m) if m.len() == *n))
        });
    }

    /// Mutates valid documents by truncation, byte flips, deep nesting
    /// and long escape runs: no input may panic, every error must point
    /// inside its input, and every accepted document must come back
    /// unchanged through `to_string`.
    #[test]
    fn mutated_documents_never_panic_and_accepted_ones_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SEEDS: [&str; 5] = [
            r#"{"async":true,"cmd":"anonymize","eps_split":0.3,"epsilon":1.5,"m":4,"seed":9}"#,
            r#"{"a":[1,-2.5e3,1e300,1E-7,0.000001,-0,null,true,false],"b":{"c":{}},"d":[]}"#,
            r#""\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \ud83d\ude00 caf\u00e9""#,
            "[\"multi-byte \u{e9} \u{4e2d}\u{6587} \u{1F600}\",{\"k\\u0000\":\"\\u001f\"}]",
            r#"{"csv":"traj_id,x,y,t\n0,0.5,0.25,0\n","ok":true,"report":{"loss":0.3333333333333333}}"#,
        ];
        const BYTES: &[u8] = b"{}[]\":,\\/-+.eE019aAfFnu \t\n\x00\x7f\xc3\xff";
        const ESCAPES: [&str; 4] = ["\\\\", "\\u0041", "\\ud83d\\ude00", "\\n\\\""];
        let mut rng = StdRng::seed_from_u64(0x15_0a);
        for _ in 0..20_000 {
            let seed = SEEDS[rng.gen_range(0..SEEDS.len())];
            let mut bytes = seed.as_bytes().to_vec();
            match rng.gen_range(0..4u32) {
                0 => bytes.truncate(rng.gen_range(0..bytes.len())),
                1 => {
                    for _ in 0..rng.gen_range(1..4usize) {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] = BYTES[rng.gen_range(0..BYTES.len())];
                    }
                }
                2 => {
                    let (open, close) =
                        if rng.gen_bool(0.5) { ("[", "]") } else { ("{\"a\":", "}") };
                    let depth = rng.gen_range(1..2 * MAX_DEPTH);
                    let closed = depth - rng.gen_range(0..2usize).min(depth);
                    bytes = format!("{}{seed}{}", open.repeat(depth), close.repeat(closed))
                        .into_bytes();
                }
                _ => {
                    let run =
                        ESCAPES[rng.gen_range(0..ESCAPES.len())].repeat(rng.gen_range(1..4096));
                    let at = rng.gen_range(0..=bytes.len());
                    bytes = if rng.gen_bool(0.5) {
                        format!("[\"{run}\",{seed}]").into_bytes()
                    } else {
                        [&bytes[..at], run.as_bytes(), &bytes[at..]].concat()
                    };
                }
            }
            let input = String::from_utf8_lossy(&bytes);
            match parse(&input) {
                Ok(v) => assert_eq!(parse(&v.to_string()), Ok(v), "{input:?}"),
                Err(e) => assert!(e.at <= input.len(), "{e} lies outside {input:?}"),
            }
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // On a thread with the default stack, as the server's executor
        // threads are: an unbounded recursion would abort the process
        // here instead of returning an error.
        std::thread::spawn(|| {
            let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let mut v = parse(&nested(MAX_DEPTH)).unwrap();
            for _ in 1..MAX_DEPTH {
                v = match v {
                    Json::Arr(mut items) => items.pop().unwrap(),
                    other => panic!("expected an array, got {other}"),
                };
            }
            assert_eq!(v, Json::Arr(Vec::new()));
            let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
            assert!(parse(&objects).is_ok());
            for depth in [MAX_DEPTH + 1, 100_000] {
                let err = parse(&nested(depth)).unwrap_err();
                assert!(err.message.contains("nesting"), "{err}");
                assert_eq!(err.at, MAX_DEPTH, "the first byte past the bound");
            }
            assert!(parse(&format!("[{}1{}]", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH)))
                .is_err());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for text in [r#""\ud83d\u0041""#, r#""\ud83d\uffff""#, r#""\ud83d\ud83d""#] {
            let e = parse(text).unwrap_err();
            assert!(e.message.contains("surrogate"), "{text}: {e}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // Surrogate pair for 😀.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\" } ").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
    }

    #[test]
    fn errors_carry_position() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        let e = parse("nope").unwrap_err();
        assert!(e.to_string().contains("byte 0"));
    }

    #[test]
    fn numbers_past_the_f64_range_are_refused() {
        let e = parse("[1,-1e999]").unwrap_err();
        assert_eq!((e.at, e.message.contains("out of range")), (3, true), "{e}");
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0), "underflow is not an error");
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-1.0).to_string(), "-1");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn as_u64_rejects_values_that_lost_precision() {
        // 2^53 + 1 parses to the f64 2^53; returning that would silently
        // change an RNG seed, so everything ≥ 2^53 is rejected.
        let v = parse(r#"{"seed":9007199254740993}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), None);
        let v = parse(r#"{"seed":9007199254740992}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), None);
        // The largest exactly-representable accepted integer.
        let v = parse(r#"{"seed":9007199254740991}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(9007199254740991));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":7,"s":"x","b":true,"f":1.5}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("f").and_then(Json::as_u64), None, "fractional is not u64");
        assert_eq!(v.get("missing"), None);
    }
}
