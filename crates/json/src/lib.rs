//! The workspace's one JSON codec.
//!
//! Everything that reads or writes JSON goes through this crate: the
//! `sapsim.api/v1` wire protocol, the observability streams, run
//! summaries, sweep manifests and reports, and the canonical run and
//! state bytes. It has three parts:
//!
//! * [`parse`] — a strict recursive-descent reader into [`JsonValue`]. It
//!   rejects trailing garbage, caps nesting depth, decodes every escape
//!   (including surrogate pairs), refuses numbers that overflow an `f64`,
//!   and keeps non-negative integer literals exact up to `u64::MAX`
//!   ([`JsonValue::Int`]) — RNG state words and histogram bucket bounds
//!   use the full 64 bits.
//! * [`push_str`] / `push_u64` / `push_f64` — deterministic emit
//!   helpers appending to one `String`.
//! * [`ToJson`] / [`FromJson`] and the [`json_codec!`] macro — typed
//!   encode (streamed into one `String`, no intermediate tree) and decode
//!   (from a parsed [`JsonValue`]) for records with required and
//!   defaulted members, internally tagged enums, unit enums, newtypes and
//!   string-keyed objects ([`Keyed`]). A [`DecodeError`] tells a wrong
//!   shape from a bad value.
//!
//! [`fnv1a_64`] is the workspace's one content hash.

mod codec;

pub use codec::{
    decode, member_str, object, optional, required, variant, write_variant, DecodeError,
    ErrorKind, FromJson, JsonMembers, Keyed, ObjectWriter, TaggedJson, ToJson,
};

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by [`parse`]. Requests are flat
/// objects; 32 levels is far beyond anything legitimate and keeps a
/// hostile body from exhausting the stack.
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
///
/// Object keys keep *insertion order* (pairs in a `Vec`), so a
/// parse→emit round trip is byte-stable; [`JsonValue::get`] does the
/// linear lookup the flat protocol objects need.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal (no fraction, no exponent) that
    /// fits a `u64`, kept exact.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string, fully unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: exact for integer
    /// literals up to `u64::MAX`. A number written with a fraction or an
    /// exponent (`4.0`, `1e3`) counts when it is integral and below 2^53,
    /// where every `f64` integer is exact; anything else is `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `value["key"]`: the member, or `null` for missing keys and non-objects.
impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;

    fn index(&self, key: &str) -> &JsonValue {
        self.get(key).unwrap_or(&JsonValue::Null)
    }
}

/// `value[i]`: the element, or `null` past the end and for non-arrays.
impl std::ops::Index<usize> for JsonValue {
    type Output = JsonValue;

    fn index(&self, i: usize) -> &JsonValue {
        self.as_arr().and_then(|items| items.get(i)).unwrap_or(&JsonValue::Null)
    }
}

/// A parse failure: byte offset plus a short message. Rendered as
/// `"{msg} at byte {offset}"`; the protocol layer wraps it into its
/// `malformed` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub(crate) offset: usize,
    /// Short description of what was expected or found.
    pub(crate) msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document. Trailing non-whitespace input is an
/// error — a request line must be exactly one value.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: u32) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                            // `hex4` advanced past the digits; compensate
                            // for the `pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next `"`, `\`
                    // or control byte as one slice. The stop bytes are
                    // ASCII, so both ends are char boundaries of the input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        let digits_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // A bare run of digits stays an exact integer; one too long for a
        // `u64` falls through to the float path like any other number.
        if digits_start == start && self.pos == digits_end {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        let n: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(JsonValue::Num(n))
    }
}

// ---------------------------------------------------------------------
// Deterministic emit helpers.
// ---------------------------------------------------------------------

/// Append a JSON string literal (quoted, escaped).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Append an unsigned integer.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Append an `f64` using Rust's shortest-round-trip `Display`; non-finite
/// values become `null` (JSON has no NaN/Inf).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The 64-bit FNV-1a hash: transaction tokens, canonical state hashes,
/// scenario ids and RNG stream labels all use it.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The first key of `obj` that is not in `allowed` (strict field checks).
pub fn unknown_key<'a>(obj: &'a [(String, JsonValue)], allowed: &[&str]) -> Option<&'a str> {
    obj.iter()
        .map(|(k, _)| k.as_str())
        .find(|k| !allowed.contains(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_object() {
        let v = parse(r#"{"schema":"sapsim.api/v1","op":"place","vcpus":4,"dry_run":true}"#)
            .expect("parses");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some("sapsim.api/v1"));
        assert_eq!(v.get("vcpus").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("dry_run").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"{"a":1"#).is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut s = String::new();
        for _ in 0..64 {
            s.push('[');
        }
        for _ in 0..64 {
            s.push(']');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\n\t\"\\ é 😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\t\"\\ \u{e9} \u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
        assert!(parse(r#""\udc00""#).is_err()); // lone low surrogate
        assert!(parse(r#""\ud83dx""#).is_err());
    }

    #[test]
    fn numbers_round_trip_and_overflow_is_caught() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert!(parse("1e999").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("--1").is_err());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        let pairs = v.as_obj().unwrap();
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
    }

    #[test]
    fn unknown_key_finds_the_intruder() {
        let v = parse(r#"{"op":"state","bogus":1}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(unknown_key(obj, &["op", "schema"]), Some("bogus"));
        assert_eq!(unknown_key(obj, &["op", "bogus"]), None);
    }

    #[test]
    fn emitters_escape_and_render_deterministically() {
        let emit = |s: &str| {
            let mut out = String::new();
            push_str(&mut out, s);
            out
        };
        assert_eq!(emit("plain"), "\"plain\"");
        assert_eq!(emit("a\"b\\c\nd\te\r\u{1}"), r#""a\"b\\c\nd\te\r\u0001""#);
        // What the emitter escapes, the reader restores.
        let nasty = "x\n\"\\\t\u{2}\u{1f}é😀";
        assert_eq!(parse(&emit(nasty)).unwrap().as_str(), Some(nasty));

        let float = |v: f64| {
            let mut out = String::new();
            push_f64(&mut out, v);
            out
        };
        assert_eq!(float(0.25), "0.25");
        assert_eq!(float(-3.0), "-3");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        let mut out = String::new();
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, "18446744073709551615");
    }

    #[test]
    fn integers_are_exact_up_to_u64_max() {
        for n in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v, JsonValue::Int(n));
            assert_eq!(v.as_u64(), Some(n), "{n}");
            assert_eq!(v.as_f64(), Some(n as f64));
        }
        // One past `u64::MAX` is still a number, just not an exact one.
        let v = parse("18446744073709551616").unwrap();
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.as_f64(), Some(18_446_744_073_709_551_616.0));
        // Fraction or exponent spellings count while they are exact.
        assert_eq!(parse("4.0").unwrap().as_u64(), Some(4));
        assert_eq!(parse("9007199254740993.0").unwrap().as_u64(), None);
        assert_eq!(parse("-0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn edge_documents_parse_to_the_expected_tree() {
        use JsonValue::{Arr, Bool, Int, Null, Num, Obj, Str};
        let table: [(&str, JsonValue); 8] = [
            (
                r#"{"a":[1,2,{"b":null}],"c":"x","d":false,"e":1.25e2}"#,
                Obj(vec![
                    ("a".into(), Arr(vec![Int(1), Int(2), Obj(vec![("b".into(), Null)])])),
                    ("c".into(), Str("x".into())),
                    ("d".into(), Bool(false)),
                    ("e".into(), Num(125.0)),
                ]),
            ),
            (
                r#"[[],{},"",0,-0.5]"#,
                Arr(vec![Arr(vec![]), Obj(vec![]), Str(String::new()), Int(0), Num(-0.5)]),
            ),
            (r#""Aß東""#, Str("Aß東".into())),
            (" \t\r\n true \n", Bool(true)),
            (r#"{"":{"":[]}}"#, Obj(vec![(String::new(), Obj(vec![(String::new(), Arr(vec![]))]))])),
            (r#"{"k":1,"k":2}"#, Obj(vec![("k".into(), Int(1)), ("k".into(), Int(2))])),
            ("-12", Num(-12.0)),
            (r#""\u0041\/\b\f""#, Str("A/\u{8}\u{c}".into())),
        ];
        for (doc, want) in table {
            assert_eq!(parse(doc), Ok(want), "doc: {doc}");
        }
        for bad in ["01x", "[1,]", "{,}", "{\"a\" 1}", "\"\\x\"", "\"a\nb\"", "+1", ".5", "tru", "[", "\u{feff}1"] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn megabyte_documents_decode_in_linear_time() {
        // A decoder that rescans the rest of the input per character takes
        // minutes on a megabyte document.
        let value: String = "abcdé東😀 ".repeat(1 << 17);
        let mut long_string = String::new();
        push_str(&mut long_string, &value);
        let mut many_keys = String::from("{");
        for i in 0..100_000 {
            let _ = write!(many_keys, "\"key{i:06}\":{i},");
        }
        many_keys.pop();
        many_keys.push('}');
        assert!(long_string.len() >= 1 << 20 && many_keys.len() >= 1 << 20);

        let started = std::time::Instant::now();
        let decoded = parse(&long_string).unwrap();
        let object = parse(&many_keys).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 2.0, "two 1 MiB documents took {elapsed:?}");
        assert_eq!(decoded.as_str(), Some(value.as_str()));
        let pairs = object.as_obj().unwrap();
        assert_eq!(pairs.len(), 100_000);
        assert_eq!(pairs[99_999], ("key099999".to_string(), JsonValue::Int(99_999)));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn indexing_yields_null_for_anything_missing() {
        let v = parse(r#"{"a":[{"b":7}]}"#).unwrap();
        assert_eq!(v["a"][0]["b"].as_u64(), Some(7));
        assert_eq!(v["a"][1], JsonValue::Null);
        assert_eq!(v["nope"]["deeper"], JsonValue::Null);
        assert_eq!(v[0], JsonValue::Null);
    }
}
