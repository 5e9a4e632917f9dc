//! A minimal hand-rolled JSON layer: a writer and a strict parser.
//!
//! The workspace deliberately avoids serde; every serialized artifact
//! (NDJSON trace lines, metrics reports, run manifests) goes through
//! [`JsonBuf`], which handles comma placement, string escaping, and
//! non-finite floats (serialized as `null` — the only deterministic
//! rendering, since JSON has no infinities). The writer allocates
//! nothing beyond its output buffer: scopes are tracked in a bit set
//! and numbers are formatted straight into the buffer.
//!
//! The inverse direction is [`parse`], a strict recursive-descent
//! parser used by the trace reader: it follows the JSON grammar
//! exactly, so bare `NaN` / `Infinity` tokens and overflowing exponents
//! are *rejected* with a byte-positioned error instead of smuggling
//! non-finite floats into downstream analysis (Rust's `f64::from_str`
//! would happily accept them). A parsed [`JsonValue`] borrows from the
//! input: a string without escapes is a slice of it, and only a string
//! with escapes is copied. An object is a vector of its members in
//! input order; when a key repeats, lookups see the last value. An
//! NDJSON event line therefore parses with one allocation, the member
//! vector.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest nesting a [`JsonBuf`] tracks (one bit per open scope).
const MAX_DEPTH: u32 = u64::BITS;

/// An append-only JSON document builder.
///
/// Objects and arrays are opened/closed explicitly; the builder tracks
/// whether a separator comma is needed at each nesting level, up to 64
/// levels. Misuse (closing more than was opened, or leaving scopes
/// open) panics in debug builds and produces invalid JSON in release —
/// callers are internal and tested.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// Open scopes.
    depth: u32,
    /// Bit `i` set: scope `i` (0 = outermost) needs a comma before its
    /// next item.
    needs_comma: u64,
}

impl JsonBuf {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Continue writing after the contents of `out`: the buffer moves
    /// in and [`JsonBuf::finish`] hands it back, so appending a line to
    /// an existing batch allocates nothing.
    pub(crate) fn from_string(out: String) -> Self {
        Self {
            out,
            ..Self::default()
        }
    }

    /// Consume the builder, returning the document.
    pub fn finish(self) -> String {
        debug_assert!(self.depth == 0, "unclosed JSON scopes");
        self.out
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The bit of the innermost open scope, if any.
    fn top_bit(&self) -> Option<u64> {
        self.depth.checked_sub(1).map(|top| 1 << top)
    }

    fn sep(&mut self) {
        if let Some(bit) = self.top_bit() {
            if self.needs_comma & bit != 0 {
                self.out.push(',');
            }
            self.needs_comma |= bit;
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        assert!(
            self.depth < MAX_DEPTH,
            "JSON nested deeper than {MAX_DEPTH} scopes"
        );
        self.out.push(bracket);
        self.needs_comma &= !(1 << self.depth);
        self.depth += 1;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        debug_assert!(self.depth > 0, "closing an unopened JSON scope");
        self.depth = self.depth.saturating_sub(1);
        self.out.push(bracket);
        self
    }

    /// Open an object as the next value.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array as the next value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Write an object key; the next write supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The value that follows must not emit another comma.
        if let Some(bit) = self.top_bit() {
            self.needs_comma &= !bit;
        }
        self
    }

    /// Write a string value.
    pub fn str_val(&mut self, v: &str) -> &mut Self {
        self.sep();
        write_escaped(&mut self.out, v);
        self
    }

    /// Write an `f64` value (`null` when non-finite).
    pub fn f64_val(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            // `{:?}` prints the shortest representation that round-trips,
            // which is also valid JSON for finite values. Writing to a
            // `String` cannot fail.
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Write a `u64` value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write a boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    // ---- key+value conveniences -------------------------------------

    /// `"k": "v"`.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_val(v)
    }

    /// `"k": 1.5`.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64_val(v)
    }

    /// `"k": 7`.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_val(v)
    }

    /// `"k": true`.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).bool_val(v)
    }
}

/// Whether `b` must be escaped inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Escape `s` as a JSON string (with surrounding quotes) onto `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parsing.

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite: the parser rejects overflow).
    Num(f64),
    /// A non-negative integer token that fits `u64` — kept exact so
    /// values above 2^53 (e.g. 64-bit seeds) survive a round trip.
    Uint(u64),
    /// A string: a slice of the input, or an owned copy when the
    /// source spelled it with escapes.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object's members in input order. Duplicate keys are all kept;
    /// [`JsonValue::get`] returns the last.
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl<'a> JsonValue<'a> {
    /// Object member lookup; `None` for non-objects or missing keys.
    /// When a key repeats, the last occurrence wins.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            Self::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (integers wider than the
    /// f64 mantissa round to the nearest representable float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            Self::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Uint(n) => Some(*n),
            Self::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset (0-based column within the
/// parsed text) where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected). The value borrows its unescaped strings from `s`.
pub fn parse(s: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser {
        src: s,
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.i,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? != b {
            return Err(self.err(format!("expected {:?}", b as char)));
        }
        self.i += 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, v: JsonValue<'a>) -> Result<JsonValue<'a>, JsonError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected literal {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.lit("true", JsonValue::Bool(true)),
            b'f' => self.lit("false", JsonValue::Bool(false)),
            b'n' => self.lit("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(format!("unexpected character {:?}", other as char))),
        }
    }

    fn object(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.err("expected string key"));
            }
            let k = self.string()?;
            self.eat(b':')?;
            members.push((k, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(JsonValue::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string token. Runs of bytes that need no decoding are sliced
    /// from the input; the first escape switches to an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let src = self.src;
        let mut owned: Option<String> = None;
        loop {
            let start = self.i;
            while self.s.get(self.i).is_some_and(|&b| !needs_escape(b)) {
                self.i += 1;
            }
            // `start` and `self.i` sit next to ASCII bytes, so both are
            // char boundaries of `src`.
            let run = &src[start..self.i];
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.i += 1;
                    self.escape(out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decode the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = *self
            .s
            .get(self.i)
            .ok_or_else(|| self.err("unterminated escape"))?;
        self.i += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.s[self.i..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.i += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(c).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            other => return Err(self.err(format!("bad escape \\{:?}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.i + 4;
        let hex = self
            .s
            .get(self.i..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i = end;
        Ok(v)
    }

    fn digits(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
    }

    /// Parse a number following the JSON grammar exactly — so `NaN`,
    /// `Infinity`, `01`, `.5`, and `1.` are all rejected — then refuse
    /// any value that overflows to an infinity.
    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        let start = self.i;
        let negative = self.s.get(self.i) == Some(&b'-');
        if negative {
            self.i += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.s.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("malformed number")),
        }
        let mut integral = true;
        if self.s.get(self.i) == Some(&b'.') {
            integral = false;
            self.i += 1;
            if !self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                return Err(self.err("digits required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                return Err(self.err("digits required in exponent"));
            }
            self.digits();
        }
        let text = &self.src[start..self.i];
        // A plain non-negative integer token that fits u64 stays exact.
        if integral && !negative {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(n));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number {text:?} overflows to a non-finite float")));
        }
        Ok(JsonValue::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders() {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_str("name", "run")
            .field_u64("seed", 42)
            .key("tails")
            .begin_arr()
            .f64_val(1.0)
            .f64_val(0.5)
            .end_arr()
            .key("inner")
            .begin_obj()
            .field_bool("ok", true)
            .end_obj()
            .end_obj();
        assert_eq!(
            j.finish(),
            r#"{"name":"run","seed":42,"tails":[1.0,0.5],"inner":{"ok":true}}"#
        );
    }

    #[test]
    fn escaping_covers_specials_and_controls() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_f64("inf", f64::INFINITY)
            .field_f64("nan", f64::NAN)
            .field_f64("x", 0.25)
            .end_obj();
        assert_eq!(j.finish(), r#"{"inf":null,"nan":null,"x":0.25}"#);
    }

    #[test]
    fn float_formatting_round_trips_and_is_json() {
        for v in [0.9, 1e-12, 3.541, 123456789.0, -0.0, 2e300] {
            let mut j = JsonBuf::new();
            j.f64_val(v);
            let s = j.finish();
            match parse(&s).unwrap() {
                JsonValue::Num(parsed) => assert_eq!(parsed, v, "{s}"),
                other => panic!("expected number for {s}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parser_accepts_a_full_document() {
        let v = parse(r#" {"a":[1,2.5,-3e2,true,null],"b":"x\n\u0041","c":{"d":false}} "#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Uint(1),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\nA"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        // Bare NaN/Infinity tokens are not JSON; overflowing exponents
        // would round to infinity. All must fail instead of producing
        // non-finite floats (this was a panic path for adversarial
        // traces before the strict parser existed).
        for bad in [
            "NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "1e999",
            "-1e999",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        for bad in [r#"{"t":NaN}"#, r#"{"t":1e999}"#, "[inf]"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_rejects_malformed_grammar() {
        for bad in [
            "",
            "{",
            "[1,",
            "01",
            ".5",
            "1.",
            "1e",
            "+1",
            "tru",
            "\"unterminated",
            "{\"a\":1,}",
            "[1 2]",
            "{'a':1}",
            "1 2",
            "\"\\q\"",
            "\"\x01\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_reports_error_offsets() {
        let err = parse(r#"{"a": nope}"#).unwrap_err();
        assert_eq!(err.offset, 6, "{err}");
        assert!(err.to_string().contains("byte 6"), "{err}");
    }

    #[test]
    fn parser_handles_unicode_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""\ud83d\ude00 π""#).unwrap().as_str(),
            Some("\u{1F600} π")
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"t":1.0,"t":2.0}"#).unwrap();
        assert_eq!(v.get("t").and_then(JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn escaped_strings_parse_like_plain_ones() {
        let plain = parse(r#"{"ev":"arrival","t":0.5,"proc":3}"#).unwrap();
        let escaped = parse(r#"{"ev":"arr\u0069val","t":0.5,"proc":3}"#).unwrap();
        assert_eq!(
            escaped.get("ev").and_then(JsonValue::as_str),
            Some("arrival")
        );
        assert_eq!(escaped, plain);
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
