//! A minimal JSON document model, one encoder interface with a text
//! writer and a tree builder behind it, and a validating parser.
//!
//! Exporters hand-roll their JSON through this module. An encoder is a
//! sequence of [`JsonSink`] calls; [`JsonWriter`] turns them into text
//! as they come and [`TreeBuilder`] into a [`JsonValue`], so one
//! encoder yields both forms and [`JsonValue::render`] is the writer
//! run over a tree: the number and escape rules live in the writer
//! alone. The parser exists so tests and the CI leg can *validate* what
//! the exporters wrote — round-tripping our own output is the contract,
//! not general-purpose JSON compliance, though the parser does accept
//! arbitrary well-formed documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed or under-construction JSON value.
///
/// Objects preserve insertion order (exporter output is meant to be
/// stable and diffable), with an index for by-key lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; exporter integers stay exact
    /// below 2^53, far beyond any counter a run produces).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise to compact JSON text: [`JsonWriter`] over the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.encode(&mut JsonWriter::new(&mut out));
        out
    }

    /// Replay the tree into `sink`, in document order.
    pub fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            JsonValue::Null => sink.null(),
            JsonValue::Bool(b) => sink.bool(*b),
            JsonValue::Num(n) => sink.num(*n),
            JsonValue::Str(s) => sink.str(s),
            JsonValue::Arr(items) => {
                sink.begin_arr();
                for item in items {
                    item.encode(sink);
                }
                sink.end_arr();
            }
            JsonValue::Obj(pairs) => {
                sink.begin_obj();
                for (k, v) in pairs {
                    sink.key(k);
                    v.encode(sink);
                }
                sink.end_obj();
            }
        }
    }

    /// Parse a JSON document, requiring it to be a single value with
    /// nothing but whitespace after it.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Convenience constructors so exporter code reads declaratively.
impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Where an encoder sends its document, one call per token in document
/// order: a value is one of `null` .. `str` or a container, an object
/// member is [`JsonSink::key`] followed by its value. Commas and colons
/// are the sink's business. Encoders are written once against this
/// trait, generic over the sink, and run into a [`JsonWriter`] for text
/// or a [`TreeBuilder`] for a [`JsonValue`].
pub trait JsonSink {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// A number.
    fn num(&mut self, n: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Open an array.
    fn begin_arr(&mut self);
    /// Close the innermost array.
    fn end_arr(&mut self);
    /// Open an object.
    fn begin_obj(&mut self);
    /// The key of the next member of the innermost object.
    fn key(&mut self, k: &str);
    /// Close the innermost object.
    fn end_obj(&mut self);

    /// An integer, as every counter and cycle is written (exact below
    /// 2^53, the `f64` form past it).
    fn u64(&mut self, n: u64) {
        self.num(n as f64);
    }

    /// [`JsonSink::key`], returning the sink for the member's value:
    /// `sink.field("cycle").u64(cycle)`.
    fn field(&mut self, k: &str) -> &mut Self
    where
        Self: Sized,
    {
        self.key(k);
        self
    }

    /// An object whose members `members` writes.
    fn obj(&mut self, members: impl FnOnce(&mut Self))
    where
        Self: Sized,
    {
        self.begin_obj();
        members(self);
        self.end_obj();
    }

    /// An array of `items`' values, written by `each`.
    fn arr<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item))
    where
        Self: Sized,
    {
        self.begin_arr();
        for item in items {
            each(self, item);
        }
        self.end_arr();
    }
}

/// A [`JsonSink`] that appends compact JSON text to a `String` — the
/// caller's, so one buffer can be reused across documents.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// A value was written at the current level, so the next one is
    /// preceded by a comma.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    fn value(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }
}

impl JsonSink for JsonWriter<'_> {
    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    fn num(&mut self, n: f64) {
        self.value();
        write_number(self.out, n);
    }

    fn str(&mut self, s: &str) {
        self.value();
        write_escaped(self.out, s);
    }

    fn begin_arr(&mut self) {
        self.value();
        self.out.push('[');
        self.comma = false;
    }

    fn end_arr(&mut self) {
        self.out.push(']');
        self.comma = true;
    }

    fn begin_obj(&mut self) {
        self.value();
        self.out.push('{');
        self.comma = false;
    }

    fn key(&mut self, k: &str) {
        if self.comma {
            self.out.push(',');
        }
        write_escaped(self.out, k);
        self.out.push(':');
        self.comma = false;
    }

    fn end_obj(&mut self) {
        self.out.push('}');
        self.comma = true;
    }
}

/// A [`JsonSink`] that builds the [`JsonValue`] of the document it is
/// sent ([`TreeBuilder::build`]).
pub struct TreeBuilder {
    /// The open containers, outermost first, each with the key it goes
    /// under in its parent.
    open: Vec<(Option<String>, JsonValue)>,
    /// The key of the next member of the innermost object.
    key: Option<String>,
    root: Option<JsonValue>,
}

impl TreeBuilder {
    /// The tree `encode` sends to a builder. Panics if it sends no
    /// value, or leaves a container open: the encoder is broken.
    pub fn build(encode: impl FnOnce(&mut TreeBuilder)) -> JsonValue {
        let mut tree = TreeBuilder {
            open: Vec::new(),
            key: None,
            root: None,
        };
        encode(&mut tree);
        assert!(tree.open.is_empty(), "an encoder left a container open");
        tree.root.expect("an encoder sent no value")
    }

    fn value(&mut self, v: JsonValue) {
        match self.open.last_mut() {
            None => self.root = Some(v),
            Some((_, JsonValue::Arr(items))) => items.push(v),
            Some((_, JsonValue::Obj(pairs))) => {
                let key = self.key.take().expect("an object member without a key");
                pairs.push((key, v));
            }
            Some(_) => unreachable!("only containers are open"),
        }
    }

    fn close(&mut self) {
        let (key, v) = self.open.pop().expect("a close without an open");
        self.key = key;
        self.value(v);
    }
}

impl JsonSink for TreeBuilder {
    fn null(&mut self) {
        self.value(JsonValue::Null);
    }

    fn bool(&mut self, b: bool) {
        self.value(JsonValue::Bool(b));
    }

    fn num(&mut self, n: f64) {
        self.value(JsonValue::Num(n));
    }

    fn str(&mut self, s: &str) {
        self.value(JsonValue::Str(s.to_string()));
    }

    fn begin_arr(&mut self) {
        self.open
            .push((self.key.take(), JsonValue::Arr(Vec::new())));
    }

    fn end_arr(&mut self) {
        self.close();
    }

    fn begin_obj(&mut self) {
        self.open
            .push((self.key.take(), JsonValue::Obj(Vec::new())));
    }

    fn key(&mut self, k: &str) {
        self.key = Some(k.to_string());
    }

    fn end_obj(&mut self) {
        self.close();
    }
}

/// Append the JSON form of `n` to `out`, as [`JsonWriter`] writes
/// every number: an integral value below 2^53 in magnitude as
/// its decimal digits (`-0.0` as `0`), any other finite value in Rust's
/// shortest round-trip form (so `2^53` and past keep the `f64` form
/// `9007199254740992`, `1e21` reads `1000000000000000000000`), and NaN
/// or ±∞ as `null`. The parser reads each back to the value written.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; exporters only feed finite values, but
        // degrade to null rather than emitting an unparsable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        // What `write!(out, "{}", n as i64)` writes, without the
        // formatter: the digits, least significant first, into a
        // buffer read back front to back.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = (n as i64).unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` to `out` as a JSON string literal, as [`JsonWriter`]
/// writes every string and key: quoted, with `"`
/// and `\` escaped, `\n`, `\r` and `\t` by name and every other byte
/// below 0x20 as `\u00XX`. The runs between escapes are copied whole,
/// so a string that needs none is one copy.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // An ASCII byte is a char boundary, so both slices are whole.
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // own output; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // escape in one step. Validating per character
                    // (str::from_utf8 on the full remaining input)
                    // made parsing quadratic — minutes on the
                    // multi-megabyte partial-result bodies.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structured_document() {
        let doc = obj([
            ("schema_version", 2u64.into()),
            ("name", "4x4 uniform".into()),
            ("ok", true.into()),
            ("nothing", JsonValue::Null),
            (
                "latency",
                JsonValue::Arr(vec![1u64.into(), 2u64.into(), JsonValue::Num(2.5)]),
            ),
        ]);
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("own output must parse");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("4x4 uniform"));
        assert_eq!(parsed.get("latency").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let doc = JsonValue::Str("a\"b\\c\nd\te\u{0001}".to_string());
        let text = doc.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_long_strings_in_linear_time() {
        // Strings are consumed in runs, not per character: per-char
        // whole-tail UTF-8 validation once made this quadratic and a
        // megabyte-scale document took minutes. Megabytes must parse
        // in well under a second; a timing assert would flake in CI,
        // so pin correctness at a size where the quadratic version is
        // unmistakably slow in any debug test run.
        let long = "héllo wörld — ".repeat(200_000);
        let doc = JsonValue::Arr(vec![
            JsonValue::Str(long.clone()),
            JsonValue::Str(format!("{long}\"quoted\\slashed")),
        ]);
        let text = doc.render();
        assert!(text.len() > 4 << 20);
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "\"unterminated",
            "1 2",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    /// The writers' fast paths write what the formatter did: the
    /// reference bodies below are the `format!` forms they replaced.
    #[test]
    fn writers_match_their_formatter_forms() {
        fn number_reference(n: f64) -> String {
            if !n.is_finite() {
                "null".into()
            } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }
        }
        fn escaped_reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out + "\""
        }
        let two_53 = 9_007_199_254_740_992.0;
        let mut numbers = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            two_53 - 1.0,
            -(two_53 - 1.0),
            two_53,
            -two_53,
            two_53 * 2.0,
            1e21,
            -1e21,
            1e300,
            u64::MAX as f64,
            0.5,
            -0.25,
            2.5,
            1.0 / 3.0,
            1e-7,
            123_456.789,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        numbers.extend((0..64).map(|shift| (1u64 << shift) as f64 - 1.0));
        for n in numbers {
            let mut out = String::from("x");
            write_number(&mut out, n);
            assert_eq!(out, format!("x{}", number_reference(n)), "{n:?}");
        }
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f} \u{7f}",
            "héllo — wörld ✓ 🎉",
            "tail\n",
            "\u{1f}lead",
            "ünï\"cödé\\",
        ] {
            let mut out = String::from("x");
            write_escaped(&mut out, s);
            assert_eq!(out, format!("x{}", escaped_reference(s)), "{s:?}");
            assert_eq!(JsonValue::parse(&out[1..]).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn integers_render_without_exponents() {
        let v: JsonValue = 1_234_567_890_123u64.into();
        assert_eq!(v.render(), "1234567890123");
        assert_eq!(
            JsonValue::parse("1234567890123").unwrap().as_u64(),
            Some(1_234_567_890_123)
        );
    }
}
