//! A minimal JSON document model, one encoder interface with a text
//! writer and a tree builder behind it, and one pull reader.
//!
//! Exporters hand-roll their JSON through this module. An encoder is a
//! sequence of [`JsonSink`] calls; [`JsonWriter`] turns them into text
//! as they come and [`TreeBuilder`] into a [`JsonValue`], so one
//! encoder yields both forms and [`JsonValue::render`] is the writer
//! run over a tree: the number and escape rules live in the writer
//! alone. [`JsonReader`] is the one parser: snapshot decoders pull
//! their tokens from it straight off the text, and
//! [`JsonValue::parse`] is the reader replaying the text into a
//! [`TreeBuilder`], so the syntax rules live in the reader alone.
//! Round-tripping our own output is the contract, not general-purpose
//! JSON compliance, though the reader accepts arbitrary well-formed
//! documents.

use std::borrow::Cow;
use std::collections::BTreeSet;
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
    /// nothing but whitespace after it: a [`JsonReader`] replaying the
    /// text into a [`TreeBuilder`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut tree = TreeBuilder::new();
        let mut r = JsonReader::new(text);
        r.read_into(&mut tree)?;
        r.end()?;
        Ok(tree.root.expect("a value was read"))
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
        let mut tree = TreeBuilder::new();
        encode(&mut tree);
        assert!(tree.open.is_empty(), "an encoder left a container open");
        tree.root.expect("an encoder sent no value")
    }

    fn new() -> Self {
        TreeBuilder {
            open: Vec::new(),
            key: None,
            root: None,
        }
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

/// A pull reader over JSON text: the one JSON parser.
///
/// A decoder asks for the tokens it expects, in document order — open
/// an object, a key, a number, … — and the reader checks the syntax as
/// it goes, so a document is decoded straight from its text with no
/// tree between. [`JsonReader::read_into`] replays the next value into
/// any [`JsonSink`]; [`JsonValue::parse`] is that, into a
/// [`TreeBuilder`]. Every error carries the byte offset it occurred at.
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// A value was read at the current level, so the next member or
    /// item is preceded by a comma.
    comma: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            comma: false,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skip whitespace; the next byte.
    fn next_byte(&mut self) -> Option<u8> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.peek()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.next_byte() != Some(b) {
            return Err(self.err(&format!("expected '{}'", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(self.err(&format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// Whether the next value is `null`, read if it is.
    pub fn take_null(&mut self) -> Result<bool, JsonError> {
        let null = self.next_byte() == Some(b'n');
        if null {
            self.literal("null")?;
        }
        Ok(null)
    }

    /// A `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.next_byte() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.err("expected true or false")),
        }
    }

    /// Any number.
    pub fn num(&mut self) -> Result<f64, JsonError> {
        match self.next_byte() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a number")),
        }
    }

    /// A non-negative integer: a run of digits that fits a `u64`, and
    /// nothing else — no sign, fraction or exponent (`100.0`, `1e20`).
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.next_byte();
        let run = self.digits();
        let digits = &self.text[self.pos..self.pos + run];
        if run == 0
            || matches!(
                self.text.as_bytes().get(self.pos + run),
                Some(b'.' | b'e' | b'E')
            )
        {
            return Err(self.err("expected an unsigned integer"));
        }
        let n = digits
            .parse()
            .map_err(|_| self.err("integer does not fit a u64"))?;
        self.pos += run;
        Ok(n)
    }

    /// The length of the run of digits at the reader.
    fn digits(&self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        rest.iter().take_while(|b| b.is_ascii_digit()).count()
    }

    /// A string, borrowed from the text when it holds no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // Runs end at a quote or a backslash: ASCII, so a char
            // boundary. Per-character work here once made parsing
            // quadratic.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            match out {
                Cow::Borrowed(_) => out = Cow::Borrowed(&rest[..run]),
                Cow::Owned(ref mut s) => s.push_str(&rest[..run]),
            }
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    self.escape(out.to_mut())?;
                }
            }
        }
    }

    /// Decode the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                let hex = self.text.get(self.pos + 1..self.pos + 5);
                let hex = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                let hex = hex.ok_or_else(|| self.err("bad \\u escape"))?;
                // Surrogate pairs are not needed for our own output;
                // reject rather than mis-decode.
                let c = char::from_u32(hex);
                let c = c.ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape character")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        self.pos += self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.pos += self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.pos += self.digits();
        }
        let text = &self.text[start..self.pos];
        text.parse().map_err(|_| self.err("invalid number"))
    }

    /// Open an object.
    pub fn begin_obj(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.comma = false;
        Ok(())
    }

    /// The key of the next member of the open object, its colon read;
    /// `None` at the object's end, its `}` read.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        let key = self.key_str()?;
        if key.is_some() {
            self.expect(b':')?;
        }
        Ok(key)
    }

    /// [`JsonReader::key`] up to the key's closing quote.
    fn key_str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.next_byte() {
            Some(b'}') => {
                self.pos += 1;
                self.comma = true;
                return Ok(None);
            }
            Some(b',') if self.comma => self.pos += 1,
            _ if self.comma => return Err(self.err("expected ',' or '}' in object")),
            _ => self.comma = true,
        }
        self.str().map(Some)
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.comma = false;
        Ok(())
    }

    /// Whether the open array has another item; at its end, its `]` is
    /// read.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        let more = match self.next_byte() {
            Some(b']') => false,
            Some(b',') if self.comma => true,
            _ if self.comma => return Err(self.err("expected ',' or ']' in array")),
            _ => {
                self.comma = true;
                return Ok(true);
            }
        };
        self.pos += 1;
        self.comma = true;
        Ok(more)
    }

    /// Replay the next value into `sink`, checking its syntax — and that
    /// no object repeats a key — on the way: the reader's side of
    /// [`JsonValue::encode`].
    pub fn read_into<S: JsonSink>(&mut self, sink: &mut S) -> Result<(), JsonError> {
        match self.next_byte() {
            Some(b'{') => {
                self.begin_obj()?;
                sink.begin_obj();
                let mut seen = BTreeSet::new();
                while let Some(key) = self.key_str()? {
                    if !seen.insert(key.clone()) {
                        return Err(self.err(&format!("duplicate object key {key:?}")));
                    }
                    self.expect(b':')?;
                    sink.key(&key);
                    self.read_into(sink)?;
                }
                sink.end_obj();
            }
            Some(b'[') => {
                self.begin_arr()?;
                sink.begin_arr();
                while self.next_item()? {
                    self.read_into(sink)?;
                }
                sink.end_arr();
            }
            Some(b'"') => sink.str(&self.str()?),
            Some(b'n') => self.literal("null").map(|()| sink.null())?,
            Some(b't' | b'f') => sink.bool(self.bool()?),
            Some(b'-' | b'0'..=b'9') => sink.num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        }
        Ok(())
    }

    /// Read past the next value, checking its syntax, and return its
    /// text.
    pub fn skip(&mut self) -> Result<&'a str, JsonError> {
        self.next_byte();
        let start = self.pos;
        self.read_into(&mut Skip)?;
        Ok(&self.text[start..self.pos])
    }

    /// Require nothing but whitespace after the last value read.
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.next_byte() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after JSON value")),
        }
    }
}

/// The [`JsonSink`] [`JsonReader::skip`] replays into: it keeps nothing.
struct Skip;

impl JsonSink for Skip {
    fn null(&mut self) {}
    fn bool(&mut self, _: bool) {}
    fn num(&mut self, _: f64) {}
    fn str(&mut self, _: &str) {}
    fn begin_arr(&mut self) {}
    fn end_arr(&mut self) {}
    fn begin_obj(&mut self) {}
    fn key(&mut self, _: &str) {}
    fn end_obj(&mut self) {}
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
