//! A minimal JSON document model, one writer and one pull reader.
//!
//! Every document the product writes — snapshots, checkpoints, reports,
//! traces, job bodies, log lines — is one encoder: a sequence of
//! [`JsonWriter`] calls that turn into compact text as they come, into a
//! `String` or, through a fixed buffer, into a file ([`IoText`]). The
//! number, escape and comma rules live in the writer alone, and each
//! encoder is compiled once. [`JsonReader`] is the one parser: decoders
//! pull their tokens from it straight off the text, and a tree
//! ([`JsonValue`]) only ever comes from parsing: [`JsonValue::parse`] of
//! a text, or [`to_tree`] of what an encoder writes. Round-tripping our
//! own output is the contract, not general-purpose JSON compliance,
//! though the reader accepts arbitrary well-formed documents up to a
//! fixed nesting depth.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Write as _};

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
        to_text(|w| self.encode(w))
    }

    /// Write the tree to `w`, in document order.
    pub fn encode(&self, w: &mut JsonWriter<'_>) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Num(n) => w.num(*n),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Arr(items) => w.arr(items, |w, item| item.encode(w)),
            JsonValue::Obj(pairs) => w.obj(|w| {
                for (k, v) in pairs {
                    v.encode(w.field(k));
                }
            }),
        }
    }

    /// Parse a JSON document, requiring it to be a single value with
    /// nothing but whitespace after it, read by [`JsonReader`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut r = JsonReader::new(text);
        let tree = r.read_value(true, 0)?;
        r.end()?;
        Ok(tree)
    }
}

/// The text `encode` writes.
pub fn to_text(encode: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::new();
    encode(&mut JsonWriter::new(&mut out));
    out
}

/// The tree of the document `encode` writes: the parse of its text, so
/// a tree form cannot disagree with the text an encoder writes. Panics
/// if `encode` writes no single well-formed value: the encoder is
/// broken.
pub fn to_tree(encode: impl FnOnce(&mut JsonWriter<'_>)) -> JsonValue {
    let text = to_text(encode);
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("an encoder wrote malformed JSON: {e}"))
}

/// Scalar constructors, for the fields of a log event and for tests.
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

/// Build an object from `(key, value)` pairs: a tree for a test to
/// compare or doctor. Documents are written with [`JsonWriter`].
pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The one JSON writer: appends compact text to its output, one call
/// per token in document order — a value is one of `null` .. `str` or
/// a container, an object member is [`JsonWriter::key`] (or
/// [`JsonWriter::field`]) followed by its value — and puts in the
/// commas and colons itself. The output is a `String` (the caller's, so
/// one buffer can be reused across documents) or an [`IoText`], which
/// writes through a fixed buffer into a file, so a document of any size
/// costs the buffer alone.
pub struct JsonWriter<'a> {
    out: &'a mut dyn fmt::Write,
    /// A value was written at the current level, so the next one is
    /// preceded by a comma.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut dyn fmt::Write) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Whether the next value follows another at its level, so takes a
    /// comma. Each token is written with its comma in as few calls on
    /// the output as it can: every call is a dynamic one.
    fn value(&mut self) -> bool {
        std::mem::replace(&mut self.comma, true)
    }

    /// `null`.
    pub fn null(&mut self) {
        let comma = self.value();
        push(self.out, if comma { ",null" } else { "null" });
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        let comma = self.value();
        let text = match (comma, b) {
            (true, true) => ",true",
            (true, false) => ",false",
            (false, true) => "true",
            (false, false) => "false",
        };
        push(self.out, text);
    }

    /// A number.
    pub fn num(&mut self, n: f64) {
        let comma = self.value();
        write_number(self.out, comma, n);
    }

    /// An integer, as every counter and cycle is written (exact below
    /// 2^53, the `f64` form past it).
    pub fn u64(&mut self, n: u64) {
        self.num(n as f64);
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        let comma = self.value();
        write_escaped(self.out, comma, s, "\"");
    }

    /// `text`, the JSON text of one whole value — as
    /// [`JsonReader::skip`] returns it — written as it stands.
    pub fn raw(&mut self, text: &str) {
        if self.value() {
            push_char(self.out, ',');
        }
        push(self.out, text);
    }

    /// Open an array.
    pub fn begin_arr(&mut self) {
        let comma = self.value();
        push(self.out, if comma { ",[" } else { "[" });
        self.comma = false;
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) {
        push_char(self.out, ']');
        self.comma = true;
    }

    /// Open an object.
    pub fn begin_obj(&mut self) {
        let comma = self.value();
        push(self.out, if comma { ",{" } else { "{" });
        self.comma = false;
    }

    /// The key of the next member of the innermost object.
    pub fn key(&mut self, k: &str) {
        let comma = self.value();
        write_escaped(self.out, comma, k, "\":");
        self.comma = false;
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) {
        push_char(self.out, '}');
        self.comma = true;
    }

    /// [`JsonWriter::key`], returning the writer for the member's value:
    /// `w.field("cycle").u64(cycle)`.
    pub fn field(&mut self, k: &str) -> &mut Self {
        self.key(k);
        self
    }

    /// An object whose members `members` writes.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) {
        self.begin_obj();
        members(self);
        self.end_obj();
    }

    /// An array of `items`' values, written by `each`.
    pub fn arr<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item)) {
        self.begin_arr();
        for item in items {
            each(self, item);
        }
        self.end_arr();
    }
}

/// Append `s` to `out`. Appending to a `String` cannot fail, and an
/// [`IoText`] keeps its own first error.
fn push(out: &mut dyn fmt::Write, s: &str) {
    let _ = out.write_str(s);
}

/// [`push`] for one character.
fn push_char(out: &mut dyn fmt::Write, c: char) {
    let _ = out.write_char(c);
}

/// A [`JsonWriter`]'s output into an `io::Write` (a file), through a
/// buffer of fixed size: the text never exists whole in memory. The
/// first I/O error is kept and everything written after it dropped;
/// [`IoText::finish`] flushes the buffer and reports it.
pub struct IoText<W: io::Write> {
    out: io::BufWriter<W>,
    error: Option<io::Error>,
}

impl<W: io::Write> IoText<W> {
    /// Text for `inner`, buffered in `IoText::BUFFER` bytes.
    pub fn new(inner: W) -> Self {
        IoText {
            out: io::BufWriter::with_capacity(Self::BUFFER, inner),
            error: None,
        }
    }

    /// The size of the buffer the text goes through.
    pub const BUFFER: usize = 8 << 10;

    /// Flush what is buffered and hand back the inner writer, or the
    /// first error met.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)
    }
}

impl<W: io::Write> fmt::Write for IoText<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(s.as_bytes()) {
                self.error = Some(e);
            }
        }
        match self.error {
            None => Ok(()),
            Some(_) => Err(fmt::Error),
        }
    }
}

/// Append the JSON form of `n` to `out`, after a comma when `comma`,
/// as [`JsonWriter`] writes every number: an integral value below 2^53
/// in magnitude as its decimal digits (`-0.0` as `0`), any other finite
/// value in Rust's shortest round-trip form (so `2^53` and past keep the
/// `f64` form `9007199254740992`, `1e21` reads
/// `1000000000000000000000`), and NaN or ±∞ as `null`. The parser reads
/// each back to the value written.
fn write_number(out: &mut dyn fmt::Write, comma: bool, n: f64) {
    let sep = if comma { "," } else { "" };
    if !n.is_finite() {
        // JSON has no NaN/Inf; exporters only feed finite values, but
        // degrade to null rather than emitting an unparsable token.
        push(out, if comma { ",null" } else { "null" });
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        // What `write!(out, "{}", n as i64)` writes, without the
        // formatter: the digits, least significant first, into a
        // buffer read back front to back, then the sign and the comma
        // before them, so the token is one call on the output.
        let mut digits = [0u8; 22];
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
        for (byte, put) in [(b'-', n < 0.0), (b',', comma)] {
            if put {
                at -= 1;
                digits[at] = byte;
            }
        }
        push(
            out,
            std::str::from_utf8(&digits[at..]).expect("ASCII digits"),
        );
    } else {
        let _ = write!(out, "{sep}{n}");
    }
}

/// Append `s` to `out` as a JSON string literal, after a comma when
/// `comma` and followed by `close` (its closing quote, and the colon of
/// a key), as [`JsonWriter`] writes every string and key: quoted, with
/// `"` and `\` escaped, `\n`, `\r` and `\t` by name and every other
/// byte below 0x20 as `\u00XX`. The runs between escapes are copied
/// whole, so a string that needs none is three calls on the output.
fn write_escaped(out: &mut dyn fmt::Write, comma: bool, s: &str, close: &str) {
    push(out, if comma { ",\"" } else { "\"" });
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
        push(out, &s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            push(out, escape);
        }
        run = at + 1;
    }
    push(out, &s[run..]);
    push(out, close);
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
/// tree between. [`JsonValue::parse`] replays the text into a tree, and
/// [`JsonReader::skip`] reads past a value. Containers nest at most
/// `MAX_DEPTH` deep below the value read, so no input can exhaust the
/// stack. Every error carries the byte offset it occurred at. A clone
/// reads on from the same place, independently: a look ahead.
#[derive(Clone)]
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

    /// Read the next value, `depth` containers deep, checking its syntax
    /// — that no object repeats a key, and that no container opens past
    /// `MAX_DEPTH` — on the way. Returns its tree when `build`, and
    /// keeps nothing (returns `null` or an empty container) otherwise.
    fn read_value(&mut self, build: bool, depth: usize) -> Result<JsonValue, JsonError> {
        let open = matches!(self.next_byte(), Some(b'{' | b'['));
        if open && depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(match self.next_byte() {
            Some(b'{') => {
                self.begin_obj()?;
                let (mut pairs, mut seen) = (Vec::new(), SeenKeys::default());
                while let Some(key) = self.key_str()? {
                    if !seen.insert(key.clone()) {
                        return Err(self.err(&format!("duplicate object key {key:?}")));
                    }
                    self.expect(b':')?;
                    let v = self.read_value(build, depth + 1)?;
                    if build {
                        pairs.push((key.into_owned(), v));
                    }
                }
                JsonValue::Obj(pairs)
            }
            Some(b'[') => {
                self.begin_arr()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    let v = self.read_value(build, depth + 1)?;
                    if build {
                        items.push(v);
                    }
                }
                JsonValue::Arr(items)
            }
            Some(b'"') => match self.str()? {
                s if build => JsonValue::Str(s.into_owned()),
                _ => JsonValue::Null,
            },
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null)?,
            Some(b't' | b'f') => JsonValue::Bool(self.bool()?),
            Some(b'-' | b'0'..=b'9') => JsonValue::Num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        })
    }

    /// Read past the next value, checking its syntax, and return its
    /// text.
    pub fn skip(&mut self) -> Result<&'a str, JsonError> {
        self.next_byte();
        let start = self.pos;
        self.read_value(false, 0)?;
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

/// The deepest a value read by [`JsonValue::parse`] or
/// [`JsonReader::skip`] may nest: well past the deepest document the
/// product writes (a checkpoint nests 11 deep), and shallow enough that
/// the reader's recursion fits any thread's stack.
const MAX_DEPTH: usize = 128;

/// The keys of the object [`JsonReader::read_value`] is reading, for
/// its duplicate check: the first `INLINE_KEYS` in place, so an object
/// that narrow — every object a snapshot writes — is checked without
/// the heap; a wider one moves them all into a set.
#[derive(Default)]
struct SeenKeys<'a> {
    inline: [Cow<'a, str>; INLINE_KEYS],
    len: usize,
    wide: BTreeSet<Cow<'a, str>>,
}

/// The keys [`SeenKeys`] holds in place.
const INLINE_KEYS: usize = 16;

impl<'a> SeenKeys<'a> {
    /// Whether `key` is new, noting it.
    fn insert(&mut self, key: Cow<'a, str>) -> bool {
        if self.len < INLINE_KEYS {
            if self.inline[..self.len].contains(&key) {
                return false;
            }
            self.inline[self.len] = key;
        } else {
            if self.len == INLINE_KEYS {
                self.wide.extend(self.inline.iter_mut().map(std::mem::take));
            }
            if !self.wide.insert(key) {
                return false;
            }
        }
        self.len += 1;
        true
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
            write_number(&mut out, false, n);
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
            write_escaped(&mut out, false, s, "\"");
            assert_eq!(out, format!("x{}", escaped_reference(s)), "{s:?}");
            assert_eq!(JsonValue::parse(&out[1..]).unwrap().as_str(), Some(s));
        }
    }

    /// A repeated key is refused in an object of any width, in place
    /// or past it, and a wide object without one reads back whole.
    #[test]
    fn duplicate_keys_are_refused_at_every_width() {
        for width in [
            1,
            2,
            INLINE_KEYS - 1,
            INLINE_KEYS,
            INLINE_KEYS + 1,
            3 * INLINE_KEYS,
        ] {
            let keys: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
            let doc = JsonValue::Obj(keys.iter().map(|k| (k.clone(), 1u64.into())).collect());
            let text = doc.render();
            assert_eq!(JsonValue::parse(&text).unwrap(), doc, "width {width}");
            for repeated in [0, width / 2, width - 1] {
                let dup = format!("{},\"{}\":2}}", &text[..text.len() - 1], keys[repeated]);
                let err = JsonValue::parse(&dup).unwrap_err();
                let expected = format!("duplicate object key {:?}", keys[repeated]);
                assert_eq!(err.message, expected, "width {width}");
            }
        }
        // An escaped spelling is the same key.
        assert!(JsonValue::parse("{\"a\":1,\"\\u0061\":2}").is_err());
    }

    /// Nesting is bounded: a million open containers are a typed error,
    /// not a stack overflow, for the parser and for `skip` alike, and
    /// the deepest value allowed still reads.
    #[test]
    fn nesting_past_the_bound_is_an_error() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(1_000_000);
            let err = JsonValue::parse(&deep).unwrap_err();
            assert_eq!(
                err.message,
                format!("nested deeper than {MAX_DEPTH} levels")
            );
            assert!(JsonReader::new(&deep).skip().is_err());
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonReader::new(&nested(MAX_DEPTH)).skip().is_ok());
        assert!(JsonValue::parse(&nested(MAX_DEPTH + 1)).is_err());
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
