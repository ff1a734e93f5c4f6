//! Minimal JSON: a value model, a strict parser, a compact writer, and the
//! [`ToJson`]/[`FromJson`] conversion traits the snapshot interchange uses.
//!
//! Scope is deliberately small — exactly what the INSTA initialization
//! snapshots need:
//!
//! * numbers are `f64` (every integer in a snapshot fits in 53 bits),
//! * non-finite floats round-trip as the strings `"inf"`, `"-inf"`,
//!   `"nan"` (plain JSON has no spelling for them),
//! * objects preserve insertion order,
//! * the parser rejects trailing garbage and reports line/column positions.
//!
//! # Numbers
//!
//! The parser takes exactly RFC 8259's number grammar,
//! `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, and refuses
//! with a positioned [`JsonError`] what it does not spell: `01`, `00.5`,
//! `1.`, `1.e5`, `-.5`. A [`Json::Num`] is always finite: a literal whose
//! value overflows `f64` (`1e400`) is an error, not `inf` — which the
//! writer would send back as the string `"inf"`. (Underflow rounds to a
//! finite value, as the RFC allows.) Nothing [`write_f64`] produces is
//! refused: Rust's `{:?}` spells every finite `f64` inside the grammar.
//!
//! A literal is scanned once. Each digit run is found eight bytes at a
//! time, with a branch-free test on a `u64` word (one byte at a time in the
//! last seven bytes of the input), and the literal is a slice of the source
//! `&str` handed to `str::parse::<f64>`, so a value's bits are exactly that
//! conversion's. A daemon reply carrying hundreds of slacks spends most of
//! its decode on its numbers.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

/// Error produced by the parser or by [`FromJson`] decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// 1-based line of the error (0 when the error is structural, i.e.
    /// raised during decoding rather than parsing).
    pub line: usize,
    /// 1-based column of the error (0 for structural errors).
    pub col: usize,
    /// Byte offset of the error in the source text (0 for structural
    /// errors, which have no source position).
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl JsonError {
    /// A structural (decode-time) error with no source position.
    pub fn decode(msg: impl Into<String>) -> Self {
        Self {
            line: 0,
            col: 0,
            offset: 0,
            msg: msg.into(),
        }
    }

    /// Whether the error carries a source position (parse errors do;
    /// decode errors are positionless).
    pub fn has_position(&self) -> bool {
        self.line > 0
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "line {}, col {} (byte {}): {}",
                self.line, self.col, self.offset, self.msg
            )
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---- Typed accessors (decode helpers) -------------------------------

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            v => Err(JsonError::decode(format!("expected bool, got {}", v.kind()))),
        }
    }

    /// The value as an `f64`. Accepts the non-finite string spellings
    /// `"inf"`, `"-inf"`, `"nan"`.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::Str(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err(JsonError::decode(format!("expected number, got string {s:?}"))),
            },
            v => Err(JsonError::decode(format!(
                "expected number, got {}",
                v.kind()
            ))),
        }
    }

    /// The value as a `u64` (must be a non-negative integer).
    ///
    /// # Errors
    ///
    /// Returns a decode error on non-numbers, negatives, and non-integers.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(JsonError::decode(format!(
                "expected non-negative integer, got {n}"
            )))
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            v => Err(JsonError::decode(format!(
                "expected string, got {}",
                v.kind()
            ))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(a) => Ok(a),
            v => Err(JsonError::decode(format!(
                "expected array, got {}",
                v.kind()
            ))),
        }
    }

    /// The value as object pairs.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(o) => Ok(o),
            v => Err(JsonError::decode(format!(
                "expected object, got {}",
                v.kind()
            ))),
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the value is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::decode(format!("missing field `{key}`")))
    }

    /// Decodes a required object field into `T`, prefixing errors with the
    /// field name.
    ///
    /// # Errors
    ///
    /// Propagates lookup and decode failures.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.field(key)?).map_err(|e| JsonError {
            msg: format!("field `{key}`: {}", e.msg),
            ..e
        })
    }

    /// Decodes an optional object field into `T`: `None` when `key` is
    /// absent, else the decoded value, errors prefixed `key: `.
    ///
    /// # Errors
    ///
    /// The value is not an object, or `key`'s value does not decode.
    pub fn get_opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.as_obj()?.iter().find(|(k, _)| k == key) {
            Some((_, v)) => T::from_json(v).map(Some),
            None => Ok(None),
        }
        .map_err(|e| JsonError::decode(format!("{key}: {}", e.msg)))
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    // ---- Writer ---------------------------------------------------------

    /// Appends the compact serialization to `out` — what `to_string()`
    /// returns, without the formatter's intermediate copies.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact JSON serialization (`value.to_string()` round-trips through
/// [`parse`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// Writes a float with round-trip precision; non-finite values fall back to
/// their string spellings (read back by [`Json::as_f64`]). The one number
/// format of the tree: [`Json::write_to`] calls it for every `Num`, and a
/// writer that skips the tree calls it directly, so both spell a value —
/// an integer carried as `f64` included (`3.0`) — with the same bytes.
pub fn write_f64(n: f64, out: &mut String) {
    if n.is_finite() {
        // `{:?}` is Rust's shortest round-trip representation.
        let _ = write!(out, "{n:?}");
    } else if n.is_nan() {
        out.push_str("\"nan\"");
    } else if n > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn write_str(s: &str, out: &mut String) {
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

// ---- Parser -------------------------------------------------------------

/// Parses a complete JSON document (rejects trailing non-whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] with line/column on malformed input.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Maximum nesting depth the parser accepts (stack-overflow guard).
const MAX_DEPTH: usize = 128;

/// Marks the bytes of `word` that are not ASCII digits: the high bit of
/// each such byte is set, every other bit is clear, so on a word loaded
/// little-endian `trailing_zeros() / 8` is the length of its leading digit
/// run (8 when all are digits). A byte is a digit iff `x = b ^ b'0'` is
/// below 10: adding 0x76 to the low seven bits of `x` sets bit 7 iff they
/// are 10 or more, and never carries into the next byte; `| x` marks an
/// `x` whose own bit 7 is set.
fn non_digits(word: u64) -> u64 {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let x = word ^ (LANES * u64::from(b'0'));
    (((x & (LANES * 0x7F)) + LANES * 0x76) | x) & (LANES * 0x80)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    #[cold]
    #[inline(never)]
    fn err(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            offset: self.pos.min(self.bytes.len()),
            msg: msg.into(),
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
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("`{}`", c as char),
                    None => "end of input".into(),
                }
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!(
                "expected a JSON value (object, array, string, number, \
                 `true`, `false`, or `null`), found `{}`",
                c as char
            ))),
            None => Err(self.err("expected a JSON value, found end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    /// Advances past a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(word) = self.bytes[self.pos..].first_chunk::<8>() {
            let run = (non_digits(u64::from_le_bytes(*word)).trailing_zeros() / 8) as usize;
            self.pos += run;
            if run < 8 {
                return self.pos - start;
            }
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One RFC 8259 number literal (module docs, "Numbers").
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        match self.digits() {
            0 => return Err(self.err("expected a digit")),
            1 => {}
            _ if self.bytes[int] == b'0' => {
                self.pos = int + 1;
                return Err(self.err("leading zero in a number"));
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        // Every byte from `start` on is ASCII, so both ends are char
        // boundaries; `get` keeps even a broken invariant a typed error.
        let text = self.src.get(start..self.pos).unwrap_or_default();
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            parsed => {
                self.pos = start;
                Err(self.err(match parsed {
                    Ok(_) => format!("number `{text}` is out of range for f64"),
                    Err(_) => format!("invalid number `{text}`"),
                }))
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: read the low half if needed.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str and the
                    // cursor only ever advances by whole scalars, so `pos`
                    // is always a char boundary; slicing + `chars().next()`
                    // decodes one scalar in O(1) (re-validating the whole
                    // remainder here would make parsing quadratic).
                    let Some(ch) = self.src.get(self.pos..).and_then(|s| s.chars().next())
                    else {
                        return Err(self.err("string cursor left a char boundary"));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

// ---- Conversion traits ---------------------------------------------------

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes a value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self)
        } else if self.is_nan() {
            Json::Str("nan".into())
        } else if *self > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_u64()?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::decode(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_json_uint!(u32, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?
            .iter()
            .enumerate()
            .map(|(i, x)| {
                T::from_json(x).map_err(|e| JsonError {
                    msg: format!("index {i}: {}", e.msg),
                    ..e
                })
            })
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let arr = v.as_arr()?;
        if arr.len() != N {
            return Err(JsonError::decode(format!(
                "expected array of length {N}, got {}",
                arr.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(arr) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

/// Builds an object from `(&str, Json)` pairs — the encoder-side analogue
/// of [`Json::get`].
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in [
            Json::Null,
            Json::Bool(true),
            Json::Num(0.0),
            Json::Num(-12.5),
            Json::Num(1e300),
            Json::Str("a \"quoted\" \\ line\nbreak".into()),
        ] {
            let text = src.to_string();
            assert_eq!(parse(&text).expect(&text), src);
        }
    }

    #[test]
    fn round_trips_shortest_float_repr() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 6.02e23, -0.0] {
            let text = Json::Num(x).to_string();
            let Json::Num(back) = parse(&text).expect("parse") else {
                panic!("not a number")
            };
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip_via_strings() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let v = x.to_json();
            let text = v.to_string();
            let back = f64::from_json(&parse(&text).expect("parse")).expect("decode");
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn write_f64_is_the_trees_number_format() {
        let xs = [0.0, -0.0, 3.0, 0.1, -12.5, 1e300, 9007199254740993.0];
        for x in xs.into_iter().chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]) {
            let mut direct = String::from("x=");
            write_f64(x, &mut direct);
            assert_eq!(direct, format!("x={}", x.to_json()));
            let mut appended = String::from("x=");
            x.to_json().write_to(&mut appended);
            assert_eq!(appended, direct);
        }
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = obj([
            ("xs", vec![1.0_f64, 2.5, -3.0].to_json()),
            ("name", Json::Str("block-1".into())),
            ("flags", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("inner", obj([("k", 7_u32.to_json())])),
        ]);
        assert_eq!(parse(&v.to_string()).expect("parse"), v);
    }

    #[test]
    fn parser_reports_positions() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("true"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1 2]",
            "\"unterminated",
            "01x",
            "nul",
            "{} trailing",
            "[\"\\u12\"]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Where the parser refuses `src` (byte offset), with what message.
    fn refusal(src: &str) -> (usize, String) {
        let err = parse(src).expect_err(src);
        assert!(err.has_position(), "{src:?}: {err}");
        (err.offset, err.msg)
    }

    #[test]
    fn rejects_a_leading_zero() {
        assert_eq!(refusal("01").0, 1);
        assert_eq!(refusal("[-01]").0, 3);
    }

    #[test]
    fn rejects_a_leading_zero_before_a_fraction() {
        assert_eq!(refusal("00.5").0, 1);
    }

    #[test]
    fn rejects_a_fraction_without_digits() {
        assert_eq!(refusal("1.").0, 2);
        assert_eq!(refusal("[1.,2]").0, 3);
    }

    #[test]
    fn rejects_an_exponent_after_an_empty_fraction() {
        assert_eq!(refusal("1.e5").0, 2);
    }

    #[test]
    fn rejects_a_minus_without_an_integer_part() {
        assert_eq!(refusal("-.5").0, 1);
        assert_eq!(refusal("-").0, 1);
    }

    #[test]
    fn rejects_a_number_that_overflows_f64() {
        let (offset, msg) = refusal("{\"x\": -1e400}");
        assert_eq!(offset, 6);
        assert!(msg.contains("out of range"), "{msg}");
        assert_eq!(refusal("1e400").0, 0);
        // Past f64::MAX by its mantissa, not only by its exponent.
        assert_eq!(refusal("1.8e308").0, 0);
        assert!(parse("1.7976931348623157e308").is_ok());
    }

    #[test]
    fn accepts_the_whole_number_grammar() {
        for (src, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.0e-0", -0.0),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("1e-400", 0.0),
            ("12345678.87654321", 12345678.87654321),
            ("-123456789012345678901234567890", -1.2345678901234568e29),
            ("2.2250738585072014E-308", f64::MIN_POSITIVE),
            ("5e-324", 5e-324),
        ] {
            let Json::Num(x) = parse(src).expect(src) else {
                panic!("{src} is not a number")
            };
            assert_eq!(x.to_bits(), want.to_bits(), "{src}");
        }
    }

    #[test]
    fn digit_runs_end_where_the_first_non_digit_is() {
        let all = u64::from_le_bytes(*b"01234567");
        assert_eq!(non_digits(all), 0);
        for (i, stop) in [b'/', b':', b'.', b'e', b' ', 0x80, 0xB0, 0xFF, 0].iter().enumerate() {
            let mut word = *b"98765432";
            word[i % 8] = *stop;
            let mask = non_digits(u64::from_le_bytes(word));
            assert_eq!(mask.trailing_zeros() / 8, (i % 8) as u32, "{word:?}");
            assert_eq!(mask.count_ones(), 1, "{word:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude00""#).expect("parse"),
            Json::Str("Aé😀".into())
        );
    }

    #[test]
    fn uint_decoding_validates() {
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert!(u32::from_json(&Json::Num(0.5)).is_err());
        assert!(u32::from_json(&Json::Num(5e9)).is_err());
        assert_eq!(u32::from_json(&Json::Num(7.0)).unwrap(), 7);
    }

    #[test]
    fn field_errors_name_the_field() {
        let v = obj([("a", Json::Num(1.0))]);
        let err = v.get::<String>("a").unwrap_err();
        assert!(err.msg.contains("`a`"), "{err}");
        let err = v.get::<f64>("missing").unwrap_err();
        assert!(err.msg.contains("missing"), "{err}");
    }

    #[test]
    fn optional_fields_are_absent_or_decoded_and_named() {
        let v = obj([("a", Json::Num(1.0)), ("b", Json::Null)]);
        assert_eq!(v.get_opt::<f64>("a").unwrap(), Some(1.0));
        assert_eq!(v.get_opt::<f64>("missing").unwrap(), None);
        let err = v.get_opt::<u64>("b").unwrap_err();
        assert_eq!(err.msg, "b: expected number, got null");
        assert!(Json::Num(1.0).get_opt::<f64>("a").is_err(), "not an object");
    }
}
