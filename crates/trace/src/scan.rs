//! The borrowed line scanner and field cursor behind
//! [`crate::schema::parse_line`] and [`crate::schema::parse_rollup`].
//!
//! One pass over a document's bytes validates it as JSON, nested values
//! in unknown members included, and records each top-level member of an
//! object as its key slice plus a raw [`Token`] into a caller-owned
//! [`ScanBuf`] that [`crate::Trace::parse`] reuses from line to line.
//! [`Fields`] then takes members by key and converts their values
//! straight from the slices. A line allocates nothing but the strings
//! and arrays its event keeps, plus an owned copy of any string that
//! holds an escape.
//!
//! The grammar is exactly the vendored `serde_json` parser's, so the two
//! accept the same documents, including its departures from RFC 8259:
//! a number is an optional `-` then any run of `[0-9.eE+-]` that Rust's
//! integer or float parser reads (`007`, `-0` and `1.` are numbers); raw
//! control characters may appear in strings; `\u` takes the next four
//! bytes through `u32::from_str_radix` and must name a scalar value, so
//! surrogate escapes are errors. Only the wording of syntax errors
//! differs.

use crate::schema::{err, ParseError};
use std::borrow::Cow;

/// A value, as the scanner saw it.
#[derive(Clone, Copy, Debug)]
enum Token<'a> {
    Null,
    Bool(bool),
    /// An integer-shaped number, `-?[0-9]+`, as written.
    Int(&'a str),
    /// A string body (between the quotes) and whether it holds an escape.
    Str(&'a str, bool),
    Array,
    /// An object, or a number that is not integer-shaped (`1.0`, `1e3`):
    /// no reader converts either.
    Other,
}

/// One top-level member of the scanned object.
#[derive(Clone, Copy, Debug)]
struct Member<'a> {
    /// The key's body, between the quotes, as written.
    key: &'a str,
    /// The key holds an escape (compare it unescaped).
    key_escaped: bool,
    value: Token<'a>,
    /// The value's whole text (a string with its quotes).
    raw: &'a str,
}

impl Member<'_> {
    #[inline(always)]
    fn key_is(&self, key: &str) -> bool {
        if self.key_escaped {
            unescape(self.key).is_ok_and(|k| k == key)
        } else {
            self.key == key
        }
    }
}

/// The value of an integer token as `u64`: digits with overflow checks;
/// a negative token only when it is zero, as the vendored parser reads
/// `-0` as the signed integer 0.
fn int_u64(text: &str) -> Option<u64> {
    if let Some(digits) = text.strip_prefix('-') {
        return digits.bytes().all(|b| b == b'0').then_some(0);
    }
    let mut v: u64 = 0;
    for b in text.bytes() {
        v = v
            .checked_mul(10)?
            .checked_add(u64::from(b.wrapping_sub(b'0')))?;
    }
    Some(v)
}

/// The value of an integer token as `i64`, when it fits.
fn int_i64(text: &str) -> Option<i64> {
    if text.starts_with('-') {
        text.parse().ok()
    } else {
        int_u64(text).and_then(|v| i64::try_from(v).ok())
    }
}

/// A string body as text: borrowed as written, or unescaped into an
/// owned `String` when it holds an escape.
fn str_of(body: &str, escaped: bool) -> Result<Cow<'_, str>, ParseError> {
    if escaped {
        unescape(body).map(Cow::Owned)
    } else {
        Ok(Cow::Borrowed(body))
    }
}

/// Unescapes a string body. The escapes are the vendored parser's: `\u`
/// reads the next four bytes through `u32::from_str_radix` and must name
/// a scalar value.
fn unescape(body: &str) -> Result<String, ParseError> {
    let bad = || err("JSON error: invalid escape");
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(i) = rest.find('\\') {
        out.push_str(rest.get(..i).ok_or_else(bad)?);
        let esc = rest.get(i + 1..).ok_or_else(bad)?;
        let (c, len) = match esc.as_bytes().first() {
            Some(b'"') => ('"', 1),
            Some(b'\\') => ('\\', 1),
            Some(b'/') => ('/', 1),
            Some(b'n') => ('\n', 1),
            Some(b'r') => ('\r', 1),
            Some(b't') => ('\t', 1),
            Some(b'b') => ('\u{8}', 1),
            Some(b'f') => ('\u{c}', 1),
            Some(b'u') => {
                let code = esc
                    .get(1..5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                (code.and_then(char::from_u32).ok_or_else(bad)?, 5)
            }
            _ => return Err(bad()),
        };
        out.push(c);
        rest = esc.get(len..).ok_or_else(bad)?;
    }
    out.push_str(rest);
    Ok(out)
}

/// A JSON syntax error at byte offset `at`. Errors take the offset by
/// value so that no scanner escapes into a call and its cursor can stay
/// in a register.
#[cold]
fn syntax(at: usize, what: &str) -> ParseError {
    err(format!("JSON error: {what} at offset {at}"))
}

/// A JSON syntax error: the byte `b` was expected at offset `at`.
#[cold]
fn expected(at: usize, b: u8) -> ParseError {
    syntax(at, &format!("expected '{}'", char::from(b)))
}

/// The reusable buffers of one scan: the top-level members and the
/// open-container stack used to skip nested values without recursion.
#[derive(Debug, Default)]
pub(crate) struct ScanBuf<'a> {
    members: Vec<Member<'a>>,
    stack: Vec<u8>,
}

/// A cursor over the input bytes. The scanning methods are inlined into
/// their caller so the cursor lives in registers; the one call that is
/// not, [`Scanner::nested`], takes a copy.
#[derive(Clone, Copy)]
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(expected(self.pos, b))
        }
    }

    /// The text from `start` to the cursor.
    #[inline(always)]
    fn since(&self, start: usize) -> Result<&'a str, ParseError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| syntax(start, "split character"))
    }

    /// A string at the cursor: its body and whether it holds an escape.
    /// A body with escapes is checked by unescaping it.
    #[inline(always)]
    fn scan_string(&mut self) -> Result<(&'a str, bool), ParseError> {
        self.consume(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    let body = self.since(start)?;
                    self.pos += 1;
                    if escaped {
                        unescape(body)?;
                    }
                    return Ok((body, escaped));
                }
                // An escaped quote or backslash never ends the string;
                // `unescape` checks the escape itself.
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 2;
                }
                Some(_) => self.pos += 1,
                None => return Err(syntax(self.pos, "unterminated string")),
            }
        }
    }

    /// A number at the cursor (which is at `-` or a digit).
    #[inline(always)]
    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.since(start)?;
        if float {
            text.parse::<f64>()
                .map(|_| Token::Other)
                .map_err(|_| syntax(start, "invalid number"))
        } else if text == "-" {
            Err(syntax(self.pos, "invalid number"))
        } else {
            Ok(Token::Int(text))
        }
    }

    #[inline(always)]
    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
        {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(syntax(self.pos, "unexpected literal"))
        }
    }

    /// A string, number or literal at the cursor.
    #[inline(always)]
    fn scalar(&mut self) -> Result<Token<'a>, ParseError> {
        match self.peek() {
            Some(b'"') => {
                let (body, escaped) = self.scan_string()?;
                Ok(Token::Str(body, escaped))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(_) => Err(syntax(self.pos, "unexpected character")),
            None => Err(syntax(self.pos, "unexpected end of input")),
        }
    }

    /// An object member's key and colon, up to its value.
    #[inline(always)]
    fn member_key(&mut self) -> Result<(&'a str, bool), ParseError> {
        self.skip_ws();
        let key = self.scan_string()?;
        self.skip_ws();
        self.consume(b':')?;
        Ok(key)
    }

    /// Skips the array or object at the cursor, validating every value
    /// in it, and returns the offset just past it. `stack` holds the
    /// closing byte of each open container, so any nesting depth is
    /// walked without recursion.
    fn nested(mut self, stack: &mut Vec<u8>) -> Result<usize, ParseError> {
        stack.clear();
        loop {
            // At a value.
            self.skip_ws();
            match self.peek() {
                Some(open @ (b'[' | b'{')) => {
                    self.pos += 1;
                    let close = if open == b'[' { b']' } else { b'}' };
                    self.skip_ws();
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        stack.push(close);
                        if close == b'}' {
                            self.member_key()?;
                        }
                        continue;
                    }
                }
                _ => {
                    self.scalar()?;
                }
            }
            // After a value: close what is complete, or go on to the
            // next value of the innermost open container.
            loop {
                let Some(&close) = stack.last() else {
                    return Ok(self.pos);
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if close == b'}' {
                            self.member_key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        stack.pop();
                    }
                    _ => {
                        return Err(syntax(
                            self.pos,
                            &format!("expected ',' or '{}'", char::from(close)),
                        ))
                    }
                }
            }
        }
    }

    /// Any value at the cursor: its token and its whole text.
    #[inline(always)]
    fn value(&mut self, stack: &mut Vec<u8>) -> Result<(Token<'a>, &'a str), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let token = match self.peek() {
            Some(b'[') => {
                self.pos = self.nested(stack)?;
                Token::Array
            }
            Some(b'{') => {
                self.pos = self.nested(stack)?;
                Token::Other
            }
            _ => self.scalar()?,
        };
        Ok((token, self.since(start)?))
    }
}

/// Walks the elements of an array the scanner has validated, as far as
/// the caller reads: the typed readers stop at the first element that is
/// neither an integer nor `null`, which they reject.
struct Elements<'a> {
    sc: Scanner<'a>,
    started: bool,
}

impl<'a> Elements<'a> {
    fn of(raw: &'a str) -> Self {
        Elements {
            sc: Scanner { text: raw, pos: 0 },
            started: false,
        }
    }

    fn next_elem(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let sc = &mut self.sc;
        if self.started {
            // Validated: the next byte is `,` or the closing `]`.
            sc.skip_ws();
            if sc.peek() != Some(b',') {
                return Ok(None);
            }
            sc.pos += 1;
        } else {
            self.started = true;
            sc.consume(b'[')?;
            sc.skip_ws();
            if sc.peek() == Some(b']') {
                return Ok(None);
            }
        }
        sc.skip_ws();
        Ok(Some(match sc.peek() {
            Some(b'-' | b'0'..=b'9') => sc.number()?,
            Some(b'n') => sc.literal("null", Token::Null)?,
            _ => Token::Other,
        }))
    }
}

/// Field cursor over one scanned object that *consumes* keys, so
/// leftovers (unknown fields) can be rejected by [`Fields::end`].
///
/// `take` finds a key's first member. Members are marked used in a
/// 64-bit mask; members past the 64th are never marked, which is exact
/// because no reader takes more than 13 keys or any key twice: on a
/// line of more than 64 members the first unmarked one, which
/// [`Fields::end`] reports, is always among the first 64.
pub(crate) struct Fields<'s, 'a> {
    members: &'s [Member<'a>],
    used: u64,
}

impl<'s, 'a> Fields<'s, 'a> {
    /// Scans `text` as one JSON document, which must be an object,
    /// recording its members in `buf`.
    pub(crate) fn scan(text: &'a str, buf: &'s mut ScanBuf<'a>) -> Result<Self, ParseError> {
        buf.members.clear();
        let mut sc = Scanner { text, pos: 0 };
        sc.skip_ws();
        let object = sc.peek() == Some(b'{');
        if object {
            sc.pos += 1;
            sc.skip_ws();
            if sc.peek() == Some(b'}') {
                sc.pos += 1;
            } else {
                loop {
                    let (key, key_escaped) = sc.member_key()?;
                    let (value, raw) = sc.value(&mut buf.stack)?;
                    buf.members.push(Member {
                        key,
                        key_escaped,
                        value,
                        raw,
                    });
                    sc.skip_ws();
                    match sc.peek() {
                        Some(b',') => sc.pos += 1,
                        Some(b'}') => {
                            sc.pos += 1;
                            break;
                        }
                        _ => return Err(syntax(sc.pos, "expected ',' or '}'")),
                    }
                }
            }
        } else {
            sc.value(&mut buf.stack)?;
        }
        sc.skip_ws();
        if sc.pos != text.len() {
            return Err(syntax(sc.pos, "trailing characters"));
        }
        if !object {
            return Err(err("not a JSON object"));
        }
        Ok(Fields {
            members: &buf.members,
            used: 0,
        })
    }

    /// The first member named `key`, marked used.
    #[inline(always)]
    fn take(&mut self, key: &str) -> Result<&'s Member<'a>, ParseError> {
        for (i, m) in self.members.iter().enumerate() {
            if m.key_is(key) {
                let bit = u32::try_from(i)
                    .ok()
                    .and_then(|i| 1u64.checked_shl(i))
                    .unwrap_or(0);
                if self.used & bit != 0 {
                    return Err(err(format!("duplicate field '{key}'")));
                }
                self.used |= bit;
                return Ok(m);
            }
        }
        Err(err(format!("missing field '{key}'")))
    }

    pub(crate) fn u64(&mut self, key: &str) -> Result<u64, ParseError> {
        match self.take(key)?.value {
            Token::Int(text) => int_u64(text),
            _ => None,
        }
        .ok_or_else(|| err(format!("field '{key}' is not an unsigned integer")))
    }

    pub(crate) fn u32(&mut self, key: &str) -> Result<u32, ParseError> {
        u32::try_from(self.u64(key)?).map_err(|_| err(format!("field '{key}' overflows u32")))
    }

    pub(crate) fn i64(&mut self, key: &str) -> Result<i64, ParseError> {
        match self.take(key)?.value {
            Token::Int(text) => int_i64(text),
            _ => None,
        }
        .ok_or_else(|| err(format!("field '{key}' is not an integer")))
    }

    /// A string field: borrowed from the line, or owned when it holds
    /// an escape.
    pub(crate) fn str(&mut self, key: &str) -> Result<Cow<'a, str>, ParseError> {
        match self.take(key)?.value {
            Token::Str(body, escaped) => str_of(body, escaped),
            _ => Err(err(format!("field '{key}' is not a string"))),
        }
    }

    pub(crate) fn bool(&mut self, key: &str) -> Result<bool, ParseError> {
        match self.take(key)?.value {
            Token::Bool(b) => Ok(b),
            _ => Err(err(format!("field '{key}' is not a boolean"))),
        }
    }

    /// A field's whole value text, unconverted.
    pub(crate) fn raw(&mut self, key: &str) -> Result<&'a str, ParseError> {
        Ok(self.take(key)?.raw)
    }

    /// The elements of an array field.
    fn elements(&mut self, key: &str) -> Result<Elements<'a>, ParseError> {
        let m = self.take(key)?;
        match m.value {
            Token::Array => Ok(Elements::of(m.raw)),
            _ => Err(err(format!("field '{key}' is not an array"))),
        }
    }

    pub(crate) fn u32_array(&mut self, key: &str) -> Result<Vec<u32>, ParseError> {
        let bad = || err(format!("field '{key}' has a non-u32 element"));
        let mut items = self.elements(key)?;
        let mut out = Vec::new();
        while let Some(item) = items.next_elem()? {
            let Token::Int(text) = item else {
                return Err(bad());
            };
            out.push(
                int_u64(text)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(bad)?,
            );
        }
        Ok(out)
    }

    pub(crate) fn opt_u64_array(&mut self, key: &str) -> Result<Vec<Option<u64>>, ParseError> {
        let bad = || err(format!("field '{key}' has a non-u64 element"));
        let mut items = self.elements(key)?;
        let mut out = Vec::new();
        while let Some(item) = items.next_elem()? {
            out.push(match item {
                Token::Null => None,
                Token::Int(text) => Some(int_u64(text).ok_or_else(bad)?),
                _ => return Err(bad()),
            });
        }
        Ok(out)
    }

    /// Rejects any member never taken (schema strictness).
    pub(crate) fn end(self) -> Result<(), ParseError> {
        let first_unused = (!self.used).trailing_zeros() as usize;
        match self.members.get(first_unused) {
            Some(m) => Err(err(format!(
                "unknown field '{}'",
                str_of(m.key, m.key_escaped)?
            ))),
            None => Ok(()),
        }
    }
}
