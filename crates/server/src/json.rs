//! Minimal JSON encode/decode, vendored in the same spirit as `compat/`:
//! the build environment has no registry access, so the serving protocol
//! hand-rolls the ~300 lines of JSON it needs instead of depending on
//! serde.
//!
//! Scope: the full JSON value grammar (objects, arrays, strings with
//! escapes incl. surrogate pairs, numbers, booleans, null) with a nesting
//! depth limit, since the parser faces network input. Output is compact
//! (no whitespace); numbers print through Rust's shortest-roundtrip float
//! formatting, so every `f32` distance survives encode → decode → `as
//! f32` bit-exactly. Non-finite numbers serialize as `null` (JSON has no
//! NaN/inf). Non-negative integers below 2⁶⁴ are [`Json::Int`] and never
//! pass through `f64`, so ids and payload tags are exact.
//!
//! The search and upsert bodies — a few keys and up to megabytes of
//! floats — do not become trees at all: `scan_body` reads the
//! vector rows straight into one flat `Vec<f32>` (`Parser::f32_token`
//! says why that is bit-for-bit the tree's `parse::<f64>() as f32`).
//!
//! ```
//! use ddc_server::json::Json;
//!
//! let v = Json::parse(r#"{"k": 3, "query": [1.5, -2.0]}"#).unwrap();
//! assert_eq!(v.get("k").and_then(Json::as_usize), Some(3));
//! let q: Vec<f32> = v.get("query").unwrap().as_f32_vec().unwrap();
//! assert_eq!(q, vec![1.5, -2.0]);
//! assert_eq!(Json::from(q.as_slice()).dump(), "[1.5,-2]");
//! ```

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (objects + arrays).
const MAX_DEPTH: usize = 64;

/// A JSON value. Object keys keep insertion order (lookup is a linear
/// scan — serving payloads have a handful of keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact: every number token without a minus
    /// sign whose decimal value is an integer below 2⁶⁴ (`7`, `7.0`,
    /// `7e2`, at most 20 significant digits) parses to this.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing content is an error).
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.end()?;
        Ok(v)
    }

    /// Serializes compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect(INFALLIBLE),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact non-negative integer, if this is one. A parsed
    /// [`Json::Num`] is by construction not one (negative, fractional,
    /// or 2⁶⁴ and beyond), so request fields read through this are exact
    /// or refused — never rounded through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions and
    /// negatives).
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of numbers as `Vec<f32>` (`None` if this is not an array
    /// or any element is not a number).
    pub fn as_f32_vec(&self) -> Option<Vec<f32>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect()
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl From<&[f32]> for Json {
    /// An array of numbers; `f32` widens losslessly to `f64`.
    fn from(xs: &[f32]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(f64::from(x))).collect())
    }
}

impl From<&[u32]> for Json {
    fn from(xs: &[u32]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Int(u64::from(x))).collect())
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dump())
    }
}

/// Why `write!` into a `String` is unwrapped.
pub(crate) const INFALLIBLE: &str = "writing to a String cannot fail";

/// One number the way [`Json::dump`] prints it: shortest round-trip
/// digits, `null` when not finite.
pub(crate) fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        write!(out, "{x}").expect(INFALLIBLE);
    } else {
        out.push_str("null");
    }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walks one object, handing each key to `member` with the cursor on
    /// its value.
    fn object_with(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut pairs = Vec::new();
        self.object_with(|p, key| {
            pairs.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    /// Walks one array, calling `item` with the cursor on each element.
    fn array_with(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.array_with(|p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar: a lead byte and its
                    // continuation bytes, validated (the scanner reads
                    // raw body bytes).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Sweeps one number token — the span the tree path hands to
    /// `parse::<f64>` — and, when it is plain decimal (a digit, at most
    /// 20 significant ones fitting a `u64`, a complete exponent), its
    /// parts `(negative, mantissa, exp10)`: the token's exact value is
    /// `±mantissa × 10^exp10`. Returns where the token started.
    fn sweep(&mut self) -> (usize, Option<(bool, u64, i32)>) {
        let (b, start) = (self.bytes, self.pos);
        let neg = b.get(start) == Some(&b'-');
        let first = start + usize::from(neg);
        let (mut i, mut dot) = (first, None);
        let (mut mant, mut sig, mut plain) = (0u64, 0u32, true);
        loop {
            match b.get(i) {
                // 19 digits cannot overflow; the 20th may.
                Some(&c @ b'0'..=b'9') if sig < 19 => {
                    mant = mant * 10 + u64::from(c - b'0');
                    sig += u32::from(mant != 0);
                }
                Some(&c @ b'0'..=b'9') => {
                    match mant
                        .checked_mul(10)
                        .and_then(|m| m.checked_add(u64::from(c - b'0')))
                    {
                        Some(m) => mant = m,
                        None => plain = false,
                    }
                }
                Some(b'.') if dot.is_none() => dot = Some(i + 1),
                _ => break,
            }
            i += 1;
        }
        let frac = dot.map_or(0, |d| i - d);
        plain &= i - first > usize::from(dot.is_some());
        let mut exp = 0i32;
        if let Some(b'e' | b'E') = b.get(i) {
            i += 1;
            let eneg = b.get(i) == Some(&b'-');
            i += usize::from(matches!(b.get(i), Some(b'+' | b'-')));
            let digits = i;
            while let Some(&c @ b'0'..=b'9') = b.get(i) {
                exp = exp.saturating_mul(10).saturating_add(i32::from(c - b'0'));
                i += 1;
            }
            plain &= i > digits;
            if eneg {
                exp = -exp;
            }
        }
        self.pos = i;
        let exp10 = exp.saturating_sub(i32::try_from(frac).unwrap_or(i32::MAX));
        (start, plain.then_some((neg, mant, exp10)))
    }

    /// The token `start..pos` through the standard library's correctly
    /// rounded decimal parser: the reference, and the judge of the grammar.
    fn f64_from(&self, start: usize) -> Result<f64, JsonError> {
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map_err(|_| JsonError {
            pos: start,
            msg: format!("invalid number `{text}`"),
        })
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let (start, parts) = self.sweep();
        if let Some((false, mant, exp10)) = parts {
            let pow = 10u64.checked_pow(exp10.unsigned_abs());
            let exact = match (mant, pow) {
                (0, _) => Some(0),
                (_, Some(p)) if exp10 >= 0 => mant.checked_mul(p),
                (_, Some(p)) if mant % p == 0 => Some(mant / p),
                _ => None,
            };
            if let Some(n) = exact {
                return Ok(Json::Int(n));
            }
        }
        self.f64_from(start).map(Json::Num)
    }

    /// One number token as the `f32` that `parse::<f64>() as f32` gives,
    /// bit for bit, finite or an error.
    ///
    /// Fast path: `mantissa × 10^exp10` (or `/ 10^-exp10`) in one `f64`
    /// operation when `|exp10| ≤ 22`, whose powers are exact. The mantissa
    /// may exceed 2⁵³, so `x` carries up to two roundings and can sit a
    /// few ulps from the correctly rounded `f64`; the two narrow to
    /// different `f32`s only across an `f32` rounding boundary — over the
    /// normal range, the `f64`s whose low 29 mantissa bits read `1 << 28`
    /// (a nonzero `x` is at least `1e-22`, far above the subnormals). So
    /// an `x` within `f32::MAX` and more than 8 ulps from that pattern is
    /// taken; every other token goes to the reference parser.
    fn f32_token(&mut self) -> Result<f32, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let (start, parts) = self.sweep();
        if let Some((neg, mant, exp10)) = parts {
            if let Some(&pow) = POW10.get(exp10.unsigned_abs() as usize) {
                let x = if exp10 < 0 {
                    mant as f64 / pow
                } else {
                    mant as f64 * pow
                };
                let low = x.to_bits() & ((1 << 29) - 1);
                if x <= f64::from(f32::MAX) && low.abs_diff(1 << 28) > 8 {
                    return Ok(if neg { -(x as f32) } else { x as f32 });
                }
            }
        }
        let cast = self.f64_from(start)? as f32;
        if cast.is_finite() {
            Ok(cast)
        } else {
            Err(self.err("not a finite f32"))
        }
    }

    /// One array of exactly `dim` finite numbers, appended to `out`.
    fn f32_row(&mut self, dim: usize, out: &mut Vec<f32>) -> Result<(), JsonError> {
        let start = out.len();
        self.array_with(|p| {
            out.push(p.f32_token()?);
            Ok(())
        })?;
        if out.len() - start == dim {
            Ok(())
        } else {
            Err(self.err("row of another length"))
        }
    }

    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing content after document"))
        }
    }
}

/// `10^i` for every `i` whose power of ten is exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Reads a search or upsert body in one pass over its bytes:
/// `{"<key>": <rows>, ...}` where `<rows>` is one array of `dim` numbers
/// or (`nested`) an array of such arrays. Returns the rows as flat
/// finite `f32`s and every other top-level member as a tree; a repeated
/// `key` lands there too, ignored as [`Json::get`] ignores it.
///
/// `None` means only "not that" — malformed, a non-number, a non-finite
/// `f32`, a row of another length, no `key`. The caller re-reads the
/// body as a tree to say which, so this owes no error text.
pub(crate) fn scan_body(
    body: &[u8],
    key: &str,
    nested: bool,
    dim: usize,
) -> Option<(Vec<f32>, Json)> {
    let mut p = Parser {
        bytes: body,
        pos: 0,
    };
    let (mut flat, mut rest) = (None, Vec::new());
    p.skip_ws();
    p.object_with(|p, k| {
        if k == key && flat.is_none() {
            let mut rows = Vec::with_capacity(if nested { body.len() / 16 } else { dim });
            if nested {
                p.array_with(|p| p.f32_row(dim, &mut rows))?;
            } else {
                p.f32_row(dim, &mut rows)?;
            }
            flat = Some(rows);
        } else {
            rest.push((k, p.value(1)?));
        }
        Ok(())
    })
    .ok()?;
    p.end().ok()?;
    Some((flat?, Json::Obj(rest)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_value_grammar() {
        let v =
            Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null}, "d": true, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn dump_parse_roundtrip() {
        let v = Json::obj([
            ("ids", Json::from(&[7u32, 1, 9][..])),
            ("dist", Json::from(&[1.25f32, f32::MIN_POSITIVE][..])),
            ("tag", Json::from("a\"b\\c\nd")),
            ("none", Json::Null),
        ]);
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn f32_distances_survive_bit_exactly() {
        // Shortest-roundtrip printing of a widened f32 re-narrows exactly.
        for x in [1.0f32, 0.1, 1e-30, 3.4e38, 1.2345678, f32::MIN_POSITIVE] {
            let text = Json::from(&[x][..]).dump();
            let back = Json::parse(&text).unwrap().as_f32_vec().unwrap()[0];
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn string_escapes_and_surrogates() {
        let v = Json::parse(r#""é€😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é€😀\t"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\udc00""#).is_err(), "lone low surrogate");
        let emoji = Json::Str("😀".into());
        assert_eq!(Json::parse(&emoji.dump()).unwrap(), emoji);
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "01x",
            r#"{"a":1}extra"#,
            "\"\x01\"",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().msg.contains("deep"));
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn usize_accessor_rejects_fractions_and_negatives() {
        let parsed = |text: &str| Json::parse(text).unwrap().as_usize();
        assert_eq!(parsed("10"), Some(10));
        assert_eq!(parsed("10.0"), Some(10));
        assert_eq!(parsed("1.5"), None);
        assert_eq!(parsed("-1"), None);
        assert_eq!(Json::Str("10".into()).as_usize(), None);
    }

    #[test]
    fn numbers_print_compactly() {
        assert_eq!(Json::Num(1.0).dump(), "1");
        assert_eq!(Json::Num(1.5).dump(), "1.5");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::obj([("a", Json::from(1u64))]).dump(), r#"{"a":1}"#);
    }
}
