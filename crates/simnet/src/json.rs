//! The workspace's one JSON module: the writer every report goes through,
//! and the parser that reads them back (the perf gate's baseline, tests).
//! The workspace carries no serde.
//!
//! The writer has two layouts. *Compact* puts a value on one line with no
//! spaces; every nested value is compact. A *report* ([`report`]) writes
//! its top-level object one field a line as `"key": value`, and an
//! [`Object::array`] of that object one element a line. Integers print as
//! they are, an `f64` in Rust's shortest round-trip form, and a
//! non-finite `f64` as `null`, which JSON has instead of NaN and infinity.
//! Strings escape `"`, `\` and control characters.

use std::fmt::Write as _;

/// A value the writer can emit.
pub trait ToJson {
    /// Append this value, compact, to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a compact JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Fields written under their own names, in the order listed.
/// `json_fields!(o, self: seed, rate)` writes `self.seed` and `self.rate`
/// on the open [`Object`] `o`; `json_fields!(CrashPlan: seed, rate)`
/// implements [`ToJson`] for `CrashPlan` as the compact object of them.
#[macro_export]
macro_rules! json_fields {
    ($o:ident, $v:ident: $($f:ident),+ $(,)?) => {{
        $($o.field(stringify!($f), &$v.$f);)+
    }};
    ($t:ty: $($f:ident),+ $(,)?) => {
        impl $crate::json::ToJson for $t {
            fn write_json(&self, out: &mut String) {
                $crate::json::object(out, |o| { $crate::json_fields!(o, self: $($f),+) });
            }
        }
    };
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integers!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// `x` by the writer's number rule (`null` when non-finite).
pub fn number(x: f64) -> String {
    x.to_json()
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        let mut a = Array(Members::open(out, '[', None));
        for v in self {
            a.item(v);
        }
        a.0.close(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// One line per member: the padding before each member and before the
/// closing bracket. `None` is compact.
type Lines = Option<(&'static str, &'static str)>;

/// The members of an open object or array.
struct Members<'a> {
    out: &'a mut String,
    lines: Lines,
    empty: bool,
}

impl<'a> Members<'a> {
    fn open(out: &'a mut String, bracket: char, lines: Lines) -> Self {
        out.push(bracket);
        Members {
            out,
            lines,
            empty: true,
        }
    }

    /// Where the next member goes, after its separator.
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if let Some((pad, _)) = self.lines {
            self.out.push_str(pad);
        }
        self.out
    }

    fn close(self, bracket: char) {
        if let (Some((_, pad)), false) = (self.lines, self.empty) {
            self.out.push_str(pad);
        }
        self.out.push(bracket);
    }
}

/// An object being written, field by field.
pub struct Object<'a>(Members<'a>);

/// An array being written, element by element.
pub struct Array<'a>(Members<'a>);

/// Write a compact object to `out`; `body` writes its fields.
pub fn object(out: &mut String, body: impl FnOnce(&mut Object)) {
    let mut o = Object(Members::open(out, '{', None));
    body(&mut o);
    o.0.close('}');
}

/// A report: a top-level object one field a line; `body` writes the
/// fields.
pub fn report(body: impl FnOnce(&mut Object)) -> String {
    let mut out = String::new();
    let mut o = Object(Members::open(&mut out, '{', Some(("\n  ", "\n"))));
    body(&mut o);
    o.0.close('}');
    out
}

impl Object<'_> {
    /// The separator, `key` and colon of the next field.
    fn key(&mut self, key: &str) -> &mut String {
        let colon = if self.0.lines.is_some() { ": " } else { ":" };
        let out = self.0.next();
        key.write_json(out);
        out.push_str(colon);
        out
    }

    /// Field `key`, compact.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Field `key`, a compact object `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object)) -> &mut Self {
        object(self.key(key), body);
        self
    }

    /// Field `key`, an array `body` writes: one element a line in a
    /// report, compact anywhere else.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array)) -> &mut Self {
        let lines = self.0.lines.map(|_| ("\n    ", "\n  "));
        let mut a = Array(Members::open(self.key(key), '[', lines));
        body(&mut a);
        a.0.close(']');
        self
    }
}

impl Array<'_> {
    /// The next element, compact.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// The next element, a compact object `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Object)) -> &mut Self {
        object(self.0.next(), body);
        self
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object payload as key/value pairs, if an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object_value(b, pos),
        Some(b'[') => array_value(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Value::Null),
        Some(_) => number_value(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn number_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// A string's bytes are copied as they are, so UTF-8 text stays UTF-8;
/// escapes decode to the character they name.
fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                let ch = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or("bad \\u escape")?
                    }
                    _ => return Err(format!("unsupported escape \\{}", esc as char)),
                };
                out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn array_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn object_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let k = string(b, pos)?;
        expect(b, pos, b':')?;
        fields.push((k, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writer output read back by the parser: text the old parser mangled
    /// (non-ASCII) or refused (`\n`, `\t`, `\uXXXX`), and non-finite
    /// numbers.
    #[test]
    fn writer_output_round_trips_through_the_parser() {
        let strings = ["Δ-stepping", "a\"b\\c", "\u{1}", "tab\there\nline"];
        let mut text = String::new();
        object(&mut text, |o| {
            o.field("s", &strings[..])
                .field("nan", f64::NAN)
                .field("inf", f64::NEG_INFINITY)
                .field("x", 0.1 + 0.2)
                .field("big", u64::MAX)
                .field("missing", None::<bool>);
        });
        assert!(text.contains(r#""nan":null,"inf":null"#), "{text}");
        assert!(text.contains(r#""\u0001""#), "{text}");
        let v = parse(&text).expect("writer output parses");
        let back: Vec<&str> = v
            .get("s")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(back, strings);
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("inf"), Some(&Value::Null));
        assert_eq!(v.get("x"), Some(&Value::Num(0.1 + 0.2)));
        assert_eq!(v.get("missing"), Some(&Value::Null));
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    fn the_two_layouts() {
        let compact = {
            let mut out = String::new();
            object(&mut out, |o| {
                o.field("a", 1u32)
                    .array("rows", |a| {
                        a.item(true).object(|r| {
                            r.field("k", "v");
                        });
                    })
                    .object("empty", |_| {});
            });
            out
        };
        assert_eq!(compact, r#"{"a":1,"rows":[true,{"k":"v"}],"empty":{}}"#);
        let rep = report(|o| {
            o.field("a", 1u32)
                .field("flat", &[1u32, 2][..])
                .array("rows", |a| {
                    a.item(&[3u32][..]).item(4u32);
                })
                .array("none", |_| {});
        });
        assert_eq!(
            rep,
            "{\n  \"a\": 1,\n  \"flat\": [1,2],\n  \"rows\": [\n    [3],\n    4\n  ],\n  \"none\": []\n}"
        );
        assert_eq!(
            parse(&rep)
                .unwrap()
                .get("rows")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn parser_rejects_bad_escapes() {
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(
            parse(r#""\ud800""#).is_err(),
            "a lone surrogate is no character"
        );
        assert_eq!(parse(r#""Δ\/""#), Ok(Value::Str("Δ/".into())));
    }
}
