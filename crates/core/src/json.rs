//! JSON without a dependency: one [`Writer`] every serializer in the
//! workspace builds its document with (on the [`json_escape`] and
//! [`json_f64`] primitives) and one strict reader ([`parse`]) for the
//! tests that check those documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append a JSON string literal (with escaping) to `out`.
pub fn json_escape(s: &str, out: &mut String) {
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

/// Append an f64 as a JSON value. JSON has no NaN/Infinity literals, so
/// non-finite values become `null`.
pub fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A JSON document under construction. The writer owns the commas: a
/// value is preceded by one unless it opens its scope or follows its
/// [`key`](Writer::key), so callers only say what the members are.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next key or value needs a `,` before it.
    comma: bool,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Name the next value: inside an object, every value follows a key.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.sep();
        json_escape(key, &mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    pub fn str(&mut self, v: &str) {
        self.sep();
        json_escape(v, &mut self.out);
    }

    pub fn u64(&mut self, v: u64) {
        self.sep();
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// A non-finite value is written as `null`.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        json_f64(v, &mut self.out);
    }

    pub fn bool(&mut self, v: bool) {
        self.raw(if v { "true" } else { "false" });
    }

    pub fn null(&mut self) {
        self.raw("null");
    }

    /// A value that is JSON text already: a document built elsewhere, or
    /// a number in a spelling of the caller's choosing.
    pub fn raw(&mut self, json: &str) {
        self.sep();
        self.out.push_str(json);
    }

    /// An object whose members `members` writes, each a key then a value.
    pub fn obj(&mut self, members: impl FnOnce(&mut Writer)) {
        self.scope('{', '}', members);
    }

    /// An array whose items `items` writes.
    pub fn arr(&mut self, items: impl FnOnce(&mut Writer)) {
        self.scope('[', ']', items);
    }

    fn scope(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }
}

/// A document that is one object.
pub fn object(members: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new();
    w.obj(members);
    w.finish()
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The literal as written, so 64-bit counters keep every digit.
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// A repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(m) = self else { return None };
        m.get(key)
    }

    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// `Some` only for a number written as a non-negative integer ≤ `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Number(n) = self else { return None };
        n.parse().ok()
    }

    pub fn as_f64(&self) -> Option<f64> {
        let Value::Number(n) = self else { return None };
        n.parse().ok()
    }

    pub fn as_bool(&self) -> Option<bool> {
        let Value::Bool(b) = self else { return None };
        Some(*b)
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        let Value::Array(a) = self else { return None };
        Some(a)
    }
}

/// `doc["a"]["b"]`: [`Value::get`], with `Null` standing in for a missing
/// member so lookups chain.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// A value may sit inside at most this many arrays and objects; store files
/// come from outside the program and must not be able to overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parse one RFC 8259 document, strictly: no bare `NaN`/`Infinity`, no
/// trailing commas, no raw control characters or unknown escapes inside
/// strings, nothing but whitespace after the value. The error says why and
/// at which byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.fail("trailing input after the document");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: it only ever steps over ASCII bytes or
    /// stops at one.
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, reason: &str) -> Result<T, String> {
        Err(format!("invalid JSON at byte {}: {reason}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth == MAX_DEPTH {
            return self.fail("nested too deeply");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.list("]", |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.list("}", |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.fail("expected ':'");
                    }
                    members.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => self.fail("expected a value"),
        }
    }

    /// The comma-separated items from the opening bracket at `pos` through
    /// `close`; `item` parses one.
    fn list(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return self.fail("expected ',' or the closing bracket");
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("expected a digit");
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") {
            self.digits()?;
        }
        if self.eat(".") {
            self.digits()?;
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            self.digits()?;
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("expected a string");
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision; all
            // three kinds are ASCII, so the slice ends on a char boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            if self.eat("\"") {
                return Ok(out);
            }
            if !self.eat("\\") {
                return self.fail("unterminated string or raw control character");
            }
            let esc = self.peek();
            self.pos += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => {
                    self.pos -= 1;
                    return self.fail("unknown escape");
                }
            });
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return self.fail("expected four hex digits");
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// The code point of a `\u` escape whose `\u` is already consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        char::from_u32(code).map_or_else(|| self.fail("unpaired surrogate"), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_control_chars() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn writer_round_trips_every_value_kind() {
        let tricky = "q\"b\\c\u{1}";
        let doc = object(|w| {
            w.key(tricky).str(tricky);
            w.key("max").u64(u64::MAX);
            w.key("f").f64(-1.5);
            w.key("nan").f64(f64::NAN);
            w.key("t").bool(true);
            w.key("z").null();
            w.key("raw").raw("0.250");
            w.key("empty").obj(|_| {});
            w.key("a").arr(|w| {
                w.u64(1);
                w.obj(|w| w.key("k").arr(|_| {}));
                w.str("s");
            });
        });
        let v = parse(&doc).expect("the writer's output is strict JSON");
        assert_eq!(v[tricky].as_str(), Some(tricky), "{doc}");
        assert_eq!(v["max"].as_u64(), Some(u64::MAX));
        assert_eq!((v["f"].as_f64(), v["raw"].as_f64()), (Some(-1.5), Some(0.25)));
        assert_eq!((&v["nan"], &v["z"]), (&Value::Null, &Value::Null));
        assert_eq!(v["t"].as_bool(), Some(true));
        assert_eq!(v["empty"], Value::Object(BTreeMap::new()));
        let a = v["a"].as_array().expect("array");
        assert_eq!((a.len(), a[0].as_u64(), a[2].as_str()), (3, Some(1), Some("s")));
        assert_eq!(a[1]["k"], Value::Array(Vec::new()));
        // Commas sit between members and nowhere else.
        assert!(doc.ends_with(r#""a":[1,{"k":[]},"s"]}"#), "{doc}");
    }

    #[test]
    fn reads_every_value_kind() {
        let doc = parse(
            " {\"s\":\"a\\n\\u00e9\\ud83d\\ude00/\\/\",\"n\":[0,-1.5e3,18446744073709551615],\
             \"t\":true,\"f\":false,\"z\":null,\"o\":{},\"a\":[ ]} \n",
        )
        .unwrap();
        assert_eq!(doc["s"].as_str(), Some("a\né😀//"));
        let n = doc["n"].as_array().unwrap();
        assert_eq!(n[0].as_u64(), Some(0));
        assert_eq!((n[1].as_f64(), n[1].as_u64()), (Some(-1500.0), None));
        assert_eq!(n[2].as_u64(), Some(u64::MAX), "64-bit counters keep every digit");
        assert_eq!((doc["t"].as_bool(), doc["f"].as_bool()), (Some(true), Some(false)));
        assert_eq!(doc["z"], Value::Null);
        assert_eq!(doc["o"], Value::Object(BTreeMap::new()));
        assert_eq!(doc["a"].as_array().map(Vec::len), Some(0));
        // A missing member reads as Null so lookups chain; `get` says so.
        assert_eq!(doc["missing"]["deeper"], Value::Null);
        assert!(doc.get("missing").is_none() && doc["t"].get("x").is_none());
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        // `;`-separated, so the documents can hold quotes, spaces and commas;
        // the first is the empty document.
        let bad = r#";NaN;Infinity;-Infinity;[1,];{"a":1,};{"a":1}x;1 2;"\x";"\u12";"\ud800";
            "\ud800\u0041";"\ude00";"open;01;1.;.5;+1;1e;-;{a:1};{"a" 1};[1 2];[;nul;'s'"#;
        for doc in bad.split(';').map(str::trim).chain(["\"a\nb\""]) {
            assert!(parse(doc).is_err(), "accepted {doc:?}");
        }
        assert!(parse("{\"a\":1}x").unwrap_err().contains("byte 7"));
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).unwrap_err().contains("nested too deeply"));
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
