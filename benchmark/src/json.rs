//! A reader for the three JSON shapes the benchmark consumes —
//! `BENCHMARK.json`, `golden.json` and a child run's result line — and the
//! string escaping its `format!` writers need. No serde: the benchmark
//! builds offline with no dependency beyond the flashr crates.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src: src.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse().map(Json::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.src.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.src.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'u' => {
                            let hex = self.src.get(self.pos..self.pos + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_result_line_shape() {
        let v = Json::parse(
            r#"{"correct": true, "attempted": 12, "failed": 0,
                "metrics": {"round_s": {"value": 1.25e-1, "unit": "s"}, "x": {"value": -3, "unit": "count"}}}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(12.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.fields().len(), 2);
        assert_eq!(m.get("round_s").unwrap().get("value").unwrap().as_f64(), Some(0.125));
        assert_eq!(m.get("x").unwrap().get("unit").unwrap().as_str(), Some("count"));
    }

    #[test]
    fn reads_arrays_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"[1, "a\"bA\n", [], {}, null]"#).unwrap();
        assert_eq!(v.as_array().len(), 5);
        assert_eq!(v.as_array()[1].as_str(), Some("a\"bA\n"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1] 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn quote_round_trips() {
        let s = "tab\there \"quoted\" back\\slash\nline";
        assert_eq!(Json::parse(&quote(s)).unwrap().as_str(), Some(s));
    }
}
