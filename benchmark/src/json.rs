//! A minimal JSON reader for the two documents the benchmark must look
//! inside: `ctms-serve` reply lines and the canonical telemetry tree.
//! The simulator's workspace has no serde dependency, and neither does
//! the benchmark.

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn u64_at(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::num).map(|n| n as u64)
    }

    pub fn str_at(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Over a telemetry tree (`{"metrics": {"a.b.c": {"counter": n}}}`),
    /// the counters or gauges of every metric whose dotted name matches
    /// `pattern`: segment by segment, where `*` matches any segment and
    /// a segment ending in `*` matches by prefix.
    pub fn metric_values(&self, pattern: &str) -> Vec<f64> {
        let Some(Json::Obj(metrics)) = self.get("metrics") else {
            return Vec::new();
        };
        let want: Vec<&str> = pattern.split('.').collect();
        let matches = |name: &str| {
            let segs: Vec<&str> = name.split('.').collect();
            segs.len() == want.len()
                && segs
                    .iter()
                    .zip(&want)
                    .all(|(s, w)| match w.strip_suffix('*') {
                        Some(prefix) => s.starts_with(prefix),
                        None => s == w,
                    })
        };
        metrics
            .iter()
            .filter(|(name, _)| matches(name))
            .filter_map(|(_, v)| {
                v.get("counter")
                    .or_else(|| v.get("gauge"))
                    .and_then(Json::num)
            })
            .collect()
    }

    pub fn metric_sum(&self, pattern: &str) -> f64 {
        self.metric_values(pattern).iter().fold(0.0, |a, b| a + b)
    }
}

pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.b
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of JSON".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected '{}' at offset {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    entries.push((k, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(format!("bad object at offset {}", self.pos)),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.pos)),
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.pos;
                while matches!(
                    self.b.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.b[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if !self.b[self.pos..].starts_with(w.as_bytes()) {
            return Err(format!("bad keyword at offset {}", self.pos));
        }
        self.pos += w.len();
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.b.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let code = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_sums_by_pattern() {
        let v = parse(
            r#"{"metrics":{"tokenring.ring0.frames_sent":{"counter":3},
               "tokenring.ring1.frames_sent":{"counter":4},
               "tokenring.ring1.stations":{"gauge":9},
               "router.b0.forwarded_ab":{"counter":5},"router.b0.forwarded_ba":{"counter":6},
               "router.b0.other":{"counter":100}},
               "s":"a\"b\u0041"}"#,
        )
        .unwrap();
        assert_eq!(v.metric_sum("tokenring.*.frames_sent"), 7.0);
        assert_eq!(v.metric_sum("tokenring.*.stations"), 9.0);
        assert_eq!(v.metric_sum("router.*.forwarded_*"), 11.0);
        assert!(v.metric_values("nothing.*").is_empty());
        assert_eq!(v.str_at("s"), Some("a\"bA"));
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,2").is_err());
    }
}
