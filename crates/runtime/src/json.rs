//! The workspace's one JSON module: the string escaper the metrics journal and
//! the Chrome trace renderer write with, and a small reader of what they
//! write.
//!
//! The vendored serde shim has no `serde_json`, and every JSON document the
//! workspace produces is hand-built (`MetricsSnapshot::to_json_line`,
//! `vqc_transport::merged_chrome_trace`), so this module is all the JSON the
//! workspace needs: [`escape`] for writing strings, [`Json::parse`] and the
//! typed, path-addressed getters for reading documents back, each of which
//! names the key it could not read. Numbers keep their source text, so a
//! `u64` counter reads back exactly.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written (validated as a float when parsed).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, its keys in document order.
    Object(Vec<(String, Json)>),
}

/// `text` as the contents of a JSON string: quotes, backslashes and control
/// characters escaped (the last as `\u00XX`).
pub fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if c < ' ' => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

impl Json {
    /// Parses one JSON document; anything but whitespace after it is an
    /// error, as is malformed input (the message gives the byte offset).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// The value at a dotted object `path` (`"cache.hits"`), or an error
    /// naming the path.
    fn at(&self, path: &str) -> Result<&Json, String> {
        path.split('.')
            .try_fold(self, |value, key| match value {
                Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            })
            .ok_or_else(|| format!("missing key `{path}`"))
    }

    /// The number at `path` read as a `T` (`u64` for a counter, `f64` for a
    /// measurement), or an error naming the path when it is missing or does
    /// not read as a `T`.
    pub fn number_at<T: std::str::FromStr>(&self, path: &str) -> Result<T, String> {
        match self.at(path)? {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| {
            format!(
                "key `{path}` does not read as {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// The string at `path`, or an error naming the path.
    pub fn str_at(&self, path: &str) -> Result<&str, String> {
        match self.at(path)? {
            Json::String(text) => Ok(text),
            _ => Err(format!("key `{path}` is not a string")),
        }
    }

    /// The array at `path`, or an error naming the path.
    pub fn array_at(&self, path: &str) -> Result<&[Json], String> {
        match self.at(path)? {
            Json::Array(items) => Ok(items),
            _ => Err(format!("key `{path}` is not an array")),
        }
    }
}

/// A recursive-descent reader over one document's bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Json::Object(self.list(b'{', b'}', Self::member)?)),
            Some(b'[') => Ok(Json::Array(self.list(b'[', b']', Self::value)?)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The comma-separated items between `open` and `close`, each read by
    /// `item`.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    /// One `"key": value` member of an object.
    fn member(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok((key, self.value()?))
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|text| text.parse::<f64>().is_ok())
            .map(|text| Json::Number(text.to_string()))
            .ok_or_else(|| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match escaped {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        // [`escape`] writes one for each control character;
                        // a surrogate pair does not read.
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("malformed `\\u` escape"))?;
                            self.pos += 4;
                            code
                        }
                        _ => return Err(self.error("unsupported escape")),
                    });
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid utf-8"))?,
                    );
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_escaped_name_reads_back_as_written() {
        let name = "say \"hi\" \\ \u{1} bye";
        let escaped = escape(name);
        assert_eq!(escaped, r#"say \"hi\" \\ \u0001 bye"#);
        let document = format!("{{\"name\":\"{escaped}\"}}");
        let value = Json::parse(&document).unwrap();
        assert_eq!(value.str_at("name").unwrap(), name);
    }

    #[test]
    fn paths_name_the_key_that_is_missing_or_mistyped() {
        let value =
            Json::parse(r#"{"cache":{"hits":3,"ratio":0.5},"name":"x","rows":[]}"#).unwrap();
        assert_eq!(value.number_at::<u64>("cache.hits"), Ok(3));
        assert_eq!(value.number_at::<f64>("cache.ratio"), Ok(0.5));
        assert!(value.array_at("rows").unwrap().is_empty());
        let errors = [
            value.number_at::<u64>("cache.misses").unwrap_err(),
            value.number_at::<u64>("cache.ratio").unwrap_err(),
            value.number_at::<f64>("name").unwrap_err(),
            value.str_at("rows").unwrap_err(),
        ];
        assert_eq!(
            errors,
            [
                "missing key `cache.misses`",
                "key `cache.ratio` does not read as u64",
                "key `name` does not read as f64",
                "key `rows` is not a string",
            ]
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for text in [
            "",
            "{",
            r#"{"a":}"#,
            "[1,]",
            r#""\q""#,
            r#""\u12""#,
            "1 2",
            "--",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
        assert_eq!(
            Json::parse(r#"[null,true,"😀"]"#),
            Ok(Json::Array(vec![
                Json::Null,
                Json::Bool(true),
                Json::String("😀".to_string())
            ]))
        );
    }
}
