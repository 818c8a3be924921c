//! The little JSON the benchmark writes: its result line, its result files
//! and `BENCHMARK.json`. Nothing here reads JSON.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// One line, no spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * depth));
            }
        };
        match self {
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            // Whole numbers print without a fraction, everything else with
            // all the digits that round-trip; JSON has no NaN or infinity.
            Json::Num(value) if !value.is_finite() => out.push_str("null"),
            Json::Num(value) if value.fract() == 0.0 && value.abs() < 1e15 => {
                let _ = write!(out, "{}", *value as i64);
            }
            Json::Num(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Str(text) => {
                out.push('"');
                for c in text.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    Json::str(key).write(out, indent, depth + 1);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let value = Json::object(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(12.0)),
            ("value", Json::Num(1.2034)),
            ("bad", Json::Num(f64::NAN)),
            ("why", Json::str("a \"quoted\"\nline")),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![])])),
        ]);
        assert_eq!(
            value.compact(),
            r#"{"correct":true,"attempted":12,"value":1.2034,"bad":null,"why":"a \"quoted\"\nline","list":[1,[]]}"#
        );
        assert!(value
            .pretty()
            .starts_with("{\n  \"correct\": true,\n  \"attempted\": 12,"));
        assert!(value.pretty().ends_with("}\n"));
    }
}
