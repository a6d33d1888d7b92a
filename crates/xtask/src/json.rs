//! A minimal JSON writer for the SARIF report.
//!
//! The build environment has no registry access, so instead of
//! `serde_json` this is a small value model that renders exactly the
//! JSON the SARIF output needs (objects, arrays, strings, integers).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(i64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => quote(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object value from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes `s` as a JSON string (RFC 8259 escaping: quote, backslash,
/// control chars).
fn quote(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_with_escapes() {
        let doc = obj(vec![
            ("schema", Value::Num(-7)),
            (
                "items",
                Value::Arr(vec![Value::Str("a\"b\\c\n\u{1}".to_string())]),
            ),
            ("inner", obj(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"inner":{},"items":["a\"b\\c\n\u0001"],"schema":-7}"#
        );
    }
}
