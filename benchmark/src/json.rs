//! The benchmark's JSON writer. The workspace carries no serde; reading goes
//! through the parser `g500-bench` already has (`g500_bench::micro::json`),
//! writing through this one type so escaping and number formatting live in
//! one place.

use graph500::simnet::stats::json_f64;
use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written by the workspace's `json_f64`: Rust's shortest round-trip
    /// formatting, so every digit measured survives and equal values print
    /// equal text; non-finite numbers, which JSON lacks, become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl Json {
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Multi-line rendering for files people read: containers of scalars
    /// stay on one line, everything else gets a line per member.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Arr(items) if !items.iter().all(Json::is_scalar) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    v.pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) if !fields.iter().all(|(_, v)| v.is_scalar()) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::Str(k.clone()).to_string());
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            flat => out.push_str(&flat.to_string()),
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Single-line rendering (the result line must be one line).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => f.write_str(&json_f64(*x)),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_bench::micro::json::{parse, Value};

    #[test]
    fn round_trips_through_the_workspace_parser() {
        let doc = Json::obj([
            ("name", Json::Str("a \"quoted\" back\\slash".into())),
            ("exact", Json::Num(0.1 + 0.2)),
            ("count", Json::Num(1234567890123.0)),
            ("tiny", Json::Num(1.25e-9)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let back = parse(&doc.to_string()).expect("writer output must parse");
        assert_eq!(
            back.get("name").and_then(Value::as_str),
            Some("a \"quoted\" back\\slash")
        );
        assert_eq!(back.get("exact"), Some(&Value::Num(0.1 + 0.2)));
        assert_eq!(
            back.get("count").and_then(Value::as_u64),
            Some(1234567890123)
        );
        assert_eq!(back.get("tiny"), Some(&Value::Num(1.25e-9)));
        assert_eq!(back.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(back.get("none"), Some(&Value::Null));
        let list = back.get("list").and_then(Value::as_array);
        assert_eq!(list.map(<[_]>::len), Some(2));
    }

    #[test]
    fn control_characters_are_escaped_and_output_is_one_line() {
        let text = Json::Str("line\nbreak\ttab \u{1}".into()).to_string();
        assert_eq!(text, "\"line\\nbreak\\ttab \\u0001\"");
        assert!(!text.contains('\n'), "result lines must stay on one line");
    }

    #[test]
    fn pretty_output_parses_to_the_same_document() {
        let doc = Json::obj([
            (
                "flat",
                Json::obj([("value", Json::Num(1.5)), ("unit", Json::Str("s".into()))]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::obj([("id", Json::Num(0.0))]), Json::Null]),
            ),
            (
                "tags",
                Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())]),
            ),
        ]);
        let pretty = doc.pretty();
        assert!(pretty.contains("\"flat\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(pretty.lines().count() > 4);
        assert_eq!(parse(pretty.trim_end()), parse(&doc.to_string()));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(3.0).to_string(), "3");
    }
}
