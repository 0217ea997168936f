//! The in-tree JSON encoder every endpoint body goes through.
//!
//! The suite's artifact writers hand-roll their JSON inline (the
//! trace exporter); an HTTP API needs the opposite discipline — one
//! encoder, one layout — so that `docs/API.md` can quote bodies
//! verbatim and a test can assert them byte-for-byte. Strings escape
//! through [`arest_obs::write_json_string`], the routine the trace
//! exporter uses too.
//! The encoder is deliberately small: objects are ordered pairs
//! (insertion order is rendering order), numbers are integers (the API
//! serves counts, never floats), and rendering is pretty-printed with
//! two-space indents so the documented examples read as a manual.

use arest_obs::write_json_string;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counts, identifiers, bucket bounds).
    U64(u64),
    /// A signed integer (gauge levels).
    I64(i64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion order is rendering order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Str` when present, `Null` otherwise.
    #[must_use]
    pub fn opt_str(s: Option<&str>) -> Json {
        s.map_or(Json::Null, Json::str)
    }

    /// Renders the tree: two-space indents, `": "` after keys, no
    /// trailing newline. The exact bytes `docs/API.md` quotes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_bare() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn empty_containers_stay_inline() {
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }

    #[test]
    fn nested_layout_is_two_space_pretty() {
        let v = Json::obj(vec![
            ("asn", Json::U64(293)),
            ("tags", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            ("inner", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let expected = "{\n  \"asn\": 293,\n  \"tags\": [\n    \"a\",\n    \"b\"\n  ],\n  \
                        \"inner\": {\n    \"ok\": true\n  }\n}";
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn opt_str_maps_none_to_null() {
        assert_eq!(Json::opt_str(None).render(), "null");
        assert_eq!(Json::opt_str(Some("x")).render(), "\"x\"");
    }
}
