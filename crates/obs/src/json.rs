//! A hand-rolled JSON document model and writer.
//!
//! The workspace is hermetic (no serde), so exports build a [`Json`]
//! tree and serialize it through [`std::fmt::Display`]. Serialization
//! is fully deterministic: object members keep insertion order (callers
//! that need canonical ordering insert in sorted order — the metrics
//! registry iterates a `BTreeMap`), numbers format identically across
//! runs and platforms, and non-finite floats — which JSON cannot
//! represent — become `null`.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so that exports are
/// byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integral number, serialized without a decimal point.
    Int(i64),
    /// Floating-point number; non-finite values serialize as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup (first match) on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for any other variant.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value of either number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serialize with two-space indentation (for human-readable reports).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact, deterministic serialization (`json.to_string()` comes from
/// this impl).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Deterministic float formatting: non-finite → `null` (JSON has no
/// Inf/NaN), integral values in i64 range print without a fraction, the
/// rest use Rust's shortest-roundtrip `Display` (stable across runs).
fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Write `s` as a JSON string literal with full escaping: quote,
/// backslash, the short escapes, and `\u00XX` for remaining control
/// characters. Non-ASCII code points pass through as UTF-8 (valid JSON).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
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
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-42).to_string(), "-42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Str("hi".into()).to_string(), "\"hi\"");
    }

    #[test]
    fn integral_floats_have_no_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(1e15).to_string(), "1000000000000000");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::Str("a\"b\\c\nd\te\r\u{8}\u{c}\u{1}".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\r\\b\\f\\u0001\"");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(Json::Str("λΔ→π".into()).to_string(), "\"λΔ→π\"");
    }

    #[test]
    fn containers_nest_and_keep_order() {
        let j = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(j.to_string(), "{\"z\":1,\"a\":[null,false]}");
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn pretty_printing_is_valid_json_too() {
        let j = Json::obj(vec![("k", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        let pretty = j.to_pretty_string();
        assert!(pretty.contains("\"k\": ["));
        assert_eq!(crate::parse::parse(&pretty).unwrap(), j);
    }
}
