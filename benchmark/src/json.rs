//! JSON out (a small writer with the benchmark's number and name rules)
//! and JSON in (the repository's vendored parser).

use std::fmt::Write as _;

/// A JSON value to be written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; `-0.0` is written as `0` and NaN/±Inf as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order. Build with [`Json::obj`].
    Obj(Vec<(String, Json)>),
}

/// Whether `s` is a legal metric, workload or field name: non-empty,
/// at most 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

impl Json {
    /// An object from `(key, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a key is not a [`valid_name`]: keys are metric and
    /// workload names chosen in this program, so a bad one is a bug here.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| {
                    let k = k.into();
                    assert!(valid_name(&k), "illegal JSON key {k:?}");
                    (k, v)
                })
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line text.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line text.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(1), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let newline = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * level));
            }
        };
        // Pretty text breaks the line after a comma, compact text spaces it.
        let comma = if indent.is_some() { "," } else { ", " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    newline(out, level + 1);
                    x.write(out, indent, level + 1);
                }
                if !xs.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    newline(out, level + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, level + 1);
                }
                if !entries.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    // `+ 0.0` folds IEEE −0.0 into +0.0.
    let n = n + 0.0;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest text that parses back to the same f64: every digit
        // measured, nothing rounded away.
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// A parsed JSON document (the vendored `serde` shim's value tree).
pub use serde::Value;

struct Doc(Value);

impl serde::Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Doc(v.clone()))
    }
}

/// Parses JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}

/// Looks up `key` in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_fold_negative_zero_and_null_out_non_finite() {
        let j = Json::Arr(vec![
            Json::Num(-0.0),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NEG_INFINITY),
            Json::Num(3.0),
            Json::Num(0.1 + 0.2),
            Json::Num(-2.5e-7),
            Json::Num(1e21),
        ]);
        assert_eq!(
            j.to_line(),
            "[0, null, null, null, 3, 0.30000000000000004, -0.00000025, 1000000000000000000000]"
        );
    }

    #[test]
    fn every_digit_survives_a_round_trip() {
        for x in [1.2034567890123457, 666.5, 2.718281828459045e-9, 1e300] {
            let text = Json::Num(x).to_line();
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                x.to_bits(),
                "{text}"
            );
        }
    }

    #[test]
    fn names_are_restricted() {
        for ok in ["run_s", "core.plan_push_us", "team4-rog", "9lives", "A"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "a\"b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal JSON key")]
    fn objects_refuse_illegal_keys() {
        let _ = Json::obj([("bad key", Json::Null)]);
    }

    #[test]
    fn writer_output_parses_back() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("note", Json::str("a \"quoted\"\nline")),
            (
                "metrics",
                Json::obj([(
                    "run_s",
                    Json::obj([("value", Json::Num(2.5)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        for text in [j.to_line(), j.to_pretty()] {
            let v = parse(&text).unwrap();
            let run = field(field(&v, "metrics").unwrap(), "run_s").unwrap();
            assert_eq!(field(run, "value").unwrap().as_num(), Some(2.5));
            assert_eq!(field(run, "unit").unwrap().as_str(), Some("s"));
            assert_eq!(
                field(&v, "note").unwrap().as_str(),
                Some("a \"quoted\"\nline")
            );
        }
        assert!(!j.to_line().contains('\n'));
    }
}
