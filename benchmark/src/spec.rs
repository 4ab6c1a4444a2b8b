//! `BENCHMARK.json`: which metrics the benchmark answers for, their
//! units, directions and regression bounds. Embedded at build time so
//! the program and the file cannot drift apart unnoticed.

use crate::json::{self, field, Value};

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric's contract.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics as `(name, unit)`, in file order.
    pub per_layer: Vec<(String, String)>,
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))
}

/// Parses the embedded `BENCHMARK.json`.
pub fn load() -> Result<Spec, String> {
    parse(TEXT)
}

fn parse(src: &str) -> Result<Spec, String> {
    let doc = json::parse(src)?;
    Ok(Spec {
        run_seconds: field(&doc, "run_seconds")
            .and_then(Value::as_num)
            .ok_or("BENCHMARK.json: missing number `run_seconds`")?,
        workloads: list(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name").map(str::to_owned))
            .collect::<Result<_, _>>()?,
        end_to_end: list(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: text(m, "name")?.to_owned(),
                    unit: text(m, "unit")?.to_owned(),
                    lower_is_better: match text(m, "better")? {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    },
                    bound: field(m, "bound")
                        .and_then(Value::as_num)
                        .ok_or("BENCHMARK.json: missing number `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list(&doc, "per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?.to_owned(), text(m, "unit")?.to_owned())))
            .collect::<Result<_, String>>()?,
    })
}
