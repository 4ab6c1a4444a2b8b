//! `compare <a.json> <b.json>`: judges result file `b` (the change)
//! against `a` (the baseline) with the bounds of `BENCHMARK.json`.

use crate::json::{self, field, Value};
use crate::spec::{EndToEnd, Spec};

/// Verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Better than the baseline by more than the bound.
    Better,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// medians cannot be told apart at this resolution.
    Unresolved,
    /// An unbounded metric whose value is not bit-identical.
    Changed,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// Median and quartiles of one metric in a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Entry {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Applies `spec`'s direction and bound to a baseline `a` and a change `b`.
pub fn judge(spec: &EndToEnd, a: Entry, b: Entry) -> Verdict {
    if a.spread().max(b.spread()) > spec.bound {
        return Verdict::Unresolved;
    }
    let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn entry(metrics: &Value, name: &str) -> Option<Entry> {
    let m = field(metrics, name)?;
    let num = |k| field(m, k).and_then(Value::as_num);
    Some(Entry {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per (workload, metric) and returns whether `b` is
/// acceptable: no `worse` verdict and no higher failed share.
pub fn compare(spec: &Spec, path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |v: &Value| {
        field(v, "workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .ok_or("result file has no `workloads` object")
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut ok = true;
    println!(
        "{:<13} {:<24} {:>13} {:>21} {:>13} {:>21}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<13} missing from {path_b}");
            ok = false;
            continue;
        };
        let (ma, mb) = match (field(ra, "metrics"), field(rb, "metrics")) {
            (Some(ma), Some(mb)) => (ma, mb),
            _ => return Err(format!("{name}: no `metrics` object")),
        };
        let row = |metric: &str, ea: Entry, eb: Entry, v: Verdict| {
            println!(
                "{name:<13} {metric:<24} {:>13.6} {:>10.5}..{:<10.5} {:>13.6} {:>10.5}..{:<10.5} {}",
                ea.median, ea.q1, ea.q3, eb.median, eb.q1, eb.q3, v.text()
            );
        };
        for e in &spec.end_to_end {
            match (entry(ma, &e.name), entry(mb, &e.name)) {
                (Some(ea), Some(eb)) => {
                    let v = judge(e, ea, eb);
                    ok &= v != Verdict::Worse;
                    row(&e.name, ea, eb, v);
                }
                _ => {
                    println!("{name:<13} {:<24} missing", e.name);
                    ok = false;
                }
            }
        }
        // The other virtual results have no bound: they are bit-identical
        // or `changed`. (Unbounded host measurements are information only.)
        for (metric, va) in ma.as_object().unwrap_or(&[]) {
            if spec.end_to_end.iter().any(|e| &e.name == metric) || field(va, "exact").is_none() {
                continue;
            }
            if let (Some(ea), Some(eb)) = (entry(ma, metric), entry(mb, metric)) {
                let same = ea.median.to_bits() == eb.median.to_bits();
                row(
                    metric,
                    ea,
                    eb,
                    if same {
                        Verdict::Same
                    } else {
                        Verdict::Changed
                    },
                );
            }
        }
        let failed_share = |r: &Value| {
            let num = |k| field(r, k).and_then(Value::as_num).unwrap_or(0.0);
            num("failed") / num("attempted").max(1.0)
        };
        if failed_share(rb) > failed_share(ra) {
            println!("{name:<13} more reps failed in {path_b} than in {path_a}");
            ok = false;
        }
        let fp = |r: &Value| {
            field(r, "virt_fingerprint")
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        let (fa, fb) = (fp(ra), fp(rb));
        println!(
            "{name:<13} {:<24} {:>13} {:>21} {:>13} {:>21}  {}",
            "virt_fingerprint",
            fa.as_deref().unwrap_or("?"),
            "",
            fb.as_deref().unwrap_or("?"),
            "",
            if fa == fb { "same" } else { "changed" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m".to_owned(),
            unit: "s".to_owned(),
            lower_is_better,
            bound,
        }
    }

    fn tight(median: f64) -> Entry {
        Entry {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = spec(true, 0.10);
        assert_eq!(judge(&lower, tight(1.0), tight(1.05)), Verdict::Same);
        assert_eq!(judge(&lower, tight(1.0), tight(1.15)), Verdict::Worse);
        assert_eq!(judge(&lower, tight(1.0), tight(0.85)), Verdict::Better);
        let higher = spec(false, 0.10);
        assert_eq!(judge(&higher, tight(1.0), tight(1.15)), Verdict::Better);
        assert_eq!(judge(&higher, tight(1.0), tight(0.85)), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let lower = spec(true, 0.10);
        let noisy = Entry {
            median: 1.0,
            q1: 0.9,
            q3: 1.1,
        };
        assert_eq!(judge(&lower, noisy, tight(1.0)), Verdict::Unresolved);
        assert_eq!(judge(&lower, tight(1.0), noisy), Verdict::Unresolved);
        assert_eq!(judge(&lower, tight(1.0), tight(2.0)), Verdict::Worse);
    }
}
