//! Results of the timed pass: the metric table, the contract line the
//! driver reads, and the result file `compare` reads.

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::Summary;
use crate::timed::{Reference, Rep};

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median and quartiles over the reps.
    pub summary: Summary,
    /// Timings only: the raw-seconds median behind a speed-normalised
    /// one, as information.
    pub raw_median: Option<f64>,
    /// Whether the value is a virtual result, which repeats exactly for
    /// a seed (as opposed to a measurement of the host).
    pub exact: bool,
}

/// The timed pass of one workload.
pub struct TimedResult {
    /// Workload name.
    pub workload: &'static str,
    /// Reps attempted.
    pub attempted: u64,
    /// Reps that panicked, diverged from the first, or failed a check.
    pub failed: u64,
    /// What went wrong, one line per failed rep.
    pub errors: Vec<String>,
    /// FNV-1a over the bits of the virtual results (0 with no
    /// successful rep).
    pub fingerprint: u64,
    /// Median calibration-kernel time over the reps: which speed phase
    /// the machine was in (information).
    pub calib_ms: f64,
    /// Every end-to-end metric, in report order.
    pub metrics: Vec<Metric>,
}

/// Summarises the successful `reps` of a workload.
pub fn timed_result(
    workload: &'static str,
    reps: &[Rep],
    reference: Option<&Reference>,
    errors: Vec<String>,
) -> TimedResult {
    let attempted = (reps.len() + errors.len()) as u64;
    let failed = errors.len() as u64;
    let mut metrics = Vec::new();
    if let Some(r) = reference {
        let v = &r.virt;
        let col = |f: &dyn Fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
        let mut timing = |name, unit, norm: &dyn Fn(&Rep) -> f64, raw: &dyn Fn(&Rep) -> f64| {
            metrics.push(Metric {
                name,
                unit,
                summary: col(norm),
                raw_median: Some(col(raw).median),
                exact: false,
            });
        };
        timing("setup_s", "s", &|r| r.setup_s, &|r| r.setup_raw_s);
        timing(
            "run_ms_per_wire_mb",
            "ms/MB",
            &|r| r.run_s * 1e3 / v.useful_mb,
            &|r| r.run_raw_s * 1e3 / v.useful_mb,
        );
        timing("run_s", "s", &|r| r.run_s, &|r| r.run_raw_s);
        let mut measured = |name, unit, f: &dyn Fn(&Rep) -> f64| {
            metrics.push(Metric {
                name,
                unit,
                summary: col(f),
                raw_median: None,
                exact: false,
            });
        };
        measured("allocs_per_wire_mb", "1/MB", &|r| {
            r.allocs as f64 / v.useful_mb
        });
        measured("allocs_k", "k", &|r| r.allocs as f64 / 1e3);
        measured("peak_heap_mb", "MB", &|r| r.peak_heap_bytes as f64 / 1e6);
        // Virtual results repeat exactly: every rep equals the first.
        let mut exact = |name, unit, value: f64| {
            metrics.push(Metric {
                name,
                unit,
                summary: Summary {
                    n: reps.len(),
                    q1: value,
                    median: value,
                    q3: value,
                },
                raw_median: None,
                exact: true,
            });
        };
        exact("wire_mb_per_iter", "MB", v.wire_mb_per_iter);
        exact("wire_useful_share", "ratio", 1.0 - v.wire_waste_share);
        exact("wire_waste_share", "ratio", v.wire_waste_share);
        exact("virt_iters_per_worker", "count", v.iters_per_worker);
        exact("virt_stall_share", "ratio", v.stall_share);
        exact("virt_energy_j_per_iter", "J", v.energy_j_per_iter);
        if let Some(t) = v.time_to_target_s {
            exact("virt_time_to_target_s", "s", t);
        }
        exact("failed_share", "ratio", failed as f64 / attempted as f64);
    }
    TimedResult {
        workload,
        attempted,
        failed,
        errors,
        fingerprint: reference.map_or(0, Reference::fingerprint),
        calib_ms: Summary::of(&reps.iter().map(|r| r.calib_s * 1e3).collect::<Vec<_>>()).median,
        metrics,
    }
}

impl TimedResult {
    /// Whether every rep succeeded and reproduced the first.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table.
    pub fn print(&self) {
        println!(
            "== {}: timed pass, {} reps, {} failed, virt_fingerprint {:016x}, calibration median {:.1} ms",
            self.workload, self.attempted, self.failed, self.fingerprint, self.calib_ms
        );
        for e in &self.errors {
            println!("   FAILED: {e}");
        }
        println!(
            "   {:<24} {:>6} {:>14} {:>14} {:>14} {:>7} {:>3} {:>12}",
            "metric", "unit", "median", "q1", "q3", "spread", "n", "raw median"
        );
        for m in &self.metrics {
            println!(
                "   {:<24} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>6.1}% {:>3} {:>12}",
                m.name,
                m.unit,
                m.summary.median,
                m.summary.q1,
                m.summary.q3,
                100.0 * m.summary.spread(),
                m.summary.n,
                m.raw_median.map_or(String::new(), |r| format!("{r:.6}")),
            );
        }
    }

    /// The driver's result line: exactly the end-to-end metrics of
    /// `BENCHMARK.json`.
    pub fn contract_line(&self, spec: &Spec) -> Json {
        contract_line(
            spec.end_to_end.iter().map(|e| e.name.as_str()),
            |name| {
                let m = self.metrics.iter().find(|m| m.name == name)?;
                Some((m.summary.median, m.unit))
            },
            self.correct(),
            self.attempted,
            self.failed,
        )
    }

    /// This workload's entry in the result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "virt_fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("calib_ms", Json::Num(self.calib_ms)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let s = m.summary;
                    let mut fields = vec![
                        ("unit", Json::str(m.unit)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ];
                    if let Some(r) = m.raw_median {
                        fields.push(("raw_median", Json::Num(r)));
                    }
                    if m.exact {
                        fields.push(("exact", Json::Bool(true)));
                    }
                    (m.name, Json::obj(fields))
                })),
            ),
        ])
    }
}

/// The one-line result object the driver parses: `names` are the metrics
/// `BENCHMARK.json` promises, `lookup` finds each one's value and unit. A
/// promised metric that is missing makes the result incorrect.
pub fn contract_line<'a>(
    names: impl Iterator<Item = &'a str>,
    lookup: impl Fn(&str) -> Option<(f64, &'static str)>,
    mut correct: bool,
    attempted: u64,
    failed: u64,
) -> Json {
    let metrics: Vec<(&str, Json)> = names
        .filter_map(|name| {
            let found = lookup(name);
            correct &= found.is_some();
            let (value, unit) = found?;
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            Some((name, entry))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}
