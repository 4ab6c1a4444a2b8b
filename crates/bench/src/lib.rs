//! The experiment runner behind `rogctl`: its argument parser ([`cli`]),
//! the table of the paper's experiments ([`experiments`], run by
//! `rogctl figure <name>`) and the helpers its entries share.
//!
//! Each entry regenerates one table or figure of the paper, an
//! ablation, an extension or a `BENCH_*.json` matrix (see `DESIGN.md`
//! for the index). Entries accept `--quick` to run a shortened smoke
//! version, print their results as text tables/series, and write CSV
//! files under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

use std::fs;
use std::path::{Path, PathBuf};

use rog_trainer::{report, ExperimentConfig, RunMetrics, RunOutcome};

/// Runs several experiment configs concurrently (each run is
/// self-contained and deterministic, so threading does not affect
/// results) and returns the full outcomes in config order.
pub fn run_outcomes(configs: &[ExperimentConfig]) -> Vec<RunOutcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| s.spawn(move || cfg.options().run()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}

/// [`run_outcomes`], keeping only each run's metrics.
pub fn run_all(configs: &[ExperimentConfig]) -> Vec<RunMetrics> {
    run_outcomes(configs)
        .into_iter()
        .map(|o| o.metrics)
        .collect()
}

/// The ROG runs (`rog`) or the baseline runs of a comparison.
pub fn side(runs: &[RunMetrics], rog: bool) -> impl Iterator<Item = &RunMetrics> {
    runs.iter()
        .filter(move |r| r.name.starts_with("ROG") == rog)
}

/// The strategy part of a run name (`"ROG-4 / cruda / outdoor"` →
/// `"ROG-4"`): the column label of every series table.
pub fn short_name(r: &RunMetrics) -> &str {
    r.name.split(" / ").next().unwrap_or(&r.name)
}

/// The metric at the run's last checkpoint (NaN when it never reached
/// one).
pub fn final_metric(r: &RunMetrics) -> f64 {
    r.checkpoints.last().map_or(f64::NAN, |c| c.metric)
}

/// The `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    dir.to_path_buf()
}

/// Writes a result artifact and reports its path.
pub fn write_artifact(name: &str, content: &str) {
    let path = results_dir().join(name);
    fs::write(&path, content).expect("write results file");
    println!("  -> wrote {}", path.display());
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a section header and `body`, and writes `body` to
/// `results/<file>`.
pub(crate) fn section(title: &str, file: &str, body: &str) {
    header(title);
    print!("{body}");
    write_artifact(file, body);
}

/// `n` evenly spaced probe times ending at `dur`.
pub fn time_probes(dur: f64, n: u32) -> Vec<f64> {
    (1..=n).map(|k| dur * f64::from(k) / f64::from(n)).collect()
}

/// Ten evenly spaced probe iterations up to the last checkpoint every
/// run reached (fewer when that is under ten iterations).
pub fn iteration_probes(runs: &[RunMetrics]) -> Vec<u64> {
    let max_iter = runs
        .iter()
        .flat_map(|r| r.checkpoints.last().map(|c| c.iter))
        .min()
        .unwrap_or(0);
    (1..=10)
        .map(|k| k * max_iter / 10)
        .filter(|&i| i > 0)
        .collect()
}

/// CSV header row: `first` then one column per run.
fn name_row(first: &str, runs: &[RunMetrics]) -> String {
    let mut out = String::from(first);
    for r in runs {
        out.push(',');
        out.push_str(short_name(r));
    }
    out.push('\n');
    out
}

/// Formats metric-vs-time series at fixed probe times, one row per
/// probe, one column per run (the textual form of the paper's accuracy
/// curves).
pub fn series_at_times(runs: &[RunMetrics], probes: &[f64]) -> String {
    let mut out = name_row("time_s", runs);
    for &t in probes {
        out.push_str(&format!("{t:.0}"));
        for r in runs {
            match report::metric_at_time(r, t) {
                Some(m) => out.push_str(&format!(",{m:.2}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Formats metric-vs-iteration series at fixed probe iterations.
pub fn series_at_iterations(runs: &[RunMetrics], probes: &[u64]) -> String {
    let mut out = name_row("iteration", runs);
    for &it in probes {
        out.push_str(&format!("{it}"));
        for r in runs {
            match report::metric_at_iteration(r, it as f64) {
                Some(m) => out.push_str(&format!(",{m:.2}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// The four panels shared by Fig. 1, 6 and 7 — (a) time composition,
/// (b) metric vs iteration, (c) metric vs wall-clock time, (d) energy to
/// reach a ladder of metric targets — printed and written as
/// `results/fig<fig>{a,b,c,d}_*.csv`. Whether the panels read as
/// accuracy (CRUDA) or trajectory error (CRIMP) follows the runs'
/// own metric.
pub fn four_panel_report(fig: u32, runs: &[RunMetrics], dur: f64) {
    let metric_name = runs.first().map_or("metric", |r| r.metric_name.as_str());
    let higher_better = runs.first().is_none_or(|r| r.metric_higher_better);
    // (b, c, d file stems; d title noun; d first column).
    let (b_file, c_file, d_file, d_noun, d_col) = if higher_better {
        (
            "statistical_efficiency",
            "accuracy_vs_time",
            "energy_to_accuracy",
            "accuracy",
            "target_acc",
        )
    } else {
        (
            "error_vs_iteration",
            "error_vs_time",
            "energy_to_error",
            "trajectory-error",
            "target_error",
        )
    };

    section(
        &format!("Fig. {fig}a — average time composition of a training iteration (s)"),
        &format!("fig{fig}a_composition.csv"),
        &report::composition_table(runs),
    );
    section(
        &format!("Fig. {fig}b — statistical efficiency ({metric_name} vs iteration)"),
        &format!("fig{fig}b_{b_file}.csv"),
        &series_at_iterations(runs, &iteration_probes(runs)),
    );
    section(
        &format!("Fig. {fig}c — {metric_name} vs wall-clock time (s)"),
        &format!("fig{fig}c_{c_file}.csv"),
        &series_at_times(runs, &time_probes(dur, 12)),
    );

    let finals = runs
        .iter()
        .flat_map(|r| r.checkpoints.last().map(|c| c.metric));
    let best_final = if higher_better {
        finals.fold(f64::NEG_INFINITY, f64::max)
    } else {
        finals.fold(f64::INFINITY, f64::min)
    };
    let mut d = name_row(d_col, runs);
    for k in 0..6 {
        // Six targets stepping up from an easy one past the best run's.
        let (target, label) = if higher_better {
            let t = best_final - 8.0 + k as f64 * 1.6;
            (t, format!("{t:.1}"))
        } else {
            let t = best_final + 0.1 + k as f64 * 0.15;
            (t, format!("{t:.2}"))
        };
        d.push_str(&label);
        for r in runs {
            match report::energy_to_reach(r, target) {
                Some(j) => d.push_str(&format!(",{j:.0}")),
                None => d.push_str(",-"),
            }
        }
        d.push('\n');
    }
    section(
        &format!("Fig. {fig}d — energy (J) to reach {d_noun} targets"),
        &format!("fig{fig}d_{d_file}.csv"),
        &d,
    );
}

/// Formats a float for a `BENCH_*.json` artifact: non-finite values
/// become `null`, and `+ 0.0` folds IEEE −0.0 into +0.0 so artifacts
/// never print "-0".
pub fn json_f64(x: f64) -> String {
    let x = x + 0.0;
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A [`RunMetrics`] field that only some `BENCH_*.json` matrices report
/// on top of the core ones (see [`JsonCell::metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    /// `lost_bytes`, after `wasted_bytes`.
    LostBytes,
    /// `corrupt_bytes`, after the lost bytes.
    CorruptBytes,
    /// `offline_secs`, after `stall_secs`.
    OfflineSecs,
    /// The `[time, iter, metric]` checkpoint curve, last.
    AccuracyVsTime,
}

/// One object of a `BENCH_*.json` cell array: ordered `"key": value`
/// fields rendered at the artifacts' two-level indent.
#[derive(Debug, Default)]
pub struct JsonCell(Vec<String>);

impl JsonCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field whose value prints as a bare JSON token
    /// (integers, booleans).
    pub fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push(format!("      {key:?}: {value}"));
        self
    }

    /// Appends a string field.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("{value:?}"))
    }

    /// Appends a float field through [`json_f64`].
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, json_f64(value))
    }

    /// Appends the run's name and the core metric fields every matrix
    /// reports — iterations, energy, useful/wasted bytes, stall seconds,
    /// final metric — with the requested `extras` slotted into their
    /// fixed positions.
    pub fn metrics(self, r: &RunMetrics, extras: &[Extra]) -> Self {
        let has = |e: Extra| extras.contains(&e);
        let mut c = self
            .text("name", &r.name)
            .num("mean_iterations", r.mean_iterations)
            .num("total_energy_j", r.total_energy_j)
            .num("useful_bytes", r.useful_bytes)
            .num("wasted_bytes", r.wasted_bytes);
        if has(Extra::LostBytes) {
            c = c.num("lost_bytes", r.lost_bytes);
        }
        if has(Extra::CorruptBytes) {
            c = c.num("corrupt_bytes", r.corrupt_bytes);
        }
        c = c.num("stall_secs", r.stall_secs);
        if has(Extra::OfflineSecs) {
            c = c.num("offline_secs", r.offline_secs);
        }
        c = c.num("final_metric", final_metric(r));
        if has(Extra::AccuracyVsTime) {
            let pts: Vec<String> = r
                .checkpoints
                .iter()
                .map(|c| format!("[{}, {}, {}]", json_f64(c.time), c.iter, json_f64(c.metric)))
                .collect();
            c = c.raw("accuracy_vs_time", format_args!("[{}]", pts.join(", ")));
        }
        c
    }
}

/// Renders cells as a JSON array at the artifacts' top-level indent,
/// one object per cell.
pub fn cells_json(cells: &[JsonCell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| format!("    {{\n{}\n    }}", c.0.join(",\n")))
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}
