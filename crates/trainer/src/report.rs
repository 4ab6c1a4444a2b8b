//! Derived comparisons: metric-at-time, energy-to-reach, summary tables,
//! and JSON persistence of run metrics (the machine-readable artifact
//! the `results/` CSVs are derived from).

use crate::metrics::{Checkpoint, RunMetrics};

/// Serializes runs to pretty JSON.
///
/// # Panics
///
/// Panics only if serialization fails, which cannot happen for these
/// plain data types.
pub fn runs_to_json(runs: &[RunMetrics]) -> String {
    serde_json::to_string_pretty(runs).expect("RunMetrics serializes")
}

/// Linearly interpolated metric at wall-clock time `t` (clamped to the
/// observed range). Returns `None` if the run has no checkpoints.
pub fn metric_at_time(run: &RunMetrics, t: f64) -> Option<f64> {
    interpolate(&run.checkpoints, |c| c.time, |c| c.metric, t)
}

/// Linearly interpolated metric at iteration `iter`.
pub fn metric_at_iteration(run: &RunMetrics, iter: f64) -> Option<f64> {
    interpolate(&run.checkpoints, |c| c.iter as f64, |c| c.metric, iter)
}

/// Energy (J) the run needed to first reach `target` metric, linearly
/// interpolated between checkpoints. `None` if the target was never
/// reached.
pub fn energy_to_reach(run: &RunMetrics, target: f64) -> Option<f64> {
    first_crossing(
        &run.checkpoints,
        |c| c.metric,
        |c| c.energy_j,
        target,
        run.metric_higher_better,
    )
}

/// Wall-clock seconds to first reach `target` metric.
pub fn time_to_reach(run: &RunMetrics, target: f64) -> Option<f64> {
    first_crossing(
        &run.checkpoints,
        |c| c.metric,
        |c| c.time,
        target,
        run.metric_higher_better,
    )
}

fn interpolate(
    cks: &[Checkpoint],
    x: impl Fn(&Checkpoint) -> f64,
    y: impl Fn(&Checkpoint) -> f64,
    at: f64,
) -> Option<f64> {
    if cks.is_empty() {
        return None;
    }
    if at <= x(&cks[0]) {
        return Some(y(&cks[0]));
    }
    for w in cks.windows(2) {
        let (x0, x1) = (x(&w[0]), x(&w[1]));
        if at <= x1 {
            let f = if x1 > x0 { (at - x0) / (x1 - x0) } else { 0.0 };
            return Some(y(&w[0]) + f * (y(&w[1]) - y(&w[0])));
        }
    }
    Some(y(cks.last().expect("non-empty")))
}

fn first_crossing(
    cks: &[Checkpoint],
    metric: impl Fn(&Checkpoint) -> f64,
    cost: impl Fn(&Checkpoint) -> f64,
    target: f64,
    higher_better: bool,
) -> Option<f64> {
    let reached = |m: f64| {
        if higher_better {
            m >= target
        } else {
            m <= target
        }
    };
    if cks.is_empty() {
        return None;
    }
    if reached(metric(&cks[0])) {
        return Some(cost(&cks[0]));
    }
    for w in cks.windows(2) {
        let (m0, m1) = (metric(&w[0]), metric(&w[1]));
        if reached(m1) {
            let f = if (m1 - m0).abs() > 1e-12 {
                ((target - m0) / (m1 - m0)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            return Some(cost(&w[0]) + f * (cost(&w[1]) - cost(&w[0])));
        }
    }
    None
}

/// Formats a per-run time-composition table (Figs. 1a / 6a / 7a).
pub fn composition_table(runs: &[RunMetrics]) -> String {
    let mut out =
        String::from("system        compute(s)  comm(s)  stall(s)  offline(s)  total(s)  iters\n");
    for r in runs {
        let c = r.composition;
        out.push_str(&format!(
            "{:<12}  {:>10.2}  {:>7.2}  {:>8.2}  {:>10.2}  {:>8.2}  {:>5.0}\n",
            r.name.split(" / ").next().unwrap_or(&r.name),
            c.compute,
            c.communicate,
            c.stall,
            c.offline,
            c.total(),
            r.mean_iterations,
        ));
    }
    out
}

/// Formats checkpoints as CSV (`system,iter,time_s,metric,energy_j`).
pub fn checkpoints_csv(runs: &[RunMetrics]) -> String {
    let mut out = String::from("system,iter,time_s,metric,energy_j\n");
    for r in runs {
        let name = r.name.split(" / ").next().unwrap_or(&r.name).to_owned();
        for c in &r.checkpoints {
            out.push_str(&format!(
                "{},{},{:.1},{:.4},{:.0}\n",
                name, c.iter, c.time, c.metric, c.energy_j
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimeComposition;

    fn run_with(cks: Vec<Checkpoint>, higher: bool) -> RunMetrics {
        RunMetrics {
            name: "X / cruda / outdoor".into(),
            metric_name: "accuracy %".into(),
            metric_higher_better: higher,
            checkpoints: cks,
            composition: TimeComposition {
                compute: 2.0,
                communicate: 1.0,
                stall: 0.5,
                offline: 0.0,
            },
            mean_iterations: 100.0,
            duration: 1000.0,
            total_energy_j: 5000.0,
            micro: vec![],
            useful_bytes: 0.0,
            wasted_bytes: 0.0,
            lost_bytes: 0.0,
            corrupt_bytes: 0.0,
            stall_secs: 50.0,
            offline_secs: 0.0,
            final_model_divergence: 0.0,
        }
    }

    fn ck(iter: u64, time: f64, metric: f64, energy: f64) -> Checkpoint {
        Checkpoint {
            iter,
            time,
            metric,
            energy_j: energy,
        }
    }

    #[test]
    fn metric_interpolates_between_checkpoints() {
        let r = run_with(
            vec![ck(50, 100.0, 60.0, 1000.0), ck(100, 200.0, 70.0, 2000.0)],
            true,
        );
        assert_eq!(metric_at_time(&r, 150.0), Some(65.0));
        assert_eq!(metric_at_time(&r, 50.0), Some(60.0)); // clamp below
        assert_eq!(metric_at_time(&r, 500.0), Some(70.0)); // clamp above
        assert_eq!(metric_at_iteration(&r, 75.0), Some(65.0));
    }

    #[test]
    fn energy_to_reach_interpolates_crossing() {
        let r = run_with(
            vec![ck(50, 100.0, 60.0, 1000.0), ck(100, 200.0, 70.0, 2000.0)],
            true,
        );
        assert_eq!(energy_to_reach(&r, 65.0), Some(1500.0));
        assert_eq!(energy_to_reach(&r, 60.0), Some(1000.0));
        assert_eq!(energy_to_reach(&r, 80.0), None);
    }

    #[test]
    fn lower_is_better_metrics_cross_downward() {
        let r = run_with(
            vec![ck(50, 100.0, 2.0, 1000.0), ck(100, 200.0, 1.0, 2000.0)],
            false,
        );
        assert_eq!(energy_to_reach(&r, 1.5), Some(1500.0));
        assert_eq!(time_to_reach(&r, 1.0), Some(200.0));
        assert_eq!(energy_to_reach(&r, 0.5), None);
    }

    #[test]
    fn tables_render_rows() {
        let r = run_with(vec![ck(50, 100.0, 60.0, 1000.0)], true);
        let t = composition_table(std::slice::from_ref(&r));
        assert!(t.contains('X'));
        let csv = checkpoints_csv(&[r]);
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("X,50,100.0"));
    }

    #[test]
    fn empty_run_yields_none() {
        let r = run_with(vec![], true);
        assert_eq!(metric_at_time(&r, 10.0), None);
        assert_eq!(energy_to_reach(&r, 1.0), None);
    }
}
