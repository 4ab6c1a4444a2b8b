//! Multi-seed aggregation: mean ± std over repeated runs.
//!
//! The paper reports single runs per configuration (a real robot team is
//! expensive); the simulator is not, so headline comparisons can carry
//! confidence. Every run is deterministic per seed — a sweep is exactly
//! reproducible. This module only aggregates; the runs themselves are
//! launched by the caller (`rog_bench::run_all` fans seeds out over
//! threads).

use crate::metrics::RunMetrics;
use crate::report;

/// Sample mean and (population) standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

impl Aggregate {
    /// Aggregates an iterator of samples (NaNs are skipped).
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let xs: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        let n = xs.len();
        if n == 0 {
            return Self {
                mean: f64::NAN,
                std: f64::NAN,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Self {
            mean,
            std: var.sqrt(),
            n,
        }
    }
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.std, self.n)
    }
}

/// Mean ± std of the metric at wall-clock time `t` across runs.
pub fn metric_at_time(runs: &[RunMetrics], t: f64) -> Aggregate {
    Aggregate::of(runs.iter().filter_map(|r| report::metric_at_time(r, t)))
}

/// Mean ± std of completed iterations per worker.
pub fn iterations(runs: &[RunMetrics]) -> Aggregate {
    Aggregate::of(runs.iter().map(|r| r.mean_iterations))
}

/// Mean ± std of per-iteration stall seconds.
pub fn stall(runs: &[RunMetrics]) -> Aggregate {
    Aggregate::of(runs.iter().map(|r| r.composition.stall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};

    #[test]
    fn aggregate_math() {
        let a = Aggregate::of([1.0, 2.0, 3.0]);
        assert_eq!(a.n, 3);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((a.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(format!("{a}"), "2.00 ± 0.82 (n=3)");
    }

    #[test]
    fn aggregate_skips_nan_and_handles_empty() {
        let a = Aggregate::of([1.0, f64::NAN, 3.0]);
        assert_eq!(a.n, 2);
        assert_eq!(a.mean, 2.0);
        let e = Aggregate::of(std::iter::empty());
        assert_eq!(e.n, 0);
        assert!(e.mean.is_nan());
    }

    #[test]
    fn seed_sweep_produces_distinct_deterministic_runs() {
        let run = |seed| {
            ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Stable,
                strategy: Strategy::Rog { threshold: 4 },
                model_scale: ModelScale::Small,
                n_workers: 2,
                duration_secs: 60.0,
                eval_every: 5,
                seed,
                ..ExperimentConfig::default()
            }
            .options()
            .run()
            .metrics
        };
        let runs = [run(1), run(2)];
        assert_ne!(runs[0].checkpoints, runs[1].checkpoints);
        assert_eq!(runs[0].differences(&run(1)), Vec::<String>::new());
        let it = iterations(&runs);
        assert_eq!(it.n, 2);
        assert!(it.mean > 0.0);
    }
}
