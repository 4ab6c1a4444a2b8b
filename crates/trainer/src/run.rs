//! The run API: a builder ([`RunOptions`]) over
//! [`ExperimentConfig`] whose [`RunOptions::run`] launches the
//! simulation and returns a [`RunOutcome`].
//!
//! Every simulated launch — benches, `rogctl`, examples, tests — goes
//! through `cfg.options()…run()`, and the outcome always carries the
//! metrics plus an optional journal. A live socket role is launched by
//! calling [`crate::live::serve`] / [`crate::live::join`] directly.

use crate::config::ExperimentConfig;
use crate::metrics::RunMetrics;
use rog_obs::Journal;

/// Engine-level scale counters, reported on every [`RunOutcome`].
///
/// These are *measurements of the simulation machinery itself* —
/// deterministic across hosts, and deliberately kept out of
/// [`RunMetrics`] so the serialized metrics stay byte-identical to
/// earlier releases. The model-granularity baselines fill in only
/// `nonfinite_dropped`, from the parameter plane they share with the
/// ROG row engine; the other counters are the row engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Events dispatched by the engine's event loop (flow completions,
    /// fault edges, queue pops) — a wall-clock-free progress measure.
    pub sim_events: u64,
    /// Events ever pushed onto the simulation queue.
    pub queue_scheduled: u64,
    /// Peak estimated heap footprint of the sharded version store, in
    /// bytes, sampled after every push.
    pub peak_version_bytes: u64,
    /// Aggregator merge windows flushed upstream (0 in flat topology).
    pub agg_flushes: u64,
    /// Distinct rows forwarded upstream across all flushes.
    pub agg_upstream_rows: u64,
    /// Raw member rows absorbed into merge windows before dedup.
    pub agg_raw_rows: u64,
    /// Member pulls fanned out through aggregators.
    pub agg_pulls: u64,
    /// NaN/Inf gradient values the server zeroed at ingest: non-zero
    /// means a corrupted payload got past a link's CRC or a worker
    /// diverged.
    pub nonfinite_dropped: u64,
}

/// Everything a run produces: the measurement bundle plus, when
/// tracing was requested, the event journal.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Checkpoints, time composition, byte/energy accounting.
    pub metrics: RunMetrics,
    /// The event journal — `Some` iff the run was traced.
    pub journal: Option<Journal>,
    /// Engine-level scale counters (always present; the
    /// model-granularity baselines report only `nonfinite_dropped`).
    pub stats: FleetStats,
}

/// Builder describing how to launch an experiment.
///
/// Construct via [`ExperimentConfig::options`] or [`RunOptions::new`],
/// optionally set [`RunOptions::traced`], then call [`RunOptions::run`].
///
/// ```
/// use rog_trainer::{ExperimentConfig, Strategy};
///
/// let cfg = ExperimentConfig {
///     strategy: Strategy::Rog { threshold: 4 },
///     n_workers: 2,
///     duration_secs: 60.0,
///     eval_every: 10,
///     ..ExperimentConfig::default()
/// };
/// let outcome = cfg.options().traced(true).run();
/// assert!(outcome.journal.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RunOptions {
    cfg: ExperimentConfig,
}

impl RunOptions {
    /// Wraps a config with default launch options (tracing follows
    /// the config's own `trace` flag).
    pub fn new(cfg: ExperimentConfig) -> Self {
        Self { cfg }
    }

    /// Requests (or suppresses) the event journal in the outcome.
    pub fn traced(mut self, traced: bool) -> Self {
        self.cfg.trace = traced;
        self
    }

    /// Runs the experiment on the deterministic in-process simulation.
    ///
    /// Tracing only decides whether the journal is recorded and
    /// returned, never what the engine does.
    pub fn run(&self) -> RunOutcome {
        let (metrics, journal, stats) = crate::engine::run_full(&self.cfg);
        RunOutcome {
            metrics,
            journal: self.cfg.trace.then_some(journal),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            model_scale: crate::config::ModelScale::Small,
            n_workers: 2,
            duration_secs: 60.0,
            eval_every: 5,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn untraced_outcome_has_no_journal() {
        let out = tiny().options().run();
        assert!(out.journal.is_none());
        assert!(!out.metrics.checkpoints.is_empty());
    }

    #[test]
    fn traced_outcome_carries_a_journal() {
        let out = tiny().options().traced(true).run();
        let journal = out.journal.expect("traced run must return a journal");
        assert!(journal.recorded() > 0);
    }

    #[test]
    fn flat_rog_run_reports_fleet_stats_without_aggregator_traffic() {
        let out = tiny().options().run();
        assert!(out.stats.sim_events > 0);
        assert!(out.stats.queue_scheduled > 0);
        assert!(out.stats.peak_version_bytes > 0);
        assert_eq!(out.stats.agg_flushes, 0);
        assert_eq!(out.stats.agg_raw_rows, 0);
        assert_eq!(out.stats.agg_pulls, 0);
    }

    #[test]
    fn hierarchical_run_reports_aggregator_traffic() {
        let cfg = ExperimentConfig {
            n_aggregators: 1,
            ..tiny()
        };
        let out = cfg.options().run();
        assert!(out.stats.agg_flushes > 0);
        assert!(out.stats.agg_raw_rows >= out.stats.agg_upstream_rows);
        assert!(out.stats.agg_pulls > 0);
    }
}
