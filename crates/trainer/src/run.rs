//! The run API: a builder ([`RunOptions`]) over
//! [`ExperimentConfig`] and a single entry point ([`run_with`])
//! returning a [`RunOutcome`].
//!
//! Every launch path — benches, `rogctl`, examples, tests — goes through
//! `cfg.options()…run()` (or the free function [`run_with`]), and the
//! outcome always carries the metrics plus an optional journal.

use crate::config::ExperimentConfig;
use crate::metrics::RunMetrics;
use rog_obs::Journal;

/// Engine-level scale counters, reported on every [`RunOutcome`].
///
/// These are *measurements of the simulation machinery itself* —
/// deterministic across hosts, and deliberately kept out of
/// [`RunMetrics`] so the serialized metrics stay byte-identical to
/// earlier releases. The model-granularity baselines report all
/// zeros; only the ROG row engine instruments them.
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
    /// Engine-level scale counters (always present; zero for the
    /// model-granularity baselines).
    pub stats: FleetStats,
}

/// Builder describing how to launch an experiment.
///
/// Construct via [`ExperimentConfig::options`] or [`RunOptions::new`],
/// tweak with the chained setters, then call [`RunOptions::run`].
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
    traced: bool,
    transport: TransportChoice,
}

/// Which transport plane a run executes on.
///
/// The default, [`TransportChoice::Sim`], is the deterministic
/// discrete-event simulation — bit-reproducible, no sockets. The two
/// socket variants launch one role of a live multi-process cluster
/// over real UDP/TCP (see [`crate::live`]); they are inherently
/// non-deterministic and reconciled against sim runs statistically.
#[derive(Debug, Clone, Default)]
pub enum TransportChoice {
    /// In-process deterministic simulation (the default).
    #[default]
    Sim,
    /// Live parameter server: listen for workers, coordinate the run.
    Serve(crate::live::ServeOptions),
    /// Live worker: join a server and train for real.
    Join(crate::live::JoinOptions),
}

impl RunOptions {
    /// Wraps a config with default launch options (`traced` follows
    /// the config's own `trace` flag).
    pub fn new(cfg: ExperimentConfig) -> Self {
        let traced = cfg.trace;
        Self {
            cfg,
            traced,
            transport: TransportChoice::Sim,
        }
    }

    /// Requests (or suppresses) the event journal in the outcome.
    pub fn traced(mut self, traced: bool) -> Self {
        self.traced = traced;
        self
    }

    /// Selects the transport plane (default: the deterministic sim).
    pub fn transport(mut self, transport: TransportChoice) -> Self {
        self.transport = transport;
        self
    }

    /// Runs the experiment. Equivalent to [`run_with`]`(&self)`.
    ///
    /// # Panics
    ///
    /// Panics if a socket transport was selected and the live run
    /// fails (bad address, config mismatch, join timeout); use
    /// [`run_with_result`] to handle those errors.
    pub fn run(&self) -> RunOutcome {
        run_with(self)
    }
}

/// Runs an experiment described by `options` and returns its
/// [`RunOutcome`].
///
/// This is the single launch path; tracing only decides whether the
/// journal is recorded and returned, never what the engine does.
pub fn run_with(options: &RunOptions) -> RunOutcome {
    run_with_result(options).unwrap_or_else(|e| panic!("live run failed: {e}"))
}

/// [`run_with`] with live-transport errors surfaced as `Err`. The sim
/// path is infallible; only `Serve`/`Join` can return `Err`.
pub fn run_with_result(options: &RunOptions) -> Result<RunOutcome, String> {
    let cfg = ExperimentConfig {
        trace: options.traced,
        ..options.cfg.clone()
    };
    match &options.transport {
        TransportChoice::Sim => {
            let (metrics, journal, stats) = crate::engine::run_full(&cfg);
            Ok(RunOutcome {
                metrics,
                journal: options.traced.then_some(journal),
                stats,
            })
        }
        TransportChoice::Serve(sopts) => crate::live::serve(&cfg, sopts),
        TransportChoice::Join(jopts) => crate::live::join(&cfg, jopts),
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
        // Under `obs-off` every emission site is compiled out.
        assert_eq!(journal.recorded() > 0, cfg!(not(feature = "obs-off")));
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
