//! Event-driven training engines.
//!
//! [`model`] runs the model-granularity baselines (BSP / SSP / ASP /
//! FLOWN / DSSP / ABS), [`row`] runs ROG (RSP + ATP) and the
//! adaptive-bound hybrid; both drive rog-core's worker and server roles.
//! Both share [`common::EngineCtx`]: the simulated cluster, the
//! deterministic event queue, each worker's draw model, the run record
//! (per-device state timelines) and the connectivity state the one
//! fault lifecycle in [`common`] moves.

pub mod common;
mod control;
pub mod model;
pub mod row;

use rog_obs::Journal;

use crate::config::{ExperimentConfig, Strategy};
use crate::metrics::RunMetrics;
use crate::run::FleetStats;

/// Runs one experiment, dispatching on the configured strategy, and
/// returns its metrics, event journal and engine-level [`FleetStats`].
/// The journal is empty unless `cfg.trace` is set. The model-granularity
/// baselines report only what their parameter plane counts
/// (`nonfinite_dropped`); the event, version and aggregator counters
/// are the row engine's and read zero for them.
pub fn run_full(cfg: &ExperimentConfig) -> (RunMetrics, Journal, FleetStats) {
    match cfg.strategy {
        Strategy::Bsp
        | Strategy::Ssp { .. }
        | Strategy::Asp
        | Strategy::Flown { .. }
        | Strategy::Dssp { .. }
        | Strategy::Abs { .. } => model::run(cfg),
        Strategy::Rog { .. } | Strategy::RogAdaptive { .. } => row::run(cfg),
    }
}
