//! High-level convenience re-exports for the most common entry points.
//!
//! Everything here is also reachable through the per-crate modules; this
//! flat surface exists so quickstart code can write `rog::prelude::*`.
//!
//! # Stable-surface policy
//!
//! The prelude is the *stable* API of the workspace: it carries only
//! the types a user needs to configure, launch and inspect an
//! experiment — the [`ExperimentConfig`](rog_trainer::ExperimentConfig)
//! family, the [`RunOptions`](rog_trainer::RunOptions) /
//! [`RunOutcome`](rog_trainer::RunOutcome) launch API, fault/loss
//! scenario inputs, the row-shard map, and the journal types a traced
//! run returns. Engine internals (workers, servers, channels, tensors,
//! RNGs) are deliberately *not* re-exported here: they remain reachable
//! through the per-crate modules (`rog::core`, `rog::net`,
//! `rog::tensor`, …) for tests and power users, but carry no stability
//! promise and may be reshaped by any release. Additions to the prelude
//! are fine; removals or signature changes of prelude items require a
//! deprecation cycle.

/// The "just train something" prelude.
///
/// # Example
///
/// ```
/// use rog::prelude::*;
///
/// let outcome = ExperimentConfig {
///     workload: WorkloadKind::Cruda,
///     environment: Environment::Stable,
///     strategy: Strategy::Rog { threshold: 4 },
///     model_scale: ModelScale::Small,
///     n_workers: 2,
///     duration_secs: 40.0,
///     eval_every: 5,
///     ..ExperimentConfig::default()
/// }
/// .options()
/// .run();
/// assert!(outcome.metrics.mean_iterations > 0.0);
/// assert!(outcome.journal.is_none());
/// ```
pub mod prelude {
    pub use rog_compress::{CodecChoice, RowCodec};
    pub use rog_core::ShardMap;
    pub use rog_fault::FaultPlan;
    pub use rog_net::LossConfig;
    pub use rog_obs::{Journal, TraceSummary};
    pub use rog_trainer::{
        report, Environment, ExperimentConfig, FleetStats, JoinOptions, ModelScale, RunMetrics,
        RunOptions, RunOutcome, ServeOptions, Strategy, WorkloadKind,
    };
    pub use rog_transport::{SocketTransport, Transport};
}
