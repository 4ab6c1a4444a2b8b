//! End-to-end distributed-training harness.
//!
//! This crate assembles everything: it builds a simulated robot cluster
//! (workload shards, per-device compute model, shared wireless channel),
//! runs a synchronization strategy over it with an event-driven engine,
//! and records the measurements the paper reports — metric-vs-iteration
//! (statistical efficiency), metric-vs-wall-clock, per-iteration time
//! composition (compute / communicate / stall) and energy.
//!
//! Two engines share the substrate and drive the same roles,
//! [`rog_core::WorkerRole`] and [`rog_core::ServerRole`]:
//!
//! * [`engine::model`] drives the model-granularity baselines (BSP, SSP,
//!   ASP, FLOWN, DSSP, ABS): whole-model pushes and pulls through a
//!   one-shard [`rog_core::ShardedServer`], the row engine's plane,
//!   behind the row gate ([`rog_core::gate::rsp_may_pull`]) with a
//!   bound per worker — SSP `t` as RSP threshold `t + 1` — that is a
//!   constant of the strategy or rewritten after every push by the
//!   FLOWN/DSSP/ABS rule in `engine/control.rs`, the one module that
//!   also holds the row engine's controllers.
//! * [`engine::row`] drives ROG: per-row speculative transmission with
//!   MTA continuation, the shared MTA-time budget, importance-ordered
//!   rows and the RSP gate; the roles own the [`rog_core::RogWorker`]s
//!   and the plane.
//!
//! "Tens of lines of code to apply" (paper Sec. I): running a full
//! experiment is a config plus one call:
//!
//! ```
//! use rog_trainer::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};
//!
//! let outcome = ExperimentConfig {
//!     workload: WorkloadKind::Cruda,
//!     environment: Environment::Stable,
//!     strategy: Strategy::Rog { threshold: 4 },
//!     model_scale: ModelScale::Small,
//!     n_workers: 2,
//!     duration_secs: 60.0,
//!     eval_every: 10,
//!     ..ExperimentConfig::default()
//! }
//! .options()
//! .run();
//! assert!(!outcome.metrics.checkpoints.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod compute;
mod config;
pub mod engine;
pub mod live;
mod metrics;
pub mod report;
mod run;
pub mod stats;

pub use cluster::{Cluster, Device, DeviceKind};
pub use config::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};
pub use live::{check_socket_compatible, JoinOptions, ServeOptions};
pub use metrics::{ByteAccount, Checkpoint, MicroSample, RunMetrics, TimeComposition};
pub use run::{FleetStats, RunOptions, RunOutcome};
