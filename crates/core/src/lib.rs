//! RSP + ATP: the contribution of the ROG paper.
//!
//! ROG breaks the granularity of gradient synchronization down from the
//! whole model to individual *rows* of each parameter matrix, and
//! schedules their transmission adaptively:
//!
//! * **RSP (Row Stale Parallel)** — a two-level staleness control
//!   (Sec. III-A, IV-A): the version of the same row across different
//!   workers, and of different rows within one worker, may each diverge
//!   by at most the staleness threshold. Implemented by
//!   [`RowVersionStore`] (parameter-server side, Algo 2 lines 7–9) and
//!   the mandatory-row rule of [`RogWorker::plan_push_into`] (worker side);
//!   the bound semantics both sides, the fuzzer and the invariant
//!   suites agree on are the predicates in [`gate`], next to the coarse
//!   SSP gate the model-granularity baselines run behind.
//!   [`ShardedServer`] is the parameter server itself (Algorithm 2), for
//!   ROG and the baselines alike: per-worker pending copies of the averaged gradients, kept per row
//!   and therefore shardable by row with no change to any value, and
//!   stored once per cohort of workers whose copies are bit-identical.
//!
//! * **ATP (Adaptive Transmission Protocol)** — [`ImportanceMetric`]
//!   (Algo 3) ranks rows by gradient magnitude plus staleness pressure,
//!   and speculative transmission (Algo 4, [`Leg`]) sends rows in that
//!   order under a shared time budget: [`mta::mta_fraction`] gives the minimum
//!   transmission amount that keeps RSP satisfiable (Table I), and
//!   [`MtaTimeTracker`] maintains the cross-device MTA-time estimate
//!   that aligns every device's transmission time.
//!
//! The push/pull cycle that strings these together is [`WorkerRole`] +
//! [`ServerRole`], which own the worker and server state (drivers read
//! it, and change it only through role methods): clockless, socketless
//! decisions driven by `rog-trainer`'s event-driven engines (row and
//! model granularity, over a simulated wireless channel) and its socket
//! path.
//! Everything algorithmic about ROG is in this crate, independent of
//! time and transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
pub mod gate;
mod importance;
mod leg;
pub mod mta;
mod mta_time;
mod roles;
mod rows;
mod shard;
mod version;
mod worker;

pub use aggregator::{AggregatorMap, AggregatorPlane, AggregatorStats, MergeSummary};
pub use importance::{ImportanceMetric, ImportanceMode, ImportanceWeights, RankScratch};
pub use leg::{Leg, Round};
pub use mta_time::MtaTimeTracker;
pub use roles::{Gate, LegId, PushFloor, PushReport, Restart, ServerRole, WorkerRole};
pub use rows::{RowBatch, RowId, RowPartition, RowRef};
pub use shard::{ShardMap, ShardedServer};
pub use version::RowVersionStore;
pub use worker::{RogWorker, RogWorkerConfig};
