//! `rog-fuzz`: seeded scenario fuzzing and differential invariant
//! checking for the ROG simulator.
//!
//! The hand-written regression matrix covers seven scenarios; the
//! space PRs 2–7 actually built — fault plans × loss configs × shard
//! counts × aggregator topologies × sync models — is combinatorial,
//! and correctness bugs hide in rare interleavings of loss and
//! membership churn that no hand-picked matrix reaches. This crate
//! turns the deterministic simulation into its own test oracle at
//! scale, in three layers:
//!
//! * [`ScenarioGen`] — samples complete experiment scenarios from a
//!   single root `u64` seed (forked [`rog_tensor::rng::DetRng`]
//!   streams, one per scenario index), emitting fault plans through
//!   the `rog-fault` script format so every repro is plain text.
//! * [`check_scenario`] — replays a scenario twice and across twin
//!   topologies, asserting run-to-run identity, the progress watchdog,
//!   byte-ledger sanity, journal↔metrics reconciliation, the RSP
//!   staleness bound, and the shard/aggregator identity twins; failures
//!   come back as data ([`Violation`]), never panics.
//! * [`shrink`] — greedily minimizes a failing scenario (drop script
//!   lines, clear loss/aggregators/shards/workers/duration) and hands
//!   back the smallest still-failing [`Scenario`], ready to be dumped
//!   as a [`Scenario::to_repro`] artifact and checked into the
//!   regression corpus (`tests/corpus/`).
//!
//! The `rogctl fuzz` subcommand drives a campaign and emits a
//! wall-clock-free [`FuzzReport`]; `tests/fuzz_corpus.rs` replays the
//! checked-in corpus on every CI run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod generator;
mod report;
mod scenario;
mod shrink;

pub use check::{check_scenario, flat_twin_journal, replay_staleness, CheckOutcome, Violation};
pub use generator::{ScenarioGen, FAULT_FREE_PREFIX_SECS};
pub use report::{FuzzReport, ScenarioRecord};
pub use scenario::{LossSpec, Scenario};
pub use shrink::{shrink, ShrinkResult};
