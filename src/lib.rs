//! ROG — Row-Granulated distributed training for robotic IoT.
//!
//! A full-system Rust reproduction of *ROG: A High Performance and
//! Robust Distributed Training System for Robotic IoT* (MICRO 2022):
//! row-granulated gradient synchronization (RSP) with adaptive
//! speculative transmission (ATP), evaluated against BSP / SSP / ASP /
//! FLOWN baselines on a deterministic simulated robot team with a
//! calibrated unstable wireless channel.
//!
//! Facade crate re-exporting the whole workspace:
//!
//! * [`core`] — the contribution: RSP, ATP, the row cycle's two roles
//!   (`WorkerRole` / `ServerRole`), and the staleness-gate predicates
//!   (`core::gate`) every strategy shares.
//! * [`trainer`] — end-to-end simulated experiments ([`prelude`] has a
//!   quickstart).
//! * [`net`] / [`sim`] / [`energy`] — wireless channel, discrete-event
//!   engine, Table III power model.
//! * [`transport`] — the live transport plane: the two-class
//!   `Transport` trait, its UDP/TCP socket implementation and the
//!   control protocol behind `rogctl serve` / `rogctl join` (the
//!   simulated engines drive [`net`]'s `Channel` directly).
//! * [`models`] / [`tensor`] / [`compress`] — training substrate.
//! * [`fault`] — deterministic fault injection (worker churn, link
//!   blackouts, server restarts) for robustness experiments.
//! * [`fuzz`] — seeded scenario fuzzer and differential invariant
//!   harness behind `rogctl fuzz` and the regression corpus.
//! * [`obs`] — deterministic event journal, trace summaries and the
//!   JSONL/gzip plumbing behind `rogctl trace`.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-code map, `EXPERIMENTS.md` for paper-vs-measured results,
//! and `examples/` for runnable entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod facade;

pub use facade::prelude;

pub use rog_compress as compress;
pub use rog_core as core;
pub use rog_energy as energy;
pub use rog_fault as fault;
pub use rog_fuzz as fuzz;
pub use rog_models as models;
pub use rog_net as net;
pub use rog_obs as obs;
pub use rog_sim as sim;
pub use rog_tensor as tensor;
pub use rog_trainer as trainer;
pub use rog_transport as transport;
