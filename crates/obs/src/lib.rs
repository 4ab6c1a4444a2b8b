//! `rog-obs`: deterministic event-journal observability for the ROG
//! simulator.
//!
//! ROG's claims are about *where time and bytes go* — gate stalls, row
//! retransmits, MTA floors, fault recovery (paper Secs. IV–VI, Fig. 8).
//! This crate turns the deterministic simulation into its own test
//! oracle: engines record typed [`EventKind`]s into a [`Journal`]
//! stamped on the virtual clock, the journal serializes to a canonical
//! JSONL byte stream, and [`TraceSummary`] replays a journal back into
//! the per-iteration composition `RunMetrics` reports: it rebuilds each
//! device's `rog-sim` `Timeline` from the journal's `state` and `close`
//! records, the same timelines the run record composed its metrics
//! from, and holds no span arithmetic of its own.
//!
//! Because every emission site runs on the single event-loop thread at
//! points totally ordered by (virtual time, queue sequence), a journal
//! for a fixed (config, seed) is byte-identical across runs — golden
//! journals are byte-diffable regression artifacts (see
//! `tests/golden_trace.rs` at the workspace root).
//!
//! The [`Journal`] is a log and holds no derived state; every total
//! over a run's events is computed in one place, [`TraceSummary`].
//! A disabled journal ([`Journal::enabled`] `false`) skips every
//! [`obs!`]-guarded site, and engine output is bit-identical either way.

#![forbid(unsafe_code)]

pub mod event;
pub mod gz;
pub mod journal;
pub mod summary;

pub use event::{Event, EventKind, Record, Val};
pub use gz::{crc32, gzip_compress, gzip_decompress};
pub use journal::Journal;
pub use summary::TraceSummary;
