//! Deterministic discrete-event simulation engine.
//!
//! The ROG reproduction evaluates distributed-training *time* behaviour —
//! straggler stalls, transmission durations, energy — without the paper's
//! physical robot testbed. This crate provides the substrate: a virtual
//! clock, a deterministic [`EventQueue`], and per-device state
//! [`Timeline`]s that record when each simulated device was computing,
//! communicating, stalling, or idle (the three-state decomposition of the
//! paper's Figs. 1a/6a/7a, plus idle).
//!
//! Determinism contract: events that are scheduled for the same virtual
//! time are delivered in insertion order (FIFO tie-break by sequence
//! number), so a simulation driven purely by queue pops and seeded RNG is
//! bit-reproducible.
//!
//! # Example
//!
//! ```
//! use rog_sim::{EventQueue, Timeline, DeviceState};
//!
//! let mut q = EventQueue::new();
//! q.push(2.0, "b");
//! q.push(1.0, "a");
//! q.push(1.0, "a2"); // same time: FIFO order
//! assert_eq!(q.pop(), Some((1.0, "a")));
//! assert_eq!(q.pop(), Some((1.0, "a2")));
//! assert_eq!(q.pop(), Some((2.0, "b")));
//!
//! let mut tl = Timeline::new();
//! tl.set_state(0.0, DeviceState::Compute);
//! tl.set_state(2.5, DeviceState::Stall);
//! tl.close(4.0);
//! assert_eq!(tl.time_in(DeviceState::Compute), 2.5);
//! assert_eq!(tl.time_in(DeviceState::Stall), 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod timeline;

pub use queue::EventQueue;
pub use timeline::{per_iteration, residency, DeviceState, Span, Timeline};

/// Virtual time in seconds since simulation start.
pub type Time = f64;
