//! The event journal: a bounded, allocation-light ring buffer of
//! events and a JSONL sink. It holds no derived state — totals over a
//! run's events are [`crate::TraceSummary`]'s job.
//!
//! ## Determinism contract
//!
//! Recording happens only on the simulator's single event-loop thread,
//! at points fully ordered by the virtual clock and the event queue's
//! FIFO tie-break. The journal never feeds back into the simulation:
//! `record` reads its arguments and mutates only journal-private state.
//! A journal for a fixed (config, seed) is therefore byte-identical
//! across runs.

use std::collections::VecDeque;

use crate::event::{Event, EventKind};

/// Default ring-buffer capacity (events). Large enough that the small
/// golden scenarios never drop; bounded so tracing a long run cannot
/// exhaust memory.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// A bounded, deterministic event journal.
#[derive(Debug, Clone)]
pub struct Journal {
    enabled: bool,
    capacity: usize,
    events: VecDeque<Event>,
    seq: u64,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Journal {
    /// A journal that records nothing (`enabled() == false`).
    pub fn disabled() -> Self {
        Self::with_capacity(false, DEFAULT_CAPACITY)
    }

    /// A journal that records iff `trace`.
    pub fn new(trace: bool) -> Self {
        Self::with_capacity(trace, DEFAULT_CAPACITY)
    }

    /// Full-control constructor.
    pub fn with_capacity(trace: bool, capacity: usize) -> Self {
        Self {
            enabled: trace,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            seq: 0,
            dropped: 0,
        }
    }

    /// Whether emission sites should construct and record events.
    ///
    /// Guard any non-trivial event construction with this (the
    /// [`crate::obs!`] macro does it for you).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event stamped at virtual time `t` with unsharded
    /// scope (no `shard` field on the wire).
    ///
    /// No-op when the journal is disabled.
    pub fn record(&mut self, t: f64, kind: EventKind) {
        self.record_shard(t, Event::NO_SHARD, kind);
    }

    /// Records an event stamped at virtual time `t`, scoped to a
    /// parameter-server shard (`shard >= 0`; [`Event::NO_SHARD`] for
    /// unsharded scope).
    ///
    /// No-op when the journal is disabled.
    pub fn record_shard(&mut self, t: f64, shard: i64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            t,
            seq: self.seq,
            shard,
            kind,
        });
        self.seq += 1;
    }

    /// Events currently retained in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Serializes the retained events as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for ev in &self.events {
            ev.write_jsonl(&mut out);
        }
        out
    }
}

/// Records an event only when the journal is enabled, keeping event
/// construction off the hot path.
///
/// ```
/// use rog_obs::{obs, EventKind, Journal};
/// let mut j = Journal::new(true);
/// obs!(j, 1.0, EventKind::IterBegin { w: 0, iter: 1 });
/// ```
#[macro_export]
macro_rules! obs {
    ($journal:expr, $t:expr, $kind:expr) => {
        if $journal.enabled() {
            $journal.record($t, $kind);
        }
    };
}

/// Shard-scoped variant of [`crate::obs!`]: records with a `shard`
/// field when the scope is a real shard (`shard >= 0`).
///
/// ```
/// use rog_obs::{obs_shard, EventKind, Journal};
/// let mut j = Journal::new(true);
/// obs_shard!(j, 1.0, 2, EventKind::PullEnd { w: 0, iter: 1 });
/// ```
#[macro_export]
macro_rules! obs_shard {
    ($journal:expr, $t:expr, $shard:expr, $kind:expr) => {
        if $journal.enabled() {
            $journal.record_shard($t, $shard, $kind);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::disabled();
        j.record(1.0, EventKind::IterBegin { w: 0, iter: 1 });
        assert!(j.is_empty());
        assert_eq!(j.recorded(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut j = Journal::with_capacity(true, 2);
        for i in 0..5 {
            j.record(i as f64, EventKind::IterBegin { w: 0, iter: i });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.recorded(), 5);
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn record_shard_stamps_the_envelope() {
        let mut j = Journal::new(true);
        j.record_shard(1.0, 1, EventKind::PullEnd { w: 0, iter: 2 });
        j.record(2.0, EventKind::PullEnd { w: 0, iter: 3 });
        let shards: Vec<i64> = j.events().map(|e| e.shard).collect();
        assert_eq!(shards, vec![1, Event::NO_SHARD]);
        let out = j.to_jsonl();
        let mut lines = out.lines();
        assert!(lines.next().unwrap().contains("\"shard\":1"));
        assert!(!lines.next().unwrap().contains("shard"));
    }

    #[test]
    fn jsonl_lines_match_event_count() {
        let mut j = Journal::new(true);
        j.record(
            0.0,
            EventKind::Meta {
                name: "test".into(),
                seed: 1,
            },
        );
        j.record(1.0, EventKind::Close { w: 0 });
        let out = j.to_jsonl();
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn obs_macro_guards_recording() {
        let mut j = Journal::new(true);
        obs!(j, 0.5, EventKind::IterBegin { w: 1, iter: 2 });
        assert_eq!(j.len(), 1);
    }
}
