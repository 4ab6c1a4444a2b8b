//! Deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Time;

/// A pending event.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Times are finite by the `push` contract, so total order is
        // safe.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of `(time, event)` pairs with FIFO tie-breaking.
///
/// The FIFO tie-break makes event delivery deterministic, which the
/// reproducibility guarantees of the whole simulator rest on.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// A fleet-scale engine schedules O(workers) timers up front; the
    /// hint avoids the doubling reallocations of a cold heap on the
    /// first simulated seconds.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Total events ever scheduled on this queue (the FIFO sequence
    /// counter). A deterministic progress measure: unlike wall-clock
    /// rates it is identical across hosts.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Schedules `event` at virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN would corrupt heap order).
    pub fn push(&mut self, time: Time, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventQueue(len={})", self.heap.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, 5);
        q.push(1.0, 1);
        q.push(3.0, 3);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((5.0, 5)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.push(1.5, "mid");
        assert_eq!(q.pop(), Some((1.5, "mid")));
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn peek_time_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(4.0, ());
        q.push(2.0, ());
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn with_capacity_behaves_like_new_and_counts_scheduled() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.scheduled(), 0);
        q.push(2.0, "b");
        q.push(1.0, "a");
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.pop(), Some((1.0, "a")));
        // `scheduled` counts pushes, not pending events.
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_pops_are_time_sorted_and_fifo_within_ties(
                times in proptest::collection::vec(0u32..50, 1..200),
            ) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(f64::from(t), i);
                }
                let mut last_time = f64::NEG_INFINITY;
                let mut last_seq_at_time = None::<usize>;
                while let Some((t, i)) = q.pop() {
                    prop_assert!(t >= last_time);
                    if t == last_time {
                        // FIFO among ties: insertion index increases.
                        if let Some(prev) = last_seq_at_time {
                            prop_assert!(i > prev, "tie order violated");
                        }
                    }
                    last_time = t;
                    last_seq_at_time = Some(i);
                }
            }

            #[test]
            fn prop_interleaved_pop_never_loses_events(
                ops in proptest::collection::vec((0u32..100, proptest::bool::ANY), 1..100),
            ) {
                let mut q = EventQueue::new();
                let mut pushed = 0usize;
                let mut popped = 0usize;
                for (t, do_pop) in ops {
                    if do_pop {
                        if q.pop().is_some() {
                            popped += 1;
                        }
                    } else {
                        q.push(f64::from(t), ());
                        pushed += 1;
                    }
                }
                while q.pop().is_some() {
                    popped += 1;
                }
                prop_assert_eq!(pushed, popped);
            }

            /// FIFO tie-break against a reference model under interleaved
            /// push/pop: every pop must return exactly the pending event
            /// with the least `(time, insertion-sequence)`, even when
            /// pushes at an already-popped time arrive later.
            #[test]
            fn prop_interleaved_pop_matches_reference_model(
                ops in proptest::collection::vec((0u32..20, proptest::bool::ANY), 1..200),
            ) {
                let mut q = EventQueue::new();
                let mut reference: Vec<(u32, usize)> = Vec::new();
                let mut next_id = 0usize;
                for (t, do_pop) in ops {
                    if do_pop {
                        let expected = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(rt, id))| (rt, id))
                            .map(|(pos, &(rt, id))| (pos, rt, id));
                        match (q.pop(), expected) {
                            (Some((qt, qid)), Some((pos, rt, rid))) => {
                                prop_assert_eq!(qt, f64::from(rt));
                                prop_assert_eq!(qid, rid, "tie-break diverged from model");
                                reference.remove(pos);
                            }
                            (None, None) => {}
                            (got, want) => {
                                return Err(TestCaseError::fail(format!(
                                    "queue {got:?} vs model {want:?}"
                                )));
                            }
                        }
                    } else {
                        q.push(f64::from(t), next_id);
                        reference.push((t, next_id));
                        next_id += 1;
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
        }
    }
}
