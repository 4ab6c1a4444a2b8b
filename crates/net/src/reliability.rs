//! Delivery classes over the lossy channel: reliable and best-effort.
//!
//! "Boosting Distributed ML Training Through Loss-tolerant Transmission"
//! (PAPERS.md) splits training traffic into must-deliver control state
//! and droppable gradient payload. We do the same:
//!
//! * **Reliable** — control, version vectors, and model-resync bulk.
//!   In the sim, the engines' one per-worker reliable slot
//!   (`rog_trainer`'s `engine/common.rs`) resends the 64 KiB segments
//!   a round lost after a virtual-clock backoff (capped exponential)
//!   until every segment has landed once, reading each round's fates
//!   from the channel's [`crate::DeliveryReport`]. On the socket path
//!   the class rides TCP, which orders itself; [`SeqWindow`] dedups the
//!   datagram lane, accepting each sequence number exactly once
//!   (property-tested under seeded loss / duplication / reordering /
//!   retransmission).
//! * **Best-effort** — gradient rows. A damaged or missing row is
//!   simply *not committed*: its error-feedback residual keeps
//!   accumulating on the worker and its version entry ages toward
//!   RSP's staleness bound, so the gate — not the transport — bounds
//!   the damage. No acks, no retransmission, no head-of-line blocking.

/// Receiver-side duplicate suppression over sequence numbers.
///
/// Tracks a low-water mark below which everything has been accepted,
/// plus the sparse set of accepted sequence numbers above it. A frame
/// is accepted at most once regardless of how often the network
/// duplicates or the sender retransmits it.
///
/// A window built with [`SeqWindow::new`] waits forever for holes to
/// fill — correct for reliable senders that retransmit until acked.
/// Over a lossy lane where a hole can be permanent (a dropped UDP
/// datagram is never resent), use [`SeqWindow::bounded`] so the floor
/// abandons stale holes and `seen` stays bounded.
#[derive(Debug, Clone, Default)]
pub struct SeqWindow {
    floor: u64,
    seen: std::collections::BTreeSet<u64>,
    span: Option<u64>,
}

impl SeqWindow {
    /// Creates an empty window accepting sequence numbers from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a window that gives up on holes older than `span` below
    /// the highest accepted sequence number: once `span` newer numbers
    /// have arrived, a missing one is written off as lost and the floor
    /// advances past it, bounding `seen` to at most `span + 1` entries.
    /// An arrival below the advanced floor reads as a duplicate.
    pub fn bounded(span: u64) -> Self {
        Self {
            span: Some(span),
            ..Self::default()
        }
    }

    /// Offers a sequence number; returns `true` exactly once per
    /// number (the first time it is seen).
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq < self.floor || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.remove(&self.floor) {
            self.floor += 1;
        }
        if let Some(span) = self.span {
            if let Some(&highest) = self.seen.iter().next_back() {
                let min_floor = highest.saturating_sub(span);
                if min_floor > self.floor {
                    self.floor = min_floor;
                    self.seen = self.seen.split_off(&self.floor);
                    while self.seen.remove(&self.floor) {
                        self.floor += 1;
                    }
                }
            }
        }
        true
    }

    /// Lowest sequence number not yet accepted.
    #[cfg(test)]
    pub fn next_expected(&self) -> u64 {
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    #[test]
    fn seq_window_accepts_each_number_once() {
        let mut w = SeqWindow::new();
        assert!(w.accept(0));
        assert!(!w.accept(0), "duplicate");
        assert!(w.accept(2), "out of order ok");
        assert!(!w.accept(2));
        assert_eq!(w.next_expected(), 1);
        assert!(w.accept(1));
        assert_eq!(w.next_expected(), 3);
        assert!(!w.accept(1), "below the floor");
    }

    #[test]
    fn bounded_seq_window_abandons_stale_holes() {
        let mut w = SeqWindow::bounded(4);
        assert!(w.accept(0));
        // Seq 1 is permanently lost; 2..=5 arrive. The hole is still
        // within the span, so the floor waits.
        for seq in 2..=5 {
            assert!(w.accept(seq));
        }
        assert_eq!(w.next_expected(), 1, "hole still inside the span");
        // Seq 6 pushes the hole past the span: written off as lost.
        assert!(w.accept(6));
        assert_eq!(w.next_expected(), 7, "hole at 1 abandoned");
        assert!(!w.accept(1), "late arrival below the floor reads as dup");
        // Memory stays bounded across many more permanent holes: only
        // even seqs ever arrive.
        for seq in (8..2_000u64).step_by(2) {
            assert!(w.accept(seq));
        }
        assert!(
            w.next_expected() >= 1_998 - 4,
            "floor keeps pace, got {}",
            w.next_expected()
        );
    }

    #[test]
    fn unbounded_seq_window_waits_for_holes() {
        let mut w = SeqWindow::new();
        assert!(w.accept(0));
        for seq in 2..200 {
            assert!(w.accept(seq));
        }
        assert_eq!(w.next_expected(), 1, "unbounded window never gives up");
        assert!(w.accept(1), "the hole can still fill");
        assert_eq!(w.next_expected(), 200);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exactly once: under any seeded schedule of losses,
        /// duplicates and reorderings, with every number resent until
        /// its ack (itself losable) gets back, an unbounded window
        /// accepts each sequence number once and its floor ends past
        /// the last.
        #[test]
        fn seq_window_accepts_every_number_exactly_once(
            n_msgs in 1usize..30,
            seed in 0u64..u64::MAX,
            loss in 0.0f64..0.9,
            dup in 0.0f64..0.5,
            reorder in 0.0f64..0.5,
        ) {
            let mut rng = DetRng::new(seed);
            let mut window = SeqWindow::new();
            let (mut accepted, mut acked) = (vec![0u32; n_msgs], vec![false; n_msgs]);
            while acked.contains(&false) {
                // One round: every unacked number goes out, some twice;
                // what survives arrives in a shuffled order.
                let mut arriving: Vec<(f64, usize)> = Vec::new();
                for seq in (0..n_msgs).filter(|&s| !acked[s]) {
                    for _ in 0..1 + usize::from(rng.chance(dup)) {
                        if !rng.chance(loss) {
                            let late = if rng.chance(reorder) { rng.uniform() } else { 0.0 };
                            arriving.push((late, seq));
                        }
                    }
                }
                arriving.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (_, seq) in arriving {
                    accepted[seq] += u32::from(window.accept(seq as u64));
                    acked[seq] |= !rng.chance(loss);
                }
            }
            prop_assert!(accepted.iter().all(|&n| n == 1), "{accepted:?}");
            prop_assert_eq!(window.next_expected(), n_msgs as u64);
        }
    }
}
