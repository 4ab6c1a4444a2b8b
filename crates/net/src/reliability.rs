//! Delivery classes over the lossy channel: reliable and best-effort.
//!
//! "Boosting Distributed ML Training Through Loss-tolerant Transmission"
//! (PAPERS.md) splits training traffic into must-deliver control state
//! and droppable gradient payload. We do the same:
//!
//! * **Reliable** — control, version vectors, and model-resync bulk.
//!   In the sim, [`ReliableTransfer`] rounds: the chunks a round lost
//!   are resent after a virtual-clock backoff (capped exponential)
//!   until every chunk has landed once. On the socket path the class
//!   rides TCP, which orders itself; [`SeqWindow`] dedups the datagram
//!   lane, accepting each sequence number exactly once (property-tested
//!   under seeded loss / duplication / reordering / retransmission).
//! * **Best-effort** — gradient rows. A damaged or missing row is
//!   simply *not committed*: its error-feedback residual keeps
//!   accumulating on the worker and its version entry ages toward
//!   RSP's staleness bound, so the gate — not the transport — bounds
//!   the damage. No acks, no retransmission, no head-of-line blocking.
//!
//! The engines drive reliable transfers round-by-round through
//! [`ReliableTransfer`]: start a flow for the outstanding chunks, feed
//! the resulting [`crate::DeliveryReport`] back, and either finish or
//! wait out a backoff delay before retransmitting the survivors.

use rog_sim::Time;

use crate::loss::ChunkFate;

/// Delay before the first retransmission (seconds).
const BACKOFF_BASE: Time = 0.1;
/// Multiplier applied per further attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the delay.
const BACKOFF_CAP: Time = 2.0;

/// Capped exponential backoff: the delay before retransmission number
/// `attempt` (1-based: the first retransmission waits the base).
fn delay(attempt: u32) -> Time {
    let exp = attempt.saturating_sub(1).min(63);
    (BACKOFF_BASE * BACKOFF_FACTOR.powi(exp as i32)).min(BACKOFF_CAP)
}

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
    pub fn next_expected(&self) -> u64 {
        self.floor
    }
}

/// Progress verdict after feeding one round's fates to a
/// [`ReliableTransfer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReliableProgress {
    /// Every chunk has been delivered intact; the transfer is over.
    Done,
    /// Some chunks were lost or corrupt; retransmit the survivors
    /// after waiting `delay` (capped exponential backoff).
    Retry {
        /// Backoff delay before the retransmission flow starts.
        delay: Time,
    },
}

/// Sender-side state of one reliable multi-chunk transfer.
///
/// Round-based: each round puts the outstanding chunks on the air as
/// one flow; the delivery report marks each as arrived or not; lost
/// chunks carry over to the next round after a backoff delay. The
/// loss model's per-chunk loss probability is capped below 1, so a
/// transfer always terminates.
#[derive(Debug, Clone)]
pub struct ReliableTransfer {
    sizes: Vec<u64>,
    /// Indices (into the original chunk list) still outstanding.
    outstanding: Vec<usize>,
    attempt: u32,
}

impl ReliableTransfer {
    /// Starts a transfer of `chunks` (byte sizes, transmission order).
    pub fn new(chunks: Vec<u64>) -> Self {
        let outstanding = (0..chunks.len()).collect();
        Self {
            sizes: chunks,
            outstanding,
            attempt: 0,
        }
    }

    /// Byte sizes of the chunks to put on the air this round.
    pub fn pending_chunks(&self) -> Vec<u64> {
        self.outstanding.iter().map(|&i| self.sizes[i]).collect()
    }

    /// Folds in one round's delivery fates. `fates[i]` corresponds to
    /// the `i`-th chunk of [`ReliableTransfer::pending_chunks`]; a
    /// missing fate (flow cut short) counts as not delivered. `None`
    /// fates — no loss model — mean everything arrived.
    pub fn on_round(&mut self, fates: Option<&[ChunkFate]>) -> ReliableProgress {
        let survivors: Vec<usize> = self
            .outstanding
            .iter()
            .enumerate()
            .filter(|&(round_i, _)| {
                fates.is_some_and(|fs| !fs.get(round_i).is_some_and(|f| f.intact()))
            })
            .map(|(_, &chunk)| chunk)
            .collect();
        self.outstanding = survivors;
        if self.outstanding.is_empty() {
            ReliableProgress::Done
        } else {
            self.attempt += 1;
            ReliableProgress::Retry {
                delay: delay(self.attempt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    #[test]
    fn backoff_grows_then_caps() {
        assert!((delay(1) - 0.1).abs() < 1e-12);
        assert!((delay(2) - 0.2).abs() < 1e-12);
        assert!((delay(3) - 0.4).abs() < 1e-12);
        assert!((delay(10) - 2.0).abs() < 1e-12, "capped");
        assert!((delay(63) - 2.0).abs() < 1e-12, "no overflow");
    }

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

    #[test]
    fn reliable_transfer_retries_only_survivors() {
        let mut t = ReliableTransfer::new(vec![10, 20, 30]);
        assert_eq!(t.pending_chunks(), vec![10, 20, 30]);
        // Middle chunk lost, rest intact.
        let fates = [ChunkFate::Delivered, ChunkFate::Lost, ChunkFate::Delivered];
        match t.on_round(Some(&fates)) {
            ReliableProgress::Retry { delay } => assert!((delay - 0.1).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.pending_chunks(), vec![20]);
        // Flow cut before the chunk even went out: still outstanding.
        assert_eq!(
            t.on_round(Some(&[])),
            ReliableProgress::Retry { delay: 0.2 }
        );
        assert_eq!(t.pending_chunks(), vec![20]);
        // Finally delivered.
        assert_eq!(
            t.on_round(Some(&[ChunkFate::Delivered])),
            ReliableProgress::Done
        );
        assert!(t.pending_chunks().is_empty());
    }

    #[test]
    fn no_loss_model_means_transmitted_is_delivered() {
        let mut t = ReliableTransfer::new(vec![5, 5]);
        assert_eq!(t.on_round(None), ReliableProgress::Done);
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

        /// The round-based transfer used by the engines terminates and
        /// covers every chunk exactly once under seeded loss.
        #[test]
        fn reliable_transfer_terminates_and_covers_all_chunks(
            n_chunks in 1usize..40,
            seed in 0u64..u64::MAX,
            loss in 0.0f64..0.9,
        ) {
            let mut rng = DetRng::new(seed);
            let sizes: Vec<u64> = (1..=n_chunks as u64).collect();
            let mut t = ReliableTransfer::new(sizes.clone());
            let mut delivered_bytes = 0u64;
            let mut rounds = 0u32;
            loop {
                rounds += 1;
                prop_assert!(rounds < 10_000, "transfer livelocked");
                let pending = t.pending_chunks();
                let fates: Vec<ChunkFate> = pending
                    .iter()
                    .map(|_| if rng.chance(loss) { ChunkFate::Lost } else { ChunkFate::Delivered })
                    .collect();
                delivered_bytes += pending
                    .iter()
                    .zip(&fates)
                    .filter(|(_, f)| f.intact())
                    .map(|(&s, _)| s)
                    .sum::<u64>();
                match t.on_round(Some(&fates)) {
                    ReliableProgress::Done => break,
                    ReliableProgress::Retry { delay } => prop_assert!(delay > 0.0),
                }
            }
            prop_assert_eq!(delivered_bytes, sizes.iter().sum::<u64>());
        }
    }
}
