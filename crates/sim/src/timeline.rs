//! Per-device state timelines.
//!
//! The paper decomposes every training iteration into computation,
//! communication, and stall time (Figs. 1a, 6a, 7a) and integrates
//! state-specific power over these residencies for the energy results
//! (Table III, Figs. 1d, 6d, 7d). [`Timeline`] is the recorder both are
//! derived from.

use crate::Time;

/// What a simulated device is doing at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Computing gradients (includes compression/decompression cost, as in
    /// the paper's Table II accounting).
    Compute,
    /// Actively transmitting or receiving on the wireless channel.
    Communicate,
    /// Blocked on a synchronization barrier / staleness gate.
    Stall,
    /// Not participating (before start / after finish).
    Idle,
    /// Powered off or out of range (fault injection): the device holds
    /// no state and draws no power until it rejoins.
    Offline,
}

impl DeviceState {
    /// All states, in display order.
    pub const ALL: [DeviceState; 5] = [
        DeviceState::Compute,
        DeviceState::Communicate,
        DeviceState::Stall,
        DeviceState::Idle,
        DeviceState::Offline,
    ];

    /// Stable lowercase name (journal wire format).
    pub fn name(self) -> &'static str {
        match self {
            DeviceState::Compute => "compute",
            DeviceState::Communicate => "communicate",
            DeviceState::Stall => "stall",
            DeviceState::Idle => "idle",
            DeviceState::Offline => "offline",
        }
    }
}

/// A half-open span `[start, end)` spent in one state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// State during the span.
    pub state: DeviceState,
    /// Span start (inclusive).
    pub start: Time,
    /// Span end (exclusive).
    pub end: Time,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// How far a record may precede the open span's start and still be
/// taken: float noise, not a step back in time.
const SLACK: Time = 1e-9;

/// Append-only state history of one device.
///
/// Transitions are recorded with [`Timeline::set_state`]; the final open
/// span is closed with [`Timeline::close`]. Time must be non-decreasing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    spans: Vec<Span>,
    open: Option<(DeviceState, Time)>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the timeline can take a record at `t`: `t` is finite and
    /// not before the open span (by more than 1e-9 of float noise). A
    /// record that fails this is one [`Timeline::set_state`] panics on,
    /// or one that makes a residency infinite.
    pub fn admits(&self, t: Time) -> bool {
        t.is_finite() && self.open.is_none_or(|(_, start)| t >= start - SLACK)
    }

    /// Records that the device enters `state` at time `t`, closing any
    /// previous open span. Zero-length spans are dropped; re-entering the
    /// current state is a no-op.
    ///
    /// Returns `true` iff the device's state actually changed (journal
    /// emitters use this to record only real transitions).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the start of the currently open span.
    pub fn set_state(&mut self, t: Time, state: DeviceState) -> bool {
        if let Some((cur, start)) = self.open {
            assert!(
                t >= start - SLACK,
                "timeline must be monotonic: {t} < {start}"
            );
            if cur == state {
                return false;
            }
            if t > start {
                self.spans.push(Span {
                    state: cur,
                    start,
                    end: t,
                });
            }
        }
        self.open = Some((state, t));
        true
    }

    /// Closes the open span at time `t` (idempotent if nothing is open).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the start of the open span.
    pub fn close(&mut self, t: Time) {
        if let Some((cur, start)) = self.open.take() {
            assert!(t >= start - SLACK, "close before span start");
            if t > start {
                self.spans.push(Span {
                    state: cur,
                    start,
                    end: t,
                });
            }
        }
    }

    /// The closed spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The state the device is currently in, if a span is open.
    pub fn current_state(&self) -> Option<DeviceState> {
        self.open.map(|(s, _)| s)
    }

    /// When the open span started, if one is open.
    pub fn open_since(&self) -> Option<Time> {
        self.open.map(|(_, start)| start)
    }

    /// Total closed time spent in `state`.
    pub fn time_in(&self, state: DeviceState) -> Time {
        self.spans
            .iter()
            .filter(|s| s.state == state)
            .map(|s| {
                debug_assert!(s.duration() >= 0.0, "negative span {s:?}");
                s.duration()
            })
            .sum()
    }

    /// Time spent in `state` within the window `[t0, t1)` (closed spans
    /// only).
    pub fn time_in_between(&self, state: DeviceState, t0: Time, t1: Time) -> Time {
        self.spans
            .iter()
            .filter(|s| s.state == state)
            .map(|s| (s.end.min(t1) - s.start.max(t0)).max(0.0))
            .sum()
    }

    /// End of the last closed span (0 if none).
    pub fn end_time(&self) -> Time {
        self.spans.last().map_or(0.0, |s| s.end)
    }
}

/// Cluster-total closed time in `state`, summed over `timelines` in
/// the order given (device index order, for every caller).
pub fn residency<'a>(
    timelines: impl IntoIterator<Item = &'a Timeline>,
    state: DeviceState,
) -> Time {
    timelines.into_iter().map(|t| t.time_in(state)).sum()
}

/// [`residency`] per iteration over `iters` cluster iterations, clamped
/// at 0; 0 when no iteration ran.
pub fn per_iteration<'a>(
    timelines: impl IntoIterator<Item = &'a Timeline>,
    state: DeviceState,
    iters: u64,
) -> Time {
    if iters == 0 {
        return 0.0;
    }
    (residency(timelines, state) / iters as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_accumulate_durations() {
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute);
        tl.set_state(2.0, DeviceState::Communicate);
        tl.set_state(3.0, DeviceState::Stall);
        tl.set_state(3.5, DeviceState::Compute);
        tl.close(5.0);
        assert_eq!(tl.time_in(DeviceState::Compute), 3.5);
        assert_eq!(tl.time_in(DeviceState::Communicate), 1.0);
        assert_eq!(tl.time_in(DeviceState::Stall), 0.5);
        assert_eq!(tl.time_in(DeviceState::Idle), 0.0);
        assert_eq!(tl.end_time(), 5.0);
    }

    #[test]
    fn reentering_same_state_is_merged() {
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute);
        tl.set_state(1.0, DeviceState::Compute);
        tl.close(2.0);
        assert_eq!(tl.spans().len(), 1);
        assert_eq!(tl.time_in(DeviceState::Compute), 2.0);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let mut tl = Timeline::new();
        tl.set_state(1.0, DeviceState::Compute);
        tl.set_state(1.0, DeviceState::Stall);
        tl.close(2.0);
        assert_eq!(tl.spans().len(), 1);
        assert_eq!(tl.spans()[0].state, DeviceState::Stall);
    }

    #[test]
    fn windowed_query_clips_spans() {
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute);
        tl.close(10.0);
        assert_eq!(tl.time_in_between(DeviceState::Compute, 2.0, 4.0), 2.0);
        assert_eq!(tl.time_in_between(DeviceState::Compute, -5.0, 3.0), 3.0);
        assert_eq!(tl.time_in_between(DeviceState::Compute, 9.0, 99.0), 1.0);
        assert_eq!(tl.time_in_between(DeviceState::Stall, 0.0, 10.0), 0.0);
    }

    #[test]
    fn close_is_idempotent() {
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Idle);
        tl.close(1.0);
        tl.close(1.0);
        assert_eq!(tl.spans().len(), 1);
        assert_eq!(tl.current_state(), None);
    }

    #[test]
    fn admits_and_composes() {
        let mut tl = Timeline::new();
        assert!(tl.admits(0.0) && !tl.admits(f64::NAN) && !tl.admits(f64::INFINITY));
        tl.set_state(5.0, DeviceState::Stall);
        assert!(tl.admits(5.0 - SLACK / 2.0) && !tl.admits(4.0));
        tl.close(8.0);
        let tls = [tl.clone(), tl];
        assert_eq!(residency(&tls, DeviceState::Stall), 6.0);
        assert_eq!(per_iteration(&tls, DeviceState::Stall, 4), 1.5);
        assert_eq!(per_iteration(&tls, DeviceState::Stall, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn going_backwards_panics() {
        let mut tl = Timeline::new();
        tl.set_state(5.0, DeviceState::Compute);
        tl.set_state(1.0, DeviceState::Stall);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_state_times_partition_the_run(
                steps in proptest::collection::vec((0u32..100, 0usize..DeviceState::ALL.len()), 1..100),
            ) {
                let mut tl = Timeline::new();
                let mut t = 0.0f64;
                tl.set_state(0.0, DeviceState::Compute);
                for (dt, s) in steps {
                    t += f64::from(dt) * 0.01;
                    tl.set_state(t, DeviceState::ALL[s]);
                }
                t += 1.0;
                tl.close(t);
                let total: f64 = DeviceState::ALL.iter().map(|&s| tl.time_in(s)).sum();
                prop_assert!((total - t).abs() < 1e-6, "partition {total} vs {t}");
                // Windowed queries also partition any window.
                let mid = t / 2.0;
                let w: f64 = DeviceState::ALL
                    .iter()
                    .map(|&s| tl.time_in_between(s, 0.0, mid))
                    .sum();
                prop_assert!((w - mid).abs() < 1e-6, "window {w} vs {mid}");
            }

            /// Residency invariants: every recorded span has a strictly
            /// positive length, spans tile `[first_start, close)` without
            /// gaps or overlap, and the per-state residencies sum to the
            /// `close()` horizon.
            #[test]
            fn prop_spans_are_positive_contiguous_and_sum_to_horizon(
                start in 0u32..50,
                steps in proptest::collection::vec((0u32..100, 0usize..DeviceState::ALL.len()), 1..100),
                tail in 0u32..100,
            ) {
                let t0 = f64::from(start) * 0.01;
                let mut tl = Timeline::new();
                let mut t = t0;
                tl.set_state(t0, DeviceState::ALL[steps[0].1]);
                for &(dt, s) in &steps {
                    t += f64::from(dt) * 0.01;
                    tl.set_state(t, DeviceState::ALL[s]);
                }
                t += f64::from(tail) * 0.01;
                tl.close(t);
                let mut cursor = t0;
                for s in tl.spans() {
                    prop_assert!(s.duration() > 0.0, "non-positive span {s:?}");
                    prop_assert!((s.start - cursor).abs() < 1e-9, "gap/overlap at {cursor}");
                    cursor = s.end;
                }
                if t > t0 {
                    prop_assert!((cursor - t).abs() < 1e-9, "last span ends at {cursor}, not {t}");
                }
                let total: f64 = DeviceState::ALL.iter().map(|&s| tl.time_in(s)).sum();
                prop_assert!((total - (t - t0)).abs() < 1e-6, "residencies {total} vs horizon {}", t - t0);
            }
        }
    }
}
