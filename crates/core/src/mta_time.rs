//! The shared MTA-time estimate (Algorithm 4's `GetMTATime` /
//! `UpdateMTATime`).
//!
//! ATP aligns transmission time across devices: a straggler transmits MTA
//! rows and reports how long that took; non-stragglers keep transmitting
//! for that long (sending *more* than MTA rows with their better links).
//! The tracker keeps a per-device exponentially smoothed estimate of
//! "seconds to transmit MTA rows" and serves the maximum across devices
//! as the common time budget `tMTA`.

use rog_sim::Time;

/// Cross-device estimate of the speculative-transmission time budget.
#[derive(Debug, Clone)]
pub struct MtaTimeTracker {
    per_device: Vec<Time>,
    alpha: f64,
    floor: Time,
    cap: Time,
    /// Cached `max(per_device)` and its argmax. `get()` runs on every
    /// push leg, so at fleet scale the former O(devices) fold would
    /// dominate; the cache makes it O(1), with a rescan only when the
    /// slowest device itself speeds up. `f64::max` over non-NaN values
    /// is order-independent, so the cached value is bit-identical to
    /// the fold it replaces.
    max_est: Time,
    max_dev: usize,
}

impl MtaTimeTracker {
    /// Creates a tracker for `n_devices`, all starting at
    /// `initial_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `n_devices == 0` or `initial_secs <= 0`.
    pub fn new(n_devices: usize, initial_secs: Time) -> Self {
        assert!(n_devices > 0, "need at least one device");
        assert!(initial_secs > 0.0, "initial estimate must be positive");
        Self {
            per_device: vec![initial_secs; n_devices],
            alpha: 0.5,
            floor: 0.01,
            cap: 60.0,
            max_est: initial_secs,
            max_dev: 0,
        }
    }

    /// The current common time budget `tMTA`: the largest per-device
    /// estimate (every device must be given enough time to get its MTA
    /// rows through). O(1) amortized.
    pub fn get(&self) -> Time {
        self.max_est.max(self.floor)
    }

    /// Records a finished push: `rows_sent` rows took `duration` seconds
    /// and the device's MTA is `mta_rows` rows.
    ///
    /// A device that pushed at least MTA rows extrapolates its per-row
    /// speed; one that timed out below MTA keeps transmitting to MTA and
    /// reports the measured duration directly, so `duration` here is the
    /// full time to reach MTA.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn report(&mut self, device: usize, rows_sent: usize, duration: Time, mta_rows: usize) {
        let sample = if rows_sent == 0 {
            // Nothing got through within the budget: back off upward.
            (self.per_device[device] * 2.0).min(self.cap)
        } else if mta_rows == 0 {
            self.floor
        } else {
            (duration * mta_rows as f64 / rows_sent as f64).clamp(self.floor, self.cap)
        };
        let e = &mut self.per_device[device];
        *e = self.alpha * sample + (1.0 - self.alpha) * *e;
        let e = *e;
        if e >= self.max_est {
            self.max_est = e;
            self.max_dev = device;
        } else if device == self.max_dev {
            // The slowest device sped up: only now is a rescan needed.
            let (dev, est) = self.per_device.iter().enumerate().fold(
                (0, Time::NEG_INFINITY),
                |(bd, be), (d, &v)| {
                    if v > be {
                        (d, v)
                    } else {
                        (bd, be)
                    }
                },
            );
            self.max_dev = dev;
            self.max_est = est;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_budget_is_the_seed() {
        let t = MtaTimeTracker::new(3, 1.5);
        assert_eq!(t.get(), 1.5);
    }

    #[test]
    fn budget_is_the_slowest_device() {
        let (mut t, mut fast) = (MtaTimeTracker::new(2, 1.0), MtaTimeTracker::new(1, 1.0));
        // Device 0 is fast: sent 100 rows in 0.5 s, MTA is 50.
        for _ in 0..10 {
            t.report(0, 100, 0.5, 50);
            fast.report(0, 100, 0.5, 50);
        }
        // Device 1 is slow: needed 4 s for its 50 MTA rows.
        for _ in 0..10 {
            t.report(1, 50, 4.0, 50);
        }
        assert!(fast.get() < 0.5, "alone, device 0 budgets {}", fast.get());
        assert!((t.get() - 4.0).abs() < 0.1, "budget {}", t.get());
    }

    #[test]
    fn fast_device_extrapolates_per_row_speed() {
        let mut t = MtaTimeTracker::new(1, 1.0);
        // 200 rows in 1 s with MTA 50 → 0.25 s per MTA.
        for _ in 0..20 {
            t.report(0, 200, 1.0, 50);
        }
        assert!((t.get() - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_rows_backs_off_upward() {
        let mut t = MtaTimeTracker::new(1, 1.0);
        let before = t.get();
        t.report(0, 0, 1.0, 50);
        assert!(t.get() > before);
    }

    #[test]
    fn estimates_adapt_to_bandwidth_recovery() {
        let mut t = MtaTimeTracker::new(1, 10.0);
        for _ in 0..20 {
            t.report(0, 50, 0.2, 50);
        }
        assert!(t.get() < 0.3, "should converge down: {}", t.get());
    }

    #[test]
    fn cached_budget_matches_a_full_fold() {
        // Differential check of the O(1) cache against the reference
        // fold, through a mixed history that moves the argmax around.
        let mut t = MtaTimeTracker::new(4, 1.0);
        let history: [(usize, usize, Time, usize); 12] = [
            (0, 50, 4.0, 50),
            (1, 100, 0.5, 50),
            (2, 0, 1.0, 50),
            (0, 200, 0.2, 50), // previous argmax speeds up -> rescan
            (3, 50, 6.0, 50),
            (3, 500, 0.1, 50), // argmax speeds up again
            (1, 50, 2.0, 50),
            (2, 50, 0.3, 50),
            (0, 0, 1.0, 50),
            (1, 1000, 1e-9, 1),
            (2, 50, 5.0, 50),
            (3, 50, 0.05, 50),
        ];
        for (dev, rows, dur, mta) in history {
            t.report(dev, rows, dur, mta);
            let reference = t.per_device.iter().cloned().fold(t.floor, Time::max);
            assert_eq!(t.get(), reference, "cache diverged after ({dev})");
        }
    }

    #[test]
    fn estimates_stay_within_bounds() {
        let mut t = MtaTimeTracker::new(1, 1.0);
        for _ in 0..50 {
            t.report(0, 0, 1.0, 50);
        }
        assert!(t.get() <= 60.0);
        for _ in 0..200 {
            t.report(0, 1000, 1e-9, 1);
        }
        assert!(t.get() >= 0.01);
    }
}
