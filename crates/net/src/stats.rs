//! Fluctuation statistics over bandwidth traces (paper Sec. II-B, Fig. 3).

use rog_sim::Time;

use crate::Trace;

/// Mean time between successive relative bandwidth fluctuations of at
/// least `frac` (e.g. `0.2` for the paper's "20 % fluctuation").
///
/// A fluctuation event is counted when the capacity departs from a
/// running reference value by at least `frac` relative to that reference;
/// the reference then resets, so overlapping excursions are counted once.
/// Returns `f64::INFINITY` if no event occurs.
///
/// # Example
///
/// ```
/// use rog_net::{Trace, stats};
///
/// let flat = Trace::from_samples(0.1, vec![100.0; 50]);
/// assert!(stats::mean_fluctuation_interval(&flat, 0.2).is_infinite());
///
/// let spiky = Trace::from_samples(0.1, vec![100.0, 10.0].repeat(25));
/// assert!(stats::mean_fluctuation_interval(&spiky, 0.2) < 0.2);
/// ```
pub fn mean_fluctuation_interval(trace: &Trace, frac: f64) -> Time {
    let samples = trace.samples();
    if samples.len() < 2 {
        return f64::INFINITY;
    }
    let mut reference = samples[0].max(f64::MIN_POSITIVE);
    let mut events = 0usize;
    for &v in &samples[1..] {
        if (v - reference).abs() / reference >= frac {
            events += 1;
            reference = v.max(f64::MIN_POSITIVE);
        }
    }
    if events == 0 {
        f64::INFINITY
    } else {
        trace.duration() / events as Time
    }
}

/// Fraction of samples below `frac` of the trace mean (how often the
/// channel has effectively collapsed — "dropped to extremely low values
/// around 0 Mbit/s" in the paper's outdoor measurements).
pub fn fraction_below(trace: &Trace, frac: f64) -> f64 {
    let threshold = frac * trace.mean();
    let n = trace.samples().len();
    trace.samples().iter().filter(|&&v| v < threshold).count() as f64 / n as f64
}

/// Coefficient of variation (stddev / mean) of the trace.
pub fn coefficient_of_variation(trace: &Trace) -> f64 {
    let mean = trace.mean();
    if mean == 0.0 {
        return 0.0;
    }
    let var = trace
        .samples()
        .iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / trace.samples().len() as f64;
    var.sqrt() / mean
}

/// Per-link loss-rate estimator: an exponentially weighted moving
/// average over delivery reports.
///
/// `Channel` feeds it one observation per finished flow (bad chunks /
/// total chunks); ATP's MTA computation can then discount a link's
/// [`crate::Channel::estimated_rate`] by the estimated loss to get an
/// expected *goodput* (see `Channel::estimated_goodput_rate`). The
/// first observation seeds the average directly so a link does not
/// have to "warm up" from a fictitious zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossEwma {
    alpha: f64,
    rate: Option<f64>,
}

impl LossEwma {
    /// Smoothing factor used by the channel's per-link estimators.
    pub const DEFAULT_ALPHA: f64 = 0.2;

    /// Creates an estimator with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Self { alpha, rate: None }
    }

    /// Records one delivery report: `bad` of `total` chunks were lost
    /// or corrupt. Reports with no chunks are ignored.
    pub fn observe(&mut self, bad: usize, total: usize) {
        if total == 0 {
            return;
        }
        let sample = bad as f64 / total as f64;
        self.rate = Some(match self.rate {
            None => sample,
            Some(r) => r + self.alpha * (sample - r),
        });
    }

    /// Current loss-rate estimate in `[0, 1]`; `0.0` before any
    /// observation (an unobserved link is assumed clean).
    pub fn rate(&self) -> f64 {
        self.rate.unwrap_or(0.0)
    }

    /// True once at least one report has been folded in.
    pub fn observed(&self) -> bool {
        self.rate.is_some()
    }
}

/// Summary row used by the Fig. 3 experiment (`rogctl figure fig3_bandwidth`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Mean capacity in bit/s.
    pub mean_bps: f64,
    /// Minimum capacity in bit/s.
    pub min_bps: f64,
    /// Maximum capacity in bit/s.
    pub max_bps: f64,
    /// Mean seconds between ≥20 % fluctuations.
    pub interval_20pct: Time,
    /// Mean seconds between ≥40 % fluctuations.
    pub interval_40pct: Time,
    /// Fraction of time below 10 % of the mean (deep fade).
    pub deep_fade_fraction: f64,
    /// Coefficient of variation.
    pub cv: f64,
}

/// Computes the full summary for a trace.
pub fn summarize(trace: &Trace) -> TraceSummary {
    TraceSummary {
        mean_bps: trace.mean(),
        min_bps: trace.min(),
        max_bps: trace.max(),
        interval_20pct: mean_fluctuation_interval(trace, 0.20),
        interval_40pct: mean_fluctuation_interval(trace, 0.40),
        deep_fade_fraction: fraction_below(trace, 0.10),
        cv: coefficient_of_variation(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_trace_never_fluctuates() {
        let t = Trace::from_samples(0.1, vec![5.0; 100]);
        assert!(mean_fluctuation_interval(&t, 0.01).is_infinite());
        assert_eq!(fraction_below(&t, 0.5), 0.0);
        assert_eq!(coefficient_of_variation(&t), 0.0);
    }

    #[test]
    fn alternating_trace_fluctuates_every_step() {
        let t = Trace::from_samples(0.1, [100.0, 50.0].repeat(50));
        let interval = mean_fluctuation_interval(&t, 0.2);
        // Every step is a ≥20% move relative to the previous reference.
        assert!((interval - 0.1).abs() < 0.02, "interval {interval}");
    }

    #[test]
    fn threshold_ordering_holds() {
        // Bigger thresholds can only be hit less often.
        let t = Trace::from_samples(
            0.1,
            (0..600)
                .map(|i| 100.0 + 40.0 * ((i as f64) * 0.7).sin() + 15.0 * ((i as f64) * 2.3).cos())
                .collect(),
        );
        let i10 = mean_fluctuation_interval(&t, 0.10);
        let i30 = mean_fluctuation_interval(&t, 0.30);
        assert!(i30 >= i10);
    }

    #[test]
    fn fraction_below_counts_fades() {
        let t = Trace::from_samples(0.1, vec![100.0, 100.0, 100.0, 1.0]);
        // mean = 75.25, threshold 7.525 → one sample below.
        assert!((fraction_below(&t, 0.1) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn loss_ewma_tracks_observations() {
        let mut e = LossEwma::new(0.5);
        assert_eq!(e.rate(), 0.0);
        assert!(!e.observed());
        e.observe(0, 0); // no chunks: ignored
        assert!(!e.observed());
        e.observe(2, 10); // seeds at 0.2
        assert!((e.rate() - 0.2).abs() < 1e-12);
        e.observe(10, 10); // 0.2 + 0.5·(1.0 − 0.2) = 0.6
        assert!((e.rate() - 0.6).abs() < 1e-12);
        e.observe(0, 10); // decays toward zero, never below it
        assert!((e.rate() - 0.3).abs() < 1e-12);
        assert!(e.observed());
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn loss_ewma_rejects_bad_alpha() {
        let _ = LossEwma::new(0.0);
    }

    #[test]
    fn summarize_is_consistent() {
        let t = Trace::from_samples(0.1, vec![10.0, 20.0, 30.0]);
        let s = summarize(&t);
        assert_eq!(s.mean_bps, 20.0);
        assert_eq!(s.min_bps, 10.0);
        assert_eq!(s.max_bps, 30.0);
    }
}
