//! Piecewise-constant time series.

use rog_sim::Time;

/// A piecewise-constant series sampled on a fixed grid, wrapping around
/// when read past its end (the paper's artifact replays its 5-minute
/// recorded traces in a loop the same way).
///
/// Used for channel capacity (values in bit/s) and per-link quality
/// factors (values in `[0, 1]`).
///
/// # Example
///
/// ```
/// use rog_net::Trace;
///
/// let t = Trace::from_samples(0.5, vec![10.0, 20.0]);
/// assert_eq!(t.value_at(0.0), 10.0);
/// assert_eq!(t.value_at(0.7), 20.0);
/// assert_eq!(t.value_at(1.1), 10.0); // wraps
/// assert_eq!(t.duration(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    dt: Time,
    samples: Vec<f64>,
}

impl Trace {
    /// Creates a trace from a sample grid of step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `samples` is empty.
    pub fn from_samples(dt: Time, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0, "trace step must be positive");
        assert!(!samples.is_empty(), "trace must have at least one sample");
        Self { dt, samples }
    }

    /// Creates a constant trace.
    pub fn constant(value: f64) -> Self {
        Self::from_samples(1.0, vec![value])
    }

    /// Sample step in seconds.
    pub fn dt(&self) -> Time {
        self.dt
    }

    /// Underlying samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Duration of one period of the trace.
    pub fn duration(&self) -> Time {
        self.dt * self.samples.len() as Time
    }

    /// Value at time `t` (wrapping past the end; clamped at negative `t`).
    pub fn value_at(&self, t: Time) -> f64 {
        self.samples[sample_index(self.dt, self.samples.len(), t)]
    }

    /// The first grid breakpoint strictly after `t`.
    ///
    /// Between consecutive breakpoints the value is constant, so channel
    /// integration only needs to look at these instants.
    pub fn next_breakpoint_after(&self, t: Time) -> Time {
        next_breakpoint(self.dt, t)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Which of `n` samples on a `dt` grid holds at time `t`: wrapping past
/// the end, sample 0 at `t <= 0`. Shared by [`Trace`] and the generated
/// [`TraceStream`](crate::TraceStream), so both read the same sample.
pub(crate) fn sample_index(dt: Time, n: usize, t: Time) -> usize {
    if t <= 0.0 {
        0
    } else {
        (t / dt) as usize % n
    }
}

/// The first breakpoint of a `dt` grid strictly after `t`.
pub(crate) fn next_breakpoint(dt: Time, t: Time) -> Time {
    let bp = ((t / dt).floor() + 1.0) * dt;
    // Guard against t sitting exactly on a breakpoint within float noise.
    if bp <= t + 1e-12 {
        bp + dt
    } else {
        bp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lookup_and_wrap() {
        let t = Trace::from_samples(0.1, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.value_at(0.05), 1.0);
        assert_eq!(t.value_at(0.15), 2.0);
        assert_eq!(t.value_at(0.25), 3.0);
        assert_eq!(t.value_at(0.35), 1.0);
        assert_eq!(t.value_at(-1.0), 1.0);
    }

    #[test]
    fn breakpoints_advance_strictly() {
        let t = Trace::from_samples(0.1, vec![1.0; 10]);
        let bp = t.next_breakpoint_after(0.0);
        assert!((bp - 0.1).abs() < 1e-9);
        let bp2 = t.next_breakpoint_after(bp);
        assert!(bp2 > bp + 1e-6);
        assert!((bp2 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn breakpoint_mid_interval() {
        let t = Trace::from_samples(0.5, vec![1.0, 2.0]);
        assert!((t.next_breakpoint_after(0.7) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_stats() {
        let t = Trace::from_samples(1.0, vec![1.0, 3.0]);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.duration(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = Trace::from_samples(0.1, vec![]);
    }
}
