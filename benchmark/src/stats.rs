//! Order statistics, the speed normaliser's arithmetic, and the
//! virtual-result fingerprint.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; all-NaN for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `p`-quantile of an ascending slice, by the rule Python's
/// `statistics.quantiles(method="exclusive")` uses (position
/// `p·(n+1)`, linear interpolation, clamped to the extremes), so the
/// quartiles printed here match the ones the acceptance procedure takes.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let a = sorted[lo - 1];
    let b = sorted[lo.min(n - 1)];
    a + (b - a) * frac
}

/// The `p`-th percentile by nearest rank (for tail latencies of the
/// layer drive, where samples are plentiful).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Raw seconds → speed-normalised seconds: what the work would have
/// taken had the machine run the calibration kernel at its nominal
/// speed. `calibs` are the kernel's timings adjacent to the measurement.
pub fn normalise(raw_s: f64, calibs: &[f64], nominal_s: f64) -> f64 {
    let mean = calibs.iter().sum::<f64>() / calibs.len() as f64;
    raw_s * nominal_s / mean
}

/// Bit pattern of `x` with `-0.0` folded into `0.0`, so a sign flip of
/// zero — which no reader of the results can see — is not a difference.
pub fn f64_bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

/// FNV-1a (64-bit) over the little-endian bytes of `words`.
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = Summary::of(&[64.0, 1.0, 2.0, 32.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        assert_eq!(s.spread(), 30.0 / 8.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(median(&[]).is_nan());
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 990.0);
        assert_eq!(percentile_sorted(&v, 1.0), 1000.0);
        assert_eq!(percentile_sorted(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn normaliser_divides_out_machine_speed() {
        // A machine running 25 % slow stretches work and kernel alike.
        let nominal = 0.08;
        let fast = normalise(2.0, &[0.08, 0.08], nominal);
        let slow = normalise(2.5, &[0.10, 0.10], nominal);
        assert!((fast - 2.0).abs() < 1e-12);
        assert!((slow - 2.0).abs() < 1e-12);
        // Adjacent calibrations are averaged.
        assert!((normalise(1.0, &[0.06, 0.10], nominal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_stable_and_folds_negative_zero() {
        // Pinned value: the fingerprint must not drift between PRs, or
        // "simulated statistics unchanged" could not be read off it.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_eq!(fnv1a(&[0x61]), 0x6926_124a_7b14_33c4);
        assert_ne!(fnv1a(&[1, 2, 3]), fnv1a(&[1, 3, 2]));
        assert_eq!(f64_bits(-0.0), f64_bits(0.0));
        assert_ne!(f64_bits(-1.0), f64_bits(1.0));
        assert_eq!(f64_bits(1.5), 1.5f64.to_bits());
    }
}
