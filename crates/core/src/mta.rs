//! MTA — minimum transmission amount (Sec. IV-B, Table I).
//!
//! If every push transmits at least a fraction `P` of the rows (stalest
//! first), then after `s` pushes at most `(1-P)^s` of the rows remain
//! untransmitted. For all rows to be refreshed before the staleness
//! threshold `S` triggers, the paper requires `(1-P)^(S-1) < P` and sets
//! MTA to the solution of the equality — tabulated in Table I:
//!
//! | threshold | 2 | 3 | 4 | 5 | 6 | 7 | 8 |
//! |---|---|---|---|---|---|---|---|
//! | MTA | 0.5 | 0.38 | 0.32 | 0.28 | 0.25 | 0.22 | 0.2 |
//!
//! [`Mta::new`] solves the fraction where a bound is set:
//! [`ServerRole::new`](crate::ServerRole::new),
//! [`ServerRole::set_bound`](crate::ServerRole::set_bound) and a `join`
//! worker's `Welcome`. Floors and grants read it, never re-solve it.

/// The MTA fraction for staleness threshold `s`: the root of
/// `(1 - P)^(s-1) = P` in `(0, 1)`.
///
/// For `s <= 1` every row must be transmitted every iteration (returns
/// 1.0).
///
/// # Example
///
/// ```
/// use rog_core::mta::mta_fraction;
///
/// assert!((mta_fraction(2) - 0.5).abs() < 1e-9);
/// assert!((mta_fraction(4) - 0.32).abs() < 0.005); // Table I
/// ```
pub fn mta_fraction(s: u32) -> f64 {
    if s <= 1 {
        return 1.0;
    }
    let e = (s - 1) as f64;
    // f(p) = (1-p)^e - p is strictly decreasing on [0, 1] with f(0) = 1
    // and f(1) = -1: bisect. Once `mid` rounds onto an end every later
    // step reproduces it, so stopping there keeps the 200-step bits.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if (1.0 - mid).powf(e) - mid > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A staleness bound with its MTA fraction, solved once by
/// [`Mta::new`] and carried wherever the bound goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mta {
    threshold: u32,
    fraction: f64,
}

impl Mta {
    /// Threshold `threshold` with its [`mta_fraction`].
    pub fn new(threshold: u32) -> Self {
        let fraction = mta_fraction(threshold);
        Self {
            threshold,
            fraction,
        }
    }

    /// The staleness threshold.
    pub fn threshold(self) -> u32 {
        self.threshold
    }

    /// [`mta_fraction`] of the threshold.
    pub fn fraction(self) -> f64 {
        self.fraction
    }

    /// Number of rows a push must include for `n_rows` total rows (at
    /// least 1 for non-empty models).
    pub fn rows(self, n_rows: usize) -> usize {
        ((n_rows as f64 * self.fraction).ceil() as usize).clamp(n_rows.min(1), n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reproduces_table_1() {
        // Paper Table I, to the two decimals printed there.
        let expected = [
            (2u32, 0.5),
            (3, 0.38),
            (4, 0.32),
            (5, 0.28),
            (6, 0.25),
            (7, 0.22),
            (8, 0.2),
        ];
        for (s, want) in expected {
            let got = mta_fraction(s);
            assert!(
                (got - want).abs() < 0.005,
                "threshold {s}: got {got}, table says {want}"
            );
        }
    }

    #[test]
    fn degenerate_thresholds_require_everything() {
        assert_eq!(mta_fraction(0), 1.0);
        assert_eq!(mta_fraction(1), 1.0);
    }

    #[test]
    fn mta_rows_rounds_up_and_clamps() {
        assert_eq!(Mta::new(2).rows(100), 50);
        assert_eq!(Mta::new(8).rows(3), 1);
        assert_eq!(Mta::new(4).rows(0), 0);
        assert_eq!(Mta::new(64).rows(1), 1);
    }

    /// The bisection as it ran before the early exit: all 200 steps.
    fn two_hundred_steps(s: u32) -> f64 {
        if s <= 1 {
            return 1.0;
        }
        let e = (s - 1) as f64;
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if (1.0 - mid).powf(e) - mid > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn the_early_exit_keeps_the_200_step_bits() {
        for s in 0..=4096u32 {
            let (got, want) = (mta_fraction(s), two_hundred_steps(s));
            assert_eq!(got.to_bits(), want.to_bits(), "threshold {s}");
            let mta = Mta::new(s);
            assert_eq!(
                (mta.threshold(), mta.fraction().to_bits()),
                (s, want.to_bits())
            );
        }
    }

    proptest! {
        #[test]
        fn prop_solution_satisfies_inequality(s in 2u32..64) {
            let p = mta_fraction(s);
            prop_assert!((0.0..1.0).contains(&p));
            // Slightly above the root the strict inequality holds.
            let p_eps = p + 1e-6;
            prop_assert!((1.0 - p_eps).powf((s - 1) as f64) < p_eps);
            // At the root it's an equality within tolerance.
            prop_assert!(((1.0 - p).powf((s - 1) as f64) - p).abs() < 1e-9);
        }

        #[test]
        fn prop_mta_decreases_with_threshold(s in 2u32..63) {
            prop_assert!(mta_fraction(s + 1) < mta_fraction(s));
        }

        #[test]
        fn prop_stalest_first_coverage(s in 2u32..16, n in 1usize..5000) {
            // Pushing the `Mta::rows` stalest rows each step refreshes
            // every row within ceil(1/P) steps — the deterministic
            // counterpart of the paper's probabilistic (1-P)^s argument.
            let p = mta_fraction(s);
            let k = Mta::new(s).rows(n);
            let steps = (1.0 / p).ceil() as usize;
            let mut untransmitted = n;
            for _ in 0..steps {
                untransmitted = untransmitted.saturating_sub(k);
            }
            prop_assert_eq!(untransmitted, 0, "n={}, s={}, k={}", n, s, k);
        }
    }
}
