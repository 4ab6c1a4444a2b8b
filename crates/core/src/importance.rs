//! The ATP importance metric (Algorithm 3).
//!
//! Workers pushing to the parameter server give extra weight to *stale*
//! rows (`max(iter) - iter_i`), because stale pushed rows are what
//! trigger the server-side staleness gate and cause stall. The server
//! pulling to a worker instead favors *fresh* rows (`iter_i -
//! min(iter)`), which typically contribute more to accuracy. Both modes
//! add the mean absolute gradient value of the row. `f1`/`f2` are the
//! paper's empirical coefficients; here each term is normalized to
//! `[0, 1]` so the defaults are scale-free.
//!
//! The order is score descending, then row id ascending; `+0.0` and
//! `-0.0` are one score, and a NaN score ranks after every number (NaN
//! rows among themselves by id). [`ImportanceMetric::rank_into`] sorts
//! one `u128` key per row, `!ordered_bits(score + 0.0) << 64 | row`,
//! whose integer order is exactly that order.

use crate::RowId;

/// Reusable scratch for [`ImportanceMetric::rank_into`]: the per-row
/// sort keys stay allocated across calls, so steady-state ranking
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    keys: Vec<u128>,
}

/// The sign-flip map: `ordered_bits(a) < ordered_bits(b)` as integers
/// iff `a < b` as numbers, for `a`, `b` neither NaN nor `-0.0` (the
/// caller adds `0.0`, which makes `-0.0` `+0.0`). A NaN maps to 0,
/// below every number.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    (bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)) * u64::from(!x.is_nan())
}

/// Coefficients of the two importance terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceWeights {
    /// Weight of the gradient-magnitude term.
    pub f1: f64,
    /// Weight of the staleness/freshness term.
    pub f2: f64,
}

impl Default for ImportanceWeights {
    fn default() -> Self {
        Self { f1: 1.0, f2: 1.0 }
    }
}

/// Which side of the protocol is ranking rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportanceMode {
    /// Worker pushing to the parameter server: prioritize stale rows.
    Worker,
    /// Server sending to a worker: prioritize fresh rows.
    Server,
}

/// Ranks rows for transmission (highest importance first).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ImportanceMetric {
    /// Term weights.
    pub weights: ImportanceWeights,
}

impl ImportanceMetric {
    /// Creates a metric with the given weights.
    pub fn new(weights: ImportanceWeights) -> Self {
        Self { weights }
    }

    /// Writes every row id into `out` by descending importance (the
    /// module doc gives the order), reusing `scratch` for the per-row
    /// sort keys.
    ///
    /// `mean_abs[i]` is the mean absolute gradient of row `i`;
    /// `iters[i]` is the latest training iteration that updated row `i`
    /// (worker mode: last *pushed*; server mode: freshest content).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn rank_into(
        &self,
        mode: ImportanceMode,
        mean_abs: &[f32],
        iters: &[u64],
        scratch: &mut RankScratch,
        out: &mut Vec<RowId>,
    ) {
        assert_eq!(mean_abs.len(), iters.len(), "importance input mismatch");
        let n = mean_abs.len();
        out.clear();
        scratch.keys.clear();
        if n == 0 {
            return;
        }
        let max_abs = mean_abs.iter().cloned().fold(0.0f32, f32::max).max(1e-12);
        let min_iter = iters.iter().copied().min().unwrap_or(0);
        let max_iter = iters.iter().copied().max().unwrap_or(0);
        let span = (max_iter - min_iter).max(1) as f64;
        scratch.keys.extend((0..n).map(|i| {
            let mag = f64::from(mean_abs[i] / max_abs);
            let version_term = match mode {
                ImportanceMode::Worker => (max_iter - iters[i]) as f64 / span,
                ImportanceMode::Server => (iters[i] - min_iter) as f64 / span,
            };
            let score = self.weights.f1 * mag + self.weights.f2 * version_term;
            u128::from(!ordered_bits(score + 0.0)) << 64 | i as u128
        }));
        // Unique ids make every key distinct, so the unstable sort is
        // deterministic.
        scratch.keys.sort_unstable();
        out.extend(scratch.keys.iter().map(|&key| RowId(key as u64 as usize)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    fn rank(m: &ImportanceMetric, mode: ImportanceMode, mags: &[f32], iters: &[u64]) -> Vec<RowId> {
        let mut out = Vec::new();
        m.rank_into(mode, mags, iters, &mut RankScratch::default(), &mut out);
        out
    }

    /// The comparator sort `rank_into` replaced, scores computed as it
    /// computes them: score descending by `partial_cmp` (so `±0` are
    /// equal), then id ascending. The comparator cannot order a NaN, so
    /// NaN rows are set aside and appended by id: the rule `rank_into`
    /// keeps.
    fn comparator_rank(
        m: &ImportanceMetric,
        mode: ImportanceMode,
        mean_abs: &[f32],
        iters: &[u64],
    ) -> Vec<RowId> {
        let max_abs = mean_abs.iter().cloned().fold(0.0f32, f32::max).max(1e-12);
        let min_iter = iters.iter().copied().min().unwrap_or(0);
        let max_iter = iters.iter().copied().max().unwrap_or(0);
        let span = (max_iter - min_iter).max(1) as f64;
        let scores: Vec<f64> = (0..mean_abs.len())
            .map(|i| {
                let mag = f64::from(mean_abs[i] / max_abs);
                let version_term = match mode {
                    ImportanceMode::Worker => (max_iter - iters[i]) as f64 / span,
                    ImportanceMode::Server => (iters[i] - min_iter) as f64 / span,
                };
                m.weights.f1 * mag + m.weights.f2 * version_term
            })
            .collect();
        let (mut out, nan): (Vec<RowId>, Vec<RowId>) = (0..scores.len())
            .map(RowId)
            .partition(|id| !scores[id.0].is_nan());
        out.sort_unstable_by(|a, b| {
            scores[b.0]
                .partial_cmp(&scores[a.0])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out.extend(nan);
        out
    }

    #[test]
    fn nan_scores_rank_after_every_number_by_id() {
        // An infinite magnitude makes `max_abs` infinite: rows 1 and 3
        // score NaN (`inf / inf`), the others 0 or -1.
        let m = ImportanceMetric::new(ImportanceWeights { f1: 1.0, f2: -1.0 });
        let mags = [0.5, f32::INFINITY, 0.5, f32::INFINITY, 0.5];
        let order = rank(&m, ImportanceMode::Worker, &mags, &[7, 7, 6, 7, 7]);
        assert_eq!(order, [0, 4, 2, 1, 3].map(RowId));
        // f1 = -inf: zero magnitudes score NaN (`-inf * 0`), the rest -inf.
        let m = ImportanceMetric::new(ImportanceWeights {
            f1: -f64::INFINITY,
            f2: 0.0,
        });
        let order = rank(&m, ImportanceMode::Worker, &[0.0, 0.5, 0.0, 1.0], &[1; 4]);
        assert_eq!(order, [1, 3, 0, 2].map(RowId));
        // NaN magnitudes of either sign (a row's NaN gradient gives a
        // positive one: `mean_abs` takes `abs`).
        let m = ImportanceMetric::default();
        let mags = [f32::NAN, 0.5, -f32::NAN, 0.25];
        let order = rank(&m, ImportanceMode::Server, &mags, &[2; 4]);
        assert_eq!(order, [1, 3, 0, 2].map(RowId));
    }

    #[test]
    fn signed_zero_scores_tie_by_id() {
        // f1 = -1: a `+0.0` magnitude scores `-0.0`, a `-0.0` one `+0.0`.
        let m = ImportanceMetric::new(ImportanceWeights { f1: -1.0, f2: -0.0 });
        let order = rank(&m, ImportanceMode::Server, &[0.0, -0.0, 0.0, -0.0], &[3; 4]);
        assert_eq!(order, [0, 1, 2, 3].map(RowId));
    }

    #[test]
    fn worker_mode_prioritizes_stale_rows() {
        let m = ImportanceMetric::default();
        // Equal magnitudes; row 1 is two iterations stale.
        let order = rank(&m, ImportanceMode::Worker, &[0.5, 0.5, 0.5], &[5, 3, 5]);
        assert_eq!(order[0], RowId(1));
    }

    #[test]
    fn server_mode_prioritizes_fresh_rows() {
        let m = ImportanceMetric::default();
        let order = rank(&m, ImportanceMode::Server, &[0.5, 0.5, 0.5], &[5, 3, 4]);
        assert_eq!(order[0], RowId(0));
        assert_eq!(order[2], RowId(1));
    }

    #[test]
    fn large_gradients_win_at_equal_staleness() {
        let m = ImportanceMetric::default();
        let order = rank(&m, ImportanceMode::Worker, &[0.1, 0.9, 0.4], &[2, 2, 2]);
        assert_eq!(order, vec![RowId(1), RowId(2), RowId(0)]);
    }

    #[test]
    fn weights_trade_off_terms() {
        // Magnitude-only metric ignores staleness entirely.
        let mag_only = ImportanceMetric::new(ImportanceWeights { f1: 1.0, f2: 0.0 });
        let order = rank(&mag_only, ImportanceMode::Worker, &[0.9, 0.1], &[0, 9]);
        assert_eq!(order[0], RowId(0));
        // Staleness-only metric ignores magnitude.
        let stale_only = ImportanceMetric::new(ImportanceWeights { f1: 0.0, f2: 1.0 });
        let order = rank(&stale_only, ImportanceMode::Worker, &[0.9, 0.1], &[9, 0]);
        assert_eq!(order[0], RowId(1));
    }

    #[test]
    fn empty_input_is_empty() {
        let m = ImportanceMetric::default();
        assert!(rank(&m, ImportanceMode::Worker, &[], &[]).is_empty());
    }

    #[test]
    fn ties_break_deterministically_by_id() {
        let m = ImportanceMetric::default();
        let order = rank(&m, ImportanceMode::Worker, &[0.5; 4], &[1; 4]);
        assert_eq!(order, vec![RowId(0), RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn rank_into_reuses_buffers() {
        let m = ImportanceMetric::default();
        let mut scratch = RankScratch::default();
        let mut out = Vec::new();
        m.rank_into(
            ImportanceMode::Server,
            &[0.1, 0.9],
            &[1, 2],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![RowId(1), RowId(0)]);
        // A second call with different inputs fully overwrites.
        m.rank_into(
            ImportanceMode::Server,
            &[0.9, 0.1, 0.5],
            &[2, 2, 2],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![RowId(0), RowId(2), RowId(1)]);
    }

    proptest! {
        /// `rank_into` is the comparator sort in both modes, on inputs
        /// built to tie: zero magnitudes of either sign, iterations in a
        /// window a few wide, weights of `±0`, negative or infinite, and
        /// now and then an infinite or a NaN magnitude of either sign
        /// (NaN scores); 1 to 40 000 rows.
        #[test]
        fn prop_rank_into_is_the_comparator_sort(
            seed in 0u64..u64::MAX,
            size in 0usize..4,
            weights in (0usize..8, 0usize..8),
        ) {
            const W: [f64; 8] = [1.0, 0.0, -0.0, -1.0, 0.25, 3.0, f64::INFINITY, -f64::INFINITY];
            let m = ImportanceMetric::new(ImportanceWeights { f1: W[weights.0], f2: W[weights.1] });
            let mut rng = DetRng::new(seed);
            let n = 1 + rng.index([8, 300, 5_000, 40_000][size]);
            let window = 1 + rng.index(4) as u64;
            let mut mags: Vec<f32> = (0..n)
                .map(|_| match rng.index(4) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => rng.index(4) as f32 * 0.25,
                    _ => rng.uniform() as f32,
                })
                .collect();
            for special in [f32::INFINITY, f32::NAN, -f32::NAN] {
                if rng.chance(0.2) {
                    mags[rng.index(n)] = special;
                }
            }
            let iters: Vec<u64> = (0..n).map(|_| 100 + rng.index(window as usize) as u64).collect();
            let (mut scratch, mut got) = (RankScratch::default(), Vec::new());
            for mode in [ImportanceMode::Worker, ImportanceMode::Server] {
                m.rank_into(mode, &mags, &iters, &mut scratch, &mut got);
                prop_assert_eq!(&got, &comparator_rank(&m, mode, &mags, &iters));
            }
        }

        #[test]
        fn prop_rank_is_permutation(
            mags in proptest::collection::vec(0.0f32..10.0, 0..64),
        ) {
            let iters: Vec<u64> = (0..mags.len() as u64).collect();
            let m = ImportanceMetric::default();
            let mut order: Vec<usize> = rank(&m, ImportanceMode::Server, &mags, &iters)
                .into_iter()
                .map(|r| r.0)
                .collect();
            order.sort_unstable();
            prop_assert_eq!(order, (0..mags.len()).collect::<Vec<_>>());
        }
    }
}
