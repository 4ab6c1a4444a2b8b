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

use crate::RowId;

/// Reusable scratch for [`ImportanceMetric::rank_into`]: the per-row
/// score buffer stays allocated across calls, so steady-state ranking
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    scores: Vec<f64>,
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

    /// Returns row ids sorted by descending importance (ties broken by
    /// row id for determinism).
    ///
    /// `mean_abs[i]` is the mean absolute gradient of row `i`;
    /// `iters[i]` is the latest training iteration that updated row `i`
    /// (worker mode: last *pushed*; server mode: freshest content).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn rank(&self, mode: ImportanceMode, mean_abs: &[f32], iters: &[u64]) -> Vec<RowId> {
        let mut out = Vec::new();
        self.rank_into(mode, mean_abs, iters, &mut RankScratch::default(), &mut out);
        out
    }

    /// Allocation-free variant of [`ImportanceMetric::rank`]: writes the
    /// full descending-importance order into `out`, reusing `scratch`
    /// for the per-row scores.
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
        scratch.scores.clear();
        if n == 0 {
            return;
        }
        let max_abs = mean_abs.iter().cloned().fold(0.0f32, f32::max).max(1e-12);
        let min_iter = iters.iter().copied().min().unwrap_or(0);
        let max_iter = iters.iter().copied().max().unwrap_or(0);
        let span = (max_iter - min_iter).max(1) as f64;
        scratch.scores.extend((0..n).map(|i| {
            let mag = f64::from(mean_abs[i] / max_abs);
            let version_term = match mode {
                ImportanceMode::Worker => (max_iter - iters[i]) as f64 / span,
                ImportanceMode::Server => (iters[i] - min_iter) as f64 / span,
            };
            self.weights.f1 * mag + self.weights.f2 * version_term
        }));
        out.extend((0..n).map(RowId));
        let scores = &scratch.scores;
        out.sort_unstable_by(|a, b| Self::by_score(scores, *a, *b));
    }

    /// Score-descending, id-ascending total order (unique ids make ties
    /// impossible, so unstable sorts are deterministic).
    fn by_score(scores: &[f64], a: RowId, b: RowId) -> std::cmp::Ordering {
        scores[b.0]
            .partial_cmp(&scores[a.0])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worker_mode_prioritizes_stale_rows() {
        let m = ImportanceMetric::default();
        // Equal magnitudes; row 1 is two iterations stale.
        let order = m.rank(ImportanceMode::Worker, &[0.5, 0.5, 0.5], &[5, 3, 5]);
        assert_eq!(order[0], RowId(1));
    }

    #[test]
    fn server_mode_prioritizes_fresh_rows() {
        let m = ImportanceMetric::default();
        let order = m.rank(ImportanceMode::Server, &[0.5, 0.5, 0.5], &[5, 3, 4]);
        assert_eq!(order[0], RowId(0));
        assert_eq!(order[2], RowId(1));
    }

    #[test]
    fn large_gradients_win_at_equal_staleness() {
        let m = ImportanceMetric::default();
        let order = m.rank(ImportanceMode::Worker, &[0.1, 0.9, 0.4], &[2, 2, 2]);
        assert_eq!(order, vec![RowId(1), RowId(2), RowId(0)]);
    }

    #[test]
    fn weights_trade_off_terms() {
        // Magnitude-only metric ignores staleness entirely.
        let mag_only = ImportanceMetric::new(ImportanceWeights { f1: 1.0, f2: 0.0 });
        let order = mag_only.rank(ImportanceMode::Worker, &[0.9, 0.1], &[0, 9]);
        assert_eq!(order[0], RowId(0));
        // Staleness-only metric ignores magnitude.
        let stale_only = ImportanceMetric::new(ImportanceWeights { f1: 0.0, f2: 1.0 });
        let order = stale_only.rank(ImportanceMode::Worker, &[0.9, 0.1], &[9, 0]);
        assert_eq!(order[0], RowId(1));
    }

    #[test]
    fn empty_input_is_empty() {
        let m = ImportanceMetric::default();
        assert!(m.rank(ImportanceMode::Worker, &[], &[]).is_empty());
    }

    #[test]
    fn ties_break_deterministically_by_id() {
        let m = ImportanceMetric::default();
        let order = m.rank(ImportanceMode::Worker, &[0.5; 4], &[1; 4]);
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
        #[test]
        fn prop_rank_is_permutation(
            mags in proptest::collection::vec(0.0f32..10.0, 0..64),
        ) {
            let iters: Vec<u64> = (0..mags.len() as u64).collect();
            let m = ImportanceMetric::default();
            let mut order: Vec<usize> = m
                .rank(ImportanceMode::Server, &mags, &iters)
                .into_iter()
                .map(|r| r.0)
                .collect();
            order.sort_unstable();
            prop_assert_eq!(order, (0..mags.len()).collect::<Vec<_>>());
        }
    }
}
