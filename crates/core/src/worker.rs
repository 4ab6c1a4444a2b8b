//! The ROG local-worker state machine (Algorithm 1).
//!
//! Per iteration a worker: computes gradients and adds them to the
//! per-row *accumulated* gradients `g'`; ranks rows with the importance
//! metric (stale rows first — the worker side of RSP's second level);
//! speculatively transmits the prefix the time budget allows (at least
//! MTA rows); zeroes the accumulated gradients of transmitted rows and
//! records their push iteration; and finally applies whatever averaged
//! row gradients the server sent back.
//!
//! Time and transport live in `rog-trainer`; this type owns everything
//! else: accumulation, ranking, compression (with per-row error
//! feedback), and the optimizer step.

use rog_compress::{Codec, CodecChoice, CodecState};
use rog_tensor::{ops, Matrix};

use crate::{gate, ImportanceMetric, ImportanceMode, RankScratch, RowBatch, RowId, RowPartition};

/// Configuration of a ROG worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RogWorkerConfig {
    /// RSP staleness threshold `t`.
    pub threshold: u32,
    /// Importance metric for push ranking.
    pub importance: ImportanceMetric,
    /// Learning rate applied to pulled averaged gradients.
    pub lr: f32,
    /// Row codec for pushed gradients (`Auto` starts on the one-bit
    /// rung; the engine's controller switches rungs at runtime).
    pub codec: CodecChoice,
    /// Seed of the worker's stochastic-rounding stream (only drawn from
    /// by randomizing codecs such as the quantization ladder).
    pub codec_seed: u64,
}

impl RogWorkerConfig {
    /// A config with the given threshold and learning rate, default
    /// importance, plain SGD, and the one-bit codec.
    pub fn new(threshold: u32, lr: f32) -> Self {
        Self {
            threshold,
            importance: ImportanceMetric::default(),
            lr,
            codec: CodecChoice::OneBit,
            codec_seed: 0,
        }
    }

    /// Selects the row codec and the seed of its stochastic stream.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecChoice, seed: u64) -> Self {
        self.codec = codec;
        self.codec_seed = seed;
        self
    }
}

/// Worker-side ROG state (Algorithm 1).
#[derive(Debug, Clone)]
pub struct RogWorker {
    partition: RowPartition,
    /// Accumulated gradients `g'` (same shapes as the parameters).
    accum: Vec<Matrix>,
    /// Last iteration each row was pushed (`iters` in Algorithm 1).
    iters: Vec<u64>,
    /// The active row codec (switchable at runtime under `Auto`).
    codec: Codec,
    /// Per-row compression residuals + stochastic-rounding stream.
    state: CodecState,
    cfg: RogWorkerConfig,
    /// Ranking scratch, reused across push plans.
    scratch: RankScratch,
    /// Per-row mean-|g'| buffer, reused across push plans.
    mean_abs_buf: Vec<f32>,
    /// Importance order buffer, reused across push plans.
    ranked_buf: Vec<RowId>,
}

impl RogWorker {
    /// Creates a worker for a model with the given parameter matrices.
    pub fn new(params: &[Matrix], cfg: RogWorkerConfig) -> Self {
        let partition = RowPartition::of_params(params);
        Self {
            accum: params
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
            iters: vec![0; partition.n_rows()],
            codec: cfg.codec.build(),
            state: CodecState::new(partition.widths(), cfg.codec_seed),
            partition,
            cfg,
            scratch: RankScratch::default(),
            mean_abs_buf: Vec::new(),
            ranked_buf: Vec::new(),
        }
    }

    /// The row partition of the model.
    pub fn partition(&self) -> &RowPartition {
        &self.partition
    }

    /// The worker configuration.
    pub fn config(&self) -> &RogWorkerConfig {
        &self.cfg
    }

    /// The active row codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Switches the active row codec (the per-link auto controller).
    /// Error-feedback residuals carry over — the mass they hold is
    /// codec-independent, so no information is dropped at a switch.
    pub fn set_codec(&mut self, codec: Codec) {
        self.codec = codec;
    }

    /// Last-push iteration of every row.
    pub fn row_iters(&self) -> &[u64] {
        &self.iters
    }

    /// Adds freshly computed gradients to the accumulated gradients
    /// (`g' ← g' + g`, Algorithm 1 line 3).
    ///
    /// # Panics
    ///
    /// Panics if `grads` shapes do not match the model.
    pub fn accumulate(&mut self, grads: &[Matrix]) {
        assert_eq!(grads.len(), self.accum.len(), "gradient set mismatch");
        for (a, g) in self.accum.iter_mut().zip(grads) {
            a.add_scaled(g, 1.0).expect("gradient shapes match model");
        }
    }

    /// Mean absolute accumulated gradient of each row.
    pub fn row_mean_abs(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.row_mean_abs_into(&mut out);
        out
    }

    fn row_mean_abs_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(
            (0..self.partition.n_rows())
                .map(|i| ops::mean_abs(self.partition.row(&self.accum, RowId(i)))),
        );
    }

    /// Ranks all rows for pushing at iteration `n` (Algorithm 3, worker
    /// mode), with RSP's worker-level staleness rule applied: rows whose
    /// staleness would reach the threshold if skipped are *mandatory* and
    /// are placed first (stalest first), ahead of the importance order.
    /// Writes the plan into `out`, reusing the worker's ranking buffers.
    pub fn plan_push_into(&mut self, n: u64, out: &mut Vec<RowId>) {
        self.plan_push_at(n, self.cfg.threshold, out);
    }

    /// [`Self::plan_push_into`] under staleness threshold `t` in place
    /// of the configured one.
    pub fn plan_push_at(&mut self, n: u64, t: u32, out: &mut Vec<RowId>) {
        let mut mean_abs = std::mem::take(&mut self.mean_abs_buf);
        let mut ranked = std::mem::take(&mut self.ranked_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.row_mean_abs_into(&mut mean_abs);
        self.cfg.importance.rank_into(
            ImportanceMode::Worker,
            &mean_abs,
            &self.iters,
            &mut scratch,
            &mut ranked,
        );
        let iters = &self.iters;
        let is_mandatory = |id: RowId| gate::row_is_mandatory(iters[id.0], n, t);
        out.clear();
        out.extend(ranked.iter().copied().filter(|&id| is_mandatory(id)));
        out.sort_unstable_by_key(|&id| (iters[id.0], id.0));
        out.extend(ranked.iter().copied().filter(|&id| !is_mandatory(id)));
        self.mean_abs_buf = mean_abs;
        self.ranked_buf = ranked;
        self.scratch = scratch;
    }

    /// Compressed payload size of one row on the wire, as the active
    /// codec would frame it right now (content-sized codecs account the
    /// current accumulated gradient plus residual).
    pub fn payload_bytes(&self, id: RowId) -> u64 {
        self.state
            .planned_payload_bytes(&self.codec, id.0, self.partition.row(&self.accum, id))
    }

    /// [`RogWorker::commit_push_into`] into a fresh batch.
    pub fn commit_push(&mut self, rows: &[RowId], n: u64) -> RowBatch {
        let mut out = RowBatch::default();
        self.commit_push_into(rows, n, &mut out);
        out
    }

    /// Commits a push: compresses the accumulated gradients of the rows
    /// actually delivered (error feedback retained), zeroes their
    /// accumulation and stamps their push iteration (Algorithm 1 lines
    /// 9–12). Replaces `out`'s rows with the values the server
    /// receives, in order.
    pub fn commit_push_into(&mut self, rows: &[RowId], n: u64, out: &mut RowBatch) {
        out.clear();
        out.reserve(
            rows.len(),
            rows.iter().map(|&id| self.partition.width(id)).sum(),
        );
        for &id in rows {
            let row = self.partition.row_mut(&mut self.accum, id);
            let restored = out.push_row(id, row.len());
            self.state.restore_into(&self.codec, id.0, row, restored);
            row.fill(0.0);
            self.iters[id.0] = n;
        }
    }

    /// Applies pulled averaged gradients to the model parameters
    /// (Algorithm 1 lines 13–17) by plain per-row SGD.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match.
    pub fn apply_pulled(&mut self, params: &mut [Matrix], rows: &RowBatch) {
        for (id, g) in rows.iter() {
            let r = self.partition.locate(id);
            ops::sgd_row(params[r.matrix].row_mut(r.row), g, self.cfg.lr);
        }
    }

    /// Rebuilds the worker's transient state after a cold rejoin resync
    /// at iteration `n`: accumulated gradients and compression residuals
    /// are dropped (they belong to the model lineage that died with the
    /// fault), and every row's push iteration is stamped to `n` so the
    /// freshly adopted model re-enters the staleness bound with zero row
    /// staleness.
    pub fn reset_for_rejoin(&mut self, n: u64) {
        for m in &mut self.accum {
            m.fill_zero();
        }
        self.state.reset();
        self.iters.fill(n);
    }

    /// Staleness of the worker's stalest row at iteration `n`
    /// (worker-level RSP diagnostic).
    pub fn max_row_staleness(&self, n: u64) -> u64 {
        self.iters
            .iter()
            .map(|&it| n.saturating_sub(it))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<Matrix> {
        vec![Matrix::zeros(3, 4), Matrix::zeros(1, 3)]
    }

    fn grads(scale: f32) -> Vec<Matrix> {
        vec![
            Matrix::from_fn(3, 4, |r, _| (r as f32 + 1.0) * scale),
            Matrix::from_fn(1, 3, |_, c| (c as f32 + 1.0) * scale),
        ]
    }

    #[test]
    fn accumulation_adds_up() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
        w.accumulate(&grads(1.0));
        w.accumulate(&grads(2.0));
        let mean_abs = w.row_mean_abs();
        // Row 0 of matrix 0 has all values 1.0 + 2.0 = 3.0.
        assert!((mean_abs[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn plan_push_orders_by_magnitude_initially() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
        w.accumulate(&grads(1.0));
        let mut plan = Vec::new();
        w.plan_push_into(1, &mut plan);
        assert_eq!(plan.len(), 4);
        // Row 2 (values 3.0) has the largest magnitude.
        assert_eq!(plan[0], RowId(2));
    }

    #[test]
    fn commit_push_zeroes_and_stamps() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
        w.accumulate(&grads(1.0));
        let sent = w.commit_push(&[RowId(2)], 1);
        assert_eq!(sent.len(), 1);
        assert_eq!(w.row_iters()[2], 1);
        assert_eq!(w.row_mean_abs()[2], 0.0);
        // Untransmitted rows keep accumulating.
        assert!(w.row_mean_abs()[0] > 0.0);
    }

    #[test]
    fn compression_error_is_carried_not_lost() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
        w.accumulate(&grads(1.0));
        let g_before: Vec<f32> = vec![1.0; 4];
        let sent = w.commit_push(&[RowId(0)], 1);
        let restored = sent.iter().next().unwrap().1;
        // Residual + restored == original row.
        // Push again with fresh gradients; the residual rides along.
        w.accumulate(&grads(1.0));
        let sent2 = w.commit_push(&[RowId(0)], 2);
        let total_restored: Vec<f32> = restored
            .iter()
            .zip(sent2.iter().next().unwrap().1)
            .map(|(a, b)| a + b)
            .collect();
        // Across two rounds, delivered ≈ total gradient (2 rounds of 1.0)
        // minus the still-held residual, which is bounded.
        for (d, want) in total_restored.iter().zip(g_before.iter().map(|v| v * 2.0)) {
            assert!((d - want).abs() < 1.0, "delivered {d} vs produced {want}");
        }
    }

    #[test]
    fn mandatory_stale_rows_jump_the_queue() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(3, 0.1));
        w.accumulate(&grads(1.0));
        // Push everything except row 1 across iterations 1 and 2.
        w.commit_push(&[RowId(0), RowId(2), RowId(3)], 1);
        w.accumulate(&grads(1.0));
        w.commit_push(&[RowId(0), RowId(2), RowId(3)], 2);
        w.accumulate(&grads(0.001)); // row 1 now has small gradients
                                     // At iteration 3 row 1 has staleness 3 >= threshold: mandatory.
        let mut plan = Vec::new();
        w.plan_push_into(3, &mut plan);
        assert_eq!(plan[0], RowId(1), "stale row must be first: {plan:?}");
    }

    #[test]
    fn apply_pulled_is_sgd() {
        let mut ps = params();
        let mut w = RogWorker::new(&ps, RogWorkerConfig::new(4, 0.5));
        let pulled = [(RowId(0), [1.0, 2.0, 3.0, 4.0])].into_iter().collect();
        w.apply_pulled(&mut ps, &pulled);
        assert_eq!(ps[0].row(0), &[-0.5, -1.0, -1.5, -2.0]);
    }

    #[test]
    fn reset_for_rejoin_drops_transient_state_and_stamps_rows() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(3, 0.1));
        w.accumulate(&grads(1.0));
        w.commit_push(&[RowId(0)], 2);
        w.reset_for_rejoin(7);
        assert!(w.row_mean_abs().iter().all(|&m| m == 0.0), "accum cleared");
        assert!(w.row_iters().iter().all(|&it| it == 7), "rows stamped");
        assert_eq!(w.max_row_staleness(7), 0);
    }

    #[test]
    fn staleness_diagnostic() {
        let mut w = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
        assert_eq!(w.max_row_staleness(2), 2);
        w.commit_push(&(0..4).map(RowId).collect::<Vec<_>>(), 2);
        assert_eq!(w.max_row_staleness(2), 0);
    }
}
