//! The ROG parameter server (Algorithm 2).
//!
//! The server keeps, *per worker*, a copy of the accumulated averaged
//! gradients (`ḡ^r`): a push from any worker is averaged into every
//! worker's copy, and a pull to worker `r` drains only `r`'s copy. Every
//! worker therefore eventually applies exactly the same gradients, which
//! is why partial (row-granular) transmission does not break consistency
//! (paper Sec. III-B).

use rog_compress::{Codec, CodecChoice, CodecState, OneBitCodec, RowCodec};
use rog_tensor::rng::DetRng;
use rog_tensor::{ops, Matrix};

use crate::{ImportanceMetric, ImportanceMode, RankScratch, RowId, RowPartition, RowVersionStore};

/// Parameter-server-side ROG state.
#[derive(Debug, Clone)]
pub struct RogServer {
    partition: RowPartition,
    n_workers: usize,
    threshold: u32,
    importance: ImportanceMetric,
    /// `accum[r]` = averaged gradients pending for worker `r`.
    accum: Vec<Vec<Matrix>>,
    /// `fresh[r][row]` = freshest iteration contributing to that cell
    /// (0 = no pending content).
    fresh: Vec<Vec<u64>>,
    /// `v_i^r` version storage.
    versions: RowVersionStore,
    /// Per-destination-worker pull codec (the per-link auto controller
    /// may switch individual links independently).
    codecs: Vec<Codec>,
    /// Per-destination-worker compression residuals for pulls.
    states: Vec<CodecState>,
    /// Membership mask: pushes are averaged over (and fanned out to)
    /// active workers only.
    active: Vec<bool>,
    /// Ranking scratch, reused across pull plans.
    scratch: RankScratch,
    /// Per-row mean-|ḡ| buffer, reused across pull plans.
    mean_abs_buf: Vec<f32>,
    /// Importance order buffer, reused across pull plans.
    ranked_buf: Vec<RowId>,
    /// Count of NaN/Inf gradient values zeroed at ingest (a corrupted
    /// or diverging worker must not poison every peer's pending copy).
    nonfinite_dropped: u64,
}

impl RogServer {
    /// Creates a server for `n_workers` sharing a model shaped like
    /// `params`.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0` or the model has no rows.
    pub fn new(
        params: &[Matrix],
        n_workers: usize,
        threshold: u32,
        importance: ImportanceMetric,
    ) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        let partition = RowPartition::of_params(params);
        assert!(partition.n_rows() > 0, "model has no rows");
        let zero: Vec<Matrix> = params
            .iter()
            .map(|m| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        let widths = partition.widths().to_vec();
        Self {
            n_workers,
            threshold,
            importance,
            accum: vec![zero; n_workers],
            fresh: vec![vec![0; partition.n_rows()]; n_workers],
            versions: RowVersionStore::new(n_workers, partition.n_rows()),
            codecs: vec![Codec::default(); n_workers],
            states: (0..n_workers)
                .map(|_| CodecState::new(&widths, 0))
                .collect(),
            active: vec![true; n_workers],
            partition,
            scratch: RankScratch::default(),
            mean_abs_buf: Vec::new(),
            ranked_buf: Vec::new(),
            nonfinite_dropped: 0,
        }
    }

    /// Number of NaN/Inf gradient values zeroed at push ingest so far.
    pub fn nonfinite_dropped(&self) -> u64 {
        self.nonfinite_dropped
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The staleness threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Changes the staleness threshold (used by the auto-threshold
    /// controller extension). Takes effect at the next gate check.
    pub fn set_threshold(&mut self, threshold: u32) {
        self.threshold = threshold;
    }

    /// Configures the pull codec of every link from `choice`, reseeding
    /// each destination worker's stochastic stream from a fork of
    /// `seed`. Call before training starts — it rebuilds the residual
    /// state.
    pub fn configure_codec(&mut self, choice: CodecChoice, seed: u64) {
        let widths = self.partition.widths().to_vec();
        let base = DetRng::new(seed);
        self.codecs = vec![choice.build(); self.n_workers];
        self.states = (0..self.n_workers)
            .map(|w| CodecState::new(&widths, base.fork(w as u64).seed()))
            .collect();
    }

    /// The active pull codec of the link to `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn codec(&self, worker: usize) -> &Codec {
        &self.codecs[worker]
    }

    /// Switches the pull codec of the link to `worker` (the per-link
    /// auto controller). Residuals carry over — the held mass is
    /// codec-independent.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn set_codec(&mut self, worker: usize, codec: Codec) {
        self.codecs[worker] = codec;
    }

    /// The version storage (shared; `min(V)` and gate queries are
    /// `&self` reads on the sparse store).
    pub fn versions(&self) -> &RowVersionStore {
        &self.versions
    }

    /// Number of currently active (joined) workers.
    pub fn active_workers(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether `worker` is currently a cluster member.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn is_active(&self, worker: usize) -> bool {
        self.active[worker]
    }

    /// Removes `worker` from the active set: its frozen version rows
    /// stop gating the cluster, subsequent pushes are averaged over the
    /// remaining members only, and nothing further accumulates for it.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn deactivate_worker(&mut self, worker: usize) {
        assert!(worker < self.n_workers, "worker out of range");
        if !self.active[worker] {
            return;
        }
        self.active[worker] = false;
        self.versions.set_active(worker, false);
    }

    /// Readmits `worker` after a cold resync at iteration `iter`: its
    /// stale pending copy and pull residuals are discarded (the model it
    /// adopted already reflects those gradients), and its version rows
    /// are fast-forwarded to `iter` so it re-enters the RSP bound
    /// exactly as fresh as the model it resynced to.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn rejoin_worker(&mut self, worker: usize, iter: u64) {
        assert!(worker < self.n_workers, "worker out of range");
        for m in &mut self.accum[worker] {
            m.fill_zero();
        }
        self.fresh[worker].fill(0);
        self.states[worker].reset();
        self.versions.stamp_worker(worker, iter);
        self.versions.set_active(worker, true);
        self.active[worker] = true;
    }

    /// Receives pushed row gradients of iteration `n` from a worker:
    /// averages them into every *active* worker's pending copy and
    /// updates the version storage (Algorithm 2 lines 2–6). Under full
    /// membership this is the paper's `1/n_workers` averaging exactly;
    /// when members have departed, the divisor is the active count, so
    /// the expected gradient magnitude is preserved for the survivors.
    ///
    /// NaN/Inf values are zeroed at ingest (and counted in
    /// [`RogServer::nonfinite_dropped`]): on a lossy link a corrupted
    /// payload that slipped past the CRC, or a diverging worker, must
    /// not poison every active worker's pending copy.
    ///
    /// # Panics
    ///
    /// Panics if `from` or any row is out of range, or a row payload has
    /// the wrong width.
    pub fn on_push(&mut self, from: usize, n: u64, rows: &[(RowId, Vec<f32>)]) {
        assert!(from < self.n_workers, "worker out of range");
        let inv = 1.0 / self.active_workers().max(1) as f32;
        let mut sanitized: Vec<f32> = Vec::new();
        for (id, values) in rows {
            assert_eq!(
                values.len(),
                self.partition.width(*id),
                "payload width mismatch for {id}"
            );
            // Fast path: finite rows (the overwhelmingly common case)
            // are added in place with no copy.
            let values: &[f32] = if values.iter().all(|v| v.is_finite()) {
                values
            } else {
                sanitized.clear();
                sanitized.extend(values.iter().map(|v| {
                    if v.is_finite() {
                        *v
                    } else {
                        self.nonfinite_dropped += 1;
                        0.0
                    }
                }));
                &sanitized
            };
            for r in 0..self.n_workers {
                if !self.active[r] {
                    continue;
                }
                let dst = self.partition.row_mut(&mut self.accum[r], *id);
                for (d, v) in dst.iter_mut().zip(values) {
                    *d += v * inv;
                }
                self.fresh[r][id.0] = self.fresh[r][id.0].max(n);
            }
            self.versions.record_push(from, id.0, n);
        }
    }

    /// The RSP gate (Algorithm 2 lines 7–9): may a worker whose push
    /// carried iteration `pushed_iter` be served its pull now?
    pub fn gate_ok(&self, pushed_iter: u64) -> bool {
        self.versions.gate_ok(pushed_iter, self.threshold)
    }

    /// Rows with pending content for `worker`, ranked by the server-mode
    /// importance metric (fresh, large-magnitude rows first).
    pub fn plan_pull(&mut self, worker: usize) -> Vec<RowId> {
        let mut out = Vec::new();
        self.plan_pull_into(worker, &mut out);
        out
    }

    /// Allocation-free variant of [`RogServer::plan_pull`]: writes the
    /// plan into `out`, reusing the server's internal ranking buffers.
    pub fn plan_pull_into(&mut self, worker: usize, out: &mut Vec<RowId>) {
        let mut mean_abs = std::mem::take(&mut self.mean_abs_buf);
        let mut ranked = std::mem::take(&mut self.ranked_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        mean_abs.clear();
        mean_abs.extend(
            (0..self.partition.n_rows())
                .map(|i| ops::mean_abs(self.partition.row(&self.accum[worker], RowId(i)))),
        );
        self.importance.rank_into(
            ImportanceMode::Server,
            &mean_abs,
            &self.fresh[worker],
            &mut scratch,
            &mut ranked,
        );
        out.clear();
        out.extend(
            ranked
                .iter()
                .copied()
                .filter(|id| self.fresh[worker][id.0] > 0),
        );
        self.mean_abs_buf = mean_abs;
        self.ranked_buf = ranked;
        self.scratch = scratch;
    }

    /// Width-only payload size of one row on the wire — the one-bit /
    /// dense bound, kept for sizing paths that have no destination
    /// worker in scope (e.g. resync model transfers, which are dense).
    pub fn payload_bytes(&self, id: RowId) -> u64 {
        OneBitCodec.payload_bytes(self.partition.width(id))
    }

    /// Payload size of one row on the link to `worker`, as that link's
    /// codec would frame it right now (content-sized codecs account the
    /// pending gradient plus the link's residual).
    ///
    /// # Panics
    ///
    /// Panics if `worker` or `id` is out of range.
    pub fn payload_bytes_for(&self, worker: usize, id: RowId) -> u64 {
        self.states[worker].planned_payload_bytes(
            &self.codecs[worker],
            id.0,
            self.partition.row(&self.accum[worker], id),
        )
    }

    /// Commits a pull: compresses (per-destination error feedback),
    /// drains the delivered rows from `worker`'s pending copy
    /// (Algorithm 2 lines 12–13), and returns the values the worker
    /// receives.
    pub fn commit_pull(&mut self, worker: usize, rows: &[RowId]) -> Vec<(RowId, Vec<f32>)> {
        rows.iter()
            .map(|&id| {
                let row = self.partition.row(&self.accum[worker], id).to_vec();
                let restored = self.states[worker]
                    .compress(&self.codecs[worker], id.0, &row)
                    .decompress();
                self.partition
                    .row_mut(&mut self.accum[worker], id)
                    .iter_mut()
                    .for_each(|v| *v = 0.0);
                self.fresh[worker][id.0] = 0;
                (id, restored)
            })
            .collect()
    }

    /// Sum over rows of pending mean-|ḡ| for `worker` (diagnostic).
    pub fn pending_magnitude(&self, worker: usize) -> f32 {
        (0..self.partition.n_rows())
            .map(|i| ops::mean_abs(self.partition.row(&self.accum[worker], RowId(i))))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<Matrix> {
        vec![Matrix::zeros(2, 3), Matrix::zeros(1, 2)]
    }

    #[test]
    fn nonfinite_gradients_are_zeroed_at_ingest() {
        let p = params();
        let mut s = RogServer::new(&p, 2, 4, ImportanceMetric::default());
        s.on_push(
            0,
            1,
            &[
                (RowId(0), vec![1.0, f32::NAN, f32::INFINITY]),
                (RowId(1), vec![f32::NEG_INFINITY, 2.0, 3.0]),
            ],
        );
        assert_eq!(s.nonfinite_dropped(), 3);
        // The finite values landed (averaged by 1/2), the poison did not.
        let payloads = s.commit_pull(1, &[RowId(0), RowId(1)]);
        for (_, values) in &payloads {
            assert!(values.iter().all(|v| v.is_finite()), "{values:?}");
        }
        // A clean push leaves the counter alone.
        s.on_push(1, 1, &[(RowId(0), vec![1.0, 1.0, 1.0])]);
        assert_eq!(s.nonfinite_dropped(), 3);
    }

    fn server(n: usize, t: u32) -> RogServer {
        RogServer::new(&params(), n, t, ImportanceMetric::default())
    }

    #[test]
    fn push_is_averaged_into_every_copy() {
        let mut s = server(4, 4);
        s.on_push(0, 1, &[(RowId(0), vec![4.0, 8.0, 12.0])]);
        for w in 0..4 {
            let plan = s.plan_pull(w);
            assert_eq!(plan, vec![RowId(0)]);
        }
        let out = s.commit_pull(1, &[RowId(0)]);
        // 4.0 / 4 workers = 1.0 (one-bit code is exact for constant-sign
        // uniform magnitudes? not exactly — check approximate).
        let vals = &out[0].1;
        let mean: f32 = vals.iter().sum::<f32>() / 3.0;
        assert!((mean - 2.0).abs() < 0.8, "mean {mean}");
    }

    #[test]
    fn pull_drains_only_that_workers_copy() {
        let mut s = server(2, 4);
        s.on_push(0, 1, &[(RowId(1), vec![2.0, 2.0, 2.0])]);
        let _ = s.commit_pull(0, &[RowId(1)]);
        assert!(s.plan_pull(0).is_empty());
        assert_eq!(s.plan_pull(1), vec![RowId(1)]);
    }

    #[test]
    fn every_worker_eventually_gets_the_same_totals() {
        // Multiple pushes from different workers; drain both copies and
        // compare totals (modulo bounded compression residual).
        let mut s = server(2, 4);
        s.on_push(0, 1, &[(RowId(0), vec![1.0, 2.0, 3.0])]);
        s.on_push(1, 1, &[(RowId(0), vec![3.0, 2.0, 1.0])]);
        let all_rows = vec![RowId(0)];
        let a: Vec<f32> = s.commit_pull(0, &all_rows).remove(0).1;
        let b: Vec<f32> = s.commit_pull(1, &all_rows).remove(0).1;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1.0, "copies diverge: {x} vs {y}");
        }
    }

    #[test]
    fn gate_follows_version_storage() {
        let mut s = server(2, 2);
        let n_rows = 3;
        // Worker 0 pushes all rows at iterations 1..=3; worker 1 stays
        // at 0.
        for it in 1..=3u64 {
            let rows: Vec<(RowId, Vec<f32>)> = (0..n_rows)
                .map(|i| (RowId(i), vec![1.0; if i < 2 { 3 } else { 2 }]))
                .collect();
            s.on_push(0, it, &rows);
        }
        // min(V) = 0 (worker 1), threshold 2: a push at iter 3 leads too
        // far.
        assert!(!s.gate_ok(3));
        // Worker 1 catches up.
        let rows: Vec<(RowId, Vec<f32>)> = (0..n_rows)
            .map(|i| (RowId(i), vec![1.0; if i < 2 { 3 } else { 2 }]))
            .collect();
        s.on_push(1, 3, &rows);
        assert!(s.gate_ok(3));
    }

    #[test]
    fn plan_pull_prefers_fresh_rows() {
        let mut s = server(1, 8);
        s.on_push(0, 1, &[(RowId(0), vec![0.5, 0.5, 0.5])]);
        s.on_push(0, 5, &[(RowId(1), vec![0.5, 0.5, 0.5])]);
        let plan = s.plan_pull(0);
        assert_eq!(plan[0], RowId(1), "fresher row first: {plan:?}");
    }

    #[test]
    #[should_panic(expected = "payload width mismatch")]
    fn wrong_width_payload_panics() {
        let mut s = server(1, 4);
        s.on_push(0, 1, &[(RowId(0), vec![1.0])]);
    }

    #[test]
    fn departed_worker_stops_gating_and_accumulating() {
        let mut s = server(3, 2);
        let all_rows: Vec<(RowId, Vec<f32>)> = vec![
            (RowId(0), vec![1.0, 1.0, 1.0]),
            (RowId(1), vec![1.0, 1.0, 1.0]),
            (RowId(2), vec![1.0, 1.0]),
        ];
        // Workers 0 and 1 reach iteration 5; worker 2 pushed once at 1.
        for it in 1..=5u64 {
            s.on_push(0, it, &all_rows);
            s.on_push(1, it, &all_rows);
        }
        s.on_push(2, 1, &all_rows);
        assert!(!s.gate_ok(5), "straggler pins min(V) = 1");
        s.deactivate_worker(2);
        assert_eq!(s.active_workers(), 2);
        assert!(!s.is_active(2));
        assert!(s.gate_ok(5), "gate recomputed over the active set");
        // Pushes now average over 2 and skip the departed copy.
        let before = s.pending_magnitude(2);
        s.on_push(0, 6, &[(RowId(0), vec![2.0, 2.0, 2.0])]);
        assert_eq!(
            s.pending_magnitude(2),
            before,
            "no accumulation for departed"
        );
        s.deactivate_worker(2); // idempotent
        assert_eq!(s.active_workers(), 2);
    }

    #[test]
    fn rejoin_clears_pending_state_and_fast_forwards_versions() {
        let mut s = server(2, 2);
        let all_rows: Vec<(RowId, Vec<f32>)> = vec![
            (RowId(0), vec![1.0, 1.0, 1.0]),
            (RowId(1), vec![1.0, 1.0, 1.0]),
            (RowId(2), vec![1.0, 1.0]),
        ];
        s.on_push(1, 1, &all_rows);
        s.deactivate_worker(1);
        for it in 2..=9u64 {
            s.on_push(0, it, &all_rows);
        }
        s.rejoin_worker(1, 9);
        assert!(s.is_active(1));
        assert_eq!(s.active_workers(), 2);
        assert!(s.plan_pull(1).is_empty(), "stale pending copy discarded");
        assert_eq!(s.pending_magnitude(1), 0.0);
        // Versions fast-forwarded: the rejoiner does not re-pin the gate.
        assert!(s.gate_ok(9));
        assert_eq!(s.versions().global_min(), 9);
    }

    #[test]
    fn full_membership_averaging_matches_static_divisor() {
        // The zero-cost invariant: with nobody departed, on_push must be
        // arithmetically identical to the pre-membership 1/n averaging.
        let mut s = server(4, 4);
        s.on_push(0, 1, &[(RowId(0), vec![4.0, 8.0, 12.0])]);
        let m = s.pending_magnitude(3); // includes the 1/4-averaged row
        assert!((m - (1.0 + 2.0 + 3.0) / 3.0).abs() < 1e-6, "magnitude {m}");
    }
}
