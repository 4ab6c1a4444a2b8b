//! The drop-in optimizer facade.
//!
//! The paper's integration story (Sec. V): ROG is "implemented as an
//! optimizer in PyTorch … integrated by simply replacing the
//! application's original optimizer", with a parameter server tracked
//! under the hood. [`RogSession`] + [`RogOptimizer`] are the Rust
//! equivalent for in-process data-parallel training: one session hosts
//! the shared [`ServerRole`]; each rank holds a [`RogOptimizer`] and
//! calls [`RogOptimizer::step`] once per iteration with its freshly
//! computed gradients. The step accumulates, ranks, "transmits" the
//! admitted row budget (the caller supplies how many rows its link
//! admitted — or `None` for all), applies the RSP gate, and pulls
//! averaged updates into the local parameters.
//!
//! It is the synchronous, zero-latency driver of the same
//! [`WorkerRole`]/[`ServerRole`] cycle the simulated engine and the
//! socket path in `rog-trainer` drive: every row it transmits lands at
//! once, nothing is timed, and a refused pull is withdrawn instead of
//! waiting on the server.
//!
//! # Example
//!
//! ```
//! use rog_core::{RogSession, RowId};
//! use rog_tensor::Matrix;
//!
//! let params = vec![Matrix::zeros(4, 3), Matrix::zeros(1, 4)];
//! let session = RogSession::new(&params, 2, 4);
//! let mut opt0 = session.optimizer(0, 0.1);
//! let mut local0 = params.clone();
//!
//! let grads = vec![
//!     Matrix::from_fn(4, 3, |_, _| 1.0),
//!     Matrix::from_fn(1, 4, |_, _| 0.5),
//! ];
//! let report = opt0.step(&mut local0, &grads, None);
//! assert!(report.gate_open);
//! assert_eq!(report.pushed_rows, 5);
//! ```

use std::sync::Arc;

use parking_lot::Mutex;
use rog_tensor::Matrix;

use rog_obs::Journal;

use crate::{
    Gate, ImportanceMetric, RogWorkerConfig, Round, RowBatch, ServerRole, ShardMap, ShardedServer,
    WorkerRole,
};

/// What one [`RogOptimizer::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Rows pushed to the parameter server this step.
    pub pushed_rows: usize,
    /// Rows pulled and applied this step.
    pub pulled_rows: usize,
    /// Whether the RSP gate admitted the pull. When `false`, this rank
    /// is too far ahead of a straggler: the pull was skipped and should
    /// be retried on the next step (a real deployment would block).
    pub gate_open: bool,
}

/// Shared state of an in-process ROG training group.
#[derive(Debug, Clone)]
pub struct RogSession {
    server: Arc<Mutex<ServerRole>>,
    template: Vec<(usize, usize)>,
    n_workers: usize,
}

impl RogSession {
    /// Creates a session for `n_workers` ranks training a model shaped
    /// like `params`.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0` or the model has no rows.
    pub fn new(params: &[Matrix], n_workers: usize, threshold: u32) -> Self {
        let n_rows = params.iter().map(Matrix::rows).sum();
        let server = ShardedServer::new(
            params,
            n_workers,
            threshold,
            ImportanceMetric::default(),
            ShardMap::contiguous(n_rows, 1),
        );
        Self {
            server: Arc::new(Mutex::new(ServerRole::new(server, None))),
            template: params.iter().map(Matrix::shape).collect(),
            n_workers,
        }
    }

    /// Number of ranks.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Creates the optimizer for `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn optimizer(&self, rank: usize, lr: f32) -> RogOptimizer {
        assert!(rank < self.n_workers, "rank out of range");
        let params: Vec<Matrix> = self
            .template
            .iter()
            .map(|&(r, c)| Matrix::zeros(r, c))
            .collect();
        let bound = self.server.lock().bound(rank);
        RogOptimizer {
            server: Arc::clone(&self.server),
            role: WorkerRole::new(&params, RogWorkerConfig::new(bound, lr), 1),
            rank,
            iter: 0,
            rows: RowBatch::default(),
        }
    }
}

/// Per-rank drop-in optimizer (see module docs).
#[derive(Debug)]
pub struct RogOptimizer {
    server: Arc<Mutex<ServerRole>>,
    role: WorkerRole,
    rank: usize,
    iter: u64,
    /// Pushed rows, then pulled rows, of the step in progress.
    rows: RowBatch,
}

impl RogOptimizer {
    /// The rank this optimizer belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Completed steps.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// One training step: accumulate `grads`, push the admitted row
    /// budget (at least MTA plus RSP-mandatory rows; `None` = all rows),
    /// and — gate permitting — pull averaged gradients into `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params`/`grads` do not match the session's model
    /// shape.
    pub fn step(
        &mut self,
        params: &mut [Matrix],
        grads: &[Matrix],
        budget_rows: Option<usize>,
    ) -> StepReport {
        let n = self.iter + 1;
        // Nothing is recorded: the journal belongs to the timed drivers.
        let mut journal = Journal::disabled();
        // One round per leg without fates: every row sent lands at once.
        self.role.accumulate(grads);
        let mut server = self.server.lock();
        self.role
            .plan(n, server.server().map(), server.bound(self.rank));
        let admitted = self.role.floor(0).admit(budget_rows);
        self.role.push_round(0, Round::Speculative, admitted, None);
        let rows = &mut self.rows;
        self.role.commit_push(0, n, rows);
        let leg = (self.rank, 0);
        server.ingest(leg, n, rows);
        let gate_open = server.enter_gate(leg, n, 0.0, &mut journal) == Gate::Granted;
        let pulled = if gate_open {
            server.grant(leg, 0.0, &mut journal);
            let all = server.pull_leg(leg).plan().len();
            server.pull_round(leg, Round::Speculative, all, None);
            server.settle_pull(leg, 0.0, &mut journal, rows);
            drop(server);
            self.role.apply(params, rows);
            rows.len()
        } else {
            server.withdraw(self.rank);
            0
        };
        self.iter = n;
        StepReport {
            pushed_rows: admitted,
            pulled_rows: pulled,
            gate_open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rog_tensor::rng::DetRng;

    fn params() -> Vec<Matrix> {
        vec![Matrix::zeros(3, 4), Matrix::zeros(1, 3)]
    }

    fn grads(rng: &mut DetRng) -> Vec<Matrix> {
        params()
            .iter()
            .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, rng))
            .collect()
    }

    #[test]
    fn full_budget_step_applies_averaged_updates() {
        let session = RogSession::new(&params(), 2, 4);
        let mut o0 = session.optimizer(0, 1.0);
        let mut o1 = session.optimizer(1, 1.0);
        let mut p0 = params();
        let mut p1 = params();
        let g = vec![
            Matrix::from_fn(3, 4, |_, _| 2.0),
            Matrix::from_fn(1, 3, |_, _| 2.0),
        ];
        let r0 = o0.step(&mut p0, &g, None);
        let r1 = o1.step(&mut p1, &g, None);
        assert!(r0.gate_open && r1.gate_open);
        // Both ranks pushed +2 everywhere; each pull carries whatever has
        // been averaged so far (rank 0 sees its own half, rank 1 both).
        assert!(p0[0].get(0, 0) < 0.0);
        assert!(p1[0].get(0, 0) <= p0[0].get(0, 0));
    }

    #[test]
    fn budget_is_floored_at_mta_and_mandatory() {
        let session = RogSession::new(&params(), 1, 4);
        let mut opt = session.optimizer(0, 0.1);
        let mut p = params();
        let mut rng = DetRng::new(1);
        // Ask for zero budget: MTA(4) of 4 rows = ceil(0.3177*4) = 2.
        let r = opt.step(&mut p, &grads(&mut rng), Some(0));
        assert_eq!(r.pushed_rows, 2);
    }

    #[test]
    fn gate_blocks_a_runaway_rank() {
        let session = RogSession::new(&params(), 2, 3);
        let mut fast = session.optimizer(0, 0.1);
        let mut p = params();
        let mut rng = DetRng::new(2);
        let mut blocked = false;
        for _ in 0..6 {
            let r = fast.step(&mut p, &grads(&mut rng), None);
            blocked |= !r.gate_open;
        }
        assert!(blocked, "a rank running alone must eventually be gated");
    }

    #[test]
    fn staleness_stays_bounded_under_minimal_budgets() {
        let session = RogSession::new(&params(), 1, 4);
        let mut opt = session.optimizer(0, 0.1);
        let mut p = params();
        let mut rng = DetRng::new(3);
        for k in 1..=20u64 {
            let _ = opt.step(&mut p, &grads(&mut rng), Some(0));
            assert!(
                opt.role.worker().max_row_staleness(k) < 4,
                "staleness exceeded the threshold at step {k}"
            );
        }
    }

    #[test]
    fn two_ranks_round_robin_train_consistently() {
        let session = RogSession::new(&params(), 2, 4);
        let mut opts = [session.optimizer(0, 0.5), session.optimizer(1, 0.5)];
        let mut ps = [params(), params()];
        let mut rng = DetRng::new(4);
        for _ in 0..12 {
            for r in 0..2 {
                let g = grads(&mut rng);
                let _ = opts[r].step(&mut ps[r], &g, Some(3));
            }
        }
        // Models track each other within the staleness bound.
        let d: f32 = ps[0]
            .iter()
            .zip(&ps[1])
            .map(|(a, b)| {
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .map(|(x, y)| (x - y).abs())
                    .sum::<f32>()
            })
            .sum();
        let norm: f32 = ps[0].iter().map(|m| m.frobenius_norm()).sum();
        assert!(
            d < 2.0 * norm.max(1.0),
            "models diverged: dist {d}, norm {norm}"
        );
    }
}
