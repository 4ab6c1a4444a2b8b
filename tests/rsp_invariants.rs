//! RSP safety invariants exercised through the shipped row-cycle
//! decisions (`WorkerRole` / `ServerRole`): no matter how the
//! (adversarial) channel truncates transmissions down to the
//! MTA/mandatory floor, row staleness stays within the threshold and
//! every worker eventually applies the same gradients.

use proptest::prelude::*;
use rog::core::mta::Mta;
use rog::core::{
    Gate, ImportanceMetric, PushFloor, RogWorkerConfig, Round, RowBatch, RowId, ServerRole,
    ShardMap, ShardedServer, WorkerRole,
};
use rog::obs::Journal;
use rog::tensor::rng::DetRng;
use rog::tensor::Matrix;

fn params() -> Vec<Matrix> {
    vec![
        Matrix::zeros(6, 4),
        Matrix::zeros(1, 6),
        Matrix::zeros(3, 6),
        Matrix::zeros(1, 3),
    ]
}

fn n_rows() -> usize {
    params().iter().map(Matrix::rows).sum()
}

fn worker(threshold: u32, lr: f32) -> WorkerRole {
    WorkerRole::new(&params(), RogWorkerConfig::new(threshold, lr), 1)
}

fn server(n_workers: usize, threshold: u32) -> ServerRole {
    let map = ShardMap::contiguous(n_rows(), 1);
    let imp = ImportanceMetric::default();
    ServerRole::new(
        ShardedServer::new(&params(), n_workers, threshold, imp, map),
        None,
    )
}

/// Plans worker `w`'s push of `iter` and returns its floor.
fn plan_push(w: &mut WorkerRole, iter: u64) -> PushFloor {
    let bound = w.worker().config().threshold;
    w.plan(iter, &ShardMap::contiguous(n_rows(), 1), Mta::new(bound));
    w.floor(0)
}

/// The first `sent` rows of `w`'s plan land; commits them into `out`.
fn push(w: &mut WorkerRole, sent: usize, iter: u64, out: &mut RowBatch) {
    w.push_round(0, Round::Speculative, sent, None);
    w.commit_push(0, iter, out);
}

fn random_grads(rng: &mut DetRng) -> Vec<Matrix> {
    params()
        .iter()
        .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Worker-level RSP: if every push delivers at least the mandatory
    /// prefix and the MTA floor, no row on a worker ever exceeds the
    /// staleness threshold.
    #[test]
    fn prop_worker_staleness_is_bounded(
        seed in 0u64..1000,
        threshold in 2u32..8,
        cut_bias in 0.0f64..1.0,
    ) {
        let mut worker = worker(threshold, 0.01);
        let mut rng = DetRng::new(seed);
        for iter in 1..=40u64 {
            worker.accumulate(&random_grads(&mut rng));
            // Adversarial channel: deliver between the floor and all.
            let PushFloor { rows, floor, .. } = plan_push(&mut worker, iter);
            let extra = ((rows - floor) as f64 * cut_bias * rng.uniform()) as usize;
            push(&mut worker, floor + extra, iter, &mut RowBatch::default());
            let staleness = worker.worker().max_row_staleness(iter);
            prop_assert!(
                staleness < u64::from(threshold),
                "iter {iter}: staleness {staleness} reached threshold {threshold}"
            );
        }
    }

    /// Server-level RSP: the gate never admits a pull whose pushed
    /// version leads the globally stalest row by the threshold.
    #[test]
    fn prop_server_gate_bounds_divergence(
        seed in 0u64..1000,
        threshold in 2u32..6,
    ) {
        let n_workers = 3usize;
        let mut server = server(n_workers, threshold);
        let mut workers: Vec<WorkerRole> =
            (0..n_workers).map(|_| worker(threshold, 0.01)).collect();
        let mut journal = Journal::disabled();
        let mut rows = RowBatch::default();
        let mut rng = DetRng::new(seed);
        let mut iters = vec![0u64; n_workers];
        for _round in 0..60 {
            // A random worker tries to advance; the gate may block it.
            let w = rng.index(n_workers);
            let next = iters[w] + 1;
            workers[w].accumulate(&random_grads(&mut rng));
            let floor = plan_push(&mut workers[w], next).floor;
            push(&mut workers[w], floor, next, &mut rows);
            server.ingest((w, 0), next, &mut rows);
            iters[w] = next;
            match server.enter_gate((w, 0), next, 0.0, &mut journal) {
                Gate::Granted => {
                    let take = server.grant((w, 0), 0.0, &mut journal).max(1);
                    let take = take.min(server.pull_leg((w, 0)).plan().len());
                    server.pull_round((w, 0), Round::Speculative, take, None);
                    server.settle_pull((w, 0), 0.0, &mut journal, &mut rows);
                }
                Gate::Parked => {
                    // Verify the lead is genuinely at the threshold; this
                    // driver does not wait, so the request is withdrawn.
                    let min = server.server().versions(0).global_min();
                    prop_assert!(
                        next >= min + u64::from(threshold),
                        "gate blocked below threshold: next {next}, min {min}"
                    );
                    server.withdraw(w);
                }
            }
        }
    }
}

/// A row budget bounds only the best-effort tail: a zero budget is
/// floored at `max(MTA, mandatory)`, no budget or one past the plan
/// sends every row.
#[test]
fn a_zero_budget_is_floored_at_mta_and_mandatory() {
    // MTA(4) of 4 rows = ceil(0.3177 * 4) = 2.
    assert_eq!(PushFloor::new(4, 0, Mta::new(4)).admit(Some(0)), 2);
    assert_eq!(PushFloor::new(4, 3, Mta::new(4)).admit(Some(0)), 3);
    assert_eq!(PushFloor::new(4, 9, Mta::new(4)).admit(Some(0)), 4);
    assert_eq!(PushFloor::new(4, 0, Mta::new(4)).admit(Some(3)), 3);
    assert_eq!(PushFloor::new(4, 0, Mta::new(4)).admit(Some(9)), 4);
    assert_eq!(PushFloor::new(4, 0, Mta::new(4)).admit(None), 4);

    // Through the shipped plan: a worker whose first pushes are cut to
    // nothing, so every row reaches the bound, then sends only what a
    // zero budget admits.
    let mut worker = worker(4, 0.01);
    let mut rng = DetRng::new(1);
    let mut over_mta = false;
    for iter in 1..=40u64 {
        worker.accumulate(&random_grads(&mut rng));
        let floor = plan_push(&mut worker, iter);
        let sent = floor.admit(Some(0));
        assert_eq!(sent, floor.floor);
        over_mta |= floor.mandatory > floor.mta_rows;
        let sent = if iter < 4 { 0 } else { sent };
        push(&mut worker, sent, iter, &mut RowBatch::default());
        if iter >= 4 {
            assert!(worker.worker().max_row_staleness(iter) < 4);
        }
    }
    assert!(over_mta, "the mandatory prefix never outgrew the MTA");
}

/// All workers receive identical accumulated gradients over time (the
/// Sec. III-B consistency argument), modulo the bounded compression
/// residual still held server-side.
#[test]
fn all_workers_apply_the_same_totals() {
    let mut server = server(2, 4);
    let mut worker = worker(4, 1.0);
    let all_rows: Vec<RowId> = (0..n_rows()).map(RowId).collect();
    let mut rng = DetRng::new(42);
    // One producer pushes everything each round; both consumers drain
    // fully each round.
    let mut received: Vec<Vec<f32>> = vec![vec![], vec![]];
    for iter in 1..=30u64 {
        worker.accumulate(&random_grads(&mut rng));
        let all = plan_push(&mut worker, iter).rows;
        let mut rows = RowBatch::default();
        push(&mut worker, all, iter, &mut rows);
        server.ingest((0, 0), iter, &mut rows);
        for (dst, inbox) in received.iter_mut().enumerate() {
            server.drain_into((dst, 0), &all_rows, &mut rows);
            let flat: f32 = rows.iter().flat_map(|(_, v)| v.iter()).sum();
            inbox.push(flat);
        }
    }
    let total0: f32 = received[0].iter().sum();
    let total1: f32 = received[1].iter().sum();
    assert!(
        (total0 - total1).abs() < 0.05 * total0.abs().max(1.0),
        "workers received diverging totals: {total0} vs {total1}"
    );
}
