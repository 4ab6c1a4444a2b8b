//! The one-bit and sparse error-feedback steps work in place — on the
//! stored residual and the caller's output buffer — so they must not
//! touch the heap, nor may the sparse rung's plan-time sizing once its
//! scratch row has grown. A commit into a fresh `RowBatch` allocates
//! its three buffers once, whatever the row count; a warm server ingest
//! allocates nothing, nor does a warm commit or drain into a reused
//! batch, even after a narrower one. A whole row-engine run adds a
//! bounded number of allocator calls per worker-iteration. Asserted
//! with a counting allocator, which is why this lives in a test binary
//! of its own (the libraries forbid `unsafe`).

use rog::compress::{CodecChoice, CodecState, OneBitCodec, RowCodec, SparseDeltaCodec};
use rog::core::{
    AggregatorMap, AggregatorPlane, ImportanceMetric, RogWorker, RogWorkerConfig, RowBatch, RowId,
    ServerRole, ShardMap, ShardedServer,
};
use rog::prelude::{Environment, ExperimentConfig, LossConfig, ModelScale, Strategy, WorkloadKind};
use rog::tensor::Matrix;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

fn params() -> Vec<Matrix> {
    vec![
        Matrix::zeros(5, 200),
        Matrix::zeros(2, 65),
        Matrix::zeros(1, 7),
    ]
}

/// Every eleventh value is a spike, so the sparse rung selects some.
fn grads() -> Vec<Matrix> {
    let value = |r: usize, c: usize| {
        ((r * 31 + c) as f32).sin() * if c.is_multiple_of(11) { 9.0 } else { 1.0 }
    };
    params()
        .iter()
        .map(|m| Matrix::from_fn(m.rows(), m.cols(), value))
        .collect()
}

/// Sizing and stepping rows of several widths, residuals warm: no heap
/// call once the sizing scratch has grown to the widest row.
fn step_allocations(codec: &dyn RowCodec) -> u64 {
    let widths = [200usize, 65, 7, 0];
    let mut state = CodecState::new(&widths, 3);
    let rows: Vec<Vec<f32>> = widths
        .iter()
        .map(|&w| (0..w).map(|i| (i as f32).cos().powi(5)).collect())
        .collect();
    let mut out = vec![0.0f32; 200];
    state.planned_payload_bytes(codec, 0, &rows[0]);
    let (n, ()) = calls(|| {
        for _ in 0..3 {
            for (i, row) in rows.iter().enumerate() {
                state.planned_payload_bytes(codec, i, row);
                state.restore_into(codec, i, row, &mut out[..row.len()]);
            }
        }
    });
    assert!(state.residual(0).iter().any(|&r| r != 0.0));
    assert!(out.iter().any(|&v| v != 0.0));
    n
}

#[test]
fn the_one_bit_step_does_not_allocate() {
    assert_eq!(step_allocations(&OneBitCodec), 0);
}

#[test]
fn the_sparse_step_and_its_sizing_do_not_allocate() {
    assert_eq!(step_allocations(&SparseDeltaCodec), 0);
}

/// A `commit_push` and a `commit_pull` of `k` rows each allocate the
/// fresh batch's three buffers (ids, row ends, values) once.
fn commit_allocations(codec: CodecChoice) {
    let ps = params();
    let mut worker = RogWorker::new(&ps, RogWorkerConfig::new(4, 0.1).with_codec(codec, 1));
    let map = ShardMap::contiguous(8, 2);
    let mut server = ShardedServer::new(&ps, 2, 4, ImportanceMetric::default(), map);
    server.configure_codec(codec, 1);
    worker.accumulate(&grads());
    // Shard 0 homes rows 0..4, shard 1 rows 4..8.
    for (shard, ids) in [(0usize, vec![0usize, 2, 3]), (1, vec![4, 5, 6, 7])] {
        let ids: Vec<RowId> = ids.into_iter().map(RowId).collect();
        let k = ids.len() as u64;
        let (n, mut pushed) = calls(|| worker.commit_push(&ids, 1));
        assert_eq!(n, 3, "commit_push of {k} rows");
        server.on_push(shard, 0, 1, &mut pushed);
        let (n, pulled) = calls(|| server.commit_pull(shard, 1, &ids));
        assert_eq!(n, 3, "commit_pull of {k} rows");
        assert_eq!(pulled.len() as u64, k);
        assert!(pulled.iter().any(|(_, v)| v.iter().any(|&x| x != 0.0)));
    }
}

#[test]
fn a_commit_of_k_rows_allocates_one_batch() {
    commit_allocations(CodecChoice::OneBit);
}

#[test]
fn a_sparse_commit_of_k_rows_allocates_the_same() {
    commit_allocations(CodecChoice::Sparse);
}

/// Both engines commit a push through `commit_push_into`: once the
/// batch has held a whole-model commit, no commit into it touches the
/// heap — a narrower one, nor a whole-model one after it — and every
/// commit into the reused batch writes what `commit_push` returns.
#[test]
fn a_warm_whole_model_commit_does_not_allocate() {
    let mut worker = RogWorker::new(&params(), RogWorkerConfig::new(4, 0.1));
    let mut twin = worker.clone();
    let all: Vec<RowId> = (0..8).map(RowId).collect();
    let mut out = RowBatch::default();
    let rounds = [&all[..], &all[5..], &all[..], &all[..2], &all[1..]];
    for (n, ids) in (1..).zip(rounds) {
        worker.accumulate(&grads());
        twin.accumulate(&grads());
        let (k, ()) = calls(|| worker.commit_push_into(ids, n, &mut out));
        assert_eq!(k == 0, n > 1, "commit {n}: {k} allocator calls");
        assert!(out.iter().eq(twin.commit_push(ids, n).iter()), "commit {n}");
    }
    assert!(out.iter().any(|(_, v)| v.iter().any(|&x| x != 0.0)));
}

/// The model-granularity engine's drain: every worker pulls every row
/// each round, and the row engine's pulls, a ranked subset of varying
/// length. From the second round on, `commit_pull_into` reuses the
/// batch of the last round, however narrow, and the cohort store reuses
/// the copies the last round freed, so a drain touches no heap.
#[test]
fn a_warm_commit_pull_into_does_not_allocate() {
    let ps = params();
    let map = ShardMap::contiguous(8, 1);
    let mut server = ShardedServer::new(&ps, 2, 4, ImportanceMetric::default(), map);
    let g = grads();
    let mut pushed: RowBatch = g
        .iter()
        .flat_map(|m| (0..m.rows()).map(move |r| m.row(r)))
        .enumerate()
        .map(|(i, v)| (RowId(i), v))
        .collect();
    let ids = pushed.ids().to_vec();
    let mut outs = [RowBatch::default(), RowBatch::default()];
    let rounds = [&ids[..], &ids[5..], &ids[..], &ids[..2], &ids[1..]];
    for (round, rows) in (1..).zip(rounds) {
        for w in 0..2 {
            server.on_push(0, w, round, &mut pushed);
        }
        let (n, ()) = calls(|| {
            for (w, out) in outs.iter_mut().enumerate() {
                server.commit_pull_into(0, w, rows, out);
            }
        });
        assert_eq!(n == 0, round > 1, "round {round}: {n} allocator calls");
        assert_eq!(outs[1].ids(), rows);
    }
    assert!(outs[1].iter().any(|(_, v)| v.iter().any(|&x| x != 0.0)));
}

/// Once every member has pushed (its version clock and its aggregator
/// window exist), ingesting a push allocates nothing: the window reads
/// the role's reused row-id buffer, and each row is averaged into the
/// copies the shard already holds.
#[test]
fn a_warm_aggregated_ingest_does_not_allocate() {
    let ps = params();
    let server = ShardedServer::new(
        &ps,
        4,
        4,
        ImportanceMetric::default(),
        ShardMap::contiguous(8, 2),
    );
    let agg = AggregatorPlane::new(AggregatorMap::contiguous(4, 2), 2, 8);
    let mut role = ServerRole::new(server, Some(agg));
    let mut rows: RowBatch = (0..4).map(|r| (RowId(r), vec![0.5; 200])).collect();
    for w in 0..4 {
        role.ingest((w, 0), 1, &mut rows);
    }
    let (n, ()) = calls(|| {
        for w in 0..4 {
            role.ingest((w, 0), 1, &mut rows);
        }
    });
    assert_eq!(n, 0);
    assert_eq!(role.agg_stats().raw_rows, 0, "nothing flushed yet");
}

/// Allocator calls per worker-iteration that a run of `cfg` adds going
/// from `secs` to `2 * secs` virtual seconds: the steady state, with the
/// set-up, the warm-up and the final evaluation cancelled out.
fn marginal_calls_per_iteration(cfg: &ExperimentConfig, secs: f64) -> f64 {
    let run = |duration_secs| {
        let cfg = ExperimentConfig {
            duration_secs,
            ..cfg.clone()
        };
        let (n, outcome) = calls(|| cfg.options().run());
        (
            n as f64,
            outcome.metrics.mean_iterations * cfg.n_workers as f64,
        )
    };
    let ((short, short_iters), (long, long_iters)) = (run(secs), run(2.0 * secs));
    assert!(
        long_iters > short_iters + 50.0,
        "{short_iters} -> {long_iters} iterations"
    );
    (long - short) / (long_iters - short_iters)
}

/// Four paper-scale CRUDA workers, one a laptop, on ROG-4.
fn team() -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        model_scale: ModelScale::Paper,
        n_workers: 4,
        n_laptop_workers: 1,
        strategy: Strategy::Rog { threshold: 4 },
        seed: 1553,
        ..ExperimentConfig::default()
    }
}

/// A warm row-engine iteration allocates only per flow (the channel's
/// chunk sizes, fates and delivery report), never per row: 7.9 calls
/// per worker-iteration measured, about 210 when every commit built its
/// rows afresh.
#[test]
fn a_row_engine_iteration_makes_a_bounded_number_of_allocator_calls() {
    let cfg = ExperimentConfig {
        environment: Environment::Outdoor,
        ..team()
    };
    let per_iter = marginal_calls_per_iteration(&cfg, 300.0);
    assert!(
        per_iter <= 15.0,
        "{per_iter:.1} allocator calls per worker-iteration"
    );
}

/// The same under the sparse rung and 10 % Gilbert–Elliott burst loss,
/// where only the intact rows of each round land and lost mandatory
/// rows go out again: more flows per iteration (14.3 calls measured,
/// about 170 when every commit built its rows afresh).
#[test]
fn a_lossy_sparse_row_engine_iteration_makes_a_bounded_number_of_allocator_calls() {
    let cfg = ExperimentConfig {
        environment: Environment::Indoor,
        codec: CodecChoice::Sparse,
        loss: Some(LossConfig::gilbert_elliott(1553, 0.10)),
        ..team()
    };
    let per_iter = marginal_calls_per_iteration(&cfg, 300.0);
    assert!(
        per_iter <= 20.0,
        "{per_iter:.1} allocator calls per worker-iteration"
    );
}
