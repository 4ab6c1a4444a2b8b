//! The one-bit error-feedback step works in place — on the stored
//! residual and the caller's output buffer — so it must not touch the
//! heap, and a commit of k rows may allocate only what its signature
//! returns: k payload vectors and the vector that holds them. Asserted
//! with a counting allocator, which is why this lives in a test binary
//! of its own (the libraries forbid `unsafe`).

use rog::compress::{CodecState, OneBitCodec};
use rog::core::{ImportanceMetric, RogWorker, RogWorkerConfig, RowId, ShardMap, ShardedServer};
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

fn grads() -> Vec<Matrix> {
    params()
        .iter()
        .map(|m| Matrix::from_fn(m.rows(), m.cols(), |r, c| ((r * 31 + c) as f32).sin()))
        .collect()
}

#[test]
fn the_one_bit_step_does_not_allocate() {
    let widths = [200usize, 65, 7, 0];
    let mut state = CodecState::new(&widths, 3);
    let rows: Vec<Vec<f32>> = widths
        .iter()
        .map(|&w| (0..w).map(|i| (i as f32).cos()).collect())
        .collect();
    let mut out = vec![0.0f32; 200];
    let (n, ()) = calls(|| {
        for _ in 0..3 {
            for (i, row) in rows.iter().enumerate() {
                state.restore_into(&OneBitCodec, i, row, &mut out[..row.len()]);
            }
        }
    });
    assert_eq!(n, 0, "restore_into allocated {n} times");
    assert!(state.residual(0).iter().any(|&r| r != 0.0));
}

#[test]
fn a_commit_of_k_rows_allocates_k_payloads_and_their_holder() {
    let ps = params();
    let mut worker = RogWorker::new(&ps, RogWorkerConfig::new(4, 0.1));
    let map = ShardMap::contiguous(8, 2);
    let mut server = ShardedServer::new(&ps, 2, 4, ImportanceMetric::default(), map);
    worker.accumulate(&grads());
    // Shard 0 homes rows 0..4, shard 1 rows 4..8.
    for (shard, ids) in [(0usize, vec![0usize, 2, 3]), (1, vec![4, 5, 6, 7])] {
        let ids: Vec<RowId> = ids.into_iter().map(RowId).collect();
        let k = ids.len() as u64;
        let (n, mut pushed) = calls(|| worker.commit_push(&ids, 1));
        assert_eq!(n, k + 1, "commit_push of {k} rows");
        server.on_push(shard, 0, 1, &mut pushed);
        let (n, pulled) = calls(|| server.commit_pull(shard, 1, &ids));
        assert_eq!(n, k + 1, "commit_pull of {k} rows");
        assert!(pulled.iter().any(|(_, v)| v.iter().any(|&x| x != 0.0)));
    }
}
