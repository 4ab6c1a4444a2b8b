//! The parameter server holds its pending gradients by cohort: workers
//! whose copies of a row are bit-identical read one shared copy. So a
//! fleet's pending store is sized by the distinct copies, not by the
//! worker count: where one copy per worker of the paper model was
//! 15.9 MB at 256 workers, a fleet that has pushed every row and
//! drained none holds one copy per row. Asserted with a byte-tracking
//! allocator, hence a test binary of its own.

use rog::compress::CodecState;
use rog::core::{
    ImportanceMetric, RowBatch, RowId, RowPartition, RowVersionStore, ShardMap, ShardedServer,
};
use rog::models::{Mlp, Task};
use rog::tensor::rng::DetRng;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{retained_bytes, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const WORKERS: usize = 256;
const SHARDS: usize = 4;

/// Measured: 0.39 MB (the 224 KB worker-to-copy slot table, one copy
/// per row plus room for a second). The flat per-worker store held
/// 15.9 MB of values and 0.45 MB of freshness stamps.
const MAX_STORE_BYTES: usize = 1_500_000;

/// A 256-worker, 4-shard plane over the paper-scale CRUDA model, and
/// the model's rows.
fn fleet() -> (ShardedServer, RowPartition) {
    let model = Mlp::new(
        &[40, 112, 80, 24],
        Task::Classification,
        &mut DetRng::new(12),
    );
    let partition = RowPartition::of_params(model.params());
    let map = ShardMap::contiguous(partition.n_rows(), SHARDS);
    let imp = ImportanceMetric::default();
    (
        ShardedServer::new(model.params(), WORKERS, 4, imp, map),
        partition,
    )
}

/// Every row of shard `s`, as one push.
fn leg(server: &ShardedServer, partition: &RowPartition, s: usize) -> RowBatch {
    let rows = server.map().rows_of(s).iter().map(|&r| RowId(r));
    rows.map(|id| {
        (
            id,
            vec![0.01 + 0.001 * (id.0 % 7) as f32; partition.width(id)],
        )
    })
    .collect()
}

/// `w` pushes every row of the model at iteration `n`.
fn push_all(server: &mut ShardedServer, partition: &RowPartition, w: usize, n: u64) {
    for s in 0..SHARDS {
        let mut rows = leg(server, partition, s);
        server.on_push(s, w, n, &mut rows);
    }
}

#[test]
fn an_undrained_fleet_holds_one_copy_per_row() {
    let (_, partition) = fleet();
    let map = ShardMap::contiguous(partition.n_rows(), SHARDS);
    // What the plane keeps beside its pending store, driven alike: a
    // pull residual per worker and row, and the version clocks.
    let (beside, _kept) = retained_bytes(|| {
        (0..SHARDS)
            .map(|s| {
                let widths: Vec<usize> = map
                    .rows_of(s)
                    .iter()
                    .map(|&r| partition.width(RowId(r)))
                    .collect();
                let mut versions = RowVersionStore::new(WORKERS, widths.len());
                for w in 0..WORKERS {
                    for l in 0..widths.len() {
                        versions.record_push(w, l, 1);
                    }
                }
                (vec![CodecState::new(&widths, 0); WORKERS], versions)
            })
            .collect::<Vec<_>>()
    });
    let (retained, server) = retained_bytes(|| {
        let (mut server, _) = fleet();
        for w in 0..WORKERS {
            push_all(&mut server, &partition, w, 1);
        }
        server
    });
    let store = retained - beside;
    assert!(
        store < MAX_STORE_BYTES,
        "the pending store holds {store} B ({retained} B in all)"
    );
    assert_eq!(server.pending_copies(), partition.n_rows());
}

/// Each epoch drains every ninth worker, then every worker pushes: the
/// epoch's drained workers share one copy from then on, and the copy
/// every worker started on is gone once all nine groups have drained.
#[test]
fn nine_drain_epochs_leave_nine_copies_per_row() {
    let (mut server, partition) = fleet();
    let rows: Vec<Vec<RowId>> = (0..SHARDS)
        .map(|s| server.map().rows_of(s).iter().map(|&r| RowId(r)).collect())
        .collect();
    for epoch in 0..9 {
        for w in (epoch..WORKERS).step_by(9) {
            for (s, ids) in rows.iter().enumerate() {
                server.commit_pull(s, w, ids);
            }
        }
        for w in 0..WORKERS {
            push_all(&mut server, &partition, w, epoch as u64 + 1);
        }
    }
    assert_eq!(server.pending_copies(), 9 * partition.n_rows());
}
