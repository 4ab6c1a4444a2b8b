//! The one-bit error-feedback step works in place — on the stored
//! residual and the caller's output buffer — so it must not touch the
//! heap, and a commit of k rows may allocate only what its signature
//! returns: k payload vectors and the vector that holds them. Asserted
//! with a counting allocator, which is why this lives in a test binary
//! of its own (the libraries forbid `unsafe`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rog::compress::{CodecState, OneBitCodec};
use rog::core::{ImportanceMetric, RogWorker, RogWorkerConfig, RowId, ShardMap, ShardedServer};
use rog::tensor::Matrix;

thread_local! {
    /// Allocation calls made by this thread (the test harness's other
    /// threads must not count).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// destructor-free thread-local that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` come from `System`; the `new_size`
        // obligations pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

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
