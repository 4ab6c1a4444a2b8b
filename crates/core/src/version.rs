//! RSP's row-granulated version storage (the paper's "Version Storage").
//!
//! [`RowVersionStore`] is an interned per-worker clock (a base version
//! plus a sparse override map for rows pushed ahead of it) and a
//! count-indexed min tracker, so `min(V)` is a plain field read
//! (`&self`, O(1)) and memory is O(workers + rows pushed ahead of their
//! worker's floor) instead of a dense `workers × rows` table. That
//! dense table, `DenseRowVersionStore`, is compiled for this module's
//! tests only, as the differential oracle and the readable reference
//! for the semantics.

use std::collections::{HashMap, VecDeque};

/// One worker's row versions, interned against a base clock.
///
/// Invariants (enforced by every mutator):
/// * every value in `over` is strictly greater than `base`;
/// * `over.len() < n_rows` — whenever an update would override the last
///   base row, the clock *rebases* (folds the new minimum into `base`),
///   so at least one row always sits exactly at `base`;
/// * therefore the worker's minimum version is `base`, and `base` never
///   decreases (pushes and stamps are monotonic).
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkerClock {
    /// Version floor: every row not in `over` is exactly here.
    base: u64,
    /// Rows pushed ahead of `base` (values strictly greater).
    over: HashMap<usize, u64>,
}

impl WorkerClock {
    fn new() -> Self {
        Self {
            base: 0,
            over: HashMap::new(),
        }
    }

    fn get(&self, row: usize) -> u64 {
        self.over.get(&row).copied().unwrap_or(self.base)
    }

    /// Folds the override minimum into `base` once every row has been
    /// overridden, restoring `over.len() < n_rows`. Returns the new
    /// base. O(over.len()), and only reachable after at least one full
    /// sweep of the rows, so amortized cost stays sub-linear in steady
    /// state.
    fn rebase(&mut self) -> u64 {
        let new_base = self.over.values().copied().min().expect("non-empty over");
        self.base = new_base;
        self.over.retain(|_, v| *v > new_base);
        new_base
    }

    /// Monotonic single-row update. Returns the worker's new minimum if
    /// it rose (i.e. a rebase happened).
    fn record(&mut self, row: usize, iter: u64, n_rows: usize) -> Option<u64> {
        if iter <= self.get(row) {
            return None;
        }
        self.over.insert(row, iter);
        if self.over.len() == n_rows {
            Some(self.rebase())
        } else {
            None
        }
    }

    /// Monotonic fast-forward of every row to at least `iter`. Returns
    /// the worker's new minimum if it rose.
    fn stamp(&mut self, iter: u64, n_rows: usize) -> Option<u64> {
        if iter <= self.base {
            return None;
        }
        self.over.retain(|_, v| *v > iter);
        self.base = iter;
        if self.over.len() == n_rows {
            Some(self.rebase())
        } else {
            Some(iter)
        }
    }
}

/// Tracks, for every `(worker, row)` pair, the latest training iteration
/// whose gradients for that row the parameter server has received —
/// `v_i^r` in Algorithm 2.
///
/// The RSP gate (Algorithm 2, lines 7–9) compares a worker's freshly
/// pushed version against the global minimum `min(V)`: if the lead
/// reaches the staleness threshold, the pull is withheld and the worker
/// stalls until stragglers catch up.
///
/// Under dynamic membership, `min(V)` ranges over the *active* workers
/// only ([`RowVersionStore::set_active`]): a departed worker's frozen
/// rows are aged out of the bound instead of pinning the whole cluster
/// at its last push forever.
///
/// # Fleet-scale representation
///
/// Per-worker state is a [`WorkerClock`] (base + sparse overrides), so a
/// worker's own minimum is its base and is *monotone nondecreasing*.
/// That monotonicity is what makes the global bound incremental: the
/// store keeps two count rings indexed by `version − origin` — how many
/// workers (all, and active-only) currently have their minimum at each
/// version — and advances the cached minima past empty buckets as
/// counts drain. `global_min` is then a field read; the advancing scan
/// is amortized O(1) per version increment. The only operation that can
/// *lower* the cached bound is reactivating a stale worker
/// ([`RowVersionStore::set_active`]), a rare fault-path event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowVersionStore {
    n_rows: usize,
    clocks: Vec<WorkerClock>,
    /// Membership mask; inactive workers are excluded from `min(V)`.
    active: Vec<bool>,
    n_active: usize,
    /// Version of the first count-ring bucket; `≤` every worker's
    /// minimum. Advances (popping dead buckets) as the fleet moves on.
    origin: u64,
    /// `counts_all[v − origin]` = workers whose minimum is `v`.
    counts_all: VecDeque<u32>,
    /// Same, restricted to active workers.
    counts_active: VecDeque<u32>,
    /// `min(V)` over all workers (monotone; counts_all ring).
    min_all: u64,
    /// `min(V)` over active workers; meaningful iff `n_active > 0`.
    min_active: u64,
    /// Freshest version of any cell, active or not (monotone).
    gmax: u64,
}

impl RowVersionStore {
    /// Creates storage for `n_workers × n_rows`, all at version 0.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn new(n_workers: usize, n_rows: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        assert!(n_rows > 0, "need at least one row");
        Self {
            n_rows,
            clocks: vec![WorkerClock::new(); n_workers],
            active: vec![true; n_workers],
            n_active: n_workers,
            origin: 0,
            counts_all: VecDeque::from([n_workers as u32]),
            counts_active: VecDeque::from([n_workers as u32]),
            min_all: 0,
            min_active: 0,
            gmax: 0,
        }
    }

    /// Number of workers tracked.
    pub fn n_workers(&self) -> usize {
        self.clocks.len()
    }

    /// Number of rows tracked.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Version of `row` on `worker`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, worker: usize, row: usize) -> u64 {
        assert!(row < self.n_rows, "row out of range");
        self.clocks[worker].get(row)
    }

    fn bucket_add(&mut self, v: u64, active: bool) {
        let i = (v - self.origin) as usize;
        if i >= self.counts_all.len() {
            self.counts_all.resize(i + 1, 0);
            self.counts_active.resize(i + 1, 0);
        }
        self.counts_all[i] += 1;
        if active {
            self.counts_active[i] += 1;
        }
    }

    fn bucket_remove(&mut self, v: u64, active: bool) {
        let i = (v - self.origin) as usize;
        self.counts_all[i] -= 1;
        if active {
            self.counts_active[i] -= 1;
        }
    }

    /// Re-establishes the cached minima after a bucket drained, then
    /// pops buckets below the all-workers minimum so ring length stays
    /// O(version spread). Amortized O(1): every bucket advanced over
    /// corresponds to a version the fleet minimum moved past.
    fn advance_minima(&mut self) {
        while self.counts_all[(self.min_all - self.origin) as usize] == 0 {
            self.min_all += 1;
        }
        if self.n_active > 0 {
            if self.min_active < self.min_all {
                self.min_active = self.min_all;
            }
            while self.counts_active[(self.min_active - self.origin) as usize] == 0 {
                self.min_active += 1;
            }
        }
        while self.origin < self.min_all {
            self.counts_all.pop_front();
            self.counts_active.pop_front();
            self.origin += 1;
        }
    }

    /// Moves `worker`'s minimum from its previous bucket to `new_min`
    /// (always a raise — per-worker minima are monotone).
    fn on_worker_min_raised(&mut self, worker: usize, old_min: u64, new_min: u64) {
        let active = self.active[worker];
        self.bucket_remove(old_min, active);
        self.bucket_add(new_min, active);
        self.advance_minima();
    }

    /// Records that `worker` pushed `row` at iteration `iter`
    /// (monotonic).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn record_push(&mut self, worker: usize, row: usize, iter: u64) {
        assert!(row < self.n_rows, "row out of range");
        let clock = &mut self.clocks[worker];
        let old_min = clock.base;
        let raised = clock.record(row, iter, self.n_rows);
        if iter > self.gmax {
            self.gmax = iter;
        }
        if let Some(new_min) = raised {
            self.on_worker_min_raised(worker, old_min, new_min);
        }
    }

    /// Includes (`active == true`) or excludes `worker` from the
    /// `min(V)` bound. Departed workers are excluded so their frozen
    /// rows stop gating everyone else; rejoining workers are included
    /// again after [`RowVersionStore::stamp_worker`] fast-forwards them.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn set_active(&mut self, worker: usize, active: bool) {
        if self.active[worker] == active {
            return;
        }
        self.active[worker] = active;
        let wmin = self.clocks[worker].base;
        let i = (wmin - self.origin) as usize;
        if active {
            self.counts_active[i] += 1;
            self.n_active += 1;
            // Reactivation is the one event that can lower the active
            // bound (the rejoiner may still be stale).
            if self.n_active == 1 || wmin < self.min_active {
                self.min_active = wmin;
            }
        } else {
            self.counts_active[i] -= 1;
            self.n_active -= 1;
            if self.n_active > 0 {
                while self.counts_active[(self.min_active - self.origin) as usize] == 0 {
                    self.min_active += 1;
                }
            }
        }
    }

    /// Whether `worker` currently counts toward `min(V)`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn is_active(&self, worker: usize) -> bool {
        self.active[worker]
    }

    /// Fast-forwards every row of `worker` to at least `iter`
    /// (monotonic, like [`RowVersionStore::record_push`]). Used on
    /// rejoin: the worker resynced its model at `iter`, so its rows are
    /// exactly as fresh as the model it adopted.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn stamp_worker(&mut self, worker: usize, iter: u64) {
        let clock = &mut self.clocks[worker];
        let old_min = clock.base;
        let raised = clock.stamp(iter, self.n_rows);
        if iter > self.gmax {
            self.gmax = iter;
        }
        if let Some(new_min) = raised {
            self.on_worker_min_raised(worker, old_min, new_min);
        }
    }

    /// `min(V)`: the version of the stalest row of any *active* worker.
    /// Falls back to the minimum over all workers if none is active (a
    /// fully departed cluster has nothing left to gate).
    ///
    /// O(1): the bound is maintained incrementally by the mutators.
    pub fn global_min(&self) -> u64 {
        if self.n_active > 0 {
            self.min_active
        } else {
            self.min_all
        }
    }

    /// The RSP gate: may a worker whose freshest pushed rows carry
    /// version `pushed_iter` be served its pull under `threshold`?
    ///
    /// Mirrors Algorithm 2: the pull waits while
    /// `pushed_iter - min(V) >= threshold`. The bound semantics live
    /// in [`crate::gate::rsp_may_pull`], shared with the engine and
    /// the invariant tests.
    pub fn gate_ok(&self, pushed_iter: u64, threshold: u32) -> bool {
        crate::gate::rsp_may_pull(self.global_min(), pushed_iter, threshold)
    }

    /// The cell pinning `min(V)`: the first `(worker, row)` in index
    /// order (active workers preferred) whose version equals the
    /// global minimum — "whom the gate is waiting for".
    pub fn stalest_cell(&self) -> (usize, usize, u64) {
        let min = self.global_min();
        let first_row_at = |clock: &WorkerClock| -> Option<usize> {
            if clock.base != min {
                return None;
            }
            // Every row outside `over` sits exactly at `base`; the
            // clock invariant guarantees at least one exists.
            (0..self.n_rows).find(|r| !clock.over.contains_key(r))
        };
        for (w, (clock, &active)) in self.clocks.iter().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            if let Some(r) = first_row_at(clock) {
                return (w, r, min);
            }
        }
        for (w, clock) in self.clocks.iter().enumerate() {
            if let Some(r) = first_row_at(clock) {
                return (w, r, min);
            }
        }
        (0, 0, min)
    }

    /// Staleness (iterations behind the cluster-freshest row) of the
    /// stalest row of `worker`. O(1): both bounds are tracked
    /// incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn worker_max_staleness(&self, worker: usize) -> u64 {
        self.gmax - self.clocks[worker].base
    }

    /// Estimated resident size of the store in bytes: the struct, the
    /// clock table with each worker's override capacity, and the count
    /// rings. An estimate (hash-map overhead is approximated per
    /// entry), meant for capacity ratchets, not allocator accounting.
    pub fn memory_bytes(&self) -> usize {
        // Rough per-entry cost of a `HashMap<usize, u64>`: key + value
        // + one byte of control metadata, times the usual 8/7 load
        // headroom, rounded up to 24. Counted per *live* entry (`len`),
        // not `capacity`: with removals in the mix the table's bucket
        // count depends on its per-instance hash seed, and this
        // estimate feeds deterministic run artifacts.
        const OVER_ENTRY_BYTES: usize = 24;
        std::mem::size_of::<Self>()
            + self.clocks.capacity() * std::mem::size_of::<WorkerClock>()
            + self
                .clocks
                .iter()
                .map(|c| c.over.len() * OVER_ENTRY_BYTES)
                .sum::<usize>()
            + self.active.capacity()
            + (self.counts_all.capacity() + self.counts_active.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// The original dense `workers × rows` version table with a rescan-based
/// `min(V)`. Retained as the differential oracle for
/// [`RowVersionStore`]: same observable semantics, trivially auditable
/// implementation.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct DenseRowVersionStore {
    /// `v[worker][row]`.
    v: Vec<Vec<u64>>,
    /// Membership mask; inactive workers are excluded from `min(V)`.
    active: Vec<bool>,
    cached_min: u64,
    dirty: bool,
}

#[cfg(test)]
impl DenseRowVersionStore {
    /// Creates storage for `n_workers × n_rows`, all at version 0.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn new(n_workers: usize, n_rows: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        assert!(n_rows > 0, "need at least one row");
        Self {
            v: vec![vec![0; n_rows]; n_workers],
            active: vec![true; n_workers],
            cached_min: 0,
            dirty: false,
        }
    }

    /// Version of `row` on `worker`.
    pub fn get(&self, worker: usize, row: usize) -> u64 {
        self.v[worker][row]
    }

    /// Records that `worker` pushed `row` at iteration `iter`
    /// (monotonic).
    pub fn record_push(&mut self, worker: usize, row: usize, iter: u64) {
        let cell = &mut self.v[worker][row];
        if iter > *cell {
            if *cell == self.cached_min {
                self.dirty = true;
            }
            *cell = iter;
        }
    }

    /// Includes or excludes `worker` from the `min(V)` bound.
    pub fn set_active(&mut self, worker: usize, active: bool) {
        if self.active[worker] != active {
            self.active[worker] = active;
            self.dirty = true;
        }
    }

    /// Whether `worker` currently counts toward `min(V)`.
    pub fn is_active(&self, worker: usize) -> bool {
        self.active[worker]
    }

    /// Fast-forwards every row of `worker` to at least `iter`.
    pub fn stamp_worker(&mut self, worker: usize, iter: u64) {
        for cell in &mut self.v[worker] {
            if iter > *cell {
                *cell = iter;
            }
        }
        self.dirty = true;
    }

    /// `min(V)` by full rescan (when dirty) over the dense table.
    pub fn global_min(&mut self) -> u64 {
        if self.dirty {
            let over_active = self
                .v
                .iter()
                .zip(&self.active)
                .filter(|(_, &a)| a)
                .flat_map(|(w, _)| w.iter())
                .copied()
                .min();
            self.cached_min = match over_active {
                Some(m) => m,
                None => self
                    .v
                    .iter()
                    .flat_map(|w| w.iter())
                    .copied()
                    .min()
                    .expect("non-empty"),
            };
            self.dirty = false;
        }
        self.cached_min
    }

    /// The RSP gate over the rescanned bound.
    pub fn gate_ok(&mut self, pushed_iter: u64, threshold: u32) -> bool {
        let global_min = self.global_min();
        crate::gate::rsp_may_pull(global_min, pushed_iter, threshold)
    }

    /// The cell pinning `min(V)`, first in index order (active workers
    /// preferred).
    pub fn stalest_cell(&mut self) -> (usize, usize, u64) {
        let min = self.global_min();
        for (w, (rows, &active)) in self.v.iter().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            if let Some(r) = rows.iter().position(|&v| v == min) {
                return (w, r, min);
            }
        }
        for (w, rows) in self.v.iter().enumerate() {
            if let Some(r) = rows.iter().position(|&v| v == min) {
                return (w, r, min);
            }
        }
        (0, 0, min)
    }

    /// Staleness of the stalest row of `worker` vs the global freshest.
    pub fn worker_max_staleness(&self, worker: usize) -> u64 {
        let global_max = self
            .v
            .iter()
            .flat_map(|w| w.iter())
            .copied()
            .max()
            .expect("non-empty");
        let worker_min = *self.v[worker].iter().min().expect("non-empty");
        global_max - worker_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_tracks_the_stalest_cell() {
        let mut v = RowVersionStore::new(2, 3);
        assert_eq!(v.global_min(), 0);
        for r in 0..3 {
            v.record_push(0, r, 4);
        }
        assert_eq!(v.global_min(), 0, "worker 1 still at 0");
        for r in 0..3 {
            v.record_push(1, r, 2);
        }
        assert_eq!(v.global_min(), 2);
    }

    #[test]
    fn partial_row_pushes_hold_the_min_down() {
        let mut v = RowVersionStore::new(1, 4);
        v.record_push(0, 0, 5);
        v.record_push(0, 1, 5);
        // Rows 2, 3 never pushed.
        assert_eq!(v.global_min(), 0);
        v.record_push(0, 2, 3);
        v.record_push(0, 3, 3);
        assert_eq!(v.global_min(), 3);
    }

    #[test]
    fn gate_blocks_leads_at_threshold() {
        let mut v = RowVersionStore::new(2, 2);
        for r in 0..2 {
            v.record_push(0, r, 4);
            v.record_push(1, r, 1);
        }
        // min(V) = 1; a push at iter 4 leads by 3.
        assert!(v.gate_ok(4, 4));
        assert!(!v.gate_ok(4, 3));
        assert!(!v.gate_ok(4, 2));
    }

    #[test]
    fn versions_are_monotonic() {
        let mut v = RowVersionStore::new(1, 1);
        v.record_push(0, 0, 9);
        v.record_push(0, 0, 4);
        assert_eq!(v.get(0, 0), 9);
    }

    #[test]
    fn deactivated_workers_stop_pinning_the_min() {
        let mut v = RowVersionStore::new(3, 2);
        for r in 0..2 {
            v.record_push(0, r, 10);
            v.record_push(1, r, 9);
            // Worker 2 pushed once long ago and then vanished.
            v.record_push(2, r, 2);
        }
        assert_eq!(v.global_min(), 2);
        assert!(!v.gate_ok(10, 4), "straggler pins the gate");
        v.set_active(2, false);
        assert!(!v.is_active(2));
        assert_eq!(v.global_min(), 9, "frozen rows aged out of the bound");
        assert!(v.gate_ok(10, 4), "gate opens once the departed row is out");
        // Reactivating without a stamp restores the old bound.
        v.set_active(2, true);
        assert_eq!(v.global_min(), 2);
    }

    #[test]
    fn stamp_worker_fast_forwards_monotonically() {
        let mut v = RowVersionStore::new(2, 3);
        v.record_push(0, 0, 12);
        v.record_push(1, 1, 7);
        v.stamp_worker(1, 5);
        assert_eq!(v.get(1, 0), 5);
        assert_eq!(v.get(1, 1), 7, "stamp never lowers a version");
        assert_eq!(v.get(1, 2), 5);
        // Rejoin sequence: deactivate, stamp at the adopted iteration,
        // reactivate — min(V) reflects the resynced rows.
        v.set_active(1, false);
        v.stamp_worker(1, 12);
        v.set_active(1, true);
        v.stamp_worker(0, 12);
        assert_eq!(v.global_min(), 12);
    }

    #[test]
    fn min_over_no_active_workers_falls_back_to_all() {
        let mut v = RowVersionStore::new(2, 1);
        v.record_push(0, 0, 3);
        v.record_push(1, 0, 5);
        v.set_active(0, false);
        v.set_active(1, false);
        assert_eq!(v.global_min(), 3);
    }

    #[test]
    fn stalest_cell_identifies_the_gating_row() {
        let mut v = RowVersionStore::new(2, 2);
        v.record_push(0, 0, 5);
        v.record_push(0, 1, 5);
        v.record_push(1, 0, 5);
        // Row (1, 1) is still at version 0 and pins the gate.
        assert_eq!(v.stalest_cell(), (1, 1, 0));
        v.set_active(1, false);
        assert_eq!(v.stalest_cell(), (0, 0, 5));
    }

    #[test]
    fn gate_matches_shared_predicate() {
        let mut v = RowVersionStore::new(2, 2);
        for r in 0..2 {
            v.record_push(0, r, 4);
            v.record_push(1, r, 1);
        }
        let min = v.global_min();
        for threshold in 0..6 {
            for pushed in 0..8 {
                assert_eq!(
                    v.gate_ok(pushed, threshold),
                    crate::gate::rsp_may_pull(min, pushed, threshold)
                );
            }
        }
    }

    #[test]
    fn worker_staleness_is_vs_global_freshest() {
        let mut v = RowVersionStore::new(2, 2);
        v.record_push(0, 0, 10);
        v.record_push(0, 1, 10);
        v.record_push(1, 0, 7);
        // Worker 1's row 1 is still at version 0.
        assert_eq!(v.worker_max_staleness(1), 10);
        v.record_push(1, 1, 8);
        assert_eq!(v.worker_max_staleness(1), 3);
        assert_eq!(v.worker_max_staleness(0), 0);
    }

    #[test]
    fn global_min_borrows_shared() {
        // The satellite contract: `global_min` takes `&self`, so a
        // shared reference can read the bound (the dense oracle could
        // not offer this without interior mutability).
        let v = RowVersionStore::new(3, 3);
        let r = &v;
        assert_eq!(r.global_min(), 0);
        assert_eq!(r.stalest_cell(), (0, 0, 0));
        assert!(r.gate_ok(0, 1));
    }

    #[test]
    fn rebase_keeps_a_row_at_the_floor() {
        // Override every row, forcing a rebase; the invariant that some
        // row sits exactly at the worker min must survive.
        let mut v = RowVersionStore::new(1, 3);
        v.record_push(0, 0, 5);
        v.record_push(0, 1, 3);
        v.record_push(0, 2, 7);
        assert_eq!(v.global_min(), 3);
        assert_eq!(v.stalest_cell(), (0, 1, 3));
        v.record_push(0, 1, 4);
        assert_eq!(v.global_min(), 4);
        assert_eq!(v.stalest_cell(), (0, 1, 4));
    }

    #[test]
    fn memory_stays_sparse_for_untouched_rows() {
        // A fleet where nobody has pushed yet costs O(workers), not
        // O(workers × rows).
        let wide = RowVersionStore::new(512, 4096);
        let bytes = wide.memory_bytes();
        assert!(
            bytes < 512 * 4096,
            "untouched 512×4096 store should be far below one byte per cell, got {bytes}"
        );
        let mut touched = RowVersionStore::new(512, 4096);
        touched.record_push(0, 7, 3);
        assert!(touched.memory_bytes() < 512 * 4096);
    }

    /// Applies one oracle op to both stores and checks every observable
    /// agrees. The dense store is the semantics; the sparse store must
    /// match it on any history.
    #[derive(Debug, Clone)]
    enum Op {
        Push { w: usize, r: usize, iter: u64 },
        Stamp { w: usize, iter: u64 },
        SetActive { w: usize, active: bool },
    }

    fn check_equivalent(sparse: &RowVersionStore, dense: &mut DenseRowVersionStore) {
        assert_eq!(sparse.global_min(), dense.global_min(), "global_min");
        assert_eq!(sparse.stalest_cell(), dense.stalest_cell(), "stalest_cell");
        for w in 0..sparse.n_workers() {
            assert_eq!(sparse.is_active(w), dense.is_active(w), "is_active {w}");
            assert_eq!(
                sparse.worker_max_staleness(w),
                dense.worker_max_staleness(w),
                "staleness {w}"
            );
            for r in 0..sparse.n_rows() {
                assert_eq!(sparse.get(w, r), dense.get(w, r), "cell ({w}, {r})");
            }
        }
        for threshold in 0..4 {
            for pushed in 0..10 {
                assert_eq!(
                    sparse.gate_ok(pushed, threshold),
                    dense.gate_ok(pushed, threshold),
                    "gate({pushed}, {threshold})"
                );
            }
        }
    }

    fn apply(op: &Op, sparse: &mut RowVersionStore, dense: &mut DenseRowVersionStore) {
        match *op {
            Op::Push { w, r, iter } => {
                sparse.record_push(w, r, iter);
                dense.record_push(w, r, iter);
            }
            Op::Stamp { w, iter } => {
                sparse.stamp_worker(w, iter);
                dense.stamp_worker(w, iter);
            }
            Op::SetActive { w, active } => {
                sparse.set_active(w, active);
                dense.set_active(w, active);
            }
        }
    }

    #[test]
    fn differential_oracle_on_a_fixed_fault_history() {
        // A deterministic history touching every tricky transition:
        // rebase, deactivate-under-min, reactivate-stale, stamp-rejoin,
        // and the everyone-departed fallback.
        let ops = [
            Op::Push {
                w: 0,
                r: 0,
                iter: 3,
            },
            Op::Push {
                w: 0,
                r: 1,
                iter: 3,
            },
            Op::Push {
                w: 1,
                r: 1,
                iter: 2,
            },
            Op::Push {
                w: 1,
                r: 0,
                iter: 2,
            },
            Op::Push {
                w: 2,
                r: 0,
                iter: 1,
            },
            Op::SetActive {
                w: 2,
                active: false,
            },
            Op::Push {
                w: 0,
                r: 0,
                iter: 6,
            },
            Op::Push {
                w: 0,
                r: 1,
                iter: 6,
            },
            Op::SetActive { w: 2, active: true },
            Op::Stamp { w: 2, iter: 5 },
            Op::Push {
                w: 1,
                r: 0,
                iter: 4,
            },
            Op::Push {
                w: 1,
                r: 1,
                iter: 4,
            },
            Op::SetActive {
                w: 0,
                active: false,
            },
            Op::SetActive {
                w: 1,
                active: false,
            },
            Op::SetActive {
                w: 2,
                active: false,
            },
            Op::SetActive { w: 1, active: true },
            Op::Stamp { w: 0, iter: 9 },
        ];
        let mut sparse = RowVersionStore::new(3, 2);
        let mut dense = DenseRowVersionStore::new(3, 2);
        for op in &ops {
            apply(op, &mut sparse, &mut dense);
            check_equivalent(&sparse, &mut dense);
        }
    }

    mod differential_props {
        use super::*;
        use proptest::prelude::*;

        const W: usize = 4;
        const R: usize = 5;

        /// Decodes a raw draw into an op: pushes dominate (as in a real
        /// run), stamps and membership flips are the fault-path tail.
        fn decode(kind: usize, w: usize, r: usize, iter: u64) -> Op {
            match kind {
                0..=5 => Op::Push { w, r, iter },
                6 => Op::Stamp { w, iter },
                _ => Op::SetActive {
                    w,
                    active: iter.is_multiple_of(2),
                },
            }
        }

        proptest! {
            #[test]
            fn sparse_store_matches_the_dense_oracle(
                raw in proptest::collection::vec((0..9usize, 0..W, 0..R, 0u64..20), 1..120)
            ) {
                let mut sparse = RowVersionStore::new(W, R);
                let mut dense = DenseRowVersionStore::new(W, R);
                for &(kind, w, r, iter) in &raw {
                    let op = decode(kind, w, r, iter);
                    apply(&op, &mut sparse, &mut dense);
                    check_equivalent(&sparse, &mut dense);
                }
            }
        }
    }
}
