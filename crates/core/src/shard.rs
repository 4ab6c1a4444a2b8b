//! Row-sharded parameter-server plane.
//!
//! ROG's row granularity is exactly the unit a sharded PS group needs:
//! every [`RowId`] is homed on one shard, each shard keeps its own
//! version storage and active-mask, and RSP's two-level bound composes
//! per shard because `global_min` is already a per-row property — a
//! worker blocks only on the shard that owns the row pinning its
//! staleness, so one slow or faulted shard never stalls rows homed
//! elsewhere.
//!
//! [`ShardMap`] is the deterministic row→shard assignment (contiguous
//! ranges by default, seeded hash optionally); [`ShardedServer`] owns
//! one [`RogServer`] per shard and translates between global and
//! shard-local row ids at the boundary. With one shard the map is the
//! identity and the plane degenerates to a single [`RogServer`] built
//! exactly as before — byte-identical behaviour is a hard contract.

use rog_tensor::Matrix;

use crate::{ImportanceMetric, RogServer, RowId, RowPartition, RowVersionStore};

/// `splitmix64` finalizer — a tiny, dependency-free seeded hash with
/// full avalanche, used for the optional hashed row→shard mode.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic assignment of global rows to parameter-server shards.
///
/// Invariants (property-tested in the facade suite):
/// - every row maps to exactly one shard;
/// - the shard row-sets are a disjoint cover of `0..n_rows`;
/// - with one shard, routing is the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    n_shards: usize,
    /// `assign[row]` = owning shard.
    assign: Vec<usize>,
    /// `local[row]` = index of the row within its shard.
    local: Vec<usize>,
    /// `rows[s]` = global row ids homed on shard `s`, in local order.
    rows: Vec<Vec<usize>>,
}

impl ShardMap {
    fn from_assignment(n_shards: usize, assign: Vec<usize>) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let mut local = vec![0usize; assign.len()];
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (r, &s) in assign.iter().enumerate() {
            local[r] = rows[s].len();
            rows[s].push(r);
        }
        Self {
            n_shards,
            assign,
            local,
            rows,
        }
    }

    /// Contiguous row-range partitioning: shard `s` owns a near-equal
    /// slice of `0..n_rows`, earlier shards taking the remainder rows.
    /// With `n_shards == 1` this is the identity map.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0`.
    pub fn contiguous(n_rows: usize, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let base = n_rows / n_shards;
        let rem = n_rows % n_shards;
        let mut assign = Vec::with_capacity(n_rows);
        for s in 0..n_shards {
            let len = base + usize::from(s < rem);
            assign.extend((0..len).map(|_| s));
        }
        Self::from_assignment(n_shards, assign)
    }

    /// Seeded-hash partitioning: each row's shard is drawn from a
    /// `splitmix64` hash of `(seed, row)`. Deterministic for a given
    /// seed, load-balanced in expectation, and independent of row
    /// adjacency (useful when neighbouring rows have correlated load).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0`.
    pub fn seeded_hash(n_rows: usize, n_shards: usize, seed: u64) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let assign = (0..n_rows)
            .map(|r| (splitmix64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9))) as usize % n_shards)
            .collect();
        Self::from_assignment(n_shards, assign)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Total number of rows covered.
    pub fn n_rows(&self) -> usize {
        self.assign.len()
    }

    /// The shard owning a global row.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shard_of(&self, id: RowId) -> usize {
        self.assign[id.0]
    }

    /// Translates a global row id to its shard-local id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn to_local(&self, id: RowId) -> RowId {
        RowId(self.local[id.0])
    }

    /// Translates a shard-local row id back to the global id.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `local` is out of range.
    pub fn to_global(&self, shard: usize, local: RowId) -> RowId {
        RowId(self.rows[shard][local.0])
    }

    /// Number of rows homed on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_rows(&self, shard: usize) -> usize {
        self.rows[shard].len()
    }

    /// Global row ids homed on `shard`, in shard-local order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn rows_of(&self, shard: usize) -> &[usize] {
        &self.rows[shard]
    }

    /// Whether routing is the identity (single shard).
    pub fn is_identity(&self) -> bool {
        self.n_shards == 1
    }
}

/// A group of [`RogServer`] shards behind one global-row-id facade.
///
/// Each shard is a full `RogServer` — its own accumulators, error
/// feedback, [`RowVersionStore`] and active-mask — over the rows the
/// [`ShardMap`] homes on it. All methods speak global [`RowId`]s and
/// translate at the boundary; translation is pure index arithmetic
/// (no float operations), so shard count never perturbs values.
#[derive(Debug, Clone)]
pub struct ShardedServer {
    map: ShardMap,
    shards: Vec<RogServer>,
    /// Scratch for global→local id translation in `commit_pull`.
    local_buf: Vec<RowId>,
}

impl ShardedServer {
    /// Creates the shard group for `n_workers` over a model shaped like
    /// `params`. With a single shard the inner server is constructed
    /// exactly as an unsharded [`RogServer`] (same partition, same
    /// buffer layout) — the byte-identity anchor for `shards = 1`.
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover the model's rows, `n_workers ==
    /// 0`, or any shard ends up empty.
    pub fn new(
        params: &[Matrix],
        n_workers: usize,
        threshold: u32,
        importance: ImportanceMetric,
        map: ShardMap,
    ) -> Self {
        let partition = RowPartition::of_params(params);
        assert_eq!(
            map.n_rows(),
            partition.n_rows(),
            "shard map covers {} rows but the model has {}",
            map.n_rows(),
            partition.n_rows()
        );
        let shards = if map.is_identity() {
            vec![RogServer::new(params, n_workers, threshold, importance)]
        } else {
            (0..map.n_shards())
                .map(|s| {
                    assert!(
                        map.shard_rows(s) > 0,
                        "shard {s} owns no rows ({} rows over {} shards)",
                        map.n_rows(),
                        map.n_shards()
                    );
                    // Server state is strictly per-row, so a synthetic
                    // one-row-per-matrix shape reproduces the same
                    // arithmetic regardless of the original grouping.
                    let shard_params: Vec<Matrix> = map
                        .rows_of(s)
                        .iter()
                        .map(|&r| Matrix::zeros(1, partition.width(RowId(r))))
                        .collect();
                    RogServer::new(&shard_params, n_workers, threshold, importance)
                })
                .collect()
        };
        Self {
            map,
            shards,
            local_buf: Vec::new(),
        }
    }

    /// The row→shard assignment.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.map.n_shards()
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.shards[0].n_workers()
    }

    /// The staleness threshold (uniform across shards).
    pub fn threshold(&self) -> u32 {
        self.shards[0].threshold()
    }

    /// Changes the staleness threshold on every shard.
    pub fn set_threshold(&mut self, threshold: u32) {
        for s in &mut self.shards {
            s.set_threshold(threshold);
        }
    }

    /// Configures the pull codec of every link on every shard, each
    /// shard's stochastic streams seeded from an independent fork of
    /// `seed`. Call before training starts.
    pub fn configure_codec(&mut self, choice: rog_compress::CodecChoice, seed: u64) {
        let base = rog_tensor::rng::DetRng::new(seed);
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.configure_codec(choice, base.fork(i as u64).seed());
        }
    }

    /// Switches the pull codec of the link to `worker` on every shard
    /// (the per-link auto controller).
    pub fn set_codec(&mut self, worker: usize, codec: rog_compress::Codec) {
        for s in &mut self.shards {
            s.set_codec(worker, codec);
        }
    }

    /// Total NaN/Inf gradient values zeroed at ingest across shards.
    pub fn nonfinite_dropped(&self) -> u64 {
        self.shards.iter().map(RogServer::nonfinite_dropped).sum()
    }

    /// Number of currently active workers (uniform across shards).
    pub fn active_workers(&self) -> usize {
        self.shards[0].active_workers()
    }

    /// Whether `worker` is currently a cluster member.
    pub fn is_active(&self, worker: usize) -> bool {
        self.shards[0].is_active(worker)
    }

    /// Removes `worker` from the active set on every shard.
    pub fn deactivate_worker(&mut self, worker: usize) {
        for s in &mut self.shards {
            s.deactivate_worker(worker);
        }
    }

    /// Readmits `worker` at iteration `iter` on every shard.
    pub fn rejoin_worker(&mut self, worker: usize, iter: u64) {
        for s in &mut self.shards {
            s.rejoin_worker(worker, iter);
        }
    }

    /// The version storage of one shard (shared; gate diagnostics are
    /// `&self` reads on the sparse store).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn versions(&self, shard: usize) -> &RowVersionStore {
        self.shards[shard].versions()
    }

    /// Estimated resident bytes of every shard's version storage (see
    /// [`RowVersionStore::memory_bytes`]).
    pub fn version_store_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.versions().memory_bytes())
            .sum()
    }

    /// Receives pushed rows homed on `shard`. `rows` carries global ids
    /// and is translated to shard-local ids **in place** (callers hand
    /// the payload over; the ids are not meaningful afterwards).
    ///
    /// # Panics
    ///
    /// Panics if any row is not homed on `shard`.
    pub fn on_push(&mut self, shard: usize, from: usize, n: u64, rows: &mut [(RowId, Vec<f32>)]) {
        for (id, _) in rows.iter_mut() {
            assert_eq!(self.map.shard_of(*id), shard, "{id} not homed on {shard}");
            *id = self.map.to_local(*id);
        }
        self.shards[shard].on_push(from, n, rows);
    }

    /// Per-shard RSP gate: may a worker whose push to `shard` carried
    /// iteration `pushed_iter` be served that shard's pull now?
    pub fn gate_ok(&self, shard: usize, pushed_iter: u64) -> bool {
        self.shards[shard].gate_ok(pushed_iter)
    }

    /// Shard-local pull plan for `worker`, translated to global ids.
    pub fn plan_pull_into(&mut self, shard: usize, worker: usize, out: &mut Vec<RowId>) {
        self.shards[shard].plan_pull_into(worker, out);
        for id in out.iter_mut() {
            *id = self.map.to_global(shard, *id);
        }
    }

    /// Width-only payload size of one (global) row on the wire (the
    /// one-bit / dense bound; see [`RogServer::payload_bytes`]).
    pub fn payload_bytes(&self, id: RowId) -> u64 {
        self.shards[self.map.shard_of(id)].payload_bytes(self.map.to_local(id))
    }

    /// Payload size of one (global) row on the link to `worker`, as
    /// that link's codec would frame it right now.
    pub fn payload_bytes_for(&self, worker: usize, id: RowId) -> u64 {
        self.shards[self.map.shard_of(id)].payload_bytes_for(worker, self.map.to_local(id))
    }

    /// Commits a pull of global `rows` from `shard`, returning the
    /// delivered values keyed by global id.
    pub fn commit_pull(
        &mut self,
        shard: usize,
        worker: usize,
        rows: &[RowId],
    ) -> Vec<(RowId, Vec<f32>)> {
        let mut local = std::mem::take(&mut self.local_buf);
        local.clear();
        local.extend(rows.iter().map(|&id| self.map.to_local(id)));
        let mut out = self.shards[shard].commit_pull(worker, &local);
        for (id, _) in &mut out {
            *id = self.map.to_global(shard, *id);
        }
        self.local_buf = local;
        out
    }

    /// Sum over shards of pending mean-|ḡ| for `worker` (diagnostic).
    pub fn pending_magnitude(&self, worker: usize) -> f32 {
        self.shards
            .iter()
            .map(|s| s.pending_magnitude(worker))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<Matrix> {
        vec![Matrix::zeros(4, 3), Matrix::zeros(3, 2)]
    }

    #[test]
    fn contiguous_map_is_a_disjoint_cover() {
        for shards in 1..=5 {
            let m = ShardMap::contiguous(7, shards);
            let mut seen = vec![0usize; 7];
            for s in 0..shards {
                for &r in m.rows_of(s) {
                    seen[r] += 1;
                    assert_eq!(m.shard_of(RowId(r)), s);
                    assert_eq!(m.to_global(s, m.to_local(RowId(r))), RowId(r));
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{shards} shards: {seen:?}");
        }
    }

    #[test]
    fn contiguous_ranges_are_contiguous_and_balanced() {
        let m = ShardMap::contiguous(7, 3);
        assert_eq!(m.rows_of(0), &[0, 1, 2]);
        assert_eq!(m.rows_of(1), &[3, 4]);
        assert_eq!(m.rows_of(2), &[5, 6]);
    }

    #[test]
    fn single_shard_is_identity() {
        let m = ShardMap::contiguous(9, 1);
        assert!(m.is_identity());
        for r in 0..9 {
            assert_eq!(m.shard_of(RowId(r)), 0);
            assert_eq!(m.to_local(RowId(r)), RowId(r));
            assert_eq!(m.to_global(0, RowId(r)), RowId(r));
        }
    }

    #[test]
    fn seeded_hash_is_deterministic_and_covers() {
        let a = ShardMap::seeded_hash(50, 4, 7);
        let b = ShardMap::seeded_hash(50, 4, 7);
        assert_eq!(a, b);
        let total: usize = (0..4).map(|s| a.shard_rows(s)).sum();
        assert_eq!(total, 50);
        // A different seed reshuffles the assignment.
        let c = ShardMap::seeded_hash(50, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sharded_push_pull_matches_single_server_values() {
        // Per-row server arithmetic is shard-invariant: pushing the same
        // rows through a 3-shard plane and a plain server must deliver
        // identical pulled values.
        let p = params();
        let imp = ImportanceMetric::default();
        let mut plain = RogServer::new(&p, 2, 4, imp);
        let map = ShardMap::contiguous(7, 3);
        let mut sharded = ShardedServer::new(&p, 2, 4, imp, map);

        let rows: Vec<(RowId, Vec<f32>)> = (0..7)
            .map(|r| {
                let w = if r < 4 { 3 } else { 2 };
                (RowId(r), vec![0.5 + r as f32; w])
            })
            .collect();
        plain.on_push(0, 1, &rows);
        for s in 0..3 {
            let mut part: Vec<(RowId, Vec<f32>)> = rows
                .iter()
                .filter(|(id, _)| sharded.map().shard_of(*id) == s)
                .cloned()
                .collect();
            sharded.on_push(s, 0, 1, &mut part);
        }

        let ids: Vec<RowId> = (0..7).map(RowId).collect();
        let want = plain.commit_pull(1, &ids);
        for s in 0..3 {
            let shard_ids: Vec<RowId> = ids
                .iter()
                .copied()
                .filter(|&id| sharded.map().shard_of(id) == s)
                .collect();
            let got = sharded.commit_pull(s, 1, &shard_ids);
            for (id, values) in got {
                let (_, expect) = want.iter().find(|(w, _)| *w == id).unwrap();
                assert_eq!(&values, expect, "{id}");
            }
        }
    }

    #[test]
    fn per_shard_gate_is_independent() {
        let p = params();
        let map = ShardMap::contiguous(7, 2);
        let mut s = ShardedServer::new(&p, 2, 1, ImportanceMetric::default(), map);
        // Worker 0 pushes only shard-0 rows at iteration 3; worker 1 has
        // pushed nothing anywhere.
        let mut rows: Vec<(RowId, Vec<f32>)> = s
            .map()
            .rows_of(0)
            .to_vec()
            .iter()
            .map(|&r| (RowId(r), vec![1.0; if r < 4 { 3 } else { 2 }]))
            .collect();
        s.on_push(0, 0, 3, &mut rows);
        assert!(!s.gate_ok(0, 3), "shard 0 gated by worker 1's rows");
        // Worker 1 catches up on shard 0 only: shard 0 opens while shard
        // 1 still reflects nothing (gate at iter 3 leads by 3 > 1).
        let mut rows: Vec<(RowId, Vec<f32>)> = s
            .map()
            .rows_of(0)
            .to_vec()
            .iter()
            .map(|&r| (RowId(r), vec![1.0; if r < 4 { 3 } else { 2 }]))
            .collect();
        s.on_push(0, 1, 3, &mut rows);
        assert!(s.gate_ok(0, 3), "shard 0 gate opens independently");
        assert!(!s.gate_ok(1, 3), "shard 1 still pins its own gate");
    }

    #[test]
    fn membership_ops_fan_out_to_every_shard() {
        let p = params();
        let map = ShardMap::contiguous(7, 2);
        let mut s = ShardedServer::new(&p, 3, 2, ImportanceMetric::default(), map);
        s.deactivate_worker(2);
        assert_eq!(s.active_workers(), 2);
        assert!(!s.is_active(2));
        s.rejoin_worker(2, 5);
        assert!(s.is_active(2));
        assert_eq!(s.versions(0).global_min(), 0, "others still at 0");
        s.set_threshold(9);
        assert_eq!(s.threshold(), 9);
    }

    #[test]
    #[should_panic(expected = "not homed on")]
    fn pushing_a_foreign_row_panics() {
        let p = params();
        let map = ShardMap::contiguous(7, 2);
        let mut s = ShardedServer::new(&p, 1, 2, ImportanceMetric::default(), map);
        let foreign = s.map().rows_of(1)[0];
        let mut rows = vec![(RowId(foreign), vec![1.0, 1.0])];
        s.on_push(0, 0, 1, &mut rows);
    }
}
