//! The ROG parameter server (Algorithm 2), row-sharded.
//!
//! The server keeps, *per worker*, a copy of the accumulated averaged
//! gradients (`ḡ^r`): a push from any worker is averaged into every
//! worker's copy, and a pull to worker `r` drains only `r`'s copy. Every
//! worker therefore eventually applies exactly the same gradients, which
//! is why partial (row-granular) transmission does not break consistency
//! (paper Sec. III-B).
//!
//! All of that state is per *row*, which is exactly the unit a sharded
//! PS group needs: every [`RowId`] is homed on one shard, each shard
//! keeps its own pending copies and version storage, and RSP's two-level
//! bound composes per shard because `global_min` is already a per-row
//! property — a worker blocks only on the shard that owns the row
//! pinning its staleness, so one slow or faulted shard never stalls rows
//! homed elsewhere.
//!
//! [`ShardMap`] is the deterministic row→shard assignment (contiguous
//! ranges); [`ShardedServer`] owns one private `Shard` per shard, one
//! layout and one construction path for any shard count, and speaks
//! global row ids throughout. Finding a row is index arithmetic, never
//! a float operation, so shard count never perturbs values.
//!
//! The per-worker copies are held by *cohort*, not by worker: workers
//! whose copies of a row are bit-identical (they were last drained at
//! the same push of that row, and have been active since) read one
//! shared copy, and a push is averaged into each distinct copy once.
//! The copy is the same `f32` sum in the same order a private buffer
//! would hold, so every worker sees the bits the flat per-worker layout
//! gave; that layout survives as the store's test oracle.
//!
//! The plane serves both engines. The row engine pushes and pulls
//! ranked row subsets per shard; the model-granularity baselines
//! (BSP, SSP, ASP, FLOWN, DSSP, ABS) run one shard and push and drain
//! the whole model's rows each iteration, gating on its `min(V)` with
//! their own per-worker bounds.

use std::ops::Range;

use rog_compress::{Codec, CodecChoice, CodecState, OneBitCodec, RowCodec};
use rog_tensor::rng::DetRng;
use rog_tensor::{ops, Matrix};

use crate::{
    ImportanceMetric, ImportanceMode, RankScratch, RowBatch, RowId, RowPartition, RowVersionStore,
};

/// Deterministic assignment of global rows to parameter-server shards.
///
/// Invariants (property-tested in the facade suite):
/// - every row maps to exactly one shard;
/// - the shard row-sets are a disjoint cover of `0..n_rows`;
/// - with one shard, routing is the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `assign[row]` = owning shard.
    assign: Vec<usize>,
    /// `local[row]` = index of the row within its shard.
    local: Vec<usize>,
    /// `rows[s]` = global row ids homed on shard `s`, in local order.
    rows: Vec<Vec<usize>>,
}

impl ShardMap {
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
        let mut local = Vec::with_capacity(n_rows);
        let mut rows = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let len = base + usize::from(s < rem);
            rows.push((assign.len()..assign.len() + len).collect());
            assign.extend((0..len).map(|_| s));
            local.extend(0..len);
        }
        Self {
            assign,
            local,
            rows,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.rows.len()
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
}

/// What one pending copy of a row carries besides its values.
#[derive(Debug, Clone, Copy)]
struct CopyMeta {
    /// Freshest iteration contributing to the copy (0 = no pending
    /// content).
    fresh: u64,
    /// Workers reading the copy (0 = free).
    readers: u32,
    /// Whether pushes reach the copy: its readers are active. Readers
    /// of one copy always share activity; a free copy is not live.
    live: bool,
}

/// One row's pending copies: each distinct `ḡ^r` of the row once, with
/// the number of workers reading it.
///
/// Invariants: every copy with readers is their bit-exact flat copy;
/// `zero`, if set, is live, all `+0.0`, has `fresh == 0` and has taken
/// no push since it was made, so a drained active worker may join it;
/// an inactive worker reads a copy of its own.
#[derive(Debug, Clone)]
struct RowCopies {
    width: usize,
    /// Copy `c` occupies `values[c * width..(c + 1) * width]`.
    values: Vec<f32>,
    meta: Vec<CopyMeta>,
    /// Copies without readers, reused before the store grows.
    free: Vec<usize>,
    /// The row's zero copy, if it has one.
    zero: Option<usize>,
}

impl RowCopies {
    /// One zero copy read by all `n_workers`, with room for the copy
    /// the first drain splits off it.
    fn new(width: usize, n_workers: usize) -> Self {
        let room = n_workers.min(2);
        let mut values = Vec::with_capacity(room * width);
        values.resize(width, 0.0);
        let mut meta = Vec::with_capacity(room);
        meta.push(CopyMeta {
            fresh: 0,
            readers: u32::try_from(n_workers).expect("fewer than 2^32 workers"),
            live: true,
        });
        Self {
            width,
            values,
            meta,
            free: Vec::new(),
            zero: Some(0),
        }
    }

    fn span(&self, c: usize) -> Range<usize> {
        c * self.width..(c + 1) * self.width
    }

    /// A copy for one reader with `fresh == 0`, free or new; its values
    /// are the caller's to set.
    fn take(&mut self, live: bool) -> usize {
        let meta = CopyMeta {
            fresh: 0,
            readers: 1,
            live,
        };
        if let Some(c) = self.free.pop() {
            self.meta[c] = meta;
            return c;
        }
        self.meta.push(meta);
        self.values.resize(self.values.len() + self.width, 0.0);
        self.meta.len() - 1
    }

    fn leave(&mut self, c: usize) {
        let meta = &mut self.meta[c];
        meta.readers -= 1;
        if meta.readers == 0 {
            meta.live = false;
            self.free.push(c);
        }
    }

    /// Averages a push into every live copy, each once.
    fn push(&mut self, values: &[f32], inv: f32, n: u64) {
        let width = self.width;
        for (c, meta) in self.meta.iter_mut().enumerate() {
            if meta.live {
                let copy = &mut self.values[c * width..(c + 1) * width];
                for (d, v) in copy.iter_mut().zip(values) {
                    *d += v * inv;
                }
                meta.fresh = meta.fresh.max(n);
            }
        }
        self.zero = None;
    }

    /// Drains a reader of copy `c` and returns the zeroed copy it reads
    /// next: the row's zero copy if the reader is `live`, else one of
    /// its own (a departed worker never joins a live copy).
    fn drain(&mut self, c: usize, live: bool) -> usize {
        if live && self.zero == Some(c) {
            return c;
        }
        self.leave(c);
        if let Some(z) = self.zero.filter(|_| live) {
            self.meta[z].readers += 1;
            return z;
        }
        let z = self.take(live);
        let span = self.span(z);
        self.values[span].fill(0.0);
        if live {
            self.zero = Some(z);
        }
        z
    }

    /// A reader of the live copy `c` departs: returns the copy, now
    /// its own, that keeps its values and that pushes no longer reach.
    fn freeze(&mut self, c: usize) -> usize {
        if self.meta[c].readers == 1 {
            self.meta[c].live = false;
            if self.zero == Some(c) {
                self.zero = None;
            }
            return c;
        }
        self.meta[c].readers -= 1;
        let fresh = self.meta[c].fresh;
        let d = self.take(false);
        self.meta[d].fresh = fresh;
        let span = self.span(c);
        self.values.copy_within(span, d * self.width);
        d
    }
}

/// Algorithm 2's pending copies `ḡ^r` for the rows of one shard, held
/// by cohort ([`RowCopies`]).
#[derive(Debug, Clone)]
struct CohortStore {
    rows: Vec<RowCopies>,
    /// `slots[w * rows.len() + l]` = the copy of row `l` worker `w`
    /// reads.
    slots: Vec<u32>,
}

impl CohortStore {
    fn new(widths: &[usize], n_workers: usize) -> Self {
        Self {
            rows: widths
                .iter()
                .map(|&w| RowCopies::new(w, n_workers))
                .collect(),
            slots: vec![0; n_workers * widths.len()],
        }
    }

    fn width(&self, local: usize) -> usize {
        self.rows[local].width
    }

    /// Copies know their own liveness; `_active` is the flat oracle's.
    fn push(&mut self, local: usize, values: &[f32], inv: f32, n: u64, _active: &[bool]) {
        self.rows[local].push(values, inv, n);
    }

    /// Worker `w`'s pending values of row `local` and their freshness.
    fn get(&self, w: usize, local: usize) -> (&[f32], u64) {
        let row = &self.rows[local];
        let c = self.slots[w * self.rows.len() + local] as usize;
        (&row.values[row.span(c)], row.meta[c].fresh)
    }

    fn drain(&mut self, w: usize, local: usize, active: bool) {
        let slot = &mut self.slots[w * self.rows.len() + local];
        *slot = self.rows[local].drain(*slot as usize, active) as u32;
    }

    /// Worker `w`, active until now, departs.
    fn freeze(&mut self, w: usize) {
        let slots = &mut self.slots[w * self.rows.len()..][..self.rows.len()];
        for (row, slot) in self.rows.iter_mut().zip(slots) {
            *slot = row.freeze(*slot as usize) as u32;
        }
    }

    fn copies(&self) -> usize {
        self.rows.iter().map(|r| r.meta.len() - r.free.len()).sum()
    }
}

/// The pending-copy store of a shard; tests can swap in the flat
/// per-worker store the cohort store replaced, as its oracle.
#[derive(Debug, Clone)]
enum Pending {
    Cohort(CohortStore),
    #[cfg(test)]
    Flat(tests::FlatStore),
}

/// Runs `$body` with `$s` bound to whichever store `$pending` holds.
macro_rules! with_store {
    ($pending:expr, $s:ident => $body:expr) => {
        match $pending {
            Pending::Cohort($s) => $body,
            #[cfg(test)]
            Pending::Flat($s) => $body,
        }
    };
}

impl Pending {
    fn width(&self, local: usize) -> usize {
        with_store!(self, s => s.width(local))
    }

    fn push(&mut self, local: usize, values: &[f32], inv: f32, n: u64, active: &[bool]) {
        with_store!(self, s => s.push(local, values, inv, n, active))
    }

    fn get(&self, w: usize, local: usize) -> (&[f32], u64) {
        with_store!(self, s => s.get(w, local))
    }

    /// Zeroes worker `w`'s copy of row `local` (`active`: whether `w`
    /// is a member).
    fn drain(&mut self, w: usize, local: usize, active: bool) {
        with_store!(self, s => s.drain(w, local, active))
    }

    fn freeze(&mut self, w: usize) {
        with_store!(self, s => s.freeze(w))
    }

    fn copies(&self) -> usize {
        with_store!(self, s => s.copies())
    }
}

/// What Algorithm 2 keeps for the rows homed on one shard, in
/// shard-local order.
#[derive(Debug, Clone)]
struct Shard {
    /// Averaged gradients pending for each worker (`ḡ^r`), with the
    /// freshest iteration contributing to each row.
    pending: Pending,
    /// `v_i^r` version storage.
    versions: RowVersionStore,
    /// Per-destination-worker compression residuals for pulls.
    states: Vec<CodecState>,
}

impl Shard {
    /// Zeroed state for rows of the given widths.
    fn new(widths: &[usize], n_workers: usize) -> Self {
        Self {
            pending: Pending::Cohort(CohortStore::new(widths, n_workers)),
            versions: RowVersionStore::new(n_workers, widths.len()),
            states: vec![CodecState::new(widths, 0); n_workers],
        }
    }
}

/// The parameter-server plane: Algorithm 2's state for every row,
/// grouped by the shard the [`ShardMap`] homes it on.
///
/// Each shard has its own pending copies, error feedback and
/// [`RowVersionStore`] (and so its own RSP gate); membership and each
/// link's codec are uniform across shards and held once. The staleness
/// bounds are [`crate::ServerRole`]'s. All methods speak global
/// [`RowId`]s. It is the one server state of every strategy: both
/// engines drive it through [`crate::ServerRole`].
#[derive(Debug, Clone)]
pub struct ShardedServer {
    map: ShardMap,
    shards: Vec<Shard>,
    threshold: u32,
    importance: ImportanceMetric,
    /// Membership mask: pushes are averaged over (and fanned out to)
    /// active workers only.
    active: Vec<bool>,
    /// Per-destination-worker pull codec (the per-link auto controller
    /// may switch individual links independently).
    codecs: Vec<Codec>,
    /// Count of NaN/Inf gradient values zeroed at ingest (a corrupted
    /// or diverging worker must not poison every peer's pending copy).
    nonfinite_dropped: u64,
    /// Ranking scratch, reused across pull plans.
    scratch: RankScratch,
    /// Per-row mean-|ḡ| buffer, reused across pull plans.
    mean_abs_buf: Vec<f32>,
    /// Per-row freshness buffer, reused across pull plans.
    fresh_buf: Vec<u64>,
    /// Importance order buffer, reused across pull plans.
    ranked_buf: Vec<RowId>,
}

impl ShardedServer {
    /// Creates the plane for `n_workers` sharing a model shaped like
    /// `params`.
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
        assert!(n_workers > 0, "need at least one worker");
        let partition = RowPartition::of_params(params);
        assert_eq!(
            map.n_rows(),
            partition.n_rows(),
            "shard map covers {} rows but the model has {}",
            map.n_rows(),
            partition.n_rows()
        );
        let shards = (0..map.n_shards())
            .map(|s| {
                assert!(
                    map.shard_rows(s) > 0,
                    "shard {s} owns no rows ({} rows over {} shards)",
                    map.n_rows(),
                    map.n_shards()
                );
                let widths: Vec<usize> = map
                    .rows_of(s)
                    .iter()
                    .map(|&r| partition.width(RowId(r)))
                    .collect();
                Shard::new(&widths, n_workers)
            })
            .collect();
        Self {
            map,
            shards,
            threshold,
            importance,
            active: vec![true; n_workers],
            codecs: vec![Codec::default(); n_workers],
            nonfinite_dropped: 0,
            scratch: RankScratch::default(),
            mean_abs_buf: Vec::new(),
            fresh_buf: Vec::new(),
            ranked_buf: Vec::new(),
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
        self.active.len()
    }

    /// The threshold the plane was built with: [`Self::gate_ok`]'s bound
    /// and every worker's first bound in [`crate::ServerRole`], which
    /// owns the bounds from then on.
    pub(crate) fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Configures the pull codec of every link from `choice`. Each
    /// shard's stochastic streams come from an independent fork of
    /// `seed`, each destination worker's from a fork of that. Call
    /// before training starts — it zeroes the pull residuals.
    pub fn configure_codec(&mut self, choice: CodecChoice, seed: u64) {
        let base = DetRng::new(seed);
        self.codecs.fill(choice.build());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let streams = base.fork(i as u64);
            for (w, state) in shard.states.iter_mut().enumerate() {
                state.reseed(streams.fork(w as u64).seed());
            }
        }
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

    /// The pull codec of the link to `worker`.
    pub(crate) fn codec(&self, worker: usize) -> &Codec {
        &self.codecs[worker]
    }

    /// Number of NaN/Inf gradient values zeroed at push ingest so far.
    pub fn nonfinite_dropped(&self) -> u64 {
        self.nonfinite_dropped
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
        let was_active = std::mem::replace(&mut self.active[worker], false);
        for shard in &mut self.shards {
            if was_active {
                shard.pending.freeze(worker);
            }
            shard.versions.set_active(worker, false);
        }
    }

    /// Readmits `worker` after a cold resync at iteration `iter`: its
    /// stale pending copy and pull residuals are discarded (the model it
    /// adopted already reflects those gradients), and its version rows
    /// are fast-forwarded to `iter`, or to a shard's `min(V)` where the
    /// survivors moved past `iter` meanwhile: a rejoin never lowers
    /// `min(V)`, so no survivor's next push lands beyond its bound.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn rejoin_worker(&mut self, worker: usize, iter: u64) {
        self.active[worker] = true;
        for shard in &mut self.shards {
            for local in 0..shard.versions.n_rows() {
                shard.pending.drain(worker, local, true);
            }
            shard.states[worker].reset();
            let at = iter.max(shard.versions.global_min());
            shard.versions.stamp_worker(worker, at);
            shard.versions.set_active(worker, true);
        }
    }

    /// The version storage of one shard (shared; `min(V)` and gate
    /// queries are `&self` reads on the sparse store).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn versions(&self, shard: usize) -> &RowVersionStore {
        &self.shards[shard].versions
    }

    /// Estimated resident bytes of every shard's version storage (see
    /// [`RowVersionStore::memory_bytes`]).
    pub fn version_store_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.versions.memory_bytes()).sum()
    }

    /// Distinct pending copies held over every row of every shard:
    /// between one per row (every worker drained at the same pushes)
    /// and `n_workers` per row.
    pub fn pending_copies(&self) -> usize {
        self.shards.iter().map(|s| s.pending.copies()).sum()
    }

    /// Receives row gradients of iteration `n` that worker `from`
    /// pushed to `shard`: averages them into every *active* worker's
    /// pending copy and updates the version storage (Algorithm 2 lines
    /// 2–6). Under full membership this is the paper's `1/n_workers`
    /// averaging exactly; when members have departed, the divisor is
    /// the active count, so the expected gradient magnitude is
    /// preserved for the survivors. The cost is one add per distinct
    /// copy of each row, not per worker.
    ///
    /// NaN/Inf values are zeroed in `rows` before they are added (and
    /// counted in [`ShardedServer::nonfinite_dropped`]): on a lossy link
    /// a corrupted payload that slipped past the CRC, or a diverging
    /// worker, must not poison every active worker's pending copy.
    ///
    /// # Panics
    ///
    /// Panics if `from` or a row is out of range, a row is not homed on
    /// `shard`, or a row payload has the wrong width.
    pub fn on_push(&mut self, shard: usize, from: usize, n: u64, rows: &mut RowBatch) {
        assert!(from < self.n_workers(), "worker out of range");
        let inv = 1.0 / self.active_workers().max(1) as f32;
        let state = &mut self.shards[shard];
        for (id, values) in rows.iter_mut() {
            assert_eq!(self.map.shard_of(id), shard, "{id} not homed on {shard}");
            let local = self.map.to_local(id).0;
            let width = state.pending.width(local);
            assert_eq!(values.len(), width, "payload width mismatch for {id}");
            for v in values.iter_mut().filter(|v| !v.is_finite()) {
                *v = 0.0;
                self.nonfinite_dropped += 1;
            }
            state.pending.push(local, values, inv, n, &self.active);
            state.versions.record_push(from, local, n);
        }
    }

    /// Per-shard RSP gate (Algorithm 2 lines 7–9) at the threshold the
    /// plane was built with: may a worker whose push to `shard` carried
    /// iteration `pushed_iter` be served that shard's pull now? No
    /// driver asks it: [`crate::ServerRole::retry`] gates each worker at
    /// the bound the role holds for it. The `benchmark/` package's gate
    /// cell times it.
    pub fn gate_ok(&self, shard: usize, pushed_iter: u64) -> bool {
        self.shards[shard]
            .versions
            .gate_ok(pushed_iter, self.threshold)
    }

    /// Writes into `out` the rows of `shard` with pending content for
    /// `worker`, ranked by the server-mode importance metric (fresh,
    /// large-magnitude rows first). Allocation-free in steady state.
    pub fn plan_pull_into(&mut self, shard: usize, worker: usize, out: &mut Vec<RowId>) {
        let pending = &self.shards[shard].pending;
        let globals = self.map.rows_of(shard);
        self.mean_abs_buf.clear();
        self.fresh_buf.clear();
        for local in 0..globals.len() {
            let (values, fresh) = pending.get(worker, local);
            self.mean_abs_buf.push(ops::mean_abs(values));
            self.fresh_buf.push(fresh);
        }
        self.importance.rank_into(
            ImportanceMode::Server,
            &self.mean_abs_buf,
            &self.fresh_buf,
            &mut self.scratch,
            &mut self.ranked_buf,
        );
        let fresh = &self.fresh_buf;
        out.clear();
        out.extend(
            self.ranked_buf
                .iter()
                .filter(|id| fresh[id.0] > 0)
                .map(|id| RowId(globals[id.0])),
        );
    }

    /// Width-only payload size of one row on the wire: the one-bit
    /// bound. Its one caller is live `serve`'s push accounting (the
    /// socket path runs one-bit only); the resync sizes its model with
    /// `OneBitCodec` itself (`engine/common.rs`).
    pub fn payload_bytes(&self, id: RowId) -> u64 {
        let state = &self.shards[self.map.shard_of(id)];
        OneBitCodec.payload_bytes(state.pending.width(self.map.to_local(id).0))
    }

    /// Payload size of one row on the link to `worker`, as that link's
    /// codec would frame it right now (content-sized codecs account the
    /// pending gradient plus the link's residual).
    ///
    /// # Panics
    ///
    /// Panics if `worker` or `id` is out of range.
    pub fn payload_bytes_for(&self, worker: usize, id: RowId) -> u64 {
        let state = &self.shards[self.map.shard_of(id)];
        let local = self.map.to_local(id).0;
        let (values, _) = state.pending.get(worker, local);
        state.states[worker].planned_payload_bytes(&self.codecs[worker], local, values)
    }

    /// [`ShardedServer::commit_pull_into`] into a fresh batch.
    pub fn commit_pull(&mut self, shard: usize, worker: usize, rows: &[RowId]) -> RowBatch {
        let mut out = RowBatch::default();
        self.commit_pull_into(shard, worker, rows, &mut out);
        out
    }

    /// Commits a pull of `rows` from `shard`: compresses
    /// (per-destination error feedback), drains the delivered rows from
    /// `worker`'s pending copy (Algorithm 2 lines 12–13), and replaces
    /// `out`'s rows with the values the worker receives, in order.
    pub fn commit_pull_into(
        &mut self,
        shard: usize,
        worker: usize,
        rows: &[RowId],
        out: &mut RowBatch,
    ) {
        let state = &mut self.shards[shard];
        let (map, codec, active) = (&self.map, &self.codecs[worker], self.active[worker]);
        let values = rows
            .iter()
            .map(|&id| state.pending.width(map.to_local(id).0));
        out.clear();
        out.reserve(rows.len(), values.sum());
        for &id in rows {
            let local = map.to_local(id).0;
            let (row, _) = state.pending.get(worker, local);
            let restored = out.push_row(id, row.len());
            state.states[worker].restore_into(codec, local, row, restored);
            state.pending.drain(worker, local, active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat store the cohort store replaced, kept as its oracle:
    /// one full copy of the shard's rows per worker.
    #[derive(Debug, Clone)]
    pub(super) struct FlatStore {
        /// Row `l` occupies `offsets[l]..offsets[l + 1]` of a copy.
        offsets: Vec<usize>,
        /// `pending[r]` = worker `r`'s copy, the rows back to back.
        pending: Vec<Vec<f32>>,
        /// `fresh[r][l]` = freshest iteration contributing to row `l`
        /// of `r`'s copy (0 = no pending content).
        fresh: Vec<Vec<u64>>,
    }

    impl FlatStore {
        fn new(widths: &[usize], n_workers: usize) -> Self {
            let mut offsets = vec![0];
            for w in widths {
                offsets.push(offsets[offsets.len() - 1] + w);
            }
            Self {
                pending: vec![vec![0.0; offsets[widths.len()]]; n_workers],
                fresh: vec![vec![0; widths.len()]; n_workers],
                offsets,
            }
        }

        fn span(&self, local: usize) -> Range<usize> {
            self.offsets[local]..self.offsets[local + 1]
        }

        pub(super) fn width(&self, local: usize) -> usize {
            self.span(local).len()
        }

        pub(super) fn push(
            &mut self,
            local: usize,
            values: &[f32],
            inv: f32,
            n: u64,
            active: &[bool],
        ) {
            let span = self.span(local);
            for (r, pending) in self.pending.iter_mut().enumerate() {
                if !active[r] {
                    continue;
                }
                for (d, v) in pending[span.clone()].iter_mut().zip(values) {
                    *d += v * inv;
                }
                let fresh = &mut self.fresh[r][local];
                *fresh = (*fresh).max(n);
            }
        }

        pub(super) fn get(&self, w: usize, local: usize) -> (&[f32], u64) {
            (&self.pending[w][self.span(local)], self.fresh[w][local])
        }

        pub(super) fn drain(&mut self, w: usize, local: usize, _active: bool) {
            let span = self.span(local);
            self.pending[w][span].fill(0.0);
            self.fresh[w][local] = 0;
        }

        pub(super) fn freeze(&mut self, _w: usize) {}

        pub(super) fn copies(&self) -> usize {
            self.fresh.iter().map(Vec::len).sum()
        }
    }

    impl ShardedServer {
        /// The same (untouched) plane over the flat store.
        fn with_flat_store(mut self) -> Self {
            let n_workers = self.n_workers();
            for shard in &mut self.shards {
                let widths: Vec<usize> = (0..shard.versions.n_rows())
                    .map(|l| shard.pending.width(l))
                    .collect();
                shard.pending = Pending::Flat(FlatStore::new(&widths, n_workers));
            }
            self
        }

        /// `worker`'s pending copy of `shard`'s rows, back to back.
        fn pending(&self, shard: usize, worker: usize) -> Vec<f32> {
            let pending = &self.shards[shard].pending;
            (0..self.map.shard_rows(shard))
                .flat_map(|l| pending.get(worker, l).0.iter().copied())
                .collect()
        }
    }

    fn params() -> Vec<Matrix> {
        vec![Matrix::zeros(4, 3), Matrix::zeros(3, 2)]
    }

    /// A plane over [`params`] (7 rows: four of width 3, three of 2).
    fn plane(n_workers: usize, threshold: u32, n_shards: usize) -> ShardedServer {
        let map = ShardMap::contiguous(7, n_shards);
        ShardedServer::new(
            &params(),
            n_workers,
            threshold,
            ImportanceMetric::default(),
            map,
        )
    }

    fn plan_pull(s: &mut ShardedServer, shard: usize, worker: usize) -> Vec<RowId> {
        let mut out = Vec::new();
        s.plan_pull_into(shard, worker, &mut out);
        out
    }

    fn batch<const N: usize>(rows: [(RowId, Vec<f32>); N]) -> RowBatch {
        rows.into_iter().collect()
    }

    /// Every row of the model carrying `1.0`s.
    fn all_rows() -> RowBatch {
        (0..7)
            .map(|r| (RowId(r), vec![1.0; if r < 4 { 3 } else { 2 }]))
            .collect()
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
        assert_eq!(m.n_shards(), 1);
        for r in 0..9 {
            assert_eq!(m.shard_of(RowId(r)), 0);
            assert_eq!(m.to_local(RowId(r)), RowId(r));
            assert_eq!(m.to_global(0, RowId(r)), RowId(r));
        }
    }

    #[test]
    fn nonfinite_gradients_are_zeroed_at_ingest() {
        let mut s = plane(2, 4, 1);
        s.on_push(
            0,
            0,
            1,
            &mut batch([
                (RowId(0), vec![1.0, f32::NAN, f32::INFINITY]),
                (RowId(1), vec![f32::NEG_INFINITY, 2.0, 3.0]),
            ]),
        );
        assert_eq!(s.nonfinite_dropped(), 3);
        // The finite values landed (averaged by 1/2), the poison did not.
        assert_eq!(s.pending(0, 1)[..6], [0.5, 0.0, 0.0, 0.0, 1.0, 1.5]);
        let payloads = s.commit_pull(0, 1, &[RowId(0), RowId(1)]);
        for (_, values) in payloads.iter() {
            assert!(values.iter().all(|v| v.is_finite()), "{values:?}");
        }
        // A clean push leaves the counter alone.
        s.on_push(0, 1, 1, &mut batch([(RowId(0), vec![1.0, 1.0, 1.0])]));
        assert_eq!(s.nonfinite_dropped(), 3);
    }

    #[test]
    fn push_is_averaged_into_every_copy() {
        let mut s = plane(4, 4, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(0), vec![4.0, 8.0, 12.0])]));
        for w in 0..4 {
            assert_eq!(plan_pull(&mut s, 0, w), vec![RowId(0)]);
        }
        // The one-bit code keeps the mean magnitude: (1 + 2 + 3) / 3.
        let out = s.commit_pull(0, 1, &[RowId(0)]);
        let mean: f32 = out.iter().next().unwrap().1.iter().sum::<f32>() / 3.0;
        assert!((mean - 2.0).abs() < 0.8, "mean {mean}");
    }

    #[test]
    fn pull_drains_only_that_workers_copy() {
        let mut s = plane(2, 4, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(1), vec![2.0, 2.0, 2.0])]));
        let _ = s.commit_pull(0, 0, &[RowId(1)]);
        assert!(plan_pull(&mut s, 0, 0).is_empty());
        assert_eq!(plan_pull(&mut s, 0, 1), vec![RowId(1)]);
    }

    #[test]
    fn every_worker_eventually_gets_the_same_totals() {
        // Multiple pushes from different workers; drain both copies and
        // compare totals (modulo bounded compression residual).
        let mut s = plane(2, 4, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(0), vec![1.0, 2.0, 3.0])]));
        s.on_push(0, 1, 1, &mut batch([(RowId(0), vec![3.0, 2.0, 1.0])]));
        let a = s.commit_pull(0, 0, &[RowId(0)]);
        let b = s.commit_pull(0, 1, &[RowId(0)]);
        for (x, y) in a
            .iter()
            .next()
            .unwrap()
            .1
            .iter()
            .zip(b.iter().next().unwrap().1)
        {
            assert!((x - y).abs() < 1.0, "copies diverge: {x} vs {y}");
        }
    }

    #[test]
    fn gate_follows_version_storage() {
        let mut s = plane(2, 2, 1);
        // Worker 0 pushes all rows at iterations 1..=3; worker 1 stays
        // at 0.
        for it in 1..=3u64 {
            s.on_push(0, 0, it, &mut all_rows());
        }
        // min(V) = 0 (worker 1), threshold 2: a push at iter 3 leads too
        // far.
        assert!(!s.gate_ok(0, 3));
        // Worker 1 catches up.
        s.on_push(0, 1, 3, &mut all_rows());
        assert!(s.gate_ok(0, 3));
    }

    #[test]
    fn plan_pull_prefers_fresh_rows() {
        let mut s = plane(1, 8, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(0), vec![0.5, 0.5, 0.5])]));
        s.on_push(0, 0, 5, &mut batch([(RowId(1), vec![0.5, 0.5, 0.5])]));
        let plan = plan_pull(&mut s, 0, 0);
        assert_eq!(plan[0], RowId(1), "fresher row first: {plan:?}");
    }

    #[test]
    #[should_panic(expected = "payload width mismatch")]
    fn wrong_width_payload_panics() {
        let mut s = plane(1, 4, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(0), vec![1.0])]));
    }

    #[test]
    fn departed_worker_stops_gating_and_accumulating() {
        let mut s = plane(3, 2, 1);
        // Workers 0 and 1 reach iteration 5; worker 2 pushed once at 1.
        for it in 1..=5u64 {
            s.on_push(0, 0, it, &mut all_rows());
            s.on_push(0, 1, it, &mut all_rows());
        }
        s.on_push(0, 2, 1, &mut all_rows());
        assert!(!s.gate_ok(0, 5), "straggler pins min(V) = 1");
        s.deactivate_worker(2);
        assert_eq!(s.active_workers(), 2);
        assert!(!s.is_active(2));
        assert!(s.gate_ok(0, 5), "gate recomputed over the active set");
        // Pushes now average over 2 and skip the departed copy.
        let copies = |s: &ShardedServer| (0..3).map(|w| s.pending(0, w)).collect::<Vec<_>>();
        let before = copies(&s);
        s.on_push(0, 0, 6, &mut batch([(RowId(0), vec![2.0, 2.0, 2.0])]));
        let after = copies(&s);
        assert_eq!(after[2], before[2], "nothing for the departed");
        assert!((after[1][0] - before[1][0] - 1.0).abs() < 1e-5, "2.0 / 2");
        s.deactivate_worker(2); // idempotent
        assert_eq!(s.active_workers(), 2);
    }

    #[test]
    fn rejoin_clears_pending_state_and_fast_forwards_versions() {
        let mut s = plane(2, 2, 1);
        s.on_push(0, 1, 1, &mut all_rows());
        s.deactivate_worker(1);
        for it in 2..=9u64 {
            s.on_push(0, 0, it, &mut all_rows());
        }
        s.rejoin_worker(1, 9);
        assert!(s.is_active(1));
        assert_eq!(s.active_workers(), 2);
        assert!(plan_pull(&mut s, 0, 1).is_empty(), "stale copy discarded");
        assert!(s.pending(0, 1).iter().all(|&v| v == 0.0));
        // Versions fast-forwarded: the rejoiner does not re-pin the gate.
        assert!(s.gate_ok(0, 9));
        assert_eq!(s.versions(0).global_min(), 9);
    }

    #[test]
    fn full_membership_averaging_matches_static_divisor() {
        // The zero-cost invariant: with nobody departed, on_push must be
        // arithmetically identical to the pre-membership 1/n averaging.
        let mut s = plane(4, 4, 1);
        s.on_push(0, 0, 1, &mut batch([(RowId(0), vec![4.0, 8.0, 12.0])]));
        assert_eq!(s.pending(0, 3)[..3], [1.0, 2.0, 3.0]);
    }

    #[test]
    fn per_shard_gate_is_independent() {
        let mut s = plane(2, 1, 2);
        let shard0 = || -> RowBatch { all_rows().iter().filter(|(id, _)| id.0 < 4).collect() };
        // Worker 0 pushes only shard-0 rows at iteration 3; worker 1 has
        // pushed nothing anywhere.
        s.on_push(0, 0, 3, &mut shard0());
        assert!(!s.gate_ok(0, 3), "shard 0 gated by worker 1's rows");
        // Worker 1 catches up on shard 0 only: shard 0 opens while shard
        // 1 still reflects nothing (gate at iter 3 leads by 3 > 1).
        s.on_push(0, 1, 3, &mut shard0());
        assert!(s.gate_ok(0, 3), "shard 0 gate opens independently");
        assert!(!s.gate_ok(1, 3), "shard 1 still pins its own gate");
    }

    #[test]
    fn membership_ops_reach_every_shard() {
        let mut s = plane(3, 2, 2);
        s.deactivate_worker(2);
        assert_eq!(s.active_workers(), 2);
        assert!(!s.is_active(2));
        assert!((0..2).all(|sh| !s.versions(sh).is_active(2)));
        s.rejoin_worker(2, 5);
        assert!(s.is_active(2));
        assert!((0..2).all(|sh| s.versions(sh).is_active(2)));
        assert_eq!(s.versions(0).global_min(), 0, "others still at 0");
    }

    #[test]
    #[should_panic(expected = "not homed on")]
    fn pushing_a_foreign_row_panics() {
        let mut s = plane(1, 2, 2);
        let foreign = s.map().rows_of(1)[0];
        s.on_push(0, 0, 1, &mut batch([(RowId(foreign), vec![1.0, 1.0])]));
    }

    mod shard_count_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random history, applied to two planes alike.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// `from` pushes the rows selected by `mask` at its next
            /// iteration; `salt` varies the values.
            Push {
                from: usize,
                mask: u64,
                salt: u32,
            },
            PlanPull {
                w: usize,
            },
            /// `w` pulls the first `take` rows of its current plans.
            CommitPull {
                w: usize,
                take: usize,
            },
            /// `w` pulls the rows selected by `mask`, pending or not.
            CommitRows {
                w: usize,
                mask: u64,
            },
            Deactivate {
                w: usize,
            },
            Rejoin {
                w: usize,
                iter: u64,
            },
            SetThreshold {
                t: u32,
            },
            SetCodec {
                w: usize,
                codec: CodecChoice,
            },
        }

        /// Pushes dominate, as in a real run; membership, threshold and
        /// codec moves are the tail. `kind` is drawn from `0..14`.
        fn decode((kind, w, x, salt): (usize, usize, u64, u32), n_workers: usize) -> Op {
            let w = w % n_workers;
            // Deterministic rungs only: a stochastic one draws from a
            // stream per (shard, worker), which shard count does move.
            let rungs = [CodecChoice::OneBit, CodecChoice::Sparse];
            match kind {
                0..=4 => Op::Push {
                    from: w,
                    mask: x,
                    salt,
                },
                5 => Op::PlanPull { w },
                6 | 7 => Op::CommitPull {
                    w,
                    take: x as usize % 8,
                },
                8 => Op::Deactivate { w },
                9 => Op::Rejoin { w, iter: x % 40 },
                10 => Op::SetThreshold { t: salt % 6 },
                11 => Op::SetCodec {
                    w,
                    codec: rungs[x as usize % rungs.len()],
                },
                _ => Op::CommitRows { w, mask: x },
            }
        }

        /// The rows of `rows` selected by `mask`.
        fn selected(rows: &[usize], mask: u64) -> Vec<RowId> {
            rows.iter()
                .filter(|&&r| mask >> (r % 64) & 1 == 1)
                .map(|&r| RowId(r))
                .collect()
        }

        /// A push of the rows of `rows` selected by `mask`.
        fn push_rows(widths: &[usize], rows: &[usize], mask: u64, salt: u32) -> RowBatch {
            selected(rows, mask)
                .into_iter()
                .map(|id| {
                    let row: Vec<f32> = (0..widths[id.0]).map(|c| value(id.0, c, salt)).collect();
                    (id, row)
                })
                .collect()
        }

        /// Pulled rows as bits, so NaN and `-0.0` compare exactly.
        fn bits(pulled: &RowBatch) -> Vec<(RowId, Vec<u32>)> {
            pulled
                .iter()
                .map(|(id, v)| (id, v.iter().map(|f| f.to_bits()).collect()))
                .collect()
        }

        /// A deterministic gradient value with the odd NaN/Inf in it.
        fn value(row: usize, col: usize, salt: u32) -> f32 {
            let h =
                (row as u32 * 31 + col as u32 * 7).wrapping_add(salt.wrapping_mul(2_654_435_761));
            match h % 23 {
                0 => f32::NAN,
                1 => f32::NEG_INFINITY,
                _ => (h % 2001) as f32 / 500.0 - 2.0,
            }
        }

        /// The 1-shard plane's pending state for `w`, restricted to the
        /// rows homed on shard `s` of `sharded` and ranked on its own —
        /// Algorithm 3 normalises per ranking call, so this (not a filter
        /// of the whole-model plan) is the order shard `s` must produce.
        fn filtered_plan(
            one: &ShardedServer,
            sharded: &ShardedServer,
            s: usize,
            w: usize,
        ) -> Vec<RowId> {
            let pending = &one.shards[0].pending;
            let globals = sharded.map().rows_of(s);
            let mean_abs: Vec<f32> = globals
                .iter()
                .map(|&r| ops::mean_abs(pending.get(w, r).0))
                .collect();
            let fresh: Vec<u64> = globals.iter().map(|&r| pending.get(w, r).1).collect();
            let (m, mut keys, mut out) =
                (ImportanceMetric::default(), RankScratch::default(), vec![]);
            m.rank_into(
                ImportanceMode::Server,
                &mean_abs,
                &fresh,
                &mut keys,
                &mut out,
            );
            out.into_iter()
                .filter(|l| fresh[l.0] > 0)
                .map(|l| RowId(globals[l.0]))
                .collect()
        }

        proptest! {
            /// Shard count never perturbs values: any history leaves a
            /// k-shard plane with bit-identical pulled values, the same
            /// pull plans, the same ingest fault count and the same
            /// gate as the 1-shard plane.
            #[test]
            fn k_shards_match_one_shard_on_any_history(
                shapes in proptest::collection::vec((1..4usize, 1..6usize), 2..5),
                n_workers in 1..7usize,
                raw in proptest::collection::vec((0..14usize, 0..6usize, 0..u64::MAX, 0..u32::MAX), 1..60),
            ) {
                let params: Vec<Matrix> = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
                let widths = RowPartition::of_params(&params).widths().to_vec();
                let n_rows = widths.len();
                let all: Vec<usize> = (0..n_rows).collect();
                for k in [2, 3, 5].into_iter().filter(|&k| k <= n_rows) {
                    let build = |k| ShardedServer::new(
                        &params,
                        n_workers,
                        2,
                        ImportanceMetric::default(),
                        ShardMap::contiguous(n_rows, k),
                    );
                    let (mut one, mut many) = (build(1), build(k));
                    // The bound lives in `ServerRole`; the test holds it.
                    let mut t = 2;
                    let mut iters = vec![0u64; n_workers];
                    for &draw in &raw {
                        match decode(draw, n_workers) {
                            Op::Push { from, mask, salt } => {
                                iters[from] += 1 + u64::from(salt % 3);
                                let rows = push_rows(&widths, &all, mask, salt);
                                one.on_push(0, from, iters[from], &mut rows.clone());
                                for s in 0..k {
                                    let mut leg: RowBatch = rows
                                        .iter()
                                        .filter(|(id, _)| many.map().shard_of(*id) == s)
                                        .collect();
                                    many.on_push(s, from, iters[from], &mut leg);
                                }
                            }
                            Op::PlanPull { w } => {
                                let whole = plan_pull(&mut one, 0, w);
                                let mut covered = 0;
                                for s in 0..k {
                                    let plan = plan_pull(&mut many, s, w);
                                    prop_assert_eq!(&plan, &filtered_plan(&one, &many, s, w));
                                    covered += plan.len();
                                    prop_assert!(plan.iter().all(|id| whole.contains(id)));
                                }
                                prop_assert_eq!(covered, whole.len());
                            }
                            Op::CommitPull { w, take } => {
                                for s in 0..k {
                                    let mut plan = plan_pull(&mut many, s, w);
                                    plan.truncate(take);
                                    let got = many.commit_pull(s, w, &plan);
                                    prop_assert_eq!(bits(&got), bits(&one.commit_pull(0, w, &plan)));
                                }
                            }
                            Op::CommitRows { w, mask } => {
                                for s in 0..k {
                                    let rows = selected(many.map().rows_of(s), mask);
                                    let got = many.commit_pull(s, w, &rows);
                                    prop_assert_eq!(bits(&got), bits(&one.commit_pull(0, w, &rows)));
                                }
                            }
                            Op::Deactivate { w } => {
                                one.deactivate_worker(w);
                                many.deactivate_worker(w);
                            }
                            Op::Rejoin { w, iter } => {
                                one.rejoin_worker(w, iter);
                                many.rejoin_worker(w, iter);
                            }
                            Op::SetThreshold { t: moved } => t = moved,
                            Op::SetCodec { w, codec } => {
                                one.set_codec(w, codec.build());
                                many.set_codec(w, codec.build());
                            }
                        }
                        prop_assert_eq!(one.nonfinite_dropped(), many.nonfinite_dropped());
                        prop_assert_eq!(one.active_workers(), many.active_workers());
                        for pushed in 0..12 {
                            let all = (0..k).all(|s| many.versions(s).gate_ok(pushed, t));
                            let whole = one.versions(0).gate_ok(pushed, t);
                            prop_assert_eq!(all, whole, "gate at {}", pushed);
                        }
                    }
                }
            }

            /// The cohort store is the flat store it replaced, bit for
            /// bit: after every step of any history — pushes with
            /// NaN/±Inf in them, plans, partial commits (to departed
            /// workers too), departures, rejoins, threshold moves and
            /// codec switches (sparse sizing reads the pending copy) —
            /// both planes hold the same pending bits and freshness for
            /// every worker, plan the same pulls, size every row alike,
            /// pull the same bits and agree on faults and gates.
            #[test]
            fn cohort_store_matches_the_flat_store(
                shapes in proptest::collection::vec((1..4usize, 1..6usize), 1..5),
                n_workers in 1..10usize,
                n_shards in 1..4usize,
                raw in proptest::collection::vec((0..14usize, 0..9usize, 0..u64::MAX, 0..u32::MAX), 1..80),
            ) {
                let params: Vec<Matrix> = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
                let widths = RowPartition::of_params(&params).widths().to_vec();
                let n_rows = widths.len();
                let k = n_shards.min(n_rows);
                let build = || {
                    let map = ShardMap::contiguous(n_rows, k);
                    let mut s = ShardedServer::new(&params, n_workers, 2, ImportanceMetric::default(), map);
                    s.configure_codec(CodecChoice::OneBit, 5);
                    s
                };
                let (mut cohort, mut flat) = (build(), build().with_flat_store());
                let mut t = 2;
                let mut iters = vec![0u64; n_workers];
                for &draw in &raw {
                    match decode(draw, n_workers) {
                        Op::Push { from, mask, salt } => {
                            iters[from] += 1 + u64::from(salt % 3);
                            for s in 0..k {
                                let leg = push_rows(&widths, cohort.map().rows_of(s), mask, salt);
                                cohort.on_push(s, from, iters[from], &mut leg.clone());
                                flat.on_push(s, from, iters[from], &mut leg.clone());
                            }
                        }
                        // Every plan is compared after every step.
                        Op::PlanPull { .. } => {}
                        Op::CommitPull { w, take } => {
                            for s in 0..k {
                                let mut plan = plan_pull(&mut flat, s, w);
                                plan.truncate(take);
                                let got = cohort.commit_pull(s, w, &plan);
                                prop_assert_eq!(bits(&got), bits(&flat.commit_pull(s, w, &plan)));
                            }
                        }
                        Op::CommitRows { w, mask } => {
                            for s in 0..k {
                                let rows = selected(cohort.map().rows_of(s), mask);
                                let got = cohort.commit_pull(s, w, &rows);
                                prop_assert_eq!(bits(&got), bits(&flat.commit_pull(s, w, &rows)));
                            }
                        }
                        Op::Deactivate { w } => {
                            cohort.deactivate_worker(w);
                            flat.deactivate_worker(w);
                        }
                        Op::Rejoin { w, iter } => {
                            cohort.rejoin_worker(w, iter);
                            flat.rejoin_worker(w, iter);
                        }
                        Op::SetThreshold { t: moved } => t = moved,
                        Op::SetCodec { w, codec } => {
                            cohort.set_codec(w, codec.build());
                            flat.set_codec(w, codec.build());
                        }
                    }
                    prop_assert_eq!(cohort.nonfinite_dropped(), flat.nonfinite_dropped());
                    for s in 0..k {
                        for pushed in 0..12 {
                            let gate = |p: &ShardedServer| p.versions(s).gate_ok(pushed, t);
                            prop_assert_eq!(gate(&cohort), gate(&flat));
                        }
                        let globals = cohort.map().rows_of(s).to_vec();
                        for w in 0..n_workers {
                            prop_assert_eq!(plan_pull(&mut cohort, s, w), plan_pull(&mut flat, s, w));
                            for (l, &r) in globals.iter().enumerate() {
                                let (got, got_fresh) = cohort.shards[s].pending.get(w, l);
                                let (want, want_fresh) = flat.shards[s].pending.get(w, l);
                                let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                                prop_assert_eq!(bits(got), bits(want), "row {} of worker {}", r, w);
                                prop_assert_eq!(got_fresh, want_fresh);
                                prop_assert_eq!(
                                    cohort.payload_bytes_for(w, RowId(r)),
                                    flat.payload_bytes_for(w, RowId(r))
                                );
                            }
                        }
                    }
                    prop_assert!(cohort.pending_copies() <= n_workers * n_rows);
                }
            }
        }
    }
}
