//! The row cycle's decisions, once (Algorithms 1–2): rank → push at
//! least `max(MTA, mandatory)` rows → server-side RSP gate → pull.
//!
//! [`WorkerRole`] and [`ServerRole`] hold every decision of one
//! push/pull cycle and nothing about how bytes move or what time it
//! is: timestamps and a [`Journal`] go in, small `Copy` verdicts
//! ([`PushFloor`], [`Gate`]) and caller-owned row buffers come out.
//! Three drivers run them — the simulated row engine (speculative
//! flows under deadlines, loss, faults), the socket path (`serve` hosts
//! the server role, each `join` one worker role) and the synchronous
//! [`crate::RogOptimizer`] — so a rule such as "the RSP-mandatory
//! prefix is never cut" has one home.
//!
//! One shard leg of one cycle, in call order:
//!
//! | step | worker side | server side |
//! |---|---|---|
//! | rank + split | [`WorkerRole::rank`], [`WorkerRole::leg_rows`] | |
//! | floor | [`WorkerRole::start_leg`] → [`PushFloor`] | [`ServerRole::push_start`] → time budget |
//! | commit what landed | [`WorkerRole::commit_landed`] | [`ServerRole::ingest`], [`ServerRole::push_end`] |
//! | gate | | [`ServerRole::enter_gate`] → [`Gate`]; [`ServerRole::take_parked`] + [`ServerRole::retry`] when `min(V)`, the bound or membership moved |
//! | pull | [`WorkerRole::apply`] | [`ServerRole::grant`], [`ServerRole::pull_start`], [`ServerRole::settle_pull`] |
//! | completion | [`WorkerRole::finish_leg`] | |

use rog_compress::Codec;
use rog_obs::{obs, obs_shard, Event, EventKind, Journal};
use rog_sim::Time;
use rog_sync::gate;
use rog_tensor::Matrix;

use crate::{
    mta, AggregatorMap, AggregatorPlane, AggregatorStats, MtaTimeTracker, RogWorker,
    RogWorkerConfig, RowId, ShardMap, ShardedServer,
};

/// How many rows of one shard leg's ranked push plan must get through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushFloor {
    /// Rows in the leg's plan.
    pub rows: usize,
    /// Length of the plan's RSP-mandatory prefix: rows at the staleness
    /// bound, which block every peer's pull until they land.
    pub mandatory: usize,
    /// The minimum transmission amount for `rows` rows (Table I).
    pub mta_rows: usize,
    /// Rows the push may not end before: `max(mta_rows, mandatory)`,
    /// capped at `rows`. Everything past it is the best-effort tail.
    pub floor: usize,
}

impl PushFloor {
    /// The floor of a `rows`-row plan whose first `mandatory` rows sit
    /// at the staleness bound.
    pub fn new(rows: usize, mandatory: usize, threshold: u32) -> Self {
        let mta_rows = mta::mta_rows(rows, threshold);
        let mandatory = mandatory.min(rows);
        Self {
            rows,
            mandatory,
            mta_rows,
            floor: mta_rows.max(mandatory).min(rows),
        }
    }

    /// Rows to transmit when the link admits `budget_rows` (`None`: no
    /// limit). A budget bounds the best-effort tail only.
    pub fn admit(&self, budget_rows: Option<usize>) -> usize {
        budget_rows
            .unwrap_or(self.rows)
            .clamp(self.floor, self.rows)
    }
}

/// The RSP gate's answer to a pull request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The pull may be served now ([`ServerRole::grant`]).
    Granted,
    /// The worker leads the stalest row by the bound: the request waits
    /// on the server until a release scan admits it.
    Parked,
}

/// What a finished push transmission reports to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushReport {
    /// Rows transmitted.
    pub rows: usize,
    /// Their payload bytes, as the codec frames them.
    pub bytes: u64,
    /// Seconds the transmission took.
    pub secs: Time,
}

#[derive(Debug, Clone, Copy, Default)]
struct LegPhase {
    engaged: bool,
    push_done: bool,
    done: bool,
    floor: PushFloor,
}

/// The worker half of the row cycle (Algorithm 1) around a
/// [`RogWorker`]: the cycle's ranked plan, each shard leg's floor, and
/// which legs of the cycle are still open.
#[derive(Debug, Clone)]
pub struct WorkerRole {
    worker: RogWorker,
    /// The cycle's globally ranked plan.
    ranked: Vec<RowId>,
    legs: Vec<LegPhase>,
}

impl WorkerRole {
    /// A worker over `n_shards` parameter shards.
    pub fn new(params: &[Matrix], cfg: RogWorkerConfig, n_shards: usize) -> Self {
        Self {
            worker: RogWorker::new(params, cfg),
            ranked: Vec::new(),
            legs: vec![LegPhase::default(); n_shards],
        }
    }

    /// The wrapped worker state (read-only).
    pub fn worker(&self) -> &RogWorker {
        &self.worker
    }

    /// `g' ← g' + g` (Algorithm 1 line 3).
    pub fn accumulate(&mut self, grads: &[Matrix]) {
        self.worker.accumulate(grads);
    }

    /// Changes the staleness threshold from the next plan on.
    pub fn set_threshold(&mut self, threshold: u32) {
        self.worker.set_threshold(threshold);
    }

    /// Switches the push codec; residuals carry over.
    pub fn set_codec(&mut self, codec: Codec) {
        self.worker.set_codec(codec);
    }

    /// Drops the transient state of a worker that resynced to iteration
    /// `n`, and takes it out of whatever cycle it was in.
    pub fn reset_for_rejoin(&mut self, n: u64) {
        self.worker.reset_for_rejoin(n);
        self.disengage();
    }

    /// Ranks every row for the push of iteration `n`: mandatory rows
    /// first (stalest first), then by importance.
    pub fn rank(&mut self, n: u64) {
        self.worker.plan_push_into(n, &mut self.ranked);
    }

    /// Writes the rows of the ranked plan homed on shard `s` into
    /// `out`, in rank order — so each leg's mandatory rows stay a
    /// prefix of its plan.
    pub fn leg_rows(&self, map: &ShardMap, s: usize, out: &mut Vec<RowId>) {
        out.clear();
        out.extend(
            self.ranked
                .iter()
                .copied()
                .filter(|&id| map.shard_of(id) == s),
        );
    }

    /// Takes every leg out of the cycle it was part of.
    pub fn disengage(&mut self) {
        self.legs.fill(LegPhase::default());
    }

    /// Opens shard `s`'s leg of the cycle pushing iteration `n` with
    /// `plan`, and returns its floor.
    pub fn start_leg(&mut self, s: usize, plan: &[RowId], n: u64) -> PushFloor {
        let threshold = self.worker.config().threshold;
        let row_iters = self.worker.row_iters();
        let mandatory = plan
            .iter()
            .take_while(|&&id| gate::row_is_mandatory(row_iters[id.0], n, threshold))
            .count();
        let floor = PushFloor::new(plan.len(), mandatory, threshold);
        self.legs[s] = LegPhase {
            engaged: true,
            push_done: false,
            done: false,
            floor,
        };
        floor
    }

    /// The floor [`Self::start_leg`] gave shard `s`'s leg.
    pub fn floor(&self, s: usize) -> PushFloor {
        self.legs[s].floor
    }

    /// Whether shard `s` takes part in the current cycle.
    pub fn engaged(&self, s: usize) -> bool {
        self.legs[s].engaged
    }

    /// Commits only what landed: compresses (error feedback kept),
    /// zeroes and stamps exactly the rows in `landed`, returning what
    /// the server receives. A row that did not land keeps its
    /// accumulated gradient and its stale iteration, so it ages toward
    /// the bound and re-ranks as mandatory.
    pub fn commit_landed(&mut self, landed: &[RowId], n: u64) -> Vec<(RowId, Vec<f32>)> {
        self.worker.commit_push(landed, n)
    }

    /// Marks shard `s`'s push finished; `true` once every engaged leg
    /// has pushed.
    pub fn push_done(&mut self, s: usize) -> bool {
        self.legs[s].push_done = true;
        self.legs.iter().all(|l| !l.engaged || l.push_done)
    }

    /// Applies pulled averaged gradients to `params` (Algorithm 1 lines
    /// 13–17).
    pub fn apply(&mut self, params: &mut [Matrix], rows: &[(RowId, Vec<f32>)]) {
        self.worker.apply_pulled(params, rows);
    }

    /// Marks shard `s`'s leg finished; `true` once every engaged leg
    /// has, i.e. the cycle is complete.
    pub fn finish_leg(&mut self, s: usize) -> bool {
        self.legs[s].done = true;
        self.legs.iter().all(|l| !l.engaged || l.done)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ServerLeg {
    /// Iteration of the worker's current cycle on this shard.
    iter: u64,
    mta_rows: usize,
    gate_entered: Time,
}

/// The server half of the row cycle (Algorithm 2) around a
/// [`ShardedServer`]: ingest, the per-shard MTA-time budget, the RSP
/// gate with its parked requests, the aggregator windows, and the
/// journal records of each.
#[derive(Debug, Clone)]
pub struct ServerRole {
    server: ShardedServer,
    /// One MTA-time budget per shard.
    trackers: Vec<MtaTimeTracker>,
    /// Edge-aggregation tier (`None`: workers reach the shards
    /// directly). Accounting only.
    agg: Option<AggregatorPlane>,
    /// Pull requests waiting at a shard's gate: (worker, shard, iter).
    parked: Vec<(usize, usize, u64)>,
    /// Per (worker, shard), row-major by worker.
    legs: Vec<ServerLeg>,
    peak_version_bytes: usize,
}

impl ServerRole {
    /// The server side of a cluster of `server.n_workers()` workers.
    pub fn new(server: ShardedServer, agg: Option<AggregatorPlane>) -> Self {
        let n = server.n_workers();
        let n_shards = server.n_shards();
        Self {
            trackers: vec![MtaTimeTracker::new(n, 1.0); n_shards],
            agg,
            parked: Vec::new(),
            legs: vec![ServerLeg::default(); n * n_shards],
            peak_version_bytes: 0,
            server,
        }
    }

    /// The wrapped parameter plane (read-only).
    pub fn server(&self) -> &ShardedServer {
        &self.server
    }

    /// The aggregator topology, if any.
    pub fn agg_map(&self) -> Option<&AggregatorMap> {
        self.agg.as_ref().map(AggregatorPlane::map)
    }

    /// Aggregation-tier counters (zero without a tier).
    pub fn agg_stats(&self) -> AggregatorStats {
        self.agg.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// High-water mark of the version stores' resident bytes.
    pub fn peak_version_bytes(&self) -> usize {
        self.peak_version_bytes
    }

    /// Shard `s`'s `min(V)` over the active workers.
    pub fn global_min(&self, s: usize) -> u64 {
        self.server.versions(s).global_min()
    }

    /// Shard `s`'s current MTA-time budget (Algorithm 4 `GetMTATime`).
    pub fn budget(&self, s: usize) -> Time {
        self.trackers[s].get()
    }

    /// Whether worker `w` has a pull parked at shard `s`'s gate.
    pub fn is_parked(&self, w: usize, s: usize) -> bool {
        self.parked.iter().any(|&(pw, ps, _)| pw == w && ps == s)
    }

    /// Payload bytes of one row on the pull link to `w`, as that link's
    /// codec would frame it now.
    pub fn pull_row_bytes(&self, w: usize, id: RowId) -> u64 {
        self.server.payload_bytes_for(w, id)
    }

    /// Switches the pull codec of the link to `w`.
    pub fn set_codec(&mut self, w: usize, codec: Codec) {
        self.server.set_codec(w, codec);
    }

    /// The journal scope of shard `s`: a real shard id only when the
    /// plane is actually sharded.
    pub fn tag(&self, s: usize) -> i64 {
        if self.server.n_shards() > 1 {
            s as i64
        } else {
            Event::NO_SHARD
        }
    }

    fn leg(&mut self, w: usize, s: usize) -> &mut ServerLeg {
        let n_shards = self.server.n_shards();
        &mut self.legs[w * n_shards + s]
    }

    /// Worker `w` starts pushing iteration `n` to shard `s`: records the
    /// floor and the ranked rows (`plan`: as much of the plan as the
    /// driver can see) and returns the time budget the speculative
    /// transmission runs under.
    pub fn push_start(
        &mut self,
        w: usize,
        s: usize,
        n: u64,
        floor: PushFloor,
        plan: &[RowId],
        now: Time,
        journal: &mut Journal,
    ) -> Time {
        let leg = self.leg(w, s);
        leg.iter = n;
        leg.mta_rows = floor.mta_rows;
        let budget = self.trackers[s].get();
        if journal.enabled() {
            let tag = self.tag(s);
            journal.record_shard(
                now,
                tag,
                EventKind::PushStart {
                    w: w as u32,
                    iter: n,
                    rows: floor.rows as u32,
                    mand: floor.mandatory as u32,
                    mta: floor.mta_rows as u32,
                    budget,
                },
            );
            journal.record_shard(
                now,
                tag,
                EventKind::RowPush {
                    w: w as u32,
                    iter: n,
                    rows: plan.iter().map(|id| id.0 as u32).collect(),
                },
            );
        }
        budget
    }

    /// Ingests rows of iteration `n` that landed from `w` on shard `s`
    /// (global ids, translated in place): folds them into the member's
    /// aggregator window, averages them into every active worker's
    /// pending copy and raises the versions. Returns whether the
    /// shard's `min(V)` advanced — the only push outcome that can
    /// change a parked request's verdict.
    pub fn ingest(&mut self, w: usize, s: usize, n: u64, rows: &mut [(RowId, Vec<f32>)]) -> bool {
        let min_before = self.server.versions(s).global_min();
        if let Some(plane) = self.agg.as_mut() {
            let ids: Vec<usize> = rows.iter().map(|(id, _)| id.0).collect();
            plane.on_member_push(w, s, &ids, n);
        }
        self.server.on_push(s, w, n, rows);
        self.peak_version_bytes = self
            .peak_version_bytes
            .max(self.server.version_store_bytes());
        self.server.versions(s).global_min() > min_before
    }

    /// The push of iteration `n` from `w` to shard `s` left the air:
    /// updates the shard's MTA-time estimate (Algorithm 4
    /// `UpdateMTATime`).
    pub fn push_end(
        &mut self,
        w: usize,
        s: usize,
        n: u64,
        sent: PushReport,
        now: Time,
        journal: &mut Journal,
    ) {
        let mta_rows = self.leg(w, s).mta_rows;
        self.trackers[s].report(w, sent.rows, sent.secs, mta_rows);
        if journal.enabled() {
            let tag = self.tag(s);
            journal.record_shard(
                now,
                tag,
                EventKind::PushEnd {
                    w: w as u32,
                    iter: n,
                    rows: sent.rows as u32,
                    bytes: sent.bytes,
                },
            );
            journal.record_shard(
                now,
                tag,
                EventKind::Mta {
                    w: w as u32,
                    secs: sent.secs,
                    budget: self.trackers[s].get(),
                },
            );
        }
    }

    /// `w`, having pushed iteration `n`, asks for shard `s`'s pull (Algorithm
    /// 2 lines 7–9). A refused request parks here.
    pub fn enter_gate(
        &mut self,
        w: usize,
        s: usize,
        n: u64,
        now: Time,
        journal: &mut Journal,
    ) -> Gate {
        let leg = self.leg(w, s);
        leg.iter = n;
        leg.gate_entered = now;
        if journal.enabled() {
            let versions = self.server.versions(s);
            let (_, row, _) = versions.stalest_cell();
            let min = versions.global_min();
            let row = self.server.map().to_global(s, RowId(row)).0;
            journal.record_shard(
                now,
                self.tag(s),
                EventKind::GateEnter {
                    w: w as u32,
                    iter: n,
                    min,
                    lead: n.saturating_sub(min),
                    row: row as i64,
                },
            );
        }
        self.retry(w, s, n, true)
    }

    /// Re-enters the wait at shard `s`'s gate without a new record (a
    /// granted pull was cut off and starts over).
    pub fn park(&mut self, w: usize, s: usize, n: u64) {
        self.parked.push((w, s, n));
    }

    /// Starts a release scan: hands out every parked request, each to be
    /// put through [`Self::retry`] in order. Run it when a shard's
    /// `min(V)` advanced, the bound changed, or membership or
    /// reachability did.
    pub fn take_parked(&mut self) -> Vec<(usize, usize, u64)> {
        std::mem::take(&mut self.parked)
    }

    /// Re-checks one request: granted if the driver can currently
    /// `reach` the worker and the gate admits iteration `n`, parked
    /// again otherwise.
    pub fn retry(&mut self, w: usize, s: usize, n: u64, reach: bool) -> Gate {
        if reach && self.server.gate_ok(s, n) {
            Gate::Granted
        } else {
            self.parked.push((w, s, n));
            Gate::Parked
        }
    }

    /// Drops every request `w` has parked (it left, or gave up waiting).
    pub fn withdraw(&mut self, w: usize) {
        self.parked.retain(|&(pw, _, _)| pw != w);
    }

    /// Grants `w` shard `s`'s pull: closes the member's aggregator
    /// window, writes the ranked pull plan into `plan` and returns how
    /// many of its rows must get through (the MTA of the shard's rows).
    pub fn grant(
        &mut self,
        w: usize,
        s: usize,
        now: Time,
        journal: &mut Journal,
        plan: &mut Vec<RowId>,
    ) -> usize {
        let tag = self.tag(s);
        let leg = *self.leg(w, s);
        obs_shard!(
            journal,
            now,
            tag,
            EventKind::GateExit {
                w: w as u32,
                iter: leg.iter,
                waited: now - leg.gate_entered,
            }
        );
        if let Some(plane) = self.agg.as_mut() {
            // The merged rows go upstream ahead of the fresh fetch, and
            // the pull fans out downstream through the aggregator.
            let merged = plane.flush(w, s);
            let agg = plane.map().agg_of(w) as u32;
            plane.on_member_pull();
            if let Some(m) = merged {
                obs_shard!(
                    journal,
                    now,
                    tag,
                    EventKind::AggMerge {
                        agg,
                        rows: m.rows as u32,
                        raw: m.raw_rows as u32,
                        pushes: m.pushes as u32,
                        ver: m.max_version,
                    }
                );
            }
        }
        self.server.plan_pull_into(s, w, plan);
        if plan.is_empty() {
            return 0;
        }
        mta::mta_rows(self.server.map().shard_rows(s), self.server.threshold()).min(plan.len())
    }

    /// The granted pull of `plan` (`bytes` on the wire) starts.
    pub fn pull_start(
        &mut self,
        w: usize,
        s: usize,
        plan: &[RowId],
        bytes: u64,
        now: Time,
        journal: &mut Journal,
    ) {
        if journal.enabled() {
            let tag = self.tag(s);
            let iter = self.leg(w, s).iter;
            journal.record_shard(
                now,
                tag,
                EventKind::PullStart {
                    w: w as u32,
                    iter,
                    bytes,
                },
            );
            journal.record_shard(
                now,
                tag,
                EventKind::RowPull {
                    w: w as u32,
                    iter,
                    rows: plan.iter().map(|id| id.0 as u32).collect(),
                },
            );
        }
    }

    /// The pull ended with `landed` delivered: drains exactly those rows
    /// from `w`'s pending copy (Algorithm 2 lines 12–13) and returns
    /// their values. A row that did not land stays pending and re-ranks
    /// into a later pull.
    pub fn settle_pull(
        &mut self,
        w: usize,
        s: usize,
        landed: &[RowId],
        now: Time,
        journal: &mut Journal,
    ) -> Vec<(RowId, Vec<f32>)> {
        obs_shard!(
            journal,
            now,
            self.tag(s),
            EventKind::PullEnd {
                w: w as u32,
                iter: self.leg(w, s).iter,
            }
        );
        self.server.commit_pull(s, w, landed)
    }

    /// Switches every shard's gate to a new staleness bound. Follow
    /// with a release scan: a loosened gate may admit parked requests.
    pub fn set_threshold(&mut self, threshold: u32, now: Time, journal: &mut Journal) {
        obs!(journal, now, EventKind::AutoThreshold { threshold });
        self.server.set_threshold(threshold);
    }

    /// `w` left the cluster: its parked requests are dropped and its
    /// frozen rows stop gating the survivors (follow with a release
    /// scan).
    pub fn deactivate(&mut self, w: usize) {
        self.withdraw(w);
        self.server.deactivate_worker(w);
    }

    /// Readmits `w`, resynced to iteration `n` (follow with a release
    /// scan: the freshly stamped member can only raise `min(V)`).
    pub fn rejoin(&mut self, w: usize, n: u64) {
        self.server.rejoin_worker(w, n);
    }
}
