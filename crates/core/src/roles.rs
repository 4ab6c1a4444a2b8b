//! The row cycle's decisions, once (Algorithms 1–2): rank → push at
//! least `max(MTA, mandatory)` rows → server-side RSP gate → pull.
//!
//! [`WorkerRole`] and [`ServerRole`] hold every decision of one
//! push/pull cycle and nothing about how bytes move or what time it
//! is: timestamps, round reports and a [`Journal`] go in, small `Copy`
//! verdicts ([`PushFloor`], [`Gate`], the next [`Round`]) and
//! caller-owned [`RowBatch`]es come out. Each shard leg's push and pull
//! is a [`Leg`] the roles own, so what counts as landed has one home.
//! Three drivers run them — the simulated row engine (speculative
//! flows under deadlines, loss, faults), the socket path (`serve` hosts
//! the server role, each `join` one worker role) and the
//! model-granularity baselines — so a rule such as "the RSP-mandatory
//! prefix is never cut" has one home.
//!
//! One shard leg of a cycle, in call order: [`WorkerRole::plan`] (every
//! leg's plan and floor), [`ServerRole::push_start`] (the time budget
//! is [`ServerRole::budget`]), [`WorkerRole::push_round`] per round
//! until it returns `None`; then [`WorkerRole::commit_push`],
//! [`ServerRole::ingest`], [`ServerRole::push_end`],
//! [`ServerRole::enter_gate`]; on a grant
//! [`ServerRole::grant`], [`ServerRole::pull_start`],
//! [`ServerRole::pull_round`] per round, then [`ServerRole::settle_pull`],
//! [`WorkerRole::apply`] and [`WorkerRole::finish_leg`]. A driver with
//! per-row fates reports them with each round, and the leg resends the
//! lost mandatory rows; a driver without reports one round, and every
//! row it sent counts as landed. A parked request is re-checked by a
//! release scan ([`ServerRole::take_parked`] + [`ServerRole::retry`])
//! whenever `min(V)`, the bound, membership or reachability moved.
//!
//! The worker role keeps its whole cycle: the iteration it pushes, each
//! leg's phase, and what a fault left to restart. A driver reports a
//! leg cut in the air ([`WorkerRole::cut`]) or a cycle with no path to
//! start on ([`WorkerRole::park`]); once the path and the shard are up,
//! [`WorkerRole::restart`] says how the cycle resumes there ([`Restart`],
//! read off the phase the cut left the leg in), and
//! [`WorkerRole::busy`] whether a cycle is in flight.
//!
//! [`ServerRole`] owns every worker's staleness bound: the plane's
//! threshold only seeds it, and [`ServerRole::set_bound`] is its one
//! setter; [`WorkerRole::plan`] and [`WorkerRole::replan`] take the
//! worker's bound from [`ServerRole::bound`]. A bound is an [`Mta`]:
//! its MTA fraction is solved where the bound is set and read by every
//! floor and grant. A driver that moves a bound journals the move
//! itself.
//!
//! The baselines (BSP/SSP/ASP/FLOWN/DSSP/ABS) put every row in every
//! leg and call only unjournaled steps — `accumulate`,
//! `commit_landed`, `apply`, `rejoin`; `ingest`, `retry`,
//! `take_parked`, `drain_into`, `withdraw`, `bound`, `set_bound`,
//! `rejoin` — as a `row_push`, `row_pull` or `mta` record was never in
//! their journal.

use rog_compress::{Codec, RowCodec};
use rog_obs::{obs_shard, Event, EventKind, Journal};
use rog_sim::Time;
use rog_tensor::Matrix;

use crate::{
    gate, mta::Mta, AggregatorPlane, AggregatorStats, Leg, MtaTimeTracker, RogWorker,
    RogWorkerConfig, Round, RowBatch, RowId, ShardMap, ShardedServer,
};

/// One worker's leg to one parameter shard: `(worker, shard)`.
pub type LegId = (usize, usize);

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
    /// at the staleness bound `bound`.
    pub fn new(rows: usize, mandatory: usize, bound: Mta) -> Self {
        let mta_rows = bound.rows(rows);
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

/// Row ids as the journal records them.
fn wire_ids(plan: &[RowId]) -> Vec<u32> {
    plan.iter().map(|id| id.0 as u32).collect()
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

/// How the cycle resumes on a shard once the worker's path and the
/// shard are up again ([`WorkerRole::restart`]). A cut transfer
/// acknowledged nothing, so each restarts its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// The cycle was parked, or every engaged leg was cut in its push:
    /// plan it again ([`WorkerRole::plan`] clears every mark).
    Cycle,
    /// Only this leg was cut in its push: [`WorkerRole::replan`] it at
    /// the cycle's iteration; the other legs keep theirs.
    Push,
    /// This leg was cut in its pull: re-enter the shard's gate (the
    /// pull plan is recomputed at grant time).
    Gate,
}

/// Where one shard leg stands in the worker's current cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Not part of the cycle.
    #[default]
    Out,
    Pushing,
    Pushed,
    Done,
}

/// One shard's leg of the worker's current cycle: its push, the floor
/// it opened with, where it stands, and whether a fault cut it.
#[derive(Debug, Clone, Default)]
struct WorkerLeg {
    push: Leg,
    floor: PushFloor,
    phase: Phase,
    cut: bool,
}

/// The worker half of the row cycle (Algorithm 1) around a
/// [`RogWorker`]: the cycle's iteration and ranked plan, each shard's
/// push [`Leg`] with its floor, which legs of the cycle are still open,
/// and what a fault left to restart.
#[derive(Debug, Clone)]
pub struct WorkerRole {
    worker: RogWorker,
    /// The iteration the current (or last) cycle pushes.
    iter: u64,
    /// The cycle was parked before any leg could start.
    parked: bool,
    /// The cycle's globally ranked plan.
    ranked: Vec<RowId>,
    legs: Vec<WorkerLeg>,
}

impl WorkerRole {
    /// A worker over `n_shards` parameter shards.
    pub fn new(params: &[Matrix], cfg: RogWorkerConfig, n_shards: usize) -> Self {
        Self {
            worker: RogWorker::new(params, cfg),
            iter: 0,
            parked: false,
            ranked: Vec::new(),
            legs: vec![WorkerLeg::default(); n_shards],
        }
    }

    /// The wrapped worker state (read-only).
    pub fn worker(&self) -> &RogWorker {
        &self.worker
    }

    /// Adds freshly computed gradients to the accumulated gradients
    /// (Algorithm 1 line 3). Under a content-sized codec this moves the
    /// size of every row a push leg in the air still sends (pipelining
    /// accumulates mid-leg), so the legs re-size what they read next.
    pub fn accumulate(&mut self, grads: &[Matrix]) {
        self.worker.accumulate(grads);
        if self.worker.codec().is_content_sized() {
            self.legs.iter_mut().for_each(|l| l.push.unsize());
        }
    }

    /// Switches the push codec (error-feedback residuals carry over);
    /// the push legs in the air re-size what they read next.
    pub fn set_codec(&mut self, codec: Codec) {
        self.worker.set_codec(codec);
        self.legs.iter_mut().for_each(|l| l.push.unsize());
    }

    /// The worker adopted a peer's model at iteration `n` after a
    /// fault: drops what belonged to the lost lineage (accumulated
    /// gradients, residuals), stamps every row to `n` and
    /// leaves the cycle it was part of.
    pub fn rejoin(&mut self, n: u64) {
        self.worker.reset_for_rejoin(n);
        self.disengage();
        self.iter = n;
    }

    /// Starts the cycle pushing iteration `n` under staleness bound
    /// `bound` (the worker's, as [`ServerRole::bound`] holds it): ranks
    /// every row (mandatory rows first, stalest first, then by
    /// importance), gives each shard leg its rows in rank order, so a
    /// leg's mandatory rows stay a prefix of its plan, and opens every
    /// leg with its floor.
    pub fn plan(&mut self, n: u64, map: &ShardMap, bound: Mta) {
        self.iter = n;
        self.parked = false;
        self.worker
            .plan_push_at(n, bound.threshold(), &mut self.ranked);
        for s in 0..self.legs.len() {
            self.open(s, map, bound);
        }
    }

    /// Re-plans shard `s`'s leg of the current cycle against the latest
    /// gradients and reopens it (a fault cut its push; the other legs
    /// keep theirs).
    pub fn replan(&mut self, s: usize, map: &ShardMap, bound: Mta) {
        self.worker
            .plan_push_at(self.iter, bound.threshold(), &mut self.ranked);
        self.open(s, map, bound);
    }

    /// Opens shard `s`'s leg on its rows of the ranked plan with its
    /// floor: `max(MTA, mandatory)` rows must go out, the mandatory
    /// prefix must land. The leg sizes every row as the worker's codec
    /// frames it now.
    fn open(&mut self, s: usize, map: &ShardMap, bound: Mta) {
        let (worker, n) = (&self.worker, self.iter);
        let row_iters = worker.row_iters();
        let leg = &mut self.legs[s];
        let plan = leg.push.plan_mut();
        plan.clear();
        plan.extend(self.ranked.iter().filter(|&&id| map.shard_of(id) == s));
        let mandatory = plan
            .iter()
            .take_while(|&&id| gate::row_is_mandatory(row_iters[id.0], n, bound.threshold()))
            .count();
        leg.floor = PushFloor::new(plan.len(), mandatory, bound);
        let size = |id| worker.payload_bytes(id);
        leg.push.begin(leg.floor.floor, leg.floor.mandatory, size);
        leg.phase = Phase::Pushing;
        leg.cut = false;
    }

    /// Parks the cycle pushing iteration `n` before any leg starts (the
    /// worker has no path to push through): it restarts as a whole
    /// ([`Restart::Cycle`]).
    pub fn park(&mut self, n: u64) {
        self.iter = n;
        self.parked = true;
    }

    /// The iteration the current (or last) cycle pushes.
    pub fn cycle_iter(&self) -> u64 {
        self.iter
    }

    /// Whether a cycle is in flight: parked, or some leg has not
    /// finished.
    pub fn busy(&self) -> bool {
        let open = |l: &WorkerLeg| matches!(l.phase, Phase::Pushing | Phase::Pushed);
        self.parked || self.legs.iter().any(open)
    }

    /// Takes shard `s`'s leg out of the cycle before it starts (its
    /// shard is down): its rows stay accumulated, age toward the bound
    /// and re-rank into a later cycle.
    pub fn skip(&mut self, s: usize) {
        self.legs[s].phase = Phase::Out;
    }

    /// A fault cut shard `s`'s leg in the air: it waits for
    /// [`Self::restart`].
    pub fn cut(&mut self, s: usize) {
        self.legs[s].cut = true;
    }

    /// Takes what waits on shard `s` once the worker's path and the
    /// shard are up again: how the cycle resumes there, from where the
    /// cut left the leg, or `None` if nothing waits.
    pub fn restart(&mut self, s: usize) -> Option<Restart> {
        let whole = |l: &WorkerLeg| l.phase == Phase::Out || (l.cut && l.phase == Phase::Pushing);
        let verdict = match (self.legs[s].cut, self.legs[s].phase) {
            _ if self.parked => Restart::Cycle,
            (false, _) => return None,
            (true, Phase::Pushed) => Restart::Gate,
            _ if self.legs.iter().all(whole) => Restart::Cycle,
            _ => Restart::Push,
        };
        self.parked = false;
        self.legs[s].cut = false;
        Some(verdict)
    }

    /// Takes every leg out of the cycle it was part of and forgets what
    /// waited to restart (the worker departed or rejoined).
    pub fn disengage(&mut self) {
        self.parked = false;
        for l in &mut self.legs {
            l.phase = Phase::Out;
            l.cut = false;
        }
    }

    /// Whether shard `s` takes part in the current cycle.
    pub fn engaged(&self, s: usize) -> bool {
        self.legs[s].phase != Phase::Out
    }

    /// The floor shard `s`'s leg opened with.
    pub fn floor(&self, s: usize) -> PushFloor {
        self.legs[s].floor
    }

    /// Shard `s`'s push leg.
    pub fn push_leg(&self, s: usize) -> &Leg {
        &self.legs[s].push
    }

    /// Payload bytes of the rows `round` of shard `s`'s push carries,
    /// parallel to [`Leg::rows`]: the sizes the leg opened with, or
    /// fresh ones once the worker's state moved under it.
    pub fn push_sizes(&mut self, s: usize, round: Round) -> impl Iterator<Item = u64> + '_ {
        let worker = &self.worker;
        self.legs[s]
            .push
            .round_sizes(round, move |id| worker.payload_bytes(id))
    }

    /// Payload bytes of every row shard `s`'s push has transmitted so
    /// far, in plan order, sized like [`Self::push_sizes`].
    pub fn sent_sizes(&mut self, s: usize) -> impl Iterator<Item = u64> + '_ {
        let worker = &self.worker;
        self.legs[s]
            .push
            .sent_sizes(move |id| worker.payload_bytes(id))
    }

    /// One round of shard `s`'s push ended: `sent` of its rows went out,
    /// and `intact` says which arrived (`None`: the driver has no fates,
    /// so every row sent landed). Returns the next round, or `None` once
    /// [`Self::commit_push`] may commit what landed.
    pub fn push_round(
        &mut self,
        s: usize,
        round: Round,
        sent: usize,
        intact: Option<&[bool]>,
    ) -> Option<Round> {
        self.legs[s].push.on_round(round, sent, intact)
    }

    /// Commits what landed of shard `s`'s push of iteration `n` into
    /// `out` ([`Self::commit_landed`]).
    pub fn commit_push(&mut self, s: usize, n: u64, out: &mut RowBatch) {
        let landed = self.legs[s].push.landed();
        self.worker.commit_push_into(landed, n, out);
    }

    /// Commits only what landed: compresses (error feedback kept),
    /// zeroes and stamps exactly the rows in `landed`, writing what the
    /// server receives into `out`. A row that did not land keeps its
    /// accumulated gradient and its stale iteration, so it ages toward
    /// the bound and re-ranks as mandatory.
    pub fn commit_landed(&mut self, landed: &[RowId], n: u64, out: &mut RowBatch) {
        self.worker.commit_push_into(landed, n, out);
    }

    /// Marks shard `s`'s push finished; `true` once every engaged leg
    /// has pushed.
    pub fn push_done(&mut self, s: usize) -> bool {
        self.legs[s].phase = Phase::Pushed;
        self.legs.iter().all(|l| l.phase != Phase::Pushing)
    }

    /// Applies pulled averaged gradients to `params` (Algorithm 1 lines
    /// 13–17).
    pub fn apply(&mut self, params: &mut [Matrix], rows: &RowBatch) {
        self.worker.apply_pulled(params, rows);
    }

    /// Marks shard `s`'s leg finished; `true` once every engaged leg
    /// has, i.e. the cycle is complete.
    pub fn finish_leg(&mut self, s: usize) -> bool {
        self.legs[s].phase = Phase::Done;
        self.legs
            .iter()
            .all(|l| matches!(l.phase, Phase::Out | Phase::Done))
    }
}

/// What the server remembers of one worker's cycle on one shard, and
/// the pull [`Leg`] it serves the worker.
#[derive(Debug, Clone, Default)]
struct ServerLeg {
    iter: u64,
    mta_rows: usize,
    push_started: Time,
    gate_entered: Time,
    pull: Leg,
}

/// The server half of the row cycle (Algorithm 2) around a
/// [`ShardedServer`]: ingest, the per-shard MTA-time budget, the RSP
/// gate with its parked requests, the aggregator windows, each
/// (worker, shard) pull [`Leg`], and the journal records of each.
#[derive(Debug, Clone)]
pub struct ServerRole {
    server: ShardedServer,
    /// One MTA-time budget per shard.
    trackers: Vec<MtaTimeTracker>,
    /// Edge-aggregation tier (`None`: workers reach the shards
    /// directly). Accounting only.
    agg: Option<AggregatorPlane>,
    /// Row ids of the push being folded into an aggregator window,
    /// reused across ingests.
    agg_ids: Vec<usize>,
    /// Pull requests waiting at a shard's gate, with their iteration.
    parked: Vec<(LegId, u64)>,
    /// Each worker's RSP threshold: its gate bound and its pulls' MTA
    /// target. The one copy every driver reads and moves.
    bounds: Vec<Mta>,
    /// Row-major by worker.
    legs: Vec<ServerLeg>,
    peak_version_bytes: usize,
}

impl ServerRole {
    /// The server side of a cluster of `server.n_workers()` workers.
    pub fn new(server: ShardedServer, agg: Option<AggregatorPlane>) -> Self {
        let (n, n_shards) = (server.n_workers(), server.n_shards());
        Self {
            trackers: vec![MtaTimeTracker::new(n, 1.0); n_shards],
            agg,
            agg_ids: Vec::new(),
            parked: Vec::new(),
            bounds: vec![Mta::new(server.threshold()); n],
            legs: vec![ServerLeg::default(); n * n_shards],
            peak_version_bytes: 0,
            server,
        }
    }

    /// The wrapped parameter plane (read-only).
    pub fn server(&self) -> &ShardedServer {
        &self.server
    }

    /// Switches the pull codec of the link to `w` (residuals carry
    /// over); `w`'s pull legs in the air re-size what they read next.
    pub fn set_codec(&mut self, w: usize, codec: Codec) {
        self.server.set_codec(w, codec);
        self.unsize_pulls_of(w);
    }

    /// NaN/Inf gradient values zeroed at ingest so far: non-zero means
    /// a corrupted payload got past the link's CRC or a worker diverged.
    pub fn nonfinite_dropped(&self) -> u64 {
        self.server.nonfinite_dropped()
    }

    /// Aggregation-tier counters (zero without a tier).
    pub fn agg_stats(&self) -> AggregatorStats {
        self.agg.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// High-water mark of the version stores' resident bytes.
    pub fn peak_version_bytes(&self) -> usize {
        self.peak_version_bytes
    }

    /// Shard `s`'s current MTA-time budget (Algorithm 4 `GetMTATime`).
    pub fn budget(&self, s: usize) -> Time {
        self.trackers[s].get()
    }

    /// Whether `leg` has a pull parked at its shard's gate.
    pub fn is_parked(&self, leg: LegId) -> bool {
        self.parked.iter().any(|&(l, _)| l == leg)
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

    /// `leg`'s index in `legs`.
    fn slot(&self, (w, s): LegId) -> usize {
        w * self.server.n_shards() + s
    }

    fn leg(&mut self, leg: LegId) -> &mut ServerLeg {
        let i = self.slot(leg);
        &mut self.legs[i]
    }

    /// Worker `w`'s pending rows, residuals or codec moved: its pull
    /// legs re-size what they read next.
    fn unsize_pulls_of(&mut self, w: usize) {
        let n_shards = self.server.n_shards();
        let legs = &mut self.legs[w * n_shards..(w + 1) * n_shards];
        legs.iter_mut().for_each(|l| l.pull.unsize());
    }

    /// `leg`'s pull.
    pub fn pull_leg(&self, leg: LegId) -> &Leg {
        &self.legs[self.slot(leg)].pull
    }

    /// A worker starts pushing iteration `n` on `leg`: records the floor
    /// and the ranked rows (`plan`: as much of the plan as the driver
    /// can see) with the shard's time budget ([`Self::budget`]), which
    /// the speculative transmission runs under.
    pub fn push_start(
        &mut self,
        leg: LegId,
        n: u64,
        floor: PushFloor,
        plan: &[RowId],
        now: Time,
        journal: &mut Journal,
    ) {
        let state = self.leg(leg);
        state.iter = n;
        state.mta_rows = floor.mta_rows;
        state.push_started = now;
        let (w, tag, budget) = (leg.0 as u32, self.tag(leg.1), self.budget(leg.1));
        let start = EventKind::PushStart {
            w,
            iter: n,
            rows: floor.rows as u32,
            mand: floor.mandatory as u32,
            mta: floor.mta_rows as u32,
            budget,
        };
        obs_shard!(journal, now, tag, start);
        // (An allocating record is built only if the journal takes it.)
        let iter = n;
        obs_shard!(
            journal,
            now,
            tag,
            EventKind::RowPush {
                w,
                iter,
                rows: wire_ids(plan)
            }
        );
    }

    /// Ingests rows of iteration `n` that landed on `leg` (NaN/Inf
    /// values are zeroed in place and counted): folds them into the
    /// member's aggregator window, averages them into every active
    /// worker's pending copy and raises the versions. Returns whether
    /// the shard's `min(V)` advanced — the only push outcome that can
    /// change a parked request's verdict. The pending rows moved, so
    /// every pull leg on the shard whose link codec is content-sized
    /// re-sizes what it reads next.
    pub fn ingest(&mut self, (w, s): LegId, n: u64, rows: &mut RowBatch) -> bool {
        let min_before = self.server.versions(s).global_min();
        if let Some(plane) = self.agg.as_mut() {
            self.agg_ids.clear();
            self.agg_ids.extend(rows.ids().iter().map(|id| id.0));
            plane.on_member_push(w, s, &self.agg_ids, n);
        }
        self.server.on_push(s, w, n, rows);
        let n_shards = self.server.n_shards();
        for v in 0..self.server.n_workers() {
            if self.server.codec(v).is_content_sized() {
                self.legs[v * n_shards + s].pull.unsize();
            }
        }
        self.peak_version_bytes = self
            .peak_version_bytes
            .max(self.server.version_store_bytes());
        self.server.versions(s).global_min() > min_before
    }

    /// When `leg`'s last push started ([`Self::push_start`]).
    pub fn push_started(&self, leg: LegId) -> Time {
        self.legs[self.slot(leg)].push_started
    }

    /// The push of iteration `n` on `leg` left the air: updates the
    /// shard's MTA-time estimate (Algorithm 4 `UpdateMTATime`).
    pub fn push_end(
        &mut self,
        leg: LegId,
        n: u64,
        sent: PushReport,
        now: Time,
        journal: &mut Journal,
    ) {
        let (w, s) = leg;
        let mta_rows = self.leg(leg).mta_rows;
        self.trackers[s].report(w, sent.rows, sent.secs, mta_rows);
        let (w, tag) = (w as u32, self.tag(s));
        let end = EventKind::PushEnd {
            w,
            iter: n,
            rows: sent.rows as u32,
            bytes: sent.bytes,
        };
        obs_shard!(journal, now, tag, end);
        let mta = EventKind::Mta {
            w,
            secs: sent.secs,
            budget: self.budget(s),
        };
        obs_shard!(journal, now, tag, mta);
    }

    /// The worker of `leg`, having pushed iteration `n`, asks for the
    /// shard's pull (Algorithm 2 lines 7–9). A refused request parks.
    pub fn enter_gate(&mut self, leg: LegId, n: u64, now: Time, journal: &mut Journal) -> Gate {
        let state = self.leg(leg);
        state.iter = n;
        state.gate_entered = now;
        if journal.enabled() {
            let (w, s) = leg;
            let versions = self.server.versions(s);
            let (_, row, _) = versions.stalest_cell();
            let min = versions.global_min();
            let enter = EventKind::GateEnter {
                w: w as u32,
                iter: n,
                min,
                lead: n.saturating_sub(min),
                row: self.server.map().to_global(s, RowId(row)).0 as i64,
            };
            journal.record_shard(now, self.tag(s), enter);
        }
        self.retry(leg, n, true)
    }

    /// Starts a release scan: moves every parked request into `scan`,
    /// each to be put through [`Self::retry`] in order. `scan`'s old
    /// buffer becomes the parked list, so a driver that keeps one scan
    /// buffer makes neither list regrow.
    pub fn take_parked(&mut self, scan: &mut Vec<(LegId, u64)>) {
        scan.clear();
        std::mem::swap(&mut self.parked, scan);
    }

    /// (Re-)checks one request: granted if the driver can currently
    /// `reach` the worker and its bound admits iteration `n`, parked
    /// otherwise. `reach = false` parks without a check (a granted pull
    /// was cut off and starts over, or the pusher queues for a scan).
    pub fn retry(&mut self, leg: LegId, n: u64, reach: bool) -> Gate {
        let bound = self.bounds[leg.0].threshold();
        if reach && self.server.versions(leg.1).gate_ok(n, bound) {
            Gate::Granted
        } else {
            self.parked.push((leg, n));
            Gate::Parked
        }
    }

    /// Drops every request `w` has parked (it left, or gave up waiting).
    pub fn withdraw(&mut self, w: usize) {
        self.parked.retain(|&((pw, _), _)| pw != w);
    }

    /// Grants `leg`'s pull: closes the member's aggregator window,
    /// opens the pull leg with the ranked pull plan, each row sized as
    /// the link's codec frames it now, and returns how many of its rows
    /// must get through (the MTA of the shard's rows).
    pub fn grant(&mut self, leg: LegId, now: Time, journal: &mut Journal) -> usize {
        let (w, s) = leg;
        let tag = self.tag(s);
        let state = self.leg(leg);
        let exit = EventKind::GateExit {
            w: w as u32,
            iter: state.iter,
            waited: now - state.gate_entered,
        };
        obs_shard!(journal, now, tag, exit);
        if let Some(plane) = self.agg.as_mut() {
            // The merged rows go upstream ahead of the fresh fetch, and
            // the pull fans out downstream through the aggregator.
            let merged = plane.flush(w, s);
            let agg = plane.map().agg_of(w) as u32;
            plane.on_member_pull();
            if let Some(m) = merged {
                let merge = EventKind::AggMerge {
                    agg,
                    rows: m.rows as u32,
                    raw: m.raw_rows as u32,
                    pushes: m.pushes as u32,
                    ver: m.max_version,
                };
                obs_shard!(journal, now, tag, merge);
            }
        }
        let mta_rows = self.bounds[w].rows(self.server.map().shard_rows(s));
        let i = self.slot(leg);
        let pull = &mut self.legs[i].pull;
        self.server.plan_pull_into(s, w, pull.plan_mut());
        let target = mta_rows.min(pull.plan().len());
        let server = &self.server;
        pull.begin(target, 0, |id| server.payload_bytes_for(w, id));
        target
    }

    /// Payload bytes of the rows `round` of `leg`'s pull carries,
    /// parallel to [`Leg::rows`]: the sizes the grant took, or fresh
    /// ones once the worker's pending rows or link codec moved.
    pub fn pull_sizes(&mut self, (w, s): LegId, round: Round) -> impl Iterator<Item = u64> + '_ {
        let i = self.slot((w, s));
        let server = &self.server;
        self.legs[i]
            .pull
            .round_sizes(round, move |id| server.payload_bytes_for(w, id))
    }

    /// The granted pull (`bytes` on the wire) starts.
    pub fn pull_start(&mut self, leg: LegId, bytes: u64, now: Time, journal: &mut Journal) {
        let (w, tag, iter) = (leg.0 as u32, self.tag(leg.1), self.leg(leg).iter);
        obs_shard!(journal, now, tag, EventKind::PullStart { w, iter, bytes });
        obs_shard!(
            journal,
            now,
            tag,
            EventKind::RowPull {
                w,
                iter,
                rows: wire_ids(self.pull_leg(leg).plan())
            }
        );
    }

    /// One round of `leg`'s pull ended: `sent` of its rows went out, and
    /// `intact` says which arrived (`None`: every row sent landed).
    /// Returns the next round, or `None` once [`Self::settle_pull`] may
    /// drain what landed.
    pub fn pull_round(
        &mut self,
        leg: LegId,
        round: Round,
        sent: usize,
        intact: Option<&[bool]>,
    ) -> Option<Round> {
        self.leg(leg).pull.on_round(round, sent, intact)
    }

    /// The pull ended: drains exactly the rows that landed from the
    /// worker's pending copy (Algorithm 2 lines 12–13) and writes their
    /// values into `out`. A row that did not land stays pending and
    /// re-ranks into a later pull.
    pub fn settle_pull(
        &mut self,
        leg: LegId,
        now: Time,
        journal: &mut Journal,
        out: &mut RowBatch,
    ) {
        let (w, s) = leg;
        let end = EventKind::PullEnd {
            w: w as u32,
            iter: self.leg(leg).iter,
        };
        obs_shard!(journal, now, self.tag(s), end);
        let landed = self.legs[self.slot(leg)].pull.landed();
        self.server.commit_pull_into(s, w, landed, out);
    }

    /// [`Self::settle_pull`]'s drain of `rows`, unjournaled and without
    /// a pull leg.
    pub fn drain_into(&mut self, (w, s): LegId, rows: &[RowId], out: &mut RowBatch) {
        self.server.commit_pull_into(s, w, rows, out);
    }

    /// Gates worker `w` at `bound` and sizes its pulls' MTA by it (the
    /// fraction is solved here, once per move), unjournaled (follow
    /// with a release scan: a loosened gate may admit parked requests).
    /// SSP's bound `t` is RSP threshold `t + 1`.
    pub fn set_bound(&mut self, w: usize, bound: u32) {
        self.bounds[w] = Mta::new(bound);
    }

    /// Worker `w`'s RSP threshold at the gate, with its MTA.
    pub fn bound(&self, w: usize) -> Mta {
        self.bounds[w]
    }

    /// `w` left the cluster: its parked requests are dropped and its
    /// frozen rows stop gating the survivors (follow with a release
    /// scan).
    pub fn deactivate(&mut self, w: usize) {
        self.withdraw(w);
        self.server.deactivate_worker(w);
    }

    /// `w` is back, having adopted a peer's model at iteration `n`: its
    /// stale pending copy is discarded and its version rows restart at
    /// `n`, or at `min(V)` if that moved past `n` meanwhile, so it
    /// neither replays old gradients nor lowers `min(V)` (follow with a
    /// release scan: the new member can only raise it).
    pub fn rejoin(&mut self, w: usize, n: u64) {
        self.server.rejoin_worker(w, n);
        self.unsize_pulls_of(w);
    }
}
