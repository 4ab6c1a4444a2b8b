//! Plumbing shared by the model- and row-granularity engines.

use std::collections::BTreeMap;

use rog_compress::{OneBitCodec, RowCodec};
use rog_core::{AggregatorMap, Leg, Round, RowId};
use rog_fault::{FaultClock, FaultEvent};
use rog_models::{GradSet, Mlp};
use rog_net::{shard_link, FlowEvent, FlowId, FlowOutcome, FlowSpec};
use rog_obs::{obs, obs_shard, Event, EventKind, Journal};
use rog_sim::{DeviceState, EventQueue, Time};
use rog_tensor::Matrix;

use crate::cluster::{Cluster, WorkerDraws};
use crate::config::ExperimentConfig;
use crate::metrics::{ByteAccount, RunMetrics, RunRecord};

/// Queue events (flow events come from the channel directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A worker finished computing gradients for its current iteration,
    /// unless the timer's generation (the second field) is no longer
    /// the worker's.
    ComputeDone(usize, u32),
    /// A reliable-class retransmit backoff expired for a worker: the
    /// engine should resend whatever chunks are still outstanding on
    /// that worker's transfer, unless the timer's generation (the
    /// second field) is no longer the worker's.
    NetRetry(usize, u32),
}

/// Substrate shared by both engines.
#[derive(Debug)]
pub struct EngineCtx {
    /// The run configuration.
    pub cfg: ExperimentConfig,
    /// The simulated cluster (devices, channel, workload).
    pub cluster: Cluster,
    /// Deterministic event queue.
    pub queue: EventQueue<Ev>,
    /// The run's record: per-worker timelines, iterations, checkpoints.
    pub(crate) record: RunRecord,
    /// Scheduled fault injections ([`crate::config::ExperimentConfig::resolved_fault_plan`]);
    /// empty when the run has no plan, which costs nothing on the hot
    /// path (`faults.next_time()` is `None` and the event loop never sees
    /// a fault).
    pub faults: FaultClock,
    /// Workers out of the membership: set when the device departs,
    /// cleared when its rejoin resync lands.
    pub offline: Vec<bool>,
    /// Workers that reached the end of the time budget.
    pub(crate) done: Vec<bool>,
    /// Workers with a gradient computation running (its `ComputeDone`
    /// timer is queued).
    pub(crate) computing: Vec<bool>,
    /// Generation of each worker's one live `ComputeDone` timer: a
    /// departure moves it, so the timer it voided is dropped on arrival.
    compute_timer: Vec<u32>,
    /// Workers whose link is blacked out (device up, radio dead).
    pub link_down: Vec<bool>,
    /// Per-shard parameter-server outage flags (checkpoint/restart).
    /// Length is [`ExperimentConfig::effective_shards`]; unsharded runs
    /// have a single entry.
    pub server_down: Vec<bool>,
    /// Per-aggregator outage flags; a downed aggregator severs all its
    /// member workers from the parameter plane at once.
    agg_down: Vec<bool>,
    /// Which edge aggregator fronts each worker; `None` in a flat
    /// worker→server topology.
    pub(crate) agg_map: Option<AggregatorMap>,
    /// Departed workers whose rejoin resync waits for their path and
    /// every shard to come back.
    resync_pending: Vec<bool>,
    /// Wire size of a whole model: every rejoin resync, and every
    /// transfer of the model-granularity baselines. Both ship the dense
    /// one-bit model (a rejoiner's residuals were just reset, so there
    /// is no content to size against; the codec ladder is row-granular).
    pub(crate) model_wire_bytes: u64,
    /// Deterministic event journal ([`rog_obs`]); disabled unless
    /// `cfg.trace` is set. Recording never feeds back into the
    /// simulation.
    pub journal: Journal,
    /// Each worker's model replica (all start from the cluster's
    /// initial model).
    pub(crate) models: Vec<Mlp>,
    /// Recycled gradient-set buffers (all shaped like the model), so
    /// steady-state draws allocate nothing. Zeroed contents never affect
    /// results: every draw overwrites its buffer from zero.
    grad_pool: Vec<GradSet>,
    /// Each worker's batch and jitter streams and eval cadence.
    pub(crate) draws: Vec<WorkerDraws>,
    /// Which chunks of a finished flow round arrived intact, reused
    /// across rounds.
    intact: Vec<bool>,
}

impl EngineCtx {
    /// Builds the substrate for a config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let mut cluster = Cluster::build(cfg);
        let n = cfg.n_workers;
        let plan = cfg.resolved_fault_plan();
        if let Some(model) = cfg.resolved_loss_model(plan.as_ref()) {
            cluster.transport.set_loss_model(Some(model));
        }
        let faults = plan.map_or_else(FaultClock::default, |plan| plan.schedule());
        let models = vec![cluster.init_model.clone(); n];
        let mut journal = Journal::new(cfg.trace);
        let record = RunRecord::open(cfg, &cluster, 0..n, &mut journal);
        let draws = (0..n).map(|w| WorkerDraws::new(cfg, &cluster, w)).collect();
        let n_aggs = cfg.effective_aggregators();
        let model_wire_bytes = cluster.scaled_model_bytes(
            cluster
                .init_model
                .row_widths()
                .iter()
                .map(|&w| OneBitCodec.payload_bytes(w)),
        );
        Self {
            cfg: cfg.clone(),
            cluster,
            // A fleet-scale run schedules O(workers) compute timers and
            // retry backoffs up front; sizing the heap once avoids its
            // cold-start doubling reallocations. Capacity never affects
            // pop order, so this is behavior-neutral.
            queue: EventQueue::with_capacity(2 * n + 16),
            record,
            faults,
            offline: vec![false; n],
            done: vec![false; n],
            computing: vec![false; n],
            compute_timer: vec![0; n],
            link_down: vec![false; n],
            server_down: vec![false; cfg.effective_shards()],
            agg_down: vec![false; n_aggs],
            agg_map: (n_aggs > 0).then(|| AggregatorMap::contiguous(n, n_aggs)),
            resync_pending: vec![false; n],
            model_wire_bytes,
            journal,
            models,
            grad_pool: Vec::new(),
            draws,
            intact: Vec::new(),
        }
    }

    /// The virtual time budget.
    pub fn duration(&self) -> Time {
        self.cfg.duration_secs
    }

    /// Whether any parameter-server shard is currently down.
    pub fn any_server_down(&self) -> bool {
        self.server_down.iter().any(|&d| d)
    }

    /// Whether `w`'s path to the parameter plane is severed: its own
    /// link is blacked out, or its fronting aggregator is down. Every
    /// connectivity decision goes through this, so an aggregator outage
    /// behaves exactly like a blackout of all its members at once.
    fn path_blocked(&self, w: usize) -> bool {
        self.link_down[w]
            || self
                .agg_map
                .as_ref()
                .is_some_and(|m| self.agg_down[m.agg_of(w)])
    }

    /// The workers fronted by aggregator `a`.
    fn agg_members(&self, a: usize) -> Vec<usize> {
        self.agg_map
            .as_ref()
            .expect("aggregator faults are validated against the topology")
            .members(a)
            .to_vec()
    }

    /// Whether worker `w` and shard `s` can exchange a pull right now:
    /// the `reach` of a release scan.
    pub(crate) fn reachable(&self, w: usize, s: usize) -> bool {
        !self.offline[w] && !self.path_blocked(w) && !self.server_down[s]
    }

    /// Whether worker `w` may start a push: its path is up and at least
    /// one shard is (a cycle skips the shards that are down).
    pub(crate) fn can_push(&self, w: usize) -> bool {
        !self.path_blocked(w) && self.server_down.contains(&false)
    }

    /// Whether worker `w` may start its rejoin resync: its path is up
    /// and every shard is (the resync carries whole-model state).
    fn can_resync(&self, w: usize) -> bool {
        !self.path_blocked(w) && !self.any_server_down()
    }

    /// Marks a worker's state at time `t` in the run's record.
    pub fn set_state(&mut self, worker: usize, t: Time, state: DeviceState) {
        self.record.set_state(worker, t, state, &mut self.journal);
    }

    /// Takes the delivery report of worker `w`'s flow round that left
    /// the air, journals the chunks the loss model ate in journal scope
    /// `shard`, and returns each chunk's intact flag (`None` without a
    /// loss model: every chunk sent arrived).
    pub(crate) fn take_fates(&mut self, w: usize, shard: i64, ev: &FlowEvent) -> Option<&[bool]> {
        let report = self.cluster.transport.take_report(ev.id)?;
        let lost = report.lost_chunks();
        let corrupt = report.corrupt_chunks();
        if lost + corrupt > 0 {
            obs_shard!(
                self.journal,
                ev.at,
                shard,
                EventKind::Loss {
                    w: w as u32,
                    lost: lost as u32,
                    corrupt: corrupt as u32,
                    chunks: report.fates.len() as u32,
                }
            );
        }
        self.intact.clear();
        self.intact.extend(report.fates.iter().map(|f| f.intact()));
        Some(&self.intact)
    }

    /// Starts a worker's compute phase of iteration `iter` at `t`.
    pub fn start_compute(&mut self, worker: usize, iter: u64, t: Time) {
        self.record.iter_begin(worker, iter, t, &mut self.journal);
        self.computing[worker] = true;
        self.set_state(worker, t, DeviceState::Compute);
        let dt = self.draws[worker].compute_secs();
        let timer = self.compute_timer[worker];
        self.queue.push(t + dt, Ev::ComputeDone(worker, timer));
    }

    /// The device running worker `w`'s computation departed: its queued
    /// `ComputeDone` timer (if any) is dropped on arrival.
    fn void_compute(&mut self, w: usize) {
        self.compute_timer[w] = self.compute_timer[w].wrapping_add(1);
        self.computing[w] = false;
    }

    /// A `ComputeDone` timer of worker `w` and generation `timer`
    /// arrived. Returns `true` when a departure voided it since, even if
    /// the worker armed a new one meanwhile; otherwise the computation
    /// is over. A voided timer still takes the batch sample its draw
    /// would have taken: the worker's stream advances once per timer
    /// armed, whether or not the computation survived (the pinned
    /// artifacts depend on it).
    fn compute_timer_is_stale(&mut self, w: usize, timer: u32) -> bool {
        if timer != self.compute_timer[w] {
            self.draws[w].next_batch(&self.cluster.workload.shards()[w]);
            return true;
        }
        self.computing[w] = false;
        false
    }

    /// Journals an injected fault. The record carries a shard scope only
    /// when the run is actually sharded, so single-shard journals stay
    /// byte-identical to the pre-shard engine's.
    fn journal_fault(&mut self, f: FaultEvent, now: Time) {
        let tag = if self.server_down.len() > 1 {
            f.shard().map_or(Event::NO_SHARD, |s| s as i64)
        } else {
            Event::NO_SHARD
        };
        obs_shard!(
            self.journal,
            now,
            tag,
            EventKind::Fault {
                kind: f.name(),
                // Aggregator faults scope `w` to the aggregator index
                // (the `kind` disambiguates); server faults use the
                // shard tag and leave `w` at -1.
                w: f.worker()
                    .or_else(|| f.aggregator())
                    .map_or(-1, |w| w as i64),
            }
        );
    }

    /// Pops a recycled gradient buffer, or builds a fresh one (every
    /// replica is shaped like the initial model).
    pub fn take_grad_buf(&mut self) -> GradSet {
        self.grad_pool
            .pop()
            .unwrap_or_else(|| self.cluster.init_model.zero_grads())
    }

    /// Returns a consumed gradient set to the recycle pool.
    pub fn recycle_grads(&mut self, grads: GradSet) {
        self.grad_pool.push(grads);
    }

    /// Records that the worker completed iteration `iter` at `t`, then
    /// evaluates its model and records a checkpoint if `iter` is on the
    /// cadence.
    pub fn end_iteration(&mut self, worker: usize, iter: u64, t: Time) {
        self.record.iter_end(worker, iter, t, &mut self.journal);
        if self.draws[worker].evaluates_at(iter) {
            let metric = self.cluster.workload.test_metric(&self.models[worker]);
            self.record.record_eval(iter, t, metric);
        }
    }

    /// Assembles the final metrics (the workers' final models feed the
    /// realized divergence diagnostic), returning them with the event
    /// journal, which the record closes with its `close` markers and
    /// `run_end` footer.
    pub fn finish(mut self) -> (RunMetrics, Journal) {
        // No gradient is drawn past this point: the recycled buffers
        // make room for the divergence pass's centroid.
        self.grad_pool = Vec::new();
        let divergence = relative_model_divergence(&self.models);
        let bytes = ByteAccount {
            useful: self.cluster.transport.useful_bytes(),
            wasted: self.cluster.transport.wasted_bytes(),
            lost: self.cluster.transport.lost_bytes(),
            corrupt: self.cluster.transport.corrupt_bytes(),
        };
        #[cfg(debug_assertions)]
        {
            // Invariant watchdog: every offered byte must be classified as
            // exactly one of useful / wasted / lost / corrupt.
            let err = self.cluster.transport.byte_conservation_error();
            let offered = self.cluster.transport.offered_bytes().abs();
            assert!(
                err <= 1e-6 * offered.max(1.0),
                "byte conservation violated: residual {err} of {offered} offered"
            );
        }
        let duration = self.cfg.duration_secs;
        let metrics = self
            .record
            .finish(duration, bytes, divergence, &mut self.journal);
        (metrics, self.journal)
    }
}

/// Segment size for reliable-class transfers under a loss model: a lost
/// chunk costs one segment's retransmit, not the whole payload.
const RELIABLE_SEGMENT_BYTES: u64 = 64 * 1024;

/// Capped exponential backoff: the delay before retransmission number
/// `attempt` (1-based: the first waits 0.1 s, each further one twice
/// as long, never more than 2 s).
fn backoff(attempt: u32) -> Time {
    let exp = attempt.saturating_sub(1).min(63);
    (0.1 * 2f64.powi(exp as i32)).min(2.0)
}

/// One worker's reliable-class transfer: must-deliver traffic (rejoin
/// resyncs; every whole-model transfer of the baselines) that is resent
/// after a backoff until it lands, where best-effort rows are simply
/// not committed. At most one such transfer runs per worker.
///
/// Its units are a [`Leg`] in which every unit must land: the first
/// round puts them all on the air as one flow, the delivery report
/// marks each as arrived or not, and each retransmit round, after a
/// backoff, carries the ones still missing. The loss model's per-chunk
/// loss probability is capped below 1, so a transfer always terminates.
#[derive(Default)]
struct Reliable {
    /// The transfer's units and their rounds.
    leg: Leg,
    /// The link the transfer runs on.
    link: usize,
    /// Rounds that lost units so far (the backoff exponent).
    attempt: u32,
}

/// The in-flight transfers of one engine: what each flow on the channel
/// is for (`C`, the engine's flow context), how many each worker has on
/// the air, and the per-worker reliable-class transfer and backoff.
pub(crate) struct FlowTable<C> {
    /// Owner and context per flow; ordered, so cancellations run in
    /// flow-id order.
    flows: BTreeMap<FlowId, (usize, C)>,
    in_flight: Vec<u32>,
    /// Each worker's reliable transfer, built on its first one (a ROG
    /// worker has one only to resync after a rejoin) and reused after.
    reliable: Vec<Option<Box<Reliable>>>,
    /// Generation of each worker's one live `NetRetry` timer: arming or
    /// voiding a timer moves it, so an older timer is dropped on arrival.
    timers: Vec<u32>,
    /// Each worker's flow context parked while its backoff runs.
    parked: Vec<Option<C>>,
}

impl<C> FlowTable<C> {
    pub(crate) fn new(n_workers: usize) -> Self {
        Self {
            flows: BTreeMap::new(),
            in_flight: vec![0; n_workers],
            reliable: (0..n_workers).map(|_| None).collect(),
            timers: vec![0; n_workers],
            parked: (0..n_workers).map(|_| None).collect(),
        }
    }

    /// Abandons worker `w`'s reliable transfer (fault site): voids its
    /// backoff timer and returns the parked context if the backoff was
    /// running.
    fn abandon(&mut self, w: usize) -> Option<C> {
        self.timers[w] = self.timers[w].wrapping_add(1);
        self.parked[w].take()
    }

    /// Worker `w`'s reliable transfer, once one was started.
    fn transfer(&mut self, w: usize) -> &mut Reliable {
        self.reliable[w].as_deref_mut().expect("started")
    }

    /// Puts a transfer of worker `w` on the air.
    pub(crate) fn start(
        &mut self,
        ctx: &mut EngineCtx,
        now: Time,
        w: usize,
        spec: FlowSpec,
        flow: C,
    ) {
        let id = ctx.cluster.transport.start_flow(now, spec);
        self.in_flight[w] += 1;
        self.flows.insert(id, (w, flow));
    }

    /// Deregisters a transfer that left the air, returning its context.
    fn finish(&mut self, id: FlowId) -> Option<C> {
        let (w, flow) = self.flows.remove(&id)?;
        self.in_flight[w] -= 1;
        Some(flow)
    }

    /// Sets worker `w`'s state after its transfers changed: `Compute`
    /// while a gradient computation runs (pipeline mode),
    /// `Communicate` while transfers to other shards are still on the
    /// air — one stalled or finished leg must not misattribute the whole
    /// device's time — and `fallback` otherwise.
    pub(crate) fn settle(&self, ctx: &mut EngineCtx, w: usize, now: Time, fallback: DeviceState) {
        let state = if ctx.computing[w] {
            DeviceState::Compute
        } else if self.in_flight[w] > 0 {
            DeviceState::Communicate
        } else {
            fallback
        };
        ctx.set_state(w, now, state);
    }

    /// Cancels every in-flight transfer `doomed` selects (by owner and
    /// context), returning owners and contexts in flow-id order so the
    /// caller can decide what (if anything) resumes. Cancelled
    /// transfers acknowledge nothing: every byte already on the air is
    /// wasted and any retransmission starts from scratch.
    fn cancel_where(
        &mut self,
        ctx: &mut EngineCtx,
        doomed: impl Fn(usize, &C) -> bool,
    ) -> Vec<(usize, C)> {
        let ids: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, (w, flow))| doomed(*w, flow))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| {
                ctx.cluster.transport.cancel_flow(id);
                let (w, flow) = self.flows.remove(&id).expect("just listed");
                self.in_flight[w] -= 1;
                (w, flow)
            })
            .collect()
    }

    /// Worker `w` lost its path (or its power): its in-flight transfers
    /// are cancelled and its reliable transfer abandoned. Returns the
    /// contexts of everything that was on the air or parked in a
    /// retransmit backoff (which has no flow to cancel).
    fn sever(&mut self, ctx: &mut EngineCtx, w: usize) -> Vec<C> {
        let cut = self.cancel_where(ctx, |owner, _| owner == w).into_iter();
        let cut = cut.map(|(_, flow)| flow);
        cut.chain(self.abandon(w)).collect()
    }

    /// Starts a reliable-class transfer of `bytes` for worker `w` over
    /// `link`. With a loss model installed its units are segments (their
    /// boundaries set only the loss granularity of a no-deadline flow);
    /// without one it is a single chunk, since a cancelled flow's
    /// useful bytes are counted in whole chunks.
    pub(crate) fn start_reliable(
        &mut self,
        ctx: &mut EngineCtx,
        now: Time,
        w: usize,
        link: usize,
        bytes: u64,
        flow: C,
    ) {
        let unit = if ctx.cluster.transport.loss_enabled() {
            RELIABLE_SEGMENT_BYTES
        } else {
            bytes.max(1)
        };
        let r = self.reliable[w].get_or_insert_with(Box::default);
        r.link = link;
        r.attempt = 0;
        let units = bytes.div_ceil(unit).max(1) as usize;
        r.leg
            .open_must_land(units, |RowId(i)| (bytes - i as u64 * unit).min(unit));
        self.send_reliable(ctx, now, w, Round::Speculative, flow);
    }

    /// Puts `round` of worker `w`'s reliable transfer on the air, one
    /// chunk per unit.
    fn send_reliable(&mut self, ctx: &mut EngineCtx, now: Time, w: usize, round: Round, flow: C) {
        let r = self.transfer(w);
        // A spare slot: the channel keeps the buffer for its totals.
        let mut chunks = Vec::with_capacity(r.leg.rows(round).len() + 1);
        chunks.extend(r.leg.round_sizes(round, |_| unreachable!("never unsized")));
        let spec = FlowSpec::new(r.link, chunks);
        self.start(ctx, now, w, spec, flow);
    }

    /// A round of worker `w`'s reliable transfer finished. Returns the
    /// flow's context once everything has landed; while units are
    /// still missing it stalls the worker and arms the backed-off
    /// retransmit instead.
    pub(crate) fn on_reliable_round(
        &mut self,
        ctx: &mut EngineCtx,
        w: usize,
        ev: &FlowEvent,
        flow: C,
    ) -> Option<C> {
        // Reliable flows have no deadline (and cancels are reaped at
        // the fault site): a round loses chunks exactly when it has
        // some to resend.
        debug_assert!(matches!(ev.outcome, FlowOutcome::Completed));
        let intact = ctx.take_fates(w, Event::NO_SHARD, ev);
        let r = self.transfer(w);
        let round = if r.attempt == 0 {
            Round::Speculative
        } else {
            Round::Retransmit
        };
        let sent = r.leg.rows(round).len();
        if r.leg.on_round(round, sent, intact).is_none() {
            return Some(flow);
        }
        r.attempt += 1;
        let until = ev.at + backoff(r.attempt);
        self.parked[w] = Some(flow);
        self.timers[w] = self.timers[w].wrapping_add(1);
        // The whole transfer blocks on the backed-off retransmit (the
        // reliable class has nothing to degrade to), stalling this
        // worker.
        obs!(
            ctx.journal,
            ev.at,
            EventKind::Backoff { w: w as u32, until }
        );
        ctx.set_state(w, ev.at, DeviceState::Stall);
        ctx.queue.push(until, Ev::NetRetry(w, self.timers[w]));
        None
    }

    /// A reliable-class backoff timer of generation `timer` expired:
    /// resend the units still missing. Every path-down transition
    /// abandons the transfer through [`Self::abandon`], which voids the
    /// timer, so a timer that fires here always finds its path up.
    fn on_net_retry(&mut self, ctx: &mut EngineCtx, w: usize, timer: u32, now: Time) {
        if timer != self.timers[w] {
            return;
        }
        let flow = self.parked[w]
            .take()
            .expect("a live timer has a parked transfer");
        obs!(
            ctx.journal,
            now,
            EventKind::Retransmit {
                w: w as u32,
                rows: self.transfer(w).leg.rows(Round::Retransmit).len() as u32,
                class: "reliable",
            }
        );
        ctx.set_state(w, now, DeviceState::Communicate);
        self.send_reliable(ctx, now, w, Round::Retransmit, flow);
    }
}

/// What the shared fault lifecycle needs to know about an engine's
/// flow context.
pub(crate) trait Transfer {
    /// Worker `w`'s rejoin resync.
    fn resync(w: usize) -> Self;
    /// The shard the transfer talks to; `None` for a rejoin resync,
    /// which carries whole-model state and so needs every shard.
    fn shard(&self) -> Option<usize>;
}

/// What the shared event loop ([`drive`]) and fault lifecycle
/// ([`apply_fault`]) dispatch into: the hooks each engine fills in with
/// its own protocol.
pub(crate) trait Engine {
    /// What the engine remembers about one in-flight transfer.
    type Flow: Transfer;
    /// The shared substrate and the in-flight transfer table.
    fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<Self::Flow>);
    /// Starts worker `w`'s next gradient computation at `now`.
    fn start_compute(&mut self, w: usize, now: Time);
    /// An in-flight transfer finished (or hit its deadline).
    fn on_flow(&mut self, flow: Self::Flow, ev: FlowEvent);
    /// Worker `w`'s gradient computation finished.
    fn on_compute_done(&mut self, w: usize, now: Time);
    /// Iterations worker `w` has completed (what a rejoiner adopts).
    fn iteration(&self, w: usize) -> u64;
    /// Worker `w` departed (its flows are severed, its timer voided):
    /// what its cycle and the parameter plane forget.
    fn depart(&mut self, w: usize, now: Time);
    /// A fault cut worker `w`'s `flow` (never a resync): mark what it
    /// restarts as.
    fn suspend(&mut self, w: usize, flow: Self::Flow);
    /// Online worker `w`'s path is up again: restart what it suspended,
    /// to the extent the shards are.
    fn resume(&mut self, w: usize, now: Time);
    /// The release scan: every parked request the engine can reach is
    /// put to its gate again.
    fn drain_waiting(&mut self, now: Time);
    /// Worker `w`'s rejoin resync landed and it adopted iteration `n`:
    /// the engine's part of the rejoin.
    fn rejoin(&mut self, w: usize, n: u64, now: Time);
}

/// Runs an engine to the end of its virtual time budget and returns the
/// number of events dispatched (flow completions, faults, timers) — a
/// wall-clock-free progress measure, identical across hosts.
///
/// Same-instant order: flow completions, then injected faults, then one
/// queue timer.
pub(crate) fn drive(e: &mut impl Engine) -> u64 {
    let duration = e.parts().0.duration();
    for w in 0..e.parts().0.cfg.n_workers {
        e.start_compute(w, 0.0);
    }
    let mut dispatched = 0u64;
    loop {
        let (ctx, flows) = e.parts();
        let horizon = ctx
            .queue
            .peek_time()
            .unwrap_or(f64::INFINITY)
            .min(ctx.faults.next_time().unwrap_or(f64::INFINITY))
            .min(duration);
        let evs = ctx.cluster.transport.advance_until(horizon);
        let now = ctx.cluster.transport.now();
        if !evs.is_empty() {
            dispatched += evs.len() as u64;
            for ev in evs {
                let flow = e.parts().1.finish(ev.id).expect("unknown flow");
                e.on_flow(flow, ev);
            }
            continue;
        }
        if now >= duration - 1e-9 {
            break;
        }
        // Injected faults fire before timers at the same instant (flow
        // completions were already delivered above), recoveries first.
        let faults = ctx.faults.pop_due(now);
        if !faults.is_empty() {
            dispatched += faults.len() as u64;
            for f in faults {
                apply_fault(e, f, now);
            }
            continue;
        }
        match ctx.queue.pop() {
            Some((t, ev)) => {
                dispatched += 1;
                match ev {
                    Ev::ComputeDone(w, timer) => {
                        if !ctx.compute_timer_is_stale(w, timer) {
                            e.on_compute_done(w, t);
                        }
                    }
                    Ev::NetRetry(w, timer) => flows.on_net_retry(ctx, w, timer, t),
                }
            }
            None => {
                // No timers and no flow finished before the horizon:
                // if flows are in flight the next loop advances them;
                // otherwise nothing can ever happen again.
                if ctx.cluster.transport.active_flows() == 0 && ctx.faults.next_time().is_none() {
                    break;
                }
            }
        }
    }
    dispatched
}

/// What a worker does when its cycle (or rejoin) completes: start the
/// next computation, or go `Idle` for good once the time budget is
/// spent.
pub(crate) fn compute_or_retire(e: &mut impl Engine, w: usize, now: Time) {
    let ctx = e.parts().0;
    if now < ctx.duration() {
        e.start_compute(w, now);
    } else {
        ctx.done[w] = true;
        ctx.set_state(w, now, DeviceState::Idle);
    }
}

/// Flips one outage mask entry on a fault edge. A plan's edges of one
/// target alternate down, up, down (`FaultPlan::try_push` refuses
/// overlapping windows of a kind, and the clock orders recoveries first
/// at a shared instant), so the entry always changes.
fn flip(mask: &mut [bool], i: usize, down: bool) {
    debug_assert_ne!(mask[i], down, "fault edges of one target alternate");
    mask[i] = down;
}

/// Applies one injected fault: journals it, moves the connectivity
/// masks and runs the fault lifecycle both engines share. The engine's
/// hooks hold only what its cycle suspends and resumes.
fn apply_fault(e: &mut impl Engine, f: FaultEvent, now: Time) {
    let (ctx, flows) = e.parts();
    ctx.journal_fault(f, now);
    match f {
        FaultEvent::WorkerDown(w) => {
            // Every in-flight transfer dies with the device; nothing
            // resumes (the rejoin rebuilds the cycle from the resynced
            // model instead).
            flows.sever(ctx, w);
            ctx.set_state(w, now, DeviceState::Offline);
            if ctx.offline[w] {
                // Still out from an earlier outage: that window's rejoin
                // resync, cut above or still pending, is void. This
                // window's return starts the one resync.
                ctx.resync_pending[w] = false;
                return;
            }
            ctx.offline[w] = true;
            ctx.void_compute(w);
            e.depart(w, now);
        }
        FaultEvent::WorkerUp(w) => {
            debug_assert!(ctx.offline[w], "worker {w} returns from no outage");
            if ctx.can_resync(w) {
                start_resync(e, w, now);
            } else {
                // Powered on but unreachable: resync once the path and
                // every shard are back.
                ctx.resync_pending[w] = true;
            }
        }
        FaultEvent::BlackoutStart(w) => {
            flip(&mut ctx.link_down, w, true);
            sever(e, w, now);
        }
        FaultEvent::BlackoutEnd(w) => {
            flip(&mut ctx.link_down, w, false);
            resume(e, w, now);
            e.drain_waiting(now);
        }
        FaultEvent::AggregatorDown(a) => {
            // The members' own radios stay up: `link_down` is untouched
            // and `path_blocked` composes the two masks.
            flip(&mut ctx.agg_down, a, true);
            for w in ctx.agg_members(a) {
                sever(e, w, now);
            }
        }
        FaultEvent::AggregatorUp(a) => {
            flip(&mut ctx.agg_down, a, false);
            for w in ctx.agg_members(a) {
                resume(e, w, now);
            }
            e.drain_waiting(now);
        }
        FaultEvent::ServerDown(s) => {
            flip(&mut ctx.server_down, s, true);
            // Flows to the failed shard die; resyncs carry whole-model
            // state and need every shard, so they die with it too, as
            // does every reliable retransmit parked in its backoff.
            let cut = flows.cancel_where(ctx, |_, c| c.shard().is_none_or(|cs| cs == s));
            for (w, flow) in cut {
                suspend(e, w, flow);
                let (ctx, flows) = e.parts();
                if !ctx.offline[w] && !ctx.done[w] {
                    flows.settle(ctx, w, now, DeviceState::Stall);
                }
            }
            for w in 0..e.parts().0.cfg.n_workers {
                if let Some(flow) = e.parts().1.abandon(w) {
                    suspend(e, w, flow);
                }
            }
        }
        FaultEvent::ServerUp(s) => {
            flip(&mut ctx.server_down, s, false);
            for w in 0..ctx.cfg.n_workers {
                if !e.parts().0.path_blocked(w) {
                    resume(e, w, now);
                }
            }
            e.drain_waiting(now);
        }
    }
}

/// Worker `w`'s path to the parameter plane went down: whatever it had
/// on the air, or parked in a retransmit backoff, dies and is marked to
/// restart when the path returns; an idle worker stalls.
fn sever(e: &mut impl Engine, w: usize, now: Time) {
    let (ctx, flows) = e.parts();
    for flow in flows.sever(ctx, w) {
        suspend(e, w, flow);
    }
    let (ctx, flows) = e.parts();
    if !ctx.offline[w] && !ctx.done[w] {
        flows.settle(ctx, w, now, DeviceState::Stall);
    }
}

/// Marks what a cut transfer restarts as: a resync waits in
/// [`EngineCtx`], everything else is the engine's to resume.
fn suspend<E: Engine>(e: &mut E, w: usize, flow: E::Flow) {
    if flow.shard().is_none() {
        e.parts().0.resync_pending[w] = true;
    } else {
        e.suspend(w, flow);
    }
}

/// Restarts whatever worker `w` had suspended, to the extent its path
/// and the parameter shards are reachable again.
fn resume(e: &mut impl Engine, w: usize, now: Time) {
    let ctx = e.parts().0;
    if ctx.offline[w] {
        if ctx.resync_pending[w] && ctx.can_resync(w) {
            start_resync(e, w, now);
        }
        return;
    }
    if !ctx.path_blocked(w) {
        e.resume(w, now);
    }
}

/// Starts the reliable-class full-model transfer that brings departed
/// worker `w` back in sync before it may train again, over its link to
/// shard 0.
fn start_resync<E: Engine>(e: &mut E, w: usize, now: Time) {
    let (ctx, flows) = e.parts();
    ctx.resync_pending[w] = false;
    let bytes = ctx.model_wire_bytes;
    obs!(
        ctx.journal,
        now,
        EventKind::ResyncStart { w: w as u32, bytes }
    );
    ctx.set_state(w, now, DeviceState::Communicate);
    let link = shard_link(w, ctx.server_down.len(), 0);
    flows.start_reliable(ctx, now, w, link, bytes, E::Flow::resync(w));
}

/// Worker `w`'s rejoin resync landed. It adopts the model of the most
/// advanced online peer (ties break to the lowest index) — the closest
/// stand-in the simulation has for the server streaming its current
/// model; any choice within the staleness bound is admissible — or
/// keeps its own when alone. The engine takes its part of the rejoin at
/// the adopted iteration, and the worker is back in the membership:
/// it trains on. Its version rows restart at the adopted iteration or
/// at `min(V)`, whichever is later (a peer that pushed iteration
/// `n + 1` and waits on its pull has completed only `n`), so the rejoin
/// can only open the gates further.
pub(crate) fn finish_rejoin(e: &mut impl Engine, w: usize, now: Time) {
    debug_assert!(e.parts().0.offline[w], "worker {w} rejoins twice");
    let mut reference: Option<(usize, u64)> = None;
    for i in 0..e.parts().0.cfg.n_workers {
        if i != w && !e.parts().0.offline[i] {
            let iter = e.iteration(i);
            if reference.is_none_or(|(_, best)| iter > best) {
                reference = Some((i, iter));
            }
        }
    }
    let iter = reference.map_or_else(|| e.iteration(w), |(_, iter)| iter);
    let ctx = e.parts().0;
    if let Some((r, _)) = reference {
        ctx.models[w] = ctx.models[r].clone();
    }
    obs!(ctx.journal, now, EventKind::ResyncEnd { w: w as u32, iter });
    e.rejoin(w, iter, now);
    e.parts().0.offline[w] = false;
    compute_or_retire(e, w, now);
    e.drain_waiting(now);
}

/// Partners handled per pass over one model in
/// [`relative_model_divergence`]: enough independent `f64` add chains
/// to hide the add latency, few enough to stay in registers.
const DIVERGENCE_BLOCK: usize = 8;

/// `Σ (x − y)²` of `x` against each of `B` same-length slices, one
/// accumulator per slice. Every sum takes its terms in element order,
/// exactly as a one-pair loop would; only the adds of *different* pairs
/// overlap.
fn squared_distances<const B: usize>(x: &[f32], ys: [&[f32]; B]) -> [f64; B] {
    let ys = ys.map(|y| &y[..x.len()]);
    let mut acc = [0.0f64; B];
    for (e, &xe) in x.iter().enumerate() {
        for (a, y) in acc.iter_mut().zip(&ys) {
            *a += f64::from(xe - y[e]).powi(2);
        }
    }
    acc
}

/// Squared L2 distance from `model` to each of `partners`: per pair,
/// the per-matrix sums of [`squared_distances`] added in parameter
/// order.
fn squared_model_distances<const B: usize>(model: &[Matrix], partners: [&[Matrix]; B]) -> [f64; B] {
    let mut acc = [0.0f64; B];
    for (m, x) in model.iter().enumerate() {
        let ys = partners.map(|p| p[m].as_slice());
        for (a, d) in acc.iter_mut().zip(squared_distances(x.as_slice(), ys)) {
            *a += d;
        }
    }
    acc
}

/// Mean L2 norm of the models' parameters.
fn mean_parameter_norm<M: AsRef<[Matrix]>>(models: &[M]) -> f64 {
    models
        .iter()
        .map(|m| {
            m.as_ref()
                .iter()
                .map(|p| f64::from(p.frobenius_norm()).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .sum::<f64>()
        / models.len() as f64
}

/// Parameters at or above this magnitude, and non-finite ones, switch
/// [`PairBound`] off: below it no `f32` difference can overflow.
const BOUNDED_MAGNITUDE: f32 = (1u128 << 126) as f32;

/// An upper bound on the *computed* distance of every pair of models,
/// from each model's computed distance to their centroid.
///
/// Write `k(a, b)` for what [`squared_model_distances`] and `sqrt`
/// return for two models of `P` parameters whose differences stay
/// below 2¹²⁷ in magnitude, and `u = 2⁻⁵³`. Each `f32` difference is
/// within a factor `1 ± 2⁻²⁴` of the exact one (a subnormal difference
/// is exact, and none overflows); its square is exact in `f64` (48
/// significant bits, exponent in range); each square passes through at
/// most `P − 1` rounded additions of non-negative values and the root
/// rounds once, so
///
/// ```text
/// (1 − 2⁻²⁴)(1 − u)^((P+1)/2) ‖a − b‖ ≤ k(a, b) ≤ (1 + 2⁻²⁴)(1 + u)^((P+1)/2) ‖a − b‖.
/// ```
///
/// Models below [`BOUNDED_MAGNITUDE`] qualify, and so does their
/// centroid `c`, summed in `f64` and rounded to `f32` (`|c| ≤ 2¹²⁶`):
/// `r̂_i = k(c, x_i)`. The triangle inequality
/// `‖x_i − x_j‖ ≤ ‖x_i − c‖ + ‖x_j − c‖` holds for any point, so
/// `k(x_i, x_j) ≤ ρ (r̂_i + r̂_j)` with `ln ρ ≤ 2⁻²³ + (P + 1)u` (to
/// first order; the next terms are below 2⁻⁷⁰). The bound is evaluated as `fl(fl(r̂_i + r̂_j) · fl(1 + s))`,
/// at worst three roundings down, so it is at least `k(x_i, x_j)` once
/// `ln(1 + s) − 3u ≥ ln ρ`: with `s = 2⁻²² + 4P·u` the margin is
/// `2⁻²³ + (3P − 4)u − s²/2 > 0` for every `P < 2⁴⁸`. A pair whose
/// bound is below a distance already computed cannot be the maximum.
///
/// If any parameter is non-finite or at least [`BOUNDED_MAGNITUDE`],
/// every radius is `+∞`: every bound passes and, radii tied, the search
/// visits every pair in index order, as the exhaustive loop did.
struct PairBound {
    radii: Vec<f64>,
    scale: f64,
}

impl PairBound {
    fn new<M: AsRef<[Matrix]>>(models: &[M]) -> Self {
        let params: usize = models[0].as_ref().iter().map(Matrix::len).sum();
        let scale = 1.0 + (2f64.powi(-22) + 4.0 * params as f64 * f64::EPSILON / 2.0);
        let radii = match centroid(models) {
            Some(c) => distances_from(&c, models),
            None => vec![f64::INFINITY; models.len()],
        };
        Self { radii, scale }
    }

    /// At least the computed distance between models `i` and `j`.
    fn of(&self, i: usize, j: usize) -> f64 {
        (self.radii[i] + self.radii[j]) * self.scale
    }
}

/// The models' mean, summed in `f64` and rounded to `f32`, in the
/// models' own matrix shapes; `None` if a parameter is non-finite or
/// at least [`BOUNDED_MAGNITUDE`]. The sums run a stack block of
/// elements at a time, so the only heap is the centroid itself.
fn centroid<M: AsRef<[Matrix]>>(models: &[M]) -> Option<Vec<Matrix>> {
    const BLOCK: usize = 256;
    let inv = 1.0 / models.len() as f64;
    let mut bounded = true;
    let mut centroid: Vec<Matrix> = models[0]
        .as_ref()
        .iter()
        .map(|m| Matrix::zeros(m.rows(), m.cols()))
        .collect();
    for (k, c) in centroid.iter_mut().enumerate() {
        for (b, c) in c.as_mut_slice().chunks_mut(BLOCK).enumerate() {
            let mut sum = [0.0f64; BLOCK];
            for model in models {
                let x = &model.as_ref()[k].as_slice()[b * BLOCK..][..c.len()];
                for (s, &v) in sum.iter_mut().zip(x) {
                    *s += f64::from(v);
                    bounded &= v.abs() < BOUNDED_MAGNITUDE;
                }
            }
            for (c, s) in c.iter_mut().zip(sum) {
                *c = (s * inv) as f32;
            }
        }
    }
    bounded.then_some(centroid)
}

/// The computed distance from `model` to each of `models`,
/// [`DIVERGENCE_BLOCK`] at a time.
fn distances_from<M: AsRef<[Matrix]>>(model: &[Matrix], models: &[M]) -> Vec<f64> {
    let mut out = Vec::with_capacity(models.len());
    let mut blocks = models.chunks_exact(DIVERGENCE_BLOCK);
    for block in &mut blocks {
        let partners: [&[Matrix]; DIVERGENCE_BLOCK] = std::array::from_fn(|k| block[k].as_ref());
        out.extend(squared_model_distances(model, partners).map(f64::sqrt));
    }
    for partner in blocks.remainder() {
        let [d] = squared_model_distances(model, [partner.as_ref()]);
        out.push(d.sqrt());
    }
    out
}

/// The largest computed distance between two of `models` (at least
/// two), and how many pairs were summed to find it.
///
/// An exact best-first search: models in descending [`PairBound`]
/// radius (ties in index order), each against the models after it in
/// that order while the pair's bound reaches the largest distance so
/// far — [`DIVERGENCE_BLOCK`] partners per pass while the last of them
/// still reaches it, then one at a time. Bounds only fall along that
/// order and the maximum only grows, so the first partner that falls
/// short ends a model's row, and a row whose first partner falls short
/// ends the search. Every summed pair has the bits the exhaustive loop
/// gave it (`fl(a − b) = −fl(b − a)`), and `max` ignores order.
fn max_pair_distance<M: AsRef<[Matrix]>>(models: &[M]) -> (f64, usize) {
    let bound = PairBound::new(models);
    let mut order: Vec<usize> = (0..models.len()).collect();
    order.sort_by(|&a, &b| bound.radii[b].total_cmp(&bound.radii[a]));
    let mut max_d = 0.0f64;
    let mut summed = 0;
    for (rank, &i) in order.iter().enumerate() {
        let model = models[i].as_ref();
        let mut rest = &order[rank + 1..];
        match rest.first() {
            Some(&j) if bound.of(i, j) >= max_d => {}
            _ => break,
        }
        while rest.len() >= DIVERGENCE_BLOCK && bound.of(i, rest[DIVERGENCE_BLOCK - 1]) >= max_d {
            let (block, tail) = rest.split_at(DIVERGENCE_BLOCK);
            let partners: [&[Matrix]; DIVERGENCE_BLOCK] =
                std::array::from_fn(|k| models[block[k]].as_ref());
            for d in squared_model_distances(model, partners) {
                max_d = max_d.max(d.sqrt());
            }
            summed += DIVERGENCE_BLOCK;
            rest = tail;
        }
        for &j in rest {
            if bound.of(i, j) < max_d {
                break;
            }
            let [d] = squared_model_distances(model, [models[j].as_ref()]);
            max_d = max_d.max(d.sqrt());
            summed += 1;
        }
    }
    (max_d, summed)
}

/// Maximum pairwise L2 distance between models, relative to the mean
/// parameter norm (0 if fewer than two models).
///
/// A model is its parameter matrices (an [`Mlp`], or the one-matrix
/// model the live cluster makes of a flat parameter vector); all must
/// share one architecture. Of a 256-worker fleet's 32 640 pairs,
/// `max_pair_distance` sums only those that can be the maximum.
pub fn relative_model_divergence<M: AsRef<[Matrix]>>(models: &[M]) -> f64 {
    if models.len() < 2 {
        return 0.0;
    }
    max_pair_distance(models).0 / mean_parameter_norm(models).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute;
    use crate::config::{Environment, ModelScale, Strategy};
    use proptest::prelude::*;
    use rog_models::Task;
    use rog_net::LossConfig;
    use rog_tensor::rng::DetRng;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            model_scale: ModelScale::Small,
            n_workers: 2,
            duration_secs: 30.0,
            environment: Environment::Stable,
            strategy: Strategy::Bsp,
            eval_every: 5,
            ..ExperimentConfig::default()
        }
    }

    fn ctx() -> EngineCtx {
        EngineCtx::new(&cfg())
    }

    /// An engine that only logs what [`drive`] dispatches. When `at` is
    /// set, worker 0 arms a timer and a deadline-cut flow for that
    /// instant, plus a flow too long to end that a fault can cut. A
    /// cut flow and a release scan log as faults.
    struct Stub {
        ctx: EngineCtx,
        flows: FlowTable<()>,
        at: Option<Time>,
        log: Vec<(&'static str, Time)>,
    }

    impl Transfer for () {
        fn resync(_: usize) {}
        fn shard(&self) -> Option<usize> {
            Some(0)
        }
    }

    impl Engine for Stub {
        type Flow = ();
        fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<()>) {
            (&mut self.ctx, &mut self.flows)
        }
        fn start_compute(&mut self, w: usize, now: Time) {
            if let (0, Some(at)) = (w, self.at) {
                self.ctx.queue.push(at, Ev::ComputeDone(0, 0));
                let spec = FlowSpec::new(0, vec![u64::MAX / 4]).with_deadline(at);
                self.flows.start(&mut self.ctx, now, 0, spec, ());
                let spec = FlowSpec::new(0, vec![u64::MAX / 4]);
                self.flows.start(&mut self.ctx, now, 0, spec, ());
            }
        }
        fn on_flow(&mut self, (): (), ev: FlowEvent) {
            self.log.push(("flow", ev.at));
        }
        fn on_compute_done(&mut self, _: usize, now: Time) {
            self.log.push(("timer", now));
        }
        fn iteration(&self, _: usize) -> u64 {
            0
        }
        fn depart(&mut self, _: usize, _: Time) {}
        fn suspend(&mut self, _: usize, (): ()) {
            self.log.push(("fault", self.ctx.cluster.transport.now()));
        }
        fn resume(&mut self, _: usize, _: Time) {}
        fn drain_waiting(&mut self, now: Time) {
            self.log.push(("fault", now));
        }
        fn rejoin(&mut self, _: usize, _: u64, _: Time) {}
    }

    fn stub(cfg: &ExperimentConfig, at: Option<Time>) -> Stub {
        Stub {
            ctx: EngineCtx::new(cfg),
            flows: FlowTable::new(cfg.n_workers),
            at,
            log: Vec::new(),
        }
    }

    #[test]
    fn drive_orders_same_instant_events_flow_then_fault_then_timer() {
        let mut c = cfg();
        c.fault_plan = Some(rog_fault::FaultPlan::new().link_blackout(0, 5.0, 6.0));
        let mut e = stub(&c, Some(5.0));
        let dispatched = drive(&mut e);
        assert_eq!(
            e.log,
            [
                ("flow", 5.0),
                ("fault", 5.0),
                ("timer", 5.0),
                ("fault", 6.0)
            ]
        );
        assert_eq!(dispatched, 4);
    }

    #[test]
    fn drive_stops_at_the_time_budget_when_nothing_is_scheduled() {
        let mut e = stub(&cfg(), None);
        assert_eq!(drive(&mut e), 0);
        assert!(e.log.is_empty());
        assert!(e.ctx.cluster.transport.now() >= e.ctx.duration() - 1e-9);
    }

    #[test]
    fn backoff_grows_then_caps() {
        assert!((backoff(1) - 0.1).abs() < 1e-12);
        assert!((backoff(2) - 0.2).abs() < 1e-12);
        assert!((backoff(3) - 0.4).abs() < 1e-12);
        assert!((backoff(10) - 2.0).abs() < 1e-12, "capped");
        assert!((backoff(63) - 2.0).abs() < 1e-12, "no overflow");
    }

    /// An engine context with i.i.d. chunk loss at `loss` (no loss
    /// model for `None`), and its flow table.
    fn table(loss: Option<f64>) -> (EngineCtx, FlowTable<u8>) {
        let loss = loss.map(|rate| LossConfig::iid(7, rate));
        let c = ExperimentConfig { loss, ..cfg() };
        (EngineCtx::new(&c), FlowTable::new(c.n_workers))
    }

    /// Lets worker 0's reliable round leave the air and reports it;
    /// returns the flow's context once the transfer has landed.
    fn end_round(ctx: &mut EngineCtx, flows: &mut FlowTable<u8>) -> Option<u8> {
        let horizon = ctx.duration();
        let evs = ctx.cluster.transport.advance_until(horizon);
        let [ev] = &evs[..] else { panic!() };
        let flow = flows.finish(ev.id).expect("registered");
        flows.on_reliable_round(ctx, 0, ev, flow)
    }

    /// Fires the next queued backoff timer; returns its delay past the
    /// round it backs off and whether it put a round on the air.
    fn fire(ctx: &mut EngineCtx, flows: &mut FlowTable<u8>) -> (Time, bool) {
        let Some((t, Ev::NetRetry(w, timer))) = ctx.queue.pop() else {
            panic!("a backoff timer is queued")
        };
        let (ended, on_air) = (ctx.cluster.transport.now(), flows.flows.len());
        flows.on_net_retry(ctx, w, timer, t);
        (t - ended, flows.flows.len() > on_air)
    }

    #[test]
    fn lossless_reliable_transfer_is_one_untracked_chunk() {
        let (mut ctx, mut flows) = table(None);
        flows.start_reliable(&mut ctx, 0.0, 0, 0, 200_000, 7);
        assert_eq!(flows.transfer(0).leg.plan().len(), 1);
        assert_eq!(end_round(&mut ctx, &mut flows), Some(7));
        assert_eq!(ctx.cluster.transport.useful_bytes(), 200_000.0);
    }

    #[test]
    fn a_voided_retry_timer_is_dropped_whether_it_arrives_first_or_last() {
        for voided_first in [true, false] {
            let (mut ctx, mut flows) = table(Some(0.9));
            flows.start_reliable(&mut ctx, 0.0, 0, 0, 100_000, 7);
            // Transfer 7 backs off once, or until its backoff outlasts
            // the next transfer's first one.
            assert_eq!(end_round(&mut ctx, &mut flows), None);
            while !voided_first && flows.transfer(0).attempt < 4 {
                assert!(fire(&mut ctx, &mut flows).1);
                assert_eq!(end_round(&mut ctx, &mut flows), None);
            }
            // A blackout voids its timer, which is dropped when it
            // arrives, before or after transfer 8's 0.1 s backoff.
            assert_eq!(flows.sever(&mut ctx, 0), [7]);
            assert!(!voided_first || !fire(&mut ctx, &mut flows).1);
            let now = ctx.cluster.transport.now();
            flows.start_reliable(&mut ctx, now, 0, 0, 100_000, 8);
            assert_eq!(end_round(&mut ctx, &mut flows), None);
            let (delay, resends) = fire(&mut ctx, &mut flows);
            assert!(resends && (delay - 0.1).abs() < 1e-9, "{delay}");
            assert!(voided_first || !fire(&mut ctx, &mut flows).1);
            assert_eq!(flows.flows.values().collect::<Vec<_>>(), [&(0, 8)]);
        }
    }

    #[test]
    fn reliable_retries_resend_only_the_chunks_still_missing() {
        let seg = RELIABLE_SEGMENT_BYTES;
        let (mut ctx, mut flows) = table(Some(0.5));
        let mut retries = 0;
        for bytes in [0, 10, seg, seg + 1, 3 * seg + 10, 3 * seg + 10] {
            let transport = &ctx.cluster.transport;
            let (sent, now) = (transport.useful_bytes(), transport.now());
            flows.start_reliable(&mut ctx, now, 0, 0, bytes, 7);
            let units = bytes.div_ceil(seg).max(1) as usize;
            assert_eq!(flows.transfer(0).leg.plan().len(), units);
            for attempt in 1.. {
                let transport = &ctx.cluster.transport;
                let (useful, offered) = (transport.useful_bytes(), transport.offered_bytes());
                let landed = end_round(&mut ctx, &mut flows);
                // Each round carries exactly the bytes still missing.
                let carried = ctx.cluster.transport.offered_bytes() - offered;
                assert_eq!(carried, bytes as f64 - (useful - sent), "{bytes} B");
                if landed.is_some() {
                    break;
                }
                let (delay, resends) = fire(&mut ctx, &mut flows);
                assert!(resends && (delay - backoff(attempt)).abs() < 1e-9);
                retries += 1;
            }
            // Every unit landed exactly once.
            assert_eq!(ctx.cluster.transport.useful_bytes() - sent, bytes as f64);
        }
        assert!(retries > 5, "{retries} retries");
    }

    #[test]
    fn take_draw_matches_model_shapes() {
        let mut c = ctx();
        let (grads, mean_abs) = compute::take_draw(&mut c, 0);
        assert_eq!(grads.len(), c.cluster.init_model.params().len());
        assert!(mean_abs > 0.0);
    }

    #[test]
    fn a_swallowed_compute_timer_takes_exactly_one_batch_sample() {
        // Worker 1 departs mid-computation and its stale timer pops.
        let mut e = stub(&cfg(), None);
        e.ctx.start_compute(1, 1, 0.0);
        e.ctx.void_compute(1);
        assert_eq!(drive(&mut e), 1);
        assert!(e.log.is_empty(), "the timer was swallowed: {:?}", e.log);
        // The same stream, advanced by one sample and nothing else.
        let mut sampled = ctx();
        sampled.draws[1].next_batch(&sampled.cluster.workload.shards()[1]);
        let (ga, ma) = compute::take_draw(&mut e.ctx, 1);
        let (gb, mb) = compute::take_draw(&mut sampled, 1);
        assert_eq!(ma.to_bits(), mb.to_bits());
        let bits = |g: &GradSet| -> Vec<u32> {
            let values = g.iter().flat_map(|m| m.as_slice());
            values.map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&ga), bits(&gb));
    }

    #[test]
    fn an_outage_and_resync_inside_one_compute_window_trains_on_deterministically() {
        // Depart at 0.5 s, back at 1.0 s: the resync lands before the
        // ≈ 2.18 s timer armed at t = 0 pops, so that timer is swallowed
        // while the rejoined worker's new computation is already running.
        for strategy in [Strategy::Bsp, Strategy::Rog { threshold: 4 }] {
            let c = ExperimentConfig {
                strategy,
                trace: true,
                fault_plan: Some(rog_fault::FaultPlan::new().worker_offline(1, 0.5, 1.0)),
                ..cfg()
            };
            let (m, journal, stats) = crate::engine::run_full(&c);
            let resynced = journal
                .events()
                .find(|e| matches!(e.kind, EventKind::ResyncEnd { w: 1, .. }))
                .expect("worker 1 rejoined");
            assert!(resynced.t < 1.5, "{}: resync at {}", m.name, resynced.t);
            assert!(m.offline_secs > 0.0, "{}", m.name);
            assert!(
                m.mean_iterations >= 5.0,
                "{}: {}",
                m.name,
                m.mean_iterations
            );
            let (again, journal_again, stats_again) = crate::engine::run_full(&c);
            let json = |m: &RunMetrics| serde_json::to_string(m).expect("metrics serialise");
            assert_eq!(json(&m), json(&again), "{}", m.name);
            assert_eq!(journal.to_jsonl(), journal_again.to_jsonl(), "{}", m.name);
            assert_eq!(stats.sim_events, stats_again.sim_events, "{}", m.name);
        }
    }

    #[test]
    fn checkpoints_only_on_cadence() {
        let mut c = ctx();
        c.start_compute(0, 3, 0.0);
        c.end_iteration(0, 3, 1.0); // off-cadence
        c.end_iteration(0, 5, 2.0); // on-cadence
        let (m, _) = c.finish();
        assert_eq!(m.checkpoints.len(), 1);
        assert_eq!(m.checkpoints[0].iter, 5);
        assert_eq!(m.mean_iterations, 1.0); // two iterations over two workers
    }

    /// [`relative_model_divergence`] as it was before the blocked
    /// kernel and the search: every pair, one at a time, one add chain
    /// (the norm is shared).
    fn one_pair_at_a_time_divergence<M: AsRef<[Matrix]>>(models: &[M]) -> f64 {
        if models.len() < 2 {
            return 0.0;
        }
        let mut max_d = 0.0f64;
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                let d: f64 = models[i]
                    .as_ref()
                    .iter()
                    .zip(models[j].as_ref())
                    .map(|(a, b)| {
                        a.as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .map(|(x, y)| f64::from(x - y).powi(2))
                            .sum::<f64>()
                    })
                    .sum::<f64>()
                    .sqrt();
                max_d = max_d.max(d);
            }
        }
        max_d / mean_parameter_norm(models).max(1e-12)
    }

    /// One-matrix models: what `live::serve` builds from the workers'
    /// flat parameter vectors.
    fn flat(vs: &[Vec<f32>]) -> Vec<[Matrix; 1]> {
        vs.iter()
            .map(|v| [Matrix::from_vec(1, v.len(), v.clone()).expect("1 x len")])
            .collect()
    }

    /// Asserts the search returns the one-pair loop's bits; returns how
    /// many pairs it summed.
    fn summed_exactly<M: AsRef<[Matrix]>>(models: &[M]) -> usize {
        let got = relative_model_divergence(models);
        let want = one_pair_at_a_time_divergence(models);
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        if models.len() < 2 {
            0
        } else {
            max_pair_distance(models).1
        }
    }

    /// `n` replicas of `base`, as a fleet's replicas end a run: each
    /// moved by noise of scale `drift` in a replica-dependent,
    /// heavy-tailed share of its rows, every fifth an exact duplicate
    /// of its predecessor.
    fn fleet_like(base: &Mlp, n: usize, drift: f64, root: &DetRng) -> Vec<Mlp> {
        let mut models: Vec<Mlp> = Vec::with_capacity(n);
        for w in 0..n {
            if w % 5 == 4 {
                models.push(models[w - 1].clone());
                continue;
            }
            let mut rng = root.fork(w as u64);
            let share = rng.uniform().powi(3);
            let mut m = base.clone();
            for p in m.params_mut() {
                for r in 0..p.rows() {
                    if rng.chance(share) {
                        for v in p.row_mut(r) {
                            *v += rng.normal_with(0.0, drift) as f32;
                        }
                    }
                }
            }
            models.push(m);
        }
        models
    }

    #[test]
    fn a_flat_parameter_vector_is_a_one_matrix_model() {
        let models = flat(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 4.0, 0.0],
            vec![3.0, 0.0, 0.0],
        ]);
        // Largest distance 5 (models 0 and 1), mean norm (3 + 4 + 3) / 3.
        assert_eq!(relative_model_divergence(&models), 5.0 / (10.0 / 3.0));
        assert_eq!(relative_model_divergence(&models[..1]), 0.0);
    }

    #[test]
    fn a_fleet_like_ensemble_sums_under_a_quarter_of_its_pairs() {
        let root = DetRng::new(5);
        let base = Mlp::new(&[24, 48, 32, 8], Task::Classification, &mut root.fork(999));
        let models = fleet_like(&base, 64, 1e-3, &root);
        let summed = summed_exactly(&models);
        assert!(summed * 4 < 64 * 63 / 2, "{summed} of 2016 pairs summed");
    }

    #[test]
    fn identical_models_sum_every_pair_and_match_the_one_pair_loop() {
        let base = Mlp::new(&[6, 5, 3], Task::Regression, &mut DetRng::new(8));
        for n in [2usize, 3, 9, 17] {
            assert_eq!(summed_exactly(&vec![base.clone(); n]), n * (n - 1) / 2);
        }
    }

    #[test]
    fn non_finite_or_huge_parameters_sum_every_pair_as_before() {
        let limit = BOUNDED_MAGNITUDE;
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            limit,
            -limit,
            1.5 * limit,
            f32::MAX,
            -f32::MAX,
        ];
        for n in [2usize, 3, 9, 17] {
            let base: Vec<Vec<f32>> = (0..n)
                .map(|w| (0..5).map(|e| (w * 5 + e) as f32 * 0.25).collect())
                .collect();
            for (k, &v) in specials.iter().enumerate() {
                let mut vs = base.clone();
                vs[k % n][k % 5] = v;
                // The same value elsewhere too: ∞ − ∞ is NaN, and ±2¹²⁶
                // apart overflow as soon as the magnitudes add up.
                vs[n - 1][k % 5] = -v;
                assert_eq!(summed_exactly(&flat(&vs)), n * (n - 1) / 2, "{v}");
            }
            // Every difference overflows: the maximum is +∞.
            let mut vs = base.clone();
            for (w, v) in vs.iter_mut().enumerate() {
                v[0] = if w % 2 == 0 { f32::MAX } else { -f32::MAX };
            }
            assert_eq!(summed_exactly(&flat(&vs)), n * (n - 1) / 2);
        }
    }

    #[test]
    fn magnitudes_just_under_the_limit_and_subnormal_differences_are_searched_exactly() {
        let under = f32::from_bits(BOUNDED_MAGNITUDE.to_bits() - 1);
        let tiny = f32::from_bits(1);
        let rng = &mut DetRng::new(21);
        for n in [2usize, 3, 8, 9, 17] {
            // Opposite signs just under 2¹²⁶: differences near 2¹²⁷,
            // squares near 2²⁵⁴, all finite.
            let vs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..4)
                        .map(|_| under * (rng.uniform() as f32 * 2.0 - 1.0))
                        .collect()
                })
                .collect();
            summed_exactly(&flat(&vs));
            // Around zero and around the smallest normal, models a few
            // subnormal steps apart.
            for centre in [0.0, f32::MIN_POSITIVE] {
                let vs: Vec<Vec<f32>> = (0..n)
                    .map(|_| {
                        (0..4)
                            .map(|_| centre + tiny * rng.index(9) as f32)
                            .collect()
                    })
                    .collect();
                summed_exactly(&flat(&vs));
            }
        }
    }

    #[test]
    fn the_bound_covers_every_computed_distance() {
        // Where it is tightest: models on a line through their centroid,
        // so that ‖x_i − x_j‖ = r_i + r_j and only rounding separates a
        // computed distance from its bound.
        let rng = &mut DetRng::new(17);
        for params in [1usize, 2, 3, 64, 1000] {
            for trial in 0..300 {
                let dir: Vec<f64> = (0..params).map(|_| rng.normal()).collect();
                let scale = 2f64.powi(rng.index(260) as i32 - 160);
                let n = 2 + trial % 3;
                let models: Vec<[Matrix; 1]> = flat(
                    &(0..n)
                        .map(|_| {
                            let t = rng.uniform_range(-1.0, 1.0) * scale;
                            dir.iter().map(|&d| (t * d) as f32).collect()
                        })
                        .collect::<Vec<_>>(),
                );
                let bound = PairBound::new(&models);
                for i in 0..n {
                    for j in (0..n).filter(|&j| j != i) {
                        let [d] = squared_model_distances(&models[i], [&models[j][..]]);
                        assert!(
                            d.sqrt() <= bound.of(i, j),
                            "{params} params: {} > {}",
                            d.sqrt(),
                            bound.of(i, j)
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// The blocked kernel and the search only reorder independent
        /// sums and skip pairs that cannot be the maximum: bit-equal to
        /// the one-pair loop for every block remainder (0 and 1 models,
        /// one short block, exactly one block, one block plus a
        /// remainder, …) and for layers of unequal width — on
        /// independent models, where nothing prunes, and on fleet-like
        /// ones, where most pairs do.
        #[test]
        fn blocked_divergence_is_bitwise_the_one_pair_loop(
            seed in 0u64..u64::MAX,
            dims in proptest::collection::vec(1usize..24, 2..5),
            drift in 1e-4f64..1.0,
        ) {
            let root = DetRng::new(seed);
            let base = Mlp::new(&dims, Task::Regression, &mut root.fork(u64::MAX));
            for n in [0usize, 1, 2, 3, 7, 8, 9, 17, 64] {
                let models: Vec<Mlp> = (0..n)
                    .map(|w| Mlp::new(&dims, Task::Regression, &mut root.fork(w as u64)))
                    .collect();
                let got = relative_model_divergence(&models);
                prop_assert_eq!(got.to_bits(), one_pair_at_a_time_divergence(&models).to_bits());
                prop_assert_eq!(n < 2, got == 0.0);
                summed_exactly(&fleet_like(&base, n, drift, &root.fork(n as u64)));
            }
        }
    }
}
