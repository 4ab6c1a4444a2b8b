//! Plumbing shared by the model- and row-granularity engines.

use std::collections::BTreeMap;

use rog_fault::{FaultClock, FaultEvent};
use rog_models::{GradSet, Mlp};
use rog_net::{ChunkFate, FlowEvent, FlowId, FlowSpec, ReliableProgress, ReliableTransfer};
use rog_obs::{obs, obs_shard, Event, EventKind, Journal};
use rog_sim::{DeviceState, EventQueue, Time};
use rog_tensor::Matrix;

use crate::cluster::{Cluster, WorkerDraws};
use crate::config::ExperimentConfig;
use crate::metrics::{ByteAccount, RunMetrics, RunRecord};

/// Queue events (flow events come from the channel directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A worker finished computing gradients for its current iteration.
    ComputeDone(usize),
    /// A reliable-class retransmit backoff expired for a worker: the
    /// engine should resend whatever chunks are still outstanding on
    /// that worker's transfer.
    NetRetry(usize),
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
    /// Workers currently powered off / out of range.
    pub offline: Vec<bool>,
    /// Workers that reached the end of the time budget.
    pub(crate) done: Vec<bool>,
    /// Workers with a gradient computation running (its `ComputeDone`
    /// timer is queued).
    pub(crate) computing: Vec<bool>,
    /// Outstanding `ComputeDone` timers of departed workers, swallowed
    /// on arrival (one count per timer in flight at departure).
    stale_timers: Vec<u32>,
    /// Workers whose link is blacked out (device up, radio dead).
    pub link_down: Vec<bool>,
    /// Per-shard parameter-server outage flags (checkpoint/restart).
    /// Length is [`ExperimentConfig::effective_shards`]; unsharded runs
    /// have a single entry.
    pub server_down: Vec<bool>,
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
            stale_timers: vec![0; n],
            link_down: vec![false; n],
            server_down: vec![false; cfg.effective_shards()],
            journal,
            models,
            grad_pool: Vec::new(),
            draws,
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

    /// Marks a worker's state at time `t` in the run's record.
    pub fn set_state(&mut self, worker: usize, t: Time, state: DeviceState) {
        self.record.set_state(worker, t, state, &mut self.journal);
    }

    /// Starts a worker's compute phase of iteration `iter` at `t`.
    pub fn start_compute(&mut self, worker: usize, iter: u64, t: Time) {
        self.record.iter_begin(worker, iter, t, &mut self.journal);
        self.computing[worker] = true;
        self.set_state(worker, t, DeviceState::Compute);
        let dt = self.draws[worker].compute_secs();
        self.queue.push(t + dt, Ev::ComputeDone(worker));
    }

    /// The device running worker `w`'s computation departed: its queued
    /// `ComputeDone` timer (if any) is swallowed on arrival.
    pub(crate) fn void_compute(&mut self, w: usize) {
        if self.computing[w] {
            self.stale_timers[w] += 1;
        }
        self.computing[w] = false;
    }

    /// A `ComputeDone` timer of worker `w` arrived. Returns `true` when
    /// the worker that armed it has departed since; otherwise the
    /// computation is over. A swallowed timer still takes the batch
    /// sample its draw would have taken: the worker's stream advances
    /// once per timer armed, whether or not the computation survived
    /// (the pinned artifacts depend on it).
    fn compute_timer_is_stale(&mut self, w: usize) -> bool {
        if self.stale_timers[w] > 0 {
            self.stale_timers[w] -= 1;
            self.draws[w].sample_batch(&self.cluster.workload.shards()[w]);
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

    /// Rejoin: worker `w` adopts the model of the most advanced online
    /// peer (ties break to the lowest index) — the closest stand-in the
    /// simulation has for the server streaming its current model; any
    /// choice within the staleness bound is admissible. Journals and
    /// returns the adopted iteration (`w`'s own when it is alone).
    pub(crate) fn adopt_most_advanced_peer(
        &mut self,
        w: usize,
        now: Time,
        iter_of: impl Fn(usize) -> u64,
    ) -> u64 {
        let mut reference: Option<usize> = None;
        for i in (0..self.models.len()).filter(|&i| i != w && !self.offline[i]) {
            if reference.is_none_or(|r| iter_of(i) > iter_of(r)) {
                reference = Some(i);
            }
        }
        if let Some(r) = reference {
            self.models[w] = self.models[r].clone();
        }
        let iter = iter_of(reference.unwrap_or(w));
        obs!(
            self.journal,
            now,
            EventKind::ResyncEnd { w: w as u32, iter }
        );
        iter
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

/// Splits a payload into `RELIABLE_SEGMENT_BYTES` chunks (last one
/// short). Chunk boundaries never change a no-deadline flow's fluid
/// completion time, only loss granularity.
fn segment_chunks(total: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut left = total;
    while left > RELIABLE_SEGMENT_BYTES {
        out.push(RELIABLE_SEGMENT_BYTES);
        left -= RELIABLE_SEGMENT_BYTES;
    }
    out.push(left);
    out
}

/// Verdict on one finished round of a reliable transfer.
enum ReliableRound<C> {
    /// Every chunk landed; the flow's context is handed back.
    Done(C),
    /// Chunks died in flight; the context is parked until the backoff
    /// delay has run.
    Retry(Time),
}

/// One worker's reliable-class transfer: must-deliver traffic (rejoin
/// resyncs; every whole-model transfer of the baselines) that is resent
/// after a backoff until it lands, where best-effort rows are simply
/// not committed. At most one such transfer runs per worker.
struct ReliableSlot<C> {
    /// The link the transfer runs on.
    link: usize,
    /// Retransmit state; `None` without a loss model, where the
    /// single-chunk transfer always lands whole.
    retx: Option<ReliableTransfer>,
    /// Flow context parked while its retransmit backoff runs.
    parked: Option<C>,
    /// Whether a `NetRetry` timer is queued.
    retry_armed: bool,
    /// Queued `NetRetry` timers voided since, swallowed on arrival.
    stale_retries: u32,
}

impl<C> ReliableSlot<C> {
    fn new() -> Self {
        Self {
            link: 0,
            retx: None,
            parked: None,
            retry_armed: false,
            stale_retries: 0,
        }
    }

    /// Begins a transfer of `bytes` over `link` and returns the chunks
    /// of its first round. With a loss model installed the payload is
    /// segmented and tracked by a fresh [`ReliableTransfer`]; without
    /// one, the pre-loss single-chunk flow is byte-identical.
    fn begin(&mut self, lossy: bool, link: usize, bytes: u64) -> Vec<u64> {
        self.link = link;
        if !lossy {
            return vec![bytes];
        }
        let chunks = segment_chunks(bytes);
        self.void_retry();
        self.retx = Some(ReliableTransfer::new(chunks.clone()));
        chunks
    }

    /// Folds in the fates of the round that just finished.
    fn on_round(&mut self, fates: Option<&[ChunkFate]>, flow: C) -> ReliableRound<C> {
        let Some(retx) = self.retx.as_mut() else {
            return ReliableRound::Done(flow);
        };
        match retx.on_round(fates) {
            ReliableProgress::Done => {
                self.retx = None;
                ReliableRound::Done(flow)
            }
            ReliableProgress::Retry { delay } => {
                self.parked = Some(flow);
                ReliableRound::Retry(delay)
            }
        }
    }

    /// Voids a queued backoff timer (it is swallowed on arrival).
    fn void_retry(&mut self) {
        if self.retry_armed {
            self.stale_retries += 1;
            self.retry_armed = false;
        }
    }

    /// A `NetRetry` timer arrived: swallows it if it was voided,
    /// otherwise hands back the chunks still outstanding and the parked
    /// context.
    fn expire(&mut self) -> Option<(Vec<u64>, C)> {
        if self.stale_retries > 0 {
            self.stale_retries -= 1;
            return None;
        }
        self.retry_armed = false;
        let flow = self.parked.take()?;
        let retx = self
            .retx
            .as_ref()
            .expect("parked retry implies transfer state");
        Some((retx.pending_chunks(), flow))
    }

    /// Abandons the transfer (fault site), returning the parked context
    /// if its backoff was running.
    fn clear(&mut self) -> Option<C> {
        self.void_retry();
        self.retx = None;
        self.parked.take()
    }
}

/// The in-flight transfers of one engine: what each flow on the channel
/// is for (`C`, the engine's flow context), how many each worker has on
/// the air, and the per-worker reliable-class retransmit state.
pub(crate) struct FlowTable<C> {
    /// Owner and context per flow; ordered, so cancellations run in
    /// flow-id order.
    flows: BTreeMap<FlowId, (usize, C)>,
    in_flight: Vec<u32>,
    reliable: Vec<ReliableSlot<C>>,
}

impl<C> FlowTable<C> {
    pub(crate) fn new(n_workers: usize) -> Self {
        Self {
            flows: BTreeMap::new(),
            in_flight: vec![0; n_workers],
            reliable: (0..n_workers).map(|_| ReliableSlot::new()).collect(),
        }
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

    /// Transfers worker `w` has on the air.
    pub(crate) fn in_flight(&self, w: usize) -> u32 {
        self.in_flight[w]
    }

    /// Cancels every in-flight transfer `doomed` selects (by owner and
    /// context), returning owners and contexts in flow-id order so the
    /// caller can decide what (if anything) resumes. Cancelled
    /// transfers acknowledge nothing: every byte already on the air is
    /// wasted and any retransmission starts from scratch.
    pub(crate) fn cancel_where(
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

    /// Cancels every in-flight transfer of worker `target`.
    fn cancel_flows_of(&mut self, ctx: &mut EngineCtx, target: usize) -> Vec<C> {
        self.cancel_where(ctx, |w, _| w == target)
            .into_iter()
            .map(|(_, flow)| flow)
            .collect()
    }

    /// Worker `w` lost its path (or its power): its in-flight transfers
    /// are cancelled and its reliable transfer abandoned. Returns the
    /// contexts of everything that was on the air or parked in a
    /// retransmit backoff (which has no flow to cancel).
    pub(crate) fn sever(&mut self, ctx: &mut EngineCtx, w: usize) -> Vec<C> {
        let mut cut = self.cancel_flows_of(ctx, w);
        cut.extend(self.clear_retx(w));
        cut
    }

    /// Starts the full-model transfer that brings rejoining worker `w`
    /// back in sync before it may train again.
    pub(crate) fn begin_resync(
        &mut self,
        ctx: &mut EngineCtx,
        now: Time,
        w: usize,
        link: usize,
        bytes: u64,
        flow: C,
    ) {
        obs!(
            ctx.journal,
            now,
            EventKind::ResyncStart { w: w as u32, bytes }
        );
        ctx.set_state(w, now, DeviceState::Communicate);
        self.start_reliable(ctx, now, w, link, bytes, flow);
    }

    /// Starts a reliable-class transfer of `bytes` for worker `w` over
    /// `link`.
    pub(crate) fn start_reliable(
        &mut self,
        ctx: &mut EngineCtx,
        now: Time,
        w: usize,
        link: usize,
        bytes: u64,
        flow: C,
    ) {
        let lossy = ctx.cluster.transport.loss_enabled();
        let chunks = self.reliable[w].begin(lossy, link, bytes);
        self.start(ctx, now, w, FlowSpec::new(link, chunks), flow);
    }

    /// A round of worker `w`'s reliable transfer finished. Returns the
    /// flow's context once everything has landed; while chunks are
    /// still missing it journals the loss, stalls the worker and arms
    /// the backed-off retransmit instead.
    pub(crate) fn on_reliable_round(
        &mut self,
        ctx: &mut EngineCtx,
        w: usize,
        ev: &FlowEvent,
        flow: C,
    ) -> Option<C> {
        let report = ctx.cluster.transport.take_report(ev.id);
        let fates = report.as_ref().map(|r| r.fates.as_slice());
        match self.reliable[w].on_round(fates, flow) {
            ReliableRound::Done(flow) => Some(flow),
            ReliableRound::Retry(delay) => {
                // Chunks died in flight: the whole transfer blocks on
                // the backed-off retransmit (the reliable class has
                // nothing to degrade to), stalling this worker.
                if let Some(r) = report.as_ref() {
                    obs!(
                        ctx.journal,
                        ev.at,
                        EventKind::Loss {
                            w: w as u32,
                            lost: r.lost_chunks() as u32,
                            corrupt: r.corrupt_chunks() as u32,
                            chunks: r.fates.len() as u32,
                        }
                    );
                }
                obs!(
                    ctx.journal,
                    ev.at,
                    EventKind::Backoff {
                        w: w as u32,
                        until: ev.at + delay,
                    }
                );
                ctx.set_state(w, ev.at, DeviceState::Stall);
                self.schedule_retry(ctx, w, ev.at + delay);
                None
            }
        }
    }

    /// Arms the backoff timer for a worker's reliable retransmit.
    fn schedule_retry(&mut self, ctx: &mut EngineCtx, w: usize, at: Time) {
        ctx.queue.push(at, Ev::NetRetry(w));
        self.reliable[w].retry_armed = true;
    }

    /// A reliable-class backoff expired: resend the outstanding chunks.
    /// Every path-down transition abandons the slot through
    /// [`FlowTable::clear_retx`], which voids the timer, so a timer that
    /// fires here always finds its path up.
    fn on_net_retry(&mut self, ctx: &mut EngineCtx, w: usize, now: Time) {
        let Some((chunks, flow)) = self.reliable[w].expire() else {
            return;
        };
        obs!(
            ctx.journal,
            now,
            EventKind::Retransmit {
                w: w as u32,
                rows: chunks.len() as u32,
                class: "reliable",
            }
        );
        ctx.set_state(w, now, DeviceState::Communicate);
        let link = self.reliable[w].link;
        self.start(ctx, now, w, FlowSpec::new(link, chunks), flow);
    }

    /// Abandons worker `w`'s reliable transfer at a fault site,
    /// returning the flow context that was parked in backoff (it has no
    /// flow to cancel) so the caller can mark what resumes.
    pub(crate) fn clear_retx(&mut self, w: usize) -> Option<C> {
        self.reliable[w].clear()
    }
}

/// What the shared event loop ([`drive`]) dispatches into: the hooks
/// each engine fills in with its own protocol.
pub(crate) trait Engine {
    /// What the engine remembers about one in-flight transfer.
    type Flow;
    /// The shared substrate and the in-flight transfer table.
    fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<Self::Flow>);
    /// Starts worker `w`'s next gradient computation at `now`.
    fn start_compute(&mut self, w: usize, now: Time);
    /// An in-flight transfer finished (or hit its deadline).
    fn on_flow(&mut self, flow: Self::Flow, ev: FlowEvent);
    /// An injected fault fired.
    fn on_fault(&mut self, f: FaultEvent, now: Time);
    /// Worker `w`'s gradient computation finished.
    fn on_compute_done(&mut self, w: usize, now: Time);
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
                e.parts().0.journal_fault(f, now);
                e.on_fault(f, now);
            }
            continue;
        }
        match ctx.queue.pop() {
            Some((t, ev)) => {
                dispatched += 1;
                match ev {
                    Ev::ComputeDone(w) => {
                        if !ctx.compute_timer_is_stale(w) {
                            e.on_compute_done(w, t);
                        }
                    }
                    Ev::NetRetry(w) => flows.on_net_retry(ctx, w, t),
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
/// [`max_pair_distance`] sums only those that can be the maximum.
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
    /// instant.
    struct Stub {
        ctx: EngineCtx,
        flows: FlowTable<()>,
        at: Option<Time>,
        log: Vec<(&'static str, Time)>,
    }

    impl Engine for Stub {
        type Flow = ();
        fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<()>) {
            (&mut self.ctx, &mut self.flows)
        }
        fn start_compute(&mut self, w: usize, now: Time) {
            if let (0, Some(at)) = (w, self.at) {
                self.ctx.queue.push(at, Ev::ComputeDone(0));
                let spec = FlowSpec::new(0, vec![u64::MAX / 4]).with_deadline(at);
                self.flows.start(&mut self.ctx, now, 0, spec, ());
            }
        }
        fn on_flow(&mut self, (): (), ev: FlowEvent) {
            self.log.push(("flow", ev.at));
        }
        fn on_fault(&mut self, _: FaultEvent, now: Time) {
            self.log.push(("fault", now));
        }
        fn on_compute_done(&mut self, _: usize, now: Time) {
            self.log.push(("timer", now));
        }
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
    fn lossless_reliable_transfer_is_one_untracked_chunk() {
        let mut slot = ReliableSlot::<()>::new();
        assert_eq!(slot.begin(false, 3, 200_000), [200_000]);
        assert!(slot.retx.is_none());
        assert!(matches!(slot.on_round(None, ()), ReliableRound::Done(())));
    }

    #[test]
    fn voided_retry_timer_is_swallowed_once_and_a_rearmed_one_fires() {
        let mut slot = ReliableSlot::<u8>::new();
        slot.begin(true, 0, 100_000);
        let lost = [ChunkFate::Lost, ChunkFate::Lost];
        assert!(matches!(
            slot.on_round(Some(&lost), 7),
            ReliableRound::Retry(_)
        ));
        slot.retry_armed = true;
        // A new transfer voids the queued timer and drops nothing else.
        slot.begin(true, 0, 100_000);
        assert!(matches!(
            slot.on_round(Some(&lost), 8),
            ReliableRound::Retry(_)
        ));
        slot.retry_armed = true;
        assert!(slot.expire().is_none(), "the voided timer arrives first");
        let (chunks, flow) = slot.expire().expect("the re-armed timer fires");
        assert_eq!((chunks.len(), flow), (2, 8));
        assert!(slot.expire().is_none(), "nothing is parked any more");
    }

    #[test]
    fn reliable_retries_resend_only_the_chunks_still_missing() {
        use ChunkFate::{Delivered, Lost};
        let mut slot = ReliableSlot::<()>::new();
        let first = slot.begin(true, 0, 3 * RELIABLE_SEGMENT_BYTES + 10);
        assert_eq!(
            first,
            [
                RELIABLE_SEGMENT_BYTES,
                RELIABLE_SEGMENT_BYTES,
                RELIABLE_SEGMENT_BYTES,
                10
            ]
        );
        let fates = [Lost, Delivered, Delivered, Lost];
        let ReliableRound::Retry(d1) = slot.on_round(Some(&fates), ()) else {
            panic!("two chunks are missing");
        };
        let (second, ()) = slot.expire().expect("parked");
        assert_eq!(second, [RELIABLE_SEGMENT_BYTES, 10]);
        let ReliableRound::Retry(d2) = slot.on_round(Some(&[Delivered, Lost]), ()) else {
            panic!("one chunk is still missing");
        };
        assert!(d2 > d1, "backoff grows: {d1} -> {d2}");
        let (third, ()) = slot.expire().expect("parked");
        assert_eq!(third, [10]);
        assert!(matches!(
            slot.on_round(Some(&[Delivered]), ()),
            ReliableRound::Done(())
        ));
        assert!(slot.retx.is_none());
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
        sampled.draws[1].sample_batch(&sampled.cluster.workload.shards()[1]);
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
