//! The ROG engine: row-granulated RSP + ATP over the simulated channel.
//!
//! Per iteration each worker accumulates real gradients into its
//! [`RogWorker`](rog_core::RogWorker), ranks rows (importance + mandatory stale rows first),
//! and *speculatively transmits* them: a flow of per-row chunks with a
//! deadline equal to the shared MTA-time budget. If the deadline cuts
//! the flow before MTA (or before the RSP-mandatory rows) got through,
//! the worker continues transmitting exactly up to that target — it is a
//! straggler this round, and its measured time updates the shared budget.
//! Fast workers instead fit *all* their rows inside the budget. Under a
//! loss model a lost row is best-effort and simply not committed, except
//! the RSP-mandatory ones: the same leg retransmits those until they
//! land. The server applies the RSP gate before granting pulls, which
//! are speculatively transmitted the same way (all best-effort). Each
//! round is one flow; the roles own the legs ([`Leg`]), and
//! the engine reports each flow's sent rows and chunk fates to them.
//!
//! The parameter plane is row-sharded ([`ShardedServer`]): each shard
//! owns a contiguous row range with its own version store, MTA budget
//! and RSP gate, and every worker↔shard pair has its own link. A push
//! cycle splits the globally ranked plan into per-shard legs that
//! transmit, gate and pull independently; the cycle completes when every
//! engaged leg has. With one shard everything collapses to the original
//! single-server engine, bit for bit.

use std::ops::Range;

use rog_compress::RowCodec;
use rog_core::{
    gate, AggregatorPlane, Gate, Leg, LegId, PushReport, Restart, RogWorkerConfig, Round, RowBatch,
    ServerRole, ShardMap, ShardedServer, WorkerRole,
};
use rog_net::{shard_link, FlowEvent, FlowOutcome, FlowSpec};
use rog_obs::{obs, obs_shard, EventKind};
use rog_sim::{DeviceState, Time};

use crate::compute;
use crate::config::{ExperimentConfig, Strategy};
use crate::engine::common::{
    compute_or_retire, drive, finish_rejoin, Engine, EngineCtx, FlowTable, Transfer,
};
use crate::engine::control::{link_stress, AdaptiveBound, AutoThreshold, CodecAuto};
use crate::metrics::{MicroSample, RunMetrics};
use crate::run::FleetStats;

/// A worker's pipeline scheduling; its cycle (iteration, legs, what a
/// fault left to restart) is its role's.
struct WState {
    role: WorkerRole,
    /// Completed iterations (currently working on `iter + 1`).
    iter: u64,
    /// Last iteration whose pull has been applied (pipeline mode).
    applied_iter: u64,
    /// Compute is paused waiting for the comm pipeline to catch up.
    pipe_waiting: bool,
}

#[derive(Debug, Clone, Copy)]
enum FlowCtx {
    /// One round of a shard leg's push (or, with `pull`, its pull).
    Leg {
        w: usize,
        s: usize,
        pull: bool,
        round: Round,
    },
    /// Full-model transfer bringing a rejoining worker back in sync.
    Resync { w: usize },
}

impl Transfer for FlowCtx {
    fn resync(w: usize) -> Self {
        FlowCtx::Resync { w }
    }

    fn shard(&self) -> Option<usize> {
        match *self {
            FlowCtx::Leg { s, .. } => Some(s),
            FlowCtx::Resync { .. } => None,
        }
    }
}

struct RowEngine {
    ctx: EngineCtx,
    workers: Vec<WState>,
    /// The parameter plane with its gates, MTA-time budgets and (for a
    /// hierarchical topology) aggregator windows.
    server: ServerRole,
    /// In-flight transfers; only the rejoin resync is reliable-class.
    flows: FlowTable<FlowCtx>,
    /// Last pushed iteration per worker (micro-event staleness).
    last_pushed: Vec<u64>,
    /// The rows of the push being ingested or of the pull being
    /// applied, reused across legs.
    rows: RowBatch,
    /// The parked pulls a release scan re-checks, reused across scans.
    scan: Vec<(LegId, u64)>,
    /// Invariant watchdog: the last observed per-shard min(V), which may
    /// never regress.
    #[cfg(debug_assertions)]
    last_global_min: Vec<u64>,
    /// A shard outage made a cycle skip that shard, so its rows may
    /// legitimately age past the static staleness bound.
    #[cfg(debug_assertions)]
    skipped_shard_push: bool,
    n_shards: usize,
    /// Overlap communication and computation (paper future work).
    pipeline: bool,
    /// Online threshold controller (paper future work).
    auto: Option<AutoThreshold>,
    /// Channel-driven bound controller (the `roga` adaptive hybrid).
    adaptive: Option<AdaptiveBound>,
    /// Per-link codec selector (`--codec auto`).
    codec_auto: Option<CodecAuto>,
}

/// Runs one ROG experiment, returning metrics, journal and the
/// fleet-scale statistics ([`FleetStats`]).
pub fn run(cfg: &ExperimentConfig) -> (RunMetrics, rog_obs::Journal, FleetStats) {
    let (threshold, adaptive) = match cfg.strategy {
        Strategy::Rog { threshold } => (threshold, None),
        Strategy::RogAdaptive {
            min_threshold,
            max_threshold,
        } => (
            min_threshold,
            Some(AdaptiveBound::new(min_threshold, max_threshold)),
        ),
        _ => unreachable!("model strategies run in the model engine"),
    };
    let ctx = EngineCtx::new(cfg);
    let n = cfg.n_workers;
    let n_shards = cfg.effective_shards();
    let init = ctx.cluster.init_model.clone();
    let lr = ctx.cluster.lr;
    let mut wcfg = RogWorkerConfig::new(threshold, lr);
    wcfg.importance = cfg.importance();
    // Codec seeding: worker- and server-side stochastic codecs draw from
    // disjoint streams forked off a dedicated root, so a codec change
    // never perturbs any other consumer of the experiment seed (forking
    // is pure), and the one-bit default — which never draws — stays
    // byte-identical to the pre-codec engine regardless of the seeds.
    let codec_choice = cfg.effective_codec();
    let codec_root = rog_tensor::rng::DetRng::new(cfg.seed).fork(0xC0DEC);
    let worker_codec_base = codec_root.fork(1);
    let workers: Vec<WState> = (0..n)
        .map(|w| WState {
            role: WorkerRole::new(
                init.params(),
                wcfg.with_codec(codec_choice, worker_codec_base.fork(w as u64).seed()),
                n_shards,
            ),
            iter: 0,
            applied_iter: 0,
            pipe_waiting: false,
        })
        .collect();
    let map = ShardMap::contiguous(init.row_widths().len(), n_shards);
    let mut server = ShardedServer::new(init.params(), n, threshold, wcfg.importance, map);
    server.configure_codec(codec_choice, codec_root.fork(0).seed());
    // `None` = flat worker→server topology, byte-identical to the
    // pre-aggregator engine.
    let agg_plane = ctx
        .agg_map
        .clone()
        .map(|map| AggregatorPlane::new(map, n_shards, init.row_widths().len()));
    let mut engine = RowEngine {
        ctx,
        workers,
        server: ServerRole::new(server, agg_plane),
        flows: FlowTable::new(n),
        last_pushed: vec![0; n],
        rows: RowBatch::default(),
        scan: Vec::new(),
        #[cfg(debug_assertions)]
        last_global_min: vec![0; n_shards],
        #[cfg(debug_assertions)]
        skipped_shard_push: false,
        n_shards,
        pipeline: cfg.pipeline,
        auto: cfg.auto_threshold.then(|| AutoThreshold::new(threshold)),
        adaptive,
        codec_auto: codec_choice.is_auto().then(CodecAuto::new),
    };
    // The dispatched-event count is the deterministic progress measure
    // `bench_fleet` reports, identical across hosts.
    let sim_events = drive(&mut engine);
    let agg = engine.server.agg_stats();
    let stats = FleetStats {
        sim_events,
        queue_scheduled: engine.ctx.queue.scheduled(),
        peak_version_bytes: engine.server.peak_version_bytes() as u64,
        agg_flushes: agg.flushes,
        agg_upstream_rows: agg.upstream_rows,
        agg_raw_rows: agg.raw_rows,
        agg_pulls: agg.pulls,
        nonfinite_dropped: engine.server.nonfinite_dropped(),
    };
    let (metrics, journal) = engine.ctx.finish();
    (metrics, journal, stats)
}

impl Engine for RowEngine {
    type Flow = FlowCtx;

    fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<FlowCtx>) {
        (&mut self.ctx, &mut self.flows)
    }

    fn start_compute(&mut self, w: usize, now: Time) {
        self.workers[w].pipe_waiting = false;
        self.ctx.start_compute(w, self.workers[w].iter + 1, now);
    }

    fn on_flow(&mut self, flow: FlowCtx, ev: FlowEvent) {
        match flow {
            FlowCtx::Leg { w, s, pull, round } => self.on_leg_flow(w, s, pull, round, ev),
            FlowCtx::Resync { w } => {
                // Acknowledge the surviving chunks and either complete
                // the rejoin or back off and retransmit.
                let landed = self.flows.on_reliable_round(&mut self.ctx, w, &ev, flow);
                if landed.is_some() {
                    finish_rejoin(self, w, ev.at);
                }
            }
        }
    }

    fn on_compute_done(&mut self, w: usize, now: Time) {
        if self.pipeline {
            self.on_compute_done_pipelined(w, now);
            return;
        }
        let n = self.workers[w].iter + 1;
        let (grads, _) = compute::take_draw(&mut self.ctx, w);
        self.workers[w].role.accumulate(&grads);
        self.ctx.recycle_grads(grads);
        self.begin_push(w, now, n);
    }

    fn iteration(&self, w: usize) -> u64 {
        self.workers[w].iter
    }

    fn depart(&mut self, w: usize, now: Time) {
        let ws = &mut self.workers[w];
        ws.pipe_waiting = false;
        ws.role.disengage();
        self.server.deactivate(w);
        // The departed worker's frozen rows age out of min(V): gated
        // pulls of the survivors may proceed — the membership move a
        // BSP-style barrier cannot make.
        self.drain_waiting(now);
    }

    /// A cut leg keeps its phase, so the role stays busy and pipeline
    /// mode cannot start a second cycle on top of it.
    fn suspend(&mut self, w: usize, flow: FlowCtx) {
        if let Some(s) = flow.shard() {
            self.workers[w].role.cut(s);
        }
    }

    /// Restarts what waits on each shard that is up, as the role says.
    /// A parked cycle, or one whose every engaged leg was cut in its
    /// push (single-shard runs, link blackouts), restarts whole through
    /// `begin_push`, re-planning against the latest gradients — the
    /// legacy single-server semantics. A partially cut cycle (other legs
    /// kept flowing or already finished) replans only the cut shard's
    /// rows at the cycle's pinned iteration.
    fn resume(&mut self, w: usize, now: Time) {
        for s in 0..self.n_shards {
            if self.ctx.server_down[s] {
                continue;
            }
            match self.workers[w].role.restart(s) {
                None => {}
                Some(Restart::Cycle) => {
                    // The iteration being worked on — except in pipeline
                    // mode, where compute kept running during the outage.
                    let n = self.workers[w].iter + u64::from(!self.pipeline);
                    self.begin_push(w, now, n);
                }
                Some(Restart::Push) => {
                    let (map, bound) = (self.server.server().map(), self.server.bound(w));
                    self.workers[w].role.replan(s, map, bound);
                    self.start_push_sub(w, s, now);
                }
                Some(Restart::Gate) => {
                    let n = self.workers[w].role.cycle_iter();
                    self.flows.settle(&mut self.ctx, w, now, DeviceState::Stall);
                    self.server.retry((w, s), n, false);
                }
            }
        }
    }

    fn drain_waiting(&mut self, now: Time) {
        let mut scan = std::mem::take(&mut self.scan);
        self.server.take_parked(&mut scan);
        for &((w, s), n) in &scan {
            if self.server.retry((w, s), n, self.ctx.reachable(w, s)) == Gate::Granted {
                self.grant_pull(w, s, now);
            }
        }
        self.scan = scan;
    }

    /// Error-feedback residuals are reset (the paper's defined policy:
    /// stale compensation must not leak into the adopted model), row
    /// iterations are stamped to the adopted iteration, and every
    /// shard's version rows fast-forward to match.
    fn rejoin(&mut self, w: usize, n: u64, _: Time) {
        let ws = &mut self.workers[w];
        ws.iter = n;
        ws.applied_iter = n;
        ws.pipe_waiting = false;
        ws.role.rejoin(n);
        self.server.rejoin(w, n);
        self.last_pushed[w] = n;
    }
}

impl RowEngine {
    /// The staleness bound every worker's gate enforces (ROG's is uniform).
    fn threshold(&self) -> u32 {
        self.server.bound(0).threshold()
    }

    /// Pipeline mode: an iteration completes at each compute; gradients
    /// stream into the (concurrent) comm cycle, bounded so computation
    /// never runs more than the threshold ahead of applied pulls.
    fn on_compute_done_pipelined(&mut self, w: usize, now: Time) {
        let n = self.workers[w].iter + 1;
        self.workers[w].iter = n;
        self.ctx.end_iteration(w, n, now);
        let (grads, _) = compute::take_draw(&mut self.ctx, w);
        self.workers[w].role.accumulate(&grads);
        self.ctx.recycle_grads(grads);
        if !self.workers[w].role.busy() {
            self.begin_push(w, now, n);
        }
        self.maybe_continue_compute(w, now);
        self.run_controllers(now);
    }

    fn maybe_continue_compute(&mut self, w: usize, now: Time) {
        if now >= self.ctx.duration() {
            self.ctx.done[w] = true;
            if !self.workers[w].role.busy() {
                self.ctx.set_state(w, now, DeviceState::Idle);
            }
            return;
        }
        let ws = &self.workers[w];
        let ahead = ws.iter.saturating_sub(ws.applied_iter);
        // Pipeline depth is bounded at 2 (Pipe-SGD style), independent
        // of the staleness threshold: row staleness accrues per
        // *computed* iteration but push opportunities only arise per
        // comm cycle, so letting compute run `threshold` iterations
        // ahead would mass-expire rows and thrash the RSP gate.
        let depth = gate::rsp_bound(self.threshold()).min(2);
        if ahead < depth {
            self.start_compute(w, now);
        } else {
            self.workers[w].pipe_waiting = true;
            self.ctx.set_state(w, now, DeviceState::Stall);
        }
    }

    fn begin_push(&mut self, w: usize, now: Time, n: u64) {
        if !self.ctx.can_push(w) {
            // Nothing to transmit through: park the whole cycle; a
            // recovery event restarts it via `Engine::resume`.
            self.workers[w].role.park(n);
            self.flows.settle(&mut self.ctx, w, now, DeviceState::Stall);
            return;
        }
        let (map, bound) = (self.server.server().map(), self.server.bound(w));
        self.workers[w].role.plan(n, map, bound);
        for s in 0..self.n_shards {
            if self.ctx.server_down[s] {
                // This shard's rows stay accumulated and age toward the
                // RSP bound; they re-rank into a later cycle's push.
                self.workers[w].role.skip(s);
                #[cfg(debug_assertions)]
                {
                    self.skipped_shard_push = true;
                }
                continue;
            }
            self.start_push_sub(w, s, now);
        }
    }

    /// Starts one shard leg's speculative push (the role has planned and
    /// opened the leg).
    fn start_push_sub(&mut self, w: usize, s: usize, now: Time) {
        let role = &self.workers[w].role;
        let (n, floor, plan) = (role.cycle_iter(), role.floor(s), role.push_leg(s).plan());
        let journal = &mut self.ctx.journal;
        self.server.push_start((w, s), n, floor, plan, now, journal);
        self.flows
            .settle(&mut self.ctx, w, now, DeviceState::Communicate);
        self.start_round((w, s), false, Round::Speculative, now);
    }

    /// Puts one round of a leg on the worker↔shard link, one chunk per
    /// row at the wire size of the payload the leg sized; only the
    /// speculative round has a deadline, the end of the shard's
    /// MTA-time budget.
    fn start_round(&mut self, (w, s): LegId, pull: bool, round: Round, now: Time) {
        // A spare slot: the channel keeps the buffer for its totals.
        let mut chunks = Vec::with_capacity(self.leg((w, s), pull).rows(round).len() + 1);
        let cluster = &self.ctx.cluster;
        let wire = |bytes| cluster.scaled_row_bytes(bytes);
        if pull {
            chunks.extend(self.server.pull_sizes((w, s), round).map(wire));
        } else {
            let role = &mut self.workers[w].role;
            chunks.extend(role.push_sizes(s, round).map(wire));
        }
        let mut spec = FlowSpec::new(shard_link(w, self.n_shards, s), chunks);
        if round == Round::Speculative {
            spec = spec.with_deadline(now + self.server.budget(s));
        }
        let flow = FlowCtx::Leg { w, s, pull, round };
        self.flows.start(&mut self.ctx, now, w, spec, flow);
    }

    /// A leg's push or pull, as the roles hold it.
    fn leg(&self, (w, s): LegId, pull: bool) -> &Leg {
        if pull {
            self.server.pull_leg((w, s))
        } else {
            self.workers[w].role.push_leg(s)
        }
    }

    /// One round of a leg left the air: report what it delivered (per
    /// chunk fates only under a loss model), then send the next round or
    /// end the transmission. A retransmit round resends the must-land
    /// rows the loss model ate (progress is guaranteed: per-chunk loss
    /// probability is capped below 1).
    fn on_leg_flow(&mut self, w: usize, s: usize, pull: bool, round: Round, ev: FlowEvent) {
        let sent = match ev.outcome {
            FlowOutcome::Completed => self.leg((w, s), pull).rows(round).len(),
            FlowOutcome::DeadlineReached { chunks_done, .. } => chunks_done,
            FlowOutcome::Cancelled { .. } => {
                unreachable!("cancelled flows are reaped at the fault site")
            }
        };
        let intact = self.ctx.take_fates(w, self.server.tag(s), &ev);
        let next = if pull {
            self.server.pull_round((w, s), round, sent, intact)
        } else {
            self.workers[w].role.push_round(s, round, sent, intact)
        };
        let Some(next) = next else {
            return if pull {
                self.finish_pull_sub(w, s, ev.at)
            } else {
                self.finish_push_sub(w, s, ev.at)
            };
        };
        if next == Round::Retransmit {
            obs_shard!(
                self.ctx.journal,
                ev.at,
                self.server.tag(s),
                EventKind::Retransmit {
                    w: w as u32,
                    rows: self.leg((w, s), pull).rows(next).len() as u32,
                    class: "mandatory",
                }
            );
        }
        self.start_round((w, s), pull, next, ev.at);
    }

    fn finish_push_sub(&mut self, w: usize, s: usize, now: Time) {
        // The iteration this cycle pushes (`iter + 1` when sequential).
        let n = self.workers[w].role.cycle_iter();
        let delivered = self.workers[w].role.push_leg(s).delivered();
        let secs = (now - self.server.push_started((w, s))).max(1e-6);
        // The journal's bytes are the leg's sizes of the rows it sent,
        // read before the commit below zeroes the accumulator and rolls
        // the residuals. A pipelined push sized its rows when each round
        // started, but commits the accumulator as it stands now, with
        // the gradients computed while the rows were in the air: after
        // such an accumulate the leg re-sizes here, so under a
        // content-sized codec `push_end.bytes` is the size at commit
        // time, not the bytes that were on the wire. The pins hold this;
        // encoding at leg open would make the two agree (DESIGN.md,
        // *Engine structure*).
        let bytes: u64 = if self.ctx.journal.enabled() {
            let cluster = &self.ctx.cluster;
            let role = &mut self.workers[w].role;
            role.sent_sizes(s)
                .map(|b| cluster.scaled_row_bytes(b))
                .sum()
        } else {
            0
        };
        // With a loss model installed only the rows whose chunks
        // survived land (the must-land ones after their retransmits).
        let ws = &mut self.workers[w];
        ws.role.commit_push(s, n, &mut self.rows);
        let min_advanced = self.server.ingest((w, s), n, &mut self.rows);
        #[cfg(debug_assertions)]
        self.check_version_invariants(s, n);
        let sent = PushReport {
            rows: delivered,
            bytes,
            secs,
        };
        self.server
            .push_end((w, s), n, sent, now, &mut self.ctx.journal);
        self.last_pushed[w] = n;

        let pushes_done = self.workers[w].role.push_done(s);
        if self.ctx.cfg.record_micro && w == 0 && pushes_done {
            let fastest = *self.last_pushed.iter().max().expect("non-empty");
            // Rows delivered and planned across every leg of the cycle.
            let role = &self.workers[w].role;
            let legs = (0..self.n_shards).filter(|&s| role.engaged(s));
            let (delivered, planned) = legs
                .map(|s| role.push_leg(s))
                .fold((0, 0), |(d, p), l| (d + l.delivered(), p + l.plan().len()));
            let sample = MicroSample {
                time: now,
                bandwidth_bps: self.ctx.cluster.transport.link_rate_bps(shard_link(
                    w,
                    self.n_shards,
                    0,
                )),
                transmission_rate: if planned == 0 {
                    1.0
                } else {
                    delivered as f64 / planned as f64
                },
                staleness: fastest - n,
            };
            self.ctx.record.record_micro(sample);
        }

        // RSP gate (Algorithm 2 lines 7–9): this shard's pull waits for
        // the stragglers' pushes to *this* shard only.
        match self
            .server
            .enter_gate((w, s), n, now, &mut self.ctx.journal)
        {
            Gate::Granted => self.grant_pull(w, s, now),
            Gate::Parked => self.flows.settle(&mut self.ctx, w, now, DeviceState::Stall),
        }
        // The gate depends only on this shard's min(V) (and on flags
        // whose own transitions re-drain): if the push did not advance
        // it, no parked leg's verdict changed and the scan is skipped.
        if min_advanced {
            self.drain_waiting(now);
        }
    }

    fn grant_pull(&mut self, w: usize, s: usize, now: Time) {
        self.server.grant((w, s), now, &mut self.ctx.journal);
        if self.server.pull_leg((w, s)).plan().is_empty() {
            self.finish_sub(w, s, now);
            return;
        }
        let cluster = &self.ctx.cluster;
        let sizes = self.server.pull_sizes((w, s), Round::Speculative);
        let bytes = sizes.map(|b| cluster.scaled_row_bytes(b)).sum();
        self.server
            .pull_start((w, s), bytes, now, &mut self.ctx.journal);
        self.flows
            .settle(&mut self.ctx, w, now, DeviceState::Communicate);
        self.start_round((w, s), true, Round::Speculative, now);
    }

    /// A pull leg's transmission ended: commit and apply what arrived.
    fn finish_pull_sub(&mut self, w: usize, s: usize, now: Time) {
        // Intact rows only under a loss model: a dropped pull row stays
        // pending on the server instead of being silently consumed.
        let (journal, rows) = (&mut self.ctx.journal, &mut self.rows);
        self.server.settle_pull((w, s), now, journal, rows);
        let ws = &mut self.workers[w];
        ws.role.apply(self.ctx.models[w].params_mut(), rows);
        self.finish_sub(w, s, now);
    }

    /// Marks one shard's leg done; the worker's cycle completes once
    /// every engaged leg has finished its push *and* pull.
    fn finish_sub(&mut self, w: usize, s: usize, now: Time) {
        if self.workers[w].role.finish_leg(s) {
            self.complete_cycle(w, now);
        } else {
            self.flows.settle(&mut self.ctx, w, now, DeviceState::Stall);
        }
    }

    fn complete_cycle(&mut self, w: usize, now: Time) {
        if self.pipeline {
            let ws = &mut self.workers[w];
            ws.applied_iter = ws.role.cycle_iter();
            let (applied, latest) = (ws.applied_iter, ws.iter);
            if latest > applied {
                // Fresh gradients accumulated during the cycle: keep the
                // pipe full.
                self.begin_push(w, now, latest);
            } else if !self.ctx.computing[w] {
                self.ctx.set_state(
                    w,
                    now,
                    if now >= self.ctx.duration() {
                        DeviceState::Idle
                    } else {
                        DeviceState::Stall
                    },
                );
            }
            if self.workers[w].pipe_waiting {
                self.maybe_continue_compute(w, now);
            }
            return;
        }
        self.complete_iteration(w, now);
    }

    /// Completed iterations cluster-wide: the clock the controllers'
    /// windows run on.
    fn total_iters(&self) -> u64 {
        self.workers.iter().map(|w| w.iter).sum()
    }

    /// `(loss-rate EWMA, goodput EWMA)` of every shard link of the
    /// workers in `ws`, as the channel currently estimates them.
    fn link_estimates(&self, ws: Range<usize>) -> impl Iterator<Item = (f64, f64)> + '_ {
        let tp = &self.ctx.cluster.transport;
        ws.flat_map(move |w| (0..self.n_shards).map(move |s| shard_link(w, self.n_shards, s)))
            .map(move |link| {
                (
                    tp.estimated_loss_rate(link),
                    tp.estimated_goodput_rate(link),
                )
            })
    }

    /// The strongest link's goodput EWMA, cluster-wide.
    fn max_goodput(&self) -> f64 {
        self.link_estimates(0..self.workers.len())
            .map(|(_, good)| good)
            .fold(0.0, f64::max)
    }

    /// Switches the whole cluster to a new staleness threshold.
    fn apply_threshold(&mut self, threshold: u32, now: Time) {
        if threshold == self.threshold() {
            return;
        }
        let kind = EventKind::AutoThreshold { threshold };
        obs!(self.ctx.journal, now, kind);
        for w in 0..self.workers.len() {
            self.server.set_bound(w, threshold);
        }
        // A loosened gate may unblock waiting pulls immediately.
        self.drain_waiting(now);
    }

    /// Runs every adaptive controller whose window elapsed; called
    /// wherever an iteration completes. Each decision is a pure function
    /// of engine state at this deterministic evaluation point, so runs
    /// stay byte-identical run to run.
    fn run_controllers(&mut self, now: Time) {
        let n = self.workers.len();
        // Auto-threshold: hysteresis over the cluster stall share of the
        // window.
        if let Some(auto) = self.auto {
            let total_iters = self.total_iters();
            if auto.window.due(total_iters) && now > auto.last_time {
                let stall: f64 = self
                    .ctx
                    .record
                    .timelines()
                    .iter()
                    .map(|t| t.time_in_between(DeviceState::Stall, auto.last_time, now))
                    .sum();
                let share = stall / ((now - auto.last_time) * n as f64);
                self.apply_threshold(auto.decide(self.threshold(), share), now);
                // The window restarts only now: a pull granted by the
                // loosened gate can complete an iteration and re-enter
                // the controllers, and that nested evaluation sees this
                // window still open.
                let auto = self.auto.as_mut().expect("checked above");
                auto.window.restart(total_iters);
                auto.last_time = now;
            }
        }
        // Adaptive bound (`roga`). Narrowing is clamped by
        // `pending_bound_floor` so every in-flight iteration still
        // satisfies the *instantaneous* bound at its next `gate_enter`.
        if let Some(mut ab) = self.adaptive {
            let total_iters = self.total_iters();
            if ab.window.due(total_iters) {
                ab.window.restart(total_iters);
                self.adaptive = Some(ab);
                let stress = link_stress(self.link_estimates(0..n), self.max_goodput());
                let desired = ab.desired(stress);
                let applied = if desired < self.threshold() {
                    desired.max(self.pending_bound_floor())
                } else {
                    desired
                };
                self.apply_threshold(applied, now);
            }
        }
        // Per-link codec selection (`--codec auto`): per-worker stress
        // combines the worst loss EWMA across the worker's shard links
        // with how far its weakest link's goodput lags the cluster's
        // best.
        if let Some(mut ca) = self.codec_auto {
            let total_iters = self.total_iters();
            if ca.window.due(total_iters) {
                ca.window.restart(total_iters);
                self.codec_auto = Some(ca);
                self.select_codecs(ca, now);
            }
        }
    }

    /// Re-picks every online worker's codec from its links' stress and
    /// journals the switches.
    fn select_codecs(&mut self, ca: CodecAuto, now: Time) {
        let max_good = self.max_goodput();
        let decisions: Vec<_> = (0..self.workers.len())
            .filter(|&w| !self.ctx.offline[w])
            .map(|w| {
                let stress = link_stress(self.link_estimates(w..w + 1), max_good);
                let current_sparse = self.workers[w].role.worker().codec().name() == "sparse";
                (w, ca.choose(stress, current_sparse))
            })
            .collect();
        for (w, choice) in decisions {
            let codec = choice.build();
            if self.workers[w].role.worker().codec().name() == codec.name() {
                continue;
            }
            // Residuals carry across the switch on both sides (the
            // error-feedback invariant holds for any encoder), so no
            // gradient mass is lost at the boundary.
            self.workers[w].role.set_codec(codec);
            self.server.set_codec(w, codec);
            obs!(
                self.ctx.journal,
                now,
                EventKind::CodecSelect {
                    w: w as u32,
                    codec: codec.name(),
                }
            );
        }
    }

    /// The narrowest bound the in-flight state admits. Any iteration
    /// that can reach a `gate_enter` without passing a *new* pull grant
    /// must still satisfy the instantaneous bound there, so narrowing
    /// clamps here. Legs already parked at a gate are exempt: their next
    /// grant re-checks under the new bound before the cycle proceeds.
    fn pending_bound_floor(&self) -> u32 {
        let mut floor: u64 = 0;
        for (w, ws) in self.workers.iter().enumerate() {
            if self.ctx.offline[w] {
                continue;
            }
            // Highest iteration this worker can push without a new pull
            // grant: the cycle it is computing or pushing now, plus one
            // more once the current cycle's pulls have been granted.
            let next = ws.iter.max(ws.role.cycle_iter()) + 1;
            for s in 0..self.n_shards {
                if self.server.is_parked((w, s)) {
                    continue;
                }
                let min = self.server.server().versions(s).global_min();
                floor = floor.max(next.saturating_sub(min));
            }
        }
        u32::try_from(floor).unwrap_or(u32::MAX)
    }

    fn complete_iteration(&mut self, w: usize, now: Time) {
        self.workers[w].iter += 1;
        self.ctx.end_iteration(w, self.workers[w].iter, now);
        self.run_controllers(now);
        compute_or_retire(self, w, now);
    }

    /// Debug-build invariant watchdog: each shard's min(V) may never
    /// regress, and in the static-threshold sequential configuration —
    /// while no shard outage made a cycle skip a shard — no push may
    /// carry an iteration past the RSP staleness bound (pipeline mode
    /// runs compute bounded-ahead of the gated comm cycle, so its pushes
    /// may legitimately lead by the pipeline depth as well).
    #[cfg(debug_assertions)]
    fn check_version_invariants(&mut self, s: usize, pushed_iter: u64) {
        let min = self.server.server().versions(s).global_min();
        assert!(
            min >= self.last_global_min[s],
            "shard {s} global_min regressed: {} -> {min}",
            self.last_global_min[s]
        );
        self.last_global_min[s] = min;
        if self.auto.is_none() && !self.pipeline && !self.skipped_shard_push {
            let bound = gate::rsp_bound(self.threshold());
            assert!(
                pushed_iter <= min + bound,
                "staleness bound violated on shard {s}: pushed iter {pushed_iter}, min {min}, bound {bound}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ModelScale, WorkloadKind};

    fn run_metrics(cfg: &ExperimentConfig) -> RunMetrics {
        run(cfg).0
    }

    fn cfg(threshold: u32) -> ExperimentConfig {
        ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Stable,
            strategy: Strategy::Rog { threshold },
            model_scale: ModelScale::Small,
            n_workers: 2,
            n_laptop_workers: 0,
            duration_secs: 120.0,
            eval_every: 5,
            seed: 42,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn rog_completes_iterations_and_checkpoints() {
        let m = run_metrics(&cfg(4));
        assert!(
            m.mean_iterations >= 10.0,
            "iterations {}",
            m.mean_iterations
        );
        assert!(!m.checkpoints.is_empty());
        assert!(m.composition.compute > 0.0);
        assert!(m.composition.communicate > 0.0);
    }

    #[test]
    fn rog_is_deterministic() {
        let a = run_metrics(&cfg(4));
        let b = run_metrics(&cfg(4));
        assert_eq!(a.differences(&b), Vec::<String>::new());
    }

    #[test]
    fn rog_trains_without_collapse() {
        let m = run_metrics(&cfg(4));
        let first = m.checkpoints.first().expect("has checkpoints").metric;
        let last = m.checkpoints.last().expect("has checkpoints").metric;
        assert!(
            last > first - 3.0,
            "accuracy should not collapse: {first} -> {last}"
        );
    }

    #[test]
    fn micro_recording_captures_pushes() {
        let mut c = cfg(4);
        c.record_micro = true;
        c.duration_secs = 60.0;
        let m = run_metrics(&c);
        assert!(!m.micro.is_empty());
        for s in &m.micro {
            assert!(s.transmission_rate > 0.0 && s.transmission_rate <= 1.0);
            assert!(s.bandwidth_bps > 0.0);
        }
    }

    #[test]
    fn pipelined_rog_runs_and_outpaces_sequential() {
        let base = cfg(4);
        let seq = run_metrics(&base);
        let mut pipec = cfg(4);
        pipec.pipeline = true;
        let pipe = run_metrics(&pipec);
        assert!(pipe.name.contains("+pipe"));
        // Overlapping comm and compute must not reduce throughput; on a
        // stable channel it should clearly increase it.
        assert!(
            pipe.mean_iterations > seq.mean_iterations * 1.1,
            "pipeline {} vs sequential {}",
            pipe.mean_iterations,
            seq.mean_iterations
        );
        // Training still works.
        let first = pipe.checkpoints.first().expect("ckpt").metric;
        let last = pipe.checkpoints.last().expect("ckpt").metric;
        assert!(last > first - 3.0, "accuracy collapsed: {first} -> {last}");
    }

    #[test]
    fn pipelined_rog_is_deterministic() {
        let mut c = cfg(4);
        c.pipeline = true;
        let a = run_metrics(&c);
        let b = run_metrics(&c);
        assert_eq!(a.differences(&b), Vec::<String>::new());
    }

    #[test]
    fn auto_threshold_runs_and_adapts() {
        let mut c = cfg(4);
        c.auto_threshold = true;
        c.environment = Environment::Outdoor;
        c.duration_secs = 240.0;
        let m = run_metrics(&c);
        assert!(m.name.contains("+auto"));
        assert!(m.mean_iterations > 5.0);
        // Determinism is preserved with the controller on.
        let m2 = run_metrics(&c);
        assert_eq!(m.checkpoints, m2.checkpoints);
    }

    #[test]
    fn unstable_channel_still_converges_on_iterations() {
        let mut c = cfg(4);
        c.environment = Environment::Outdoor;
        c.duration_secs = 90.0;
        let m = run_metrics(&c);
        assert!(m.mean_iterations >= 5.0, "iterations {}", m.mean_iterations);
    }

    #[test]
    fn departed_worker_does_not_block_the_survivor() {
        use rog_fault::FaultPlan;
        let fault_free = run_metrics(&cfg(4));
        let mut c = cfg(4);
        c.fault_plan = Some(FaultPlan::new().worker_offline(1, 30.0, 90.0));
        let m = run_metrics(&c);
        assert!(m.name.contains("+faults"));
        // The offline window lands in the timeline (worker 1, 60 s).
        assert!(
            (m.offline_secs - 60.0).abs() < 5.0,
            "offline {}",
            m.offline_secs
        );
        // Dynamic membership: the survivor keeps iterating instead of
        // pinning at the departed worker's last push, so the cluster
        // loses far less than the naive half of the outage.
        assert!(
            m.mean_iterations > fault_free.mean_iterations * 0.6,
            "churn {} vs fault-free {}",
            m.mean_iterations,
            fault_free.mean_iterations
        );
        // Bounded stall: the survivor must not sit at the gate for the
        // outage (that is what a BSP-style barrier would do).
        assert!(
            m.stall_secs < 30.0,
            "survivor stalled {} s during a 60 s outage",
            m.stall_secs
        );
    }

    #[test]
    fn blackout_suspends_and_resumes_the_cycle() {
        use rog_fault::FaultPlan;
        let mut c = cfg(4);
        c.fault_plan = Some(FaultPlan::new().link_blackout(1, 20.0, 40.0));
        let m = run_metrics(&c);
        assert!(m.mean_iterations > 10.0, "iters {}", m.mean_iterations);
        // The interrupted transfer's bytes are wasted and retransmitted.
        assert!(m.wasted_bytes > 0.0);
        let m2 = run_metrics(&c);
        assert_eq!(m.checkpoints, m2.checkpoints, "faulty runs replay");
        assert_eq!(m.mean_iterations, m2.mean_iterations);
    }

    #[test]
    fn server_restart_parks_everyone_then_recovers() {
        use rog_fault::FaultPlan;
        let mut c = cfg(4);
        c.fault_plan = Some(FaultPlan::new().server_restart(40.0, 55.0));
        let m = run_metrics(&c);
        assert!(m.mean_iterations > 10.0, "iters {}", m.mean_iterations);
        let m2 = run_metrics(&c);
        assert_eq!(m.checkpoints, m2.checkpoints);
    }

    #[test]
    fn seeded_churn_is_deterministic_and_trains() {
        let mut c = cfg(4);
        c.duration_secs = 240.0;
        c.fault_seed = Some(3);
        let a = run_metrics(&c);
        let b = run_metrics(&c);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.total_energy_j, b.total_energy_j);
        assert!(a.mean_iterations > 5.0, "iters {}", a.mean_iterations);
        let first = a.checkpoints.first().expect("ckpt").metric;
        let last = a.checkpoints.last().expect("ckpt").metric;
        assert!(last > first - 3.0, "accuracy collapsed: {first} -> {last}");
    }

    #[test]
    fn pipelined_rog_survives_churn_deterministically() {
        use rog_fault::FaultPlan;
        let mut c = cfg(4);
        c.pipeline = true;
        c.fault_plan = Some(
            FaultPlan::new()
                .worker_offline(1, 25.0, 55.0)
                .link_blackout(0, 70.0, 80.0),
        );
        let a = run_metrics(&c);
        let b = run_metrics(&c);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert!(a.mean_iterations > 5.0, "iters {}", a.mean_iterations);
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run_exactly() {
        use rog_fault::FaultPlan;
        let base = run_metrics(&cfg(4));
        let mut c = cfg(4);
        c.fault_plan = Some(FaultPlan::new());
        let empty = run_metrics(&c);
        assert_eq!(base.name, empty.name);
        assert_eq!(base.checkpoints, empty.checkpoints);
        assert_eq!(base.mean_iterations, empty.mean_iterations);
        assert_eq!(base.total_energy_j, empty.total_energy_j);
        assert_eq!(base.useful_bytes, empty.useful_bytes);
        assert_eq!(base.wasted_bytes, empty.wasted_bytes);
    }

    #[test]
    fn explicit_single_shard_matches_default_exactly() {
        let base = run(&cfg(4));
        let mut c = cfg(4);
        c.n_shards = 1;
        let one = run(&c);
        assert_eq!(base.0.name, one.0.name);
        assert_eq!(base.0.checkpoints, one.0.checkpoints);
        assert_eq!(base.0.total_energy_j, one.0.total_energy_j);
        assert_eq!(base.0.useful_bytes, one.0.useful_bytes);
        assert_eq!(base.1.to_jsonl(), one.1.to_jsonl());
    }

    #[test]
    fn sharded_rog_is_deterministic_and_trains() {
        let mut c = cfg(4);
        c.n_shards = 2;
        let a = run_metrics(&c);
        assert!(a.name.contains("+shard2"), "name {}", a.name);
        assert!(a.mean_iterations > 5.0, "iters {}", a.mean_iterations);
        let b = run_metrics(&c);
        assert_eq!(a.differences(&b), Vec::<String>::new());
    }

    #[test]
    fn shard_outage_at_two_shards_still_trains_deterministically() {
        use rog_fault::FaultPlan;
        let mut c = cfg(4);
        c.n_shards = 2;
        c.fault_plan = Some(FaultPlan::new().server_restart_on(1, 40.0, 55.0));
        let a = run_metrics(&c);
        assert!(a.mean_iterations > 10.0, "iters {}", a.mean_iterations);
        let b = run_metrics(&c);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.total_energy_j, b.total_energy_j);
    }

    #[test]
    fn pipelined_sharded_rog_is_deterministic() {
        let mut c = cfg(4);
        c.pipeline = true;
        c.n_shards = 4;
        let a = run_metrics(&c);
        assert!(a.mean_iterations > 5.0, "iters {}", a.mean_iterations);
        let b = run_metrics(&c);
        assert_eq!(a.differences(&b), Vec::<String>::new());
    }
}
