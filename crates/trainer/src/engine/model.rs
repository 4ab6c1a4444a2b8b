//! Model-granularity engine: BSP, SSP, ASP, FLOWN, DSSP and ABS.
//!
//! Per iteration each worker computes gradients, pushes the *whole*
//! compressed model to the parameter server, and asks to pull the
//! averaged gradients. The pull is granted only when the SSP gate allows
//! the worker to proceed (BSP: threshold 0 → lockstep); otherwise the
//! worker stalls. All pushes and pulls contend for the shared wireless
//! channel, so one straggling transmission stalls everyone at the gate —
//! the straggler effect ROG eliminates.
//!
//! The decisions are rog-core's roles on a one-shard plane, every row in
//! every leg: a [`WorkerRole`] per worker (`accumulate`,
//! `commit_landed`, `apply`, `rejoin`) and a [`ServerRole`]
//! (`ingest`, `retry`, `take_parked`, `drain_into`, `withdraw`,
//! `bound`, `set_bound`, `rejoin`) gating each worker at its own bound,
//! SSP `t` as RSP threshold `t + 1`. Model-granular and the engine's
//! own: whole-model reliable transfers, a pull drained at grant time,
//! static membership, `GateControl` and the push/gate/pull records —
//! no role step that journals, whose `row_push`/`row_pull`/`mta`
//! records the baselines' journal never had.

use rog_core::{
    Gate, ImportanceMetric, LegId, RogWorkerConfig, RowBatch, RowId, ServerRole, ShardMap,
    ShardedServer, WorkerRole,
};
use rog_net::FlowEvent;
use rog_obs::{obs, EventKind};
use rog_sim::{DeviceState, Time};

use crate::compute;
use crate::config::ExperimentConfig;
use crate::engine::common::{
    compute_or_retire, drive, finish_rejoin, Engine, EngineCtx, FlowTable, Transfer,
};
use crate::engine::control::{GateControl, Round};
use crate::metrics::RunMetrics;
use crate::run::FleetStats;

struct WState {
    /// Accumulated gradients, push residuals and the SGD step.
    role: WorkerRole,
    /// Completed iterations (currently computing `iter + 1`).
    iter: u64,
    push_started: Time,
    /// When the worker's current round started (previous push-done),
    /// feeding the DSSP iteration-rate estimate.
    round_started: Time,
    /// When the worker joined the gate wait.
    gate_entered: Time,
    /// How long the last granted pull waited at the gate (ABS's stall
    /// accounting).
    last_gate_wait: f64,
    /// The push or pull to restart from scratch once connectivity
    /// returns after a fault. Membership is *static*: a departed
    /// worker's version pins the SSP/BSP gate until it rejoins — the
    /// fragility ROG's dynamic membership removes.
    resume: Option<FlowCtx>,
}

enum FlowCtx {
    Push(usize),
    /// The worker's drained gradients wait in its row batch.
    Pull(usize),
    /// Full-model transfer bringing a rejoining worker back in sync.
    Resync(usize),
}

impl FlowCtx {
    fn worker(&self) -> usize {
        match self {
            FlowCtx::Push(w) | FlowCtx::Pull(w) | FlowCtx::Resync(w) => *w,
        }
    }
}

impl Transfer for FlowCtx {
    fn resync(w: usize) -> Self {
        FlowCtx::Resync(w)
    }

    /// Every push and pull talks to the one shard.
    fn shard(&self) -> Option<usize> {
        match self {
            FlowCtx::Push(_) | FlowCtx::Pull(_) => Some(0),
            FlowCtx::Resync(_) => None,
        }
    }
}

struct ModelEngine {
    ctx: EngineCtx,
    workers: Vec<WState>,
    /// Algorithm 2 on one shard holding every row.
    server: ServerRole,
    /// Each worker's SSP bound.
    thresholds: Vec<u32>,
    /// Rewrites `thresholds` after every push; `None` for the fixed
    /// bounds (BSP/SSP/ASP). DSSP/ABS changes are journaled as
    /// `threshold_adapt` events so the instantaneous bound is
    /// observable and replayable. The journaled value never narrows
    /// below a granted-but-unpushed iteration's lead (see
    /// [`ModelEngine::refresh_thresholds`]).
    control: Option<GateControl>,
    /// Last journaled per-worker threshold; `None` before the first
    /// `threshold_adapt` event.
    journaled_thr: Vec<Option<u32>>,
    /// In-flight transfers. Every model-granularity transfer is
    /// reliable-class: the baselines have no row granularity to degrade
    /// to, so a lost chunk must be resent before the worker can move —
    /// which is exactly why they stall under loss where ROG keeps
    /// training.
    flows: FlowTable<FlowCtx>,
    /// Every row in global order: what each push and pull carries.
    rows: Vec<RowId>,
    /// Each worker's row batch: its push is committed into it and
    /// ingested from it; its granted pull is drained into it at grant
    /// time and applied when the transfer lands.
    payloads: Vec<RowBatch>,
    /// The parked pulls a release scan re-checks, reused across scans.
    scan: Vec<(LegId, u64)>,
}

/// Runs one model-granularity experiment, returning the event journal
/// and the plane's ingest counter alongside the metrics.
pub fn run(cfg: &ExperimentConfig) -> (RunMetrics, rog_obs::Journal, FleetStats) {
    let ctx = EngineCtx::new(cfg);
    let n = cfg.n_workers;
    let init = &ctx.cluster.init_model;
    let rows: Vec<RowId> = (0..init.row_widths().len()).map(RowId).collect();
    let (fixed, control) = GateControl::for_strategy(cfg.strategy, n, ctx.model_wire_bytes);
    // Both ends run the default one-bit codec with seed-0 residuals (it
    // never draws from them); the plane's threshold seeds every gate
    // bound. A worker's own threshold is unread: the baselines never rank.
    let plane = ShardedServer::new(
        init.params(),
        n,
        fixed.saturating_add(1),
        ImportanceMetric::default(),
        ShardMap::contiguous(rows.len(), 1),
    );
    let workers: Vec<WState> = (0..n)
        .map(|_| WState {
            role: WorkerRole::new(init.params(), RogWorkerConfig::new(0, ctx.cluster.lr), 1),
            iter: 0,
            push_started: 0.0,
            round_started: 0.0,
            gate_entered: 0.0,
            last_gate_wait: 0.0,
            resume: None,
        })
        .collect();
    let mut engine = ModelEngine {
        ctx,
        workers,
        server: ServerRole::new(plane, None),
        thresholds: vec![fixed; n],
        control,
        journaled_thr: vec![None; n],
        flows: FlowTable::new(n),
        rows,
        payloads: vec![RowBatch::default(); n],
        scan: Vec::new(),
    };
    engine.refresh_thresholds(0.0);
    drive(&mut engine);
    let stats = FleetStats {
        nonfinite_dropped: engine.server.nonfinite_dropped(),
        ..FleetStats::default()
    };
    let (metrics, journal) = engine.ctx.finish();
    (metrics, journal, stats)
}

impl Engine for ModelEngine {
    type Flow = FlowCtx;

    fn parts(&mut self) -> (&mut EngineCtx, &mut FlowTable<FlowCtx>) {
        (&mut self.ctx, &mut self.flows)
    }

    fn start_compute(&mut self, w: usize, now: Time) {
        self.ctx.start_compute(w, self.workers[w].iter + 1, now);
    }

    fn on_flow(&mut self, flow: FlowCtx, ev: FlowEvent) {
        let w = flow.worker();
        let Some(flow) = self.flows.on_reliable_round(&mut self.ctx, w, &ev, flow) else {
            // Backing off; through the gate the stall eventually
            // reaches everyone.
            return;
        };
        match flow {
            FlowCtx::Push(w) => self.on_push_done(w, ev.at),
            FlowCtx::Pull(w) => self.on_pull_done(w, ev.at),
            FlowCtx::Resync(w) => finish_rejoin(self, w, ev.at),
        }
    }

    fn on_compute_done(&mut self, w: usize, now: Time) {
        let (grads, mean_abs) = compute::take_draw(&mut self.ctx, w);
        self.workers[w].role.accumulate(&grads);
        self.ctx.recycle_grads(grads);
        if let Some(control) = &mut self.control {
            control.on_gradient(w, f64::from(mean_abs));
        }
        self.start_push(w, now);
    }

    fn iteration(&self, w: usize) -> u64 {
        self.workers[w].iter
    }

    /// The departed worker's parked pull and suspended transfer go (its
    /// accumulated gradients go at the rejoin). Its version row is NOT
    /// aged out: the baselines have static membership, so the departed
    /// worker pins the BSP/SSP gate until it rejoins, and no release
    /// scan runs.
    fn depart(&mut self, w: usize, _: Time) {
        self.server.withdraw(w);
        self.workers[w].resume = None;
    }

    fn suspend(&mut self, w: usize, flow: FlowCtx) {
        self.workers[w].resume = Some(flow);
    }

    /// Nothing resumes while the server is down.
    fn resume(&mut self, w: usize, now: Time) {
        if self.ctx.any_server_down() {
            return;
        }
        match self.workers[w].resume.take() {
            Some(FlowCtx::Push(_)) => self.start_push(w, now),
            // A cut pull resends the payload drained at its grant.
            Some(pull) => {
                self.ctx.set_state(w, now, DeviceState::Communicate);
                self.start_transfer(w, now, pull);
            }
            None => {}
        }
    }

    fn drain_waiting(&mut self, now: Time) {
        if self.ctx.any_server_down() {
            return;
        }
        let mut scan = std::mem::take(&mut self.scan);
        self.server.take_parked(&mut scan);
        for &((w, s), n) in &scan {
            if self.server.retry((w, s), n, self.ctx.reachable(w, s)) == Gate::Granted {
                self.grant_pull(w, now);
            }
        }
        self.scan = scan;
    }

    /// Drops the lost lineage's accumulated gradients and residuals on
    /// both ends and the stale averaged gradients the server still held
    /// for this worker, and fast-forwards its version so the gate
    /// reflects the adopted iteration.
    fn rejoin(&mut self, w: usize, n: u64, now: Time) {
        let ws = &mut self.workers[w];
        ws.iter = n;
        ws.role.rejoin(n);
        ws.resume = None;
        // The outage is not an iteration round; restart the round clock
        // so DSSP's rate estimate only sees time spent training.
        ws.round_started = now;
        self.server.rejoin(w, n);
    }
}

impl ModelEngine {
    /// The iteration worker `w` last pushed or resynced to: a
    /// whole-model push stamps every row alike, so row 0 speaks for the
    /// model.
    fn version(&self, w: usize) -> u64 {
        self.server.server().versions(0).get(w, 0)
    }

    fn refresh_thresholds(&mut self, now: Time) {
        let Some(control) = &mut self.control else {
            return;
        };
        control.assign(&mut self.thresholds);
        for (w, &t) in self.thresholds.iter().enumerate() {
            if self.server.bound(w).threshold() != t.saturating_add(1) {
                self.server.set_bound(w, t.saturating_add(1));
            }
        }
        // FLOWN's schedule is not journaled (no checker replays it).
        if matches!(control, GateControl::Flown(_)) {
            return;
        }
        // Journal the instantaneous per-worker bound. A worker that was
        // already granted its pull (not waiting at the gate) may carry
        // a lead admitted under the wider bound in force at grant time,
        // so the journaled bound never narrows below that lead — every
        // `gate_enter` then satisfies `lead <= bound + 1` against the
        // bound in force at its own timestamp. Gating itself always
        // uses the raw policy thresholds, so a waiting worker is never
        // released early by its own lead.
        let min = self.server.server().versions(0).global_min();
        for w in 0..self.workers.len() {
            let raw = self.thresholds[w];
            let journaled = if self.server.is_parked((w, 0)) {
                raw
            } else {
                let lead = self.version(w) - min;
                raw.max(u32::try_from(lead).unwrap_or(u32::MAX))
            };
            if self.journaled_thr[w] != Some(journaled) {
                self.journaled_thr[w] = Some(journaled);
                obs!(
                    self.ctx.journal,
                    now,
                    EventKind::ThresholdAdapt {
                        w: w as u32,
                        threshold: journaled,
                    }
                );
            }
        }
    }

    /// Puts one whole-model transfer of worker `w` on its link.
    fn start_transfer(&mut self, w: usize, now: Time, flow: FlowCtx) {
        let bytes = self.ctx.model_wire_bytes;
        self.flows
            .start_reliable(&mut self.ctx, now, w, w, bytes, flow);
    }

    /// Starts (or, after a fault, parks) the whole-model push transfer.
    fn start_push(&mut self, w: usize, now: Time) {
        if !self.ctx.can_push(w) {
            self.workers[w].resume = Some(FlowCtx::Push(w));
            self.ctx.set_state(w, now, DeviceState::Stall);
            return;
        }
        self.workers[w].push_started = now;
        // Model granularity pushes the whole model: every row is
        // mandatory, there is no MTA budget.
        let rows = self.rows.len() as u32;
        obs!(
            self.ctx.journal,
            now,
            EventKind::PushStart {
                w: w as u32,
                iter: self.workers[w].iter + 1,
                rows,
                mand: rows,
                mta: 0,
                budget: -1.0,
            }
        );
        self.ctx.set_state(w, now, DeviceState::Communicate);
        self.start_transfer(w, now, FlowCtx::Push(w));
    }

    fn on_push_done(&mut self, w: usize, now: Time) {
        let pushed_iter = self.workers[w].iter + 1;
        // The pusher's error feedback, averaged into every worker's
        // pending copy.
        let (ws, buf) = (&mut self.workers[w], &mut self.payloads[w]);
        ws.role.commit_landed(&self.rows, pushed_iter, buf);
        self.server.ingest((w, 0), pushed_iter, buf);
        // Bandwidth estimate for FLOWN; round accounting for DSSP/ABS.
        let round = Round {
            worker: w,
            push_secs: (now - ws.push_started).max(1e-6),
            round_secs: now - ws.round_started,
            gate_wait: ws.last_gate_wait,
        };
        ws.round_started = now;
        if let Some(control) = &mut self.control {
            control.observe(round);
        }
        self.refresh_thresholds(now);
        obs!(
            self.ctx.journal,
            now,
            EventKind::PushEnd {
                w: w as u32,
                iter: pushed_iter,
                rows: self.rows.len() as u32,
                bytes: self.ctx.model_wire_bytes,
            }
        );
        // This worker now waits for its pull, behind the earlier
        // waiters: the release scan below grants in parking order.
        self.server.retry((w, 0), pushed_iter, false);
        self.workers[w].gate_entered = now;
        let min = self.server.server().versions(0).global_min();
        obs!(
            self.ctx.journal,
            now,
            EventKind::GateEnter {
                w: w as u32,
                iter: pushed_iter,
                min,
                lead: self.version(w) - min,
                row: -1,
            }
        );
        self.ctx.set_state(w, now, DeviceState::Stall);
        self.drain_waiting(now);
    }

    fn grant_pull(&mut self, w: usize, now: Time) {
        // Quantize and drain this worker's pending copy.
        self.server
            .drain_into((w, 0), &self.rows, &mut self.payloads[w]);
        // Stall accounting for ABS (assigned outside the obs! macro so
        // untraced runs stay behaviorally identical).
        self.workers[w].last_gate_wait = now - self.workers[w].gate_entered;
        obs!(
            self.ctx.journal,
            now,
            EventKind::GateExit {
                w: w as u32,
                iter: self.workers[w].iter + 1,
                waited: now - self.workers[w].gate_entered,
            }
        );
        obs!(
            self.ctx.journal,
            now,
            EventKind::PullStart {
                w: w as u32,
                iter: self.workers[w].iter + 1,
                bytes: self.ctx.model_wire_bytes,
            }
        );
        self.ctx.set_state(w, now, DeviceState::Communicate);
        self.start_transfer(w, now, FlowCtx::Pull(w));
    }

    fn on_pull_done(&mut self, w: usize, now: Time) {
        obs!(
            self.ctx.journal,
            now,
            EventKind::PullEnd {
                w: w as u32,
                iter: self.workers[w].iter + 1,
            }
        );
        let ws = &mut self.workers[w];
        ws.role
            .apply(self.ctx.models[w].params_mut(), &self.payloads[w]);
        ws.iter += 1;
        self.ctx.end_iteration(w, ws.iter, now);
        compute_or_retire(self, w, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ModelScale, Strategy, WorkloadKind};

    fn run_metrics(cfg: &ExperimentConfig) -> RunMetrics {
        run(cfg).0
    }

    fn cfg(strategy: Strategy) -> ExperimentConfig {
        ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Stable,
            strategy,
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
    fn bsp_completes_iterations_and_checkpoints() {
        let m = run_metrics(&cfg(Strategy::Bsp));
        assert!(
            m.mean_iterations >= 10.0,
            "iterations {}",
            m.mean_iterations
        );
        assert!(!m.checkpoints.is_empty());
        assert!(m.composition.compute > 0.0);
        assert!(m.composition.communicate > 0.0);
        assert!(m.total_energy_j > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_metrics(&cfg(Strategy::Ssp { threshold: 4 }));
        let b = run_metrics(&cfg(Strategy::Ssp { threshold: 4 }));
        assert_eq!(a.differences(&b), Vec::<String>::new());
    }

    #[test]
    fn training_improves_the_metric() {
        let m = run_metrics(&cfg(Strategy::Bsp));
        let first = m.checkpoints.first().expect("has checkpoints").metric;
        let last = m.checkpoints.last().expect("has checkpoints").metric;
        assert!(
            last > first - 3.0,
            "accuracy should not collapse: {first} -> {last}"
        );
    }

    #[test]
    fn flown_runs_to_completion() {
        let m = run_metrics(&cfg(Strategy::Flown {
            min_threshold: 2,
            max_threshold: 8,
        }));
        assert!(m.mean_iterations > 5.0);
    }

    #[test]
    fn bsp_blocks_for_the_whole_outage_then_recovers() {
        use rog_fault::FaultPlan;
        let fault_free = run_metrics(&cfg(Strategy::Bsp));
        let mut c = cfg(Strategy::Bsp);
        c.fault_plan = Some(FaultPlan::new().worker_offline(1, 30.0, 90.0));
        let m = run_metrics(&c);
        // Static membership: the survivor pins at the barrier for
        // (roughly) the entire 60 s outage — the fragility ROG's
        // dynamic membership removes.
        assert!(
            m.stall_secs > fault_free.stall_secs + 40.0,
            "BSP stall {} vs fault-free {}",
            m.stall_secs,
            fault_free.stall_secs
        );
        assert!(
            m.mean_iterations < fault_free.mean_iterations,
            "outage must cost BSP iterations"
        );
        // But training resumes after the rejoin resync.
        assert!(m.mean_iterations > 5.0, "iters {}", m.mean_iterations);
        let m2 = run_metrics(&c);
        assert_eq!(
            m.differences(&m2),
            Vec::<String>::new(),
            "faulty runs replay"
        );
    }

    #[test]
    fn model_engine_survives_blackout_and_server_restart() {
        use rog_fault::FaultPlan;
        let mut c = cfg(Strategy::Ssp { threshold: 4 });
        c.fault_plan = Some(
            FaultPlan::new()
                .link_blackout(0, 20.0, 35.0)
                .server_restart(60.0, 75.0),
        );
        let a = run_metrics(&c);
        let b = run_metrics(&c);
        assert_eq!(a.differences(&b), Vec::<String>::new());
        assert!(a.mean_iterations > 5.0, "iters {}", a.mean_iterations);
    }

    #[test]
    fn bsp_workers_stay_in_lockstep() {
        // Under BSP both workers complete the same number of iterations
        // (±1 for the cut-off at the time budget).
        let m = run_metrics(&cfg(Strategy::Bsp));
        // mean_iterations is the average; with lockstep the per-worker
        // counts differ by at most 1, so the fractional part is 0 or .5.
        let frac = m.mean_iterations.fract();
        assert!(
            frac < 0.51,
            "lockstep violated: mean iterations {}",
            m.mean_iterations
        );
    }
}
