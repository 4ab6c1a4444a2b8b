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
//! The server is rog-core's parameter plane with one shard and the
//! one-bit codec, the store ROG's row engine runs on: pushes, drains,
//! rejoins and `min(V)` all go through [`ShardedServer`]. Only *when* a
//! pull is granted is the engine's own ([`gate::may_proceed`] with a
//! bound per worker, as FLOWN and DSSP assign them); membership is
//! static, so every push is averaged over all workers.

use rog_compress::{CodecState, OneBitCodec, RowCodec};
use rog_core::{gate, ImportanceMetric, RowId, RowPartition, ShardMap, ShardedServer};
use rog_fault::FaultEvent;
use rog_models::GradSet;
use rog_net::{FlowEvent, FlowOutcome};
use rog_obs::{obs, EventKind};
use rog_sim::{DeviceState, Time};
use rog_tensor::ops;

use crate::compute;
use crate::config::ExperimentConfig;
use crate::engine::common::{compute_or_retire, drive, Engine, EngineCtx, FlowTable};
use crate::engine::control::{GateControl, Round};
use crate::metrics::RunMetrics;
use crate::run::FleetStats;

struct WState {
    /// Completed iterations (currently computing `iter + 1`).
    iter: u64,
    grads: Option<GradSet>,
    /// Whole-model push compression residuals.
    ef: CodecState,
    push_started: Time,
    /// When the worker's current round started (previous push-done),
    /// feeding the DSSP iteration-rate estimate.
    round_started: Time,
    /// When the worker joined the gate wait.
    gate_entered: Time,
    /// How long the last granted pull waited at the gate (ABS's stall
    /// accounting).
    last_gate_wait: f64,
    /// The transfer to restart from scratch once connectivity returns
    /// after a fault (a pull's drained averaged gradients stay in the
    /// worker's payload buffer; a push's `grads` are still held).
    /// Model-granularity strategies keep *static* membership — a
    /// departed worker's version pins the SSP/BSP gate until it
    /// rejoins, which is exactly the fragility ROG's dynamic membership
    /// removes.
    resume: Option<FlowCtx>,
}

enum FlowCtx {
    Push(usize),
    /// The worker's drained gradients wait in its payload buffer.
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

struct ModelEngine {
    ctx: EngineCtx,
    workers: Vec<WState>,
    /// Algorithm 2's server state: pending copies, pull residuals and
    /// version store, one shard holding every row.
    plane: ShardedServer,
    /// Workers whose pull awaits the gate.
    waiting: Vec<usize>,
    /// Each worker's staleness bound.
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
    partition: RowPartition,
    /// Every row in global order: what each push and pull carries.
    rows: Vec<RowId>,
    /// The push being ingested, filled in place by the pusher's error
    /// feedback.
    push_buf: Vec<(RowId, Vec<f32>)>,
    /// Each worker's last granted pull, drained at grant time and
    /// applied when its transfer lands.
    payloads: Vec<Vec<(RowId, Vec<f32>)>>,
    model_wire_bytes: u64,
}

/// Runs one model-granularity experiment, returning the event journal
/// and the plane's ingest counter alongside the metrics.
pub fn run(cfg: &ExperimentConfig) -> (RunMetrics, rog_obs::Journal, FleetStats) {
    let ctx = EngineCtx::new(cfg);
    let n = cfg.n_workers;
    let init = &ctx.cluster.init_model;
    let widths = init.row_widths();
    let partition = RowPartition::of_params(init.params());
    // Model-granularity baselines always ship the dense one-bit model
    // (the codec ladder is a row-granular feature).
    let model_wire_bytes = ctx
        .cluster
        .scaled_model_bytes(widths.iter().map(|&w| OneBitCodec.payload_bytes(w)));
    let rows: Vec<RowId> = (0..partition.n_rows()).map(RowId).collect();
    // The plane's default codec is one-bit with seed-0 residuals, the
    // workers' push codec; its uniform threshold is never consulted
    // (the gate below bounds each worker on its own).
    let plane = ShardedServer::new(
        init.params(),
        n,
        0,
        ImportanceMetric::default(),
        ShardMap::contiguous(rows.len(), 1),
    );
    let push_buf = rows
        .iter()
        .map(|&id| (id, vec![0.0; partition.width(id)]))
        .collect();
    // One-bit never draws from the state's RNG: the seed is immaterial.
    let ef = CodecState::new(&widths, 0);
    let workers: Vec<WState> = (0..n)
        .map(|_| WState {
            iter: 0,
            grads: None,
            ef: ef.clone(),
            push_started: 0.0,
            round_started: 0.0,
            gate_entered: 0.0,
            last_gate_wait: 0.0,
            resume: None,
        })
        .collect();
    let (fixed, control) = GateControl::for_strategy(cfg.strategy, n, model_wire_bytes);
    let mut engine = ModelEngine {
        ctx,
        workers,
        plane,
        waiting: Vec::new(),
        thresholds: vec![fixed; n],
        control,
        journaled_thr: vec![None; n],
        flows: FlowTable::new(n),
        partition,
        rows,
        push_buf,
        payloads: vec![Vec::new(); n],
        model_wire_bytes,
    };
    engine.refresh_thresholds(0.0);
    drive(&mut engine);
    let stats = FleetStats {
        nonfinite_dropped: engine.plane.nonfinite_dropped(),
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
        debug_assert!(
            matches!(ev.outcome, FlowOutcome::Completed),
            "model flows have no deadline and cancels are reaped early"
        );
        let w = flow.worker();
        let Some(flow) = self.flows.on_reliable_round(&mut self.ctx, w, &ev, flow) else {
            // Backing off; through the gate the stall eventually
            // reaches everyone.
            return;
        };
        match flow {
            FlowCtx::Push(w) => self.on_push_done(w, ev.at),
            FlowCtx::Pull(w) => self.on_pull_done(w, ev.at),
            FlowCtx::Resync(w) => self.finish_resync(w, ev.at),
        }
    }

    fn on_fault(&mut self, f: FaultEvent, now: Time) {
        match f {
            FaultEvent::WorkerDown(w) => self.on_worker_down(w, now),
            FaultEvent::WorkerUp(w) => self.on_worker_up(w, now),
            FaultEvent::BlackoutStart(w) => self.on_blackout_start(w, now),
            FaultEvent::BlackoutEnd(w) => self.on_blackout_end(w, now),
            FaultEvent::ServerDown(s) => self.on_server_down(s, now),
            FaultEvent::ServerUp(s) => self.on_server_up(s, now),
            FaultEvent::AggregatorDown(_) | FaultEvent::AggregatorUp(_) => unreachable!(
                "aggregator faults are rejected for baseline strategies at engine construction"
            ),
        }
    }

    fn on_compute_done(&mut self, w: usize, now: Time) {
        let (grads, mean_abs) = compute::take_draw(&mut self.ctx, w);
        self.workers[w].grads = Some(grads);
        if let Some(control) = &mut self.control {
            control.on_gradient(w, f64::from(mean_abs));
        }
        self.start_push(w, now);
    }
}

impl ModelEngine {
    /// The iteration worker `w` last pushed or resynced to: a
    /// whole-model push stamps every row alike, so row 0 speaks for the
    /// model.
    fn version(&self, w: usize) -> u64 {
        self.plane.versions(0).get(w, 0)
    }

    fn refresh_thresholds(&mut self, now: Time) {
        let Some(control) = &mut self.control else {
            return;
        };
        control.assign(&mut self.thresholds);
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
        let min = self.plane.versions(0).global_min();
        for w in 0..self.workers.len() {
            let raw = self.thresholds[w];
            let journaled = if self.waiting.contains(&w) {
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
        self.flows
            .start_reliable(&mut self.ctx, now, w, w, self.model_wire_bytes, flow);
    }

    /// Starts (or, after a fault, parks) the whole-model push transfer.
    fn start_push(&mut self, w: usize, now: Time) {
        if self.ctx.any_server_down() || self.ctx.link_down[w] {
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
        // Quantize the pushed gradients (error feedback on the worker)
        // and average them into every worker's pending copy.
        let grads = self.workers[w]
            .grads
            .take()
            .expect("gradients were computed");
        let ef = &mut self.workers[w].ef;
        for (id, values) in &mut self.push_buf {
            let r = self.partition.locate(*id);
            ef.restore_into(&OneBitCodec, id.0, grads[r.matrix].row(r.row), values);
        }
        self.ctx.recycle_grads(grads);
        self.plane.on_push(0, w, pushed_iter, &mut self.push_buf);
        // Bandwidth estimate for FLOWN; round accounting for DSSP/ABS.
        let ws = &mut self.workers[w];
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
                bytes: self.model_wire_bytes,
            }
        );
        // This worker now waits for its pull.
        self.waiting.push(w);
        self.workers[w].gate_entered = now;
        let min = self.plane.versions(0).global_min();
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

    fn drain_waiting(&mut self, now: Time) {
        if self.ctx.any_server_down() {
            return;
        }
        let mut still_waiting = Vec::new();
        let waiting = std::mem::take(&mut self.waiting);
        let min = self.plane.versions(0).global_min();
        for w in waiting {
            if !self.ctx.offline[w]
                && !self.ctx.link_down[w]
                && gate::may_proceed(self.version(w), min, self.thresholds[w])
            {
                self.grant_pull(w, now);
            } else {
                still_waiting.push(w);
            }
        }
        self.waiting = still_waiting;
    }

    fn grant_pull(&mut self, w: usize, now: Time) {
        // Quantize and drain this worker's pending copy.
        self.plane
            .commit_pull_into(0, w, &self.rows, &mut self.payloads[w]);
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
                bytes: self.model_wire_bytes,
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
        let lr = self.ctx.cluster.lr;
        let params = self.ctx.models[w].params_mut();
        for (id, g) in &self.payloads[w] {
            ops::sgd_row(self.partition.row_mut(params, *id), g, lr);
        }
        self.workers[w].iter += 1;
        self.ctx.end_iteration(w, self.workers[w].iter, now);
        compute_or_retire(self, w, now);
    }

    // ----- fault injection ------------------------------------------------

    fn suspend_ctx(&mut self, ctx: FlowCtx) {
        let w = ctx.worker();
        self.workers[w].resume = Some(ctx);
    }

    fn on_worker_down(&mut self, w: usize, now: Time) {
        if self.ctx.offline[w] {
            return;
        }
        self.ctx.offline[w] = true;
        // State dies with the device: in-flight transfers, held
        // gradients and any parked resume are all dropped. Its version
        // row is NOT aged out — model-granularity baselines have static
        // membership, so the departed worker pins the BSP/SSP gate until
        // it rejoins (the fragility ROG's membership protocol removes).
        self.flows.sever(&mut self.ctx, w);
        self.waiting.retain(|&x| x != w);
        self.ctx.void_compute(w);
        let ws = &mut self.workers[w];
        ws.grads = None;
        ws.resume = None;
        self.ctx.set_state(w, now, DeviceState::Offline);
    }

    fn on_worker_up(&mut self, w: usize, now: Time) {
        if !self.ctx.offline[w] {
            return;
        }
        if self.ctx.any_server_down() || self.ctx.link_down[w] {
            self.workers[w].resume = Some(FlowCtx::Resync(w));
            return;
        }
        self.begin_resync(w, now);
    }

    fn begin_resync(&mut self, w: usize, now: Time) {
        let bytes = self.model_wire_bytes;
        self.flows
            .begin_resync(&mut self.ctx, now, w, w, bytes, FlowCtx::Resync(w));
    }

    /// Completes a rejoin: adopt the most advanced online peer's model
    /// (ties to the lowest index), reset compression residuals on both
    /// ends, drop the stale averaged gradients the server still held
    /// for this worker, and fast-forward its version so the gate
    /// reflects the adopted iteration.
    fn finish_resync(&mut self, w: usize, now: Time) {
        let iter = self
            .ctx
            .adopt_most_advanced_peer(w, now, |i| self.workers[i].iter);
        let ws = &mut self.workers[w];
        ws.iter = iter;
        ws.ef.reset();
        ws.grads = None;
        ws.resume = None;
        // The outage is not an iteration round; restart the round clock
        // so DSSP's rate estimate only sees time spent training.
        ws.round_started = now;
        self.plane.rejoin_worker(w, iter);
        self.ctx.offline[w] = false;
        compute_or_retire(self, w, now);
        // The fast-forwarded version can only open the gate further.
        self.drain_waiting(now);
    }

    fn on_blackout_start(&mut self, w: usize, now: Time) {
        if self.ctx.link_down[w] {
            return;
        }
        self.ctx.link_down[w] = true;
        // Retransmit-from-scratch on recovery.
        for ctx in self.flows.sever(&mut self.ctx, w) {
            self.suspend_ctx(ctx);
        }
        if !self.ctx.offline[w] && !self.ctx.done[w] && !self.ctx.computing[w] {
            self.ctx.set_state(w, now, DeviceState::Stall);
        }
    }

    fn on_blackout_end(&mut self, w: usize, now: Time) {
        if !self.ctx.link_down[w] {
            return;
        }
        self.ctx.link_down[w] = false;
        if !self.ctx.any_server_down() {
            self.resume_worker(w, now);
            self.drain_waiting(now);
        }
    }

    /// The (single logical) parameter server went down. Baselines have
    /// no sharding, so `shard` is always 0 here; the per-shard flag
    /// vector exists for the row engine.
    fn on_server_down(&mut self, shard: usize, now: Time) {
        if self.ctx.server_down[shard] {
            return;
        }
        self.ctx.server_down[shard] = true;
        for (w, ctx) in self.flows.cancel_where(&mut self.ctx, |_, _| true) {
            self.suspend_ctx(ctx);
            if !self.ctx.offline[w] && !self.ctx.done[w] && !self.ctx.computing[w] {
                self.ctx.set_state(w, now, DeviceState::Stall);
            }
        }
        for w in 0..self.workers.len() {
            if let Some(ctx) = self.flows.clear_retx(w) {
                self.suspend_ctx(ctx);
            }
        }
    }

    fn on_server_up(&mut self, shard: usize, now: Time) {
        if !self.ctx.server_down[shard] {
            return;
        }
        self.ctx.server_down[shard] = false;
        if self.ctx.any_server_down() {
            return;
        }
        for w in 0..self.workers.len() {
            if !self.ctx.link_down[w] {
                self.resume_worker(w, now);
            }
        }
        self.drain_waiting(now);
    }

    fn resume_worker(&mut self, w: usize, now: Time) {
        if self.ctx.offline[w] {
            if matches!(self.workers[w].resume, Some(FlowCtx::Resync(_))) {
                self.workers[w].resume = None;
                self.begin_resync(w, now);
            }
            return;
        }
        match self.workers[w].resume.take() {
            Some(FlowCtx::Push(_)) => self.start_push(w, now),
            Some(pull @ FlowCtx::Pull(_)) => {
                self.ctx.set_state(w, now, DeviceState::Communicate);
                self.start_transfer(w, now, pull);
            }
            Some(FlowCtx::Resync(_)) => self.begin_resync(w, now),
            None => {}
        }
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
        assert_eq!(a.mean_iterations, b.mean_iterations);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.total_energy_j, b.total_energy_j);
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
        assert_eq!(m.checkpoints, m2.checkpoints, "faulty runs replay");
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
        assert_eq!(a.checkpoints, b.checkpoints);
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
