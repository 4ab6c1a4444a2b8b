//! The traced pass: one real journaled run for exact op counts, then an
//! outside-in drive of every layer's public functions at the workload's
//! real shapes, each call (or batch of calls) recorded as a span.
//!
//! Per-op timings are medians of the sampled calls, speed-normalised
//! like the end-to-end timings (a short calibration runs between every
//! two sampled operations). Counts and ratios come from the real run's
//! journal, `FleetStats` and `RunMetrics` and repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rog_compress::{CodecChoice, CodecState, OneBitCodec, RowCodec, SparseDeltaCodec};
use rog_core::{
    AggregatorMap, AggregatorPlane, ImportanceMetric, RogWorker, RogWorkerConfig, RowId,
    RowPartition, RowVersionStore, ShardMap, ShardedServer,
};
use rog_models::{CrudaSpec, GradSet, Mlp, Workload as _};
use rog_net::wire::{decode_frame, encode_frame, FrameClass, FrameHeader};
use rog_net::{FlowSpec, LossConfig, LossModel};
use rog_obs::{gz, EventKind, Journal, TraceSummary};
use rog_sim::EventQueue;
use rog_tensor::rng::DetRng;
use rog_tensor::Matrix;
use rog_trainer::{compute, Cluster, RunOutcome, Strategy};
use rog_transport::proto::Msg;
use rog_transport::{SocketTransport, Transport as _};

use crate::calib::{Calib, CAL_NOMINAL_S};
use crate::span::Recorder;
use crate::stats::{median, normalise, percentile_sorted};
use crate::timed;
use crate::workloads::Workload;

/// One per-layer metric of one workload.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// `<layer>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median per-op time, or an exact count / ratio.
    pub value: f64,
    /// How many times the real run performs the operation (`None` for
    /// ratios and other non-operations).
    pub ops: Option<f64>,
    /// Timed samples behind `value` (0 for counts and ratios).
    pub samples: usize,
    /// 99th percentile in `unit`, where at least 1000 samples exist.
    pub p99: Option<f64>,
    /// Estimated speed-normalised seconds of the run this layer accounts for:
    /// per-op time × ops. `None` when the cost is contained in another
    /// listed layer (codec inside commit, matmul inside grad, …) or the
    /// layer is off the simulated path.
    pub est_s: Option<f64>,
}

/// Result of the traced pass on one workload.
pub struct Traced {
    /// Every per-layer metric, in report order.
    pub layers: Vec<LayerMetric>,
    /// Speed-normalised seconds of the plain (no spans, journal as the
    /// workload says) run.
    pub run_s: f64,
    /// Violated expectations (empty when the pass is correct).
    pub failures: Vec<String>,
}

/// Leaf spans kept per operation; later samples still feed the statistics.
const MAX_LEAVES: usize = 256;
/// Upper limit on samples of one operation.
const MAX_SAMPLES: usize = 200_000;

/// The layer drive's tools: the span recorder, and the calibration
/// kernel run between every two sampled blocks so that each block's
/// samples can be speed-normalised by the calibrations either side.
struct Drive<'a> {
    rec: &'a mut Recorder,
    calib: &'a mut Calib,
    /// The calibration that ended the previous block.
    last_calib_s: f64,
}

impl Drive<'_> {
    /// Runs `block`, then calibrates; returns the block's result and the
    /// factor that turns its raw times into speed-normalised ones.
    fn block<T>(&mut self, block: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let out = block(self.rec);
        let c = self.calib.short();
        let scale = CAL_NOMINAL_S / ((self.last_calib_s + c) / 2.0);
        self.last_calib_s = c;
        (out, scale)
    }

    /// Calls `call` repeatedly for about `budget_s` seconds inside a
    /// span `name`; each call covers `ops_per_call` operations and is a
    /// leaf span.
    /// Returns the speed-normalised nanoseconds per operation of every call.
    fn sample(
        &mut self,
        name: &'static str,
        budget_s: f64,
        ops_per_call: usize,
        mut call: impl FnMut(),
    ) -> Vec<f64> {
        let (mut v, scale) = self.block(|rec| {
            rec.scope(name, |rec| {
                let deadline = rec.now_ns() + (budget_s * 1e9) as u64;
                let mut v = Vec::new();
                loop {
                    let s = rec.now_ns();
                    call();
                    let e = rec.now_ns();
                    if v.len() < MAX_LEAVES {
                        rec.leaf(name, s, e);
                    }
                    v.push((e - s) as f64 / ops_per_call as f64);
                    if e >= deadline || v.len() >= MAX_SAMPLES {
                        return v;
                    }
                }
            })
        });
        v.iter_mut().for_each(|x| *x *= scale);
        v
    }
}

/// Times one call as a leaf span and appends its per-op nanoseconds.
fn timed_call<T>(
    rec: &mut Recorder,
    name: &'static str,
    into: &mut Vec<f64>,
    ops: usize,
    call: impl FnOnce() -> T,
) -> T {
    let s = rec.now_ns();
    let out = call();
    let e = rec.now_ns();
    if into.len() < MAX_LEAVES {
        rec.leaf(name, s, e);
    }
    into.push((e - s) as f64 / ops.max(1) as f64);
    out
}

/// Exact operation counts of the real run, from its journal.
#[derive(Debug, Default)]
struct JournalOps {
    iter_ends: u64,
    evals: u64,
    push_legs: u64,
    pushes_done: u64,
    push_secs: f64,
    /// Rows committed by row-engine pushes (legs announced by `row_push`).
    rows_pushed: u64,
    /// Journal payload bytes of those rows.
    row_push_bytes: u64,
    /// Push legs announced by `row_push`.
    row_push_legs: u64,
    /// Rows planned by row-engine pulls (`row_pull`).
    rows_pulled: u64,
    row_pull_legs: u64,
    pull_legs: u64,
    gate_enters: u64,
    gate_exits: u64,
    gate_blocked: u64,
    retransmits: u64,
    /// Chunks of the flows whose delivery report showed damage.
    loss_chunks: u64,
}

fn scan(journal: &Journal, eval_every: u64) -> JournalOps {
    let mut o = JournalOps::default();
    // (worker, shard) → (push start time, announced by `row_push`).
    let mut open: BTreeMap<(u32, i64), (f64, bool)> = BTreeMap::new();
    for ev in journal.events() {
        match &ev.kind {
            EventKind::IterEnd { iter, .. } => {
                o.iter_ends += 1;
                if *iter > 0 && iter.is_multiple_of(eval_every) {
                    o.evals += 1;
                }
            }
            EventKind::PushStart { w, .. } => {
                o.push_legs += 1;
                open.insert((*w, ev.shard), (ev.t, false));
            }
            EventKind::RowPush { w, .. } => {
                if let Some(p) = open.get_mut(&(*w, ev.shard)) {
                    p.1 = true;
                }
            }
            EventKind::PushEnd { w, rows, bytes, .. } => {
                o.pushes_done += 1;
                if let Some((t, row_granular)) = open.remove(&(*w, ev.shard)) {
                    o.push_secs += ev.t - t;
                    if row_granular {
                        o.row_push_legs += 1;
                        o.rows_pushed += u64::from(*rows);
                        o.row_push_bytes += bytes;
                    }
                }
            }
            EventKind::PullStart { .. } => o.pull_legs += 1,
            EventKind::RowPull { rows, .. } => {
                o.row_pull_legs += 1;
                o.rows_pulled += rows.len() as u64;
            }
            EventKind::GateEnter { .. } => o.gate_enters += 1,
            EventKind::GateExit { waited, .. } => {
                o.gate_exits += 1;
                if *waited > 0.0 {
                    o.gate_blocked += 1;
                }
            }
            EventKind::Retransmit { .. } => o.retransmits += 1,
            EventKind::Loss { chunks, .. } => o.loss_chunks += u64::from(*chunks),
            _ => {}
        }
    }
    o
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Unit of a timed per-op metric; samples are kept in nanoseconds.
#[derive(Clone, Copy)]
enum Unit {
    Ns,
    Us,
    Ms,
}

/// Collects [`LayerMetric`]s in report order.
struct Report {
    layers: Vec<LayerMetric>,
}

impl Report {
    /// A timed operation. `ops` is the real run's call count; `counted`
    /// says whether `per-op × ops` enters the attribution sum.
    /// `per_op_ns` are the samples, in nanoseconds per operation.
    fn op(&mut self, name: &'static str, unit: Unit, per_op_ns: &[f64], ops: f64, counted: bool) {
        let (unit, scale) = match unit {
            Unit::Ns => ("ns", 1.0),
            Unit::Us => ("us", 1e-3),
            Unit::Ms => ("ms", 1e-6),
        };
        let mut sorted = per_op_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let med = median(&sorted);
        self.layers.push(LayerMetric {
            name,
            unit,
            value: med * scale,
            ops: Some(ops),
            samples: sorted.len(),
            p99: (sorted.len() >= 1000).then(|| percentile_sorted(&sorted, 0.99) * scale),
            est_s: counted.then_some(med * 1e-9 * ops),
        });
    }

    /// An exact count, which is also its own op count.
    fn count(&mut self, name: &'static str, value: f64) {
        self.layers.push(LayerMetric {
            name,
            unit: "count",
            value,
            ops: Some(value),
            samples: 0,
            p99: None,
            est_s: None,
        });
    }

    /// A ratio or other derived figure.
    fn info(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(LayerMetric {
            name,
            unit,
            value,
            ops: None,
            samples: 0,
            p99: None,
            est_s: None,
        });
    }

    fn get(&self, name: &str) -> Option<&LayerMetric> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Per-op samples of the mini ROG loop: the row cycle of `rog-core`,
/// driven from outside with real gradients and the workload's worker /
/// shard counts, every step timed on its own.
#[derive(Default)]
struct CycleSamples {
    grad: Vec<f64>,
    accumulate: Vec<f64>,
    plan_push: Vec<f64>,
    commit_push: Vec<f64>,
    server_push: Vec<f64>,
    gate: Vec<f64>,
    plan_pull: Vec<f64>,
    commit_pull: Vec<f64>,
    apply_pulled: Vec<f64>,
}

impl CycleSamples {
    fn columns(&mut self) -> [&mut Vec<f64>; 9] {
        [
            &mut self.grad,
            &mut self.accumulate,
            &mut self.plan_push,
            &mut self.commit_push,
            &mut self.server_push,
            &mut self.gate,
            &mut self.plan_pull,
            &mut self.commit_pull,
            &mut self.apply_pulled,
        ]
    }
}

/// Workers instantiated by the cycle drive (the server side always has
/// the workload's full worker count).
const DRIVE_WORKERS: usize = 16;
/// `gate_ok` calls per timed batch (one call is shorter than the clock).
const GATE_BATCH: usize = 100;
/// Seconds of cycle drive between two calibrations.
const CYCLE_SEGMENT_S: f64 = 0.3;

fn drive_cycle(
    d: &mut Drive<'_>,
    w: &Workload,
    cluster: &Cluster,
    push_rows_per_leg: usize,
    pull_rows_per_leg: usize,
    budget_s: f64,
) -> CycleSamples {
    let cfg = &w.cfg;
    let n = cfg.n_workers;
    let shards = cfg.effective_shards();
    let threshold = match cfg.strategy {
        Strategy::Rog { threshold } => threshold,
        _ => 4,
    };
    let init = &cluster.init_model;
    // Seeded exactly as `engine::row` seeds its workers and server.
    let codec_root = DetRng::new(cfg.seed).fork(0xC0DEC);
    let wcfg = RogWorkerConfig::new(threshold, cluster.lr);
    let mut workers: Vec<(Mlp, RogWorker, GradSet, DetRng)> = (0..n.min(DRIVE_WORKERS))
        .map(|i| {
            let seed = codec_root.fork(1).fork(i as u64).seed();
            (
                init.clone(),
                RogWorker::new(init.params(), wcfg.with_codec(cfg.effective_codec(), seed)),
                init.zero_grads(),
                DetRng::new(cfg.seed).fork(0x100 + i as u64),
            )
        })
        .collect();
    let map = ShardMap::contiguous(init.total_rows(), shards);
    let mut server = ShardedServer::new(
        init.params(),
        n,
        threshold,
        ImportanceMetric::default(),
        map.clone(),
    );
    server.configure_codec(cfg.effective_codec(), codec_root.fork(0).seed());

    let mut all = CycleSamples::default();
    let mut plan: Vec<RowId> = Vec::new();
    let mut legs: Vec<Vec<RowId>> = vec![Vec::new(); shards];
    let started = Instant::now();
    let mut iter = 0u64;
    let mut next_worker = 0usize;
    while started.elapsed().as_secs_f64() < budget_s {
        let mut seg = CycleSamples::default();
        let ((), scale) = d.block(|rec| {
            rec.scope("core.row_cycle", |rec| {
                let deadline = rec.now_ns() + (CYCLE_SEGMENT_S * 1e9) as u64;
                while rec.now_ns() < deadline {
                    let i = next_worker;
                    next_worker = (next_worker + 1) % workers.len();
                    if i == 0 {
                        iter += 1;
                    }
                    let (model, worker, grads, rng) = &mut workers[i];
                    let data = &cluster.workload.shards()[i];
                    let idxs = data.sample_batch(cluster.devices[i].batch, rng);
                    timed_call(rec, "models.grad", &mut seg.grad, 1, || {
                        compute::run_job_into(model, data, &idxs, grads)
                    });
                    timed_call(rec, "core.accumulate", &mut seg.accumulate, 1, || {
                        worker.accumulate(grads)
                    });
                    timed_call(rec, "core.plan_push", &mut seg.plan_push, 1, || {
                        worker.plan_push_into(iter, &mut plan)
                    });
                    legs.iter_mut().for_each(Vec::clear);
                    for &id in &plan {
                        let leg = &mut legs[map.shard_of(id)];
                        if leg.len() < push_rows_per_leg {
                            leg.push(id);
                        }
                    }
                    for (s, leg) in legs.iter().enumerate() {
                        let mut payload = timed_call(
                            rec,
                            "core.commit_push",
                            &mut seg.commit_push,
                            leg.len(),
                            || worker.commit_push(leg, iter),
                        );
                        timed_call(
                            rec,
                            "core.server_push",
                            &mut seg.server_push,
                            leg.len(),
                            || server.on_push(s, i, iter, &mut payload),
                        );
                        timed_call(rec, "sync.gate", &mut seg.gate, GATE_BATCH, || {
                            for _ in 0..GATE_BATCH {
                                black_box(black_box(&server).gate_ok(s, iter));
                            }
                        });
                        timed_call(rec, "core.plan_pull", &mut seg.plan_pull, 1, || {
                            server.plan_pull_into(s, i, &mut plan)
                        });
                        plan.truncate(pull_rows_per_leg);
                        let pulled = timed_call(
                            rec,
                            "core.commit_pull",
                            &mut seg.commit_pull,
                            plan.len(),
                            || server.commit_pull(s, i, &plan),
                        );
                        timed_call(
                            rec,
                            "core.apply_pulled",
                            &mut seg.apply_pulled,
                            pulled.len(),
                            || worker.apply_pulled(model.params_mut(), &pulled),
                        );
                    }
                }
            });
        });
        for (into, from) in all.columns().into_iter().zip(seg.columns()) {
            into.extend(from.iter().map(|x| x * scale));
        }
    }
    all
}

/// Two socket transports on localhost, driven from this thread: round
/// trip samples and the share of datagrams that never arrived.
fn udp_round_trips(
    d: &mut Drive<'_>,
    payload: &[u8],
    budget_s: f64,
) -> Result<(Vec<f64>, f64), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut a = SocketTransport::bind("127.0.0.1:0").map_err(io)?;
    let mut b = SocketTransport::bind("127.0.0.1:0").map_err(io)?;
    let (addr_a, addr_b) = (
        a.local_udp_addr().map_err(io)?,
        b.local_udp_addr().map_err(io)?,
    );
    a.register_peer(0, Some(addr_b), None)
        .map_err(|e| e.to_string())?;
    b.register_peer(0, Some(addr_a), None)
        .map_err(|e| e.to_string())?;
    let (mut sent, mut arrived) = (0u64, 0u64);
    let mut failure = None;
    let samples = d.sample("transport.udp_rtt", budget_s, 1, || {
        if failure.is_some() {
            return;
        }
        let mut hop = |from: &mut SocketTransport, to: &mut SocketTransport| {
            sent += 1;
            from.send(0, FrameClass::BestEffort, sent, payload)?;
            arrived += to.poll(0.05)?.len() as u64;
            Ok::<(), rog_transport::TransportError>(())
        };
        if let Err(e) = hop(&mut a, &mut b).and_then(|()| hop(&mut b, &mut a)) {
            failure = Some(e.to_string());
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((samples, 1.0 - ratio(arrived as f64, sent as f64))),
    }
}

/// Sampled operations of the layer drive, for sharing out the budget
/// (the row cycle counts for [`CYCLE_SLICES`]).
const SLICES: f64 = 30.0;
const CYCLE_SLICES: f64 = 8.0;

/// Runs the traced pass of `w` within about `seconds`. `quick` skips the
/// "is exercised" predictions, which a tenth of the virtual duration
/// cannot meet.
pub fn traced_pass(
    w: &Workload,
    calib: &mut Calib,
    rec: &mut Recorder,
    seconds: f64,
    quick: bool,
) -> Result<Traced, String> {
    let started = Instant::now();
    let cfg = &w.cfg;
    let mut failures = Vec::new();

    // The operation exactly as the timed pass runs it (no spans), then
    // the same with the journal forced on, inside spans: op counts come
    // from the second, the difference is what tracing costs.
    let c0 = calib.run();
    let t = Instant::now();
    let plain = timed::operation(w);
    let run_raw_s = t.elapsed().as_secs_f64();
    let c1 = calib.run();
    let run_s = normalise(run_raw_s, &[c0, c1], CAL_NOMINAL_S);
    let plain_events = plain.outcome.journal.as_ref().map_or(0, Journal::recorded);
    let reference = timed::virt_bits(&plain.outcome.metrics, &plain.outcome.stats);
    drop(plain);

    let t = Instant::now();
    let traced: RunOutcome = rec.scope("bench.traced_operation", |rec| {
        let out = rec.scope("trainer.run", |_| cfg.options().traced(true).run());
        if w.journaled {
            let journal = out.journal.as_ref().expect("traced run returns a journal");
            let jsonl = rec.scope("obs.jsonl", |_| journal.to_jsonl());
            black_box(rec.scope("obs.gzip", |_| gz::gzip_compress(jsonl.as_bytes())));
        }
        out
    });
    let traced_s = normalise(t.elapsed().as_secs_f64(), &[c1, calib.run()], CAL_NOMINAL_S);
    if timed::virt_bits(&traced.metrics, &traced.stats) != reference {
        failures.push("virtual results changed when the journal was switched on".to_owned());
    }
    let journal = traced
        .journal
        .as_ref()
        .ok_or("traced run returned no journal")?;
    let ops = scan(journal, cfg.eval_every);
    let st = &traced.stats;

    let mut d = Drive {
        last_calib_s: calib.short(),
        rec,
        calib,
    };
    let (mut cluster, scale) =
        d.block(|rec| rec.scope("trainer.cluster_build", |_| Cluster::build(cfg)));
    let setup_s = {
        let span = d.rec.spans().last().expect("just recorded");
        (span.end_ns - span.start_ns) as f64 * 1e-9 * scale
    };

    // What is left of the budget is shared by the sampled operations.
    let slice = ((seconds - started.elapsed().as_secs_f64()) / SLICES).max(0.01);

    let init = cluster.init_model.clone();
    let partition = RowPartition::of_params(init.params());
    let n_rows = partition.n_rows();
    let n = cfg.n_workers;
    let shards = cfg.effective_shards();
    let links = n * shards;
    let mut r = Report { layers: Vec::new() };

    // ---- models / trainer set-up (part of every run) ------------------
    let pretrain = d.sample("models.pretrain", slice, 1, || {
        black_box(CrudaSpec::paper().build(n, &mut DetRng::new(cfg.seed).fork(0x10)));
    });
    r.op("models.pretrain_ms", Unit::Ms, &pretrain, 1.0, true);
    let profile = cfg.environment.profile();
    let trace_len = cfg.duration_secs.clamp(300.0, 1800.0);
    let trace_gen = d.sample("trainer.trace_gen", slice, 1, || {
        black_box(profile.generate(cfg.seed, trace_len));
        for l in 0..links {
            black_box(profile.generate_link(cfg.seed + 1 + l as u64, trace_len));
        }
    });
    r.op("trainer.trace_gen_ms", Unit::Ms, &trace_gen, 1.0, true);

    // ---- the row cycle (and the gradient draws feeding it) ------------
    let per_leg = |rows: u64, legs: u64| -> usize {
        if legs == 0 {
            n_rows.div_ceil(shards)
        } else {
            (rows as f64 / legs as f64).round().max(1.0) as usize
        }
    };
    let push_rows_per_leg = per_leg(ops.rows_pushed, ops.row_push_legs);
    let cycle = drive_cycle(
        &mut d,
        w,
        &cluster,
        push_rows_per_leg,
        per_leg(ops.rows_pulled, ops.row_pull_legs),
        slice * CYCLE_SLICES,
    );
    let worker_iters = ops.iter_ends as f64;
    let row_pushes = ratio(ops.row_push_legs as f64, shards as f64);
    let row_iters = if ops.row_push_legs > 0 {
        worker_iters
    } else {
        0.0
    };
    let row_pull_legs = ops.row_pull_legs as f64;
    let pushed = ops.rows_pushed as f64;
    let pulled = ops.rows_pulled as f64;
    r.op("models.grad_us", Unit::Us, &cycle.grad, worker_iters, true);
    r.count("models.grad_ops", worker_iters);
    let eval = d.sample("models.eval", slice, 1, || {
        black_box(cluster.workload.test_metric(black_box(&init)));
    });
    r.op("models.eval_ms", Unit::Ms, &eval, ops.evals as f64, true);
    r.count("models.eval_ops", ops.evals as f64);
    let w0 = &init.params()[0];
    let acts = Matrix::from_fn(cluster.devices[0].batch, w0.cols(), |r, c| {
        ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.6
    });
    let matmul = d.sample("tensor.matmul_transb", slice, 1, || {
        black_box(black_box(&acts).matmul_transb(black_box(w0)));
    });
    // Inside models.grad.
    r.op("tensor.matmul_transb_us", Unit::Us, &matmul, 0.0, false);
    for (name, samples, ops) in [
        ("core.accumulate_us", &cycle.accumulate, row_iters),
        ("core.plan_push_us", &cycle.plan_push, row_pushes),
        ("core.plan_pull_us", &cycle.plan_pull, row_pull_legs),
        ("core.commit_push_us_per_row", &cycle.commit_push, pushed),
        ("core.server_push_us_per_row", &cycle.server_push, pushed),
        ("core.commit_pull_us_per_row", &cycle.commit_pull, pulled),
        ("core.apply_pulled_us_per_row", &cycle.apply_pulled, pulled),
    ] {
        r.op(name, Unit::Us, samples, ops, true);
    }
    r.count("core.rows_pushed", pushed);
    r.count("core.rows_pulled", pulled);
    r.info(
        "core.push_fill_ratio",
        "ratio",
        ratio(pushed, n_rows as f64 * row_pushes),
    );

    // ---- version store and aggregator plane (inside server_push) ------
    let shard_rows = n_rows.div_ceil(shards);
    let mut versions = RowVersionStore::new(n, shard_rows);
    let mut v_iter = 0u64;
    let record = d.sample("core.version_record", slice, shard_rows, || {
        v_iter += 1;
        let worker = (v_iter as usize) % n;
        for row in 0..shard_rows {
            versions.record_push(worker, row, v_iter);
        }
    });
    r.op("core.version_record_ns", Unit::Ns, &record, pushed, false);
    let global_min = d.sample("core.global_min", slice, 1000, || {
        for _ in 0..1000 {
            black_box(black_box(&versions).global_min());
        }
    });
    let min_reads = 2.0 * ops.row_push_legs as f64;
    r.op(
        "core.global_min_ns",
        Unit::Ns,
        &global_min,
        min_reads,
        false,
    );
    r.info(
        "core.version_peak_bytes",
        "bytes",
        st.peak_version_bytes as f64,
    );
    let mut plane = AggregatorPlane::new(
        AggregatorMap::contiguous(n, cfg.effective_aggregators().max(1)),
        shards,
        n_rows,
    );
    let leg_ids: Vec<usize> = (0..push_rows_per_leg.min(n_rows)).collect();
    let mut a_iter = 0u64;
    let merge = d.sample("core.agg_merge", slice, leg_ids.len(), || {
        a_iter += 1;
        let worker = (a_iter as usize) % n;
        plane.on_member_push(worker, 0, &leg_ids, a_iter);
        black_box(plane.flush(worker, 0));
    });
    r.op(
        "core.agg_merge_ns_per_row",
        Unit::Ns,
        &merge,
        st.agg_raw_rows as f64,
        true,
    );
    r.info(
        "core.agg_merge_ratio",
        "ratio",
        ratio(st.agg_upstream_rows as f64, st.agg_raw_rows as f64),
    );

    // ---- codecs, on the rows of a real gradient -----------------------
    let mut grads = init.zero_grads();
    let data0 = &cluster.workload.shards()[0];
    let idxs = data0.sample_batch(cluster.devices[0].batch, &mut DetRng::new(cfg.seed));
    compute::run_job_into(&init, data0, &idxs, &mut grads);
    let widths = partition.widths().to_vec();
    // The model engine quantises every row of the model on each push
    // and each pull; on the row path the codec runs inside commit_push /
    // commit_pull, whose cost is already counted there.
    let model_engine_rows = if ops.row_push_legs == 0 {
        n_rows as f64 * (ops.pushes_done + ops.pull_legs) as f64
    } else {
        0.0
    };
    let sparse_run = cfg.effective_codec() == CodecChoice::Sparse;
    let row_path_rows = pushed + pulled;
    let onebit_rows = model_engine_rows + if sparse_run { 0.0 } else { row_path_rows };
    let sparse_rows = if sparse_run { row_path_rows } else { 0.0 };
    for (codec, spans, names, rows) in [
        (
            &OneBitCodec as &dyn RowCodec,
            ["compress.onebit_encode", "compress.onebit_decode"],
            [
                "compress.onebit_encode_ns_per_row",
                "compress.onebit_decode_ns_per_row",
            ],
            onebit_rows,
        ),
        (
            &SparseDeltaCodec::default(),
            ["compress.sparse_encode", "compress.sparse_decode"],
            [
                "compress.sparse_encode_ns_per_row",
                "compress.sparse_decode_ns_per_row",
            ],
            sparse_rows,
        ),
    ] {
        let mut state = CodecState::new(&widths, cfg.seed);
        let mut codes = Vec::with_capacity(n_rows);
        let enc = d.sample(spans[0], slice, n_rows, || {
            codes.clear();
            for i in 0..n_rows {
                codes.push(state.compress(codec, i, partition.row(&grads, RowId(i))));
            }
        });
        let dec = d.sample(spans[1], slice, n_rows, || {
            for code in &codes {
                black_box(code.decompress());
            }
        });
        r.op(names[0], Unit::Ns, &enc, rows, model_engine_rows > 0.0);
        r.op(names[1], Unit::Ns, &dec, rows, model_engine_rows > 0.0);
    }
    r.info(
        "compress.payload_bytes_per_row",
        "bytes",
        ratio(ops.row_push_bytes as f64, pushed),
    );

    // ---- gate ---------------------------------------------------------
    r.op(
        "sync.gate_ns",
        Unit::Ns,
        &cycle.gate,
        ops.gate_enters as f64,
        true,
    );
    r.count("sync.gate_checks", ops.gate_enters as f64);
    r.info(
        "sync.gate_blocked_ratio",
        "ratio",
        ratio(ops.gate_blocked as f64, ops.gate_exits as f64),
    );

    // ---- channel: every link busy at once, as when all workers push ---
    let flows = (ops.push_legs + ops.pull_legs) as f64;
    let flow_secs = ratio(ops.push_secs, ops.pushes_done as f64).max(0.5);
    let chunk = cluster.scaled_row_bytes(OneBitCodec.payload_bytes(widths[0]));
    if let Some(model) = cfg.resolved_loss_model(None) {
        cluster.transport.set_loss_model(Some(model));
    }
    let transport = &mut cluster.transport;
    let flow = d.sample("net.flow", slice, links, || {
        let now = transport.now();
        let ids: Vec<_> = (0..links)
            .map(|link| {
                // Every flow its own length (1 to 2× the mean push), so
                // flows leave one by one and the channel re-shares
                // airtime after each, as in a run.
                let rows = 1 + link * 7919 % (2 * push_rows_per_leg);
                let spec = FlowSpec::new(link, vec![chunk; rows]).with_deadline(now + flow_secs);
                transport.start_flow(now, spec)
            })
            .collect();
        while transport.active_flows() > 0 {
            black_box(transport.advance_until(now + 2.0 * flow_secs));
        }
        for id in ids {
            black_box(transport.take_report(id));
        }
    });
    r.op("net.flow_us", Unit::Us, &flow, flows, true);
    r.count("net.flows", flows);
    let mut loss = LossModel::build(
        &LossConfig::gilbert_elliott(cfg.seed, 0.10),
        links,
        cfg.duration_secs,
    );
    let mut fate_t = 0.0f64;
    let fate = d.sample("net.loss_fate", slice, 1000, || {
        for i in 0..1000usize {
            fate_t += 1e-3;
            black_box(loss.chunk_fate(i % links, fate_t % cfg.duration_secs));
        }
    });
    // Fates are drawn inside the channel's flow stepping (net.flow).
    r.op(
        "net.loss_fate_ns",
        Unit::Ns,
        &fate,
        ops.loss_chunks as f64,
        false,
    );
    r.info(
        "net.retx_ratio",
        "ratio",
        ratio(ops.retransmits as f64, ops.pushes_done as f64),
    );
    let row_payload = vec![0x5Au8; OneBitCodec.payload_bytes(widths[0]) as usize];
    let header = FrameHeader {
        seq: 42,
        class: FrameClass::BestEffort,
        attempt: 1,
        iter: 7,
    };
    let frame = d.sample("net.frame", slice, 1000, || {
        for _ in 0..1000 {
            let f = encode_frame(black_box(&header), black_box(&row_payload));
            black_box(decode_frame(&f).expect("own frame decodes"));
        }
    });
    r.op("net.frame_ns", Unit::Ns, &frame, 0.0, false);

    // ---- event queue, at the depth the engine sizes it for ------------
    let depth = 2 * n + 16;
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(depth);
    let mut q_rng = DetRng::new(cfg.seed ^ 0x51);
    let mut q_now = 0.0f64;
    for i in 0..depth {
        queue.push(q_rng.uniform() * 10.0, i as u64);
    }
    let queue_samples = d.sample("sim.queue", slice, 1000, || {
        for i in 0..1000u64 {
            queue.push(q_now + q_rng.uniform() * 10.0, i);
            if let Some((t, v)) = queue.pop() {
                q_now = t;
                black_box(v);
            }
        }
    });
    r.op(
        "sim.queue_ns",
        Unit::Ns,
        &queue_samples,
        st.queue_scheduled as f64,
        true,
    );
    r.count("sim.events", st.sim_events as f64);
    r.count("sim.queue_scheduled", st.queue_scheduled as f64);
    r.info(
        "sim.host_us_per_event",
        "us",
        ratio((run_s - setup_s) * 1e6, st.sim_events as f64),
    );

    // ---- journal --------------------------------------------------------
    r.count("obs.events", plain_events as f64);
    let journaled_ops = f64::from(u8::from(w.journaled));
    let mut scratch = Journal::new(true);
    let mut j_t = 0.0f64;
    let record_ev = d.sample("obs.record", slice, 1000, || {
        if scratch.len() > 500_000 {
            scratch = Journal::new(true);
        }
        for i in 0..1000u32 {
            j_t += 1e-3;
            let kind = EventKind::IterBegin {
                w: i % 4,
                iter: u64::from(i),
            };
            scratch.record(j_t, kind);
        }
    });
    drop(scratch);
    r.op(
        "obs.record_ns",
        Unit::Ns,
        &record_ev,
        plain_events as f64,
        true,
    );
    let mut jsonl = String::new();
    let jsonl_samples = d.sample("obs.jsonl", slice, 1, || jsonl = journal.to_jsonl());
    r.op(
        "obs.jsonl_ms",
        Unit::Ms,
        &jsonl_samples,
        journaled_ops,
        true,
    );
    let mut gzipped = Vec::new();
    let gzip_samples = d.sample("obs.gzip", slice, 1, || {
        gzipped = gz::gzip_compress(jsonl.as_bytes());
    });
    r.op("obs.gzip_ms", Unit::Ms, &gzip_samples, journaled_ops, true);
    r.info("obs.gzip_mb", "MB", gzipped.len() as f64 / 1e6);
    let replay = d.sample("obs.replay", slice, 1, || {
        black_box(TraceSummary::from_jsonl(&jsonl).map(|s| s.composition())).ok();
    });
    r.op("obs.replay_ms", Unit::Ms, &replay, 0.0, false);
    if let Err(e) = timed::check_journal(journal, &traced.metrics, &jsonl, &gzipped) {
        failures.push(e);
    }

    // ---- live transport (off the simulated path) ----------------------
    let msg = Msg::PushRows {
        worker: 0,
        iter: 7,
        rows: (0..n_rows)
            .map(|i| (i as u32, partition.row(&grads, RowId(i)).to_vec()))
            .collect(),
    };
    let proto = d.sample("transport.proto", slice, n_rows, || {
        let bytes = black_box(&msg).encode();
        black_box(Msg::decode(&bytes).expect("own message decodes"));
    });
    r.op("transport.proto_ns_per_row", Unit::Ns, &proto, 0.0, false);
    match udp_round_trips(&mut d, &row_payload, slice) {
        Ok((rtt, dropped)) => {
            r.op("transport.udp_rtt_us", Unit::Us, &rtt, 0.0, false);
            r.info("transport.udp_drop_ratio", "ratio", dropped);
        }
        Err(e) => {
            // No loopback in this sandbox. The live path is off the
            // simulated path, so this is reported and not failed.
            eprintln!("note: localhost UDP unavailable ({e}); transport.udp_* reported as 0");
            r.info("transport.udp_rtt_us", "us", 0.0);
            r.info("transport.udp_drop_ratio", "ratio", 0.0);
        }
    }

    // ---- attribution and the benchmark's own overhead -----------------
    let attributed: f64 = r.layers.iter().filter_map(|l| l.est_s).sum();
    r.info(
        "trainer.unattributed_share",
        "ratio",
        1.0 - attributed / run_s,
    );
    r.info(
        "bench.trace_overhead_share",
        "ratio",
        traced_s / run_s - 1.0,
    );
    r.info(
        "bench.calib_ms",
        "ms",
        median(&[c0, c1, d.last_calib_s]) * 1e3,
    );

    // ---- prediction self-check: does the workload still isolate its layers?
    let exercises = if quick { &[][..] } else { w.exercises };
    for (names, predicted_zero) in [(w.bypasses, true), (exercises, false)] {
        for name in names {
            let ops = r.get(name).and_then(|l| l.ops);
            if ops.is_none_or(|x| (x == 0.0) != predicted_zero) {
                failures.push(format!(
                    "{}: {name} was predicted to see {} operations, saw {ops:?}",
                    w.name,
                    if predicted_zero { "no" } else { "some" },
                ));
            }
        }
    }

    Ok(Traced {
        layers: r.layers,
        run_s,
        failures,
    })
}
