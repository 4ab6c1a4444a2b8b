//! Run measurements (checkpoints, time composition, energy, micro-events)
//! and the run record that engines and live processes write them through.

use std::collections::BTreeMap;
use std::ops::Range;

use rog_energy::PowerModel;
use rog_obs::{obs, EventKind, Journal, TraceSummary};
use rog_sim::{per_iteration, residency, DeviceState, Time, Timeline};
use serde::Serialize;

use crate::cluster::{Cluster, DeviceKind};
use crate::config::ExperimentConfig;

/// One evaluation checkpoint (paper: every 50 iterations, averaged over
/// workers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Checkpoint {
    /// Iteration index (per worker).
    pub iter: u64,
    /// Mean virtual time at which workers reached this iteration.
    pub time: Time,
    /// Mean metric (accuracy % or trajectory error) across workers.
    pub metric: f64,
    /// Cluster energy consumed by then, in joules.
    pub energy_j: f64,
}

/// Average per-iteration time composition (Figs. 1a / 6a / 7a).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct TimeComposition {
    /// Seconds computing (incl. codec).
    pub compute: f64,
    /// Seconds transmitting/receiving.
    pub communicate: f64,
    /// Seconds stalled at gates.
    pub stall: f64,
    /// Seconds powered off / out of range (fault injection; 0 for
    /// fault-free runs).
    pub offline: f64,
}

impl TimeComposition {
    /// Total seconds per iteration.
    pub fn total(&self) -> f64 {
        self.compute + self.communicate + self.stall + self.offline
    }
}

/// One Fig. 8 micro-event sample, recorded at each push of the observed
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MicroSample {
    /// Virtual time of the push.
    pub time: Time,
    /// The observed worker's instantaneous link bandwidth (bit/s).
    pub bandwidth_bps: f64,
    /// Fraction of this worker's rows transmitted in the push.
    pub transmission_rate: f64,
    /// Iterations the worker lags behind the fastest worker.
    pub staleness: u64,
}

/// Everything measured in one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetrics {
    /// Display name ("ROG-4 / cruda / outdoor").
    pub name: String,
    /// Metric display name ("accuracy %" / "trajectory error (m)").
    pub metric_name: String,
    /// Whether larger metric values are better.
    pub metric_higher_better: bool,
    /// Evaluation checkpoints in iteration order.
    pub checkpoints: Vec<Checkpoint>,
    /// Average per-iteration time composition.
    pub composition: TimeComposition,
    /// Iterations completed, averaged over workers.
    pub mean_iterations: f64,
    /// Virtual run duration in seconds.
    pub duration: Time,
    /// Total cluster energy in joules (robot workers).
    pub total_energy_j: f64,
    /// Micro-event samples (empty unless `record_micro`).
    pub micro: Vec<MicroSample>,
    /// Useful payload bytes delivered over the channel.
    pub useful_bytes: f64,
    /// Bytes wasted on deadline-cut partial rows and fault-cancelled
    /// transfers.
    pub wasted_bytes: f64,
    /// Bytes of chunks the loss model dropped in flight (0 for
    /// loss-free runs).
    pub lost_bytes: f64,
    /// Bytes of chunks that arrived but failed their CRC check (0 for
    /// loss-free runs).
    pub corrupt_bytes: f64,
    /// Cluster-total seconds spent stalled at gates (summed over
    /// workers, not per-iteration) — the blocking a fault matrix is
    /// judged on.
    pub stall_secs: f64,
    /// Cluster-total seconds workers spent offline (fault injection).
    pub offline_secs: f64,
    /// Maximum pairwise L2 distance between worker models at the end of
    /// the run, relative to the mean model norm — the realized
    /// divergence RSP/SSP bound (0 for BSP-like lockstep, small for
    /// bounded staleness).
    pub final_model_divergence: f64,
}

impl RunMetrics {
    /// The one journal↔metrics check: `journal`, this run's journal
    /// replayed onto its own timelines, must give bit for bit the four
    /// composition columns, `stall_secs`, `offline_secs` and `duration`
    /// this run reports, and its `run_end` total must spread over the
    /// record's devices to `mean_iterations`. Returns one line per
    /// disagreement; empty when the two views reconcile.
    pub fn reconcile(&self, journal: &TraceSummary) -> Vec<String> {
        let (c, [compute, communicate, stall, offline]) = (self.composition, journal.composition());
        let res = |s| journal.cluster_residency(s);
        let mut diffs: Vec<String> = [
            ("composition.compute", compute, c.compute),
            ("composition.communicate", communicate, c.communicate),
            ("composition.stall", stall, c.stall),
            ("composition.offline", offline, c.offline),
            ("stall_secs", res(DeviceState::Stall), self.stall_secs),
            ("offline_secs", res(DeviceState::Offline), self.offline_secs),
            ("duration", journal.duration, self.duration),
        ]
        .into_iter()
        .filter(|(_, j, m)| j.to_bits() != m.to_bits())
        .map(|(what, j, m)| format!("{what}: journal {j} vs metrics {m}"))
        .collect();
        // The mean is the total over the record's devices. The journal
        // names only the devices that took a state (a worker's own
        // record holds just itself), so it bounds their number from
        // below: the total must divide into a whole number of devices,
        // no fewer than it names.
        let named = journal
            .timelines
            .values()
            .filter(|t| **t != Timeline::new())
            .count();
        let devices = journal.iters as f64 / self.mean_iterations;
        let spread = if journal.iters == 0 {
            self.mean_iterations == 0.0
        } else {
            (devices - devices.round()).abs() < 1e-9 && devices.round() >= named.max(1) as f64
        };
        if !spread {
            diffs.push(format!(
                "iterations: journal total {} over {named} named devices vs mean {}",
                journal.iters, self.mean_iterations
            ));
        }
        diffs
    }

    /// The one run↔run check: every field but the name, floats by their
    /// bits. Returns one line per field that differs; empty when the two
    /// runs were the same computation (a twin topology may still name
    /// itself differently).
    pub fn differences(&self, other: &RunMetrics) -> Vec<String> {
        let mut diffs = Vec::new();
        let metric = |m: &RunMetrics| (m.metric_name.clone(), m.metric_higher_better);
        if metric(self) != metric(other) {
            diffs.push(format!("metric: {:?} vs {:?}", metric(self), metric(other)));
        }
        for ((what, a), (_, b)) in self.series().into_iter().zip(other.series()) {
            if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
                let (m, n) = (a.len(), b.len());
                diffs.push(format!("{what}: {m} vs {n}, first difference at {i}"));
            }
        }
        for ((what, x), (_, y)) in self.scalars().into_iter().zip(other.scalars()) {
            if x.to_bits() != y.to_bits() {
                diffs.push(format!("{what}: {x} vs {y}"));
            }
        }
        diffs
    }

    /// The checkpoints and micro samples, each entry as its count and
    /// the bits of its floats.
    fn series(&self) -> [(&'static str, Vec<[u64; 4]>); 2] {
        let bits = |n, [a, b, c]: [f64; 3]| [n, a.to_bits(), b.to_bits(), c.to_bits()];
        let ck = |c: &Checkpoint| bits(c.iter, [c.time, c.metric, c.energy_j]);
        let mi =
            |s: &MicroSample| bits(s.staleness, [s.time, s.bandwidth_bps, s.transmission_rate]);
        [
            ("checkpoints", self.checkpoints.iter().map(ck).collect()),
            ("micro", self.micro.iter().map(mi).collect()),
        ]
    }

    /// Every scalar field, named.
    fn scalars(&self) -> [(&'static str, f64); 14] {
        let c = self.composition;
        [
            ("composition.compute", c.compute),
            ("composition.communicate", c.communicate),
            ("composition.stall", c.stall),
            ("composition.offline", c.offline),
            ("mean_iterations", self.mean_iterations),
            ("duration", self.duration),
            ("total_energy_j", self.total_energy_j),
            ("useful_bytes", self.useful_bytes),
            ("wasted_bytes", self.wasted_bytes),
            ("lost_bytes", self.lost_bytes),
            ("corrupt_bytes", self.corrupt_bytes),
            ("stall_secs", self.stall_secs),
            ("offline_secs", self.offline_secs),
            ("final_model_divergence", self.final_model_divergence),
        ]
    }
}

/// Channel byte accounting handed to `RunRecord::finish`:
/// each class from the channel's conservation identity
/// `useful + wasted + lost + corrupt == offered`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ByteAccount {
    /// Useful payload bytes delivered (complete, intact chunks).
    pub useful: f64,
    /// Bytes wasted on deadline cuts and cancelled transfers.
    pub wasted: f64,
    /// Bytes dropped in flight by the loss model.
    pub lost: f64,
    /// Bytes delivered but damaged (CRC failure).
    pub corrupt: f64,
}

/// The record of one run as one process sees it, and the only writer of
/// the journal's run frame: `meta`, `state`, `iter_begin`, `iter_end`,
/// `close` and `run_end`.
///
/// It owns a state timeline, an iteration count and a closed flag per
/// device, the evaluation checkpoints and the micro-event samples. Both
/// sim engines, `live::serve` (every worker, from what they stream) and
/// `live::join` (its own worker) write to one, passing their journal per
/// call. A state change is journaled only
/// when the timeline takes it, so a journal replays to exactly the
/// timelines [`RunRecord::finish`] assembles [`RunMetrics`] from.
#[derive(Debug)]
pub struct RunRecord {
    name: String,
    metric_name: String,
    metric_higher_better: bool,
    power: PowerModel,
    /// Worker index of device 0 (a live worker records only itself).
    first: usize,
    timelines: Vec<Timeline>,
    /// Which devices count toward energy (the paper measures robots).
    robot: Vec<bool>,
    /// Devices whose timeline was closed; they take no state after.
    closed: Vec<bool>,
    /// Completed iterations per device.
    iterations: Vec<u64>,
    /// Checkpoint samples: iter → (time, metric) per worker.
    samples: BTreeMap<u64, Vec<(Time, f64)>>,
    micro: Vec<MicroSample>,
}

impl RunRecord {
    /// Opens the record of `cfg`'s run over the workers `devices` of
    /// `cluster` — all of them for an engine or the server, its own for
    /// a live worker — and writes the journal's `meta` header.
    pub fn open(
        cfg: &ExperimentConfig,
        cluster: &Cluster,
        devices: Range<usize>,
        journal: &mut Journal,
    ) -> Self {
        let (name, seed) = (cfg.name(), cfg.seed);
        obs!(journal, 0.0, EventKind::Meta { name, seed });
        let n = devices.len();
        Self {
            name: cfg.name(),
            metric_name: cluster.workload.metric_name().to_owned(),
            metric_higher_better: cluster.workload.metric_higher_better(),
            power: PowerModel::jetson_nx(),
            first: devices.start,
            timelines: vec![Timeline::new(); n],
            robot: cluster.devices[devices]
                .iter()
                .map(|d| d.kind == DeviceKind::Robot)
                .collect(),
            closed: vec![false; n],
            iterations: vec![0; n],
            samples: BTreeMap::new(),
            micro: Vec::new(),
        }
    }

    /// Whether worker `w`'s timeline can take a record at `t`
    /// ([`Timeline::admits`]). What a peer streams is checked against
    /// this before it is recorded.
    pub fn admits(&self, w: usize, t: Time) -> bool {
        self.timelines[w - self.first].admits(t)
    }

    /// Worker `w` enters `state` at `t`. Journaled, and `true`, only when
    /// the timeline takes it: a repeated state, or any state after the
    /// device closed, changes nothing.
    pub fn set_state(
        &mut self,
        w: usize,
        t: Time,
        state: DeviceState,
        journal: &mut Journal,
    ) -> bool {
        let d = w - self.first;
        let taken = !self.closed[d] && self.timelines[d].set_state(t, state);
        if taken {
            let (w, state) = (w as u32, state.name());
            obs!(journal, t, EventKind::State { w, state });
        }
        taken
    }

    /// Worker `w` begins iteration `iter` at `t`.
    pub fn iter_begin(&self, w: usize, iter: u64, t: Time, journal: &mut Journal) {
        obs!(journal, t, EventKind::IterBegin { w: w as u32, iter });
    }

    /// Worker `w` completed iteration `iter` at `t`.
    pub fn iter_end(&mut self, w: usize, iter: u64, t: Time, journal: &mut Journal) {
        self.iterations[w - self.first] += 1;
        obs!(journal, t, EventKind::IterEnd { w: w as u32, iter });
    }

    /// Closes worker `w`'s timeline at `t`; the device takes no state
    /// after. Journaled, and `true`, only when a span was open.
    pub fn close(&mut self, w: usize, t: Time, journal: &mut Journal) -> bool {
        let d = w - self.first;
        self.closed[d] = true;
        let open = self.timelines[d].current_state().is_some();
        if open {
            self.timelines[d].close(t);
            obs!(journal, t, EventKind::Close { w: w as u32 });
        }
        open
    }

    /// Records a worker's evaluation at a checkpoint.
    pub fn record_eval(&mut self, iter: u64, time: Time, metric: f64) {
        self.samples.entry(iter).or_default().push((time, metric));
    }

    /// Records a micro-event sample.
    pub fn record_micro(&mut self, sample: MicroSample) {
        self.micro.push(sample);
    }

    /// The per-device timelines so far (closed spans only).
    pub fn timelines(&self) -> &[Timeline] {
        &self.timelines
    }

    /// Closes every open timeline at `duration.max(end_time)` (a span
    /// opened past that closes where it opened), writes the `run_end`
    /// footer and assembles the run's metrics. `final_model_divergence`
    /// is the caller's relative divergence between worker models.
    pub fn finish(
        mut self,
        duration: Time,
        bytes: ByteAccount,
        final_model_divergence: f64,
        journal: &mut Journal,
    ) -> RunMetrics {
        for d in 0..self.timelines.len() {
            let tl = &self.timelines[d];
            if let Some(since) = tl.open_since() {
                let t_close = duration.max(tl.end_time()).max(since);
                self.close(self.first + d, t_close, journal);
            }
        }
        let iters: u64 = self.iterations.iter().sum();
        obs!(journal, duration, EventKind::RunEnd { iters, duration });

        let timelines = &self.timelines;
        let robots = || {
            timelines
                .iter()
                .zip(&self.robot)
                .filter(|(_, &r)| r)
                .map(|(t, _)| t)
        };
        let total_energy_j = self.power.cluster_energy_until(robots(), duration);

        // Under ASP-like strategies a straggler can drag the *mean* time
        // of an early checkpoint past that of a later one (later
        // checkpoints only average the workers that got there). Energy
        // "consumed by then" is cumulative, so integrate up to the
        // furthest checkpoint time seen so far.
        let mut energy_frontier: Time = 0.0;
        let mut checkpoints: Vec<Checkpoint> = Vec::with_capacity(self.samples.len());
        for (&iter, pts) in &self.samples {
            let n = pts.len() as f64;
            let time = pts.iter().map(|(t, _)| t).sum::<f64>() / n;
            let metric = pts.iter().map(|(_, m)| m).sum::<f64>() / n;
            energy_frontier = energy_frontier.max(time);
            let energy_j = self.power.cluster_energy_until(robots(), energy_frontier);
            checkpoints.push(Checkpoint {
                iter,
                time,
                metric,
                energy_j,
            });
        }

        let mean_iterations = iters as f64 / self.iterations.len() as f64;
        let per = |s: DeviceState| per_iteration(timelines, s, iters);
        let composition = TimeComposition {
            compute: per(DeviceState::Compute),
            communicate: per(DeviceState::Communicate),
            stall: per(DeviceState::Stall),
            offline: per(DeviceState::Offline),
        };
        let stall_secs = residency(timelines, DeviceState::Stall);
        let offline_secs = residency(timelines, DeviceState::Offline);

        RunMetrics {
            name: self.name,
            metric_name: self.metric_name,
            metric_higher_better: self.metric_higher_better,
            checkpoints,
            composition,
            mean_iterations,
            duration,
            total_energy_j,
            micro: self.micro,
            useful_bytes: bytes.useful,
            wasted_bytes: bytes.wasted,
            lost_bytes: bytes.lost,
            corrupt_bytes: bytes.corrupt,
            stall_secs,
            offline_secs,
            final_model_divergence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelScale;
    use proptest::prelude::*;

    /// A record over `n` workers, the last `laptops` of them laptops.
    fn open(n: usize, laptops: usize, journal: &mut Journal) -> RunRecord {
        let cfg = ExperimentConfig {
            model_scale: ModelScale::Small,
            n_workers: n,
            n_laptop_workers: laptops,
            ..ExperimentConfig::default()
        };
        RunRecord::open(&cfg, &Cluster::build(&cfg), 0..n, journal)
    }

    /// Worker `w` computes for `compute` s from 0, then stalls for
    /// `stall` s.
    fn span(r: &mut RunRecord, w: usize, compute: f64, stall: f64) {
        let j = &mut Journal::disabled();
        r.set_state(w, 0.0, DeviceState::Compute, j);
        r.set_state(w, compute, DeviceState::Stall, j);
        r.close(w, compute + stall, j);
    }

    fn finish(r: RunRecord, duration: Time) -> RunMetrics {
        let j = &mut Journal::disabled();
        r.finish(duration, ByteAccount::default(), 0.0, j)
    }

    #[test]
    fn checkpoints_average_across_workers() {
        let mut r = open(2, 0, &mut Journal::disabled());
        let j = &mut Journal::disabled();
        r.record_eval(50, 10.0, 60.0);
        r.record_eval(50, 12.0, 64.0);
        r.iter_end(0, 1, 5.0, j);
        r.iter_end(1, 1, 5.0, j);
        span(&mut r, 0, 5.0, 1.0);
        span(&mut r, 1, 5.0, 3.0);
        let m = finish(r, 20.0);
        assert_eq!(m.checkpoints.len(), 1);
        let ck = m.checkpoints[0];
        assert_eq!(ck.iter, 50);
        assert!((ck.time - 11.0).abs() < 1e-9);
        assert!((ck.metric - 62.0).abs() < 1e-9);
        assert!(ck.energy_j > 0.0);
    }

    #[test]
    fn composition_divides_by_total_iterations() {
        let mut r = open(2, 0, &mut Journal::disabled());
        let j = &mut Journal::disabled();
        for i in 1..=5 {
            r.iter_end(0, i, 1.0, j);
            r.iter_end(1, i, 1.0, j);
        }
        span(&mut r, 0, 10.0, 2.0);
        span(&mut r, 1, 10.0, 4.0);
        let m = finish(r, 20.0);
        // 20 s compute over 10 iterations → 2 s/iter.
        assert!((m.composition.compute - 2.0).abs() < 1e-9);
        assert!((m.composition.stall - 0.6).abs() < 1e-9);
        assert_eq!(m.mean_iterations, 5.0);
    }

    #[test]
    fn energy_counts_only_robots() {
        let run = |laptops| {
            let mut r = open(2, laptops, &mut Journal::disabled());
            r.record_eval(50, 10.0, 60.0);
            span(&mut r, 0, 10.0, 0.0);
            span(&mut r, 1, 10.0, 0.0);
            finish(r, 10.0)
        };
        let (both, one) = (run(0).total_energy_j, run(1).total_energy_j);
        assert!((both - 2.0 * one).abs() < 1e-6);
        // No robot spends nothing: +0 J, not an empty sum's -0.
        let laptops = run(2);
        assert!(laptops.total_energy_j == 0.0 && laptops.total_energy_j.is_sign_positive());
        assert!(laptops.checkpoints[0].energy_j.is_sign_positive());
    }

    #[test]
    fn empty_run_has_zero_composition() {
        let m = finish(open(2, 0, &mut Journal::disabled()), 0.0);
        assert_eq!(m.composition.total(), 0.0);
        assert!(m.checkpoints.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any calls on any devices (repeated states, zero-length spans,
        /// calls after `close`, spans open at or past the end, devices
        /// that never take a state) journal a frame that reconciles with
        /// the assembled metrics.
        #[test]
        fn the_journal_replays_to_the_assembled_composition(
            n in 2usize..5,
            calls in proptest::collection::vec((0usize..4, 0u8..4, 0u8..3, 0usize..5), 0..120),
            end in 0u8..40,
        ) {
            let mut journal = Journal::new(true);
            let mut r = open(n, 0, &mut journal);
            let (mut t, mut iters) = (0.0, 0u64);
            for (w, op, dt, s) in calls {
                let w = w % n;
                t += f64::from(dt) * 0.1;
                match op {
                    0 => {
                        r.set_state(w, t, DeviceState::ALL[s], &mut journal);
                    }
                    1 => r.iter_begin(w, iters + 1, t, &mut journal),
                    2 => {
                        iters += 1;
                        r.iter_end(w, iters, t, &mut journal);
                    }
                    _ => {
                        r.close(w, t, &mut journal);
                    }
                }
            }
            let m = r.finish(f64::from(end) * 0.3, ByteAccount::default(), 0.0, &mut journal);
            let summary = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("parses");
            prop_assert_eq!(m.reconcile(&summary), Vec::<String>::new());
            prop_assert_eq!(summary.iters, iters);
        }
    }
}
