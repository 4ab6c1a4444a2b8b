//! Run measurements: checkpoints, time composition, energy, micro-events.

use std::collections::BTreeMap;

use rog_energy::PowerModel;
use rog_sim::{DeviceState, Time, Timeline};
use serde::Serialize;

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

/// Channel byte accounting handed to [`MetricsCollector::finish`]:
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

/// Collects per-worker events during a run and assembles [`RunMetrics`].
#[derive(Debug)]
pub struct MetricsCollector {
    name: String,
    metric_name: String,
    metric_higher_better: bool,
    power: PowerModel,
    /// Checkpoint samples: iter → (time, metric) per worker.
    samples: BTreeMap<u64, Vec<(Time, f64)>>,
    /// Completed iterations per worker.
    iterations: Vec<u64>,
    micro: Vec<MicroSample>,
}

impl MetricsCollector {
    /// Creates a collector for `n_workers`.
    pub fn new(
        name: String,
        metric_name: String,
        metric_higher_better: bool,
        n_workers: usize,
    ) -> Self {
        Self {
            name,
            metric_name,
            metric_higher_better,
            power: PowerModel::jetson_nx(),
            samples: BTreeMap::new(),
            iterations: vec![0; n_workers],
            micro: Vec::new(),
        }
    }

    /// Records a worker's evaluation at a checkpoint.
    pub fn record_eval(&mut self, worker: usize, iter: u64, time: Time, metric: f64) {
        let _ = worker;
        self.samples.entry(iter).or_default().push((time, metric));
    }

    /// Records that a worker completed an iteration.
    pub fn record_iteration(&mut self, worker: usize) {
        self.iterations[worker] += 1;
    }

    /// Records a micro-event sample.
    pub fn record_micro(&mut self, sample: MicroSample) {
        self.micro.push(sample);
    }

    /// Iterations completed so far, summed over workers — the divisor
    /// the per-iteration composition uses.
    pub fn total_iterations(&self) -> u64 {
        self.iterations.iter().sum()
    }

    /// Assembles the final metrics from the closed per-worker timelines.
    ///
    /// `robot_mask[w]` selects which workers count toward the energy
    /// figure (the paper measures robots); `final_model_divergence` is
    /// the engine-computed relative divergence between worker models.
    pub fn finish(
        self,
        timelines: &[Timeline],
        robot_mask: &[bool],
        duration: Time,
        bytes: ByteAccount,
        final_model_divergence: f64,
    ) -> RunMetrics {
        let robot_tls: Vec<Timeline> = timelines
            .iter()
            .zip(robot_mask)
            .filter(|(_, &r)| r)
            .map(|(t, _)| t.clone())
            .collect();
        let total_energy_j = self.power.cluster_energy_until(&robot_tls, duration);

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
            let energy_j = self.power.cluster_energy_until(&robot_tls, energy_frontier);
            checkpoints.push(Checkpoint {
                iter,
                time,
                metric,
                energy_j,
            });
        }

        let total_iters: u64 = self.iterations.iter().sum();
        let mean_iterations = total_iters as f64 / self.iterations.len() as f64;
        let composition = if total_iters == 0 {
            TimeComposition::default()
        } else {
            let sum = |s: DeviceState| {
                (timelines.iter().map(|t| t.time_in(s)).sum::<f64>() / total_iters as f64).max(0.0)
            };
            TimeComposition {
                compute: sum(DeviceState::Compute),
                communicate: sum(DeviceState::Communicate),
                stall: sum(DeviceState::Stall),
                offline: sum(DeviceState::Offline),
            }
        };
        let residency = |s: DeviceState| timelines.iter().map(|t| t.time_in(s)).sum::<f64>();
        let stall_secs = residency(DeviceState::Stall);
        let offline_secs = residency(DeviceState::Offline);

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

    fn collector() -> MetricsCollector {
        MetricsCollector::new("test".into(), "accuracy %".into(), true, 2)
    }

    fn timeline(compute: f64, stall: f64) -> Timeline {
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute);
        tl.set_state(compute, DeviceState::Stall);
        tl.close(compute + stall);
        tl
    }

    #[test]
    fn checkpoints_average_across_workers() {
        let mut c = collector();
        c.record_eval(0, 50, 10.0, 60.0);
        c.record_eval(1, 50, 12.0, 64.0);
        c.record_iteration(0);
        c.record_iteration(1);
        let tls = [timeline(5.0, 1.0), timeline(5.0, 3.0)];
        let m = c.finish(&tls, &[true, true], 20.0, ByteAccount::default(), 0.0);
        assert_eq!(m.checkpoints.len(), 1);
        let ck = m.checkpoints[0];
        assert_eq!(ck.iter, 50);
        assert!((ck.time - 11.0).abs() < 1e-9);
        assert!((ck.metric - 62.0).abs() < 1e-9);
        assert!(ck.energy_j > 0.0);
    }

    #[test]
    fn composition_divides_by_total_iterations() {
        let mut c = collector();
        for _ in 0..5 {
            c.record_iteration(0);
            c.record_iteration(1);
        }
        let tls = [timeline(10.0, 2.0), timeline(10.0, 4.0)];
        let m = c.finish(&tls, &[true, true], 20.0, ByteAccount::default(), 0.0);
        // 20 s compute over 10 iterations → 2 s/iter.
        assert!((m.composition.compute - 2.0).abs() < 1e-9);
        assert!((m.composition.stall - 0.6).abs() < 1e-9);
        assert_eq!(m.mean_iterations, 5.0);
    }

    #[test]
    fn energy_counts_only_robots() {
        let mut c = collector();
        c.record_iteration(0);
        let tls = [timeline(10.0, 0.0), timeline(10.0, 0.0)];
        let both = c.finish(&tls, &[true, true], 10.0, ByteAccount::default(), 0.0);
        let mut c = collector();
        c.record_iteration(0);
        let one = c.finish(&tls, &[true, false], 10.0, ByteAccount::default(), 0.0);
        assert!((both.total_energy_j - 2.0 * one.total_energy_j).abs() < 1e-6);
    }

    #[test]
    fn empty_run_has_zero_composition() {
        let c = collector();
        let tls = [Timeline::new(), Timeline::new()];
        let m = c.finish(&tls, &[true, true], 0.0, ByteAccount::default(), 0.0);
        assert_eq!(m.composition.total(), 0.0);
        assert!(m.checkpoints.is_empty());
    }
}
