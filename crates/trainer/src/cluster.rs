//! Simulated robot cluster: devices, workload, channel, wire scaling.

use rog_models::batching::dynamic_batches;
use rog_models::{CrimpSpec, CrudaSpec, Dataset, Mlp, Workload};
use rog_net::{Channel, TraceSource};
use rog_tensor::rng::DetRng;

use crate::config::{ExperimentConfig, ModelScale, WorkloadKind};

/// Kind of a simulated device (paper testbed: Jetson NX robots and
/// weaker laptops; one laptop is the parameter-server hotspot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Four-wheel robot with a Jetson Xavier NX.
    Robot,
    /// Laptop (i7-8565U + 940MX), ~2/3 of the robot's training speed.
    Laptop,
}

/// One training worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Robot or laptop.
    pub kind: DeviceKind,
    /// Relative compute power (robot = 1.0).
    pub compute_power: f64,
    /// Per-iteration batch size after dynamic batching and batch scale.
    pub batch: usize,
}

/// Everything an engine needs to run one experiment.
#[derive(Debug)]
pub struct Cluster {
    /// The training workers (the parameter server is an extra laptop
    /// hosting the hotspot; it does not train).
    pub devices: Vec<Device>,
    /// The shared wireless channel (one link per worker and shard) the
    /// engines drive directly on the virtual clock.
    pub transport: Channel,
    /// The built workload with one shard per worker.
    pub workload: Box<dyn Workload>,
    /// The shared initial model.
    pub init_model: Mlp,
    /// Multiplier from the synthetic model's compressed row bytes to
    /// on-the-wire bytes, calibrating total traffic to the paper's
    /// volumes (each synthetic row stands for `wire_scale` real rows).
    pub wire_scale: f64,
    /// Effective learning rate.
    pub lr: f32,
}

impl Cluster {
    /// Builds the cluster for a config, deterministically from
    /// `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics with [`ExperimentConfig::check`]'s reason if the run
    /// cannot execute.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        if let Err(reason) = cfg.check() {
            panic!("{reason}");
        }
        let root = DetRng::new(cfg.seed);

        // Devices: robots first, laptops last (paper: 3 robots + 1
        // laptop worker by default).
        let powers: Vec<f64> = (0..cfg.n_workers)
            .map(|w| {
                if w < cfg.n_workers - cfg.n_laptop_workers {
                    1.0
                } else {
                    2.0 / 3.0
                }
            })
            .collect();

        // Workload.
        let mut wl_rng = root.fork(0x10);
        let workload: Box<dyn Workload> = match WorkloadSpec::of(cfg) {
            WorkloadSpec::Cruda(spec) => Box::new(spec.build(cfg.n_workers, &mut wl_rng)),
            WorkloadSpec::Crimp(spec) => Box::new(spec.build(cfg.n_workers, &mut wl_rng)),
        };

        let base_batch = (workload.base_batch_size() as f64 * cfg.batch_scale)
            .round()
            .max(1.0) as usize;
        let batches = dynamic_batches(&powers, base_batch);
        let devices: Vec<Device> = powers
            .iter()
            .zip(&batches)
            .map(|(&p, &b)| Device {
                kind: if (p - 1.0).abs() < 1e-9 {
                    DeviceKind::Robot
                } else {
                    DeviceKind::Laptop
                },
                compute_power: p,
                batch: b,
            })
            .collect();

        // Channel: capacity plus one fading link per (worker, shard)
        // pair, worker-major (`rog_net::shard_link`). With one shard
        // the layout and the RNG stream offsets collapse to the
        // historical one-link-per-worker channel, keeping single-shard
        // runs bit-identical; extra shard links draw from a disjoint
        // fork range so shard 0's stream never shifts. A generated
        // trace is a stream with a period of `trace_len`: no sample
        // exists until the channel reads it, and reads past the period
        // wrap.
        let profile = cfg.environment.profile();
        let shards = cfg.effective_shards();
        let capacity = match &cfg.capacity_trace {
            Some(trace) => TraceSource::Replayed(trace.clone()),
            None => {
                let (seed, trace_len) = generated_trace(cfg, None);
                TraceSource::Generated(profile.capacity_stream(seed, trace_len))
            }
        };
        let mut links: Vec<TraceSource> = Vec::with_capacity(cfg.n_workers * shards);
        match &cfg.link_traces {
            Some(traces) => {
                for w in 0..cfg.n_workers {
                    for _s in 0..shards {
                        links.push(TraceSource::Replayed(traces[w % traces.len()].clone()));
                    }
                }
            }
            None => {
                for w in 0..cfg.n_workers {
                    for s in 0..shards {
                        let (seed, trace_len) = generated_trace(cfg, Some((w, s)));
                        links.push(TraceSource::Generated(profile.link_stream(seed, trace_len)));
                    }
                }
            }
        }
        let transport = Channel::from_sources(capacity, links).with_sharing(cfg.mac_sharing);

        // Initial shared model and wire scaling.
        let init_model = workload.make_model(&mut root.fork(0x20));
        // Calibrated against the one-bit payload regardless of the
        // selected codec, so a codec change shows up as a byte delta in
        // the metrics instead of being scaled away.
        let framed_compressed: u64 = init_model
            .row_widths()
            .iter()
            .map(|&w| {
                rog_net::wire::framed_row_bytes(rog_compress::RowCodec::payload_bytes(
                    &rog_compress::OneBitCodec,
                    w,
                ))
            })
            .sum();
        let wire_scale = cfg.compressed_bytes() as f64 / framed_compressed.max(1) as f64;

        let lr = workload.learning_rate();

        Self {
            devices,
            transport,
            workload,
            init_model,
            wire_scale,
            lr,
        }
    }

    /// Scaled wire bytes of one framed row whose compressed payload is
    /// `payload` bytes.
    pub fn scaled_row_bytes(&self, payload: u64) -> u64 {
        ((rog_net::wire::framed_row_bytes(payload) as f64) * self.wire_scale).round() as u64
    }

    /// Scaled wire bytes of a whole-model message (baselines).
    pub fn scaled_model_bytes(&self, payloads: impl Iterator<Item = u64>) -> u64 {
        payloads.map(|p| self.scaled_row_bytes(p)).sum::<u64>() + rog_net::wire::message_overhead()
    }
}

/// A workload spec at one scale: what [`Cluster::build`] builds, and
/// what [`ExperimentConfig::check`] sizes the model from without
/// building any data.
pub(crate) enum WorkloadSpec {
    Cruda(CrudaSpec),
    Crimp(CrimpSpec),
}

impl WorkloadSpec {
    /// `cfg`'s workload at `cfg`'s scale.
    pub(crate) fn of(cfg: &ExperimentConfig) -> Self {
        match (cfg.workload, cfg.model_scale) {
            (WorkloadKind::Cruda, ModelScale::Paper) => Self::Cruda(CrudaSpec::paper()),
            (WorkloadKind::Cruda, ModelScale::Small) => Self::Cruda(CrudaSpec::small()),
            (WorkloadKind::CrudaConv, ModelScale::Paper) => Self::Cruda(CrudaSpec::conv_paper()),
            (WorkloadKind::CrudaConv, ModelScale::Small) => Self::Cruda(CrudaSpec::conv_small()),
            (WorkloadKind::Crimp, ModelScale::Paper) => Self::Crimp(CrimpSpec::paper()),
            (WorkloadKind::Crimp, ModelScale::Small) => Self::Crimp(CrimpSpec::small()),
        }
    }

    /// Parameter rows of the workload's model.
    pub(crate) fn model_rows(&self) -> usize {
        match self {
            Self::Cruda(spec) => spec.model_rows(),
            Self::Crimp(spec) => spec.model_rows(),
        }
    }
}

/// The `(seed, period)` of a generated trace of `cfg`'s channel: the
/// capacity trace for `link` `None`, else the (worker, shard) link.
/// [`Cluster::build`] streams from these; a caller that records the
/// same traces eagerly (`ChannelProfile::generate` / `generate_link`)
/// takes them from here too. Shard 0's links keep the historical
/// one-link-per-worker salts, so single-shard runs stay bit-identical;
/// extra shard links draw from a disjoint fork range.
pub fn generated_trace(cfg: &ExperimentConfig, link: Option<(usize, usize)>) -> (u64, f64) {
    let fork = match link {
        None => 0x50,
        Some((w, 0)) => 0x60 + w as u64,
        Some((w, s)) => 0x6000 + (w as u64) * 0x40 + s as u64,
    };
    let seed = DetRng::new(cfg.seed).fork(fork).seed();
    (seed, cfg.duration_secs.clamp(300.0, 1800.0))
}

/// One worker's compute model: its batch and jitter streams, what an
/// iteration's computation costs and when it evaluates. The sim engines
/// and a live worker draw from the same model, so a live worker samples
/// the batches its sim twin would. It owns the buffer its batch indices
/// are drawn into, so a draw after the first allocates nothing.
#[derive(Debug)]
pub struct WorkerDraws {
    batch: usize,
    batch_rng: DetRng,
    idxs: Vec<usize>,
    jitter_rng: DetRng,
    /// Base compute seconds at this run's batch scale.
    base: f64,
    codec: f64,
    eval_every: u64,
}

impl WorkerDraws {
    /// Worker `w`'s model in `cluster`, built from `cfg`.
    pub fn new(cfg: &ExperimentConfig, cluster: &Cluster, w: usize) -> Self {
        let root = DetRng::new(cfg.seed);
        Self {
            batch: cluster.devices[w].batch,
            batch_rng: root.fork(0x100 + w as u64),
            idxs: Vec::new(),
            jitter_rng: root.fork(0x200 + w as u64),
            base: cfg.base_compute_secs() * cfg.batch_scale,
            codec: cfg.codec_secs(),
            eval_every: cfg.eval_every,
        }
    }

    /// Samples the batch indices of the next gradient draw from `shard`
    /// (the worker's own) into the owned buffer, and lends them.
    pub fn next_batch(&mut self, shard: &Dataset) -> &[usize] {
        shard.sample_batch_into(self.batch, &mut self.batch_rng, &mut self.idxs);
        &self.idxs
    }

    /// Draws one iteration's computation time: base compute scaled by
    /// batch, plus codec cost, plus ~2 % jitter.
    pub fn compute_secs(&mut self) -> f64 {
        let jitter = self.jitter_rng.normal_with(0.0, 0.02 * self.base);
        (self.base + self.codec + jitter).max(0.05)
    }

    /// Whether the worker evaluates its model on completing `iter`.
    pub fn evaluates_at(&self, iter: u64) -> bool {
        iter > 0 && iter.is_multiple_of(self.eval_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, Strategy};

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            model_scale: ModelScale::Small,
            n_workers: 3,
            n_laptop_workers: 1,
            duration_secs: 60.0,
            environment: Environment::Stable,
            strategy: Strategy::Bsp,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Cluster::build(&small_cfg());
        let b = Cluster::build(&small_cfg());
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.init_model.params()[0], b.init_model.params()[0]);
        assert_eq!(a.wire_scale, b.wire_scale);
    }

    #[test]
    fn laptops_get_smaller_batches() {
        let c = Cluster::build(&small_cfg());
        assert_eq!(c.devices.len(), 3);
        assert_eq!(c.devices[0].kind, DeviceKind::Robot);
        assert_eq!(c.devices[2].kind, DeviceKind::Laptop);
        assert!(c.devices[2].batch < c.devices[0].batch);
    }

    #[test]
    fn wire_scale_hits_the_target_volume() {
        let cfg = small_cfg();
        let c = Cluster::build(&cfg);
        let total: u64 = c
            .init_model
            .row_widths()
            .iter()
            .map(|&w| {
                c.scaled_row_bytes(rog_compress::RowCodec::payload_bytes(
                    &rog_compress::OneBitCodec,
                    w,
                ))
            })
            .sum();
        let target = cfg.compressed_bytes();
        let ratio = total as f64 / target as f64;
        // Within ~2% of 2.1 MB (framing rounds per row).
        assert!((0.95..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batch_scale_scales_batches() {
        let mut cfg = small_cfg();
        cfg.batch_scale = 2.0;
        let c2 = Cluster::build(&cfg);
        cfg.batch_scale = 1.0;
        let c1 = Cluster::build(&cfg);
        assert_eq!(c2.devices[0].batch, 2 * c1.devices[0].batch);
    }

    #[test]
    fn shards_match_worker_count() {
        let c = Cluster::build(&small_cfg());
        assert_eq!(c.workload.shards().len(), 3);
    }

    #[test]
    fn spec_row_counts_match_the_built_models() {
        for workload in [
            WorkloadKind::Cruda,
            WorkloadKind::CrudaConv,
            WorkloadKind::Crimp,
        ] {
            for model_scale in [ModelScale::Small, ModelScale::Paper] {
                let cfg = ExperimentConfig {
                    workload,
                    model_scale,
                    ..small_cfg()
                };
                let built = Cluster::build(&cfg).init_model.total_rows();
                assert_eq!(
                    WorkloadSpec::of(&cfg).model_rows(),
                    built,
                    "{workload:?} {model_scale:?}"
                );
            }
        }
    }

    #[test]
    fn compute_secs_is_near_base_plus_codec() {
        let cfg = small_cfg();
        let mut draws = WorkerDraws::new(&cfg, &Cluster::build(&cfg), 0);
        let want = cfg.base_compute_secs() + cfg.codec_secs();
        for _ in 0..20 {
            let t = draws.compute_secs();
            assert!((t - want).abs() < 0.3 * want, "draw {t} vs {want}");
        }
    }
}
