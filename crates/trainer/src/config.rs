//! Experiment configuration: the one text form of each run enum
//! (`FromStr`, [`Strategy::spec`]) and the one admission check of a
//! run ([`ExperimentConfig::check`]).

use std::str::FromStr;

use rog_compress::CodecChoice;
use rog_core::{ImportanceMetric, ImportanceWeights};
use rog_fault::{ChurnProfile, FaultPlan};
use rog_net::{ChannelProfile, LossConfig, LossModel, SharingMode, Trace};

use crate::cluster::WorkloadSpec;

/// Which workload to train (paper Sec. VI, "Experiment Scenarios").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Coordinated robotic unsupervised domain adaptation (dense MLP).
    Cruda,
    /// CRUDA with the ConvMLP architecture on image inputs — the model
    /// family of the paper's recognition network.
    CrudaConv,
    /// Coordinated robotic implicit mapping and positioning.
    Crimp,
}

impl WorkloadKind {
    const ALL: [Self; 3] = [Self::Cruda, Self::CrudaConv, Self::Crimp];

    /// Display name, also the `rogctl --workload` word.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Cruda => "cruda",
            WorkloadKind::CrudaConv => "cruda-conv",
            WorkloadKind::Crimp => "crimp",
        }
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }
}

/// Wireless environment (paper Sec. VI, "Experiment Environments").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Environment {
    /// Laboratory with desks/separators: moderate instability.
    Indoor,
    /// Campus garden with trees/bushes: severe instability, deep fades.
    Outdoor,
    /// Idealized flat channel (ablation/testing only).
    Stable,
}

impl Environment {
    const ALL: [Self; 3] = [Self::Indoor, Self::Outdoor, Self::Stable];

    /// The channel profile of this environment.
    pub fn profile(&self) -> ChannelProfile {
        match self {
            Environment::Indoor => ChannelProfile::indoor(),
            Environment::Outdoor => ChannelProfile::outdoor(),
            Environment::Stable => ChannelProfile::stable(100e6),
        }
    }

    /// Display name, also the `rogctl --env` word.
    pub fn name(&self) -> &'static str {
        match self {
            Environment::Indoor => "indoor",
            Environment::Outdoor => "outdoor",
            Environment::Stable => "stable",
        }
    }
}

impl FromStr for Environment {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown environment '{s}'"))
    }
}

/// Synchronization strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Bulk synchronous parallel: a barrier every iteration.
    Bsp,
    /// Stale synchronous parallel with a fixed threshold.
    Ssp {
        /// The staleness threshold.
        threshold: u32,
    },
    /// Fully asynchronous parallel: no gate at all (unbounded
    /// staleness; the asynchronous end of the baseline spectrum).
    Asp,
    /// FLOWN-style dynamic per-worker thresholds (model granularity).
    Flown {
        /// Smallest assignable threshold.
        min_threshold: u32,
        /// Largest assignable threshold.
        max_threshold: u32,
    },
    /// Dynamic SSP (arxiv 1908.11848): per-worker SSP thresholds
    /// re-derived at runtime from iteration-rate EWMAs (model
    /// granularity).
    Dssp {
        /// Smallest assignable threshold.
        min_threshold: u32,
        /// Largest assignable threshold.
        max_threshold: u32,
    },
    /// Adaptive Bounded Staleness (arxiv 2301.08895): one uniform bound
    /// widened/narrowed on communication-round stall accounting (model
    /// granularity).
    Abs {
        /// Smallest assignable bound.
        min_threshold: u32,
        /// Largest assignable bound.
        max_threshold: u32,
    },
    /// ROG: row-granulated RSP + ATP.
    Rog {
        /// The RSP staleness threshold.
        threshold: u32,
    },
    /// Adaptive-bound RSP hybrid: the ROG row engine with the staleness
    /// bound driven at runtime by the per-link loss-rate/goodput EWMAs.
    RogAdaptive {
        /// Smallest assignable bound (also the starting bound).
        min_threshold: u32,
        /// Largest assignable bound.
        max_threshold: u32,
    },
}

impl Strategy {
    /// Display name matching the paper's figure legends. Adaptive
    /// models encode their bound ranges (`DSSP-1..8`) so run names,
    /// journal headers, and bench JSON rows stay unique across
    /// differently-bounded instances of the same model.
    pub fn name(&self) -> String {
        // The spec in capitals, `-` before the bound and `..` inside a
        // range; FLOWN's legend carries no range.
        let spec = self.spec().to_uppercase();
        match spec.split_once(':') {
            _ if matches!(self, Strategy::Flown { .. }) => "FLOWN".to_owned(),
            Some((word, bound)) => format!("{word}-{}", bound.replace(':', "..")),
            None => spec,
        }
    }

    /// Whether this strategy runs the row-granular engine (ROG and the
    /// adaptive-bound hybrid) rather than a model-granularity baseline.
    pub fn is_row_granular(&self) -> bool {
        matches!(self, Strategy::Rog { .. } | Strategy::RogAdaptive { .. })
    }

    /// The `rogctl --strategy` text of this strategy (`ssp:4`,
    /// `roga:1:8`); [`Strategy::from_str`] inverts it.
    pub fn spec(&self) -> String {
        let word = match self {
            Strategy::Bsp => "bsp",
            Strategy::Asp => "asp",
            Strategy::Ssp { .. } => "ssp",
            Strategy::Rog { .. } => "rog",
            Strategy::Flown { .. } => "flown",
            Strategy::Dssp { .. } => "dssp",
            Strategy::Abs { .. } => "abs",
            Strategy::RogAdaptive { .. } => "roga",
        };
        match (*self, self.bound_range()) {
            (Strategy::Ssp { threshold: t } | Strategy::Rog { threshold: t }, _) => {
                format!("{word}:{t}")
            }
            (_, Some((lo, hi))) => format!("{word}:{lo}:{hi}"),
            (_, None) => word.to_owned(),
        }
    }

    /// `(min, max)` of a strategy whose bound moves at runtime.
    fn bound_range(&self) -> Option<(u32, u32)> {
        match *self {
            Strategy::Flown {
                min_threshold: lo,
                max_threshold: hi,
            }
            | Strategy::Dssp {
                min_threshold: lo,
                max_threshold: hi,
            }
            | Strategy::Abs {
                min_threshold: lo,
                max_threshold: hi,
            }
            | Strategy::RogAdaptive {
                min_threshold: lo,
                max_threshold: hi,
            } => Some((lo, hi)),
            Strategy::Bsp | Strategy::Asp | Strategy::Ssp { .. } | Strategy::Rog { .. } => None,
        }
    }
}

/// The grammar only: `bsp | asp | ssp:<t> | rog:<t> |
/// flown|dssp|abs|roga:<min>:<max>` with `u32` numbers. Whether the
/// bounds make a runnable strategy is [`ExperimentConfig::check`]'s
/// question.
impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut words = s.split(':');
        let word = words.next().unwrap_or_default();
        let nums = words
            .map(str::parse)
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|_| format!("strategy '{s}': thresholds are u32 integers"))?;
        Ok(match (word, nums.as_slice()) {
            ("bsp", []) => Strategy::Bsp,
            ("asp", []) => Strategy::Asp,
            ("ssp", &[threshold]) => Strategy::Ssp { threshold },
            ("rog", &[threshold]) => Strategy::Rog { threshold },
            ("flown", &[min_threshold, max_threshold]) => Strategy::Flown {
                min_threshold,
                max_threshold,
            },
            ("dssp", &[min_threshold, max_threshold]) => Strategy::Dssp {
                min_threshold,
                max_threshold,
            },
            ("abs", &[min_threshold, max_threshold]) => Strategy::Abs {
                min_threshold,
                max_threshold,
            },
            ("roga", &[min_threshold, max_threshold]) => Strategy::RogAdaptive {
                min_threshold,
                max_threshold,
            },
            _ => {
                return Err(format!(
                    "unknown strategy '{s}' (bsp | asp | ssp:<t> | flown:<min>:<max> | \
                     dssp:<min>:<max> | abs:<min>:<max> | rog:<t> | roga:<min>:<max>)"
                ))
            }
        })
    }
}

/// Problem size: the evaluation-scale specs or tiny test-scale specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelScale {
    /// Evaluation scale (used by the `rogctl figure` experiments).
    Paper,
    /// Tiny scale for unit/integration tests.
    Small,
}

impl FromStr for ModelScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "paper" => Ok(ModelScale::Paper),
            "small" => Ok(ModelScale::Small),
            _ => Err(format!("unknown scale '{s}'")),
        }
    }
}

/// Full description of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Workload to train.
    pub workload: WorkloadKind,
    /// Wireless environment.
    pub environment: Environment,
    /// Synchronization strategy.
    pub strategy: Strategy,
    /// Problem size.
    pub model_scale: ModelScale,
    /// Number of training workers (the parameter server is an extra
    /// device). The paper's default team is 4 workers: 3 robots and one
    /// laptop; see [`crate::Cluster`].
    pub n_workers: usize,
    /// How many of the workers are (slower) laptops; the rest are
    /// robots. Batches are scaled by dynamic batching (Table II).
    pub n_laptop_workers: usize,
    /// Multiplier on every device's batch size (Fig. 9 sweeps ×2, ×4).
    pub batch_scale: f64,
    /// Virtual wall-clock budget in seconds.
    pub duration_secs: f64,
    /// Checkpoint (evaluate) every this many iterations per worker.
    pub eval_every: u64,
    /// Root random seed; every run with the same config is
    /// bit-reproducible.
    pub seed: u64,
    /// Record per-push micro-events on worker 0 (Fig. 8).
    pub record_micro: bool,
    /// ATP importance-metric coefficients `(f1, f2)` override (ROG only;
    /// used by the importance ablation).
    pub importance_weights: Option<(f64, f64)>,
    /// Pipeline communication and computation (ROG only): the paper's
    /// future-work extension (Sec. VI-D, after Pipe-SGD). The worker
    /// keeps computing while its push/pull cycle runs concurrently,
    /// bounded so computation never runs more than the staleness
    /// threshold ahead of the last applied pull.
    pub pipeline: bool,
    /// Adapt the ROG staleness threshold online (paper future work,
    /// Sec. VI-C): raise it when the cluster stalls, lower it when the
    /// channel is calm, trading early speed against late statistical
    /// efficiency automatically.
    pub auto_threshold: bool,
    /// MAC sharing model for the wireless channel (airtime fairness by
    /// default; throughput fairness models the 802.11 rate anomaly).
    pub mac_sharing: SharingMode,
    /// Replay a recorded total-capacity trace instead of generating one
    /// (the artifact's `tc`-replay path; see `rog_net::io`).
    pub capacity_trace: Option<Trace>,
    /// Replay recorded per-link quality traces (values in `(0, 1]`),
    /// cycled if fewer traces than workers are given.
    pub link_traces: Option<Vec<Trace>>,
    /// Explicit fault-injection plan (worker churn, link blackouts,
    /// server restarts), scheduled on the virtual clock. An empty plan
    /// is bit-identical to `None`.
    pub fault_plan: Option<FaultPlan>,
    /// Generate a seeded churn plan ([`FaultPlan::seeded_churn`] with
    /// the default [`ChurnProfile`]) when no explicit `fault_plan` is
    /// given. Ignored if `fault_plan` is set.
    pub fault_seed: Option<u64>,
    /// Packet-loss model for the wireless channel (Gilbert–Elliott
    /// burst loss, i.i.d. loss/corruption/duplication/reordering; see
    /// [`LossConfig`]). `None` — and an all-zero config — leave every
    /// chunk intact and are bit-identical to a loss-free build.
    pub loss: Option<LossConfig>,
    /// Record a deterministic event journal (`rog_obs`) during the
    /// run. Tracing never feeds back into the simulation: metrics are
    /// bit-identical with tracing on or off.
    pub trace: bool,
    /// Number of parameter-server shards for the row engine (ROG
    /// strategies only; model-granularity baselines always use one
    /// server). Rows are partitioned contiguously across shards, each
    /// worker↔shard pair gets its own link, and the RSP gate blocks
    /// per shard. `1` (the default) is byte-identical to the unsharded
    /// engine. `0` is treated as `1`.
    pub n_shards: usize,
    /// Number of edge aggregators between the workers and the
    /// parameter-server shards (ROG strategies only). Workers are
    /// grouped contiguously under aggregators; each aggregator merges
    /// its members' row pushes (summing gradient contributions,
    /// max-ing versions) before forwarding upstream. `0` (the
    /// default) is the flat topology, byte-identical to the
    /// pre-aggregator engine.
    pub n_aggregators: usize,
    /// Row codec for the push/pull payloads (ROG strategies only; the
    /// model-granularity baselines always ship the dense one-bit
    /// model). [`CodecChoice::Auto`] starts every link on one-bit and
    /// re-selects per link from the channel's loss/goodput EWMAs. The
    /// default, [`CodecChoice::OneBit`], is byte-identical to the
    /// pre-codec engine.
    pub codec: CodecChoice,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadKind::Cruda,
            environment: Environment::Outdoor,
            strategy: Strategy::Bsp,
            model_scale: ModelScale::Paper,
            n_workers: 4,
            n_laptop_workers: 1,
            batch_scale: 1.0,
            duration_secs: 3600.0,
            eval_every: 50,
            seed: 0x0611,
            record_micro: false,
            importance_weights: None,
            pipeline: false,
            auto_threshold: false,
            mac_sharing: SharingMode::AirtimeFair,
            capacity_trace: None,
            link_traces: None,
            fault_plan: None,
            fault_seed: None,
            loss: None,
            trace: false,
            n_shards: 1,
            n_aggregators: 0,
            codec: CodecChoice::OneBit,
        }
    }
}

impl ExperimentConfig {
    /// Display name of the run ("ROG-4 / cruda / outdoor").
    pub fn name(&self) -> String {
        let faulty = self.fault_plan.as_ref().is_some_and(|p| !p.is_empty())
            || (self.fault_plan.is_none() && self.fault_seed.is_some());
        format!(
            "{}{}{}{}{}{}{} / {} / {}",
            self.strategy.name(),
            match (self.pipeline, self.auto_threshold) {
                (true, true) => "+pipe+auto",
                (true, false) => "+pipe",
                (false, true) => "+auto",
                (false, false) => "",
            },
            if self.effective_shards() > 1 {
                format!("+shard{}", self.effective_shards())
            } else {
                String::new()
            },
            if self.effective_aggregators() > 0 {
                format!("+agg{}", self.effective_aggregators())
            } else {
                String::new()
            },
            if self.effective_codec() != CodecChoice::OneBit {
                format!("+{}", self.effective_codec().name())
            } else {
                String::new()
            },
            if faulty { "+faults" } else { "" },
            if self.loss_active() { "+loss" } else { "" },
            self.workload.name(),
            self.environment.name()
        )
    }

    /// Whether this run can execute: every rule the cluster builder and
    /// the engines rely on, checked once. `rogctl` and `.repro` parsing
    /// return the error; [`crate::Cluster::build`], which every
    /// simulated, live and benchmark run goes through, panics with it.
    /// Each message names the `rogctl` flag or the fault-plan target.
    ///
    /// # Errors
    ///
    /// The first rule the run breaks, as one printable line.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let (workers, laptops) = (self.n_workers, self.n_laptop_workers);
        let (secs, scale) = (self.duration_secs, self.batch_scale);
        let (aggs, shards) = (self.effective_aggregators(), self.effective_shards());
        if workers == 0 {
            return Err("--workers 0: need at least one worker".into());
        }
        if laptops > workers {
            return Err(format!("--laptops {laptops} exceeds --workers {workers}"));
        }
        if !positive(secs) {
            return Err(format!("--duration {secs} must be finite and > 0"));
        }
        if !positive(scale) {
            return Err(format!("--batch-scale {scale} must be finite and > 0"));
        }
        if self.eval_every == 0 {
            return Err("--eval-every 0: must be >= 1".into());
        }
        if aggs > workers {
            return Err(format!("--aggregators {aggs} exceeds --workers {workers}"));
        }
        if let Some((min, max)) = self.strategy.bound_range() {
            // The adaptive-bound hybrid starts at `min` on the row gate,
            // which needs a bound of at least one.
            let floor = u32::from(matches!(self.strategy, Strategy::RogAdaptive { .. }));
            if min < floor || min > max {
                let spec = self.strategy.spec();
                return Err(format!("--strategy {spec} expects {floor} <= min <= max"));
            }
        }
        if self.auto_threshold && matches!(self.strategy, Strategy::RogAdaptive { .. }) {
            return Err(format!(
                "--auto-threshold conflicts with --strategy {} (the adaptive bound is \
                 already a threshold controller)",
                self.strategy.spec()
            ));
        }
        let rows = WorkloadSpec::of(self).model_rows();
        if shards > rows {
            return Err(format!(
                "--shards {shards} exceeds the model's {rows} rows (each shard owns at least one)"
            ));
        }
        if self.link_traces.as_ref().is_some_and(Vec::is_empty) {
            return Err("link trace replay needs at least one trace".into());
        }
        let plan = self.fault_plan.as_ref();
        for (target, max, n) in [
            ("worker", plan.and_then(FaultPlan::max_worker), workers),
            ("shard", plan.and_then(FaultPlan::max_shard), shards),
            ("aggregator", plan.and_then(FaultPlan::max_aggregator), aggs),
        ] {
            if let Some(max) = max.filter(|&m| m >= n) {
                return Err(format!(
                    "fault plan targets {target} {max} but the run has {n} {target}s"
                ));
            }
        }
        Ok(())
    }

    /// The shard count this run actually uses: `n_shards`, floored at
    /// one, for the ROG row engine; always one for the
    /// model-granularity baselines (they move whole models; there is
    /// nothing to shard).
    pub fn effective_shards(&self) -> usize {
        if self.strategy.is_row_granular() {
            self.n_shards.max(1)
        } else {
            1
        }
    }

    /// The edge-aggregator count this run actually uses: `n_aggregators`
    /// for the ROG row engine (`0` = flat worker→server topology);
    /// always `0` for the model-granularity baselines.
    pub fn effective_aggregators(&self) -> usize {
        if self.strategy.is_row_granular() {
            self.n_aggregators
        } else {
            0
        }
    }

    /// The row codec this run actually uses: `codec` for the ROG row
    /// engine; always the dense one-bit codec for the model-granularity
    /// baselines (they ship whole models; the codec ladder is a
    /// row-granular feature).
    pub fn effective_codec(&self) -> CodecChoice {
        if self.strategy.is_row_granular() {
            self.codec
        } else {
            CodecChoice::OneBit
        }
    }

    /// True when this run can actually lose, corrupt, duplicate, or
    /// reorder chunks: a non-off [`LossConfig`], or scripted loss
    /// windows in the fault plan.
    pub fn loss_active(&self) -> bool {
        self.loss.as_ref().is_some_and(|l| !l.is_off())
            || self
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.loss_windows().iter().any(|w| w.rate > 0.0))
    }

    /// Builds the channel's [`LossModel`] for this run, folding the
    /// fault plan's scripted loss windows into it. `None` when nothing
    /// can harm a chunk — the engines then leave the channel exactly as
    /// a pre-loss-model build would, preserving byte-identity.
    pub fn resolved_loss_model(&self, plan: Option<&FaultPlan>) -> Option<LossModel> {
        if !self.loss_active() {
            return None;
        }
        let cfg = self.loss.clone().unwrap_or_else(LossConfig::off);
        let shards = self.effective_shards();
        let mut model = LossModel::build(&cfg, self.n_workers * shards, self.duration_secs);
        if let Some(plan) = plan {
            for w in plan.loss_windows() {
                // A scripted loss window hits the worker's radio, so it
                // covers every shard link of that worker. With one
                // shard this is exactly the pre-shard single link.
                for s in 0..shards {
                    model.add_window(
                        rog_net::shard_link(w.link, shards, s),
                        w.start,
                        w.end,
                        w.rate,
                    );
                }
            }
        }
        Some(model)
    }

    /// The fault plan this run executes: the explicit plan when set,
    /// else a seeded churn plan when `fault_seed` is given, else `None`.
    pub fn resolved_fault_plan(&self) -> Option<FaultPlan> {
        if let Some(plan) = &self.fault_plan {
            return Some(plan.clone());
        }
        self.fault_seed.map(|seed| {
            FaultPlan::seeded_churn(
                seed,
                self.n_workers,
                self.duration_secs,
                &ChurnProfile::default(),
            )
        })
    }

    /// The row-importance metric workers rank by: the paper's weights
    /// unless `importance_weights` overrides them.
    pub fn importance(&self) -> ImportanceMetric {
        match self.importance_weights {
            Some((f1, f2)) => ImportanceMetric::new(ImportanceWeights { f1, f2 }),
            None => ImportanceMetric::default(),
        }
    }

    /// Gradient-computation seconds on a robot at batch scale 1,
    /// excluding the (de)compression cost.
    ///
    /// Sec. II-D: a Jetson Xavier NX computes CRUDA gradients in 2.18 s
    /// including the 0.42–0.51 s codec cost. CRIMP's model is smaller and
    /// computes faster (Fig. 7a).
    pub fn base_compute_secs(&self) -> f64 {
        match self.workload {
            WorkloadKind::Cruda | WorkloadKind::CrudaConv => 1.71,
            WorkloadKind::Crimp => 0.95,
        }
    }

    /// Compression + decompression seconds per iteration (Table II).
    pub fn codec_secs(&self) -> f64 {
        match self.workload {
            WorkloadKind::Cruda | WorkloadKind::CrudaConv => 0.47,
            WorkloadKind::Crimp => 0.35,
        }
    }

    /// Target compressed model size on the wire (paper Sec. I: 2.1 MB
    /// and 0.75 MB for the two paradigms); the synthetic model's rows
    /// are scaled so its compressed size matches.
    pub fn compressed_bytes(&self) -> u64 {
        match self.workload {
            WorkloadKind::Cruda | WorkloadKind::CrudaConv => 2_100_000,
            WorkloadKind::Crimp => 750_000,
        }
    }

    /// Wraps this config in a [`crate::RunOptions`] builder — the
    /// single entry point for running experiments.
    pub fn options(&self) -> crate::RunOptions {
        crate::RunOptions::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(Strategy::Bsp.name(), "BSP");
        assert_eq!(Strategy::Ssp { threshold: 20 }.name(), "SSP-20");
        assert_eq!(
            Strategy::Flown {
                min_threshold: 2,
                max_threshold: 20
            }
            .name(),
            "FLOWN"
        );
        assert_eq!(Strategy::Rog { threshold: 4 }.name(), "ROG-4");
    }

    #[test]
    fn strategy_variants_parse() {
        for (text, name) in [
            ("bsp", "BSP"),
            ("asp", "ASP"),
            ("ssp:20", "SSP-20"),
            ("flown:2:20", "FLOWN"),
            ("dssp:1:8", "DSSP-1..8"),
            ("abs:1:6", "ABS-1..6"),
            ("roga:1:8", "ROGA-1..8"),
        ] {
            let s: Strategy = text.parse().expect(text);
            assert_eq!((s.name(), s.spec()), (name.to_owned(), text.to_owned()));
        }
        // Malformed text is the grammar's to reject...
        for bad in ["ssp", "nope:1", "ssp:4294967297", "rog:-1", "bsp:1"] {
            assert!(bad.parse::<Strategy>().is_err(), "{bad}");
        }
        // ...bounds no engine can run are `check`'s, naming the flag.
        let check = |text: &str| {
            let strategy = text.parse().expect(text);
            ExperimentConfig {
                strategy,
                ..ExperimentConfig::default()
            }
            .check()
        };
        for bad in ["roga:0:8", "roga:5:2", "dssp:8:1", "flown:9:2", "abs:6:1"] {
            let e = check(bad).expect_err(bad);
            assert!(e.starts_with(&format!("--strategy {bad} ")), "{e}");
        }
        for ok in ["roga:1:1", "dssp:0:0", "flown:3:3"] {
            assert_eq!(check(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn check_refuses_an_empty_link_trace_replay() {
        let cfg = ExperimentConfig {
            link_traces: Some(vec![]),
            ..ExperimentConfig::default()
        };
        let reason = "link trace replay needs at least one trace";
        assert_eq!(cfg.check(), Err(reason.to_owned()));
    }

    #[test]
    fn enum_words_parse_back() {
        for w in WorkloadKind::ALL {
            assert_eq!(w.name().parse(), Ok(w));
        }
        for e in Environment::ALL {
            assert_eq!(e.name().parse(), Ok(e));
        }
        assert_eq!("paper".parse(), Ok(ModelScale::Paper));
        assert!("huge".parse::<ModelScale>().is_err());
    }

    proptest::proptest! {
        #[test]
        fn strategy_spec_round_trips(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
            for s in [
                Strategy::Bsp,
                Strategy::Asp,
                Strategy::Ssp { threshold: a },
                Strategy::Rog { threshold: a },
                Strategy::Flown { min_threshold: a, max_threshold: b },
                Strategy::Dssp { min_threshold: a, max_threshold: b },
                Strategy::Abs { min_threshold: a, max_threshold: b },
                Strategy::RogAdaptive { min_threshold: a, max_threshold: b },
            ] {
                proptest::prop_assert_eq!(s.spec().parse::<Strategy>(), Ok(s));
            }
        }
    }

    #[test]
    fn adaptive_names_encode_bound_ranges() {
        assert_eq!(
            Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8
            }
            .name(),
            "DSSP-1..8"
        );
        assert_eq!(
            Strategy::Abs {
                min_threshold: 2,
                max_threshold: 6
            }
            .name(),
            "ABS-2..6"
        );
        assert_eq!(
            Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8
            }
            .name(),
            "ROGA-1..8"
        );
    }

    #[test]
    fn row_granularity_classifies_every_strategy() {
        assert!(Strategy::Rog { threshold: 4 }.is_row_granular());
        assert!(Strategy::RogAdaptive {
            min_threshold: 1,
            max_threshold: 8
        }
        .is_row_granular());
        for s in [
            Strategy::Bsp,
            Strategy::Ssp { threshold: 4 },
            Strategy::Asp,
            Strategy::Flown {
                min_threshold: 2,
                max_threshold: 12,
            },
            Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            },
            Strategy::Abs {
                min_threshold: 1,
                max_threshold: 8,
            },
        ] {
            assert!(!s.is_row_granular(), "{} is model-granular", s.name());
        }
        // Row-only knobs follow the classification: the hybrid shards,
        // the model-granular adaptives do not.
        let roga = ExperimentConfig {
            strategy: Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            },
            n_shards: 3,
            n_aggregators: 1,
            ..ExperimentConfig::default()
        };
        assert_eq!(roga.effective_shards(), 3);
        assert_eq!(roga.effective_aggregators(), 1);
        let dssp = ExperimentConfig {
            strategy: Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            },
            n_shards: 3,
            n_aggregators: 1,
            ..ExperimentConfig::default()
        };
        assert_eq!(dssp.effective_shards(), 1);
        assert_eq!(dssp.effective_aggregators(), 0);
    }

    #[test]
    fn defaults_follow_the_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.n_workers, 4);
        assert_eq!(c.eval_every, 50);
        assert_eq!(c.compressed_bytes(), 2_100_000);
        // Total compute incl. codec ≈ 2.18 s (Sec. II-D).
        assert!((c.base_compute_secs() + c.codec_secs() - 2.18).abs() < 1e-9);
    }

    #[test]
    fn fault_naming_and_resolution() {
        let plain = ExperimentConfig::default();
        assert!(!plain.name().contains("+faults"));
        assert!(plain.resolved_fault_plan().is_none());

        // An explicitly empty plan behaves exactly like no plan.
        let empty = ExperimentConfig {
            fault_plan: Some(FaultPlan::new()),
            ..ExperimentConfig::default()
        };
        assert!(!empty.name().contains("+faults"));
        assert_eq!(empty.resolved_fault_plan(), Some(FaultPlan::new()));

        let seeded = ExperimentConfig {
            fault_seed: Some(7),
            ..ExperimentConfig::default()
        };
        assert!(seeded.name().contains("+faults"));
        let plan = seeded.resolved_fault_plan().expect("seeded plan");
        assert!(!plan.is_empty());
        assert_eq!(plan, seeded.resolved_fault_plan().expect("deterministic"));

        // An explicit plan wins over the seed.
        let both = ExperimentConfig {
            fault_plan: Some(FaultPlan::new().worker_offline(1, 5.0, 10.0)),
            fault_seed: Some(7),
            ..ExperimentConfig::default()
        };
        assert_eq!(
            both.resolved_fault_plan()
                .expect("explicit")
                .windows()
                .len(),
            1
        );
    }

    #[test]
    fn loss_naming_and_resolution() {
        let plain = ExperimentConfig::default();
        assert!(!plain.name().contains("+loss"));
        assert!(!plain.loss_active());
        assert!(plain.resolved_loss_model(None).is_none());

        // An all-zero config is explicitly inert.
        let off = ExperimentConfig {
            loss: Some(LossConfig::off()),
            ..ExperimentConfig::default()
        };
        assert!(!off.name().contains("+loss"));
        assert!(off.resolved_loss_model(None).is_none());

        let lossy = ExperimentConfig {
            loss: Some(LossConfig::gilbert_elliott(9, 0.1)),
            ..ExperimentConfig::default()
        };
        assert!(lossy.name().contains("+loss"));
        assert!(lossy.resolved_loss_model(None).is_some());

        // Scripted loss windows activate the model even with no config.
        let windows = ExperimentConfig {
            fault_plan: Some(FaultPlan::new().link_loss(1, 10.0, 20.0, 0.4)),
            ..ExperimentConfig::default()
        };
        assert!(windows.name().contains("+faults"));
        assert!(windows.name().contains("+loss"));
        let mut model = windows
            .resolved_loss_model(windows.resolved_fault_plan().as_ref())
            .expect("windows force a model");
        assert_eq!(model.loss_prob(1, 15.0), 0.4);
        assert_eq!(model.loss_prob(1, 25.0), 0.0);
    }

    #[test]
    fn aggregator_naming_and_resolution() {
        let flat = ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            ..ExperimentConfig::default()
        };
        assert_eq!(flat.effective_aggregators(), 0);
        assert!(!flat.name().contains("+agg"));

        let hier = ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            n_aggregators: 2,
            ..ExperimentConfig::default()
        };
        assert_eq!(hier.effective_aggregators(), 2);
        assert!(hier.name().contains("+agg2"), "{}", hier.name());

        // Baselines move whole models; there is nothing to aggregate.
        let baseline = ExperimentConfig {
            strategy: Strategy::Bsp,
            n_aggregators: 2,
            ..ExperimentConfig::default()
        };
        assert_eq!(baseline.effective_aggregators(), 0);
        assert!(!baseline.name().contains("+agg"));
    }

    #[test]
    fn codec_naming_and_resolution() {
        let rog = ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            ..ExperimentConfig::default()
        };
        // The one-bit default leaves run names byte-identical to the
        // pre-codec builds.
        assert_eq!(rog.effective_codec(), CodecChoice::OneBit);
        assert!(!rog.name().contains("+onebit"), "{}", rog.name());

        let sparse = ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            codec: CodecChoice::Sparse,
            ..ExperimentConfig::default()
        };
        assert_eq!(sparse.effective_codec(), CodecChoice::Sparse);
        assert!(sparse.name().contains("+sparse"), "{}", sparse.name());

        let quant = ExperimentConfig {
            strategy: Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            },
            codec: CodecChoice::Quant { bits: 4 },
            ..ExperimentConfig::default()
        };
        assert!(quant.name().contains("+q4"), "{}", quant.name());

        // Baselines ship whole models: the codec knob is inert there.
        let bsp = ExperimentConfig {
            codec: CodecChoice::Sparse,
            ..ExperimentConfig::default()
        };
        assert_eq!(bsp.effective_codec(), CodecChoice::OneBit);
        assert!(!bsp.name().contains("+sparse"), "{}", bsp.name());
    }

    #[test]
    fn crimp_is_smaller_and_faster() {
        let c = ExperimentConfig {
            workload: WorkloadKind::Crimp,
            ..ExperimentConfig::default()
        };
        assert!(c.compressed_bytes() < 1_000_000);
        assert!(c.base_compute_secs() < 1.71);
    }
}
