//! The four workloads: each is one `ExperimentConfig` generated from the
//! benchmark seed. The program under test sees only the config.

use rog_compress::CodecChoice;
use rog_net::LossConfig;
use rog_trainer::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in results.
    pub name: &'static str,
    /// The run the engine is asked for.
    pub cfg: ExperimentConfig,
    /// Whether the timed operation records the event journal and
    /// serialises it (JSONL, then gzip) — `rogctl trace --out x.gz`.
    pub journaled: bool,
    /// Per-layer metrics predicted to see **zero** operations here: the
    /// layers this workload bypasses. The traced pass fails if one does
    /// not, because the workload then no longer isolates what it is for.
    pub bypasses: &'static [&'static str],
    /// Per-layer metrics predicted to see operations here although they
    /// see none on the default path.
    pub exercises: &'static [&'static str],
}

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["team4-rog", "team4-bsp", "fleet256", "lossy-traced"];

/// Builds the workload called `name` from `seed`. `quick` divides the
/// virtual duration by ten (smoke mode; results are not comparable).
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let team = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        model_scale: ModelScale::Paper,
        n_workers: 4,
        n_laptop_workers: 1,
        seed,
        ..ExperimentConfig::default()
    };
    let rog4 = Strategy::Rog { threshold: 4 };
    const ROWS: &str = "core.rows_pushed";
    const JOURNAL: &str = "obs.events";
    const LOSS: &str = "net.loss_fate_ns";
    const AGG: &str = "core.agg_merge_ns_per_row";
    let (name, mut cfg, journaled, bypasses, exercises): (_, _, _, &[&str], &[&str]) = match name {
        // Fig. 1 of the paper and the default `rogctl` path: the row
        // engine and the one-bit codec under deep outdoor fades.
        "team4-rog" => (
            NAMES[0],
            ExperimentConfig {
                environment: Environment::Outdoor,
                strategy: rog4,
                duration_secs: 7200.0,
                ..team
            },
            false,
            &[JOURNAL, LOSS, AGG],
            &[ROWS],
        ),
        // Same cluster and kernels through the model-granularity engine:
        // bypasses every row-path layer.
        "team4-bsp" => (
            NAMES[1],
            ExperimentConfig {
                environment: Environment::Indoor,
                strategy: Strategy::Bsp,
                duration_secs: 3600.0,
                ..team
            },
            false,
            &[ROWS, JOURNAL, LOSS, AGG],
            &[],
        ),
        // The `BENCH_fleet.json` cell: almost no gradient work, all
        // channel / version store / aggregator / event loop.
        "fleet256" => (
            NAMES[2],
            ExperimentConfig {
                environment: Environment::Outdoor,
                strategy: rog4,
                n_workers: 256,
                n_shards: 4,
                n_aggregators: 8,
                duration_secs: 120.0,
                eval_every: 20,
                ..team
            },
            false,
            &[JOURNAL, LOSS],
            &[ROWS, AGG],
        ),
        // The robustness path: sparse codec, burst loss, journal on and
        // serialised.
        "lossy-traced" => (
            NAMES[3],
            ExperimentConfig {
                environment: Environment::Indoor,
                strategy: rog4,
                codec: CodecChoice::Sparse,
                loss: Some(LossConfig::gilbert_elliott(seed, 0.10)),
                duration_secs: 1800.0,
                ..team
            },
            true,
            &[AGG],
            &[ROWS, JOURNAL, LOSS],
        ),
        _ => return None,
    };
    if quick {
        cfg.duration_secs /= 10.0;
    }
    Some(Workload {
        name,
        cfg,
        journaled,
        bypasses,
        exercises,
    })
}
