//! Helpers shared by the facade integration-test suite.
//!
//! Each test binary compiles this module independently and uses a
//! subset of it, so unused items are expected.
#![allow(dead_code)]

use rog::prelude::*;
use rog::trainer::report::runs_to_json;

/// Float tolerance for exact-accounting invariants: timeline sums and
/// journal reconciliation agree on 1e-9.
pub const EPS: f64 = 1e-9;

/// Tolerance for checkpoint monotonicity: checkpoint values are
/// averaged over workers, so consecutive values may regress by float
/// error well above [`EPS`].
pub const CKPT_EPS: f64 = 1e-6;

/// The canonical small deterministic cluster — 2 robot workers, Small
/// model, stable channel, 120 virtual seconds, seed 42 — shared by the
/// fault, loss and trace suites.
pub fn small_cluster_cfg(strategy: Strategy) -> ExperimentConfig {
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

/// A fleet-scale deterministic cluster: `workers` robot workers on the
/// stable channel, a `shards`-way ROG parameter plane, seed 42. The
/// Small CRUDA dataset has only 150 samples, so fleets larger than
/// that use the paper-scale dataset (every worker must get a non-empty
/// data shard); the virtual duration is kept short so 256-worker runs
/// stay cheap enough to replay.
pub fn fleet_cluster_cfg(workers: usize, shards: usize) -> ExperimentConfig {
    let model_scale = if workers > 100 {
        ModelScale::Paper
    } else {
        ModelScale::Small
    };
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Stable,
        strategy: Strategy::Rog { threshold: 4 },
        model_scale,
        n_workers: workers,
        n_laptop_workers: 0,
        n_shards: shards,
        duration_secs: 60.0,
        eval_every: 5,
        seed: 42,
        ..ExperimentConfig::default()
    }
}

/// The regression scenario matrix shared by the shard-identity and
/// reconciliation suites: every strategy on the small cluster (the
/// full six-model spectrum plus the adaptive-bound ROG hybrid), plus
/// faulted and lossy ROG variants and a lossy hybrid variant (loss is
/// what drives its bound). Durations are trimmed to 60 virtual seconds
/// so the full matrix stays cheap to replay.
pub fn scenario_matrix() -> Vec<(&'static str, ExperimentConfig)> {
    let short = |strategy| ExperimentConfig {
        duration_secs: 60.0,
        ..small_cluster_cfg(strategy)
    };
    let mut out: Vec<(&'static str, ExperimentConfig)> = vec![
        ("bsp", short(Strategy::Bsp)),
        ("ssp4", short(Strategy::Ssp { threshold: 4 })),
        ("asp", short(Strategy::Asp)),
        (
            "flown",
            short(Strategy::Flown {
                min_threshold: 2,
                max_threshold: 12,
            }),
        ),
        (
            "dssp",
            short(Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
        (
            "abs",
            short(Strategy::Abs {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
        ("rog4", short(Strategy::Rog { threshold: 4 })),
        (
            "roga",
            short(Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
    ];
    let mut faulted = short(Strategy::Rog { threshold: 4 });
    faulted.fault_plan = Some(FaultPlan::new().worker_offline(1, 15.0, 45.0));
    out.push(("rog4+fault", faulted));
    let mut lossy = short(Strategy::Rog { threshold: 4 });
    lossy.loss = Some(LossConfig::gilbert_elliott(lossy.seed, 0.10));
    out.push(("rog4+loss", lossy));
    let mut lossy_roga = short(Strategy::RogAdaptive {
        min_threshold: 1,
        max_threshold: 8,
    });
    lossy_roga.loss = Some(LossConfig::gilbert_elliott(lossy_roga.seed, 0.10));
    out.push(("roga+loss", lossy_roga));
    out
}

/// Asserts two runs are observably identical: the same name, no field
/// that differs (`RunMetrics::differences`), and byte-equal serialized
/// JSON reports.
pub fn assert_identical_runs(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert_eq!(a.name, b.name, "name differs: {what}");
    let diffs = a.differences(b);
    assert!(diffs.is_empty(), "{what}: {}", diffs.join("; "));
    assert_eq!(
        runs_to_json(std::slice::from_ref(a)),
        runs_to_json(std::slice::from_ref(b)),
        "serialized reports differ: {what}"
    );
}

/// Asserts checkpoints are strictly ordered in iteration and monotone
/// (within [`CKPT_EPS`]) in cumulative energy. Holds for *every*
/// strategy, including ASP.
pub fn assert_checkpoints_monotone(m: &RunMetrics, what: &str) {
    for w in m.checkpoints.windows(2) {
        assert!(w[0].iter < w[1].iter, "{what}: iterations not ordered");
        assert!(
            w[0].energy_j <= w[1].energy_j + CKPT_EPS,
            "{what}: energy went backwards"
        );
    }
}

/// [`assert_checkpoints_monotone`] plus time monotonicity. Checkpoint
/// times are per-iteration means over workers, so this only holds when
/// worker progress is staleness-bounded — ASP legitimately violates it
/// (a fast worker reaches iteration N before a slow worker reaches
/// N - 10, dragging the later checkpoint's mean time backwards).
pub fn assert_checkpoints_monotone_in_time(m: &RunMetrics, what: &str) {
    assert_checkpoints_monotone(m, what);
    for w in m.checkpoints.windows(2) {
        assert!(
            w[0].time <= w[1].time + CKPT_EPS,
            "{what}: checkpoint time went backwards"
        );
    }
}
