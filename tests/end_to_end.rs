//! Cross-crate integration tests: full simulated training runs through
//! the public API, every strategy, both workloads.

mod common;

use rog::trainer::{report, Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};

fn base_cfg() -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Indoor,
        strategy: Strategy::Bsp,
        model_scale: ModelScale::Small,
        n_workers: 3,
        n_laptop_workers: 1,
        duration_secs: 180.0,
        eval_every: 10,
        seed: 7,
        ..ExperimentConfig::default()
    }
}

#[test]
fn every_strategy_completes_a_run() {
    for strategy in [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Flown {
            min_threshold: 2,
            max_threshold: 12,
        },
        Strategy::Rog { threshold: 4 },
    ] {
        let m = ExperimentConfig {
            strategy,
            ..base_cfg()
        }
        .options()
        .run()
        .metrics;
        assert!(
            m.mean_iterations >= 5.0,
            "{}: too few iterations ({})",
            strategy.name(),
            m.mean_iterations
        );
        assert!(
            !m.checkpoints.is_empty(),
            "{}: no checkpoints",
            strategy.name()
        );
        assert!(m.total_energy_j > 0.0);
        assert!(m.composition.total() > 0.0);
        // Checkpoints are ordered in iteration and time.
        common::assert_checkpoints_monotone_in_time(&m, &strategy.name());
    }
}

#[test]
fn identical_seeds_reproduce_bitwise() {
    for strategy in [
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
    ] {
        let cfg = ExperimentConfig {
            strategy,
            environment: Environment::Outdoor,
            ..base_cfg()
        };
        let a = cfg.options().run().metrics;
        let b = cfg.options().run().metrics;
        common::assert_identical_runs(&a, &b, &strategy.name());
    }
}

#[test]
fn different_seeds_differ() {
    let a = base_cfg().options().run().metrics;
    let b = ExperimentConfig {
        seed: 8,
        ..base_cfg()
    }
    .options()
    .run()
    .metrics;
    assert_ne!(a.checkpoints, b.checkpoints);
}

#[test]
fn crimp_error_decreases_under_training() {
    let m = ExperimentConfig {
        workload: WorkloadKind::Crimp,
        strategy: Strategy::Rog { threshold: 4 },
        duration_secs: 240.0,
        ..base_cfg()
    }
    .options()
    .run()
    .metrics;
    assert_eq!(m.metric_name, "trajectory error (m)");
    assert!(!m.metric_higher_better);
    let first = m.checkpoints.first().expect("has checkpoints").metric;
    let last = m.checkpoints.last().expect("has checkpoints").metric;
    assert!(
        last <= first,
        "mapping should not get worse: {first} -> {last}"
    );
}

#[test]
fn rog_stalls_less_than_bsp_outdoors() {
    // The headline mechanism at small scale: on an unstable channel BSP
    // loses time at the barrier; ROG adapts its transmissions.
    let bsp = ExperimentConfig {
        environment: Environment::Outdoor,
        duration_secs: 300.0,
        ..base_cfg()
    }
    .options()
    .run()
    .metrics;
    let rog = ExperimentConfig {
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        duration_secs: 300.0,
        ..base_cfg()
    }
    .options()
    .run()
    .metrics;
    assert!(
        rog.composition.stall < bsp.composition.stall,
        "ROG stall {:.2}s !< BSP stall {:.2}s",
        rog.composition.stall,
        bsp.composition.stall
    );
    assert!(
        rog.mean_iterations >= bsp.mean_iterations,
        "ROG throughput {} !>= BSP {}",
        rog.mean_iterations,
        bsp.mean_iterations
    );
}

#[test]
fn report_helpers_work_on_real_runs() {
    let m = base_cfg().options().run().metrics;
    let mid = m.duration / 2.0;
    let v = report::metric_at_time(&m, mid).expect("has checkpoints");
    assert!(v.is_finite());
    let final_metric = m.checkpoints.last().expect("non-empty").metric;
    let t = report::time_to_reach(&m, final_metric - 1e-9);
    assert!(t.is_some());
}

#[test]
fn stable_channel_has_negligible_stall_for_rog() {
    let m = ExperimentConfig {
        environment: Environment::Stable,
        strategy: Strategy::Rog { threshold: 4 },
        ..base_cfg()
    }
    .options()
    .run()
    .metrics;
    assert!(
        m.composition.stall < 0.2 * m.composition.total(),
        "stall {:.2}s of {:.2}s on a stable channel",
        m.composition.stall,
        m.composition.total()
    );
}
