//! The compute plane must be invisible: a run with the plane forced to
//! one thread is bit-identical to the same run with several threads,
//! for both workloads and for all synchronization strategies — results
//! depend only on the seed, never on the host's parallelism.

use rog_trainer::compute;
use rog_trainer::{Environment, ExperimentConfig, ModelScale, RunMetrics, Strategy, WorkloadKind};

fn cfg(workload: WorkloadKind, strategy: Strategy, pipeline: bool) -> ExperimentConfig {
    ExperimentConfig {
        workload,
        environment: Environment::Outdoor,
        strategy,
        model_scale: ModelScale::Small,
        n_workers: 3,
        n_laptop_workers: 0,
        duration_secs: 45.0,
        eval_every: 5,
        seed: 7,
        pipeline,
        ..ExperimentConfig::default()
    }
}

fn run_with_threads(cfg: &ExperimentConfig, threads: usize) -> RunMetrics {
    compute::set_thread_override(Some(threads));
    let m = cfg.options().run().metrics;
    compute::set_thread_override(None);
    m
}

fn assert_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert_eq!(a.checkpoints, b.checkpoints, "checkpoints differ: {what}");
    assert_eq!(
        a.mean_iterations, b.mean_iterations,
        "iterations differ: {what}"
    );
    assert_eq!(a.total_energy_j, b.total_energy_j, "energy differs: {what}");
    assert_eq!(
        a.final_model_divergence, b.final_model_divergence,
        "divergence differs: {what}"
    );
    assert_eq!(a.useful_bytes, b.useful_bytes, "bytes differ: {what}");
}

#[test]
fn parallel_plane_is_bit_identical_to_serial() {
    let strategies = [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
    ];
    for workload in [WorkloadKind::Cruda, WorkloadKind::Crimp] {
        for strategy in strategies {
            let c = cfg(workload, strategy, false);
            let serial = run_with_threads(&c, 1);
            let parallel = run_with_threads(&c, 4);
            assert_identical(&serial, &parallel, &serial.name);
        }
    }
}

#[test]
fn pipelined_rog_is_bit_identical_to_serial() {
    // Pipeline mode overlaps pulls with in-flight computes, exercising
    // the prefetch-invalidation path.
    let c = cfg(WorkloadKind::Cruda, Strategy::Rog { threshold: 4 }, true);
    let serial = run_with_threads(&c, 1);
    let parallel = run_with_threads(&c, 4);
    assert_identical(&serial, &parallel, &serial.name);
}

/// The `threshold_adapt` lines of one traced run of `cfg` at a forced
/// compute-plane width.
fn adaptations(cfg: &ExperimentConfig, threads: usize) -> Vec<String> {
    compute::set_thread_override(Some(threads));
    let journal = cfg.options().traced(true).run().journal;
    compute::set_thread_override(None);
    let jsonl = journal.expect("traced run has a journal").to_jsonl();
    jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"threshold_adapt\""))
        .map(str::to_owned)
        .collect()
}

#[test]
fn adaptive_bounds_journal_one_adaptation_sequence() {
    // DSSP and ABS move the model engine's gate bound from per-round
    // measurements on the virtual clock; the journaled sequence must
    // repeat run to run and not depend on the compute plane's width.
    for strategy in [
        Strategy::Dssp {
            min_threshold: 1,
            max_threshold: 8,
        },
        Strategy::Abs {
            min_threshold: 1,
            max_threshold: 8,
        },
    ] {
        let c = ExperimentConfig {
            duration_secs: 240.0,
            ..cfg(WorkloadKind::Cruda, strategy, false)
        };
        let serial = adaptations(&c, 1);
        assert!(
            serial.len() > c.n_workers,
            "{}: the bound never moved off its start: {serial:?}",
            c.name()
        );
        assert_eq!(serial, adaptations(&c, 1), "{}: rerun differs", c.name());
        assert_eq!(serial, adaptations(&c, 4), "{}: width differs", c.name());
    }
}
