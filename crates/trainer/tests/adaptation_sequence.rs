//! DSSP and ABS move the model engine's gate bound from per-round
//! measurements on the virtual clock: the journaled `threshold_adapt`
//! sequence of a (config, seed) pair must leave its starting bound and
//! repeat run to run.

use rog_trainer::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};

fn cfg(strategy: Strategy) -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy,
        model_scale: ModelScale::Small,
        n_workers: 3,
        n_laptop_workers: 0,
        duration_secs: 240.0,
        eval_every: 5,
        seed: 7,
        ..ExperimentConfig::default()
    }
}

/// The `threshold_adapt` lines of one traced run of `cfg`.
fn adaptations(cfg: &ExperimentConfig) -> Vec<String> {
    let journal = cfg.options().traced(true).run().journal;
    let jsonl = journal.expect("traced run has a journal").to_jsonl();
    jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"threshold_adapt\""))
        .map(str::to_owned)
        .collect()
}

#[test]
fn adaptive_bounds_journal_one_adaptation_sequence() {
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
        let c = cfg(strategy);
        let first = adaptations(&c);
        assert!(
            first.len() > c.n_workers,
            "{}: the bound never moved off its start: {first:?}",
            c.name()
        );
        assert_eq!(first, adaptations(&c), "{}: rerun differs", c.name());
    }
}
