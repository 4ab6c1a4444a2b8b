//! The `shards=1` byte-identity regression gate: a run that routes the
//! parameter plane through an explicit single-shard [`ShardMap`] must
//! be indistinguishable — metrics, serialized reports *and* the event
//! journal — from the pre-shard engine (the default config), for every
//! strategy in the shared scenario matrix. Sharded (>1) ROG runs must
//! additionally repeat run to run, and non-ROG strategies must ignore
//! the shard count entirely.

mod common;

use common::{assert_identical_runs, scenario_matrix};
use rog::prelude::*;

fn traced(cfg: &ExperimentConfig) -> (RunMetrics, String) {
    let out = cfg.options().traced(true).run();
    (out.metrics, out.journal.expect("traced run").to_jsonl())
}

#[test]
fn one_shard_is_byte_identical_to_the_unsharded_engine() {
    for (name, cfg) in scenario_matrix() {
        let sharded_cfg = ExperimentConfig {
            n_shards: 1,
            ..cfg.clone()
        };
        let (base, base_journal) = traced(&cfg);
        let (one, one_journal) = traced(&sharded_cfg);
        assert_identical_runs(&base, &one, name);
        assert_eq!(
            base_journal, one_journal,
            "{name}: journal differs under an explicit 1-shard map"
        );
    }
}

#[test]
fn sharded_runs_are_deterministic() {
    for shards in [2usize, 4] {
        let mut cfg = scenario_matrix()
            .into_iter()
            .find(|(name, _)| *name == "rog4")
            .expect("matrix has rog4")
            .1;
        cfg.n_shards = shards;
        let (first, first_journal) = traced(&cfg);
        let (again, again_journal) = traced(&cfg);
        assert!(
            first.name.contains(&format!("+shard{shards}")),
            "{}",
            first.name
        );
        assert_identical_runs(&first, &again, &format!("{shards} shards, replay"));
        assert_eq!(
            first_journal, again_journal,
            "{shards} shards: replay journal"
        );
    }
}

#[test]
fn non_rog_strategies_ignore_the_shard_count() {
    for (name, cfg) in scenario_matrix() {
        if cfg.strategy.is_row_granular() {
            continue;
        }
        let (base, base_journal) = traced(&cfg);
        let sharded = ExperimentConfig {
            n_shards: 4,
            ..cfg.clone()
        };
        let (m, journal) = traced(&sharded);
        assert_eq!(
            base.name, m.name,
            "{name}: name must not grow a shard marker"
        );
        assert_identical_runs(&base, &m, &format!("{name} with ignored n_shards=4"));
        assert_eq!(base_journal, journal, "{name}: journal");
    }
}
