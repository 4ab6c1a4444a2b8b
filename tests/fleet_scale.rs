//! Fleet-scale regression gates: the edge-aggregator tier must be
//! observationally inert (a hierarchical run is byte-identical to the
//! flat run once its extra accounting records are stripped), 256-worker
//! runs must be deterministic, and aggregator outages must be
//! deterministic and actually stall the members they sever.

mod common;

use common::{assert_identical_runs, fleet_cluster_cfg, scenario_matrix};
use rog::fuzz::flat_twin_journal;
use rog::prelude::*;

fn traced(cfg: &ExperimentConfig) -> RunOutcome {
    cfg.options().traced(true).run()
}

/// The aggregator tier is pure accounting: for every ROG scenario in
/// the shared matrix, a hierarchical run reproduces the flat run's
/// metrics bit-for-bit and its journal byte-for-byte once the
/// aggregator records are stripped.
#[test]
fn hierarchical_topology_is_observationally_inert() {
    for (name, cfg) in scenario_matrix() {
        if !cfg.strategy.is_row_granular() {
            continue;
        }
        let flat = traced(&cfg);
        for aggs in [1usize, 2] {
            let hier = traced(&ExperimentConfig {
                n_aggregators: aggs,
                ..cfg.clone()
            });
            let what = format!("{name} @ {aggs} aggregators");
            assert!(
                hier.metrics.name.contains(&format!("+agg{aggs}")),
                "hierarchical run is not labeled: {what}"
            );
            // Every metric but the name, which carries `+agg{n}`.
            let diffs = flat.metrics.differences(&hier.metrics);
            assert_eq!(diffs, Vec::<String>::new(), "{what}");
            assert!(
                hier.stats.agg_flushes > 0,
                "no merge windows flushed: {what}"
            );
            assert!(
                hier.stats.agg_upstream_rows <= hier.stats.agg_raw_rows,
                "merge expanded traffic: {what}"
            );
            let flat_j = flat.journal.as_ref().expect("traced").to_jsonl();
            let hier_j = hier.journal.as_ref().expect("traced").to_jsonl();
            assert_eq!(
                flat_twin_journal(&flat_j, aggs),
                flat_twin_journal(&hier_j, aggs),
                "journal differs beyond aggregator records: {what}"
            );
        }
    }
}

/// A 256-worker, 4-shard, 8-aggregator run is a pure function of its
/// config: byte-identical when re-run.
#[test]
fn fleet_256_is_deterministic() {
    let cfg = ExperimentConfig {
        n_aggregators: 8,
        ..fleet_cluster_cfg(256, 4)
    };
    let base = traced(&cfg);
    let base_journal = base.journal.as_ref().expect("traced").to_jsonl();
    assert!(base.stats.sim_events > 0, "run made no progress");
    assert!(base.stats.peak_version_bytes > 0);
    let again = traced(&cfg);
    assert_eq!(base.stats, again.stats, "fleet stats differ on replay");
    assert_identical_runs(&base.metrics, &again.metrics, "256 workers, replay");
    assert_eq!(
        base_journal,
        again.journal.as_ref().expect("traced").to_jsonl(),
        "journal differs on replay"
    );
}

/// An aggregator outage stalls exactly its members, deterministically:
/// two runs of the same faulted config are byte-identical, the journal
/// records the `agg_down`/`agg_up` edges, and the outage costs strictly
/// more stall time than the clean run.
#[test]
fn aggregator_outage_is_deterministic_and_stalls_members() {
    let clean = ExperimentConfig {
        n_aggregators: 2,
        duration_secs: 60.0,
        ..fleet_cluster_cfg(8, 2)
    };
    let faulted = ExperimentConfig {
        fault_plan: Some(FaultPlan::new().aggregator_outage(0, 10.0, 40.0)),
        ..clean.clone()
    };
    let a = traced(&faulted);
    let b = traced(&faulted);
    assert_eq!(a.stats, b.stats, "faulted run not deterministic");
    let a_j = a.journal.as_ref().expect("traced").to_jsonl();
    assert_eq!(
        a_j,
        b.journal.as_ref().expect("traced").to_jsonl(),
        "faulted journal not deterministic"
    );
    assert!(
        a_j.contains("\"kind\":\"agg_down\"") && a_j.contains("\"kind\":\"agg_up\""),
        "journal is missing the aggregator fault edges"
    );
    let base = traced(&clean);
    assert!(
        a.metrics.stall_secs > base.metrics.stall_secs,
        "a 30 s aggregator outage must add stall time ({} vs {})",
        a.metrics.stall_secs,
        base.metrics.stall_secs
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random small topologies: hierarchical ≡ flat for any
        /// (workers, aggregators, threshold, seed) draw.
        #[test]
        fn hierarchical_matches_flat_on_random_topologies(
            raw in (2usize..6, 1usize..6, 2u32..8, 0u64..1000)
        ) {
            let (workers, raw_aggs, threshold, seed) = raw;
            let aggs = 1 + raw_aggs % workers; // 1..=workers
            let flat = ExperimentConfig {
                // `proptest::prelude` also exports a `Strategy` trait,
                // so the config enum needs its full path here.
                strategy: rog::prelude::Strategy::Rog { threshold },
                seed,
                duration_secs: 20.0,
                ..fleet_cluster_cfg(workers, 2)
            };
            let hier = ExperimentConfig {
                n_aggregators: aggs,
                ..flat.clone()
            };
            let f = flat.options().run();
            let h = hier.options().run();
            let what = format!("w={workers} a={aggs} t={threshold} seed={seed}");
            prop_assert_eq!(f.metrics.differences(&h.metrics), Vec::<String>::new(), "{}", what);
            prop_assert_eq!(f.stats.sim_events, h.stats.sim_events);
            prop_assert_eq!(f.stats.queue_scheduled, h.stats.queue_scheduled);
            prop_assert_eq!(f.stats.peak_version_bytes, h.stats.peak_version_bytes);
        }
    }
}
