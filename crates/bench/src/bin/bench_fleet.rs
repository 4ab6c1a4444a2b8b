//! Fleet-scale benchmark: runs the CRUDA-outdoor ROG workload at
//! hundreds of workers, flat and through an edge-aggregator tier, and
//! writes `BENCH_fleet.json`.
//!
//! Two claims are quantified:
//!
//! 1. **The engine sustains fleet-scale worker counts.** Every cell
//!    reports simulation progress as *sim-events per virtual second*
//!    and the peak heap footprint of the sharded version store — both
//!    deterministic functions of the config and seed, so the artifact
//!    carries no wall-clock numbers and CI can byte-diff two runs of
//!    the same invocation as a reproducibility check.
//! 2. **Aggregation compresses upstream traffic.** Hierarchical cells
//!    record merged vs raw row counts; the merge ratio must be ≤ 1.
//!
//! Every cell is run twice and the two outcomes are asserted
//! byte-identical (`double_run_identity`).
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_fleet
//!         [--quick] [--seed <n>]`

use rog_bench::{
    arg_seed, cells_json, header, identical, run_outcomes, write_bench_json, JsonCell,
};
use rog_trainer::{Environment, ExperimentConfig, RunOutcome, Strategy, WorkloadKind};

const N_SHARDS: usize = 4;

fn main() {
    let quick = rog_bench::quick();
    let dur = if quick { 30.0 } else { 120.0 };
    let fleet_sizes: &[usize] = if quick { &[16, 64] } else { &[64, 256] };
    let agg_counts: &[usize] = &[0, 8];
    let seed = arg_seed();
    // Paper-scale dataset: a fleet larger than the Small dataset's 150
    // samples could not give every worker a non-empty data shard.
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        model_scale: rog_trainer::ModelScale::Paper,
        n_shards: N_SHARDS,
        duration_secs: dur,
        eval_every: 20,
        seed,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Fleet scaling: CRUDA outdoor, {dur:.0} virtual s, seed {seed}, \
         workers {fleet_sizes:?}, shards {N_SHARDS}, aggregators {agg_counts:?}"
    ));

    let mut labels: Vec<(usize, usize)> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for &workers in fleet_sizes {
        for &aggs in agg_counts {
            labels.push((workers, aggs));
            // Every cell twice: the pair must be byte-identical.
            for _ in 0..2 {
                configs.push(ExperimentConfig {
                    n_workers: workers,
                    n_aggregators: aggs,
                    ..base.clone()
                });
            }
        }
    }
    let outcomes = run_outcomes(&configs);
    let mut cells: Vec<RunOutcome> = Vec::new();
    let mut double_run_identity = true;
    for pair in outcomes.chunks(2) {
        double_run_identity &=
            pair[0].stats == pair[1].stats && identical(&pair[0].metrics, &pair[1].metrics);
        cells.push(pair[0].clone());
    }

    println!(
        "{:>8} {:>5} {:>12} {:>14} {:>12} {:>12} {:>8}",
        "workers", "aggs", "sim_events", "ev/virt_sec", "peak_ver_B", "agg_rows", "iters"
    );
    for ((workers, aggs), out) in labels.iter().zip(&cells) {
        let st = &out.stats;
        println!(
            "{workers:>8} {aggs:>5} {:>12} {:>14.0} {:>12} {:>12} {:>8.1}",
            st.sim_events,
            st.sim_events as f64 / dur,
            st.peak_version_bytes,
            st.agg_upstream_rows,
            out.metrics.mean_iterations,
        );
    }

    // Aggregation must never *expand* upstream traffic: merged rows are
    // a dedup of the raw member rows absorbed in each window.
    let merge_ok = cells
        .iter()
        .all(|o| o.stats.agg_upstream_rows <= o.stats.agg_raw_rows);
    println!(
        "\ndouble-run identity: {}",
        if double_run_identity {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fleet_scaling_cruda_outdoor\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"shards\": {N_SHARDS},\n"));
    json.push_str(&format!(
        "  \"double_run_identity\": {double_run_identity},\n"
    ));
    json.push_str(&format!("  \"merge_never_expands\": {merge_ok},\n"));
    json.push_str("  \"cells\": [\n");
    let rows: Vec<JsonCell> = labels
        .iter()
        .zip(&cells)
        .map(|((workers, aggs), out)| {
            let (m, st) = (&out.metrics, &out.stats);
            JsonCell::new()
                .raw("workers", workers)
                .raw("aggregators", aggs)
                .text("name", &m.name)
                .raw("sim_events", st.sim_events)
                .num("sim_events_per_virtual_sec", st.sim_events as f64 / dur)
                .raw("queue_scheduled", st.queue_scheduled)
                .raw("peak_version_bytes", st.peak_version_bytes)
                .raw("agg_flushes", st.agg_flushes)
                .raw("agg_upstream_rows", st.agg_upstream_rows)
                .raw("agg_raw_rows", st.agg_raw_rows)
                .raw("agg_pulls", st.agg_pulls)
                .num("mean_iterations", m.mean_iterations)
                .num("stall_secs", m.stall_secs)
        })
        .collect();
    json.push_str(&cells_json(&rows));
    json.push_str("\n  ]\n}\n");
    write_bench_json("fleet", &json);

    assert!(
        double_run_identity,
        "every fleet cell must be byte-identical across two runs of the same config"
    );
    assert!(
        merge_ok,
        "aggregator merge windows must not forward more rows than they absorbed"
    );
}
