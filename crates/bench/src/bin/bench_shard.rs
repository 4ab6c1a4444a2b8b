//! Shard-scaling benchmark: runs the CRUDA-outdoor ROG workload with a
//! row-sharded parameter plane at 1, 2 and 4 shards through a clean /
//! shard-fault / bursty-loss scenario matrix and writes
//! `BENCH_shard.json`.
//!
//! Two claims are quantified:
//!
//! 1. **One shard is the old engine.** The `shards=1` clean run is
//!    byte-identical to the default (unsharded) config — the artifact
//!    records the comparison as `one_shard_identity`.
//! 2. **An outage stalls only the rows it homes.** The same shard-0
//!    outage window is injected at every shard count; at 1 shard it is
//!    a full-plane outage, at 4 shards it blocks only a quarter of the
//!    rows, so ROG stall residency at 4 shards must be strictly below
//!    the 1-shard run (`sharding_localizes_fault_stall`).
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_shard
//!         [--quick] [--seed <n>]`
//!
//! The output contains no wall-clock timings — every field is a
//! deterministic function of the config and seeds, so CI can diff two
//! runs of the same invocation byte-for-byte as a reproducibility
//! check.

use rog_bench::{
    arg_seed, cells_json, final_metric, header, identical, json_f64, run_all, write_bench_json,
    Extra, JsonCell,
};
use rog_fault::FaultPlan;
use rog_net::LossConfig;
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The scenario matrix: (label, fault plan, loss model). The outage
/// window always targets shard 0, whatever the shard count — that is
/// the point of the comparison.
fn scenarios(seed: u64, dur: f64) -> Vec<(&'static str, Option<FaultPlan>, Option<LossConfig>)> {
    let outage = FaultPlan::new().server_restart_on(0, dur * 0.30, dur * 0.55);
    vec![
        ("clean", None, None),
        ("shard0-outage", Some(outage), None),
        ("ge-10", None, Some(LossConfig::gilbert_elliott(seed, 0.10))),
    ]
}

fn main() {
    let quick = rog_bench::quick();
    let dur = if quick { 120.0 } else { 600.0 };
    let seed = arg_seed();
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        duration_secs: dur,
        eval_every: 10,
        seed,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Shard scaling: CRUDA outdoor, {dur:.0} virtual s, seed {seed}, shards {SHARD_COUNTS:?}"
    ));

    let matrix = scenarios(seed, dur);
    let mut labels: Vec<(String, usize)> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for (scenario, plan, loss) in &matrix {
        for &shards in &SHARD_COUNTS {
            labels.push(((*scenario).to_owned(), shards));
            configs.push(ExperimentConfig {
                n_shards: shards,
                fault_plan: plan.clone(),
                loss: loss.clone(),
                ..base.clone()
            });
        }
    }
    // The identity control: the default config never mentions shards at
    // all, so comparing it against the explicit `shards=1` clean cell
    // demonstrates the sharded plane reduces to the old engine.
    configs.push(base.clone());
    let mut runs = run_all(&configs);
    let unsharded = runs.pop().expect("identity control run");
    let one_shard_clean = &runs[0];
    let one_shard_identity = identical(one_shard_clean, &unsharded);

    println!(
        "{:<14} {:>7} {:>8} {:>10} {:>12} {:>10}",
        "scenario", "shards", "iters", "stall(s)", "lost(B)", "metric"
    );
    for ((scenario, shards), r) in labels.iter().zip(&runs) {
        println!(
            "{scenario:<14} {shards:>7} {:>8.1} {:>10.1} {:>12.0} {:>10.2}",
            r.mean_iterations,
            r.stall_secs + 0.0,
            r.lost_bytes,
            final_metric(r),
        );
    }

    let stall_at = |scenario: &str, shards: usize| -> f64 {
        labels
            .iter()
            .zip(&runs)
            .find(|((s, n), _)| s == scenario && *n == shards)
            .map(|(_, r)| r.stall_secs)
            .expect("cell exists")
    };
    let stall_1 = stall_at("shard0-outage", 1);
    let stall_4 = stall_at("shard0-outage", 4);
    let localized = stall_4 < stall_1;
    println!(
        "\nshard-0 outage stall residency: 1 shard {stall_1:.1}s vs 4 shards {stall_4:.1}s \
         ({})",
        if localized {
            "sharding localizes the outage"
        } else {
            "NOT localized — regression"
        }
    );
    println!(
        "one-shard identity vs unsharded default: {}",
        if one_shard_identity { "ok" } else { "MISMATCH" }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"shard_scaling_cruda_outdoor\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"one_shard_identity\": {one_shard_identity},\n"
    ));
    json.push_str(&format!(
        "  \"shard_fault_stall_secs\": {{\"1\": {}, \"4\": {}}},\n",
        json_f64(stall_1),
        json_f64(stall_4)
    ));
    json.push_str(&format!(
        "  \"sharding_localizes_fault_stall\": {localized},\n"
    ));
    json.push_str("  \"cells\": [\n");
    let cells: Vec<JsonCell> = labels
        .iter()
        .zip(&runs)
        .map(|((scenario, shards), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .raw("shards", shards)
                .metrics(r, &[Extra::LostBytes, Extra::AccuracyVsTime])
        })
        .collect();
    json.push_str(&cells_json(&cells));
    json.push_str("\n  ]\n}\n");
    write_bench_json("shard", &json);

    assert!(
        one_shard_identity,
        "shards=1 must be byte-identical to the unsharded engine"
    );
    assert!(
        localized,
        "4-shard stall under a shard-0 outage must be below the 1-shard full-plane outage \
         ({stall_4:.1}s vs {stall_1:.1}s)"
    );
}
