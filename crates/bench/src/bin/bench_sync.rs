//! Sync-model shootout: runs every synchronization strategy the
//! trainer knows — BSP, SSP, ASP, FLOWN, DSSP, ABS, static ROG and the
//! adaptive-bound ROG hybrid — through a clean / bursty-loss /
//! worker-churn / outdoor scenario matrix and writes `BENCH_sync.json`.
//!
//! The artifact ranks the models per scenario by mean iterations
//! completed, so a regression in any one model's throughput (or an
//! adaptation controller that stops adapting) shows up as a rank flip
//! in review.
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_sync
//!         [--quick] [--seed <n>]`
//!
//! The output contains no wall-clock timings — every field is a
//! deterministic function of the config and seeds, so CI can diff two
//! runs of the same invocation byte-for-byte as a reproducibility
//! check (and does).

use rog_bench::{
    arg_seed, cells_json, final_metric, header, run_all, write_bench_json, Extra, JsonCell,
};
use rog_fault::FaultPlan;
use rog_net::LossConfig;
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

/// The six-model spectrum plus the adaptive-bound hybrid. Bound ranges
/// are part of the run name (`DSSP-1..8`), so every row of the matrix
/// is distinguishable in the artifact.
const MODELS: [Strategy; 8] = [
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
    Strategy::Rog { threshold: 4 },
    Strategy::RogAdaptive {
        min_threshold: 1,
        max_threshold: 8,
    },
];

/// The scenario matrix: (label, environment, fault plan, loss model).
fn scenarios(
    seed: u64,
    dur: f64,
) -> Vec<(
    &'static str,
    Environment,
    Option<FaultPlan>,
    Option<LossConfig>,
)> {
    let churn = FaultPlan::new().worker_offline(1, dur * 0.30, dur * 0.55);
    vec![
        ("clean", Environment::Stable, None, None),
        (
            "ge-10",
            Environment::Stable,
            None,
            Some(LossConfig::gilbert_elliott(seed, 0.10)),
        ),
        ("churn", Environment::Stable, Some(churn), None),
        ("outdoor", Environment::Outdoor, None, None),
    ]
}

fn main() {
    let quick = rog_bench::quick();
    let dur = if quick { 120.0 } else { 600.0 };
    let seed = arg_seed();
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        duration_secs: dur,
        eval_every: 10,
        seed,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Sync-model shootout: CRUDA, {dur:.0} virtual s, seed {seed}, {} models",
        MODELS.len()
    ));

    // Every (scenario, model) cell must carry a distinct run name:
    // adaptive models encode their bound ranges, so a DSSP-1..8 row can
    // never be mistaken for an ABS-1..8 one (or a second DSSP range).
    let names: Vec<String> = MODELS.iter().map(|m| m.name()).collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        MODELS.len(),
        "sync-model names must be distinct: {names:?}"
    );

    let matrix = scenarios(seed, dur);
    let mut labels: Vec<(String, String)> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for (scenario, env, plan, loss) in &matrix {
        for model in &MODELS {
            labels.push(((*scenario).to_owned(), model.name()));
            configs.push(ExperimentConfig {
                environment: *env,
                strategy: *model,
                fault_plan: plan.clone(),
                loss: loss.clone(),
                ..base.clone()
            });
        }
    }
    let runs = run_all(&configs);

    println!(
        "{:<10} {:<12} {:>8} {:>10} {:>12} {:>10}",
        "scenario", "model", "iters", "stall(s)", "lost(B)", "metric"
    );
    for ((scenario, model), r) in labels.iter().zip(&runs) {
        println!(
            "{scenario:<10} {model:<12} {:>8.1} {:>10.1} {:>12.0} {:>10.2}",
            r.mean_iterations,
            r.stall_secs + 0.0,
            r.lost_bytes,
            final_metric(r),
        );
    }

    // Per-scenario throughput ranking (descending mean iterations; ties
    // broken by model order, which is deterministic).
    let mut rankings: Vec<(String, Vec<String>)> = Vec::new();
    for (scenario, _, _, _) in &matrix {
        let mut cells: Vec<(&String, f64)> = labels
            .iter()
            .zip(&runs)
            .filter(|((s, _), _)| s == scenario)
            .map(|((_, m), r)| (m, r.mean_iterations))
            .collect();
        cells.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite iteration counts"));
        rankings.push((
            (*scenario).to_owned(),
            cells.into_iter().map(|(m, _)| m.clone()).collect(),
        ));
    }
    for (scenario, order) in &rankings {
        println!("{scenario}: {}", order.join(" > "));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sync_model_shootout_cruda\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"models\": [{}],\n",
        names
            .iter()
            .map(|n| format!("{n:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"rankings\": {\n");
    let rank_rows: Vec<String> = rankings
        .iter()
        .map(|(scenario, order)| {
            format!(
                "    {scenario:?}: [{}]",
                order
                    .iter()
                    .map(|m| format!("{m:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    json.push_str(&rank_rows.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str("  \"cells\": [\n");
    let cells: Vec<JsonCell> = labels
        .iter()
        .zip(&runs)
        .map(|((scenario, model), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .text("model", model)
                .metrics(r, &[Extra::LostBytes, Extra::OfflineSecs])
        })
        .collect();
    json.push_str(&cells_json(&cells));
    json.push_str("\n  ]\n}\n");
    write_bench_json("sync", &json);
}
