//! Fault-matrix robustness benchmark: runs the CRUDA-outdoor workload
//! through a matrix of injected fault scenarios (fault-free baseline,
//! seeded worker churn, link blackouts, a server checkpoint/restart)
//! and writes `BENCH_fault.json` with accuracy-vs-virtual-time curves
//! plus stall/offline residency per scenario. A BSP-under-churn row
//! quantifies the paper's robustness argument: static-membership BSP
//! blocks for the whole outage, while ROG's dynamic membership keeps
//! the survivors training.
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_fault
//!         [--quick] [--seed <n>]`
//!
//! The output contains no wall-clock timings — every field is a
//! deterministic function of the config and seeds, so CI can diff two
//! runs of the same invocation byte-for-byte as a reproducibility
//! check.

use rog_bench::{
    arg_seed, cells_json, final_metric, header, run_all, write_bench_json, Extra, JsonCell,
};
use rog_fault::{ChurnProfile, FaultPlan};
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

/// Churn profile tuned so even `--quick` runs see real departures
/// (default means target multi-hour traces).
fn churn_profile() -> ChurnProfile {
    ChurnProfile {
        mean_up_secs: 60.0,
        mean_down_secs: 20.0,
        min_up_secs: 15.0,
        min_down_secs: 8.0,
        keep_first_online: true,
    }
}

fn scenario_plans(seed: u64, n_workers: usize, dur: f64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::new()),
        (
            "churn",
            FaultPlan::seeded_churn(seed, n_workers, dur, &churn_profile()),
        ),
        (
            "blackout",
            FaultPlan::new()
                .link_blackout(1, 0.20 * dur, 0.20 * dur + 12.0)
                .link_blackout(2, 0.50 * dur, 0.50 * dur + 15.0)
                .link_blackout(3, 0.70 * dur, 0.70 * dur + 10.0),
        ),
        (
            "server-restart",
            FaultPlan::new().server_restart(0.40 * dur, 0.40 * dur + 8.0),
        ),
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
        // Frequent checkpoints: quick runs complete only ~25
        // iterations, and the accuracy-vs-time curve is the point.
        eval_every: 10,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Fault matrix: CRUDA outdoor, {dur:.0} virtual s, fault seed {seed}"
    ));
    let plans = scenario_plans(seed, base.n_workers, dur);
    let mut configs: Vec<(String, ExperimentConfig)> = plans
        .iter()
        .map(|(scenario, plan)| {
            (
                (*scenario).to_owned(),
                ExperimentConfig {
                    fault_plan: Some(plan.clone()),
                    ..base.clone()
                },
            )
        })
        .collect();
    // The robustness contrast: BSP under the identical churn plan. Its
    // static membership means every departure blocks the whole cluster.
    configs.push((
        "bsp-churn".to_owned(),
        ExperimentConfig {
            strategy: Strategy::Bsp,
            fault_plan: Some(plans[1].1.clone()),
            ..base.clone()
        },
    ));

    let runs = run_all(
        &configs
            .iter()
            .map(|(_, c)| c.clone())
            .collect::<Vec<ExperimentConfig>>(),
    );

    println!(
        "{:<15} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "scenario", "iters", "stall(s)", "offline(s)", "metric", "wasted(B)"
    );
    for ((scenario, _), r) in configs.iter().zip(&runs) {
        println!(
            "{scenario:<15} {:>8.1} {:>10.1} {:>10.1} {:>10.2} {:>12.0}",
            r.mean_iterations,
            r.stall_secs + 0.0,
            r.offline_secs + 0.0,
            final_metric(r),
            r.wasted_bytes
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fault_matrix_cruda_outdoor\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"fault_seed\": {seed},\n"));
    json.push_str("  \"scenarios\": [\n");
    let cells: Vec<JsonCell> = configs
        .iter()
        .zip(&runs)
        .map(|((scenario, _), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .metrics(r, &[Extra::OfflineSecs, Extra::AccuracyVsTime])
        })
        .collect();
    json.push_str(&cells_json(&cells));
    json.push_str("\n  ]\n}\n");
    write_bench_json("fault", &json);
}
