//! Multi-seed confidence for the headline comparison.
//!
//! Runs BSP, SSP-4 and ROG-4 on CRUDA outdoors under several seeds
//! (different channel realizations, data draws and jitter) and reports
//! mean ± std of throughput, stall and accuracy-at-time — the
//! robustness check a physical testbed cannot afford (paper runs each
//! configuration once).

use rog_bench::{duration, header, run_all, write_artifact};
use rog_trainer::{stats, Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(1800.0, 180.0);
    let seeds: Vec<u64> = (1..=5).map(|k| 0x5EED + k).collect();
    header(&format!(
        "Seed sweep — CRUDA outdoors, {} seeds, {:.0}s each",
        seeds.len(),
        dur
    ));
    let mut csv =
        String::from("system,iters_mean,iters_std,stall_mean,stall_std,acc_mean,acc_std\n");
    let mut rog_acc = f64::NAN;
    let mut base_acc = f64::NEG_INFINITY;
    for strategy in [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
        Strategy::Rog { threshold: 20 },
    ] {
        let configs: Vec<ExperimentConfig> = seeds
            .iter()
            .map(|&seed| ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Outdoor,
                strategy,
                duration_secs: dur,
                seed,
                ..ExperimentConfig::default()
            })
            .collect();
        let runs = run_all(&configs);
        let iters = stats::iterations(&runs);
        let stall = stats::stall(&runs);
        let acc = stats::metric_at_time(&runs, dur);
        println!(
            "{:<8} iterations {iters}   stall(s/iter) {stall}   accuracy@{dur:.0}s {acc}",
            strategy.name()
        );
        csv.push_str(&format!(
            "{},{:.2},{:.2},{:.3},{:.3},{:.2},{:.2}\n",
            strategy.name(),
            iters.mean,
            iters.std,
            stall.mean,
            stall.std,
            acc.mean,
            acc.std
        ));
        if strategy.name().starts_with("ROG") {
            if rog_acc.is_nan() || acc.mean > rog_acc {
                rog_acc = acc.mean;
            }
        } else if acc.mean > base_acc {
            base_acc = acc.mean;
        }
    }
    write_artifact("seeds_sweep.csv", &csv);
    println!(
        "\nacross seeds, best ROG beats the best baseline by {:+.2} accuracy \
         points on average",
        rog_acc - base_acc
    );
}
