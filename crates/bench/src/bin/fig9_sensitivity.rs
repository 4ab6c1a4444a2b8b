//! Figure 9: sensitivity to batch size and worker count.
//!
//! Left column: CRUDA outdoors with batch ×1 / ×2 / ×4 for BSP, SSP-4
//! and ROG-4 (FLOWN omitted, as in the paper). Right column: 4 / 6 / 8
//! workers. Panels: accuracy vs time, energy to reach a target, and
//! time composition.

use rog_bench::{
    duration, header, run_all, series_at_times, short_name, time_probes, write_artifact,
};
use rog_trainer::report;
use rog_trainer::{Environment, ExperimentConfig, RunMetrics, Strategy, WorkloadKind};

fn strategies() -> [Strategy; 3] {
    [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
    ]
}

fn tagged(mut runs: Vec<RunMetrics>, tag: &str) -> Vec<RunMetrics> {
    for r in &mut runs {
        r.name = format!("{}-{tag}", short_name(r));
    }
    runs
}

fn main() {
    let dur = duration(3600.0, 200.0);

    header("Fig. 9 left column — batch-size sensitivity (CRUDA outdoor)");
    let mut batch_runs: Vec<RunMetrics> = Vec::new();
    for &scale in &[1.0, 2.0, 4.0] {
        let configs: Vec<ExperimentConfig> = strategies()
            .iter()
            .map(|&strategy| ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Outdoor,
                strategy,
                batch_scale: scale,
                duration_secs: dur,
                ..ExperimentConfig::default()
            })
            .collect();
        batch_runs.extend(tagged(run_all(&configs), &format!("Bx{}", scale as u32)));
    }
    let probes = time_probes(dur, 8);
    let a = series_at_times(&batch_runs, &probes);
    print!("{a}");
    write_artifact("fig9a_accuracy_batch.csv", &a);
    let comp = report::composition_table(&batch_runs);
    print!("\n{comp}");
    write_artifact("fig9e_composition_batch.csv", &comp);

    header("Fig. 9 right column — worker-count sensitivity (CRUDA outdoor)");
    let mut worker_runs: Vec<RunMetrics> = Vec::new();
    for &n in &[4usize, 6, 8] {
        let configs: Vec<ExperimentConfig> = strategies()
            .iter()
            .map(|&strategy| ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Outdoor,
                strategy,
                n_workers: n,
                duration_secs: dur,
                ..ExperimentConfig::default()
            })
            .collect();
        worker_runs.extend(tagged(run_all(&configs), &format!("Nx{n}")));
    }
    let b = series_at_times(&worker_runs, &probes);
    print!("{b}");
    write_artifact("fig9b_accuracy_workers.csv", &b);
    let comp = report::composition_table(&worker_runs);
    print!("\n{comp}");
    write_artifact("fig9f_composition_workers.csv", &comp);

    header("Fig. 9c/9d — energy to reach a common accuracy");
    let mut csv = String::from("run,energy_j\n");
    let all: Vec<&RunMetrics> = batch_runs.iter().chain(worker_runs.iter()).collect();
    let common_target = all
        .iter()
        .flat_map(|r| r.checkpoints.last().map(|c| c.metric))
        .fold(f64::INFINITY, f64::min)
        - 0.5;
    for r in &all {
        let e = report::energy_to_reach(r, common_target)
            .map(|j| format!("{j:.0}"))
            .unwrap_or_else(|| "-".into());
        println!("{:<14} energy to {common_target:.1}%: {e} J", r.name);
        csv.push_str(&format!("{},{e}\n", r.name));
    }
    write_artifact("fig9cd_energy.csv", &csv);

    println!(
        "\npaper: larger batches shrink the communication share and ROG's gain \
         (5.3% gain at ×2, 3.5% at ×4); more workers deepen the straggler \
         effect and ROG's energy saving grows (48.1% at 6, 55.1% at 8)."
    );
}
