//! Figure 10: ROG under a wider range of staleness thresholds
//! (4 / 20 / 30 / 40), CRUDA outdoors.
//!
//! The paper's reading: large thresholds buy early training speed
//! (higher throughput) but degrade late statistical efficiency, so the
//! final accuracy is slightly lower — the threshold trades training
//! speed against final quality.

use rog_bench::{
    duration, final_metric, header, iteration_probes, run_all, series_at_iterations,
    series_at_times, short_name, time_probes, write_artifact,
};
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(7200.0, 240.0);
    let configs: Vec<ExperimentConfig> = [4u32, 20, 30, 40]
        .iter()
        .map(|&threshold| ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Outdoor,
            strategy: Strategy::Rog { threshold },
            duration_secs: dur,
            ..ExperimentConfig::default()
        })
        .collect();
    let runs = run_all(&configs);

    header("Fig. 10a — accuracy % vs wall-clock time (s)");
    let a = series_at_times(&runs, &time_probes(dur, 12));
    print!("{a}");
    write_artifact("fig10a_accuracy_vs_time.csv", &a);

    header("Fig. 10b — statistical efficiency (accuracy % vs iteration)");
    let b = series_at_iterations(&runs, &iteration_probes(&runs));
    print!("{b}");
    write_artifact("fig10b_statistical_efficiency.csv", &b);

    header("Throughput vs final quality");
    for r in &runs {
        println!(
            "{:<8} iterations {:>6.0}  final accuracy {:>6.2}%",
            short_name(r),
            r.mean_iterations,
            final_metric(r),
        );
    }
    println!(
        "\npaper: thresholds 30/40 train faster early but end slightly below \
         ROG-4/20 — pick the threshold by whether speed or final quality \
         matters (automatic selection left as future work)."
    );
}
