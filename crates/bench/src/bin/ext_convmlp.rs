//! Extension experiment: CRUDA with the ConvMLP architecture.
//!
//! The paper's recognition model is ConvMLP (Li et al.); the default
//! harness workload is a dense MLP for calibration speed. This binary
//! runs the ConvMLP variant (convolutional stages over 12×12 image
//! inputs with smooth class templates) under BSP / SSP-4 / ROG-4 /
//! ROG-20 on the outdoor channel, verifying ROG's gains carry over to
//! the convolutional architecture: rows are now filter banks (one
//! output channel per row), but RSP/ATP are architecture-agnostic.

use rog_bench::{
    duration, final_metric, header, run_all, series_at_times, short_name, time_probes,
    write_artifact,
};
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(3600.0, 240.0);
    let strategies = [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
        Strategy::Rog { threshold: 20 },
    ];
    let configs: Vec<ExperimentConfig> = strategies
        .iter()
        .map(|&strategy| ExperimentConfig {
            workload: WorkloadKind::CrudaConv,
            environment: Environment::Outdoor,
            strategy,
            duration_secs: dur,
            ..ExperimentConfig::default()
        })
        .collect();
    let runs = run_all(&configs);

    header("ConvMLP CRUDA — time composition per iteration (s)");
    let comp = rog_trainer::report::composition_table(&runs);
    print!("{comp}");
    write_artifact("ext_convmlp_composition.csv", &comp);

    header("ConvMLP CRUDA — accuracy % vs wall-clock time (s)");
    let probes = time_probes(dur, 8);
    let a = series_at_times(&runs, &probes);
    print!("{a}");
    write_artifact("ext_convmlp_accuracy.csv", &a);

    header("Summary");
    for r in &runs {
        println!(
            "{:<8} iters {:>5.0}  stall {:>5.2}s/iter  final {:>6.2}%",
            short_name(r),
            r.mean_iterations,
            r.composition.stall,
            final_metric(r),
        );
    }
}
