//! Importance-metric ablation: what do ATP's two terms buy?
//!
//! Runs ROG-4 on CRUDA outdoors with the full metric
//! (`f1·magnitude + f2·staleness`), magnitude-only (`f2 = 0`),
//! staleness-only (`f1 = 0`), and neither (round-robin by row id).
//! The paper's claim (Sec. VI-A): prioritizing large-magnitude rows is
//! what keeps partial synchronization statistically efficient, while
//! the staleness term keeps stale pushed rows from tripping the RSP
//! gate.

use rog_bench::{
    duration, final_metric, header, run_all, series_at_times, time_probes, write_artifact,
};
use rog_trainer::report;
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(3600.0, 240.0);
    let variants: [(&str, (f64, f64)); 4] = [
        ("full", (1.0, 1.0)),
        ("magnitude-only", (1.0, 0.0)),
        ("staleness-only", (0.0, 1.0)),
        ("round-robin", (0.0, 0.0)),
    ];
    let configs: Vec<ExperimentConfig> = variants
        .iter()
        .map(|&(_, w)| ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Outdoor,
            strategy: Strategy::Rog { threshold: 4 },
            duration_secs: dur,
            importance_weights: Some(w),
            ..ExperimentConfig::default()
        })
        .collect();
    let mut runs = run_all(&configs);
    for (r, (name, _)) in runs.iter_mut().zip(&variants) {
        r.name = format!("ROG-4[{name}]");
    }

    header("Importance ablation — accuracy % vs wall-clock time (s)");
    let probes = time_probes(dur, 8);
    let a = series_at_times(&runs, &probes);
    print!("{a}");
    write_artifact("ablation_importance.csv", &a);

    header("Summary");
    for r in &runs {
        println!(
            "{:<24} iters {:>5.0}  stall {:>5.2}s/iter  final {:>6.2}%  acc@{dur:.0}s {:>6.2}%",
            r.name,
            r.mean_iterations,
            r.composition.stall,
            final_metric(r),
            report::metric_at_time(r, dur).unwrap_or(f64::NAN),
        );
    }
}
