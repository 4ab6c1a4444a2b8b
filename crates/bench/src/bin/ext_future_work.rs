//! Extension experiments: the paper's future-work items, implemented.
//!
//! * **Pipelining communication and computation** (Sec. VI-D, after
//!   Pipe-SGD): the worker keeps computing while its push/pull cycle
//!   runs concurrently, bounded by the staleness threshold.
//! * **Automatic threshold selection** (Sec. VI-C): a hysteresis
//!   controller widens the RSP threshold when the cluster stalls and
//!   narrows it when the channel is calm.
//!
//! Both run CRUDA outdoors against plain ROG-4.

use rog_bench::{
    duration, final_metric, header, run_all, series_at_times, short_name, time_probes,
    write_artifact,
};
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(3600.0, 240.0);
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        duration_secs: dur,
        ..ExperimentConfig::default()
    };
    let configs = vec![
        base.clone(),
        ExperimentConfig {
            pipeline: true,
            ..base.clone()
        },
        ExperimentConfig {
            auto_threshold: true,
            ..base.clone()
        },
        ExperimentConfig {
            pipeline: true,
            auto_threshold: true,
            ..base
        },
    ];
    let runs = run_all(&configs);

    header("Future-work extensions — time composition per iteration (s)");
    let comp = rog_trainer::report::composition_table(&runs);
    print!("{comp}");
    write_artifact("ext_future_work_composition.csv", &comp);

    header("Future-work extensions — accuracy % vs wall-clock time (s)");
    let probes = time_probes(dur, 8);
    let a = series_at_times(&runs, &probes);
    print!("{a}");
    write_artifact("ext_future_work_accuracy.csv", &a);

    header("Summary");
    for r in &runs {
        println!(
            "{:<16} iters {:>5.0}  total {:>5.2}s/iter  final {:>6.2}%",
            short_name(r),
            r.mean_iterations,
            r.composition.total(),
            final_metric(r),
        );
    }
    println!(
        "\npipelining hides communication behind computation (iteration time\n\
         → max(compute, comm) instead of the sum); the auto controller\n\
         finds a threshold without hand-tuning."
    );
}
