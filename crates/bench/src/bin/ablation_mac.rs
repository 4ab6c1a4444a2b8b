//! MAC-model ablation: airtime fairness vs the 802.11 rate anomaly.
//!
//! The simulator's default channel gives each station an equal airtime
//! share (each moves at its own PHY rate). Real 802.11 DCF instead
//! equalizes *throughput*, so one distant robot drags every
//! transmission down to its pace — making the straggler effect worse
//! for everyone. This ablation reruns BSP and ROG-4 outdoors under both
//! models to show the reproduction's conclusions do not depend on the
//! fairness interpretation (ROG's advantage grows under the anomaly,
//! because aligning transmission *times* is exactly what the anomaly
//! punishes baselines for not doing).

use rog_bench::{duration, header, run_all, short_name, write_artifact};
use rog_net::SharingMode;
use rog_trainer::{Environment, ExperimentConfig, RunMetrics, Strategy, WorkloadKind};

fn main() {
    let dur = duration(2400.0, 240.0);
    let mut runs: Vec<RunMetrics> = Vec::new();
    for (tag, sharing) in [
        ("airtime", SharingMode::AirtimeFair),
        ("anomaly", SharingMode::ThroughputFair),
    ] {
        let configs: Vec<ExperimentConfig> = [Strategy::Bsp, Strategy::Rog { threshold: 4 }]
            .iter()
            .map(|&strategy| ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Outdoor,
                strategy,
                duration_secs: dur,
                mac_sharing: sharing,
                ..ExperimentConfig::default()
            })
            .collect();
        let mut batch = run_all(&configs);
        for r in &mut batch {
            r.name = format!("{}[{tag}]", short_name(r));
        }
        runs.extend(batch);
    }

    header("MAC ablation — time composition per iteration (s)");
    let comp = rog_trainer::report::composition_table(&runs);
    print!("{comp}");
    write_artifact("ablation_mac_composition.csv", &comp);

    header("Summary");
    let find = |name: &str| {
        runs.iter()
            .find(|r| r.name.starts_with(name))
            .expect("run exists")
    };
    let bsp_gain =
        find("BSP[anomaly]").composition.total() / find("BSP[airtime]").composition.total();
    let rog_gain =
        find("ROG-4[anomaly]").composition.total() / find("ROG-4[airtime]").composition.total();
    println!(
        "rate anomaly inflates BSP iterations {bsp_gain:.2}x and ROG-4 iterations {rog_gain:.2}x"
    );
    let speedup_air =
        find("BSP[airtime]").composition.total() / find("ROG-4[airtime]").composition.total();
    let speedup_anom =
        find("BSP[anomaly]").composition.total() / find("ROG-4[anomaly]").composition.total();
    println!("ROG-4 speedup over BSP: {speedup_air:.2}x (airtime) vs {speedup_anom:.2}x (anomaly)");
}
