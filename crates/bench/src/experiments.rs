//! The paper's evaluation as one table of experiments.
//!
//! Every figure, table, ablation, extension and `BENCH_*.json` matrix
//! is one `(name, fn(&Ctx))` entry of [`EXPERIMENTS`], run by `rogctl
//! figure <name> [--quick] [--seed <n>]` (see `DESIGN.md` for the paper
//! index). An entry prints its results as text tables and series and
//! writes CSV files under `results/`; the `bench_*` matrices write
//! `BENCH_<name>.json` to the working directory instead. `--quick` runs
//! the shortened smoke variant.
//!
//! The `bench_*` matrices print and write no wall-clock value: every
//! field is a deterministic function of the config and seeds, so CI
//! diffs two runs of the same invocation byte for byte as a
//! reproducibility check (and does).

use std::fs;

use rog_compress::CodecChoice;
use rog_core::mta::mta_fraction;
use rog_energy::PowerModel;
use rog_fault::{ChurnProfile, FaultPlan};
use rog_net::{io, Channel, ChannelProfile, FlowOutcome, FlowSpec, LossConfig, SharingMode, Trace};
use rog_obs::Record;
use rog_trainer::{
    generated_trace, report, stats, Cluster, DeviceKind, Environment, ExperimentConfig, ModelScale,
    RunMetrics, RunOutcome, Strategy, WorkloadKind,
};

use crate::{
    cells_json, final_metric, four_panel_report, header, iteration_probes, json_f64, results_dir,
    run_all, run_outcomes, section, series_at_iterations, series_at_times, short_name, side,
    time_probes, write_artifact, Extra, JsonCell,
};

/// What an experiment reads from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// `--quick`: run the shortened smoke variant.
    pub quick: bool,
    /// `--seed <n>`: the seed of the `bench_*` matrices (default 1).
    pub seed: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 1,
        }
    }
}

impl Ctx {
    /// `full` virtual seconds, or `quick_secs` under `--quick`.
    pub fn duration(&self, full: f64, quick_secs: f64) -> f64 {
        if self.quick {
            quick_secs
        } else {
            full
        }
    }
}

/// One experiment: its name and what runs it.
pub type Experiment = (&'static str, fn(&Ctx));

/// Every experiment. `run_all.sh` runs the first 17; the four tracked
/// `BENCH_*.json` matrices and the seed sweep are run on their own.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1_mta", table1_mta),
    ("table2_setup", table2_setup),
    ("table3_power", table3_power),
    ("fig3_bandwidth", fig3_bandwidth),
    ("fig1_cruda_outdoor", fig1_cruda_outdoor),
    ("fig6_cruda_indoor", fig6_cruda_indoor),
    ("fig7_crimp_outdoor", fig7_crimp_outdoor),
    ("fig8_micro_event", fig8_micro_event),
    ("fig9_sensitivity", fig9_sensitivity),
    ("fig10_threshold", fig10_threshold),
    ("replay_trace", replay_trace),
    ("ablation_granularity", ablation_granularity),
    ("ablation_mac", ablation_mac),
    ("ablation_importance", ablation_importance),
    ("ext_convmlp", ext_convmlp),
    ("ext_future_work", ext_future_work),
    ("bench_fault", bench_fault),
    ("bench_loss", bench_loss),
    ("bench_shard", bench_shard),
    ("bench_fleet", bench_fleet),
    ("bench_sync", bench_sync),
    ("seeds_sweep", seeds_sweep),
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name)
}

/// CRUDA outdoors under `strategy` for `dur` virtual seconds: the run
/// most experiments vary one knob of.
fn cruda_outdoor(strategy: Strategy, dur: f64) -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy,
        duration_secs: dur,
        ..ExperimentConfig::default()
    }
}

/// The base run of the `bench_{fault,loss,shard,sync}` matrices: ROG-4
/// on CRUDA outdoors for 600 virtual seconds (120 under `--quick`),
/// with frequent checkpoints: quick runs complete only ~25 iterations,
/// and the accuracy-vs-time curve is the point.
fn matrix_base(ctx: &Ctx) -> ExperimentConfig {
    let dur = ctx.duration(600.0, 120.0);
    ExperimentConfig {
        eval_every: 10,
        ..cruda_outdoor(Strategy::Rog { threshold: 4 }, dur)
    }
}

/// Renames each run `label(its strategy's short name, its index)`.
fn relabel(mut runs: Vec<RunMetrics>, label: impl Fn(&str, usize) -> String) -> Vec<RunMetrics> {
    for (i, r) in runs.iter_mut().enumerate() {
        r.name = label(short_name(r), i);
    }
    runs
}

/// [`run_all`] over one config per item, in item order.
fn run_each<T>(
    items: impl IntoIterator<Item = T>,
    config: impl FnMut(T) -> ExperimentConfig,
) -> Vec<RunMetrics> {
    run_all(&items.into_iter().map(config).collect::<Vec<_>>())
}

/// Runs the six-strategy comparison of Fig. 1, 6 and 7 — BSP, SSP-4,
/// SSP-20, FLOWN, ROG-4, ROG-20 — on one workload and environment.
fn six_strategy_runs(
    workload: WorkloadKind,
    environment: Environment,
    dur: f64,
) -> Vec<RunMetrics> {
    let strategies = [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Ssp { threshold: 20 },
        Strategy::Flown {
            min_threshold: 2,
            max_threshold: 20,
        },
        Strategy::Rog { threshold: 4 },
        Strategy::Rog { threshold: 20 },
    ];
    run_each(strategies, |strategy| ExperimentConfig {
        workload,
        environment,
        ..cruda_outdoor(strategy, dur)
    })
}

/// The least per-iteration stall among ROG's (`rog`) or the baselines'
/// runs.
fn least_stall(runs: &[RunMetrics], rog: bool) -> f64 {
    side(runs, rog)
        .map(|r| r.composition.stall)
        .fold(f64::INFINITY, f64::min)
}

/// Writes `BENCH_<file>.json` to the working directory and reports it:
/// the `bench` name and the virtual duration, then `fields` in order,
/// one `"key": value` per line.
fn write_matrix(file: &str, bench: &str, dur: f64, fields: &[(&str, String)]) {
    let mut lines = vec![
        format!("  \"bench\": {bench:?}"),
        format!("  \"virtual_duration_secs\": {dur}"),
    ];
    lines.extend(
        fields
            .iter()
            .map(|(key, value)| format!("  {key:?}: {value}")),
    );
    let path = format!("BENCH_{file}.json");
    fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  -> wrote {path}");
}

/// Figure 1: CRUDA in the outdoor environment.
///
/// Panels: (a) average time composition of a training iteration,
/// (b) statistical efficiency (accuracy vs iteration), (c) accuracy vs
/// wall-clock time, (d) energy consumption vs accuracy — for BSP, SSP-4,
/// SSP-20, FLOWN, ROG-4, ROG-20. Also prints the paper's headline
/// numbers: accuracy gain after fixed training time and energy saving to
/// reach a common accuracy.
fn fig1_cruda_outdoor(ctx: &Ctx) {
    let dur = ctx.duration(5400.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Cruda, Environment::Outdoor, dur);
    four_panel_report(1, &runs, dur);

    header("Headline numbers (paper Sec. VI-A)");
    let best_at_end = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::metric_at_time(r, dur))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (rog_best, baseline_best) = (best_at_end(true), best_at_end(false));
    println!(
        "accuracy after {dur:.0}s: best ROG {rog_best:.1}%, best baseline {baseline_best:.1}% \
         (gain {:+.1} pts; paper reports +4.9 to +6.5 pts outdoors at 60 min)",
        rog_best - baseline_best
    );
    let target = baseline_best.min(rog_best) - 0.5;
    let least_energy = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::energy_to_reach(r, target))
            .fold(f64::INFINITY, f64::min)
    };
    let (rog_energy, base_energy) = (least_energy(true), least_energy(false));
    if rog_energy.is_finite() && base_energy.is_finite() {
        println!(
            "energy to reach {target:.1}%: ROG {rog_energy:.0} J vs best baseline {base_energy:.0} J \
             ({:.1}% saving; paper reports 20.4–50.7%)",
            100.0 * (1.0 - rog_energy / base_energy)
        );
    }
    println!(
        "stall per iteration: ROG {:.2}s vs best baseline {:.2}s \
         (paper: ROG cuts outdoor stall by 49.1–86.5%)",
        least_stall(&runs, true),
        least_stall(&runs, false)
    );
}

/// Figure 3: the instability of robotic IoT networks.
///
/// Generates the calibrated indoor and outdoor bandwidth traces (5 min
/// at 0.1 s like the paper's iperf recording), prints their fluctuation
/// statistics — "a 40% fluctuation of bandwidth typically happens every
/// 1.2 s" — and dumps the raw series for plotting.
fn fig3_bandwidth(_: &Ctx) {
    header("Fig. 3 — bandwidth instability, indoors vs outdoors");
    println!(
        "{:<9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10} {:>7}",
        "env", "mean Mbps", "min Mbps", "max Mbps", "i20% (s)", "i40% (s)", "deep-fade", "CV"
    );
    for profile in [ChannelProfile::indoor(), ChannelProfile::outdoor()] {
        let trace = profile.generate(3, 300.0);
        let s = rog_net::stats::summarize(&trace);
        println!(
            "{:<9} {:>10.1} {:>10.2} {:>10.1} {:>9.2} {:>9.2} {:>9.1}% {:>7.3}",
            profile.name,
            s.mean_bps / 1e6,
            s.min_bps / 1e6,
            s.max_bps / 1e6,
            s.interval_20pct,
            s.interval_40pct,
            100.0 * s.deep_fade_fraction,
            s.cv,
        );
        let mut csv = String::from("time_s,bandwidth_mbps\n");
        for (i, &v) in trace.samples().iter().enumerate() {
            csv.push_str(&format!("{:.1},{:.3}\n", i as f64 * trace.dt(), v / 1e6));
        }
        write_artifact(&format!("fig3_{}_trace.csv", profile.name), &csv);
    }
    println!(
        "\npaper Sec. II-B: ≥20% fluctuation every ~0.4 s, ≥40% every ~1.2 s;\n\
         outdoors additionally collapses toward 0 Mbit/s (no reflecting walls)."
    );
}

/// Figure 6: CRUDA in the indoor environment (same four panels as
/// Fig. 1, milder instability), plus the Sec. II-D observation that BSP
/// stall indoors is comparable to the computation time.
fn fig6_cruda_indoor(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Cruda, Environment::Indoor, dur);
    four_panel_report(6, &runs, dur);

    header("Sec. II-D cross-check (indoor BSP)");
    if let Some(bsp) = runs.iter().find(|r| r.name.starts_with("BSP")) {
        println!(
            "BSP indoors: compute {:.2}s, stall {:.2}s per iteration \
             (paper: stall 2.23s ≈ 102% of the 2.18s compute)",
            bsp.composition.compute, bsp.composition.stall
        );
    }
    println!(
        "stall per iteration: ROG {:.2}s vs best baseline {:.2}s \
         (paper: ROG cuts indoor stall by 42.4–97.6%)",
        least_stall(&runs, true),
        least_stall(&runs, false)
    );
}

/// Figure 7: CRIMP (implicit mapping and positioning) outdoors.
///
/// Same four panels as Fig. 1 with trajectory error (lower is better)
/// as the metric and the smaller nice-slam-sized model (0.75 MB
/// compressed): time composition, error vs iteration, error vs
/// wall-clock, energy vs error.
fn fig7_crimp_outdoor(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Crimp, Environment::Outdoor, dur);
    four_panel_report(7, &runs, dur);

    header("Headline numbers (paper Sec. VI-A, CRIMP)");
    let best_at_end = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::metric_at_time(r, dur))
            .fold(f64::INFINITY, f64::min)
    };
    let (rog_best, baseline_best) = (best_at_end(true), best_at_end(false));
    println!(
        "trajectory error after {dur:.0}s: best ROG {rog_best:.3} m vs best baseline {baseline_best:.3} m \
         ({:.0}% reduction; paper reports 16–30% at 60 min)",
        100.0 * (1.0 - rog_best / baseline_best.max(1e-9))
    );
    if let Some(bsp) = runs.iter().find(|r| r.name.starts_with("BSP")) {
        println!(
            "BSP stall/communication: {:.2}s / {:.2}s per iteration \
             (paper: stall ≈ 60% of communication under BSP)",
            bsp.composition.stall, bsp.composition.communicate
        );
    }
}

/// Figure 8: micro-event analysis.
///
/// Runs ROG-4 on one robot's perspective in the outdoor environment and
/// records, at every push of that robot, the instantaneous link
/// bandwidth, the fraction of rows it managed to transmit (transmission
/// rate), and how many iterations it lags the fastest worker
/// (staleness). The paper's reading: when bandwidth fluctuates, the
/// transmission rate tracks it immediately and staleness stays low; in
/// a long deep fade staleness accumulates; when bandwidth recovers the
/// robot catches up quickly because it only has to transmit partial
/// rows.
fn fig8_micro_event(ctx: &Ctx) {
    let dur = ctx.duration(240.0, 120.0);
    let cfg = ExperimentConfig {
        record_micro: true,
        ..cruda_outdoor(Strategy::Rog { threshold: 4 }, dur)
    };
    let m = cfg.options().run().metrics;

    header("Fig. 8 — bandwidth vs ROG transmission rate vs staleness (worker 0)");
    println!(
        "{:>8} {:>12} {:>10} {:>9}",
        "time_s", "bw_mbps", "tx_rate_%", "staleness"
    );
    let mut csv = String::from("time_s,bandwidth_mbps,transmission_rate,staleness\n");
    for s in &m.micro {
        println!(
            "{:>8.1} {:>12.1} {:>10.1} {:>9}",
            s.time,
            s.bandwidth_bps / 1e6,
            100.0 * s.transmission_rate,
            s.staleness
        );
        csv.push_str(&format!(
            "{:.2},{:.3},{:.4},{}\n",
            s.time,
            s.bandwidth_bps / 1e6,
            s.transmission_rate,
            s.staleness
        ));
    }
    write_artifact("fig8_micro_event.csv", &csv);

    // Summary correlations for the narrative.
    let n = m.micro.len() as f64;
    if n > 4.0 {
        let mean_bw = m.micro.iter().map(|s| s.bandwidth_bps).sum::<f64>() / n;
        let mean_tx = m.micro.iter().map(|s| s.transmission_rate).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut var_b = 0.0;
        let mut var_t = 0.0;
        for s in &m.micro {
            let db = s.bandwidth_bps - mean_bw;
            let dt = s.transmission_rate - mean_tx;
            cov += db * dt;
            var_b += db * db;
            var_t += dt * dt;
        }
        let corr = cov / (var_b.sqrt() * var_t.sqrt()).max(1e-12);
        let max_stale = m.micro.iter().map(|s| s.staleness).max().unwrap_or(0);
        println!(
            "\ncorrelation(bandwidth, transmission rate) = {corr:.2} \
             (positive: ROG adapts the rate to the link in real time)"
        );
        println!("max staleness observed: {max_stale} (bounded by the RSP threshold 4)");
    }
}

/// Figure 9: sensitivity to batch size and worker count.
///
/// Left column: CRUDA outdoors with batch ×1 / ×2 / ×4 for BSP, SSP-4
/// and ROG-4 (FLOWN omitted, as in the paper). Right column: 4 / 6 / 8
/// workers. Panels: accuracy vs time, energy to reach a target, and
/// time composition.
fn fig9_sensitivity(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 200.0);
    let strategies = [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
    ];
    let probes = time_probes(dur, 8);

    let mut batch_runs: Vec<RunMetrics> = Vec::new();
    for scale in [1.0, 2.0, 4.0] {
        let runs = run_each(strategies, |strategy| ExperimentConfig {
            batch_scale: scale,
            ..cruda_outdoor(strategy, dur)
        });
        let tag = format!("Bx{}", scale as u32);
        batch_runs.extend(relabel(runs, |s, _| format!("{s}-{tag}")));
    }
    section(
        "Fig. 9 left column — batch-size sensitivity (CRUDA outdoor)",
        "fig9a_accuracy_batch.csv",
        &series_at_times(&batch_runs, &probes),
    );
    let comp = report::composition_table(&batch_runs);
    print!("\n{comp}");
    write_artifact("fig9e_composition_batch.csv", &comp);

    let mut worker_runs: Vec<RunMetrics> = Vec::new();
    for n in [4usize, 6, 8] {
        let runs = run_each(strategies, |strategy| ExperimentConfig {
            n_workers: n,
            ..cruda_outdoor(strategy, dur)
        });
        worker_runs.extend(relabel(runs, |s, _| format!("{s}-Nx{n}")));
    }
    section(
        "Fig. 9 right column — worker-count sensitivity (CRUDA outdoor)",
        "fig9b_accuracy_workers.csv",
        &series_at_times(&worker_runs, &probes),
    );
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

/// Figure 10: ROG under a wider range of staleness thresholds
/// (4 / 20 / 30 / 40), CRUDA outdoors.
///
/// The paper's reading: large thresholds buy early training speed
/// (higher throughput) but degrade late statistical efficiency, so the
/// final accuracy is slightly lower — the threshold trades training
/// speed against final quality.
fn fig10_threshold(ctx: &Ctx) {
    let dur = ctx.duration(7200.0, 240.0);
    let runs = run_each([4, 20, 30, 40], |threshold| {
        cruda_outdoor(Strategy::Rog { threshold }, dur)
    });

    section(
        "Fig. 10a — accuracy % vs wall-clock time (s)",
        "fig10a_accuracy_vs_time.csv",
        &series_at_times(&runs, &time_probes(dur, 12)),
    );
    section(
        "Fig. 10b — statistical efficiency (accuracy % vs iteration)",
        "fig10b_statistical_efficiency.csv",
        &series_at_iterations(&runs, &iteration_probes(&runs)),
    );

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

/// Table I: MTA values under different staleness thresholds — the
/// solution of `(1-P)^(S-1) = P`.
fn table1_mta(_: &Ctx) {
    header("Table I — MTA values under different thresholds");
    let paper = [
        (2u32, 0.5),
        (3, 0.38),
        (4, 0.32),
        (5, 0.28),
        (6, 0.25),
        (7, 0.22),
        (8, 0.2),
    ];
    println!(
        "{:<10} {:>10} {:>10}",
        "threshold", "MTA (ours)", "MTA (paper)"
    );
    let mut csv = String::from("threshold,mta_ours,mta_paper\n");
    for (s, p) in paper {
        let ours = mta_fraction(s);
        println!("{s:<10} {ours:>10.4} {p:>10.2}");
        csv.push_str(&format!("{s},{ours:.4},{p}\n"));
        assert!(
            (ours - p).abs() < 0.005,
            "threshold {s}: computed {ours} deviates from Table I's {p}"
        );
    }
    write_artifact("table1_mta.csv", &csv);
    println!("\nall values match Table I to the two decimals printed there.");
}

/// Table II: the default experiment setup, reproduced from the
/// configuration the harness actually uses.
fn table2_setup(_: &Ctx) {
    header("Table II — default setup");
    let cfg = ExperimentConfig::default();
    let cluster = Cluster::build(&cfg);
    let batch_of = |kind: DeviceKind| {
        cluster
            .devices
            .iter()
            .find(|d| d.kind == kind)
            .map(|d| d.batch)
            .unwrap_or(0)
    };
    let robot_batch = batch_of(DeviceKind::Robot);
    let laptop_batch = batch_of(DeviceKind::Laptop);
    println!("batch size (robot):            {robot_batch}   (paper: 24)");
    println!("batch size (laptop):           {laptop_batch}   (paper: 16)");
    println!(
        "learning rate:                 {}   (paper: 1e-6 on ConvMLP)",
        cluster.lr
    );
    println!(
        "compress+decompress time cost: {:.2} s (paper: 0.42–0.51 s)",
        cfg.codec_secs()
    );
    println!(
        "gradient compute (robot):      {:.2} s incl. codec (paper: 2.18 s)",
        cfg.base_compute_secs() + cfg.codec_secs()
    );
    println!(
        "compressed model size:         {:.2} MB (paper: 2.1 MB CRUDA)",
        cfg.compressed_bytes() as f64 / 1e6
    );
    println!(
        "workers:                       {} ({} robots + {} laptop)",
        cfg.n_workers,
        cfg.n_workers - cfg.n_laptop_workers,
        cfg.n_laptop_workers
    );
    println!(
        "checkpoint cadence:            every {} iterations (paper: 50)",
        cfg.eval_every
    );
}

/// Table III: power in different states, plus the derived observations
/// the paper makes from it (stall burns ~30 % of compute power; a
/// stalling robot is *not* a sleeping robot).
fn table3_power(ctx: &Ctx) {
    header("Table III — power (W) in different states");
    let m = PowerModel::jetson_nx();
    println!("computation:   {:>6.2} W", m.compute_w);
    println!("communication: {:>6.2} W", m.communicate_w);
    println!("stall:         {:>6.2} W", m.stall_w);
    println!(
        "stall / computation = {:.0}% (paper: \"nearly 30%\", leakage current \
         keeps chips warm while waiting)",
        100.0 * m.stall_w / m.compute_w
    );
    write_artifact(
        "table3_power.csv",
        &format!(
            "state,power_w\ncomputation,{}\ncommunication,{}\nstall,{}\n",
            m.compute_w, m.communicate_w, m.stall_w
        ),
    );

    header("Derived: per-state energy share of one BSP outdoor run");
    let cfg = cruda_outdoor(Strategy::Bsp, ctx.duration(1200.0, 180.0));
    let run = cfg.options().run().metrics;
    let c = run.composition;
    let total = c.total().max(1e-9);
    let e_compute = c.compute * m.compute_w;
    let e_comm = c.communicate * m.communicate_w;
    let e_stall = c.stall * m.stall_w;
    let e_total = e_compute + e_comm + e_stall;
    println!(
        "time share per iteration: compute {:.0}%, comm {:.0}%, stall {:.0}%",
        100.0 * c.compute / total,
        100.0 * c.communicate / total,
        100.0 * c.stall / total
    );
    println!(
        "energy share per iteration: compute {:.0}%, comm {:.0}%, stall {:.0}%",
        100.0 * e_compute / e_total,
        100.0 * e_comm / e_total,
        100.0 * e_stall / e_total
    );
    println!(
        "\nstall is a real energy cost: eliminating it is where ROG's \
         20.4–50.7% energy saving comes from."
    );
}

/// Granularity ablation (paper Sec. III-A): elements vs rows vs layers.
///
/// Reproduces the paper's argument for choosing rows quantitatively:
///
/// * **management overhead** — index bytes that must accompany
///   adaptively transmitted units (elements: one `int32` per `float32`,
///   doubling traffic; rows: ~0.24 % of the model; layers: negligible);
/// * **transmission flexibility** — what happens when a speculative
///   transmission is cut by the MTA-time deadline: with layer-sized
///   units a cut wastes a large partial unit and delivers coarse
///   subsets; with rows the waste is one row.
///
/// The flexibility experiment pushes one compressed CRUDA model over the
/// outdoor channel with a range of deadlines, chunked at each
/// granularity, and reports delivered/wasted bytes.
fn ablation_granularity(_: &Ctx) {
    // ConvMLP-M shape from the paper: 16.95 M params, 33 307 rows, 226
    // layers, largest layer 1.18 M params.
    const TOTAL_PARAMS: u64 = 16_950_000;
    const N_ROWS: u64 = 33_307;
    const N_LAYERS: u64 = 226;

    header("Management overhead (index bytes / payload bytes)");
    // One-bit compressed payload: 1 bit per parameter (+ scales, ignored
    // here for the cross-granularity comparison); int32 index per unit.
    let payload_bits = TOTAL_PARAMS; // 1 bit per param
    let payload_bytes = payload_bits / 8;
    let mut csv = String::from("granularity,units,index_bytes,payload_bytes,overhead\n");
    for (name, units) in [
        ("element", TOTAL_PARAMS),
        ("row", N_ROWS),
        ("layer", N_LAYERS),
    ] {
        let index_bytes = 4 * units;
        let overhead = index_bytes as f64 / (4 * TOTAL_PARAMS) as f64;
        println!(
            "{name:<8} units {units:>9}  index {index_bytes:>9} B  raw-model overhead {:.3}%",
            100.0 * overhead
        );
        csv.push_str(&format!(
            "{name},{units},{index_bytes},{payload_bytes},{overhead:.6}\n"
        ));
    }
    println!(
        "\npaper: element indexing doubles traffic; rows cost 0.24% of the\n\
         model; layers are cheap to index but inflexible to schedule."
    );
    write_artifact("ablation_granularity_overhead.csv", &csv);

    header("Transmission flexibility under deadline cuts (outdoor channel)");
    // Compressed model = 2.1 MB; chunk it at each granularity and cut
    // the flow at increasing deadlines.
    let model_bytes: u64 = 2_100_000;
    let profile = ChannelProfile::outdoor();
    let mut csv = String::from("granularity,deadline_s,useful_bytes,wasted_bytes\n");
    println!(
        "{:<9} {:>10} {:>14} {:>14}",
        "unit", "deadline", "useful bytes", "wasted bytes"
    );
    for (name, units, extra_index) in [
        ("element", 200_000u64, 2.0), // element indexing ~doubles bytes
        ("row", 33_307, 1.0024),
        ("layer", 226, 1.0),
    ] {
        // Simulated chunking: uniform units (a simplification; the
        // paper's largest layer alone is 1.18M params ≈ 7% of the model,
        // which the uneven-layer row below captures).
        let unit_bytes = ((model_bytes as f64 * extra_index) / units as f64).max(1.0) as u64;
        for deadline in [0.05f64, 0.1, 0.2, 0.4] {
            let mut ch = Channel::new(
                profile.generate(11, 30.0),
                vec![profile.generate_link(12, 30.0)],
            );
            let n_chunks = units.min(model_bytes) as usize;
            let id = ch.start_flow(
                0.0,
                FlowSpec::new(0, vec![unit_bytes; n_chunks]).with_deadline(deadline),
            );
            let evs = ch.advance_until(31.0);
            let (useful, wasted) = match evs.first() {
                Some(e) if e.id == id => match e.outcome {
                    FlowOutcome::Completed => (unit_bytes * n_chunks as u64, 0),
                    FlowOutcome::DeadlineReached { bytes_done, .. } => {
                        (bytes_done, ch.wasted_bytes() as u64)
                    }
                    FlowOutcome::Cancelled { .. } => unreachable!("nothing cancels this flow"),
                },
                _ => (0, 0),
            };
            println!("{name:<9} {deadline:>9.2}s {useful:>14} {wasted:>14}");
            csv.push_str(&format!("{name},{deadline},{useful},{wasted}\n"));
        }
    }
    write_artifact("ablation_granularity_flexibility.csv", &csv);

    // The single-large-layer case: cutting a 1.18M-param layer (≈147 KB
    // compressed, ≈7% of the model) mid-transfer wastes everything sent
    // of it.
    header("Worst case: the 1.18M-element layer as one unit");
    let big_layer_bytes = 1_180_000 / 8;
    let mut ch = Channel::new(
        profile.generate(13, 30.0),
        vec![profile.generate_link(14, 30.0)],
    );
    ch.start_flow(
        0.0,
        FlowSpec::new(0, vec![big_layer_bytes]).with_deadline(0.012),
    );
    let evs = ch.advance_until(31.0);
    if let Some(e) = evs.first() {
        if let FlowOutcome::DeadlineReached { bytes_done, .. } = e.outcome {
            println!(
                "deadline mid-layer: {bytes_done} useful bytes, {:.0} wasted \
                 (an entire partial layer is discarded)",
                ch.wasted_bytes()
            );
        } else {
            println!("layer completed before the deadline in this draw");
        }
    }
}

/// MAC-model ablation: airtime fairness vs the 802.11 rate anomaly.
///
/// The simulator's default channel gives each station an equal airtime
/// share (each moves at its own PHY rate). Real 802.11 DCF instead
/// equalizes *throughput*, so one distant robot drags every
/// transmission down to its pace — making the straggler effect worse
/// for everyone. This ablation reruns BSP and ROG-4 outdoors under both
/// models to show the reproduction's conclusions do not depend on the
/// fairness interpretation (ROG's advantage grows under the anomaly,
/// because aligning transmission *times* is exactly what the anomaly
/// punishes baselines for not doing).
fn ablation_mac(ctx: &Ctx) {
    let dur = ctx.duration(2400.0, 240.0);
    let mut runs: Vec<RunMetrics> = Vec::new();
    for (tag, sharing) in [
        ("airtime", SharingMode::AirtimeFair),
        ("anomaly", SharingMode::ThroughputFair),
    ] {
        let pair = [Strategy::Bsp, Strategy::Rog { threshold: 4 }];
        let pair = run_each(pair, |strategy| ExperimentConfig {
            mac_sharing: sharing,
            ..cruda_outdoor(strategy, dur)
        });
        runs.extend(relabel(pair, |s, _| format!("{s}[{tag}]")));
    }

    section(
        "MAC ablation — time composition per iteration (s)",
        "ablation_mac_composition.csv",
        &report::composition_table(&runs),
    );

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

/// Importance-metric ablation: what do ATP's two terms buy?
///
/// Runs ROG-4 on CRUDA outdoors with the full metric
/// (`f1·magnitude + f2·staleness`), magnitude-only (`f2 = 0`),
/// staleness-only (`f1 = 0`), and neither (round-robin by row id).
/// The paper's claim (Sec. VI-A): prioritizing large-magnitude rows is
/// what keeps partial synchronization statistically efficient, while
/// the staleness term keeps stale pushed rows from tripping the RSP
/// gate.
fn ablation_importance(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 240.0);
    let variants: [(&str, (f64, f64)); 4] = [
        ("full", (1.0, 1.0)),
        ("magnitude-only", (1.0, 0.0)),
        ("staleness-only", (0.0, 1.0)),
        ("round-robin", (0.0, 0.0)),
    ];
    let runs = run_each(variants, |(_, w)| ExperimentConfig {
        importance_weights: Some(w),
        ..cruda_outdoor(Strategy::Rog { threshold: 4 }, dur)
    });
    let runs = relabel(runs, |s, i| format!("{s}[{}]", variants[i].0));

    section(
        "Importance ablation — accuracy % vs wall-clock time (s)",
        "ablation_importance.csv",
        &series_at_times(&runs, &time_probes(dur, 8)),
    );

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

/// Extension experiment: CRUDA with the ConvMLP architecture.
///
/// The paper's recognition model is ConvMLP (Li et al.); the default
/// harness workload is a dense MLP for calibration speed. This entry
/// runs the ConvMLP variant (convolutional stages over 12×12 image
/// inputs with smooth class templates) under BSP / SSP-4 / ROG-4 /
/// ROG-20 on the outdoor channel, verifying ROG's gains carry over to
/// the convolutional architecture: rows are now filter banks (one
/// output channel per row), but RSP/ATP are architecture-agnostic.
fn ext_convmlp(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 240.0);
    let strategies = [
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Rog { threshold: 4 },
        Strategy::Rog { threshold: 20 },
    ];
    let runs = run_each(strategies, |strategy| ExperimentConfig {
        workload: WorkloadKind::CrudaConv,
        ..cruda_outdoor(strategy, dur)
    });

    section(
        "ConvMLP CRUDA — time composition per iteration (s)",
        "ext_convmlp_composition.csv",
        &report::composition_table(&runs),
    );
    section(
        "ConvMLP CRUDA — accuracy % vs wall-clock time (s)",
        "ext_convmlp_accuracy.csv",
        &series_at_times(&runs, &time_probes(dur, 8)),
    );

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

/// Extension experiments: the paper's future-work items, implemented.
///
/// * **Pipelining communication and computation** (Sec. VI-D, after
///   Pipe-SGD): the worker keeps computing while its push/pull cycle
///   runs concurrently, bounded by the staleness threshold.
/// * **Automatic threshold selection** (Sec. VI-C): a hysteresis
///   controller widens the RSP threshold when the cluster stalls and
///   narrows it when the channel is calm.
///
/// Both run CRUDA outdoors against plain ROG-4.
fn ext_future_work(ctx: &Ctx) {
    let dur = ctx.duration(3600.0, 240.0);
    let base = cruda_outdoor(Strategy::Rog { threshold: 4 }, dur);
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

    section(
        "Future-work extensions — time composition per iteration (s)",
        "ext_future_work_composition.csv",
        &report::composition_table(&runs),
    );
    section(
        "Future-work extensions — accuracy % vs wall-clock time (s)",
        "ext_future_work_accuracy.csv",
        &series_at_times(&runs, &time_probes(dur, 8)),
    );

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

/// Trace replay — the artifact's evaluation path.
///
/// The paper's artifact replays real-time bandwidth recorded on the
/// moving robots (with `tc`) so results reproduce on stationary
/// devices. This entry does the same round trip in the simulator:
/// record the outdoor channel to CSV, load it back, and run BSP vs
/// ROG-4 on the *replayed* traces — verifying (a) the CSV path is
/// lossless (identical results to the generated-trace run) and (b) any
/// externally recorded trace in `time_s,value` form can drive the
/// whole evaluation.
fn replay_trace(ctx: &Ctx) {
    let dur = ctx.duration(900.0, 180.0);
    let mk = |strategy, cap: Option<Trace>, links: Option<Vec<Trace>>| ExperimentConfig {
        capacity_trace: cap,
        link_traces: links,
        ..cruda_outdoor(strategy, dur)
    };

    header("Recording traces to CSV");
    // The traces the cluster builder generates for the reference run,
    // so the generated-trace runs see identical channels.
    let reference = mk(Strategy::Bsp, None, None);
    let profile = reference.environment.profile();
    let (seed, len) = generated_trace(&reference, None);
    let capacity = profile.generate(seed, len);
    let links: Vec<Trace> = (0..reference.n_workers)
        .map(|w| {
            let (seed, len) = generated_trace(&reference, Some((w, 0)));
            profile.generate_link(seed, len)
        })
        .collect();
    let dir = results_dir();
    io::save_trace(&capacity, dir.join("replay_capacity.csv")).expect("save capacity");
    for (w, l) in links.iter().enumerate() {
        io::save_trace(l, dir.join(format!("replay_link{w}.csv"))).expect("save link");
    }
    println!("  recorded 1 capacity + {} link traces", links.len());

    header("Replaying from CSV");
    let capacity_back = io::load_trace(dir.join("replay_capacity.csv")).expect("load capacity");
    let links_back: Vec<Trace> = (0..links.len())
        .map(|w| io::load_trace(dir.join(format!("replay_link{w}.csv"))).expect("load link"))
        .collect();

    let configs = vec![
        mk(
            Strategy::Bsp,
            Some(capacity_back.clone()),
            Some(links_back.clone()),
        ),
        mk(
            Strategy::Rog { threshold: 4 },
            Some(capacity_back),
            Some(links_back),
        ),
        // Reference: the generated-trace runs with the same seeds.
        reference,
        mk(Strategy::Rog { threshold: 4 }, None, None),
    ];
    let runs = run_all(&configs);

    header("Replay vs generated (identical traces → identical results)");
    for pair in [(0usize, 2usize), (1, 3)] {
        let (replay, gen) = (&runs[pair.0], &runs[pair.1]);
        let same =
            replay.checkpoints == gen.checkpoints && replay.mean_iterations == gen.mean_iterations;
        println!(
            "{:<8} replay {:>6.0} iters / generated {:>6.0} iters — {}",
            short_name(gen),
            replay.mean_iterations,
            gen.mean_iterations,
            if same {
                "bit-identical ✓"
            } else {
                "DIFFERS ✗"
            }
        );
        assert!(same, "replayed run must match the generated run");
    }
}

/// Multi-seed confidence for the headline comparison.
///
/// Runs BSP, SSP-4 and ROG-4 on CRUDA outdoors under several seeds
/// (different channel realizations, data draws and jitter) and reports
/// mean ± std of throughput, stall and accuracy-at-time — the
/// robustness check a physical testbed cannot afford (paper runs each
/// configuration once).
fn seeds_sweep(ctx: &Ctx) {
    let dur = ctx.duration(1800.0, 180.0);
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
        let runs = run_each(&seeds, |&seed| ExperimentConfig {
            seed,
            ..cruda_outdoor(strategy, dur)
        });
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

/// Fault-matrix robustness benchmark: runs the CRUDA-outdoor workload
/// through a matrix of injected fault scenarios (fault-free baseline,
/// seeded worker churn, link blackouts, a server checkpoint/restart)
/// and writes `BENCH_fault.json` with accuracy-vs-virtual-time curves
/// plus stall/offline residency per scenario. A BSP-under-churn row
/// quantifies the paper's robustness argument: static-membership BSP
/// blocks for the whole outage, while ROG's dynamic membership keeps
/// the survivors training.
fn bench_fault(ctx: &Ctx) {
    let base = matrix_base(ctx);
    let (dur, seed) = (base.duration_secs, ctx.seed);

    header(&format!(
        "Fault matrix: CRUDA outdoor, {dur:.0} virtual s, fault seed {seed}"
    ));
    // Churn tuned so even `--quick` runs see real departures (default
    // means target multi-hour traces).
    let churn = ChurnProfile {
        mean_up_secs: 60.0,
        mean_down_secs: 20.0,
        min_up_secs: 15.0,
        min_down_secs: 8.0,
        keep_first_online: true,
    };
    let churn = FaultPlan::seeded_churn(seed, base.n_workers, dur, &churn);
    let plans = [
        ("none", FaultPlan::new()),
        ("churn", churn.clone()),
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
    ];
    let mut configs: Vec<(String, ExperimentConfig)> = plans
        .into_iter()
        .map(|(scenario, plan)| {
            (
                scenario.to_owned(),
                ExperimentConfig {
                    fault_plan: Some(plan),
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
            fault_plan: Some(churn),
            ..base
        },
    ));
    let runs = run_each(&configs, |(_, c)| c.clone());

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

    let cells: Vec<JsonCell> = configs
        .iter()
        .zip(&runs)
        .map(|((scenario, _), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .metrics(r, &[Extra::OfflineSecs, Extra::AccuracyVsTime])
        })
        .collect();
    write_matrix(
        "fault",
        "fault_matrix_cruda_outdoor",
        dur,
        &[
            ("fault_seed", seed.to_string()),
            ("scenarios", cells_json(&cells)),
        ],
    );
}

/// Loss-matrix robustness benchmark: runs the CRUDA-outdoor workload
/// through a matrix of packet-loss scenarios (loss-free baseline,
/// 5 % i.i.d. loss, 10 % and 20 % bursty Gilbert–Elliott loss) and
/// writes `BENCH_loss.json` with accuracy-vs-virtual-time curves plus
/// the channel's byte ledger (useful / wasted / lost / corrupt) and
/// stall residency per scenario. A BSP-under-loss row quantifies the
/// transport argument: reliable-only whole-model transfers block on
/// backed-off retransmits, while ROG's best-effort gradient rows
/// degrade gracefully inside the RSP staleness bound.
///
/// The codec sub-matrix reruns the clean and 10 % bursty scenarios
/// under the sparse-delta, 4-bit and auto row codecs, so the artifact
/// carries bytes-on-wire and final-metric columns per codec. A traced
/// probe pair additionally pins the wire-level claim: the sparse
/// encoding ships strictly fewer payload bytes per pushed row than the
/// dense one-bit baseline (total bytes are throughput-confounded —
/// cheaper rows buy more iterations in the same virtual time).
fn bench_loss(ctx: &Ctx) {
    let base = matrix_base(ctx);
    let (dur, seed) = (base.duration_secs, ctx.seed);

    header(&format!(
        "Loss matrix: CRUDA outdoor, {dur:.0} virtual s, loss seed {seed}"
    ));
    let scenarios = [
        ("none", None),
        ("iid-5", Some(LossConfig::iid(seed, 0.05))),
        ("ge-10", Some(LossConfig::gilbert_elliott(seed, 0.10))),
        ("ge-20", Some(LossConfig::gilbert_elliott(seed, 0.20))),
    ];
    let mut configs: Vec<(String, ExperimentConfig)> = scenarios
        .into_iter()
        .map(|(scenario, loss)| {
            (
                scenario.to_owned(),
                ExperimentConfig {
                    loss,
                    ..base.clone()
                },
            )
        })
        .collect();
    // The transport contrast: BSP under the identical bursty loss. Its
    // reliable-only whole-model transfers block on every lost chunk.
    configs.push((
        "bsp-ge-10".to_owned(),
        ExperimentConfig {
            strategy: Strategy::Bsp,
            loss: Some(LossConfig::gilbert_elliott(seed, 0.10)),
            ..base.clone()
        },
    ));
    configs.push((
        "bsp-none".to_owned(),
        ExperimentConfig {
            strategy: Strategy::Bsp,
            ..base.clone()
        },
    ));
    // The codec sub-matrix: every non-default rung of the ladder on
    // the clean channel and under the 10 % bursty loss the transport
    // contrast already uses.
    for codec in [
        CodecChoice::Sparse,
        CodecChoice::Quant { bits: 4 },
        CodecChoice::Auto,
    ] {
        for (scenario, loss) in [
            ("none", None),
            ("ge-10", Some(LossConfig::gilbert_elliott(seed, 0.10))),
        ] {
            configs.push((
                format!("{}-{scenario}", codec.name()),
                ExperimentConfig {
                    codec,
                    loss,
                    ..base.clone()
                },
            ));
        }
    }
    let runs = run_each(&configs, |(_, c)| c.clone());

    println!(
        "{:<12} {:>7} {:>8} {:>10} {:>13} {:>12} {:>10}",
        "scenario", "codec", "iters", "stall(s)", "useful(B)", "lost(B)", "metric"
    );
    for ((scenario, cfg), r) in configs.iter().zip(&runs) {
        println!(
            "{scenario:<12} {:>7} {:>8.1} {:>10.1} {:>13.0} {:>12.0} {:>10.2}",
            cfg.effective_codec().name(),
            r.mean_iterations,
            r.stall_secs + 0.0,
            r.useful_bytes,
            r.lost_bytes,
            final_metric(r),
        );
    }

    // Wire-level probe: two short traced runs pin "sparse < dense" on
    // the per-row push payload, the one number the codec actually
    // controls. (Comparing the matrix's total bytes would confound the
    // codec with the extra iterations its cheaper rows buy.)
    let per_row_push_bytes = |codec: CodecChoice| -> f64 {
        let out = ExperimentConfig {
            codec,
            duration_secs: 120.0,
            ..base.clone()
        }
        .options()
        .traced(true)
        .run();
        let jsonl = out.journal.expect("traced run").to_jsonl();
        let (mut bytes, mut rows) = (0.0, 0.0);
        for line in jsonl.lines().filter(|l| l.contains("\"ev\":\"push_end\"")) {
            let rec = Record::parse(line).expect("journal line parses");
            bytes += rec.num("bytes").expect("push_end has bytes");
            rows += rec.num("rows").expect("push_end has rows");
        }
        bytes / rows
    };
    let onebit_row = per_row_push_bytes(CodecChoice::OneBit);
    let sparse_row = per_row_push_bytes(CodecChoice::Sparse);
    assert!(
        sparse_row < onebit_row,
        "sparse rows must undercut the dense one-bit payload: {sparse_row} vs {onebit_row} B/row"
    );
    println!("push payload per row: onebit {onebit_row:.0} B, sparse {sparse_row:.0} B");

    let cells: Vec<JsonCell> = configs
        .iter()
        .zip(&runs)
        .map(|((scenario, cfg), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .text("codec", cfg.effective_codec().name())
                .metrics(
                    r,
                    &[Extra::LostBytes, Extra::CorruptBytes, Extra::AccuracyVsTime],
                )
        })
        .collect();
    write_matrix(
        "loss",
        "loss_matrix_cruda_outdoor",
        dur,
        &[
            ("loss_seed", seed.to_string()),
            ("scenarios", cells_json(&cells)),
            (
                "push_payload_bytes_per_row",
                format!(
                    "{{\"onebit\": {}, \"sparse\": {}}}",
                    json_f64(onebit_row),
                    json_f64(sparse_row)
                ),
            ),
        ],
    );
}

/// Shard-scaling benchmark: runs the CRUDA-outdoor ROG workload with a
/// row-sharded parameter plane at 1, 2 and 4 shards through a clean /
/// shard-fault / bursty-loss scenario matrix and writes
/// `BENCH_shard.json`.
///
/// Two claims are quantified:
///
/// 1. **One shard is the old engine.** The `shards=1` clean run is
///    byte-identical to the default (unsharded) config — the artifact
///    records the comparison as `one_shard_identity`.
/// 2. **An outage stalls only the rows it homes.** The same shard-0
///    outage window is injected at every shard count; at 1 shard it is
///    a full-plane outage, at 4 shards it blocks only a quarter of the
///    rows, so ROG stall residency at 4 shards must be strictly below
///    the 1-shard run (`sharding_localizes_fault_stall`).
fn bench_shard(ctx: &Ctx) {
    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
    let mut base = matrix_base(ctx);
    base.seed = ctx.seed;
    let (dur, seed) = (base.duration_secs, base.seed);

    header(&format!(
        "Shard scaling: CRUDA outdoor, {dur:.0} virtual s, seed {seed}, shards {SHARD_COUNTS:?}"
    ));

    // (label, fault plan, loss model). The outage window always targets
    // shard 0, whatever the shard count — that is the point of the
    // comparison.
    let outage = FaultPlan::new().server_restart_on(0, dur * 0.30, dur * 0.55);
    let matrix = [
        ("clean", None, None),
        ("shard0-outage", Some(outage), None),
        ("ge-10", None, Some(LossConfig::gilbert_elliott(seed, 0.10))),
    ];
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
    configs.push(base);
    let mut runs = run_all(&configs);
    let unsharded = runs.pop().expect("identity control run");
    let one_shard_clean = &runs[0];
    let one_shard_identity = one_shard_clean.differences(&unsharded).is_empty();

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
    write_matrix(
        "shard",
        "shard_scaling_cruda_outdoor",
        dur,
        &[
            ("seed", seed.to_string()),
            ("one_shard_identity", one_shard_identity.to_string()),
            (
                "shard_fault_stall_secs",
                format!(
                    "{{\"1\": {}, \"4\": {}}}",
                    json_f64(stall_1),
                    json_f64(stall_4)
                ),
            ),
            ("sharding_localizes_fault_stall", localized.to_string()),
            ("cells", cells_json(&cells)),
        ],
    );

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

/// Fleet-scale benchmark: runs the CRUDA-outdoor ROG workload at
/// hundreds of workers, flat and through an edge-aggregator tier, and
/// writes `BENCH_fleet.json`.
///
/// Two claims are quantified:
///
/// 1. **The engine sustains fleet-scale worker counts.** Every cell
///    reports simulation progress as *sim-events per virtual second*
///    and the peak heap footprint of the sharded version store — both
///    deterministic functions of the config and seed.
/// 2. **Aggregation compresses upstream traffic.** Hierarchical cells
///    record merged vs raw row counts; the merge ratio must be ≤ 1.
///
/// Every cell is run twice and the two outcomes are asserted
/// byte-identical (`double_run_identity`).
fn bench_fleet(ctx: &Ctx) {
    const N_SHARDS: usize = 4;
    let dur = ctx.duration(120.0, 30.0);
    let fleet_sizes: &[usize] = if ctx.quick { &[16, 64] } else { &[64, 256] };
    let agg_counts: &[usize] = &[0, 8];
    let seed = ctx.seed;
    // Paper-scale dataset: a fleet larger than the Small dataset's 150
    // samples could not give every worker a non-empty data shard.
    let base = ExperimentConfig {
        model_scale: ModelScale::Paper,
        n_shards: N_SHARDS,
        eval_every: 20,
        seed,
        ..cruda_outdoor(Strategy::Rog { threshold: 4 }, dur)
    };

    header(&format!(
        "Fleet scaling: CRUDA outdoor, {dur:.0} virtual s, seed {seed}, \
         workers {fleet_sizes:?}, shards {N_SHARDS}, aggregators {agg_counts:?}"
    ));

    let mut labels: Vec<(usize, usize)> = Vec::new();
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for &workers in fleet_sizes {
        for &aggs in agg_counts {
            labels.push((workers, aggs));
            // Every cell twice: the pair must be byte-identical.
            for _ in 0..2 {
                configs.push(ExperimentConfig {
                    n_workers: workers,
                    n_aggregators: aggs,
                    ..base.clone()
                });
            }
        }
    }
    let outcomes = run_outcomes(&configs);
    let mut cells: Vec<RunOutcome> = Vec::new();
    let mut double_run_identity = true;
    for pair in outcomes.chunks(2) {
        double_run_identity &= pair[0].stats == pair[1].stats
            && pair[0].metrics.differences(&pair[1].metrics).is_empty();
        cells.push(pair[0].clone());
    }

    println!(
        "{:>8} {:>5} {:>12} {:>14} {:>12} {:>12} {:>8}",
        "workers", "aggs", "sim_events", "ev/virt_sec", "peak_ver_B", "agg_rows", "iters"
    );
    for ((workers, aggs), out) in labels.iter().zip(&cells) {
        let st = &out.stats;
        println!(
            "{workers:>8} {aggs:>5} {:>12} {:>14.0} {:>12} {:>12} {:>8.1}",
            st.sim_events,
            st.sim_events as f64 / dur,
            st.peak_version_bytes,
            st.agg_upstream_rows,
            out.metrics.mean_iterations,
        );
    }

    // Aggregation must never *expand* upstream traffic: merged rows are
    // a dedup of the raw member rows absorbed in each window.
    let merge_ok = cells
        .iter()
        .all(|o| o.stats.agg_upstream_rows <= o.stats.agg_raw_rows);
    println!(
        "\ndouble-run identity: {}",
        if double_run_identity {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    let rows: Vec<JsonCell> = labels
        .iter()
        .zip(&cells)
        .map(|((workers, aggs), out)| {
            let (m, st) = (&out.metrics, &out.stats);
            JsonCell::new()
                .raw("workers", workers)
                .raw("aggregators", aggs)
                .text("name", &m.name)
                .raw("sim_events", st.sim_events)
                .num("sim_events_per_virtual_sec", st.sim_events as f64 / dur)
                .raw("queue_scheduled", st.queue_scheduled)
                .raw("peak_version_bytes", st.peak_version_bytes)
                .raw("agg_flushes", st.agg_flushes)
                .raw("agg_upstream_rows", st.agg_upstream_rows)
                .raw("agg_raw_rows", st.agg_raw_rows)
                .raw("agg_pulls", st.agg_pulls)
                .num("mean_iterations", m.mean_iterations)
                .num("stall_secs", m.stall_secs)
        })
        .collect();
    write_matrix(
        "fleet",
        "fleet_scaling_cruda_outdoor",
        dur,
        &[
            ("seed", seed.to_string()),
            ("shards", N_SHARDS.to_string()),
            ("double_run_identity", double_run_identity.to_string()),
            ("merge_never_expands", merge_ok.to_string()),
            ("cells", cells_json(&rows)),
        ],
    );

    assert!(
        double_run_identity,
        "every fleet cell must be byte-identical across two runs of the same config"
    );
    assert!(
        merge_ok,
        "aggregator merge windows must not forward more rows than they absorbed"
    );
}

/// Sync-model shootout: runs every synchronization strategy the
/// trainer knows — BSP, SSP, ASP, FLOWN, DSSP, ABS, static ROG and the
/// adaptive-bound ROG hybrid — through a clean / bursty-loss /
/// worker-churn / outdoor scenario matrix and writes `BENCH_sync.json`.
///
/// The artifact ranks the models per scenario by mean iterations
/// completed, so a regression in any one model's throughput (or an
/// adaptation controller that stops adapting) shows up as a rank flip
/// in review.
fn bench_sync(ctx: &Ctx) {
    // The six-model spectrum plus the adaptive-bound hybrid. Bound
    // ranges are part of the run name (`DSSP-1..8`), so every row of the
    // matrix is distinguishable in the artifact.
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
    // Every cell sets its own environment and strategy.
    let mut base = matrix_base(ctx);
    base.seed = ctx.seed;
    let (dur, seed) = (base.duration_secs, base.seed);

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

    // (label, environment, fault plan, loss model).
    let churn = FaultPlan::new().worker_offline(1, dur * 0.30, dur * 0.55);
    let matrix = [
        ("clean", Environment::Stable, None, None),
        (
            "ge-10",
            Environment::Stable,
            None,
            Some(LossConfig::gilbert_elliott(seed, 0.10)),
        ),
        ("churn", Environment::Stable, Some(churn), None),
        ("outdoor", Environment::Outdoor, None, None),
    ];
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
    let mut rankings: Vec<(&str, Vec<String>)> = Vec::new();
    for (scenario, _, _, _) in &matrix {
        let mut cells: Vec<(&String, f64)> = labels
            .iter()
            .zip(&runs)
            .filter(|((s, _), _)| s == scenario)
            .map(|((_, m), r)| (m, r.mean_iterations))
            .collect();
        cells.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite iteration counts"));
        rankings.push((
            *scenario,
            cells.into_iter().map(|(m, _)| m.clone()).collect(),
        ));
    }
    for (scenario, order) in &rankings {
        println!("{scenario}: {}", order.join(" > "));
    }

    let quoted = |items: &[String]| {
        items
            .iter()
            .map(|n| format!("{n:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rank_rows: Vec<String> = rankings
        .iter()
        .map(|(scenario, order)| format!("    {scenario:?}: [{}]", quoted(order)))
        .collect();
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
    write_matrix(
        "sync",
        "sync_model_shootout_cruda",
        dur,
        &[
            ("seed", seed.to_string()),
            ("models", format!("[{}]", quoted(&names))),
            ("rankings", format!("{{\n{}\n  }}", rank_rows.join(",\n"))),
            ("cells", cells_json(&cells)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_command, CliCommand};

    #[test]
    fn quick_picks_the_short_duration() {
        assert_eq!(Ctx::default().duration(100.0, 10.0), 100.0);
        let quick = Ctx {
            quick: true,
            ..Ctx::default()
        };
        assert_eq!(quick.duration(100.0, 10.0), 10.0);
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn every_experiment_name_parses() {
        let quick_seed_2 = Ctx {
            quick: true,
            seed: 2,
        };
        for &(name, _) in EXPERIMENTS {
            for (flags, ctx) in [("", Ctx::default()), ("--quick --seed 2", quick_seed_2)] {
                let args: Vec<String> = format!("figure {name} {flags}")
                    .split_whitespace()
                    .map(String::from)
                    .collect();
                assert_eq!(parse_command(&args), Ok(CliCommand::Figure { name, ctx }));
            }
        }
    }
}
