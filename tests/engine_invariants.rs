//! Engine-level invariants that must hold for every strategy and mode:
//! timeline conservation, energy consistency, throughput ordering.

mod common;

use rog::net::Trace;
use rog::obs::crc32;
use rog::prelude::*;
use rog::trainer::generated_trace;

fn base() -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Bsp,
        model_scale: ModelScale::Small,
        n_workers: 3,
        n_laptop_workers: 1,
        duration_secs: 240.0,
        eval_every: 10,
        seed: 11,
        ..ExperimentConfig::default()
    }
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Bsp,
        Strategy::Ssp { threshold: 4 },
        Strategy::Asp,
        Strategy::Flown {
            min_threshold: 2,
            max_threshold: 12,
        },
        Strategy::Rog { threshold: 4 },
    ]
}

#[test]
fn composition_times_are_conserved() {
    for strategy in all_strategies() {
        let m = ExperimentConfig { strategy, ..base() }
            .options()
            .run()
            .metrics;
        let c = m.composition;
        assert!(c.compute > 0.0, "{}", strategy.name());
        assert!(c.communicate > 0.0, "{}", strategy.name());
        assert!(c.stall >= 0.0, "{}", strategy.name());
        // Total busy time across workers cannot exceed workers × budget.
        let busy = c.total() * m.mean_iterations * 3.0;
        assert!(
            busy <= 3.0 * m.duration * 1.02,
            "{}: busy {busy} exceeds budget",
            strategy.name()
        );
    }
}

#[test]
fn energy_matches_composition_within_bounds() {
    // Cluster energy must sit between all-stall power and all-compute
    // power over the run (robot workers only: 2 of 3 here).
    for strategy in [Strategy::Bsp, Strategy::Rog { threshold: 4 }] {
        let m = ExperimentConfig { strategy, ..base() }
            .options()
            .run()
            .metrics;
        let robots = 2.0;
        let lo = 4.0 * m.duration * robots; // below stall power floor
        let hi = 13.35 * m.duration * robots * 1.01;
        assert!(
            m.total_energy_j > lo && m.total_energy_j < hi,
            "{}: energy {} outside [{lo}, {hi}]",
            strategy.name(),
            m.total_energy_j
        );
    }
}

#[test]
fn asp_never_stalls_and_outpaces_bsp() {
    let bsp = base().options().run().metrics;
    let asp = ExperimentConfig {
        strategy: Strategy::Asp,
        ..base()
    }
    .options()
    .run()
    .metrics;
    assert!(
        asp.composition.stall < 0.05,
        "ASP must not stall: {}",
        asp.composition.stall
    );
    assert!(
        asp.mean_iterations >= bsp.mean_iterations,
        "ASP {} !>= BSP {}",
        asp.mean_iterations,
        bsp.mean_iterations
    );
}

#[test]
fn throughput_ordering_matches_gate_tightness() {
    // Looser gates can only help throughput: BSP <= SSP-4 <= SSP-20.
    let run = |s| {
        ExperimentConfig {
            strategy: s,
            ..base()
        }
        .options()
        .run()
        .metrics
        .mean_iterations
    };
    let bsp = run(Strategy::Bsp);
    let ssp4 = run(Strategy::Ssp { threshold: 4 });
    let ssp20 = run(Strategy::Ssp { threshold: 20 });
    assert!(bsp <= ssp4 + 1.0, "BSP {bsp} vs SSP-4 {ssp4}");
    assert!(ssp4 <= ssp20 + 1.0, "SSP-4 {ssp4} vs SSP-20 {ssp20}");
}

#[test]
fn rog_throughput_rises_with_threshold() {
    let run = |t| {
        ExperimentConfig {
            strategy: Strategy::Rog { threshold: t },
            ..base()
        }
        .options()
        .run()
        .metrics
        .mean_iterations
    };
    let r4 = run(4);
    let r20 = run(20);
    assert!(r4 <= r20 + 1.0, "ROG-4 {r4} vs ROG-20 {r20}");
}

#[test]
fn checkpoint_energy_is_monotonic_everywhere() {
    for strategy in all_strategies() {
        let m = ExperimentConfig { strategy, ..base() }
            .options()
            .run()
            .metrics;
        common::assert_checkpoints_monotone(&m, &strategy.name());
    }
}

#[test]
fn model_divergence_is_bounded_by_the_gate() {
    // Lockstep (BSP) keeps replicas near-identical; bounded staleness
    // keeps divergence small relative to the model norm; ASP may drift
    // further but must not explode on a short run.
    let div = |s| {
        ExperimentConfig {
            strategy: s,
            ..base()
        }
        .options()
        .run()
        .metrics
        .final_model_divergence
    };
    let bsp = div(Strategy::Bsp);
    let rog = div(Strategy::Rog { threshold: 4 });
    let asp = div(Strategy::Asp);
    assert!(bsp < 0.05, "BSP replicas should track closely: {bsp}");
    assert!(rog < 0.25, "ROG divergence should be bounded: {rog}");
    assert!(asp < 1.0, "ASP should not explode on a short run: {asp}");
    assert!(bsp <= rog + 0.05, "BSP {bsp} vs ROG {rog}");
}

/// Every model-granularity baseline on four workers outdoors, under
/// 10 % burst loss, a worker outage, a link blackout and a server
/// restart, pinned bit for bit: the CRC-32 of the JSONL journal, a
/// CRC-32 over the bits of every checkpoint metric, and the bits of
/// `final_model_divergence`. The constants were taken from the engine
/// that kept its own per-worker pending copies, pull residuals and
/// version vector, so they hold the parameter plane to that engine's
/// arithmetic on every fault path.
#[test]
fn faulted_lossy_baselines_are_pinned_bit_for_bit() {
    const PINNED: [(&str, u32, u32, u64); 6] = [
        ("BSP", 0x33B7_7417, 0xF56B_ED58, 0x3F8C_D83E_0BD4_814C),
        ("SSP-4", 0xBEC4_1E5D, 0x621A_D0D6, 0x3F95_86CB_5421_CCE8),
        ("ASP", 0x185A_2300, 0xA122_3436, 0x3F99_55DA_B436_8034),
        ("FLOWN", 0x8E7D_9C70, 0x2C3E_22FD, 0x3F87_4F61_0980_653E),
        ("DSSP-1..8", 0x4100_603E, 0x00EC_FF98, 0x3F90_968C_7784_83D8),
        ("ABS-1..8", 0xD8B9_B2B5, 0xFDCF_B50A, 0x3F96_016B_D36D_657B),
    ];
    let strategies = [
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
    ];
    let plan = FaultPlan::new()
        .worker_offline(2, 150.0, 330.0)
        .link_blackout(1, 240.0, 300.0)
        .server_restart(500.0, 560.0);
    let got: Vec<(String, u32, u32, u64)> = strategies
        .into_iter()
        .map(|strategy| {
            let mut cfg = ExperimentConfig {
                strategy,
                n_workers: 4,
                n_laptop_workers: 0,
                duration_secs: 900.0,
                eval_every: 2,
                fault_plan: Some(plan.clone()),
                ..base()
            };
            cfg.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
            let out = cfg.options().traced(true).run();
            assert_eq!(out.stats.nonfinite_dropped, 0, "{}", strategy.name());
            let m = &out.metrics;
            assert!(!m.checkpoints.is_empty(), "{}", strategy.name());
            let metric_bits: Vec<u8> = m
                .checkpoints
                .iter()
                .flat_map(|c| c.metric.to_bits().to_le_bytes())
                .collect();
            let jsonl = out.journal.expect("traced run").to_jsonl();
            (
                strategy.name(),
                crc32(jsonl.as_bytes()),
                crc32(&metric_bits),
                m.final_model_divergence.to_bits(),
            )
        })
        .collect();
    let want: Vec<(String, u32, u32, u64)> = PINNED
        .iter()
        .map(|&(name, j, c, d)| (name.to_owned(), j, c, d))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn conv_workload_runs_distributed() {
    let m = ExperimentConfig {
        workload: WorkloadKind::CrudaConv,
        strategy: Strategy::Rog { threshold: 4 },
        ..base()
    }
    .options()
    .run()
    .metrics;
    assert!(m.mean_iterations > 5.0);
    assert!(!m.checkpoints.is_empty());
}

#[test]
fn replayed_traces_reproduce_generated_runs() {
    // The artifact path as an integration test (the full binary does
    // this at paper scale).
    use rog::net::io;
    let cfg = base();
    let reference = cfg.options().run().metrics;
    // Regenerate the same traces the cluster builder derives.
    let profile = cfg.environment.profile();
    let (seed, len) = generated_trace(&cfg, None);
    let capacity = profile.generate(seed, len);
    let links: Vec<Trace> = (0..3)
        .map(|w| {
            let (seed, len) = generated_trace(&cfg, Some((w, 0)));
            profile.generate_link(seed, len)
        })
        .collect();
    // CSV round trip.
    let capacity = io::trace_from_csv(&io::trace_to_csv(&capacity)).expect("parses");
    let links: Vec<Trace> = links
        .iter()
        .map(|l| io::trace_from_csv(&io::trace_to_csv(l)).expect("parses"))
        .collect();
    let replayed = ExperimentConfig {
        capacity_trace: Some(capacity),
        link_traces: Some(links),
        ..cfg
    }
    .options()
    .run()
    .metrics;
    assert_eq!(replayed.checkpoints, reference.checkpoints);
    assert_eq!(replayed.mean_iterations, reference.mean_iterations);
}
