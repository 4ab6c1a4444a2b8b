//! Cross-model gate conformance suite.
//!
//! Every synchronization strategy the trainer knows must sit where the
//! staleness spectrum says it sits:
//!
//! * **BSP ≡ SSP-0** — the bulk-synchronous barrier is the zero-slack
//!   SSP gate, byte-for-byte (metrics and journal, modulo the run
//!   name).
//! * **ASP is the unbounded SSP limit** — an SSP gate that can never
//!   bind replays exactly as ASP.
//! * **Monotonicity** — widening any staleness bound (or an adaptive
//!   model's bound *range*) never increases stall residency.
//! * **Instantaneous bounds** — every `gate_enter` in every journal
//!   respects the bound in force at that instant: static for BSP, SSP
//!   and ROG, replayed from `threshold_adapt` / `auto_threshold`
//!   events for DSSP, ABS and the adaptive-bound ROG hybrid.
//! * **Adaptation is live** — the adaptive controllers demonstrably
//!   move their bounds in the scenarios built to provoke them (a
//!   controller that silently stops adapting degrades into plain SSP
//!   and this suite catches it).

mod common;

use common::{scenario_matrix, small_cluster_cfg};
use rog::fuzz::replay_staleness;
use rog::obs::Record;
use rog::prelude::*;
use rog::trainer::report::runs_to_json;

fn traced(cfg: &ExperimentConfig) -> (RunMetrics, String) {
    let out = cfg.options().traced(true).run();
    (out.metrics, out.journal.expect("traced run").to_jsonl())
}

fn short(strategy: Strategy) -> ExperimentConfig {
    ExperimentConfig {
        duration_secs: 60.0,
        ..small_cluster_cfg(strategy)
    }
}

/// Asserts two runs are byte-identical once the run name (which
/// legitimately differs between strategy labels) is normalized away —
/// serialized report and event journal included.
fn assert_twin_runs(a: &(RunMetrics, String), b: &(RunMetrics, String), what: &str) {
    let (am, aj) = a;
    let (bm, bj) = b;
    let a_json = runs_to_json(std::slice::from_ref(am)).replace(&am.name, "TWIN");
    let b_json = runs_to_json(std::slice::from_ref(bm)).replace(&bm.name, "TWIN");
    assert_eq!(a_json, b_json, "{what}: serialized reports differ");
    assert_eq!(
        aj.replace(&am.name, "TWIN"),
        bj.replace(&bm.name, "TWIN"),
        "{what}: journals differ"
    );
}

#[test]
fn bsp_is_ssp_zero_modulo_run_name() {
    for env in [Environment::Stable, Environment::Outdoor] {
        let bsp = traced(&ExperimentConfig {
            environment: env,
            ..short(Strategy::Bsp)
        });
        let ssp0 = traced(&ExperimentConfig {
            environment: env,
            ..short(Strategy::Ssp { threshold: 0 })
        });
        assert_twin_runs(&bsp, &ssp0, &format!("BSP vs SSP-0 ({})", env.name()));
    }
}

#[test]
fn asp_is_the_unbounded_ssp_limit() {
    // ASP's gate threshold is literally `u32::MAX`, so
    // the composition SSP-huge → ASP must be exact, not approximate.
    let asp = traced(&short(Strategy::Asp));
    let ssp_huge = traced(&short(Strategy::Ssp {
        threshold: u32::MAX,
    }));
    assert_twin_runs(&asp, &ssp_huge, "ASP vs SSP-u32::MAX");
}

#[test]
fn widening_a_bound_never_increases_stall() {
    // Each family is a list of configs ordered from the tightest bound
    // to the widest; stall residency must be non-increasing along it.
    // Outdoor fades make the gates bind; loss drives the hybrid; a
    // laptop worker skews DSSP's per-worker iteration rates.
    let outdoor = |strategy| ExperimentConfig {
        environment: Environment::Outdoor,
        ..short(strategy)
    };
    let lossy = |strategy| {
        let mut cfg = short(strategy);
        cfg.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
        cfg
    };
    let hetero = |strategy| ExperimentConfig {
        n_laptop_workers: 1,
        ..outdoor(strategy)
    };
    let families: Vec<(&str, Vec<ExperimentConfig>)> = vec![
        (
            "ssp 0/2/8 outdoor",
            [0, 2, 8]
                .map(|threshold| outdoor(Strategy::Ssp { threshold }))
                .to_vec(),
        ),
        (
            "rog 1/4/8 outdoor",
            [1, 4, 8]
                .map(|threshold| outdoor(Strategy::Rog { threshold }))
                .to_vec(),
        ),
        (
            "dssp 1..1 / 1..8 hetero outdoor",
            [1, 8]
                .map(|hi| {
                    hetero(Strategy::Dssp {
                        min_threshold: 1,
                        max_threshold: hi,
                    })
                })
                .to_vec(),
        ),
        (
            "abs 1..1 / 1..8 outdoor",
            [1, 8]
                .map(|hi| {
                    outdoor(Strategy::Abs {
                        min_threshold: 1,
                        max_threshold: hi,
                    })
                })
                .to_vec(),
        ),
        (
            "roga 1..1 / 1..8 lossy",
            [1, 8]
                .map(|hi| {
                    lossy(Strategy::RogAdaptive {
                        min_threshold: 1,
                        max_threshold: hi,
                    })
                })
                .to_vec(),
        ),
    ];
    for (family, configs) in families {
        let mut prev: Option<(String, f64)> = None;
        for cfg in configs {
            let (m, _) = traced(&cfg);
            if let Some((prev_name, prev_stall)) = &prev {
                assert!(
                    m.stall_secs <= prev_stall + common::EPS,
                    "{family}: widening {prev_name} -> {} raised stall {prev_stall} -> {}",
                    m.name,
                    m.stall_secs
                );
            }
            prev = Some((m.name.clone(), m.stall_secs));
        }
    }
}

#[test]
fn every_gate_enter_respects_the_instantaneous_bound() {
    let lossy = |strategy| {
        let mut cfg = short(strategy);
        cfg.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
        cfg
    };
    let scenarios: Vec<(&str, ExperimentConfig)> = vec![
        ("bsp", short(Strategy::Bsp)),
        ("ssp2", short(Strategy::Ssp { threshold: 2 })),
        (
            "dssp hetero",
            ExperimentConfig {
                n_laptop_workers: 1,
                environment: Environment::Outdoor,
                ..short(Strategy::Dssp {
                    min_threshold: 1,
                    max_threshold: 8,
                })
            },
        ),
        (
            "abs outdoor",
            ExperimentConfig {
                environment: Environment::Outdoor,
                ..short(Strategy::Abs {
                    min_threshold: 1,
                    max_threshold: 8,
                })
            },
        ),
        ("rog4", short(Strategy::Rog { threshold: 4 })),
        (
            "roga lossy",
            lossy(Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
    ];
    for (what, cfg) in scenarios {
        let (_, journal) = traced(&cfg);
        let gates =
            replay_staleness(cfg.strategy, &journal).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(gates > 0, "{what}: journal recorded no gate_enter events");
    }
}

#[test]
fn adaptive_controllers_demonstrably_adapt() {
    // DSSP: a laptop worker skews per-worker iteration rates, so some
    // worker must be granted more slack than the floor.
    let (_, journal) = traced(&ExperimentConfig {
        n_laptop_workers: 1,
        environment: Environment::Outdoor,
        ..short(Strategy::Dssp {
            min_threshold: 1,
            max_threshold: 8,
        })
    });
    let widened = journal.lines().any(|l| {
        l.contains("\"ev\":\"threshold_adapt\"")
            && Record::parse(l)
                .ok()
                .and_then(|r| r.num("threshold"))
                .is_some_and(|t| t > 1.0)
    });
    assert!(widened, "DSSP never widened any worker's threshold");

    // ABS: outdoor fades produce stall pressure, so the uniform bound
    // must leave its floor at least once.
    let (_, journal) = traced(&ExperimentConfig {
        environment: Environment::Outdoor,
        ..short(Strategy::Abs {
            min_threshold: 1,
            max_threshold: 8,
        })
    });
    let widened = journal.lines().any(|l| {
        l.contains("\"ev\":\"threshold_adapt\"")
            && Record::parse(l)
                .ok()
                .and_then(|r| r.num("threshold"))
                .is_some_and(|t| t > 1.0)
    });
    assert!(widened, "ABS never widened its bound under stall pressure");

    // The hybrid: bursty loss raises the per-link loss EWMAs, so the
    // row bound must widen past its floor.
    let mut cfg = short(Strategy::RogAdaptive {
        min_threshold: 1,
        max_threshold: 8,
    });
    cfg.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
    let (_, journal) = traced(&cfg);
    let widened = journal.lines().any(|l| {
        l.contains("\"ev\":\"auto_threshold\"")
            && Record::parse(l)
                .ok()
                .and_then(|r| r.num("threshold"))
                .is_some_and(|t| t > 1.0)
    });
    assert!(widened, "the adaptive bound never widened under loss");
}

#[test]
fn matrix_run_names_are_distinct() {
    // Adaptive models encode their bound ranges in the strategy name,
    // so no two rows of any run matrix can collide.
    let names: Vec<String> = scenario_matrix()
        .into_iter()
        .map(|(_, cfg)| cfg.name())
        .collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "matrix names collide: {names:?}");

    let models = [
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
    let mut model_names: Vec<String> = models.iter().map(|m| m.name()).collect();
    model_names.sort();
    model_names.dedup();
    assert_eq!(model_names.len(), models.len());
}
