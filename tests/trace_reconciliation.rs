//! The event journal must reconcile with `RunMetrics`: a `TraceSummary`
//! rebuilds the run record's own `Timeline`s from the journal, so
//! `RunMetrics::reconcile` finds the two views *bitwise* equal; residency
//! sums conserve wall time within 1e-9, and turning tracing on never
//! perturbs the run.

mod common;

use common::{assert_identical_runs, small_cluster_cfg, EPS};
use rog::obs::TraceSummary;
use rog::prelude::*;
use rog::sim::DeviceState;

/// The scenario matrix: every strategy on the shared small cluster,
/// plus a faulted and a lossy variant exercising offline residency and
/// the loss/retransmit event paths.
fn scenarios() -> Vec<(&'static str, ExperimentConfig)> {
    let mut out: Vec<(&'static str, ExperimentConfig)> = vec![
        ("bsp", small_cluster_cfg(Strategy::Bsp)),
        ("ssp4", small_cluster_cfg(Strategy::Ssp { threshold: 4 })),
        ("asp", small_cluster_cfg(Strategy::Asp)),
        (
            "flown",
            small_cluster_cfg(Strategy::Flown {
                min_threshold: 2,
                max_threshold: 12,
            }),
        ),
        (
            "dssp",
            small_cluster_cfg(Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
        (
            "abs",
            small_cluster_cfg(Strategy::Abs {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
        ("rog4", small_cluster_cfg(Strategy::Rog { threshold: 4 })),
        (
            "roga",
            small_cluster_cfg(Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            }),
        ),
    ];
    let mut faulted = small_cluster_cfg(Strategy::Rog { threshold: 4 });
    faulted.fault_plan = Some(FaultPlan::new().worker_offline(1, 30.0, 90.0));
    out.push(("rog4+fault", faulted));
    let mut lossy = small_cluster_cfg(Strategy::Rog { threshold: 4 });
    lossy.loss = Some(LossConfig::gilbert_elliott(lossy.seed, 0.10));
    out.push(("rog4+loss", lossy));
    let mut lossy_roga = small_cluster_cfg(Strategy::RogAdaptive {
        min_threshold: 1,
        max_threshold: 8,
    });
    lossy_roga.loss = Some(LossConfig::gilbert_elliott(lossy_roga.seed, 0.10));
    out.push(("roga+loss", lossy_roga));
    out
}

#[test]
fn journal_composition_reconciles_bitwise_with_run_metrics() {
    for (name, cfg) in scenarios() {
        let out = cfg.options().traced(true).run();
        let (m, journal) = (out.metrics, out.journal.expect("traced run"));
        let s = TraceSummary::from_jsonl(&journal.to_jsonl())
            .unwrap_or_else(|e| panic!("{name}: journal does not parse: {e}"));
        let diffs = m.reconcile(&s);
        assert!(diffs.is_empty(), "{name}: {}", diffs.join("; "));
    }
}

#[test]
fn residency_conserves_wall_time() {
    for (name, cfg) in scenarios() {
        let out = cfg.options().traced(true).run();
        let (m, journal) = (out.metrics, out.journal.expect("traced run"));
        let s = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("parses");
        // Every device's five state residencies tile its whole timeline:
        // no gaps, so the sum covers at least the run duration.
        let mut total_wall = 0.0;
        for (w, tl) in &s.timelines {
            let sum: f64 = DeviceState::ALL.iter().map(|&st| tl.time_in(st)).sum();
            assert!(
                sum >= m.duration - EPS,
                "{name}: device {w} residency {sum} < duration {}",
                m.duration
            );
            total_wall += sum;
        }
        // Conservation: compute + communicate + stall + offline (the
        // per-iteration composition, scaled back up) plus idle equals
        // total wall time within 1e-9 per device.
        let busy: f64 = s.composition().iter().sum::<f64>() * s.iters as f64;
        let idle = s.cluster_residency(DeviceState::Idle);
        assert!(
            (busy + idle - total_wall).abs() < EPS * s.timelines.len() as f64,
            "{name}: busy {busy} + idle {idle} != wall {total_wall}"
        );
    }
}

#[test]
fn event_pairings_are_balanced() {
    for (name, cfg) in scenarios() {
        let journal = cfg
            .options()
            .traced(true)
            .run()
            .journal
            .expect("traced run");
        let s = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("parses");
        let n = |ev: &str| s.event_counts.get(ev).copied().unwrap_or(0);
        assert_eq!(n("gate_enter"), n("gate_exit"), "{name}: unpaired gate");
        assert_eq!(n("push_start"), n("push_end"), "{name}: unpaired push");
        assert_eq!(n("pull_start"), n("pull_end"), "{name}: unpaired pull");
        assert_eq!(
            n("iter_end"),
            s.iters,
            "{name}: iter_end count vs run_end total"
        );
        assert!(n("iter_begin") >= n("iter_end"), "{name}: begin < end");
        assert_eq!(n("meta"), 1, "{name}");
        assert_eq!(n("run_end"), 1, "{name}");
        assert_eq!(n("close") as usize, s.devices(), "{name}");
    }
}

#[test]
fn tracing_never_perturbs_the_run() {
    for strategy in [Strategy::Bsp, Strategy::Rog { threshold: 4 }] {
        let mut cfg = small_cluster_cfg(strategy);
        cfg.fault_plan = Some(FaultPlan::new().worker_offline(1, 30.0, 90.0));
        let plain = cfg.options().run().metrics;
        let out = cfg.options().traced(true).run();
        let (traced, journal) = (out.metrics, out.journal.expect("traced run"));
        assert!(!journal.to_jsonl().is_empty(), "journal must be non-empty");
        assert_identical_runs(&plain, &traced, "trace on vs off");
    }
}

/// Both checks name each field that disagrees, by its bits: `==` holds
/// between -0 and +0 (an empty residency sums to -0), they do not.
#[test]
fn the_checks_name_what_disagrees() {
    let mut cfg = small_cluster_cfg(Strategy::Rog { threshold: 4 });
    cfg.record_micro = true;
    let out = cfg.options().traced(true).run();
    let (m, journal) = (out.metrics, out.journal.expect("traced run"));
    let s = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("parses");
    let name = "a twin".to_owned();
    let mut other = RunMetrics { name, ..m.clone() };
    assert_eq!(m.differences(&other), Vec::<String>::new());
    other.offline_secs = -m.offline_secs;
    other.mean_iterations += 0.3;
    other.checkpoints[0].metric += 1.0;
    other.micro.pop();
    let diffs = m.differences(&other);
    let fields: Vec<&str> = diffs.iter().filter_map(|d| d.split(':').next()).collect();
    let want = ["checkpoints", "micro", "mean_iterations", "offline_secs"];
    assert_eq!(fields, want, "{diffs:?}");
    let diffs = other.reconcile(&s);
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    assert_eq!(diffs[0], "offline_secs: journal -0 vs metrics 0");
    assert!(
        diffs[1].starts_with("iterations: journal total"),
        "{diffs:?}"
    );
}

/// A `state` or `close` record its device's timeline cannot take —
/// before the open span, or at a non-finite time (`1e999` parses to
/// +inf) — is refused with its line, not dropped or summed.
#[test]
fn a_record_the_timeline_cannot_take_is_refused_with_its_line() {
    let open = "{\"t\":2.0,\"ev\":\"state\",\"w\":1,\"state\":\"compute\"}\n";
    assert!(TraceSummary::from_jsonl(open).is_ok());
    for t in ["1.0", "1e999", "-1e999"] {
        for (ev, rest) in [("state", ",\"state\":\"stall\""), ("close", "")] {
            let text = format!("{open}{{\"t\":{t},\"ev\":\"{ev}\",\"w\":1{rest}}}\n");
            let err = TraceSummary::from_jsonl(&text).unwrap_err();
            assert!(
                err.starts_with(&format!("line 2: {ev} at t=")),
                "{t}: {err}"
            );
        }
    }
}
