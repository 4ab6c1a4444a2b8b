//! Cross-crate robustness invariants of the fault-injection subsystem,
//! exercised end-to-end through the `rog` facade: the empty plan is
//! byte-free, faulted runs repeat run to run, and dynamic
//! membership (ROG) beats static membership (BSP) under churn.

mod common;

use common::small_cluster_cfg as base;
use rog::prelude::*;
use rog::trainer::report::runs_to_json;

/// The zero-cost-when-unused guarantee, checked at the serialized-run
/// level: a run with an explicitly empty `FaultPlan` must produce the
/// exact same JSON as a run with no plan at all.
#[test]
fn empty_fault_plan_is_byte_identical_at_the_json_level() {
    let no_plan = base(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut cfg = base(Strategy::Rog { threshold: 4 });
    cfg.fault_plan = Some(FaultPlan::new());
    let empty_plan = cfg.options().run().metrics;
    assert_eq!(
        runs_to_json(std::slice::from_ref(&no_plan)),
        runs_to_json(std::slice::from_ref(&empty_plan))
    );
}

/// A faulted run (departure + resync + blackout) must repeat
/// bit-identically, like every fault-free run.
#[test]
fn faulted_runs_are_deterministic() {
    let mut cfg = base(Strategy::Rog { threshold: 4 });
    cfg.fault_plan = Some(
        FaultPlan::new()
            .worker_offline(1, 30.0, 70.0)
            .link_blackout(0, 90.0, 100.0),
    );
    let first = cfg.options().run().metrics;
    let again = cfg.options().run().metrics;
    common::assert_identical_runs(&first, &again, "faulted run, replay");
}

/// The robustness headline: under the same 60 s worker outage, ROG's
/// dynamic membership keeps the survivor training with bounded stall,
/// while BSP's static barrier blocks it for the whole outage.
#[test]
fn dynamic_membership_beats_static_membership_under_churn() {
    let plan = FaultPlan::new().worker_offline(1, 30.0, 90.0);
    let fault_free = base(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut rog_cfg = base(Strategy::Rog { threshold: 4 });
    rog_cfg.fault_plan = Some(plan.clone());
    let rog_run = rog_cfg.options().run().metrics;
    let mut bsp_cfg = base(Strategy::Bsp);
    bsp_cfg.fault_plan = Some(plan);
    let bsp_run = bsp_cfg.options().run().metrics;
    assert!(
        rog_run.mean_iterations > fault_free.mean_iterations * 0.6,
        "ROG under churn {} vs fault-free {}",
        rog_run.mean_iterations,
        fault_free.mean_iterations
    );
    assert!(
        rog_run.stall_secs < bsp_run.stall_secs,
        "ROG stalled {} s, BSP {} s",
        rog_run.stall_secs,
        bsp_run.stall_secs
    );
    assert!(
        bsp_run.stall_secs > 40.0,
        "BSP should block for most of the 60 s outage, stalled {} s",
        bsp_run.stall_secs
    );
}

/// Worker 3 leaves twice, and its first rejoin resync (about 99 s in
/// an outdoor fade) is still on the air when the second outage starts.
/// The departure cuts that resync and the second return starts the one
/// resync that lands: two resyncs landing on one rejoin used to drive
/// one shard leg twice and panic. `bench_fault`'s churn cell.
#[test]
fn a_departure_during_a_rejoin_resync_cuts_it_and_one_resync_lands() {
    use rog::obs::EventKind;
    let plan = FaultPlan::new()
        .worker_offline(3, 349.54, 357.54)
        .worker_offline(3, 405.72, 413.72);
    let (rog, roga) = (
        Strategy::Rog { threshold: 4 },
        Strategy::RogAdaptive {
            min_threshold: 1,
            max_threshold: 8,
        },
    );
    for (strategy, shards, aggregators) in [(rog, 1, 0), (roga, 1, 0), (rog, 2, 2)] {
        let cfg = ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Outdoor,
            strategy,
            duration_secs: 600.0,
            eval_every: 10,
            n_shards: shards,
            n_aggregators: aggregators,
            fault_plan: Some(plan.clone()),
            ..ExperimentConfig::default()
        };
        let out = cfg.options().traced(true).run();
        let journal = out.journal.expect("traced run");
        let resyncs = |start: bool| -> Vec<f64> {
            journal
                .events()
                .filter(|e| match e.kind {
                    EventKind::ResyncStart { w, .. } => start && w == 3,
                    EventKind::ResyncEnd { w, .. } => !start && w == 3,
                    _ => false,
                })
                .map(|e| e.t)
                .collect()
        };
        let name = cfg.name();
        assert_eq!(resyncs(true), vec![357.54, 413.72], "{name}");
        let ends = resyncs(false);
        assert!(ends.len() == 1 && ends[0] > 413.72, "{name}: {ends:?}");
    }
}

/// A reliable retransmit fires when its own backoff runs out. Worker
/// 1's link blinks out for 50 ms every 1.3 s under 40 % loss, so a
/// blink often cuts a BSP transfer while its backoff runs, and the
/// next transfer arms a shorter one: the timer the blink voided is
/// still queued and outlives the new one. Every reliable `retransmit`
/// of a worker must come at the `until` of its latest `backoff`; a
/// voided timer firing in place of the re-armed one put it at the old
/// backoff's end, past the journaled one.
#[test]
fn a_voided_backoff_timer_never_fires_in_place_of_the_rearmed_one() {
    use rog::obs::EventKind;
    let mut plan = FaultPlan::new();
    for i in 0..31 {
        let hundredths = 2000 + 130 * i;
        let at = |dt| f64::from(hundredths + dt) / 100.0;
        plan = plan.link_blackout(1, at(0), at(5));
    }
    let cfg = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Bsp,
        n_workers: 4,
        duration_secs: 60.0,
        seed: 1,
        loss: Some(LossConfig::iid(1, 0.4)),
        fault_plan: Some(plan),
        ..ExperimentConfig::default()
    };
    let journal = cfg
        .options()
        .traced(true)
        .run()
        .journal
        .expect("traced run");
    // Per worker: the `until` of the backoff still running, and of the
    // last one a blink voided.
    let mut running = vec![None; cfg.n_workers];
    let mut voided = vec![None; cfg.n_workers];
    let (mut retransmits, mut outlived) = (0, 0);
    for e in journal.events() {
        match e.kind {
            EventKind::Backoff { w, until } => {
                let w = w as usize;
                if voided[w].is_some_and(|v| v > until) {
                    outlived += 1;
                }
                running[w] = Some(until);
            }
            EventKind::Retransmit {
                w,
                class: "reliable",
                ..
            } => {
                let due = running[w as usize].take();
                assert_eq!(Some(e.t), due, "worker {w} retransmits off its backoff");
                retransmits += 1;
            }
            EventKind::Fault {
                kind: "blackout_start",
                w,
            } => voided[w as usize] = running[w as usize].take(),
            _ => {}
        }
    }
    assert!(retransmits > 50, "{retransmits} retransmits");
    assert!(outlived > 0, "no voided timer outlived a re-armed one");
}

/// A compute timer fires for the computation that armed it. Worker 1
/// departs 10 ms into its first computation and is back, resynced, at
/// about 0.19 s; its new computation then ends before the voided one
/// would have. A voided timer firing in place of the re-armed one
/// stretched that computation to the old timer's end. The same
/// computation, drawn after an outage that outlasts the voided timer,
/// is the reference: both are the worker's second draw.
#[test]
fn a_voided_compute_timer_never_fires_in_place_of_the_rearmed_one() {
    use rog::obs::{EventKind, Journal};
    // The length of worker 1's first computation after its rejoin.
    let rejoined_compute = |seed: u64, back: f64| -> f64 {
        let cfg = ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: Environment::Stable,
            strategy: Strategy::Bsp,
            n_workers: 2,
            n_laptop_workers: 0,
            batch_scale: 4.0,
            duration_secs: 40.0,
            seed,
            fault_plan: Some(FaultPlan::new().worker_offline(1, 0.01, back)),
            ..ExperimentConfig::default()
        };
        let journal: Journal = cfg.options().traced(true).run().journal.expect("traced");
        let mut rejoined = false;
        let mut started = None;
        for e in journal.events() {
            match e.kind {
                EventKind::ResyncEnd { w: 1, .. } => rejoined = true,
                EventKind::State { w: 1, state } if rejoined => match started {
                    None if state == "compute" => started = Some(e.t),
                    Some(t) => return e.t - t,
                    None => {}
                },
                _ => {}
            }
        }
        panic!("seed {seed}: worker 1 never finished a computation after its rejoin")
    };
    for seed in [2, 6, 7, 9] {
        let (short, long) = (rejoined_compute(seed, 0.02), rejoined_compute(seed, 9.0));
        assert!(
            (short - long).abs() < 1e-9,
            "seed {seed}: {short} s vs {long} s"
        );
    }
}

/// Both window kinds report each refusal in their own words, checks in
/// order: a bad span before a bad rate before an overlap.
#[test]
fn window_refusals_keep_their_messages() {
    let plan = FaultPlan::new()
        .worker_offline(1, 10.0, 20.0)
        .link_loss(2, 10.0, 20.0, 0.5);
    let kind = rog::fault::FaultKind::WorkerOffline(1);
    let fault = |start, end| rog::fault::FaultWindow { kind, start, end };
    let loss = |start, end, rate| rog::fault::LossWindow {
        link: 2,
        start,
        end,
        rate,
    };
    let mut p = plan.clone();
    let mut refused = |w| p.try_push(w).unwrap_err().message().to_owned();
    assert_eq!(refused(fault(f64::NAN, 1.0)), "non-finite window [NaN, 1)");
    assert_eq!(refused(fault(-1.0, 1.0)), "window starts before t=0 (-1)");
    assert_eq!(refused(fault(3.0, 3.0)), "empty or inverted window [3, 3)");
    assert_eq!(
        refused(fault(15.0, 25.0)),
        "window [15, 25) overlaps [10, 20) of the same kind WorkerOffline(1)"
    );
    let mut p = plan;
    let mut refused = |w| p.try_push_loss(w).unwrap_err().message().to_owned();
    let inf = f64::INFINITY;
    assert_eq!(
        refused(loss(0.0, inf, 2.0)),
        "non-finite loss window [0, inf)"
    );
    assert_eq!(
        refused(loss(-2.0, 1.0, 0.5)),
        "loss window starts before t=0 (-2)"
    );
    assert_eq!(
        refused(loss(5.0, 4.0, 2.0)),
        "empty or inverted loss window [5, 4)"
    );
    assert_eq!(refused(loss(15.0, 25.0, 2.0)), "loss rate out of [0, 1]: 2");
    assert_eq!(
        refused(loss(15.0, 25.0, 0.5)),
        "loss window [15, 25) overlaps [10, 20) on link 2"
    );
}
