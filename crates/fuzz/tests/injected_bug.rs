//! Meta-test: the harness must catch a real, deliberately injected
//! engine bug and shrink it to a tiny repro.
//!
//! The injection widens the RSP cross-row pull gate
//! (`rog_core::gate::testhooks::set_gate_slack`) by a few iterations —
//! a genuine staleness-contract violation in the one predicate the
//! engine, the parameter server and the test suites share. The
//! engine's independent debug-build watchdog (`pushed iter ≤ min +
//! bound`) and the checker's journal-level gate-lead invariant both
//! observe the widened gate, so the differential check must flag
//! scenarios whose gate actually engages.
//!
//! The gate-slack hook is process-global, so this file holds exactly
//! one `#[test]` — it must not share a binary with clean-gate tests.

use rog_core::gate::testhooks;
use rog_fuzz::{check_scenario, shrink, Scenario, ScenarioGen};
use rog_trainer::Strategy;

/// Scenario draws to scan for one whose gate engages under the bug.
const SEARCH_BUDGET: u64 = 48;
/// Differential checks the shrinker may spend.
const SHRINK_BUDGET: usize = 150;

#[test]
fn harness_catches_and_shrinks_an_injected_gate_bug() {
    // Widen the pull gate by 3 iterations. Production code never sets
    // this; every replay below runs the buggy gate.
    testhooks::set_gate_slack(3);

    // The fuzzer, unmodified, must find the bug: scan generated
    // scenarios until one fails. Only ROG scenarios exercise the
    // row-granular pull gate, and a gate that never blocks (threshold
    // above the natural worker spread) cannot witness the slack, so
    // not every draw fails — that is exactly why the fuzzer scans.
    let gen = ScenarioGen::new(0xb06).max_duration(30.0);
    let mut caught: Option<(Scenario, Vec<String>)> = None;
    for index in 0..SEARCH_BUDGET {
        let sc = gen.scenario(index);
        if !matches!(sc.strategy, Strategy::Rog { .. }) {
            continue;
        }
        let out = check_scenario(&sc);
        if !out.passed() {
            let kinds = out.violations.iter().map(|v| v.kind().to_owned()).collect();
            caught = Some((sc, kinds));
            break;
        }
    }
    let (sc, kinds) = caught.unwrap_or_else(|| {
        testhooks::set_gate_slack(0);
        panic!("no scenario in {SEARCH_BUDGET} draws caught the injected gate bug")
    });
    assert!(
        kinds
            .iter()
            .any(|k| k == "engine_panic" || k == "staleness_exceeded"),
        "the injected gate bug must surface as a staleness violation, got {kinds:?}"
    );

    // Shrink it. The bug lives in the gate itself, not in any fault
    // window, so the minimizer should strip the scenario to (nearly)
    // nothing — the issue demands a ≤ 5-line fault script.
    let shrunk = shrink(&sc, SHRINK_BUDGET);
    assert!(
        !shrunk.violations.is_empty(),
        "shrinking lost the failure (replays: {})",
        shrunk.replays
    );
    assert!(
        shrunk.scenario.script_lines() <= 5,
        "shrunk repro still has {} fault lines:\n{}",
        shrunk.scenario.script_lines(),
        shrunk.scenario.to_repro()
    );
    assert!(
        shrunk.scenario.script_lines() <= sc.script_lines(),
        "shrinking grew the script"
    );

    // The minimal repro round-trips through the exchange format.
    let repro = shrunk.scenario.to_repro();
    assert_eq!(
        Scenario::parse(&repro).expect("repro parses"),
        shrunk.scenario
    );

    // Control: with the injection removed the very same minimal
    // scenario is green — the harness flagged the injected bug, not a
    // latent real one. (If this fails, the fuzzer just found a genuine
    // engine bug; replay the printed repro.)
    testhooks::set_gate_slack(0);
    let clean = check_scenario(&shrunk.scenario);
    assert!(
        clean.passed(),
        "minimal scenario fails even without the injected bug — real bug?\n{repro}\n{:?}",
        clean.violations
    );
}
