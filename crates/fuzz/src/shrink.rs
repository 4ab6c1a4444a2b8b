//! Greedy scenario minimization.
//!
//! Given a failing [`Scenario`], [`shrink`] searches for the smallest
//! scenario that still fails: it drops fault-script lines one at a
//! time, then clears whole dimensions (loss, aggregators, shards,
//! workers, duration), re-running the full differential check after
//! every candidate mutation and keeping only mutations that preserve
//! the failure. The passes repeat until a fixpoint (or the replay
//! budget runs out), so a line whose removal only becomes safe after
//! another knob clears is still dropped eventually.
//!
//! The result is exchanged as `.repro` text ([`Scenario::to_repro`]) —
//! config, seeds and the surviving script lines — which is exactly
//! what a regression-corpus entry or a bug report needs.

use crate::check::{check_scenario, Violation};
use crate::scenario::Scenario;

/// Outcome of a shrink search.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-failing scenario found.
    pub scenario: Scenario,
    /// Violations of that minimal scenario (empty only when the input
    /// scenario already passed — nothing to shrink).
    pub violations: Vec<Violation>,
    /// Differential checks spent, including the initial confirmation.
    pub replays: usize,
}

/// Shortest admissible duration for a shrunk scenario — twice the
/// generator's fault-free prefix, the same floor the generator obeys.
const MIN_DURATION_SECS: f64 = 20.0;

fn drop_script_line(sc: &Scenario, index: usize) -> Scenario {
    let script: String = sc
        .script
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != index)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    Scenario {
        script,
        ..sc.clone()
    }
}

/// One whole-dimension simplification; `None` when already minimal.
fn knob_candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    if sc.loss.is_some() {
        out.push(Scenario {
            loss: None,
            ..sc.clone()
        });
    }
    if sc.n_aggregators > 0 {
        out.push(Scenario {
            n_aggregators: 0,
            ..sc.clone()
        });
    }
    if sc.n_shards > 1 {
        out.push(Scenario {
            n_shards: 1,
            ..sc.clone()
        });
    }
    if sc.n_workers > 2 {
        out.push(Scenario {
            n_workers: 2,
            ..sc.clone()
        });
    }
    if sc.duration_secs > MIN_DURATION_SECS {
        out.push(Scenario {
            duration_secs: (sc.duration_secs / 2.0).max(MIN_DURATION_SECS),
            ..sc.clone()
        });
    }
    out
}

/// A knob candidate may strand script lines that referenced the
/// removed dimension (an `agg-restart` after aggregators went, a
/// worker index beyond the shrunk fleet, a shard beyond the shrunk
/// plane). Such a scenario is no valid repro — [`Scenario::parse`]
/// refuses it — so it is skipped rather than checked.
fn plan_fits(sc: &Scenario) -> bool {
    Scenario::parse(&sc.to_repro()).is_ok()
}

/// Minimizes a failing scenario. Spends at most `max_replays`
/// differential checks (each check replays the scenario twice plus
/// twins). If the input scenario passes, it is
/// returned unchanged with empty `violations`.
pub fn shrink(sc: &Scenario, max_replays: usize) -> ShrinkResult {
    fn fails(sc: &Scenario, replays: &mut usize) -> Option<Vec<Violation>> {
        *replays += 1;
        let out = check_scenario(sc);
        (!out.passed()).then_some(out.violations)
    }
    let mut replays = 0usize;

    let mut current = sc.clone();
    let Some(mut violations) = fails(&current, &mut replays) else {
        return ShrinkResult {
            scenario: current,
            violations: Vec::new(),
            replays,
        };
    };

    loop {
        let mut changed = false;

        // Pass 1: drop fault-script lines one at a time.
        let mut i = 0;
        while i < current.script.lines().count() && replays < max_replays {
            let cand = drop_script_line(&current, i);
            if let Some(v) = fails(&cand, &mut replays) {
                current = cand;
                violations = v;
                changed = true;
                // Line i was removed; the next line now has index i.
            } else {
                i += 1;
            }
        }

        // Pass 2: clear whole dimensions, re-deriving candidates after
        // every accepted mutation (repeat-until-rejected covers the
        // duration-halving chain).
        let mut k = 0;
        loop {
            let cands = knob_candidates(&current);
            if k >= cands.len() || replays >= max_replays {
                break;
            }
            let cand = cands[k].clone();
            if plan_fits(&cand) {
                if let Some(v) = fails(&cand, &mut replays) {
                    current = cand;
                    violations = v;
                    changed = true;
                    k = 0; // candidate list changed; start over
                    continue;
                }
            }
            k += 1;
        }

        if !changed || replays >= max_replays {
            break;
        }
    }

    ShrinkResult {
        scenario: current,
        violations,
        replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rog_trainer::{Environment, Strategy};

    fn sc(script: &str) -> Scenario {
        Scenario {
            gen_seed: 0,
            index: 0,
            strategy: Strategy::Rog { threshold: 2 },
            n_workers: 3,
            n_shards: 2,
            n_aggregators: 1,
            environment: Environment::Stable,
            duration_secs: 40.0,
            run_seed: 1,
            loss: None,
            codec: rog_compress::CodecChoice::OneBit,
            script: script.to_owned(),
        }
    }

    #[test]
    fn drop_script_line_removes_exactly_one_line() {
        let s = sc("offline 1 10 20\nblackout 0 12 14\nloss 2 15 18 0.5\n");
        let d = drop_script_line(&s, 1);
        assert_eq!(d.script, "offline 1 10 20\nloss 2 15 18 0.5\n");
        assert_eq!(drop_script_line(&s, 0).script_lines(), 2);
        assert_eq!(drop_script_line(&s, 2).script_lines(), 2);
    }

    #[test]
    fn knob_candidates_cover_every_dimension_once() {
        let mut s = sc("");
        s.loss = Some(crate::scenario::LossSpec {
            seed: 1,
            iid_loss: 0.1,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            ge_mean: None,
        });
        let cands = knob_candidates(&s);
        assert_eq!(cands.len(), 5);
        assert!(cands.iter().any(|c| c.loss.is_none()));
        assert!(cands.iter().any(|c| c.n_aggregators == 0));
        assert!(cands.iter().any(|c| c.n_shards == 1));
        assert!(cands.iter().any(|c| c.n_workers == 2));
        assert!(cands.iter().any(|c| c.duration_secs == 20.0));
        // A minimal scenario has nothing left to clear.
        let minimal = Scenario {
            n_aggregators: 0,
            n_shards: 1,
            n_workers: 2,
            duration_secs: 20.0,
            loss: None,
            ..s
        };
        assert!(knob_candidates(&minimal).is_empty());
    }

    #[test]
    fn plan_fits_rejects_stranded_indices() {
        // Fleet shrunk to 2 workers, but the script faults worker 2.
        let stranded = Scenario {
            n_workers: 2,
            ..sc("offline 2 10 20\n")
        };
        assert!(!plan_fits(&stranded));
        assert!(plan_fits(&sc("offline 2 10 20\n")));
        // Aggregator outage without aggregators.
        let no_aggs = Scenario {
            n_aggregators: 0,
            ..sc("agg-restart 0 10 20\n")
        };
        assert!(!plan_fits(&no_aggs));
        assert!(plan_fits(&sc("agg-restart 0 10 20\n")));
    }
}
