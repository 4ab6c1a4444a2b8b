//! Line-oriented script format for fault plans, used by
//! `rogctl --fault-plan <file>`.
//!
//! One window per line; `#` starts a comment; blank lines are ignored:
//!
//! ```text
//! # worker 2 drives out of range twice
//! offline 2 40 80
//! offline 2 140 180
//! blackout 1 60 75
//! server-restart 1 200 210
//! agg-restart 0 120 150
//! loss 1 100 160 0.3
//! ```
//!
//! `server-restart <shard> <t0> <t1>` takes the server shard down
//! during `[t0, t1)` (shard 0 is the whole server of an unsharded run).
//!
//! The `loss <link> <t0> <t1> <rate>` directive adds `rate` extra
//! chunk-loss probability on that worker's link during `[t0, t1)`;
//! windows must not overlap per link and rates must be in `[0, 1]`.
//!
//! `agg-restart <aggregator> <t0> <t1>` takes one edge aggregator of a
//! hierarchical run down, severing the workers it fronts; engines
//! reject it when the run has no aggregation tier.

use crate::plan::{FaultKind, FaultPlan, FaultPlanError, FaultWindow, LossWindow};

/// One parsed script line.
enum ScriptEntry {
    Fault(FaultWindow),
    Loss(LossWindow),
}

impl FaultPlan {
    /// Parses the script format described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] naming the offending line on an
    /// unknown directive, a malformed number, or an invalid window.
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match parse_line(&fields).map_err(|e| FaultPlanError::new(e).with_line(idx + 1, raw))? {
                ScriptEntry::Fault(window) => plan.try_push(window),
                ScriptEntry::Loss(window) => plan.try_push_loss(window),
            }
            .map_err(|e| e.with_line(idx + 1, raw))?;
        }
        Ok(plan)
    }

    /// Renders the plan back into the script format. Round-trips through
    /// [`FaultPlan::parse`] as long as all times survive `{}` formatting
    /// (true for every plan built from parsed scripts).
    #[must_use]
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        for w in self.windows() {
            match w.kind {
                FaultKind::WorkerOffline(i) => {
                    out.push_str(&format!("offline {} {} {}\n", i, w.start, w.end));
                }
                FaultKind::LinkBlackout(i) => {
                    out.push_str(&format!("blackout {} {} {}\n", i, w.start, w.end));
                }
                FaultKind::ServerOutage(s) => {
                    out.push_str(&format!("server-restart {} {} {}\n", s, w.start, w.end));
                }
                FaultKind::AggregatorOutage(a) => {
                    out.push_str(&format!("agg-restart {} {} {}\n", a, w.start, w.end));
                }
            }
        }
        for w in self.loss_windows() {
            out.push_str(&format!(
                "loss {} {} {} {}\n",
                w.link, w.start, w.end, w.rate
            ));
        }
        out
    }
}

fn parse_line(fields: &[&str]) -> Result<ScriptEntry, String> {
    let num = |s: &str| -> Result<f64, String> {
        s.parse::<f64>().map_err(|_| format!("bad number `{s}`"))
    };
    let index = |s: &str| -> Result<usize, String> {
        s.parse::<usize>()
            .map_err(|_| format!("bad worker index `{s}`"))
    };
    let shard = |s: &str| -> Result<usize, String> {
        s.parse::<usize>()
            .map_err(|_| format!("bad shard index `{s}`"))
    };
    let entry = match fields {
        ["offline", w, s, e] => ScriptEntry::Fault(FaultWindow {
            kind: FaultKind::WorkerOffline(index(w)?),
            start: num(s)?,
            end: num(e)?,
        }),
        ["blackout", w, s, e] => ScriptEntry::Fault(FaultWindow {
            kind: FaultKind::LinkBlackout(index(w)?),
            start: num(s)?,
            end: num(e)?,
        }),
        ["server-restart", sh, s, e] => ScriptEntry::Fault(FaultWindow {
            kind: FaultKind::ServerOutage(shard(sh)?),
            start: num(s)?,
            end: num(e)?,
        }),
        ["server-restart", ..] => {
            return Err("`server-restart` takes a shard: \
                 `server-restart <shard> <t0> <t1>`"
                .to_string())
        }
        ["agg-restart", a, s, e] => ScriptEntry::Fault(FaultWindow {
            kind: FaultKind::AggregatorOutage(
                a.parse::<usize>()
                    .map_err(|_| format!("bad aggregator index `{a}`"))?,
            ),
            start: num(s)?,
            end: num(e)?,
        }),
        ["loss", w, s, e, r] => ScriptEntry::Loss(LossWindow {
            link: index(w)?,
            start: num(s)?,
            end: num(e)?,
            rate: num(r)?,
        }),
        [verb, ..] => {
            return Err(format!(
                "unknown directive `{verb}` \
                 (expected offline/blackout/server-restart/agg-restart/loss)"
            ))
        }
        [] => unreachable!("blank lines filtered by caller"),
    };
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "\
# churn for worker 2
offline 2 40 80
offline 2 140 180   # second dropout
blackout 1 60 75

server-restart 0 200 210
loss 1 100 160 0.3  # interference burst
loss 3 0 600 0.05
";

    #[test]
    fn parses_directives_comments_and_blank_lines() {
        let plan = FaultPlan::parse(SCRIPT).expect("valid script");
        assert_eq!(plan.windows().len(), 4);
        assert_eq!(plan.windows()[0].kind, FaultKind::WorkerOffline(2));
        assert_eq!(plan.windows()[2].kind, FaultKind::LinkBlackout(1));
        assert_eq!(plan.windows()[3].kind, FaultKind::ServerOutage(0));
        assert_eq!(plan.windows()[3].start, 200.0);
        assert_eq!(plan.loss_windows().len(), 2);
        assert_eq!(
            plan.loss_windows()[0],
            LossWindow {
                link: 1,
                start: 100.0,
                end: 160.0,
                rate: 0.3
            }
        );
        assert_eq!(plan.max_worker(), Some(3), "loss links count");
    }

    #[test]
    fn round_trips_through_script_text() {
        let plan = FaultPlan::parse(SCRIPT).expect("valid script");
        let text = plan.to_script();
        assert!(text.contains("server-restart 0 200 210\n"), "{text}");
        assert_eq!(plan, FaultPlan::parse(&text).expect("round-trip"));
    }

    #[test]
    fn shardless_server_restart_is_refused_with_its_line_and_the_shard_form() {
        let err = FaultPlan::parse("offline 1 0 10\nserver-restart 200 210").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(
            err.message().contains("`server-restart <shard> <t0> <t1>`"),
            "{err}"
        );
    }

    #[test]
    fn shard_explicit_server_restart_parses_and_round_trips() {
        let plan = FaultPlan::parse(
            "server-restart 2 50 60\nserver-restart 0 55 70  # overlap ok across shards",
        )
        .expect("shard form");
        assert_eq!(plan.windows()[0].kind, FaultKind::ServerOutage(2));
        assert_eq!(plan.windows()[1].kind, FaultKind::ServerOutage(0));
        assert_eq!(plan.max_shard(), Some(2));
        let again = FaultPlan::parse(&plan.to_script()).expect("round-trip");
        assert_eq!(plan, again);
        let err = FaultPlan::parse("server-restart x 50 60").unwrap_err();
        assert!(err.to_string().contains("bad shard index"), "{err}");
    }

    #[test]
    fn agg_restart_parses_and_round_trips() {
        let plan =
            FaultPlan::parse("agg-restart 1 120 150\nagg-restart 0 130 160").expect("agg form");
        assert_eq!(plan.windows()[0].kind, FaultKind::AggregatorOutage(1));
        assert_eq!(plan.windows()[1].kind, FaultKind::AggregatorOutage(0));
        assert_eq!(plan.max_aggregator(), Some(1));
        assert_eq!(plan.max_worker(), None, "aggregators are not workers");
        assert_eq!(plan.max_shard(), None);
        let again = FaultPlan::parse(&plan.to_script()).expect("round-trip");
        assert_eq!(plan, again);
        let err = FaultPlan::parse("agg-restart x 120 150").unwrap_err();
        assert!(err.to_string().contains("bad aggregator index"), "{err}");
    }

    #[test]
    fn loss_only_script_round_trips() {
        let plan = FaultPlan::new()
            .link_loss(0, 5.0, 25.0, 0.125)
            .link_loss(0, 30.0, 45.5, 1.0)
            .link_loss(2, 0.0, 100.0, 0.01);
        let text = plan.to_script();
        assert!(text.contains("loss 0 5 25 0.125\n"), "{text}");
        let again = FaultPlan::parse(&text).expect("round-trip");
        assert_eq!(plan, again);
    }

    #[test]
    fn errors_name_the_line() {
        let err = FaultPlan::parse("offline 1 0 10\nfrobnicate 3 4 5").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = FaultPlan::parse("offline one 0 10").unwrap_err();
        assert!(err.to_string().contains("bad worker index"), "{err}");
        let err = FaultPlan::parse("offline 1 10 5").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = FaultPlan::parse("offline 1 10").unwrap_err();
        assert!(err.to_string().contains("unknown directive"), "{err}");
    }

    #[test]
    fn bad_loss_lines_are_rejected_with_line_numbers() {
        let err = FaultPlan::parse("loss 1 0 10").unwrap_err();
        assert!(err.to_string().contains("unknown directive"), "{err}");
        let err = FaultPlan::parse("loss 1 0 10 1.5").unwrap_err();
        assert!(err.to_string().contains("out of [0, 1]"), "{err}");
        let err = FaultPlan::parse("loss 1 0 10 0.2\nloss 1 5 15 0.2").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("overlaps"), "{err}");
    }

    #[test]
    fn empty_and_comment_only_scripts_parse_to_empty_plan() {
        assert!(FaultPlan::parse("").expect("empty").is_empty());
        assert!(FaultPlan::parse("# nothing\n\n")
            .expect("comments")
            .is_empty());
    }

    #[test]
    fn parse_errors_carry_line_number_and_text() {
        let err = FaultPlan::parse("offline 1 0 10\nfrobnicate 3 4 5  # bad").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert_eq!(err.line_text(), Some("frobnicate 3 4 5  # bad"));
        assert!(err.message().contains("unknown directive"), "{err}");
        assert!(err.to_string().contains("`frobnicate 3 4 5  # bad`"));

        // Window-validation failures point at the line too.
        let err = FaultPlan::parse("offline 1 0 10\noffline 1 5 15").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert_eq!(err.line_text(), Some("offline 1 5 15"));
        assert!(err.message().contains("overlaps"), "{err}");

        // Builder-path errors have no location.
        let mut plan = FaultPlan::new();
        let err = plan
            .try_push(FaultWindow {
                kind: FaultKind::WorkerOffline(0),
                start: 5.0,
                end: 4.0,
            })
            .unwrap_err();
        assert_eq!(err.line(), None);
        assert_eq!(err.line_text(), None);
    }

    mod roundtrip_proptests {
        use super::*;
        use crate::plan::tests::random_plan;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Every expressible plan round-trips `to_script` →
            /// `parse` into an equal plan and an identical re-rendered
            /// script. The scenario generator in `rog-fuzz` leans on
            /// this: a shrunk repro is exchanged exclusively as script
            /// text.
            #[test]
            fn every_expressible_plan_round_trips(seed in 0u64..512) {
                let plan = random_plan(seed);
                let text = plan.to_script();
                let again = FaultPlan::parse(&text).expect("rendered scripts parse");
                prop_assert_eq!(&again, &plan);
                prop_assert_eq!(again.to_script(), text);
            }
        }
    }
}
