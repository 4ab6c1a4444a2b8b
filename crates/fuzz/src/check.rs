//! The differential invariant checker.
//!
//! [`check_scenario`] replays one [`Scenario`] twice and asserts the
//! cheap invariants the hand-written suites already trust, returning
//! every violation instead of panicking — the shrinker needs failures
//! to be data:
//!
//! * **Run-to-run identity** — serialized metrics, journal bytes and
//!   fleet stats of the rerun are byte-identical to the base replay's.
//! * **Engine self-checks** — a replay that panics (debug-build
//!   staleness watchdog, byte-conservation assert, any engine bug) is
//!   caught and reported, never crashes the harness.
//! * **Progress** — the gate never wedges: every scenario's fault-free
//!   prefix guarantees at least one iteration completes.
//! * **Byte ledger** — the four-way useful/wasted/lost/corrupt split
//!   is finite, non-negative, and exactly zero on the loss axes when
//!   nothing in the scenario can harm a chunk.
//! * **Journal ↔ metrics reconciliation** — the composition replayed
//!   from the journal is bitwise the one the metrics report, and
//!   begin/end event pairings balance.
//! * **Codec selection** — only a `codec auto` scenario may journal
//!   `codec_select` events, every event names a live worker and a
//!   known codec rung, and per worker no two consecutive selections
//!   repeat (the engine never journals a no-op switch).
//! * **Staleness** — without shard or aggregator outages, no gate
//!   event may record a lead beyond the model's *instantaneous*
//!   staleness bound (static for BSP/SSP/ROG, replayed from the
//!   journal's threshold-adaptation events for DSSP/ABS and the
//!   adaptive-bound ROG hybrid).
//! * **Outage residency** — a worker journals no `push_start` or
//!   `row_push` between its `worker_down` fault record and the next
//!   `worker_up`.
//! * **Topology twins** — `n_shards = 0` replays byte-identically to
//!   `n_shards = 1` (the documented pre-shard identity), and a
//!   hierarchical run matches its flat twin once aggregator accounting
//!   records are stripped.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rog_core::gate;
use rog_fault::FaultKind;
use rog_obs::{Event, Record, TraceSummary};
use rog_trainer::report::runs_to_json;
use rog_trainer::{ExperimentConfig, RunMetrics, RunOutcome, Strategy};

use crate::scenario::Scenario;

/// One invariant failure observed while replaying a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A replay panicked — an engine self-check (staleness watchdog,
    /// byte-conservation assert) or a genuine crash.
    EnginePanic {
        /// The panic payload.
        message: String,
    },
    /// Two replays of the same scenario produced observably different
    /// runs (what differed).
    RerunDivergence(String),
    /// The run completed zero iterations despite its fault-free prefix.
    NoProgress,
    /// The four-way byte ledger is inconsistent.
    ByteLedger(String),
    /// Journal and metrics disagree.
    Reconciliation(String),
    /// A gate event recorded a lead beyond the RSP staleness bound.
    StalenessExceeded(String),
    /// A `codec_select` event broke the selector's replay contract.
    CodecSelect(String),
    /// A worker journaled a push inside one of its outage windows.
    OutageResidency(String),
    /// `n_shards = 0` diverged from `n_shards = 1`.
    ShardTwinDivergence(String),
    /// The hierarchical run diverged from its flat twin.
    HierarchyTwinDivergence(String),
}

impl Violation {
    /// Stable short name, used as the report's violation key.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::EnginePanic { .. } => "engine_panic",
            Violation::RerunDivergence(_) => "rerun_divergence",
            Violation::NoProgress => "no_progress",
            Violation::ByteLedger(_) => "byte_ledger",
            Violation::Reconciliation(_) => "reconciliation",
            Violation::StalenessExceeded(_) => "staleness_exceeded",
            Violation::CodecSelect(_) => "codec_select",
            Violation::OutageResidency(_) => "outage_residency",
            Violation::ShardTwinDivergence(_) => "shard_twin",
            Violation::HierarchyTwinDivergence(_) => "hierarchy_twin",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::EnginePanic { message } => write!(f, "engine panic: {message}"),
            Violation::RerunDivergence(d) => write!(f, "rerun divergence: {d}"),
            Violation::NoProgress => write!(f, "no progress: zero iterations completed"),
            Violation::ByteLedger(d) => write!(f, "byte ledger: {d}"),
            Violation::Reconciliation(d) => write!(f, "journal/metrics reconciliation: {d}"),
            Violation::StalenessExceeded(d) => write!(f, "staleness exceeded: {d}"),
            Violation::CodecSelect(d) => write!(f, "codec selection: {d}"),
            Violation::OutageResidency(d) => write!(f, "outage residency: {d}"),
            Violation::ShardTwinDivergence(d) => write!(f, "shard-0 vs shard-1 twin: {d}"),
            Violation::HierarchyTwinDivergence(d) => write!(f, "hierarchical vs flat twin: {d}"),
        }
    }
}

/// Everything one scenario check produced.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Invariant failures, empty when the scenario is green.
    pub violations: Vec<Violation>,
    /// Virtual seconds the base replay covered (0 when it panicked).
    pub virtual_secs: f64,
    /// Simulation events the base replay dispatched (wall-clock-free
    /// work measure; 0 when it panicked).
    pub sim_events: u64,
}

impl CheckOutcome {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs a config with panics captured and the default panic hook
/// silenced for the duration of the run — the shrinker deliberately
/// replays panicking scenarios dozens of times.
///
/// The hook swap is process-global; tests driving the checker share a
/// binary with nothing else (see `tests/fuzz_corpus.rs`).
fn quiet_run(cfg: &ExperimentConfig) -> Result<RunOutcome, String> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| cfg.options().traced(true).run()));
    std::panic::set_hook(prev);
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

/// Removes the `"seq":N,` field from one journal line (aggregator
/// merge records consume sequence numbers, shifting later records).
fn without_seq(line: &str) -> String {
    let Some(i) = line.find("\"seq\":") else {
        return line.to_owned();
    };
    let Some(j) = line[i..].find(',') else {
        return line.to_owned();
    };
    format!("{}{}", &line[..i], &line[i + j + 1..])
}

/// Normalizes a hierarchical run's journal (`aggs` aggregators) for
/// comparison against its flat twin: drops the `agg_merge` records and
/// the `seq` counters they shift, and erases the `+agg{n}` segment of
/// the run name. The aggregator tier is pure accounting, so the flat
/// twin's journal normalizes to the same text.
pub fn flat_twin_journal(journal: &str, aggs: usize) -> String {
    journal
        .replace(&format!("+agg{aggs}"), "")
        .lines()
        .filter(|l| !l.contains("\"ev\":\"agg_merge\""))
        .map(without_seq)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The reconciliation block: the journal must reconcile with the
/// metrics (`RunMetrics::reconcile`), and event pairings must balance.
/// `faulty` is true when the scenario's plan has fault windows — fault
/// recovery re-queues an aborted granted pull into the gate wait
/// silently, so its re-grant emits a second `gate_exit` for a single
/// `gate_enter` and the gate pairing is only checkable on fault-free
/// runs.
fn reconcile(m: &RunMetrics, journal: &str, faulty: bool, violations: &mut Vec<Violation>) {
    let s = match TraceSummary::from_jsonl(journal) {
        Ok(s) => s,
        Err(e) => {
            violations.push(Violation::Reconciliation(format!(
                "journal does not parse: {e}"
            )));
            return;
        }
    };
    violations.extend(m.reconcile(&s).into_iter().map(Violation::Reconciliation));
    let n = |ev: &str| s.event_counts.get(ev).copied().unwrap_or(0);
    // Begin/end pairings are directional, not exact: the duration cap
    // cuts runs mid-operation (a worker blocked at the gate, a push in
    // flight) and a blackout aborts a push leg without its end event,
    // so starts may outnumber ends — but an end without a start is
    // always a bug. (The hand-written tier-1 matrix, whose scenarios
    // end cleanly, keeps pinning exact equality.)
    let mut paired = |start: &str, end: &str| {
        if n(end) > n(start) {
            violations.push(Violation::Reconciliation(format!(
                "more {end} than {start} events: {} vs {}",
                n(end),
                n(start)
            )));
        }
    };
    if !faulty {
        paired("gate_enter", "gate_exit");
    }
    paired("push_start", "push_end");
    paired("pull_start", "pull_end");
    if n("iter_end") != s.iters {
        violations.push(Violation::Reconciliation(format!(
            "{} iter_end events vs run_end total {}",
            n("iter_end"),
            s.iters
        )));
    }
    if n("meta") != 1 || n("run_end") != 1 || n("close") as usize != s.devices() {
        violations.push(Violation::Reconciliation(
            "meta/run_end/close cardinality broken".to_owned(),
        ));
    }
}

/// The per-model instantaneous staleness bound a `gate_enter` lead may
/// not exceed, reconstructed from the journal as the replay walks it.
enum StalenessBound {
    /// Static bound (BSP / SSP / ROG): one limit for the whole run.
    Fixed(u64),
    /// Model-engine adaptive bound (DSSP / ABS): per-worker thresholds,
    /// updated by `threshold_adapt` events; a `gate_enter` lead may not
    /// exceed the worker's journaled threshold + 1.
    PerWorker {
        thr: BTreeMap<u32, u64>,
        initial: u64,
    },
    /// Row-engine adaptive bound (the `roga` hybrid): one cluster-wide
    /// threshold, updated by `auto_threshold` events; a `gate_enter`
    /// lead may not exceed `rsp_bound(cur)`.
    Row { cur: u32 },
}

/// Replays the staleness contract over a run's JSONL journal: every
/// `gate_enter` lead stays within `strategy`'s *instantaneous* bound —
/// static for BSP/SSP/ROG, replayed from the `threshold_adapt` /
/// `auto_threshold` records for DSSP/ABS and the adaptive-bound ROG
/// hybrid. Returns how many `gate_enter` records were checked, or the
/// first line that breaks the bound. Workers are named by device index
/// ([`Record::device`]). ASP is unbounded and FLOWN adapts
/// without journaling its bound, so for both nothing is checked.
///
/// A shard's `gate_enter` records go unchecked from the shard's first
/// `server_down` record on (matched by journal scope; unsharded, the
/// one server): a cycle skips a shard that is down, and that shard's
/// rows then legitimately age past the bound. The engine's debug
/// watchdog has no exact journal form. It stops checking the whole run
/// at the first skipped shard, and the journal records outages, not
/// skips. So the replay exempts only the shard that was down, and
/// holds every other shard to the bound. Aggregator outages exempt
/// nothing: their members stall, but skip no shard. A
/// record the bound depends on must parse and carry its fields: a
/// `gate_enter` its `lead` (and its `w` under a per-worker bound), a
/// `threshold_adapt` its `w` and `threshold`, an `auto_threshold` its
/// `threshold`.
///
/// # Errors
///
/// The violation, naming the lead, the bound and the offending line,
/// or the bound-bearing line that is malformed.
pub fn replay_staleness(strategy: Strategy, journal: &str) -> Result<usize, String> {
    let mut bound = match strategy {
        Strategy::Bsp => StalenessBound::Fixed(1),
        Strategy::Ssp { threshold } => StalenessBound::Fixed(u64::from(threshold) + 1),
        Strategy::Asp | Strategy::Flown { .. } => return Ok(0),
        Strategy::Dssp { min_threshold, .. } | Strategy::Abs { min_threshold, .. } => {
            StalenessBound::PerWorker {
                thr: BTreeMap::new(),
                initial: u64::from(min_threshold),
            }
        }
        Strategy::Rog { threshold } => StalenessBound::Fixed(gate::rsp_bound(threshold)),
        Strategy::RogAdaptive { min_threshold, .. } => StalenessBound::Row { cur: min_threshold },
    };
    let parse = |line: &str| Record::parse(line).map_err(|e| format!("{e}: {line}"));
    let field = |rec: &Record, key: &str, line: &str| {
        rec.num(key)
            .ok_or_else(|| format!("record lacks `{key}`: {line}"))
    };
    let device = |rec: &Record, line: &str| rec.device().map_err(|e| format!("{e}: {line}"));
    let scope = |rec: &Record| rec.num("shard").map_or(Event::NO_SHARD, |s| s as i64);
    let mut been_down: Vec<i64> = Vec::new();
    let mut gates = 0;
    for line in journal.lines() {
        if line.contains("\"kind\":\"server_down\"") {
            been_down.push(scope(&parse(line)?));
            continue;
        }
        if line.contains("\"ev\":\"threshold_adapt\"") {
            if let StalenessBound::PerWorker { thr, .. } = &mut bound {
                let rec = parse(line)?;
                let w = device(&rec, line)?;
                thr.insert(w, field(&rec, "threshold", line)? as u64);
            }
            continue;
        }
        if line.contains("\"ev\":\"auto_threshold\"") {
            if let StalenessBound::Row { cur } = &mut bound {
                *cur = field(&parse(line)?, "threshold", line)? as u32;
            }
            continue;
        }
        if !line.contains("\"ev\":\"gate_enter\"") {
            continue;
        }
        let rec = parse(line)?;
        if been_down.contains(&scope(&rec)) {
            continue;
        }
        let lead = field(&rec, "lead", line)? as u64;
        let limit = match &bound {
            StalenessBound::Fixed(b) => *b,
            StalenessBound::PerWorker { thr, initial } => {
                let thr = thr.get(&device(&rec, line)?).copied().unwrap_or(*initial);
                thr.saturating_add(1)
            }
            StalenessBound::Row { cur } => gate::rsp_bound(*cur),
        };
        if lead > limit {
            return Err(format!(
                "gate_enter lead {lead} > instantaneous bound {limit} ({}): {line}",
                strategy.name()
            ));
        }
        gates += 1;
    }
    Ok(gates)
}

/// The staleness invariant, observed from the journal
/// ([`replay_staleness`]), under every fault plan.
fn check_staleness(sc: &Scenario, journal: &str, violations: &mut Vec<Violation>) {
    if let Err(e) = replay_staleness(sc.strategy, journal) {
        violations.push(Violation::StalenessExceeded(e));
    }
}

/// The outage residency invariant, observed from the journal: between
/// a worker's `worker_down` fault record and the next `worker_up` it
/// journals no `push_start` or `row_push`. A push record or worker
/// fault without a device index in its `w` ([`Record::device`]) is
/// malformed. Returns the first line that breaks the rule.
fn replay_residency(journal: &str) -> Result<(), String> {
    let mut down = BTreeSet::new();
    for line in journal.lines() {
        let push = line.contains("\"ev\":\"push_start\"") || line.contains("\"ev\":\"row_push\"");
        if !push && !line.contains("\"ev\":\"fault\"") {
            continue;
        }
        let rec = Record::parse(line).map_err(|e| format!("{e}: {line}"))?;
        let edge = match (push, rec.str("kind")) {
            (true, _) => None,
            (false, Some("worker_down")) => Some(true),
            (false, Some("worker_up")) => Some(false),
            _ => continue,
        };
        let w = rec.device().map_err(|e| format!("{e}: {line}"))?;
        match edge {
            Some(true) => _ = down.insert(w),
            Some(false) => _ = down.remove(&w),
            None if down.contains(&w) => {
                return Err(format!("worker {w} pushes while down: {line}"))
            }
            None => {}
        }
    }
    Ok(())
}

/// The codec-selector replay contract, observed from the journal:
/// `codec_select` events may only appear when the scenario's effective
/// codec is `auto`, each names a worker inside the fleet and one of
/// the rungs the selector actually chooses between ("onebit" /
/// "sparse"), and per worker no two consecutive selections repeat —
/// the engine skips no-op switches before journaling, and every
/// worker starts on the dense one-bit rung.
fn check_codec_select(sc: &Scenario, journal: &str, violations: &mut Vec<Violation>) {
    let auto = sc.config().effective_codec().is_auto();
    let mut last: Vec<String> = vec!["onebit".to_owned(); sc.n_workers];
    for line in journal.lines() {
        if !line.contains("\"ev\":\"codec_select\"") {
            continue;
        }
        if !auto {
            violations.push(Violation::CodecSelect(format!(
                "codec_select journaled by a non-auto ({}) run: {line}",
                sc.codec.name()
            )));
            return;
        }
        let Ok(rec) = Record::parse(line) else {
            continue; // parse failures are the reconciliation check's job
        };
        let w = match rec.device() {
            Ok(w) if (w as usize) < sc.n_workers => w as usize,
            _ => {
                violations.push(Violation::CodecSelect(format!(
                    "worker outside the {}-worker fleet: {line}",
                    sc.n_workers
                )));
                return;
            }
        };
        let codec = rec.str("codec").unwrap_or("").to_owned();
        if codec != "onebit" && codec != "sparse" {
            violations.push(Violation::CodecSelect(format!(
                "unknown selector rung {codec:?}: {line}"
            )));
            return;
        }
        if last[w] == codec {
            violations.push(Violation::CodecSelect(format!(
                "worker {w} re-selected {codec:?} it was already on: {line}"
            )));
            return;
        }
        last[w] = codec;
    }
}

/// Replays `sc` twice and across twin topologies, returning every
/// invariant violation. Never panics on engine failures — they become
/// [`Violation::EnginePanic`] — so the shrinker can replay failing
/// scenarios freely.
///
/// Briefly swaps the process-global panic hook; callers running inside
/// a test binary should keep that binary to a single `#[test]`.
pub fn check_scenario(sc: &Scenario) -> CheckOutcome {
    let cfg = sc.config();
    let mut violations = Vec::new();

    // --- base replay plus one rerun. Once a replay dies the remaining
    // invariants are meaningless: report the panic and stop.
    let (base, rerun) = match quiet_run(&cfg).and_then(|b| Ok((b, quiet_run(&cfg)?))) {
        Ok(pair) => pair,
        Err(message) => {
            violations.push(Violation::EnginePanic { message });
            return CheckOutcome {
                violations,
                virtual_secs: 0.0,
                sim_events: 0,
            };
        }
    };
    let jsonl = |out: &RunOutcome| out.journal.as_ref().expect("traced").to_jsonl();
    let m = &base.metrics;
    let journal = jsonl(&base);
    if runs_to_json(std::slice::from_ref(m)) != runs_to_json(std::slice::from_ref(&rerun.metrics)) {
        violations.push(Violation::RerunDivergence(
            "serialized metrics differ".to_owned(),
        ));
    }
    if journal != jsonl(&rerun) {
        violations.push(Violation::RerunDivergence(
            "journal bytes differ".to_owned(),
        ));
    }
    if base.stats != rerun.stats {
        violations.push(Violation::RerunDivergence(format!(
            "fleet stats differ: {:?} vs {:?}",
            base.stats, rerun.stats
        )));
    }

    // --- progress watchdog.
    if m.mean_iterations <= 0.0 {
        violations.push(Violation::NoProgress);
    }

    // --- byte-ledger sanity. (The exact 4-way conservation against
    // offered bytes is the engine's own debug assert, which the panic
    // capture above surfaces; here we check what the metrics expose.)
    for (what, v) in [
        ("useful_bytes", m.useful_bytes),
        ("wasted_bytes", m.wasted_bytes),
        ("lost_bytes", m.lost_bytes),
        ("corrupt_bytes", m.corrupt_bytes),
    ] {
        if !v.is_finite() || v < 0.0 {
            violations.push(Violation::ByteLedger(format!("{what} = {v}")));
        }
    }
    if !cfg.loss_active() && (m.lost_bytes != 0.0 || m.corrupt_bytes != 0.0) {
        violations.push(Violation::ByteLedger(format!(
            "loss-free scenario lost {} / corrupted {} bytes",
            m.lost_bytes, m.corrupt_bytes
        )));
    }

    // --- journal ↔ metrics reconciliation.
    let faulty = sc
        .fault_plan()
        .map(|p| !p.windows().is_empty())
        .unwrap_or(true);
    reconcile(m, &journal, faulty, &mut violations);

    // --- RSP staleness bound, observed at the gate.
    check_staleness(sc, &journal, &mut violations);

    // --- codec-selector replay contract.
    check_codec_select(sc, &journal, &mut violations);

    // --- no push from a worker inside its outage.
    if let Err(e) = replay_residency(&journal) {
        violations.push(Violation::OutageResidency(e));
    }

    // --- topology twins (row-granular strategies only).
    if sc.strategy.is_row_granular() {
        if sc.n_shards == 1 {
            // `n_shards: 0` is documented as "treated as 1"; the twin
            // must be byte-identical, journal included.
            match quiet_run(&ExperimentConfig {
                n_shards: 0,
                ..cfg.clone()
            }) {
                Err(e) => violations.push(Violation::ShardTwinDivergence(format!(
                    "shard-0 twin panicked: {e}"
                ))),
                Ok(twin) => {
                    if runs_to_json(std::slice::from_ref(&twin.metrics))
                        != runs_to_json(std::slice::from_ref(m))
                    {
                        violations.push(Violation::ShardTwinDivergence(
                            "serialized metrics differ".to_owned(),
                        ));
                    }
                    if twin.journal.as_ref().expect("traced").to_jsonl() != journal {
                        violations.push(Violation::ShardTwinDivergence(
                            "journal bytes differ".to_owned(),
                        ));
                    }
                }
            }
        }
        let plan = sc.fault_plan().expect("scenario script must be valid");
        let agg_outage = plan
            .windows()
            .iter()
            .any(|w| matches!(w.kind, FaultKind::AggregatorOutage(_)));
        if sc.n_aggregators > 0 && !agg_outage {
            // The aggregator tier is pure accounting: the flat twin
            // matches modulo the aggregator records and name segment.
            match quiet_run(&ExperimentConfig {
                n_aggregators: 0,
                ..cfg.clone()
            }) {
                Err(e) => violations.push(Violation::HierarchyTwinDivergence(format!(
                    "flat twin panicked: {e}"
                ))),
                Ok(flat) => {
                    let diffs = flat.metrics.differences(m);
                    violations.extend(diffs.into_iter().map(Violation::HierarchyTwinDivergence));
                    let flat_j = flat.journal.as_ref().expect("traced").to_jsonl();
                    if flat_twin_journal(&flat_j, sc.n_aggregators)
                        != flat_twin_journal(&journal, sc.n_aggregators)
                    {
                        violations.push(Violation::HierarchyTwinDivergence(
                            "normalized journals differ".to_owned(),
                        ));
                    }
                }
            }
        }
    }

    CheckOutcome {
        violations,
        virtual_secs: m.duration,
        sim_events: base.stats.sim_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proptest::prelude::{prop_assert, proptest, ProptestConfig};
    use rog_compress::CodecChoice;
    use rog_net::LossConfig;
    use rog_obs::gzip_decompress;
    use rog_trainer::{Environment, ModelScale, WorkloadKind};
    use std::sync::OnceLock;

    /// A fault-free ROG-4 scenario of two workers on the stable
    /// channel for 20 s, framing `codec`.
    fn sc(codec: CodecChoice) -> Scenario {
        Scenario {
            gen_seed: 0,
            index: 0,
            strategy: Strategy::Rog { threshold: 4 },
            n_workers: 2,
            n_shards: 1,
            n_aggregators: 0,
            environment: Environment::Stable,
            duration_secs: 20.0,
            run_seed: 42,
            loss: None,
            codec,
            script: String::new(),
        }
    }

    #[test]
    fn a_clean_scenario_passes_every_invariant() {
        let out = check_scenario(&sc(CodecChoice::OneBit));
        assert!(out.passed(), "violations: {:?}", out.violations);
        assert!(out.virtual_secs > 0.0);
        assert!(out.sim_events > 0);
    }

    // Synthetic journals, not full replays: `check_scenario` swaps
    // process-global state, so this binary keeps a single replay test.
    #[test]
    fn codec_select_contract_is_enforced_from_the_journal() {
        let ev = |w: u32, codec: &str| {
            format!("{{\"t\":1.0,\"ev\":\"codec_select\",\"w\":{w},\"codec\":\"{codec}\"}}")
        };

        // A legal auto trace: each worker flips rungs alternately.
        let mut v = Vec::new();
        let ok = [ev(0, "sparse"), ev(1, "sparse"), ev(0, "onebit")].join("\n");
        check_codec_select(&sc(CodecChoice::Auto), &ok, &mut v);
        assert!(v.is_empty(), "{v:?}");

        // Any codec_select outside an auto run is a violation.
        check_codec_select(&sc(CodecChoice::OneBit), &ok, &mut v);
        assert!(matches!(v.as_slice(), [Violation::CodecSelect(_)]));

        // Workers start on one-bit, so the first switch must leave it.
        v.clear();
        check_codec_select(&sc(CodecChoice::Auto), &ev(0, "onebit"), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");

        // Re-selecting the current rung, unknown rungs, and
        // out-of-fleet workers are each a violation.
        v.clear();
        let dup = [ev(0, "sparse"), ev(0, "sparse")].join("\n");
        check_codec_select(&sc(CodecChoice::Auto), &dup, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        v.clear();
        check_codec_select(&sc(CodecChoice::Auto), &ev(0, "q4"), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        v.clear();
        check_codec_select(&sc(CodecChoice::Auto), &ev(2, "sparse"), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind(), "codec_select");
    }

    #[test]
    fn staleness_replay_refuses_a_malformed_bound_record() {
        let (min_threshold, max_threshold) = (1, 8);
        let dssp = Strategy::Dssp {
            min_threshold,
            max_threshold,
        };
        let roga = Strategy::RogAdaptive {
            min_threshold,
            max_threshold,
        };
        let rec = |ev: &str, fields: &str| format!("{{\"t\":1.0,\"ev\":\"{ev}\"{fields}}}");
        let adapt = rec("threshold_adapt", ",\"w\":1,\"threshold\":3");
        let ok = format!("{adapt}\n{}", rec("gate_enter", ",\"w\":1,\"lead\":4"));
        assert_eq!(replay_staleness(dssp, &ok), Ok(1));
        // A threshold past `u64` saturates the bound instead of
        // overflowing it (the mutation proptest's find).
        let huge = ok.replace("\"threshold\":3", "\"threshold\":18446744073709551616");
        assert_eq!(replay_staleness(dssp, &huge), Ok(1));
        for (strategy, bad) in [
            (dssp, rec("gate_enter", ",\"w\":0,\"lead\":3")), // worker 0's bound is 2
            (dssp, rec("gate_enter", ",\"w\":1")),
            (dssp, rec("gate_enter", ",\"lead\":1")),
            (dssp, rec("gate_enter", ",")),
            (dssp, rec("threshold_adapt", ",\"w\":1")),
            (roga, rec("auto_threshold", "")),
        ] {
            assert!(replay_staleness(strategy, &bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_shard_outage_exempts_only_that_shard_from_then_on() {
        let rog = Strategy::Rog { threshold: 1 };
        let rec = |ev: &str, fields: String| format!("{{\"t\":1.0,\"ev\":\"{ev}\"{fields}}}");
        let down = |scope: &str| {
            rec(
                "fault",
                format!("{scope},\"kind\":\"server_down\",\"w\":-1"),
            )
        };
        let over = |scope: &str| rec("gate_enter", format!("{scope},\"w\":0,\"lead\":9"));
        let (one, zero) = (",\"shard\":1", ",\"shard\":0");
        let replay = |lines: [String; 2]| replay_staleness(rog, &lines.join("\n"));
        assert_eq!(replay([down(one), over(one)]), Ok(0));
        assert!(replay([down(one), over(zero)]).is_err());
        // Unsharded: the one server's outage exempts what follows it.
        assert_eq!(replay([down(""), over("")]), Ok(0));
        assert!(replay([over(""), down("")]).is_err());
    }

    #[test]
    fn a_push_inside_an_outage_window_breaks_residency() {
        let fault = |kind: &str, w: i64| {
            format!("{{\"t\":1.0,\"ev\":\"fault\",\"kind\":\"{kind}\",\"w\":{w}}}")
        };
        let push = |ev: &str, w: u32| format!("{{\"t\":2.0,\"ev\":\"{ev}\",\"w\":{w}}}");
        let journal = |lines: &[String]| lines.join("\n");
        let (down, up) = (fault("worker_down", 1), fault("worker_up", 1));
        for ok in [
            journal(&[
                down.clone(),
                push("push_start", 0),
                up.clone(),
                push("push_start", 1),
            ]),
            journal(&[fault("server_down", -1), push("row_push", 1)]),
            journal(&[down.clone(), up.clone(), push("row_push", 1)]),
        ] {
            assert_eq!(replay_residency(&ok), Ok(()), "{ok}");
        }
        for bad in [
            journal(&[down.clone(), push("push_start", 1), up.clone()]),
            journal(&[down.clone(), push("row_push", 1)]),
            journal(&[down.clone(), up, down, push("push_start", 1)]),
            "{\"t\":2.0,\"ev\":\"push_start\"}".to_owned(),
        ] {
            assert!(replay_residency(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_device_index_outside_u32_is_refused_naming_the_line() {
        let dssp = Strategy::Dssp {
            min_threshold: 1,
            max_threshold: 8,
        };
        // One record shape carries every field either replay reads.
        let rec = |ev: &str, w: &str| {
            let fields = format!("\"kind\":\"worker_down\",\"w\":{w},\"threshold\":3,\"lead\":4");
            format!("{{\"t\":1.0,\"ev\":\"{ev}\",{fields}}}")
        };
        for w in ["1e20", "4294967296", "-1", "0.5"] {
            let adapt = rec("threshold_adapt", w);
            let err = replay_staleness(dssp, &adapt).unwrap_err();
            assert!(err.starts_with("threshold_adapt names device") && err.ends_with(&adapt));
            let down = rec("fault", w);
            let err = replay_residency(&down).unwrap_err();
            assert!(err.starts_with("fault names device") && err.ends_with(&down));
        }
        // A far but valid index costs one map entry.
        let far = |evs: [&str; 2]| evs.map(|ev| rec(ev, "4e9")).join("\n");
        assert_eq!(
            replay_staleness(dssp, &far(["threshold_adapt", "gate_enter"])),
            Ok(1)
        );
        assert!(replay_residency(&far(["fault", "push_start"])).is_err());
    }

    /// The journals the mutation proptest starts from, with their runs'
    /// strategies and metrics: the `rog_indoor` golden (checked to be
    /// its configuration's journal), a lossy trace of the `codec auto`
    /// rung under 10 % burst loss, which journals `loss` and
    /// `codec_select` records, and a DSSP run's `threshold_adapt` ones.
    fn seed_journals() -> &'static [(Strategy, RunMetrics, String); 3] {
        static JOURNALS: OnceLock<[(Strategy, RunMetrics, String); 3]> = OnceLock::new();
        JOURNALS.get_or_init(|| {
            let mut cfg = ExperimentConfig {
                workload: WorkloadKind::Cruda,
                environment: Environment::Indoor,
                strategy: Strategy::Rog { threshold: 4 },
                model_scale: ModelScale::Small,
                n_workers: 2,
                n_laptop_workers: 0,
                duration_secs: 60.0,
                eval_every: 5,
                seed: 42,
                ..ExperimentConfig::default()
            };
            let run = |cfg: &ExperimentConfig| {
                let out = cfg.options().traced(true).run();
                (
                    cfg.strategy,
                    out.metrics,
                    out.journal.expect("traced").to_jsonl(),
                )
            };
            let golden = run(&cfg);
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/golden/rog_indoor.jsonl.gz"
            );
            let gz = std::fs::read(path).expect("read the golden");
            let text = gzip_decompress(&gz).expect("the golden gunzips");
            assert!(
                text == golden.2.as_bytes(),
                "the rog_indoor golden is not its run's journal"
            );
            let mut lossy = cfg.clone();
            lossy.codec = CodecChoice::Auto;
            lossy.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
            cfg.strategy = Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            };
            [golden, run(&lossy), run(&cfg)]
        })
    }

    /// The numbers a mutation writes into a field: negative, `2^64`,
    /// past every counter, and fractional.
    const EXTREMES: [&str; 6] = [
        "-1",
        "18446744073709551616",
        "1e308",
        "-1e308",
        "0.5",
        "2.5",
    ];

    /// One mutation of a journal's lines: `op` 0 drops line `at`, 1
    /// swaps it with line `to`, 2 duplicates it before line `to`, and
    /// `3 + k` sets its numeric field number `to` to `EXTREMES[k]`.
    fn mutate(lines: &mut Vec<String>, (op, at, to): (usize, usize, usize)) {
        if lines.is_empty() {
            return;
        }
        let (i, j) = (at % lines.len(), to % lines.len());
        match op {
            0 => _ = lines.remove(i),
            1 => lines.swap(i, j),
            2 => lines.insert(j, lines[i].clone()),
            _ => {
                let line = &lines[i];
                let starts = line.match_indices("\":").map(|(k, _)| k + 2);
                let numbers: Vec<(usize, usize)> = starts
                    .filter(|&k| line[k..].starts_with(|c: char| c == '-' || c.is_ascii_digit()))
                    .map(|k| (k, k + line[k..].find([',', '}']).unwrap_or(line.len() - k)))
                    .collect();
                if let Some(&(from, end)) = numbers.get(to % numbers.len().max(1)) {
                    lines[i] = format!("{}{}{}", &line[..from], EXTREMES[op - 3], &line[end..]);
                }
            }
        }
    }

    #[test]
    fn the_seed_journals_reconcile_and_replay_clean() {
        for (strategy, metrics, journal) in seed_journals() {
            let summary = TraceSummary::from_jsonl(journal).expect("parses");
            assert_eq!(metrics.reconcile(&summary), Vec::<String>::new());
            assert!(replay_staleness(*strategy, journal).expect("bound") > 0);
            assert_eq!(replay_residency(journal), Ok(()));
            let mut v = Vec::new();
            check_codec_select(&sc(CodecChoice::Auto), journal, &mut v);
            assert!(v.is_empty(), "{v:?}");
        }
        for (which, ev) in [(1, "loss"), (1, "codec_select"), (2, "threshold_adapt")] {
            let journal = &seed_journals()[which].2;
            assert!(
                journal.contains(&format!("\"ev\":\"{ev}\"")),
                "no {ev} record"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A mutated journal — lines dropped, swapped and duplicated,
        /// numeric fields set to extremes — never panics the summary or
        /// the fuzzer's three readers: each returns an `Err`, or an
        /// `Ok` no larger than the journal's line count.
        #[test]
        fn a_mutated_journal_is_refused_or_bounded(
            which in 0usize..3,
            edits in proptest::collection::vec((0usize..9, 0usize..1 << 20, 0usize..1 << 20), 1..8),
        ) {
            let mut lines: Vec<String> = seed_journals()[which].2.lines().map(str::to_owned).collect();
            for &edit in &edits {
                mutate(&mut lines, edit);
            }
            let (journal, n) = (lines.join("\n"), lines.len());
            if let Ok(s) = TraceSummary::from_jsonl(&journal) {
                prop_assert!(s.lines <= n && s.timelines.len() <= n && s.event_counts.len() <= n);
            }
            let (min_threshold, max_threshold) = (1, 8);
            for strategy in [
                Strategy::Rog { threshold: 4 },
                Strategy::Dssp { min_threshold, max_threshold },
                Strategy::RogAdaptive { min_threshold, max_threshold },
            ] {
                if let Ok(gates) = replay_staleness(strategy, &journal) {
                    prop_assert!(gates <= n);
                }
            }
            let _ = replay_residency(&journal);
            let mut v = Vec::new();
            check_codec_select(&sc(CodecChoice::Auto), &journal, &mut v);
            prop_assert!(v.len() <= 1);
        }
    }
}
