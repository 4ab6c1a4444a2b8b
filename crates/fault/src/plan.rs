//! The declarative fault plan: validated windows plus a seeded churn
//! generator.

use crate::clock::{FaultClock, FaultEvent};
use rog_sim::Time;
use rog_tensor::rng::DetRng;

/// What a fault window disables while it is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker process itself is gone (robot rebooted / drove away):
    /// in-flight transfers are lost, local optimizer state is lost, and
    /// the worker must resync on rejoin.
    WorkerOffline(usize),
    /// Only the worker's wireless link is down; the worker keeps its
    /// local state and resumes the interrupted transfer (from scratch —
    /// retransmit semantics) when the link returns.
    LinkBlackout(usize),
    /// Parameter-server shard `s` is down (checkpoint/restart). All
    /// in-flight transfers touching that shard are cancelled; workers
    /// stall on rows it homes — or, under a sharded plane, keep
    /// training rows homed elsewhere — until it returns. Shard state is
    /// durable (checkpointed). Unsharded runs use shard 0.
    ServerOutage(usize),
    /// Edge aggregator `a` is down: every worker it fronts is severed
    /// from the parameter plane (their flows are cancelled and they
    /// stall, keeping local state) until the aggregator returns. Only
    /// meaningful in a hierarchical run (`aggregators > 0`); engines
    /// reject the window otherwise.
    AggregatorOutage(usize),
}

/// A half-open interval `[start, end)` of virtual time during which a
/// [`FaultKind`] is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// What is down.
    pub kind: FaultKind,
    /// Virtual time at which the fault begins (seconds, inclusive).
    pub start: Time,
    /// Virtual time at which the fault ends (seconds, exclusive).
    pub end: Time,
}

impl FaultWindow {
    /// Window length in virtual seconds.
    #[must_use]
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// A scripted packet-loss window: extra i.i.d. chunk-loss probability
/// `rate` on one worker's link during `[start, end)`.
///
/// Unlike [`FaultWindow`]s, loss windows do not compile into point
/// events on the [`FaultClock`] — the engines fold them into the
/// channel's loss model, which consults them continuously. They are
/// kept separate from [`FaultKind`] because they carry a real-valued
/// rate rather than an on/off state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossWindow {
    /// The worker whose link loses packets.
    pub link: usize,
    /// Virtual time at which the loss begins (seconds, inclusive).
    pub start: Time,
    /// Virtual time at which the loss ends (seconds, exclusive).
    pub end: Time,
    /// Added chunk-loss probability in `[0, 1]`.
    pub rate: f64,
}

/// Error produced when building or parsing an invalid plan.
///
/// Errors raised while parsing a script carry the 1-based line number
/// and the offending line's original text ([`FaultPlanError::line`] /
/// [`FaultPlanError::line_text`]), so tools that emit scripts — the
/// fuzz shrinker in particular — can point at the exact line that
/// failed. Builder-path errors carry no location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    msg: String,
    line: Option<u32>,
    line_text: Option<String>,
}

impl FaultPlanError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            line: None,
            line_text: None,
        }
    }

    /// Attaches the 1-based script line number and its original text.
    pub(crate) fn with_line(mut self, line: usize, text: &str) -> Self {
        self.line = Some(line as u32);
        self.line_text = Some(text.to_owned());
        self
    }

    /// The 1-based script line this error points at, when the error
    /// came from [`FaultPlan::parse`].
    #[must_use]
    pub fn line(&self) -> Option<u32> {
        self.line
    }

    /// The offending script line's original text (comments included),
    /// when the error came from a script parse.
    #[must_use]
    pub fn line_text(&self) -> Option<&str> {
        self.line_text.as_deref()
    }

    /// The bare error message, without the "invalid fault plan" /
    /// line-location framing.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.line_text.as_deref()) {
            (Some(n), Some(text)) => {
                write!(f, "invalid fault plan: line {n}: {} (`{text}`)", self.msg)
            }
            (Some(n), None) => write!(f, "invalid fault plan: line {n}: {}", self.msg),
            _ => write!(f, "invalid fault plan: {}", self.msg),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Parameters for [`FaultPlan::seeded_churn`]: exponential up/down
/// intervals with floors, mirroring intermittent-connectivity traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProfile {
    /// Mean online interval between departures (seconds).
    pub mean_up_secs: f64,
    /// Mean offline interval per departure (seconds).
    pub mean_down_secs: f64,
    /// Minimum online interval (floors the exponential draw).
    pub min_up_secs: f64,
    /// Minimum offline interval (floors the exponential draw).
    pub min_down_secs: f64,
    /// Keep worker 0 always online as a stable anchor (so the cluster
    /// never empties and a rejoiner always has a resync source).
    pub keep_first_online: bool,
}

impl Default for ChurnProfile {
    fn default() -> Self {
        Self {
            mean_up_secs: 120.0,
            mean_down_secs: 25.0,
            min_up_secs: 20.0,
            min_down_secs: 5.0,
            keep_first_online: true,
        }
    }
}

/// A validated, ordered collection of [`FaultWindow`]s.
///
/// Windows of the same kind (same worker for per-worker kinds) must not
/// overlap; windows of different kinds may. The empty plan is the
/// explicit "no faults" value and is guaranteed zero-cost when wired
/// into an engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    loss_windows: Vec<LossWindow>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan holds no windows at all (fault or loss).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.loss_windows.is_empty()
    }

    /// The validated windows, in insertion order.
    #[must_use]
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The validated packet-loss windows, in insertion order.
    #[must_use]
    pub fn loss_windows(&self) -> &[LossWindow] {
        &self.loss_windows
    }

    /// Largest worker index referenced by any per-worker window —
    /// fault or loss — if any. Engines validate this against the
    /// configured cluster size.
    #[must_use]
    pub fn max_worker(&self) -> Option<usize> {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::WorkerOffline(i) | FaultKind::LinkBlackout(i) => Some(i),
                FaultKind::ServerOutage(_) | FaultKind::AggregatorOutage(_) => None,
            })
            .chain(self.loss_windows.iter().map(|w| w.link))
            .max()
    }

    /// Largest server shard referenced by any outage window, if any.
    /// Engines validate this against the configured shard count.
    #[must_use]
    pub fn max_shard(&self) -> Option<usize> {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::ServerOutage(s) => Some(s),
                _ => None,
            })
            .max()
    }

    /// Largest aggregator referenced by any aggregator-outage window,
    /// if any. Engines validate this against the configured aggregator
    /// count (and reject any such window in a flat run).
    #[must_use]
    pub fn max_aggregator(&self) -> Option<usize> {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::AggregatorOutage(a) => Some(a),
                _ => None,
            })
            .max()
    }

    /// Adds a worker-offline window (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window.
    #[must_use]
    pub fn worker_offline(mut self, worker: usize, start: Time, end: Time) -> Self {
        self.try_push(FaultWindow {
            kind: FaultKind::WorkerOffline(worker),
            start,
            end,
        })
        .expect("valid worker-offline window");
        self
    }

    /// Adds a link-blackout window (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window.
    #[must_use]
    pub fn link_blackout(mut self, worker: usize, start: Time, end: Time) -> Self {
        self.try_push(FaultWindow {
            kind: FaultKind::LinkBlackout(worker),
            start,
            end,
        })
        .expect("valid link-blackout window");
        self
    }

    /// Adds a server-outage window on shard 0 (builder style). Shard 0
    /// is the whole server in an unsharded run.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window.
    #[must_use]
    pub fn server_restart(self, start: Time, end: Time) -> Self {
        self.server_restart_on(0, start, end)
    }

    /// Adds a server-outage window on a specific shard (builder style).
    /// Windows on different shards may overlap freely.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window.
    #[must_use]
    pub fn server_restart_on(mut self, shard: usize, start: Time, end: Time) -> Self {
        self.try_push(FaultWindow {
            kind: FaultKind::ServerOutage(shard),
            start,
            end,
        })
        .expect("valid server-outage window");
        self
    }

    /// Adds an aggregator-outage window (builder style): edge
    /// aggregator `a` and every worker it fronts are severed during
    /// `[start, end)`. Windows on different aggregators may overlap.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window.
    #[must_use]
    pub fn aggregator_outage(mut self, aggregator: usize, start: Time, end: Time) -> Self {
        self.try_push(FaultWindow {
            kind: FaultKind::AggregatorOutage(aggregator),
            start,
            end,
        })
        .expect("valid aggregator-outage window");
        self
    }

    /// Adds a packet-loss window (builder style): extra chunk-loss
    /// probability `rate` on `link` during `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite, negative, empty, or overlapping window,
    /// or a rate outside `[0, 1]`.
    #[must_use]
    pub fn link_loss(mut self, link: usize, start: Time, end: Time, rate: f64) -> Self {
        self.try_push_loss(LossWindow {
            link,
            start,
            end,
            rate,
        })
        .expect("valid link-loss window");
        self
    }

    /// Validates and appends a packet-loss window.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative times, empty windows, rates
    /// outside `[0, 1]`, and windows overlapping an existing loss
    /// window on the same link.
    pub fn try_push_loss(&mut self, w: LossWindow) -> Result<(), FaultPlanError> {
        let bad_rate = (!w.rate.is_finite() || !(0.0..=1.0).contains(&w.rate))
            .then(|| format!("loss rate out of [0, 1]: {}", w.rate));
        let taken = self.loss_windows.iter().filter(|e| e.link == w.link);
        let taken = taken.map(|e| (e.start, e.end));
        check_window("loss window", (w.start, w.end), bad_rate, taken, || {
            format!("on link {}", w.link)
        })?;
        self.loss_windows.push(w);
        Ok(())
    }

    /// Validates and appends a window.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative times, empty windows, and windows
    /// overlapping an existing window of the same kind.
    pub fn try_push(&mut self, w: FaultWindow) -> Result<(), FaultPlanError> {
        let taken = self.windows.iter().filter(|e| e.kind == w.kind);
        let taken = taken.map(|e| (e.start, e.end));
        check_window("window", (w.start, w.end), None, taken, || {
            format!("of the same kind {:?}", w.kind)
        })?;
        self.windows.push(w);
        Ok(())
    }

    /// Generates a reproducible churn plan: every worker (except worker
    /// 0 when `profile.keep_first_online`) alternates exponential online
    /// and offline intervals until `duration_secs`. Each worker draws
    /// from its own forked RNG stream, so the plan for worker `w` does
    /// not change when other workers are added or removed.
    #[must_use]
    pub fn seeded_churn(
        seed: u64,
        n_workers: usize,
        duration_secs: f64,
        profile: &ChurnProfile,
    ) -> Self {
        let root = DetRng::new(seed);
        let mut plan = Self::new();
        for w in 0..n_workers {
            if profile.keep_first_online && w == 0 {
                continue;
            }
            let mut rng = root.fork(0x8000 + w as u64);
            // Exponential draw via inversion; DetRng::uniform is in
            // [0, 1) so 1 - u is in (0, 1] and the log is finite.
            let mut exp = move |mean: f64| -mean * (1.0 - rng.uniform()).ln();
            let mut t = exp(profile.mean_up_secs).max(profile.min_up_secs);
            while t < duration_secs {
                let down = exp(profile.mean_down_secs).max(profile.min_down_secs);
                plan = plan.worker_offline(w, t, t + down);
                t += down + exp(profile.mean_up_secs).max(profile.min_up_secs);
            }
        }
        plan
    }

    /// Compiles the plan into a sorted point-event clock.
    ///
    /// Events at the same instant are ordered recoveries-first (a
    /// worker coming back at `t` is processed before another going down
    /// at `t`), then by kind, then by worker index — a total order, so
    /// the schedule is deterministic regardless of insertion order.
    #[must_use]
    pub fn schedule(&self) -> FaultClock {
        let mut events: Vec<(Time, FaultEvent)> = Vec::with_capacity(self.windows.len() * 2);
        for w in &self.windows {
            let (down, up) = match w.kind {
                FaultKind::WorkerOffline(i) => (FaultEvent::WorkerDown(i), FaultEvent::WorkerUp(i)),
                FaultKind::LinkBlackout(i) => {
                    (FaultEvent::BlackoutStart(i), FaultEvent::BlackoutEnd(i))
                }
                FaultKind::ServerOutage(s) => (FaultEvent::ServerDown(s), FaultEvent::ServerUp(s)),
                FaultKind::AggregatorOutage(a) => {
                    (FaultEvent::AggregatorDown(a), FaultEvent::AggregatorUp(a))
                }
            };
            events.push((w.start, down));
            events.push((w.end, up));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("windows validated finite")
                .then_with(|| a.1.rank().cmp(&b.1.rank()))
        });
        FaultClock::from_events(events)
    }
}

/// The checks a window takes before it joins a plan, in this order: its
/// times are finite, it starts at or after t=0, it is not empty, `bad`
/// (a check of the window's own value) is `None`, and it overlaps none
/// of `taken`, the windows with its target (`target` names that).
/// `noun` names the window in every message.
fn check_window(
    noun: &str,
    (start, end): (Time, Time),
    bad: Option<String>,
    taken: impl IntoIterator<Item = (Time, Time)>,
    target: impl FnOnce() -> String,
) -> Result<(), FaultPlanError> {
    let msg = if !start.is_finite() || !end.is_finite() {
        format!("non-finite {noun} [{start}, {end})")
    } else if start < 0.0 {
        format!("{noun} starts before t=0 ({start})")
    } else if end <= start {
        format!("empty or inverted {noun} [{start}, {end})")
    } else if let Some(msg) = bad {
        msg
    } else if let Some((s, e)) = taken.into_iter().find(|&(s, e)| start < e && s < end) {
        format!("{noun} [{start}, {end}) overlaps [{s}, {e}) {}", target())
    } else {
        return Ok(());
    };
    Err(FaultPlanError::new(msg))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Builds a random — but valid — plan from one seed, exercising
    /// every expressible directive: all four fault kinds plus loss
    /// windows, with awkward fractional times and rates.
    pub(crate) fn random_plan(seed: u64) -> FaultPlan {
        let mut rng = DetRng::new(seed ^ 0x5eed_f007);
        let mut plan = FaultPlan::new();
        let n = 1 + rng.index(12);
        for _ in 0..n {
            // Times deliberately include long-decimal floats (the
            // raw uniform draw) and not just round grid points: the
            // script must survive `{}` formatting byte-for-byte.
            let start = match rng.index(3) {
                0 => rng.index(500) as f64,
                1 => (rng.index(5000) as f64) / 10.0,
                _ => rng.uniform_range(0.0, 500.0),
            };
            let dur = match rng.index(3) {
                0 => 1.0 + rng.index(60) as f64,
                1 => 0.125 + (rng.index(400) as f64) / 8.0,
                _ => rng.uniform_range(1e-6, 60.0),
            };
            let idx = rng.index(8);
            let end = start + dur;
            let window = |kind| FaultWindow { kind, start, end };
            let res = match rng.index(5) {
                0 => plan.try_push(window(FaultKind::WorkerOffline(idx))),
                1 => plan.try_push(window(FaultKind::LinkBlackout(idx))),
                2 => plan.try_push(window(FaultKind::ServerOutage(idx % 4))),
                3 => plan.try_push(window(FaultKind::AggregatorOutage(idx % 4))),
                _ => {
                    let rate = match rng.index(3) {
                        0 => (rng.index(101) as f64) / 100.0,
                        1 => 1.0,
                        _ => rng.uniform(),
                    };
                    plan.try_push_loss(LossWindow {
                        link: idx,
                        start,
                        end,
                        rate,
                    })
                }
            };
            // Overlaps with an earlier same-kind window are the
            // only admissible rejection; everything else is a bug
            // in the generator above.
            if let Err(e) = res {
                assert!(e.message().contains("overlaps"), "{e}");
            }
        }
        plan
    }

    /// Each target's edges in schedule order, `true` for an outage.
    fn edges_per_target(plan: &FaultPlan) -> BTreeMap<(u8, usize), Vec<bool>> {
        let mut clock = plan.schedule();
        let mut edges: BTreeMap<(u8, usize), Vec<bool>> = BTreeMap::new();
        while let Some(t) = clock.next_time() {
            for e in clock.pop_due(t) {
                let (up_or_down, kind, target) = e.rank();
                edges
                    .entry((kind, target))
                    .or_default()
                    .push(up_or_down == 1);
            }
        }
        edges
    }

    /// Whether every target's edges alternate down, up, down, … and
    /// end up.
    fn alternate(edges: &BTreeMap<(u8, usize), Vec<bool>>) -> bool {
        edges.values().all(|e| {
            e.len() % 2 == 0 && e.iter().enumerate().all(|(i, &down)| down == (i % 2 == 0))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// What lets the engines' fault lifecycle flip each mask on
        /// every edge without checking it first: for every (kind,
        /// target) the schedule alternates down/up, starting down —
        /// also when one window closes at the instant the next opens.
        #[test]
        fn every_target_alternates_down_and_up(seed in 0u64..512) {
            let mut plan = random_plan(seed);
            // A back-to-back twin of every window (end == start) that
            // fits, so shared instants are common.
            for w in plan.windows().to_vec() {
                let twin = FaultWindow { kind: w.kind, start: w.end, end: w.end + 1.0 };
                let _ = plan.try_push(twin);
            }
            let edges = edges_per_target(&plan);
            prop_assert!(alternate(&edges), "{edges:?}");
        }

        #[test]
        fn seeded_churn_alternates_down_and_up(seed in 0u64..256) {
            let profile = ChurnProfile {
                mean_up_secs: 5.0,
                mean_down_secs: 5.0,
                min_up_secs: 0.0,
                min_down_secs: 0.5,
                keep_first_online: false,
            };
            let plan = FaultPlan::seeded_churn(seed, 6, 300.0, &profile);
            let edges = edges_per_target(&plan);
            prop_assert!(!edges.is_empty());
            prop_assert!(alternate(&edges), "{edges:?}");
        }
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let clock = FaultPlan::new().schedule();
        assert!(clock.next_time().is_none());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().max_worker(), None);
    }

    #[test]
    fn builder_windows_become_paired_events_in_time_order() {
        let plan = FaultPlan::new()
            .worker_offline(2, 40.0, 80.0)
            .link_blackout(0, 10.0, 20.0)
            .server_restart(50.0, 55.0);
        assert_eq!(plan.windows().len(), 3);
        assert_eq!(plan.max_worker(), Some(2));
        let mut clock = plan.schedule();
        let mut seen = Vec::new();
        while let Some(t) = clock.next_time() {
            for e in clock.pop_due(t) {
                seen.push((t, e));
            }
        }
        assert_eq!(
            seen,
            vec![
                (10.0, FaultEvent::BlackoutStart(0)),
                (20.0, FaultEvent::BlackoutEnd(0)),
                (40.0, FaultEvent::WorkerDown(2)),
                (50.0, FaultEvent::ServerDown(0)),
                (55.0, FaultEvent::ServerUp(0)),
                (80.0, FaultEvent::WorkerUp(2)),
            ]
        );
    }

    #[test]
    fn recoveries_sort_before_failures_at_the_same_instant() {
        let plan = FaultPlan::new()
            .worker_offline(1, 10.0, 20.0)
            .worker_offline(2, 20.0, 30.0);
        let mut clock = plan.schedule();
        clock.pop_due(10.0);
        assert_eq!(
            clock.pop_due(20.0),
            vec![FaultEvent::WorkerUp(1), FaultEvent::WorkerDown(2)]
        );
    }

    #[test]
    fn overlap_of_same_kind_is_rejected() {
        let mut plan = FaultPlan::new().worker_offline(1, 10.0, 20.0);
        let overlapping = FaultWindow {
            kind: FaultKind::WorkerOffline(1),
            start: 15.0,
            end: 25.0,
        };
        assert!(plan.try_push(overlapping).is_err());
        // Different worker, same interval: fine.
        let other = FaultWindow {
            kind: FaultKind::WorkerOffline(2),
            start: 15.0,
            end: 25.0,
        };
        assert!(plan.try_push(other).is_ok());
        // Touching windows (end == start) do not overlap.
        let touching = FaultWindow {
            kind: FaultKind::WorkerOffline(1),
            start: 20.0,
            end: 22.0,
        };
        assert!(plan.try_push(touching).is_ok());
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let mut plan = FaultPlan::new();
        for (start, end) in [
            (f64::NAN, 1.0),
            (0.0, f64::INFINITY),
            (-1.0, 1.0),
            (5.0, 5.0),
            (5.0, 4.0),
        ] {
            let w = FaultWindow {
                kind: FaultKind::ServerOutage(0),
                start,
                end,
            };
            assert!(plan.try_push(w).is_err(), "[{start}, {end}) accepted");
        }
        assert!(plan.is_empty());
    }

    #[test]
    fn outages_on_different_shards_may_overlap() {
        let plan = FaultPlan::new()
            .server_restart_on(0, 10.0, 30.0)
            .server_restart_on(1, 20.0, 40.0);
        assert_eq!(plan.max_shard(), Some(1));
        assert_eq!(plan.max_worker(), None, "shards are not workers");
        let mut clock = plan.schedule();
        assert_eq!(clock.pop_due(10.0), vec![FaultEvent::ServerDown(0)]);
        assert_eq!(clock.pop_due(20.0), vec![FaultEvent::ServerDown(1)]);
        assert_eq!(clock.pop_due(30.0), vec![FaultEvent::ServerUp(0)]);
        assert_eq!(clock.pop_due(40.0), vec![FaultEvent::ServerUp(1)]);
        // Same shard, overlapping: rejected like any same-kind overlap.
        let mut bad = FaultPlan::new().server_restart_on(0, 10.0, 30.0);
        assert!(bad
            .try_push(FaultWindow {
                kind: FaultKind::ServerOutage(0),
                start: 15.0,
                end: 35.0,
            })
            .is_err());
    }

    #[test]
    fn seeded_churn_is_deterministic_and_respects_floors() {
        let p = ChurnProfile::default();
        let a = FaultPlan::seeded_churn(7, 4, 600.0, &p);
        let b = FaultPlan::seeded_churn(7, 4, 600.0, &p);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "600 s at mean-up 120 s should churn");
        for w in a.windows() {
            assert!(w.duration() >= p.min_down_secs - 1e-12);
            assert!(w.start >= p.min_up_secs - 1e-12);
            assert!(matches!(w.kind, FaultKind::WorkerOffline(i) if i != 0 && i < 4));
        }
        let c = FaultPlan::seeded_churn(8, 4, 600.0, &p);
        assert_ne!(a, c, "different seed must give a different plan");
    }

    #[test]
    fn seeded_churn_streams_are_stable_under_cluster_growth() {
        let p = ChurnProfile::default();
        let small = FaultPlan::seeded_churn(7, 3, 600.0, &p);
        let large = FaultPlan::seeded_churn(7, 5, 600.0, &p);
        let of = |plan: &FaultPlan, worker: usize| -> Vec<FaultWindow> {
            plan.windows()
                .iter()
                .copied()
                .filter(|w| w.kind == FaultKind::WorkerOffline(worker))
                .collect()
        };
        for w in 1..3 {
            assert_eq!(of(&small, w), of(&large, w));
        }
    }

    #[test]
    fn loss_windows_validate_and_count_toward_plan_shape() {
        let plan = FaultPlan::new().link_loss(2, 10.0, 30.0, 0.25);
        assert!(!plan.is_empty());
        assert_eq!(plan.max_worker(), Some(2));
        assert_eq!(plan.loss_windows().len(), 1);
        assert!(plan.windows().is_empty());
        // Loss windows schedule no clock events.
        assert!(plan.schedule().next_time().is_none());
    }

    #[test]
    fn loss_window_overlap_and_bad_rates_are_rejected() {
        let mut plan = FaultPlan::new().link_loss(1, 10.0, 20.0, 0.5);
        let overlapping = LossWindow {
            link: 1,
            start: 15.0,
            end: 25.0,
            rate: 0.1,
        };
        assert!(plan.try_push_loss(overlapping).is_err());
        // Same span on another link is fine, as is a touching window.
        let other_link = LossWindow {
            link: 2,
            ..overlapping
        };
        assert!(plan.try_push_loss(other_link).is_ok());
        let touching = LossWindow {
            link: 1,
            start: 20.0,
            end: 22.0,
            rate: 1.0,
        };
        assert!(plan.try_push_loss(touching).is_ok());
        for rate in [-0.1, 1.1, f64::NAN] {
            let w = LossWindow {
                link: 0,
                start: 0.0,
                end: 1.0,
                rate,
            };
            assert!(plan.try_push_loss(w).is_err(), "rate {rate} accepted");
        }
        for (start, end) in [(f64::NAN, 1.0), (-1.0, 1.0), (5.0, 5.0)] {
            let w = LossWindow {
                link: 0,
                start,
                end,
                rate: 0.5,
            };
            assert!(plan.try_push_loss(w).is_err(), "[{start}, {end}) accepted");
        }
    }

    #[test]
    fn keep_first_online_false_churns_worker_zero() {
        let p = ChurnProfile {
            keep_first_online: false,
            mean_up_secs: 30.0,
            ..ChurnProfile::default()
        };
        let plan = FaultPlan::seeded_churn(3, 2, 2000.0, &p);
        assert!(plan
            .windows()
            .iter()
            .any(|w| w.kind == FaultKind::WorkerOffline(0)));
    }
}
