//! Adaptive control for both simulated engines, in one shape: plain
//! state, a pure decision rule, and the engine applying the result at a
//! deterministic point, so runs stay byte-identical run to run.
//!
//! * Row engine (`--auto-threshold`, the `roga` bound, `--codec auto`):
//!   every N completed cluster iterations ([`Window`]) read a signal —
//!   two of them the link stress ([`link_stress`]) — apply hysteresis,
//!   journal the switch (`RowEngine::run_controllers`).
//! * Model engine ([`GateControl`]: FLOWN, DSSP, ABS): the engine reports
//!   each worker's finished [`Round`] and the rule rewrites the gate
//!   thresholds in place. BSP/SSP/ASP have no controller: their bound is
//!   a constant read off the `Strategy`.

use rog_compress::CodecChoice;
use rog_sim::Time;

use crate::config::Strategy;

/// Controller period, counted in completed iterations cluster-wide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    every: u64,
    /// Iterations completed when the window last restarted.
    last: u64,
}

impl Window {
    pub(crate) fn new(every: u64) -> Self {
        Self { every, last: 0 }
    }

    /// Whether the window has elapsed at `total_iters` completed
    /// iterations.
    pub(crate) fn due(&self, total_iters: u64) -> bool {
        total_iters >= self.last + self.every
    }

    /// Starts the next window at `total_iters`.
    pub(crate) fn restart(&mut self, total_iters: u64) {
        self.last = total_iters;
    }
}

/// Stress in `[0, 1]` of a set of links, from each link's
/// `(loss-rate EWMA, goodput EWMA)`: the worst loss rate plus the
/// straggler-link share — how far the weakest link's goodput falls
/// below `max_good`, the cluster's strongest. The channel's global
/// sharing divisor cancels in the ratio, leaving pure fade × delivery
/// probability.
pub(crate) fn link_stress(links: impl Iterator<Item = (f64, f64)>, max_good: f64) -> f64 {
    let mut max_loss = 0.0f64;
    let mut min_good = f64::INFINITY;
    for (loss, good) in links {
        max_loss = max_loss.max(loss);
        min_good = min_good.min(good);
    }
    let lag = if max_good > 0.0 {
        (1.0 - min_good / max_good).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (2.5 * max_loss + lag).min(1.0)
}

/// Online staleness-threshold controller: widens the threshold when the
/// cluster is stalling (buy throughput), narrows it when the channel is
/// calm (buy statistical efficiency) — the paper's Sec. VI-C future
/// work, as a simple hysteresis controller over the recent stall share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AutoThreshold {
    min: u32,
    max: u32,
    pub(crate) window: Window,
    stall_hi: f64,
    stall_lo: f64,
    /// Virtual time of the last check.
    pub(crate) last_time: Time,
}

impl AutoThreshold {
    pub(crate) fn new(initial: u32) -> Self {
        Self {
            // Never narrow below the configured threshold: narrowing is
            // only meaningful relative to what the controller itself
            // widened (below that, low stall is *caused* by the tight
            // gate, and the controller would oscillate — especially in
            // pipeline mode where the threshold also bounds the
            // pipeline depth).
            min: initial,
            max: 40,
            window: Window::new(60),
            stall_hi: 0.18,
            stall_lo: 0.04,
            last_time: 0.0,
        }
    }

    /// The threshold to run with after a window whose cluster-wide
    /// stall share was `stall_share`, given the current one.
    pub(crate) fn decide(&self, old: u32, stall_share: f64) -> u32 {
        if stall_share > self.stall_hi {
            ((old as f64 * 1.5).ceil() as u32).min(self.max)
        } else if stall_share < self.stall_lo {
            (old.saturating_sub((old as f64 * 0.25).ceil() as u32)).max(self.min)
        } else {
            old
        }
    }
}

/// Adaptive-bound RSP controller (the `roga` hybrid): drives the row
/// gate's staleness bound from the per-link loss-rate and goodput EWMAs
/// the channel already maintains. A calm, uniform channel narrows the
/// bound toward `min` (statistical efficiency); packet loss or a faded
/// straggler link widens it toward `max` so healthy devices keep
/// computing through the turbulence. Unlike [`AutoThreshold`] — which
/// reacts to the *symptom*, the observed stall share — this controller
/// reacts to the *cause* and can move before stalls accumulate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptiveBound {
    min: u32,
    max: u32,
    pub(crate) window: Window,
}

impl AdaptiveBound {
    /// [`crate::ExperimentConfig::check`] has admitted `1 <= min <= max`.
    pub(crate) fn new(min: u32, max: u32) -> Self {
        Self {
            min,
            max,
            window: Window::new(24),
        }
    }

    /// The bound the cluster-wide link stress calls for.
    pub(crate) fn desired(&self, stress: f64) -> u32 {
        let span = f64::from(self.max - self.min);
        self.min + (stress * span).round() as u32
    }
}

/// Per-link codec selector (`--codec auto`): every window it re-picks
/// each worker's row codec from the stress of that worker's links. A
/// calm, uniform link keeps the dense one-bit codec (full sign
/// information, best statistical efficiency); a lossy or faded
/// straggler link drops to sparse-delta so the fewest bytes possible
/// squeeze through the bad link. Every change is journaled as a
/// `codec_select` event and replay-checked by the fuzzer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodecAuto {
    pub(crate) window: Window,
    /// Stress level above which a link falls back from dense one-bit to
    /// sparse-delta.
    stress_hi: f64,
    /// Stress level below which a sparse link recovers to one-bit
    /// (hysteresis gap keeps the selector from flapping).
    stress_lo: f64,
}

impl CodecAuto {
    pub(crate) fn new() -> Self {
        Self {
            window: Window::new(24),
            stress_hi: 0.35,
            stress_lo: 0.15,
        }
    }

    /// The codec for a worker whose links are under `stress`. Inside
    /// the hysteresis band a link keeps whatever codec it has, so EWMA
    /// jitter cannot flap it.
    pub(crate) fn choose(&self, stress: f64, current_sparse: bool) -> CodecChoice {
        if stress > self.stress_hi {
            CodecChoice::Sparse
        } else if stress < self.stress_lo || !current_sparse {
            CodecChoice::OneBit
        } else {
            CodecChoice::Sparse
        }
    }
}

/// One finished synchronization round of one model-engine worker
/// (push-done to push-done on the virtual clock).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Round {
    pub(crate) worker: usize,
    /// Seconds the whole-model push took.
    pub(crate) push_secs: f64,
    /// Seconds since the worker's previous push completed.
    pub(crate) round_secs: f64,
    /// Seconds the worker waited at the gate before its last pull was
    /// granted; `0.0` when it passed straight through.
    pub(crate) gate_wait: f64,
}

/// FLOWN-style dynamic scheduling (Chen et al. 2021, reference 19 of
/// the paper): workers estimated to have *low* bandwidth and *low*
/// contribution get a larger staleness allowance; workers with good
/// links and large gradients are held to a small threshold so their
/// updates stay fresh.
///
/// The schedule is recomputed from measurements of *previous* rounds —
/// precisely the weakness the paper exploits: in robotic IoT networks
/// the bandwidth during the coming transmission is only loosely related
/// to the last measurement, so the schedule frequently mismatches
/// reality (Sec. I).
#[derive(Debug, Clone)]
pub(crate) struct Flown {
    min: u32,
    max: u32,
    /// Bits of one whole-model transfer.
    wire_bits: f64,
    /// Latest per-worker bandwidth estimate in bit/s (prior: 50 Mbit/s).
    bandwidth: Vec<f64>,
    /// [`Self::bandwidth`] smoothed once per assignment for *every*
    /// worker: an estimate that did not move is still converged on.
    smoothed: Vec<f64>,
    /// Mean absolute value of each worker's last gradient, its estimated
    /// contribution to accuracy (prior: 1).
    contribution: Vec<f64>,
}

impl Flown {
    const ALPHA: f64 = 0.4;

    fn new(min: u32, max: u32, n_workers: usize, wire_bytes: u64) -> Self {
        Self {
            min,
            max,
            wire_bits: wire_bytes as f64 * 8.0,
            bandwidth: vec![50e6; n_workers],
            smoothed: vec![50e6; n_workers],
            contribution: vec![1.0; n_workers],
        }
    }

    fn assign(&mut self, thresholds: &mut [u32]) {
        for (sm, &bw) in self.smoothed.iter_mut().zip(&self.bandwidth) {
            *sm = Self::ALPHA * bw + (1.0 - Self::ALPHA) * *sm;
        }
        let max_bw = self.smoothed.iter().cloned().fold(1.0f64, f64::max);
        let max_contrib = self
            .contribution
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        let span = f64::from(self.max - self.min);
        for (w, t) in thresholds.iter_mut().enumerate() {
            // Normalized goodness in [0, 1]: fast link + large
            // gradients → small threshold (kept fresh).
            let goodness =
                0.6 * (self.smoothed[w] / max_bw) + 0.4 * (self.contribution[w] / max_contrib);
            let raw = f64::from(self.max) - goodness * span;
            *t = (raw.round() as u32).clamp(self.min, self.max);
        }
    }
}

/// Dynamic SSP (Zhao et al., arxiv 1908.11848): each worker's iteration
/// rate (rounds per virtual second) is smoothed with an EWMA; a worker
/// running `k×` faster than the slowest observed peer is allowed roughly
/// `k − 1` extra iterations of lead, clamped to `[min, max]`. Workers
/// with no completed round yet sit at `min`.
#[derive(Debug, Clone)]
pub(crate) struct Dssp {
    min: u32,
    max: u32,
    /// Smoothed rounds-per-second; `0.0` until first observation.
    rate: Vec<f64>,
}

impl Dssp {
    const ALPHA: f64 = 0.3;

    fn new(min: u32, max: u32, n_workers: usize) -> Self {
        Self {
            min,
            max,
            rate: vec![0.0; n_workers],
        }
    }

    fn observe(&mut self, r: Round) {
        if r.round_secs > 0.0 {
            let rate = 1.0 / r.round_secs;
            let ewma = &mut self.rate[r.worker];
            *ewma = if *ewma == 0.0 {
                rate
            } else {
                Self::ALPHA * rate + (1.0 - Self::ALPHA) * *ewma
            };
        }
    }

    fn assign(&self, thresholds: &mut [u32]) {
        let observed = self.rate.iter().copied().filter(|&r| r > 0.0);
        let slowest = observed.fold(f64::INFINITY, f64::min);
        for (t, &r) in thresholds.iter_mut().zip(&self.rate) {
            *t = if r > 0.0 {
                let extra = (r / slowest - 1.0).round().max(0.0);
                let lead = f64::from(self.min) + extra;
                (lead.min(f64::from(self.max)) as u32).clamp(self.min, self.max)
            } else {
                self.min
            };
        }
    }
}

/// Adaptive Bounded Staleness (arxiv 2301.08895): one uniform bound.
/// Rounds are counted across all workers; every window the rule looks at
/// how many of them paid a gate stall. A stall share above
/// `WIDEN_SHARE` widens the bound by one (workers are blocking on the
/// gate — trade staleness for fewer stalled rounds); a window with no
/// stalls at all narrows it by one (the bound is slack — tighten it to
/// keep updates fresh).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Abs {
    min: u32,
    max: u32,
    /// The bound currently in force.
    cur: u32,
    /// Counted in completed rounds cluster-wide.
    window: Window,
    rounds: u64,
    stalled_in_window: u64,
}

impl Abs {
    /// A gate wait shorter than this "passed straight through".
    const STALL_EPS: f64 = 1e-9;
    const WIDEN_SHARE: f64 = 0.25;

    fn new(min: u32, max: u32) -> Self {
        Self {
            min,
            max,
            cur: min,
            window: Window::new(12),
            rounds: 0,
            stalled_in_window: 0,
        }
    }

    fn observe(&mut self, r: Round) {
        self.rounds += 1;
        if r.gate_wait > Self::STALL_EPS {
            self.stalled_in_window += 1;
        }
        if self.window.due(self.rounds) {
            let share = self.stalled_in_window as f64 / self.window.every as f64;
            if share > Self::WIDEN_SHARE && self.cur < self.max {
                self.cur += 1;
            } else if self.stalled_in_window == 0 && self.cur > self.min {
                self.cur -= 1;
            }
            self.window.restart(self.rounds);
            self.stalled_in_window = 0;
        }
    }
}

/// The model engine's gate-threshold controller, by strategy.
#[derive(Debug, Clone)]
pub(crate) enum GateControl {
    Flown(Flown),
    Dssp(Dssp),
    Abs(Abs),
}

impl GateControl {
    /// The starting gate threshold of a model-granularity `strategy`
    /// and, unless that bound is fixed (BSP/SSP/ASP), the rule that
    /// moves it, for `n_workers` shipping `wire_bytes` per transfer.
    /// [`crate::ExperimentConfig::check`] has admitted `min <= max`.
    pub(crate) fn for_strategy(
        strategy: Strategy,
        n_workers: usize,
        wire_bytes: u64,
    ) -> (u32, Option<Self>) {
        match strategy {
            Strategy::Bsp => (0, None),
            Strategy::Ssp { threshold } => (threshold, None),
            // No gate at all: workers never wait, staleness is unbounded.
            Strategy::Asp => (u32::MAX, None),
            Strategy::Flown {
                min_threshold: min,
                max_threshold: max,
            } => {
                let flown = Flown::new(min, max, n_workers, wire_bytes);
                (min, Some(GateControl::Flown(flown)))
            }
            Strategy::Dssp {
                min_threshold: min,
                max_threshold: max,
            } => (min, Some(GateControl::Dssp(Dssp::new(min, max, n_workers)))),
            Strategy::Abs {
                min_threshold: min,
                max_threshold: max,
            } => (min, Some(GateControl::Abs(Abs::new(min, max)))),
            Strategy::Rog { .. } | Strategy::RogAdaptive { .. } => {
                unreachable!("row strategies run in the row engine")
            }
        }
    }

    /// Worker `w` drew a gradient of mean magnitude `mean_abs`.
    pub(crate) fn on_gradient(&mut self, w: usize, mean_abs: f64) {
        if let GateControl::Flown(f) = self {
            f.contribution[w] = mean_abs;
        }
    }

    /// Feeds one finished round to the rule.
    pub(crate) fn observe(&mut self, r: Round) {
        match self {
            GateControl::Flown(f) => f.bandwidth[r.worker] = f.wire_bits / r.push_secs,
            GateControl::Dssp(d) => d.observe(r),
            GateControl::Abs(a) => a.observe(r),
        }
    }

    /// Rewrites every worker's gate threshold in place.
    pub(crate) fn assign(&mut self, thresholds: &mut [u32]) {
        match self {
            GateControl::Flown(f) => f.assign(thresholds),
            GateControl::Dssp(d) => d.assign(thresholds),
            GateControl::Abs(a) => thresholds.fill(a.cur),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use proptest::prelude::*;
    use proptest::strategy::Strategy as PropStrategy;

    #[test]
    fn window_fires_once_per_period() {
        let mut w = Window::new(24);
        assert!(!w.due(23));
        assert!(w.due(24));
        w.restart(30);
        assert!(!w.due(53));
        assert!(w.due(54));
    }

    #[test]
    fn uniform_lossless_links_are_unstressed() {
        let links = [(0.0, 3.0e6), (0.0, 3.0e6), (0.0, 3.0e6)];
        assert_eq!(link_stress(links.into_iter(), 3.0e6), 0.0);
    }

    #[test]
    fn codec_choice_has_a_hysteresis_band() {
        let ca = CodecAuto::new();
        assert_eq!(ca.choose(0.5, false), CodecChoice::Sparse);
        assert_eq!(ca.choose(0.25, true), CodecChoice::Sparse);
        assert_eq!(ca.choose(0.25, false), CodecChoice::OneBit);
        assert_eq!(ca.choose(0.1, true), CodecChoice::OneBit);
    }

    #[test]
    fn auto_threshold_widens_under_stall_and_never_narrows_below_its_start() {
        let auto = AutoThreshold::new(4);
        assert_eq!(auto.decide(4, 0.5), 6);
        assert_eq!(auto.decide(39, 0.5), 40);
        assert_eq!(auto.decide(8, 0.0), 6);
        assert_eq!(auto.decide(4, 0.0), 4);
        assert_eq!(auto.decide(7, 0.1), 7);
    }

    /// 100 Mbit per transfer: a 1 s push reads as 100 Mbit/s.
    const WIRE_BYTES: u64 = 12_500_000;

    fn control(strategy: Strategy, n: usize) -> GateControl {
        GateControl::for_strategy(strategy, n, WIRE_BYTES)
            .1
            .expect("adaptive strategy")
    }

    fn flown(min_threshold: u32, max_threshold: u32, n: usize) -> GateControl {
        let strategy = Strategy::Flown {
            min_threshold,
            max_threshold,
        };
        control(strategy, n)
    }

    fn dssp(min_threshold: u32, max_threshold: u32, n: usize) -> GateControl {
        let strategy = Strategy::Dssp {
            min_threshold,
            max_threshold,
        };
        control(strategy, n)
    }

    fn abs(min_threshold: u32, max_threshold: u32, n: usize) -> GateControl {
        let strategy = Strategy::Abs {
            min_threshold,
            max_threshold,
        };
        control(strategy, n)
    }

    fn round(worker: usize, push_secs: f64, round_secs: f64, gate_wait: f64) -> Round {
        Round {
            worker,
            push_secs,
            round_secs,
            gate_wait,
        }
    }

    fn assigned(c: &mut GateControl, n: usize) -> Vec<u32> {
        let mut thresholds = vec![0; n];
        c.assign(&mut thresholds);
        thresholds
    }

    #[test]
    fn a_fixed_bound_is_read_off_the_strategy_and_has_no_controller() {
        for (strategy, bound) in [
            (Strategy::Bsp, 0),
            (Strategy::Ssp { threshold: 7 }, 7),
            (Strategy::Asp, u32::MAX),
        ] {
            let (fixed, control) = GateControl::for_strategy(strategy, 4, WIRE_BYTES);
            assert_eq!(fixed, bound);
            assert!(control.is_none(), "{strategy:?}");
        }
    }

    #[test]
    fn flown_gives_slow_low_contribution_workers_more_slack() {
        let mut c = flown(2, 20, 2);
        // Worker 0: 100 Mbit/s, large gradients. Worker 1: 5 Mbit/s,
        // small gradients.
        c.on_gradient(0, 1.0);
        c.observe(round(0, 1.0, 2.0, 0.0));
        c.on_gradient(1, 0.05);
        c.observe(round(1, 20.0, 21.0, 0.0));
        let ts = assigned(&mut c, 2);
        assert!(
            ts[1] > ts[0],
            "slow/low-contribution worker should get a larger threshold: {ts:?}"
        );
        assert!(ts.iter().all(|&t| (2..=20).contains(&t)));
    }

    #[test]
    fn flown_smoothing_reacts_gradually() {
        let mut c = flown(2, 20, 2);
        c.observe(round(0, 1.0, 2.0, 0.0));
        c.observe(round(1, 1.0, 2.0, 0.0));
        let first = assigned(&mut c, 2)[0];
        // Worker 0's bandwidth collapses to 1 Mbit/s; its threshold
        // rises but not instantly to max, and keeps rising on refreshes
        // that carry no new measurement of it.
        c.observe(round(0, 100.0, 101.0, 0.0));
        let after_one = assigned(&mut c, 2)[0];
        assert!(after_one >= first);
        assert!(after_one < 20, "one refresh must not jump to max");
        let mut last = after_one;
        for _ in 0..10 {
            c.observe(round(1, 1.0, 2.0, 0.0));
            last = assigned(&mut c, 2)[0];
        }
        assert!(last > after_one, "threshold should keep rising: {last}");
    }

    #[test]
    fn dssp_starts_at_min_without_observations() {
        assert_eq!(assigned(&mut dssp(2, 9, 3), 3), vec![2; 3]);
    }

    #[test]
    fn dssp_gives_fast_workers_more_lead() {
        let mut c = dssp(1, 8, 2);
        for _ in 0..6 {
            c.observe(round(0, 0.5, 1.0, 0.0)); // 1 round/s: the fast worker
            c.observe(round(1, 0.5, 4.0, 0.0)); // 0.25 round/s: the straggler
        }
        let ts = assigned(&mut c, 2);
        assert!(
            ts[0] > ts[1],
            "fast worker should hold the wider threshold: {ts:?}"
        );
        assert_eq!(ts[1], 1, "the slowest worker sits at min");
        assert!(ts.iter().all(|&t| (1..=8).contains(&t)));
    }

    #[test]
    fn abs_widens_under_stall_pressure_and_narrows_when_slack() {
        let mut c = abs(1, 6, 1);
        assert_eq!(assigned(&mut c, 1), vec![1], "starts at min");
        // Every round stalls: one full window widens the bound by one.
        for _ in 0..12 {
            c.observe(round(0, 1.0, 2.0, 0.5));
        }
        assert_eq!(assigned(&mut c, 1), vec![2], "a stalled window widens");
        // Stall-free windows narrow it back down to min.
        for _ in 0..24 {
            c.observe(round(0, 1.0, 2.0, 0.0));
        }
        assert_eq!(assigned(&mut c, 1), vec![1], "slack narrows back to min");
    }

    /// One synthetic finished round: `(worker, gradient magnitude,
    /// (push_secs, round_secs, gate_wait))` — the same journal-visible
    /// inputs the engine feeds the rule.
    type Measured = (usize, f64, (f64, f64, f64));

    fn rounds_strategy() -> impl PropStrategy<Value = Vec<Measured>> {
        let secs = (1e-6f64..30.0, 0.05f64..20.0, 0.0f64..5.0);
        prop::collection::vec((0usize..5, 1e-3f64..10.0, secs), 1..80)
    }

    /// Replays a measurement trace through a rule exactly as the engine
    /// does, returning the thresholds after the initial assignment and
    /// after every round.
    fn replay(c: &mut GateControl, n: usize, trace: &[Measured]) -> Vec<Vec<u32>> {
        let mut out = vec![assigned(c, n)];
        for &(worker, grad, (push_secs, round_secs, gate_wait)) in trace {
            c.on_gradient(worker % n, grad);
            c.observe(round(worker % n, push_secs, round_secs, gate_wait));
            out.push(assigned(c, n));
        }
        out
    }

    proptest! {
        /// FLOWN and DSSP thresholds never leave `[min, max]`, whatever
        /// the measurement sequence.
        #[test]
        fn per_worker_thresholds_stay_in_bounds(
            min in 0u32..5,
            span in 0u32..10,
            n in 1usize..5,
            trace in rounds_strategy(),
        ) {
            let max = min + span;
            for mut c in [flown(min, max, n), dssp(min, max, n)] {
                for ts in replay(&mut c, n, &trace) {
                    prop_assert!(ts.iter().all(|&t| (min..=max).contains(&t)), "{:?}", ts);
                }
            }
        }

        /// The ABS bound is uniform, never leaves `[min, max]`, and
        /// moves by at most one step between consecutive refreshes.
        #[test]
        fn abs_bound_stays_in_bounds_and_steps_by_one(
            min in 0u32..5,
            span in 0u32..10,
            n in 1usize..5,
            trace in rounds_strategy(),
        ) {
            let max = min + span;
            let mut prev: Option<u32> = None;
            for ts in replay(&mut abs(min, max, n), n, &trace) {
                let t = ts[0];
                prop_assert!((min..=max).contains(&t), "{:?}", ts);
                prop_assert!(ts.iter().all(|&x| x == t), "ABS bound must be uniform");
                if let Some(p0) = prev {
                    prop_assert!(t.abs_diff(p0) <= 1, "jumped {p0} -> {t}");
                }
                prev = Some(t);
            }
        }

        /// Adaptation is a pure function of the measurement trace:
        /// replaying the same journal-visible inputs through a fresh
        /// rule re-derives the exact same threshold sequence.
        #[test]
        fn adaptation_replays_from_the_trace(
            min in 0u32..4,
            span in 0u32..8,
            n in 1usize..5,
            trace in rounds_strategy(),
        ) {
            let max = min + span;
            for fresh in [flown, dssp, abs] {
                prop_assert_eq!(
                    replay(&mut fresh(min, max, n), n, &trace),
                    replay(&mut fresh(min, max, n), n, &trace)
                );
            }
        }

        #[test]
        fn link_stress_is_a_share_and_grows_with_loss(
            links in prop::collection::vec((0.0f64..1.0, 1.0f64..1.0e7), 1..12),
            extra in 0.0f64..1.0,
        ) {
            let max_good = links.iter().map(|l| l.1).fold(0.0, f64::max);
            let base = link_stress(links.iter().copied(), max_good);
            prop_assert!((0.0..=1.0).contains(&base));
            let lossier = links.iter().map(|&(loss, good)| (loss + extra, good));
            prop_assert!(link_stress(lossier, max_good) >= base);
        }
    }
}
