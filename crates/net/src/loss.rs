//! Seeded, deterministic packet-loss model for the wireless channel.
//!
//! The paper's ATP exists because robotic wireless links *lose frames*,
//! not just because they fade: bursts of interference corrupt whole
//! trains of packets while the PHY rate looks fine. This module models
//! that regime with the classic **Gilbert–Elliott** two-state Markov
//! chain (a `good` state with a small residual loss probability and a
//! `bad` state with a high one), layered with independent i.i.d. loss,
//! corruption, duplication, and reordering knobs, plus scripted
//! per-link loss windows from a fault plan.
//!
//! The model decides a [`ChunkFate`] for every chunk the moment the
//! fluid-flow integration completes it. Fates are drawn from per-link
//! [`DetRng`] streams forked from one seed, and the Gilbert–Elliott
//! state sequence is pre-generated on the same 0.1 s grid as the fade
//! traces in [`crate::ChannelProfile`] — so a run is bit-reproducible
//! for a given seed, exactly like the rest of the simulation.

use std::collections::BTreeMap;

use rog_sim::Time;
use rog_tensor::rng::DetRng;

use crate::Trace;

/// Ceiling on the effective per-chunk loss probability. Keeping it
/// strictly below 1.0 guarantees reliable-class retransmission always
/// makes progress, so no run can livelock on a scripted `rate 1.0`
/// window.
pub const MAX_LOSS_PROB: f64 = 0.95;

/// Grid step (seconds) of the pre-generated Gilbert–Elliott state
/// trace; matches `ChannelProfile::dt`.
const GE_DT: Time = 0.1;

/// Gilbert–Elliott burst-loss parameters.
///
/// Transition probabilities are per 0.1 s grid step, like the Markov
/// fade overlays in [`crate::FadeProfile`]. The stationary fraction of
/// time spent in the bad state is `enter_prob / (enter_prob +
/// exit_prob)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// Probability per grid step of entering the bad state.
    pub enter_prob: f64,
    /// Probability per grid step of leaving the bad state.
    pub exit_prob: f64,
    /// Chunk-loss probability while in the good state.
    pub loss_good: f64,
    /// Chunk-loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// A bursty preset tuned so the *time-average* loss rate is
    /// approximately `mean_loss`: bad-state residency ≈ 1/6 of the
    /// time (mean burst ≈ 1 s on the 0.1 s grid), good-state loss 1 %,
    /// and the bad-state loss solved from the stationary mixture.
    pub fn bursty(mean_loss: f64) -> Self {
        let enter_prob = 0.02;
        let exit_prob = 0.10;
        let pi_bad = enter_prob / (enter_prob + exit_prob);
        let loss_good = 0.01f64.min(mean_loss);
        let loss_bad =
            ((mean_loss - (1.0 - pi_bad) * loss_good) / pi_bad).clamp(0.0, MAX_LOSS_PROB);
        Self {
            enter_prob,
            exit_prob,
            loss_good,
            loss_bad,
        }
    }

    /// Stationary (time-average) chunk-loss probability of the chain.
    #[cfg(test)]
    pub fn mean_loss(&self) -> f64 {
        let pi_bad = self.enter_prob / (self.enter_prob + self.exit_prob).max(1e-12);
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// Configuration of the channel's loss behaviour.
///
/// The default is fully off; a channel carrying an off config behaves
/// byte-identically to one with no loss model installed at all (this is
/// regression-tested end to end).
#[derive(Debug, Clone, PartialEq)]
pub struct LossConfig {
    /// Root seed; per-link fate streams and Gilbert–Elliott state
    /// traces are forked from it.
    pub seed: u64,
    /// Independent per-chunk loss probability, added on top of the
    /// Gilbert–Elliott component.
    pub iid_loss: f64,
    /// Per-chunk probability that a delivered chunk arrives with a
    /// corrupted payload (CRC failure at the receiver).
    pub corrupt: f64,
    /// Per-chunk probability that a delivered chunk is duplicated in
    /// flight (receiver-side dedup absorbs the copy).
    pub duplicate: f64,
    /// Per-chunk probability that a delivered chunk arrives out of
    /// order relative to its flow.
    pub reorder: f64,
    /// Optional burst-loss chain layered on the i.i.d. knobs.
    pub ge: Option<GeParams>,
}

impl Default for LossConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl LossConfig {
    /// A configuration that never loses, corrupts, duplicates, or
    /// reorders anything.
    pub fn off() -> Self {
        Self {
            seed: 0,
            iid_loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            ge: None,
        }
    }

    /// i.i.d. loss at `rate` with seed `seed`, nothing else.
    pub fn iid(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            iid_loss: rate,
            ..Self::off()
        }
    }

    /// Gilbert–Elliott burst loss with time-average rate ≈ `mean_loss`.
    pub fn gilbert_elliott(seed: u64, mean_loss: f64) -> Self {
        Self {
            seed,
            ge: Some(GeParams::bursty(mean_loss)),
            ..Self::off()
        }
    }

    /// True when every knob is zero and no chain is configured — the
    /// model would deliver every chunk intact.
    pub fn is_off(&self) -> bool {
        self.iid_loss == 0.0
            && self.corrupt == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.ge.is_none()
    }
}

/// What happened to one chunk on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFate {
    /// Arrived intact, in order, exactly once.
    Delivered,
    /// Arrived intact but a spurious copy arrived too (dedup at the
    /// receiver's sequence window absorbs it).
    Duplicated,
    /// Arrived intact but out of order relative to its flow.
    Reordered,
    /// Never arrived.
    Lost,
    /// Arrived but failed its CRC32 check; the receiver drops it.
    Corrupt,
}

impl ChunkFate {
    /// True when the chunk's payload is usable by the receiver
    /// (delivered, possibly duplicated or reordered).
    pub fn intact(self) -> bool {
        matches!(
            self,
            ChunkFate::Delivered | ChunkFate::Duplicated | ChunkFate::Reordered
        )
    }
}

/// A scripted extra-loss window on one link (compiled from a
/// fault-plan `loss` directive).
#[derive(Debug, Clone, Copy, PartialEq)]
struct LossWindow {
    link: usize,
    start: Time,
    end: Time,
    rate: f64,
}

/// Per-link deterministic loss state: a pre-generated Gilbert–Elliott
/// bad-state indicator trace and a fate RNG stream.
#[derive(Debug, Clone)]
struct LinkLoss {
    /// 1.0 while the chain is in the bad state, 0.0 otherwise.
    ge_bad: Option<Trace>,
    rng: DetRng,
}

/// The channel's packet-granular loss model.
///
/// Built once per run from a [`LossConfig`], the number of links, and
/// the run duration; consulted by `Channel::advance_until` for every
/// chunk the instant the fluid model completes it.
///
/// Per-link state (the Gilbert–Elliott indicator trace and the fate
/// RNG) is materialized **lazily** on first touch: a fleet-scale run
/// declares `workers × shards` links but only ever transmits on the
/// ones its topology uses, and every link's state is forked
/// independently from the root seed, so deferring construction is
/// byte-identical to building everything up front.
#[derive(Debug, Clone)]
pub struct LossModel {
    cfg: LossConfig,
    root: DetRng,
    n_links: usize,
    duration: Time,
    links: BTreeMap<usize, LinkLoss>,
    windows: Vec<LossWindow>,
}

impl LossModel {
    /// Builds the model for `n_links` links. Per-link Gilbert–Elliott
    /// traces and fate RNGs are forked from `cfg.seed` on first use;
    /// nothing is allocated per link here.
    pub fn build(cfg: &LossConfig, n_links: usize, duration: Time) -> Self {
        Self {
            cfg: cfg.clone(),
            root: DetRng::new(cfg.seed ^ 0x105E_C0DE),
            n_links,
            duration,
            links: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// The per-link state, materialized on demand. `None` for links
    /// outside the declared range. The fork salts are pure functions
    /// of the link id, so touch order cannot change any stream.
    fn link_state(&mut self, link: usize) -> Option<&mut LinkLoss> {
        if link >= self.n_links {
            return None;
        }
        if !self.links.contains_key(&link) {
            let ge_bad = self.cfg.ge.map(|ge| {
                Self::generate_ge_trace(
                    &ge,
                    self.root.fork(0x70 + link as u64).seed(),
                    self.duration,
                )
            });
            self.links.insert(
                link,
                LinkLoss {
                    ge_bad,
                    rng: self.root.fork(0x90 + link as u64),
                },
            );
        }
        self.links.get_mut(&link)
    }

    /// Number of links whose state has actually been materialized
    /// (diagnostic; bounded by the links the run transmitted on).
    #[cfg(test)]
    pub fn materialized_links(&self) -> usize {
        self.links.len()
    }

    /// Number of links the model was declared with.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Registers a scripted loss window (extra i.i.d. loss `rate` on
    /// `link` during `[start, end)`). Validation — finite bounds,
    /// `0 ≤ rate ≤ 1`, non-overlap per link — is the fault plan's job.
    pub fn add_window(&mut self, link: usize, start: Time, end: Time, rate: f64) {
        self.windows.push(LossWindow {
            link,
            start,
            end,
            rate,
        });
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &LossConfig {
        &self.cfg
    }

    /// Effective chunk-loss probability on `link` at time `t`
    /// (Gilbert–Elliott state + i.i.d. + scripted windows, capped at
    /// [`MAX_LOSS_PROB`]). Takes `&mut self` because the link's
    /// Gilbert–Elliott trace is materialized on first touch.
    pub fn loss_prob(&mut self, link: usize, t: Time) -> f64 {
        let mut p = self.cfg.iid_loss;
        let ge_cfg = self.cfg.ge;
        if let Some(ll) = self.link_state(link) {
            if let (Some(ge), Some(tr)) = (ge_cfg.as_ref(), ll.ge_bad.as_ref()) {
                p += if tr.value_at(t) > 0.5 {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
            }
        }
        for w in &self.windows {
            if w.link == link && t >= w.start && t < w.end {
                p += w.rate;
            }
        }
        p.clamp(0.0, MAX_LOSS_PROB)
    }

    /// Draws the fate of the next chunk completed on `link` at time
    /// `t`, consuming that link's RNG stream. Deterministic: the event
    /// loop is single-threaded and flows are iterated in `FlowId`
    /// order, so the draw sequence is a pure function of the schedule.
    pub fn chunk_fate(&mut self, link: usize, t: Time) -> ChunkFate {
        let p_loss = self.loss_prob(link, t);
        let corrupt = self.cfg.corrupt;
        let duplicate = self.cfg.duplicate;
        let reorder = self.cfg.reorder;
        let Some(ll) = self.link_state(link) else {
            return ChunkFate::Delivered;
        };
        let u = ll.rng.uniform();
        if u < p_loss {
            return ChunkFate::Lost;
        }
        if u < (p_loss + corrupt).min(1.0) {
            return ChunkFate::Corrupt;
        }
        if duplicate > 0.0 && ll.rng.chance(duplicate) {
            return ChunkFate::Duplicated;
        }
        if reorder > 0.0 && ll.rng.chance(reorder) {
            return ChunkFate::Reordered;
        }
        ChunkFate::Delivered
    }

    /// Pre-generates the bad-state indicator of the Gilbert–Elliott
    /// chain on the 0.1 s grid, started from its stationary
    /// distribution.
    fn generate_ge_trace(ge: &GeParams, seed: u64, duration: Time) -> Trace {
        let n = (duration / GE_DT).ceil().max(1.0) as usize + 1;
        let mut rng = DetRng::new(seed ^ 0x6E11);
        let pi_bad = ge.enter_prob / (ge.enter_prob + ge.exit_prob).max(1e-12);
        let mut bad = rng.chance(pi_bad);
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                if bad {
                    if rng.chance(ge.exit_prob) {
                        bad = false;
                    }
                } else if rng.chance(ge.enter_prob) {
                    bad = true;
                }
                if bad {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Trace::from_samples(GE_DT, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_delivers_everything() {
        let cfg = LossConfig::off();
        assert!(cfg.is_off());
        let mut m = LossModel::build(&cfg, 3, 100.0);
        for i in 0..200 {
            assert_eq!(m.chunk_fate(i % 3, i as f64 * 0.05), ChunkFate::Delivered);
        }
    }

    #[test]
    fn iid_loss_rate_is_roughly_honoured() {
        let mut m = LossModel::build(&LossConfig::iid(7, 0.2), 1, 10.0);
        let n = 20_000;
        let lost = (0..n)
            .filter(|_| m.chunk_fate(0, 1.0) == ChunkFate::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn ge_preset_hits_requested_mean_loss() {
        let ge = GeParams::bursty(0.10);
        assert!((ge.mean_loss() - 0.10).abs() < 1e-9);
        // Empirically: drive the chain over a long horizon.
        let mut m = LossModel::build(&LossConfig::gilbert_elliott(3, 0.10), 1, 3_000.0);
        let n = 30_000usize;
        let lost = (0..n)
            .filter(|i| m.chunk_fate(0, *i as f64 * 0.1) == ChunkFate::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn ge_loss_is_bursty_not_iid() {
        // Consecutive-loss runs should be much longer than under i.i.d.
        // loss of the same mean rate.
        let mut ge = LossModel::build(&LossConfig::gilbert_elliott(11, 0.10), 1, 3_000.0);
        let mut iid = LossModel::build(&LossConfig::iid(11, 0.10), 1, 3_000.0);
        let max_run = |m: &mut LossModel| {
            let (mut cur, mut best) = (0usize, 0usize);
            for i in 0..20_000 {
                if m.chunk_fate(0, i as f64 * 0.1) == ChunkFate::Lost {
                    cur += 1;
                    best = best.max(cur);
                } else {
                    cur = 0;
                }
            }
            best
        };
        let (ge_run, iid_run) = (max_run(&mut ge), max_run(&mut iid));
        assert!(
            ge_run > 2 * iid_run,
            "GE max loss run {ge_run} vs iid {iid_run}"
        );
    }

    #[test]
    fn fate_draws_are_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut m = LossModel::build(&LossConfig::iid(seed, 0.3), 2, 10.0);
            (0..100)
                .map(|i| m.chunk_fate(i % 2, i as f64 * 0.01))
                .collect::<Vec<ChunkFate>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn windows_add_loss_only_inside_their_span() {
        let mut m = LossModel::build(&LossConfig::off(), 2, 100.0);
        m.add_window(1, 10.0, 20.0, 0.5);
        assert_eq!(m.loss_prob(1, 5.0), 0.0);
        assert_eq!(m.loss_prob(1, 15.0), 0.5);
        assert_eq!(m.loss_prob(1, 20.0), 0.0, "end is exclusive");
        assert_eq!(m.loss_prob(0, 15.0), 0.0, "other link untouched");
    }

    #[test]
    fn loss_prob_is_capped_below_one() {
        let mut m = LossModel::build(&LossConfig::iid(1, 0.9), 1, 10.0);
        m.add_window(0, 0.0, 10.0, 1.0);
        assert_eq!(m.loss_prob(0, 5.0), MAX_LOSS_PROB);
    }

    #[test]
    fn corruption_duplication_and_reordering_fates_occur() {
        let cfg = LossConfig {
            seed: 9,
            iid_loss: 0.1,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            ge: None,
        };
        let mut m = LossModel::build(&cfg, 1, 10.0);
        let fates: Vec<ChunkFate> = (0..5_000).map(|_| m.chunk_fate(0, 1.0)).collect();
        for want in [
            ChunkFate::Delivered,
            ChunkFate::Duplicated,
            ChunkFate::Reordered,
            ChunkFate::Lost,
            ChunkFate::Corrupt,
        ] {
            assert!(fates.contains(&want), "no {want:?} in 5000 draws");
        }
        assert!(fates[0].intact() || !fates[0].intact());
        assert!(ChunkFate::Duplicated.intact() && ChunkFate::Reordered.intact());
        assert!(!ChunkFate::Lost.intact() && !ChunkFate::Corrupt.intact());
    }

    #[test]
    fn link_state_is_materialized_lazily() {
        let mut m = LossModel::build(&LossConfig::gilbert_elliott(5, 0.10), 1_024, 100.0);
        assert_eq!(m.n_links(), 1_024);
        assert_eq!(m.materialized_links(), 0);
        m.chunk_fate(7, 1.0);
        m.chunk_fate(7, 2.0);
        m.chunk_fate(900, 1.0);
        assert_eq!(m.materialized_links(), 2);
        // Out-of-range links are never materialized.
        assert_eq!(m.chunk_fate(5_000, 1.0), ChunkFate::Delivered);
        assert_eq!(m.materialized_links(), 2);
    }

    #[test]
    fn touch_order_does_not_change_any_links_stream() {
        // Link 2's fate stream must be identical whether or not other
        // links were materialized first (forks are independent).
        let cfg = LossConfig::gilbert_elliott(13, 0.15);
        let mut cold = LossModel::build(&cfg, 8, 50.0);
        let mut warm = LossModel::build(&cfg, 8, 50.0);
        for l in [0usize, 5, 1, 7] {
            warm.chunk_fate(l, 0.5);
        }
        let a: Vec<ChunkFate> = (0..500)
            .map(|i| cold.chunk_fate(2, i as f64 * 0.1))
            .collect();
        let b: Vec<ChunkFate> = (0..500)
            .map(|i| warm.chunk_fate(2, i as f64 * 0.1))
            .collect();
        assert_eq!(a, b);
    }
}
