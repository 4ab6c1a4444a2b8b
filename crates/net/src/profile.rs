//! Synthetic channel/link trace generators calibrated to Sec. II-B.
//!
//! The paper measured (Fig. 3) 802.11ac bandwidth between moving robots at
//! 0.1 s resolution for 5 minutes: indoors the capacity swings sharply
//! around ~100–150 Mbit/s; outdoors it is lower on average and frequently
//! collapses to almost zero because open areas reflect fewer signals and
//! foliage occludes the line of sight. Statistically, a ≥20 % relative
//! fluctuation happens about every 0.4 s and a ≥40 % one about every
//! 1.2 s.
//!
//! We model a trace as an AR(1) (Gauss-Markov) process around a mean,
//! multiplied by a two-state Markov fade process (line-of-sight vs
//! occluded). The calibration tests in this crate and the Fig. 3
//! experiment binary verify the generated traces reproduce the paper's
//! fluctuation statistics.

use rog_sim::Time;
use rog_tensor::rng::DetRng;

use crate::trace::{self, Trace};

/// Slow per-link quality drift from varying communication distance: an
/// Ornstein-Uhlenbeck (mean-reverting) process with a time constant of
/// minutes, so one robot can be persistently far from the hotspot — the
/// "varying communication distance" of the paper's abstract, and the
/// reason SSP drift eventually exceeds any fixed threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceProfile {
    /// Long-run mean link quality in `(0, 1]`.
    pub mean: f64,
    /// Mean-reversion time constant in seconds.
    pub time_const_s: f64,
    /// Stationary standard deviation of the process.
    pub sigma: f64,
    /// Hard clamp range.
    pub range: (f64, f64),
}

/// Fade (occlusion) episode model: a two-state Markov chain stepped every
/// trace sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadeProfile {
    /// Probability per step of entering a fade while clear.
    pub enter_prob: f64,
    /// Probability per step of leaving a fade.
    pub exit_prob: f64,
    /// Multiplicative depth range `[lo, hi]` sampled per episode.
    pub depth: (f64, f64),
}

/// Generator parameters for one environment (indoor / outdoor / custom).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelProfile {
    /// Human-readable name ("indoor", "outdoor", ...).
    pub name: &'static str,
    /// Trace sample step in seconds (paper records at 0.1 s).
    pub dt: Time,
    /// Mean channel capacity in bit/s.
    pub mean_bps: f64,
    /// AR(1) coefficient in `[0, 1)`; higher = smoother.
    pub ar_coeff: f64,
    /// Innovation standard deviation, relative to the mean.
    pub rel_sigma: f64,
    /// Channel-wide fade process (affects total capacity).
    pub channel_fade: FadeProfile,
    /// Per-link fade process (occlusion between one robot and the AP).
    pub link_fade: FadeProfile,
    /// Rare, long per-link outages (a robot stuck behind an obstacle for
    /// seconds to tens of seconds — the extended near-zero stretches in
    /// the paper's Fig. 8).
    pub link_outage: FadeProfile,
    /// Slow per-link distance drift.
    pub link_distance: DistanceProfile,
    /// Floor on capacity, relative to the mean (thermal noise floor).
    pub rel_floor: f64,
}

impl ChannelProfile {
    /// The paper's indoor environment: laboratory with desks and
    /// separators; moderate instability, fades are shallow because walls
    /// reflect signals.
    pub fn indoor() -> Self {
        Self {
            name: "indoor",
            dt: 0.1,
            mean_bps: 120e6,
            ar_coeff: 0.82,
            rel_sigma: 0.14,
            channel_fade: FadeProfile {
                enter_prob: 0.010,
                exit_prob: 0.12,
                depth: (0.20, 0.55),
            },
            link_fade: FadeProfile {
                enter_prob: 0.007,
                exit_prob: 0.08,
                depth: (0.08, 0.45),
            },
            link_outage: FadeProfile {
                enter_prob: 0.0007,
                exit_prob: 0.006,
                depth: (0.05, 0.30),
            },
            link_distance: DistanceProfile {
                mean: 0.78,
                time_const_s: 150.0,
                sigma: 0.16,
                range: (0.30, 1.0),
            },
            rel_floor: 0.04,
        }
    }

    /// The paper's outdoor environment: campus garden with trees and
    /// bushes; higher instability, frequent collapses to ~0 Mbit/s
    /// because the open area lacks reflective walls.
    pub fn outdoor() -> Self {
        Self {
            name: "outdoor",
            dt: 0.1,
            mean_bps: 95e6,
            ar_coeff: 0.82,
            rel_sigma: 0.12,
            channel_fade: FadeProfile {
                enter_prob: 0.018,
                exit_prob: 0.10,
                depth: (0.02, 0.35),
            },
            link_fade: FadeProfile {
                enter_prob: 0.009,
                exit_prob: 0.035,
                depth: (0.01, 0.25),
            },
            link_outage: FadeProfile {
                enter_prob: 0.00045,
                exit_prob: 0.0012,
                depth: (0.006, 0.06),
            },
            link_distance: DistanceProfile {
                mean: 0.60,
                time_const_s: 180.0,
                sigma: 0.24,
                range: (0.10, 1.0),
            },
            rel_floor: 0.005,
        }
    }

    /// An idealized stable channel (no fluctuation), useful as the
    /// datacenter-network contrast in tests and ablations.
    pub fn stable(mean_bps: f64) -> Self {
        Self {
            name: "stable",
            dt: 0.1,
            mean_bps,
            ar_coeff: 0.0,
            rel_sigma: 0.0,
            channel_fade: FadeProfile {
                enter_prob: 0.0,
                exit_prob: 1.0,
                depth: (1.0, 1.0),
            },
            link_fade: FadeProfile {
                enter_prob: 0.0,
                exit_prob: 1.0,
                depth: (1.0, 1.0),
            },
            link_outage: FadeProfile {
                enter_prob: 0.0,
                exit_prob: 1.0,
                depth: (1.0, 1.0),
            },
            link_distance: DistanceProfile {
                mean: 1.0,
                time_const_s: 1.0,
                sigma: 0.0,
                range: (1.0, 1.0),
            },
            rel_floor: 0.9,
        }
    }

    /// Generates a total-capacity trace (bit/s) of at least `duration`
    /// seconds, deterministically from `seed`: every sample of
    /// [`ChannelProfile::capacity_stream`]'s period.
    pub fn generate(&self, seed: u64, duration: Time) -> Trace {
        self.capacity_stream(seed, duration).into_trace()
    }

    /// Generates a per-link quality-factor trace in `(0, 1]` of at least
    /// `duration` seconds: every sample of
    /// [`ChannelProfile::link_stream`]'s period.
    ///
    /// The link factor multiplies the capacity share a flow from that
    /// device gets; it models distance/occlusion between one robot and
    /// the parameter-server hotspot.
    pub fn generate_link(&self, seed: u64, duration: Time) -> Trace {
        self.link_stream(seed, duration).into_trace()
    }

    /// The trace [`ChannelProfile::generate`] returns, as a stream that
    /// generates each sample when it is first read.
    pub fn capacity_stream(&self, seed: u64, duration: Time) -> TraceStream {
        TraceStream::new(self, seed, duration, false)
    }

    /// The trace [`ChannelProfile::generate_link`] returns, as a stream
    /// that generates each sample when it is first read.
    pub fn link_stream(&self, seed: u64, duration: Time) -> TraceStream {
        TraceStream::new(self, seed, duration, true)
    }
}

impl FadeProfile {
    /// One step of the two-state chain; `episode` holds the depth while
    /// faded. Returns the multiplicative factor for this step.
    fn step(&self, rng: &mut DetRng, episode: &mut Option<f64>) -> f64 {
        match *episode {
            Some(_) if rng.chance(self.exit_prob) => *episode = None,
            Some(_) => {}
            None if rng.chance(self.enter_prob) => {
                *episode = Some(rng.uniform_range(self.depth.0, self.depth.1 + 1e-12));
            }
            None => {}
        }
        episode.unwrap_or(1.0)
    }
}

/// A generated trace read as a cursor: the chains behind
/// [`ChannelProfile::generate`] / [`ChannelProfile::generate_link`]
/// stepped one sample at a time, so a reader pays for the samples up to
/// the time it reads and none is stored.
///
/// It reads exactly like the [`Trace`] those return: `value_at(t)` is
/// sample `(t / dt) as usize % n` over the same `n` samples, sample 0 at
/// `t <= 0`. Sample `k` depends only on the seed and the samples before
/// it, never on the period, so stepping forward reproduces the eager
/// trace bit for bit. A read that wraps or goes backwards restarts the
/// chains from the seed: slower, never different.
#[derive(Debug, Clone)]
pub struct TraceStream {
    profile: ChannelProfile,
    seed: u64,
    link: bool,
    /// Samples per period.
    n: usize,
    /// Samples stepped so far in this period; `value` is the last.
    stepped: usize,
    value: f64,
    chains: Chains,
}

impl TraceStream {
    fn new(profile: &ChannelProfile, seed: u64, duration: Time, link: bool) -> Self {
        Self {
            profile: profile.clone(),
            seed,
            link,
            n: (duration / profile.dt).ceil().max(1.0) as usize + 1,
            stepped: 0,
            value: 0.0,
            chains: Chains::start(profile, seed, link),
        }
    }

    /// Value at time `t`, stepping the chains forward to it.
    pub fn value_at(&mut self, t: Time) -> f64 {
        let j = trace::sample_index(self.profile.dt, self.n, t);
        if j + 1 < self.stepped {
            // Wrapped or read backwards: start the period again.
            self.chains = Chains::start(&self.profile, self.seed, self.link);
            self.stepped = 0;
        }
        while self.stepped <= j {
            self.value = self.chains.step(&self.profile);
            self.stepped += 1;
        }
        self.value
    }

    /// The first grid breakpoint strictly after `t`, as
    /// [`Trace::next_breakpoint_after`].
    pub(crate) fn next_breakpoint_after(&self, t: Time) -> Time {
        trace::next_breakpoint(self.profile.dt, t)
    }

    /// Every sample of one period, from a fresh stream.
    fn into_trace(mut self) -> Trace {
        let samples = (0..self.n)
            .map(|_| self.chains.step(&self.profile))
            .collect();
        Trace::from_samples(self.profile.dt, samples)
    }
}

/// The per-sample state of a generated trace: an AR(1) process around
/// the mean times a fade chain, and for a link the outage/distance
/// overlay, an independent chain on the same grid.
#[derive(Debug, Clone)]
struct Chains {
    rng: DetRng,
    mean: f64,
    fade: FadeProfile,
    x: f64,
    faded: Option<f64>,
    overlay: Option<Overlay>,
}

impl Chains {
    fn start(p: &ChannelProfile, seed: u64, link: bool) -> Self {
        let (mean, fade) = if link {
            (1.0, p.link_fade)
        } else {
            (p.mean_bps, p.channel_fade)
        };
        let mut rng = DetRng::new(seed);
        // AR(1) around the mean, started at stationarity.
        let sigma = p.rel_sigma * mean;
        let stationary_sigma = if p.ar_coeff < 1.0 {
            sigma / (1.0 - p.ar_coeff * p.ar_coeff).sqrt()
        } else {
            sigma
        };
        let x = rng.normal_with(mean, stationary_sigma);
        Self {
            rng,
            mean,
            fade,
            x,
            faded: None,
            overlay: link.then(|| Overlay::start(p, seed)),
        }
    }

    /// The next sample.
    fn step(&mut self, p: &ChannelProfile) -> f64 {
        let mean = self.mean;
        self.x =
            mean + p.ar_coeff * (self.x - mean) + self.rng.normal_with(0.0, p.rel_sigma * mean);
        let v = (self.x * self.fade.step(&mut self.rng, &mut self.faded)).max(p.rel_floor * mean);
        match &mut self.overlay {
            Some(overlay) => overlay.apply(p, v),
            None => v,
        }
    }
}

/// Long outages (a Markov chain) times the slow distance drift (an OU
/// process discretised over the trace grid), multiplied onto a link's
/// base factor.
#[derive(Debug, Clone)]
struct Overlay {
    rng: DetRng,
    a: f64,
    innov: f64,
    d: f64,
    out: Option<f64>,
}

impl Overlay {
    fn start(p: &ChannelProfile, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x00A6E);
        let dist = p.link_distance;
        let a = (-p.dt / dist.time_const_s.max(1e-6)).exp();
        Self {
            a,
            innov: dist.sigma * (1.0 - a * a).max(0.0).sqrt(),
            d: rng.normal_with(dist.mean, dist.sigma),
            rng,
            out: None,
        }
    }

    fn apply(&mut self, p: &ChannelProfile, v: f64) -> f64 {
        let dist = p.link_distance;
        self.d = dist.mean + self.a * (self.d - dist.mean) + self.rng.normal_with(0.0, self.innov);
        let d_clamped = self.d.clamp(dist.range.0, dist.range.1);
        let f = p.link_outage.step(&mut self.rng, &mut self.out);
        (v * f * d_clamped).clamp(1e-3, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn generation_is_deterministic() {
        let p = ChannelProfile::outdoor();
        assert_eq!(p.generate(7, 10.0), p.generate(7, 10.0));
        assert_ne!(p.generate(7, 10.0), p.generate(8, 10.0));
    }

    #[test]
    fn means_are_roughly_calibrated() {
        let indoor = ChannelProfile::indoor().generate(1, 300.0);
        let outdoor = ChannelProfile::outdoor().generate(1, 300.0);
        assert!(indoor.mean() > outdoor.mean(), "indoor should be faster");
        assert!(indoor.mean() > 70e6 && indoor.mean() < 160e6);
        assert!(outdoor.mean() > 40e6 && outdoor.mean() < 120e6);
    }

    #[test]
    fn outdoor_reaches_near_zero_indoor_does_not_as_deeply() {
        let indoor = ChannelProfile::indoor().generate(2, 300.0);
        let outdoor = ChannelProfile::outdoor().generate(2, 300.0);
        // Paper: outdoors more frequently drops to ~0 Mbit/s.
        assert!(outdoor.min() < 0.05 * outdoor.mean());
        assert!(indoor.min() > 0.01 * indoor.mean());
    }

    #[test]
    fn fluctuation_statistics_match_paper_sec_2b() {
        // "On average a 20% fluctuation of bandwidth capacity happened
        // every 0.4s, and a 40% fluctuation typically happened every 1.2s."
        for profile in [ChannelProfile::indoor(), ChannelProfile::outdoor()] {
            let t = profile.generate(3, 300.0);
            let i20 = stats::mean_fluctuation_interval(&t, 0.20);
            let i40 = stats::mean_fluctuation_interval(&t, 0.40);
            assert!(
                (0.15..=0.9).contains(&i20),
                "{}: 20% interval {i20}",
                profile.name
            );
            assert!(
                (0.5..=2.8).contains(&i40),
                "{}: 40% interval {i40}",
                profile.name
            );
            assert!(i40 > i20, "{}: larger swings must be rarer", profile.name);
        }
    }

    #[test]
    fn link_factors_stay_in_unit_range() {
        let p = ChannelProfile::outdoor();
        let link = p.generate_link(11, 120.0);
        assert!(link.samples().iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn stable_profile_is_flat() {
        let t = ChannelProfile::stable(100e6).generate(1, 10.0);
        assert!(t.max() - t.min() < 1e-6);
    }

    /// The eager base process as it was: the AR(1) + fade chain for all
    /// `n` samples into one `Vec`.
    fn eager_process(
        p: &ChannelProfile,
        seed: u64,
        duration: Time,
        mean: f64,
        fade: FadeProfile,
    ) -> Vec<f64> {
        let n = (duration / p.dt).ceil().max(1.0) as usize + 1;
        let mut rng = DetRng::new(seed);
        let mut samples = Vec::with_capacity(n);
        let sigma = p.rel_sigma * mean;
        let stationary_sigma = if p.ar_coeff < 1.0 {
            sigma / (1.0 - p.ar_coeff * p.ar_coeff).sqrt()
        } else {
            sigma
        };
        let mut x = rng.normal_with(mean, stationary_sigma);
        let mut in_fade = false;
        let mut fade_depth = 1.0;
        let floor = p.rel_floor * mean;
        for _ in 0..n {
            x = mean + p.ar_coeff * (x - mean) + rng.normal_with(0.0, sigma);
            if in_fade {
                if rng.chance(fade.exit_prob) {
                    in_fade = false;
                }
            } else if rng.chance(fade.enter_prob) {
                in_fade = true;
                fade_depth = rng.uniform_range(fade.depth.0, fade.depth.1 + 1e-12);
            }
            let factor = if in_fade { fade_depth } else { 1.0 };
            samples.push((x * factor).max(floor));
        }
        samples
    }

    /// `generate_link` as it was: the base process into a trace of its
    /// own, then the overlay into a second `Vec`.
    fn two_vec_link(p: &ChannelProfile, seed: u64, duration: Time) -> Trace {
        let base = Trace::from_samples(p.dt, eager_process(p, seed, duration, 1.0, p.link_fade));
        let mut rng = DetRng::new(seed ^ 0x00A6E);
        let outage = p.link_outage;
        let dist = p.link_distance;
        let a = (-p.dt / dist.time_const_s.max(1e-6)).exp();
        let innov = dist.sigma * (1.0 - a * a).max(0.0).sqrt();
        let mut d = rng.normal_with(dist.mean, dist.sigma);
        let mut in_out = false;
        let mut depth = 1.0;
        let overlaid: Vec<f64> = base
            .samples()
            .iter()
            .map(|&v| {
                d = dist.mean + a * (d - dist.mean) + rng.normal_with(0.0, innov);
                let d_clamped = d.clamp(dist.range.0, dist.range.1);
                if in_out {
                    if rng.chance(outage.exit_prob) {
                        in_out = false;
                    }
                } else if rng.chance(outage.enter_prob) {
                    in_out = true;
                    depth = rng.uniform_range(outage.depth.0, outage.depth.1 + 1e-12);
                }
                let f = if in_out { depth } else { 1.0 };
                (v * f * d_clamped).clamp(1e-3, 1.0)
            })
            .collect();
        Trace::from_samples(base.dt(), overlaid)
    }

    /// Reads `stream` the way a channel can: at `t <= 0`, forward in
    /// irregular steps through three and a half periods (three wraps),
    /// and once backwards inside a period. Every read must be the eager
    /// trace's, bit for bit.
    fn assert_reads_match(eager: &Trace, stream: &mut TraceStream, rng: &mut DetRng) {
        let mut check = |t: Time| {
            assert_eq!(
                stream.value_at(t).to_bits(),
                eager.value_at(t).to_bits(),
                "t = {t}"
            );
            assert_eq!(
                stream.next_breakpoint_after(t).to_bits(),
                eager.next_breakpoint_after(t).to_bits()
            );
        };
        let period = eager.duration();
        check(-1.0);
        check(0.0);
        let (mut t, mut went_back) = (0.0, false);
        while t < 3.5 * period {
            t += eager.dt() * rng.uniform_range(0.0, 2.5);
            check(t);
            if !went_back && t > 0.5 * period {
                check(t - 0.3 * period);
                check(t);
                went_back = true;
            }
        }
        check(-0.5);
    }

    #[test]
    fn streams_are_bitwise_the_eager_two_vec_traces() {
        let bits = |t: &Trace| t.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = DetRng::new(0x5EED);
        for p in [
            ChannelProfile::indoor(),
            ChannelProfile::outdoor(),
            ChannelProfile::stable(100e6),
        ] {
            for duration in [0.05, 1.0, 120.0, 300.0, 2000.0] {
                for seed in [0, 7, 0x00A6E] {
                    let capacity = Trace::from_samples(
                        p.dt,
                        eager_process(&p, seed, duration, p.mean_bps, p.channel_fade),
                    );
                    assert_eq!(bits(&p.generate(seed, duration)), bits(&capacity));
                    let mut stream = p.capacity_stream(seed, duration);
                    assert_reads_match(&capacity, &mut stream, &mut rng);

                    let link = two_vec_link(&p, seed, duration);
                    assert_eq!(bits(&p.generate_link(seed, duration)), bits(&link));
                    let mut stream = p.link_stream(seed, duration);
                    assert_reads_match(&link, &mut stream, &mut rng);
                }
            }
        }
    }
}
