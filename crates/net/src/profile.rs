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

use crate::Trace;

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
    /// seconds, deterministically from `seed`.
    pub fn generate(&self, seed: u64, duration: Time) -> Trace {
        let samples = self.generate_process(seed, duration, self.mean_bps, self.channel_fade);
        Trace::from_samples(self.dt, samples)
    }

    /// Generates a per-link quality-factor trace in `(0, 1]` of at least
    /// `duration` seconds.
    ///
    /// The link factor multiplies the capacity share a flow from that
    /// device gets; it models distance/occlusion between one robot and
    /// the parameter-server hotspot.
    pub fn generate_link(&self, seed: u64, duration: Time) -> Trace {
        let mut samples = self.generate_process(seed, duration, 1.0, self.link_fade);
        // Long-outage overlay: an independent Markov chain on the same
        // grid multiplying the base factor, in place — one `Vec` per
        // link. (Stepping both chains in one loop measured 4–5 % slower:
        // more state lives across the `ln`/`sin_cos` calls.)
        let mut rng = DetRng::new(seed ^ 0x00A6E);
        let outage = self.link_outage;
        let dist = self.link_distance;
        // OU discretization over the trace grid.
        let a = (-self.dt / dist.time_const_s.max(1e-6)).exp();
        let innov = dist.sigma * (1.0 - a * a).max(0.0).sqrt();
        let mut d = rng.normal_with(dist.mean, dist.sigma);
        let mut in_out = false;
        let mut depth = 1.0;
        for v in &mut samples {
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
            *v = (*v * f * d_clamped).clamp(1e-3, 1.0);
        }
        Trace::from_samples(self.dt, samples)
    }

    fn generate_process(
        &self,
        seed: u64,
        duration: Time,
        mean: f64,
        fade: FadeProfile,
    ) -> Vec<f64> {
        let n = (duration / self.dt).ceil().max(1.0) as usize + 1;
        let mut rng = DetRng::new(seed);
        let mut samples = Vec::with_capacity(n);
        // AR(1) around the mean, started at stationarity.
        let sigma = self.rel_sigma * mean;
        let stationary_sigma = if self.ar_coeff < 1.0 {
            sigma / (1.0 - self.ar_coeff * self.ar_coeff).sqrt()
        } else {
            sigma
        };
        let mut x = rng.normal_with(mean, stationary_sigma);
        let mut in_fade = false;
        let mut fade_depth = 1.0;
        let floor = self.rel_floor * mean;
        for _ in 0..n {
            x = mean + self.ar_coeff * (x - mean) + rng.normal_with(0.0, sigma);
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

    /// `generate_link` as it was: the base process into a trace of its
    /// own, then the overlay into a second `Vec`.
    fn two_vec_link(p: &ChannelProfile, seed: u64, duration: Time) -> Trace {
        let base = Trace::from_samples(p.dt, p.generate_process(seed, duration, 1.0, p.link_fade));
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

    #[test]
    fn in_place_link_overlay_is_bitwise_the_two_vec_one() {
        let bits = |t: &Trace| t.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in [
            ChannelProfile::indoor(),
            ChannelProfile::outdoor(),
            ChannelProfile::stable(100e6),
        ] {
            for duration in [0.05, 1.0, 120.0, 300.0] {
                for seed in [0, 7, 0x00A6E] {
                    let link = p.generate_link(seed, duration);
                    assert_eq!(bits(&link), bits(&two_vec_link(&p, seed, duration)));
                }
            }
        }
    }
}
