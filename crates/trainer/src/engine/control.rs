//! Windowed adaptive control for the row engine.
//!
//! The three online controllers (`--auto-threshold`, the `roga` bound,
//! `--codec auto`) share one shape: every N completed cluster
//! iterations ([`Window`]) read a signal, apply hysteresis, journal the
//! switch. This module holds that shape's pure parts — the window gate,
//! the link-stress signal two of them read ([`link_stress`]) and each
//! controller's constants and decision rule; the engine
//! (`RowEngine::run_controllers`) evaluates them at a deterministic
//! point and applies the result, so runs stay byte-identical across
//! thread counts.

use rog_compress::CodecChoice;
use rog_sim::Time;

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
    pub(crate) fn new(min: u32, max: u32) -> Self {
        assert!(min >= 1, "adaptive bound min threshold must be at least 1");
        assert!(
            min <= max,
            "adaptive bound min threshold must not exceed max"
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
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
