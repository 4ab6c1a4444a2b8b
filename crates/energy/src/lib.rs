//! Per-state power model and energy integration (paper Sec. II-C,
//! Table III).
//!
//! The paper measures whole-board power (CPU + GPU + memory + wireless
//! card, via jtop) in three states and finds stalling robots still burn
//! ~30 % of compute power — they cannot sleep because they must react
//! promptly to parameter-server messages, and static leakage keeps chips
//! warm. Table III:
//!
//! | state | computation | communication | stall |
//! |---|---|---|---|
//! | power (W) | 13.35 | 4.25 | 4.04 |
//!
//! Energy here is exactly what the paper computes: state-specific power
//! integrated over each device's state timeline.
//!
//! # Example
//!
//! ```
//! use rog_energy::PowerModel;
//! use rog_sim::{DeviceState, Timeline};
//!
//! let mut tl = Timeline::new();
//! tl.set_state(0.0, DeviceState::Compute);
//! tl.set_state(2.0, DeviceState::Stall);
//! tl.close(3.0);
//! let j = PowerModel::jetson_nx().energy_joules(&tl);
//! assert!((j - (2.0 * 13.35 + 1.0 * 4.04)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rog_sim::{DeviceState, Time, Timeline};

/// Power draw per device state, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power while computing gradients (includes (de)compression).
    pub compute_w: f64,
    /// Power while transmitting/receiving.
    pub communicate_w: f64,
    /// Power while stalled at a synchronization gate.
    pub stall_w: f64,
    /// Power while idle (before start / after finish).
    pub idle_w: f64,
}

impl PowerModel {
    /// Table III measurements on the NVIDIA Jetson Xavier NX.
    pub fn jetson_nx() -> Self {
        Self {
            compute_w: 13.35,
            communicate_w: 4.25,
            stall_w: 4.04,
            idle_w: 4.04,
        }
    }

    /// Power in a given state.
    pub fn power_in(&self, state: DeviceState) -> f64 {
        match state {
            DeviceState::Compute => self.compute_w,
            DeviceState::Communicate => self.communicate_w,
            DeviceState::Stall => self.stall_w,
            DeviceState::Idle => self.idle_w,
            // A powered-off / out-of-range device draws nothing while
            // absent.
            DeviceState::Offline => 0.0,
        }
    }

    /// Energy in joules of a closed timeline.
    pub fn energy_joules(&self, timeline: &Timeline) -> f64 {
        DeviceState::ALL
            .iter()
            .map(|&s| self.power_in(s) * timeline.time_in(s))
            .sum()
    }

    /// Energy in joules spent within the window `[t0, t1)`.
    pub fn energy_joules_between(&self, timeline: &Timeline, t0: Time, t1: Time) -> f64 {
        DeviceState::ALL
            .iter()
            .map(|&s| self.power_in(s) * timeline.time_in_between(s, t0, t1))
            .sum()
    }

    /// Total energy of a cluster of timelines up to `t`.
    pub fn cluster_energy_until<'a>(
        &self,
        timelines: impl IntoIterator<Item = &'a Timeline>,
        t: Time,
    ) -> f64 {
        timelines
            .into_iter()
            .map(|tl| self.energy_joules_between(tl, 0.0, t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spanned(state: DeviceState, secs: f64) -> Timeline {
        let mut tl = Timeline::new();
        tl.set_state(0.0, state);
        tl.close(secs);
        tl
    }

    #[test]
    fn table3_stall_is_about_30_percent_of_compute() {
        let m = PowerModel::jetson_nx();
        let ratio = m.stall_w / m.compute_w;
        assert!((0.25..0.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn energy_is_power_times_time_per_state() {
        let m = PowerModel::jetson_nx();
        assert!((m.energy_joules(&spanned(DeviceState::Compute, 10.0)) - 133.5).abs() < 1e-9);
        assert!((m.energy_joules(&spanned(DeviceState::Communicate, 2.0)) - 8.5).abs() < 1e-9);
    }

    #[test]
    fn windowed_energy_clips() {
        let m = PowerModel::jetson_nx();
        let tl = spanned(DeviceState::Compute, 10.0);
        let half = m.energy_joules_between(&tl, 0.0, 5.0);
        assert!((half - 66.75).abs() < 1e-9);
    }

    #[test]
    fn cluster_energy_sums_devices() {
        let m = PowerModel::jetson_nx();
        let tls = vec![
            spanned(DeviceState::Stall, 1.0),
            spanned(DeviceState::Stall, 1.0),
        ];
        assert!((m.cluster_energy_until(&tls, 10.0) - 2.0 * 4.04).abs() < 1e-9);
    }

    #[test]
    fn mixed_timeline_integrates_all_states() {
        let m = PowerModel::jetson_nx();
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute); // 2 s
        tl.set_state(2.0, DeviceState::Communicate); // 1 s
        tl.set_state(3.0, DeviceState::Stall); // 0.5 s
        tl.set_state(3.5, DeviceState::Idle); // 0.5 s
        tl.close(4.0);
        let want = 2.0 * 13.35 + 4.25 + 0.5 * 4.04 + 0.5 * 4.04;
        assert!((m.energy_joules(&tl) - want).abs() < 1e-9);
    }

    #[test]
    fn offline_time_is_free() {
        let m = PowerModel::jetson_nx();
        assert_eq!(m.power_in(DeviceState::Offline), 0.0);
        let mut tl = Timeline::new();
        tl.set_state(0.0, DeviceState::Compute); // 1 s
        tl.set_state(1.0, DeviceState::Offline); // 3 s, free
        tl.close(4.0);
        assert!((m.energy_joules(&tl) - 13.35).abs() < 1e-9);
    }
}
