//! Figure 1: CRUDA in the outdoor environment.
//!
//! Panels: (a) average time composition of a training iteration,
//! (b) statistical efficiency (accuracy vs iteration), (c) accuracy vs
//! wall-clock time, (d) energy consumption vs accuracy — for BSP, SSP-4,
//! SSP-20, FLOWN, ROG-4, ROG-20. Also prints the paper's headline
//! numbers: accuracy gain after fixed training time and energy saving to
//! reach a common accuracy.

use rog_bench::{duration, four_panel_report, header, side, six_strategy_runs};
use rog_trainer::report;
use rog_trainer::{Environment, WorkloadKind};

fn main() {
    let dur = duration(5400.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Cruda, Environment::Outdoor, dur);
    four_panel_report(1, &runs, dur);

    header("Headline numbers (paper Sec. VI-A)");
    let best_at_end = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::metric_at_time(r, dur))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (rog_best, baseline_best) = (best_at_end(true), best_at_end(false));
    println!(
        "accuracy after {dur:.0}s: best ROG {rog_best:.1}%, best baseline {baseline_best:.1}% \
         (gain {:+.1} pts; paper reports +4.9 to +6.5 pts outdoors at 60 min)",
        rog_best - baseline_best
    );
    let target = baseline_best.min(rog_best) - 0.5;
    let least_energy = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::energy_to_reach(r, target))
            .fold(f64::INFINITY, f64::min)
    };
    let (rog_energy, base_energy) = (least_energy(true), least_energy(false));
    if rog_energy.is_finite() && base_energy.is_finite() {
        println!(
            "energy to reach {target:.1}%: ROG {rog_energy:.0} J vs best baseline {base_energy:.0} J \
             ({:.1}% saving; paper reports 20.4–50.7%)",
            100.0 * (1.0 - rog_energy / base_energy)
        );
    }
    let least_stall = |rog: bool| {
        side(&runs, rog)
            .map(|r| r.composition.stall)
            .fold(f64::INFINITY, f64::min)
    };
    println!(
        "stall per iteration: ROG {:.2}s vs best baseline {:.2}s \
         (paper: ROG cuts outdoor stall by 49.1–86.5%)",
        least_stall(true),
        least_stall(false)
    );
}
