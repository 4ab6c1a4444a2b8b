//! Figure 7: CRIMP (implicit mapping and positioning) outdoors.
//!
//! Same four panels as Fig. 1 with trajectory error (lower is better)
//! as the metric and the smaller nice-slam-sized model (0.75 MB
//! compressed): time composition, error vs iteration, error vs
//! wall-clock, energy vs error.

use rog_bench::{duration, four_panel_report, header, side, six_strategy_runs};
use rog_trainer::report;
use rog_trainer::{Environment, WorkloadKind};

fn main() {
    let dur = duration(3600.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Crimp, Environment::Outdoor, dur);
    four_panel_report(7, &runs, dur);

    header("Headline numbers (paper Sec. VI-A, CRIMP)");
    let best_at_end = |rog: bool| {
        side(&runs, rog)
            .flat_map(|r| report::metric_at_time(r, dur))
            .fold(f64::INFINITY, f64::min)
    };
    let (rog_best, baseline_best) = (best_at_end(true), best_at_end(false));
    println!(
        "trajectory error after {dur:.0}s: best ROG {rog_best:.3} m vs best baseline {baseline_best:.3} m \
         ({:.0}% reduction; paper reports 16–30% at 60 min)",
        100.0 * (1.0 - rog_best / baseline_best.max(1e-9))
    );
    if let Some(bsp) = runs.iter().find(|r| r.name.starts_with("BSP")) {
        println!(
            "BSP stall/communication: {:.2}s / {:.2}s per iteration \
             (paper: stall ≈ 60% of communication under BSP)",
            bsp.composition.stall, bsp.composition.communicate
        );
    }
}
