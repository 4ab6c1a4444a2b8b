//! Figure 6: CRUDA in the indoor environment (same four panels as
//! Fig. 1, milder instability), plus the Sec. II-D observation that BSP
//! stall indoors is comparable to the computation time.

use rog_bench::{duration, four_panel_report, header, side, six_strategy_runs};
use rog_trainer::{Environment, WorkloadKind};

fn main() {
    let dur = duration(3600.0, 240.0);
    let runs = six_strategy_runs(WorkloadKind::Cruda, Environment::Indoor, dur);
    four_panel_report(6, &runs, dur);

    header("Sec. II-D cross-check (indoor BSP)");
    if let Some(bsp) = runs.iter().find(|r| r.name.starts_with("BSP")) {
        println!(
            "BSP indoors: compute {:.2}s, stall {:.2}s per iteration \
             (paper: stall 2.23s ≈ 102% of the 2.18s compute)",
            bsp.composition.compute, bsp.composition.stall
        );
    }
    let least_stall = |rog: bool| {
        side(&runs, rog)
            .map(|r| r.composition.stall)
            .fold(f64::INFINITY, f64::min)
    };
    println!(
        "stall per iteration: ROG {:.2}s vs best baseline {:.2}s \
         (paper: ROG cuts indoor stall by 42.4–97.6%)",
        least_stall(true),
        least_stall(false)
    );
}
