//! End-to-end packet-loss robustness: a zero-loss configuration is
//! byte-identical to a run with no loss model at all (regression gate),
//! lossy runs replay bit-for-bit, and
//! under bursty Gilbert–Elliott loss ROG keeps completing iterations
//! within its staleness bound while the reliable-only BSP baseline's
//! stall residency visibly grows.

mod common;

use common::{assert_identical_runs, small_cluster_cfg as cfg};
use rog::prelude::*;

#[test]
fn zero_loss_config_is_byte_identical_to_loss_free_run() {
    for strategy in [Strategy::Rog { threshold: 4 }, Strategy::Bsp] {
        let base = cfg(strategy).options().run().metrics;
        for zero in [LossConfig::off(), LossConfig::iid(9, 0.0)] {
            let mut c = cfg(strategy);
            c.loss = Some(zero);
            let m = c.options().run().metrics;
            assert_identical_runs(&base, &m, &base.name);
            assert_eq!(m.lost_bytes, 0.0);
            assert_eq!(m.corrupt_bytes, 0.0);
        }
    }
}

#[test]
fn lossy_runs_are_deterministic() {
    let mut c = cfg(Strategy::Rog { threshold: 4 });
    c.loss = Some(LossConfig::gilbert_elliott(c.seed, 0.10));
    let first = c.options().run().metrics;
    let again = c.options().run().metrics;
    assert!(first.name.contains("+loss"), "{}", first.name);
    assert_identical_runs(&first, &again, "replay");
}

#[test]
fn lossy_rog_accounts_lost_bytes_and_keeps_training() {
    let base = cfg(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut c = cfg(Strategy::Rog { threshold: 4 });
    c.loss = Some(LossConfig::gilbert_elliott(c.seed, 0.10));
    let m = c.options().run().metrics;
    assert!(m.lost_bytes > 0.0, "loss model must drop bytes");
    assert!(m.useful_bytes > 0.0);
    // Best-effort gradient rows degrade instead of blocking: ROG keeps
    // the large majority of its loss-free iteration throughput.
    assert!(
        m.mean_iterations > base.mean_iterations * 0.5,
        "lossy {} vs loss-free {}",
        m.mean_iterations,
        base.mean_iterations
    );
    // And training does not collapse.
    let first = m.checkpoints.first().expect("ckpt").metric;
    let last = m.checkpoints.last().expect("ckpt").metric;
    assert!(last > first - 3.0, "accuracy collapsed: {first} -> {last}");
}

#[test]
fn reliable_only_bsp_stalls_more_under_loss_than_rog() {
    let loss = 0.10;
    let bsp_clean = cfg(Strategy::Bsp).options().run().metrics;
    let mut bsp_lossy_cfg = cfg(Strategy::Bsp);
    bsp_lossy_cfg.loss = Some(LossConfig::gilbert_elliott(bsp_lossy_cfg.seed, loss));
    let bsp_lossy = bsp_lossy_cfg.options().run().metrics;
    // Every lost chunk blocks the whole-model transfer on a backed-off
    // retransmit, so loss directly grows BSP's stall residency.
    assert!(
        bsp_lossy.stall_secs > bsp_clean.stall_secs,
        "BSP stall under loss {} vs clean {}",
        bsp_lossy.stall_secs,
        bsp_clean.stall_secs
    );
    assert!(
        bsp_lossy.mean_iterations < bsp_clean.mean_iterations,
        "loss must cost BSP iterations: {} vs {}",
        bsp_lossy.mean_iterations,
        bsp_clean.mean_iterations
    );
    // ROG under the same loss keeps a larger share of its throughput
    // than BSP keeps of its own: row-granular best-effort degradation
    // beats blocking retransmits.
    let rog_clean = cfg(Strategy::Rog { threshold: 4 }).options().run().metrics;
    let mut rog_lossy_cfg = cfg(Strategy::Rog { threshold: 4 });
    rog_lossy_cfg.loss = Some(LossConfig::gilbert_elliott(rog_lossy_cfg.seed, loss));
    let rog_lossy = rog_lossy_cfg.options().run().metrics;
    let rog_keep = rog_lossy.mean_iterations / rog_clean.mean_iterations;
    let bsp_keep = bsp_lossy.mean_iterations / bsp_clean.mean_iterations;
    assert!(
        rog_keep > bsp_keep,
        "ROG kept {rog_keep:.3} of throughput, BSP kept {bsp_keep:.3}"
    );
}

#[test]
fn loss_windows_from_fault_plans_drop_bytes() {
    let mut c = cfg(Strategy::Rog { threshold: 4 });
    c.fault_plan = Some(FaultPlan::new().link_loss(0, 20.0, 100.0, 0.15));
    let m = c.options().run().metrics;
    assert!(m.name.contains("+loss"), "{}", m.name);
    assert!(m.lost_bytes > 0.0, "windowed loss must drop bytes");
    let m2 = c.options().run().metrics;
    assert_identical_runs(&m, &m2, "windowed loss replay");
}
