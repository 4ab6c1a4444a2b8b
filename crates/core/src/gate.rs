//! ROG's row-granulated staleness gate (RSP, paper Sec. IV), which is
//! also every baseline's SSP gate.
//!
//! RSP is a *two-level* contract, and these predicates are its single
//! source of truth for the roles, the `RowVersionStore`, the fuzz
//! harness and the invariant suites — the `threshold == 0` clamp
//! included. Under a sharded plane each shard gates over its own rows;
//! the bounds being per row, the shards' gates over a disjoint row
//! cover are exactly the single-server gate.
//!
//! SSP with bound `t` lets a worker that pushed iteration `n` pull
//! while `n <= min + t` (`min`: the slowest worker's pushed iteration;
//! BSP is `t = 0`, ASP has no bound). With every row pushed every
//! iteration `min(V)` is that `min`, and [`rsp_may_pull`] at threshold
//! `t + 1` admits exactly those leads, so the baselines store SSP `t`
//! as RSP threshold `t + 1`, saturating. The one lead saturation
//! refuses is `u32::MAX` under ASP: four billion iterations ahead of
//! the slowest worker, which no run reaches.

/// The effective RSP staleness bound for `threshold`.
///
/// A bound of zero would deadlock the row gate (a worker could never
/// advance past its own freshly pushed rows), so `threshold == 0` is
/// clamped to the tightest usable bound of one iteration — the same
/// clamp the server's pull gate applies.
pub fn rsp_bound(threshold: u32) -> u64 {
    u64::from(threshold).max(1)
}

/// Level 1 (same-row mandatory bound): must the row whose last pushed
/// version is `row_iter` be part of the *mandatory* transmission set
/// when its worker finishes iteration `iter`?
///
/// A row may be skipped by the importance scheduler only while its
/// staleness stays strictly below [`rsp_bound`]; once it reaches the
/// bound it must be pushed (and, under loss, retransmitted) before
/// the worker may advance.
pub fn row_is_mandatory(row_iter: u64, iter: u64, threshold: u32) -> bool {
    iter.saturating_sub(row_iter) >= rsp_bound(threshold)
}

/// Level 2 (cross-row pull gate): may a worker that has pushed
/// iteration `pushed_iter` start its next iteration, given the
/// cluster-wide minimum row version `global_min`?
///
/// Mirrors `RowVersionStore::gate_ok`: the worker may run ahead of
/// the stalest row anywhere in the cluster by strictly less than
/// [`rsp_bound`] iterations.
pub fn rsp_may_pull(global_min: u64, pushed_iter: u64, threshold: u32) -> bool {
    pushed_iter < global_min + rsp_bound(threshold) + u64::from(testhooks::gate_slack())
}

/// Defect-injection surface for harness meta-testing. Not part of the
/// public API; see `rog-fuzz`'s injected-bug test.
#[doc(hidden)]
pub mod testhooks {
    use std::sync::atomic::{AtomicU32, Ordering};

    static GATE_SLACK: AtomicU32 = AtomicU32::new(0);

    /// Widens the cross-row pull gate ([`super::rsp_may_pull`]) by
    /// `slack` extra iterations of admissible lead — a deliberate,
    /// process-global staleness-contract violation used to prove the
    /// differential harness catches real gate bugs. Zero (the default
    /// and the only value production code ever observes) restores the
    /// exact paper semantics. Callers must restore zero when done;
    /// tests flipping this cannot share a process with clean runs.
    pub fn set_gate_slack(slack: u32) {
        GATE_SLACK.store(slack, Ordering::Relaxed);
    }

    /// Current injected pull-gate slack (zero in production).
    pub fn gate_slack() -> u32 {
        GATE_SLACK.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SSP's gate with bound `t`, spelled out: the oracle of the
    /// identity with the row gate at `t + 1`.
    fn ssp_admits(pushed: u64, min: u64, t: u32) -> bool {
        pushed <= min + u64::from(t)
    }

    #[test]
    fn asp_saturates_only_at_a_lead_of_u32_max() {
        let (t, max) = (u32::MAX, u64::from(u32::MAX));
        for lead in [0, 1 << 20, max - 1, max, max + 1] {
            let admits = rsp_may_pull(7, 7 + lead, t.saturating_add(1));
            assert_eq!(admits, ssp_admits(7 + lead, 7, t) && lead != max);
        }
    }

    #[test]
    fn rsp_bound_clamps_zero_threshold() {
        assert_eq!(rsp_bound(0), 1);
        assert_eq!(rsp_bound(1), 1);
        assert_eq!(rsp_bound(4), 4);
    }

    #[test]
    fn mandatory_rows_are_exactly_those_at_the_bound() {
        // Worker finishing iteration 5 under threshold 2: rows pushed
        // at iteration 4 (staleness 1) may still be skipped, rows from
        // iteration 3 (staleness 2) must go.
        assert!(!row_is_mandatory(4, 5, 2));
        assert!(row_is_mandatory(3, 5, 2));
        assert!(row_is_mandatory(0, 5, 2));
        // threshold 0 behaves like threshold 1.
        assert!(!row_is_mandatory(5, 5, 0));
        assert!(row_is_mandatory(4, 5, 0));
    }

    #[test]
    fn pull_gate_bounds_lead_over_stalest_row() {
        // global_min 3, threshold 2: pushed 4 may pull, pushed 5 stalls.
        assert!(rsp_may_pull(3, 4, 2));
        assert!(!rsp_may_pull(3, 5, 2));
        // BSP-like threshold 0: may lead by strictly less than one.
        assert!(rsp_may_pull(3, 3, 0));
        assert!(!rsp_may_pull(3, 4, 0));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A model RSP cluster driven through random push/pull/advance
        /// sequences by the proptests below, using the shared gate
        /// predicates exactly as the engine does: when a worker
        /// finishes an iteration it pushes every mandatory row plus a
        /// random voluntary subset, then advances only if the pull
        /// gate admits it.
        struct ModelCluster {
            threshold: u32,
            /// Completed (pushed-through) iterations per worker.
            iters: Vec<u64>,
            /// Last pushed iteration per worker per row.
            rows: Vec<Vec<u64>>,
        }

        impl ModelCluster {
            fn new(n_workers: usize, n_rows: usize, threshold: u32) -> Self {
                Self {
                    threshold,
                    iters: vec![0; n_workers],
                    rows: vec![vec![0; n_rows]; n_workers],
                }
            }

            fn global_min(&self) -> u64 {
                self.rows
                    .iter()
                    .flat_map(|r| r.iter().copied())
                    .min()
                    .unwrap_or(0)
            }

            /// One engine step for `w`: finish iteration, push
            /// mandatory ∪ voluntary rows, advance if the gate opens.
            /// Returns whether the worker advanced.
            fn step(&mut self, w: usize, voluntary_bits: u32) -> bool {
                if !rsp_may_pull(self.global_min(), self.iters[w], self.threshold) {
                    return false; // stalled at the gate
                }
                let n = self.iters[w] + 1;
                for (r, row_iter) in self.rows[w].iter_mut().enumerate() {
                    let voluntary = voluntary_bits >> (r % 32) & 1 == 1;
                    if voluntary || row_is_mandatory(*row_iter, n, self.threshold) {
                        *row_iter = n;
                    }
                }
                self.iters[w] = n;
                true
            }

            fn check_invariants(&self) -> Result<(), TestCaseError> {
                let bound = rsp_bound(self.threshold);
                for (w, rows) in self.rows.iter().enumerate() {
                    // While computing iteration `iters[w] + 1`, no row
                    // may be older than the same-row bound.
                    let computing = self.iters[w] + 1;
                    for (r, &row_iter) in rows.iter().enumerate() {
                        prop_assert!(
                            computing.saturating_sub(row_iter) <= bound,
                            "worker {w} row {r}: iter {computing} sees version {row_iter}, \
                             staleness {} > bound {bound}",
                            computing - row_iter
                        );
                    }
                    // Intra-worker spread stays within the cross-row
                    // bound.
                    let max = rows.iter().copied().max().unwrap_or(0);
                    let min = rows.iter().copied().min().unwrap_or(0);
                    prop_assert!(
                        max - min <= bound,
                        "worker {w}: row-version spread {} > bound {bound}",
                        max - min
                    );
                    // Cross-worker lead over the cluster-stalest row
                    // is what the pull gate bounds.
                    prop_assert!(
                        self.iters[w].saturating_sub(self.global_min()) <= bound,
                        "worker {w}: lead {} over stalest row > bound {bound}",
                        self.iters[w] - self.global_min()
                    );
                }
                Ok(())
            }
        }

        proptest! {
            /// The RSP two-level staleness invariant: random
            /// push/pull/advance sequences never observe a row older
            /// than the same-row bound, nor an intra-worker spread
            /// beyond the cross-row bound.
            #[test]
            fn prop_rsp_two_level_staleness_holds(
                threshold in 0u32..5,
                n_workers in 1usize..5,
                n_rows in 1usize..8,
                ops in proptest::collection::vec((0usize..64, 0u32..=u32::MAX), 1..300),
            ) {
                let mut cluster = ModelCluster::new(n_workers, n_rows, threshold);
                cluster.check_invariants()?;
                for (pick, bits) in ops {
                    cluster.step(pick % n_workers, bits);
                    cluster.check_invariants()?;
                }
            }

            /// Progress: the gate never wedges the whole cluster — the
            /// worker at the global minimum can always advance.
            #[test]
            fn prop_slowest_worker_is_never_gated(
                threshold in 0u32..5,
                n_workers in 1usize..5,
                n_rows in 1usize..8,
                ops in proptest::collection::vec((0usize..64, 0u32..=u32::MAX), 1..200),
            ) {
                let mut cluster = ModelCluster::new(n_workers, n_rows, threshold);
                for (pick, bits) in ops {
                    cluster.step(pick % n_workers, bits);
                }
                let slowest = (0..n_workers)
                    .min_by_key(|&w| cluster.iters[w])
                    .unwrap();
                prop_assert!(
                    cluster.step(slowest, 0),
                    "slowest worker stalled forever"
                );
            }

            /// The row-granular pull gate is at least as strict as the
            /// coarse SSP gate at the same threshold.
            #[test]
            fn prop_rsp_gate_is_stricter_than_ssp(
                threshold in 0u32..6,
                global_min in 0u64..50,
                lead in 0u64..10,
            ) {
                let pushed = global_min + lead;
                if rsp_may_pull(global_min, pushed, threshold) {
                    prop_assert!(
                        ssp_admits(pushed, global_min, threshold),
                        "RSP admitted lead {lead} at threshold {threshold} but SSP refused"
                    );
                }
            }

            /// SSP's bound `t` is RSP threshold `t + 1` for every
            /// `t < u32::MAX`: the same leads pass on both sides of the
            /// boundary and far from it.
            #[test]
            fn prop_ssp_t_is_rsp_t_plus_one(
                pick in 0u8..3,
                raw in 0u32..u32::MAX,
                global_min in 0u64..1 << 40,
                far in 0u64..1 << 34,
            ) {
                // Small bounds, bounds just below `u32::MAX`, any bound.
                let t = match pick {
                    0 => raw % 4,
                    1 => u32::MAX - 1 - raw % 4,
                    _ => raw,
                };
                let edge = u64::from(t);
                for lead in [edge.saturating_sub(1), edge, edge + 1, edge + 2, far] {
                    let pushed = global_min + lead;
                    prop_assert_eq!(
                        ssp_admits(pushed, global_min, t),
                        rsp_may_pull(global_min, pushed, t + 1),
                        "lead {} at SSP bound {}", lead, t
                    );
                }
            }
        }
    }
}
