#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the ablations and
# extension experiments, mirroring the artifact's run_all.sh. Results
# land in results/ (CSV + console transcripts).
#
#   bash run_all.sh            # full-length runs (tens of minutes)
#   bash run_all.sh --quick    # shortened smoke runs
set -euo pipefail
cd "$(dirname "$0")"

QUICK="${1:-}"

cargo build --release -p rog-bench --bin rogctl

# Entries of the experiment table (crates/bench/src/experiments.rs).
NAMES=(
  table1_mta
  table2_setup
  table3_power
  fig3_bandwidth
  fig1_cruda_outdoor
  fig6_cruda_indoor
  fig7_crimp_outdoor
  fig8_micro_event
  fig9_sensitivity
  fig10_threshold
  replay_trace
  ablation_granularity
  ablation_mac
  ablation_importance
  ext_convmlp
  ext_future_work
  bench_fault
)

mkdir -p results
for b in "${NAMES[@]}"; do
  echo "=== $b ==="
  # shellcheck disable=SC2086
  ./target/release/rogctl figure "$b" $QUICK | tee "results/${b}_console.txt"
done

echo
echo "All experiments complete; artifacts are in results/."
