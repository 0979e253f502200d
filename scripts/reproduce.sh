#!/usr/bin/env bash
# One-shot reproduction driver: configure, build, run the full test suite
# and every bench harness, leaving test_output.txt and bench_output.txt in
# the repository root (the artifacts EXPERIMENTS.md is written against).
#
#   ./scripts/reproduce.sh            # everything, default bench budgets
#   ./scripts/reproduce.sh --quick    # smaller bench budgets (~2 min)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

run_bench() {
  local bench="$1"
  shift
  echo "===== $(basename "$bench") ====="
  "$bench" "$@"
  echo
}

{
  if [[ "$QUICK" == "1" ]]; then
    run_bench build/bench/bench_search_efficiency --steps 500
    run_bench build/bench/bench_table1a_maxcut --trials 1 --cap 5 --max-bits 2000
    run_bench build/bench/bench_table1b_tsp --trials 1 --cap 10 --max-cities 29
    run_bench build/bench/bench_table1c_random --trials 1 --cap 10 --max-bits 4096
    run_bench build/bench/bench_table2_throughput --max-bits 4096 --flips 20000
    run_bench build/bench/bench_fig8_scaling --seconds 0.5
    run_bench build/bench/bench_table3_comparison
    run_bench build/bench/bench_ablation_window --flips 50000
    run_bench build/bench/bench_ablation_ga --flips 100000
    run_bench build/bench/bench_kernels --benchmark_min_time=0.05s
  else
    for bench in build/bench/*; do
      run_bench "$bench"
    done
  fi
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt"
