#!/usr/bin/env bash
# Perf trajectory runner: Release build, consistency-engine probe, and a
# quick Table-2 slice through the parallel experiment runner.
#
#   tools/bench.sh [BUILD_DIR]
#
# Environment:
#   BUILD_DIR  build directory        (default build-bench; $1 overrides)
#   THREADS    experiment fan-out     (default 1, so the Table-2 wall
#              fields do not depend on the core count; 0 = all cores)
#   TRIALS     trials per table n     (default 4 — a smoke slice, not the paper)
#   OUT        probe output           (default BENCH_core.json)
#
# Produces:
#   BENCH_core.json    consistency-kernel probe (work-op ratio, ns/check)
#   BENCH_table2.json  Table-2 slice wall time + per-row checks/cycle
#   BENCH_net.json     carrier-throughput probe (ns/frame, batched speedup)
# and gates them against tools/bench_baseline.json and
# tools/bench_net_baseline.json via tools/bench_check.py.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-${BUILD_DIR:-build-bench}}
THREADS=${THREADS:-1}
TRIALS=${TRIALS:-4}
OUT=${OUT:-BENCH_core.json}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_micro_core bench_table2_learning_3sat bench_net_throughput

"$BUILD_DIR/bench/bench_micro_core" --core-json="$OUT" \
  --benchmark_filter='BM_Store|BM_NogoodViolationCheck'
"$BUILD_DIR/bench/bench_table2_learning_3sat" \
  --trials "$TRIALS" --threads "$THREADS" --json BENCH_table2.json
"$BUILD_DIR/bench/bench_net_throughput" --json BENCH_net.json

python3 tools/bench_check.py "$OUT" tools/bench_baseline.json
python3 tools/bench_check.py BENCH_net.json tools/bench_net_baseline.json

# Gates passed: refresh the in-tree probe snapshots so the perf trajectory
# is tracked across PRs (CI only uploads these as artifacts, which expire).
if [ "$OUT" != BENCH_core.json ]; then cp "$OUT" BENCH_core.json; fi
