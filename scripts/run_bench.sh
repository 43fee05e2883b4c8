#!/usr/bin/env bash
# Builds bench_perf in Release and runs one of its gate suites:
#
#   scripts/run_bench.sh --suite NAME [out.json]
#
# NAME is perf (bench_perf's default mode) or one of its mode flags without
# the dashes; the case below gives each suite's default record. bench_perf
# decides every gate (see the header of bench/bench_perf.cc): it diffs the
# golden workloads' cycle counts against scripts/golden_cycles.json before
# any suite, runs the suite's own gates, and exits nonzero if one fails.
# This script adds one check: the record parses as JSON. It exits 2 on bad
# arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/run_bench.sh --suite" \
       "perf|sweep|plan|trace|dram|faults|serve|llm|metrics|energy [out.json]" >&2
  exit 2
}

[[ $# -ge 2 && $# -le 3 && "$1" == --suite ]] || usage
SUITE="$2"
case "$SUITE" in
  perf)    OUT=BENCH_PR1.json ;;
  sweep)   OUT=BENCH_PR2.json ;;
  plan)    OUT=BENCH_PR3.json ;;
  trace)   OUT=trace.json ;;
  dram)    OUT=BENCH_PR5.json ;;
  faults)  OUT=BENCH_PR6.json ;;
  serve)   OUT=BENCH_PR7.json ;;
  llm)     OUT=BENCH_PR8.json ;;
  metrics) OUT=BENCH_PR9.json ;;
  energy)  OUT=BENCH_PR10.json ;;
  *)       usage ;;
esac
OUT="${3:-$OUT}"
MODE=()
[[ "$SUITE" == perf ]] || MODE=("--$SUITE")

BUILD_DIR=build-bench
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_perf

"./$BUILD_DIR/bench_perf" "${MODE[@]}" "$OUT"
python3 -m json.tool "$OUT" > /dev/null
echo "suite $SUITE ok: $OUT"
