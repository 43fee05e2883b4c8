#!/usr/bin/env bash
# Builds Release, runs the perf harness, and diffs the simulated cycle counts
# against scripts/golden_cycles.json so perf PRs cannot silently change
# timing semantics. One dispatcher, one suite per invocation:
#
#   scripts/run_bench.sh [--suite <name>] [suite-out.json] [perf-out.json]
#
# Suites (the golden-cycle diff of the default perf harness ALWAYS runs
# first, whatever the suite):
#
#   perf    default harness only: kernel A/B + simulator throughput,
#           default out BENCH_PR1.json
#   sweep   parallel design-space sweep via sim::Sweep (byte-identity of
#           parallel vs serial reports), default out BENCH_PR2.json
#   plan    tiling-policy comparison, HeuristicTiling vs ExhaustiveTiling
#           over the scaled model zoo, default out BENCH_PR3.json
#   trace   cycle-level trace mode (src/trace/), validates the Perfetto
#           artifact, default out trace.json
#   dram    DRAM controller comparison, FR-FCFS vs FCFS on 2 channels,
#           default out BENCH_PR5.json
#   faults  fault-injection resilience gates (zero-fault golden identity,
#           ECC smoke campaign, fail-soft sweep), default out BENCH_PR6.json
#   serve   serving-layer gates (load->0 identity vs Session::run, ordered
#           tail percentiles, goodput saturating below calibrated capacity,
#           byte-identical reports across worker threads), default out
#           BENCH_PR7.json
#   llm     KV-cache-resident decode gates (batch-1 decode gains more from
#           FR-FCFS than every conv-zoo model, cycles-per-token strictly
#           improves 1->2->4 DRAM channels), default out BENCH_PR8.json
#   metrics telemetry gates (metrics-off golden-cycle identity, metrics-on
#           wall overhead <= 5%, exact sampler/counter reconciliation,
#           monotone decode KV-footprint timeline), default out
#           BENCH_PR9.json
#   energy  command-level energy gates (energy-on golden-cycle identity,
#           exact power-timeline reconciliation, FR-FCFS never spends more
#           DRAM energy than FCFS, successive-halving search matches the
#           exhaustive optimum with and without a power budget, resnet and
#           scheduler-table femtojoules equal to the committed
#           BENCH_PR10.json values), default out BENCH_PR10.json
#
# The pre-dispatcher spellings still work as aliases:
#   scripts/run_bench.sh --sweep [out.json]   ==  --suite sweep [out.json]
#   (same for --plan / --trace / --dram / --faults / --serve / --llm /
#   --metrics / --energy)
#
# Exit is nonzero if the build fails, any golden cycle count differs, the
# harness reports a gate failure, or the suite's artifact fails validation.
set -euo pipefail
cd "$(dirname "$0")/.."

SUITE=perf
case "${1:-}" in
  --suite)
    SUITE="${2:?--suite needs a name (perf|sweep|plan|trace|dram|faults|serve|llm|metrics|energy)}"
    shift 2
    ;;
  --sweep|--plan|--trace|--dram|--faults|--serve|--llm|--metrics|--energy)
    SUITE="${1#--}"  # legacy alias: --sweep == --suite sweep
    shift
    ;;
esac

case "$SUITE" in
  perf)   SUITE_OUT="" ;;
  sweep)  SUITE_OUT="${1:-BENCH_PR2.json}"; shift || true ;;
  plan)   SUITE_OUT="${1:-BENCH_PR3.json}"; shift || true ;;
  trace)  SUITE_OUT="${1:-trace.json}";     shift || true ;;
  dram)   SUITE_OUT="${1:-BENCH_PR5.json}"; shift || true ;;
  faults) SUITE_OUT="${1:-BENCH_PR6.json}"; shift || true ;;
  serve)  SUITE_OUT="${1:-BENCH_PR7.json}"; shift || true ;;
  llm)    SUITE_OUT="${1:-BENCH_PR8.json}"; shift || true ;;
  metrics) SUITE_OUT="${1:-BENCH_PR9.json}"; shift || true ;;
  energy) SUITE_OUT="${1:-BENCH_PR10.json}"; shift || true ;;
  *)
    echo "unknown suite '$SUITE' (want perf|sweep|plan|trace|dram|faults|serve|llm|metrics|energy)" >&2
    exit 2
    ;;
esac
OUT="${1:-BENCH_PR1.json}"
BUILD_DIR=build-bench

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_perf

# The golden-cycle gate runs for every suite: no PR may move the pinned
# timing of the seed workloads, whatever else it adds.
"./$BUILD_DIR/bench_perf" "$OUT"

python3 - "$OUT" scripts/golden_cycles.json <<'EOF'
import json, sys

out_path, golden_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    got = json.load(f)["workloads"]
with open(golden_path) as f:
    golden = json.load(f)

failed = False
for name, want in golden.items():
    if name.startswith("_"):
        continue
    have = got.get(name, {}).get("sim_cycles")
    if have != want:
        print(f"CYCLE DIFF: {name}: golden {want}, got {have}")
        failed = True
    else:
        print(f"cycles ok:  {name}: {have}")
if failed:
    print("FAIL: simulated cycle counts diverged from scripts/golden_cycles.json")
    sys.exit(1)
print("all golden cycle counts match")
EOF

case "$SUITE" in

perf) ;;  # golden diff above is the whole suite

sweep)
  "./$BUILD_DIR/bench_perf" --sweep "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    sweep = json.load(f)
if not sweep.get("deterministic"):
    print("FAIL: parallel sweep diverged from the serial run")
    sys.exit(1)
points = sweep.get("sweep", [])
print(f"sweep ok: {len(points)} points on {sweep.get('threads')} threads, "
      "parallel reports byte-identical to serial")
EOF
  ;;

trace)
  # bench_perf --trace already asserts cycle invariance and component sums;
  # this validates the artifact itself parses and is non-empty.
  "./$BUILD_DIR/bench_perf" --trace "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace.get("traceEvents", [])
spans = [e for e in events if e.get("ph") == "X"]
if not spans:
    print("FAIL: trace.json holds no span events")
    sys.exit(1)
tracks = {(e.get("pid"), e.get("tid")) for e in spans}
print(f"trace ok: {len(events)} events ({len(spans)} spans) across "
      f"{len(tracks)} core x unit tracks")
EOF
  ;;

plan)
  "./$BUILD_DIR/bench_perf" --plan "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    plan = json.load(f)
if not plan.get("exhaustive_never_worse"):
    print("FAIL: ExhaustiveTiling modeled more DMA traffic than the heuristic")
    sys.exit(1)
failed = False
for name, row in plan.get("models", {}).items():
    h, e = row["heuristic_dma_bytes"], row["exhaustive_dma_bytes"]
    if e > h:
        print(f"DMA REGRESSION: {name}: exhaustive {e} > heuristic {h}")
        failed = True
    else:
        saved = 100.0 * (1.0 - e / h) if h else 0.0
        print(f"plan ok:    {name}: exhaustive saves {saved:.2f}% modeled DMA")
if failed:
    sys.exit(1)
print("tiling-policy comparison ok")
EOF
  ;;

dram)
  # bench_perf --dram runs the scheduling comparison (FR-FCFS vs FCFS over
  # the scaled zoo on a 2-channel, write-buffered, refreshed controller) and
  # already exits nonzero on a regression; this re-validates the artifact.
  "./$BUILD_DIR/bench_perf" --dram "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    dram = json.load(f)
failed = False
if not dram.get("frfcfs_never_slower"):
    print("FAIL: FR-FCFS slower than FCFS somewhere on the zoo")
    failed = True
if not dram.get("golden_unchanged"):
    print("FAIL: golden 1-channel FCFS configuration drifted")
    failed = True
for name, row in dram.get("models", {}).items():
    fc, fr = row["fcfs_cycles"], row["frfcfs_cycles"]
    if fr > fc:
        print(f"SCHED REGRESSION: {name}: frfcfs {fr} > fcfs {fc}")
        failed = True
    else:
        saved = 100.0 * (1.0 - fr / fc) if fc else 0.0
        print(f"dram ok:    {name}: frfcfs saves {saved:.3f}% cycles")
if failed:
    sys.exit(1)
print("dram scheduling comparison ok")
EOF
  ;;

faults)
  # bench_perf --faults runs the resilience gates and already exits nonzero
  # on a failure; this re-validates the emitted artifact.
  "./$BUILD_DIR/bench_perf" --faults "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    faults = json.load(f)
failed = False
if not faults.get("golden_unchanged"):
    print("FAIL: zero-fault golden cycle counts changed")
    failed = True
camp = faults.get("campaign", {})
if not camp.get("all_single_bit_corrected"):
    print("FAIL: ECC did not correct every single-bit DRAM flip")
    failed = True
if camp.get("sdc", 1) != 0:
    print(f"FAIL: {camp.get('sdc')} campaign run(s) classified as SDC "
          "under single-bit flips with ECC on")
    failed = True
if camp.get("corrected", 0) <= 0:
    print("FAIL: campaign corrected no runs (injection too quiet to gate)")
    failed = True
fs = faults.get("fail_soft", {})
if not fs.get("fail_soft_ok"):
    print("FAIL: poisoned sweep point lost other points' results")
    failed = True
if failed:
    sys.exit(1)
print(f"faults ok: goldens unchanged; {camp.get('ecc_corrected')} / "
      f"{camp.get('dram_read_flips')} flips corrected over "
      f"{camp.get('runs')} runs, 0 SDC; fail-soft sweep kept "
      f"{fs.get('ok_points')}/{fs.get('points')} healthy points")
EOF
  ;;

serve)
  # bench_perf --serve runs the serving-layer gates and already exits
  # nonzero on a failure; this re-validates the emitted artifact.
  "./$BUILD_DIR/bench_perf" --serve "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    serve = json.load(f)
failed = False
for gate in ("identity_exact", "deterministic", "percentiles_ok",
             "goodput_bounded"):
    if not serve.get(gate):
        print(f"FAIL: serve gate '{gate}' failed")
        failed = True
loads = serve.get("loads", [])
if len(loads) < 3:
    print(f"FAIL: expected >= 3 offered loads, got {len(loads)}")
    failed = True
cap = serve.get("capacity_per_mcycle", 0.0)
for row in loads:
    p50, p95, p99 = row["p50"], row["p95"], row["p99"]
    if not (p50 <= p95 <= p99):
        print(f"FAIL: {row['point']}: p50 {p50} / p95 {p95} / p99 {p99} "
              "out of order")
        failed = True
    good, offered = row["goodput_per_mcycle"], row["offered_per_mcycle"]
    if good > offered + 1e-9 or good > cap * 1.10:
        print(f"FAIL: {row['point']}: goodput {good} exceeds offered "
              f"{offered} or capacity {cap}")
        failed = True
    else:
        print(f"serve ok:   {row['point']}: offered {offered:.3f}, "
              f"p99 {p99}, goodput {good:.3f} req/Mcyc")
if failed:
    sys.exit(1)
print(f"serving-layer gates ok: goodput saturates below the calibrated "
      f"{cap:.3f} req/Mcyc capacity")
EOF
  ;;

llm)
  # bench_perf --llm runs the decode gates (golden identity, scheduler gain
  # vs the conv zoo, channel scaling) and already exits nonzero on a
  # failure; this re-validates the emitted artifact.
  "./$BUILD_DIR/bench_perf" --llm "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    llm = json.load(f)
failed = False
for gate in ("golden_unchanged", "llm_gains_most", "channels_monotone"):
    if not llm.get(gate):
        print(f"FAIL: llm gate '{gate}' failed")
        failed = True
row = llm.get("llm", {})
llm_gain = row.get("gain_pct", 0.0)
for name, m in llm.get("models", {}).items():
    conv = m.get("gain_pct", 0.0)
    if llm_gain <= conv:
        print(f"FAIL: {name}: conv gain {conv:.3f}% >= decode gain "
              f"{llm_gain:.3f}%")
        failed = True
    else:
        print(f"llm ok:     {name}: conv gain {conv:.3f}% < decode "
              f"{llm_gain:.3f}%")
cpt = llm.get("channel_cycles_per_token", [])
if len(cpt) != 3 or not (cpt[0] > cpt[1] > cpt[2]):
    print(f"FAIL: cycles-per-token not strictly decreasing over channels: "
          f"{cpt}")
    failed = True
if failed:
    sys.exit(1)
print(f"llm decode gates ok: {llm.get('decode')} saves {llm_gain:.3f}% "
      f"cycles/token under FR-FCFS; channels 1->2->4 give {cpt}")
EOF
  ;;

metrics)
  # bench_perf --metrics runs the telemetry gates (golden identity with the
  # registry attached, <= 5% metrics-on overhead, exact sampler/counter
  # reconciliation, monotone decode KV timeline) and already exits nonzero
  # on a failure; this re-validates the emitted artifact.
  "./$BUILD_DIR/bench_perf" --metrics "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    metrics = json.load(f)
failed = False
for gate in ("golden_identical", "overhead_within_5pct",
             "timelines_reconcile", "kv_timeline_monotone"):
    if not metrics.get(gate):
        print(f"FAIL: metrics gate '{gate}' failed")
        failed = True
for name, want in (("matmul", 309917), ("resnet", 9355595)):
    off, on = metrics.get(f"{name}_cycles_off"), metrics.get(f"{name}_cycles_on")
    if off != want or on != want:
        print(f"FAIL: {name}: off {off} / on {on}, golden {want}")
        failed = True
    else:
        print(f"metrics ok: {name}: {want} cycles with metrics off and on")
if metrics.get("counter_timelines", 0) <= 0 or metrics.get("sampler_windows", 0) <= 0:
    print("FAIL: sampler produced no timelines")
    failed = True
if failed:
    sys.exit(1)
print(f"telemetry gates ok: {metrics.get('counter_timelines')} counter "
      f"timelines over {metrics.get('sampler_windows')} windows reconcile "
      f"exactly; overhead {metrics.get('overhead_pct'):.2f}% <= 5%")
EOF
  ;;

energy)
  # bench_perf --energy runs the energy gates (golden identity with energy
  # on, exact window->total power-timeline reconciliation, FR-FCFS
  # DRAM-energy win, search-vs-exhaustive optimum) and already exits
  # nonzero on a failure; this re-validates the emitted artifact and pins
  # its femtojoule figures to the values committed in BENCH_PR10.json
  # (the default output path, so the reference is kept here).
  "./$BUILD_DIR/bench_perf" --energy "$SUITE_OUT"
  python3 - "$SUITE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    energy = json.load(f)
failed = False
for gate in ("golden_identical", "timeline_reconciles",
             "frfcfs_dram_energy_never_worse", "search_matches_exhaustive",
             "search_budget_matches_exhaustive"):
    if not energy.get(gate):
        print(f"FAIL: energy gate '{gate}' failed")
        failed = True
for name, want in (("matmul", 309917), ("conv", 1087553),
                   ("resnet", 9355595)):
    off, on = energy.get(f"{name}_cycles_off"), energy.get(f"{name}_cycles_on")
    if off != want or on != want:
        print(f"FAIL: {name}: off {off} / on {on}, golden {want}")
        failed = True
    else:
        print(f"energy ok:  {name}: {want} cycles with energy off and on")
for name, row in energy.get("scheduler_dram_fj", {}).items():
    fc, fr = row["fcfs"], row["frfcfs"]
    if fr > fc:
        print(f"ENERGY REGRESSION: {name}: frfcfs {fr} fJ > fcfs {fc} fJ")
        failed = True
# Exact femtojoule pins, as committed in BENCH_PR10.json.
want_total = 818935874640
want_sched = {
    "resnet50": {"fcfs": 284552786000, "frfcfs": 283288786000},
    "alexnet": {"fcfs": 437073666000, "frfcfs": 437020666000},
    "squeezenet_v1.1": {"fcfs": 20322094000, "frfcfs": 19859094000},
    "mobilenetv2": {"fcfs": 57707880000, "frfcfs": 56497880000},
    "bert-base": {"fcfs": 104504562000, "frfcfs": 103804562000},
}
if energy.get("resnet_total_fj") != want_total:
    print(f"FAIL: resnet_total_fj {energy.get('resnet_total_fj')} != "
          f"{want_total}")
    failed = True
if energy.get("scheduler_dram_fj") != want_sched:
    print(f"FAIL: scheduler_dram_fj {energy.get('scheduler_dram_fj')} != "
          f"{want_sched}")
    failed = True
if energy.get("timeline_windows", 0) <= 0:
    print("FAIL: the energy run produced no timeline")
    failed = True
if failed:
    sys.exit(1)
print(f"energy gates ok: {energy.get('resnet_total_fj')} fJ over "
      f"{energy.get('timeline_windows')} windows reconciles exactly; "
      f"search picked {energy.get('search_best_point')} in "
      f"{energy.get('search_evaluations')} evaluations")
EOF
  ;;

esac
