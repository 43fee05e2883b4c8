#!/usr/bin/env python3
"""Host-throughput benchmark of the Gemmini simulator.

Builds perfbench/ (the simulator sources plus the C++ driver) in Release
mode under .bench_build/, runs one workload, checks the driver's output and,
for traced runs, its span file, and prints one JSON result as the last line
of stdout:

    python3 perfbench/run.py --workload resnet_infer --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Metric definitions, the layer each belongs to, the
end-to-end metric it should move and on which workload are listed in
perfbench/catalog.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("resnet_infer", "llm_decode", "sweep_fig9", "serve_mix")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 2)
    return os.path.join(BUILD, "perfbench")


def span_problems(spans):
    """Spans nest inside their parent within one iteration, and every self
    time (duration minus the children's durations) is >= 0 and matches the
    driver's own figure."""
    problems = []
    children = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['id']} ends before it starts")
        p = s["parent"]
        if p < 0:
            continue
        children.setdefault(p, []).append(s)
        parent = spans[p]
        if not (parent["start_ns"] <= s["start_ns"] and
                s["end_ns"] <= parent["end_ns"] and
                parent["iter"] == s["iter"]):
            problems.append(f"span {s['id']} ({s['name']}) is not nested "
                            f"in its parent {p} ({parent['name']})")
    for s in spans:
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_ns"])
        for a, b in zip(kids, kids[1:]):
            if b["start_ns"] < a["end_ns"]:
                problems.append(f"children of span {s['id']} overlap")
        covered = sum(c["end_ns"] - c["start_ns"] for c in kids)
        self_ns = s["end_ns"] - s["start_ns"] - covered
        if self_ns < 0:
            problems.append(f"span {s['id']} has negative self time")
        if self_ns != s["self_ns"]:
            problems.append(f"span {s['id']} self time {s['self_ns']} ns "
                            f"differs from {self_ns} ns")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "catalog.json")) as f:
        catalog = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    listed = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    if listed != set(catalog["metrics"]):
        fail("catalog.json and BENCHMARK.json list different metrics", 3)

    binary = build()
    spans_path = os.path.join(
        BUILD, f"spans-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("workload timed out", 4)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"driver output is not JSON: {e}", 3)

    values = result["metrics"]
    unknown = sorted(set(values) - set(declared))
    if unknown:
        fail(f"metrics {unknown} are not in BENCHMARK.json {section}", 3)
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            value = values[name]
        elif args.workload not in catalog["metrics"][name]["measured_on"]:
            value = 0  # the layer does no work on this workload
        else:
            fail(f"{name} is missing on {args.workload}", 3)
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        with open(spans_path) as f:
            problems = span_problems(json.load(f))
        if problems:
            fail("span self-check: " + "; ".join(problems[:5]), 3)

    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]['value']:.6g} "
              f"{metrics[name]['unit']}")
    print(f"{args.workload} iterations = {result['iterations']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
