#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <dh-query|cluster-query> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build tree is $CARGO_TARGET_DIR if
set, else .bench_build; run-time files go to .bench_out. A workload runs
the three scenarios, each the same in every workload, in PASSES rounds of
one process per scenario, its own scenario first in each; a scenario
process gets --seconds / PASSES. The first process's set-up is the run's
`setup_s`; every other metric is the mean over a scenario's processes of
the value each reported (a median of its own samples).
The q6-ingest scenario runs in every workload but leads none: its set-up
(job start and first checkpoint, a few milliseconds) is too short to time
as a workload's `setup_s`.
The last line of stdout is the merged JSON result with the metrics that
BENCHMARK.json at the checkout root lists; build output, each scenario's
details and every metric it measured go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SCENARIOS = ["q6-ingest", "dh-query", "cluster-query"]
WORKLOADS = ["dh-query", "cluster-query"]
# The host's speed differs more between processes, and between one half
# minute and the next, than between the operations of one process: a
# scenario runs in several short processes spread over the run.
PASSES = 3
# A run must end within 180 s; the build before the first run may not.
RUN_BUDGET_S = 170


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def listed_metrics(trace):
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def merge(results):
    """One result from the processes' results, in the order they ran:
    operation counts add up, every check must hold, `setup_s` is the first
    process's, span counts add up, and every other metric is the mean of
    the values the processes reported. A process runs either fast or about
    a third slower as a whole on the reference host; the median of three
    processes flips between the two, where the mean moves by thirds."""
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    metrics = {}
    for name, (unit, v) in values.items():
        if name == "setup_s":
            value = v[0]
        elif name == "trace.complete":
            value = min(v)
        elif name in ("trace.dropped_spans", "trace.spans"):
            value = sum(v)
        else:
            value = statistics.fmean(v)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    out_dir = os.path.abspath(".bench_out")
    try:
        names = listed_metrics(args.trace == "1")
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    try:
        binary = build(source_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    order = [args.workload] + [s for s in SCENARIOS if s != args.workload]
    results = []
    for p in range(PASSES):
        for scenario in order:
            trace_file = os.path.join(
                out_dir, f"{args.workload}.{scenario}.{p}.trace.json")
            command = [binary, "--scenario", scenario,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds / PASSES),
                       "--trace", args.trace, "--out-dir", out_dir,
                       "--trace-file", trace_file]
            started = time.monotonic()
            try:
                proc = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True,
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print(f"perfbench: {scenario} exceeded the run's time budget",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {scenario} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            print(f"perfbench: {scenario} pass {p} took "
                  f"{time.monotonic() - started:.1f} s", file=sys.stderr)
            results.append(json.loads(lines[-1]))
    merged = merge(results)
    missing = [n for n in names if n not in merged["metrics"]]
    if missing:
        print(f"perfbench: not measured: {missing}", file=sys.stderr)
        return 1
    for n, m in merged["metrics"].items():
        if n not in names:
            print(f"  not listed: {n} {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
    merged["metrics"] = {n: merged["metrics"][n] for n in names}
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
