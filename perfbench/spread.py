"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads clt-d3n5,fisher-d3n4]
                                [--trace 0] [--out results.json]

Workloads are interleaved (seed 1 of each, then seed 2 of each, ...) so
that machine drift shows up in the spread rather than as a difference
between workloads.  For each (workload, metric) it prints the median and
the quartiles of the per-run values, as `statistics.quantiles(n=4)`
gives them, and the interquartile spread as a share of the median next
to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, record, result = proc.stdout.splitlines()
    return {**json.loads(result), "record": json.loads(record)}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's result as JSON")
    args = parser.parse_args()

    names = args.workloads.split(",")
    results = {w: [] for w in names}
    for seed in parse_seeds(args.seeds):
        for workload in names:
            result = run_once(workload, seed, args.seconds, args.trace)
            results[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':<12} {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                print(f"{workload:<12} {metric:<36} {values[0]:>12.6g}")
                continue
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(metric)
            print(f"{workload:<12} {metric:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.4f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
