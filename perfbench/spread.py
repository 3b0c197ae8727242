#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median of the runs and their
interquartile range (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. A spread above a third of the bound
is marked with `!`.

usage (from the repository root):
    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    failed = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in [s for s in range(lo, hi + 1) for _ in range(args.repeat)]:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {last}", file=sys.stderr)
                failed = True
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"  {workload} seed {seed}: ops {result['attempted']}", file=sys.stderr)
        print(f"== {workload}")
        for metric in bench["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                print(f"  {metric['name']:<14} too few runs")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "!" if metric["name"] != "setup_s" and spread > metric["bound"] / 3 else " "
            print(f"  {metric['name']:<14} median {median:12.4f} {metric['unit']:<4} "
                  f"spread {spread:7.2%} bound {metric['bound']:.2f} {mark}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
