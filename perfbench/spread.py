#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload serve-inproc --seeds 1-10 \
        [--seconds 12] [--trace 0]

For every metric of the result line it prints the values, their median
and the quartile spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
A metric is steady enough when its spread stays below a third of its
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def spread(values):
    """Inter-quartile distance over the median, or None when it is undefined.

    The quartiles are `statistics.quantiles(values, n=4)` (the default
    exclusive method), the figure a metric's bound is judged by.
    """
    med = statistics.median(values) if values else 0
    if len(values) < 2 or not med:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        s = spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s is not None:
            flag = "ok" if s < bound / 3 else "TOO WIDE"
        shown = "n/a" if s is None else f"{s:.4f}"
        print(f"{name}: median {med:.6g} spread {shown} bound {bound} {flag}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
