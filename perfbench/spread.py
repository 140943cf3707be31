#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (interquartile range over median), next to its bound.

    python3 perfbench/spread.py --workload clocknet --seeds 1-10

Run from the repository root; uses BENCHMARK.json's run_seconds and bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
        print(f"{name:28s} median {med:12.5g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound} (third {bound / 3:.4f}){flag}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
