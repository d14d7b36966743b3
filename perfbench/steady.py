#!/usr/bin/env python3
"""Steadiness check: repeat each workload over several seeds and print,
per metric, the median, the quartiles and the spread (q3 - q1) / median
that the bounds in BENCHMARK.json are set from.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1]

Run from the root of a checkout. Each run goes through perfbench/run.py
with BENCHMARK.json's run_seconds. Exit status is 1 when a run fails or
reports incorrect output, or when a bounded metric's spread exceeds a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for w in workloads:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(root, w, seed, spec["run_seconds"], args.trace)
            if r is None or not r["correct"]:
                print("%s seed %d: run failed or incorrect" % (w, seed))
                ok = False
                continue
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n== %s (%d runs; failed shares seen: %s)" %
              (w, args.seeds, sorted(shares)))
        print("%-34s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("%-34s %14.6g %14.6g %14.6g %8.4f %8s%s" %
                  (name, med, q1, q3, spread,
                   "-" if bound is None else "%.3f" % bound, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
