#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median over the seeds and
the distance between the first and third quartile as a share of the
median (Python's `statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json. A benchmark is steady when every
spread except that of `setup_s` stays well inside its bound.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads serve-open --first-seed 100

Run from the repository root. Set CARGO_TARGET_DIR to keep the build
out of the source tree.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in seeds:
            r = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w} ({args.runs} seeds)")
        print(f"  {'metric':<34} {'median':>12} {'iqr/median':>11} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  <- over a third of bound" if spread > bound / 3 else ""
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<34} {med:>12.5g} {spread:>11.4f} {shown:>6}{flag}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
    if args.trace == 0:
        print(f"\nlargest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
