#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values,
as a share of their median (statistics.quantiles(values, n=4)).

Usage, from the repository root after the benchmark is built:

    python3 perfbench/check_spread.py --workload batch-hub --runs 10 [--seconds N]

A spread below a third of the metric's bound in BENCHMARK.json is
reported as steady. The binary is taken from $CARGO_TARGET_DIR (default
perfbench/target) unless --binary is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--binary")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = args.binary or os.path.join(target, "release", "perfbench")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)

    worst = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = spread < bounds[name] / 3
        worst &= steady or name == "setup_s"
        print(f"{name:16s} median {med:.6g}  spread {spread:.4f}  "
              f"bound {bounds[name]}  {'steady' if steady else 'NOT steady'}")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
