#!/usr/bin/env python3
"""Run each workload N times, each with another seed, and print for every
end-to-end metric the median and the inter-quartile spread as a share of
the median, beside the bound BENCHMARK.json gives it.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]

A spread within a third of the bound is steady; one beyond the bound would
make the driver refuse the benchmark. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
names = args.workload or [w["name"] for w in bench["workloads"]]
for name in names:
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not last["correct"]:
            sys.exit(f"{name} seed {seed}: exit {out.returncode}, {last}")
        for k, v in last["metrics"].items():
            values[k].append(v["value"])
    print(f"{name}  ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        mark = "steady" if spread <= m["bound"] / 3 else ("ok" if spread <= m["bound"] else "TOO WIDE")
        print(f"  {m['name']:<20} median {med:>12.4f} {m['unit']:<6} spread {spread:6.3f}  bound {m['bound']:.2f}  {mark}"
              f"   [{' '.join(f'{v:.4g}' for v in vs)}]")
