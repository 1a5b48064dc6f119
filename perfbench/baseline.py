"""Repeat run.py over seeds and summarise, for baselines and steadiness checks.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 [--workloads solve_stream,custom_dual] [--traced]

For each workload: `--runs` untraced runs with consecutive seeds, then the
median, quartiles and spread ((q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) of every end-to-end metric,
next to a third of its bound.  With --traced, two traced runs with the first
seed: the per-layer table, whether every count repeats exactly, and the
tracing overhead (median untraced ops_per_s / traced ops_per_s).  Prints
markdown; runs one process at a time.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n### {workload}: {args.runs} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"{failed}/{attempted} operations failed\n")
        print("| metric | unit | median | q1 | q3 | spread | bound/3 | runs in seed order |")
        print("|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
            steady &= ok
            print(f"| {m['name']} | {m['unit']} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{spread:.3f}{'' if ok else ' (!)'} | {m['bound'] / 3:.3f} | "
                  + " ".join(f"{v:.4g}" for v in values) + " |")
        if not args.traced:
            continue
        traced = [run(workload, args.first_seed, args.seconds, 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        counts_equal = all(
            a[m["name"]]["value"] == b[m["name"]]["value"] for m in spec["per_layer"] if m["unit"] == "count"
        )
        ops = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results)
        overhead = ops / a["harness.traced_ops_per_s"]["value"]
        print(f"\ntraced, seed {args.first_seed}: counts repeat exactly across two runs: {counts_equal}; "
              f"tracing overhead {overhead:.2f}x (untraced median {ops:.4g} ops/s, "
              f"traced {a['harness.traced_ops_per_s']['value']:.4g} ops/s)\n")
        print("| per-layer metric | unit | run 1 | run 2 |")
        print("|---|---|---|---|")
        for m in spec["per_layer"]:
            print(f"| {m['name']} | {m['unit']} | {a[m['name']]['value']:.6g} | {b[m['name']]['value']:.6g} |")
    print(f"\nevery spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
