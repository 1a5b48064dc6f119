"""Time empirical-prior builds and outer solves in fresh processes of two trees (layers L1, L3 and L4).

    python tools/table_bench.py BASE CHANGE --launches 10

BASE and CHANGE are checkouts of this repository.  Each launch starts one
fresh interpreter per tree, alternating which tree goes first, with the
tree's `src/` on PYTHONPATH, PYTHONHASHSEED=0 and BLAS/OpenMP on one thread,
as the benchmark starts its workloads.  For empirical priors of 20, 1000 and
20000 atoms (Student-t draws with uniform random weights, one fixed seed) the
interpreter times

* `build`: `Empirical.from_arrays(values, weights)`;
* `expectile`: `expectile(d, 0.8)`;
* `linear_expectile`: `robust_expectile_linear(d, 0.8, 2.0)`;
* `linear_oce`: `robust_oce(d, AsymQuadratic(0.7), CostExponent(2), LinearPenalty(2.0))`,

all of which fix lambda at every m, and on the prior `Normal(0.3, 1.2)`
(row `normal`) two OCEs whose lambda moves with m, so that each solves the
dual at several m:

* `ball_oce`: the same OCE under `BallPenalty(0.4)`;
* `piecewise_oce`: under `PiecewiseLinearPenalty(((0, 0.6), (1, 2), (2.5, 5)))`,

each as the median over 5 batches of the mean time per call in a batch of
about 20 ms.  Per tree the table gives the median and quartiles over
launches, in microseconds per call, and each solve's count, which is
deterministic: the atom-table probes of the one `Empirical.affine_root`
read behind each expectile, and the dual solves at distinct m
(`RobustValue.evaluations`) for an OCE.  The last lines count, per (prior,
operation), the launch pairs in which CHANGE was faster.  Needs only the
standard library in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

SIZES = (20, 1000, 20000)
OPERATIONS = ("build", "expectile", "linear_expectile", "linear_oce")
GROUPS = {**{str(n): OPERATIONS for n in SIZES}, "normal": ("ball_oce", "piecewise_oce")}

PROBE = """
import json, statistics, sys, time
import numpy as np
from wassrisk import (
    AsymQuadratic, BallPenalty, CostExponent, Empirical, LinearPenalty, Normal, PiecewiseLinearPenalty,
    expectile, robust_expectile_linear, robust_oce,
)
from wassrisk.risk_measures import ExpectileLevel

def per_call_us(fn):
    calls, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.005:
        fn()
        calls += 1
    batch = max(1, int(calls * 4))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append(1e6 * (time.perf_counter() - t0) / batch)
    return statistics.median(times)

rng = np.random.default_rng(20261019)
out = {}
for n in json.loads(sys.argv[1]):
    values = rng.standard_t(5.0, n)
    weights = rng.uniform(0.1, 1.0, n)
    weights /= weights.sum()
    d = Empirical.from_arrays(values, weights)
    loss, cost, phi = AsymQuadratic(0.7), CostExponent(2.0), LinearPenalty(2.0)
    level = ExpectileLevel(0.8, 2.0)
    out[str(n)] = {
        "us": {
            "build": per_call_us(lambda: Empirical.from_arrays(values, weights)),
            "expectile": per_call_us(lambda: expectile(d, 0.8)),
            "linear_expectile": per_call_us(lambda: robust_expectile_linear(d, 0.8, 2.0)),
            "linear_oce": per_call_us(lambda: robust_oce(d, loss, cost, phi)),
        },
        "count": {
            "expectile": d.affine_root(0.0, 2.0 * 0.8, 2.0 * (1.0 - 0.8))[1],
            "linear_expectile": d.affine_root(0.0, 2.0 * level.coefficient_plus, 2.0 * level.coefficient_minus)[1],
            "linear_oce": robust_oce(d, loss, cost, phi).evaluations,
        },
    }
d = Normal(0.3, 1.2)
moving = {"ball_oce": BallPenalty(0.4), "piecewise_oce": PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0), (2.5, 5.0)))}
out["normal"] = {
    "us": {op: per_call_us(lambda: robust_oce(d, loss, cost, phi)) for op, phi in moving.items()},
    "count": {op: robust_oce(d, loss, cost, phi).evaluations for op, phi in moving.items()},
}
print(json.dumps(out))
"""


def launch(tree: str) -> dict:
    """One fresh interpreter timing the tree's package: its measurements."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SIZES)], env=env, cwd=tree, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"probe in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--launches", type=int, default=10, help="launches per tree")
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    for i in range(args.launches):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            runs[name].append(launch(trees[name]))

    summary: dict = {name: {} for name in trees}
    print(f"{'tree':8} {'prior':>6} {'operation':17} {'median us':>10} {'q1':>10} {'q3':>10} {'count':>6}")
    for name, rows in runs.items():
        for n, operations in GROUPS.items():
            for op in operations:
                q1, q2, q3 = quartiles([row[n]["us"][op] for row in rows])
                count = rows[0][n]["count"].get(op)
                summary[name].setdefault(n, {})[op] = {"median_us": q2, "q1_us": q1, "q3_us": q3, "count": count}
                shown = "" if count is None else str(count)
                print(f"{name:8} {n:>6} {op:17} {q2:10.1f} {q1:10.1f} {q3:10.1f} {shown:>6}")
    wins = {}
    for n, operations in GROUPS.items():
        for op in operations:
            won = sum(c[n]["us"][op] < b[n]["us"][op] for b, c in zip(runs["base"], runs["change"]))
            wins[f"{n}/{op}"] = won
            print(f"{n:>6} {op:17} change faster in {won} of {args.launches} launch pairs")
    print(json.dumps({"launches": args.launches, "change_wins": wins, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
