"""Time the outer solves of losses without a closed form in fresh processes of two trees (layer L4).

    python tools/outer_bench.py BASE CHANGE --launches 1

BASE and CHANGE are checkouts of this repository.  Each launch runs every
case in its own fresh interpreter per tree, alternating which tree goes
first, with the tree's `src/` on PYTHONPATH, PYTHONHASHSEED=0 and BLAS/OpenMP
on one thread, as the benchmark starts its workloads.  The cases, on
standard normal draws of one fixed seed:

* `pinball_twin_p1`: `robust_oce` of the custom twin of the p = 1 closed
  form (1.4, 0.3), 200 atoms at 0.2 and at 1e6 + 0.2, under
  `BallPenalty(0.4)` and a piecewise-linear penalty;
* `asym_twin_p2`: `robust_oce` of the custom twin of `AsymQuadratic(0.3)`
  at p = 2, 40 atoms, `BallPenalty(0.4)`;
* `lp_linear`, `lp_ball`: `robust_generalized_quantile_detail` of
  `GeneralizedQuantile(0.7, PowerLoss(1, 1.5), PowerLoss(1, 1.5))` at
  p = 1.5, 200 atoms, under `LinearPenalty(3)` and `BallPenalty(0.4)`.

Per case and tree the table gives the median seconds over launches, and the
dual solves at distinct m (`RobustValue.evaluations`), the width of the
argmin set and `converged`, which are deterministic.  The `lp_ball` case
takes tens of seconds per tree; `--cases` picks a subset.  No benchmark
workload reaches these solves.  Needs only the standard library in this
process.
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

CASES = ("pinball_twin_p1", "asym_twin_p2", "lp_linear", "lp_ball")

PROBE = """
import json, sys, time
import numpy as np
from wassrisk import (BallPenalty, CostExponent, CustomLoss, Empirical, GeneralizedQuantile, LinearPenalty,
                      PiecewiseLinearPenalty, PowerLoss, robust_oce)
from wassrisk.risk_measures import robust_generalized_quantile_detail

def normal(n, loc=0.0):
    return Empirical.uniform(list(loc + np.random.default_rng(20261020).standard_normal(n)))

case = sys.argv[1]
if case == "pinball_twin_p1":
    twin = CustomLoss(lambda y: 1.4 * np.maximum(y, 0.0) + 0.3 * np.maximum(-y, 0.0), 1.4, 1.0)
    piecewise = PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0), (2.5, 5.0)))
    calls = [(normal(200, loc), phi) for loc in (0.2, 1e6 + 0.2) for phi in (BallPenalty(0.4), piecewise)]
    solve = lambda d, phi: robust_oce(d, twin, CostExponent(1.0), phi)
elif case == "asym_twin_p2":
    twin = CustomLoss(lambda y: 0.3 * np.maximum(y, 0.0) ** 2 + 0.7 * np.maximum(-y, 0.0) ** 2, 0.7, 2.0)
    calls = [(normal(40), BallPenalty(0.4))]
    solve = lambda d, phi: robust_oce(d, twin, CostExponent(2.0), phi)
else:
    loss = GeneralizedQuantile(0.7, PowerLoss(1.0, 1.5), PowerLoss(1.0, 1.5))
    calls = [(normal(200), LinearPenalty(3.0) if case == "lp_linear" else BallPenalty(0.4))]
    solve = lambda d, phi: robust_generalized_quantile_detail(d, loss, CostExponent(1.5), phi)
t0 = time.perf_counter()
results = [solve(d, phi) for d, phi in calls]
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "evaluations": [rv.evaluations for rv in results],
    "width": [rv.argmin_m[1] - rv.argmin_m[0] for rv in results],
    "converged": all(rv.converged for rv in results),
}))
"""


def launch(tree: str, case: str) -> dict:
    """One fresh interpreter running one case on the tree's package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", PROBE, case], env=env, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"probe {case} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--launches", type=int, default=1, help="launches per tree")
    parser.add_argument("--cases", nargs="+", choices=CASES, default=list(CASES))
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    runs: dict[str, dict[str, list[dict]]] = {name: {case: [] for case in args.cases} for name in trees}
    for i in range(args.launches):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for case in args.cases:
            for name in order:
                runs[name][case].append(launch(trees[name], case))

    summary: dict = {name: {} for name in trees}
    print(f"{'tree':8} {'case':16} {'median s':>9} {'dual solves':>16} {'widest set':>11} converged")
    for name, cases in runs.items():
        for case, rows in cases.items():
            seconds = statistics.median(row["seconds"] for row in rows)
            first = rows[0]
            summary[name][case] = {"median_s": seconds, **{k: first[k] for k in ("evaluations", "width", "converged")}}
            solves = ",".join(map(str, first["evaluations"]))
            print(f"{name:8} {case:16} {seconds:9.2f} {solves:>16} {max(first['width']):11.2e} {first['converged']}")
    print(json.dumps({"launches": args.launches, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
