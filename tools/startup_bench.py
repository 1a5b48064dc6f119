"""Time `import wassrisk, wassrisk.cli` in fresh processes of two trees (layer L0).

    python tools/startup_bench.py BASE CHANGE --launches 20

BASE and CHANGE are checkouts of this repository.  Each launch starts one
fresh interpreter per tree, alternating which tree goes first, with the
tree's `src/` on PYTHONPATH, PYTHONHASHSEED=0 and BLAS/OpenMP on one thread,
as the benchmark starts its workloads.  The interpreter imports the package
and exits.  Per tree the table gives the median and quartiles of the wall
time from launch to exit, of the import alone (timed inside the process)
and of the process's `ru_maxrss`, and the scipy modules the import loaded.
The last line counts the launch pairs in which CHANGE started faster.
Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

PROBE = """
import json, resource, sys, time
t0 = time.perf_counter()
import wassrisk, wassrisk.cli
import_ms = 1e3 * (time.perf_counter() - t0)
print(json.dumps({
    "import_ms": import_ms,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def launch(tree: str) -> dict:
    """One fresh interpreter importing the tree's package: its measurements."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=tree, capture_output=True, text=True)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise SystemExit(f"import in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return {"wall_ms": wall_ms, **json.loads(proc.stdout)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--launches", type=int, default=20, help="launches per tree")
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    for i in range(args.launches):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            runs[name].append(launch(trees[name]))

    summary = {}
    print(f"{'tree':8} {'metric':10} {'median':>9} {'q1':>9} {'q3':>9}")
    for name, rows in runs.items():
        summary[name] = {}
        for metric in ("wall_ms", "import_ms", "maxrss_mb"):
            q1, q2, q3 = quartiles([row[metric] for row in rows])
            summary[name][metric] = {"median": q2, "q1": q1, "q3": q3}
            print(f"{name:8} {metric:10} {q2:9.1f} {q1:9.1f} {q3:9.1f}")
        loaded = sorted({m for row in rows for m in row["scipy"]})
        summary[name]["scipy_modules"] = len(loaded)
        shown = ", ".join(m for m in loaded if m.count(".") <= 1) or "none"
        print(f"{name:8} scipy modules loaded: {len(loaded)} ({shown})")
    wins = sum(c["wall_ms"] < b["wall_ms"] for b, c in zip(runs["base"], runs["change"]))
    print(f"change faster in {wins} of {args.launches} launch pairs")
    print(json.dumps({"launches": args.launches, "change_wins": wins, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
