"""wassrisk benchmark: one seeded closed-loop workload per call.

    python3 perfbench/run.py --workload solve_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The workload runs in a fresh process with one client, one thread and
BLAS/OpenMP pinned to one thread.  Set-up (launch, interpreter, `import
wassrisk`, input generation) is timed in SETUP_SAMPLES fresh processes and
reported as their median.  Every operation is checked against an independent
oracle outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
the package's layer functions (tracing.py) and reports its per-layer metrics
instead, and writes the spans to perfbench/.work/.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child(args, workdir: str, setup_only: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(0 if setup_only else args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launch-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, spec: dict) -> dict:
    start = time.monotonic()
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setups = [
            _child(args, os.path.join(run_dir, f"setup{k}"), True, 60.0)
            for k in range(SETUP_SAMPLES - 1)
        ]
        main = _child(args, os.path.join(run_dir, "main"), False, DEADLINE_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(main)

    lat_ms = [ns / 1e6 for ns in main["latencies_ns"]]
    n = len(lat_ms)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    p25, p50, p75 = statistics.quantiles(lat_ms, n=4, method="inclusive")
    setup_s = [s["setup_s"] for s in setups]
    failed = len(main["failures"])
    values = {
        "ops_per_s": n / (sum(lat_ms) / 1e3),
        "op_ms_p50": p50,
        "op_ms_p90": deciles[8],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": main["peak_rss_mb"],
        "startup.interpreter_ms": statistics.median(s["interpreter_ms"] for s in setups),
        "startup.import_ms": statistics.median(s["import_ms"] for s in setups),
        **main.get("per_layer", {}),
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          + ("  (timings include the tracing overhead)" if args.trace else ""))
    print(f"  {n} ops in {sum(lat_ms) / 1e3:.3f} s of operation time; oracle checks took {main['check_s']:.3f} s")
    print(f"  ops_per_s     {values['ops_per_s']:.4g} ops/s  (closed loop, one client)")
    print(f"  op_ms_p50     {p50:.4g} ms  (p25 {p25:.4g}, p75 {p75:.4g}, n={n})")
    print(f"  op_ms_p90     {deciles[8]:.4g} ms  ({n - int(0.9 * n)} samples beyond)")
    print(f"  failed_ratio  {failed}/{n} failed/attempted")
    print(f"  setup_s       {values['setup_s']:.4g} s  (median of {len(setup_s)}: "
          + " ".join(f"{s:.3f}" for s in sorted(setup_s)) + ")")
    print(f"  peak_rss_mb   {values['peak_rss_mb']:.4g} MB")
    for line in main["failures"]:
        print(f"  FAILED {line}")
    if args.trace:
        print("  per-layer (counts over the first "
              f"{main['counts_window']['ops'] if main['counts_window'] else n} ops, times over all {n}):")
        for m in spec["per_layer"]:
            print(f"    {m['name']:48s} {values[m['name']]:.6g} {m['unit']}")
        print("  self time per layer, ms per op:")
        for layer, ms in main["layer_self_ms_per_op"].items():
            print(f"    {layer:48s} {ms:.4g}")
        print(f"  spans written to {os.path.relpath(main['trace_file'], ROOT)}")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wassrisk", "__init__.py")):
        print(f"error: no wassrisk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
