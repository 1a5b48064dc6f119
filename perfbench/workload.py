"""One workload process: set-up, the timed closed loop, the oracle checks.

Started by run.py with `--launch-ns`, the parent's perf_counter_ns reading
just before the process was created (CLOCK_MONOTONIC, shared by processes on
one machine), so set-up is timed from process launch.  Prints one JSON line.
With `--setup-only` it stops after set-up; run.py starts several such
processes to take the median set-up time.
"""

import time

T_MAIN = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_OPS = 100  # p90 then has at least ten samples beyond it
CAP_FACTOR = 4  # a run stops after CAP_FACTOR x --seconds of operation time even mid-cycle


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter_ns()
    import wassrisk
    import wassrisk.cli  # noqa: F401  (the workloads drive the CLI and the verify suites)

    t1 = time.perf_counter_ns()
    if not os.path.realpath(wassrisk.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"wassrisk imported from {wassrisk.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup = {
        "setup_s": (time.perf_counter_ns() - args.launch_ns) / 1e9,
        "interpreter_ms": (T_MAIN - args.launch_ns) / 1e6,
        "import_ms": (t1 - t0) / 1e6,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    window = -(-MIN_OPS // wl.cycle) * wl.cycle  # whole cycles covering MIN_OPS
    latencies: list[int] = []
    failures: list[str] = []
    check_ns = 0
    timed_ns = 0
    limit_ns = int(args.seconds * 1e9)
    i = 0
    while True:
        if i % wl.cycle == 0 and timed_ns >= limit_ns and i >= MIN_OPS:
            break
        if timed_ns >= CAP_FACTOR * limit_ns:
            break
        if tracer:
            op, _ = tracer.run(i, "input", lambda: wl.prepare(i))
            if isinstance(op, Exception):
                raise op
            result, elapsed = tracer.run(i, "op", op.call)
            if tracer.ops == window:
                tracer.snapshot_window()
        else:
            op = wl.prepare(i)
            start = time.perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises is a failed operation
                result = exc
            elapsed = time.perf_counter_ns() - start
        error = f"raised {type(result).__name__}: {result}" if isinstance(result, Exception) else None
        latencies.append(elapsed)
        timed_ns += elapsed
        c0 = time.perf_counter_ns()
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # an oracle that cannot confirm the result fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        check_ns += time.perf_counter_ns() - c0
        if error is not None:
            failures.append(f"{op.label}: {error}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        **setup,
        "latencies_ns": latencies,
        "check_s": check_ns / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }
    if tracer:
        out["per_layer"] = tracer.metrics()
        out["layer_self_ms_per_op"] = {
            layer: ns / max(tracer.ops, 1) / 1e6 for layer, ns in sorted(tracer.layer_self_ns().items())
        }
        out["counts_window"] = tracer.window
        trace_path = os.path.join(HERE, ".work", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path)
        out["trace_file"] = trace_path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
