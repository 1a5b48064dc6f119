"""Compare or check the outputs of the benchmark workloads, untimed.

    python tools/workload_outputs.py diff BASE CHANGE --seeds 1 2
    python tools/workload_outputs.py scan TREE --ops 40000 --seeds 1-16

BASE, CHANGE and TREE are checkouts of this repository; `--seeds` takes
seeds (`1 2`) or ranges (`1-16`).  Each run imports the tree's `src/wassrisk`
and its `perfbench/workloads.py` (read-only) in a fresh process per (tree,
workload, seed), with PYTHONHASHSEED=0 and BLAS/OpenMP on one thread, as the
benchmark runs them.

`diff` runs the first 480 `solve_stream`, 240 `custom_dual` and 228
`sweep_cli` operations (whole cycles) in both trees and compares them field
by field: every field of a `RobustValue` and every float by `repr`; for a CLI
call the exit code, stdout, stderr and the sweep CSV cell by cell; an
operation that raises by its exception type and message.  Each workload ends
with a tally of the differing fields (a CSV by column) over all its differing
operations, of which the first few per seed are shown.

`scan` runs `solve_stream` operations and every oracle check, and prints
every failure: an operation fails when it raises, returns `converged=False`,
or fails its oracle, as in the benchmark (`perfbench/workload.py`).

Both exit with 1 when they find a difference or a failure, 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

DIFF_OPS = {"solve_stream": 480, "custom_dual": 240, "sweep_cli": 228}
SHOWN_DIFFERENCES = 5  # per workload and seed


def _seeds(tokens: list[str]) -> list[int]:
    """Seeds from '1 2' and '1-16' forms, in order."""
    out: list[int] = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


# ---------------------------------------------------------------------------
# child: one (tree, workload, seed) in a fresh process
# ---------------------------------------------------------------------------


def _canon(x):
    """A JSON-able form of an operation result with floats by repr."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if isinstance(x, float):
        return repr(float(x))
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return repr(x)


def _child(mode: str, tree: str, workload: str, seed: int, n_ops: int, workdir: str) -> int:
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    csv = getattr(wl, "out", None)
    for i in range(n_ops):
        op = wl.prepare(i)
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is an output too
            result = exc
        raised = f"raised {type(result).__name__}: {result}" if isinstance(result, Exception) else None
        if mode == "dump":
            record = {"raised": raised} if raised else {"result": _canon(result)}
            if csv and os.path.exists(csv):
                with open(csv, "rb") as handle:
                    record["csv"] = handle.read().decode("latin-1")
                os.remove(csv)
            print(json.dumps({"label": op.label, **record}))
            continue
        error = raised
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # an oracle that cannot confirm the result fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"FAILED seed {seed} {op.label}: {error}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _spawn(mode: str, tree: str, workload: str, seed: int, n_ops: int, workdir: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "_child", mode, os.path.abspath(tree),
           workload, str(seed), str(n_ops), workdir]
    proc = subprocess.run(cmd, env=env, cwd=os.path.abspath(tree), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} of {workload} seed {seed} in {tree} exited with {proc.returncode}")
    return proc.stdout.splitlines()


# ---------------------------------------------------------------------------
# diff and scan
# ---------------------------------------------------------------------------


def _differences(a, b, path: str = ""):
    """(path, base, change) for every leaf where two records differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from _differences(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{k}]")
    elif a != b:
        yield path, a, b


def _columns(record: dict) -> dict:
    """The record with its sweep CSV split into columns of cells, so that a
    difference names the column and the row."""
    lines = record.get("csv", "").splitlines()
    if not lines:
        return record
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    columns = {name: [row[k] if k < len(row) else None for row in rows] for k, name in enumerate(header)}
    return {**record, "csv": columns}


def diff(args) -> int:
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="workload-outputs-") as tmp:
        for workload, n_ops in DIFF_OPS.items():
            fields: Counter = Counter()  # operations in which each field differs
            workload_bad = 0
            for seed in _seeds(args.seeds):
                workdir = os.path.join(tmp, f"{workload}-{seed}")
                base = [_columns(json.loads(line)) for line in _spawn("dump", args.base, workload, seed, n_ops, workdir)]
                change = [_columns(json.loads(line)) for line in _spawn("dump", args.change, workload, seed, n_ops, workdir)]
                bad = [(r, s) for r, s in zip(base, change) if r != s]
                total += len(base)
                workload_bad += len(bad)
                print(f"{workload} seed {seed}: {len(bad)} of {len(base)} operations differ")
                for k, (r, s) in enumerate(bad):
                    paths = list(_differences(r, s))
                    fields.update({re.sub(r"\[\d+\]", "", path) for path, _, _ in paths})
                    if k < SHOWN_DIFFERENCES:
                        print(f"  {r['label']}")
                        for path, x, y in paths[:SHOWN_DIFFERENCES]:
                            print(f"    {path}: base {x!r}, change {y!r}")
            differing += workload_bad
            if fields:
                tally = ", ".join(f"{path} {n}" for path, n in sorted(fields.items()))
                print(f"{workload}: fields differing, in how many of {workload_bad} operations: {tally}")
    print(f"total: {differing} of {total} operations differ")
    return 1 if differing else 0


def scan(args) -> int:
    ops = failed = 0
    with tempfile.TemporaryDirectory(prefix="workload-outputs-") as tmp:
        for seed in _seeds(args.seeds):
            start = time.monotonic()
            lines = _spawn("scan", args.tree, "solve_stream", seed, args.ops, os.path.join(tmp, str(seed)))
            for line in lines:
                print(line)
            ops += args.ops
            failed += len(lines)
            print(f"solve_stream seed {seed}: {len(lines)} of {args.ops} operations failed "
                  f"({time.monotonic() - start:.0f} s)", flush=True)
    print(f"total: {failed} of {ops} operations failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:
        mode, tree, workload, seed, n_ops, workdir = argv[1:]
        return _child(mode, tree, workload, int(seed), int(n_ops), workdir)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("diff", help="compare the outputs of two trees operation by operation")
    d.add_argument("base")
    d.add_argument("change")
    d.add_argument("--seeds", nargs="+", default=["1"])
    s = sub.add_parser("scan", help="run operations with their oracle checks and list the failures")
    s.add_argument("tree")
    s.add_argument("--ops", type=int, default=40000)
    s.add_argument("--seeds", nargs="+", default=["1"])
    args = ap.parse_args(argv)
    return diff(args) if args.command == "diff" else scan(args)


if __name__ == "__main__":
    sys.exit(main())
