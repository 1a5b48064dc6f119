"""Per-layer tracing of wassrisk, installed from outside the package.

`install()` replaces every public function of the layer modules, plus the two
private entry points the CLI binds by name (`risk_measures._ball_stats` and
`cli._sweep_point`), with a wrapper, in every wassrisk module that holds a
reference to it; modules that imported a function by name (robust_core and
risk_measures bind `partial_moment_plus` and `golden_section_min`, for
instance) therefore call the wrapper.  The constructors of the four prior
families are wrapped through their `__post_init__`.  The objective callables
handed to `solvers` are wrapped per solver call and counted by role.

Wrappers record nothing outside an operation.  Inside one, calls into the
entry layers and the solvers become spans (name, start, end, parent span,
operation id); calls into distributions, losses and penalizations, and the
expected-transform and objective evaluations, run 1e5-1e6 times per run, so
they are only aggregated: count and time.  Every wrapped call takes part in
the self-time accounting: a frame's self time is its duration minus that of
its wrapped children.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("distributions", "losses", "penalizations", "robust_core", "solvers", "risk_measures", "cli", "verify")
PRIVATE_ENTRY_POINTS = {"risk_measures": ("_ball_stats",), "cli": ("_sweep_point",)}
PRIOR_CLASSES = ("Empirical", "Normal", "Exponential", "StudentT")
AGGREGATED_LAYERS = {"distributions", "losses", "penalizations"}
AGGREGATED_KEYS = {"robust_core.expected_transform", "robust_core.expected_loss", "risk_measures.adjusted_level"}
# the role of an objective evaluation made by each solver when no other
# solver's objective is being evaluated; inside one, every search is "inner";
# increasing_root evaluations are always "root"
TOP_LEVEL_ROLE = {
    "golden_section_min": "outer",
    "expand_bracket": "bracket",
    "flat_minimum_edges": "edge",
}
CLASSICAL = {"risk_measures.expectile", "risk_measures.var", "distributions.mean"}
PARTIAL_MOMENT = ("distributions.partial_moment_plus", "distributions.partial_moment_minus")

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.phase = None  # None: pass through; "input": building an input; "op": the timed call
        self.op = -1
        self.stack: list[list] = []  # frames: [wrapped-children ns, key]
        self.cur_span = -1
        self.spans: list = []
        self.stats: dict[str, list[int]] = {}  # key -> [calls, inclusive ns, self ns within ops]
        self.evals = dict.fromkeys(("outer", "inner", "bracket", "edge", "root"), 0)
        self.points = 0
        self.ball_inner = 0
        self.classical = 0
        self.top_calls = 0
        self.top_distinct = 0
        self._seen: set = set()
        self.obj_depth = 0
        self.ops = 0
        self.op_ns = 0
        self.window: dict | None = None

    def _stat(self, key: str) -> list[int]:
        return self.stats.setdefault(key, [0, 0, 0])

    def call(self, st: list[int], key: str, span: bool, fn, args, kwargs):
        """Run fn as a frame: count it, time it, charge its duration to the
        parent frame, and record a span when asked to inside an operation."""
        stack = self.stack
        in_op = self.phase == "op"
        sid = -1
        if span and in_op:
            sid, prev = len(self.spans), self.cur_span
            self.spans.append(None)
            self.cur_span = sid
        frame = [0, key]
        stack.append(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _now() - t0
            stack.pop()
            st[0] += 1
            st[1] += dur
            if in_op:
                st[2] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if sid >= 0:
                self.spans[sid] = (key, t0, t0 + dur, prev, self.op)
                self.cur_span = prev

    # -- operations ---------------------------------------------------------

    def run(self, op: int, phase: str, fn):
        """Run fn() as building (phase "input") or performing (phase "op")
        operation `op`; returns (result or exception, ns)."""
        self.op, self.phase = op, phase
        self._seen.clear()
        key = f"harness.{phase}"
        st = self._stat(key)
        before = st[1]
        try:
            result = self.call(st, key, phase == "op", fn, (), {})
        except Exception as exc:  # the caller records the failure
            result = exc
        finally:
            self.phase = None
        dur = st[1] - before
        if phase == "op":
            self.ops += 1
            self.op_ns += dur
            self.top_distinct += len(self._seen)
        return result, dur

    # -- wrappers -----------------------------------------------------------

    def objective(self, f, solver: str):
        role = "root" if solver == "increasing_root" else (
            "inner" if self.obj_depth > 0 else TOP_LEVEL_ROLE[solver]
        )
        layer = _layer_of(getattr(f, "__module__", None) or type(f).__module__)
        key = f"{layer}.<objective>"
        st = self._stat(key)
        top = role in ("outer", "bracket", "edge")

        def evaluate(x):
            self.evals[role] += 1
            if top:
                self.top_calls += 1
                self._seen.add(x)
            self.obj_depth += 1
            try:
                return self.call(st, key, False, f, (x,), {})
            finally:
                self.obj_depth -= 1

        return evaluate

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        st = self._stat(key)
        span = layer not in AGGREGATED_LAYERS and key not in AGGREGATED_KEYS
        solver = layer == "solvers"
        classical = key in CLASSICAL
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            if solver:
                args = (tracer.objective(args[0], name),) + args[1:]
            elif classical and tracer.stack and tracer.stack[-1][1] == "cli.cmd_sweep":
                tracer.classical += 1
            elif key == "losses.loss_value":
                tracer.points += int(np.size(args[1]))
            result = tracer.call(st, key, span, fn, args, kwargs)
            if key == "risk_measures._ball_stats":
                tracer.ball_inner += result[2]
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def counts(self) -> dict:
        """Raw counters; deterministic for a given seed and number of ops."""
        return {
            "ops": self.ops,
            "partial_moment": self.calls(*PARTIAL_MOMENT),
            "quantile": self.calls("distributions.quantile"),
            "conjugate": self.calls("penalizations.conjugate"),
            "expected_transform": self.calls("robust_core.expected_transform"),
            "lambda_c_transform": self.calls("losses.lambda_c_transform"),
            "loss_points": self.points,
            "ball_inner": self.ball_inner,
            "classical": self.classical,
            "rows": self.calls("cli._sweep_point"),
            "top_calls": self.top_calls,
            "top_distinct": self.top_distinct,
            **{f"evals.{role}": n for role, n in self.evals.items()},
        }

    def snapshot_window(self) -> None:
        self.window = self.counts()

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for key, (_, _, ns) in self.stats.items():
            out[key.split(".", 1)[0]] += ns
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: counts per op over the first `window_ops`
        operations, times over every traced operation."""
        w = self.window or self.counts()
        n = max(w["ops"], 1)
        ops = max(self.ops, 1)
        layer_self = self.layer_self_ns()

        def incl_ns(key):
            return self.stats[key][1] if key in self.stats else 0

        def per_call_us(*keys):
            calls = self.calls(*keys)
            return sum(incl_ns(k) for k in keys) / calls / 1e3 if calls else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "distributions.partial_moment.calls_per_op": w["partial_moment"] / n,
            "distributions.partial_moment.us_per_call": per_call_us(*PARTIAL_MOMENT),
            "distributions.quantile.calls_per_op": w["quantile"] / n,
            "distributions.construct_ms": incl_ns("distributions.construct") / ops / 1e6,
            "penalizations.conjugate.calls_per_op": w["conjugate"] / n,
            "robust_core.expected_transform.calls_per_op": w["expected_transform"] / n,
            "robust_core.expected_transform.self_share": ratio(
                self.stats.get("robust_core.expected_transform", [0, 0, 0])[2], self.op_ns
            ),
            "solvers.outer_evals_per_op": w["evals.outer"] / n,
            "solvers.inner_evals_per_op": w["evals.inner"] / n,
            "solvers.bracket_evals_per_op": w["evals.bracket"] / n,
            "solvers.edge_probe_evals_per_op": w["evals.edge"] / n,
            "solvers.root_evals_per_op": w["evals.root"] / n,
            "solvers.outer_distinct_ratio": ratio(w["top_distinct"], w["top_calls"]),
            "risk_measures.ball_inner_solves_per_op": w["ball_inner"] / n,
            "risk_measures.self_ms_per_op": layer_self.get("risk_measures", 0) / ops / 1e6,
            "losses.lambda_c_transform.calls_per_op": w["lambda_c_transform"] / n,
            "losses.lambda_c_transform.us_per_call": per_call_us("losses.lambda_c_transform"),
            "losses.loss_value.points_per_op": w["loss_points"] / n,
            "cli.self_ms_per_op": layer_self.get("cli", 0) / ops / 1e6,
            "cli.classical_calls_per_row": ratio(w["classical"], w["rows"]),
            "cli.csv_load_ms": per_call_us("distributions.empirical_from_csv") / 1e3,
            "verify.run_suite_ms": per_call_us("verify.run_suite") / 1e3,
            "harness.traced_ops_per_s": self.ops / (self.op_ns / 1e9) if self.op_ns else 0.0,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "stats_fields": ["calls", "inclusive_ns", "self_ns"],
                    "stats": self.stats,
                    "layer_self_ns": self.layer_self_ns(),
                    "counts_window": self.window,
                    "counts": self.counts(),
                },
                handle,
            )


def _layer_of(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def install() -> Tracer:
    """Wrap the layer functions of the imported wassrisk modules."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items()) if name == "wassrisk" or name.startswith("wassrisk.")]
    for layer in LAYERS:
        mod = sys.modules[f"wassrisk.{layer}"]
        names = [n for n in vars(mod) if not n.startswith("_")] + list(PRIVATE_ENTRY_POINTS.get(layer, ()))
        for name in names:
            fn = getattr(mod, name)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(layer, name, fn)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, wrapper)
    distributions = sys.modules["wassrisk.distributions"]
    for cls_name in PRIOR_CLASSES:
        cls = getattr(distributions, cls_name)
        cls.__post_init__ = tracer.wrap("distributions", "construct", cls.__post_init__)
    return tracer
