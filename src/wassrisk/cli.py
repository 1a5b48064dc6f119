"""Command-line surface: single measures, parameter sweeps, verification.

Exit codes: 0 success, 1 usage or malformed input, 2 infeasible problem or
empty result, 3 domain error (undefined moment, slope too small, growth not
certified).  Values print with 12 decimal places; sweeps write CSV that is
byte-identical across runs with identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import cache
from typing import Callable, Optional, Sequence

from .distributions import (
    Exponential,
    Normal,
    PriorDistribution,
    StudentT,
    empirical_from_csv,
    mean,
    prior_from_json,
)
from .errors import DeltaTooSmall, Infeasible, MomentUndefined, NoConvergence, UncertifiedGrowth
from .losses import AsymQuadratic, CostExponent, Pinball
from .penalizations import BallPenalty, LinearPenalty, Penalization
from .risk_measures import (
    ExpectileLevel,
    _ball_stats,
    _expectile_detail,
    expectile,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_generalized_quantile_detail,
    var,
)
from .robust_core import SearchOptions, robust_oce
from .svg import render_lines
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DOMAIN = 3

CSV_HEADER = "alpha,delta,robust,expectile,var,mean,iters,converged"
# solver outcomes a sweep records as a failed row instead of stopping
_ROW_ERRORS = (MomentUndefined, Infeasible, NoConvergence, DeltaTooSmall)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exceptions (exit code 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_prior_spec(spec: str) -> PriorDistribution:
    """Mini-grammar `family:param1,param2`, e.g. normal:0,1 or exponential:1
    or student_t:5,0,1."""
    if ":" not in spec:
        raise UsageError(f"invalid --prior {spec!r}: expected family:params")
    family, _, rest = spec.partition(":")
    family = family.strip().lower().replace("-", "_")
    try:
        params = [float(tok) for tok in rest.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"invalid --prior {spec!r}: parameters must be numbers")
    try:
        if family in ("normal", "gaussian"):
            if len(params) != 2:
                raise UsageError(f"invalid --prior {spec!r}: normal needs mean,stddev")
            return Normal(mean=params[0], stddev=params[1])
        if family in ("exponential", "exp"):
            if len(params) != 1:
                raise UsageError(f"invalid --prior {spec!r}: exponential needs rate")
            return Exponential(rate=params[0])
        if family in ("student_t", "studentt", "t"):
            if not 1 <= len(params) <= 3:
                raise UsageError(f"invalid --prior {spec!r}: student_t needs dof[,location[,scale]]")
            return StudentT(*params)
    except ValueError as exc:
        raise UsageError(f"invalid --prior {spec!r}: {exc}")
    raise UsageError(f"invalid --prior {spec!r}: unknown family {family!r}")


def parse_grid(text: str, flag: str) -> list[float]:
    """Comma list `0.1,0.3` or range `1:10:0.5` (inclusive endpoints) of
    finite numbers."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("range needs start:stop:step")
            if not all(map(math.isfinite, parts)):
                raise ValueError("values must be finite")
            start, stop, step = parts
            if step <= 0:
                raise ValueError("step must be positive")
            out = []
            k = 0
            while True:
                v = start + k * step
                if v > stop + 1e-12:
                    break
                out.append(round(v, 12))
                k += 1
            return out
        out = [float(tok) for tok in text.split(",") if tok.strip()]
        if not all(map(math.isfinite, out)):
            raise ValueError("values must be finite")
        return out
    except ValueError as exc:
        raise UsageError(f"invalid {flag} {text!r}: {exc}")


def _build_prior(args: argparse.Namespace) -> PriorDistribution:
    if getattr(args, "samples", None):
        try:
            return empirical_from_csv(args.samples)
        except (OSError, ValueError, csv.Error) as exc:
            raise UsageError(f"invalid --samples: {exc}")
    if getattr(args, "prior_file", None):
        try:
            with open(args.prior_file) as handle:
                return prior_from_json(handle.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"invalid --prior-file: {exc}")
    if getattr(args, "prior", None):
        return parse_prior_spec(args.prior)
    raise UsageError("a prior is required: pass --prior, --prior-file or --samples")


def _build_penalty(args: argparse.Namespace) -> Penalization:
    if not getattr(args, "penalty", None):
        raise UsageError("--penalty is required (linear or ball)")
    if args.delta is None:
        raise UsageError("--delta is required with --penalty")
    try:
        if args.penalty == "linear":
            return LinearPenalty(delta=args.delta)
        return BallPenalty(delta=args.delta)
    except ValueError as exc:
        raise UsageError(f"invalid --delta: {exc}")


def _require_alpha(args: argparse.Namespace) -> float:
    if args.alpha is None:
        raise UsageError("--alpha is required")
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"invalid --alpha {args.alpha!r}: must lie in (0, 1)")
    return args.alpha


def _fmt(v: float) -> str:
    return f"{v:.12f}"


def cmd_measure(args: argparse.Namespace) -> int:
    d = _build_prior(args)
    kind = args.measure
    if kind == "var":
        print(_fmt(var(d, _require_alpha(args))))
        return EXIT_OK
    if kind == "expectile":
        print(_fmt(expectile(d, _require_alpha(args))))
        return EXIT_OK
    opt = SearchOptions(restrict_to_support=args.restrict_support)
    if kind == "robust-expectile":
        alpha = _require_alpha(args)
        phi = _build_penalty(args)
        if isinstance(phi, LinearPenalty):
            print(_fmt(robust_expectile_linear(d, alpha, phi.delta)))
        else:
            print(_fmt(robust_expectile_ball(d, alpha, phi.delta, opt)))
        return EXIT_OK
    alpha = _require_alpha(args)
    phi = _build_penalty(args)
    loss = Pinball(alpha) if args.loss == "pinball" else AsymQuadratic(alpha)
    # the cost exponent is the loss's own: 1 for pinball, 2 for asym-quadratic
    cost = CostExponent(loss.growth_bound()[1])
    if kind == "oce":
        rv = robust_oce(d, loss, cost, phi, opt)
        print(_fmt(rv.value))
        return EXIT_OK if rv.converged else EXIT_INFEASIBLE
    # robust generalized quantile: the argmin is an interval and both edges
    # are printed, never a silently chosen point
    rv = robust_generalized_quantile_detail(d, loss, cost, phi, opt)
    m1, m2 = rv.argmin_m
    print(f"{_fmt(m1)} {_fmt(m2)}")
    return EXIT_OK if rv.converged else EXIT_INFEASIBLE


def _sweep_point(d: PriorDistribution, penalty: str, alpha: float, delta: float) -> tuple[float, int]:
    """(robust expectile, dual solves at distinct m) for one grid point."""
    if penalty == "linear":
        ExpectileLevel(alpha, delta)
        rv = _expectile_detail(d, alpha, LinearPenalty(delta))
        return rv.argmin_m[0], rv.evaluations
    value, _, evals = _ball_stats(d, alpha, delta)
    return value, evals


def cmd_sweep(args: argparse.Namespace) -> int:
    d = _build_prior(args)
    if args.penalty not in ("linear", "ball"):
        raise UsageError("--penalty must be linear or ball for sweeps")
    if args.alpha is None or args.delta is None:
        raise UsageError("sweeps need --alpha and --delta grids")
    alphas = parse_grid(args.alpha, "--alpha")
    deltas = parse_grid(args.delta, "--delta")
    if not alphas or not deltas:
        raise UsageError("sweep grids must be nonempty")
    if not all(0.0 < alpha < 1.0 for alpha in alphas):
        raise UsageError("--alpha grid values must lie in (0, 1)")
    if args.penalty == "ball" and min(deltas) < 0.0:
        raise UsageError("--delta grid values must be nonnegative for a ball")
    for name, grid in (("--alpha", alphas), ("--delta", deltas)):
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise UsageError(f"{name} grid must be strictly increasing")
    if args.out is None:
        raise UsageError("--out is required for sweeps")

    # the classical columns depend on alpha alone: each is computed once, on
    # the first row that needs it, and a failure is remembered as None
    classical: dict[object, Optional[float]] = {}

    def once(key: object, fn: Callable[[], float]) -> Optional[float]:
        if key not in classical:
            try:
                classical[key] = fn()
            except _ROW_ERRORS:
                classical[key] = None
        return classical[key]

    rows: list[tuple[float, float, float, float, float, float, int, bool]] = []
    for alpha in alphas:
        for delta in deltas:
            if args.penalty == "linear" and delta <= max(alpha, 1.0 - alpha):
                print(
                    f"skipping alpha={alpha!r} delta={delta!r}: "
                    "linear slope must exceed max(alpha, 1-alpha)",
                    file=sys.stderr,
                )
                continue
            row = (alpha, delta, math.nan, math.nan, math.nan, math.nan, 0, False)
            try:
                robust, iters = _sweep_point(d, args.penalty, alpha, delta)
            except _ROW_ERRORS:
                rows.append(row)
                continue
            ecl = once(("expectile", alpha), lambda: expectile(d, alpha))
            q = once(("var", alpha), lambda: var(d, alpha))
            mu = once("mean", lambda: mean(d))
            if ecl is not None and q is not None and mu is not None:
                row = (alpha, delta, robust, ecl, q, mu, iters, True)
            rows.append(row)

    lines = [CSV_HEADER]
    for alpha, delta, robust, ecl, q, mu, iters, ok in rows:
        lines.append(
            f"{alpha!r},{delta!r},{robust!r},{ecl!r},{q!r},{mu!r},{iters},{str(ok).lower()}"
        )
    with open(args.out, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    if args.svg:
        series: dict[str, list[tuple[float, float]]] = {}
        for alpha, delta, robust, *_rest in rows:
            if not _rest[-1]:
                continue
            series.setdefault(f"alpha={alpha:g}", []).append((delta, robust))
        with open(args.svg, "w") as handle:
            handle.write(
                render_lines(
                    series,
                    x_label="delta",
                    y_label="robust expectile",
                    title=f"{args.penalty} penalty sweep",
                )
            )

    converged_rows = sum(1 for r in rows if r[7])
    if converged_rows == 0:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        ok, lines = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_USAGE


def build_parser() -> _Parser:
    parser = _Parser(prog="wassrisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--prior", help="prior spec family:params, e.g. normal:0,1")
        p.add_argument("--prior-file", help="JSON file with a prior spec")
        p.add_argument("--samples", help="CSV of atoms: value[,weight] per row")
        p.add_argument("--seed", type=int, default=0, help="seed for seeded procedures")

    m = sub.add_parser("measure", help="compute a single risk measure")
    m.add_argument(
        "measure", choices=["var", "expectile", "robust-expectile", "oce", "quantile"]
    )
    add_common(m)
    m.add_argument("--alpha", type=float, help="level in (0, 1)")
    m.add_argument("--delta", type=float, help="penalty parameter")
    m.add_argument("--penalty", choices=["linear", "ball"])
    m.add_argument("--loss", choices=["pinball", "asym-quadratic"], default="pinball")
    m.add_argument(
        "--restrict-support",
        action="store_true",
        help="confine the outer search to the empirical support",
    )
    m.set_defaults(func=cmd_measure)

    s = sub.add_parser("sweep", help="tabulate robust expectiles over an (alpha, delta) grid")
    add_common(s)
    s.add_argument("--alpha", help="levels: comma list or start:stop:step")
    s.add_argument("--delta", help="penalty grid: comma list or start:stop:step")
    s.add_argument("--penalty", choices=["linear", "ball"], required=True)
    s.add_argument("--out", help="output CSV path")
    s.add_argument("--svg", help="optional SVG chart path")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("suite", help="axioms | duality | transforms | reductions | trends | all")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


@cache
def _parser() -> _Parser:
    """The parser of this process, built on first use: parsing keeps no state
    in it between calls, and building it costs more than most commands."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Infeasible, NoConvergence) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MomentUndefined, DeltaTooSmall, UncertifiedGrowth) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
