"""The three benchmark workloads: seeded inputs, one operation, its oracle.

Every workload is a closed loop with one client.  Operation i draws its
inputs from a numpy generator seeded with (seed, i), so one seed always gives
the same inputs, and follows a fixed schedule of `cycle` operations, so every
whole cycle holds the same mix of operation kinds and prior families.  Runs
stop on a cycle boundary, which keeps that mix identical between runs.

`prepare(i)` builds operation i outside the timed region and returns an `Op`:
`call()` is the timed library or CLI call, `check(result)` compares its
result with an independent oracle and returns None or a failure message.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import wassrisk as W
from wassrisk import cli, risk_measures, verify

P1 = W.CostExponent(1.0)
P2 = W.CostExponent(2.0)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


# Kronecker steps: the fractional parts of the square roots of the primes
STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))


class Draws:
    """The inputs of operation i of a workload whose schedule repeats every
    `cycle` operations.

    The scalar parameters (prior parameters, atom counts, levels, radii)
    come from `u`: the j-th call made for slot s = i % cycle in cycle
    c = i // cycle returns frac(shift[s, j] + c * STEPS[j]), with the shifts
    drawn from the seed.  Over a run's cycles every slot's parameters
    therefore cover their ranges evenly whatever the seed, so the run's cost
    depends on the seed far less than with independent draws, while each
    operation still gets inputs of its own.  Samples (atoms, weights, verify
    seeds) come from `rng`, seeded with (seed, i).
    """

    def __init__(self, seed: int, i: int, cycle: int):
        self.rng = np.random.default_rng([seed, i])
        self._shift = np.random.default_rng([seed, i % cycle, 1 << 31]).random(len(STEPS))
        self._c = i // cycle
        self._j = 0

    def u(self, lo: float, hi: float) -> float:
        j = self._j
        self._j += 1
        return lo + (hi - lo) * float((self._shift[j] + self._c * STEPS[j]) % 1.0)


def _empirical(dr: Draws, n: int) -> W.Empirical:
    loc, scale = dr.u(-1.0, 1.0), dr.u(0.5, 2.0)
    values = loc + scale * dr.rng.standard_normal(n)
    weights = np.maximum(dr.rng.dirichlet(np.ones(n)), 1e-9)
    weights /= weights.sum()
    return W.Empirical(tuple(zip(values.tolist(), weights.tolist())))


def _near(got: float, want: float, tol: float, what: str) -> Optional[str]:
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, oracle {want!r} (tolerance {tol})"


def _inside(x: float, interval: tuple[float, float], tol: float, what: str) -> Optional[str]:
    m1, m2 = interval
    if m1 - tol <= x <= m2 + tol:
        return None
    return f"{what}: {x!r} outside argmin [{m1!r}, {m2!r}] +- {tol}"


def _unconverged(rv) -> Optional[str]:
    return None if rv.converged else f"converged=False (value {rv.value!r})"


# ---------------------------------------------------------------------------
# solve_stream
# ---------------------------------------------------------------------------


class SolveStream:
    """One public closed-form solve per operation on a freshly drawn prior.

    Why: runs L1-L4 end to end; single-level solves (linear or pinball) set
    p50 and nested lambda-inside-m solves (ball or piecewise) set p90, and
    every prior is fresh, so a cache keyed on the prior gets no hits here.
    """

    FAMILIES = ("normal", "exponential", "student_t", "empirical")
    # 8 single-level kinds and 4 nested ones per 12 slots: p50 falls inside
    # the single-level cluster and p90 inside the nested one
    KINDS = (
        "expectile_linear",
        "oce_linear",
        "quantile_pinball_linear",
        "expectile_ball",
        "expectile_ball_r0",
        "quantile_pinball_ball",
        "oce_ball",
        "expectile_linear",
        "oce_linear",
        "quantile_pinball_linear",
        "oce_piecewise",
        "quantile_quad_ball",
    )
    cycle = len(KINDS) * len(FAMILIES)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _prior(self, dr: Draws, family: str):
        if family == "normal":
            return W.Normal(dr.u(-2.0, 2.0), dr.u(0.5, 3.0))
        if family == "exponential":
            return W.Exponential(dr.u(0.3, 3.0))
        if family == "student_t":
            return W.StudentT(dr.u(3.0, 30.0), dr.u(-1.0, 1.0), dr.u(0.5, 2.0))
        n = int(round(math.exp(dr.u(math.log(50), math.log(5000)))))
        return _empirical(dr, n)

    def prepare(self, i: int) -> Op:
        dr = Draws(self.seed, i, self.cycle)
        kind = self.KINDS[i % len(self.KINDS)]
        family = self.FAMILIES[(i // len(self.KINDS)) % len(self.FAMILIES)]
        d = self._prior(dr, family)
        alpha = dr.u(0.05, 0.95)
        thr = max(alpha, 1.0 - alpha)
        label = f"op {i} {kind} on {family}"
        return getattr(self, "_" + kind)(label, d, family, alpha, thr, dr, i)

    def _expectile_linear(self, label, d, family, alpha, thr, dr, i):
        delta = thr + dr.u(0.05, 9.0)
        label += f" alpha={alpha!r} delta1={delta!r}"

        def check(got):
            if family == "empirical":
                band = W.DensityBand.from_expectile_level(alpha, delta)
                direction = "max" if alpha >= 0.5 else "min"
                return _near(got, W.dual_expectile_max(d, band, direction), 1e-8, "density band")
            return _near(got, W.expectile(d, W.adjusted_level(alpha, delta)), 1e-9, "adjusted level")

        return Op(label, lambda: W.robust_expectile_linear(d, alpha, delta), check)

    def _expectile_ball_r0(self, label, d, family, alpha, thr, dr, i):
        return Op(
            f"{label} alpha={alpha!r} delta2=0",
            lambda: W.robust_expectile_ball(d, alpha, 0.0),
            lambda got: _near(got, W.expectile(d, alpha), 1e-8, "classical expectile"),
        )

    def _expectile_ball(self, label, d, family, alpha, thr, dr, i):
        delta = dr.u(0.05, 2.0)
        label += f" alpha={alpha!r} delta2={delta!r}"
        # the nested oracle costs as much as the operation: check one cycle in three
        oracle = (i // self.cycle) % 3 == 0

        def check(got):
            if not math.isfinite(got):
                return f"non-finite value {got!r}"
            if not oracle:
                return None
            rv = risk_measures.robust_generalized_quantile_detail(
                d, W.AsymQuadratic(alpha), P2, W.BallPenalty(delta)
            )
            if not rv.converged:
                return "oracle quantile did not converge"
            return _near(got, 0.5 * sum(rv.argmin_m), 1e-4, "AsymQuadratic/ball argmin midpoint")

        return Op(label, lambda: W.robust_expectile_ball(d, alpha, delta), check)

    def _oce(self, label, d, alpha, phi):
        loss = W.AsymQuadratic(alpha)

        def check(rv):
            bad = _unconverged(rv)
            if bad:
                return bad
            m_star = 0.5 * sum(rv.argmin_m)
            again = m_star + W.robust_functional(d, loss, P2, phi, m_star)
            return _near(rv.value, again, 1e-7, "m* + robust_functional(m*)")

        return Op(f"{label} alpha={alpha!r} {phi!r}", lambda: W.robust_oce(d, loss, P2, phi), check)

    def _oce_linear(self, label, d, family, alpha, thr, dr, i):
        return self._oce(label, d, alpha, W.LinearPenalty(thr + dr.u(0.2, 5.0)))

    def _oce_ball(self, label, d, family, alpha, thr, dr, i):
        return self._oce(label, d, alpha, W.BallPenalty(dr.u(0.05, 2.0)))

    def _oce_piecewise(self, label, d, family, alpha, thr, dr, i):
        s0 = dr.u(0.05, 0.5)
        s1 = s0 + dr.u(0.1, 1.0)
        s2 = max(s1, thr) + dr.u(0.5, 3.0)
        x1 = dr.u(0.2, 1.0)
        x2 = x1 + dr.u(0.2, 1.5)
        phi = W.PiecewiseLinearPenalty(((0.0, s0), (x1, s1), (x2, s2)))
        return self._oce(label, d, alpha, phi)

    def _quantile(self, label, d, alpha, loss, cost, phi, oracle, what, tol):
        def check(rv):
            return _unconverged(rv) or _inside(oracle(), rv.argmin_m, tol, what)

        return Op(
            f"{label} alpha={alpha!r} {phi!r}",
            lambda: risk_measures.robust_generalized_quantile_detail(d, loss, cost, phi),
            check,
        )

    def _quantile_pinball(self, label, d, alpha, phi):
        return self._quantile(
            label, d, alpha, W.Pinball(alpha), P1, phi, lambda: W.var(d, alpha), "VaR", 1e-6
        )

    def _quantile_pinball_linear(self, label, d, family, alpha, thr, dr, i):
        return self._quantile_pinball(label, d, alpha, W.LinearPenalty(thr + dr.u(0.05, 5.0)))

    def _quantile_pinball_ball(self, label, d, family, alpha, thr, dr, i):
        return self._quantile_pinball(label, d, alpha, W.BallPenalty(dr.u(0.05, 2.0)))

    def _quantile_quad_ball(self, label, d, family, alpha, thr, dr, i):
        delta = dr.u(0.05, 2.0)
        return self._quantile(
            label,
            d,
            alpha,
            W.AsymQuadratic(alpha),
            P2,
            W.BallPenalty(delta),
            lambda: W.robust_expectile_ball(d, alpha, delta),
            "ball robust expectile",
            1e-4,
        )


# ---------------------------------------------------------------------------
# custom_dual
# ---------------------------------------------------------------------------


def _pinball_twin(alpha: float) -> W.CustomLoss:
    return W.CustomLoss(
        lambda y, a=alpha: a * np.maximum(y, 0.0) + (1.0 - a) * np.maximum(-y, 0.0),
        max(alpha, 1.0 - alpha),
        1.0,
    )


def _quad_twin(alpha: float) -> W.CustomLoss:
    return W.CustomLoss(
        lambda y, a=alpha: a * np.maximum(y, 0.0) ** 2 + (1.0 - a) * np.maximum(-y, 0.0) ** 2,
        max(alpha, 1.0 - alpha),
        2.0,
    )


class CustomDual:
    """One robust_functional call per operation with a CustomLoss, a linear
    penalty and cost p in {1, 2}, on a fresh empirical prior at a drawn m.

    Why: the only route through losses._numeric_sup and never through partial
    moments, so an L1 change should leave it flat and a transform change
    should leave solve_stream flat.
    """

    # Atom-count bands of the ten slots each cost exponent gets per cycle.
    # The cost of an operation grows with its atom count and a run holds only
    # about a hundred operations, so the bands put p50 and p90 in the middle
    # of several slots of like size (150-250 and 800-1000 atoms); with atom
    # counts spread evenly over 20-1000, each percentile would hinge on one or
    # two operations of a run.
    BANDS = ((20, 60),) * 3 + ((150, 250),) * 4 + ((400, 600),) + ((800, 1000),) * 2
    cycle = 2 * len(BANDS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, i: int) -> Op:
        dr = Draws(self.seed, i, self.cycle)
        p = 1 if i % 2 == 0 else 2
        n = int(round(dr.u(*self.BANDS[(i // 2) % len(self.BANDS)])))
        d = _empirical(dr, n)
        alpha = dr.u(0.1, 0.9)
        delta = max(alpha, 1.0 - alpha) + dr.u(0.5, 3.0)
        lo, hi = d.support
        m = dr.u(lo, hi)
        cost = W.CostExponent(float(p))
        custom, closed = (
            (_pinball_twin(alpha), W.Pinball(alpha)) if p == 1 else (_quad_twin(alpha), W.AsymQuadratic(alpha))
        )
        phi = W.LinearPenalty(delta)
        label = f"op {i} custom p={p} atoms={len(d.values)} alpha={alpha!r} delta={delta!r} m={m!r}"
        return Op(
            label,
            lambda: W.robust_functional(d, custom, cost, phi, m),
            lambda got: _near(got, W.expected_transform(d, closed, cost, delta, m), 1e-4, "closed form"),
        )


# ---------------------------------------------------------------------------
# sweep_cli
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.12f}"


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


CSV_ATOMS = (1000, 2700, 7400, 20000)
SPECS = ("normal", "exponential", "student_t")
SOURCES = SPECS + tuple(f"csv{k}" for k in range(len(CSV_ATOMS)))
MEASURES = ("var", "expectile", "robust-expectile", "oce", "quantile")
# One cycle, as (command, what, prior source, penalty; None alternates the
# penalty between cycles): every measure and a linear and a ball sweep on
# every source, each verify suite once, and four rounds of quick measures
# (linear penalty, parametric prior, a few ms each).  The quick measures are
# the majority, so p50 falls inside their dense cluster rather than between
# the CSV sizes, and p90 inside the sweeps and suites.
SWEEP_TEMPLATE = (
    [("measure", kind, src, None) for src in SOURCES for kind in MEASURES]
    + [("sweep", penalty, src, penalty) for src in SOURCES for penalty in ("linear", "ball")]
    + [("verify", suite, None, None) for suite in ("axioms", "duality", "transforms", "reductions", "trends")]
    + [("measure", kind, src, "linear") for _ in range(4) for src in SPECS for kind in MEASURES]
)


class SweepCli:
    """One in-process wassrisk.cli.main(argv) call per operation, stdout and
    stderr captured: sweeps, all five measures and the verify suites.

    Why: the only workload that reaches L5 and the CSV and Empirical
    construction inside an operation; a sweep evaluates one prior at many
    grid points, so hoisting or caching shows here and not in solve_stream.
    """

    cycle = len(SWEEP_TEMPLATE)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "sweep.csv")
        self.csv = {}
        rng = np.random.default_rng([seed, 1 << 30])
        for k, n in enumerate(CSV_ATOMS):
            values = rng.uniform(-1.0, 1.0) + rng.uniform(0.5, 2.0) * rng.standard_t(5.0, n)
            path = os.path.join(workdir, f"samples{k}.csv")
            with open(path, "w") as handle:
                handle.write("".join(f"{v!r}\n" for v in values.tolist()))
            self.csv[f"csv{k}"] = path
        self._loaded: dict[str, W.Empirical] = {}

    def _source(self, dr: Draws, src: str):
        """(argv for the prior, thunk building the same prior for the oracle)."""
        if src == "normal":
            mu, sd = dr.u(-2.0, 2.0), dr.u(0.5, 3.0)
            return ["--prior", f"normal:{mu!r},{sd!r}"], lambda: W.Normal(mu, sd)
        if src == "exponential":
            rate = dr.u(0.3, 3.0)
            return ["--prior", f"exponential:{rate!r}"], lambda: W.Exponential(rate)
        if src == "student_t":
            dof, loc, sc = dr.u(3.0, 30.0), dr.u(-1.0, 1.0), dr.u(0.5, 2.0)
            return ["--prior", f"student_t:{dof!r},{loc!r},{sc!r}"], lambda: W.StudentT(dof, loc, sc)
        path = self.csv[src]

        def load():
            if src not in self._loaded:
                self._loaded[src] = W.empirical_from_csv(path)
            return self._loaded[src]

        return ["--samples", path], load

    def prepare(self, i: int) -> Op:
        dr = Draws(self.seed, i, self.cycle)
        command, what, src, penalty = SWEEP_TEMPLATE[i % self.cycle]
        label = f"op {i} {command} {what}"
        if command == "verify":
            k = int(dr.rng.integers(0, 10_000))
            return self._op(label, ["verify", what, "--seed", str(k)], self._check_verify(what, k, i))
        prior_argv, prior = self._source(dr, src)
        label += f" on {src}"
        if penalty is None:
            penalty = ("linear", "ball")[(i // self.cycle + SOURCES.index(src)) % 2]
        if command == "sweep":
            return self._sweep(label, dr, what, prior_argv, prior, i)
        return self._measure(label, dr, what, penalty, prior_argv, prior)

    def _op(self, label: str, argv: list[str], check) -> Op:
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        def checked(result):
            rc, out, err = result
            if rc != 0:
                return f"exit code {rc}: {err.strip()[:200]}"
            return check(out)

        return Op(f"{label}: wassrisk {' '.join(argv)}", call, checked)

    def _check_verify(self, suite: str, k: int, i: int):
        labels = [f"{suite}/{label}: PASS" for label, _ in verify.SUITES[suite]]
        # re-running a suite costs as much as the operation: compare with
        # run_suite one cycle in three, otherwise check every line passed
        full = (i // self.cycle) % 3 == 0

        def check(out):
            lines = out.splitlines()
            if [line.split(" (", 1)[0] for line in lines] != labels:
                return "not every check of the suite passed"
            if full and lines != verify.run_suite(suite, seed=k)[1]:
                return "output differs from run_suite"
            return None

        return check

    def _measure(self, label, dr, kind, penalty, prior_argv, prior) -> Op:
        alpha = dr.u(0.05, 0.95)
        thr = max(alpha, 1.0 - alpha)
        argv = ["measure", kind, "--alpha", repr(alpha)] + prior_argv
        if kind == "var":
            want = lambda: _fmt(W.var(prior(), alpha))
        elif kind == "expectile":
            want = lambda: _fmt(W.expectile(prior(), alpha))
        else:
            if penalty == "linear":
                delta = thr + dr.u(0.05, 5.0)
                phi = W.LinearPenalty(delta)
            else:
                delta = dr.u(0.05, 2.0)
                phi = W.BallPenalty(delta)
            argv += ["--penalty", penalty, "--delta", repr(delta)]
            if kind == "robust-expectile":
                if penalty == "linear":
                    want = lambda: _fmt(W.robust_expectile_linear(prior(), alpha, delta))
                else:
                    want = lambda: _fmt(W.robust_expectile_ball(prior(), alpha, delta))
            elif kind == "oce":
                argv += ["--loss", "asym-quadratic"]
                want = lambda: _fmt(W.robust_oce(prior(), W.AsymQuadratic(alpha), P2, phi).value)
            else:
                argv += ["--loss", "pinball"]

                def want():
                    rv = risk_measures.robust_generalized_quantile_detail(
                        prior(), W.Pinball(alpha), P1, phi
                    )
                    return " ".join(_fmt(m) for m in rv.argmin_m)

        def check(out):
            expected = want()
            return None if out.strip() == expected else f"printed {out.strip()!r}, library {expected!r}"

        return self._op(label, argv, check)

    def _sweep(self, label, dr, penalty, prior_argv, prior, i) -> Op:
        if penalty == "linear":
            alphas = np.sort([dr.u(0.05, 0.95) for _ in range(4)])
            deltas = dr.u(1.0, 1.5) + dr.u(0.4, 0.8) * np.arange(12)
        else:
            alphas = np.sort([dr.u(0.05, 0.95) for _ in range(3)])
            deltas = np.concatenate(([0.0], np.sort([dr.u(0.05, 2.0) for _ in range(4)])))
        argv = ["sweep", "--penalty", penalty, "--alpha", _csv_list(alphas),
                "--delta", _csv_list(deltas), "--out", self.out] + prior_argv
        grid = [(float(a), float(dl)) for a in alphas for dl in deltas]

        def check(out):
            with open(self.out) as handle:
                lines = handle.read().splitlines()
            if lines[0] != cli.CSV_HEADER or len(lines) != len(grid) + 1:
                return f"unexpected CSV shape: {len(lines)} lines"
            d = prior()
            mu = repr(W.mean(d))
            classical = {a: (repr(W.expectile(d, a)), repr(W.var(d, a))) for a, _ in grid}
            for j, ((a, dl), line) in enumerate(zip(grid, lines[1:])):
                f = line.split(",")
                want = [repr(a), repr(dl), f[2], *classical[a], mu, f[6], "true"]
                # the robust column repeats a nested solve: ball sweeps check
                # a seeded fifth of their rows, linear sweeps every row
                if penalty == "linear":
                    want[2] = repr(W.robust_expectile_linear(d, a, dl))
                elif j % 5 == i % 5:
                    want[2] = repr(W.robust_expectile_ball(d, a, dl))
                if f != want:
                    return f"row {j}: printed {line!r}, library {','.join(want)!r}"
            return None

        return self._op(label, argv, check)


WORKLOADS = {"solve_stream": SolveStream, "sweep_cli": SweepCli, "custom_dual": CustomDual}
