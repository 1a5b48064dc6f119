"""Worst-case expected loss under transport-penalized ambiguity.

The inner robust functional

    E_phi(l, X, m) = sup_mu { int l(x - m) dmu - phi(d_c(mu_X, mu)) }

is evaluated through its dual form inf_{lam >= 0} { E[l^{lam c}(X - m)] +
phi*(lam) }, a one-dimensional convex minimization.  The robust optimized
certainty equivalent adds an outer minimization of m + E_phi(l, X, m).

Analytic shortcuts cover the common penalty/loss pairs:

* pinball-shaped losses with p = 1: the transform equals the loss itself on
  its finite range, so E_phi = E[h(X-m)] + phi*(max(a, b)) for every phi;
* linear phi: the conjugate is an indicator, so the infimum sits at the
  slope delta and no search is needed;
* ball phi with radius 0: only the baseline law is admissible and the
  functional collapses to the classical expectation (the lam -> inf limit).

Everything else runs a golden-section search over the feasible lambda range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .distributions import (
    Empirical,
    Exponential,
    Normal,
    PriorDistribution,
    StudentT,
    partial_moment_minus,
    partial_moment_plus,
    prob_strictly_above,
    prob_strictly_below,
    quantile,
)
from .errors import Infeasible, NoConvergence
from .losses import (
    CostExponent,
    LossSpec,
    closed_form_kind,
    finiteness_threshold,
    lambda_c_transform_many,
    loss_value,
    pinball_coefficients,
    quad_coefficients,
)
from .penalizations import (
    BallPenalty,
    LinearPenalty,
    Penalization,
    conjugate,
    conjugate_domain_sup,
)
from .solvers import expand_bracket, flat_minimum_edges, golden_section_min

INF = math.inf

_DISCRETIZE_N = 2001


@dataclass(frozen=True)
class SearchOptions:
    """Tolerances and budgets for the nested minimizations."""

    m_tol: float = 1e-9
    lambda_tol: float = 1e-9
    max_iter: int = 200
    max_doublings: int = 60
    restrict_to_support: bool = False
    flat_value_tol: float = 1e-10
    interval_resolution: float = 1e-6
    foc_tol: float = 1e-5


@dataclass(frozen=True)
class RobustValue:
    """Result of a robust evaluation.

    argmin_m is the closed interval of minimizers (a flat bottom is reported
    honestly, never collapsed to an arbitrary point); argmin_lambda is the
    dual variable at the reported minimizer, with boundary_lambda flagging
    solutions sitting on the edge of the conjugate's domain.
    """

    value: float
    argmin_m: tuple[float, float]
    argmin_lambda: float
    evaluations: int
    converged: bool
    boundary_lambda: bool = False


@lru_cache(maxsize=32)
def _discretized_atoms(d: PriorDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quantile discretization used only for custom losses on
    parametric priors; closed-form losses never take this path.  Cached per
    (immutable) distribution."""
    u = (np.arange(_DISCRETIZE_N) + 0.5) / _DISCRETIZE_N
    xs = np.array([quantile(d, float(ui)) for ui in u])
    w = np.full(_DISCRETIZE_N, 1.0 / _DISCRETIZE_N)
    return xs, w


def expected_loss(d: PriorDistribution, loss: LossSpec, m: float) -> float:
    """E[l(X - m)] via partial moments when the loss is pinball- or
    quadratic-shaped, atom sums otherwise."""
    pin = pinball_coefficients(loss)
    if pin is not None:
        return pin[0] * partial_moment_plus(d, m, 1) + pin[1] * partial_moment_minus(d, m, 1)
    quad = quad_coefficients(loss)
    if quad is not None:
        return quad[0] * partial_moment_plus(d, m, 2) + quad[1] * partial_moment_minus(d, m, 2)
    if isinstance(d, Empirical):
        xs, w = d.values, d.weights
    else:
        xs, w = _discretized_atoms(d)
    vals = np.asarray(loss_value(loss, xs - m), dtype=float)
    if np.any(np.isinf(vals)):
        return INF
    return float(np.dot(w, vals))


def expected_transform(
    d: PriorDistribution, loss: LossSpec, cost: CostExponent, lam: float, m: float
) -> float:
    """E[l^{lam c}(X - m)]; +inf as soon as any mass maps to +inf."""
    kind = closed_form_kind(loss, cost)
    if kind == "pinball":
        a, b = pinball_coefficients(loss)  # type: ignore[misc]
        if lam < max(a, b):
            return INF
        return a * partial_moment_plus(d, m, 1) + b * partial_moment_minus(d, m, 1)
    if kind == "quad":
        a, b = quad_coefficients(loss)  # type: ignore[misc]
        thr = max(a, b)
        if lam < thr:
            return INF
        if lam == thr:
            if a == b:
                return INF
            if a > b:
                if prob_strictly_above(d, m) > 0.0:
                    return INF
                return (a * b / (a - b)) * partial_moment_minus(d, m, 2)
            if prob_strictly_below(d, m) > 0.0:
                return INF
            return (a * b / (b - a)) * partial_moment_plus(d, m, 2)
        big_a = a * lam / (lam - a)
        big_b = b * lam / (lam - b)
        return big_a * partial_moment_plus(d, m, 2) + big_b * partial_moment_minus(d, m, 2)
    if isinstance(d, Empirical):
        xs, w = d.values, d.weights
    else:
        xs, w = _discretized_atoms(d)
    t = lambda_c_transform_many(loss, cost, lam, xs - m)
    if np.any(np.isinf(t)):
        return INF
    return float(np.dot(w, t))


def _functional_detail(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    m: float,
    opt: SearchOptions,
) -> tuple[float, float, bool]:
    """(value, argmin lambda, boundary flag) of the dual minimization at m."""
    thr = finiteness_threshold(loss, cost)
    kind = closed_form_kind(loss, cost)

    if kind == "pinball":
        # transform == loss on lam >= max(a, b) and phi* is nondecreasing,
        # so the infimum sits exactly at the switching level
        c = conjugate(phi, thr)
        if math.isinf(c):
            raise Infeasible(
                f"conjugate is +inf at the finiteness threshold {thr!r}; "
                "the dual objective is +inf for every lambda"
            )
        return expected_transform(d, loss, cost, thr, m) + c, thr, True

    if isinstance(phi, BallPenalty) and phi.delta == 0.0:
        # radius zero keeps only the baseline law; the dual objective
        # decreases to the classical expectation as lam -> inf
        return expected_loss(d, loss, m), INF, True

    if isinstance(phi, LinearPenalty):
        if phi.delta <= thr:
            raise Infeasible(
                f"linear penalty slope {phi.delta!r} does not exceed the "
                f"finiteness threshold {thr!r}"
            )
        # conjugate is 0 up to delta and the transform expectation is
        # nonincreasing in lambda: the infimum is attained at lambda = delta
        return expected_transform(d, loss, cost, phi.delta, m), phi.delta, True

    lam_lo = thr + 1e-8 * max(1.0, thr)
    lam_cap = conjugate_domain_sup(phi)
    if lam_cap <= lam_lo:
        raise Infeasible(
            f"conjugate domain ends at {lam_cap!r}, at or below the finiteness "
            f"threshold {thr!r}"
        )

    def objective(lam: float) -> float:
        return expected_transform(d, loss, cost, lam, m) + conjugate(phi, lam)

    if math.isinf(lam_cap):
        hi = lam_lo + 1.0
        f_hi = objective(hi)
        bracketed = False
        for _ in range(opt.max_doublings):
            nxt = hi * 2.0
            f_nxt = objective(nxt)
            if f_nxt >= f_hi:
                hi = nxt
                bracketed = True
                break
            hi, f_hi = nxt, f_nxt
        if not bracketed:
            raise NoConvergence("no upper lambda bracket found for the dual search")
    else:
        hi = lam_cap

    lam_star, value, hit_cap = golden_section_min(
        objective, lam_lo, hi, tol=opt.lambda_tol, max_iter=opt.max_iter
    )
    if math.isinf(value):
        raise Infeasible("dual objective is +inf on the whole feasible range")
    if hit_cap:
        raise NoConvergence("lambda search exceeded the iteration budget")
    boundary = (lam_star - lam_lo) <= 10.0 * opt.lambda_tol or (
        not math.isinf(lam_cap) and (hi - lam_star) <= 10.0 * opt.lambda_tol
    )
    return value, lam_star, boundary


def robust_functional(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    m: float,
    options: Optional[SearchOptions] = None,
) -> float:
    """inf over lam >= 0 of E[l^{lam c}(X - m)] + phi*(lam).

    Raises Infeasible when the objective is +inf for every lambda.
    """
    opt = options or SearchOptions()
    value, _, _ = _functional_detail(d, loss, cost, phi, float(m), opt)
    return value


def _center_and_span(d: PriorDistribution) -> tuple[float, float]:
    if isinstance(d, Empirical):
        lo, hi = d.support
        return 0.5 * (lo + hi), max(0.5 * (hi - lo), 1.0)
    if isinstance(d, Normal):
        return d.mean, d.stddev
    if isinstance(d, Exponential):
        return 1.0 / d.rate, 1.0 / d.rate
    if isinstance(d, StudentT):
        if d.dof > 2.0:
            return d.location, d.scale * math.sqrt(d.dof / (d.dof - 2.0))
        return d.location, d.scale
    raise TypeError(f"unsupported distribution {type(d).__name__}")


def _minimize_in_m(
    f: Callable[[float], float],
    d: PriorDistribution,
    opt: SearchOptions,
) -> tuple[float, tuple[float, float], float, bool]:
    """Shared outer minimization over m: bracket, golden section, flat-bottom
    edge detection and a subgradient convergence certificate.

    Returns (min value, (m1, m2), m_star, converged).
    """
    if opt.restrict_to_support and isinstance(d, Empirical):
        lo, hi = d.support
        if hi == lo:
            v = f(lo)
            return v, (lo, hi), lo, True
        flat_left = flat_right = False
    else:
        center, span = _center_and_span(d)
        lo, hi, flat_left, flat_right = expand_bracket(
            f,
            center - span,
            center + span,
            max_doublings=opt.max_doublings,
            flat_tol=opt.flat_value_tol,
        )
    m_star, f_min, hit_cap = golden_section_min(
        f, lo, hi, tol=opt.m_tol, max_iter=opt.max_iter
    )
    m1, m2 = flat_minimum_edges(
        f,
        m_star,
        f_min,
        lo,
        hi,
        value_tol=opt.flat_value_tol,
        resolution=opt.interval_resolution,
    )
    if flat_left and m1 <= lo + opt.interval_resolution:
        m1 = lo
    if flat_right and m2 >= hi - opt.interval_resolution:
        m2 = hi

    # one-sided slopes just outside the reported interval: the objective must
    # not fall to the left of m1 nor to the right of m2
    h = max(opt.interval_resolution, 10.0 * opt.m_tol)
    left_ok = m1 - h <= lo or (f(m1) - f(m1 - h)) / h <= opt.foc_tol
    right_ok = m2 + h >= hi or (f(m2 + h) - f(m2)) / h >= -opt.foc_tol
    converged = (not hit_cap) and left_ok and right_ok
    return f_min, (m1, m2), m_star, converged


class _CountingObjective:
    def __init__(self, fn: Callable[[float], float]):
        self._fn = fn
        self.count = 0
        self._cache: dict[float, float] = {}

    def __call__(self, m: float) -> float:
        if m in self._cache:
            return self._cache[m]
        self.count += 1
        v = self._fn(m)
        self._cache[m] = v
        return v


def robust_oce(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Robust optimized certainty equivalent: inf_m { m + E_phi(l, X, m) }."""
    opt = options or SearchOptions()

    def bare(m: float) -> float:
        value, _, _ = _functional_detail(d, loss, cost, phi, m, opt)
        return m + value

    counting = _CountingObjective(bare)
    counting(_center_and_span(d)[0])  # raise Infeasible before any bracketing
    f_min, (m1, m2), m_star, converged = _minimize_in_m(counting, d, opt)
    _, lam_star, boundary = _functional_detail(d, loss, cost, phi, m_star, opt)
    return RobustValue(
        value=f_min,
        argmin_m=(m1, m2),
        argmin_lambda=lam_star,
        evaluations=counting.count,
        converged=converged,
        boundary_lambda=boundary,
    )


def classical_oce(
    d: PriorDistribution,
    loss: LossSpec,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Classical certainty equivalent inf_m { m + E[l(X - m)] }; same result
    shape as the robust solver with no dual layer (argmin_lambda is NaN)."""
    opt = options or SearchOptions()

    def bare(m: float) -> float:
        return m + expected_loss(d, loss, m)

    counting = _CountingObjective(bare)
    f_min, (m1, m2), m_star, converged = _minimize_in_m(counting, d, opt)
    return RobustValue(
        value=f_min,
        argmin_m=(m1, m2),
        argmin_lambda=math.nan,
        evaluations=counting.count,
        converged=converged,
        boundary_lambda=False,
    )


def argmin_interval_of_functional(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Minimize m -> E_phi(l, X, m) itself (no additive m term), reporting the
    full argmin interval; this is the engine behind robust generalized
    quantiles."""
    opt = options or SearchOptions()

    def bare(m: float) -> float:
        value, _, _ = _functional_detail(d, loss, cost, phi, m, opt)
        return value

    counting = _CountingObjective(bare)
    counting(_center_and_span(d)[0])
    f_min, (m1, m2), m_star, converged = _minimize_in_m(counting, d, opt)
    _, lam_star, boundary = _functional_detail(d, loss, cost, phi, m_star, opt)
    return RobustValue(
        value=f_min,
        argmin_m=(m1, m2),
        argmin_lambda=lam_star,
        evaluations=counting.count,
        converged=converged,
        boundary_lambda=boundary,
    )
