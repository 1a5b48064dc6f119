"""VaR, expectiles, robust generalized quantiles and the two robust
expectile families.

The linear-penalty robust expectile is the root of the weighted first-order
condition

    -2*A*E[(X-m)^+] + 2*B*E[(X-m)^-] = 0,
    A = alpha*delta/(delta - alpha),   B = (1-alpha)*delta/(delta - (1-alpha)),

which also equals the classical expectile at the adjusted level A/(A+B); the
implementation solves the FOC and the identity is kept as a test property.
The ball-penalty robust expectile minimizes the dual objective in lambda
after profiling out m, whose inner minimizer is again an expectile at a
lambda-dependent level; by the envelope theorem the profiled slope is the
dual's slope at that expectile, and its root is the minimizer.  Only when
the slope is already nonnegative next to the switching level does the dual's
own lambda search, `robust_core._lambda_search`, run over the sliver below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .distributions import (
    PriorDistribution,
    partial_moment_minus,
    partial_moment_plus,
    quantile,
)
from .errors import DeltaTooSmall, MomentUndefined
from .losses import CostExponent, LossSpec, _check_alpha, quad_transform_coefficients
from .penalizations import Penalization
from .robust_core import RobustValue, SearchOptions, _lambda_search, _solve_outer
from .solvers import increasing_root


@dataclass(frozen=True)
class ExpectileLevel:
    """Level alpha with linear-penalty slope delta and the induced adjusted
    level at which the classical expectile coincides with the robust one."""

    alpha: float
    delta: float
    adjusted_alpha: float = field(init=False)

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        thr = max(self.alpha, 1.0 - self.alpha)
        if not self.delta > thr:
            raise DeltaTooSmall(
                f"delta must exceed max(alpha, 1-alpha) = {thr!r}, got {self.delta!r}"
            )
        object.__setattr__(self, "adjusted_alpha", adjusted_level(self.alpha, self.delta))

    @property
    def coefficient_plus(self) -> float:
        return quad_transform_coefficients(self.alpha, 1.0 - self.alpha, self.delta)[0]  # type: ignore[index]

    @property
    def coefficient_minus(self) -> float:
        return quad_transform_coefficients(self.alpha, 1.0 - self.alpha, self.delta)[1]  # type: ignore[index]


def adjusted_level(alpha: float, lam: float) -> float:
    """A/(A+B) in a cancellation-free form, bounded in (0, 1) even as lam
    approaches max(alpha, 1-alpha)."""
    return alpha * (lam - (1.0 - alpha)) / (lam - 2.0 * alpha * (1.0 - alpha))


def var(d: PriorDistribution, alpha: float) -> float:
    """Lower alpha-quantile; satisfies P(X < q) <= alpha <= P(X <= q)."""
    return quantile(d, alpha)


def _require_second_moments(d: PriorDistribution) -> None:
    if not d.second_moments_finite():
        raise MomentUndefined("expectile computations need finite second moments")


def _asymmetric_root_stats(d: PriorDistribution, a: float, b: float) -> tuple[float, int]:
    """(root, FOC evaluation count) of m -> b*E[(X-m)^-] - a*E[(X-m)^+]."""
    count = [0]

    def foc(m: float) -> float:
        count[0] += 1
        return b * partial_moment_minus(d, m, 1) - a * partial_moment_plus(d, m, 1)

    lo, hi = d.bulk_interval()
    if hi == lo:
        return lo, 0
    return increasing_root(foc, lo, hi), count[0]


def _asymmetric_root(d: PriorDistribution, a: float, b: float) -> float:
    """Unique root of m -> b*E[(X-m)^-] - a*E[(X-m)^+] for a, b > 0."""
    root, _ = _asymmetric_root_stats(d, a, b)
    return root


def expectile(d: PriorDistribution, alpha: float) -> float:
    """Unique m with alpha*E[(X-m)^+] = (1-alpha)*E[(X-m)^-]."""
    _check_alpha(alpha)
    _require_second_moments(d)
    return _asymmetric_root(d, alpha, 1.0 - alpha)


def robust_expectile_linear(d: PriorDistribution, alpha: float, delta1: float) -> float:
    """Robust expectile under the linear penalty delta1 * distance."""
    level = ExpectileLevel(alpha, delta1)
    _require_second_moments(d)
    return _asymmetric_root(d, level.coefficient_plus, level.coefficient_minus)


def _ball_stats(
    d: PriorDistribution, alpha: float, delta2: float, options: Optional[SearchOptions] = None
) -> tuple[float, float, int]:
    """(robust expectile, minimizing lambda, inner-solve count) for the ball
    penalty; delta2 must be positive here.

    The profiled objective g(lam) = A*E[((X-m)^+)^2] + B*E[((X-m)^-)^2] +
    delta2*lam at its inner minimizer m(lam) is convex, and by the envelope
    theorem its slope is the partial derivative in lam with m held at m(lam),
    so the minimizer is the root of that slope.  The root is bracketed from
    thr*(1 + 1e-3), not from thr: next to thr, m(lam) sits on the prior's top
    or bottom atom and the partial moment there, below its own rounding
    error, would be divided by (lam - thr)^2.  A slope already nonnegative
    there leaves the lambda search over the sliver below."""
    opt = options or SearchOptions()
    a, b = alpha, 1.0 - alpha
    thr = max(a, b)
    ms: dict[float, float] = {}

    def inner_m(lam: float) -> float:
        if lam not in ms:
            tau = adjusted_level(alpha, lam)
            ms[lam] = _asymmetric_root(d, tau, 1.0 - tau)
        return ms[lam]

    def g_value(lam: float) -> float:
        m = inner_m(lam)
        big_a, big_b = quad_transform_coefficients(a, b, lam)  # type: ignore[misc]
        return big_a * partial_moment_plus(d, m, 2) + big_b * partial_moment_minus(d, m, 2) + delta2 * lam

    def g_slope(lam: float) -> float:
        m = inner_m(lam)
        plus, minus = partial_moment_plus(d, m, 2), partial_moment_minus(d, m, 2)
        return delta2 - a * a * plus / (lam - a) ** 2 - b * b * minus / (lam - b) ** 2

    lam_lo = thr * (1.0 + 1e-3)
    if g_slope(lam_lo) < 0.0:
        lam_star = increasing_root(g_slope, lam_lo, 2.0 * lam_lo)
    else:
        _, lam_star, _ = _lambda_search(g_value, thr + 1e-8, lam_lo, opt)
    return inner_m(lam_star), lam_star, len(ms)


def robust_expectile_ball(
    d: PriorDistribution, alpha: float, delta2: float, options: Optional[SearchOptions] = None
) -> float:
    """Robust expectile under the ball penalty of radius delta2.

    Radius zero admits only the baseline law and returns the classical
    expectile.
    """
    _check_alpha(alpha)
    if delta2 < 0.0:
        raise ValueError("ball radius delta2 must be nonnegative")
    _require_second_moments(d)
    if delta2 == 0.0:
        return expectile(d, alpha)
    value, _, _ = _ball_stats(d, alpha, delta2, options)
    return value


def robust_generalized_quantile(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    options: Optional[SearchOptions] = None,
) -> tuple[float, float]:
    """Closed argmin interval [m1, m2] of m -> E_phi(h, X, m).

    Flat bottoms (ties) are reported as the full interval, never collapsed
    to a silently chosen point.  Raises Infeasible when the functional is
    +inf everywhere.
    """
    return robust_generalized_quantile_detail(d, loss, cost, phi, options).argmin_m


def robust_generalized_quantile_detail(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Full solver result behind robust_generalized_quantile: the minimization
    of m -> E_phi(h, X, m) itself, with no additive m term."""
    return _solve_outer(d, loss, cost, phi, options, add_m=False)
