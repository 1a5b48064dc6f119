"""VaR, expectiles, robust generalized quantiles and the two robust
expectile families.

The linear-penalty robust expectile is the root of the weighted first-order
condition

    -2*A*E[(X-m)^+] + 2*B*E[(X-m)^-] = 0,
    A = alpha*delta/(delta - alpha),   B = (1-alpha)*delta/(delta - (1-alpha)),

which also equals the classical expectile at the adjusted level A/(A+B); the
implementation solves the FOC and the identity is kept as a test property.
Both expectiles are the argmin of `robust_core._closed_form_argmin` for the
closed form (A, B) (or (alpha, 1 - alpha)) under p = 2, whose coefficients
do not move with m: an empirical prior reads it from its atom tables
(`Empirical.affine_root`, exact to rounding), other priors root the FOC in
m - centre from the prior's `center_and_span()`, and a root that fails its
certificate raises NoConvergence.
The ball-penalty robust expectile is the argmin over m of the ball robust
functional with the squared asymmetric loss: the robust generalized quantile
of AsymQuadratic(alpha) under BallPenalty(delta2) with p = 2, one root of the
envelope slope in m (`robust_core._solve_outer`).
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
from .errors import DeltaTooSmall, MomentUndefined, NoConvergence
from .losses import AsymQuadratic, CostExponent, LossSpec, _check_alpha, quad_transform_coefficients
from .penalizations import BallPenalty, Penalization
from .robust_core import RobustValue, SearchOptions, _closed_form_argmin, _solve_outer


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
    """(unique root, FOC evaluation count) of m -> b*E[(X-m)^-] - a*E[(X-m)^+]
    for a, b > 0: the minimizer of a*E[((X-m)^+)^2] + b*E[((X-m)^-)^2].  A
    finite-support prior reads the root from its atom tables, each table
    probe counting as one evaluation; raises NoConvergence when the root
    fails its certificate."""
    count = [0]

    def foc(m: float) -> float:
        count[0] += 1
        return b * partial_moment_minus(d, m, 1) - a * partial_moment_plus(d, m, 1)

    m, _, certified, probes = _closed_form_argmin(d, a, b, 2.0, 0.0, foc, fixed=(a, b))
    if not certified:
        raise NoConvergence(f"expectile root (a={a!r}, b={b!r}) fails its certificate at m = {m!r}")
    return m, count[0] + probes


def expectile(d: PriorDistribution, alpha: float) -> float:
    """Unique m with alpha*E[(X-m)^+] = (1-alpha)*E[(X-m)^-]."""
    _check_alpha(alpha)
    _require_second_moments(d)
    return _asymmetric_root_stats(d, alpha, 1.0 - alpha)[0]


def robust_expectile_linear(d: PriorDistribution, alpha: float, delta1: float) -> float:
    """Robust expectile under the linear penalty delta1 * distance."""
    level = ExpectileLevel(alpha, delta1)
    _require_second_moments(d)
    return _asymmetric_root_stats(d, level.coefficient_plus, level.coefficient_minus)[0]


def _ball_stats(
    d: PriorDistribution, alpha: float, delta2: float, options: Optional[SearchOptions] = None
) -> tuple[float, float, int]:
    """(robust expectile, minimizing lambda, dual solves at distinct m) for
    the ball penalty; raises NoConvergence when the solve's certificate
    fails."""
    rv = _solve_outer(d, AsymQuadratic(alpha), CostExponent(2.0), BallPenalty(delta2), options, add_m=False)
    if not rv.converged:
        raise NoConvergence(
            f"ball expectile (alpha={alpha!r}, delta2={delta2!r}) fails its certificate at m = {rv.argmin_m[0]!r}"
        )
    return rv.argmin_m[0], rv.argmin_lambda, rv.evaluations


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
    return _ball_stats(d, alpha, delta2, options)[0]


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
