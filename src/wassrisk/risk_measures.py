"""VaR, expectiles, robust generalized quantiles and the two robust
expectile families.

The three expectiles are generalized quantiles of the squared asymmetric
loss AsymQuadratic(alpha) under the cost exponent p = 2 (Bellini, Klar,
Muller & Rosazza Gianin 2014): the classical one with no dual layer, the
robust ones under LinearPenalty(delta1) or BallPenalty(delta2).  Each is one
call of the outer solve `robust_core._solve_outer`, and a solve that fails
its certificate raises NoConvergence.

Under a linear penalty (and with no dual layer, or a ball of radius zero)
lambda* does not move with m, and the argmin is the root of the weighted
first-order condition

    -2*A*E[(X-m)^+] + 2*B*E[(X-m)^-] = 0,
    A = alpha*delta/(delta - alpha),   B = (1-alpha)*delta/(delta - (1-alpha)),

which also equals the classical expectile at the adjusted level A/(A+B); the
solve roots the FOC and the identity is kept as a test property.  An
empirical prior reads the root from its atom tables
(`Empirical.affine_root`, exact to rounding).  Under a ball of positive
radius lambda* moves with m, and the argmin is one root of the envelope
slope in m."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .distributions import PriorDistribution, quantile
from .errors import DeltaTooSmall, MomentUndefined, NoConvergence
from .losses import AsymQuadratic, CostExponent, LossSpec, _check_alpha, quad_transform_coefficients
from .penalizations import BallPenalty, LinearPenalty, Penalization
from .robust_core import RobustValue, SearchOptions, _solve_outer


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


def _expectile_detail(
    d: PriorDistribution, alpha: float, phi: Optional[Penalization], options: Optional[SearchOptions] = None
) -> RobustValue:
    """The robust generalized quantile of AsymQuadratic(alpha) under phi
    with p = 2 (phi None: the classical expectile); raises NoConvergence when
    the solve's certificate fails."""
    _require_second_moments(d)
    rv = _solve_outer(d, AsymQuadratic(alpha), CostExponent(2.0), phi, options, add_m=False)
    if not rv.converged:
        raise NoConvergence(f"expectile (alpha={alpha!r}, {phi!r}) fails its certificate at m = {rv.argmin_m[0]!r}")
    return rv


def expectile(d: PriorDistribution, alpha: float) -> float:
    """Unique m with alpha*E[(X-m)^+] = (1-alpha)*E[(X-m)^-]."""
    _check_alpha(alpha)
    return _expectile_detail(d, alpha, None).argmin_m[0]


def robust_expectile_linear(d: PriorDistribution, alpha: float, delta1: float) -> float:
    """Robust expectile under the linear penalty delta1 * distance."""
    ExpectileLevel(alpha, delta1)
    return _expectile_detail(d, alpha, LinearPenalty(delta1)).argmin_m[0]


def _ball_stats(
    d: PriorDistribution, alpha: float, delta2: float, options: Optional[SearchOptions] = None
) -> tuple[float, float, int]:
    """(robust expectile, minimizing lambda, dual solves at distinct m) for
    the ball penalty."""
    rv = _expectile_detail(d, alpha, BallPenalty(delta2), options)
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
