"""Worst-case expected loss under transport-penalized ambiguity.

The inner robust functional

    E_phi(l, X, m) = sup_mu { int l(x - m) dmu - phi(d_c(mu_X, mu)) }

is evaluated through its dual form inf_{lam >= 0} { E[l^{lam c}(X - m)] +
phi*(lam) }, a one-dimensional convex minimization.  The robust optimized
certainty equivalent adds an outer minimization of m + E_phi(l, X, m).

Analytic shortcuts cover the common penalty/loss pairs:

* cost exponent p = 1: the transform equals the loss itself from the
  finiteness threshold on (max(a, b) for a closed form; for a custom loss,
  convex with l <= C(1 + |x|) and so with slopes bounded by C, just above C), so
  E_phi = E[h(X-m)] + phi* at the lower end of that range, for every phi;
* phi* zero on its whole domain (linear phi, a ball of radius 0): the
  transform expectation is nonincreasing in lam, so the infimum sits at the
  end of that domain, the slope delta of a linear phi, or the lam -> inf
  limit of a zero radius, where only the baseline law is admissible and the
  functional collapses to the classical expectation.

Every other lambda solve walks the linear pieces of phi*: by the envelope
theorem the dual's slope on a piece is the piece's slope minus
G(lam) = E[|X - m - y*|^p], y* the maximizer inside the transform, and G
decreases, so the minimizer is a piece's left end or one root inside one
piece.  The quadratic family with p = 2 has G in closed form from the prior's
second partial moments at m, taken once, and its own root; other losses read
y* from the numeric supremum, one per lambda, and root with
`solvers.increasing_root`.  Every closed form takes its outer argmin set
exactly (`_closed_form_argmin`): with p = 2 and a > 0 a root of the slope in
m, which the envelope theorem gives in closed form; with p = 1, or a zero
side, a quantile set read from the cdf.  Where lambda does not move with m
(no dual layer, a linear penalty, a ball of radius zero) the slope takes no
dual solve, and a finite-support prior reads the root from its atom tables.
Each certifies itself: a set read from the cdf or the atom tables is exact,
and a root holds the sign bracket of its own slope evaluations.  Custom
losses and mismatched exponents search m by golden section, with the
`solvers` budgets, and certify it by one-sided steps.  One outer solve
(`_solve_outer`) serves every measure: the OCEs, the generalized quantiles
and, through them, the expectiles.  What makes the dual +inf at every m is
checked once, before any search (`_dual_floor`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import (
    PriorDistribution,
    partial_moment_minus,
    partial_moment_plus,
)
from .errors import Infeasible, NoConvergence
from .losses import (
    CostExponent,
    LossSpec,
    _numeric_sup,
    finiteness_threshold,
    lambda_c_transform_many,
    loss_value,
    quad_transform_coefficients,
    transform_coefficients,
)
from .penalizations import Penalization, conjugate
from .solvers import (
    FLAT_VALUE_TOL,
    INTERVAL_RESOLUTION,
    MAX_ITER,
    expand_bracket,
    flat_minimum_edges,
    golden_section_min,
    increasing_root,
)

INF = math.inf
_EPS = float(np.finfo(float).eps)

# the largest slope the golden path's certificate accepts outside the argmin
FOC_TOL = 1e-5
# how close to an end of its range lambda is flagged boundary_lambda
BOUNDARY_GAP = 1e-8
# a Newton step this small relative to lambda ends the exact lambda solve
_NEWTON_RTOL = 1e-15


@dataclass(frozen=True)
class SearchOptions:
    """Whether the outer search over m stays on the support of an empirical
    prior."""

    restrict_to_support: bool = False


@dataclass(frozen=True)
class RobustValue:
    """Result of a robust evaluation.

    argmin_m is the closed set of minimizers, never collapsed to an
    arbitrary point: exact for a closed form, an end at -inf or +inf for a
    ray flat past the support; a custom loss's flat bottom has its edges
    located to 1e-6.  argmin_lambda is the dual variable at the reported
    minimizer, with boundary_lambda flagging solutions sitting on the edge
    of the conjugate's domain.
    """

    value: float
    argmin_m: tuple[float, float]
    argmin_lambda: float
    evaluations: int
    converged: bool
    boundary_lambda: bool = False


def _partial_moment_sum(d: PriorDistribution, big_a: float, big_b: float, p: float, m: float) -> float:
    """A*E[((X - m)^+)^p] + B*E[((X - m)^-)^p]; an infinite side leaves a
    finite value only when it holds no mass."""
    if math.isinf(big_a):
        if d.mass_above(m):
            return INF
        return big_b * partial_moment_minus(d, m, p)
    if math.isinf(big_b):
        if d.mass_below(m):
            return INF
        return big_a * partial_moment_plus(d, m, p)
    return big_a * partial_moment_plus(d, m, p) + big_b * partial_moment_minus(d, m, p)


def expected_loss(d: PriorDistribution, loss: LossSpec, m: float) -> float:
    """E[l(X - m)] via partial moments when the loss has a closed form for
    its own growth exponent, atom sums otherwise."""
    _, p = loss.growth_bound()
    form = loss.closed_form(p)
    if form is not None:
        return _partial_moment_sum(d, *form, p, m)
    xs, w = d.atoms()
    vals = np.asarray(loss_value(loss, xs - m), dtype=float)
    if np.any(np.isinf(vals)):
        return INF
    return float(np.dot(w, vals))


def expected_transform(
    d: PriorDistribution, loss: LossSpec, cost: CostExponent, lam: float, m: float
) -> float:
    """E[l^{lam c}(X - m)]; +inf as soon as any mass maps to +inf."""
    form = loss.closed_form(cost.p)
    if form is not None:
        coef = transform_coefficients(*form, cost.p, lam)
        if coef is None:
            return INF
        return _partial_moment_sum(d, *coef, cost.p, m)
    xs, w = d.atoms()
    t = lambda_c_transform_many(loss, cost, lam, xs - m)
    if np.any(np.isinf(t)):
        return INF
    return float(np.dot(w, t))


def _dual_floor(
    loss: LossSpec, cost: CostExponent, phi: Penalization
) -> tuple[Optional[tuple[float, float]], float, float]:
    """(closed form, finiteness threshold, least lambda) of the dual, none of
    which depends on m.  Raises what makes the dual +inf at every m:
    UncertifiedGrowth for a custom loss, Infeasible when phi* (finite up to
    the end of its domain) is +inf at the least lambda or a linear slope does
    not exceed the threshold."""
    form = loss.closed_form(cost.p)
    thr = finiteness_threshold(loss, cost) if form is None else max(form)
    lam_lo = thr if cost.p == 1.0 and form is not None else thr + 1e-8 * max(1.0, thr)
    lam_end = phi.conjugate_domain_end()
    if cost.p == 1.0:
        if lam_end < lam_lo:
            raise Infeasible(
                f"conjugate is +inf at the finiteness threshold {thr!r}; "
                "the dual objective is +inf for every lambda"
            )
    elif phi.conjugate_vanishes:
        if lam_end <= thr:
            # a finite end here is the slope of a linear penalty
            raise Infeasible(
                f"linear penalty slope {lam_end!r} does not exceed the "
                f"finiteness threshold {thr!r}"
            )
    elif lam_end <= lam_lo:
        raise Infeasible(
            f"conjugate domain ends at {lam_end!r}, at or below the finiteness "
            f"threshold {thr!r}"
        )
    return form, thr, lam_lo


def _functional_detail(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    m: float,
) -> tuple[float, float, bool]:
    """(value, argmin lambda, boundary flag) of the dual minimization at m.

    A loss without a closed form has its growth certified here, once, for
    every numeric supremum below.  On a linear piece of phi* with slope s the
    dual's derivative is s - G(lam), G decreasing, so the minimizer is the
    left end of the first piece where s - G is already nonnegative (lam_lo
    or a kink of phi*), else the root of G = s inside the piece where it
    turns, or lam_cap when it never does."""
    form, thr, lam_lo = _dual_floor(loss, cost, phi)

    if cost.p == 1.0:
        # the transform is the loss itself from the threshold on (a convex
        # custom loss with l <= C(1 + |x|) has |l'| <= C) and phi* is
        # nondecreasing, so the infimum sits at the lower end of the range
        return expected_loss(d, loss, m) + conjugate(phi, lam_lo), lam_lo, True

    if form is None:
        mean, g = _numeric_dual(d, loss, cost, m, thr)

    lam_cap = phi.conjugate_domain_end()
    if phi.conjugate_vanishes:
        # phi* is zero on its whole domain and the transform expectation is
        # nonincreasing in lambda: the infimum sits at the end of the domain
        if math.isinf(lam_cap):
            # a ball of radius zero keeps only the baseline law; the dual
            # objective decreases to the classical expectation as lam -> inf
            return expected_loss(d, loss, m), INF, True
        value = expected_transform(d, loss, cost, lam_cap, m) if form is not None else mean(lam_cap)
        return value, lam_cap, True

    if form is not None:
        # p = 2: the prior enters the transform only through its second
        # partial moments at m, taken once; every lambda considered lies
        # above max(a, b), where both transform coefficients are finite
        a, b = form
        plus = partial_moment_plus(d, m, 2)
        minus = partial_moment_minus(d, m, 2)
        if not math.isfinite(a * plus + b * minus):
            raise Infeasible("dual objective is +inf on the whole feasible range")

        def g(lam: float) -> float:
            da, db = lam - a, lam - b
            return a * a * plus / (da * da) + b * b * minus / (db * db)

        def mean(lam: float) -> float:
            big_a, big_b = quad_transform_coefficients(a, b, lam)  # type: ignore[misc]
            return big_a * plus + big_b * minus

        def root(slope: float, left: float, right: float) -> float:
            return _quadratic_root(a, b, plus, minus, slope, left)

    else:

        def root(slope: float, left: float, right: float) -> float:
            return increasing_root(lambda lam: slope - g(lam), left, right if right < INF else 2.0 * left)

    for start, end, slope in phi.conjugate_pieces():
        left, right = max(start, lam_lo), min(end, lam_cap)
        if right < left or slope < g(right):
            continue
        lam_star = left if slope >= g(left) else root(slope, left, right)
        break
    else:
        lam_star = lam_cap
    value = mean(lam_star)
    if math.isinf(value):
        raise Infeasible("dual objective is +inf on the whole feasible range")
    boundary = lam_star - lam_lo <= BOUNDARY_GAP or lam_cap - lam_star <= BOUNDARY_GAP
    return value + conjugate(phi, lam_star), lam_star, boundary


def _numeric_dual(
    d: PriorDistribution, loss: LossSpec, cost: CostExponent, m: float, c_eff: float
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(mean, G) at m for a loss without a closed form: E[l^{lam c}(X - m)]
    and minus its lambda-slope G(lam) = E[|X - m - y*|^p], y* each atom's
    maximizer, both from one numeric supremum per lambda; G(inf) = 0."""
    xs, w = d.atoms()
    xs = xs - m

    @functools.cache
    def sup(lam: float) -> tuple[np.ndarray, np.ndarray]:
        return _numeric_sup(loss, cost, lam, xs, c_eff)

    def mean(lam: float) -> float:  # +inf as soon as any mass maps to +inf
        return float(np.dot(w, sup(lam)[0]))

    def g(lam: float) -> float:
        return 0.0 if math.isinf(lam) else float(np.dot(w, np.abs(xs - sup(lam)[1]) ** cost.p))

    return mean, g


def _quadratic_root(a: float, b: float, plus: float, minus: float, slope: float, lam: float) -> float:
    """The lambda above lam with G(lambda) = slope > 0, for G(lam) > slope.

    With ra = a*sqrt(plus/slope) and rb = b*sqrt(minus/slope) the condition
    reads (ra/(lambda - a))^2 + (rb/(lambda - b))^2 = 1, whose terms stay
    near 1 whatever the scale of lambda.  Equal coefficients solve it in
    closed form.  Otherwise Newton runs from the larger of lam, a + ra and
    b + rb, each a lower bound on the root; the left side is convex and
    decreasing, so the iterates rise to the root without passing it."""
    ra, rb = a * math.sqrt(plus / slope), b * math.sqrt(minus / slope)
    if a == b:
        return a + math.hypot(ra, rb)
    lam = max(lam, a + ra, b + rb)
    for _ in range(MAX_ITER):
        da, db = lam - a, lam - b
        ta, tb = (ra / da) ** 2, (rb / db) ** 2
        excess = ta + tb - 1.0
        if excess <= 0.0:
            return lam
        step = excess / (2.0 * (ta / da + tb / db))
        if step <= _NEWTON_RTOL * lam:
            return lam + step
        lam += step
    raise NoConvergence(f"Newton solve of the lambda condition G = {slope!r} did not settle")


def robust_functional(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    m: float,
) -> float:
    """inf over lam >= 0 of E[l^{lam c}(X - m)] + phi*(lam).

    Raises Infeasible when the objective is +inf for every lambda.
    """
    return _functional_detail(d, loss, cost, phi, float(m))[0]


def _closed_form_argmin(
    d: PriorDistribution,
    a: float,
    b: float,
    p: float,
    shift: float,
    slope: Callable[[float], float],
    lo: float = -INF,
    hi: float = INF,
    fixed: Optional[tuple[float, float]] = None,
) -> tuple[float, float, bool]:
    """(m1, m2, certified): the exact argmin set [m1, m2] over [lo, hi] of
    shift*m + g(m), g the expectation or robust functional of the closed
    form (a, b) under cost exponent p, whose derivative in m is `slope`.
    Under p = 2 with a > 0 (and b > 0 or a shift) it is one point.  When
    the slope's coefficients do not move with m (`fixed` = (A, B), the
    slope a positive multiple of shift - 2A*P1+(m) + 2B*P1-(m)) and the
    prior has finite support, the point is read from its atom tables
    (`affine_root`), exact to rounding.  Otherwise it is an end of a finite
    [lo, hi] where the slope points inward, else the slope's root taken in
    z = m - centre, which stops at m's own resolution and is certified when
    it lies in the sign bracket of the slope evaluations (the largest m with
    slope <= 0 to the smallest with slope >= 0), no wider than that stopping
    width plus the rounding of centre + z.  The remaining cases are [q-(tau), q+(tau)] at
    tau = (a - shift)/(a + b), clipped to [lo, hi]: with p = 1 the slope is
    shift - a + (a + b)*F(m), and a zero side under p = 2 is minimal where
    its one partial moment vanishes, a ray past the support (tau = 0 or 1).
    Every set but the Brent root is exact.  Raises NoConvergence when the
    set has no finite point.
    """
    if p == 2.0 and a > 0.0 and (b > 0.0 or shift):
        if fixed is not None and d.finite_support:
            m, _ = d.affine_root(shift, 2.0 * fixed[0], 2.0 * fixed[1])  # type: ignore[union-attr]
            m = min(max(m, lo), hi)
            return m, m, True
        if lo > -INF and slope(lo) >= 0.0:
            return lo, lo, True
        if hi < INF and slope(hi) <= 0.0:
            return hi, hi, True
        center, span = d.center_and_span()
        if not shift and not (d.mass_above(center) or d.mass_below(center)):
            return center, center, True
        xtol = max(1e-14, 2.0 * math.ulp(center))  # Brent's least step, xtol/2, moves m
        bracket = [-INF, INF]

        def signed(z: float) -> float:
            m = center + z
            s = slope(m)
            if s <= 0.0:
                bracket[0] = max(bracket[0], m)
            if s >= 0.0:
                bracket[1] = min(bracket[1], m)
            return s

        z = increasing_root(signed, -span, span, xtol)
        m = center + z
        width = xtol + 4.0 * _EPS * (abs(z) + abs(m))
        return m, m, bracket[0] <= m <= bracket[1] and bracket[1] - bracket[0] <= width
    if a + b == 0.0:  # a zero loss: the slope is the shift alone
        tau, m1, m2 = (-INF, -INF, -INF) if shift else (0.5, -INF, INF)
    else:
        tau = (a - shift) / (a + b)
        m1, m2 = d.quantile_set(tau) if 0.0 <= tau <= 1.0 else (math.copysign(INF, tau),) * 2
    m1, m2 = min(max(m1, lo), hi), max(min(m2, hi), lo)
    if m1 == m2 and math.isinf(m1):
        fall = "approaches its infimum" if 0.0 <= tau <= 1.0 else "keeps decreasing toward -inf"
        raise NoConvergence(f"objective {fall} on the {'left' if m1 < 0.0 else 'right'}")
    return m1, m2, True


def _solve_outer(
    d: PriorDistribution,
    loss: LossSpec,
    cost: Optional[CostExponent],
    phi: Optional[Penalization],
    options: Optional[SearchOptions],
    add_m: bool,
) -> RobustValue:
    """The one outer minimization over m, of m + E_phi(l, X, m) (add_m) or of
    E_phi(l, X, m) alone; phi None drops the dual layer, leaving E[l(X - m)].

    A closed form (a, b) under p in {1, 2} (the loss's own exponent when phi
    is None) takes its exact set from `_closed_form_argmin`, a quantile set
    or the root of the slope [1 if add_m] - 2*A*P1+(m) + 2*B*P1-(m), with
    (A, B) the transform coefficients at the dual's lambda*(m) (Danskin's
    theorem), certified by that solve itself.  When lambda* is the same at
    every m (no dual layer, a linear penalty, a ball of radius zero), (A, B)
    is fixed: the slope takes no dual solve, a finite-support prior reads the
    root from its atom tables, and the one dual solve is the value at m*.
    Custom losses and mismatched exponents run golden section in a bracket
    grown by doubling, locate the edges of a flat bottom and certify them by
    one-sided slopes outside the reported interval.  A penalty infeasible
    at every m raises before any search (`_dual_floor`).  (value, lambda,
    boundary) is memoised per m, so lambda at the minimizer is read back.
    """
    seen: dict[float, tuple[float, float, bool]] = {}
    p = loss.growth_bound()[1] if cost is None else cost.p
    form = loss.closed_form(p)
    if phi is not None:
        _dual_floor(loss, cost, phi)  # type: ignore[arg-type]
    fixed = None
    if form is not None and p == 2.0 and (phi is None or phi.conjugate_vanishes):
        # lambda* is the end of phi*'s domain at every m (+inf for a ball of
        # radius zero), so the slope's coefficients are fixed
        lam = INF if phi is None else phi.conjugate_domain_end()
        fixed = quad_transform_coefficients(*form, lam) if lam < INF else form

    def f(m: float) -> float:
        if m not in seen:
            if phi is None:
                seen[m] = (expected_loss(d, loss, m), math.nan, False)
            else:
                seen[m] = _functional_detail(d, loss, cost, phi, m)  # type: ignore[arg-type]
        return m + seen[m][0] if add_m else seen[m][0]

    def slope(m: float) -> float:
        if fixed is None:
            f(m)
            big_a, big_b = quad_transform_coefficients(*form, seen[m][1])  # type: ignore[misc]
        else:
            big_a, big_b = fixed
        return float(add_m) + _partial_moment_sum(d, -2.0 * big_a, 2.0 * big_b, 1.0, m)

    restricted = options is not None and options.restrict_to_support and d.finite_support
    lo, hi = d.support if restricted else (-INF, INF)
    if form is not None:
        m1, m2, converged = _closed_form_argmin(d, *form, p, float(add_m), slope, lo, hi, fixed)
        m_star = m1 if m1 > -INF else (m2 if m2 < INF else d.center_and_span()[0])
        f_min = f(m_star)
    else:
        center, span = d.center_and_span()
        bracket = (lo, hi, False, False) if restricted else expand_bracket(f, center - span, center + span)
        lo, hi, flat_left, flat_right = bracket
        m_star, f_min, hit_cap = golden_section_min(f, lo, hi)
        m1, m2 = flat_minimum_edges(f, m_star, f_min, lo, hi)
        if flat_left and m1 <= lo + INTERVAL_RESOLUTION:
            m1 = lo
        if flat_right and m2 >= hi - INTERVAL_RESOLUTION:
            m2 = hi
        # one step h outside either end, the objective must not fall by more
        # than a slope of FOC_TOL or 2 * FLAT_VALUE_TOL, the objective's own
        # accuracy (partial moments with noise near 1e-10, an atom just past
        # an edge)
        h = INTERVAL_RESOLUTION
        left_ok = right_ok = True
        if m1 - h > lo:
            fall = f(m1) - f(m1 - h)
            left_ok = fall / h <= FOC_TOL or fall <= 2.0 * FLAT_VALUE_TOL
        if m2 + h < hi:
            fall = f(m2) - f(m2 + h)
            right_ok = fall / h <= FOC_TOL or fall <= 2.0 * FLAT_VALUE_TOL
        converged = not hit_cap and left_ok and right_ok
    _, lam_star, boundary = seen[m_star]
    return RobustValue(
        value=f_min,
        argmin_m=(m1, m2),
        argmin_lambda=lam_star,
        evaluations=len(seen),
        converged=converged,
        boundary_lambda=boundary,
    )


def robust_oce(
    d: PriorDistribution,
    loss: LossSpec,
    cost: CostExponent,
    phi: Penalization,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Robust optimized certainty equivalent: inf_m { m + E_phi(l, X, m) }."""
    return _solve_outer(d, loss, cost, phi, options, add_m=True)


def classical_oce(
    d: PriorDistribution,
    loss: LossSpec,
    options: Optional[SearchOptions] = None,
) -> RobustValue:
    """Classical certainty equivalent inf_m { m + E[l(X - m)] }; same result
    shape as the robust solver with no dual layer (argmin_lambda is NaN)."""
    return _solve_outer(d, loss, None, None, options, add_m=True)
