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
* phi* zero on its whole domain (its last linear piece has slope 0: a
  linear phi, a ball of radius 0): the transform expectation is
  nonincreasing in lam, so the infimum sits at the end of that domain, the
  slope delta of a linear phi, or the lam -> inf limit of a zero radius,
  where only the baseline law is admissible and the functional collapses to
  the classical expectation.

Every other lambda solve walks the linear pieces of phi*: by the envelope
theorem the dual's slope on a piece is the piece's slope minus
G(lam) = E[|X - m - y*|^p], y* the maximizer inside the transform, and G
decreases, so the minimizer is a piece's left end or one root inside one
piece.  The quadratic family with p = 2 has G in closed form from the prior's
second partial moments at m, taken once, and its own root; other losses read
y* from the numeric supremum, one per lambda, and root with
`solvers.increasing_root`.  Every outer argmin set is where the m-slope
changes sign: a closed form's slope is exact (Danskin's theorem), a quantile
set read from the cdf under p = 1 or a zero side, or a root that a
finite-support prior reads from its atom tables where lambda does not move
with m; other losses take y* or a backward difference of the loss, with a
rounding band, and the set between the roots of slope plus and minus band.
Each set certifies itself: a read is exact, and a root holds the sign
bracket of its own slope evaluations.  One outer solve (`_solve_outer`)
serves every measure: the OCEs, the generalized quantiles and, through
them, the expectiles.  Each solve builds its dual once (`_dual`), from
phi*'s pieces and the finiteness threshold: what makes it +inf at every m
raises there, before any search, and where lambda* does not move with m it
is fixed there too.
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
from .solvers import MAX_ITER, increasing_root

INF = math.inf
_EPS = float(np.finfo(float).eps)

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
    ray flat past the support; without a closed form, the roots of the
    m-slope plus and minus its rounding band.  argmin_lambda is the dual
    variable at the reported minimizer, with boundary_lambda flagging
    solutions sitting on the edge of the conjugate's domain.
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


def _dual(
    d: PriorDistribution, loss: LossSpec, cost: CostExponent, phi: Penalization
) -> tuple[Optional[float], Callable[[float], tuple[float, float, bool, Optional[np.ndarray]]]]:
    """(lambda_fixed, at) of the dual minimization over lambda, built once
    per solve; at(m) gives (value, argmin lambda, boundary flag, y*).

    Raises what makes the dual +inf at every m: UncertifiedGrowth for a
    custom loss (certified here, once, for every numeric supremum below),
    Infeasible when phi*'s domain ends below the finiteness threshold, or at
    it under p > 1.  lambda_fixed is lambda* where it does not move with m:
    under p = 1 the threshold, since the transform is the loss itself from
    there on (a convex custom loss with l <= C(1 + |x|) has |l'| <= C) and
    phi* is nondecreasing; when phi*'s last piece has slope 0 (so every
    slope is 0) the domain's end, since the transform expectation is
    nonincreasing in lambda (+inf for a ball of radius zero, whose dual is
    E[l(X - m)]).  Otherwise it is None and at(m) walks the pieces: on one
    with slope s the dual's derivative is s - G(lam), G decreasing, so the
    minimizer is the left end of the first piece where s - G is already
    nonnegative (lam_lo or a kink of phi*), else the root of G = s inside
    the piece where it turns, or lam_cap when it never does.  y* is the
    numeric supremum's maximizer per atom at lambda*, in z = x - m, and None
    for a closed form or where the dual is E[l(X - m)] plus a constant."""
    form = loss.closed_form(cost.p)
    thr = finiteness_threshold(loss, cost)
    pieces = phi.conjugate_pieces()
    lam_cap = pieces[-1][1]
    if lam_cap < thr or (lam_cap == thr and cost.p != 1.0):
        raise Infeasible(
            f"conjugate domain ends at {lam_cap!r}, below the finiteness threshold {thr!r} "
            "or at it under p > 1; the dual objective is +inf for every lambda"
        )

    if cost.p == 1.0:
        floor = conjugate(phi, thr)
        return thr, lambda m: (expected_loss(d, loss, m) + floor, thr, True, None)

    if pieces[-1][2] == 0.0:
        if math.isinf(lam_cap):
            return INF, lambda m: (expected_loss(d, loss, m), INF, True, None)
        if form is not None:
            return lam_cap, lambda m: (expected_transform(d, loss, cost, lam_cap, m), lam_cap, True, None)
        xs, w = d.atoms()

        def at_cap(m: float) -> tuple:
            t, y = _numeric_sup(loss, cost, lam_cap, xs - m, thr)
            return float(np.dot(w, t)), lam_cap, True, y

        return lam_cap, at_cap

    lam_lo = thr + 1e-8 * max(1.0, thr)

    def at(m: float) -> tuple:
        if form is None:
            mean, g, sup = _numeric_dual(d, loss, cost, m, thr)

            def root(slope: float, left: float, right: float) -> float:
                return increasing_root(lambda lam: slope - g(lam), left, right if right < INF else 2.0 * left)

        else:
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

        for start, end, slope in pieces:
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
        ystar = None if form is not None else sup(lam_star)[1]
        return value + conjugate(phi, lam_star), lam_star, boundary, ystar

    return None, at


def _numeric_dual(
    d: PriorDistribution, loss: LossSpec, cost: CostExponent, m: float, c_eff: float
) -> tuple[Callable[[float], float], Callable[[float], float], Callable[[float], tuple]]:
    """(mean, G, sup) at m for a loss without a closed form: E[l^{lam c}(X - m)]
    and minus its lambda-slope G(lam) = E[|X - m - y*|^p], y* each atom's
    maximizer, both from one numeric supremum per lambda, kept by `sup`;
    G(inf) = 0."""
    xs, w = d.atoms()
    xs = xs - m

    @functools.cache
    def sup(lam: float) -> tuple[np.ndarray, np.ndarray]:
        return _numeric_sup(loss, cost, lam, xs, c_eff)

    def mean(lam: float) -> float:  # +inf as soon as any mass maps to +inf
        return float(np.dot(w, sup(lam)[0]))

    def g(lam: float) -> float:
        return 0.0 if math.isinf(lam) else float(np.dot(w, np.abs(xs - sup(lam)[1]) ** cost.p))

    return mean, g, sup


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
    return _dual(d, loss, cost, phi)[1](float(m))[0]


def _slope_root(
    slope: Callable[[float], float], center: float, span: float, lo: float, hi: float
) -> tuple[float, bool]:
    """(m, certified): an end of a finite [lo, hi] where the nondecreasing
    slope points inward, else its root taken in z = m - centre, which stops
    at m's own resolution and is certified when it lies in the sign bracket
    of the slope evaluations (the largest m with slope <= 0 to the smallest
    with slope >= 0), no wider than that stopping width plus the rounding of
    centre + z.  increasing_root's NoConvergence passes through."""
    if lo > -INF and slope(lo) >= 0.0:
        return lo, True
    if hi < INF and slope(hi) <= 0.0:
        return hi, True
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
    return m, bracket[0] <= m <= bracket[1] and bracket[1] - bracket[0] <= width


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
    Under p = 2 with a > 0 (and b > 0 or a shift) it is one point, read from
    a finite-support prior's atom tables (`affine_root`) when the slope's
    coefficients do not move with m (`fixed` = (A, B), the slope then
    shift - 2A*P1+(m) + 2B*P1-(m)), else the slope's root (`_slope_root`).
    The remaining cases are [q-(tau), q+(tau)] at tau = (a - shift)/(a + b),
    clipped to [lo, hi]: with p = 1 the slope is shift - a + (a + b)*F(m),
    and a zero side under p = 2 is minimal where its one partial moment
    vanishes, a ray past the support (tau = 0 or 1).  Every set but the
    Brent root is exact.  Raises NoConvergence when the set has no finite
    point.
    """
    if p == 2.0 and a > 0.0 and (b > 0.0 or shift):
        if fixed is not None and d.finite_support:
            m, _ = d.affine_root(shift, 2.0 * fixed[0], 2.0 * fixed[1])  # type: ignore[union-attr]
            m = min(max(m, lo), hi)
            return m, m, True
        center, span = d.center_and_span()
        if not shift and not (d.mass_above(center) or d.mass_below(center)):
            return center, center, True
        m, certified = _slope_root(slope, center, span, lo, hi)
        return m, m, certified
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

    Every argmin set is where the m-slope [1 if add_m] - E[psi(X - m)]
    changes sign, psi the transform's derivative at the dual's lambda*(m)
    (Danskin's theorem).  A closed form (a, b) under p in {1, 2} (the loss's
    own exponent when phi is None) takes its exact set from
    `_closed_form_argmin`, with psi(z) = 2*A*z^+ - 2*B*z^- for the transform
    coefficients (A, B) at lambda*(m), fixed where `_dual` fixes lambda* at
    every m (or with no dual layer, lambda = inf) so that the slope takes no
    dual solve.  Other losses take theirs from `_numeric_argmin`.  The dual
    is built once, before any search, and raises there for a penalty
    infeasible at every m.  The value is the objective at a finite point of
    the set; (value, lambda, boundary, y*) is memoised per m.
    """
    seen: dict[float, tuple] = {}
    p = loss.growth_bound()[1] if cost is None else cost.p
    form = loss.closed_form(p)
    if phi is None:
        lam_fixed, at = INF, lambda m: (expected_loss(d, loss, m), math.nan, False, None)
    else:
        lam_fixed, at = _dual(d, loss, cost, phi)  # type: ignore[arg-type]
    fixed = None
    if form is not None and p == 2.0 and lam_fixed is not None:
        fixed = quad_transform_coefficients(*form, lam_fixed) if lam_fixed < INF else form

    def dual(m: float) -> tuple:
        if m not in seen:
            seen[m] = at(m)
        return seen[m]

    restricted = options is not None and options.restrict_to_support and d.finite_support
    lo, hi = d.support if restricted else (-INF, INF)
    if form is not None:

        def slope(m: float) -> float:
            if fixed is None:
                big_a, big_b = quad_transform_coefficients(*form, dual(m)[1])  # type: ignore[misc]
            else:
                big_a, big_b = fixed
            return float(add_m) + _partial_moment_sum(d, -2.0 * big_a, 2.0 * big_b, 1.0, m)

        m1, m2, converged = _closed_form_argmin(d, *form, p, float(add_m), slope, lo, hi, fixed)
    else:
        # the dual is E[l(X - m)] plus a constant at p = 1 and where
        # lambda* = inf (no dual layer, a ball of radius zero)
        collapsed = p == 1.0 or lam_fixed == INF
        m1, m2, converged = _numeric_argmin(d, loss, p, add_m, None if collapsed else dual, lo, hi)
    m_star = m1 if m1 > -INF else (m2 if m2 < INF else d.center_and_span()[0])
    value, lam_star, boundary, _ = dual(m_star)
    return RobustValue(
        value=m_star + value if add_m else value,
        argmin_m=(m1, m2),
        argmin_lambda=lam_star,
        evaluations=len(seen),
        converged=converged,
        boundary_lambda=boundary,
    )


def _numeric_argmin(
    d: PriorDistribution, loss: LossSpec, p: float, add_m: bool, dual: Optional[Callable], lo: float, hi: float
) -> tuple[float, float, bool]:
    """(m1, m2, certified) for a loss without a closed form, from its m-slope
    s = [1 if add_m] - E[psi(Z)] on Z = X - m, which does not move under a
    shift, and the slope's rounding band eps.  With `dual`, the dual solve
    at m, psi(z) = lam*p*|y* - z|^(p-1)*sign(y* - z) at its lambda* and
    maximizers y*, and eps spans psi over y*'s resolution r: a smooth
    maximum is placed only to where the transform's objective falls by its
    rounding below the top, r = sqrt(2*rounding/curvature) from its second
    difference over y* -+ 1e-3 (the supremum's grid step), between that step
    and the supremum's 1e-12 relative bracket.  Without it the dual is
    E[l(Z)] plus a constant and psi the backward difference
    (l(z) - l(z - h))/h, h the power of two nearest 1e-9 times the larger of
    the prior's span and |m - centre| (z - h must differ from z far out),
    with eps = 4*eps_mach*E[|l(z)| + |l(z - h)|]/h.  m1 is the root of
    s + eps and m2 that of s - eps (`_slope_root`).  A side with no sign
    change is a ray, its end at -inf or +inf, when s lies inside its band at
    the farthest probe; otherwise the root's NoConvergence stands."""
    xs, w = d.atoms()
    center, span = d.center_and_span()

    @functools.cache
    def slope(m: float) -> tuple[float, float]:
        z = xs - m
        if dual is None:
            h = 2.0 ** round(math.log2(1e-9 * max(span, abs(m - center))))
            now, before = loss_value(loss, z), loss_value(loss, z - h)
            psi = float(np.dot(w, now - before)) / h
            eps = 4.0 * _EPS * float(np.dot(w, np.abs(now) + np.abs(before))) / h
        else:
            _, lam, _, y = dual(m)

            def mean_psi(y: np.ndarray) -> float:
                gap = y - z
                return lam * p * float(np.dot(w, np.abs(gap) ** (p - 1.0) * np.sign(gap)))

            def objective(y: np.ndarray) -> np.ndarray:  # the transform's l(y) - lam*|y - z|^p
                return np.asarray(loss_value(loss, y), dtype=float) - lam * np.abs(y - z) ** p

            step, top = 1e-3, objective(y)
            fall = 2.0 * top - objective(y - step) - objective(y + step)
            rounding = 4.0 * _EPS * (np.abs(top) + 2.0 * lam * np.abs(y - z) ** p)  # covers |l| + cost
            r = step * np.sqrt(np.divide(2.0 * rounding, fall, out=np.ones_like(fall), where=fall > 2.0 * rounding))
            r = np.maximum(r, 1e-12 * np.maximum(1.0, np.abs(y)))
            psi = mean_psi(y)
            eps = 0.5 * (mean_psi(y + r) - mean_psi(y - r))
        return float(add_m) - psi, eps

    ends, certified = [], True
    for sign in (1.0, -1.0):
        try:
            m, ok = _slope_root(lambda m, sign=sign: slope(m)[0] + sign * slope(m)[1], center, span, lo, hi)
        except NoConvergence as exc:
            if exc.last is None or not sign * exc.last[1] > 0.0:
                raise
            s, eps = slope(center + exc.last[0])
            if sign * s > eps:
                raise
            m, ok = -sign * INF, True
        ends.append(m)
        certified = certified and ok
    return min(ends), max(ends), certified


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
