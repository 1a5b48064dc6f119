"""Scalar minimization and root-finding kernels used by the risk solvers.

Golden-section search over a bracket, outward bracket expansion that
distinguishes flat plateaus from unbounded descent, flat-minimum edge
detection, and a monotone-root helper wrapping Brent's method.  The first
three serve only the search over m of losses without a closed form.  Their
budgets and tolerances are the module constants below; only the golden
section's bracket tolerance and the root's stopping width are arguments.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from scipy.optimize import brentq

from .errors import NoConvergence

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# golden-section iterations, outward doublings of a bracket, the value gap
# that counts as flat, and the resolution of a flat minimum's edges
MAX_ITER = 200
MAX_DOUBLINGS = 60
FLAT_VALUE_TOL = 1e-10
INTERVAL_RESOLUTION = 1e-6


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> Tuple[float, float, bool]:
    """Minimize a unimodal f on [lo, hi]; returns (x, f(x), hit_iteration_cap)."""
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    c1 = b - _INVPHI * (b - a)
    c2 = a + _INVPHI * (b - a)
    f1, f2 = f(c1), f(c2)
    it = 0
    while (b - a) > tol and it < MAX_ITER:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INVPHI * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INVPHI * (b - a)
            f2 = f(c2)
        it += 1
    x = c1 if f1 <= f2 else c2
    fx = min(f1, f2)
    # keep endpoint minima honest for objectives decreasing into a boundary
    fa, fb = f(a), f(b)
    if fa < fx:
        x, fx = a, fa
    if fb < fx:
        x, fx = b, fb
    return x, fx, it >= MAX_ITER


def expand_bracket(
    f: Callable[[float], float], lo: float, hi: float
) -> Tuple[float, float, bool, bool]:
    """Widen [lo, hi] until both endpoint values clearly exceed the best value
    seen between them.

    A convex objective either gets bracketed, stays flat toward a side
    (reported via the flat flags; the plateau value is the infimum there), or
    decreases without bound, which raises NoConvergence.
    """
    lo, hi = float(lo), float(hi)
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    f_lo, f_hi = f(lo), f(hi)
    f_mid = f(0.5 * (lo + hi))

    # convex f that stops decreasing along a ray never decreases again, so one
    # non-decreasing doubling certifies a flat side; stopping there also keeps
    # the bracket small enough that float noise stays below FLAT_VALUE_TOL
    def widen(
        x: float, f_x: float, f_other: float, step: float, direction: float
    ) -> Tuple[float, float, bool]:
        best = min(f_mid, f_other)
        k = 0
        while f_x <= best + FLAT_VALUE_TOL:
            if k >= MAX_DOUBLINGS:
                side = "left" if direction < 0.0 else "right"
                raise NoConvergence(f"objective keeps decreasing toward -inf on the {side}")
            best = min(best, f_x)
            new_x = x + direction * step
            step *= 2.0
            f_new = f(new_x)
            k += 1
            flat = f_new >= f_x - FLAT_VALUE_TOL and f_new <= best + FLAT_VALUE_TOL
            x, f_x = new_x, f_new
            if flat:
                return x, f_x, True
        return x, f_x, False

    lo, f_lo, flat_left = widen(lo, f_lo, f_hi, max(hi - lo, 1.0), -1.0)
    hi, f_hi, flat_right = widen(hi, f_hi, f_lo, max(hi - lo, 1.0), 1.0)
    return lo, hi, flat_left, flat_right


def flat_minimum_edges(
    f: Callable[[float], float],
    x_star: float,
    f_min: float,
    lo: float,
    hi: float,
) -> Tuple[float, float]:
    """Edges of the region {x in [lo, hi]: f(x) <= f_min + FLAT_VALUE_TOL}
    around x_star, located to INTERVAL_RESOLUTION by expanding steps plus
    bisection."""

    def edge(direction: float) -> float:
        limit = hi if direction > 0 else lo
        inside = x_star
        if (limit - inside) * direction <= 0.0:
            return limit
        step = INTERVAL_RESOLUTION
        outside = None
        for _ in range(400):
            probe = inside + direction * step
            if (probe - limit) * direction >= 0.0:
                probe = limit
            if f(probe) <= f_min + FLAT_VALUE_TOL:
                inside = probe
                if probe == limit:
                    return limit
                step *= 2.0
            else:
                outside = probe
                break
        if outside is None:
            return inside
        for _ in range(400):
            if abs(outside - inside) <= INTERVAL_RESOLUTION:
                break
            mid = 0.5 * (inside + outside)
            if f(mid) <= f_min + FLAT_VALUE_TOL:
                inside = mid
            else:
                outside = mid
        return inside

    m1 = edge(-1.0)
    m2 = edge(+1.0)
    return min(m1, x_star), max(m2, x_star)


def increasing_root(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of a nondecreasing f, expanding [lo, hi] until it brackets zero;
    Brent's method stops at a bracket xtol + 4*eps*|x| wide."""
    lo, hi = float(lo), float(hi)
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    f_lo, f_hi = f(lo), f(hi)

    def widen(x: float, f_x: float, step: float, direction: float) -> Tuple[float, float]:
        # move x outward while f there is strictly on the wrong side of zero
        k = 0
        while direction * f_x < 0.0:
            if k >= MAX_DOUBLINGS:
                side = "left" if direction < 0.0 else "right"
                raise NoConvergence(f"no sign change found expanding {side}")
            x += direction * step
            step *= 2.0
            f_x = f(x)
            k += 1
        return x, f_x

    lo, f_lo = widen(lo, f_lo, max(hi - lo, 1.0), -1.0)
    hi, f_hi = widen(hi, f_hi, max(hi - lo, 1.0), 1.0)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    return float(brentq(f, lo, hi, xtol=xtol, maxiter=200))
