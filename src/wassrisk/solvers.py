"""Scalar minimization and root-finding kernels used by the risk solvers.

Golden-section search over a bracket, outward bracket expansion that
distinguishes flat plateaus from unbounded descent, flat-minimum edge
detection, and a monotone root by Brent's method (Brent 1973, "Algorithms
for Minimization without Derivatives"), implemented here as a step-for-step
port of scipy's `brentq`.  The first three serve only the search over m of
losses without a closed form.  Their budgets and tolerances are the module
constants below; only the golden section's bracket tolerance and the root's
stopping width are arguments.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Tuple

from .errors import NoConvergence

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# golden-section iterations, outward doublings of a bracket, the value gap
# that counts as flat, and the resolution of a flat minimum's edges
MAX_ITER = 200
MAX_DOUBLINGS = 60
# Brent's relative stopping width, scipy's least and default rtol; its
# iteration budget is MAX_ITER
_RTOL = 4.0 * sys.float_info.epsilon
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
    Brent's method then starts from the bracket's end values, already known,
    and stops at a bracket xtol + 4*eps*|x| wide.  Raises NoConvergence,
    carrying the bracket and the last (x, f(x)), when no sign change turns up,
    f returns NaN, or Brent's method exhausts its budget."""
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
                raise NoConvergence(f"no sign change found expanding {side}", (lo, hi), (x, f_x))
            x += direction * step
            step *= 2.0
            f_x = f(x)
            k += 1
        return x, f_x

    lo, f_lo = widen(lo, f_lo, max(hi - lo, 1.0), -1.0)
    hi, f_hi = widen(hi, f_hi, max(hi - lo, 1.0), 1.0)
    return _brent(f, lo, f_lo, hi, f_hi, xtol)


def _brent(f: Callable[[float], float], xpre: float, fpre: float, xcur: float, fcur: float, xtol: float) -> float:
    """Brent's root of f on the bracket [xpre, xcur], whose end values fpre
    and fcur are given and differ in sign unless one is zero.

    A port of scipy's brentq.c, statement for statement: the same inverse
    quadratic interpolation, secant extrapolation and bisection steps, the
    same stopping width xtol + _RTOL*|x| and budget of MAX_ITER steps, so
    from the same bracket it evaluates f at the same points and returns the
    same root.  scipy raises ValueError on a NaN and RuntimeError on an
    exhausted budget; this raises NoConvergence for both.
    """
    bracket = (xpre, xcur)
    fpre, fcur = float(fpre), float(fcur)

    def fail(reason: str, x: float, fx: float) -> NoConvergence:
        return NoConvergence(f"Brent's root on {bracket!r} {reason}: f({x!r}) = {fx!r}", bracket, (x, fx))

    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre):
        raise fail("meets a NaN", xpre, fpre)
    if math.isnan(fcur):
        raise fail("meets a NaN", xcur, fcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3.0 * abs(sbis) - delta else 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise fail("meets a NaN", xcur, fcur)
    raise fail(f"did not converge in {MAX_ITER} steps", xcur, fcur)
