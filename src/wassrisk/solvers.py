"""Root-finding kernels used by the risk solvers.

A monotone root by Brent's method (Brent 1973, "Algorithms for Minimization
without Derivatives"), implemented here as a step-for-step port of scipy's
`brentq`, behind a bracket grown outward by doubling.  It serves the
numeric lambda solve on a piece of phi* and every outer solve over m that
is not read from a cdf or an atom table: the argmin set is where the
m-slope changes sign.  Its budgets are the module constants below; only
the stopping width is an argument.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Tuple

from .errors import NoConvergence

# Brent's iterations and the outward doublings of a bracket
MAX_ITER = 200
MAX_DOUBLINGS = 60
# Brent's relative stopping width, scipy's least and default rtol
_RTOL = 4.0 * sys.float_info.epsilon


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
