"""Golden-section minimization of a unimodal function on a bracket: the search
the package once ran over m for losses without a closed form, kept as a test
oracle independent of the slope roots the package now takes."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_ITER = 200


def golden_section_min(f, lo, hi, tol=1e-9):
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
