"""Per-atom grid-plus-golden supremum: the scalar lambda-c transform the
package used before the batched search, kept as a test oracle."""

import math

import numpy as np

from wassrisk.errors import UncertifiedGrowth
from wassrisk.losses import CostExponent, LossSpec, _growth_certificate, loss_value


def reference_sup(loss: LossSpec, cost: CostExponent, lam: float, x: float) -> float:
    """Grid-plus-golden maximization of l(y) - lam*|x-y|^p over a certified
    window [x-R, x+R]; outside it the objective sits below l(x) - 1."""
    c_eff = _growth_certificate(loss, cost)
    p = cost.p
    lx = float(loss_value(loss, x))
    radius = 1.0
    for _ in range(200):
        tail = c_eff * (1.0 + (abs(x) + radius) ** p) - lam * radius**p
        if tail <= lx - 1.0:
            break
        radius *= 2.0
    else:
        raise UncertifiedGrowth("could not certify a truncation radius; lambda too close to C")
    step = 1e-3
    n = int(min(2.0 * radius / step, 200_001)) + 1
    grid = np.linspace(x - radius, x + radius, n)
    step = grid[1] - grid[0]
    obj = np.asarray(loss_value(loss, grid)) - lam * np.abs(x - grid) ** p
    k = int(np.argmax(obj))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, n - 1)]

    def neg(y: float) -> float:
        return -(float(loss_value(loss, y)) - lam * abs(x - y) ** p)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = neg(c1), neg(c2)
    for _ in range(80):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = neg(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = neg(c2)
    best = max(float(obj[k]), -f1, -f2)
    return best
