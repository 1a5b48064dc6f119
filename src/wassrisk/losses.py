"""Loss functions and their lambda-c transforms.

The transform of a loss l under cost |x-y|^p at level lam is

    sup_y { l(y) - lam * |x - y|^p },

an extended-real value (+inf is legal).  Closed forms are implemented for the
two canonical asymmetric families when the cost exponent matches the loss
power (pinball with p=1, one-sided quadratics with p=2); every other spec
falls back to a certified numeric supremum whose truncation radius comes
from the loss's polynomial growth bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import UncertifiedGrowth

INF = math.inf

_CERT_GRID = np.concatenate(
    [np.linspace(-50.0, 50.0, 1001), np.array([-1e3, -250.0, 250.0, 1e3])]
)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


@dataclass(frozen=True)
class Pinball:
    """h(x) = alpha*x^+ + (1-alpha)*x^-."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class AsymQuadratic:
    """h(x) = alpha*(x^+)^2 + (1-alpha)*(x^-)^2."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class PowerLoss:
    coefficient: float
    exponent: float

    def __post_init__(self) -> None:
        if self.coefficient < 0.0:
            raise ValueError("power-loss coefficient must be nonnegative")
        if self.exponent < 1.0:
            raise ValueError("power-loss exponent must be >= 1")


@dataclass(frozen=True)
class GeneralizedQuantile:
    """h(x) = alpha*l1(x^+) + (1-alpha)*l2(x^-) for power losses l1, l2."""

    alpha: float
    l1: PowerLoss
    l2: PowerLoss

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True, eq=False)
class CustomLoss:
    """Convex increasing loss given as a callable plus its growth certificate
    h(x) <= growth_constant * (1 + |x|^growth_power).

    Two custom losses are equal when they hold the same evaluator object (by
    identity: callables cannot be compared by value) and the same bound."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    growth_constant: float = 0.0
    growth_power: float = 1.0

    def __post_init__(self) -> None:
        if self.growth_constant < 0.0:
            raise ValueError("growth_constant must be nonnegative")
        if self.growth_power < 1.0:
            raise ValueError("growth_power must be >= 1")

    def _key(self) -> tuple:
        return (id(self.evaluator), self.growth_constant, self.growth_power)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CustomLoss):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


LossSpec = Union[Pinball, AsymQuadratic, GeneralizedQuantile, CustomLoss]


@dataclass(frozen=True)
class CostExponent:
    """Transport cost c(x, y) = |x - y|^p."""

    p: float

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise ValueError("cost exponent p must be >= 1")


def pinball_coefficients(loss: LossSpec) -> Optional[tuple[float, float]]:
    """(a, b) with h(x) = a*x^+ + b*x^-, or None if not of that shape."""
    if isinstance(loss, Pinball):
        return loss.alpha, 1.0 - loss.alpha
    if isinstance(loss, GeneralizedQuantile) and loss.l1.exponent == 1.0 and loss.l2.exponent == 1.0:
        return loss.alpha * loss.l1.coefficient, (1.0 - loss.alpha) * loss.l2.coefficient
    return None


def quad_coefficients(loss: LossSpec) -> Optional[tuple[float, float]]:
    """(a, b) with h(x) = a*(x^+)^2 + b*(x^-)^2, or None."""
    if isinstance(loss, AsymQuadratic):
        return loss.alpha, 1.0 - loss.alpha
    if isinstance(loss, GeneralizedQuantile) and loss.l1.exponent == 2.0 and loss.l2.exponent == 2.0:
        return loss.alpha * loss.l1.coefficient, (1.0 - loss.alpha) * loss.l2.coefficient
    return None


def quad_transform_coefficients(a: float, b: float, lam: float) -> Optional[tuple[float, float]]:
    """(A, B) with transform A*(x^+)^2 + B*(x^-)^2 of h(x) = a*(x^+)^2 +
    b*(x^-)^2 under the cost |x - y|^2 at level lam.

    Above max(a, b), A = a*lam/(lam - a) and B = b*lam/(lam - b).  At
    lam = max(a, b) with a != b, the side of the larger coefficient is +inf
    and the other has coefficient a*b/|a - b|.  None where the transform is
    +inf at every x: below max(a, b), or at it when a == b.
    """
    thr = max(a, b)
    if lam < thr or (lam == thr and a == b):
        return None
    if lam == thr:
        if a > b:
            return INF, a * b / (a - b)
        return a * b / (b - a), INF
    return a * lam / (lam - a), b * lam / (lam - b)


def closed_form_kind(loss: LossSpec, cost: CostExponent) -> Optional[str]:
    if cost.p == 1.0 and pinball_coefficients(loss) is not None:
        return "pinball"
    if cost.p == 2.0 and quad_coefficients(loss) is not None:
        return "quad"
    return None


def loss_value(loss: LossSpec, x) -> float | np.ndarray:
    """h(x); accepts scalars or numpy arrays."""
    xp = np.maximum(x, 0.0)
    xm = np.maximum(-np.asarray(x, dtype=float), 0.0)
    pin = pinball_coefficients(loss)
    if pin is not None:
        out = pin[0] * xp + pin[1] * xm
    else:
        quad = quad_coefficients(loss)
        if quad is not None:
            out = quad[0] * xp * xp + quad[1] * xm * xm
        elif isinstance(loss, GeneralizedQuantile):
            out = loss.alpha * loss.l1.coefficient * xp**loss.l1.exponent + (
                1.0 - loss.alpha
            ) * loss.l2.coefficient * xm**loss.l2.exponent
        elif isinstance(loss, CustomLoss):
            out = _custom_eval(loss, np.asarray(x, dtype=float))
        else:
            raise TypeError(f"unsupported loss {type(loss).__name__}")
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def _custom_eval(loss: CustomLoss, arr: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(loss.evaluator(arr), dtype=float)
        if out.shape == arr.shape:
            return out
    except Exception:
        pass
    return np.array([float(loss.evaluator(float(v))) for v in arr.ravel()]).reshape(arr.shape)


def _growth_certificate(loss: LossSpec, cost: CostExponent) -> float:
    """Constant C such that h(x) <= C*(1 + |x|^p) is certified on a grid.

    Raises UncertifiedGrowth when no bound with the cost's exponent exists
    (loss power above p) or when the stated bound fails numerically.
    """
    pin = pinball_coefficients(loss)
    if pin is not None:
        base_c, base_g = max(pin), 1.0
    else:
        quad = quad_coefficients(loss)
        if quad is not None:
            base_c, base_g = max(quad), 2.0
        elif isinstance(loss, GeneralizedQuantile):
            base_c = max(loss.alpha * loss.l1.coefficient, (1.0 - loss.alpha) * loss.l2.coefficient)
            base_g = max(loss.l1.exponent, loss.l2.exponent)
        elif isinstance(loss, CustomLoss):
            base_c, base_g = loss.growth_constant, loss.growth_power
        else:
            raise TypeError(f"unsupported loss {type(loss).__name__}")
    if base_g > cost.p:
        raise UncertifiedGrowth(
            f"loss grows like |x|^{base_g} but the cost exponent is {cost.p}"
        )
    # |x|^g <= 1 + |x|^p for g <= p, so the bound survives an exponent upgrade
    # at the price of a factor 2 outside the matched case.
    c_eff = base_c if base_g == cost.p else 2.0 * base_c
    if isinstance(loss, CustomLoss):
        vals = _custom_eval(loss, _CERT_GRID)
        bound = loss.growth_constant * (1.0 + np.abs(_CERT_GRID) ** loss.growth_power)
        bad = vals > bound + 1e-9 * (1.0 + np.abs(bound))
        if np.any(bad):
            x_bad = float(_CERT_GRID[np.argmax(bad)])
            raise UncertifiedGrowth(
                f"growth bound h(x) <= C(1+|x|^p) fails at x={x_bad!r}"
            )
    return c_eff


def finiteness_threshold(loss: LossSpec, cost: CostExponent) -> float:
    """Infimal lambda below which the transform is certified to be +inf.

    Closed-form families use the exact switching level max(a, b); everything
    else returns the (possibly conservative) certified growth constant.
    """
    kind = closed_form_kind(loss, cost)
    if kind == "pinball":
        return max(pinball_coefficients(loss))  # type: ignore[arg-type]
    if kind == "quad":
        return max(quad_coefficients(loss))  # type: ignore[arg-type]
    return _growth_certificate(loss, cost)


_GRID_STEP = 1e-3  # finest spacing of the argmax grid
_WINDOW_POINTS = 200_001  # a wider window gets a coarser spacing
_GRID_CAP = 1 << 19  # points per shared grid; atom sets needing more are split
_ZOOM_BUDGET = 4096  # points per refinement round, spread over the atoms


def _cost(d: np.ndarray, p: float) -> np.ndarray:
    """|d|^p, computed in place in d."""
    np.abs(d, out=d)
    if p != 1.0:
        np.power(d, p, out=d)
    return d


def _truncation_radii(c_eff: float, p: float, lam: float, xs: np.ndarray, lx: np.ndarray) -> np.ndarray:
    """Per atom, the first R in 1, 2, 4, ... with
    c_eff*(1 + (|x|+R)^p) - lam*R^p <= l(x) - 1: beyond [x-R, x+R] the
    objective sits below its value at y = x minus one."""
    radius = np.ones_like(xs)
    todo = np.arange(xs.size)
    ax = np.abs(xs)
    for _ in range(200):
        r = radius[todo]
        tail = c_eff * (1.0 + (ax[todo] + r) ** p) - lam * r**p
        todo = todo[tail > lx[todo] - 1.0]
        if todo.size == 0:
            return radius
        radius[todo] *= 2.0
    raise UncertifiedGrowth("could not certify a truncation radius; lambda too close to C")


def _shared_grid(lo: np.ndarray, hi: np.ndarray, step: float) -> Optional[np.ndarray]:
    """Sorted points covering the union of the windows [lo_i, hi_i] with
    spacing at most `step`; None when that takes more than _GRID_CAP points."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    left = lo[first]
    right = reach[np.append(first[1:] - 1, lo.size - 1)]
    counts = np.ceil((right - left) / step).astype(np.intp) + 1
    total = int(counts.sum())
    if total > _GRID_CAP:
        return None
    return np.concatenate([np.linspace(l, r, c) for l, r, c in zip(left, right, counts.tolist())])


def _monotone_argmax(
    gain: np.ndarray, grid: np.ndarray, xs: np.ndarray, lam: float, p: float,
    first: np.ndarray, last: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost argmax and max of every row of M[i, j] = gain[j] -
    lam*|xs[i] - grid[j]|^p, searched in columns first[i]..last[i], for
    ascending xs.

    M is Monge because |.|^p is convex, so the leftmost row argmax is
    nondecreasing in i: divide and conquer solves the middle row of every
    open row range at once, and its argmax splits the columns left to the
    rows above and below.  Each level touches O(n + G) entries, the whole
    search O((n + G) log n), and M is never formed.
    """
    n = xs.size
    arg = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    # open row ranges as columns [first row, last row, first col, last col]
    seg = np.array([[0], [n - 1], [0], [grid.size - 1]], dtype=np.intp)
    while seg.shape[1]:
        r_lo, r_hi, c_lo, c_hi = seg
        mid = (r_lo + r_hi) // 2
        lo = np.maximum(c_lo, first[mid])
        hi = np.minimum(c_hi, last[mid])
        bad = lo > hi
        if bad.any():
            # float ties can break monotonicity by a column; the window
            # itself always holds the row's argmax
            lo[bad], hi[bad] = first[mid[bad]], last[mid[bad]]
        if mid.size == 1:  # one contiguous column range: no gathers needed
            m, c0, c1 = int(mid[0]), int(lo[0]), int(hi[0]) + 1
            vals = gain[c0:c1] - lam * _cost(grid[c0:c1] - xs[m], p)
            j = int(np.argmax(vals))
            k = np.array([c0 + j])
            arg[m], best[m] = c0 + j, vals[j]
        else:
            counts = hi - lo + 1
            starts = np.cumsum(counts) - counts
            cols = np.repeat(lo - starts, counts)
            cols += np.arange(cols.size)
            d = grid[cols]
            d -= np.repeat(xs[mid], counts)
            d = _cost(d, p)
            d *= lam
            vals = gain[cols]
            vals -= d
            del d
            row_max = np.maximum.reduceat(vals, starts)
            hits = np.flatnonzero(vals == np.repeat(row_max, counts))
            k = cols[hits[np.searchsorted(hits, starts)]]
            arg[mid], best[mid] = k, row_max
        seg = np.concatenate(
            [np.stack([r_lo, mid - 1, c_lo, k])[:, mid > r_lo], np.stack([mid + 1, r_hi, k, c_hi])[:, mid < r_hi]],
            axis=1,
        )
    return arg, best


def _sorted_sup(
    loss: LossSpec, p: float, lam: float, xs: np.ndarray, radius: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """Suprema for ascending xs with certified radii and per-atom grid steps."""
    lo, hi = xs - radius, xs + radius
    grid = _shared_grid(lo, hi, float(step.min()))
    if grid is None:
        half = xs.size // 2
        return np.concatenate([
            _sorted_sup(loss, p, lam, xs[:half], radius[:half], step[:half]),
            _sorted_sup(loss, p, lam, xs[half:], radius[half:], step[half:]),
        ])
    gain = np.asarray(loss_value(loss, grid), dtype=float)
    if np.isnan(gain).any():
        raise ValueError("loss evaluator returned NaN")
    first = np.searchsorted(grid, lo, side="left")
    last = np.searchsorted(grid, hi, side="right") - 1
    k, best = _monotone_argmax(gain, grid, xs, lam, p, first, last)

    # zoom on [y_{k-1}, y_{k+1}]: every round evaluates a local grid of
    # `cells` cells per atom in one loss call and keeps the two cells around
    # its argmax, until the bracket is below 1e-12 relative.  About
    # _ZOOM_BUDGET points a round balance the per-round overhead against the
    # points evaluated: few atoms take few wide rounds, many take narrow ones.
    a = np.maximum(grid[np.maximum(k - 1, 0)], lo)
    b = np.minimum(grid[np.minimum(k + 1, grid.size - 1)], hi)
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    cells = 2 ** min(max(int(math.log2(_ZOOM_BUDGET / xs.size)), 3), 10)
    need = float(np.max((b - a) / tol))
    rounds = math.ceil(math.log(need) / math.log(cells / 2)) if need > 1.0 else 0
    t = np.linspace(0.0, 1.0, cells + 1)
    rows = np.arange(xs.size)
    for _ in range(rounds):
        pts = a[:, None] + (b - a)[:, None] * t
        vals = np.asarray(loss_value(loss, pts.ravel()), dtype=float).reshape(pts.shape)
        vals -= lam * _cost(pts - xs[:, None], p)
        j = np.argmax(vals, axis=1)
        best = np.maximum(best, vals[rows, j])
        a = pts[rows, np.maximum(j - 1, 0)]
        b = pts[rows, np.minimum(j + 1, cells)]
    return best


def _numeric_sup(loss: LossSpec, cost: CostExponent, lam: float, xs: np.ndarray, c_eff: float) -> np.ndarray:
    """sup_y { l(y) - lam*|x-y|^p } for every x in xs, for lam above the
    certified growth constant c_eff.

    Each atom's supremum lies in a certified window [x-R, x+R].  The loss is
    evaluated once on a grid covering the union of the windows, at the
    finest spacing any single window would get (1e-3, coarser only for
    windows wider than 200 units), a monotone matrix search finds every
    atom's grid argmax, and a batched zoom refines all atoms together to a
    relative bracket width of 1e-12.
    """
    p = cost.p
    lx = np.asarray(loss_value(loss, xs), dtype=float)
    radius = _truncation_radii(c_eff, p, lam, xs, lx)
    n_points = np.minimum(2.0 * radius / _GRID_STEP, _WINDOW_POINTS).astype(np.intp) + 1
    step = 2.0 * radius / (n_points - 1)
    order = np.argsort(xs, kind="stable")
    out = np.empty(xs.size)
    out[order] = _sorted_sup(loss, p, lam, xs[order], radius[order], step[order])
    return out


def lambda_c_transform(loss: LossSpec, cost: CostExponent, lam: float, x: float) -> float:
    """sup_y { l(y) - lam*|x-y|^p } as an extended real."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    kind = closed_form_kind(loss, cost)
    if kind == "pinball":
        a, b = pinball_coefficients(loss)  # type: ignore[misc]
        if lam >= max(a, b):
            return float(loss_value(loss, x))
        return INF
    if kind == "quad":
        coef = quad_transform_coefficients(*quad_coefficients(loss), lam)  # type: ignore[misc]
        if coef is None:
            return INF
        big_a, big_b = coef
        if x > 0.0:
            return big_a * x * x
        if x < 0.0:
            return big_b * x * x
        return x * x  # 0 (NaN stays NaN)
    c_eff = _growth_certificate(loss, cost)
    if lam <= c_eff:
        return INF
    return float(_numeric_sup(loss, cost, lam, np.array([float(x)]), c_eff)[0])


def lambda_c_transform_many(loss: LossSpec, cost: CostExponent, lam: float, xs) -> np.ndarray:
    """lambda_c_transform at every point of xs, as a float array.

    Losses without a closed form certify their growth once and share one
    grid and one refinement across all points."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    xs = np.asarray(xs, dtype=float).ravel()
    if closed_form_kind(loss, cost) is not None or xs.size == 0:
        return np.array([lambda_c_transform(loss, cost, lam, float(x)) for x in xs])
    c_eff = _growth_certificate(loss, cost)
    if lam <= c_eff:
        return np.full(xs.size, INF)
    return _numeric_sup(loss, cost, lam, xs, c_eff)


def check_L_membership(
    loss: LossSpec,
    cost: CostExponent,
    lam: float,
    grid: Sequence[float],
    tol: float = 1e-7,
) -> bool:
    """Numeric certificate for transform(x) >= transform(0) + x on the grid."""
    xs = np.asarray(grid, dtype=float).ravel()
    t = lambda_c_transform_many(loss, cost, lam, np.concatenate([[0.0], xs]))
    t0, tx = t[0], t[1:]
    if math.isinf(t0):
        return False
    return not np.any(np.isfinite(tx) & (tx < t0 + xs - tol))
