"""Loss functions and their lambda-c transforms.

The transform of a loss l under cost |x-y|^p at level lam is

    sup_y { l(y) - lam * |x - y|^p },

an extended-real value (+inf is legal).  The built-in families are all
h(x) = a*(x^+)^g + b*(x^-)^k; each records its two sides at construction and
gives its value, its growth bound and, for a cost exponent p in {1, 2} with
g = k = p, the closed form (a, b), whose transform is A*(x^+)^p + B*(x^-)^p
(`transform_coefficients`).  A `CustomLoss` gives its evaluator and its
stated growth bound, checked on a grid.  Losses without a closed form for the
cost fall back to a certified numeric supremum whose truncation radius comes
from the growth bound.  The module functions dispatch to the loss class.
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


class _TwoSided:
    """Behaviour shared by the built-in families h(x) = a*(x^+)^g + b*(x^-)^k.

    Each family stores (a, g, b, k) as `_sides` in its `__post_init__`,
    outside the dataclass fields, so equality, hashing and repr see the
    family's own parameters only."""

    def value(self, x):
        a, g, b, k = self._sides
        xp = np.maximum(x, 0.0)
        xm = np.maximum(-np.asarray(x, dtype=float), 0.0)
        if g == k == 1.0:
            return a * xp + b * xm
        if g == k == 2.0:
            return a * xp * xp + b * xm * xm
        return a * xp**g + b * xm**k

    def growth_bound(self) -> tuple[float, float]:
        """(C, g) with h(x) <= C*(1 + |x|^g)."""
        a, g, b, k = self._sides
        return max(a, b), max(g, k)

    def check_growth_bound(self) -> None:
        """The bound holds by construction."""

    def closed_form(self, p: float) -> Optional[tuple[float, float]]:
        """(a, b) when both sides have the cost exponent p in {1, 2}."""
        a, g, b, k = self._sides
        if g == k == p and p in (1.0, 2.0):
            return a, b
        return None


@dataclass(frozen=True)
class Pinball(_TwoSided):
    """h(x) = alpha*x^+ + (1-alpha)*x^-."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        object.__setattr__(self, "_sides", (self.alpha, 1.0, 1.0 - self.alpha, 1.0))


@dataclass(frozen=True)
class AsymQuadratic(_TwoSided):
    """h(x) = alpha*(x^+)^2 + (1-alpha)*(x^-)^2."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        object.__setattr__(self, "_sides", (self.alpha, 2.0, 1.0 - self.alpha, 2.0))


@dataclass(frozen=True)
class PowerLoss:
    coefficient: float
    exponent: float

    def __post_init__(self) -> None:
        if not (self.coefficient >= 0.0 and math.isfinite(self.coefficient)):
            raise ValueError("power-loss coefficient must be a nonnegative real")
        if not (self.exponent >= 1.0 and math.isfinite(self.exponent)):
            raise ValueError("power-loss exponent must be a real >= 1")


@dataclass(frozen=True)
class GeneralizedQuantile(_TwoSided):
    """h(x) = alpha*l1(x^+) + (1-alpha)*l2(x^-) for power losses l1, l2."""

    alpha: float
    l1: PowerLoss
    l2: PowerLoss

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        a, b = self.alpha * self.l1.coefficient, (1.0 - self.alpha) * self.l2.coefficient
        object.__setattr__(self, "_sides", (a, self.l1.exponent, b, self.l2.exponent))


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
        if not (self.growth_constant >= 0.0 and math.isfinite(self.growth_constant)):
            raise ValueError("growth_constant must be a nonnegative real")
        if not (self.growth_power >= 1.0 and math.isfinite(self.growth_power)):
            raise ValueError("growth_power must be a real >= 1")

    def _key(self) -> tuple:
        return (id(self.evaluator), self.growth_constant, self.growth_power)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CustomLoss):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def value(self, x) -> np.ndarray:
        """The evaluator on an array, point by point if it only takes scalars."""
        arr = np.asarray(x, dtype=float)
        try:
            out = np.asarray(self.evaluator(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except Exception:
            pass
        return np.array([float(self.evaluator(float(v))) for v in arr.ravel()]).reshape(arr.shape)

    def growth_bound(self) -> tuple[float, float]:
        return self.growth_constant, self.growth_power

    def check_growth_bound(self) -> None:
        """Raise UncertifiedGrowth where the stated bound fails on a grid."""
        vals = self.value(_CERT_GRID)
        bound = self.growth_constant * (1.0 + np.abs(_CERT_GRID) ** self.growth_power)
        bad = vals > bound + 1e-9 * (1.0 + np.abs(bound))
        if np.any(bad):
            x_bad = float(_CERT_GRID[np.argmax(bad)])
            raise UncertifiedGrowth(
                f"growth bound h(x) <= C(1+|x|^p) fails at x={x_bad!r}"
            )

    def closed_form(self, p: float) -> None:
        return None


LossSpec = Union[Pinball, AsymQuadratic, GeneralizedQuantile, CustomLoss]


@dataclass(frozen=True)
class CostExponent:
    """Transport cost c(x, y) = |x - y|^p."""

    p: float

    def __post_init__(self) -> None:
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise ValueError("cost exponent p must be a real >= 1")


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


def transform_coefficients(a: float, b: float, p: float, lam: float) -> Optional[tuple[float, float]]:
    """(A, B) with transform A*(x^+)^p + B*(x^-)^p of the closed form (a, b)
    under the cost |x - y|^p at level lam, for p in {1, 2}; None where the
    transform is +inf at every x.

    With p = 1 the transform is the loss itself from lam = max(a, b) on."""
    if p == 1.0:
        return (a, b) if lam >= max(a, b) else None
    return quad_transform_coefficients(a, b, lam)


def loss_value(loss: LossSpec, x) -> float | np.ndarray:
    """h(x); accepts scalars or numpy arrays."""
    out = loss.value(x)
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def _growth_certificate(loss: LossSpec, cost: CostExponent) -> float:
    """Constant C such that h(x) <= C*(1 + |x|^p) is certified on a grid.

    Raises UncertifiedGrowth when no bound with the cost's exponent exists
    (loss power above p) or when the stated bound fails numerically.
    """
    base_c, base_g = loss.growth_bound()
    if base_g > cost.p:
        raise UncertifiedGrowth(
            f"loss grows like |x|^{base_g} but the cost exponent is {cost.p}"
        )
    # |x|^g <= 1 + |x|^p for g <= p, so the bound survives an exponent upgrade
    # at the price of a factor 2 outside the matched case.
    c_eff = base_c if base_g == cost.p else 2.0 * base_c
    loss.check_growth_bound()
    return c_eff


def finiteness_threshold(loss: LossSpec, cost: CostExponent) -> float:
    """Infimal lambda below which the transform is certified to be +inf.

    Closed forms use the exact switching level max(a, b); everything else
    returns the (possibly conservative) certified growth constant.
    """
    form = loss.closed_form(cost.p)
    if form is not None:
        return max(form)
    return _growth_certificate(loss, cost)


_GRID_STEP = 1e-3  # finest spacing of the argmax grid
_WINDOW_POINTS = 200_001  # a wider window gets a coarser spacing
_GRID_CAP = 1 << 19  # points per shared grid; atom sets needing more are split
_ZOOM_BUDGET = 4096  # points per refinement round, spread over the atoms
_FLAT = 4.0 * np.finfo(float).eps  # relative value spread of a bracket flat to rounding
_HALF_WIDTH = 2.0**-10  # a parabolic step's half-width per bracket width, above rounding
_STEP = np.array([[-1.0], [0.0], [1.0]])  # a parabolic step's points, in half-widths from its centre
_COLUMNS = np.array([[-1], [0], [1]])  # the grid bracket's columns around the argmax


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
            if r_lo[0] == r_hi[0]:  # the last open range held one row
                break
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


def _envelope_argmax(
    gain: np.ndarray, grid: np.ndarray, xs: np.ndarray, lam: float, first: np.ndarray, last: np.ndarray
) -> Optional[np.ndarray]:
    """Leftmost argmax of every row of gain[j] - lam*(xs[i] - grid[j])^2 in
    columns first[i]..last[i], or None where h = gain - lam*grid^2 is not
    strictly concave on the grid.

    A row is h[j] + 2*lam*xs[i]*grid[j] up to a constant, so it rises from
    column j to j + 1 exactly while the chord slope (h[j+1] - h[j]) /
    (grid[j+1] - grid[j]) exceeds -2*lam*xs[i].  With finite, strictly
    decreasing chord slopes the leftmost argmax is the number of slopes above
    that level, one binary search per row, and a row's argmax inside its
    window is that count clipped to the window (the discrete Legendre
    transform: Lucet 1997; Felzenszwalb & Huttenlocher 2012).
    """
    h = grid * grid
    h *= -lam
    h += gain
    slope = h[1:] - h[:-1]
    slope /= grid[1:] - grid[:-1]
    if not np.isfinite(slope).all():
        return None
    np.negative(slope, out=slope)
    if not (slope[1:] > slope[:-1]).all():
        return None
    k = slope.searchsorted(2.0 * lam * xs)
    return np.clip(k, first, last, out=k)


def _sorted_sup(
    loss: LossSpec, p: float, lam: float, xs: np.ndarray, radius: np.ndarray, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Suprema and their argmax points for ascending xs with certified radii
    and per-atom grid steps.

    The grid argmax comes from the envelope pass (`_envelope_argmax`) under
    p = 2 with more than one atom, and from the divide and conquer
    (`_monotone_argmax`) for p != 2, a single atom (where that search is
    already one pass) or a grid where gain - lam*grid^2 is not strictly
    concave.  Both give the same column and row maximum, bit for bit, but
    where two grid values of a row tie to rounding.  Parabolic steps
    (`_parabolic_steps`) refine each argmax under p > 1; the cell zoom
    (`_cell_zoom`) takes the atoms whose parabola misses and, under p = 1,
    every atom."""
    lo, hi = xs - radius, xs + radius
    grid = _shared_grid(lo, hi, float(step.min()))
    if grid is None:
        half = xs.size // 2
        left = _sorted_sup(loss, p, lam, xs[:half], radius[:half], step[:half])
        right = _sorted_sup(loss, p, lam, xs[half:], radius[half:], step[half:])
        return np.concatenate([left[0], right[0]]), np.concatenate([left[1], right[1]])
    gain = np.asarray(loss_value(loss, grid), dtype=float)
    if np.isnan(gain).any():
        raise ValueError("loss evaluator returned NaN")
    first = grid.searchsorted(lo, side="left")
    last = grid.searchsorted(hi, side="right") - 1
    k = _envelope_argmax(gain, grid, xs, lam, first, last) if p == 2.0 and xs.size > 1 else None
    if k is None:
        k, best = _monotone_argmax(gain, grid, xs, lam, p, first, last)
    else:
        best = gain[k] - lam * _cost(grid[k] - xs, p)

    # refine from the bracket [y_{k-1}, y_{k+1}], clipped to the window;
    # under p = 1 a convex loss less lam*|x - y| is convex on each side of
    # y = x, so its maximum is that kink (or a window edge) and no parabola
    # fits it
    a = np.maximum(grid[np.maximum(k - 1, 0)], lo)
    b = np.minimum(grid[np.minimum(k + 1, grid.size - 1)], hi)
    if p == 1.0:
        y, zoom = 0.5 * (a + b), np.arange(xs.size)
    else:
        y, zoom = _parabolic_steps(loss, p, lam, xs, grid, gain, k, first, last, best, a, b)
    if zoom.size:
        best[zoom], y[zoom] = _cell_zoom(loss, p, lam, xs[zoom], a[zoom], b[zoom], best[zoom])
    return best, y


def _parabolic_steps(
    loss: LossSpec, p: float, lam: float, xs: np.ndarray, grid: np.ndarray, gain: np.ndarray,
    k: np.ndarray, first: np.ndarray, last: np.ndarray, best: np.ndarray, a: np.ndarray, b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded parabolic steps (Brent 1973, ch. 5) from every atom's
    grid bracket, its grid argmax c and the two grid points a < c < b around
    it, towards its y*.

    A round fits the parabola through each bracket and evaluates, in one
    loss call for all atoms, its vertex v and v -+ w, where w is the larger
    of the bracket's width / 1024 and the width r at which the parabola
    falls by the rounding of the objective's terms at its centre,
    4*eps*max(1, |l(c)| + lam*|c - x|^p).  On a hit (f(v) tops both
    neighbours, or all three values lie within the rounding at v) the three
    points become the bracket, and the atom stops once they lie within that
    rounding or w = r, below which the values no longer place y*.  An atom
    misses where its bracket has no parabola (clipped at its window's edge,
    or values that are flat or not finite) or where f(v) does not top its
    neighbours (a kinked maximum, or a vertex off by more than w); it goes to
    the cell zoom with its last bracket.

    Raises `best` to the largest value of an atom's hits and writes the
    brackets of the atoms to zoom into a and b, in place.  Returns y* (the
    final vertex; the bracket's centre for atoms to zoom) and the atoms to
    zoom."""
    y = 0.5 * (a + b)
    # rows: the bracket's points and values, the rounding at its centre, the
    # best value of its hits, and the atom; a bracket clipped at its window's
    # edge repeats its argmax and so has no parabola
    cols = np.minimum(np.maximum(k + _COLUMNS, first), last)
    state = np.empty((9, xs.size))
    state[0:3] = grid[cols]
    cost = lam * _cost(state[0:3] - xs, p)
    lv = gain[cols]
    np.subtract(lv, cost, out=state[3:6])
    state[6] = _FLAT * np.maximum(1.0, np.abs(lv[1]) + cost[1])
    state[7] = best
    state[8] = xs
    live = np.arange(xs.size)
    zoom = []
    stepped = False

    def retire(out: np.ndarray) -> None:
        gone = live[out]
        zoom.append(gone)
        if stepped:
            a[gone], b[gone], best[gone] = state[0, out], state[2, out], state[7, out]

    with np.errstate(divide="ignore", invalid="ignore"):  # such brackets have no parabola
        while live.size:
            d = state[1:3] - state[0:2]
            slope = (state[4:6] - state[3:5]) / d
            width = state[2] - state[0]
            curv = (slope[0] - slope[1]) / width  # minus half the parabola's second derivative
            usable = (curv > 0.0) & (curv < INF)
            if np.count_nonzero(usable) < live.size:
                retire(~usable)
                live, state, d, slope, width, curv = (
                    live[usable], state[:, usable], d[:, usable], slope[:, usable], width[usable], curv[usable]
                )
                if not live.size:
                    break
            v = state[0] + 0.5 * (d[0] + slope[0] / curv)
            r = np.sqrt(state[6] / curv)
            w = np.maximum(width * _HALF_WIDTH, r)
            pts = v + w * _STEP
            lv = np.asarray(loss_value(loss, pts.ravel()), dtype=float).reshape(pts.shape)
            cost = lam * _cost(pts - state[8], p)
            f = lv - cost
            rho = _FLAT * np.maximum(1.0, np.abs(lv[1]) + cost[1])
            top = np.maximum(np.maximum(f[0], f[2]), f[1])
            flat = top - np.minimum(np.minimum(f[0], f[2]), f[1]) <= rho
            tops = f[1] >= top
            hit = flat | tops
            done = flat | (tops & (w == r))
            top = np.maximum(state[7], top)
            if np.count_nonzero(hit) < live.size or np.count_nonzero(done):
                out = live[done]
                best[out], y[out] = top[done], v[done]
                retire(~hit)
                keep = hit & ~done
                live, state, pts, f, rho, top = live[keep], state[:, keep], pts[:, keep], f[:, keep], rho[keep], top[keep]
            state[0:3], state[3:6], state[6], state[7] = pts, f, rho, top
            stepped = True
    return y, np.concatenate(zoom) if zoom else live


def _cell_zoom(
    loss: LossSpec, p: float, lam: float, xs: np.ndarray, a: np.ndarray, b: np.ndarray, best: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Suprema and their argmax points by zooming on the brackets [a, b],
    from the values `best` already seen.

    Every round evaluates a local grid of `cells` cells per atom in one loss
    call and keeps the two cells around its argmax, at most until the
    bracket is below 1e-12 relative.  About _ZOOM_BUDGET points a round
    balance the per-round overhead against the points evaluated: few atoms
    take few wide rounds, many take narrow ones."""
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
        jl, jr = np.maximum(j - 1, 0), np.minimum(j + 1, cells)
        top = vals[rows, j]
        best = np.maximum(best, top)
        a, b = pts[rows, jl], pts[rows, jr]
        # stop once the kept bracket is flat to rounding for every atom: a
        # smooth maximum gets there near sqrt(eps) relative width, where the
        # values no longer place y*; a kinked one zooms on to the last round,
        # and so does a row of +inf values (inf - inf is NaN, never flat)
        with np.errstate(invalid="ignore"):
            drop = np.maximum(top - vals[rows, jl], top - vals[rows, jr])
        if (drop <= _FLAT * np.maximum(1.0, np.abs(top))).all():
            break
    return best, 0.5 * (a + b)


def _numeric_sup(
    loss: LossSpec, cost: CostExponent, lam: float, xs: np.ndarray, c_eff: float
) -> tuple[np.ndarray, np.ndarray]:
    """sup_y { l(y) - lam*|x-y|^p } and a maximizing y for every x in xs, for
    lam above the certified growth constant c_eff.

    Each atom's supremum lies in a certified window [x-R, x+R].  The loss is
    evaluated once on a grid covering the union of the windows, at the
    finest spacing any single window would get (1e-3, coarser only for
    windows wider than 200 units).  Every atom's grid argmax comes from one
    envelope pass under p = 2 when the loss minus lam*y^2 is strictly concave
    on the grid, and from a monotone matrix search otherwise.  Under p > 1,
    batched parabolic steps then refine every atom from its grid argmax and
    two neighbours (`_parabolic_steps`), one or two rounds of 3 points for a
    smooth maximum, to where the values no longer place y*; the final vertex
    is the maximizing y.  Atoms whose parabola misses, and every atom under
    p = 1, go to a batched zoom (`_cell_zoom`) that stops at the first round
    where every atom's bracket is flat to rounding (both neighbours of its
    best point within 4*eps*max(1, |best|) of it), or at a relative bracket
    width of 1e-12, whichever comes first; the bracket's centre is the
    maximizing y.
    """
    p = cost.p
    lx = np.asarray(loss_value(loss, xs), dtype=float)
    radius = _truncation_radii(c_eff, p, lam, xs, lx)
    n_points = np.minimum(2.0 * radius / _GRID_STEP, _WINDOW_POINTS).astype(np.intp) + 1
    step = 2.0 * radius / (n_points - 1)
    order = np.argsort(xs, kind="stable")
    sup, arg = np.empty(xs.size), np.empty(xs.size)
    sup[order], arg[order] = _sorted_sup(loss, p, lam, xs[order], radius[order], step[order])
    return sup, arg


def lambda_c_transform(loss: LossSpec, cost: CostExponent, lam: float, x: float) -> float:
    """sup_y { l(y) - lam*|x-y|^p } as an extended real."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    form = loss.closed_form(cost.p)
    if form is None:
        c_eff = _growth_certificate(loss, cost)
        if lam <= c_eff:
            return INF
        return float(_numeric_sup(loss, cost, lam, np.array([float(x)]), c_eff)[0][0])
    coef = transform_coefficients(*form, cost.p, lam)
    if coef is None:
        return INF
    if cost.p == 1.0:
        return float(loss_value(loss, x))
    big_a, big_b = coef
    if x > 0.0:
        return big_a * x * x
    if x < 0.0:
        return big_b * x * x
    return x * x  # 0 (NaN stays NaN)


def lambda_c_transform_many(loss: LossSpec, cost: CostExponent, lam: float, xs) -> np.ndarray:
    """lambda_c_transform at every point of xs, as a float array.

    Losses without a closed form certify their growth once and share one
    grid and one refinement across all points."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    xs = np.asarray(xs, dtype=float).ravel()
    if loss.closed_form(cost.p) is not None or xs.size == 0:
        return np.array([lambda_c_transform(loss, cost, lam, float(x)) for x in xs])
    c_eff = _growth_certificate(loss, cost)
    if lam <= c_eff:
        return np.full(xs.size, INF)
    return _numeric_sup(loss, cost, lam, xs, c_eff)[0]


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
