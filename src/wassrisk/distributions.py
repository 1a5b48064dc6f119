"""Prior distributions of the loss position and their partial moments.

Every formula downstream consumes the prior law only through the one-sided
partial moments E[((X-m)^+)^k] and E[((X-m)^-)^k] for k in {1, 2}, the mean
and quantiles.  Those are implemented in closed form for the empirical,
normal and exponential families, and through exact tail identities built on
the Student-t distribution function (absolute accuracy better than 1e-10).
The normal and Student-t families take their distribution functions and
quantiles from scipy.special, which the first of their calls imports; the
empirical and exponential families never import scipy.  Each family class
carries its own formulas; the module functions check their arguments and
dispatch to the class.  A finite-support prior also solves the
fixed-coefficient first-order condition of the expectile family exactly
from its partial-moment tables (`Empirical.affine_root`).  All values are
immutable after construction and every operation is pure.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import MomentUndefined, NoConvergence

WEIGHT_SUM_TOL = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_DISCRETIZE_N = 2001


@cache
def _special():
    """scipy.special, imported on the first call: only the normal and
    Student-t families use it, and its import costs more than the rest of
    the package."""
    from scipy import special

    return special


class Empirical:
    """Finite discrete law given as (value, weight) atoms.

    The state is two arrays, the values sorted ascending and their weights:
    exact duplicate values are merged by summing their weights.  Weights must
    be strictly positive and sum to 1 within 1e-12 (small deviations are
    renormalized, larger ones rejected).  `Empirical(points)` takes
    (value, weight) pairs and `Empirical.from_arrays(values, weights)` two
    arrays; `points`, the atoms as pairs, is derived on first use.
    Instances are immutable; equality and hashing are those of `points`, so
    an atom at -0.0 equals one at 0.0.

    Construction builds, in one pass over both sides, the cumulative
    weights and the gap sums S1, S2 from the left and from the right.  The
    partial moments read them at the nearest atom, and `affine_root` solves
    the fixed-coefficient first-order condition of the expectile family
    from them exactly, in about log2(n) probes.
    """

    finite_support = True  # finitely many atoms, within `support`
    _x: np.ndarray  # the values, strictly increasing
    _w: np.ndarray  # their weights
    _cw: np.ndarray  # cumulative weights, the last set to 1
    _head: tuple[np.ndarray, np.ndarray, np.ndarray]  # gap sums from the left
    _tail: tuple[np.ndarray, np.ndarray, np.ndarray]  # gap sums from the right

    def __init__(self, points: Sequence[tuple[float, float]]) -> None:
        self.__post_init__(
            np.array([float(v) for v, _ in points]), np.array([float(w) for _, w in points])
        )

    @classmethod
    def from_arrays(
        cls, values: np.ndarray | Sequence[float], weights: np.ndarray | Sequence[float]
    ) -> "Empirical":
        """The law with atoms values[i] of weight weights[i], from two
        one-dimensional arrays (or sequences) of one length."""
        x, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
        if x.ndim != 1 or x.shape != w.shape:
            raise ValueError("empirical values and weights must be 1-D arrays of one length")
        d = cls.__new__(cls)
        d.__post_init__(x, w)
        return d

    def __post_init__(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Check and normalize the atoms and build the tables; every
        constructor ends here."""
        if values.size == 0:
            raise ValueError("empirical distribution needs at least one atom")
        if not np.isfinite(values).all():
            raise ValueError("empirical values must be finite")
        if not ((weights > 0.0).all() and np.isfinite(weights).all()):
            raise ValueError("empirical weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"empirical weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        weights = weights / total
        # distinct values have one sorted order, whichever sort finds it
        order = values.argsort()
        x, w = values[order], weights[order]
        if (x[1:] == x[:-1]).any():
            # merge exact ties so the support is strictly increasing: a
            # stable sort keeps each run in input order, the run keeps its
            # first value, and bincount sums its weights in that order
            order = values.argsort(kind="stable")
            x, w = values[order], weights[order]
            start = np.concatenate(([True], x[1:] != x[:-1]))
            x = x[start]
            w = np.bincount(np.cumsum(start) - 1, weights=w)
        # values and weights hand these arrays out: read-only keeps the law,
        # its equality and its hash fixed
        x.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_w", w)
        # partial moments expand about the nearest atom on their side, from
        # sums over the gaps between atoms: no term cancels, at any location.
        # Row 0 of each table sums from the left, row 1 from the right
        # (reversed), and a cumsum along a row adds in the row's own order
        n = x.size
        cum = np.empty((2, n))
        cum[0], cum[1] = w, w[::-1]
        cum = cum.cumsum(axis=1)
        cum[0, -1] = 1.0
        gaps = np.empty((2, n - 1))
        np.subtract(x[1:], x[:-1], out=gaps[0])
        gaps[1] = gaps[0, ::-1]
        # S1_j = sum_{i <= j} w_i (x_j - x_i) and S2_j the same with squares,
        # each grown from the last by nonnegative terms: S1 adds cw_j dx_j,
        # S2 adds dx_j (2 S1_j + cw_j dx_j)
        step = cum[:, :-1] * gaps
        s1 = np.zeros((2, n))
        np.cumsum(step, axis=1, out=s1[:, 1:])
        step += 2.0 * s1[:, :-1]
        step *= gaps
        s2 = np.zeros((2, n))
        np.cumsum(step, axis=1, out=s2[:, 1:])
        object.__setattr__(self, "_cw", cum[0])
        object.__setattr__(self, "_head", (cum[0], s1[0], s2[0]))
        object.__setattr__(self, "_tail", (cum[1, ::-1], s1[1, ::-1], s2[1, ::-1]))

    @classmethod
    def uniform(cls, values: Iterable[float]) -> "Empirical":
        x = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
        if x.size == 0:
            raise ValueError("empirical distribution needs at least one atom")
        return cls.from_arrays(x, np.full(x.size, 1.0 / x.size))

    @cached_property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The atoms as (value, weight) pairs, ascending."""
        return tuple(zip(self._x.tolist(), self._w.tolist()))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._x, other._x) and np.array_equal(self._w, other._w)

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"Empirical(points={self.points!r})"

    @property
    def values(self) -> np.ndarray:
        return self._x

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def support(self) -> tuple[float, float]:
        return float(self._x[0]), float(self._x[-1])

    # each atom moves by the same float operation; the constructor re-sorts
    # (a negative factor reverses the order) and re-merges (a large shift
    # can round atoms together)
    def shift(self, c: float) -> "Empirical":
        return Empirical.from_arrays(self._x + c, self._w)

    def scale(self, t: float) -> "Empirical":
        return Empirical.from_arrays(self._x * t, self._w)

    def negate(self) -> "Empirical":
        return Empirical.from_arrays(-self._x, self._w)

    def upper_partial_moment(self, m: float, power: int) -> float:
        i = int(self._x.searchsorted(m, side="right"))
        if i == len(self._x):
            return 0.0
        return _about_atom(self._tail, i, float(self._x[i]) - m, power)

    def lower_partial_moment(self, m: float, power: int) -> float:
        i = int(self._x.searchsorted(m, side="right")) - 1
        if i < 0:
            return 0.0
        return _about_atom(self._head, i, m - float(self._x[i]), power)

    def affine_root(self, shift: float, a: float, b: float) -> tuple[float, int]:
        """(m, probes): the root of s(m) = shift + b*E[(X - m)^-] -
        a*E[(X - m)^+] for a > 0 and b >= 0, read from the tables.

        s is nondecreasing and affine between atoms, and at atom k it is
        s_k = shift - a*S1+[k] + b*S1-[k], the tail and head gap sums.
        Bisection over k finds the first atom with s_k >= 0 in about
        log2(n) probes (one s_k each); the root then solves the line through
        the gap below it, of slope a*P(X >= x_k) + b*P(X <= x_(k-1)), from
        the gap end with the smaller |s|, or the ray past the first atom
        (slope a) or the last (slope b).  A root on an atom is that atom.
        Raises NoConvergence when s stays negative on the right (b = 0 and
        shift < 0), where no root exists."""
        x = self._x
        cv, up = self._tail[0], self._tail[1]
        cw, down = self._head[0], self._head[1]
        lo, hi = 0, x.size
        s_lo = s_hi = 0.0  # s at atoms lo - 1 and hi once probed
        probes = 0
        while lo < hi:
            k = (lo + hi) // 2
            s = shift - a * up.item(k) + b * down.item(k)
            probes += 1
            if s >= 0.0:
                hi, s_hi = k, s
            else:
                lo, s_lo = k + 1, s
        if lo == 0:
            return x.item(0) - s_hi / (a * cv.item(0)), probes
        if lo == x.size:
            if b <= 0.0:
                raise NoConvergence("objective keeps decreasing toward -inf on the right")
            return x.item(lo - 1) - s_lo / b, probes
        left, right = x.item(lo - 1), x.item(lo)
        slope = a * cv.item(lo) + b * cw.item(lo - 1)
        m = right - s_hi / slope if s_hi <= -s_lo else left - s_lo / slope
        return min(max(m, left), right), probes

    def expected_value(self) -> float:
        return float(np.dot(self._x, self._w))

    def second_moments_finite(self) -> bool:
        return True

    def ppf(self, alpha: float) -> float:
        i = int(self._cw.searchsorted(alpha, side="left"))
        return float(self._x[min(i, len(self._x) - 1)])

    def cdf(self, m: float) -> float:
        i = int(self._x.searchsorted(m, side="right"))
        return float(self._cw[i - 1]) if i > 0 else 0.0

    def mass_above(self, m: float) -> bool:
        """Whether any atom lies above m."""
        return m < float(self._x[-1])

    def mass_below(self, m: float) -> bool:
        """Whether any atom lies below m."""
        return m > float(self._x[0])

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self._x, size=n, p=self._w)

    def center_and_span(self) -> tuple[float, float]:
        """A location and a positive length scale where outer searches start."""
        lo, hi = self.support
        return 0.5 * (lo + hi), max(0.5 * (hi - lo), 1.0)

    def quantile_set(self, tau: float) -> tuple[float, float]:
        """[q-(tau), q+(tau)] for tau in [0, 1]: every m with P(X < m) <= tau
        <= P(X <= m), a ray past the support's end at tau = 0 or 1."""
        x = self._x
        if tau <= 0.0:
            return -math.inf, float(x[0])
        if tau >= 1.0:
            return float(x[-1]), math.inf
        j = int(self._cw.searchsorted(tau, side="right"))
        return self.ppf(tau), float(x[min(j, len(x) - 1)])

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) that sums over atoms use for this law."""
        return self._x, self._w


def _about_atom(sums: tuple[np.ndarray, ...], i: int, t: float, power: int) -> float:
    """sum w (r + t)^power over the atoms on one side of atom i, r >= 0 their
    distance to it, from that side's (cw, S1, S2) and t >= 0."""
    cw, s1, s2 = sums
    if power == 1:
        return float(s1[i]) + t * float(cw[i])
    return float(s2[i]) + t * (2.0 * float(s1[i]) + t * float(cw[i]))


class _Parametric:
    """Behaviour shared by the continuous families: unbounded mass above,
    a positive density on the support, and the midpoint-quantile
    discretization as their atoms."""

    lower_end = -math.inf  # of the support
    finite_support = False

    def second_moments_finite(self) -> bool:
        return True

    def mass_above(self, m: float) -> bool:
        """Whether X > m has positive probability."""
        return True

    def mass_below(self, m: float) -> bool:
        """Whether X < m has positive probability."""
        return True

    def quantile_set(self, tau: float) -> tuple[float, float]:
        """[q-(tau), q+(tau)]: one point for tau in (0, 1), the ray below the
        support at tau = 0, nothing finite at tau = 1."""
        if tau <= 0.0:
            return -math.inf, self.lower_end
        if tau >= 1.0:
            return math.inf, math.inf
        q = self.ppf(tau)  # type: ignore[attr-defined]
        return q, q

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint quantile discretization, used only for custom losses;
        closed-form losses never take this path."""
        return _discretized_atoms(self)


@lru_cache(maxsize=32)
def _discretized_atoms(d: PriorDistribution) -> tuple[np.ndarray, np.ndarray]:
    # cached per (immutable) distribution
    u = (np.arange(_DISCRETIZE_N) + 0.5) / _DISCRETIZE_N
    xs = np.array([quantile(d, float(ui)) for ui in u])
    w = np.full(_DISCRETIZE_N, 1.0 / _DISCRETIZE_N)
    return xs, w


@dataclass(frozen=True)
class Normal(_Parametric):
    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if not (self.stddev > 0.0 and math.isfinite(self.stddev)):
            raise ValueError("stddev must be a positive real")
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")

    def upper_partial_moment(self, m: float, power: int) -> float:
        return self.stddev**power * _normal_plus((m - self.mean) / self.stddev, power)

    def lower_partial_moment(self, m: float, power: int) -> float:
        return self.stddev**power * _normal_plus(-((m - self.mean) / self.stddev), power)

    def expected_value(self) -> float:
        return self.mean

    def ppf(self, alpha: float) -> float:
        return self.mean + self.stddev * float(_special().ndtri(alpha))

    def cdf(self, m: float) -> float:
        return float(_special().ndtr((m - self.mean) / self.stddev))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.stddev * rng.standard_normal(n)

    def center_and_span(self) -> tuple[float, float]:
        return self.mean, self.stddev


def _exp_head_series(t: float, power: int) -> float:
    """int_0^t (t - u)^power e^(-u) du = power! * sum_{k > power} (-1)^(k -
    power - 1) t^k / k!, summed until a term no longer moves the total;
    alternating with shrinking terms for t < 1."""
    term = total = t ** (power + 1) / (power + 1)
    k = power + 1
    while abs(term) > 1e-17 * total:
        k += 1
        term *= -t / k
        total += term
    return total


@dataclass(frozen=True)
class Exponential(_Parametric):
    rate: float
    lower_end = 0.0

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("rate must be a positive real")

    def upper_partial_moment(self, m: float, power: int) -> float:
        if m < 0.0:
            mu = 1.0 / self.rate
            if power == 1:
                return mu - m
            return mu * mu + (mu - m) * (mu - m)
        e = math.exp(-self.rate * m)
        if power == 1:
            return e / self.rate
        return 2.0 * e / (self.rate * self.rate)

    def lower_partial_moment(self, m: float, power: int) -> float:
        if m <= 0.0:
            return 0.0
        mu = 1.0 / self.rate
        t = self.rate * m
        if t < 0.5:
            # the closed forms below cancel to rounding noise as t -> 0
            return mu**power * _exp_head_series(t, power)
        e = math.exp(-t)
        if power == 1:
            return max(m - mu + e * mu, 0.0)
        return max(mu * mu + (mu - m) * (mu - m) - 2.0 * e * mu * mu, 0.0)

    def expected_value(self) -> float:
        return 1.0 / self.rate

    def ppf(self, alpha: float) -> float:
        return -math.log1p(-alpha) / self.rate

    def cdf(self, m: float) -> float:
        return 0.0 if m < 0.0 else -math.expm1(-self.rate * m)

    def mass_below(self, m: float) -> bool:
        return m > 0.0

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def center_and_span(self) -> tuple[float, float]:
        return 1.0 / self.rate, 1.0 / self.rate


@dataclass(frozen=True)
class StudentT(_Parametric):
    dof: float
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.dof > 0.0 and math.isfinite(self.dof)):
            raise ValueError("dof must be a positive real")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be a positive real")
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")

    def upper_partial_moment(self, m: float, power: int) -> float:
        z = (m - self.location) / self.scale
        return self.scale**power * _t_plus(z, self.dof, power)

    def lower_partial_moment(self, m: float, power: int) -> float:
        # symmetry of the standardized t: ((Z-z)^-)^k has the law of ((Z+z)^+)^k
        z = (m - self.location) / self.scale
        return self.scale**power * _t_plus(-z, self.dof, power)

    def expected_value(self) -> float:
        if self.dof <= 1.0:
            raise MomentUndefined("Student-t mean requires dof > 1")
        return self.location

    def second_moments_finite(self) -> bool:
        return self.dof > 2.0

    def ppf(self, alpha: float) -> float:
        return self.location + self.scale * float(_special().stdtrit(self.dof, alpha))

    def cdf(self, m: float) -> float:
        return float(_special().stdtr(self.dof, (m - self.location) / self.scale))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.location + self.scale * rng.standard_t(self.dof, size=n)

    def center_and_span(self) -> tuple[float, float]:
        if self.dof > 2.0:
            return self.location, self.scale * math.sqrt(self.dof / (self.dof - 2.0))
        return self.location, self.scale


PriorDistribution = Union[Empirical, Normal, Exponential, StudentT]


def _check_power(power: int) -> None:
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")


def _normal_plus(z: float, power: int) -> float:
    """Standardized E[((Z-z)^+)^power] for Z ~ N(0,1)."""
    sf = float(_special().ndtr(-z))
    pdf = math.exp(-0.5 * z * z) / _SQRT_2PI
    if power == 1:
        return max(pdf - z * sf, 0.0)
    return max((1.0 + z * z) * sf - z * pdf, 0.0)


@lru_cache(maxsize=64)
def _t_log_norm(dof: float) -> float:
    return math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0) - 0.5 * math.log(dof * math.pi)


def _t_pdf(z: float, dof: float) -> float:
    return math.exp(_t_log_norm(dof) - 0.5 * (dof + 1.0) * math.log1p(z * z / dof))


def _t_tail_integrals(z: float, dof: float) -> tuple[float, float]:
    """(int_z^inf f, int_z^inf x f) for the standard t density with `dof`."""
    # stdtr is exact near z = 0, where an incomplete beta at dof/(dof + z^2)
    # rounds 1 - x and loses up to 4e-9
    i1 = float(_special().stdtr(dof, -z))
    i2 = _t_pdf(z, dof) * (dof + z * z) / (dof - 1.0)
    return i1, i2


def _t_plus(z: float, dof: float, power: int) -> float:
    if power == 1:
        if dof <= 1.0:
            raise MomentUndefined("Student-t partial moment of power 1 requires dof > 1")
        i1, i2 = _t_tail_integrals(z, dof)
        return max(i2 - z * i1, 0.0)
    if dof <= 2.0:
        raise MomentUndefined("Student-t partial moment of power 2 requires dof > 2")
    i1, i2 = _t_tail_integrals(z, dof)
    # int_z^inf x^2 f: x^2 = dof*(1 + x^2/dof) - dof folds the integrand back
    # onto the t kernels with dof and dof-2 degrees of freedom.
    i3 = dof * (dof - 1.0) / (dof - 2.0) * float(_special().stdtr(dof - 2.0, -z * math.sqrt((dof - 2.0) / dof)))
    i3 -= dof * i1
    return max(i3 - 2.0 * z * i2 + z * z * i1, 0.0)


def partial_moment_plus(d: PriorDistribution, m: float, power: int) -> float:
    """E[((X - m)^+)^power] for power in {1, 2}; exact or to 1e-10 absolute."""
    _check_power(power)
    return d.upper_partial_moment(float(m), power)


def partial_moment_minus(d: PriorDistribution, m: float, power: int) -> float:
    """E[((X - m)^-)^power] with (X - m)^- = max(m - X, 0)."""
    _check_power(power)
    return d.lower_partial_moment(float(m), power)


def mean(d: PriorDistribution) -> float:
    return d.expected_value()


def quantile(d: PriorDistribution, alpha: float) -> float:
    """Lower alpha-quantile: the smallest m with P(X <= m) >= alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return d.ppf(alpha)


def cdf(d: PriorDistribution, m: float) -> float:
    """P(X <= m)."""
    return d.cdf(m)


def sample(d: PriorDistribution, n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random draws; the same seed gives the same array."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return d.draw(n, np.random.default_rng(seed))


def empirical_from_csv(path: str) -> Empirical:
    """Load atoms from CSV rows `value[,weight]`; a missing weight column
    means uniform weights.  A single non-numeric leading row is treated as a
    header and skipped.  A plain numeric file is parsed in one NumPy pass;
    any other (quoted cells, blank rows, a bad or missing cell) goes through
    a loop over the rows, which also forms every error message."""
    columns = _csv_columns(path)
    values, weights = columns if columns is not None else _csv_rows(path)
    if weights is None:
        return Empirical.uniform(values)
    total = sum(weights.tolist())
    if total <= 0:
        raise ValueError(f"{path}: weights must sum to a positive number")
    with np.errstate(all="ignore"):  # quiet as float division: inf or nan fail below
        weights = weights / total
    return Empirical.from_arrays(values, weights)


def _csv_columns(path: str) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
    """(values, weights or None) by one np.loadtxt pass over the lines after
    an optional header, or None when that pass fails or the first line is
    blank or quoted.  float() accepts every token np.loadtxt does, with the
    same value, so a file this reads the row loop reads alike (but for
    csv's limit of 131072 characters to a cell)."""
    with open(path, newline="") as handle:
        head = handle.readline()
        cell = head.split(",", 1)[0]
        if not cell.strip() or '"' in head:
            return None
        try:
            float(cell)
            skip = 0
        except ValueError:
            skip = 1
        handle.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a header alone
            try:
                table = np.loadtxt(handle, delimiter=",", comments=None, skiprows=skip, ndmin=2)
            except ValueError:
                return None
    if table.size == 0:
        return None
    return table[:, 0], (table[:, 1] if table.shape[1] > 1 else None)


def _csv_rows(path: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(values, weights or None) row by row, raising at the first bad cell
    with its row number."""
    values: list[float] = []
    weights: list[float] = []
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1
    for lineno, row in enumerate(rows[start:], start=start + 1):
        try:
            values.append(float(row[0]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: bad value {row[0]!r}") from exc
        if len(row) > 1 and row[1].strip():
            try:
                weights.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: bad weight {row[1]!r}") from exc
    if weights and len(weights) != len(values):
        raise ValueError(f"{path}: weight column must be present on every row or absent")
    return np.array(values), (np.array(weights) if weights else None)


def prior_from_json(spec: Union[str, dict]) -> PriorDistribution:
    """Parse {"family": ..., parameters...}; families: normal, exponential,
    student_t, empirical."""
    obj = json.loads(spec) if isinstance(spec, str) else spec
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("prior JSON must be an object with a 'family' field")
    family = str(obj["family"]).lower().replace("-", "_")
    try:
        if family in ("normal", "gaussian"):
            return Normal(mean=float(obj["mean"]), stddev=float(obj["stddev"]))
        if family in ("exponential", "exp"):
            return Exponential(rate=float(obj["rate"]))
        if family in ("student_t", "studentt", "t"):
            return StudentT(
                dof=float(obj["dof"]),
                location=float(obj.get("location", 0.0)),
                scale=float(obj.get("scale", 1.0)),
            )
        if family == "empirical":
            return Empirical(obj["points"])
    except KeyError as exc:
        raise ValueError(f"prior JSON missing field {exc.args[0]!r} for family {family!r}") from exc
    raise ValueError(f"unknown prior family {family!r}")
