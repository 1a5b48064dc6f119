"""Prior distributions of the loss position and their partial moments.

Every formula downstream consumes the prior law only through the one-sided
partial moments E[((X-m)^+)^k] and E[((X-m)^-)^k] for k in {1, 2}, the mean
and quantiles.  Those are implemented in closed form for the empirical,
normal and exponential families, and through exact tail identities built on
the Student-t distribution function.  The normal and Student-t distribution
functions and quantiles are computed here, with the standard library only:
the normal cdf from math.erfc, its quantile from Wichura's AS241, the
Student-t cdf from one regularized incomplete beta
(a power series near the centre, TOMS 708's asymptotic expansion in the
tails) and its quantile from Hill's start (CACM Algorithm 396) refined by
Newton steps; no scipy module is imported.  Each family gives all four
one-sided partial moments at a point from one evaluation of its kernel
(`partial_moments`): one pdf and two erfc for a normal, one incomplete beta
for a Student-t, one searchsorted for an empirical law.  Each family class
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
import sys
import warnings
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import MomentUndefined, NoConvergence

WEIGHT_SUM_TOL = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_DISCRETIZE_N = 2001


class _OneEvaluation:
    """The one-sided partial moments of one power, read from the family's
    `partial_moments(m, power)`: (P1+, P1-) for power 1 and (P1+, P1-,
    P2+, P2-) for power 2, every power up to the one asked from one
    evaluation of the family's kernel."""

    def upper_partial_moment(self, m: float, power: int) -> float:
        return self.partial_moments(m, int(power))[-2]  # type: ignore[attr-defined]

    def lower_partial_moment(self, m: float, power: int) -> float:
        return self.partial_moments(m, int(power))[-1]  # type: ignore[attr-defined]


class Empirical(_OneEvaluation):
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

    def partial_moments(self, m: float, power: int = 2) -> tuple[float, ...]:
        """The partial moments at m up to `power` from one searchsorted: the
        atoms above m about the first of them, those at or below m about
        the last."""
        x = self._x
        i = int(x.searchsorted(m, side="right"))
        up1, up2 = _about_atom(self._tail, i, x.item(i) - m) if i < x.size else (0.0, 0.0)
        lo1, lo2 = _about_atom(self._head, i - 1, m - x.item(i - 1)) if i > 0 else (0.0, 0.0)
        return (up1, lo1) if power == 1 else (up1, lo1, up2, lo2)

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


def _about_atom(sums: tuple[np.ndarray, ...], i: int, t: float) -> tuple[float, float]:
    """(sum w (r + t), sum w (r + t)^2) over the atoms on one side of atom i,
    r >= 0 their distance to it, from that side's (cw, S1, S2) and t >= 0."""
    cw, s1, s2 = sums[0].item(i), sums[1].item(i), sums[2].item(i)
    return s1 + t * cw, s2 + t * (2.0 * s1 + t * cw)


class _Parametric(_OneEvaluation):
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

    def partial_moments(self, m: float, power: int = 2) -> tuple[float, ...]:
        """The partial moments at m up to `power` from one pdf and the two
        tails: with z standardized, E[(Z - z)^+] = pdf - z*sf, E[((Z -
        z)^+)^2] = (1 + z^2)*sf - z*pdf, and the lower ones by the symmetry
        of Z."""
        sd = self.stddev
        z = (m - self.mean) / sd
        sf, cdf = 0.5 * math.erfc(z / _SQRT2), 0.5 * math.erfc(-z / _SQRT2)
        pdf = math.exp(-0.5 * z * z) / _SQRT_2PI
        first = (sd * max(pdf - z * sf, 0.0), sd * max(pdf + z * cdf, 0.0))
        if power == 1:
            return first
        c = 1.0 + z * z
        return first + (sd * sd * max(c * sf - z * pdf, 0.0), sd * sd * max(c * cdf + z * pdf, 0.0))

    def expected_value(self) -> float:
        return self.mean

    def ppf(self, alpha: float) -> float:
        return self.mean + self.stddev * _normal_quantile(alpha)

    def cdf(self, m: float) -> float:
        return 0.5 * math.erfc(-((m - self.mean) / self.stddev) / _SQRT2)

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

    def partial_moments(self, m: float, power: int = 2) -> tuple[float, ...]:
        """The partial moments at m up to `power`, from one exponential."""
        mu = 1.0 / self.rate
        if m < 0.0:
            return (mu - m, 0.0, mu * mu + (mu - m) * (mu - m), 0.0)[: 2 * power]
        t = self.rate * m
        e = math.exp(-t)
        moments = (e / self.rate, self._below(m, t, e, 1))
        if power == 1:
            return moments
        return moments + (2.0 * e / (self.rate * self.rate), self._below(m, t, e, 2))

    def _below(self, m: float, t: float, e: float, power: int) -> float:
        """E[((X - m)^-)^power] for m >= 0, t = rate*m and e = exp(-t)."""
        if m == 0.0:
            return 0.0
        mu = 1.0 / self.rate
        if t < 0.5:
            # the closed forms below cancel to rounding noise as t -> 0
            return mu**power * _exp_head_series(t, power)
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

    def partial_moments(self, m: float, power: int = 2) -> tuple[float, ...]:
        """The partial moments at m up to `power` from one incomplete beta;
        raises MomentUndefined unless dof > power.

        With z standardized, sf/cdf the two tails and f the density at z,
        int_z^inf x f = f*(dof + z^2)/(dof - 1) =: k, so E[(Z - z)^+] =
        k - z*sf; and int_z^inf x^2 f = dof/(dof - 2)*sf + z*k*(dof - 1)/(dof
        - 2) (both sides have derivative -z^2 f and vanish at +inf), which is
        the t kernel with dof - 2 degrees of freedom at the same incomplete
        beta argument folded back in (DLMF 8.17.20), with no subtraction.
        The lower moments follow from the symmetry of Z."""
        dof = self.dof
        if dof <= power:
            raise MomentUndefined(f"Student-t partial moment of power {power} requires dof > {power}")
        sc = self.scale
        z = (m - self.location) / sc
        sf, cdf, f = _t_tails(z, dof)
        k = f * (dof + z * z) / (dof - 1.0)
        first = (sc * max(k - z * sf, 0.0), sc * max(k + z * cdf, 0.0))
        if power == 1:
            return first
        c = dof / (dof - 2.0) + z * z
        g = z * k * (dof - 3.0) / (dof - 2.0)
        return first + (sc * sc * max(c * sf - g, 0.0), sc * sc * max(c * cdf + g, 0.0))

    def expected_value(self) -> float:
        if self.dof <= 1.0:
            raise MomentUndefined("Student-t mean requires dof > 1")
        return self.location

    def second_moments_finite(self) -> bool:
        return self.dof > 2.0

    def ppf(self, alpha: float) -> float:
        return self.location + self.scale * _t_quantile(alpha, self.dof)

    def cdf(self, m: float) -> float:
        return _t_tails((m - self.location) / self.scale, self.dof)[1]

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


# -- Normal quantile --------------------------------------------------------
# Wichura's AS241 ("The percentage points of the normal distribution", Appl.
# Stat. 37, 1988), about 1e-16 relative: with q = p - 1/2, a ratio of degree-7
# polynomials in r = 0.180625 - q^2 near the centre (|q| <= 0.425), times q,
# and in the tails of r = sqrt(-log(min(p, 1 - p))) less 1.6 (r <= 5) or 5.
# (numerator, denominator) coefficients, the highest power first.
_AS241_CENTRE = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853, 45921.953931549871457,
     13731.693765509461125, 1971.5909503065514427, 133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061, 21213.794301586595867,
     5394.1960214247511077, 687.1870074920579083, 42.313330701600911252, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177, 1.27045825245236838258,
     3.64784832476320460504, 5.7694972214606914055, 4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966, 0.14810397642748007459,
     0.68976733498510000455, 1.6763848301838038494, 2.05319162663775882187, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386, 0.026532189526576123093,
     0.29656057182850489123, 1.7848265399172913358, 5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5, 7.868691311456132591e-4,
     0.0148753612908506148525, 0.13692988092273580531, 0.59983220655588793769, 1.0),
)


def _ratio(coefs: tuple[tuple[float, ...], tuple[float, ...]], r: float, scale: float = 1.0) -> float:
    """scale*num(r)/den(r), each polynomial by Horner's rule."""
    num = den = 0.0
    for a, b in zip(*coefs):
        num = num * r + a
        den = den * r + b
    return num * scale / den


def _normal_quantile(p: float) -> float:
    """The p-quantile of the standard normal, for 0 < p < 1 (AS241)."""
    q = p - 0.5
    if abs(q) <= 0.425:
        return _ratio(_AS241_CENTRE, 0.180625 - q * q, q)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    x = _ratio(_AS241_NEAR, r - 1.6) if r <= 5.0 else _ratio(_AS241_FAR, r - 5.0)
    return -x if q < 0.0 else x


# -- Student-t kernels ------------------------------------------------------
# The two-sided tail I = P(|T| > t) of the t law with dof = 2a degrees of
# freedom is the regularized incomplete beta I_x(a, 1/2) at x = dof/(dof +
# t^2), and J = P(|T| < t) = 1 - I is I_y(1/2, a) at y = t^2/(dof + t^2).
# One of the two is computed directly, J near the centre and I elsewhere,
# each only where it stays below about 3/4, and the other is its
# complement, so that neither loses more than two bits to the subtraction.

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_EPS = sys.float_info.epsilon
_NEWTON_STEPS = 60
_BGRAT_MIN_A = 15.0  # from where the asymptotic expansion is accurate, at x >= 1/4


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker 1971)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2)/Gamma(a) for a > 0: sqrt(a) exp(sum_k c_k a^-k), the
    Stirling series of its log, from a >= 10 on, where the terms through
    a^-15 leave less than 1e-16, and below by the recurrence Gamma(a +
    3/2)/Gamma(a + 1) = Gamma(a + 1/2)/Gamma(a) (a + 1/2)/a: a factor for a
    step from below 1, whose log would be large, and the log1p of each
    later one.  No large logarithm is exponentiated."""
    factor = 1.0
    if a < 1.0:
        factor = a / (a + 0.5)
        a += 1.0
    down = 0.0
    while a < 10.0:
        down += math.log1p(0.5 / a)
        a += 1.0
    r = 1.0 / a
    r2 = r * r
    series = 0.0
    for c in reversed(_STIRLING_HALF):
        series = series * r2 + c
    return factor * math.sqrt(a) * math.exp(r * series - down)


# c_k of the Stirling series of log(Gamma(a + 1/2)/Gamma(a)) - log(a)/2, k odd:
# (-1)^(k+1) (B_(k+1)(1/2) - B_(k+1)) / (k (k + 1)), with B_n(1/2) = (2^(1-n)
# - 1) B_n (DLMF 5.11.8, 24.4.27)
_STIRLING_HALF = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984, 929569 / 15728640
)


@lru_cache(maxsize=64)
def _t_density_norm(dof: float) -> float:
    """Gamma((dof + 1)/2) / (Gamma(dof/2) sqrt(dof pi)), the density at 0."""
    return _gamma_ratio(0.5 * dof) / math.sqrt(dof * math.pi)


def _beta_head(b: float, y: float) -> float:
    """sum_n (b + 1/2)_n / (3/2)_n y^n, the series of I_y(1/2, b) =
    y^(1/2) (1 - y)^b / (B(1/2, b)/2) times this sum (DLMF 8.17.8).  Every
    term is positive, and where (b + 1/2) y < 0.6 and y < 0.6 consecutive
    terms shrink by a factor below max(0.4, y) < 0.6."""
    total = term = 1.0
    n = 0.0
    while term > _EPS * total:
        term *= (b + 0.5 + n) / (1.5 + n) * y
        total += term
        n += 1.0
    return total


def _bgrat_terms() -> tuple[tuple[float, float, float], ...]:
    """(d_n, b_n (b_n + 1), b_n + 1) with b_n = b + 2n, for TOMS 708's
    BGRAT at b = 1/2, where they depend on neither a nor x: c_n = c_(n-1)
    / (2n (2n + 1)) from c_0 = 1, and d_n = (b - 1) c_n + sum_(0<i<n) (i b
    - n) c_i d_(n-i) / n (DiDonato & Morris, 1992)."""
    b = 0.5
    c: list[float] = []
    d: list[float] = []
    cn = 1.0
    for n in range(1, 31):
        cn /= 2.0 * n * (2.0 * n + 1.0)
        c.append(cn)
        s, coef = 0.0, b - n
        for i in range(1, n):
            s += coef * c[i - 1] * d[n - i - 1]
            coef += b
        d.append((b - 1.0) * cn + s / n)
    return tuple((dn, (b + 2.0 * n) * (b + 2.0 * n + 1.0), b + 2.0 * n + 1.0) for n, dn in enumerate(d))


_BGRAT_TERMS = _bgrat_terms()


def _beta_tail(a: float, lnx: float, lnx_lo: float) -> float:
    """I_x(a, 1/2) for a >= 15 and x >= 1/4, from log x = lnx + lnx_lo:
    Temme's uniform expansion in the incomplete gamma function Q(1/2, u) =
    erfc(sqrt(u)), u = -(a - 1/4) log x, as TOMS 708's BGRAT sums it
    (DiDonato & Morris, ACM TOMS 18, 1992).  The value moves by u times
    the relative error of u, so u is formed to about twice the working
    precision, and both e^-u and erfc take its low part as a first-order
    correction."""
    nu = a - 0.25
    u, u_lo = _two_prod(nu, lnx)
    u, u_lo = -u, -(u_lo + nu * lnx_lo)
    r = math.exp(-u) * math.sqrt(u / math.pi)  # e^-u u^b / Gamma(b)
    if r == 0.0:  # the whole expansion underflows with it
        return 0.0
    r -= r * u_lo
    w = math.sqrt(u)
    p, p_lo = _two_prod(w, w)
    j = math.erfc(w) / r - ((u - p) - p_lo + u_lo) / (w * w)  # erfc at sqrt(u + u_lo)
    v = 0.25 / (nu * nu)
    t2 = 0.25 * lnx * lnx
    total = j
    t = 1.0
    for dn, jj, ju in _BGRAT_TERMS:
        j = (jj * j + (u + ju) * t) * v
        t *= t2
        term = dn * j
        total += term
        if abs(term) <= _EPS * total:
            break
    return r * _beta_tail_scale(a) * total


@lru_cache(maxsize=64)
def _beta_tail_scale(a: float) -> float:
    """Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4)), BGRAT's normalization."""
    return _gamma_ratio(a) / math.sqrt(a - 0.25)


def _log1m(y: float, y_lo: float) -> tuple[float, float]:
    """log(1 - y) for 0 <= y < 0.01 given as y + y_lo, as a pair (hi, lo):
    the series -(y + y^2/2 + y^3/3 + ...), whose leading term is exact."""
    rest, power, k = 0.0, y, 1
    while True:
        k += 1
        power *= y
        term = power / k
        rest += term
        if term <= 1e-17 * rest:
            break
    hi = -y - rest
    return hi, ((-y - hi) - rest) - y_lo


def _t_kernel(t: float, dof: float) -> tuple[float, float, float]:
    """(I, J, f) at t >= 0: the two-sided tail P(|T| > t), its complement
    P(|T| < t), and the density, for T a standard t with `dof`.

    x = dof/(dof + t^2) is carried with its rounding error (and y = 1 - x
    with its own where log x comes from y), so that the density C x^((dof +
    1)/2) is exact to a few ulps even for large dof.  Near the centre, (a +
    1/2) y < 0.6 and y < 0.6, J is 2 f t times the series of I_y(1/2, a),
    and stays below about 3/4, so that I = 1 - J keeps its digits.  Elsewhere I
    is the sum of the terms I_x(a + k, 1/2) - I_x(a + k + 1, 1/2) = x^(a+k)
    y^(1/2)/((a + k) B(a + k, 1/2)) (DLMF 8.17.20), the first 2 f t/dof and
    each the last times x (a + k + 1/2)/(a + k + 1) < x: summed until a term
    falls below the rounding of the sum (the rest is below term/(1 - x)),
    or, once a + k reaches 15 with x >= 1/4, closed by I_x(a + k, 1/2) from
    the asymptotic expansion, which fails for small x.  All the terms are
    positive, so no digits cancel.  Far in the tail, where x < 1e-16 and
    t^2 or the density leave the float range, I is the first term, in
    logs."""
    c = _t_density_norm(dof)
    e = 0.5 * (dof + 1.0)
    if t > 1e8 * math.sqrt(dof):  # x = dof/(dof + t^2) < 1e-16
        lnx = math.log(dof) - 2.0 * math.log(t)
        if t > 1e150 or e * lnx < -700.0:
            return 2.0 * c / dof * math.exp(e * lnx + math.log(t)), 1.0, c * math.exp(e * lnx)
    t2, t2_lo = _two_prod(t, t)
    s = dof + t2
    s_lo = ((dof - s) + t2 if dof >= t2 else (t2 - s) + dof) + t2_lo
    x, y = dof / s, t2 / s
    x_lo = 0.0
    if s < 1e300:  # else Dekker's split overflows
        p, p_lo = _two_prod(x, s)
        x_lo = ((dof - p) - p_lo - x * s_lo) / s
    f = c * x**e * math.exp(e * x_lo / x)  # x^e (1 + x_lo/x)^e
    a = 0.5 * dof
    if y * (a + 0.5) < 0.6 and y < 0.6:
        j = 2.0 * f * t * _beta_head(a, y)
        return 1.0 - j, j, f
    head, term = 0.0, 2.0 * f * t / dof
    while a < _BGRAT_MIN_A or x < 0.25:
        head += term
        term *= x * (a + 0.5) / (a + 1.0)
        a += 1.0
        if term <= _EPS * (1.0 - x) * head:  # the rest, below term/(1 - x), is rounding
            return head, 1.0 - head, f
    if y >= 0.01:
        lnx, lnx_lo = math.log(x), x_lo / x
    else:  # log x is about -y: take its digits from y's, not from x's
        p, p_lo = _two_prod(y, s)
        lnx, lnx_lo = _log1m(y, ((t2 - p) - p_lo + t2_lo - y * s_lo) / s)
    i = head + _beta_tail(a, lnx, lnx_lo)
    return i, 1.0 - i, f


def _t_tails(z: float, dof: float) -> tuple[float, float, float]:
    """(P(T > z), P(T <= z), density at z) for a standard t with `dof`."""
    i, j, f = _t_kernel(abs(z), dof)
    small, large = 0.5 * i, 0.5 + 0.5 * j
    return (small, large, f) if z >= 0.0 else (large, small, f)


def _hill_start(p: float, dof: float) -> float:
    """t > 0 with P(|T| > t) about p: Hill's Algorithm 396 (CACM 13, 1970)
    for 1 <= dof <= 1e10, exact at dof 1 and 2; the normal quantile above;
    below dof 1 the tail's leading power, or the density at 0 near the
    centre."""
    if dof == 1.0:
        return 1.0 / math.tan(0.5 * math.pi * p)
    if dof == 2.0:
        return (1.0 - p) * math.sqrt(2.0) / (math.sqrt(p) * math.sqrt(2.0 - p))
    if dof > 1e10:
        return -_normal_quantile(0.5 * p)
    if dof < 1.0:
        c = _t_density_norm(dof)
        if p > 0.5:
            return (1.0 - p) / (2.0 * c)
        return math.sqrt(dof) * math.exp(min((math.log(2.0 * c / dof) - math.log(p)) / dof, 709.0))
    a = 1.0 / (dof - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * dof
    log_dp = math.log(d) + math.log(p)
    y = math.exp(2.0 * log_dp / dof)
    if y > 0.05 + a:
        x = _normal_quantile(0.5 * p)
        y = x * x
        if dof < 5.0:
            c += 0.3 * (dof - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    elif y > _EPS:
        y = ((1.0 / (((dof + 6.0) / (dof * y) - 0.089 * d - 0.822) * (dof + 2.0) * 3.0) + 0.5 / (dof + 4.0)) * y - 1.0) * (
            dof + 1.0
        ) / (dof + 2.0) + 1.0 / y
    else:  # far in the tail: its leading power
        return math.sqrt(dof) * math.exp(min(-log_dp / dof, 709.0))
    return math.sqrt(dof * y)


def _t_quantile(alpha: float, dof: float) -> float:
    """The alpha-quantile of a standard t with `dof`, for 0 < alpha < 1.

    By symmetry it solves, for t > 0, I(t) = 2q with q = min(alpha, 1 -
    alpha) when q < 1/4, else J(t) = 1 - 2q, which 1 - 2q states exactly.
    From Hill's start, Newton steps run on the log of that probability
    against log t.  It is concave there, so after at most one step past the
    root the steps close in from one side; a step is at most 50 (a factor
    e^50 in t).  Convergence is quadratic with a curvature of order one, so
    a step below 1e-8 leaves an error near its square and is the last; a
    small step that no longer shrinks has reached the rounding of the
    kernel and is not taken.  A quantile past the float range is +-inf;
    where the density at it underflows the result is only as good as the
    tail's leading term in logs."""
    q = min(alpha, 1.0 - alpha)
    if q == 0.5:
        return 0.0
    tail = q < 0.25
    target = 2.0 * q if tail else 1.0 - 2.0 * q
    t = _hill_start(2.0 * q, dof)
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        if not 0.0 < t < math.inf:
            break
        i, j, f = _t_kernel(t, dof)
        v = i if tail else j
        if v > 0.0 and f > 0.0:
            step = math.log(v / target) * v / (2.0 * t * f)
            step = step if tail else -step
        elif v > 0.0 and tail:  # the density underflows: I falls as t^-dof
            step = math.log(v / target) / dof
        else:  # the probability underflows: t is far past the root
            step = -50.0 if tail else 50.0
        if abs(step) < 1e-3 and abs(step) >= last:
            break
        t *= math.exp(max(-50.0, min(step, 50.0)))
        if abs(step) <= 1e-8:
            break
        last = abs(step)
    else:
        raise NoConvergence(f"Student-t quantile at alpha = {alpha!r}, dof = {dof!r} did not settle")
    return t if alpha > 0.5 else -t


def partial_moment_plus(d: PriorDistribution, m: float, power: int) -> float:
    """E[((X - m)^+)^power] for power in {1, 2}; exact or to 1e-10 absolute."""
    _check_power(power)
    return d.upper_partial_moment(float(m), power)


def partial_moment_minus(d: PriorDistribution, m: float, power: int) -> float:
    """E[((X - m)^-)^power] with (X - m)^- = max(m - X, 0)."""
    _check_power(power)
    return d.lower_partial_moment(float(m), power)


def partial_moments(d: PriorDistribution, m: float, power: int = 2) -> tuple[float, ...]:
    """The one-sided partial moments of every power up to `power` (1 or 2) at
    m, from one evaluation of the family's kernel: (E[(X - m)^+], E[(X -
    m)^-]) and, for power 2, E[((X - m)^+)^2], E[((X - m)^-)^2].  Raises
    MomentUndefined when a moment asked for is not finite."""
    _check_power(power)
    return d.partial_moments(float(m), int(power))


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
