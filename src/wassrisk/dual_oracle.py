"""Independent verification engines.

Two deliberately separate code paths used to cross-check the solvers:

* the density-band representation of the linear-penalty robust expectile --
  extremising E_Q[X] over laws whose density ratio to the baseline stays
  inside a fixed band, solved exactly by a sorted-threshold construction;
* exact one-dimensional discrete transport costs via the quantile coupling,
  which feed the weak-duality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Empirical
from .losses import CostExponent


@dataclass(frozen=True)
class DensityBand:
    """Bounds L <= t0 * dQ/dP <= U up to the free positive scalar t0.

    Scaling the density by t0 means feasibility depends on the ratio U/L
    only, so the extremisation below works in ratio space.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower > 0.0 and math.isfinite(self.lower)):
            raise ValueError("band lower bound must be a positive real")
        if not (self.upper > 0.0 and math.isfinite(self.upper)):
            raise ValueError("band upper bound must be a positive real")

    @classmethod
    def from_expectile_level(cls, alpha: float, delta1: float) -> "DensityBand":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        if delta1 <= max(alpha, 1.0 - alpha):
            raise ValueError("delta1 must exceed max(alpha, 1-alpha)")
        lower = 2.0 * (1.0 - alpha) * delta1 / (delta1 - (1.0 - alpha))
        upper = 2.0 * alpha * delta1 / (delta1 - alpha)
        return cls(lower=lower, upper=upper)

    @property
    def ratio(self) -> float:
        """Largest admissible spread max_i r_i / min_i r_i of density ratios."""
        return max(self.upper, self.lower) / min(self.upper, self.lower)


def _threshold_extreme(x: np.ndarray, p: np.ndarray, rho: float) -> float:
    """max of sum(q*x) over q >= 0, sum q = 1, max(q/p)/min(q/p) <= rho.

    Atoms are sorted ascending with distinct values (construction merges
    ties).  At an optimum the density ratio takes just two values c and
    rho*c split by a threshold in x: between two neighbouring splits the
    objective is a Moebius function of the moved mass, hence extremal at a
    pure split, so scanning the n+1 split points is exact.
    """
    low_w = np.concatenate(([0.0], np.cumsum(p)))
    low_x = np.concatenate(([0.0], np.cumsum(p * x)))
    high_w, high_x = 1.0 - low_w, low_x[-1] - low_x
    return float(np.max((low_x + rho * high_x) / (low_w + rho * high_w)))


def dual_expectile_max(d: Empirical, band: DensityBand, direction: str = "max") -> float:
    """Extreme of E_Q[X] over the density band around the empirical baseline."""
    if not getattr(d, "finite_support", False):
        raise TypeError("the density-band oracle is defined for empirical baselines")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    x = np.asarray(d.values, dtype=float)
    p = np.asarray(d.weights, dtype=float)
    rho = band.ratio
    if direction == "max":
        return _threshold_extreme(x, p, rho)
    return -_threshold_extreme(-x[::-1], p[::-1], rho)


def wasserstein_1d(a: Empirical, b: Empirical, cost: CostExponent) -> float:
    """Exact 1-D transport cost int_0^1 |F_a^{-1}(u) - F_b^{-1}(u)|^p du.

    This is the un-rooted cost (the p-Wasserstein distance to the power p),
    computed as a finite sum over the merged weight partition.
    """
    if not (getattr(a, "finite_support", False) and getattr(b, "finite_support", False)):
        raise TypeError("wasserstein_1d is defined for empirical measures")
    cwa = np.cumsum(a.weights)
    cwb = np.cumsum(b.weights)
    cuts = np.unique(np.concatenate(([0.0], cwa, cwb, [1.0])))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    # the cuts are distinct, so every cell has positive width; each cell's
    # quantiles are read at its midpoint, and the terms are added in cell
    # order (a cumulative sum, not numpy's pairwise one)
    width = cuts[1:] - cuts[:-1]
    u_mid = 0.5 * (cuts[:-1] + cuts[1:])
    qa = a.values[np.minimum(cwa.searchsorted(u_mid, side="left"), len(a.values) - 1)]
    qb = b.values[np.minimum(cwb.searchsorted(u_mid, side="left"), len(b.values) - 1)]
    return float(np.cumsum(width * np.abs(qa - qb) ** cost.p)[-1])
