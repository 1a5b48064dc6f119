"""Penalization functions of the transport distance and their conjugates.

A penalization phi maps [0, inf) to [0, inf], is convex, nondecreasing and
lower semicontinuous with phi(0) = 0.  Its conjugate

    phi*(y) = sup_{x >= 0} (x*y - phi(x))

is computed in closed form per family; exactness matters because the dual
minimizer often sits on the conjugate's domain boundary.  Each family class
carries its value phi(x), its conjugate and `conjugate_pieces()`: the
linear pieces of phi* on the set where it is finite, as (lambda-start,
lambda-end, slope) with rising slopes, so that the last piece's end is that
set's supremum and a last slope of 0 makes phi* zero on the whole set.  The
module functions `evaluate` and `conjugate` validate their argument and
dispatch to the class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

INF = math.inf


@dataclass(frozen=True)
class LinearPenalty:
    """phi(x) = delta * x with delta > 0."""

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("linear penalty slope delta must be a positive real")

    def value(self, x: float) -> float:
        return self.delta * x

    def conjugate(self, lam: float) -> float:
        return 0.0 if lam <= self.delta else INF

    def conjugate_pieces(self) -> tuple[tuple[float, float, float], ...]:
        return ((0.0, self.delta, 0.0),)


@dataclass(frozen=True)
class BallPenalty:
    """phi(x) = inf * 1{x > delta}: a hard radius constraint.

    delta = 0 is the degenerate point where only the baseline law survives.
    """

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError("ball penalty radius delta must be a nonnegative real")

    def value(self, x: float) -> float:
        return 0.0 if x <= self.delta else INF

    def conjugate(self, lam: float) -> float:
        return self.delta * lam

    def conjugate_pieces(self) -> tuple[tuple[float, float, float], ...]:
        return ((0.0, INF, self.delta),)


@dataclass(frozen=True)
class PiecewiseLinearPenalty:
    """Convex piecewise-linear phi given as (knot, slope-after-knot) pairs.

    The first knot must be 0 (phi(0) = 0); slopes are nonnegative and
    nondecreasing.  All-zero slopes would make phi constant and are rejected.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bps = tuple((float(x), float(s)) for x, s in self.breakpoints)
        if not bps or bps[0][0] != 0.0:
            raise ValueError("breakpoints must start at x = 0")
        xs = [x for x, _ in bps]
        slopes = [s for _, s in bps]
        if any(x < 0 for x in xs) or xs != sorted(xs) or len(set(xs)) != len(xs):
            raise ValueError("breakpoint knots must be distinct, sorted and nonnegative")
        if any(s < 0 for s in slopes) or slopes != sorted(slopes):
            raise ValueError("slopes must be nonnegative and nondecreasing (convexity)")
        if slopes[-1] == 0.0:
            raise ValueError("all-zero slopes make the penalty constant; not allowed")
        object.__setattr__(self, "breakpoints", bps)
        # (knot, phi(knot)), kept outside the dataclass fields so equality,
        # hashing and repr see the breakpoints only
        knots = []
        acc = 0.0
        prev_x = 0.0
        prev_s = bps[0][1]
        for x, s in bps:
            acc += prev_s * (x - prev_x)
            knots.append((x, acc))
            prev_x, prev_s = x, s
        object.__setattr__(self, "_knots", tuple(knots))

    def knot_values(self) -> list[tuple[float, float]]:
        """(knot, phi(knot)) for every breakpoint."""
        return list(self._knots)

    def value(self, x: float) -> float:
        val = 0.0
        for (kx, kv), (_, slope) in zip(self._knots, self.breakpoints):
            if x >= kx:
                val = kv + slope * (x - kx)
            else:
                break
        return val

    def conjugate(self, lam: float) -> float:
        if lam > self.breakpoints[-1][1]:
            return INF
        return max(lam * kx - kv for kx, kv in self._knots)

    def conjugate_pieces(self) -> tuple[tuple[float, float, float], ...]:
        # on [s_{k-1}, s_k] the supremum sits at knot x_k, with s_{-1} = 0
        starts = (0.0,) + tuple(s for _, s in self.breakpoints[:-1])
        return tuple((lo, s, x) for lo, (x, s) in zip(starts, self.breakpoints))


Penalization = Union[LinearPenalty, BallPenalty, PiecewiseLinearPenalty]


def evaluate(phi: Penalization, x: float) -> float:
    """phi(x) for x >= 0."""
    if x < 0.0:
        raise ValueError("penalizations are defined on x >= 0")
    return phi.value(x)


def conjugate(phi: Penalization, lam: float) -> float:
    """phi*(lam) = sup_{x>=0} (x*lam - phi(x)), exact per family."""
    if lam < 0.0:
        raise ValueError("conjugate is evaluated on lambda >= 0")
    return phi.conjugate(lam)


def penalty_from_json(spec: Union[str, dict]) -> Penalization:
    """Parse {"penalty":"linear","delta":d} | {"penalty":"ball","delta":d} |
    {"penalty":"piecewise","breakpoints":[[x,slope],...]}."""
    obj = json.loads(spec) if isinstance(spec, str) else spec
    if not isinstance(obj, dict) or "penalty" not in obj:
        raise ValueError("penalty JSON must be an object with a 'penalty' field")
    kind = str(obj["penalty"]).lower()
    try:
        if kind == "linear":
            return LinearPenalty(delta=float(obj["delta"]))
        if kind == "ball":
            return BallPenalty(delta=float(obj["delta"]))
        if kind == "piecewise":
            return PiecewiseLinearPenalty(
                tuple((float(x), float(s)) for x, s in obj["breakpoints"])
            )
    except KeyError as exc:
        raise ValueError(f"penalty JSON missing field {exc.args[0]!r}") from exc
    raise ValueError(f"unknown penalty kind {kind!r}")
