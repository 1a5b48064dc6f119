"""Time the numeric supremum (layer L2) on inputs shaped like `custom_dual`
and like `verify`'s one-point suprema.

    PYTHONPATH=src python tools/sup_bench.py [--repeats 7] [--draws 4] [--seed 5]

Each case calls `losses._numeric_sup` directly on a `CustomLoss` twin of
`Pinball` or `AsymQuadratic`, alpha in [0.1, 0.9]:

* the `custom_dual` shapes: cost exponent p in {1.5, 2} (the quadratic twin
  only under p = 2, where its growth is certified), atom bands of 20-60,
  150-250 and 800-1000 (normal atoms shifted by a point m of their range),
  lambda = c_eff + U(0.05, 3);
* one atom x in [-4, 4] at lambda = c_eff + U(0.2, 3), the pinball twin
  under p = 1 and the quadratic twin under p = 2, as `verify transforms`'
  `closed-form-matches-numeric-sup` draws them;
* near the growth constant: the quadratic twin under p = 2 on the atoms
  {-1, 0.2, 0.5, 2} - m, m in [-0.5, 0.5], at lambda = c_eff*(1 + 1e-3).

Per case, `--draws` inputs are drawn and each is timed `--repeats` times.
The table gives the median milliseconds per call over all of them with
their quartiles, the loss points evaluated per call, and the refinement
rounds per call: the loss calls after the shared grid (one per parabolic
round or zoom round, summed over the grid pieces).  Points and rounds are
deterministic for a seed and so the regression signal.  Needs only numpy and
the package.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from wassrisk import CostExponent, CustomLoss
from wassrisk import losses as L

BANDS = ((20, 60), (150, 250), (800, 1000))
NEAR_C_ATOMS = np.array([-1.0, 0.2, 0.5, 2.0])


def _twin(kind: str, alpha: float, seen: list[int]) -> CustomLoss:
    power = 1.0 if kind == "pinball" else 2.0

    def h(y):
        seen.append(np.size(y))
        return alpha * np.maximum(y, 0.0) ** power + (1.0 - alpha) * np.maximum(-y, 0.0) ** power

    return CustomLoss(h, max(alpha, 1.0 - alpha), power)


def _band(lo: int, hi: int):
    def draw(rng):
        n = int(rng.integers(lo, hi + 1))
        atoms = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        return atoms - rng.uniform(atoms.min(), atoms.max())

    return draw


def _one_atom(rng):
    return np.array([rng.uniform(-4.0, 4.0)])


def _near_c_atoms(rng):
    return NEAR_C_ATOMS - rng.uniform(-0.5, 0.5)


def _margin(lo: float, hi: float):
    return lambda rng, c_eff: c_eff + float(rng.uniform(lo, hi))


def _near_c(rng, c_eff):
    return c_eff * (1.0 + 1e-3)


# (kind, p, row label, seed key, atoms(rng), lambda(rng, c_eff)); a draw
# takes the atoms, then alpha, then lambda
CASES = [
    *((kind, p, f"atoms {lo}-{hi}", lo, _band(lo, hi), _margin(0.05, 3.0))
      for kind, p in (("pinball", 1.5), ("pinball", 2.0), ("quad", 2.0)) for lo, hi in BANDS),
    ("pinball", 1.0, "one atom", 1, _one_atom, _margin(0.2, 3.0)),
    ("quad", 2.0, "one atom", 1, _one_atom, _margin(0.2, 3.0)),
    ("quad", 2.0, "4 atoms, lam=C(1+1e-3)", 4, _near_c_atoms, _near_c),
]


def _grids_built(loss, cost, lam, xs, c_eff) -> int:
    """Grid pieces one `_numeric_sup` call builds."""
    built = []
    shared = L._shared_grid

    def counted(lo, hi, step):
        grid = shared(lo, hi, step)
        built.append(grid is not None)
        return grid

    L._shared_grid = counted
    try:
        L._numeric_sup(loss, cost, lam, xs, c_eff)
    finally:
        L._shared_grid = shared
    return sum(built)


def run(repeats: int, draws: int, seed: int) -> list[tuple[str, float, int, float, float, float]]:
    rows = []
    for kind, p, label, key, atoms, level in CASES:
        cost = CostExponent(p)
        rng = np.random.default_rng([seed, int(10 * p), len(kind), key])
        times, points, rounds = [], 0, 0
        for _ in range(draws):
            xs = atoms(rng)
            seen: list[int] = []
            loss = _twin(kind, float(rng.uniform(0.1, 0.9)), seen)
            c_eff = L._growth_certificate(loss, cost)
            lam = level(rng, c_eff)
            seen.clear()
            grids = _grids_built(loss, cost, lam, xs, c_eff)
            points += sum(seen)
            rounds += len(seen) - 1 - grids  # the atoms' own values, then each grid piece
            for _ in range(repeats):
                t0 = time.perf_counter()
                L._numeric_sup(loss, cost, lam, xs, c_eff)
                times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
        rows.append((f"{kind} p={p:g} {label}", 1e3 * med, points // draws, rounds / draws, 1e3 * q1, 1e3 * q3))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--draws", type=int, default=4)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    print(f"{'case':<38} {'median ms':>10} {'q1-q3 ms':>16} {'points/call':>12} {'rounds/call':>12}")
    for name, med, points, rounds, q1, q3 in run(args.repeats, args.draws, args.seed):
        print(f"{name:<38} {med:>10.3f} {f'{q1:.3f}-{q3:.3f}':>16} {points:>12} {rounds:>12.2f}")


if __name__ == "__main__":
    main()
