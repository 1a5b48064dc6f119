"""Time the numeric supremum (layer L2) on inputs shaped like `custom_dual`.

    PYTHONPATH=src python tools/sup_bench.py [--repeats 7] [--draws 4] [--seed 5]

Each case calls `losses._numeric_sup` directly: the `CustomLoss` twins of
`Pinball` and `AsymQuadratic` that the `custom_dual` workload uses, cost
exponent p in {1.5, 2} (the quadratic twin only under p = 2, where its growth
is certified), and atom bands of 20-60, 150-250 and 800-1000.  Per case,
`--draws` inputs are drawn (normal atoms shifted by a point m of their
range, alpha in [0.1, 0.9], lambda = c_eff + U(0.05, 3)), and each is timed
`--repeats` times.  The table gives the median milliseconds per call over
all of them and the loss points evaluated per call, which is deterministic
for a seed and so the regression signal.  Needs only numpy and the package.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from wassrisk import CostExponent, CustomLoss
from wassrisk import losses as L

BANDS = ((20, 60), (150, 250), (800, 1000))


def _twin(kind: str, alpha: float, seen: list[int]) -> CustomLoss:
    power = 1.0 if kind == "pinball" else 2.0

    def h(y):
        seen.append(np.size(y))
        return alpha * np.maximum(y, 0.0) ** power + (1.0 - alpha) * np.maximum(-y, 0.0) ** power

    return CustomLoss(h, max(alpha, 1.0 - alpha), power)


def run(repeats: int, draws: int, seed: int) -> list[tuple[str, float, int, float, float]]:
    rows = []
    for kind, p in (("pinball", 1.5), ("pinball", 2.0), ("quad", 2.0)):
        cost = CostExponent(p)
        for band in BANDS:
            rng = np.random.default_rng([seed, int(10 * p), len(kind), band[0]])
            times, points = [], 0
            for _ in range(draws):
                n = int(rng.integers(band[0], band[1] + 1))
                atoms = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
                xs = atoms - rng.uniform(atoms.min(), atoms.max())
                seen: list[int] = []
                loss = _twin(kind, float(rng.uniform(0.1, 0.9)), seen)
                c_eff = L._growth_certificate(loss, cost)
                lam = c_eff + float(rng.uniform(0.05, 3.0))
                seen.clear()
                L._numeric_sup(loss, cost, lam, xs, c_eff)
                points += sum(seen)
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    L._numeric_sup(loss, cost, lam, xs, c_eff)
                    times.append(time.perf_counter() - t0)
            q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
            rows.append((f"{kind} p={p:g} atoms {band[0]}-{band[1]}", 1e3 * med, points // draws,
                         1e3 * q1, 1e3 * q3))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--draws", type=int, default=4)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    print(f"{'case':<30} {'median ms':>10} {'q1-q3 ms':>16} {'points/call':>12}")
    for name, med, points, q1, q3 in run(args.repeats, args.draws, args.seed):
        print(f"{name:<30} {med:>10.3f} {f'{q1:.3f}-{q3:.3f}':>16} {points:>12}")


if __name__ == "__main__":
    main()
