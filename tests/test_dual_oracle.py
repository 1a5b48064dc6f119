import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from wassrisk import (
    CostExponent,
    DensityBand,
    Empirical,
    dual_expectile_max,
    robust_expectile_linear,
    wasserstein_1d,
)

from wassrisk.dual_oracle import _threshold_extreme

from conftest import random_empirical

P1 = CostExponent(1.0)
P2 = CostExponent(2.0)
THREE = Empirical.uniform([1.0, 2.0, 3.0])


def band_lp_oracle(d, band, direction):
    """LP formulation with the scale variable made explicit:
    max/min sum(q*x) s.t. q >= c*p, q <= rho*c*p, sum q = 1, c >= 0."""
    x, p = d.values, d.weights
    n = len(x)
    rho = band.ratio
    sign = -1.0 if direction == "max" else 1.0
    c_obj = np.concatenate([sign * x, [0.0]])
    # inequality rows: c*p - q <= 0 and q - rho*c*p <= 0
    a_ub = np.zeros((2 * n, n + 1))
    for i in range(n):
        a_ub[i, i] = -1.0
        a_ub[i, n] = p[i]
        a_ub[n + i, i] = 1.0
        a_ub[n + i, n] = -rho * p[i]
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=np.zeros(2 * n),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * (n + 1),
        method="highs",
    )
    assert res.success
    return float(np.dot(res.x[:n], x))


def transport_lp_oracle(a, b, p):
    """Exact discrete transport cost by linear programming on the coupling."""
    xa, wa = a.values, a.weights
    xb, wb = b.values, b.weights
    na, nb = len(xa), len(xb)
    cost = np.abs(xa[:, None] - xb[None, :]) ** p
    a_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wa[i])
    for j in range(nb):
        row = np.zeros((na, nb))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(wb[j])
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=[(0, None)] * (na * nb),
        method="highs",
    )
    assert res.success
    return float(res.fun)


class TestDensityBand:
    def test_construction_from_level(self):
        band = DensityBand.from_expectile_level(0.75, 1.0)
        assert band.lower == pytest.approx(2.0 / 3.0)
        assert band.upper == pytest.approx(6.0)
        assert band.ratio == pytest.approx(9.0)

    def test_band_order_for_high_levels(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(0.51, 0.95))
            delta = alpha + float(rng.uniform(0.01, 5.0))
            band = DensityBand.from_expectile_level(alpha, delta)
            assert 0 < band.lower <= band.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityBand(0.0, 1.0)
        with pytest.raises(ValueError):
            DensityBand.from_expectile_level(0.9, 0.9)


class TestThresholdGreedy:
    def test_hand_case_three_atoms(self):
        got = dual_expectile_max(THREE, DensityBand.from_expectile_level(0.75, 1.0))
        assert got == pytest.approx(30.0 / 11.0, abs=1e-14)
        # the winning weights are (1/11, 1/11, 9/11): verify by direct dot
        q = np.array([1.0, 1.0, 9.0]) / 11.0
        assert got == pytest.approx(float(np.dot(q, THREE.values)), abs=1e-14)

    def test_degenerate_band_returns_mean(self):
        band = DensityBand(2.0, 2.0)
        got = dual_expectile_max(THREE, band)
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_single_atom(self):
        pm = Empirical(((2.5, 1.0),))
        band = DensityBand.from_expectile_level(0.75, 1.0)
        assert dual_expectile_max(pm, band) == 2.5
        assert dual_expectile_max(pm, band, "min") == 2.5

    def test_greedy_matches_lp_exactly(self, rng):
        for _ in range(15):
            d = random_empirical(rng, max_atoms=12)
            alpha = float(rng.uniform(0.1, 0.9))
            delta = max(alpha, 1 - alpha) + float(rng.uniform(0.05, 3.0))
            band = DensityBand.from_expectile_level(alpha, delta)
            for direction in ("max", "min"):
                greedy = dual_expectile_max(d, band, direction)
                lp = band_lp_oracle(d, band, direction)
                assert greedy == pytest.approx(lp, abs=1e-6)

    def test_greedy_dominates_simplex_grid(self, rng):
        # every feasible point of a dense simplex grid scores no better than
        # the threshold construction (one-sided exactness witness)
        for n in (2, 3, 4):
            d = random_empirical(rng, max_atoms=n)
            n_atoms = len(d.values)
            band = DensityBand.from_expectile_level(0.7, 1.2)
            rho = band.ratio
            vmax = dual_expectile_max(d, band, "max")
            vmin = dual_expectile_max(d, band, "min")
            steps = 24
            for counts in itertools.product(range(steps + 1), repeat=n_atoms - 1):
                if sum(counts) > steps:
                    continue
                q = np.array(list(counts) + [steps - sum(counts)], dtype=float) / steps
                if np.any(q <= 0):
                    continue
                r = q / d.weights
                if np.max(r) / np.min(r) > rho + 1e-12:
                    continue
                val = float(np.dot(q, d.values))
                assert val <= vmax + 1e-9
                assert val >= vmin - 1e-9

    def test_agreement_with_foc_solver(self, rng):
        for _ in range(40):
            d = random_empirical(rng, max_atoms=50)
            for alpha, direction in ((0.6, "max"), (0.75, "max"), (0.9, "max"),
                                     (0.1, "min"), (0.25, "min"), (0.4, "min")):
                for delta in (1.0, 2.0, 10.0):
                    band = DensityBand.from_expectile_level(alpha, delta)
                    lhs = robust_expectile_linear(d, alpha, delta)
                    rhs = dual_expectile_max(d, band, direction)
                    assert abs(lhs - rhs) <= 1e-8

    def test_merged_ties_are_canonical(self):
        # tied atoms merge at construction, so any tie split the greedy could
        # consider collapses to the same canonical instance
        tied = Empirical(((1.0, 0.25), (1.0, 0.25), (3.0, 0.5)))
        band = DensityBand.from_expectile_level(0.8, 1.0)
        merged = Empirical(((1.0, 0.5), (3.0, 0.5)))
        assert dual_expectile_max(tied, band) == dual_expectile_max(merged, band)


def _threshold_extreme_loop(x, p, rho):
    """Reference: the scan over the n + 1 splits written as a Python loop."""
    cw = np.concatenate(([0.0], np.cumsum(p)))
    cwx = np.concatenate(([0.0], np.cumsum(p * x)))
    total_x = cwx[-1]
    best = -np.inf
    for k in range(len(x) + 1):
        low_w, low_x = cw[k], cwx[k]
        high_w, high_x = 1.0 - low_w, total_x - low_x
        denom = low_w + rho * high_w
        val = (low_x + rho * high_x) / denom
        if val > best:
            best = val
    return float(best)


def test_threshold_extreme_equals_the_split_loop(rng):
    # the array form performs the loop's per-split operations elementwise
    cases = [Empirical(((2.5, 1.0),))] + [random_empirical(rng, max_atoms=300) for _ in range(200)]
    for d in cases:
        x, p = d.values, d.weights
        for rho in (1.0, float(rng.uniform(1.0, 3.0)), float(rng.uniform(3.0, 50.0))):
            assert _threshold_extreme(x, p, rho) == _threshold_extreme_loop(x, p, rho)
            assert _threshold_extreme(-x[::-1], p[::-1], rho) == _threshold_extreme_loop(-x[::-1], p[::-1], rho)


class TestWasserstein1d:
    def test_identical_measures(self):
        a = Empirical(((0.0, 0.5), (1.0, 0.5)))
        assert wasserstein_1d(a, a, P2) == 0.0

    def test_point_masses(self):
        a, b = Empirical(((0.0, 1.0),)), Empirical(((3.0, 1.0),))
        assert wasserstein_1d(a, b, P2) == pytest.approx(9.0)
        assert wasserstein_1d(a, b, P1) == pytest.approx(3.0)

    def test_quantile_coupling_example(self):
        a = Empirical(((0.0, 0.5), (1.0, 0.5)))
        b = Empirical(((0.0, 0.25), (1.0, 0.75)))
        assert wasserstein_1d(a, b, P1) == pytest.approx(0.25, abs=1e-14)

    def test_matches_transport_lp(self, rng):
        for _ in range(10):
            a = random_empirical(rng, max_atoms=8)
            b = random_empirical(rng, max_atoms=9)
            for cost in (P1, P2):
                got = wasserstein_1d(a, b, cost)
                assert got == pytest.approx(transport_lp_oracle(a, b, cost.p), abs=1e-9)

    def test_symmetry_and_separation(self, rng):
        for _ in range(10):
            a = random_empirical(rng, max_atoms=6)
            b = random_empirical(rng, max_atoms=6)
            assert wasserstein_1d(a, b, P2) == pytest.approx(wasserstein_1d(b, a, P2), abs=1e-12)
            if a != b:
                assert wasserstein_1d(a, b, P2) > 0.0

    def test_power_triangle_consistency(self, rng):
        for _ in range(15):
            a = random_empirical(rng, max_atoms=6)
            b = random_empirical(rng, max_atoms=6)
            c = random_empirical(rng, max_atoms=6)
            for cost in (P1, P2):
                w_ac = wasserstein_1d(a, c, cost)
                w_ab = wasserstein_1d(a, b, cost)
                w_bc = wasserstein_1d(b, c, cost)
                bound = (w_ab ** (1 / cost.p) + w_bc ** (1 / cost.p)) ** cost.p
                assert w_ac <= bound + 1e-9
