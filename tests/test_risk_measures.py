import math

import numpy as np
import pytest
from scipy import stats

from wassrisk import (
    AsymQuadratic,
    BallPenalty,
    CostExponent,
    DeltaTooSmall,
    Empirical,
    ExpectileLevel,
    Exponential,
    Infeasible,
    LinearPenalty,
    MomentUndefined,
    NoConvergence,
    Normal,
    Pinball,
    StudentT,
    adjusted_level,
    expectile,
    mean,
    quantile,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_functional,
    robust_generalized_quantile,
    var,
)

from wassrisk import risk_measures, robust_core
from wassrisk.risk_measures import robust_generalized_quantile_detail

from conftest import coupled_arrays, emp, random_empirical
from reference_golden import golden_section_min

P1 = CostExponent(1.0)
P2 = CostExponent(2.0)
FAIR_COIN = Empirical(((0.0, 0.5), (1.0, 0.5)))
THREE = Empirical.uniform([1.0, 2.0, 3.0])


def normal_partial(z, power, tail):
    """Independent normal partial moments used by the grid oracles."""
    if tail == "plus":
        sf = stats.norm.sf(z)
        pdf = stats.norm.pdf(z)
        return pdf - z * sf if power == 1 else (1 + z**2) * sf - z * pdf
    return normal_partial(-z, power, "plus")


def normal_expectile_grid_oracle(alpha, lo=-1.0, hi=3.0):
    """Minimize the asymmetric quadratic objective on a two-stage grid whose
    final resolution is 1e-7."""
    best = None
    for span, step in ((np.arange(lo, hi, 1e-3), 1e-3), (None, 1e-7)):
        if span is None:
            span = np.arange(best - 2e-3, best + 2e-3, step)
        obj = alpha * normal_partial(span, 2, "plus") + (1 - alpha) * normal_partial(
            span, 2, "minus"
        )
        best = float(span[int(np.argmin(obj))])
    return best


class TestVar:
    def test_examples(self):
        assert var(Empirical.uniform([1, 2, 3, 4]), 0.5) == 2.0
        assert var(Normal(1.5, 2.0), 0.5) == pytest.approx(1.5, abs=1e-12)
        assert var(Exponential(1), 0.9) == pytest.approx(math.log(10.0), abs=1e-12)


class TestExpectile:
    def test_two_point_level_is_value(self):
        # solve 0.75(1-m) = 0.25m by hand: m = 0.75
        assert expectile(FAIR_COIN, 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_half_is_mean(self, rng):
        for d in (FAIR_COIN, Normal(0.7, 2.0), Exponential(0.5), StudentT(4.0, 1.0, 2.0)):
            assert expectile(d, 0.5) == pytest.approx(mean(d), abs=1e-10)

    def test_normal_point_nine_matches_grid_oracle(self):
        oracle = normal_expectile_grid_oracle(0.9)
        assert expectile(Normal(0, 1), 0.9) == pytest.approx(oracle, abs=2e-7)

    def test_foc_residual_small(self, rng):
        from wassrisk import partial_moment_minus, partial_moment_plus

        for _ in range(20):
            d = random_empirical(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            m = expectile(d, alpha)
            resid = alpha * partial_moment_plus(d, m, 1) - (1 - alpha) * partial_moment_minus(
                d, m, 1
            )
            assert abs(resid) < 1e-10 * (1 + abs(m))

    def test_undefined_moments(self):
        with pytest.raises(MomentUndefined):
            expectile(StudentT(1.5), 0.7)

    def test_failed_certificate_raises(self, monkeypatch):
        # a root moved off its sign bracket is uncertified: the classical and
        # linear robust expectiles raise instead of returning it
        for d in (Normal(0, 1), Exponential(1.3)):
            assert math.isfinite(expectile(d, 0.75))
        root = robust_core.increasing_root
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        for d in (Normal(0, 1), Exponential(1.3)):
            with pytest.raises(NoConvergence, match="fails its certificate"):
                expectile(d, 0.75)
            with pytest.raises(NoConvergence, match="fails its certificate"):
                robust_expectile_linear(d, 0.75, 1.5)


class TestRobustExpectileLinear:
    def test_two_point_adjusted_level(self):
        assert robust_expectile_linear(FAIR_COIN, 0.75, 1.0) == pytest.approx(0.9, abs=1e-12)

    def test_three_point_rational_value(self):
        got = robust_expectile_linear(THREE, 0.75, 1.0)
        assert got == pytest.approx(30.0 / 11.0, abs=1e-12)

    def test_alpha_half_is_mean(self):
        for d in (FAIR_COIN, Normal(0, 1), Exponential(1), StudentT(5)):
            assert robust_expectile_linear(d, 0.5, 2.0) == pytest.approx(mean(d), abs=1e-10)

    def test_delta_guard(self):
        with pytest.raises(DeltaTooSmall):
            robust_expectile_linear(FAIR_COIN, 0.75, 0.75)
        with pytest.raises(DeltaTooSmall):
            ExpectileLevel(0.1, 0.9)

    def test_adjusted_level_identity(self, rng):
        # the FOC root and the classical expectile at the adjusted level are
        # two independent code paths
        for _ in range(60):
            d = random_empirical(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            delta = max(alpha, 1 - alpha) + float(rng.uniform(0.01, 8.0))
            lhs = robust_expectile_linear(d, alpha, delta)
            rhs = expectile(d, adjusted_level(alpha, delta))
            assert abs(lhs - rhs) <= 1e-9

    def test_adjusted_level_formula(self):
        lvl = ExpectileLevel(0.75, 1.0)
        a, b = lvl.coefficient_plus, lvl.coefficient_minus
        assert (a, b) == pytest.approx((3.0, 1.0 / 3.0))
        assert lvl.adjusted_alpha == pytest.approx(a / (a + b), abs=1e-14)
        assert lvl.adjusted_alpha == pytest.approx(0.9, abs=1e-14)
        # approaches the plain level as delta grows
        assert adjusted_level(0.7, 1e9) == pytest.approx(0.7, abs=1e-8)

    def test_adjusted_alpha_is_derived(self):
        # the adjusted level follows from alpha and delta; it is not an argument
        with pytest.raises(TypeError):
            ExpectileLevel(0.3, 2.0, 0.9)
        assert ExpectileLevel(0.3, 2.0).adjusted_alpha == adjusted_level(0.3, 2.0)

    def test_large_delta_limit(self):
        for d in (Normal(0, 1), Exponential(1), StudentT(5)):
            for alpha in (0.2, 0.5, 0.8):
                got = robust_expectile_linear(d, alpha, 1e6)
                assert got == pytest.approx(expectile(d, alpha), abs=1e-4)

    def test_mirror_identity(self, rng):
        for _ in range(25):
            d = random_empirical(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            delta = max(alpha, 1 - alpha) + float(rng.uniform(0.05, 4.0))
            lhs = robust_expectile_linear(d.negate(), 1 - alpha, delta)
            rhs = -robust_expectile_linear(d, alpha, delta)
            assert abs(lhs - rhs) <= 1e-9

    def test_psi_characterization(self, rng):
        from wassrisk import partial_moment_minus, partial_moment_plus

        for _ in range(25):
            d = random_empirical(rng)
            alpha = float(rng.uniform(0.55, 0.95))
            delta = alpha + float(rng.uniform(0.05, 4.0))
            e = robust_expectile_linear(d, alpha, delta)
            lvl = ExpectileLevel(alpha, delta)
            psi_mean = 2 * lvl.coefficient_plus * partial_moment_plus(d, e, 1) - (
                2 * lvl.coefficient_minus * partial_moment_minus(d, e, 1)
            )
            assert abs(psi_mean) <= 1e-9


class TestCoherence:
    def test_translation_homogeneity_monotone_subadditive(self, rng):
        alpha, d1 = 0.75, 2.0
        for _ in range(30):
            x, y, w = coupled_arrays(rng)
            ex = robust_expectile_linear(emp(x, w), alpha, d1)
            ey = robust_expectile_linear(emp(y, w), alpha, d1)
            c = float(rng.uniform(-3, 3))
            assert robust_expectile_linear(emp(x + c, w), alpha, d1) == pytest.approx(
                ex + c, abs=1e-8
            )
            for t in (0.5, 2.0, 7.0):
                assert robust_expectile_linear(emp(t * x, w), alpha, d1) == pytest.approx(
                    t * ex, abs=1e-8 * max(1, t)
                )
            assert robust_expectile_linear(emp(np.zeros(1), np.ones(1)), alpha, d1) == 0.0
            bump = rng.uniform(0, 1, len(x))
            assert robust_expectile_linear(emp(x + bump, w), alpha, d1) >= ex - 1e-9
            assert robust_expectile_linear(emp(x + y, w), alpha, d1) <= ex + ey + 1e-8


class TestRobustExpectileBall:
    def test_zero_radius_reduction(self):
        for d in (Normal(0, 1), Exponential(1), StudentT(5)):
            for alpha in (0.2, 0.5, 0.8):
                assert robust_expectile_ball(d, alpha, 0.0) == pytest.approx(
                    expectile(d, alpha), abs=1e-12
                )

    def test_alpha_half_is_mean(self):
        for radius in (0.1, 0.5, 2.0):
            assert robust_expectile_ball(Normal(0, 1), 0.5, radius) == pytest.approx(
                0.0, abs=1e-7
            )
            assert robust_expectile_ball(FAIR_COIN, 0.5, radius) == pytest.approx(
                0.5, abs=1e-7
            )

    def test_normal_against_two_stage_grid_oracle(self):
        # profile of the two-variable objective on an (m, lambda) grid refined
        # to 1e-4 around the coarse optimum
        alpha, radius = 0.75, 0.5
        got = robust_expectile_ball(Normal(0, 1), alpha, radius)

        def objective(ms, lams):
            mm, ll = np.meshgrid(ms, lams, indexing="ij")
            big_a = alpha * ll / (ll - alpha)
            big_b = (1 - alpha) * ll / (ll - (1 - alpha))
            val = (
                big_a * normal_partial(mm, 2, "plus")
                + big_b * normal_partial(mm, 2, "minus")
                + radius * ll
            )
            return val

        ms = np.linspace(-0.5, 2.5, 301)
        lams = np.linspace(0.7501, 30.0, 600)
        val = objective(ms, lams)
        i, j = np.unravel_index(np.argmin(val), val.shape)
        m0, l0 = ms[i], lams[j]
        ms = np.arange(m0 - 0.02, m0 + 0.02, 1e-4)
        lams = np.arange(max(l0 - 0.1, 0.7501), l0 + 0.1, 1e-4)
        val = objective(ms, lams)
        i, j = np.unravel_index(np.argmin(val), val.shape)
        assert got == pytest.approx(float(ms[i]), abs=1e-3)
        assert got > expectile(Normal(0, 1), 0.75)

    def test_monotone_in_radius(self):
        for alpha, direction in ((0.75, 1), (0.25, -1)):
            vals = [
                robust_expectile_ball(Exponential(1), alpha, r)
                for r in (0.0, 0.2, 0.5, 1.0, 2.0)
            ]
            assert all(direction * (b - a) >= -1e-7 for a, b in zip(vals[:-1], vals[1:]))

    def test_point_mass_stays_put(self):
        pm = Empirical(((1.7, 1.0),))
        for radius in (0.0, 0.3, 2.0):
            assert robust_expectile_ball(pm, 0.8, radius) == pytest.approx(1.7, abs=1e-9)

    def test_far_prior_equals_the_recentred_solve(self):
        # the prior with atoms near 1e6 of the output parity data: partial
        # moments expanded about the nearest atom keep the answer to the
        # recentred one plus the shift, to the spacing of floats near 1e6
        far = [1e6 + 0.37 * k * k - 3.1 * k for k in range(30)]
        weights = [(k + 1) / 465.0 for k in range(30)]
        near = Empirical(tuple(zip([x - 1e6 for x in far], weights)))
        got = robust_expectile_ball(Empirical(tuple(zip(far, weights))), 0.25, 0.6)
        assert got == pytest.approx(robust_expectile_ball(near, 0.25, 0.6) + 1e6, abs=1e-9)

    def test_inner_solves_are_not_repeated(self, monkeypatch):
        # the ball expectile is one outer solve: each dual solve is at a
        # distinct m, and the count it reports is the number of them
        ms = []
        build = robust_core._dual

        def recording(*args):
            lam_fixed, at = build(*args)
            return lam_fixed, lambda m: ms.append(m) or at(m)

        monkeypatch.setattr(robust_core, "_dual", recording)
        for d, alpha, radius in ((Normal(0, 1), 0.75, 0.5), (THREE, 0.2, 0.1), (Exponential(1.0), 0.1, 2.0)):
            ms.clear()
            got, _, count = risk_measures._ball_stats(d, alpha, radius)
            assert count == len(ms) == len(set(ms)) < 40
            assert got == robust_expectile_ball(d, alpha, radius)

    def test_failed_certificate_raises(self, monkeypatch):
        # a minimizer moved off the root lies outside the sign bracket of
        # the root's slope evaluations, and the ball expectile raises
        # instead of returning it
        root = robust_core.increasing_root
        assert math.isfinite(robust_expectile_ball(Normal(0, 1), 0.75, 0.5))
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        with pytest.raises(NoConvergence):
            robust_expectile_ball(Normal(0, 1), 0.75, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            robust_expectile_ball(FAIR_COIN, 0.7, -0.1)
        with pytest.raises(MomentUndefined):
            robust_expectile_ball(StudentT(2.0), 0.7, 0.5)


class TestRobustGeneralizedQuantile:
    def test_pinball_interval_contains_var(self):
        four = Empirical.uniform([1.0, 2.0, 3.0, 4.0])
        m1, m2 = robust_generalized_quantile(four, Pinball(0.5), P1, LinearPenalty(5.0))
        assert m1 - 1e-6 <= var(four, 0.5) <= m2 + 1e-6
        assert m1 == pytest.approx(2.0, abs=1e-6)
        assert m2 == pytest.approx(3.0, abs=1e-6)

    def test_ball_zero_two_point(self):
        m1, m2 = robust_generalized_quantile(FAIR_COIN, AsymQuadratic(0.75), P2, BallPenalty(0.0))
        assert 0.5 * (m1 + m2) == pytest.approx(0.75, abs=1e-6)
        assert m2 - m1 < 1e-4

    def test_point_mass_quadratic(self):
        pm = Empirical(((2.5, 1.0),))
        m1, m2 = robust_generalized_quantile(pm, AsymQuadratic(0.5), P2, LinearPenalty(2.0))
        assert 0.5 * (m1 + m2) == pytest.approx(2.5, abs=1e-6)

    def test_linear_path_agrees_with_foc_root(self, rng):
        # the quantile engine minimizes the dual objective directly; the FOC
        # bisection is an entirely separate path
        for _ in range(10):
            d = random_empirical(rng, max_atoms=15)
            alpha = float(rng.uniform(0.2, 0.8))
            delta = max(alpha, 1 - alpha) + float(rng.uniform(0.2, 3.0))
            m1, m2 = robust_generalized_quantile(d, AsymQuadratic(alpha), P2, LinearPenalty(delta))
            root = robust_expectile_linear(d, alpha, delta)
            assert m1 - 1e-6 <= root <= m2 + 1e-6
            assert 0.5 * (m1 + m2) == pytest.approx(root, abs=1e-4)

    def test_ball_path_agrees_with_reduced_solver(self, rng):
        # an independent oracle: golden section over m of the public robust
        # functional, against both the quantile solve and the ball expectile
        alpha, radius = 0.7, 0.4
        loss, phi = AsymQuadratic(alpha), BallPenalty(radius)
        priors = [random_empirical(rng, max_atoms=10) for _ in range(3)]
        priors += [Normal(0.2, 1.3), StudentT(5.0, -0.1, 0.8), Exponential(1.7)]
        for d in priors:
            lo, hi = quantile(d, 0.001) - 2.0, quantile(d, 0.999) + 2.0
            oracle = golden_section_min(lambda m: robust_functional(d, loss, P2, phi, m), lo, hi, 1e-10)[0]
            m1, m2 = robust_generalized_quantile(d, loss, P2, phi)
            assert m1 == m2
            assert m1 == pytest.approx(oracle, abs=1e-6)
            assert robust_expectile_ball(d, alpha, radius) == pytest.approx(oracle, abs=1e-6)

    def test_expectiles_are_the_quantile_solve(self, rng):
        # the classical and both robust expectiles are generalized quantiles
        # of the squared asymmetric loss, and the same solve, bit for bit
        loss = AsymQuadratic(0.7)
        for d in (Normal(0.2, 1.3), StudentT(5.0, -0.1, 0.8), Exponential(1.7), random_empirical(rng, max_atoms=20)):

            def solve(phi):
                return robust_generalized_quantile_detail(d, loss, P2, phi).argmin_m[0]

            assert robust_expectile_linear(d, 0.7, 1.6) == solve(LinearPenalty(1.6))
            for radius in (0.0, 0.4):
                assert robust_expectile_ball(d, 0.7, radius) == solve(BallPenalty(radius))
            assert expectile(d, 0.7) == solve(BallPenalty(0.0))

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            robust_generalized_quantile(FAIR_COIN, AsymQuadratic(0.5), P2, LinearPenalty(0.3))
