import math
import warnings

import numpy as np
import pytest

from wassrisk import (
    AsymQuadratic,
    CostExponent,
    CustomLoss,
    GeneralizedQuantile,
    Pinball,
    PowerLoss,
    UncertifiedGrowth,
    Empirical,
    LinearPenalty,
    check_L_membership,
    expected_transform,
    finiteness_threshold,
    lambda_c_transform,
    lambda_c_transform_many,
    loss_value,
    robust_functional,
)
from wassrisk import losses as L

from reference_sup import reference_sup

P1 = CostExponent(1.0)
P2 = CostExponent(2.0)


def pinball_custom(alpha):
    return CustomLoss(
        lambda y, a=alpha: a * np.maximum(y, 0.0) + (1 - a) * np.maximum(-y, 0.0),
        max(alpha, 1 - alpha),
        1.0,
    )


def quad_custom(alpha):
    return CustomLoss(
        lambda y, a=alpha: a * np.maximum(y, 0.0) ** 2 + (1 - a) * np.maximum(-y, 0.0) ** 2,
        max(alpha, 1 - alpha),
        2.0,
    )


class TestTransformClosedForms:
    def test_pinball_equals_loss_above_threshold(self):
        assert lambda_c_transform(Pinball(0.3), P1, 0.8, 2.0) == pytest.approx(0.6)
        assert lambda_c_transform(Pinball(0.3), P1, 0.7, -1.0) == pytest.approx(0.7)

    def test_pinball_infinite_below_threshold(self):
        assert lambda_c_transform(Pinball(0.3), P1, 0.5, 0.0) == math.inf
        assert lambda_c_transform(Pinball(0.3), P1, 0.69, 3.0) == math.inf

    def test_quad_symmetric_case(self):
        # at alpha=1/2 and lam=1 the plus coefficient is 1, so the transform is x^2
        assert lambda_c_transform(AsymQuadratic(0.5), P2, 1.0, 2.0) == pytest.approx(4.0)
        assert lambda_c_transform(AsymQuadratic(0.5), P2, 0.5, 1.0) == math.inf

    def test_quad_minus_branch_coefficient(self):
        got = lambda_c_transform(AsymQuadratic(0.25), P2, 2.0, -1.0)
        assert got == pytest.approx(0.75 * 2.0 / (2.0 - 0.75), abs=1e-12)
        assert got == pytest.approx(1.2, abs=1e-12)

    def test_quad_boundary_halfline_forms(self):
        # alpha < 1/2: at lam = 1-alpha the transform is finite only on x >= 0
        alpha = 0.25
        lam = 1 - alpha
        assert lambda_c_transform(AsymQuadratic(alpha), P2, lam, -0.1) == math.inf
        got = lambda_c_transform(AsymQuadratic(alpha), P2, lam, 2.0)
        assert got == pytest.approx(alpha * (1 - alpha) / (1 - 2 * alpha) * 4.0, abs=1e-12)
        # alpha > 1/2 mirrors on the other side
        alpha = 0.75
        lam = alpha
        assert lambda_c_transform(AsymQuadratic(alpha), P2, lam, 0.1) == math.inf
        got = lambda_c_transform(AsymQuadratic(alpha), P2, lam, -2.0)
        assert got == pytest.approx((1 - alpha) * alpha / (2 * alpha - 1) * 4.0, abs=1e-12)

    def test_quad_boundary_matches_direct_sup_on_finite_side(self):
        # at lam exactly max(a, b) the transform is finite on one half-line;
        # check the closed value there against a direct windowed supremum
        for alpha, x in ((0.75, -1.3), (0.25, 1.7)):
            lam = max(alpha, 1 - alpha)
            closed = lambda_c_transform(AsymQuadratic(alpha), P2, lam, x)
            ys = np.linspace(-60.0, 60.0, 400001)
            obj = alpha * np.maximum(ys, 0) ** 2 + (1 - alpha) * np.maximum(-ys, 0) ** 2 - (
                lam * (x - ys) ** 2
            )
            assert closed == pytest.approx(float(obj.max()), abs=1e-6)

    def test_weighted_quadratic_pair(self):
        # exponent-matched power pair shares the closed form with rescaled sides
        loss = GeneralizedQuantile(0.5, PowerLoss(2.0, 2.0), PowerLoss(2.0, 2.0))
        lam = 3.0
        a = 0.5 * 2.0
        expected = a * lam / (lam - a)
        assert lambda_c_transform(loss, P2, lam, 1.0) == pytest.approx(expected, abs=1e-12)


class TestThresholds:
    def test_examples(self):
        assert finiteness_threshold(Pinball(0.7), P1) == pytest.approx(0.7)
        assert finiteness_threshold(AsymQuadratic(0.5), P2) == pytest.approx(0.5)
        assert finiteness_threshold(AsymQuadratic(0.25), P2) == pytest.approx(0.75)

    def test_custom_uses_growth_constant(self):
        cu = CustomLoss(lambda y: 1 + np.maximum(y, 0.0), 1.0, 1.0)
        assert finiteness_threshold(cu, P1) == pytest.approx(1.0)
        assert lambda_c_transform(cu, P1, 1.0, 0.0) == math.inf

    def test_uncertified_growth_rejected(self):
        # a quadratic loss cannot satisfy a linear-cost growth bound
        with pytest.raises(UncertifiedGrowth):
            finiteness_threshold(AsymQuadratic(0.5), P1)
        # a stated bound that fails on the certification grid is rejected
        lying = CustomLoss(lambda y: np.abs(y) ** 2, 0.5, 1.0)
        with pytest.raises(UncertifiedGrowth):
            finiteness_threshold(lying, P1)

    def test_stated_power_above_p_raises_before_the_grid(self):
        def never_called(y):
            raise AssertionError("the grid must not be evaluated")

        with pytest.raises(UncertifiedGrowth, match="grows like"):
            finiteness_threshold(CustomLoss(never_called, 1.0, 2.0), P1)

    def test_cost_exponent_validation(self):
        with pytest.raises(ValueError):
            CostExponent(0.5)


class TestNumericAgreement:
    def test_closed_matches_numeric_sup(self, rng):
        for _ in range(60):
            alpha = float(rng.uniform(0.08, 0.92))
            x = float(rng.uniform(-4.0, 4.0))
            lam = max(alpha, 1 - alpha) + float(rng.uniform(0.15, 3.0))
            c1 = lambda_c_transform(Pinball(alpha), P1, lam, x)
            n1 = lambda_c_transform(pinball_custom(alpha), P1, lam, x)
            assert n1 == pytest.approx(c1, abs=1e-4)
            c2 = lambda_c_transform(AsymQuadratic(alpha), P2, lam, x)
            n2 = lambda_c_transform(quad_custom(alpha), P2, lam, x)
            assert n2 == pytest.approx(c2, abs=1e-4)

    def test_scalar_only_evaluator_supported(self):
        cu = CustomLoss(lambda y: 1.0 + max(float(y), 0.0), 1.0, 1.0)
        got = lambda_c_transform(cu, P1, 2.0, 1.5)
        assert got == pytest.approx(2.5, abs=1e-6)


def power_custom(a, b, p):
    """a*(y^+)^p + b*(y^-)^p with its growth bound for cost exponent p."""
    return CustomLoss(
        lambda y: a * np.maximum(y, 0.0) ** p + b * np.maximum(-y, 0.0) ** p, max(a, b), p
    )


def reference_many(loss, cost, lam, xs):
    return np.array([reference_sup(loss, cost, lam, float(x)) for x in xs])


class TestBatchedTransform:
    """The batched supremum against the per-atom grid-plus-golden oracle."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_random_atoms_with_duplicates(self, rng, p):
        cost = CostExponent(p)
        for _ in range(3):
            a = float(rng.uniform(0.1, 0.9))
            loss = power_custom(a, 1.0 - a, p)
            xs = rng.normal(0.0, 2.0, 25)
            xs[5:9] = xs[0]  # duplicates, left unsorted
            for margin in (0.05, 0.6, 4.0):
                lam = max(a, 1.0 - a) + margin
                got = lambda_c_transform_many(loss, cost, lam, xs)
                np.testing.assert_allclose(got, reference_many(loss, cost, lam, xs), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_single_atom_and_scalar_call(self, rng, p):
        cost = CostExponent(p)
        loss = CustomLoss(lambda y: np.logaddexp(0.0, y), 1.0, 1.0)
        thr = finiteness_threshold(loss, cost)
        for x in rng.uniform(-5.0, 5.0, 5):
            for lam in (thr + 0.2, thr + 1.5, thr + 6.0):
                want = reference_sup(loss, cost, lam, float(x))
                assert lambda_c_transform_many(loss, cost, lam, [x])[0] == pytest.approx(want, abs=1e-9)
                assert lambda_c_transform(loss, cost, lam, float(x)) == pytest.approx(want, abs=1e-9)

    def test_non_closed_form_family(self, rng):
        loss = GeneralizedQuantile(0.4, PowerLoss(1.0, 1.5), PowerLoss(2.0, 1.2))
        xs = rng.uniform(-3.0, 3.0, 12)
        for lam in (finiteness_threshold(loss, P2) + 0.1, 5.0):
            got = lambda_c_transform_many(loss, P2, lam, xs)
            np.testing.assert_allclose(got, reference_many(loss, P2, lam, xs), rtol=0.0, atol=1e-9)

    def test_far_clusters_keep_the_grid_to_the_windows(self, rng):
        # two clusters 2500 apart with unit windows: a grid spanning the atoms
        # would hold 2.5e6 points, one covering the windows a few thousand
        seen = []

        def h(y):
            seen.append(np.size(y))
            return 0.7 * np.maximum(y, 0.0) + 0.3 * np.maximum(-y, 0.0)

        loss = CustomLoss(h, 0.7, 1.0)
        xs = np.concatenate([500.0 + rng.uniform(-0.5, 0.5, 10), 3000.0 + rng.uniform(-0.5, 0.5, 10)])
        got = lambda_c_transform_many(loss, P1, 3.0, xs)
        assert sum(seen) < 50_000
        np.testing.assert_allclose(got, reference_many(loss, P1, 3.0, xs), rtol=0.0, atol=1e-9)

    def test_wide_windows_split_the_grid(self):
        # the atom at -600 needs a window of half-width 512 and the one near
        # zero a spacing of 1e-3: one shared grid would exceed its cap, so
        # the atoms are solved in two groups
        sizes = []

        def h(y):
            sizes.append(np.size(y))
            return 0.7 * np.maximum(y, 0.0) + 0.3 * np.maximum(-y, 0.0)

        loss = CustomLoss(h, 0.7, 1.0)
        xs = np.array([0.5, -600.0])
        got = lambda_c_transform_many(loss, P1, 1.2, xs)
        assert max(sizes) <= 200_002
        np.testing.assert_allclose(got, reference_many(loss, P1, 1.2, xs), rtol=0.0, atol=1e-9)

    def test_scalar_only_evaluator_in_expected_transform(self, rng):
        loss = CustomLoss(lambda y: 0.6 * max(float(y), 0.0) + 0.4 * max(-float(y), 0.0), 0.6, 1.0)
        xs = rng.normal(0.0, 1.0, 6)
        w = rng.dirichlet(np.ones(6))
        d = Empirical(tuple(zip(xs.tolist(), w.tolist())))
        want = float(np.dot(d.weights, reference_many(loss, P1, 2.0, d.values - 0.3)))
        assert expected_transform(d, loss, P1, 2.0, 0.3) == pytest.approx(want, abs=1e-9)

    def test_closed_forms_and_non_finite_values(self, rng):
        xs = rng.uniform(-3.0, 3.0, 7)
        got = lambda_c_transform_many(AsymQuadratic(0.3), P2, 1.4, xs)
        assert got.tolist() == [lambda_c_transform(AsymQuadratic(0.3), P2, 1.4, float(x)) for x in xs]
        assert np.all(np.isinf(lambda_c_transform_many(quad_custom(0.3), P2, 0.7, xs)))
        # a loss that is +inf inside a window (and off the growth-certificate
        # grid) makes that transform +inf
        barrier = CustomLoss(lambda y: np.where((y > 60.0) & (y < 70.0), np.inf, np.maximum(y, 0.0)), 1.0, 1.0)
        vals = lambda_c_transform_many(barrier, P1, 2.0, [-20.0, 59.0])
        assert math.isfinite(vals[0]) and vals[1] == math.inf
        hole = CustomLoss(lambda y: np.where((y > 60.0) & (y < 70.0), np.nan, np.maximum(y, 0.0)), 1.0, 1.0)
        with pytest.raises(ValueError):
            lambda_c_transform_many(hole, P1, 2.0, [59.0])


class TestEnvelopeArgmax:
    """Under p = 2 the chord-slope argmax replaces the divide and conquer
    whenever gain - lam*grid^2 is strictly concave on the grid; there it must
    give the same columns and row maxima bit for bit."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Runs the divide and conquer beside every envelope argmax the
        supremum computes; records (grid pieces, None) for a fallback."""
        seen = []
        envelope = L._envelope_argmax

        def both(gain, grid, xs, lam, first, last):
            k = envelope(gain, grid, xs, lam, first, last)
            gaps = np.diff(grid)
            pieces = 1 + int(np.count_nonzero(gaps > 2.0 * gaps.min()))
            if k is None:
                seen.append((pieces, None))
                return k
            k_dc, best_dc = L._monotone_argmax(gain, grid, xs, lam, 2.0, first, last)
            best = gain[k] - lam * L._cost(grid[k] - xs, 2.0)
            seen.append((pieces, (k.tolist() == k_dc.tolist(), best.tobytes() == best_dc.tobytes())))
            return k

        monkeypatch.setattr(L, "_envelope_argmax", both)
        return seen

    def test_random_atoms_with_duplicates(self, rng, compared):
        for _ in range(4):
            a = float(rng.uniform(0.1, 0.9))
            loss = power_custom(a, 1.0 - a, 2.0)
            xs = rng.normal(0.0, 2.0, int(rng.integers(10, 200)))
            xs[3:9] = xs[0]  # duplicates, left unsorted
            for margin in (1e-3, 0.05, 4.0):
                lambda_c_transform_many(loss, P2, max(a, 1.0 - a) + margin, xs)
        # a margin of 1e-3 needs windows wide enough to split the grid
        assert len(compared) > 12
        assert all(match == (True, True) for _, match in compared)

    def test_far_atoms_give_several_grid_pieces(self, rng, compared):
        loss = quad_custom(0.35)
        xs = np.concatenate([c + rng.uniform(-0.5, 0.5, 6) for c in (-300.0, -20.0, 40.0, 900.0)])
        for lam in (0.65 + 0.05, 5.0, 50.0):
            got = lambda_c_transform_many(loss, P2, lam, xs)
            want = [lambda_c_transform(AsymQuadratic(0.35), P2, lam, float(x)) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-12)
        assert all(match == (True, True) for _, match in compared)
        assert max(pieces for pieces, _ in compared) >= 4

    def test_convex_kink_takes_the_divide_and_conquer(self, rng, compared, monkeypatch):
        # h(y) = a*y^+ + b*(y^-)^2 has a convex kink at 0, so gain - lam*grid^2
        # is not concave on the grid
        loss = GeneralizedQuantile(0.4, PowerLoss(1.0, 1.0), PowerLoss(1.0, 2.0))
        xs = rng.uniform(-3.0, 3.0, 12)
        lam = finiteness_threshold(loss, P2) + 0.6
        got = lambda_c_transform_many(loss, P2, lam, xs)
        assert [match for _, match in compared] == [None]
        monkeypatch.setattr(L, "_envelope_argmax", lambda *args: None)
        assert got.tobytes() == lambda_c_transform_many(loss, P2, lam, xs).tobytes()
        np.testing.assert_allclose(got, reference_many(loss, P2, lam, xs), rtol=0.0, atol=1e-9)

    def test_zoom_stops_on_a_flat_bracket(self):
        # loss points per call: the growth certificate's grid, the atoms, the
        # shared grid, then one parabolic round of 3 points per atom at a
        # time until w reaches the width where the values stop placing y*:
        # 2 rounds, where the cell zoom took 2 rounds of 512 cells + 1
        sizes = []

        def h(y):
            sizes.append(np.size(y))
            return 0.3 * np.maximum(y, 0.0) ** 2 + 0.7 * np.maximum(-y, 0.0) ** 2

        got = lambda_c_transform_many(CustomLoss(h, 0.7, 2.0), P2, 1.5, np.linspace(-2.0, 2.0, 8))
        assert sizes == [1005, 8, 20001, 8 * 3, 8 * 3]
        want = [lambda_c_transform(AsymQuadratic(0.3), P2, 1.5, float(x)) for x in np.linspace(-2.0, 2.0, 8)]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def power_closed_form(a, b, p, lam, xs):
    """Transform and maximizer of a*(y^+)^p + b*(y^-)^p under |x - y|^p for
    p > 1 and lam > max(a, b): with t = (a/lam)^(1/(p-1)), x > 0 has
    y* = x/(1 - t) and value a*(1 - t)^(1-p)*x^p, and x < 0 the same with b."""
    t, s = (a / lam) ** (1.0 / (p - 1.0)), (b / lam) ** (1.0 / (p - 1.0))
    value = np.where(xs > 0.0, a * (1.0 - t) ** (1.0 - p), b * (1.0 - s) ** (1.0 - p)) * np.abs(xs) ** p
    return value, np.where(xs > 0.0, xs / (1.0 - t), xs / (1.0 - s))


class TestParabolicSteps:
    """Each atom's grid argmax is refined by parabolic steps; atoms whose
    parabola misses go to the cell zoom."""

    @staticmethod
    def step_off(loss, p, lam, xs, grid, gain, k, first, last, best, a, b):
        """Every atom to the cell zoom from its grid bracket."""
        return 0.5 * (a + b), np.arange(xs.size)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_power_twins_match_their_closed_forms(self, rng, p):
        cost = CostExponent(p)
        for n in (1, 13, 250, 1000):
            a = float(rng.uniform(0.1, 0.9))
            lam = max(a, 1.0 - a) + float(rng.uniform(0.05, 3.0))
            xs = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
            sup, arg = L._numeric_sup(power_custom(a, 1.0 - a, p), cost, lam, xs, max(a, 1.0 - a))
            value, y = power_closed_form(a, 1.0 - a, p, lam, xs)
            np.testing.assert_allclose(sup, value, rtol=1e-12, atol=1e-12)
            assert np.all(np.abs(arg - y) <= 1e-7 * np.maximum(1.0, np.abs(y)))
            if p == 2.0:
                closed = lambda_c_transform_many(AsymQuadratic(a), P2, lam, xs)
                np.testing.assert_allclose(sup, closed, rtol=1e-12, atol=1e-12)

    def test_no_step_at_the_kink_of_a_linear_cost(self, rng, monkeypatch):
        # under p = 1 a convex loss less lam*|x - y| peaks at the kink y = x
        def never(*args):
            raise AssertionError("no parabolic step under p = 1")

        monkeypatch.setattr(L, "_parabolic_steps", never)
        xs = rng.uniform(-3.0, 3.0, 12)
        got = lambda_c_transform_many(pinball_custom(0.3), P1, 0.9, xs)
        np.testing.assert_allclose(got, [lambda_c_transform(Pinball(0.3), P1, 0.9, float(x)) for x in xs], atol=1e-12)

    def test_kinked_maximum_misses_to_the_zoom(self, rng, monkeypatch):
        # -|y| - lam*(x - y)^2 peaks at its kink y = 0 for |x| < 1/(2*lam):
        # every atom misses, so the result is the zoom's, bit for bit
        loss = CustomLoss(lambda y: -np.abs(y), 0.0, 1.0)
        xs = rng.uniform(-0.2, 0.2, 12)
        got = lambda_c_transform_many(loss, P2, 2.0, xs)
        np.testing.assert_allclose(got, -2.0 * xs * xs, rtol=0.0, atol=1e-12)
        monkeypatch.setattr(L, "_parabolic_steps", self.step_off)
        assert got.tobytes() == lambda_c_transform_many(loss, P2, 2.0, xs).tobytes()

    def test_convex_kink_under_a_quadratic_cost(self, rng):
        # the pinball twin's kink at 0 is convex, never a maximum of the loss
        # less lam*(x - y)^2: its atoms step like smooth ones
        xs = rng.uniform(-3.0, 3.0, 12)
        loss = pinball_custom(0.3)
        lam = finiteness_threshold(loss, P2) + 0.6
        got = lambda_c_transform_many(loss, P2, lam, xs)
        np.testing.assert_allclose(got, reference_many(loss, P2, lam, xs), rtol=0.0, atol=1e-9)

    def test_maximum_at_a_clipped_window_edge(self, monkeypatch):
        # a ramp on (2.00001, 2.09), off the growth certificate's grid, puts
        # the maximum at the right end 2.02 of the atom's window [-1.98, 2.02]
        def h(y):
            return 0.5 * np.maximum(y, 0.0) + np.where((y > 2.00001) & (y < 2.09), 1e3 * (y - 2.0), 0.0)

        loss = CustomLoss(h, 0.5, 1.0)
        got = lambda_c_transform_many(loss, P2, 2.0, [0.02])
        assert got[0] == pytest.approx(h(2.02) - 2.0 * 2.0**2, rel=1e-12)
        assert got[0] == pytest.approx(reference_sup(loss, P2, 2.0, 0.02), abs=1e-9)
        monkeypatch.setattr(L, "_parabolic_steps", self.step_off)
        assert got.tobytes() == lambda_c_transform_many(loss, P2, 2.0, [0.02]).tobytes()

    def test_row_of_infinite_values(self):
        # the window of 59 holds the barrier; that of -5 does not
        barrier = CustomLoss(lambda y: np.where((y > 60.0) & (y < 70.0), np.inf, np.maximum(y, 0.0)), 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lambda_c_transform_many(barrier, P2, 3.0, [-5.0, 59.0])
        assert got[1] == math.inf
        assert got[0] == pytest.approx(reference_sup(barrier, P2, 3.0, -5.0), abs=1e-9)

    def test_near_the_growth_constant(self):
        # the uniform {-1, 0.2, 0.5, 2} at m = 0.1 and lam = C*(1 + 1e-3) for
        # the twin of AsymQuadratic(0.3), C = 0.7: y* = lam*x/(lam - C) lies
        # about 1000|x| out and l(y*) and the cost are about 1000 times the
        # transform, so a value is known to their rounding, 4*eps*max(1,
        # |l(y*)| + lam*(y* - x)^2), and no closer
        lam = 0.7 * (1.0 + 1e-3)
        for m in np.linspace(-0.5, 0.5, 21):
            xs = np.array([-1.0, 0.2, 0.5, 2.0]) - m
            sup, arg = L._numeric_sup(quad_custom(0.3), P2, lam, xs, 0.7)
            value, y = power_closed_form(0.3, 0.7, 2.0, lam, xs)
            terms = np.asarray(loss_value(AsymQuadratic(0.3), y)) + lam * (y - xs) ** 2
            rounding = 4.0 * np.finfo(float).eps * np.maximum(1.0, terms)
            assert np.all(np.abs(sup - value) <= rounding)
            assert np.all(np.abs(arg - y) <= 1e-6 * np.maximum(1.0, np.abs(y)))
        d = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])
        got = robust_functional(d, quad_custom(0.3), P2, LinearPenalty(lam), 0.1)
        want = robust_functional(d, AsymQuadratic(0.3), P2, LinearPenalty(lam), 0.1)
        assert got == pytest.approx(want, rel=1e-12)


class TestCustomLossEquality:
    def test_evaluator_compared_by_identity(self):
        f = lambda y: np.maximum(y, 0.0)  # noqa: E731
        g = lambda y: np.maximum(y, 0.0)  # noqa: E731
        assert CustomLoss(f, 1.0, 2.0) == CustomLoss(f, 1.0, 2.0)
        assert hash(CustomLoss(f, 1.0, 2.0)) == hash(CustomLoss(f, 1.0, 2.0))
        assert CustomLoss(f, 1.0, 2.0) != CustomLoss(g, 1.0, 2.0)
        assert CustomLoss(f, 1.0, 2.0) != CustomLoss(f, 1.5, 2.0)
        assert len({CustomLoss(f, 1.0, 2.0), CustomLoss(g, 1.0, 2.0)}) == 2


class TestTransformShape:
    def test_dominates_loss(self, rng):
        for _ in range(40):
            alpha = float(rng.uniform(0.1, 0.9))
            lam = max(alpha, 1 - alpha) + float(rng.uniform(0.05, 2.0))
            x = float(rng.uniform(-5.0, 5.0))
            for loss, cost in ((Pinball(alpha), P1), (AsymQuadratic(alpha), P2)):
                assert lambda_c_transform(loss, cost, lam, x) >= float(loss_value(loss, x)) - 1e-12

    def test_nonincreasing_in_lambda(self, rng):
        for _ in range(40):
            alpha = float(rng.uniform(0.1, 0.9))
            x = float(rng.uniform(-5.0, 5.0))
            thr = max(alpha, 1 - alpha)
            lams = np.sort(thr + rng.uniform(0.01, 3.0, 5))
            vals = [lambda_c_transform(AsymQuadratic(alpha), P2, float(l), x) for l in lams]
            assert all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_nondecreasing_in_x_for_increasing_loss(self, rng):
        loss = GeneralizedQuantile(0.6, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
        for _ in range(20):
            lam = 0.7 + float(rng.uniform(0.05, 2.0))
            xs = np.sort(rng.uniform(-5.0, 5.0, 9))
            vals = [lambda_c_transform(loss, P2, lam, float(x)) for x in xs]
            assert all(b >= a - 1e-9 for a, b in zip(vals[:-1], vals[1:]))

    def test_joint_midpoint_convexity(self, rng):
        for _ in range(60):
            alpha = float(rng.uniform(0.1, 0.9))
            thr = max(alpha, 1 - alpha)
            l1 = thr + float(rng.uniform(0.02, 2.0))
            l2 = thr + float(rng.uniform(0.02, 2.0))
            x1, x2 = rng.uniform(-4.0, 4.0, 2)
            mid = lambda_c_transform(AsymQuadratic(alpha), P2, 0.5 * (l1 + l2), 0.5 * (x1 + x2))
            chord = 0.5 * lambda_c_transform(AsymQuadratic(alpha), P2, l1, float(x1)) + (
                0.5 * lambda_c_transform(AsymQuadratic(alpha), P2, l2, float(x2))
            )
            assert mid <= chord + 1e-9


class TestMembership:
    def test_slope_one_loss_certifies(self):
        cu = CustomLoss(lambda y: 1.0 + np.maximum(y, 0.0), 1.0, 1.0)
        assert check_L_membership(cu, P1, 2.0, np.linspace(-10, 10, 41))

    def test_pinball_fails(self):
        assert not check_L_membership(Pinball(0.3), P1, 1.0, np.linspace(-10, 10, 41))

    def test_origin_is_always_tight(self):
        assert check_L_membership(AsymQuadratic(0.5), P2, 1.0, [0.0])


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            Pinball(1.0)
        with pytest.raises(ValueError):
            AsymQuadratic(0.0)

    def test_power_loss_fields(self):
        with pytest.raises(ValueError):
            PowerLoss(-1.0, 2.0)
        with pytest.raises(ValueError):
            PowerLoss(1.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_power_loss_coefficient_finite(self, bad):
        with pytest.raises(ValueError):
            PowerLoss(bad, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_power_loss_exponent_finite(self, bad):
        with pytest.raises(ValueError):
            PowerLoss(1.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cost_exponent_finite(self, bad):
        with pytest.raises(ValueError):
            CostExponent(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_custom_growth_constant_finite(self, bad):
        # a NaN constant used to pass the grid certificate (every comparison
        # with NaN is False) and give a finite dual value where it is +inf
        with pytest.raises(ValueError):
            CustomLoss(lambda y: y * y, bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_custom_growth_power_finite(self, bad):
        with pytest.raises(ValueError):
            CustomLoss(lambda y: y * y, 1.0, bad)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lambda_c_transform(Pinball(0.5), P1, -0.1, 0.0)
