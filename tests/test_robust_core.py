import json
import math
from pathlib import Path

import numpy as np
import pytest

from wassrisk import (
    AsymQuadratic,
    BallPenalty,
    CostExponent,
    CustomLoss,
    Empirical,
    Exponential,
    GeneralizedQuantile,
    Infeasible,
    LinearPenalty,
    NoConvergence,
    Normal,
    PiecewiseLinearPenalty,
    Pinball,
    PowerLoss,
    RiskModelError,
    SearchOptions,
    StudentT,
    classical_oce,
    conjugate,
    expected_transform,
    expectile,
    finiteness_threshold,
    partial_moment_minus,
    partial_moment_plus,
    penalty_evaluate,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_functional,
    robust_generalized_quantile,
    robust_oce,
    wasserstein_1d,
)

from wassrisk import losses, risk_measures, robust_core
from wassrisk.losses import quad_transform_coefficients
from wassrisk.risk_measures import robust_generalized_quantile_detail
from wassrisk.robust_core import BOUNDARY_GAP, _dual
from wassrisk.solvers import MAX_DOUBLINGS

from conftest import coupled_arrays, emp, random_empirical
from reference_golden import golden_section_min

P1 = CostExponent(1.0)
P2 = CostExponent(2.0)
FAIR_COIN = Empirical(((0.0, 0.5), (1.0, 0.5)))
PLUS_PART = CustomLoss(lambda y: np.maximum(y, 0.0), 1.0, 1.0)
ONE_PLUS = CustomLoss(lambda y: 1.0 + np.maximum(y, 0.0), 1.0, 1.0)


class TestRobustFunctional:
    def test_pinball_reduces_to_plain_expectation(self):
        # lambda-grid oracle: the transform equals the loss on the feasible
        # range, so the dual objective is flat there and the value is E[h(X)]
        got = robust_functional(FAIR_COIN, Pinball(0.3), P1, LinearPenalty(2.0), 0.0)
        xs, w = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        oracle = math.inf
        for lam in np.linspace(0.7, 2.0, 500):
            e_h = float(np.dot(w, 0.3 * np.maximum(xs, 0) + 0.7 * np.maximum(-xs, 0)))
            oracle = min(oracle, e_h + 0.0)
        assert got == pytest.approx(0.15, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_ball_zero_radius_is_classical_expectation(self):
        got = robust_functional(Normal(0, 1), AsymQuadratic(0.5), P2, BallPenalty(0.0), 0.0)
        assert got == pytest.approx(0.5, abs=1e-12)
        draws = np.random.default_rng(3).standard_normal(1_000_000)
        mc = 0.5 * np.mean(np.maximum(draws, 0) ** 2) + 0.5 * np.mean(np.maximum(-draws, 0) ** 2)
        assert got == pytest.approx(float(mc), abs=4 * 1e-3)

    def test_infeasible_when_conjugate_dies_before_threshold(self):
        with pytest.raises(Infeasible):
            robust_functional(FAIR_COIN, Pinball(0.5), P1, LinearPenalty(0.2), 0.0)
        with pytest.raises(Infeasible):
            robust_functional(FAIR_COIN, AsymQuadratic(0.5), P2, LinearPenalty(0.4), 0.0)

    def test_linear_penalty_matches_two_level_grid(self, rng):
        # independent (m-free) check at fixed m: grid over lambda in (thr, delta]
        d = random_empirical(rng, max_atoms=12)
        alpha, delta = 0.7, 2.0
        xs, w = d.values, d.weights
        for m in (-0.5, 0.0, 1.2):
            got = robust_functional(d, AsymQuadratic(alpha), P2, LinearPenalty(delta), m)
            best = math.inf
            for lam in np.linspace(0.7001, delta, 4000):
                big_a = alpha * lam / (lam - alpha)
                big_b = (1 - alpha) * lam / (lam - (1 - alpha))
                val = float(
                    np.dot(w, big_a * np.maximum(xs - m, 0) ** 2 + big_b * np.maximum(m - xs, 0) ** 2)
                )
                best = min(best, val)
            assert got == pytest.approx(best, abs=1e-6)

    def test_ball_penalty_matches_lambda_grid(self, rng):
        d = random_empirical(rng, max_atoms=10)
        alpha, radius, m = 0.75, 0.5, 0.3
        got = robust_functional(d, AsymQuadratic(alpha), P2, BallPenalty(radius), m)
        xs, w = d.values, d.weights
        lams = np.concatenate([np.linspace(0.7500001, 3, 30000), np.linspace(3, 200, 30000)])
        vals = []
        for lam in lams:
            big_a = alpha * lam / (lam - alpha)
            big_b = (1 - alpha) * lam / (lam - (1 - alpha))
            vals.append(
                float(
                    np.dot(w, big_a * np.maximum(xs - m, 0) ** 2 + big_b * np.maximum(m - xs, 0) ** 2)
                )
                + radius * lam
            )
        assert got == pytest.approx(min(vals), abs=1e-5)

    def test_piecewise_penalty_matches_lambda_grid(self, rng):
        from wassrisk import PiecewiseLinearPenalty, conjugate

        phi = PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0), (2.5, 5.0)))
        d = random_empirical(rng, max_atoms=10)
        alpha, m = 0.7, 0.2
        got = robust_functional(d, AsymQuadratic(alpha), P2, phi, m)
        xs, w = d.values, d.weights
        best = math.inf
        for lam in np.linspace(0.7000001, 5.0, 120000):
            big_a = alpha * lam / (lam - alpha)
            big_b = (1 - alpha) * lam / (lam - (1 - alpha))
            val = float(
                np.dot(w, big_a * np.maximum(xs - m, 0) ** 2 + big_b * np.maximum(m - xs, 0) ** 2)
            ) + conjugate(phi, float(lam))
            best = min(best, val)
        assert got == pytest.approx(best, abs=1e-6)

    def test_piecewise_penalty_pinball_quantile(self, rng):
        from wassrisk import PiecewiseLinearPenalty
        from wassrisk.risk_measures import robust_generalized_quantile, var

        phi = PiecewiseLinearPenalty(((0.0, 0.5), (1.0, 3.0)))
        for _ in range(5):
            d = random_empirical(rng, max_atoms=20)
            for alpha in (0.25, 0.5, 0.75):
                m1, m2 = robust_generalized_quantile(d, Pinball(alpha), P1, phi)
                assert m1 - 1e-6 <= var(d, alpha) <= m2 + 1e-6

    def test_lambda_objective_is_convex_along_grid(self):
        d = FAIR_COIN
        alpha, m = 0.7, 0.4
        lams = np.linspace(0.78, 8.0, 200)
        vals = [
            expected_transform(d, AsymQuadratic(alpha), P2, float(l), m)
            + conjugate(BallPenalty(0.5), float(l))
            for l in lams
        ]
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9

    def test_boundary_lambda_expectation_needs_one_sided_support(self):
        alpha = 0.75  # threshold at alpha; finite only when no mass lies above m
        d = Empirical(((-2.0, 0.5), (-1.0, 0.5)))
        got = expected_transform(d, AsymQuadratic(alpha), P2, alpha, 0.0)
        coef = alpha * (1 - alpha) / (2 * alpha - 1)
        want = coef * 0.5 * (4.0 + 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert expected_transform(d, AsymQuadratic(alpha), P2, alpha, -1.5) == math.inf
        assert expected_transform(Normal(0, 1), AsymQuadratic(alpha), P2, alpha, 0.0) == math.inf


def _detail(d, loss, cost, phi, m):
    """(value, lambda, boundary, y*) of the dual minimization at m."""
    return _dual(d, loss, cost, phi)[1](m)


def _counting_dual(calls, at=None):
    """A stand-in for robust_core._dual that builds the real dual and records
    each m it is solved at, or hands the m to `at` instead."""

    def build(*args):
        lam_fixed, real = _dual(*args)

        def counted(m):
            calls.append(m)
            return (at or real)(m)

        return lam_fixed, counted

    return build


def _reference_detail(d, loss, cost, phi, m):
    """The oracle of the conjugate-piece walk in _dual: a golden
    section over the same lambda range, bracketed by doubling when the range
    has no end, with the prior evaluated through expected_transform at every
    lambda, and the same boundary rule."""
    thr = finiteness_threshold(loss, cost)
    lam_lo = thr + 1e-8 * max(1.0, thr)
    lam_cap = phi.conjugate_pieces()[-1][1]

    def objective(lam):
        return expected_transform(d, loss, cost, lam, m) + conjugate(phi, lam)

    if math.isinf(lam_cap):
        hi = lam_lo + 1.0
        f_hi = objective(hi)
        for _ in range(MAX_DOUBLINGS):
            nxt = hi * 2.0
            f_nxt = objective(nxt)
            if f_nxt >= f_hi:
                hi = nxt
                break
            hi, f_hi = nxt, f_nxt
    else:
        hi = lam_cap
    lam_star, value, _ = golden_section_min(objective, lam_lo, hi)
    boundary = (lam_star - lam_lo) <= BOUNDARY_GAP or (
        not math.isinf(lam_cap) and (hi - lam_star) <= BOUNDARY_GAP
    )
    return value, lam_star, boundary


SEARCHED_PENALTIES = [BallPenalty(0.4), PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0), (2.5, 5.0)))]


def _subgradient_gap(phi, a, b, plus, minus, lam, lam_lo, lam_cap):
    """How far G(lam) = a^2*plus/(lam - a)^2 + b^2*minus/(lam - b)^2 lies
    outside [left slope, right slope] of phi* at lam, relative to max(1, G);
    at lam_lo only the right slope binds and at lam_cap only the left one."""
    g = a * a * plus / (lam - a) ** 2 + b * b * minus / (lam - b) ** 2
    pieces = phi.conjugate_pieces()
    left = next((s for lo, hi, s in pieces if lo < lam <= hi), -math.inf)
    right = next((s for lo, hi, s in pieces if lo <= lam < hi), math.inf)
    if lam == lam_lo:
        left = -math.inf
    if lam == lam_cap:
        right = math.inf
    return max(left - g, g - right, 0.0) / max(1.0, g)


class TestQuadraticDualSearch:
    """The quadratic lambda solve takes the prior's partial moments at m once
    and solves the first-order condition exactly; the golden section through
    expected_transform (_reference_detail) is its oracle."""

    @pytest.mark.parametrize("phi", SEARCHED_PENALTIES)
    def test_partial_moments_taken_once_per_search(self, monkeypatch, phi):
        # one evaluation of the prior's partial moments per m, and no
        # single-power call beside it
        calls = {"moments": 0, "plus": 0, "minus": 0, "lambda": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for name, attr in (("moments", "partial_moments"), ("plus", "partial_moment_plus"),
                           ("minus", "partial_moment_minus"), ("lambda", "conjugate")):
            monkeypatch.setattr(robust_core, attr, counting(name, getattr(robust_core, attr)))
        d = Normal(0.3, 1.2)
        for m in (-2.0, 0.1, 3.0):
            calls.update(dict.fromkeys(calls, 0))
            value, _, _, _ = _detail(d, AsymQuadratic(0.7), P2, phi, m)
            assert math.isfinite(value)
            assert calls["moments"] == 1 and calls["plus"] == calls["minus"] == 0
            assert calls["lambda"] <= len(phi.conjugate_pieces()) + 2

    @pytest.mark.parametrize("phi", SEARCHED_PENALTIES)
    def test_equals_the_search_through_expected_transform(self, rng, phi):
        base = random_empirical(rng, max_atoms=30)
        far = emp(1e6 + base.values, base.weights)
        priors = [
            Normal(0.3, 1.2),
            Exponential(1.7),
            StudentT(4.5, -0.2, 0.8),
            random_empirical(rng, max_atoms=40),
            far,
        ]
        lam_cap = phi.conjugate_pieces()[-1][1]
        interior = 0
        for d in priors:
            center, span = d.center_and_span()
            for alpha in (0.3, 0.5, 0.8):
                loss = AsymQuadratic(alpha)
                a, b = loss.closed_form(2.0)
                lam_lo = max(a, b) + 1e-8
                for m in center + span * np.array([-2.5, -0.7, 0.0, 0.4, 3.0]):
                    m = float(m)
                    value, lam, _, _ = _detail(d, loss, P2, phi, m)
                    golden, _, _ = _reference_detail(d, loss, P2, phi, m)
                    scale = max(1.0, abs(value))
                    assert -1e-12 * scale <= golden - value <= 1e-10 * scale, (d, alpha, m)
                    plus, minus = d.upper_partial_moment(m, 2), d.lower_partial_moment(m, 2)
                    gap = _subgradient_gap(phi, a, b, plus, minus, lam, lam_lo, lam_cap)
                    assert gap <= 1e-9, (d, alpha, m, lam, gap)
                    kinks = [lo for lo, _, _ in phi.conjugate_pieces()]
                    interior += lam not in (lam_lo, lam_cap, *kinks)
        assert interior > 0  # the Newton and equal-coefficient roots ran

    def test_tiny_radius_gives_the_classical_expectation(self):
        # lambda* near 5e149: the root's terms are scaled to stay near 1
        d, loss = Normal(0.0, 1.0), AsymQuadratic(0.3)
        value, lam, _, _ = _detail(d, loss, P2, BallPenalty(1e-300), 0.0)
        assert lam > 1e149
        assert value == pytest.approx(robust_core.expected_loss(d, loss, 0.0), rel=1e-12)

    def test_lambda_lands_on_kinks_and_both_ends(self):
        """Moving m across one prior puts lambda* at lam_lo (no mass on the
        side of the larger coefficient), inside a piece, at a kink of phi*
        and at the cap."""
        phi = SEARCHED_PENALTIES[1]
        loss = AsymQuadratic(0.7)
        d = Empirical.uniform([-0.5, -0.1, 0.2, 0.5])
        seen = set()
        for m in np.linspace(-15.0, 3.0, 181):
            value, lam, _, _ = _detail(d, loss, P2, phi, float(m))
            seen.add(lam if lam in (0.7 + 1e-8, 2.0, 5.0) else "root")
            golden, _, _ = _reference_detail(d, loss, P2, phi, float(m))
            scale = max(1.0, abs(value))
            assert -1e-12 * scale <= golden - value <= 1e-10 * scale, m
        assert seen == {0.7 + 1e-8, 2.0, 5.0, "root"}


QUAD_TWIN = CustomLoss(lambda y: 0.3 * np.maximum(y, 0.0) ** 2 + 0.7 * np.maximum(-y, 0.0) ** 2, 0.7, 2.0)
NUMERIC_LOSSES = [
    QUAD_TWIN,
    GeneralizedQuantile(0.55, PowerLoss(1.1, 1.0), PowerLoss(0.7, 2.0)),
    GeneralizedQuantile(0.35, PowerLoss(1.4, 1.5), PowerLoss(0.6, 1.2)),
]


class TestNumericDualWalk:
    """Losses without a closed form walk the pieces of phi* too, with
    G(lam) = E[|X - m - y*|^p] read from the numeric supremum's argmax."""

    @pytest.mark.parametrize("phi", SEARCHED_PENALTIES)
    def test_equals_the_golden_search(self, monkeypatch, phi):
        sups = {"walk": 0, "golden": 0}

        def counting(name, fn):
            def wrapped(*args):
                sups[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(robust_core, "_numeric_sup", counting("walk", robust_core._numeric_sup))
        monkeypatch.setattr(losses, "_numeric_sup", counting("golden", losses._numeric_sup))
        rng = np.random.default_rng(1)
        kinds = set()
        for loss in NUMERIC_LOSSES:
            d = random_empirical(rng, max_atoms=20)
            thr = finiteness_threshold(loss, P2)
            lam_lo = thr + 1e-8 * max(1.0, thr)
            center, span = d.center_and_span()
            for m in (center - 0.5 * span, center + 0.3 * span):
                sups.update(walk=0, golden=0)
                value, lam, _, _ = _detail(d, loss, P2, phi, m)
                scale = max(1.0, abs(value))
                if lam == lam_lo:
                    # the golden search crawls near the floor, where each
                    # supremum covers a window of about 1e8: check instead
                    # that the dual objective does not fall to its right
                    kinds.add("floor")
                    to_the_right = lam_lo + 1e-3
                    dual = expected_transform(d, loss, P2, to_the_right, m) + conjugate(phi, to_the_right)
                    assert dual >= value - 1e-12 * scale, (loss, m)
                    continue
                kinds.add("interior")
                golden, golden_lam, _ = _reference_detail(d, loss, P2, phi, m)
                assert -1e-12 * scale <= golden - value <= 1e-10 * scale, (loss, m)
                assert lam == pytest.approx(golden_lam, abs=1e-6)
                assert sups["walk"] <= sups["golden"], (loss, m, sups)
        assert kinds == {"floor", "interior"}

    @pytest.mark.parametrize("phi", [LinearPenalty(2.5), BallPenalty(0.4)])
    def test_growth_certified_once_per_solve(self, monkeypatch, phi):
        calls = []
        check = CustomLoss.check_growth_bound
        monkeypatch.setattr(CustomLoss, "check_growth_bound", lambda self: calls.append(check(self)))
        d = random_empirical(np.random.default_rng(1), max_atoms=20)
        for loss, cost in ((QUAD_TWIN, P2), (PLUS_PART, P1)):
            for m in (-0.4, 0.5):
                calls.clear()
                assert math.isfinite(robust_functional(d, loss, cost, phi, m))
                assert len(calls) == 1

    @pytest.mark.parametrize("phi", SEARCHED_PENALTIES)
    @pytest.mark.parametrize("loc", [0.0, 1e6])
    def test_p1_twin_takes_the_closed_forms_lambda_floor(self, loc, phi):
        # under p = 1 the transform is the loss itself from the threshold
        # on, for a custom loss as for a closed form, so both duals sit at
        # lambda = 0.7 and agree to rounding
        twin = CustomLoss(lambda y: 0.3 * np.maximum(y, 0.0) + 0.7 * np.maximum(-y, 0.0), 0.7, 1.0)
        d = Empirical.uniform([loc - 1.0, loc + 0.2, loc + 0.5, loc + 2.0])
        for m in (loc - 0.3, loc + 0.7):
            custom, lam, _, _ = _detail(d, twin, P1, phi, m)
            closed = robust_functional(d, Pinball(0.3), P1, phi, m)
            assert lam == 0.7
            assert abs(custom - closed) <= 1e-12 * max(1.0, abs(closed))


class TestOneDualPerSolve:
    """Each solve builds its dual once, from phi*'s pieces and the finiteness
    threshold: feasibility and whether lambda* moves with m are decided
    there, so one phi gives one result however it is spelled."""

    FOUR = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])

    @pytest.mark.parametrize(
        "d", [emp(np.random.default_rng(25).normal(0.0, 1.0, 25), np.full(25, 0.04)), Normal(0.3, 1.2)]
    )
    def test_single_knot_piecewise_is_the_linear_penalty(self, d):
        # phi(x) = 2x spelled twice: phi* is 0 on [0, 2], so lambda* = 2 at
        # every m and no lambda search runs for either spelling
        solves = [
            lambda phi: robust_oce(d, AsymQuadratic(0.7), P2, phi),
            lambda phi: robust_generalized_quantile_detail(d, AsymQuadratic(0.7), P2, phi),
            lambda phi: robust_generalized_quantile_detail(d, Pinball(0.3), P1, phi),
        ]
        for solve in solves:
            linear = solve(LinearPenalty(2.0))
            assert solve(PiecewiseLinearPenalty(((0.0, 2.0),))) == linear
            assert linear.evaluations == 1

    def test_one_infeasibility_rule_at_the_threshold(self):
        # the threshold is 0.7 for AsymQuadratic(0.3) under p = 2 and for
        # Pinball(0.3) under p = 1; phi*'s domain ends at `end`
        def spellings(end):
            return LinearPenalty(end), PiecewiseLinearPenalty(((0.0, 0.2), (1.0, end)))

        loss, m = AsymQuadratic(0.3), 0.1
        messages = set()
        for phi in spellings(0.7):
            with pytest.raises(Infeasible) as raised:
                robust_functional(self.FOUR, loss, P2, phi, m)
            messages.add(str(raised.value))
        assert len(messages) == 1
        for phi in spellings(0.7 * (1.0 + 5e-9)):
            assert math.isfinite(robust_functional(self.FOUR, loss, P2, phi, m))
        linear, piecewise = spellings(0.7)
        # under p = 1 the transform is finite at the threshold itself
        assert robust_functional(self.FOUR, Pinball(0.3), P1, linear, m) == pytest.approx(0.3725, abs=1e-15)
        assert robust_functional(self.FOUR, Pinball(0.3), P1, piecewise, m) == pytest.approx(0.8725, abs=1e-15)

    @pytest.mark.parametrize(
        "d, loss",
        [(Normal(0.2, 1.3), AsymQuadratic(0.7)), (random_empirical(np.random.default_rng(8), 8), QUAD_TWIN)],
    )
    def test_each_solve_decides_once(self, monkeypatch, d, loss):
        calls = {"pieces": 0, "threshold": 0}
        pieces, threshold = BallPenalty.conjugate_pieces, robust_core.finiteness_threshold

        def counted_pieces(self):
            calls["pieces"] += 1
            return pieces(self)

        def counted_threshold(*args):
            calls["threshold"] += 1
            return threshold(*args)

        monkeypatch.setattr(BallPenalty, "conjugate_pieces", counted_pieces)
        monkeypatch.setattr(robust_core, "finiteness_threshold", counted_threshold)
        phi = BallPenalty(0.4)
        solves = [
            lambda: robust_oce(d, loss, P2, phi).evaluations,
            lambda: robust_generalized_quantile_detail(d, loss, P2, phi).evaluations,
            lambda: robust_functional(d, loss, P2, phi, 0.3),
        ]
        evaluations = []
        for solve in solves:
            calls.update(pieces=0, threshold=0)
            evaluations.append(solve())
            assert calls == {"pieces": 1, "threshold": 1}
        assert max(evaluations[:2]) > 1  # the dual was solved at several m


class TestSlopeRootWithoutClosedForm:
    """Losses without a closed form take their argmin set from the roots of
    the m-slope plus and minus its rounding band: y* from the dual solve
    under p > 1, a backward difference of the loss where the dual collapses
    to E[l(X - m)] plus a constant."""

    FOUR = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])

    @pytest.mark.parametrize(
        "d, phi",
        [
            (Empirical.uniform([-1.3, -0.6, -0.2, 0.1, 0.4, 0.5, 0.9, 1.7, 2.2, 3.1]), LinearPenalty(1.5)),
            (Empirical.uniform([-1.3, 0.4, 2.2]), BallPenalty(0.4)),
            (
                Empirical.uniform([-1.3, -0.2, 0.4, 0.9, 2.2]),
                PiecewiseLinearPenalty(((0.0, 0.2), (0.5, 1.0), (1.0, 4.0))),
            ),
        ],
    )
    def test_p2_twin_set_holds_the_closed_form_minimizer(self, d, phi):
        twin = robust_oce(d, QUAD_TWIN, P2, phi)
        closed = robust_oce(d, AsymQuadratic(0.3), P2, phi)
        m1, m2 = twin.argmin_m
        assert twin.converged
        assert m1 <= closed.argmin_m[0] <= m2
        assert m2 - m1 <= 1e-6
        assert abs(twin.value - closed.value) <= 1e-12 * max(1.0, abs(closed.value))

    def test_lp_quantile_matches_a_golden_search(self):
        # mismatched exponents have no closed form: golden section over m of
        # the public robust functional is an independent oracle
        d = Empirical.uniform([-1.3, -0.6, -0.2, 0.1, 0.4, 0.5, 0.9, 1.7, 2.2, 3.1])
        loss, cost, phi = GeneralizedQuantile(0.7, PowerLoss(1.0, 1.5), PowerLoss(1.0, 1.5)), CostExponent(1.5), LinearPenalty(3.0)
        rv = robust_generalized_quantile_detail(d, loss, cost, phi)
        m_gold, v_gold, _ = golden_section_min(lambda m: robust_functional(d, loss, cost, phi, m), -1.3, 3.1, 1e-10)
        assert rv.converged
        assert rv.argmin_m[1] - rv.argmin_m[0] <= 1e-5
        assert rv.argmin_m[0] - 1e-6 <= m_gold <= rv.argmin_m[1] + 1e-6
        assert rv.value == pytest.approx(v_gold, abs=1e-11)

    def test_flat_ray_matches_the_closed_form(self):
        # x^+ has a zero left side: m + E[(X - m)^+] is flat left of the
        # support, a ray with its end at -inf, as the closed form reports it
        closed = GeneralizedQuantile(0.5, PowerLoss(2.0, 1.0), PowerLoss(0.0, 1.0))
        for phi in (LinearPenalty(2.0), BallPenalty(0.4)):
            custom, exact = robust_oce(self.FOUR, PLUS_PART, P1, phi), robust_oce(self.FOUR, closed, P1, phi)
            assert custom.converged and exact.argmin_m == (-math.inf, -1.0)
            assert custom.argmin_m[0] == -math.inf
            assert custom.argmin_m[1] == pytest.approx(-1.0, abs=4e-9)
            assert custom.value == pytest.approx(exact.value, abs=1e-12)
            assert custom.evaluations == 1

    @pytest.mark.parametrize("loc", [0.0, 1e6])
    def test_unbounded_twin_raises(self, loc):
        # a slope of 1 - 0.3 on the left far past the support is no flat
        # ray: the objective keeps falling, as for the closed form
        twin = CustomLoss(lambda y: 0.3 * np.maximum(y, 0.0) + 0.7 * np.maximum(-y, 0.0), 0.7, 1.0)
        with pytest.raises(NoConvergence):
            robust_oce(Empirical.uniform([loc, loc + 1.0]), twin, P1, LinearPenalty(2.0))


class TestRobustOce:
    def test_piecewise_on_exponential_next_to_zero_converges(self):
        # an argmin a few 1e-6 above 0: the exponential's lower partial
        # moments there once cancelled to 0 and left a spurious flat bottom
        # that failed the convergence certificate
        d = Exponential(0.5151645526357527)
        loss = AsymQuadratic(0.1952991100235209)
        phi = PiecewiseLinearPenalty(
            ((0.0, 0.06997142631914813), (0.7295589648956822, 0.3835259169680626), (1.8926423862655002, 2.3500994505418107))
        )
        rv = robust_oce(d, loss, P2, phi)
        assert rv.converged
        grid = np.arange(-50, 201) * 1e-6
        best = min(float(m) + robust_functional(d, loss, P2, phi, float(m)) for m in grid)
        assert rv.value == pytest.approx(best, abs=1e-9)

    def test_constant_zero_with_shifted_plus_loss(self):
        # l(x) = 1 + x^+ does not preserve constants: the value at the zero
        # position is 1, not 0
        rv = robust_oce(Empirical(((0.0, 1.0),)), ONE_PLUS, P1, LinearPenalty(2.0))
        assert rv.value == pytest.approx(1.0, abs=1e-9)
        assert rv.converged

    def test_point_mass_translation(self, rng):
        # grid oracle on the one-atom objective m + (c - m)^+ confirms inf = c
        for c in (0.0, 3.7, -2.2):
            ms = np.linspace(c - 5, c + 5, 100001)
            oracle = float(np.min(ms + np.maximum(c - ms, 0.0)))
            rv = robust_oce(Empirical(((c, 1.0),)), PLUS_PART, P1, LinearPenalty(2.0))
            assert rv.value == pytest.approx(c, abs=1e-9)
            assert rv.value == pytest.approx(oracle, abs=1e-4)

    def test_pinball_equals_classical_on_support(self):
        # with the search confined to the support, the robust and classical
        # pinball objectives differ only by the conjugate offset (zero here);
        # a two-level (m, lambda) grid pins the shared value
        opt = SearchOptions(restrict_to_support=True)
        robust = robust_oce(FAIR_COIN, Pinball(0.5), P1, LinearPenalty(1.0), opt)
        classical = classical_oce(FAIR_COIN, Pinball(0.5), opt)
        assert robust.value == pytest.approx(classical.value, abs=1e-9)
        ms = np.linspace(0.0, 1.0, 10001)
        best = math.inf
        for m in ms:
            e_h = 0.5 * (0.5 * max(0 - m, 0) + 0.5 * max(m - 0, 0)) + 0.5 * (
                0.5 * max(1 - m, 0) + 0.5 * max(m - 1, 0)
            )
            best = min(best, m + e_h)
        assert robust.value == pytest.approx(best, abs=1e-4)

    def test_unbounded_objective_raises(self):
        # pinball slopes below one make m + E[h(X-m)] decrease without bound
        with pytest.raises(NoConvergence):
            robust_oce(FAIR_COIN, Pinball(0.3), P1, LinearPenalty(2.0))

    def test_support_restriction_matches_free_search_for_certified_loss(self, rng):
        # 1 + x^+ certifies transform(x) >= transform(0) + x, so the support
        # restriction loses nothing
        d = random_empirical(rng, max_atoms=15)
        free = robust_oce(d, ONE_PLUS, P1, LinearPenalty(2.0))
        restricted = robust_oce(d, ONE_PLUS, P1, LinearPenalty(2.0), SearchOptions(restrict_to_support=True))
        assert free.value == pytest.approx(restricted.value, abs=1e-7)

    def test_converged_at_a_kinked_minimum(self):
        # a 178-atom prior whose ball objective falls steeply into a kink and
        # then rises at a slope of about 3e-5; the golden search stops on that
        # shallow side, where the slope to its left exceeds foc_tol, while the
        # slopes outside the reported interval certify the minimum
        data = json.loads((Path(__file__).parent / "data" / "oce_ball_kink.json").read_text())
        d = emp(data["values"], data["weights"])
        loss, phi = AsymQuadratic(data["alpha"]), BallPenalty(data["delta"])
        rv = robust_oce(d, loss, P2, phi)
        assert rv.converged
        m_star = 0.5 * sum(rv.argmin_m)
        assert rv.value == pytest.approx(m_star + robust_functional(d, loss, P2, phi, m_star), abs=1e-7)

    @staticmethod
    def _grid_minimum(d, loss, phi, interval):
        """min of m + E_phi(m) on a 1e-6 grid around the interval and at the
        prior's atoms inside that window."""
        m1, m2 = interval
        lo, hi = m1 - 1e-4, m2 + 1e-4
        ms = np.concatenate([np.linspace(lo, hi, int(round((hi - lo) / 1e-6)) + 1), [m1, m2]])
        if isinstance(d, Empirical):
            ms = np.concatenate([ms, d.values[(d.values >= lo) & (d.values <= hi)]])
        return min(float(m) + robust_functional(d, loss, P2, phi, float(m)) for m in ms)

    def test_converged_with_the_minimum_on_an_atom(self):
        # a 105-atom prior whose piecewise objective has its minimum on the
        # lowest atom; the located left edge lies within the edge resolution
        # to its right, and one step of 1e-6 toward the atom lowers the
        # objective by about 1.5e-11, above FOC_TOL * h but far inside the
        # value tolerance that defines the interval
        data = json.loads((Path(__file__).parent / "data" / "oce_piecewise_atom.json").read_text())
        d = emp(data["values"], data["weights"])
        loss = AsymQuadratic(data["alpha"])
        phi = PiecewiseLinearPenalty(tuple(map(tuple, data["breakpoints"])))
        rv = robust_oce(d, loss, P2, phi)
        assert rv.converged
        assert abs(rv.value - self._grid_minimum(d, loss, phi, rv.argmin_m)) <= 1e-9

    def test_converged_where_the_partial_moments_are_noisy(self):
        # the minimum lies 2e-4 scale units from the Student-t location,
        # where a survival function through the incomplete beta at x near 1
        # carried noise of about 1e-10 between points 1e-7 apart, above the
        # 1e-11 a slope of FOC_TOL allows over one step of 1e-6
        d = StudentT(25.414486932271444, -0.2931952221464087, 1.4647138344122048)
        loss = AsymQuadratic(0.6395581609514351)
        phi = PiecewiseLinearPenalty(
            (
                (0.0, 0.0998696308648821),
                (0.9992097219967206, 0.6700043197670542),
                (1.607378127883922, 2.921916007668578),
            )
        )
        rv = robust_oce(d, loss, P2, phi)
        assert rv.converged
        assert abs(rv.value - self._grid_minimum(d, loss, phi, rv.argmin_m)) <= 1e-9

    # under p = 1 the custom loss's transform is the loss itself above its
    # growth constant, so every penalty takes the floor of the lambda range
    # without a supremum: each case takes well under a second
    @pytest.mark.parametrize("phi", [LinearPenalty(2.0), BallPenalty(0.0), *SEARCHED_PENALTIES])
    @pytest.mark.parametrize("loc", [0.2, 1e6 + 0.2])
    def test_not_converged_off_the_minimum(self, monkeypatch, loc, phi):
        # custom path: a custom twin of the p = 1 closed form with
        # a = 1.4 > 1 has a minimum, and both roots of its banded
        # difference-quotient slope moved 1e-2 to the right of it leave the
        # sign brackets of their slope evaluations, so the certificate must
        # refuse them, near 1e6 as near 0
        root = robust_core.increasing_root
        d = Normal(loc, 1.3)
        loss = CustomLoss(lambda y: 1.4 * np.maximum(y, 0.0) + 0.3 * np.maximum(-y, 0.0), 1.4, 1.0)
        assert robust_oce(d, loss, P1, phi).converged
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        assert not robust_oce(d, loss, P1, phi).converged

    @pytest.mark.parametrize("phi", SEARCHED_PENALTIES)
    @pytest.mark.parametrize("loc", [0.2, 1e6 + 0.2])
    def test_root_not_converged_off_the_minimum(self, monkeypatch, loc, phi):
        # root path: the same certificate refuses a root moved by 1e-2
        root = robust_core.increasing_root
        d = Normal(loc, 1.3)
        assert robust_oce(d, AsymQuadratic(0.7), P2, phi).converged
        monkeypatch.setattr(robust_core, "increasing_root", lambda *args: root(*args) + 1e-2)
        rv = robust_oce(d, AsymQuadratic(0.7), P2, phi)
        assert rv.argmin_m[0] == rv.argmin_m[1]
        assert not rv.converged

    @pytest.mark.parametrize(
        "d, alpha, phi",
        [
            (Normal(0.3, 1.7), 1e-6, LinearPenalty(2.0)),
            (Normal(0.3, 1.7), 1e-6, BallPenalty(0.5)),
            (Normal(0.3, 1.7), 0.7, LinearPenalty(0.7 * (1.0 + 1e-9))),
            (Normal(0.3, 1.7), 0.3, LinearPenalty(0.7 * (1.0 + 1e-9))),
            (StudentT(2.0 + 1e-6), 0.3, LinearPenalty(2.0)),
            (StudentT(2.0 + 1e-9), 0.3, LinearPenalty(2.0)),
            (StudentT(2.0 + 1e-6), 0.7, BallPenalty(0.5)),
            (StudentT(2.0 + 1e-9), 0.7, BallPenalty(0.5)),
            (StudentT(2.0 + 1e-9), 0.7, SEARCHED_PENALTIES[1]),
        ],
    )
    def test_edge_cases_raise_or_meet_the_first_order_condition(self, d, alpha, phi):
        # a level near 0, a slope just above the threshold and a Student-t
        # prior whose second moment is about to diverge (values 1e6 to 1e9):
        # a typed error, or a converged minimizer at which the envelope
        # slope 1 - 2A*P1+(m) + 2B*P1-(m) vanishes relative to its terms
        try:
            rv = robust_oce(d, AsymQuadratic(alpha), P2, phi)
        except RiskModelError:
            return
        assert rv.converged
        m = rv.argmin_m[0]
        big_a, big_b = quad_transform_coefficients(alpha, 1.0 - alpha, rv.argmin_lambda)
        up = 2.0 * big_a * partial_moment_plus(d, m, 1)
        down = 2.0 * big_b * partial_moment_minus(d, m, 1)
        assert abs(1.0 - up + down) <= 1e-9 * (1.0 + up + down)

    @pytest.mark.parametrize(
        "phi", [BallPenalty(0.3), PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0), (2.5, 5.0)))]
    )
    def test_dual_solution_read_back_at_the_minimizer(self, rng, monkeypatch, phi):
        # the outer solve keeps (value, lambda, boundary) per m and solves
        # the dual once per distinct m; lambda and the boundary flag at its
        # one minimizer equal a fresh dual solve there.  Under the ball the
        # robust expectile (`_ball_stats`, no m term) reads lambda back too
        calls = []
        monkeypatch.setattr(robust_core, "_dual", _counting_dual(calls))
        loss = AsymQuadratic(0.7)
        for d in (Normal(0.2, 1.3), random_empirical(rng, max_atoms=25)):
            calls.clear()
            rv = robust_oce(d, loss, P2, phi)
            m_star = rv.argmin_m[0]
            assert rv.argmin_m[1] == m_star
            assert len(calls) == len(set(calls)) == rv.evaluations
            fresh = _detail(d, loss, P2, phi, m_star)
            assert (rv.argmin_lambda, rv.boundary_lambda) == fresh[1:3]
            if isinstance(phi, BallPenalty):
                calls.clear()
                m_star, lam, count = risk_measures._ball_stats(d, 0.7, phi.delta)
                assert len(calls) == len(set(calls)) == count
                assert lam == _detail(d, loss, P2, phi, m_star)[1]

    def test_result_invariants(self, rng):
        for _ in range(5):
            d = random_empirical(rng, max_atoms=10)
            rv = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(2.0))
            assert rv.argmin_m[0] <= rv.argmin_m[1]
            assert rv.argmin_lambda >= 0.7
            assert rv.converged
            assert rv.evaluations > 0


class TestClassicalOce:
    def test_two_point_asymmetric_quadratic(self):
        # 1e-6-grid oracle over m + 0.25*(m^2 + (1-m)^2): min 1/8 at m = -1/2
        ms = np.arange(-2.0, 1.0, 1e-6)
        objective = ms + 0.25 * (ms**2 + (1.0 - ms) ** 2)
        k = int(np.argmin(objective))
        rv = classical_oce(FAIR_COIN, AsymQuadratic(0.5))
        assert rv.value == pytest.approx(float(objective[k]), abs=1e-9)
        assert rv.value == pytest.approx(0.125, abs=1e-9)
        # the quadratic argmin is one point, the root of the slope m + 1/2
        m1, m2 = rv.argmin_m
        assert m1 == m2 == pytest.approx(-0.5, abs=1e-12)
        # the objective evaluated at m = 1/2 is 1/2 + 1/8
        at_half = 0.5 + 0.25 * (0.25 + 0.25)
        assert at_half == pytest.approx(0.5 + 0.125, abs=1e-15)

    def test_point_mass_pinball_on_support(self):
        opt = SearchOptions(restrict_to_support=True)
        for c in (-1.0, 2.5):
            rv = classical_oce(Empirical(((c, 1.0),)), Pinball(0.4), opt)
            assert rv.value == pytest.approx(c, abs=1e-12)

    def test_normal_symmetric_quadratic(self):
        # closed form: m + 0.5*(1 + m^2) has its minimum at m = -1, value 0;
        # the argmin of the expectation alone (no +m term) sits at 0
        rv = classical_oce(Normal(0, 1), AsymQuadratic(0.5))
        assert rv.value == pytest.approx(0.0, abs=1e-9)
        m1, m2 = rv.argmin_m
        assert m1 == m2 == pytest.approx(-1.0, abs=1e-12)
        assert math.isnan(rv.argmin_lambda)


class TestEnvelopeRoot:
    """A closed form takes its exact argmin set: under p = 2 with a > 0 the
    root of the envelope slope, one point; under p = 1 or with a zero side a
    quantile set read from the cdf, an interval or a ray."""

    def test_symmetric_quantile_is_the_mean_to_rounding(self):
        m1, m2 = robust_generalized_quantile(Normal(0, 1), AsymQuadratic(0.5), P2, LinearPenalty(2.0))
        assert m1 == m2
        assert abs(m1) <= 1e-12

    @pytest.mark.parametrize("solve", [
        lambda opt: classical_oce(FAIR_COIN, AsymQuadratic(0.5), opt),
        lambda opt: robust_oce(FAIR_COIN, AsymQuadratic(0.5), P2, BallPenalty(0.0), opt),
    ])
    def test_restricted_root_clips_to_the_support(self, solve):
        # m + (m^2 + (1 - m)^2)/4 falls toward m = -1/2, left of the support
        rv = solve(SearchOptions(restrict_to_support=True))
        assert rv.argmin_m == (0.0, 0.0)
        assert rv.value == pytest.approx(0.25, abs=1e-15)
        assert rv.converged

    @pytest.mark.parametrize("phi", [LinearPenalty(2.0), BallPenalty(0.3)])
    def test_zero_side_keeps_its_flat_ray(self, phi):
        # h = 0.65*(x^+)^2 vanishes on x <= 0: the value falls with
        # E[((X - m)^+)^2] alone, so every m from the top atom on is a
        # minimizer.  A normal prior has no top atom, and its infimum is
        # approached as m -> inf but never attained
        loss = GeneralizedQuantile(0.65, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
        rv = robust_generalized_quantile_detail(Empirical.uniform([-1.0, 0.5, 2.0]), loss, P2, phi)
        assert rv.argmin_m == (2.0, math.inf)
        assert rv.converged
        with pytest.raises(NoConvergence):
            robust_generalized_quantile(Normal(0, 1), loss, P2, phi)

    def test_p1_sets_are_read_from_the_cdf(self):
        # the pinball quantile set is [q-(tau), q+(tau)] at tau = a/(a + b);
        # the OCE of a = 1.4, b = 0.3 takes tau = (a - 1)/(a + b) = 4/17,
        # inside the first atom's quarter of the mass
        four = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])
        pinball = robust_generalized_quantile_detail(four, Pinball(0.25), P1, LinearPenalty(2.0))
        assert pinball.argmin_m == (-1.0, 0.2)
        assert robust_generalized_quantile(Normal(0, 1), Pinball(0.5), P1, LinearPenalty(2.0)) == (0.0, 0.0)
        loss = GeneralizedQuantile(0.7, PowerLoss(2.0, 1.0), PowerLoss(1.0, 1.0))
        oce = robust_oce(four, loss, P1, BallPenalty(0.3))
        assert oce.argmin_m == (-1.0, -1.0)
        assert pinball.converged and oce.converged

    # dual solves per outer solve are deterministic, so they pin the work:
    # each closed form is certified by the solve that found it, with no
    # solve of its own
    def test_root_far_from_zero_takes_no_more_dual_solves(self):
        # at 1e9 the floats lie 1.2e-7 apart; a root asked for 1e-14 in
        # z = m - centre kept stepping among the same few m there (34 dual
        # solves against 11 unshifted), and stopping at m's resolution does not
        d = Empirical(((0.0, 0.8), (-2.0, 0.2)))
        loss, phi = AsymQuadratic(0.125), BallPenalty(1.0)
        near = robust_oce(d, loss, P2, phi)
        far = robust_oce(d.shift(1e9), loss, P2, phi)
        assert near.converged and far.converged
        assert far.evaluations <= near.evaluations

    def test_quantile_set_takes_one_dual_solve(self):
        # the value at the set read from the cdf; feasibility takes none
        four = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])
        rv = robust_generalized_quantile_detail(four, Pinball(0.3), P1, LinearPenalty(2.0))
        assert rv.argmin_m == (0.2, 0.2) and rv.converged
        assert rv.evaluations == 1

    def test_infeasible_penalty_raises_before_any_dual_solve(self, monkeypatch):
        # feasibility does not depend on m: a penalty whose conjugate is +inf
        # at the threshold 0.7, or ends at or below it, raises Infeasible
        # without solving the dual at any m (with no dual solve to raise it,
        # the p = 1 quantile set would raise NoConvergence instead)
        def refuse(m):
            raise AssertionError("feasibility must not take a dual solve")

        monkeypatch.setattr(robust_core, "_dual", _counting_dual([], refuse))
        four = Empirical.uniform([-1.0, 0.2, 0.5, 2.0])
        short = PiecewiseLinearPenalty(((0.0, 0.2), (1.0, 0.6)))
        for loss, cost in ((Pinball(0.3), P1), (AsymQuadratic(0.3), P2)):
            for phi in (LinearPenalty(0.5), short):
                with pytest.raises(Infeasible):
                    robust_oce(four, loss, cost, phi)
                with pytest.raises(Infeasible):
                    robust_generalized_quantile_detail(four, loss, cost, phi)

    def test_closed_forms_converge_on_every_prior(self, rng):
        restricted = SearchOptions(restrict_to_support=True)
        quadratic = [AsymQuadratic(0.3), GeneralizedQuantile(0.6, PowerLoss(0.9, 2.0), PowerLoss(1.2, 2.0))]
        linear = [Pinball(0.3), GeneralizedQuantile(0.4, PowerLoss(1.3, 1.0), PowerLoss(0.8, 1.0))]
        bounded_oce = GeneralizedQuantile(0.7, PowerLoss(2.0, 1.0), PowerLoss(1.0, 1.0))
        zero_side = GeneralizedQuantile(0.65, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
        penalties = [LinearPenalty(2.5), BallPenalty(0.0), BallPenalty(0.4), SEARCHED_PENALTIES[1]]
        for d in (Normal(0.2, 1.3), StudentT(5.0, 0.1, 1.1), Exponential(1.3), random_empirical(rng, 20)):
            empirical = isinstance(d, Empirical)
            for opt in (SearchOptions(), restricted):
                for loss in quadratic + [bounded_oce, zero_side]:
                    assert classical_oce(d, loss, opt).converged
                for phi in penalties:
                    for loss in quadratic:
                        oce = robust_oce(d, loss, P2, phi, opt)
                        quantile = robust_generalized_quantile_detail(d, loss, P2, phi, opt)
                        for rv in (oce, quantile):
                            assert rv.converged
                            assert rv.argmin_m[0] == rv.argmin_m[1]
                    for loss in linear:
                        assert robust_generalized_quantile_detail(d, loss, P1, phi, opt).converged
                    assert robust_oce(d, bounded_oce, P1, phi, opt).converged
                    assert robust_oce(d, zero_side, P2, phi, opt).converged
                    if empirical:
                        assert robust_generalized_quantile_detail(d, zero_side, P2, phi, opt).converged
                    else:
                        with pytest.raises(NoConvergence):
                            robust_generalized_quantile_detail(d, zero_side, P2, phi, opt)
                    if empirical and opt is restricted:
                        assert robust_oce(d, Pinball(0.3), P1, phi, opt).converged
                    else:
                        with pytest.raises(NoConvergence, match="decreasing toward -inf on the left"):
                            robust_oce(d, Pinball(0.3), P1, phi, opt)
            assert math.isfinite(robust_expectile_ball(d, 0.3, 0.4))
            assert math.isfinite(expectile(d, 0.3))
            assert math.isfinite(robust_expectile_linear(d, 0.3, 1.5))


class TestTableRoot:
    """A finite-support prior whose slope has fixed coefficients (no dual
    layer, a linear penalty, a ball of radius zero) reads its argmin from the
    atom tables; other priors and penalties keep their roots."""

    def test_equals_the_brent_root_up_to_5000_atoms(self, rng):
        for n in (1, 2, 3, 40, 400, 5000):
            for _ in range(6):
                spread = 10.0 ** rng.uniform(-3.0, 3.0)
                values = spread * rng.standard_t(4.0, n) + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 4.0)
                weights = rng.uniform(0.01, 1.0, n)
                d = Empirical.from_arrays(values, weights / weights.sum())
                a, b = float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.01, 3.0))
                shift = float(rng.choice([0.0, 1.0]))

                def slope(m):
                    return shift - 2.0 * a * partial_moment_plus(d, m, 1) + 2.0 * b * partial_moment_minus(d, m, 1)

                table = robust_core._closed_form_argmin(d, a, b, 2.0, shift, slope, fixed=(a, b))
                brent = robust_core._closed_form_argmin(d, a, b, 2.0, shift, slope)
                assert table[2] and brent[2]
                lo, hi = d.support
                scale = max(1.0, abs(lo), abs(hi), abs(table[0]))
                assert abs(table[0] - brent[0]) <= 1e-14 * scale

    def test_fixed_coefficient_solves_run_no_root(self, monkeypatch, rng):
        d = random_empirical(rng, max_atoms=30)
        loss = AsymQuadratic(0.7)
        want = [
            expectile(d, 0.7),
            robust_expectile_linear(d, 0.7, 1.6),
            robust_expectile_ball(d, 0.7, 0.0),
            robust_oce(d, loss, P2, LinearPenalty(1.6)).value,
            robust_oce(d, loss, P2, BallPenalty(0.0)).value,
            classical_oce(d, loss).value,
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a table solve must not root")

        monkeypatch.setattr(robust_core, "increasing_root", refuse)
        got = [
            expectile(d, 0.7),
            robust_expectile_linear(d, 0.7, 1.6),
            robust_expectile_ball(d, 0.7, 0.0),
            robust_oce(d, loss, P2, LinearPenalty(1.6)).value,
            robust_oce(d, loss, P2, BallPenalty(0.0)).value,
            classical_oce(d, loss).value,
        ]
        assert got == want
        # the ball's lambda moves with m, and a normal prior has no atoms
        with pytest.raises(AssertionError, match="must not root"):
            robust_expectile_ball(d, 0.7, 0.4)
        with pytest.raises(AssertionError, match="must not root"):
            expectile(Normal(0.0, 1.0), 0.7)

    def test_far_minimizer_takes_one_dual_solve(self):
        # AsymQuadratic(1e-6) under LinearPenalty(2) has A ~ 1e-6, so the
        # OCE's minimizer mean - 1/(2A) lies about 5e5 below the atoms: read
        # from the left ray, with one dual solve there
        d = Empirical.uniform([0.3, 1.0, 1.7, 2.6])
        big_a = quad_transform_coefficients(1e-6, 1.0 - 1e-6, 2.0)[0]
        rv = robust_oce(d, AsymQuadratic(1e-6), P2, LinearPenalty(2.0))
        assert rv.converged and rv.evaluations == 1
        assert rv.argmin_m[0] == rv.argmin_m[1] == pytest.approx(1.4 - 0.5 / big_a, rel=1e-15)

    def test_far_minimizer_on_a_normal_takes_one_dual_solve(self):
        # the same ray on a normal prior: the root's bracket doubles out to
        # m* ~ -5e5, and with lambda fixed its slope takes no dual solve
        rv = robust_oce(Normal(0.3, 1.7), AsymQuadratic(1e-6), P2, LinearPenalty(2.0))
        assert rv.converged and rv.evaluations == 1
        assert rv.value.hex() == "-0x1.e847c999815b6p+17"

    def test_restricted_root_clips_to_the_first_atom(self, rng):
        d = random_empirical(rng, max_atoms=12)
        loss, phi = AsymQuadratic(0.01), LinearPenalty(2.0)
        free = robust_oce(d, loss, P2, phi)
        rv = robust_oce(d, loss, P2, phi, SearchOptions(restrict_to_support=True))
        lo = d.support[0]
        assert free.argmin_m[0] < lo
        assert rv.argmin_m == (lo, lo) and rv.converged
        assert rv.value == lo + robust_functional(d, loss, P2, phi, lo)


class TestOceAxioms:
    def test_translation_invariance(self, rng):
        for _ in range(15):
            x, _, w = coupled_arrays(rng)
            c = float(rng.uniform(-4, 4))
            base = robust_oce(emp(x, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
            moved = robust_oce(emp(x + c, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
            assert moved == pytest.approx(base + c, abs=1e-7)

    def test_monotonicity(self, rng):
        # the monotonicity axiom needs an increasing loss; two-sided losses
        # may reward lifting a low atom toward the anchor
        rising = GeneralizedQuantile(0.65, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
        for _ in range(15):
            x, _, w = coupled_arrays(rng)
            bump = rng.uniform(0, 2, len(x))
            lo = robust_oce(emp(x, w), rising, P2, LinearPenalty(2.0)).value
            hi = robust_oce(emp(x + bump, w), rising, P2, LinearPenalty(2.0)).value
            assert lo <= hi + 1e-9

    def test_convexity(self, rng):
        for _ in range(15):
            x, y, w = coupled_arrays(rng)
            t = float(rng.uniform(0.1, 0.9))
            vx = robust_oce(emp(x, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
            vy = robust_oce(emp(y, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
            vm = robust_oce(emp(t * x + (1 - t) * y, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
            assert vm <= t * vx + (1 - t) * vy + 1e-7

    def test_larger_loss_larger_value(self, rng):
        bigger = GeneralizedQuantile(0.7, PowerLoss(1.5, 2.0), PowerLoss(1.5, 2.0))
        for _ in range(15):
            d = random_empirical(rng)
            small = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(3.0)).value
            large = robust_oce(d, bigger, P2, LinearPenalty(3.0)).value
            assert large >= small - 1e-9

    def test_larger_penalty_smaller_value_and_classical_floor(self, rng):
        for _ in range(15):
            d = random_empirical(rng)
            loose = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(1.2)).value
            tight = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(4.0)).value
            floor = classical_oce(d, AsymQuadratic(0.7)).value
            assert loose >= tight - 1e-9
            assert tight >= floor - 1e-9
        # ball penalties: a smaller radius is a pointwise larger penalty
        for _ in range(5):
            d = random_empirical(rng, max_atoms=10)
            wide = robust_oce(d, AsymQuadratic(0.7), P2, BallPenalty(1.0)).value
            narrow = robust_oce(d, AsymQuadratic(0.7), P2, BallPenalty(0.2)).value
            floor = classical_oce(d, AsymQuadratic(0.7)).value
            assert wide >= narrow - 1e-7
            assert narrow >= floor - 1e-7


class TestWeakDuality:
    @pytest.mark.parametrize(
        "loss,cost",
        [(Pinball(0.3), P1), (Pinball(0.8), P1), (AsymQuadratic(0.3), P2), (AsymQuadratic(0.7), P2)],
    )
    def test_primal_never_exceeds_dual(self, rng, loss, cost):
        from wassrisk import loss_value

        base = random_empirical(rng, max_atoms=12)
        for _ in range(25):
            jitter = rng.normal(0, 0.3, len(base.values))
            mu = emp(base.values + jitter, base.weights)
            m = float(rng.uniform(-2, 2))
            for phi in (LinearPenalty(2.0), BallPenalty(0.4)):
                cost_val = wasserstein_1d(base, mu, cost)
                pen = penalty_evaluate(phi, cost_val)
                if math.isinf(pen):
                    continue
                primal = float(np.dot(mu.weights, np.asarray(loss_value(loss, mu.values - m)))) - pen
                dual = robust_functional(base, loss, cost, phi, m)
                assert primal <= dual + 1e-9

    def test_transport_cost_equals_the_cell_loop(self, rng):
        # reference: one cell of the merged weight partition at a time, each
        # term added in cell order
        def by_loop(a, b, cost):
            cwa, cwb = np.cumsum(a.weights), np.cumsum(b.weights)
            cuts = np.unique(np.concatenate(([0.0], cwa, cwb, [1.0])))
            cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
            total = 0.0
            for u0, u1 in zip(cuts[:-1], cuts[1:]):
                u_mid = 0.5 * (u0 + u1)
                qa = a.values[min(int(cwa.searchsorted(u_mid, side="left")), len(a.values) - 1)]
                qb = b.values[min(int(cwb.searchsorted(u_mid, side="left")), len(b.values) - 1)]
                total += (u1 - u0) * abs(float(qa) - float(qb)) ** cost.p
            return total

        laws = [Empirical(((0.5, 1.0),))] + [random_empirical(rng, max_atoms=30) for _ in range(60)]
        for a, b in zip(laws[:-1], laws[1:]):
            for cost in (P1, P2):
                assert wasserstein_1d(a, b, cost).hex() == by_loop(a, b, cost).hex()
