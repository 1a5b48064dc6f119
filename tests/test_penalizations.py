import math

import numpy as np
import pytest

from wassrisk import (
    BallPenalty,
    LinearPenalty,
    PiecewiseLinearPenalty,
    conjugate,
    penalty_evaluate,
    penalty_from_json,
)

PWL = PiecewiseLinearPenalty(((0.0, 0.5), (1.0, 2.0), (3.0, 4.0)))


class TestConjugates:
    def test_linear_indicator(self):
        assert conjugate(LinearPenalty(2.0), 1.5) == 0.0
        assert conjugate(LinearPenalty(2.0), 2.0) == 0.0
        assert conjugate(LinearPenalty(2.0), 2.5) == math.inf

    def test_ball_is_linear(self):
        assert conjugate(BallPenalty(0.3), 4.0) == pytest.approx(1.2)
        assert conjugate(BallPenalty(0.0), 7.0) == 0.0

    def test_piecewise_matches_numeric_sup(self):
        xs = np.linspace(0.0, 50.0, 20001)
        phis = np.array([penalty_evaluate(PWL, float(x)) for x in xs])
        for lam in (0.0, 0.4, 0.5, 1.1, 2.0, 3.3, 4.0):
            ref = float(np.max(lam * xs - phis))
            assert conjugate(PWL, lam) == pytest.approx(ref, abs=1e-9)
        assert conjugate(PWL, 4.0 + 1e-9) == math.inf

    def test_pieces_tile_the_domain_with_the_conjugate_slopes(self):
        # from phi*(0) = 0 the pieces' slopes rebuild phi* up to the last
        # end, past which it is +inf; a last slope of 0 (all slopes 0) makes
        # phi* zero on its whole domain, which lets the dual skip its search
        cases = (LinearPenalty(2.0), BallPenalty(0.3), BallPenalty(0.0), PWL, PiecewiseLinearPenalty(((0.0, 1.5),)))
        for phi in cases:
            pieces = phi.conjugate_pieces()
            end = pieces[-1][1]
            assert pieces[0][0] == 0.0
            assert conjugate(phi, 0.0) == 0.0
            if math.isfinite(end):
                assert conjugate(phi, end) < math.inf
                assert conjugate(phi, end * (1.0 + 1e-9)) == math.inf
            assert all(prev[1] == nxt[0] for prev, nxt in zip(pieces[:-1], pieces[1:]))
            assert all(prev[2] <= nxt[2] for prev, nxt in zip(pieces[:-1], pieces[1:]))
            for lo, hi, slope in pieces:
                top = min(hi, lo + 1.0)
                for u, v in ((lo, top), (lo, 0.5 * (lo + top)), (0.5 * (lo + top), top)):
                    if v > u:
                        rise = conjugate(phi, v) - conjugate(phi, u)
                        assert rise == pytest.approx(slope * (v - u), abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            conjugate(LinearPenalty(1.0), -0.5)


class TestPiecewiseKnots:
    def test_knot_values(self):
        assert PWL.knot_values() == [(0.0, 0.0), (1.0, 0.5), (3.0, 4.5)]
        # callers get a fresh list each time
        PWL.knot_values().append((9.0, 9.0))
        assert len(PWL.knot_values()) == 3

    def test_stored_knots_stay_out_of_equality_hash_and_repr(self):
        twin = PiecewiseLinearPenalty(((0, 0.5), (1, 2), (3, 4)))
        assert twin == PWL and hash(twin) == hash(PWL)
        assert repr(PWL) == (
            "PiecewiseLinearPenalty(breakpoints=((0.0, 0.5), (1.0, 2.0), (3.0, 4.0)))"
        )
        assert PWL != PiecewiseLinearPenalty(((0.0, 0.5), (1.0, 2.0), (3.0, 4.5)))


class TestEvaluate:
    def test_linear(self):
        assert penalty_evaluate(LinearPenalty(2.0), 3.0) == pytest.approx(6.0)

    def test_ball_boundary_closed(self):
        assert penalty_evaluate(BallPenalty(0.3), 0.3) == 0.0
        assert penalty_evaluate(BallPenalty(0.3), 0.31) == math.inf

    def test_zero_at_origin(self):
        for phi in (LinearPenalty(1.5), BallPenalty(0.2), PWL):
            assert penalty_evaluate(phi, 0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            penalty_evaluate(LinearPenalty(1.0), -1.0)


class TestConvexAnalysis:
    def test_fenchel_young(self, rng):
        for phi in (LinearPenalty(1.3), BallPenalty(0.4), PWL):
            for _ in range(200):
                x = float(rng.uniform(0.0, 5.0))
                lam = float(rng.uniform(0.0, 5.0))
                p, c = penalty_evaluate(phi, x), conjugate(phi, lam)
                if math.isinf(p) or math.isinf(c):
                    continue
                assert x * lam <= p + c + 1e-12

    def test_biconjugacy_on_grid(self):
        # numeric (phi*)* over a lambda grid containing the slopes recovers phi
        for phi in (LinearPenalty(2.0), PWL):
            slopes = (
                [phi.delta]
                if isinstance(phi, LinearPenalty)
                else [s for _, s in phi.breakpoints]
            )
            lams = np.unique(np.concatenate([np.linspace(0, max(slopes), 4001), slopes]))
            stars = np.array([conjugate(phi, float(l)) for l in lams])
            for x in np.linspace(0.0, 6.0, 25):
                ref = float(np.max(x * lams - stars))
                assert ref == pytest.approx(penalty_evaluate(phi, float(x)), abs=1e-8)

    def test_conjugate_monotone_and_convex(self):
        lams = np.linspace(0.0, 4.0, 81)
        vals = [conjugate(PWL, float(l)) for l in lams]
        assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))
        for i in range(1, len(lams) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


class TestValidation:
    def test_linear_requires_positive_slope(self):
        with pytest.raises(ValueError):
            LinearPenalty(0.0)

    def test_ball_zero_allowed(self):
        assert BallPenalty(0.0).delta == 0.0
        with pytest.raises(ValueError):
            BallPenalty(-0.1)

    def test_piecewise_rules(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPenalty(((1.0, 1.0),))  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseLinearPenalty(((0.0, 2.0), (1.0, 1.0)))  # slopes decrease
        with pytest.raises(ValueError):
            PiecewiseLinearPenalty(((0.0, 0.0), (1.0, 0.0)))  # constant


class TestJson:
    def test_round_trips(self):
        assert penalty_from_json('{"penalty": "linear", "delta": 2}') == LinearPenalty(2.0)
        assert penalty_from_json('{"penalty": "ball", "delta": 0.5}') == BallPenalty(0.5)
        got = penalty_from_json('{"penalty": "piecewise", "breakpoints": [[0, 1], [2, 3]]}')
        assert got == PiecewiseLinearPenalty(((0.0, 1.0), (2.0, 3.0)))

    def test_errors_name_fields(self):
        with pytest.raises(ValueError, match="delta"):
            penalty_from_json('{"penalty": "linear"}')
        with pytest.raises(ValueError, match="unknown"):
            penalty_from_json('{"penalty": "entropy", "delta": 1}')
