"""Translation and scale equivariance of the robust measures, as properties.

Shifting the prior by c shifts a robust OCE value, a robust generalized
quantile's minimizer, the classical and linear robust expectiles and both
ends of the pinball quantile interval by c, at any magnitude.  The properties run at c in
{1e3, 1e6, 1e9} under linear, ball and piecewise penalties on empirical
priors drawn by Hypothesis (derandomized, so every run checks the same
examples).  Near 1e9 the shifted atoms themselves round to about 6e-8, which
the tolerance 1e-8 + 2e-15*|c| allows for.

Scaling the prior by s, with the ball radius scaled by s^2 (the cost
exponent is 2), scales the ball robust expectile and the quadratic robust
generalized quantile's minimizer by s, and both stay certified.

Ordering in delta: on the same empirical priors the linear-penalty robust
expectile is nonincreasing in the slope delta for alpha > 1/2 and
nondecreasing for alpha < 1/2, with the classical expectile between it and
the mean.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrisk import (
    AsymQuadratic,
    BallPenalty,
    CostExponent,
    Empirical,
    LinearPenalty,
    PiecewiseLinearPenalty,
    Pinball,
    expectile,
    mean,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_oce,
)
from wassrisk.risk_measures import robust_generalized_quantile_detail

P1, P2 = CostExponent(1.0), CostExponent(2.0)

ATOMS = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 1.0)), min_size=1, max_size=12
)


def _prior(atoms) -> Empirical:
    total = sum(w for _, w in atoms)
    return Empirical(tuple((x, w / total) for x, w in atoms))


def _penalty(kind: str, alpha: float, delta: float):
    if kind == "linear":
        return LinearPenalty(max(alpha, 1.0 - alpha) + delta)
    if kind == "ball":
        return BallPenalty(delta)
    return PiecewiseLinearPenalty(((0.0, 0.3), (0.8, 1.1), (2.0, 3.5)))


@pytest.mark.parametrize("c", [1e3, 1e6, 1e9])
@pytest.mark.parametrize("kind", ["linear", "ball", "piecewise"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(atoms=ATOMS, alpha=st.floats(0.1, 0.9), delta=st.floats(0.05, 2.0))
def test_shift_moves_value_and_minimizer_by_the_shift(c, kind, atoms, alpha, delta):
    d = _prior(atoms)
    loss, phi = AsymQuadratic(alpha), _penalty(kind, alpha, delta)
    tol = 1e-8 + 2e-15 * abs(c)
    base = robust_oce(d, loss, P2, phi)
    moved = robust_oce(d.shift(c), loss, P2, phi)
    assert base.converged and moved.converged
    assert abs((moved.value - c) - base.value) <= tol
    m_base = robust_generalized_quantile_detail(d, loss, P2, phi)
    m_moved = robust_generalized_quantile_detail(d.shift(c), loss, P2, phi)
    assert m_base.converged and m_moved.converged
    assert abs((m_moved.argmin_m[0] - c) - m_base.argmin_m[0]) <= tol


@pytest.mark.parametrize("c", [1e3, 1e6, 1e9])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(atoms=ATOMS, alpha=st.floats(0.1, 0.9), delta=st.floats(0.05, 2.0))
def test_shift_moves_the_expectiles_and_the_pinball_interval(c, atoms, alpha, delta):
    d = _prior(atoms)
    tol = 1e-8 + 2e-15 * abs(c)
    delta1 = max(alpha, 1.0 - alpha) + delta
    assert abs((expectile(d.shift(c), alpha) - c) - expectile(d, alpha)) <= tol
    base = robust_expectile_linear(d, alpha, delta1)
    assert abs((robust_expectile_linear(d.shift(c), alpha, delta1) - c) - base) <= tol
    phi = LinearPenalty(delta1)
    q_base = robust_generalized_quantile_detail(d, Pinball(alpha), P1, phi)
    q_moved = robust_generalized_quantile_detail(d.shift(c), Pinball(alpha), P1, phi)
    assert q_base.converged and q_moved.converged
    for m_moved, m_base in zip(q_moved.argmin_m, q_base.argmin_m):
        assert abs((m_moved - c) - m_base) <= tol


@pytest.mark.parametrize("s", [1e3, 1e6])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(atoms=ATOMS, alpha=st.floats(0.1, 0.9), delta=st.floats(0.05, 2.0))
def test_scale_moves_the_ball_expectile_and_minimizer_by_the_scale(s, atoms, alpha, delta):
    # the scaled atoms round to s * x within a relative eps, so the results
    # agree to a relative 1e-12 of their magnitude
    d = _prior(atoms)
    scaled = d.scale(s)
    base = robust_expectile_ball(d, alpha, delta)  # raises NoConvergence unless certified
    assert abs(robust_expectile_ball(scaled, alpha, delta * s * s) - s * base) <= 1e-12 * s * (1.0 + abs(base))
    loss = AsymQuadratic(alpha)
    m_base = robust_generalized_quantile_detail(d, loss, P2, BallPenalty(delta))
    m_scaled = robust_generalized_quantile_detail(scaled, loss, P2, BallPenalty(delta * s * s))
    assert m_base.converged and m_scaled.converged
    m = m_base.argmin_m[0]
    assert abs(m_scaled.argmin_m[0] - s * m) <= 1e-12 * s * (1.0 + abs(m))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    atoms=ATOMS,
    alpha=st.floats(0.01, 0.99).filter(lambda a: a != 0.5),
    steps=st.lists(st.floats(0.001, 5.0), min_size=2, max_size=8),
)
def test_linear_expectile_is_ordered_in_delta(atoms, alpha, steps):
    # the adjusted level moves monotonically from 1 (or 0) toward alpha as
    # delta grows, so for alpha > 1/2 the robust expectile falls toward the
    # classical one, which lies between it and the mean, and the support's
    # top bounds it; alpha < 1/2 mirrors the chain
    d = _prior(atoms)
    lo, hi = d.support
    tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    deltas = max(alpha, 1.0 - alpha) + np.cumsum(steps)
    robust = [robust_expectile_linear(d, alpha, float(delta)) for delta in deltas]
    sign = 1.0 if alpha > 0.5 else -1.0
    for before, after in zip(robust[:-1], robust[1:]):
        assert sign * (after - before) <= tol
    classical, centre = expectile(d, alpha), mean(d)
    assert sign * (centre - classical) <= tol
    for value in robust:
        assert sign * (classical - value) <= tol
        assert lo - tol <= value <= hi + tol
