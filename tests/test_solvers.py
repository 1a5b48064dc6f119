"""Brent's root in wassrisk.solvers against scipy.optimize.brentq.

`_brent` is a port of scipy's brentq.c; scipy stays here only as the
oracle.  From the same sign bracket the port must evaluate f at the same
points, bit for bit, and return the same root, except that it takes the
two end values from its caller instead of evaluating them again.
"""

from __future__ import annotations

import math

import pytest
from scipy.optimize import brentq

from wassrisk import Empirical, NoConvergence, Normal, StudentT, cli, expectile, robust_core
from wassrisk.solvers import _brent, increasing_root


def _recording(f):
    seen: list[float] = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _bits(xs):
    return [float(x).hex() for x in xs]


def _kink(x):
    return x - 0.3 if x < 0.3 else 50.0 * (x - 0.3)


def _flat_then_rising(x):
    return max(x - 1.0, 0.0) ** 3 - 1e-3


C6, C9 = 1e6, 1e9
CASES = [
    # steep exponentials
    ("exp(50x) - 2", lambda x: math.exp(50.0 * x) - 2.0, -1.0, 1.0, 1e-14),
    ("exp(x) - 1e6", lambda x: math.exp(x) - 1e6, 0.0, 30.0, 1e-14),
    ("1 - exp(-40x)", lambda x: 1.0 - math.exp(-40.0 * (x - 0.2)), -0.5, 3.0, 1e-14),
    # kinks
    ("kink", _kink, -2.0, 2.0, 1e-14),
    ("signed root", lambda x: math.copysign(math.sqrt(abs(x - 0.7)), x - 0.7), -1.0, 4.0, 1e-14),
    # flat, then rising
    ("flat then cubic", _flat_then_rising, -10.0, 10.0, 1e-14),
    ("flat then linear", lambda x: max(x, 0.0) - 1e-9, -5.0, 5.0, 1e-14),
    # exact zeros: at an end, and met by a step
    ("zero at lo", lambda x: x, 0.0, 1.0, 1e-14),
    ("zero at hi", lambda x: x - 1.0, 0.0, 1.0, 1e-14),
    ("zero met by a step", lambda x: x - 0.5, 0.0, 1.0, 1e-14),
    # infinite values
    ("-inf at lo", lambda x: -math.inf if x <= 0.0 else math.log(x), 0.0, 5.0, 1e-14),
    ("+inf at hi", lambda x: math.inf if x >= 1.0 else x - 0.25, 0.0, 1.0, 1e-14),
    ("+inf beyond 2", lambda x: math.inf if x > 2.0 else x ** 3 - 1.0, -3.0, 9.0, 1e-14),
    # brackets far from zero, stopping at m's own resolution
    ("linear at 1e6", lambda x: (x - C6) - 0.123, C6 - 1.0, C6 + 1.0, 2.0 * math.ulp(C6)),
    ("cubic at 1e6", lambda x: (x - C6 - 1.0 / 3.0) ** 3 + 1e-3 * (x - C6), C6 - 5.0, C6 + 2.0, 2.0 * math.ulp(C6)),
    ("linear at 1e9", lambda x: (x - C9) - 0.123, C9 - 1.0, C9 + 1.0, 2.0 * math.ulp(C9)),
    ("exp at 1e9", lambda x: math.expm1(3.0 * (x - C9 - 0.4)), C9 - 10.0, C9 + 10.0, 2.0 * math.ulp(C9)),
]


@pytest.mark.parametrize("name, f, lo, hi, xtol", CASES, ids=[c[0] for c in CASES])
def test_port_steps_exactly_as_scipy(name, f, lo, hi, xtol):
    oracle, expected = _recording(f)
    want = brentq(oracle, lo, hi, xtol=xtol, maxiter=200)
    port, seen = _recording(f)
    got = _brent(port, lo, f(lo), hi, f(hi), xtol)
    assert expected[:2] == [lo, hi]
    assert _bits(seen) == _bits(expected[2:])
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("name, f, lo, hi, xtol", CASES, ids=[c[0] for c in CASES])
def test_increasing_root_evaluates_no_point_twice(name, f, lo, hi, xtol):
    # every bracket here holds a sign change, so nothing widens and the
    # ends' values go straight into Brent's method: the evaluations are
    # exactly brentq's, where calling brentq from increasing_root evaluated
    # both ends twice
    g, seen = _recording(f)
    root = increasing_root(g, lo, hi, xtol)
    oracle, expected = _recording(f)
    assert float(root).hex() == float(brentq(oracle, lo, hi, xtol=xtol, maxiter=200)).hex()
    assert _bits(seen) == _bits(expected)
    assert len(set(seen)) == len(seen)


def test_widened_bracket_hands_its_end_values_on():
    # f < 0 on [0, 1]: the right end doubles out to 1 + 1 + 2 = 4, and Brent
    # starts from (0, f(0)) and (4, f(4)) without evaluating either again
    f = lambda x: x - 2.5  # noqa: E731
    g, seen = _recording(f)
    root = increasing_root(g, 0.0, 1.0)
    oracle, expected = _recording(f)
    assert root == brentq(oracle, 0.0, 4.0, xtol=1e-14, maxiter=200)
    assert seen[:4] == [0.0, 1.0, 2.0, 4.0]
    assert _bits(seen[4:]) == _bits(expected[2:])


@pytest.mark.parametrize("d, count", [(Normal(0.0, 1.0), 9), (StudentT(7.3, 0.1, 1.2), 9)])
def test_expectile_root_evaluates_no_m_twice(monkeypatch, d, count):
    # the root's slope takes no expectation of the loss: that is taken once,
    # at the root
    ms: list[float] = []
    root = robust_core.increasing_root
    expected_loss = robust_core.expected_loss
    values = []

    def recording_root(f, lo, hi, xtol):
        def g(z):
            ms.append(z)
            return f(z)

        return root(g, lo, hi, xtol)

    def recording_loss(*args):
        values.append(expected_loss(*args))
        return values[-1]

    monkeypatch.setattr(robust_core, "increasing_root", recording_root)
    monkeypatch.setattr(robust_core, "expected_loss", recording_loss)
    expectile(d, 0.8)
    assert len(ms) == count and len(values) == 1
    assert len(set(ms)) == len(ms)


def test_expectile_on_atoms_counts_its_table_probes(monkeypatch):
    # a finite-support prior reads the root from its atom tables: no root
    # runs, and the one table read takes the bisection's probes, one per
    # table entry read
    monkeypatch.setattr(robust_core, "increasing_root", lambda *args: pytest.fail("a root ran"))
    probes = []
    read = Empirical.affine_root

    def recording_read(self, *args):
        out = read(self, *args)
        probes.append(out[1])
        return out

    monkeypatch.setattr(Empirical, "affine_root", recording_read)
    m = expectile(Empirical.uniform([1.0, 2.0, 3.0, 7.0]), 0.8)
    assert abs(m - 34.0 / 7.0) <= 2.0 * math.ulp(34.0 / 7.0) and probes == [2]
    expectile(Empirical.uniform(range(1000)), 0.8)
    assert probes == [2, 10]


class TestTypedFailures:
    def test_exhausted_budget(self):
        with pytest.raises(NoConvergence, match="did not converge in 200 steps") as info:
            increasing_root(lambda x: math.copysign(1.0, x - 0.3), -1e300, 1e300)
        assert info.value.bracket == (-1e300, 1e300)
        x, fx = info.value.last
        assert math.isfinite(x) and fx == math.copysign(1.0, x - 0.3)

    def test_nan_at_an_end(self):
        f = lambda x: math.nan if x > 5.0 else x - 1.0  # noqa: E731
        with pytest.raises(NoConvergence, match="meets a NaN") as info:
            increasing_root(f, 0.0, 10.0)
        assert info.value.bracket == (0.0, 10.0)
        x, fx = info.value.last
        assert x == 10.0 and math.isnan(fx)

    def test_nan_met_by_a_step(self):
        # both ends finite; the first secant step lands in the NaN band
        f = lambda x: math.nan if 2.0 < x < 9.0 else x - 4.0  # noqa: E731
        with pytest.raises(NoConvergence, match="meets a NaN") as info:
            increasing_root(f, 0.0, 10.0)
        assert info.value.bracket == (0.0, 10.0)
        x, fx = info.value.last
        assert 2.0 < x < 9.0 and math.isnan(fx)

    def test_no_sign_change(self):
        with pytest.raises(NoConvergence, match="no sign change found expanding right") as info:
            increasing_root(lambda x: -1.0, 0.0, 1.0)
        assert info.value.bracket == (0.0, 1.0)
        x, fx = info.value.last
        assert x > 1e18 and fx == -1.0

    def test_cli_reports_it_as_infeasible(self, capsys, monkeypatch):
        root = robust_core.increasing_root
        monkeypatch.setattr(robust_core, "increasing_root", lambda f, *args: root(lambda x: math.nan, *args))
        code = cli.main(["measure", "expectile", "--prior", "normal:0,1", "--alpha", "0.3"])
        assert code == cli.EXIT_INFEASIBLE == 2
        assert "infeasible: Brent's root" in capsys.readouterr().err
