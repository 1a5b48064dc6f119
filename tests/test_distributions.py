import functools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from scipy import special, stats
from scipy.integrate import quad

from wassrisk import (
    Empirical,
    Exponential,
    MomentUndefined,
    NoConvergence,
    Normal,
    StudentT,
    empirical_from_csv,
    mean,
    partial_moment_minus,
    partial_moment_plus,
    prior_from_json,
    quantile,
    sample,
)
from wassrisk.distributions import _STIRLING_HALF, _csv_columns, _gamma_ratio, _normal_quantile, cdf

from conftest import random_empirical
from reference_csv import reference_empirical_from_csv

FAIR_COIN = Empirical(((0.0, 0.5), (1.0, 0.5)))


class TestConstruction:
    def test_sorted_and_merged(self):
        d = Empirical(((2.0, 0.25), (1.0, 0.25), (2.0, 0.5)))
        assert d.values.tolist() == [1.0, 2.0]
        assert d.weights.tolist() == [0.25, 0.75]

    def test_tie_merge_equals_the_loop(self, rng):
        # reference: the merge as a loop over the stably sorted atoms, each
        # run keeping its first value and summing its weights in order
        def merged_by_loop(points):
            values = np.array([float(v) for v, _ in points])
            weights = np.array([float(w) for _, w in points])
            weights = weights / float(weights.sum())
            order = np.argsort(values, kind="stable")
            keep_v, keep_w = [], []
            for v, w in zip(values[order], weights[order]):
                if keep_v and v == keep_v[-1]:
                    keep_w[-1] += w
                else:
                    keep_v.append(float(v))
                    keep_w.append(float(w))
            return keep_v, keep_w

        cases = [
            ((0.0, 0.25), (-0.0, 0.25), (1.0, 0.5)),
            ((-0.0, 0.25), (0.0, 0.25), (1.0, 0.5)),
            ((3.0, 1.0),),
        ]
        for _ in range(200):
            n = int(rng.integers(1, 300))
            values = rng.integers(-4, 5, n) * 0.5
            values[rng.random(n) < 0.2] = -0.0
            w = rng.dirichlet(np.ones(n))
            cases.append(tuple(zip(values.tolist(), w.tolist())))
        for points in cases:
            d = Empirical(points)
            keep_v, keep_w = merged_by_loop(points)
            assert [float(v).hex() for v in d.values] == [v.hex() for v in keep_v]
            assert [float(w).hex() for w in d.weights] == [w.hex() for w in keep_w]
            assert d.points == tuple(zip(keep_v, keep_w))
        assert math.copysign(1.0, Empirical(cases[0]).values[0]) == 1.0
        assert math.copysign(1.0, Empirical(cases[1]).values[0]) == -1.0

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            Empirical(((0.0, 0.5), (1.0, 0.6)))
        # a 1e-13 deviation is renormalized silently
        d = Empirical(((0.0, 0.5 + 5e-14), (1.0, 0.5)))
        assert math.isclose(float(d.weights.sum()), 1.0, abs_tol=1e-15)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            Empirical(((0.0, 0.0), (1.0, 1.0)))

    def test_atom_transforms_match_a_rebuild_from_points(self, rng):
        def bits(d):
            return [v.hex() for v in d.values.tolist()], [w.hex() for w in d.weights.tolist()]

        # atoms 1 apart sit below the spacing of doubles near 1e16, so that
        # shift rounds them together and the rebuild must merge them
        cases = [Empirical(tuple((float(k), 0.125) for k in range(8))), FAIR_COIN]
        cases += [random_empirical(rng, max_atoms=60) for _ in range(40)]
        for d in cases:
            for c in (0.5, -3.25, 1e9, 1e16):
                assert bits(d.shift(c)) == bits(Empirical(tuple((v + c, w) for v, w in d.points)))
            for t in (2.5, -1.5, -1.0, 1e-300):
                assert bits(d.scale(t)) == bits(Empirical(tuple((v * t, w) for v, w in d.points)))
            assert bits(d.negate()) == bits(Empirical(tuple((-v, w) for v, w in d.points)))
        assert len(cases[0].shift(1e16).values) < 8

    def test_array_constructor_equals_the_pair_constructor(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 50))
            values, weights = rng.integers(-5, 6, n) * 0.5, rng.dirichlet(np.ones(n))
            pairs = tuple(zip(values.tolist(), weights.tolist()))
            d, twin = Empirical(pairs), Empirical.from_arrays(values, weights)
            assert twin == d and hash(twin) == hash(d) == hash((d.points,))
        # -0.0 and 0.0 are one atom value, as in tuple equality and hashing
        neg = Empirical(((-0.0, 0.5), (1.0, 0.5)))
        pos = Empirical.from_arrays(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert neg == pos and hash(neg) == hash(pos)
        assert Empirical.from_arrays([0.0, 1.0], [0.25, 0.75]) != pos
        assert Empirical.from_arrays([1.0], [1.0]) != pos
        with pytest.raises(ValueError, match="read-only"):
            pos.values[0] = 2.0
        with pytest.raises(AttributeError):
            pos._x = np.array([2.0, 3.0])

    @pytest.mark.parametrize(
        "points",
        [
            (),
            ((0.0, 0.5), (math.inf, 0.5)),
            ((0.0, 0.5), (math.nan, 0.5)),
            ((0.0, 0.0), (1.0, 1.0)),
            ((0.0, -0.5), (1.0, 1.5)),
            ((0.0, math.nan), (1.0, 1.0)),
            ((0.0, 0.5), (1.0, 0.6)),
        ],
    )
    def test_array_constructor_rejects_like_the_pair_constructor(self, points):
        with pytest.raises(ValueError) as pairs:
            Empirical(points)
        values = np.array([v for v, _ in points], dtype=float)
        weights = np.array([w for _, w in points], dtype=float)
        with pytest.raises(ValueError) as arrays:
            Empirical.from_arrays(values, weights)
        assert str(arrays.value) == str(pairs.value)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Exponential(-1.0)
        with pytest.raises(ValueError):
            StudentT(0.0)


def _stable_sort_tables(values: np.ndarray, weights: np.ndarray) -> list[np.ndarray]:
    """(x, w, cw, head..., tail...) as the stable-sort build makes them: a
    stable sort, ties merged by bincount, and each side's gap sums by its own
    one-dimensional cumsum (the reference for the one-pass build)."""

    def gap_sums(cw, dx):
        s1 = np.concatenate(([0.0], np.cumsum(cw[:-1] * dx)))
        s2 = np.concatenate(([0.0], np.cumsum(dx * (2.0 * s1[:-1] + dx * cw[:-1]))))
        return s1, s2

    weights = weights / float(weights.sum())
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    start = np.concatenate(([True], values[1:] != values[:-1]))
    x = values[start]
    w = np.bincount(np.cumsum(start) - 1, weights=weights)
    cw = np.cumsum(w)
    cw[-1] = 1.0
    dx = np.diff(x)
    cv = np.cumsum(w[::-1])[::-1]
    head = (cw, *gap_sums(cw, dx))
    tail = (cv, *(s[::-1] for s in gap_sums(cv[::-1], dx[::-1])))
    return [x, w, cw, *head, *tail]


def _exact_affine_root(d: Empirical, shift: float, a: float, b: float) -> Fraction:
    """The root of shift + b*E[(X - m)^-] - a*E[(X - m)^+] in exact
    arithmetic over the stored atoms, from the sign change along them."""
    xs = [Fraction(v) for v in d.values.tolist()]
    ws = [Fraction(v) for v in d.weights.tolist()]
    sh, fa, fb = Fraction(shift), Fraction(a), Fraction(b)

    def s(m):
        return sh + sum(w * (fb * max(m - x, 0) - fa * max(x - m, 0)) for x, w in zip(xs, ws))

    at = [s(x) for x in xs]
    if at[0] >= 0:
        return xs[0] - at[0] / (fa * sum(ws))
    if at[-1] < 0:
        return xs[-1] - at[-1] / (fb * sum(ws))
    k = next(i for i, v in enumerate(at) if v >= 0)
    return xs[k - 1] + (xs[k] - xs[k - 1]) * -at[k - 1] / (at[k] - at[k - 1])


def _ulps_off(got: float, exact: Fraction, d: Empirical) -> float:
    """|got - exact| in units of the last place of the problem's scale: the
    largest of |first atom|, |last atom| and |root|."""
    lo, hi = d.support
    scale = max(abs(lo), abs(hi), abs(float(exact)))
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(scale)))


class TestAtomTables:
    """The one-pass build and the exact root read from its tables."""

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 1000, 20000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_tables_equal_the_stable_sort_build(self, rng, n, ties):
        for _ in range(3):
            values = rng.standard_t(3.0, n) * 10.0 ** rng.uniform(-3.0, 6.0)
            if ties:
                values = np.round(values, 1) if n > 3 else np.array([0.0, -0.0, 1.0])[:n]
                values[rng.random(values.size) < 0.1] = -0.0
            weights = rng.uniform(0.01, 1.0, values.size)
            weights /= weights.sum()
            d = Empirical.from_arrays(values, weights)
            got = [d._x, d._w, d._cw, *d._head, *d._tail]
            want = _stable_sort_tables(values, weights)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_root_equals_the_exact_fraction_root(self, rng):
        # worst seen over these draws: under 2 ulps inside a gap, just under
        # 3 on a ray, where the shift's quotient is a large part of the root
        for _ in range(400):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
            weights = rng.uniform(0.05, 1.0, n)
            d = Empirical.from_arrays(values, weights / weights.sum())
            a = float(rng.uniform(0.01, 0.99))
            b = float(rng.choice([1.0 - a, float(rng.uniform(0.01, 3.0))]))
            shift = float(rng.choice([0.0, 1.0, -1.0]))
            m, probes = d.affine_root(shift, a, b)
            assert _ulps_off(m, _exact_affine_root(d, shift, a, b), d) <= 4.0
            assert 1 <= probes <= math.ceil(math.log2(d.values.size + 1))

    def test_root_on_an_atom_is_that_atom(self):
        assert FAIR_COIN.affine_root(0.0, 0.5, 0.5)[0] == 0.5
        three = Empirical.uniform([0.0, 1.0, 2.0])
        assert three.affine_root(0.0, 0.3, 0.3) == (1.0, 2)
        # b*P(X = -1) = a*P(X = 1) puts the root on the middle atom
        skewed = Empirical(((-1.0, 0.5), (0.0, 0.25), (1.0, 0.25)))
        assert skewed.affine_root(0.0, 0.5, 0.25)[0] == 0.0

    def test_one_atom(self):
        point = Empirical(((2.5, 1.0),))
        assert point.affine_root(0.0, 0.8, 0.2) == (2.5, 1)
        # below the atom the slope is a, above it b
        assert point.affine_root(1.0, 0.5, 0.2) == (0.5, 1)
        assert point.affine_root(-1.0, 0.5, 0.25) == (6.5, 1)

    def test_rays_past_the_support(self):
        d = Empirical.uniform([-1.0, 0.5, 2.0, 4.0])
        # shift 1 and a small: far below the first atom, at mean - shift/a
        m, _ = d.affine_root(1.0, 2e-6, 0.3)
        assert _ulps_off(m, _exact_affine_root(d, 1.0, 2e-6, 0.3), d) <= 4.0
        assert m == pytest.approx(1.375 - 5e5, rel=1e-15)
        # shift -1 and b small: far above the last atom
        m, _ = d.affine_root(-1.0, 0.3, 2e-6)
        assert _ulps_off(m, _exact_affine_root(d, -1.0, 0.3, 2e-6), d) <= 4.0
        assert m == pytest.approx(1.375 + 5e5, rel=1e-15)
        # with b = 0 a negative shift keeps s below zero on the right
        with pytest.raises(NoConvergence):
            d.affine_root(-1.0, 0.3, 0.0)

    def test_ties_and_tiny_weights(self, rng):
        merged = Empirical(((0.0, 0.5), (1.0, 0.25), (3.0, 0.25)))
        tied = Empirical(((1.0, 0.125), (0.0, 0.25), (3.0, 0.25), (0.0, 0.25), (1.0, 0.125)))
        assert tied == merged
        assert tied.affine_root(0.0, 0.7, 0.3) == merged.affine_root(0.0, 0.7, 0.3)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            weights = np.full(n, 1e-9)
            weights[int(rng.integers(0, n))] = 1.0 - (n - 1) * 1e-9
            d = Empirical.from_arrays(rng.normal(0.0, 3.0, n), weights)
            for shift, a, b in ((0.0, 0.9, 0.1), (0.0, 0.05, 0.95), (1.0, 0.3, 0.7)):
                m, _ = d.affine_root(shift, a, b)
                assert _ulps_off(m, _exact_affine_root(d, shift, a, b), d) <= 4.0


class TestPartialMomentExamples:
    def test_empirical(self):
        assert partial_moment_plus(FAIR_COIN, 0.0, 1) == 0.5
        assert partial_moment_minus(FAIR_COIN, 1.0, 1) == 0.5

    def test_normal_plus_is_density_at_zero(self):
        got = partial_moment_plus(Normal(0, 1), 0.0, 1)
        assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert got == pytest.approx(0.3989422804, abs=1e-9)

    def test_normal_minus_square_by_symmetry(self):
        assert partial_moment_minus(Normal(0, 1), 0.0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_square_tail(self):
        # symbolic integration: int_1^inf (x-1)^2 e^-x dx = 2/e
        got = partial_moment_plus(Exponential(1), 1.0, 2)
        assert got == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        assert got == pytest.approx(0.7357588823, abs=1e-9)

    def test_exponential_no_mass_below_zero(self):
        assert partial_moment_minus(Exponential(1), 0.0, 1) == 0.0

    def test_exponential_lower_tail_near_zero_matches_quadrature(self):
        # mu^2 + (mu - m)^2 - 2 e^(-rate m) mu^2 cancels to rounding noise
        # for small m (it read 0 at m = 1e-5 at rate 0.515)
        for rate in (0.3, 0.5151645526357527, 1.0, 3.0):
            d = Exponential(rate)
            for m in np.geomspace(1e-8, 3.0 / rate, 60):
                m = float(m)
                for power in (1, 2):
                    ref, _ = quad(
                        lambda x: (m - x) ** power * rate * math.exp(-rate * x),
                        0.0,
                        m,
                        epsabs=0.0,
                        epsrel=1e-13,
                    )
                    got = partial_moment_minus(d, m, power)
                    assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (rate, m, power)

    def test_empirical_far_from_zero_keeps_its_digits(self):
        # atoms and thresholds on a grid of 1/4 are exact after a shift of
        # 1e9; sums about the mean lose nothing the shift does not
        near = Empirical(tuple(zip([-1.5, 0.25, 0.75, 2.0], [0.1, 0.4, 0.3, 0.2])))
        far = near.shift(1e9)
        for m in (-2.0, -0.5, 0.25, 1.0, 2.5):
            for power in (1, 2):
                for moment in (partial_moment_plus, partial_moment_minus):
                    assert moment(far, m + 1e9, power) == pytest.approx(moment(near, m, power), abs=1e-12)

    def test_power_validated(self):
        with pytest.raises(ValueError):
            partial_moment_plus(FAIR_COIN, 0.0, 3)


def _mp_normal(z):
    """(cdf, pdf) of the standard normal at the float z, to 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        return mpmath.ncdf(z), mpmath.npdf(z)


def _mp_student_t(z, dof):
    """(cdf, pdf) of the standard t with `dof` at the float z, to 30 digits:
    the cdf from the regularized incomplete beta I_x(dof/2, 1/2)."""
    with mpmath.workdps(30):
        z, nu = mpmath.mpf(z), mpmath.mpf(dof)
        x = nu / (nu + z * z)
        tail = mpmath.betainc(nu / 2, mpmath.mpf(0.5), 0, x, regularized=True) / 2
        log_norm = mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
        return (1 - tail if z > 0 else tail), mpmath.exp(log_norm) / mpmath.sqrt(nu * mpmath.pi) * x ** ((nu + 1) / 2)


def _worst_errors(exact, cdf_fn, quantile_fn, alphas, ms):
    """(worst relative cdf error, worst quantile error) against exact(z) =
    (cdf, pdf).  A quantile q's error is its distance to the exact quantile,
    (F(q) - alpha)/f(q) to first order, relative to max(1, |q|)."""
    cdf_err = 0.0
    for m in ms:
        big_f = exact(m)[0]
        cdf_err = max(cdf_err, float(abs(cdf_fn(m) - big_f) / big_f))
    q_err = 0.0
    for alpha in alphas:
        q = quantile_fn(alpha)
        big_f, f = exact(q)
        q_err = max(q_err, float(abs((big_f - mpmath.mpf(alpha)) / f)) / max(1.0, abs(q)))
    return cdf_err, q_err


class TestAccuracyOracles:
    """The normal and Student-t cdf and quantile, computed in the package,
    against mpmath at 30 digits on the grids where they once had to equal
    scipy.stats bit for bit.  Each tolerance is a relative error no larger
    than scipy.special's own worst error against the same oracle on the
    same points of its family (measured here: ndtr 1.2e-14 and ndtri
    4.4e-16; stdtr 7.1e-15 and stdtrit 1.2e-13, both at their worst dof),
    and each test checks that bound as well as its own."""

    ALPHAS = [float(a) for a in np.concatenate(
        [[1e-12, 1e-6, 1e-4], np.linspace(0.001, 0.999, 199), [1 - 1e-4, 1 - 1e-6]]
    )]
    MS = [float(m) for m in np.linspace(-9.0, 9.0, 181)]
    DOFS = (0.5, 1.0, 1.5, 2.5, 5.0, 25.414486932271444, 30.0, 1e6)
    NORMAL_CDF_RTOL, NORMAL_QUANTILE_TOL = 1e-14, 4.3e-16
    T_CDF_RTOL, T_QUANTILE_TOL = 2e-15, 2e-15

    def test_normal(self):
        d = Normal(0.0, 1.0)
        ours = _worst_errors(_mp_normal, lambda m: cdf(d, m), lambda a: quantile(d, a), self.ALPHAS, self.MS)
        theirs = _worst_errors(
            _mp_normal, lambda m: float(special.ndtr(m)), lambda a: float(special.ndtri(a)), self.ALPHAS, self.MS
        )
        assert ours[0] <= self.NORMAL_CDF_RTOL <= theirs[0]
        assert ours[1] <= self.NORMAL_QUANTILE_TOL <= theirs[1]

    def test_normal_quantile_is_the_stdlib_as241(self):
        # the same AS241 as statistics.NormalDist().inv_cdf, bit for bit, from
        # the centre to the smallest subnormal
        ps = self.ALPHAS + [10.0**-k for k in range(1, 309)] + [1.0 - 10.0**-k for k in range(1, 17)] + [5e-324]
        inv_cdf = statistics.NormalDist().inv_cdf
        assert [_normal_quantile(p).hex() for p in ps] == [inv_cdf(p).hex() for p in ps]

    def test_student_t(self):
        ours, theirs = [0.0, 0.0], [0.0, 0.0]
        for dof in self.DOFS:
            d = StudentT(dof)
            exact = functools.partial(_mp_student_t, dof=dof)
            for worst, errors in (
                (ours, _worst_errors(exact, lambda m: cdf(d, m), lambda a: quantile(d, a), self.ALPHAS, self.MS)),
                (theirs, _worst_errors(
                    exact,
                    lambda m: float(special.stdtr(dof, m)),
                    lambda a: float(special.stdtrit(dof, a)),
                    self.ALPHAS,
                    self.MS,
                )),
            ):
                worst[:] = [max(w, e) for w, e in zip(worst, errors)]
        assert ours[0] <= self.T_CDF_RTOL <= theirs[0]
        assert ours[1] <= self.T_QUANTILE_TOL <= theirs[1]

    def test_student_t_far_tails(self):
        # where x = dof/(dof + z^2) is small the asymptotic expansion fails
        # and the tail is its positive series, here against that series at
        # 30 digits: x^a y^(1/2)/(a B(a, 1/2)) sum_k prod_(j<k) x (a + j +
        # 1/2)/(a + j + 1), a = dof/2
        for dof in (2.2, 12.0, 29.0, 30.0, 60.0):
            for z in np.geomspace(10.0, 1e4, 13):
                with mpmath.workdps(30):
                    nu, zz = mpmath.mpf(dof), mpmath.mpf(z)
                    a, x, y = nu / 2, nu / (nu + zz * zz), zz * zz / (nu + zz * zz)
                    total = term = mpmath.mpf(1)
                    k = 0
                    while term > 1e-25 * total:
                        term *= x * (a + k + mpmath.mpf(0.5)) / (a + k + 1)
                        total += term
                        k += 1
                    exact = mpmath.sqrt(y) * x**a / (a * mpmath.beta(a, mpmath.mpf(0.5))) * total / 2
                assert float(abs(cdf(StudentT(dof), -float(z)) - exact) / exact) <= self.T_CDF_RTOL

    def test_gamma_ratio(self):
        # Gamma(a + 1/2)/Gamma(a), the Student-t normalization, and the
        # exact Stirling coefficients it sums
        for a in np.logspace(-3.0, 12.0, 151):
            with mpmath.workdps(30):
                exact = mpmath.exp(mpmath.loggamma(a + mpmath.mpf(0.5)) - mpmath.loggamma(a))
            assert float(abs(_gamma_ratio(float(a)) - exact) / exact) <= 6e-16
        bernoulli = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
        assert _STIRLING_HALF == tuple(
            float((Fraction(1, 2**k) - 2) * Fraction(*b) / (k * (k + 1)))
            for k, b in zip(range(1, 16, 2), bernoulli)
        )

    @pytest.mark.parametrize(
        "d", [Normal(0.3, 1.7), Normal(-4.0, 0.2)] + [StudentT(dof, 1.3, 0.7) for dof in DOFS], ids=repr
    )
    def test_location_and_scale(self, d):
        # the standardized functions, moved and stretched
        center, scale = (d.mean, d.stddev) if isinstance(d, Normal) else (d.location, d.scale)
        unit = Normal(0.0, 1.0) if isinstance(d, Normal) else StudentT(d.dof)
        for a in self.ALPHAS[::7]:
            assert quantile(d, a) == center + scale * quantile(unit, a)
        for m in self.MS[::7]:
            assert cdf(d, m) == cdf(unit, (m - center) / scale)

    @pytest.mark.parametrize("d", [Normal(0.0, 1.0)] + [StudentT(dof) for dof in DOFS], ids=repr)
    def test_quantile_of_the_cdf_round_trips(self, d):
        # below the centre the cdf keeps its relative precision, and its
        # quantile returns m to within the two functions' errors scaled by
        # the tail's elasticity F/(m f), at most 1/dof
        dof = getattr(d, "dof", math.inf)
        for m in self.MS:
            if m < 0.0:
                assert quantile(d, cdf(d, m)) == pytest.approx(m, rel=8e-15 * max(1.0, 1.0 / dof))

    @pytest.mark.parametrize("d", [Normal(0.0, 1.0)] + [StudentT(dof) for dof in DOFS], ids=repr)
    def test_cdf_does_not_decrease_on_a_fine_grid(self, d):
        # 1e-7 grids through the centre, the switches of the Student-t
        # kernel, from the centre's series to the tail's where (dof + 1) y =
        # 1.2 or y = 0.6, y = m^2/(dof + m^2), and from the tail's series to
        # the asymptotic expansion at x = 1 - y = 1/4, and further points
        dof = getattr(d, "dof", 1.0)
        centre = math.sqrt(min(1.2 * dof / (dof - 0.2) if dof > 0.2 else math.inf, 1.5 * dof))
        starts = (0.0, centre, -centre, math.sqrt(3.0 * dof), 0.5, 2.0, -3.0, 7.5)
        for start in starts:
            values = [cdf(d, start + k * 1e-7) for k in range(-100, 101)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestStudentT:
    def test_matches_adaptive_quadrature(self):
        for dof, loc, sc in [
            (5.0, 0.0, 1.0),
            (2.5, 1.3, 0.7),
            (11.0, -2.0, 3.0),
            (2.2, 0.4, 1.3),
            (30.0, -0.5, 0.8),
            (1e4, 1.0, 2.0),
        ]:
            d = StudentT(dof, loc, sc)
            for m in (-3.0, -0.7, 0.0, 1.9, 6.0):
                for power in (1, 2):
                    ref = quad(
                        lambda x: (x - m) ** power * stats.t.pdf((x - loc) / sc, dof) / sc,
                        m,
                        np.inf,
                        epsabs=1e-13,
                        epsrel=1e-13,
                        limit=500,
                    )[0]
                    assert partial_moment_plus(d, m, power) == pytest.approx(ref, abs=1e-10)
                    ref_m = quad(
                        lambda x: (m - x) ** power * stats.t.pdf((x - loc) / sc, dof) / sc,
                        -np.inf,
                        m,
                        epsabs=1e-13,
                        epsrel=1e-13,
                        limit=500,
                    )[0]
                    assert partial_moment_minus(d, m, power) == pytest.approx(ref_m, abs=1e-10)

    @pytest.mark.parametrize("dof", [2.5, 5.0, 25.414486932271444])
    @pytest.mark.parametrize("start", [None, -0.29288, 0.5, 2.0, -3.0])
    def test_smooth_next_to_the_location(self, dof, start):
        # second differences on 1e-7 grids stay at rounding level: through
        # the location, where an incomplete beta at x = dof/(dof + z^2) that
        # rounds 1 - x put 1e-10 jumps into them; from -0.29288, where the
        # second moment once subtracted two t cdfs scaled by about dof and
        # jumped by 1.4e-10; and at points in both tails
        d = StudentT(dof, -0.2931952221464087, 1.4647138344122048)
        if start is None:
            ms = d.location + (np.arange(-6, 7) + 0.5) * 1e-7
        else:
            ms = start + np.arange(13) * 1e-7
        for moment in (partial_moment_plus, partial_moment_minus):
            for power in (1, 2):
                values = np.array([moment(d, float(m), power) for m in ms])
                assert np.abs(np.diff(values, 2)).max() <= 1e-12

    def test_moment_existence_thresholds(self):
        with pytest.raises(MomentUndefined):
            partial_moment_plus(StudentT(2.0), 0.0, 2)
        with pytest.raises(MomentUndefined):
            partial_moment_plus(StudentT(1.0), 0.0, 1)
        with pytest.raises(MomentUndefined):
            mean(StudentT(0.9))
        # allowed just above the thresholds
        assert partial_moment_plus(StudentT(2.1), 0.0, 2) > 0
        assert partial_moment_plus(StudentT(1.1), 0.0, 1) > 0


class TestIdentitiesAndShape:
    @pytest.mark.parametrize(
        "d", [FAIR_COIN, Normal(0.3, 1.7), Exponential(0.8), StudentT(4.5, 0.2, 1.1)]
    )
    def test_decomposition_identity(self, d):
        for m in np.linspace(-5, 5, 21):
            lhs = partial_moment_plus(d, m, 1) - partial_moment_minus(d, m, 1)
            assert lhs == pytest.approx(mean(d) - m, abs=1e-9)

    @pytest.mark.parametrize(
        "d", [FAIR_COIN, Normal(0.3, 1.7), Exponential(0.8), StudentT(4.5)]
    )
    def test_monotone_in_threshold(self, d):
        grid = np.linspace(-4, 4, 33)
        for power in (1, 2):
            plus = [partial_moment_plus(d, m, power) for m in grid]
            minus = [partial_moment_minus(d, m, power) for m in grid]
            assert all(b <= a + 1e-12 for a, b in zip(plus[:-1], plus[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(minus[:-1], minus[1:]))
            assert all(v >= 0.0 for v in plus + minus)

    def test_monte_carlo_agreement(self, rng):
        n_draws = 10_000_000
        for d, sampler in [
            (Normal(0.4, 1.3), lambda r: 0.4 + 1.3 * r.standard_normal(n_draws)),
            (Exponential(0.7), lambda r: r.exponential(1 / 0.7, n_draws)),
        ]:
            draws = sampler(np.random.default_rng(99))
            for m in rng.uniform(-2.0, 3.0, 10):
                for power in (1, 2):
                    vals = np.maximum(draws - m, 0.0) ** power
                    mc, se = vals.mean(), vals.std() / math.sqrt(n_draws)
                    got = partial_moment_plus(d, m, power)
                    assert abs(got - mc) < 4.0 * se + 1e-12, (d, m, power)


class TestQuantiles:
    def test_quantile_examples(self):
        four = Empirical.uniform([1, 2, 3, 4])
        assert quantile(four, 0.5) == 2.0
        assert quantile(Normal(0, 1), 0.5) == pytest.approx(0.0, abs=1e-12)
        assert quantile(Exponential(2), 1 - math.exp(-2)) == pytest.approx(1.0, abs=1e-12)

    def test_var_bracket_exact_for_empirical(self, rng):
        for _ in range(25):
            d = random_empirical(rng, max_atoms=30)
            for alpha in rng.uniform(0.02, 0.98, 8):
                q = quantile(d, float(alpha))
                below = float(d.weights[d.values < q].sum())
                assert below <= alpha <= cdf(d, q)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            quantile(FAIR_COIN, 0.0)


class TestSampling:
    def test_point_mass(self):
        assert sample(Empirical(((7.0, 1.0),)), 3, seed=5).tolist() == [7.0, 7.0, 7.0]

    def test_normal_clt_bound(self):
        draws = sample(Normal(0, 1), 1_000_000, seed=42)
        assert abs(draws.mean()) < 0.005

    def test_seed_determinism(self):
        for d in (FAIR_COIN, Normal(0, 1), Exponential(1), StudentT(5)):
            a = sample(d, 1000, seed=123)
            b = sample(d, 1000, seed=123)
            assert np.array_equal(a, b)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            sample(FAIR_COIN, 0, seed=1)


def _load_outcome(load, path: str):
    """The law bit for bit, or the error, that loading `path` gives."""
    try:
        d = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        [v.hex() for v in d.values.tolist()],
        [w.hex() for w in d.weights.tolist()],
        [(v.hex(), w.hex()) for v, w in d.points],
    )


NUMBER = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-1000, 1000).map(str))
ODD = st.sampled_from(["1_000", "nan", "inf", "-Infinity", "-0.0", "+1.5", ".5", "1e3", " 2.5 ", "\t7"])
WEIGHT = st.floats(1e-3, 10.0).map(repr)
EDITS = ("none", "none", "odd value", "bad value", "odd weight", "missing weight", "blank row", "quoted")


@st.composite
def csv_texts(draw):
    """CSV text of 1-20 rows, with or without weights and a header, one
    line ending, and at most one edit on a drawn row."""
    weighted = draw(st.booleans())
    rows = [
        [draw(NUMBER)] + ([draw(WEIGHT)] if weighted else [])
        for _ in range(draw(st.integers(1, 20)))
    ]
    k = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(EDITS))
    if edit == "odd value":
        rows[k][0] = draw(ODD)
    elif edit == "bad value":
        rows[k][0] = draw(st.sampled_from(["abc", "1.2.3", "1e", "--1", "0x10", "#1", ""]))
    elif edit == "odd weight":
        rows[k][1:] = [draw(st.sampled_from(["x", "0", "-1", "nan", "inf", "1e", "2_0", " 0.5"]))]
    elif edit == "missing weight":
        rows[k] = rows[k][:1] + ([" "] if draw(st.booleans()) else []) if weighted else rows[k] + ["1"]
    elif edit == "quoted":
        rows[k][0] = f'"{rows[k][0]}"'
    lines = [",".join(row) for row in rows]
    if edit == "blank row":
        lines.insert(k, draw(st.sampled_from(["", "  ", ",,", " , "])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["value,weight", "x", '"value"'])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


class TestParsing:
    def test_csv_with_weights(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("value,weight\n1.0,0.2\n2.0,0.8\n")
        d = empirical_from_csv(str(path))
        assert d.values.tolist() == [1.0, 2.0]
        assert d.weights.tolist() == pytest.approx([0.2, 0.8])

    def test_csv_uniform(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("3\n1\n2\n")
        d = empirical_from_csv(str(path))
        assert d.values.tolist() == [1.0, 2.0, 3.0]
        assert d.weights.tolist() == pytest.approx([1 / 3] * 3)

    def test_csv_bad_value(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("1.0\nnope\n")
        with pytest.raises(ValueError, match="row 2"):
            empirical_from_csv(str(path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(text=csv_texts())
    def test_csv_loader_matches_the_row_loop(self, text, tmp_path_factory):
        path = str(tmp_path_factory.getbasetemp() / "property.csv")
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert _load_outcome(empirical_from_csv, path) == _load_outcome(reference_empirical_from_csv, path)

    @pytest.mark.parametrize(
        "text, one_pass",
        [
            ("value,weight\r\n1.0,0.2\r\n2.0,0.8\r\n", True),
            ("2.5", True),
            ("x\n3\n\n1\n2\n", True),
            ("1,0.5,7\n2,0.5,8\n", True),
            ("\n1\n2\n", False),
            ('"1"\n2\n', False),
            ("1\n,,\n2\n", False),
            ("1\n1_000\n", False),
            ("1\n#2\n3\n", False),
            ("value\n", False),
        ],
    )
    def test_csv_one_pass_takes_plain_files(self, tmp_path, text, one_pass):
        path = tmp_path / "atoms.csv"
        path.write_bytes(text.encode())
        assert (_csv_columns(str(path)) is not None) == one_pass
        assert _load_outcome(empirical_from_csv, str(path)) == _load_outcome(
            reference_empirical_from_csv, str(path)
        )

    def test_json_families(self):
        assert prior_from_json('{"family": "normal", "mean": 0, "stddev": 2}') == Normal(0, 2)
        assert prior_from_json('{"family": "exponential", "rate": 3}') == Exponential(3)
        assert prior_from_json('{"family": "student_t", "dof": 5}') == StudentT(5)
        d = prior_from_json('{"family": "empirical", "points": [[1, 0.5], [2, 0.5]]}')
        assert isinstance(d, Empirical)
        with pytest.raises(ValueError):
            prior_from_json('{"family": "cauchy"}')
        with pytest.raises(ValueError):
            prior_from_json('{"family": "normal", "mean": 0}')
