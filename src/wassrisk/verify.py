"""Seeded property suites behind the `verify` CLI subcommand.

Each check replays a deterministic batch of cases against an independent
characterization (an oracle, a symmetry, or a monotone trend) and reports
the first counterexample on failure.  Suites: axioms, duality, transforms,
reductions, trends.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .distributions import Empirical, Exponential, Normal, StudentT, mean
from .dual_oracle import DensityBand, dual_expectile_max, wasserstein_1d
from .losses import (
    AsymQuadratic,
    CostExponent,
    CustomLoss,
    GeneralizedQuantile,
    Pinball,
    PowerLoss,
    check_L_membership,
    lambda_c_transform,
    loss_value,
)
from .penalizations import BallPenalty, LinearPenalty, evaluate as penalty_value
from .risk_measures import (
    expectile,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_generalized_quantile,
    var,
)
from .robust_core import classical_oce, robust_functional, robust_oce

P1 = CostExponent(1.0)
P2 = CostExponent(2.0)

Check = tuple[str, Callable[[int], tuple[bool, str]]]


def _random_empirical(rng: np.random.Generator, max_atoms: int = 40) -> Empirical:
    n = int(rng.integers(2, max_atoms + 1))
    vals = rng.normal(0.0, 2.5, n)
    w = rng.dirichlet(np.ones(n))
    w = np.maximum(w, 1e-9)
    w = w / w.sum()
    return Empirical.from_arrays(vals, w)


def _random_coupled(
    rng: np.random.Generator, max_atoms: int = 25
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (x, y, weights) arrays for two laws on a shared finite sample
    space; marginals and pointwise combinations must be built from these
    arrays, not from Empirical.points, whose atoms are re-sorted."""
    n = int(rng.integers(2, max_atoms + 1))
    w = rng.dirichlet(np.ones(n))
    w = np.maximum(w, 1e-9)
    w = w / w.sum()
    x = rng.normal(0.0, 2.0, n)
    y = rng.normal(0.5, 1.5, n)
    return x, y, w


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def _check_oce_translation(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for k in range(20):
        d = _random_empirical(rng)
        c = float(rng.uniform(-4.0, 4.0))
        base = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
        shifted = robust_oce(d.shift(c), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
        if abs(shifted - (base + c)) > 1e-7:
            return False, f"case {k}: shift {c!r} moved the value by {shifted - base!r}"
    return True, "20 seeded shifts"


def _check_oce_monotone(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    # monotonicity needs an increasing loss; two-sided losses may reward
    # lifting a low atom toward the anchor
    rising = GeneralizedQuantile(0.65, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
    for k in range(20):
        x, _, w = _random_coupled(rng)
        bump = rng.uniform(0.0, 2.0, len(x))
        lo = robust_oce(Empirical.from_arrays(x, w), rising, P2, LinearPenalty(2.0)).value
        hi = robust_oce(Empirical.from_arrays(x + bump, w), rising, P2, LinearPenalty(2.0)).value
        if lo > hi + 1e-9:
            return False, f"case {k}: dominated input got larger value {lo!r} > {hi!r}"
    return True, "20 dominated pairs"


def _check_oce_convexity(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for k in range(20):
        x, y, w = _random_coupled(rng)
        t = float(rng.uniform(0.1, 0.9))
        vx = robust_oce(Empirical.from_arrays(x, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
        vy = robust_oce(Empirical.from_arrays(y, w), AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
        mix = Empirical.from_arrays(t * x + (1 - t) * y, w)
        vm = robust_oce(mix, AsymQuadratic(0.7), P2, LinearPenalty(2.0)).value
        if vm > t * vx + (1.0 - t) * vy + 1e-7:
            return False, f"case {k}: mixture value {vm!r} above chord"
    return True, "20 pointwise mixtures"


def _check_loss_ordering(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    small = AsymQuadratic(0.7)
    big = GeneralizedQuantile(0.7, PowerLoss(1.6, 2.0), PowerLoss(1.6, 2.0))
    for k in range(20):
        d = _random_empirical(rng)
        v_small = robust_oce(d, small, P2, LinearPenalty(3.0)).value
        v_big = robust_oce(d, big, P2, LinearPenalty(3.0)).value
        if v_big < v_small - 1e-9:
            return False, f"case {k}: larger loss produced smaller value"
    return True, "20 ordered loss pairs"


def _check_penalty_ordering(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for k in range(20):
        d = _random_empirical(rng)
        loose = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(1.2)).value
        tight = robust_oce(d, AsymQuadratic(0.7), P2, LinearPenalty(4.0)).value
        classical = classical_oce(d, AsymQuadratic(0.7)).value
        if not (loose + 1e-9 >= tight >= classical - 1e-9):
            return False, f"case {k}: ordering broken: {loose!r}, {tight!r}, {classical!r}"
    return True, "20 penalty orderings vs the classical value"


def _check_coherence(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    alpha, d1 = 0.75, 2.0
    for k in range(40):
        x, y, w = _random_coupled(rng)
        ex = robust_expectile_linear(Empirical.from_arrays(x, w), alpha, d1)
        ey = robust_expectile_linear(Empirical.from_arrays(y, w), alpha, d1)
        shift = float(rng.uniform(-3, 3))
        moved = robust_expectile_linear(Empirical.from_arrays(x + shift, w), alpha, d1)
        if abs(moved - (ex + shift)) > 1e-8:
            return False, f"case {k}: translation failed"
        for t in (0.5, 2.0, 7.0):
            scaled = robust_expectile_linear(Empirical.from_arrays(t * x, w), alpha, d1)
            if abs(scaled - t * ex) > 1e-8 * max(1, t):
                return False, f"case {k}: homogeneity failed at t={t}"
        if robust_expectile_linear(Empirical.from_arrays(x + y, w), alpha, d1) > ex + ey + 1e-8:
            return False, f"case {k}: subadditivity failed"
    return True, "40 coupled pairs: translation, homogeneity, subadditivity"


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def _check_band_oracle(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    three = Empirical.uniform([1.0, 2.0, 3.0])
    hand = dual_expectile_max(three, DensityBand.from_expectile_level(0.75, 1.0))
    if abs(hand - 30.0 / 11.0) > 1e-12:
        return False, f"hand case {{1,2,3}}: got {hand!r}, want 30/11"
    for k in range(30):
        d = _random_empirical(rng)
        for alpha, direction in ((0.6, "max"), (0.9, "max"), (0.25, "min")):
            for d1 in (1.0, 10.0):
                lhs = robust_expectile_linear(d, alpha, d1)
                rhs = dual_expectile_max(
                    d, DensityBand.from_expectile_level(alpha, d1), direction
                )
                if abs(lhs - rhs) > 1e-8:
                    return False, f"case {k} alpha={alpha} d1={d1}: {lhs!r} vs {rhs!r}"
    return True, "hand case 30/11 plus 180 random band comparisons"


def _check_weak_duality(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    base = _random_empirical(rng, max_atoms=12)
    for k in range(60):
        jitter = rng.normal(0.0, 0.3, len(base.values))
        mu = Empirical.from_arrays(base.values + jitter, base.weights)
        m = float(rng.uniform(-2.0, 2.0))
        for loss, cost in ((Pinball(0.3), P1), (AsymQuadratic(0.7), P2)):
            transport = wasserstein_1d(base, mu, cost)
            for phi in (LinearPenalty(2.0), BallPenalty(0.4)):
                pen = penalty_value(phi, transport)
                if math.isinf(pen):
                    continue
                primal = float(
                    np.dot(mu.weights, np.asarray(loss_value(loss, mu.values - m)))
                ) - pen
                dual = robust_functional(base, loss, cost, phi, m)
                if primal > dual + 1e-9:
                    return False, f"case {k}: primal {primal!r} above dual {dual!r}"
    return True, "60 perturbed laws x 4 loss/penalty pairs"


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _check_transform_closed_vs_numeric(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for k in range(50):
        alpha = float(rng.uniform(0.1, 0.9))
        x = float(rng.uniform(-4.0, 4.0))
        lam = max(alpha, 1 - alpha) + float(rng.uniform(0.2, 3.0))
        pin_custom = CustomLoss(
            lambda y, a=alpha: a * np.maximum(y, 0.0) + (1 - a) * np.maximum(-y, 0.0),
            max(alpha, 1 - alpha),
            1.0,
        )
        quad_custom = CustomLoss(
            lambda y, a=alpha: a * np.maximum(y, 0.0) ** 2 + (1 - a) * np.maximum(-y, 0.0) ** 2,
            max(alpha, 1 - alpha),
            2.0,
        )
        c1 = lambda_c_transform(Pinball(alpha), P1, lam, x)
        n1 = lambda_c_transform(pin_custom, P1, lam, x)
        c2 = lambda_c_transform(AsymQuadratic(alpha), P2, lam, x)
        n2 = lambda_c_transform(quad_custom, P2, lam, x)
        if abs(c1 - n1) > 1e-4 or abs(c2 - n2) > 1e-4:
            return False, f"case {k}: alpha={alpha} lam={lam} x={x}"
    return True, "50 probes per family against the numeric supremum"


def _check_transform_shape(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    increasing = GeneralizedQuantile(0.6, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0))
    for k in range(50):
        alpha = float(rng.uniform(0.1, 0.9))
        loss = AsymQuadratic(alpha)
        thr = max(alpha, 1 - alpha)
        lam1 = thr + float(rng.uniform(0.05, 2.0))
        lam2 = lam1 + float(rng.uniform(0.05, 2.0))
        xs = np.sort(rng.uniform(-5.0, 5.0, 7))
        vals1 = [lambda_c_transform(loss, P2, lam1, float(x)) for x in xs]
        vals2 = [lambda_c_transform(loss, P2, lam2, float(x)) for x in xs]
        for x, v in zip(xs, vals1):
            if v < float(loss_value(loss, float(x))) - 1e-12:
                return False, f"case {k}: transform below the loss at x={x}"
        if any(b > a + 1e-12 for a, b in zip(vals1, vals2)):
            return False, f"case {k}: not nonincreasing in lambda"
        # monotonicity in x needs an increasing loss; the two-sided families
        # decrease on the negative half-line and are exempt
        lam_m = 0.7 + float(rng.uniform(0.05, 2.0))
        mono = [lambda_c_transform(increasing, P2, lam_m, float(x)) for x in xs]
        if any(b < a - 1e-9 for a, b in zip(mono[:-1], mono[1:])):
            return False, f"case {k}: not nondecreasing in x for an increasing loss"
        xa, xb = float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))
        mid = lambda_c_transform(loss, P2, 0.5 * (lam1 + lam2), 0.5 * (xa + xb))
        chord = 0.5 * lambda_c_transform(loss, P2, lam1, xa) + 0.5 * lambda_c_transform(
            loss, P2, lam2, xb
        )
        if mid > chord + 1e-9:
            return False, f"case {k}: joint midpoint convexity failed"
    return True, "50 probes: dominance, monotonicity, joint convexity"


def _check_membership(seed: int) -> tuple[bool, str]:
    grid = np.linspace(-10.0, 10.0, 41)
    slope_one = CustomLoss(lambda y: 1.0 + np.maximum(y, 0.0), 1.0, 1.0)
    if not check_L_membership(slope_one, P1, 2.0, grid):
        return False, "1 + x^+ should certify membership at lambda=2"
    if check_L_membership(Pinball(0.3), P1, 1.0, grid):
        return False, "the pinball loss must fail the membership certificate"
    return True, "slope-one loss certifies, pinball does not"


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _check_robust_var(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for k in range(10):
        d = _random_empirical(rng, max_atoms=30)
        for alpha in (0.1, 0.5, 0.9):
            q = var(d, alpha)
            for phi in (LinearPenalty(0.95), LinearPenalty(5.0), BallPenalty(0.5)):
                m1, m2 = robust_generalized_quantile(d, Pinball(alpha), P1, phi)
                if not (m1 - 1e-6 <= q <= m2 + 1e-6):
                    return False, f"case {k} alpha={alpha}: VaR {q!r} outside [{m1!r},{m2!r}]"
    return True, "30 priors x 3 penalties: quantile interval contains VaR"


def _check_ball_zero(seed: int) -> tuple[bool, str]:
    for d in (Normal(0, 1), Exponential(1), StudentT(5)):
        for alpha in (0.2, 0.5, 0.8):
            lhs = robust_expectile_ball(d, alpha, 0.0)
            rhs = expectile(d, alpha)
            if abs(lhs - rhs) > 1e-8:
                return False, f"{d}: alpha={alpha}: {lhs!r} vs {rhs!r}"
    return True, "radius zero equals the classical expectile"


def _check_large_delta(seed: int) -> tuple[bool, str]:
    for d in (Normal(0, 1), Exponential(1), StudentT(5)):
        for alpha in (0.2, 0.5, 0.8):
            lhs = robust_expectile_linear(d, alpha, 1e6)
            rhs = expectile(d, alpha)
            if abs(lhs - rhs) > 1e-4:
                return False, f"{d}: alpha={alpha}: {lhs!r} vs {rhs!r}"
    return True, "slope 1e6 approaches the classical expectile"


def _check_alpha_half(seed: int) -> tuple[bool, str]:
    for d in (Normal(0, 1), Exponential(1), StudentT(5)):
        lhs = robust_expectile_linear(d, 0.5, 2.0)
        if abs(lhs - mean(d)) > 1e-10:
            return False, f"{d}: got {lhs!r}, mean {mean(d)!r}"
    return True, "alpha = 1/2 returns the mean"


# ---------------------------------------------------------------------------
# trends
# ---------------------------------------------------------------------------


def _monotone(seq: Iterable[float], direction: int, tol: float = 1e-9) -> bool:
    seq = list(seq)
    return all(direction * (b - a) >= -tol for a, b in zip(seq[:-1], seq[1:]))


def _check_linear_trend(seed: int) -> tuple[bool, str]:
    deltas = [1.0 + 0.5 * i for i in range(19)]
    for d in (Normal(0, 1), Exponential(1), StudentT(5)):
        mu = mean(d)
        for alpha in (0.7, 0.9):
            e_cl = expectile(d, alpha)
            vals = [robust_expectile_linear(d, alpha, dl) for dl in deltas]
            if not _monotone(vals, -1):
                return False, f"{d}: alpha={alpha}: not nonincreasing in delta"
            if not all(v >= e_cl - 1e-9 for v in vals) or e_cl < mu - 1e-9:
                return False, f"{d}: alpha={alpha}: bound chain broken"
        for alpha in (0.1, 0.3):
            e_cl = expectile(d, alpha)
            vals = [robust_expectile_linear(d, alpha, dl) for dl in deltas]
            if not _monotone(vals, +1):
                return False, f"{d}: alpha={alpha}: not nondecreasing in delta"
            if not all(v <= e_cl + 1e-9 for v in vals) or e_cl > mu + 1e-9:
                return False, f"{d}: alpha={alpha}: bound chain broken"
    return True, "3 priors x 4 levels over 19 slopes"


def _check_ball_trend(seed: int) -> tuple[bool, str]:
    radii = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]
    for d in (Normal(0, 1), Exponential(1), StudentT(5)):
        for alpha in (0.7, 0.9):
            vals = [robust_expectile_ball(d, alpha, r) for r in radii]
            if not _monotone(vals, +1, tol=1e-7):
                return False, f"{d}: alpha={alpha}: not nondecreasing in radius"
        for alpha in (0.1, 0.3):
            vals = [robust_expectile_ball(d, alpha, r) for r in radii]
            if not _monotone(vals, -1, tol=1e-7):
                return False, f"{d}: alpha={alpha}: not nonincreasing in radius"
    return True, "3 priors x 4 levels over 6 radii"


def _check_alpha_sweep(seed: int) -> tuple[bool, str]:
    alphas = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]
    for d in (Normal(0, 1), StudentT(5)):
        cl = [expectile(d, a) for a in alphas]
        lin = [robust_expectile_linear(d, a, 2.0) for a in alphas]
        ball = [robust_expectile_ball(d, a, 0.5) for a in alphas]
        if not (_monotone(cl, +1) and _monotone(lin, +1) and _monotone(ball, +1, tol=1e-7)):
            return False, f"{d}: a measure is not nondecreasing in alpha"
    return True, "all three measures nondecreasing in the level"


SUITES: dict[str, list[Check]] = {
    "axioms": [
        ("oce-translation-invariance", _check_oce_translation),
        ("oce-monotonicity", _check_oce_monotone),
        ("oce-convexity", _check_oce_convexity),
        ("oce-loss-ordering", _check_loss_ordering),
        ("oce-penalty-ordering", _check_penalty_ordering),
        ("linear-expectile-coherence", _check_coherence),
    ],
    "duality": [
        ("density-band-oracle-agreement", _check_band_oracle),
        ("weak-duality-discrete-perturbations", _check_weak_duality),
    ],
    "transforms": [
        ("closed-form-matches-numeric-sup", _check_transform_closed_vs_numeric),
        ("transform-shape-properties", _check_transform_shape),
        ("support-restriction-membership", _check_membership),
    ],
    "reductions": [
        ("robust-var-degenerates-to-var", _check_robust_var),
        ("ball-zero-radius-equals-expectile", _check_ball_zero),
        ("large-linear-slope-approaches-expectile", _check_large_delta),
        ("alpha-half-equals-mean", _check_alpha_half),
    ],
    "trends": [
        ("linear-slope-sweep-directions", _check_linear_trend),
        ("ball-radius-sweep-directions", _check_ball_trend),
        ("alpha-sweep-monotone", _check_alpha_sweep),
    ],
}


def run_suite(name: str, seed: int = 0) -> tuple[bool, list[str]]:
    """Run one suite (or 'all'); returns (all passed, report lines)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    lines: list[str] = []
    ok_all = True
    for suite in names:
        for label, fn in SUITES[suite]:
            try:
                ok, detail = fn(seed)
            except Exception as exc:  # a crash is a failure with the exception as witness
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            ok_all &= ok
            status = "PASS" if ok else "FAIL"
            lines.append(f"{suite}/{label}: {status} ({detail})")
    return ok_all, lines
