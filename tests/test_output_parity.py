"""Bit-for-bit parity of solver outputs with stored results.

tests/data/parity_outputs.json holds float.hex() of every float (ints and
bools as they are) that the cases below produce: each RobustValue field of
robust_oce, classical_oce and robust_generalized_quantile_detail, linear and
ball robust expectiles, classical expectiles, quantiles and cdfs, on every
prior family, including an empirical prior with atoms far from 0.  The loss
layer is pinned too: loss values, lambda-c transforms at and above the
finiteness threshold, the thresholds themselves (or the exception raised),
expected losses and transforms on every prior, and dual values of
generalized-quantile and custom losses under linear, ball and piecewise
penalties.  A case that raises is stored as
{"raises": <exception name>}.

A change that must not move any number keeps this test passing unchanged.
A change that alters results on purpose regenerates the file with

    PYTHONPATH=src python tests/test_output_parity.py --write

and says so in CHANGES.md.  To see what moved,

    PYTHONPATH=src python tests/test_output_parity.py --diff

prints every key whose result differs from the stored one with the largest
absolute change among its numbers (decoded from hex), per field for a
RobustValue.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from wassrisk import (
    AsymQuadratic,
    BallPenalty,
    CostExponent,
    CustomLoss,
    Empirical,
    Exponential,
    GeneralizedQuantile,
    LinearPenalty,
    Normal,
    PiecewiseLinearPenalty,
    Pinball,
    PowerLoss,
    StudentT,
    classical_oce,
    expectile,
    expected_loss,
    expected_transform,
    finiteness_threshold,
    lambda_c_transform,
    lambda_c_transform_many,
    loss_value,
    quantile,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_functional,
    robust_oce,
)
from wassrisk.distributions import cdf
from wassrisk.risk_measures import robust_generalized_quantile_detail

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "parity_outputs.json")

P1, P2 = CostExponent(1.0), CostExponent(2.0)

_FAR = [1e6 + 0.37 * k * k - 3.1 * k for k in range(30)]
_FAR_W = [(k + 1) / 465.0 for k in range(30)]

PRIORS = {
    "normal": Normal(0.3, 1.7),
    "exponential": Exponential(1.3),
    "student_t": StudentT(5.0, 0.2, 1.1),
    "empirical": Empirical(
        tuple(zip([-1.2, -0.3, 0.0, 0.4, 1.1, 2.7], [0.1, 0.25, 0.15, 0.2, 0.2, 0.1]))
    ),
    "empirical_far": Empirical(tuple(zip(_FAR, _FAR_W))),
}


def _asym07_twin(y):
    """AsymQuadratic(0.7) as a custom evaluator."""
    return 0.7 * np.maximum(y, 0.0) ** 2 + 0.3 * np.maximum(-y, 0.0) ** 2


def _pinball_twin(y):
    """The p = 1 closed form (1.4, 0.3) as a custom evaluator."""
    return 1.4 * np.maximum(y, 0.0) + 0.3 * np.maximum(-y, 0.0)


LOSSES = {
    "pinball0.3": Pinball(0.3),
    "pinball0.5": Pinball(0.5),
    "asym0.7": AsymQuadratic(0.7),
    "asym0.3": AsymQuadratic(0.3),
    "asym0.5": AsymQuadratic(0.5),
    "gq1-1": GeneralizedQuantile(0.4, PowerLoss(1.3, 1.0), PowerLoss(0.8, 1.0)),
    "gq2-2": GeneralizedQuantile(0.6, PowerLoss(0.9, 2.0), PowerLoss(1.2, 2.0)),
    "gq1-2": GeneralizedQuantile(0.55, PowerLoss(1.1, 1.0), PowerLoss(0.7, 2.0)),
    "gq1.5-1.2": GeneralizedQuantile(0.35, PowerLoss(1.4, 1.5), PowerLoss(0.6, 1.2)),
    "gq-zero-side": GeneralizedQuantile(0.65, PowerLoss(1.0, 2.0), PowerLoss(0.0, 2.0)),
    "custom-asym0.7": CustomLoss(_asym07_twin, 0.7, 2.0),
}

# the switching level max(a, b) of each closed-form loss under its exponent
SWITCH = {
    ("pinball0.3", 1.0): 0.7,
    ("pinball0.5", 1.0): 0.5,
    ("gq1-1", 1.0): max(0.4 * 1.3, 0.6 * 0.8),
    ("asym0.7", 2.0): 0.7,
    ("asym0.3", 2.0): 0.7,
    ("asym0.5", 2.0): 0.5,
    ("gq2-2", 2.0): max(0.6 * 0.9, 0.4 * 1.2),
    ("gq-zero-side", 2.0): 0.65,
}

_XS = [-2.5, -1.0, -0.3, -0.0, 0.0, 0.4, 1.0, 3.7]


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _robust_value(rv) -> dict:
    return {
        "value": _encode(rv.value),
        "argmin_m": _encode(rv.argmin_m),
        "argmin_lambda": _encode(rv.argmin_lambda),
        "evaluations": rv.evaluations,
        "converged": rv.converged,
        "boundary_lambda": rv.boundary_lambda,
    }


def _attempt(fn, *args):
    """fn(*args) encoded, or the name of the exception it raises."""
    try:
        result = fn(*args)
    except Exception as exc:
        return {"raises": type(exc).__name__}
    if isinstance(result, np.ndarray):
        result = result.tolist()
    return _encode(result)


def _loss_layer() -> dict:
    out: dict = {}
    xs = np.array(_XS)
    for name, loss in LOSSES.items():
        out[f"loss_value/{name}/scalar"] = _encode([loss_value(loss, x) for x in _XS])
        out[f"loss_value/{name}/array"] = _attempt(loss_value, loss, xs)
        for p in (1.0, 2.0):
            out[f"finiteness_threshold/{name}/p{p}"] = _attempt(finiteness_threshold, loss, CostExponent(p))
    for (name, p), switch in SWITCH.items():
        loss, cost = LOSSES[name], CostExponent(p)
        for lam in (switch, switch + 0.37, 2.5):
            key = f"{name}/p{p}/lam{lam!r}"
            out[f"lambda_c_transform/{key}"] = _encode([lambda_c_transform(loss, cost, lam, x) for x in _XS])
            out[f"lambda_c_transform_many/{key}"] = _attempt(lambda_c_transform_many, loss, cost, lam, xs)
    for name in ("gq1-2", "gq1.5-1.2", "custom-asym0.7"):
        lam = 2.0 * finiteness_threshold(LOSSES[name], P2) + 0.4
        out[f"lambda_c_transform_many/{name}/p2.0/lam{lam!r}"] = _attempt(
            lambda_c_transform_many, LOSSES[name], P2, lam, xs
        )
    for prior, d in PRIORS.items():
        center = quantile(d, 0.5)
        for m in (center - 0.8, center + 0.3, quantile(d, 0.01), quantile(d, 0.99)):
            for name in ("pinball0.3", "asym0.7", "gq1-2", "gq-zero-side"):
                out[f"expected_loss/{name}/{prior}/m{m!r}"] = _attempt(expected_loss, d, LOSSES[name], m)
            for (name, p), switch in SWITCH.items():
                if name in ("pinball0.3", "asym0.7", "asym0.3", "gq-zero-side"):
                    for lam in (switch, switch + 0.37):
                        out[f"expected_transform/{name}/p{p}/lam{lam!r}/{prior}/m{m!r}"] = _attempt(
                            expected_transform, d, LOSSES[name], CostExponent(p), lam, m
                        )
        # at lam = max(a, b) one side is infinite: the extreme atoms leave
        # no mass on it
        lo, hi = d.support if isinstance(d, Empirical) else (quantile(d, 0.001), quantile(d, 0.999))
        out[f"expected_transform/asym0.7/p2.0/lam0.7/{prior}/top"] = _attempt(
            expected_transform, d, LOSSES["asym0.7"], P2, 0.7, hi
        )
        out[f"expected_transform/asym0.3/p2.0/lam0.7/{prior}/bottom"] = _attempt(
            expected_transform, d, LOSSES["asym0.3"], P2, 0.7, lo
        )
        out[f"expected_transform/gq1-2/p2.0/lam3.0/{prior}"] = _attempt(
            expected_transform, d, LOSSES["gq1-2"], P2, 3.0, center
        )
    emp = PRIORS["empirical"]
    piecewise = PiecewiseLinearPenalty(((0.0, 0.6), (1.0, 2.0)))
    penalties = {"linear2.5": LinearPenalty(2.5), "ball0.4": BallPenalty(0.4), "piecewise": piecewise}
    for name in ("gq1-2", "gq1.5-1.2", "custom-asym0.7"):
        for m in (-0.4, 0.5):
            for label, phi in penalties.items():
                out[f"robust_functional/{name}/{label}/empirical/m{m!r}"] = _attempt(
                    robust_functional, emp, LOSSES[name], P2, phi, m
                )
    out["robust_oce/custom-pinball1.4-0.3/ball0.4/empirical"] = _robust_value(
        robust_oce(emp, CustomLoss(_pinball_twin, 1.4, 1.0), P1, BallPenalty(0.4))
    )
    for prior in ("normal", "empirical"):
        out[f"robust_oce/gq2-2/ball0.4/{prior}"] = _robust_value(
            robust_oce(PRIORS[prior], LOSSES["gq2-2"], P2, BallPenalty(0.4))
        )
        out[f"quantile_detail/gq1-1/piecewise/{prior}"] = _robust_value(
            robust_generalized_quantile_detail(PRIORS[prior], LOSSES["gq1-1"], P1, piecewise)
        )
    return out


def compute() -> dict:
    """Every stored result, keyed by case."""
    out: dict = _loss_layer()
    piecewise = PiecewiseLinearPenalty(((0.0, 0.3), (0.8, 1.1), (2.0, 3.5)))
    for name, d in PRIORS.items():
        out[f"robust_oce/asym0.7/ball0.4/{name}"] = _robust_value(
            robust_oce(d, AsymQuadratic(0.7), P2, BallPenalty(0.4))
        )
        out[f"classical_oce/asym0.35/{name}"] = _robust_value(classical_oce(d, AsymQuadratic(0.35)))
        out[f"quantile_detail/pinball0.3/ball0.5/{name}"] = _robust_value(
            robust_generalized_quantile_detail(d, Pinball(0.3), P1, BallPenalty(0.5))
        )
        out[f"expectile/0.8/{name}"] = _encode(expectile(d, 0.8))
        out[f"robust_expectile_linear/0.8/1.9/{name}"] = _encode(robust_expectile_linear(d, 0.8, 1.9))
        out[f"robust_expectile_ball/0.25/0.6/{name}"] = _encode(robust_expectile_ball(d, 0.25, 0.6))
        out[f"quantile/{name}"] = _encode([quantile(d, a) for a in (0.01, 0.3, 0.5, 0.95)])
        lo, hi = quantile(d, 0.05), quantile(d, 0.95)
        out[f"cdf/{name}"] = _encode([cdf(d, lo + t * (hi - lo)) for t in (0.0, 0.25, 0.6, 1.0)])
    for name in ("normal", "empirical_far"):
        out[f"robust_oce/asym0.7/linear2/{name}"] = _robust_value(
            robust_oce(PRIORS[name], AsymQuadratic(0.7), P2, LinearPenalty(2.0))
        )
        out[f"quantile_detail/asym0.6/ball0.3/{name}"] = _robust_value(
            robust_generalized_quantile_detail(PRIORS[name], AsymQuadratic(0.6), P2, BallPenalty(0.3))
        )
    for name in ("exponential", "empirical"):
        out[f"robust_oce/asym0.4/piecewise/{name}"] = _robust_value(
            robust_oce(PRIORS[name], AsymQuadratic(0.4), P2, piecewise)
        )
    return out


def test_outputs_match_stored_results():
    with open(DATA) as handle:
        stored = json.load(handle)
    got = json.loads(json.dumps(compute()))
    assert sorted(got) == sorted(stored)
    differ = [key for key in sorted(stored) if got[key] != stored[key]]
    assert not differ, f"{len(differ)} results differ from the stored ones: {differ}"


def _numbers(x) -> list:
    """The leaves of a stored result in order, hex strings decoded to floats."""
    if isinstance(x, dict):
        return [v for key in sorted(x) for v in _numbers(x[key])]
    if isinstance(x, list):
        return [v for item in x for v in _numbers(item)]
    if isinstance(x, str):
        try:
            return [float.fromhex(x)]
        except ValueError:
            return [x]
    return [x]


def _largest_change(old, new) -> float:
    """max |new - old| over paired numbers; inf when the shapes, types or
    non-numeric leaves differ."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y)):
            continue
        if not (isinstance(x, (int, float)) and isinstance(y, (int, float))):
            return math.inf
        worst = max(worst, abs(y - x))
    return worst


def print_diff() -> int:
    """Print every moved key; the number of moved keys."""
    with open(DATA) as handle:
        stored = json.load(handle)
    got = json.loads(json.dumps(compute()))
    moved = 0
    for key in sorted(set(stored) | set(got)):
        if key not in stored or key not in got:
            print(f"{key}: only in the {'stored' if key in stored else 'computed'} results")
            moved += 1
            continue
        old, new = stored[key], got[key]
        if old == new:
            continue
        moved += 1
        if isinstance(old, dict) and isinstance(new, dict) and "raises" not in old and "raises" not in new:
            changes = [(f, _largest_change(old[f], new.get(f))) for f in sorted(old) if old[f] != new.get(f)]
        else:
            changes = [("largest change", _largest_change(old, new))]
        print(f"{key}: " + ", ".join(f"{name} {change!r}" for name, change in changes))
    print(f"{moved} of {len(stored)} stored keys moved")
    return moved


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if print_diff() else 0)
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_parity.py --write | --diff")
    results = compute()
    with open(DATA, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA}")
