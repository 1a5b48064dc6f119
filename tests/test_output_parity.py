"""Bit-for-bit parity of solver outputs with stored results.

tests/data/parity_outputs.json holds float.hex() of every float (ints and
bools as they are) that the cases below produce: each RobustValue field of
robust_oce, classical_oce and robust_generalized_quantile_detail, linear and
ball robust expectiles, classical expectiles, quantiles and cdfs, on every
prior family, including an empirical prior with atoms far from 0.

A change that must not move any number keeps this test passing unchanged.
A change that alters results on purpose regenerates the file with

    PYTHONPATH=src python tests/test_output_parity.py --write

and says so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

from wassrisk import (
    AsymQuadratic,
    BallPenalty,
    CostExponent,
    Empirical,
    Exponential,
    LinearPenalty,
    Normal,
    PiecewiseLinearPenalty,
    Pinball,
    StudentT,
    classical_oce,
    expectile,
    quantile,
    robust_expectile_ball,
    robust_expectile_linear,
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


def compute() -> dict:
    """Every stored result, keyed by case."""
    out: dict = {}
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_parity.py --write")
    with open(DATA, "w") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA}")
