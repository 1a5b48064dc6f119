"""Risk measures for loss positions under Wasserstein distribution uncertainty.

Robust optimized certainty equivalents, robust generalized quantiles and
robust expectiles with linear and ball penalizations of the transport
distance, computed through the dual reduction to nested one-dimensional
convex minimizations, plus independent verification oracles (density-band
extremisation and exact 1-D transport costs).
"""

from .distributions import (
    Empirical,
    Exponential,
    Normal,
    PriorDistribution,
    StudentT,
    empirical_from_csv,
    mean,
    partial_moment_minus,
    partial_moment_plus,
    prior_from_json,
    quantile,
    sample,
)
from .dual_oracle import DensityBand, dual_expectile_max, wasserstein_1d
from .errors import (
    DeltaTooSmall,
    Infeasible,
    MomentUndefined,
    NoConvergence,
    RiskModelError,
    UncertifiedGrowth,
)
from .losses import (
    AsymQuadratic,
    CostExponent,
    CustomLoss,
    GeneralizedQuantile,
    LossSpec,
    Pinball,
    PowerLoss,
    check_L_membership,
    finiteness_threshold,
    lambda_c_transform,
    lambda_c_transform_many,
    loss_value,
)
from .penalizations import (
    BallPenalty,
    LinearPenalty,
    Penalization,
    PiecewiseLinearPenalty,
    conjugate,
    penalty_from_json,
)
from .penalizations import evaluate as penalty_evaluate
from .risk_measures import (
    ExpectileLevel,
    adjusted_level,
    expectile,
    robust_expectile_ball,
    robust_expectile_linear,
    robust_generalized_quantile,
    var,
)
from .robust_core import (
    RobustValue,
    SearchOptions,
    classical_oce,
    expected_loss,
    expected_transform,
    robust_functional,
    robust_oce,
)

__all__ = [
    "AsymQuadratic",
    "BallPenalty",
    "CostExponent",
    "CustomLoss",
    "DeltaTooSmall",
    "DensityBand",
    "Empirical",
    "ExpectileLevel",
    "Exponential",
    "GeneralizedQuantile",
    "Infeasible",
    "LinearPenalty",
    "LossSpec",
    "MomentUndefined",
    "NoConvergence",
    "Normal",
    "Penalization",
    "PiecewiseLinearPenalty",
    "Pinball",
    "PowerLoss",
    "PriorDistribution",
    "RiskModelError",
    "RobustValue",
    "SearchOptions",
    "StudentT",
    "UncertifiedGrowth",
    "adjusted_level",
    "check_L_membership",
    "classical_oce",
    "conjugate",
    "dual_expectile_max",
    "empirical_from_csv",
    "expectile",
    "expected_loss",
    "expected_transform",
    "finiteness_threshold",
    "lambda_c_transform",
    "lambda_c_transform_many",
    "loss_value",
    "mean",
    "partial_moment_minus",
    "partial_moment_plus",
    "penalty_evaluate",
    "penalty_from_json",
    "prior_from_json",
    "quantile",
    "robust_expectile_ball",
    "robust_expectile_linear",
    "robust_functional",
    "robust_generalized_quantile",
    "robust_oce",
    "sample",
    "var",
    "wasserstein_1d",
]
