"""Exception types shared across the package."""


class RiskModelError(Exception):
    """Base class for domain errors raised by this package."""


class MomentUndefined(RiskModelError):
    """A required moment does not exist for the distribution family."""


class Infeasible(RiskModelError):
    """The robust functional is +inf for every admissible dual variable."""


class NoConvergence(RiskModelError):
    """An iteration or bracket-expansion budget was exhausted.

    A root solve that fails attaches `bracket`, the (lo, hi) it searched, and
    `last`, its last (x, f(x)); elsewhere both are None.
    """

    def __init__(self, message: str, bracket=None, last=None) -> None:
        super().__init__(message)
        self.bracket = bracket
        self.last = last


class DeltaTooSmall(RiskModelError):
    """Linear penalization slope is not above max(alpha, 1 - alpha)."""


class UncertifiedGrowth(RiskModelError):
    """A loss has no certified polynomial growth bound for the cost exponent."""
