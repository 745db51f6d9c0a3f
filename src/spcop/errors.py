"""Semantic exception hierarchy for the spcop package."""


class SpcopError(Exception):
    """Base class for all package-specific errors."""


class SpecError(SpcopError, ValueError):
    """Malformed input: bad JSON document, unknown node/kind, domain violation."""


class WeightError(SpecError):
    """Mixture weights are not a probability simplex."""


class UnsupportedOrder(SpcopError, ValueError):
    """hr/lr ordering requested for a distribution without a usable density."""


class UnknownMass(SpcopError, KeyError):
    """Singular mass requested for a copula outside the closed-form registry."""


class NoDensity(SpcopError, ValueError):
    """Quadrature requested for a copula with a singular component."""


class SizeLimit(SpcopError, ValueError):
    """A deterministic route would exceed its work budget: the atom budget of
    the exact discrete sum, or the integrand point cap of quadrature."""


class Inconclusive(SpcopError):
    """A Monte Carlo decision landed inside the 3-sigma band of the threshold.

    Carries the report so callers can inspect the estimate that triggered it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
