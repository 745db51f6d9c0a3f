"""Semantic exception hierarchy for the spcop package: one class per way a
caller reacts to a failure."""


class SpcopError(Exception):
    """Base class for all package-specific errors."""


class SpecError(SpcopError, ValueError):
    """Bad input: malformed document, unknown node or kind, domain violation,
    or a question the input cannot answer (hr/lr without densities, quadrature
    on a singular copula). The CLI ends it in exit 1."""


class UnknownMass(SpcopError):
    """No closed form exists for this copula (and these marginals); eta_exact
    answers None, so the next route is tried."""


class SizeLimit(SpcopError):
    """A deterministic route would exceed its work budget: the atom budget of
    the exact discrete sum, or the integrand point cap of quadrature. The
    route hands over to the next one."""


class Inconclusive(SpcopError):
    """A Monte Carlo decision landed inside the 3-sigma band of the threshold.

    Carries the report so callers can inspect the estimate that triggered it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
