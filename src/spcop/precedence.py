"""Stochastic-precedence estimators: eta = P(X1 <= X2) and the tie mass
xi = P(X1 = X2) for a copula plus marginals, with closed-form, exact-discrete,
quadrature and Monte Carlo routes, level checks and L/B class verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .copula import (CopulaSpec, Gaussian, MarshallOlkinConnecting, Mixture,
                     OrderStatistics, Transpose, sample_uv)
from .dist import (DiscreteAtoms, Distribution, Exponential, Normal,
                   UniformPower, check_order)
from .errors import Inconclusive, NoDensity, SizeLimit, SpecError, UnknownMass
from .integrate import integrate_adaptive

__all__ = [
    "PrecedenceReport", "ClassVerdict", "SpLevelResult", "eta_exact", "eta_mc",
    "eta_quadrature", "eta_discrete_exact", "best_eta_report", "sp_level",
    "classify", "eta_lower_bound",
]

MC_MIN_SAMPLES = 10_000
DISCRETE_ATOM_BUDGET = 10_000
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PrecedenceReport:
    eta: float
    xi: float
    method: str  # closed_form | discrete_exact | quadrature | monte_carlo
    stderr_eta: float
    stderr_xi: float
    samples: int
    seed: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0 and 0.0 <= self.xi <= 1.0):
            raise SpecError(f"eta/xi out of [0,1]: ({self.eta}, {self.xi})")
        if self.xi > self.eta + 1e-9:  # ties are a subset of the <= event
            raise SpecError(f"xi={self.xi} exceeds eta={self.eta}")
        if self.method in ("closed_form", "discrete_exact") and (
                self.stderr_eta != 0.0 or self.stderr_xi != 0.0):
            raise SpecError(f"{self.method} reports must have zero stderr")


@dataclass(frozen=True)
class ClassVerdict:
    gamma: float
    in_L_gamma: bool
    in_B_gamma: bool
    eta_value: float
    tolerance: float


@dataclass(frozen=True)
class SpLevelResult:
    holds: bool
    report: PrecedenceReport


def _exact_report(eta, xi, seed=None) -> PrecedenceReport:
    return PrecedenceReport(float(eta), float(xi), "closed_form", 0.0, 0.0, 0, seed)


# ---------------------------------------------------------------------------
# closed forms


def _rates_match(rate: float, alpha: float) -> bool:
    return math.isclose(rate, 1.0 / alpha, rel_tol=1e-12, abs_tol=0.0)


def eta_exact(spec: CopulaSpec, g1: Optional[Distribution] = None,
              g2: Optional[Distribution] = None):
    """Closed-form (eta, xi) from the registry, or None when no entry applies.

    Without marginals this is the pure copula quantity. With marginals the
    registry covers: equal invertible marginals (marginal invariance), the
    Gaussian copula with normal marginals, the Marshall-Olkin connecting
    copula with its own exponential marginals, the order-statistics copula
    with its own min/max marginals, plus mixtures and transposes thereof.
    """
    if (g1 is None) != (g2 is None):
        raise SpecError("pass both marginals or neither")
    if g1 is None:
        try:
            return spec.closed_eta_xi()
        except UnknownMass:
            return None

    if g1 == g2 and g1.is_class_g:
        try:
            return spec.closed_eta_xi()
        except UnknownMass:
            return None

    if isinstance(spec, Gaussian) and isinstance(g1, Normal) and isinstance(g2, Normal):
        denom = math.sqrt(g1.sd ** 2 + g2.sd ** 2 - 2.0 * spec.rho * g1.sd * g2.sd)
        if denom == 0.0:
            return None
        z = (g2.mean - g1.mean) / denom
        return 0.5 * math.erfc(-z / math.sqrt(2.0)), 0.0

    if (isinstance(spec, MarshallOlkinConnecting)
            and isinstance(g1, Exponential) and isinstance(g2, Exponential)
            and _rates_match(g1.rate, spec.alpha1) and _rates_match(g2.rate, spec.alpha2)):
        a1, a2 = spec.alpha1, spec.alpha2
        den = a1 + a2 - a1 * a2
        return a2 / den, a1 * a2 / den

    if (isinstance(spec, OrderStatistics)
            and isinstance(g1, UniformPower) and isinstance(g2, UniformPower)
            and g1.reflected and not g2.reflected and g1.k == 2.0 and g2.k == 2.0):
        # min <= max by construction, whatever the base law
        return 1.0, 0.0

    if isinstance(spec, Mixture):
        parts = [eta_exact(c, g1, g2) for c in spec.components]
        if any(p is None for p in parts):
            return None
        eta = sum(w * p[0] for w, p in zip(spec.weights, parts))
        xi = sum(w * p[1] for w, p in zip(spec.weights, parts))
        return eta, xi

    if isinstance(spec, Transpose):
        swapped = eta_exact(spec.inner, g2, g1)
        if swapped is None:
            return None
        eta, xi = swapped
        return 1.0 - eta + xi, xi

    return None


# ---------------------------------------------------------------------------
# Monte Carlo


def eta_mc(spec: CopulaSpec, g1: Distribution, g2: Distribution, n: int,
           seed: int, workers: int = 1) -> PrecedenceReport:
    """Sample the copula, push through the marginal quantiles, count.

    Ties are marginal-aware: bitwise equality of the mapped values (equal
    marginals map equal coordinates to identical floats; discrete marginals
    hit atoms exactly), or a structural tie whose mapped values agree up to
    quantile round-trip noise. Floating-point coincidences elsewhere have
    probability ~2^-53 and are not ties.
    """
    if n < MC_MIN_SAMPLES:
        raise SpecError(f"Monte Carlo needs n >= {MC_MIN_SAMPLES}, got {n}")
    u, v, _sing, struct_tie = sample_uv(spec, n, seed, workers)
    x1 = np.asarray(g1.quantile(u), dtype=float)
    x2 = np.asarray(g2.quantile(v), dtype=float)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise SpecError("non-finite quantile draw; marginal support is saturated")
    scale = np.maximum(1.0, np.maximum(np.abs(x1), np.abs(x2)))
    ties = (x1 == x2) | (struct_tie & (np.abs(x1 - x2) <= _TIE_RTOL * scale))
    le = (x1 <= x2) | ties
    eta = float(np.mean(le))
    xi = float(np.mean(ties))
    se_eta = math.sqrt(max(eta * (1.0 - eta), 0.0) / n)
    se_xi = math.sqrt(max(xi * (1.0 - xi), 0.0) / n)
    return PrecedenceReport(eta, xi, "monte_carlo", se_eta, se_xi, n, seed)


# ---------------------------------------------------------------------------
# quadrature


def eta_quadrature(spec: CopulaSpec, g1: Distribution, g2: Distribution,
                   tol: float = 1e-8) -> PrecedenceReport:
    """Integrate the copula density over {(u,v): G1^-1(u) <= G2^-1(v)}.

    The region is v >= h(u) with h = G2 o G1^-1, so the inner integral is
    1 - d1C(u, h(u)) exactly and only the outer u-integral is numeric.
    """
    if not spec.absolutely_continuous:
        raise NoDensity("copula has a singular component; use eta_mc")
    if not (g1.is_class_g and g2.is_class_g):
        raise SpecError("quadrature needs invertible (class-G) marginals")

    def integrand(u: float) -> float:
        h = g2.cdf(g1.quantile(u))
        return float(np.asarray(spec.conditional_cdf(np.float64(u), np.float64(h))))

    inner = integrate_adaptive(integrand, 0.0, 1.0, tol)
    eta = min(max(1.0 - inner, 0.0), 1.0)
    return PrecedenceReport(eta, 0.0, "quadrature", 0.0, 0.0, 0, None)


# ---------------------------------------------------------------------------
# exact discrete


def eta_discrete_exact(spec: CopulaSpec, g1: DiscreteAtoms,
                       g2: DiscreteAtoms) -> PrecedenceReport:
    """Exact double sum over atom rectangles of the copula measure."""
    if not (isinstance(g1, DiscreteAtoms) and isinstance(g2, DiscreteAtoms)):
        raise SpecError("eta_discrete_exact needs DiscreteAtoms marginals")
    n1, n2 = len(g1.points), len(g2.points)
    if n1 + n2 > DISCRETE_ATOM_BUDGET:
        raise SizeLimit(f"{n1}+{n2} atoms exceed the {DISCRETE_ATOM_BUDGET} budget")
    xs = np.array([x for x, _ in g1.points])
    ys = np.array([y for y, _ in g2.points])
    ue = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g1.points]), 1.0)])
    ve = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g2.points]), 1.0)])
    ue[-1] = 1.0
    ve[-1] = 1.0
    cc = np.asarray(spec.cdf(ue[:, None], ve[None, :]))
    masses = cc[1:, 1:] - cc[:-1, 1:] - cc[1:, :-1] + cc[:-1, :-1]
    le = xs[:, None] <= ys[None, :]
    eq = xs[:, None] == ys[None, :]
    eta = float(np.sum(masses[le]))
    xi = float(np.sum(masses[eq]))
    eta = min(max(eta, 0.0), 1.0)
    xi = min(max(xi, 0.0), 1.0)
    return PrecedenceReport(eta, xi, "discrete_exact", 0.0, 0.0, 0, None)


# ---------------------------------------------------------------------------
# dispatch, levels, classes


def best_eta_report(spec: CopulaSpec, g1: Optional[Distribution] = None,
                    g2: Optional[Distribution] = None, *, n: int = 10 ** 6,
                    seed: int = 0, tol: float = 1e-9, workers: int = 1) -> PrecedenceReport:
    """Method selection: closed_form > discrete_exact > quadrature > monte_carlo."""
    closed = eta_exact(spec, g1, g2)
    if closed is not None:
        return _exact_report(*closed, seed=None)
    if g1 is None:
        raise UnknownMass("no closed form for this copula")  # unreachable for built-ins
    if isinstance(g1, DiscreteAtoms) and isinstance(g2, DiscreteAtoms):
        try:
            return eta_discrete_exact(spec, g1, g2)
        except SizeLimit:
            pass
    if spec.absolutely_continuous and g1.is_class_g and g2.is_class_g:
        try:
            return eta_quadrature(spec, g1, g2, max(tol, 1e-10))
        except (NoDensity, SpecError):
            pass
    return eta_mc(spec, g1, g2, n, seed, workers)


def sp_level(spec: CopulaSpec, g1: Distribution, g2: Distribution, gamma: float,
             n: int = 10 ** 6, seed: int = 0, workers: int = 1,
             tol: float = 1e-9) -> SpLevelResult:
    """Does X1 stochastically precede X2 at level gamma, i.e. eta >= gamma?

    Monte Carlo verdicts inside the 3-sigma band of gamma raise Inconclusive
    instead of guessing; the exception carries the report.
    """
    if not (0.0 <= gamma <= 1.0):
        raise SpecError(f"gamma must lie in [0,1], got {gamma}")
    report = best_eta_report(spec, g1, g2, n=n, seed=seed, tol=tol, workers=workers)
    if report.method == "monte_carlo" and abs(report.eta - gamma) < 3.0 * report.stderr_eta:
        raise Inconclusive(
            f"eta estimate {report.eta:.6f} within 3 stderr of gamma={gamma}", report)
    slack = 1e-12 if report.method != "monte_carlo" else 0.0
    return SpLevelResult(bool(report.eta >= gamma - slack), report)


def classify(spec: CopulaSpec, gamma: float, tol: float = 1e-9) -> ClassVerdict:
    """Membership verdicts for the level classes: eta >= gamma and eta == gamma."""
    if not (0.0 <= gamma <= 1.0):
        raise SpecError(f"gamma must lie in [0,1], got {gamma}")
    eta, _xi = spec.closed_eta_xi()
    in_l = eta >= gamma - tol
    in_b = abs(eta - gamma) <= tol
    return ClassVerdict(gamma, bool(in_l), bool(in_b), float(eta), float(tol))


def eta_lower_bound(spec: CopulaSpec, g1: Distribution, g2: Distribution) -> dict:
    """eta(C) lower-bounds eta(C,g1,g2) whenever g1 st-precedes g2."""
    order = check_order("st", g1, g2)
    if not order.holds:
        return {"bound": 0.0, "applicable": False}
    eta, _ = spec.closed_eta_xi()
    return {"bound": float(eta), "applicable": True}
