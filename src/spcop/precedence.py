"""Stochastic-precedence estimators: eta = P(X1 <= X2) and the tie mass
xi = P(X1 = X2) for a copula plus marginals, with closed-form, exact-discrete,
quadrature and Monte Carlo routes, level checks and L/B class verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# sample_uv stays a module attribute: the benchmark tracer patches it here by name
from .copula import CopulaSpec, cell_masses, sample_uv  # noqa: F401
from .dist import DiscreteAtoms, Distribution, check_order
from .errors import Inconclusive, SizeLimit, SpecError, UnknownMass
from .integrate import integrate_adaptive
from .rng import map_chunks

__all__ = [
    "PrecedenceReport", "ClassVerdict", "SpLevelResult", "eta_exact", "eta_mc",
    "eta_quadrature", "eta_discrete_exact", "best_eta_report", "sp_level",
    "classify", "eta_lower_bound", "Plan", "ROUTES",
]

MC_MIN_SAMPLES = 10_000
# n1 + n2 atoms; eta_discrete_exact's cdf points are at most 2*n1 + 4*min(n1, n2)
DISCRETE_ATOM_BUDGET = 10_000
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class Plan:
    """One request's sample count, seed, worker count and tolerance, from cli.run to the routes."""
    samples: int = 10 ** 6
    seed: int = 0
    workers: int = 1
    tol: float = 1e-9


@dataclass(frozen=True)
class PrecedenceReport:
    eta: float
    xi: float
    method: str  # closed_form | discrete_exact | quadrature | monte_carlo
    stderr_eta: float
    stderr_xi: float
    samples: int  # > 0 exactly when the answer is a Monte Carlo estimate
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


# ---------------------------------------------------------------------------
# closed forms


def eta_exact(spec: CopulaSpec, g1: Optional[Distribution] = None,
              g2: Optional[Distribution] = None):
    """Closed-form (eta, xi), or None when the spec has none for these marginals.

    Without marginals, or with equal invertible ones (marginal invariance),
    this is the copula's own pair; otherwise the copula's closed form for
    the given marginals, if its family has one.
    """
    if (g1 is None) != (g2 is None):
        raise SpecError("pass both marginals or neither")
    try:
        if g1 is None or (g1 == g2 and g1.is_class_g):
            return spec.closed_eta_xi()
        return spec.closed_eta_xi_with(g1, g2)
    except UnknownMass:
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

    def count(stream, m):
        # one chunk sampled, mapped and counted; only its two counts outlive it
        u, v, _sing, struct_tie = spec.sample_arrays(stream, m)
        x1 = g1.quantile(u)
        x2 = g2.quantile(v)
        if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
            raise SpecError("non-finite quantile draw; marginal support is saturated")
        scale = np.maximum(1.0, np.maximum(np.abs(x1), np.abs(x2)))
        ties = (x1 == x2) | (struct_tie & (np.abs(x1 - x2) <= _TIE_RTOL * scale))
        le = (x1 <= x2) | ties
        return np.count_nonzero(le), np.count_nonzero(ties)

    counts = map_chunks(count, n, seed, workers)
    # exact integer counts over n: the bits of np.mean over the whole bool array
    eta = sum(c for c, _ in counts) / n
    xi = sum(t for _, t in counts) / n
    # at a count of 0 or n the Wald error is 0; 1/n makes sp_level's 3-sigma
    # band the rule-of-three bound instead of claiming an exact answer
    se_eta = math.sqrt(max(eta * (1.0 - eta), 0.0) / n) or 1.0 / n
    se_xi = math.sqrt(max(xi * (1.0 - xi), 0.0) / n)
    return PrecedenceReport(eta, xi, "monte_carlo", se_eta, se_xi, n, seed)


# ---------------------------------------------------------------------------
# quadrature


def _needs_density(spec, g1, g2):
    if not spec.absolutely_continuous:
        return SpecError("copula has a singular component; use eta_mc")
    if not (g1 is not None and g1.is_class_g and g2.is_class_g):
        return SpecError("quadrature needs invertible (class-G) marginals")


def eta_quadrature(spec: CopulaSpec, g1: Distribution, g2: Distribution,
                   tol: float = 1e-8) -> PrecedenceReport:
    """Integrate the copula density over {(u,v): G1^-1(u) <= G2^-1(v)}.

    The region is v >= h(u) with h = G2 o G1^-1, so the inner integral is
    1 - d1C(u, h(u)) exactly and only the outer u-integral is numeric.
    """
    if (error := _needs_density(spec, g1, g2)) is not None:
        raise error

    def integrand(u):
        return spec.conditional_cdf(u, g2.cdf(g1.quantile(u)))

    inner = integrate_adaptive(integrand, 0.0, 1.0, tol)
    eta = min(max(1.0 - inner, 0.0), 1.0)
    return PrecedenceReport(eta, 0.0, "quadrature", 0.0, 0.0, 0, None)


# ---------------------------------------------------------------------------
# exact discrete


def _needs_atoms(spec, g1, g2):
    if not (isinstance(g1, DiscreteAtoms) and isinstance(g2, DiscreteAtoms)):
        return SpecError("eta_discrete_exact needs DiscreteAtoms marginals")


def eta_discrete_exact(spec: CopulaSpec, g1: DiscreteAtoms,
                       g2: DiscreteAtoms) -> PrecedenceReport:
    """Exact (eta, xi) in O(n1 + n2) cdf points. Row i sums the cells j >= j0,
    y_j0 the first atom >= x_i, whose masses add up to the one rectangle
    [u_i, u_i+1] x [v_j0, 1] (inclusion-exclusion, singular parts included);
    a tie x_i == y_j0 is the row's one diagonal cell, and xi sums its mass."""
    if (error := _needs_atoms(spec, g1, g2)) is not None:
        raise error
    n1, n2 = len(g1.points), len(g2.points)
    if n1 + n2 > DISCRETE_ATOM_BUDGET:
        raise SizeLimit(f"{n1}+{n2} atoms exceed the {DISCRETE_ATOM_BUDGET} budget")
    xs, ys, ue, ve = g1._xs, g2._xs, g1._edges, g2._edges
    j0 = np.searchsorted(ys, xs, side="left")
    rows = np.flatnonzero(j0 < n2)  # the rest sum nothing; their rectangle leaves round-off
    cols = j0[rows]
    cc = spec.cdf(ue[np.stack([rows + 1, rows])], ve[cols])
    eta = float(np.sum((ue[rows + 1] - ue[rows]) - cc[0] + cc[1]))
    tie = xs[rows] == ys[cols]
    i, j = rows[tie], cols[tie]
    corners = spec.cdf(ue[np.stack([i, i + 1])][:, None], ve[np.stack([j, j + 1])])
    xi = float(np.sum(cell_masses(corners)))
    return PrecedenceReport(min(max(eta, 0.0), 1.0), min(max(xi, 0.0), 1.0),
                            "discrete_exact", 0.0, 0.0, 0, None)


# ---------------------------------------------------------------------------
# dispatch, levels, classes


def _closed_form(spec, g1, g2, plan):
    if (closed := eta_exact(spec, g1, g2)) is not None:
        return PrecedenceReport(*map(float, closed), "closed_form", 0.0, 0.0, 0, None)


# Estimator routes in preference order, as (precondition, run): a precondition returns
# the error that rules its route out or None, run(spec, g1, g2, plan) a report or None;
# a SizeLimit hands over to the next route. Runs look eta_* up when called (patchable).
ROUTES = (
    (lambda spec, g1, g2: None, _closed_form),
    (_needs_atoms, lambda spec, g1, g2, plan: eta_discrete_exact(spec, g1, g2)),
    (_needs_density,
     lambda spec, g1, g2, plan: eta_quadrature(spec, g1, g2, max(plan.tol, 1e-10))),
    (lambda spec, g1, g2: UnknownMass("no closed form for this copula") if g1 is None else None,
     lambda spec, g1, g2, plan: eta_mc(spec, g1, g2, plan.samples, plan.seed, plan.workers)),
)


def best_eta_report(spec: CopulaSpec, g1: Optional[Distribution] = None,
                    g2: Optional[Distribution] = None, plan: Plan = Plan()) -> PrecedenceReport:
    """The first report a route of ROUTES gives, or the error that ruled out the last."""
    for needs, run in ROUTES:
        if (reason := needs(spec, g1, g2)) is None:
            try:
                if report := run(spec, g1, g2, plan):
                    return report
            except SizeLimit as exc:
                reason = exc
    raise reason


def sp_level(spec: CopulaSpec, g1: Distribution, g2: Distribution, gamma: float,
             plan: Plan = Plan()) -> SpLevelResult:
    """Does X1 stochastically precede X2 at level gamma, i.e. eta >= gamma?

    Monte Carlo verdicts inside the 3-sigma band of gamma raise Inconclusive
    instead of guessing; the exception carries the report. Verdicts of the
    other routes allow eta to fall short of gamma by plan.tol; classify's
    L_gamma verdict is this one.
    """
    if not (0.0 <= gamma <= 1.0):
        raise SpecError(f"gamma must lie in [0,1], got {gamma}")
    report = best_eta_report(spec, g1, g2, plan)
    if report.samples > 0 and abs(report.eta - gamma) < 3.0 * report.stderr_eta:
        raise Inconclusive(
            f"eta estimate {report.eta:.6f} within 3 stderr of gamma={gamma}", report)
    slack = 0.0 if report.samples > 0 else plan.tol
    return SpLevelResult(bool(report.eta >= gamma - slack), report)


def classify(spec: CopulaSpec, gamma: float, tol: float = Plan.tol) -> ClassVerdict:
    """Membership verdicts for the level classes: eta >= gamma, which is
    sp_level's verdict on the copula alone, and eta == gamma within tol."""
    level = sp_level(spec, None, None, gamma, Plan(tol=tol))
    eta = level.report.eta
    return ClassVerdict(gamma, level.holds, abs(eta - gamma) <= tol, eta, float(tol))


def eta_lower_bound(spec: CopulaSpec, g1: Distribution, g2: Distribution) -> dict:
    """eta(C) lower-bounds eta(C,g1,g2) whenever g1 st-precedes g2."""
    order = check_order("st", g1, g2)
    if not order.holds:
        return {"bound": 0.0, "applicable": False}
    eta, _ = spec.closed_eta_xi()
    return {"bound": float(eta), "applicable": True}
