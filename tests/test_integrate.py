"""Breadth-first adaptive Simpson: the same integrals and point counts as the
depth-first recursion, the tolerance guard and the work cap."""

import math

import numpy as np
import pytest

import spcop.integrate as integrate
import spcop.precedence as precedence
from spcop.copula import (Gaussian, Independence, Mixture, OrderStatistics,
                          SurvivalOf, Transpose)
from spcop.dist import Exponential, Normal, Uniform, UniformPower
from spcop.errors import SizeLimit, SpecError
from spcop.integrate import MAX_EVALS, integrate_adaptive
from spcop.precedence import best_eta_report, eta_quadrature

# repr(eta) and the number of integrand points, recorded with the depth-first
# recursive integrator and a scalar integrand, one call per point
GOLDEN = {
    "slow_survival_gauss_0.9": (
        (SurvivalOf(Gaussian(0.9)), Normal(0.0, 1.0), Normal(0.1, 1.0), 1e-9),
        (0.5884683631206296, 20045)),
    "slow_transpose_gauss_0.99": (
        (Transpose(Gaussian(0.99)), Normal(0.0, 0.1), Normal(0.001, 0.1), 1e-9),
        (0.5281859888984607, 36193)),
    "survival_gauss_ue": (
        (SurvivalOf(Gaussian(0.5)), Uniform(0.0, 1.0), Exponential(2.0), 1e-9),
        (0.42574623074085816, 1741)),
    "transpose_gauss_ne": (
        (Transpose(Gaussian(0.5)), Normal(0.0, 1.0), Exponential(1.0), 1e-9),
        (0.8411978391779382, 1321)),
    "order_stats_en": (
        (OrderStatistics(), Exponential(1.0), Normal(1.0, 1.0), 1e-9),
        (0.46123102444199915, 281)),
    "order_stats_uu": (
        (OrderStatistics(), Uniform(0.0, 1.0), Uniform(0.0, 1.0), 1e-8),
        (0.4292036731129162, 529)),
    "gauss_indep_mix": (
        (Mixture((Gaussian(0.5), Independence()), (0.5, 0.5)), Uniform(0.0, 1.0),
         Exponential(2.0), 1e-9),
        (0.42903929456202583, 1477)),
    "gauss_ue": (
        (Gaussian(0.7), Uniform(0.0, 1.0), Exponential(2.0), 1e-9),
        (0.4109660194794851, 1533)),
    "gauss_neg_ue": (
        (Gaussian(-0.5), Uniform(0.0, 1.0), Exponential(2.0), 1e-9),
        (0.4295881023551116, 409)),
    "gauss_en_0.99": (
        (Gaussian(0.99), Exponential(1.0), Normal(1.0, 1.0), 1e-9),
        (0.6401060906781811, 721)),
    "gauss_powers": (
        (Gaussian(0.3), UniformPower(2.0, reflected=True), UniformPower(3.0), 1e-9),
        (0.9375975421945547, 1229)),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_same_bits_and_points_as_the_recursion(monkeypatch, name):
    (spec, g1, g2, tol), expected = GOLDEN[name]
    points = [0]

    def counting(f, *args):
        def batch(u):
            points[0] += np.size(u)
            return f(u)
        return integrate_adaptive(batch, *args)

    monkeypatch.setattr(precedence, "integrate_adaptive", counting)
    eta = eta_quadrature(spec, g1, g2, tol).eta
    assert (eta, points[0]) == expected


def _recursive_reference(f, a, b, tol, depth=integrate.MAX_DEPTH):
    """The depth-first adaptive Simpson the breadth-first walk replaced, one
    scalar call per point; returns (integral, points)."""
    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left, right = simpson(fa, flm, fm, m - a), simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, 2
        lv, ln = recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
        rv, rn = recurse(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1)
        return lv + rv, ln + rn + 2

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    value, points = recurse(a, fa, b, fb, m, fm, simpson(fa, fm, fb, b - a), tol, depth)
    return value, points + 3


@pytest.mark.parametrize("f,a,b,tol", [
    (np.sqrt, 0.0, 1.0, 1e-10),
    (np.exp, -1.0, 2.0, 1e-12),
    (lambda u: np.sin(20.0 * u), 0.0, 3.0, 1e-9),
    (lambda u: np.tanh(200.0 * (u - 0.3)), 0.0, 1.0, 1e-9),
    (lambda u: np.abs(u - 1.0 / 3.0) ** 0.25, 0.0, 1.0, 1e-11),
])
def test_matches_the_recursive_reference(f, a, b, tol):
    points = [0]

    def batch(u):
        points[0] += np.size(u)
        return f(u)

    scalar = (lambda u: float(f(np.float64(u))))
    assert (integrate_adaptive(batch, a, b, tol), points[0]) == _recursive_reference(scalar, a, b, tol)


def test_one_call_per_level():
    calls = []

    def f(u):
        calls.append(np.size(u))
        return u * u

    assert integrate_adaptive(f, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert calls[0] == 3
    assert all(n % 2 == 0 for n in calls[1:])
    assert len(calls) <= integrate.MAX_DEPTH + 2


def test_empty_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0, 1e-9) == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(SpecError):
        integrate_adaptive(np.sin, 0.0, 1.0, tol)


def test_oscillatory_integrand_hits_the_point_cap():
    points = [0]

    def f(u):
        points[0] += np.size(u)
        return np.sin(1e9 * u)

    with pytest.raises(SizeLimit):
        integrate_adaptive(f, 0.0, 1.0, 1e-15)
    assert points[0] <= MAX_EVALS


def test_quadrature_over_the_cap_falls_back_to_monte_carlo(monkeypatch):
    monkeypatch.setattr(integrate, "MAX_EVALS", 64)
    report = best_eta_report(Gaussian(0.7), Uniform(0.0, 1.0), Exponential(2.0),
                             n=20_000, seed=3)
    assert report.method == "monte_carlo"
    assert report.eta == pytest.approx(0.4109660194794851, abs=5.0 * report.stderr_eta)
