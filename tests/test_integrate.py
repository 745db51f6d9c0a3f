"""Breadth-first adaptive Simpson: the same integrals and point counts as the
depth-first recursion, the look-ahead's calls and bounds, the tolerance and
bounds guards and the work cap."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import spcop.integrate as integrate
import spcop.precedence as precedence
from spcop.copula import (Gaussian, Independence, Mixture, OrderStatistics,
                          SurvivalOf, Transpose, copula_from_json)
from spcop.dist import Exponential, Normal, Uniform, UniformPower, dist_from_json
from spcop.errors import SizeLimit, SpecError
from spcop.integrate import MAX_EVALS, integrate_adaptive
from spcop.precedence import Plan, best_eta_report, eta_quadrature

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


def assert_tree_uses(monkeypatch, points, run):
    """The tree of run() uses exactly `points` integrand points: run() gives
    the same value with MAX_EVALS at `points` and raises SizeLimit one below.
    MAX_EVALS counts only the points the tree uses, not the look-ahead's."""
    value = run()
    monkeypatch.setattr(integrate, "MAX_EVALS", points)
    assert run() == value
    monkeypatch.setattr(integrate, "MAX_EVALS", points - 1)
    with pytest.raises(SizeLimit):
        run()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_same_bits_and_points_as_the_recursion(monkeypatch, name):
    (spec, g1, g2, tol), (eta, points) = GOLDEN[name]

    def run():
        return eta_quadrature(spec, g1, g2, tol).eta

    assert run() == eta
    assert_tree_uses(monkeypatch, points, run)


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
def test_matches_the_recursive_reference(monkeypatch, f, a, b, tol):
    scalar = (lambda u: float(f(np.float64(u))))
    value, points = _recursive_reference(scalar, a, b, tol)

    def run():
        return integrate_adaptive(f, a, b, tol)

    assert run() == value
    assert_tree_uses(monkeypatch, points, run)


def _calls(monkeypatch, look_ahead, f, a, b, tol):
    """(integral, integrand calls, points evaluated) at this LOOK_AHEAD; no
    point is handed to f twice."""
    monkeypatch.setattr(integrate, "LOOK_AHEAD", look_ahead)
    seen = []

    def batch(u):
        seen.append(np.array(u, dtype=float).ravel())
        return f(u)

    value = integrate_adaptive(batch, a, b, tol)
    x = np.concatenate(seen)
    assert np.unique(x).size == x.size
    return value, len(seen), x.size


def test_a_call_covers_three_levels(monkeypatch):
    for f, a, b, tol in [(np.sqrt, 0.0, 1.0, 1e-10), (np.exp, -1.0, 2.0, 1e-12),
                         (lambda u: np.sin(20.0 * u), 0.0, 3.0, 1e-9),
                         (lambda u: np.tanh(200.0 * (u - 0.3)), 0.0, 1.0, 1e-9),
                         (lambda u: u * u, 0.0, 1.0, 1e-12)]:
        # at LOOK_AHEAD 0 every level takes one call of its own 2n points
        value, calls, points = _calls(monkeypatch, 0, f, a, b, tol)
        levels = calls - 1
        ahead = _calls(monkeypatch, 2, f, a, b, tol)
        assert ahead[0] == value
        assert ahead[1] <= math.ceil(levels / 3) + 1
        assert points <= ahead[2] <= 2 * integrate.MAX_EVALS


def test_slow_variant_takes_19_calls_not_54(monkeypatch):
    (spec, g1, g2, tol), (eta, _) = GOLDEN["slow_survival_gauss_0.9"]
    for look_ahead, calls in ((0, 54), (2, 19)):
        monkeypatch.setattr(integrate, "LOOK_AHEAD", look_ahead)
        sizes = []

        def counting(f, *args):
            def batch(u):
                sizes.append(np.size(u))
                return f(u)
            return integrate_adaptive(batch, *args)

        monkeypatch.setattr(precedence, "integrate_adaptive", counting)
        assert eta_quadrature(spec, g1, g2, tol).eta == eta
        assert len(sizes) == calls


def _levels_until_the_cap(monkeypatch, look_ahead, cap):
    """Levels walked and points evaluated before SizeLimit, on an integrand
    whose every panel splits; _simpson runs once, then twice per level."""
    monkeypatch.setattr(integrate, "LOOK_AHEAD", look_ahead)
    monkeypatch.setattr(integrate, "MAX_EVALS", cap)
    simpsons, points = [0], [0]
    simpson = integrate._simpson

    def counting_simpson(*args):
        simpsons[0] += 1
        return simpson(*args)

    def f(u):
        points[0] += np.size(u)
        return np.sin(1e9 * u)

    monkeypatch.setattr(integrate, "_simpson", counting_simpson)
    with pytest.raises(SizeLimit):
        integrate_adaptive(f, 0.0, 1.0, 1e-15)
    return (simpsons[0] - 1) // 2, points[0]


@pytest.mark.parametrize("cap", [16, 50, 64, 100, 200, 257, 1000, 5000])
def test_look_ahead_stops_at_the_same_level_within_twice_the_cap(monkeypatch, cap):
    levels, used = _levels_until_the_cap(monkeypatch, 0, cap)
    ahead_levels, evaluated = _levels_until_the_cap(monkeypatch, 2, cap)
    assert ahead_levels == levels
    assert used <= cap and evaluated <= 2 * cap


def test_look_ahead_stops_at_max_depth(monkeypatch):
    # every panel splits down to depth 0: levels 0-4 use 3 + 2 * 31 points,
    # all on the grid of step 2^-6, and the look-ahead adds none below it
    monkeypatch.setattr(integrate, "MAX_DEPTH", 4)
    seen = []

    def f(u):
        seen.append(np.array(u))
        return np.sin(1e9 * u)

    integrate_adaptive(f, 0.0, 1.0, 1e-15)
    x = np.concatenate(seen)
    assert len(seen) == 3 and x.size == 65
    assert np.array_equal(x * 64.0, np.round(x * 64.0))
    assert np.unique(x).size == 65


def test_empty_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0, 1e-9) == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(SpecError):
        integrate_adaptive(np.sin, 0.0, 1.0, tol)


@pytest.mark.parametrize("f,a,b", [(np.cos, math.nan, 1.0), (np.cos, 0.0, math.nan),
                                   (np.exp, 0.0, math.inf), (np.exp, -math.inf, 0.0)])
def test_bounds_must_be_finite(f, a, b):
    calls = []

    def counting(u):
        calls.append(u)
        return f(u)

    with pytest.raises(SpecError, match=r"quadrature bounds must be finite, got \["):
        integrate_adaptive(counting, a, b, 1e-9)
    assert calls == []


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, -5e-324), (1e308, -1e308)])
def test_reversed_bounds_are_refused(a, b):
    # the integral of cos on [1, 0] is -sin 1; these bounds returned 0.0
    calls = []

    def counting(u):
        calls.append(u)
        return np.cos(u)

    with pytest.raises(SpecError, match=r"quadrature bounds must satisfy a <= b, got \["):
        integrate_adaptive(counting, a, b, 1e-9)
    assert calls == []


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
                             Plan(samples=20_000, seed=3))
    assert report.method == "monte_carlo"
    assert report.eta == pytest.approx(0.4109660194794851, abs=5.0 * report.stderr_eta)


def load_workloads():
    """bench/workloads.py, read only, as its own module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


# repr(eta) and the points the tree uses for each quadrature variant of the
# deterministic_eta workload, at the CLI's tol of 1e-9, recorded with one
# integrand call per level; eta is refs.json's program_value_at_generation
BENCH_QUADRATURE = {
    "det.gauss_en.a": (0.5262460179647155, 1397),
    "det.gauss_en.b": (0.523885663000146, 1241),
    "det.gauss_en.c": (0.5222682176105221, 989),
    "det.gauss_en.d": (0.6401060906781811, 721),
    "det.gauss_ue.a": (0.43085760580264976, 1689),
    "det.gauss_ue.b": (0.4109660194794851, 1533),
    "det.gauss_ue.c": (0.3516635003551607, 1513),
    "det.gauss_ue.d": (0.4295881023551116, 409),
    "det.survival_nn.a": (0.5315063340143535, 593),
    "det.survival_nn.b": (0.5363677632377442, 997),
    "det.survival_nn.c": (0.5671138125046465, 769),
    "det.survival_nn.d": (0.6061921166491488, 1853),
    "det.survival_ue.a": (0.43085760580264976, 1689),
    "det.survival_ue.b": (0.42574623074085816, 1741),
    "det.survival_ue.c": (0.4109660194794851, 1533),
    "det.survival_ue.d": (0.4310033564641933, 725),
    "det.transpose_ne.a": (0.8411978391779382, 1321),
    "det.transpose_ne.b": (0.8922655588895467, 1209),
    "det.transpose_ne.c": (0.8643068612313951, 1417),
    "det.transpose_ne.d": (0.7068635005819256, 289),
    "det.order_stats.a": (0.46123102444199915, 281),
    "det.order_stats.b": (0.38038259886001136, 1021),
    "det.order_stats.c": (0.6349292100219277, 629),
    "det.order_stats.d": (0.6234380014663407, 1109),
    "det.gauss_indep.a": (0.42903929456202583, 1477),
    "det.gauss_indep.b": (0.43031487005435576, 1549),
    "det.gauss_indep.c": (0.43159498209323943, 1429),
    "det.gauss_indep.d": (0.42772206903351984, 1597),
    "det.slow.survival_gauss_0.9": (0.5884683631206296, 20045),
}


def test_bench_quadrature_variants_keep_their_bits_and_points(monkeypatch):
    workloads = load_workloads()
    variants = [v for slot in workloads.WORKLOADS["deterministic_eta"]()
                for v in slot.variants if v.doc["g1"]["kind"] != "atoms"]
    variants.append(workloads.SLOW_VARIANT)
    assert [v.id for v in variants] == list(BENCH_QUADRATURE)
    for v in variants:
        spec = copula_from_json(v.doc["copula"])
        g1, g2 = dist_from_json(v.doc["g1"]), dist_from_json(v.doc["g2"])
        eta, points = BENCH_QUADRATURE[v.id]
        monkeypatch.setattr(integrate, "MAX_EVALS", points)
        assert repr(eta_quadrature(spec, g1, g2, 1e-9).eta) == repr(eta), v.id
        monkeypatch.setattr(integrate, "MAX_EVALS", points - 1)
        with pytest.raises(SizeLimit):
            eta_quadrature(spec, g1, g2, 1e-9)
