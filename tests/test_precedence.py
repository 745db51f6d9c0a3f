"""Eta/xi estimators: closed-form registry, Monte Carlo, quadrature, exact
discrete sums, level checks, class verdicts, and the cross-route identities."""

import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcop.copula import (Comonotone, CopulaSpec, Countermonotone, Gaussian, Independence,
                          MarshallOlkinConnecting, MarshallOlkinSurvival,
                          Mixture, OrderStatistics, Shuffle, sample_uv,
                          survival_of, transpose)
from spcop.dist import (DiscreteAtoms, Distribution, Exponential, Normal,
                        Uniform, UniformPower)
from spcop.errors import Inconclusive, SizeLimit, SpecError, UnknownMass
from spcop.precedence import (ClassVerdict, Plan, PrecedenceReport, best_eta_report,
                              classify, eta_discrete_exact, eta_exact,
                              eta_lower_bound, eta_mc, eta_quadrature,
                              sp_level)

from test_copula import JSON_EXAMPLES, REGISTRY

ETA_K = 2.0 - math.pi / 2.0
EPS = np.finfo(float).eps


def phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class TestClosedForms:
    def test_shuffle_is_boundary_class_member(self):
        assert eta_exact(Shuffle(0.3)) == (0.3, 0.0)

    def test_shuffle_at_one_is_comonotone(self):
        assert eta_exact(Shuffle(1.0)) == (1.0, 1.0)

    def test_order_statistics_constant(self):
        eta, xi = eta_exact(OrderStatistics())
        assert eta == pytest.approx(ETA_K, abs=1e-15)
        assert xi == 0.0

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.4, 0.95])
    def test_gaussian_eta_half_for_all_rho(self, rho):
        assert eta_exact(Gaussian(rho)) == (0.5, 0.0)

    def test_frechet_nodes(self):
        assert eta_exact(Comonotone()) == (1.0, 1.0)
        assert eta_exact(Countermonotone()) == (0.5, 0.0)
        assert eta_exact(Independence()) == (0.5, 0.0)

    def test_mo_survival_branches(self):
        eta, xi = eta_exact(MarshallOlkinSurvival(0.4, 0.2))
        assert eta == pytest.approx(0.8 / 1.8, abs=1e-15) and xi == 0.0
        eta, xi = eta_exact(MarshallOlkinSurvival(0.2, 0.4))
        assert eta == pytest.approx(1.0 / 1.8, abs=1e-15) and xi == 0.0
        eta, xi = eta_exact(MarshallOlkinSurvival(0.3, 0.3))
        assert eta == pytest.approx(1.0 / 1.7, abs=1e-15)
        assert xi == pytest.approx(0.3 / 1.7, abs=1e-15)

    def test_transpose_survival_identity_closed(self):
        wrapped = REGISTRY + [Mixture([Shuffle(0.2), Gaussian(-0.4)], [0.3, 0.7]),
                              Mixture([Comonotone(), MarshallOlkinSurvival(0.5, 0.5)],
                                      [0.5, 0.5])]
        for spec in wrapped:
            eta, xi = eta_exact(spec)
            for image in (transpose(spec), survival_of(spec)):
                eta_t, xi_t = eta_exact(image)
                assert eta_t == pytest.approx(1.0 - eta + xi, abs=1e-10), spec
                assert xi_t == pytest.approx(xi, abs=1e-10), spec

    def test_symmetric_copula_corollary(self):
        # transpose-invariant families: eta = (1 + xi) / 2
        for spec in (Independence(), Gaussian(0.7), Comonotone(), Countermonotone()):
            eta, xi = eta_exact(spec)
            assert eta == pytest.approx((1.0 + xi) / 2.0, abs=1e-12)

    def test_mixture_linearity_random(self):
        rng = np.random.default_rng(21)
        pool = REGISTRY
        for _ in range(50):
            c1 = pool[rng.integers(len(pool))]
            c2 = pool[rng.integers(len(pool))]
            a = float(rng.uniform(0.05, 0.95))
            eta, xi = eta_exact(Mixture([c1, c2], [a, 1.0 - a]))
            e1, x1 = eta_exact(c1)
            e2, x2 = eta_exact(c2)
            assert eta == pytest.approx(a * e1 + (1 - a) * e2, abs=1e-10)
            assert xi == pytest.approx(a * x1 + (1 - a) * x2, abs=1e-10)


class TestClosedFormsWithMarginals:
    def test_gaussian_normal_marginals(self):
        eta, xi = eta_exact(Gaussian(0.0), Normal(0, 1), Normal(1, 1))
        assert eta == pytest.approx(phi(1.0 / math.sqrt(2.0)), abs=1e-12)
        assert xi == 0.0

    def test_gaussian_general_normal_formula(self):
        eta, _ = eta_exact(Gaussian(0.6), Normal(0.5, 1.5), Normal(1.2, 0.7))
        denom = math.sqrt(1.5 ** 2 + 0.7 ** 2 - 2 * 0.6 * 1.5 * 0.7)
        assert eta == pytest.approx(phi(0.7 / denom), abs=1e-12)

    def test_mo_connecting_with_matching_exponentials(self):
        eta, xi = eta_exact(MarshallOlkinConnecting(0.4, 0.2), Exponential(2.5), Exponential(5.0))
        assert eta == pytest.approx(0.2 / 0.52, abs=1e-12)
        assert xi == pytest.approx(0.08 / 0.52, abs=1e-12)
        # strict precedence = eta - xi
        assert eta - xi == pytest.approx(0.12 / 0.52, abs=1e-12)

    def test_gaussian_mixture_with_normal_marginals(self):
        spec = Mixture((Gaussian(0.3), Gaussian(-0.6)), (0.4, 0.6))
        g1, g2 = Normal(0, 1), Normal(0.5, 2)
        eta, xi = eta_exact(spec, g1, g2)
        assert xi == 0.0
        assert eta == pytest.approx(eta_quadrature(spec, g1, g2, tol=1e-10).eta, abs=1e-8)

    def test_gaussian_sd_past_the_square_range_has_no_closed_form(self):
        # sd ** 2 overflows; quadrature answers instead
        assert eta_exact(Gaussian(0.5), Normal(0, 1), Normal(0, 1e308)) is None
        r = best_eta_report(Gaussian(0.5), Normal(0, 1), Normal(0, 1e308))
        assert r.method == "quadrature" and r.eta == pytest.approx(0.5)

    def test_mo_connecting_mismatched_rates_not_in_registry(self):
        assert eta_exact(MarshallOlkinConnecting(0.4, 0.2), Exponential(1.0), Exponential(5.0)) is None

    def test_order_statistics_own_marginals(self):
        lo = UniformPower(2.0, reflected=True)
        hi = UniformPower(2.0, reflected=False)
        assert eta_exact(OrderStatistics(), lo, hi) == (1.0, 0.0)

    def test_equal_class_g_marginals_reduce_to_copula_eta(self):
        for g in (Uniform(0, 1), Exponential(1.0), Normal(0, 1)):
            assert eta_exact(Shuffle(0.4), g, g) == (0.4, 0.0)

    def test_equal_discrete_marginals_not_in_registry(self):
        at = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        assert eta_exact(Shuffle(0.4), at, at) is None

    def test_marginal_arity_check(self):
        with pytest.raises(SpecError):
            eta_exact(Independence(), Uniform(0, 1), None)

    def test_family_defined_outside_the_package(self):
        class Local(CopulaSpec):  # only its closed form for marginals
            node = "local"

            def closed_eta_xi_with(self, g1, g2):
                return 0.75, 0.125

        assert eta_exact(Local(), Uniform(0, 1), Normal(0, 1)) == (0.75, 0.125)
        assert eta_exact(Local()) is None
        assert eta_exact(transpose(Local()), Normal(0, 1), Uniform(0, 1)) == (0.375, 0.125)
        r = best_eta_report(Local(), Uniform(0, 1), Normal(0, 1))
        assert (r.method, r.eta, r.xi) == ("closed_form", 0.75, 0.125)
        with pytest.raises(UnknownMass, match="no closed form"):
            best_eta_report(Local())


class TestMonteCarlo:
    def test_minimum_sample_size(self):
        with pytest.raises(SpecError):
            eta_mc(Independence(), Uniform(0, 1), Uniform(0, 1), 100, 0)

    def test_shuffle_uniform(self):
        r = eta_mc(Shuffle(0.5), Uniform(0, 1), Uniform(0, 1), 200_000, seed=31)
        assert r.method == "monte_carlo"
        assert abs(r.eta - 0.5) < 0.004
        assert r.xi == 0.0

    def test_independence_uniform(self):
        r = eta_mc(Independence(), Uniform(0, 1), Uniform(0, 1), 200_000, seed=32)
        assert abs(r.eta - 0.5) < 0.004
        assert r.xi == 0.0

    def test_mo_connecting_exponentials(self):
        r = eta_mc(MarshallOlkinConnecting(0.4, 0.2), Exponential(2.5), Exponential(5.0),
                   400_000, seed=33)
        assert abs(r.eta - 0.2 / 0.52) < 0.003
        assert abs(r.xi - 0.08 / 0.52) < 0.003
        assert abs((r.eta - r.xi) - 0.12 / 0.52) < 0.004

    def test_structural_ties_do_not_count_for_mismatched_marginals(self):
        # singular curve off the diagonal: under uniform marginals xi is 0
        r = eta_mc(MarshallOlkinSurvival(0.4, 0.2), Uniform(0, 1), Uniform(0, 1),
                   100_000, seed=34)
        assert r.xi == 0.0

    def test_shuffle_gamma_one_ties(self):
        r = eta_mc(Shuffle(1.0), Uniform(0, 1), Uniform(0, 1), 50_000, seed=35)
        assert r.eta == 1.0 and r.xi == 1.0

    def test_error_bars_are_calibrated(self):
        # the closed-form cases of criteria 1, 3 and 5, ten seeds each; an
        # eta of 0 or 1 gives a count of 0 or n, whose error is 1/n, not 0
        u, n = Uniform(0.0, 1.0), 10_000
        cases = [(Shuffle(g), u, u, g) for g in (0.1, 0.3, 0.5, 0.8, 1.0)]
        cases += [(Gaussian(rho), Normal(0, 1), Normal(1, 1), phi(1.0 / math.sqrt(2.0 * (1.0 - rho))))
                  for rho in (-0.5, 0.0, 0.5, 0.9)]
        cases += [(image, u, u, eta_exact(image)[0])
                  for spec in REGISTRY for image in (spec, transpose(spec), survival_of(spec))]
        reports = [(eta_mc(spec, g1, g2, n, seed), eta)
                   for spec, g1, g2, eta in cases for seed in range(10)]
        assert min(r.stderr_eta for r, _ in reports) > 0.0
        misses = sum(abs(r.eta - eta) > 3.0 * r.stderr_eta for r, eta in reports)
        # 330 reports at a 0.27 % miss rate: 0.9 expected, more than 4 has odds 0.2 %
        assert misses <= 4

    def test_discrete_marginal_atom_ties(self):
        at1 = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        at2 = DiscreteAtoms(((0.0, 0.25), (1.0, 0.75)))
        r = eta_mc(Independence(), at1, at2, 100_000, seed=36)
        # P(X1 = X2) = .5*.25 + .5*.75 = 0.5
        assert abs(r.xi - 0.5) < 0.01
        assert abs(r.eta - (0.5 + 0.5 * 0.75)) < 0.01

    def test_rejects_nonfinite_quantiles(self):
        class BadDist(Uniform):
            def quantile(self, p):
                return np.full_like(np.asarray(p, dtype=float), np.inf)

        with pytest.raises(SpecError):
            eta_mc(Independence(), BadDist(0, 1), Uniform(0, 1), 10_000, seed=37)

    @pytest.mark.parametrize("points, eta", [
        (((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)), "0x1.f7e28240b7803p-1"),
        (((6.0, 0.3), (8.0, 0.4), (10.0, 0.3)), "0x1.01c432ca57a78p-1"),
    ])
    def test_threaded_chunks_keep_the_bits(self, points, eta):
        # fresh atoms: both chunk threads find their cached arrays cold;
        # digits recorded when the chunks ran one after the other
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            r = eta_mc(Gaussian(0.5), DiscreteAtoms(points), Normal(8, 4), 20_000, 7, 2)
        finally:
            sys.setswitchinterval(switch)
        assert (r.eta.hex(), r.xi) == (eta, 0.0)

    def test_counts_match_the_mean_of_the_whole_sample(self):
        spec, g1, g2 = MarshallOlkinSurvival(0.4, 0.2), Uniform(0, 1), Exponential(1.0)
        for workers in (1, 2, 3):
            u, v, _, tie = sample_uv(spec, 30_001, 12, workers)
            x1, x2 = g1.quantile(u), g2.quantile(v)
            scale = np.maximum(1.0, np.maximum(np.abs(x1), np.abs(x2)))
            ties = (x1 == x2) | (tie & (np.abs(x1 - x2) <= 1e-9 * scale))
            r = eta_mc(spec, g1, g2, 30_001, 12, workers)
            assert r.eta == float(np.mean((x1 <= x2) | ties))
            assert r.xi == float(np.mean(ties))

    def test_seed_determinism(self):
        a = eta_mc(Gaussian(0.3), Normal(0, 1), Normal(1, 1), 50_000, seed=38)
        b = eta_mc(Gaussian(0.3), Normal(0, 1), Normal(1, 1), 50_000, seed=38)
        assert a == b


class TestQuadrature:
    def test_order_statistics_to_1e8(self):
        r = eta_quadrature(OrderStatistics(), Uniform(0, 1), Uniform(0, 1), tol=1e-8)
        assert r.method == "quadrature" and r.stderr_eta == 0.0
        assert abs(r.eta - ETA_K) < 1e-8

    def test_gaussian_equal_marginals_half(self):
        r = eta_quadrature(Gaussian(0.7), Exponential(1.0), Exponential(1.0), tol=1e-9)
        assert abs(r.eta - 0.5) < 1e-9

    def test_independence_shifted_uniforms(self):
        r = eta_quadrature(Independence(), Uniform(0, 1), Uniform(0.5, 1.5), tol=1e-9)
        assert abs(r.eta - 7.0 / 8.0) < 1e-9

    def test_transposed_mixture_and_survival_keep_the_flip_identity(self):
        # the transpose's d/du C is the inner node's d/dv C
        g1, g2 = Uniform(0, 1), Exponential(2.0)
        for spec in (Mixture((OrderStatistics(), Gaussian(0.4)), (0.3, 0.7)),
                     survival_of(OrderStatistics())):
            flipped = eta_quadrature(transpose(spec), g1, g2, tol=1e-10).eta
            assert flipped == pytest.approx(1.0 - eta_quadrature(spec, g2, g1, tol=1e-10).eta,
                                            abs=1e-8)

    def test_mixture_of_continuous(self):
        spec = Mixture([Independence(), Gaussian(0.4)], [0.5, 0.5])
        r = eta_quadrature(spec, Normal(0, 1), Normal(0, 1), tol=1e-9)
        assert abs(r.eta - 0.5) < 1e-8

    def test_transpose_of_order_statistics(self):
        r = eta_quadrature(transpose(OrderStatistics()), Uniform(0, 1), Uniform(0, 1), tol=1e-8)
        assert abs(r.eta - (1.0 - ETA_K)) < 1e-7

    def test_no_density_for_singular(self):
        with pytest.raises(SpecError, match="copula has a singular component"):
            eta_quadrature(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1))

    def test_needs_class_g(self):
        at = DiscreteAtoms(((0.0, 1.0),))
        with pytest.raises(SpecError):
            eta_quadrature(Independence(), at, Uniform(0, 1))


def full_grid_eta_xi(spec, g1, g2):
    """Reference (eta, xi): the double sum with the copula cdf evaluated on
    every corner of the (n1+1) x (n2+1) atom grid."""
    xs = np.array([x for x, _ in g1.points])
    ys = np.array([y for y, _ in g2.points])
    ue = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g1.points]), 1.0)])
    ve = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g2.points]), 1.0)])
    ue[-1] = 1.0
    ve[-1] = 1.0
    cc = np.asarray(spec.cdf(ue[:, None], ve[None, :]))
    masses = cc[1:, 1:] - cc[:-1, 1:] - cc[1:, :-1] + cc[:-1, :-1]
    eta = float(np.sum(masses[xs[:, None] <= ys[None, :]]))
    xi = float(np.sum(masses[xs[:, None] == ys[None, :]]))
    return min(max(eta, 0.0), 1.0), min(max(xi, 0.0), 1.0)


@st.composite
def atom_laws(draw):
    # locations on a half-integer lattice of 41 points, so two laws of up to
    # 40 atoms each often share locations and xi > 0
    xs = sorted(draw(st.sets(st.integers(-20, 20), min_size=1, max_size=40)))
    ws = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs))))
    return DiscreteAtoms(tuple(zip((0.5 * np.array(xs)).tolist(), (ws / ws.sum()).tolist())))


def quarter_grid_atoms(count, seed, shift=0.0):
    """`count` atoms on a quarter grid with small-integer weights."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.choice(4 * count, count, replace=False)) / 4.0 + shift
    ws = rng.integers(1, 10, count).astype(float)
    return DiscreteAtoms(tuple(zip(xs.tolist(), (ws / ws.sum()).tolist())))


class TestDiscreteExact:
    def test_degenerate_atoms(self):
        one = DiscreteAtoms(((0.0, 1.0),))
        r = eta_discrete_exact(Independence(), one, one)
        assert (r.eta, r.xi) == (1.0, 1.0)
        assert r.method == "discrete_exact" and r.stderr_eta == 0.0

    def test_comonotone_two_atoms(self):
        at = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        r = eta_discrete_exact(Comonotone(), at, at)
        assert (r.eta, r.xi) == (1.0, 1.0)

    def test_shuffle_atoms_cross_checked_against_mc(self):
        at = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        exact = eta_discrete_exact(Shuffle(0.3), at, at)
        mc = eta_mc(Shuffle(0.3), at, at, 400_000, seed=41)
        assert abs(mc.eta - exact.eta) <= 3.0 * mc.stderr_eta
        assert abs(mc.xi - exact.xi) <= 3.0 * mc.stderr_xi

    def test_gaussian_spec_on_atoms(self):
        a = DiscreteAtoms(((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)))
        r = eta_discrete_exact(Gaussian(0.5), a, a)
        mc = eta_mc(Gaussian(0.5), a, a, 200_000, seed=42)
        assert abs(mc.eta - r.eta) <= 4.0 * mc.stderr_eta + 1e-4

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(node=st.sampled_from(sorted(JSON_EXAMPLES)), g1=atom_laws(), g2=atom_laws())
    def test_rows_keep_the_full_grid_sum(self, node, g1, g2):
        # xi sums the same tie cells in the same order; eta sums one rectangle
        # per row, so it may move by round-off, far below one cell's mass
        spec = JSON_EXAMPLES[node]
        r = eta_discrete_exact(spec, g1, g2)
        eta, xi = full_grid_eta_xi(spec, g1, g2)
        assert repr(r.xi) == repr(xi)
        assert abs(r.eta - eta) <= 4 * EPS

    def test_cdf_points_are_linear_in_the_atoms(self, monkeypatch):
        g1, g2 = quarter_grid_atoms(128, 31), quarter_grid_atoms(128, 32, 0.5)
        spec = Gaussian(0.7)
        eta, xi = full_grid_eta_xi(spec, g1, g2)
        points = []
        cdf = Gaussian.cdf

        def spy(self, u, v):
            points.append(np.broadcast(u, v).size)
            return cdf(self, u, v)

        monkeypatch.setattr(Gaussian, "cdf", spy)
        r = eta_discrete_exact(spec, g1, g2)
        assert repr(r.xi) == repr(xi) and abs(r.eta - eta) <= 4 * EPS
        assert sum(points) <= 2 * 128 + 4 * 128

    def test_memory_is_linear_in_the_atoms(self):
        g1, g2 = quarter_grid_atoms(5000, 33), quarter_grid_atoms(5000, 34, 0.5)
        eta_discrete_exact(Independence(), g1, g2)  # builds the atoms' cached arrays
        tracemalloc.start()
        try:
            eta_discrete_exact(Independence(), g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_size_limit(self):
        xs = np.arange(6000, dtype=float)
        big = DiscreteAtoms(tuple((float(x), 1.0 / 6000) for x in xs))
        with pytest.raises(SizeLimit):
            eta_discrete_exact(Independence(), big, big)


class TestDispatchAndLevels:
    def test_method_preference_closed_first(self):
        r = best_eta_report(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1))
        assert r.method == "closed_form"

    def test_method_preference_discrete(self):
        at = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        assert best_eta_report(Shuffle(0.3), at, at).method == "discrete_exact"

    def test_method_preference_quadrature(self):
        r = best_eta_report(Gaussian(0.2), Uniform(0, 1), Normal(0, 1))
        assert r.method == "quadrature"

    def test_quadrature_errors_propagate(self, monkeypatch):
        import spcop.precedence as precedence

        def broken(*args, **kwargs):
            raise SpecError("quadrature bug")

        monkeypatch.setattr(precedence, "eta_quadrature", broken)
        with pytest.raises(SpecError, match="quadrature bug"):
            best_eta_report(Gaussian(0.2), Uniform(0, 1), Normal(0, 1))

    def test_method_preference_mc(self):
        r = best_eta_report(Shuffle(0.3), Uniform(0, 1), Uniform(0.2, 1.2),
                            Plan(samples=20_000, seed=43))
        assert r.method == "monte_carlo"

    def test_discrete_over_the_atom_budget_falls_back_to_monte_carlo(self):
        big = DiscreteAtoms(tuple((float(x), 1.0 / 6000) for x in range(6000)))
        r = best_eta_report(Gaussian(0.5), big, big, Plan(samples=20_000, seed=5))
        assert r.method == "monte_carlo" and r.samples == 20_000
        assert r == eta_mc(Gaussian(0.5), big, big, 20_000, seed=5)

    def test_sp_level_gives_exact_routes_slack(self):
        r = sp_level(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1), 0.3 + 5e-13)
        assert r.holds and r.report.method == "closed_form" and r.report.eta == 0.3

    @pytest.mark.parametrize("offset", [5e-13, 1e-10, 2e-9, 0.0, -1e-3])
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_sp_level_agrees_with_classify(self, offset, tol):
        gamma = 0.3 + offset
        r = sp_level(Shuffle(0.3), None, None, gamma, Plan(tol=tol))
        assert r.holds == classify(Shuffle(0.3), gamma, tol=tol).in_L_gamma
        r = sp_level(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1), gamma, Plan(tol=tol))
        assert r.holds == classify(Shuffle(0.3), gamma, tol=tol).in_L_gamma

    def test_sp_level_examples(self):
        assert sp_level(Shuffle(0.8), Uniform(0, 1), Uniform(0, 1), 0.5).holds
        assert sp_level(Comonotone(), Exponential(1), Exponential(1), 1.0).holds
        assert not sp_level(Gaussian(0.9), Normal(0, 1), Normal(0, 1), 0.6).holds

    def test_sp_level_inconclusive_inside_band(self):
        # singular copula + unequal marginals forces the MC route; eta ~ 0.5
        with pytest.raises(Inconclusive):
            sp_level(Shuffle(0.5), Uniform(0, 1), Uniform(1e-7, 1.0 + 1e-7),
                     gamma=0.5, plan=Plan(samples=20_000, seed=44))

    def test_sp_level_domain(self):
        with pytest.raises(SpecError):
            sp_level(Independence(), Uniform(0, 1), Uniform(0, 1), 1.5)

    def test_classify_examples(self):
        v = classify(Shuffle(0.3), 0.3)
        assert v.in_B_gamma and v.in_L_gamma
        assert not classify(Shuffle(0.3), 0.5).in_L_gamma
        v = classify(Independence(), 0.5)
        assert v.in_L_gamma and v.in_B_gamma

    def test_classify_without_a_closed_form(self):
        class Local(CopulaSpec):
            node = "local"

        with pytest.raises(UnknownMass, match="no closed form for this copula"):
            classify(Local(), 0.5)
        with pytest.raises(SpecError, match="gamma must lie in"):
            classify(Shuffle(0.3), 1.5)

    def test_classify_consistency_invariant(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            spec = REGISTRY[rng.integers(len(REGISTRY))]
            gamma = float(rng.random())
            v = classify(spec, gamma)
            if v.in_B_gamma:
                assert v.in_L_gamma
            assert v.in_L_gamma == (v.eta_value >= gamma - v.tolerance)

    def test_eta_lower_bound_examples(self):
        r = eta_lower_bound(Gaussian(0.5), Normal(0, 1), Normal(1, 1))
        assert r == {"bound": 0.5, "applicable": True}
        r = eta_lower_bound(Shuffle(0.3), Exponential(1), Exponential(1))
        assert r == {"bound": 0.3, "applicable": True}
        r = eta_lower_bound(Independence(), Normal(1, 1), Normal(0, 1))
        assert r == {"bound": 0.0, "applicable": False}


class TestPlan:
    def test_a_new_field_reaches_the_routes_with_no_signature_change(self, monkeypatch):
        import spcop.precedence as precedence
        from spcop.tba import Prospect, rank_prospects

        @dataclass(frozen=True)
        class Traced(Plan):
            sink: str = "unset"

        seen = []
        needs, run = precedence.ROUTES[0]

        def recording(spec, g1, g2, plan):
            seen.append((type(plan), plan.sink, plan.seed))
            return run(spec, g1, g2, plan)

        monkeypatch.setattr(precedence, "ROUTES", ((needs, recording), *precedence.ROUTES[1:]))
        plan, g = Traced(seed=4, sink="here"), Uniform(0, 1)
        assert best_eta_report(Shuffle(0.3), g, g, plan).method == "closed_form"
        assert sp_level(Shuffle(0.3), g, g, 0.2, plan).holds
        rank_prospects(g, [Prospect(name, g, copula=Shuffle(0.3)) for name in "ab"], plan)
        assert seen == [(Traced, "here", 4)] * 3 + [(Traced, "here", 5)]


class TestReportInvariants:
    def test_exact_reports_zero_stderr(self):
        with pytest.raises(SpecError):
            PrecedenceReport(0.5, 0.0, "closed_form", 0.1, 0.0, 0)

    def test_xi_never_exceeds_eta(self):
        rng = np.random.default_rng(46)
        marg = [Uniform(0, 1), Exponential(1.0), Normal(0, 1),
                DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))]
        for _ in range(40):
            spec = REGISTRY[rng.integers(len(REGISTRY))]
            g = marg[rng.integers(len(marg))]
            r = eta_mc(spec, g, g, 10_000, seed=int(rng.integers(1 << 30)))
            assert r.xi <= r.eta + 1e-12
        for spec in REGISTRY:
            eta, xi = eta_exact(spec)
            assert xi <= eta + 1e-12


class TestCrossRouteIdentities:
    def test_transpose_identity_mc_path(self):
        # MO survival copula under equal uniform marginals: MC on both sides
        spec = MarshallOlkinSurvival(0.4, 0.2)
        u = Uniform(0, 1)
        base = eta_mc(spec, u, u, 400_000, seed=47)
        for image in (transpose(spec), survival_of(spec)):
            im = eta_mc(image, u, u, 400_000, seed=48)
            target = 1.0 - base.eta + base.xi
            band = 3.0 * math.sqrt(base.stderr_eta ** 2 + base.stderr_xi ** 2
                                   + im.stderr_eta ** 2)
            assert abs(im.eta - target) <= band

    def test_marginal_invariance_quick(self):
        for spec in (Shuffle(0.3), MarshallOlkinConnecting(0.4, 0.2), OrderStatistics()):
            rs = [eta_mc(spec, g, g, 200_000, seed=49)
                  for g in (Uniform(0, 1), Exponential(1.0), Normal(0, 1))]
            for i in range(len(rs)):
                for j in range(i + 1, len(rs)):
                    band = 3.0 * math.sqrt(rs[i].stderr_eta ** 2 + rs[j].stderr_eta ** 2)
                    assert abs(rs[i].eta - rs[j].eta) <= band

    def test_monotonicity_in_second_marginal(self):
        # G2 st-precedes G2': eta cannot decrease when the target grows
        for spec in (Independence(), Gaussian(-0.5), OrderStatistics()):
            lo = eta_quadrature(spec, Normal(0, 1), Normal(0.2, 1), tol=1e-9).eta
            hi = eta_quadrature(spec, Normal(0, 1), Normal(0.8, 1), tol=1e-9).eta
            assert lo <= hi + 1e-9

    def test_discrete_lower_bound_property(self):
        # eta(C, G, H) >= eta(C) for G st-preceding H, discrete included
        rng = np.random.default_rng(50)
        for _ in range(40):
            spec = REGISTRY[rng.integers(len(REGISTRY))]
            xs = np.sort(rng.uniform(-2, 2, 5))
            ps = rng.dirichlet(np.ones(5))
            g = DiscreteAtoms(tuple(zip(xs.tolist(), ps.tolist())))
            h = DiscreteAtoms(tuple(zip((xs + rng.uniform(0.0, 1.0)).tolist(), ps.tolist())))
            eta_c = eta_exact(spec)[0]
            r = eta_discrete_exact(spec, g, h)
            assert r.eta >= eta_c - 1e-10
