"""Copula families: cdf formulas, rectangle measures, transforms, samplers,
singular masses, validation, and the JSON codec."""

import math

import numpy as np
import pytest
from scipy import stats

from spcop.copula import (COPULA_NODES, Comonotone, CopulaSpec, Countermonotone, Gaussian,
                          Independence, MarshallOlkinConnecting,
                          MarshallOlkinSurvival, Mixture, OrderStatistics,
                          Shuffle, SurvivalOf, Transpose, copula_cdf,
                          copula_from_json, copula_sample, copula_to_json,
                          mix, rect_measure, sample_uv, singular_mass,
                          survival_of, transpose, validate_copula)
from spcop.errors import SpecError, UnknownMass, WeightError
from spcop.integrate import integrate_adaptive

REGISTRY = [
    Independence(), Comonotone(), Countermonotone(), Shuffle(0.3),
    Gaussian(0.5), MarshallOlkinSurvival(0.4, 0.2),
    MarshallOlkinConnecting(0.4, 0.2), OrderStatistics(),
]


class TestCdf:
    def test_shuffle_formula(self):
        assert copula_cdf(Shuffle(0.3), 0.5, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_mo_survival_point(self):
        val = copula_cdf(MarshallOlkinSurvival(0.4, 0.2), 0.5, 0.5)
        assert val == pytest.approx(0.25 * 2 ** 0.2, abs=1e-12)

    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_boundary_axioms(self, spec):
        us = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(np.asarray(spec.cdf(us, np.ones_like(us))) - us)) < 1e-12
        assert np.max(np.abs(np.asarray(spec.cdf(np.ones_like(us), us)) - us)) < 1e-12
        assert np.max(np.abs(np.asarray(spec.cdf(us, np.zeros_like(us))))) < 1e-12
        assert np.max(np.abs(np.asarray(spec.cdf(np.zeros_like(us), us)))) < 1e-12

    def test_gaussian_against_scipy(self):
        rng = np.random.default_rng(5)
        for rho in (-0.95, -0.5, 0.2, 0.8):
            u, v = rng.random(50), rng.random(50)
            x, y = stats.norm.ppf(u), stats.norm.ppf(v)
            ref = stats.multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf(
                np.dstack([x, y])[0])
            assert np.max(np.abs(Gaussian(rho).cdf(u, v) - ref)) < 1e-10

    def test_gaussian_median_point(self):
        for rho in (-0.7, 0.3, 0.9):
            expect = 0.25 + math.asin(rho) / (2 * math.pi)
            assert copula_cdf(Gaussian(rho), 0.5, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_parameter_domains(self):
        with pytest.raises(SpecError):
            Shuffle(0.0)
        with pytest.raises(SpecError):
            Shuffle(1.2)
        with pytest.raises(SpecError):
            Gaussian(1.0)
        with pytest.raises(SpecError):
            MarshallOlkinSurvival(0.0, 0.5)


class TestRectMeasure:
    def test_independence_square(self):
        assert rect_measure(Independence(), 0, 0.5, 0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_comonotone_off_diagonal(self):
        assert rect_measure(Comonotone(), 0, 0.5, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_shuffle_mapped_block(self):
        assert rect_measure(Shuffle(0.3), 0, 0.3, 0.7, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_rejects_inverted_rectangle(self):
        with pytest.raises(SpecError):
            rect_measure(Independence(), 0.5, 0.2, 0.0, 1.0)

    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_nonnegative_and_additive(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u1, u2 = np.sort(rng.random(2))
            v1, v2 = np.sort(rng.random(2))
            m = rect_measure(spec, u1, u2, v1, v2)
            assert m >= -1e-12
            um = 0.5 * (u1 + u2)
            split = rect_measure(spec, u1, um, v1, v2) + rect_measure(spec, um, u2, v1, v2)
            assert m == pytest.approx(split, abs=1e-12)


class TestTransforms:
    def test_double_transpose_simplifies(self):
        g = Gaussian(0.5)
        assert transpose(transpose(g)) == g
        assert survival_of(survival_of(Shuffle(0.4))) == Shuffle(0.4)

    def test_survival_of_independence_is_independence(self):
        rng = np.random.default_rng(3)
        u, v = rng.random(64), rng.random(64)
        s = survival_of(Independence())
        assert np.max(np.abs(np.asarray(s.cdf(u, v)) - u * v)) < 1e-15

    def test_mo_survival_transform_equals_connecting(self):
        rng = np.random.default_rng(4)
        u, v = rng.random(128), rng.random(128)
        lhs = SurvivalOf(MarshallOlkinSurvival(0.3, 0.6)).cdf(u, v)
        rhs = MarshallOlkinConnecting(0.3, 0.6).cdf(u, v)
        assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) < 1e-13

    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_double_survival_pointwise(self, spec):
        ts = np.linspace(0.0, 1.0, 65)
        uu, vv = np.meshgrid(ts, ts, indexing="ij")
        lhs = SurvivalOf(SurvivalOf(spec)).cdf(uu, vv)
        rhs = spec.cdf(uu, vv)
        assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) < 1e-10

    def test_mix_weight_validation(self):
        with pytest.raises(WeightError):
            mix([Independence(), Comonotone()], [0.6, 0.6])
        with pytest.raises(WeightError):
            mix([Independence()], [0.5, 0.5])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(WeightError):
                mix([Independence(), Comonotone()], [bad, 1.0])


class TestSampling:
    def test_shuffle_branches_exact(self):
        g = 0.3
        u, v, sing, tie = sample_uv(Shuffle(g), 20_000, seed=1)
        expected = np.where(u <= g, u + (1.0 - g), u - g)
        assert np.array_equal(v, expected)
        assert sing.all() and not tie.any()
        deltas = v - u
        const = np.where(u <= g, 1.0 - g, -g)
        assert np.max(np.abs(deltas - const)) <= 2 ** -52

    def test_shuffle_low_u_maps_up(self):
        u, v, _, _ = sample_uv(Shuffle(0.3), 50_000, seed=2)
        low = u <= 0.3
        assert np.allclose(v[low], u[low] + 0.7, atol=1e-15)
        assert np.allclose(v[~low], u[~low] - 0.3, atol=1e-15)

    def test_comonotone_diagonal(self):
        u, v, sing, tie = sample_uv(Comonotone(), 10_000, seed=3)
        assert np.array_equal(u, v)
        assert sing.all() and tie.all()

    def test_mo_tie_fraction(self):
        _, _, sing, tie = sample_uv(MarshallOlkinSurvival(0.4, 0.2), 1_000_000, seed=4)
        expect = 0.08 / 0.52
        assert np.array_equal(sing, tie)
        assert np.mean(tie) == pytest.approx(expect, abs=0.001)

    def test_mo_ties_sit_on_the_singular_curve(self):
        u, v, _, tie = sample_uv(MarshallOlkinSurvival(0.4, 0.2), 50_000, seed=5)
        on_curve = np.abs(u[tie] ** 0.4 - v[tie] ** 0.2)
        assert np.max(on_curve) < 1e-12

    def test_structural_tie_only_when_singular(self):
        for spec in REGISTRY + [mix([Comonotone(), Independence()], [0.3, 0.7])]:
            _, _, sing, tie = sample_uv(spec, 5_000, seed=6)
            assert not np.any(tie & ~sing)

    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_empirical_copula_matches_cdf(self, spec):
        n = 1_000_000
        u, v, _, _ = sample_uv(spec, n, seed=7)
        qs = np.linspace(1 / 16, 15 / 16, 15)
        below_u = (u[:, None] <= qs[None, :]).astype(np.float64)
        below_v = (v[:, None] <= qs[None, :]).astype(np.float64)
        emp = below_u.T @ below_v / n
        exact = np.asarray(spec.cdf(qs[:, None], qs[None, :]))
        assert np.max(np.abs(emp - exact)) < 4.0 / math.sqrt(n)

    def test_sample_objects(self):
        samples = copula_sample(MarshallOlkinSurvival(0.4, 0.2), seed=8, n=500)
        assert len(samples) == 500
        for s in samples[:50]:
            assert 0.0 < s.u < 1.0 and 0.0 < s.v < 1.0
            assert s.component in ("absolutely_continuous", "singular")
            if s.structural_tie:
                assert s.component == "singular"

    def test_determinism_and_worker_split(self):
        a = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=1)
        b = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=4)
        d = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=4)
        assert all(np.array_equal(x, y) for x, y in zip(c, d))
        assert not np.array_equal(a[0], c[0])  # split is part of the recorded config

    def test_mixture_sampling_components(self):
        m = mix([Comonotone(), Independence()], [0.25, 0.75])
        u, v, sing, tie = sample_uv(m, 100_000, seed=10)
        assert np.mean(sing) == pytest.approx(0.25, abs=0.01)
        assert np.array_equal(u[tie], v[tie])


class TestSingularMass:
    def test_examples(self):
        assert singular_mass(MarshallOlkinSurvival(0.4, 0.2)) == pytest.approx(0.1538461538, abs=1e-9)
        assert singular_mass(Independence()) == 0.0
        assert singular_mass(mix([Independence(), Comonotone()], [0.5, 0.5])) == 0.5

    def test_families(self):
        assert singular_mass(Comonotone()) == 1.0
        assert singular_mass(Countermonotone()) == 1.0
        assert singular_mass(Shuffle(0.7)) == 1.0
        assert singular_mass(Gaussian(0.9)) == 0.0
        assert singular_mass(OrderStatistics()) == 0.0
        assert singular_mass(transpose(Shuffle(0.2))) == 1.0
        assert singular_mass(survival_of(MarshallOlkinSurvival(0.5, 0.5))) == pytest.approx(1 / 3)

    def test_order_statistics_density_integrates_to_one(self):
        # mass of the boundary curve = 1 - integral of the density over the
        # absolutely continuous region; the inner v-integral is closed-form
        def inner(u):
            if u >= 1.0:
                return 1.0  # removable singularity: (1-r)/sqrt(1-u) -> 1
            r = 1.0 - math.sqrt(1.0 - u)
            return (1.0 - r) / math.sqrt(1.0 - u)  # = int_{r^2}^1 dv/(2 sqrt(v) sqrt(1-u))

        total = integrate_adaptive(inner, 0.0, 1.0, 1e-10)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_mass_outside_registry(self):
        class Odd(CopulaSpec):
            node = "odd"

        with pytest.raises(UnknownMass):
            singular_mass(Odd())


class TestValidation:
    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_builtins_pass_quick_grid(self, spec):
        assert validate_copula(spec, grid=16) == []

    def test_corrupted_spec_reports_violations(self):
        class Broken(Shuffle):
            def cdf(self, u, v):  # max instead of min: boundary + 2-increasing break
                u = np.asarray(u, dtype=float)
                v = np.asarray(v, dtype=float)
                return np.maximum(np.minimum(u, v),
                                  np.maximum(u - self.gamma, 0.0)
                                  + np.maximum(v + self.gamma - 1.0, 0.0))

        violations = validate_copula(Broken(0.3), grid=16)
        assert violations
        checks = {v["check"] for v in violations}
        assert any("boundary" in c or "frechet" in c or "2-increasing" in c for c in checks)

    def test_grid_floor(self):
        with pytest.raises(SpecError):
            validate_copula(Independence(), grid=4)


class TestFrechetBounds:
    @pytest.mark.parametrize("spec", REGISTRY + [
        mix([Shuffle(0.5), Gaussian(-0.3)], [0.4, 0.6]),
        transpose(MarshallOlkinSurvival(0.7, 0.1)),
        survival_of(OrderStatistics()),
    ], ids=lambda s: s.node)
    def test_bounds_hold_on_random_points(self, spec):
        rng = np.random.default_rng(12)
        u, v = rng.random(2000), rng.random(2000)
        c = np.asarray(spec.cdf(u, v))
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-9)
        assert np.all(c <= np.minimum(u, v) + 1e-9)


JSON_EXAMPLES = {s.node: s for s in REGISTRY + [
    mix([Independence(), Shuffle(0.25)], [0.5, 0.5]),
    Transpose(Gaussian(0.1)),
    SurvivalOf(MarshallOlkinConnecting(0.2, 0.9)),
]}


class TestJson:
    @pytest.mark.parametrize("node", sorted(COPULA_NODES))
    def test_roundtrip(self, node):
        spec = JSON_EXAMPLES[node]  # a new registry node needs an example here
        assert copula_from_json(copula_to_json(spec)) == spec

    def test_subclass_does_not_take_over_a_node(self):
        class Local(Shuffle):  # inherits node = "shuffle"
            pass

        assert type(copula_from_json({"node": "shuffle", "gamma": 0.3})) is Shuffle
        assert COPULA_NODES["shuffle"] is Shuffle

    def test_nested_simplification(self):
        doc = {"node": "transpose", "inner": {"node": "transpose",
                                              "inner": {"node": "gaussian", "rho": 0.5}}}
        assert copula_from_json(doc) == Gaussian(0.5)

    def test_bad_documents(self):
        with pytest.raises(SpecError):
            copula_from_json({"node": "clayton", "theta": 1.0})
        with pytest.raises(SpecError):
            copula_from_json({"gamma": 0.3})
        with pytest.raises(SpecError):
            copula_from_json({"node": "shuffle"})
        with pytest.raises(SpecError):  # too large for a float
            copula_from_json({"node": "shuffle", "gamma": 10 ** 400})
        deep = {"node": "independence"}
        for _ in range(5000):
            deep = {"node": "transpose", "inner": deep}
        with pytest.raises(SpecError):
            copula_from_json(deep)
        with pytest.raises(SpecError):
            copula_from_json({"node": "mixture", "weights": "1",
                              "components": [{"node": "independence"}]})
        with pytest.raises(WeightError):
            copula_from_json({"node": "mixture", "weights": [0.9, 0.9],
                              "components": [{"node": "independence"},
                                             {"node": "comonotone"}]})
