"""Copula families: cdf formulas, rectangle measures, transforms, samplers,
singular masses, validation, and the JSON codec."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spcop.copula import (_CDF_BLOCK, COPULA_NODES, Comonotone, CopulaSpec,
                          Countermonotone, Gaussian,
                          Independence, MarshallOlkinConnecting,
                          MarshallOlkinSurvival, Mixture, OrderStatistics,
                          Shuffle, SurvivalOf, Transpose, copula_from_json,
                          cell_masses, copula_sample, copula_to_json,
                          sample_uv, survival_of, transpose, validate_copula)
from spcop.errors import SpecError, UnknownMass
from spcop.integrate import integrate_adaptive

# one instance of every leaf family; test_precedence and test_acceptance share it
REGISTRY = [
    Independence(), Comonotone(), Countermonotone(), Shuffle(0.3),
    Gaussian(0.5), MarshallOlkinSurvival(0.4, 0.2),
    MarshallOlkinConnecting(0.4, 0.2), OrderStatistics(),
]
# the nodes that wrap other specs; every other node is a leaf family
WRAPPERS = {"mixture", "transpose", "survival"}


def test_registry_holds_every_leaf_family():
    assert sorted(s.node for s in REGISTRY) == sorted(set(COPULA_NODES) - WRAPPERS)


class TestCdf:
    def test_shuffle_formula(self):
        assert Shuffle(0.3).cdf(0.5, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_mo_survival_point(self):
        val = MarshallOlkinSurvival(0.4, 0.2).cdf(0.5, 0.5)
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
            assert Gaussian(rho).cdf(0.5, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_parameter_domains(self):
        with pytest.raises(SpecError):
            Shuffle(0.0)
        with pytest.raises(SpecError):
            Shuffle(1.2)
        with pytest.raises(SpecError):
            Gaussian(1.0)
        with pytest.raises(SpecError):
            MarshallOlkinSurvival(0.0, 0.5)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _atom_edges(rng, n):
    """Cumulative atom weights with exact 0/1 ends, as eta_discrete_exact builds them."""
    e = np.concatenate([[0.0], np.minimum(np.cumsum(rng.dirichlet(np.ones(n))), 1.0)])
    e[-1] = 1.0
    return e


class TestGaussianCdfBits:
    """sha256 of the cdf bytes, recorded before the cdf was split into
    _CDF_BLOCK-point blocks and the erfc kernels were made in-place."""

    ATOM_GRIDS = [
        (0.7, 100, "45b59f0b27b2c1d88896eb0eaaec3f9bf9acc6377bcdaffbdc8515a6f4dbc28c"),
        (-0.6, 101, "328974064e2aaaac5b239c18af12723ddfb937873699e4dbf06f2bb8e0e46d7d"),
        (0.95, 102, "ed4bb546cf29ab2f9cfb11c25e5ceef4b0cb61688f3652f8b5383e2d151e90b0"),
        (-0.2, 103, "04f9e50c6e41f9c83df623660529537e7a4a584b6cd6df3424a2f5178e234d3a"),
        (0.999, 104, "0d616e4951120b4789594ab8558b5a48bd985c1ce83778fc90fd3bbc3460aa7d"),
        (1e-16, 105, "a0391c90b475646e798b544d20cc52e3530d029580041b92664380d19be597dc"),
    ]

    @pytest.mark.parametrize("rho,seed,digest", ATOM_GRIDS, ids=[str(g[0]) for g in ATOM_GRIDS])
    def test_atom_grid_digest(self, rho, seed, digest):
        rng = np.random.default_rng(seed)
        ue, ve = _atom_edges(rng, 128), _atom_edges(rng, 128)
        assert _sha256(Gaussian(rho).cdf(ue[:, None], ve[None, :])) == digest

    def test_linspace_grid_digest(self):
        g = np.linspace(0.0, 1.0, 65)
        assert (_sha256(Gaussian(0.7).cdf(g[:, None], g[None, :]))
                == "940d2e9d0de0b054dde7abe32ed2a1f9b3f0019f6cd57f0dfd84f7f5632bfe6e")

    @pytest.mark.parametrize("rho", [0.7, -0.95])
    def test_block_seams_keep_bits(self, rho):
        g = np.linspace(0.0, 1.0, 21)
        interior = (g.size - 2) ** 2
        assert interior > 2 * _CDF_BLOCK and interior % _CDF_BLOCK != 0
        spec = Gaussian(rho)
        grid = spec.cdf(g[:, None], g[None, :])
        alone = np.array([[spec.cdf(u, v) for v in g] for u in g])
        assert np.array_equal(grid.view(np.int64), alone.view(np.int64))

    def test_grid_memory_is_bounded(self):
        g = np.linspace(0.0, 1.0, 129)
        spec = Gaussian(0.95)
        spec.cdf(g[:, None], g[None, :])
        tracemalloc.start()
        try:
            spec.cdf(g[:, None], g[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def lattice_masses(spec, us, vs):
    """cell_masses of spec's cdf lattice over the edges us x vs."""
    return cell_masses(spec.cdf(np.asarray(us, dtype=float)[:, None],
                                np.asarray(vs, dtype=float)[None, :]))


class TestRectMeasure:
    """Rectangle C-measures, as cell_masses gives them from a cdf lattice."""

    def test_independence_square(self):
        assert lattice_masses(Independence(), [0, 0.5], [0, 0.5])[0, 0] == pytest.approx(
            0.25, abs=1e-15)

    def test_comonotone_off_diagonal(self):
        assert lattice_masses(Comonotone(), [0, 0.5], [0.5, 1.0])[0, 0] == pytest.approx(
            0.0, abs=1e-15)

    def test_shuffle_mapped_block(self):
        assert lattice_masses(Shuffle(0.3), [0, 0.3], [0.7, 1.0])[0, 0] == pytest.approx(
            0.3, abs=1e-15)

    @pytest.mark.parametrize("spec", REGISTRY, ids=lambda s: s.node)
    def test_nonnegative_and_additive(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u1, u2 = np.sort(rng.random(2))
            v1, v2 = np.sort(rng.random(2))
            whole = lattice_masses(spec, [u1, u2], [v1, v2])[0, 0]
            halves = lattice_masses(spec, [u1, 0.5 * (u1 + u2), u2], [v1, v2])
            assert whole >= -1e-12 and np.all(halves >= -1e-12)
            assert whole == pytest.approx(halves.sum(), abs=1e-12)


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
        with pytest.raises(SpecError, match="mixture weights must form a simplex"):
            Mixture([Independence(), Comonotone()], [0.6, 0.6])
        with pytest.raises(SpecError, match="mixture needs matching non-empty"):
            Mixture([Independence()], [0.5, 0.5])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SpecError, match="mixture weights must be finite"):
                Mixture([Independence(), Comonotone()], [bad, 1.0])


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
        for spec in REGISTRY + [Mixture([Comonotone(), Independence()], [0.3, 0.7])]:
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
        cols = copula_sample(MarshallOlkinSurvival(0.4, 0.2), seed=8, n=500)
        assert list(cols) == ["u", "v", "component", "structural_tie"]
        assert all(type(c) is list and len(c) == 500 for c in cols.values())
        for u, v, component, tie in zip(*cols.values()):
            assert type(u) is float and type(v) is float and type(tie) is bool
            assert 0.0 < u < 1.0 and 0.0 < v < 1.0
            assert component in ("absolutely_continuous", "singular")
            if tie:
                assert component == "singular"

    def test_determinism_and_worker_split(self):
        a = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=1)
        b = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=4)
        d = sample_uv(Gaussian(0.5), 10_000, seed=9, workers=4)
        assert all(np.array_equal(x, y) for x, y in zip(c, d))
        assert not np.array_equal(a[0], c[0])  # split is part of the recorded config

    def test_mixture_sampling_components(self):
        m = Mixture([Comonotone(), Independence()], [0.25, 0.75])
        u, v, sing, tie = sample_uv(m, 100_000, seed=10)
        assert np.mean(sing) == pytest.approx(0.25, abs=0.01)
        assert np.array_equal(u[tie], v[tie])

    def test_mixture_sample_bits_with_a_zero_weight(self):
        m = Mixture((Independence(), Shuffle(0.3), Gaussian(0.5)), (0.5, 0.0, 0.5))
        u, v, sing, tie = sample_uv(m, 20_000, seed=11, workers=2)
        assert not sing.any()  # the shuffle, the only singular part, has weight 0
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (u, v, sing, tie))).hexdigest()
        assert digest == "d3b4d7c70b82f23bfb1b1449c4ed4b82e8d55827f88fb1dcde6ccc1b9e87c2a9"

    # recorded before the Marshall-Olkin samplers mapped their shock minima in place
    MO_DIGESTS = [
        (MarshallOlkinSurvival(0.4, 0.2), 1,
         "020a62042faec374e08b286a160a9df1a8c61b79286afb157bc38b032571fc55"),
        (MarshallOlkinSurvival(0.4, 0.2), 2,
         "711c4757a81c4c926eaf525b899eeb76b901b7769f30c6c13ce00ef07129dcae"),
        (MarshallOlkinConnecting(0.3, 0.6), 1,
         "f659be0c6301da3db84deae815ac8293a671f8db44017625f24f2a55031c3b0e"),
        (MarshallOlkinConnecting(0.3, 0.6), 2,
         "ba7af54a36d5eb71ca8034c7a10454df6ed45aa59e04fbe8b142ed56fb13d908"),
    ]

    @pytest.mark.parametrize("spec,workers,digest", MO_DIGESTS,
                             ids=[f"{d[0].node}-{d[1]}" for d in MO_DIGESTS])
    def test_marshall_olkin_sample_bits(self, spec, workers, digest):
        arrays = sample_uv(spec, 200_003, seed=12, workers=workers)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("spec", [MarshallOlkinSurvival(0.4, 0.2),
                                      MarshallOlkinConnecting(0.3, 0.6)], ids=lambda s: s.node)
    def test_marshall_olkin_sample_memory(self, spec):
        # the construction's three shocks and one temporary set the peak; mapping
        # the minima into new arrays peaked at 39.1 MiB
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            spec.sample_arrays(rng, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 33 * 2 ** 20


class TestSingularMass:
    def test_examples(self):
        assert MarshallOlkinSurvival(0.4, 0.2).singular_mass() == pytest.approx(0.1538461538, abs=1e-9)
        assert Independence().singular_mass() == 0.0
        assert Mixture([Independence(), Comonotone()], [0.5, 0.5]).singular_mass() == 0.5

    def test_families(self):
        assert Comonotone().singular_mass() == 1.0
        assert Countermonotone().singular_mass() == 1.0
        assert Shuffle(0.7).singular_mass() == 1.0
        assert Gaussian(0.9).singular_mass() == 0.0
        assert OrderStatistics().singular_mass() == 0.0
        assert transpose(Shuffle(0.2)).singular_mass() == 1.0
        assert survival_of(MarshallOlkinSurvival(0.5, 0.5)).singular_mass() == pytest.approx(1 / 3)

    def test_order_statistics_density_integrates_to_one(self):
        # mass of the boundary curve = 1 - integral of the density over the
        # absolutely continuous region; the inner v-integral is closed-form
        def inner(u):
            with np.errstate(divide="ignore", invalid="ignore"):
                r = 1.0 - np.sqrt(1.0 - u)
                value = (1.0 - r) / np.sqrt(1.0 - u)  # = int_{r^2}^1 dv/(2 sqrt(v) sqrt(1-u))
            return np.where(u >= 1.0, 1.0, value)  # removable singularity: -> 1

        total = integrate_adaptive(inner, 0.0, 1.0, 1e-10)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_mass_outside_registry(self):
        class Odd(CopulaSpec):
            node = "odd"

        with pytest.raises(UnknownMass):
            Odd().singular_mass()


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
        Mixture([Shuffle(0.5), Gaussian(-0.3)], [0.4, 0.6]),
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
    Mixture([Independence(), Shuffle(0.25)], [0.5, 0.5]),
    Transpose(Gaussian(0.1)),
    SurvivalOf(MarshallOlkinConnecting(0.2, 0.9)),
]}


@pytest.mark.parametrize("node", sorted(COPULA_NODES))
def test_cdf_is_pointwise(node):
    # a grid call gives the bits of one call per point, so the cdf may be
    # evaluated on any subset of a grid; 17 x 17 points span several Gaussian
    # blocks. A 2-D input keeps its shape and a scalar pair gives a float.
    spec = JSON_EXAMPLES[node]
    ts = np.concatenate([[0.0, 1.0], np.random.default_rng(13).random(15)])
    for f in [spec.cdf] + ([spec.conditional_cdf] if spec.absolutely_continuous else []):
        grid = f(ts[:, None], ts[None, :])
        points = [f(u, v) for u in ts for v in ts]
        assert grid.shape == (17, 17)
        assert {type(x) for x in points} == {float}
        assert np.array_equal(grid.ravel().view(np.int64), np.array(points).view(np.int64))
    # NaN passes through every kernel, as it does through Distribution.cdf
    nan = float("nan")
    assert all(np.isnan(spec.cdf(u, v)) for u, v in ((nan, 0.5), (0.5, nan), (nan, nan)))
    if spec.absolutely_continuous:  # d/du C, and the kernel d/dv C
        assert np.isnan(spec.conditional_cdf(0.5, nan))
        assert np.isnan(spec._d2(np.array([nan]), np.array([0.5]))[0])


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
        for not_a_number in ("0.3", True, None):
            with pytest.raises(SpecError):
                copula_from_json({"node": "shuffle", "gamma": not_a_number})
        with pytest.raises(SpecError):
            copula_from_json({"node": "mixture", "weights": [True, False],
                              "components": [{"node": "independence"},
                                             {"node": "comonotone"}]})
        deep = {"node": "independence"}
        for _ in range(5000):
            deep = {"node": "transpose", "inner": deep}
        with pytest.raises(SpecError):
            copula_from_json(deep)
        with pytest.raises(SpecError):
            copula_from_json({"node": "mixture", "weights": "1",
                              "components": [{"node": "independence"}]})
        with pytest.raises(SpecError, match="mixture weights must form a simplex"):
            copula_from_json({"node": "mixture", "weights": [0.9, 0.9],
                              "components": [{"node": "independence"},
                                             {"node": "comonotone"}]})
