"""Independent oracles: load-sharing pair, order-statistics triple, common-
shock construction, and the certified grid bracket."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from spcop.copula import (Independence, MarshallOlkinConnecting,
                          OrderStatistics, Shuffle, sample_uv)
from spcop.dist import Exponential, Normal, Uniform
from spcop.errors import SpecError
from spcop.oracle import (_CHECK_GRID, LoadSharingModel, _counts_le,
                          _empirical_copula, _share, grid_eta_oracle,
                          load_sharing_checks, load_sharing_sample,
                          load_sharing_survival, mo_checks,
                          mo_construction_sample, mo_survival_eta_audit,
                          order_stats_checks, order_stats_triple_sample,
                          run_verification)
from spcop.precedence import eta_mc
from spcop.rng import BLOCK

N = 400_000


class TestLoadSharing:
    def test_model_assumption_enforced(self):
        with pytest.raises(SpecError):
            LoadSharingModel(0.5, 0.8)
        with pytest.raises(SpecError):
            LoadSharingModel(2.0, 3.5)  # beta above 1 + lam

    def test_precedence_probability(self):
        x, y = load_sharing_sample(LoadSharingModel(2.0, 2.5), N, seed=61)
        assert np.mean(x <= y) == pytest.approx(1.0 / 3.0, abs=0.003)

    def test_survival_closed_form_at_half(self):
        m = LoadSharingModel(2.0, 2.5)
        x, _ = load_sharing_sample(m, N, seed=62)
        closed = -3.0 * math.exp(-1.5) + 4.0 * math.exp(-1.25)
        assert load_sharing_survival(m, 0.5) == pytest.approx(closed, abs=1e-15)
        assert np.mean(x > 0.5) == pytest.approx(closed, abs=0.003)

    def test_survival_formula_on_grid(self):
        m = LoadSharingModel(2.0, 2.5)
        checks = load_sharing_checks(m, N, seed=63)
        assert checks["survival_formula_ok"]
        assert checks["p_x_le_y_ok"]

    def test_dominance_fails_on_the_bulk(self):
        # the survival of X crosses exp(-lam x) at 2*ln3; the check reports it
        m = LoadSharingModel(2.0, 2.5)
        checks = load_sharing_checks(m, N, seed=64)
        assert not checks["st_dominated_by_y"]
        assert checks["max_dominance_excess"] > 0.05
        ts = np.linspace(0.05, 2.0, 20)
        assert np.all(load_sharing_survival(m, ts) > np.exp(-2.0 * ts))
        crossing = 2.0 * math.log(3.0)
        assert load_sharing_survival(m, crossing) == pytest.approx(
            math.exp(-2.0 * crossing), abs=1e-12)


class TestOrderStatsTriple:
    def test_t_never_exceeds_x_prime(self):
        t, xp, _ = order_stats_triple_sample(50_000, seed=65)
        assert np.all(t <= xp)

    def test_t_below_x_double_prime_probability(self):
        checks = order_stats_checks(N, seed=66)
        assert checks["p_t_le_xprime_ok"]
        assert checks["p_t_le_xdouble"] == pytest.approx(0.9, abs=0.003)
        assert checks["p_t_le_xdouble_oracle"] == pytest.approx(0.9, abs=1e-6)

    def test_empirical_st_dominance(self):
        checks = order_stats_checks(N, seed=67)
        assert checks["xprime_st_xdouble"]

    def test_alternative_base_distribution(self):
        # P(T <= X') = 1 holds for any base; the 0.9 value is uniform-specific
        t, xp, xpp = order_stats_triple_sample(100_000, seed=68, base=Exponential(1.0))
        assert np.all(t <= xp)
        assert abs(np.mean(t <= xpp) - 0.9) < 0.01  # scale-free for class-G bases
        t2, _, xpp2 = order_stats_triple_sample(100_000, seed=69, base=Normal(2.0, 3.0))
        assert abs(np.mean(t2 <= xpp2) - 0.9) < 0.01

    def test_blocks_keep_the_bits(self):
        # a non-uniform base over 3 blocks and a ragged tail; the digest is the
        # one the sampler gave when it drew all 5 n uniforms in one call
        t, xp, xpp = order_stats_triple_sample(3 * BLOCK + 17, 29, base=Normal(2.0, 3.0))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (t, xp, xpp))).hexdigest()
        assert digest == "73d3b6e3fb8e03fb0910ba122d7c0e2f90f177154be6e2829e5abca263cc3ef4"


class TestMoConstruction:
    def test_three_probabilities(self):
        checks = mo_checks(0.4, 0.2, N, seed=70)
        assert checks["p_le_ok"] and checks["p_lt_ok"] and checks["p_eq_ok"]
        assert checks["p_x1_le_x2"] == pytest.approx(0.2 / 0.52, abs=0.003)
        assert checks["p_x1_lt_x2"] == pytest.approx(0.12 / 0.52, abs=0.003)
        assert checks["p_x1_eq_x2"] == pytest.approx(0.08 / 0.52, abs=0.003)

    def test_tie_flag_is_exact_equality(self):
        x1, x2, tie = mo_construction_sample(0.4, 0.2, 50_000, seed=71)
        assert np.array_equal(tie, x1 == x2)

    def test_construction_matches_copula_sampler(self):
        checks = mo_checks(0.4, 0.2, N, seed=72)
        assert checks["copula_sampler_ok"]

    def test_cross_check_against_eta_mc(self):
        x1, x2, _ = mo_construction_sample(0.4, 0.2, N, seed=73)
        oracle_eta = np.mean(x1 <= x2)
        r = eta_mc(MarshallOlkinConnecting(0.4, 0.2), Exponential(2.5), Exponential(5.0),
                   N, seed=74)
        band = 3.0 * math.sqrt(2.0) * r.stderr_eta
        assert abs(oracle_eta - r.eta) <= band

    def test_audit_resolves_diagonal(self):
        audit = mo_survival_eta_audit(N, seed=75)
        assert audit["off_diagonal_ok"]
        rows = {(r["alpha1"], r["alpha2"]): r for r in audit["rows"]}
        assert rows[(0.4, 0.2)]["matching_branch"] == "alpha1>alpha2"
        assert rows[(0.2, 0.4)]["matching_branch"] == "alpha1<=alpha2"
        assert rows[(0.3, 0.3)]["matching_branch"] == "alpha1<=alpha2"
        assert "1/(2-alpha)" in audit["diagonal_resolution"]


QS = np.linspace(1.0 / 16, 15.0 / 16, 15)  # mo_checks' empirical copula levels


def mean_sweep(u, v, qs):
    """The grid the counting helper replaced: one np.mean pass per point."""
    return np.array([[np.mean((u <= a) & (v <= b)) for b in qs] for a in qs])


class TestEmpiricalCopulaByCounting:
    @pytest.mark.parametrize("a1,a2,n,seed", [(0.4, 0.2, 100_000, 70), (0.3, 0.5, 12345, 3)])
    def test_equals_mean_sweep_bit_for_bit(self, a1, a2, n, seed):
        # both grids of mo_checks: the construction's and the sampler's
        x1, x2, _ = mo_construction_sample(a1, a2, n, seed)
        u2, v2, _, _ = sample_uv(MarshallOlkinConnecting(a1, a2), n, seed + 1)
        for u, v in ((-np.expm1(-x1 / a1), -np.expm1(-x2 / a2)), (u2, v2)):
            counted = _empirical_copula(u, v, QS)
            assert np.array_equal(counted.view(np.int64), mean_sweep(u, v, QS).view(np.int64))
        # the curves of order_stats_checks (two cdfs) and load_sharing_checks (a survival)
        _, xp, xpp = order_stats_triple_sample(n, seed)
        ts = (np.arange(_CHECK_GRID) + 1.0) / (_CHECK_GRID + 1.0)
        for x in (xp, xpp):
            swept = np.array([np.mean(x <= s) for s in ts])
            assert np.array_equal((_counts_le(x, ts) / n).view(np.int64), swept.view(np.int64))
        x, _ = load_sharing_sample(LoadSharingModel(2.0, 2.5), n, seed)
        ts = -np.log1p(-(np.arange(_CHECK_GRID) + 0.5) / _CHECK_GRID) / 2.0
        swept = np.array([np.mean(x > t) for t in ts])
        counted = (n - _counts_le(x, ts)) / n
        assert np.array_equal(counted.view(np.int64), swept.view(np.int64))

    def test_share_equals_mean_bit_for_bit(self):
        x1, x2, _ = mo_construction_sample(0.4, 0.2, 3 * BLOCK + 17, 77)
        for test in (np.less_equal, np.less, np.equal):
            assert np.float64(_share(test, x1, x2)).view(np.int64) == np.mean(
                test(x1, x2)).view(np.int64)

    def test_values_on_the_edges(self):
        # 0, 1, every level k/16 exactly and both neighbours, in all pairs
        assert np.array_equal(QS * 16, np.arange(1.0, 16.0))
        ts = np.concatenate([[0.0, 1.0], QS, np.nextafter(QS, 0.0), np.nextafter(QS, 1.0)])
        u, v = (a.ravel() for a in np.meshgrid(ts, ts))
        counted = _empirical_copula(u, v, QS)
        assert np.array_equal(counted.view(np.int64), mean_sweep(u, v, QS).view(np.int64))


class TestGridOracle:
    def test_independence_bracket(self):
        lo, hi = grid_eta_oracle(Independence(), Uniform(0, 1), Uniform(0, 1), 256)
        assert lo <= 0.5 <= hi
        assert hi - lo <= 2.0 / 256 * 1.5

    def test_shuffle_bracket(self):
        lo, hi = grid_eta_oracle(Shuffle(0.3), Uniform(0, 1), Uniform(0, 1), 512)
        assert lo <= 0.3 <= hi
        assert hi - lo < 0.02

    def test_order_statistics_bracket(self):
        lo, hi = grid_eta_oracle(OrderStatistics(), Uniform(0, 1), Uniform(0, 1), 512)
        assert lo <= 2.0 - math.pi / 2.0 <= hi
        assert hi - lo < 0.01

    def test_bracket_tightens_with_grid(self):
        spans = []
        for grid in (32, 128, 512):
            lo, hi = grid_eta_oracle(Independence(), Uniform(0, 1), Exponential(1.0), grid)
            spans.append(hi - lo)
        assert spans[0] > spans[1] > spans[2]

    def test_unequal_marginals_bracket_contains_quadrature(self):
        from spcop.precedence import eta_quadrature
        lo, hi = grid_eta_oracle(Independence(), Uniform(0, 1), Uniform(0.5, 1.5), 512)
        eta = eta_quadrature(Independence(), Uniform(0, 1), Uniform(0.5, 1.5), 1e-9).eta
        assert lo - 1e-12 <= eta <= hi + 1e-12

    def test_grid_floor(self):
        with pytest.raises(SpecError):
            grid_eta_oracle(Independence(), Uniform(0, 1), Uniform(0, 1), 8)


def test_run_verification_shape():
    rep = run_verification(n=50_000, seed=76)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["mo_probabilities", "mo_vs_copula_sampler", "mo_survival_eta_audit",
                     "load_sharing_probability", "load_sharing_survival_formula",
                     "load_sharing_st_dominance", "order_stats_triple",
                     "grid_oracle_brackets"]
    by_name = {c["name"]: c for c in rep["checks"]}
    # every check passes except the dominance claim, which the data refutes
    for name, check in by_name.items():
        if name == "load_sharing_st_dominance":
            assert not check["passed"]
        else:
            assert check["passed"], name
    assert not rep["passed"]


@pytest.mark.parametrize("group", [
    lambda n: mo_checks(0.4, 0.2, n, 1),
    lambda n: mo_survival_eta_audit(n, 11),
    lambda n: load_sharing_checks(LoadSharingModel(2.0, 2.5), n, 21),
    lambda n: order_stats_checks(n, 31),
], ids=["mo_checks", "mo_survival_eta_audit", "load_sharing_checks", "order_stats_checks"])
def test_sampled_group_memory_is_bounded(group):
    # verify runs two groups at once; each holds at most about five 1e6-point
    # arrays (the parent's mo_checks, audit and order statistics: 78, 78, 76 MiB)
    tracemalloc.start()
    try:
        group(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20
