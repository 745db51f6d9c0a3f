"""Target-based ranking: exact rows, bound rows, warnings, and ordering
invariants."""

import math

import numpy as np
import pytest

from spcop.copula import Gaussian, Independence, OrderStatistics, Shuffle
from spcop.dist import Exponential, Normal, Uniform, UniformPower
from spcop.errors import SpecError
from spcop.precedence import Plan, eta_mc
from spcop.tba import Prospect, rank_prospects


BOUND_PROSPECT = {"name": "b", "marginal": {"kind": "uniform", "a": 0, "b": 1},
                  "gamma_bound": 0.4}


def phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class TestProspect:
    def test_exactly_one_dependence(self):
        with pytest.raises(SpecError):
            Prospect("x", Uniform(0, 1))
        with pytest.raises(SpecError):
            Prospect("x", Uniform(0, 1), copula=Independence(), gamma_bound=0.5)
        with pytest.raises(SpecError):
            Prospect("x", Uniform(0, 1), gamma_bound=1.5)

    def test_json_roundtrip(self):
        p = {"name": "a", "marginal": {"kind": "normal", "mean": 1, "sd": 1},
             "copula": {"node": "gaussian", "rho": 0.2}}
        assert Prospect.from_json(p) == Prospect("a", Normal(1, 1), copula=Gaussian(0.2))
        assert Prospect.from_json(BOUND_PROSPECT) == Prospect("b", Uniform(0, 1), gamma_bound=0.4)

    def test_gamma_bound_must_be_a_json_number(self):
        for not_a_number in ("0.4", True):
            with pytest.raises(SpecError):
                Prospect.from_json(dict(BOUND_PROSPECT, gamma_bound=not_a_number))

    def test_name_must_be_a_json_string(self):
        for not_a_string in (None, 3, {"first": "b"}, ["b"]):
            with pytest.raises(SpecError):
                Prospect.from_json(dict(BOUND_PROSPECT, name=not_a_string))


class TestGaussianProspects:
    def test_two_normal_prospects_ranked_by_mean(self):
        table = rank_prospects(Normal(0, 1), [
            Prospect("A", Normal(1, 1), copula=Gaussian(0.0)),
            Prospect("B", Normal(2, 1), copula=Gaussian(0.0)),
        ])
        assert [r.name for r in table.rows] == ["B", "A"]
        assert table.rows[0].eta_or_bound == pytest.approx(phi(2 / math.sqrt(2)), abs=1e-9)
        assert table.rows[1].eta_or_bound == pytest.approx(phi(1 / math.sqrt(2)), abs=1e-9)
        assert all(r.kind == "exact" for r in table.rows)
        assert table.warnings == ()

    def test_same_copula_st_ordered_marginals_keep_order(self):
        table = rank_prospects(Normal(0, 1), [
            Prospect("low", Normal(0.5, 1), copula=Gaussian(0.5)),
            Prospect("high", Normal(1.5, 1), copula=Gaussian(0.5)),
        ])
        assert [r.name for r in table.rows] == ["high", "low"]


class TestCounterexampleRanking:
    def test_dependence_beats_st_dominance(self):
        # target = min of two iid uniforms; X' = their max (coupled through the
        # order-statistics copula), X'' = max of three independent uniforms.
        # X' is st-dominated by X'' yet ranks first: P(T<=X') = 1 > 0.9.
        target = UniformPower(2.0, reflected=True)
        x_prime = Prospect("x_prime", UniformPower(2.0), copula=OrderStatistics())
        x_double = Prospect("x_double", UniformPower(3.0), copula=Independence())
        table = rank_prospects(target, [x_double, x_prime])
        assert [r.name for r in table.rows] == ["x_prime", "x_double"]
        assert table.rows[0].eta_or_bound == pytest.approx(1.0, abs=1e-12)
        assert table.rows[1].eta_or_bound == pytest.approx(0.9, abs=1e-8)
        # the marginals alone point the other way
        from spcop.dist import check_order
        assert check_order("st", UniformPower(2.0), UniformPower(3.0)).holds


class TestGammaBounds:
    def test_larger_gamma_wins(self):
        table = rank_prospects(Uniform(0, 1), [
            Prospect("weak", Uniform(0.5, 1.5), gamma_bound=0.4),
            Prospect("strong", Uniform(1.0, 2.0), gamma_bound=0.7),
        ])
        assert [r.name for r in table.rows] == ["strong", "weak"]
        assert [r.eta_or_bound for r in table.rows] == [0.7, 0.4]
        assert all(r.kind == "lower_bound" for r in table.rows)

    def test_bound_invalid_without_st_order(self):
        table = rank_prospects(Normal(1, 1), [
            Prospect("bad", Normal(0, 1), gamma_bound=0.9),
        ])
        row = table.rows[0]
        assert row.eta_or_bound == 0.0
        assert "incomparable" in row.flags
        assert any("vacuous" in w for w in table.warnings)

    def test_mixed_kinds_warn(self):
        table = rank_prospects(Uniform(0, 1), [
            Prospect("bound", Uniform(0.5, 1.5), gamma_bound=0.4),
            Prospect("exact", Uniform(0, 1), copula=Shuffle(0.8)),
        ])
        assert any("mixes" in w for w in table.warnings)

    def test_bound_tightness_against_exact_equal_case(self):
        # a gamma bound can never exceed the exact eta of a copula whose
        # copula-level eta equals that gamma under equal marginals
        table = rank_prospects(Uniform(0, 1), [
            Prospect("exact", Uniform(0, 1), copula=Shuffle(0.3)),
            Prospect("bound", Uniform(0, 1), gamma_bound=0.3),
        ])
        assert any("mixes" in w for w in table.warnings)
        by_name = {r.name: r for r in table.rows}
        assert by_name["bound"].eta_or_bound <= by_name["exact"].eta_or_bound + 1e-12


class TestTableMechanics:
    def test_ties_break_lexicographically(self):
        table = rank_prospects(Uniform(0, 1), [
            Prospect("zeta", Uniform(0, 1), copula=Shuffle(0.5)),
            Prospect("alpha", Uniform(0, 1), copula=Shuffle(0.5)),
        ])
        assert [r.name for r in table.rows] == ["alpha", "zeta"]

    def test_estimate_kind_for_mc_route(self):
        table = rank_prospects(Exponential(1.0), [
            Prospect("mc", Exponential(2.0), copula=Shuffle(0.5)),
        ], Plan(samples=20_000, seed=7))
        assert table.rows[0].kind == "estimate"
        assert table.rows[0].stderr > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_copula_prospect_i_draws_from_seed_plus_i(self, workers):
        # the same law twice, so only the seed tells the two rows apart
        target, marginal, copula = Exponential(1.0), Exponential(2.0), Shuffle(0.5)
        prospects = [Prospect(name, marginal, copula=copula) for name in ("first", "second")]
        table = rank_prospects(target, prospects, Plan(samples=20_000, seed=11, workers=workers))
        rows = {r.name: r for r in table.rows}
        for i, p in enumerate(prospects):
            expected = eta_mc(copula, target, marginal, 20_000, 11 + i, workers)
            assert rows[p.name].kind == "estimate"
            assert (rows[p.name].eta_or_bound, rows[p.name].stderr) == (
                expected.eta, expected.stderr_eta)
        assert rows["first"].eta_or_bound != rows["second"].eta_or_bound

    def test_empty_prospects_rejected(self):
        with pytest.raises(SpecError):
            rank_prospects(Uniform(0, 1), [])
