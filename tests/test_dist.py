"""Distribution operations: cdf/quantile contracts, class-G detection and
stochastic-order checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcop.dist import (DIST_KINDS, DiscreteAtoms, Distribution, Exponential, Normal,
                        PiecewiseLinearCdf, Uniform, UniformPower,
                        check_order, dist_from_json, dist_to_json,
                        order_holds_at, quantile_grid)
from spcop.errors import SpecError

CLASS_G_SAMPLES = [
    Uniform(0.0, 1.0), Uniform(-2.0, 3.0), Exponential(1.0), Exponential(2.5),
    Normal(0.0, 1.0), Normal(1.0, 0.5), UniformPower(2.0), UniformPower(3.0, reflected=True),
]

JSON_EXAMPLES = CLASS_G_SAMPLES + [
    DiscreteAtoms(((0.0, 0.5), (1.0, 0.5))),
    PiecewiseLinearCdf(((0, 0), (1, 0.5), (2, 1))),
]


class TestCdfExamples:
    def test_uniform_identity(self):
        assert Uniform(0, 1).cdf(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_exponential_support_boundary(self):
        assert Exponential(2.0).cdf(0.0) == 0.0
        assert Exponential(2.0).cdf(-1.0) == 0.0

    def test_atoms_right_continuity(self):
        d = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        assert d.cdf(0.0) == 0.5
        assert d.cdf(np.nextafter(0.0, -1)) == 0.0
        assert d.cdf(1.0) == 1.0

    def test_atoms_cdf_capped_when_probabilities_sum_above_one(self):
        # the probabilities sum to 1 + 3e-13, inside the validation slack
        d = DiscreteAtoms(((0, 0.6), (1, 0.4 + 2e-13), (2, 1e-13)))
        assert np.all(np.diff(d._cum) >= 0.0) and d._cum[-1] == 1.0
        assert d.cdf(1.0) <= 1.0
        assert np.all(d.cdf(np.linspace(-1.0, 3.0, 41)) <= 1.0)


@pytest.mark.parametrize("d", JSON_EXAMPLES, ids=lambda d: repr(d))
def test_scalars_give_floats_and_arrays_keep_their_shape(d):
    xs = np.linspace(-1.0, 2.5, 12).reshape(3, 4)
    ps = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    calls = [(d.cdf, xs), (d.quantile, ps), (d.survival, xs)]
    if d.has_density:
        calls.append((d.density, xs))
    for f, arg in calls:
        out = f(arg)
        points = [f(a) for a in arg.ravel()]
        assert out.shape == (3, 4)
        assert {type(x) for x in points} == {float}
        assert np.array_equal(out.ravel().view(np.int64), np.array(points).view(np.int64))
    assert np.isnan(d.cdf(np.nan)) and np.isnan(d.survival(np.nan))
    if d.has_density:
        assert np.isnan(d.density(np.nan))


@pytest.mark.parametrize("d", [Uniform(0, 1), Uniform(-2, 3), UniformPower(1.0),
                               UniformPower(2.0), UniformPower(3.0, reflected=True)],
                         ids=repr)
def test_density_lets_nan_through(d):
    # the support mask is False at NaN, and t ** 0 is 1 even for t = NaN
    out = d.density(np.array([np.nan, 0.5, 7.0]))
    assert np.isnan(out[0]) and out[1] > 0.0 and out[2] == 0.0


class TestQuantileExamples:
    def test_uniform(self):
        assert Uniform(0, 1).quantile(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_normal_symmetry(self):
        assert Normal(0, 1).quantile(0.5) == 0.0

    def test_atoms_generalized_inverse_takes_left_atom(self):
        d = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        assert d.quantile(0.5) == 0.0
        assert d.quantile(0.5 + 1e-12) == 1.0

    def test_endpoint_sentinels(self):
        assert Normal(0, 1).quantile(0.0) == -np.inf
        assert Normal(0, 1).quantile(1.0) == np.inf
        assert Exponential(1.0).quantile(0.0) == 0.0
        assert Uniform(2, 5).quantile(1.0) == 5.0
        for d in JSON_EXAMPLES:  # every kind of DIST_KINDS
            for p in (float("nan"), -0.1, 1.5):
                for arg in (p, np.array([0.5, p])):
                    with pytest.raises(SpecError, match="quantile probability must"):
                        d.quantile(arg)


def test_atoms_quantile_bits_at_and_beside_the_cumulative_weights():
    # p = 0, each cumulative weight and both its float neighbours, and p = 1;
    # the second law's weights sum past 1, so its cdf is capped there
    out = []
    for d in (DiscreteAtoms(((-1.0, 0.2), (0.5, 0.3), (2.0, 0.1), (3.0, 0.4))),
              DiscreteAtoms(((0, 0.6), (1, 0.4 + 2e-13), (2, 1e-13)))):
        c = d._cum
        p = np.concatenate([[0.0], c, np.nextafter(c, -np.inf),
                            np.minimum(np.nextafter(c, np.inf), 1.0), [1.0]])
        out.append(d.quantile(p))
    assert hashlib.sha256(np.concatenate(out).tobytes()).hexdigest() == (
        "bd107ab05511e30f3d56a2aad9e812071e12c3bd95889beb576611150aae5952")


class TestClassG:
    def test_closed_forms(self):
        assert Normal(0, 1).is_class_g
        assert Uniform(0, 1).is_class_g
        assert Exponential(3.0).is_class_g
        assert UniformPower(2.0).is_class_g

    def test_atoms_jump(self):
        assert not DiscreteAtoms(((0.0, 1.0),)).is_class_g

    def test_pwl_interior_flat(self):
        flat = PiecewiseLinearCdf(((0, 0), (1, 0.5), (1.5, 0.5), (2, 1)))
        assert not flat.is_class_g
        rising = PiecewiseLinearCdf(((0, 0), (1, 1)))
        assert rising.is_class_g
        jump = PiecewiseLinearCdf(((0, 0), (1, 0.3), (1, 0.7), (2, 1)))
        assert not jump.is_class_g


def test_pwl_bits_at_and_beside_the_knots():
    # a flat start, a jump at 1 and a flat interior segment on [1, 3],
    # probed on each knot and on both of its float neighbours
    knots = ((-1, 0), (0, 0), (1, 0.3), (1, 0.6), (2, 0.6), (3, 0.6), (4, 1))
    dist = PiecewiseLinearCdf(knots)
    xs, ps = np.array(knots, dtype=float).T
    x = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                        np.linspace(-2, 5, 141)])
    p = np.concatenate([[0.0], ps, [1.0], np.clip(np.nextafter(ps, -np.inf), 0, 1),
                        np.clip(np.nextafter(ps, np.inf), 0, 1), np.linspace(0, 1, 101)])
    out = np.concatenate([dist.cdf(x), dist.quantile(p)])
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "f6d24dbc0006cee5ac2d180deaf00c0bb2ba5b7dc032c0b4125d8fb604ed67b1")


@pytest.mark.parametrize("dist", CLASS_G_SAMPLES, ids=lambda d: repr(d))
def test_galois_connection_class_g(dist):
    ps = np.linspace(1e-9, 1 - 1e-6, 2001)
    xs = dist.quantile(ps)
    assert np.max(np.abs(dist.cdf(xs) - ps)) < 1e-12
    assert np.max(np.abs(dist.quantile(dist.cdf(xs)) - xs)) < 1e-9


@settings(max_examples=200, derandomize=True)
@given(p=st.floats(1e-6, 1 - 1e-6))
def test_galois_inequality_atoms(p):
    d = DiscreteAtoms(((-1.0, 0.25), (0.5, 0.25), (2.0, 0.5)))
    assert d.cdf(d.quantile(p)) >= p


class TestCheckOrder:
    def test_exponential_pair(self):
        r = check_order("st", Exponential(1.0), Exponential(0.5))
        assert r.holds and r.witness is None

    def test_normal_shift(self):
        assert check_order("st", Normal(0, 1), Normal(1, 1)).holds

    def test_normal_different_sd_fails_with_witness(self):
        r = check_order("st", Normal(0, 1), Normal(1, 2))
        assert not r.holds
        assert r.witness is not None and r.witness < 0  # lower-tail crossing
        assert not order_holds_at("st", Normal(0, 1), Normal(1, 2), r.witness)

    def test_st_failing_same_family_stays_closed_form(self):
        # the cdfs cross at t = -100, where both underflow to 0; the grid
        # sees no gap, and the closed-form verdict stands
        r = check_order("st", Normal(0, 1), Normal(1, 1.01))
        assert not r.holds and r.witness == pytest.approx(-100.0)
        assert check_order("st", Normal(1, 1.01), Normal(0, 1)).holds is False
        assert check_order("st", Normal(0, 1.01), Normal(1, 1)).holds is False

    def test_hr_lr_closed_forms(self):
        for rel in ("hr", "lr"):
            assert check_order(rel, Exponential(1.0), Exponential(0.5)).holds
            assert check_order(rel, Normal(0, 1), Normal(1, 1)).holds
            for g1, g2 in ((Exponential(0.5), Exponential(1.0)), (Normal(0, 1), Normal(1, 2)),
                           (Uniform(0.5, 1), Uniform(0, 2)), (Uniform(0, 2), Uniform(0.5, 1)),
                           (Uniform(0.5, 1.5), Uniform(0, 1))):
                r = check_order(rel, g1, g2)
                assert not r.holds
                assert not order_holds_at(rel, g1, g2, r.witness)  # re-observable
            # the ratio drops only below t ~ -49.7, outside the quantile grid
            assert not check_order(rel, Normal(0, 1), Normal(1, 1.01)).holds

    def test_hr_lr_cross_family(self):
        # exponential(1) vs uniform: density ratio not monotone both ways
        r = check_order("lr", Exponential(1.0), Uniform(0.0, 1.0))
        assert not r.holds
        assert not order_holds_at("lr", Exponential(1.0), Uniform(0.0, 1.0), r.witness)
        # uniform hazard 1/(1-t) dominates the unit exponential hazard on [0,1)
        assert check_order("hr", Uniform(0.0, 1.0), Exponential(1.0)).holds
        assert not check_order("hr", Exponential(1.0), Uniform(0.0, 1.0)).holds

    def test_unsupported_for_atoms(self):
        at = DiscreteAtoms(((0.0, 1.0),))
        with pytest.raises(SpecError, match="hr ordering needs closed-form densities"):
            check_order("hr", at, at)
        with pytest.raises(SpecError, match="lr ordering needs closed-form densities"):
            check_order("lr", DiscreteAtoms(((0.0, 1.0),)), Normal(0, 1))

    def test_hr_for_a_law_defined_outside_the_package(self):
        class Shifted(Distribution):  # exponential(1) shifted right by one
            kind = "shifted"

            def cdf(self, x):
                return Exponential(1.0).cdf(np.asarray(x, dtype=float) - 1.0)

            def survival(self, x):
                return Exponential(1.0).survival(np.asarray(x, dtype=float) - 1.0)

            def quantile(self, p):
                return Exponential(1.0).quantile(p) + 1.0

            def density(self, x):
                return Exponential(1.0).density(np.asarray(x, dtype=float) - 1.0)

        assert Shifted().has_density and not DiscreteAtoms(((0.0, 1.0),)).has_density
        assert check_order("hr", Exponential(1.0), Shifted()).holds

    def test_normal_crossing_whose_products_overflow(self):
        # mean * sd overflows; the crossing itself, 1e307 / 0.99, does not
        r = check_order("st", Normal(-1, 100), Normal(1e307, 1))
        assert not r.holds and r.witness == pytest.approx(1e307 / 0.99)

    def test_subclass_of_a_builtin_kind_takes_the_closed_form(self):
        class Local(Normal):
            pass

        # the ratio drops only below t ~ -49.7, outside the quantile grid
        for rel in ("st", "hr", "lr"):
            assert check_order(rel, Local(0, 1), Normal(1, 1.01)) == check_order(
                rel, Normal(0, 1), Normal(1, 1.01))
            assert not check_order(rel, Local(0, 1), Normal(1, 1.01)).holds

    def test_st_with_atoms(self):
        a = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        b = DiscreteAtoms(((0.5, 0.5), (2.0, 0.5)))
        assert check_order("st", a, b).holds
        assert not check_order("st", b, a).holds

    def test_grid_floor(self):
        with pytest.raises(SpecError):
            check_order("st", Uniform(0, 1), Uniform(0, 1), grid=32)


def order_digest_pairs():
    """Seeded same- and cross-family pairs of every kind, plus two pinned ones."""
    rng = np.random.default_rng(20130)
    draw = {
        "uniform": lambda: Uniform(float(a := rng.uniform(-2, 2)), float(a + rng.uniform(0.2, 3))),
        "exponential": lambda: Exponential(float(rng.uniform(0.2, 4))),
        "normal": lambda: Normal(float(rng.uniform(-2, 2)),
                                 float(rng.choice([1.0, rng.uniform(0.3, 3)]))),
        "uniform_power": lambda: UniformPower(float(rng.uniform(0.3, 4)), bool(rng.random() < 0.5)),
        "atoms": lambda: DiscreteAtoms(((float(x := rng.uniform(-2, 1)), 0.25),
                                        (float(x + rng.uniform(0.1, 2)), 0.75))),
        "pwl": lambda: PiecewiseLinearCdf(((float(x := rng.uniform(-2, 1)), 0.0),
                                           (float(x + 1.0), 0.4), (float(x + 2.5), 1.0))),
    }
    kinds = sorted(draw)
    pairs = [(Normal(0, 1), Normal(1, 1.01)), (Exponential(0.5), Exponential(1.0))]
    for kind in ("uniform", "exponential", "normal"):
        pairs += [(draw[kind](), draw[kind]()) for _ in range(6)]
    pairs += [(draw[kinds[rng.integers(6)]](), draw[kinds[rng.integers(6)]]())
              for _ in range(30)]
    return pairs


def test_order_check_digest():
    # (relation, holds, witness.hex(), grid) of every pair, relation and grid
    rows = []
    for g1, g2 in order_digest_pairs():
        for relation in ("st", "hr", "lr"):
            for grid in (64, 512):
                try:
                    r = check_order(relation, g1, g2, grid=grid)
                except SpecError as exc:
                    if "needs closed-form densities" not in str(exc):
                        raise
                    rows.append((relation, "unsupported", grid))
                    continue
                witness = None if r.witness is None else float(r.witness).hex()
                rows.append((r.relation, r.holds, witness, r.grid_size))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "403fc192566d7de7f06a40ad98ca66e02f702e68f38642c263ab8c6f5971c3ff")


def test_quantile_grid_refuses_a_pair_without_finite_tails():
    # the upper tail quantiles of a 1e-308 rate overflow: no upper bisection bound
    with pytest.raises(SpecError, match="finite quantile"):
        quantile_grid((Exponential(1e-308), Exponential(2e-308)), 64)


def test_quantile_grid_midpoints_of_huge_bounds_stay_finite():
    # 0.5 * (lo + hi) overflows once both bounds pass about 9e307
    ts = quantile_grid((Uniform(1.2e308, 1.5e308), Uniform(1e308, 1.1e308)), 64)
    assert ts.size == 80 and np.isfinite(ts).all()


def test_order_hierarchy_lr_implies_hr_implies_st():
    rng = np.random.default_rng(314159)
    families = ("exponential", "normal", "uniform")
    checked = {"lr": 0, "hr": 0}
    for _ in range(1000):
        fam = families[rng.integers(len(families))]
        if fam == "exponential":
            g1, g2 = Exponential(float(rng.uniform(0.2, 3))), Exponential(float(rng.uniform(0.2, 3)))
        elif fam == "normal":
            sds = rng.uniform(0.5, 2, 2)
            if rng.random() < 0.5:
                sds[1] = sds[0]
            g1 = Normal(float(rng.uniform(-1, 1)), float(sds[0]))
            g2 = Normal(float(rng.uniform(-1, 1)), float(sds[1]))
        else:
            a1, a2 = rng.uniform(-1, 1, 2)
            g1 = Uniform(float(a1), float(a1 + rng.uniform(0.5, 2)))
            g2 = Uniform(float(a2), float(a2 + rng.uniform(0.5, 2)))
        lr = check_order("lr", g1, g2, grid=128).holds
        hr = check_order("hr", g1, g2, grid=128).holds
        stv = check_order("st", g1, g2, grid=128).holds
        if lr:
            checked["lr"] += 1
            assert hr, f"lr without hr: {g1} vs {g2}"
        if hr:
            checked["hr"] += 1
            assert stv, f"hr without st: {g1} vs {g2}"
    assert checked["lr"] > 100 and checked["hr"] > 100  # the property was exercised


def test_order_hierarchy_cross_family():
    # mixed families take the generic numeric path rather than a shortcut
    rng = np.random.default_rng(271828)
    pool = [lambda: Exponential(float(rng.uniform(0.3, 3))),
            lambda: Normal(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2))),
            lambda: Uniform(float(a := rng.uniform(-1, 1)), float(a + rng.uniform(0.5, 2))),
            lambda: UniformPower(float(rng.uniform(0.5, 4)), bool(rng.random() < 0.5))]
    seen_hr = 0
    for _ in range(200):
        g1 = pool[rng.integers(len(pool))]()
        g2 = pool[rng.integers(len(pool))]()
        if type(g1) is type(g2):
            continue
        lr = check_order("lr", g1, g2, grid=128).holds
        hr = check_order("hr", g1, g2, grid=128).holds
        stv = check_order("st", g1, g2, grid=128).holds
        if lr:
            assert hr, f"lr without hr: {g1} vs {g2}"
        if hr:
            seen_hr += 1
            assert stv, f"hr without st: {g1} vs {g2}"
    assert seen_hr > 5  # some cross-family pairs genuinely are hr-ordered


class TestValidationAndJson:
    def test_atoms_validation(self):
        with pytest.raises(SpecError):
            DiscreteAtoms(((0.0, 0.5), (0.0, 0.5)))
        with pytest.raises(SpecError):
            DiscreteAtoms(((0.0, 0.6), (1.0, 0.6)))
        with pytest.raises(SpecError):
            DiscreteAtoms(((0.0, 0.5), (float("inf"), 0.5)))

    def test_pwl_validation(self):
        with pytest.raises(SpecError):
            PiecewiseLinearCdf(((0, 0.1), (1, 1)))
        with pytest.raises(SpecError):
            PiecewiseLinearCdf(((0, 0), (1, 0.9)))
        with pytest.raises(SpecError):
            PiecewiseLinearCdf(((0, 0), (float("nan"), 0.5), (2, 1)))

    def test_uniform_validation(self):
        with pytest.raises(SpecError):
            Uniform(1.0, 1.0)
        with pytest.raises(SpecError, match="finite b - a"):  # b - a overflows
            Uniform(-1e308, 1e308)

    @pytest.mark.parametrize("d", JSON_EXAMPLES, ids=lambda d: repr(d))
    def test_json_roundtrip(self, d):
        assert dist_from_json(dist_to_json(d)) == d

    def test_bad_documents(self):
        with pytest.raises(SpecError):
            dist_from_json({"kind": "pareto", "a": 1})
        with pytest.raises(SpecError):
            dist_from_json({"mean": 0})
        with pytest.raises(SpecError):
            dist_from_json({"kind": "normal", "mean": 0})
        with pytest.raises(SpecError):  # reflected must be a JSON boolean
            dist_from_json({"kind": "uniform_power", "k": 2, "reflected": "false"})
        with pytest.raises(SpecError):
            dist_from_json({"kind": "atoms", "points": [[0, 0.5, 1], [1, 0.5]]})

    def test_reflected_defaults_to_false(self):
        assert dist_from_json({"kind": "uniform_power", "k": 2}) == UniformPower(2.0)

    def test_every_kind_has_a_roundtrip_example(self):
        assert {d.kind for d in JSON_EXAMPLES} == set(DIST_KINDS)
